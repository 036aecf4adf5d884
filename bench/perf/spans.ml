(* Bench-local span recorder for the traced run.

   Each span wraps one call the benchmark makes into a layer's public
   functions. Spans are timed on the monotonic clock, kept in memory and
   written once, through [Dmm_obs.Chrome_sink], when the run ends; nothing
   inside the libraries is instrumented. Parents are passed explicitly,
   because the spans of one call tree run on several domains (pool tasks)
   or threads (feeder connections). Outside [recording], [span] only calls
   its body, so untraced iterations run the same code without records. *)

type span = { id : int; parent : int; name : string; lane : int; t0 : int; t1 : int }

let epoch = Measure.now_ns ()
let lock = Mutex.create ()
let next_id = Atomic.make 1
let recorded : span list ref = ref []
let on = ref false

let recording f =
  on := true;
  Fun.protect ~finally:(fun () -> on := false) f

(* [span ~parent name f] runs [f id], recording it as a child of [parent]
   (0 for a root) on [lane]: the Chrome track, by default the domain
   running the call. The body receives its own id to parent further
   spans. *)
let span ?(parent = 0) ?lane name f =
  if not !on then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let lane = match lane with Some l -> l | None -> (Domain.self () :> int) in
    let t0 = Measure.now_ns () in
    let finish () =
      let s = { id; parent; name; lane; t0; t1 = Measure.now_ns () } in
      Mutex.protect lock (fun () -> recorded := s :: !recorded)
    in
    Fun.protect ~finally:finish (fun () -> f id)
  end

let duration_s s = float_of_int (s.t1 - s.t0) *. 1e-9
let find id = List.find (fun s -> s.id = id) !recorded
let children id = List.filter (fun s -> s.parent = id) !recorded

(* Share of [root]'s wall time, over [lanes] parallel lanes, spent inside
   its direct children: the part of an iteration attributed to a layer
   call. The children on one lane never overlap, so their durations add. *)
let coverage ~lanes root =
  let covered = List.fold_left (fun acc c -> acc +. duration_s c) 0.0 (children root.id) in
  covered /. (float_of_int lanes *. duration_s root)

(* Total duration of the finished spans named [name] anywhere below the
   span [id], which may still be open. *)
let total_below id name =
  let rec go acc id =
    List.fold_left
      (fun acc c -> if c.name = name then acc +. duration_s c else go acc c.id)
      acc (children id)
  in
  go 0.0 id

(* Write every span as Chrome B/E pairs, one track per lane. Spans of a
   lane nest by construction; the stack only clamps an end so it never
   passes its parent's. *)
let write_chrome path =
  let sink = Dmm_obs.Chrome_sink.create ~name:"dmm perf bench" ~pid:1 in
  let us t = (t - epoch) / 1000 in
  let lanes = List.sort_uniq compare (List.map (fun s -> s.lane) !recorded) in
  List.iter
    (fun lane ->
      let ordered =
        List.filter (fun s -> s.lane = lane) !recorded
        |> List.sort (fun a b -> compare (a.t0, -a.t1) (b.t0, -b.t1))
      in
      let stack = ref [] in
      let close_until t =
        while match !stack with e :: _ -> e <= t | [] -> false do
          Dmm_obs.Chrome_sink.end_span sink ~ts:(us (List.hd !stack)) ~tid:lane;
          stack := List.tl !stack
        done
      in
      List.iter
        (fun s ->
          close_until s.t0;
          let t1 = match !stack with e :: _ -> min s.t1 e | [] -> s.t1 in
          Dmm_obs.Chrome_sink.begin_span sink ~ts:(us s.t0) ~tid:lane
            ~args:[ ("id", s.id); ("parent", s.parent) ]
            s.name;
          stack := t1 :: !stack)
        ordered;
      close_until max_int)
    lanes;
  Dmm_obs.Chrome_sink.write_file path [ sink ]
