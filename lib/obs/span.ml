type span = {
  sp_name : string;
  sp_tid : int;
  sp_seq : int;
  sp_parent : int;
  sp_depth : int;
  sp_start_us : int;
  sp_end_us : int;
  sp_args : (string * int) list;
  sp_sargs : (string * string) list;
}

(* One buffer per (tracer, domain) pair, reached lock-free through DLS;
   the tracer's mutex is taken only on the first span a domain records
   (to register the buffer) and at merge time. *)
type buf = {
  b_tid : int;
  mutable b_next_seq : int;
  mutable b_stack : int list;
  mutable b_depth : int;
  mutable b_spans : span list;
}

type t = {
  tr_id : int;
  tr_home : int;
  tr_epoch : int;
  tr_lock : Mutex.t;
  mutable tr_bufs : buf list;
}

let next_id = Atomic.make 1
let ambient_tracer : t option Atomic.t = Atomic.make None

let create () =
  {
    tr_id = Atomic.fetch_and_add next_id 1;
    tr_home = (Domain.self () :> int);
    tr_epoch = Clock.now_ns ();
    tr_lock = Mutex.create ();
    tr_bufs = [];
  }

let set_ambient o = Atomic.set ambient_tracer o
let ambient () = Atomic.get ambient_tracer
let enabled () = Atomic.get ambient_tracer <> None
let now_us t = (Clock.now_ns () - t.tr_epoch) / 1000

let dls_key : (int * buf) option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let buf_for t =
  let cell = Domain.DLS.get dls_key in
  match !cell with
  | Some (id, b) when id = t.tr_id -> b
  | _ ->
    let b =
      { b_tid = (Domain.self () :> int); b_next_seq = 0; b_stack = []; b_depth = 0; b_spans = [] }
    in
    Mutex.lock t.tr_lock;
    t.tr_bufs <- b :: t.tr_bufs;
    Mutex.unlock t.tr_lock;
    cell := Some (t.tr_id, b);
    b

let with_span ?(args = []) ?(sargs = []) name f =
  match Atomic.get ambient_tracer with
  | None -> f ()
  | Some t ->
    let b = buf_for t in
    let seq = b.b_next_seq in
    b.b_next_seq <- seq + 1;
    let parent = match b.b_stack with [] -> -1 | p :: _ -> p in
    let depth = b.b_depth in
    b.b_stack <- seq :: b.b_stack;
    b.b_depth <- depth + 1;
    let start_us = now_us t in
    let finish () =
      let end_us = max start_us (now_us t) in
      (match b.b_stack with
      | s :: rest when s = seq -> b.b_stack <- rest
      | stack -> b.b_stack <- List.filter (fun s -> s <> seq) stack);
      b.b_depth <- depth;
      b.b_spans <-
        {
          sp_name = name;
          sp_tid = b.b_tid;
          sp_seq = seq;
          sp_parent = parent;
          sp_depth = depth;
          sp_start_us = start_us;
          sp_end_us = end_us;
          sp_args = args;
          sp_sargs = sargs;
        }
        :: b.b_spans
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt)

(* A span whose life was observed externally — e.g. a connection's time
   on the accept queue, measured between the push on the accept domain
   and the pop on the worker. Recorded as an already-finished child of
   the innermost open span on this domain. *)
let record ?(args = []) ?(sargs = []) name ~start_us ~end_us =
  match Atomic.get ambient_tracer with
  | None -> ()
  | Some t ->
    let b = buf_for t in
    let seq = b.b_next_seq in
    b.b_next_seq <- seq + 1;
    let parent = match b.b_stack with [] -> -1 | p :: _ -> p in
    let start_us = max 0 start_us in
    b.b_spans <-
      {
        sp_name = name;
        sp_tid = b.b_tid;
        sp_seq = seq;
        sp_parent = parent;
        sp_depth = b.b_depth;
        sp_start_us = start_us;
        sp_end_us = max start_us end_us;
        sp_args = args;
        sp_sargs = sargs;
      }
      :: b.b_spans

let ambient_now_us () =
  match Atomic.get ambient_tracer with None -> 0 | Some t -> now_us t

let spans t =
  Mutex.lock t.tr_lock;
  let bufs = t.tr_bufs in
  Mutex.unlock t.tr_lock;
  let all = List.concat_map (fun b -> b.b_spans) bufs in
  List.sort (fun a b -> compare (a.sp_tid, a.sp_seq) (b.sp_tid, b.sp_seq)) all

let span_count t = List.length (spans t)

let root_us t =
  List.fold_left
    (fun acc s ->
      if s.sp_depth = 0 && s.sp_tid = t.tr_home then acc + (s.sp_end_us - s.sp_start_us)
      else acc)
    0 (spans t)

let to_chrome t sink =
  let all = spans t in
  let tids = List.sort_uniq compare (List.map (fun s -> s.sp_tid) all) in
  List.iter
    (fun tid ->
      let mine = List.filter (fun s -> s.sp_tid = tid) all in
      let children : (int, span list) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun s ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt children s.sp_parent) in
          Hashtbl.replace children s.sp_parent (s :: prev))
        mine;
      let kids p = List.rev (Option.value ~default:[] (Hashtbl.find_opt children p)) in
      (* Clamp timestamps so B/E pairs nest even for a span [record]ed
         from times measured elsewhere: a child never starts before its
         parent, an end never precedes its own (or its last child's)
         start. *)
      let rec emit lo s =
        let b_ts = max lo s.sp_start_us in
        Chrome_sink.begin_span sink ~ts:b_ts ~tid ~args:s.sp_args ~sargs:s.sp_sargs
          s.sp_name;
        let hi = List.fold_left (fun acc c -> emit acc c) b_ts (kids s.sp_seq) in
        let e_ts = max hi s.sp_end_us in
        Chrome_sink.end_span sink ~ts:e_ts ~tid;
        e_ts
      in
      ignore (List.fold_left (fun lo s -> emit lo s) 0 (kids (-1))))
    tids
