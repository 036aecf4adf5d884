type t = { mutable events : Event.t array; mutable len : int }

let create ?(capacity = 1024) () =
  { events = Array.make (max 1 capacity) (Event.Phase 0); len = 0 }

let add t e =
  if t.len = Array.length t.events then begin
    let bigger = Array.make (2 * t.len) (Event.Phase 0) in
    Array.blit t.events 0 bigger 0 t.len;
    t.events <- bigger
  end;
  t.events.(t.len) <- e;
  t.len <- t.len + 1

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get: index out of bounds";
  t.events.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.events.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.events.(i)
  done

let of_list events =
  let t = create ~capacity:(List.length events) () in
  List.iter (add t) events;
  t

let to_list t = List.init t.len (fun i -> t.events.(i))

let interleave ?(seed = 0) sources =
  let rng = Dmm_util.Prng.create seed in
  let srcs = Array.of_list sources in
  let n_sources = Array.length srcs in
  let lengths = Array.map length srcs in
  let pos = Array.make n_sources 0 in
  let total = Array.fold_left ( + ) 0 lengths in
  let out = create ~capacity:total () in
  (* Ids and phase markers are remapped on the fly so sources cannot
     collide: each (source, id) pair gets a fresh global id and each
     (source, phase) pair a fresh global phase number, first-seen order. *)
  let remap = Array.init n_sources (fun _ -> Hashtbl.create 64) in
  let next_id = ref 0 in
  let phase_remap = Array.init n_sources (fun _ -> Hashtbl.create 8) in
  let next_phase = ref 0 in
  let remaining i = lengths.(i) - pos.(i) in
  let emit i =
    (match get srcs.(i) pos.(i) with
    | Event.Alloc { id; size } ->
      incr next_id;
      Hashtbl.replace remap.(i) id !next_id;
      add out (Event.Alloc { id = !next_id; size })
    | Event.Free { id } -> (
      match Hashtbl.find_opt remap.(i) id with
      | Some id' -> add out (Event.Free { id = id' })
      | None -> invalid_arg "Trace.interleave: free of unallocated id in source")
    | Event.Phase p ->
      let p' =
        match Hashtbl.find_opt phase_remap.(i) p with
        | Some p' -> p'
        | None ->
          let p' = !next_phase in
          incr next_phase;
          Hashtbl.replace phase_remap.(i) p p';
          p'
      in
      add out (Event.Phase p'));
    pos.(i) <- pos.(i) + 1
  in
  let rec go left =
    if left > 0 then begin
      (* Pick a source with probability proportional to its remaining
         length, so sources finish around the same time. *)
      let target = Dmm_util.Prng.int rng left in
      let rec pick i acc =
        let acc = acc + remaining i in
        if target < acc then i else pick (i + 1) acc
      in
      emit (pick 0 0);
      go (left - 1)
    end
  in
  go total;
  out

let validate t =
  let seen = Hashtbl.create 256 in
  let live = Hashtbl.create 256 in
  let rec go i =
    if i >= t.len then Ok ()
    else
      match t.events.(i) with
      | Event.Alloc { id; size } ->
        if size <= 0 then Error (Printf.sprintf "event %d: non-positive size" i)
        else if id < 0 || id > t.len then
          Error (Printf.sprintf "event %d: id %d out of range" i id)
        else if Hashtbl.mem seen id then
          Error (Printf.sprintf "event %d: id %d allocated twice" i id)
        else begin
          Hashtbl.replace seen id ();
          Hashtbl.replace live id ();
          go (i + 1)
        end
      | Event.Free { id } ->
        if not (Hashtbl.mem live id) then
          Error (Printf.sprintf "event %d: free of non-live id %d" i id)
        else begin
          Hashtbl.remove live id;
          go (i + 1)
        end
      | Event.Phase _ -> go (i + 1)
  in
  go 0

(* Ids are dense small integers, so the live set is a byte per id, grown
   like [Replay]'s id map. Re-allocating a live id and freeing a non-live
   one change nothing. *)
let peak_live_count t =
  let live = ref (Bytes.make 16 '\000') in
  let count = ref 0 and peak = ref 0 in
  for i = 0 to t.len - 1 do
    match t.events.(i) with
    | Event.Alloc { id; _ } ->
      let n = Bytes.length !live in
      if id >= n then begin
        let cap = ref (2 * n) in
        while !cap <= id do
          cap := !cap * 2
        done;
        let grown = Bytes.make !cap '\000' in
        Bytes.blit !live 0 grown 0 n;
        live := grown
      end;
      if Bytes.get !live id = '\000' then begin
        Bytes.set !live id '\001';
        incr count;
        if !count > !peak then peak := !count
      end
    | Event.Free { id } ->
      if id < Bytes.length !live && Bytes.get !live id <> '\000' then begin
        Bytes.set !live id '\000';
        decr count
      end
    | Event.Phase _ -> ()
  done;
  !peak

let live_at_end t =
  let live = Hashtbl.create 256 in
  iter
    (function
      | Event.Alloc { id; _ } -> Hashtbl.replace live id ()
      | Event.Free { id } -> Hashtbl.remove live id
      | Event.Phase _ -> ())
    t;
  Hashtbl.length live

let alloc_count t =
  let n = ref 0 in
  iter (function Event.Alloc _ -> incr n | Event.Free _ | Event.Phase _ -> ()) t;
  !n

let free_count t =
  let n = ref 0 in
  iter (function Event.Free _ -> incr n | Event.Alloc _ | Event.Phase _ -> ()) t;
  !n

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> iter (fun e -> output_string oc (Event.to_line e ^ "\n")) t)

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          (* Pre-size from the byte length: trace lines are short, so
             [bytes / 8] over-estimates rarely and avoids most regrowth. *)
          let t = create ~capacity:(max 1024 (in_channel_length ic / 8)) () in
          let rec go lineno =
            match input_line ic with
            | exception End_of_file -> Ok t
            | "" -> go (lineno + 1)
            | line -> (
              match Event.of_line line with
              | Ok e ->
                add t e;
                go (lineno + 1)
              | Error m -> Error (Printf.sprintf "%s: line %d: %s" path lineno m))
          in
          go 1
        with Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg))
