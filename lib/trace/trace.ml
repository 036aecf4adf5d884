(* One event is one kind byte plus an int in [ids] and an int in [sizes]:
   an allocation is (alloc, id, size), a free (free, id, 0) and a phase
   marker (phase, phase number, 0). The kind keeps a byte of its own so
   that ids and sizes hold the whole int range. The arrays have the same
   capacity; events [0, len) are recorded. [id_bound] is one more than the
   largest allocation id, saturating at [max_int], so an id-indexed array
   of that length holds every allocation. *)
type t = {
  mutable kinds : Bytes.t;
  mutable ids : int array;
  mutable sizes : int array;
  mutable len : int;
  mutable id_bound : int;
}

type kind = Alloc | Free | Phase

let alloc_code = '\000'
let free_code = '\001'
let phase_code = '\002'

let create ?(capacity = 1024) () =
  let n = max 1 capacity in
  {
    kinds = Bytes.make n alloc_code;
    ids = Array.make n 0;
    sizes = Array.make n 0;
    len = 0;
    id_bound = 0;
  }

let resize t n =
  let kinds = Bytes.make n alloc_code and ids = Array.make n 0 and sizes = Array.make n 0 in
  Bytes.blit t.kinds 0 kinds 0 t.len;
  Array.blit t.ids 0 ids 0 t.len;
  Array.blit t.sizes 0 sizes 0 t.len;
  t.kinds <- kinds;
  t.ids <- ids;
  t.sizes <- sizes

let[@inline] push t code id size =
  if t.len = Array.length t.ids then resize t (max 16 (2 * t.len));
  Bytes.unsafe_set t.kinds t.len code;
  Array.unsafe_set t.ids t.len id;
  Array.unsafe_set t.sizes t.len size;
  t.len <- t.len + 1

let add_alloc t ~id ~size =
  if id >= t.id_bound then t.id_bound <- (if id = max_int then max_int else id + 1);
  push t alloc_code id size

let add_free t id = push t free_code id 0
let add_phase t p = push t phase_code p 0

let add t = function
  | Event.Alloc { id; size } -> add_alloc t ~id ~size
  | Event.Free { id } -> add_free t id
  | Event.Phase p -> add_phase t p

let trim t = if Array.length t.ids > t.len then resize t (max 1 t.len)

let length t = t.len
let id_bound t = t.id_bound

(* [i] is in [0, len), so the unchecked reads stay inside the arrays. *)
let[@inline] unsafe_kind t i =
  match Bytes.unsafe_get t.kinds i with '\000' -> Alloc | '\001' -> Free | _ -> Phase

let[@inline] unsafe_id t i = Array.unsafe_get t.ids i
let[@inline] unsafe_size t i = Array.unsafe_get t.sizes i

let[@inline] check t i =
  if i < 0 || i >= t.len then invalid_arg "Trace: event index out of bounds"

let[@inline] kind t i =
  check t i;
  unsafe_kind t i

let[@inline] id t i =
  check t i;
  Array.unsafe_get t.ids i

let[@inline] size t i =
  check t i;
  Array.unsafe_get t.sizes i

let unsafe_get t i =
  let id = Array.unsafe_get t.ids i in
  match unsafe_kind t i with
  | Alloc -> Event.Alloc { id; size = Array.unsafe_get t.sizes i }
  | Free -> Event.Free { id }
  | Phase -> Event.Phase id

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get: index out of bounds";
  unsafe_get t i

let iter f t =
  for i = 0 to t.len - 1 do
    f (unsafe_get t i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (unsafe_get t i)
  done

let of_list events =
  let t = create ~capacity:(List.length events) () in
  List.iter (add t) events;
  t

let to_list t = List.init t.len (unsafe_get t)

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

(* Ids of a valid trace lie in [0, len], so the state of every id fits
   a byte map of that size: 0 never allocated, 1 live, 2 freed. An id
   outside the map was never allocated, so freeing it is an error. *)
let validate t =
  let state = Bytes.make (t.len + 1) '\000' in
  let state_of id = if id < 0 || id > t.len then '\000' else Bytes.get state id in
  let rec go i =
    if i >= t.len then Ok ()
    else
      let id = t.ids.(i) in
      match unsafe_kind t i with
      | Alloc ->
        if t.sizes.(i) <= 0 then Error (Printf.sprintf "event %d: non-positive size" i)
        else if id < 0 || id > t.len then
          Error (Printf.sprintf "event %d: id %d out of range" i id)
        else if state_of id <> '\000' then
          Error (Printf.sprintf "event %d: id %d allocated twice" i id)
        else begin
          Bytes.set state id '\001';
          go (i + 1)
        end
      | Free ->
        if state_of id <> '\001' then
          Error (Printf.sprintf "event %d: free of non-live id %d" i id)
        else begin
          Bytes.set state id '\002';
          go (i + 1)
        end
      | Phase -> go (i + 1)
  in
  go 0

(* The live set is a byte per id below [id_bound]: an id too large for a
   [Bytes.t] makes [Bytes.make] raise, and a negative one the checked
   reads. A free at or past [id_bound] was never allocated. Re-allocating
   a live id and freeing a non-live one change nothing. *)
let peak_live_count t =
  let n = t.id_bound in
  let live = Bytes.make n '\000' in
  let count = ref 0 and peak = ref 0 in
  for i = 0 to t.len - 1 do
    let id = t.ids.(i) in
    match unsafe_kind t i with
    | Alloc ->
      if Bytes.get live id = '\000' then begin
        Bytes.set live id '\001';
        incr count;
        if !count > !peak then peak := !count
      end
    | Free ->
      if id < n && Bytes.get live id <> '\000' then begin
        Bytes.set live id '\000';
        decr count
      end
    | Phase -> ()
  done;
  !peak

let live_at_end t =
  let live = Hashtbl.create 256 in
  for i = 0 to t.len - 1 do
    match unsafe_kind t i with
    | Alloc -> Hashtbl.replace live t.ids.(i) ()
    | Free -> Hashtbl.remove live t.ids.(i)
    | Phase -> ()
  done;
  Hashtbl.length live

let count_kind t code =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if Bytes.unsafe_get t.kinds i = code then incr n
  done;
  !n

let alloc_count t = count_kind t alloc_code
let free_count t = count_kind t free_code

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
