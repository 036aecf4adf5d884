(* One event is one kind byte plus an int in [ids] and an int in [sizes]:
   an allocation is (alloc, id, size), a free (free, id, 0) and a phase
   marker (phase, phase number, 0). The kind keeps a byte of its own so
   that ids and sizes hold the whole int range. A finished trace never
   changes: its arrays hold exactly its [len] events. [id_bound] is one
   more than the largest allocation id, saturating at [max_int], so an
   id-indexed array of that length holds every allocation. *)
type t = { kinds : Bytes.t; ids : int array; sizes : int array; len : int; id_bound : int }

type kind = Alloc | Free | Phase

module Chunks = Dmm_util.Chunks

let alloc_code = '\000'
let free_code = '\001'
let phase_code = '\002'

let[@inline] raise_bound bound id =
  if id >= bound then if id = max_int then max_int else id + 1 else bound

module Builder = struct
  type trace = t

  (* One chunk of events: the three arrays of a trace, [Chunks.size] long. *)
  type chunk = { c_kinds : Bytes.t; c_ids : int array; c_sizes : int array }

  type t = { events : chunk Chunks.t; mutable id_bound : int }

  let create () =
    {
      events =
        Chunks.create (fun n ->
            { c_kinds = Bytes.create n; c_ids = Array.make n 0; c_sizes = Array.make n 0 });
      id_bound = 0;
    }

  let[@inline] push b code id size =
    let i = Chunks.slot b.events in
    let c = Chunks.current b.events in
    Bytes.unsafe_set c.c_kinds i code;
    Array.unsafe_set c.c_ids i id;
    Array.unsafe_set c.c_sizes i size

  let add_alloc b ~id ~size =
    b.id_bound <- raise_bound b.id_bound id;
    push b alloc_code id size

  let add_free b id = push b free_code id 0
  let add_phase b p = push b phase_code p 0

  let add b = function
    | Event.Alloc { id; size } -> add_alloc b ~id ~size
    | Event.Free { id } -> add_free b id
    | Event.Phase p -> add_phase b p

  let build b : trace =
    let ints column = Chunks.gather b.events ~sub:Array.sub ~concat:Array.concat column in
    {
      kinds =
        Chunks.gather b.events ~sub:Bytes.sub ~concat:(Bytes.concat Bytes.empty)
          (fun c -> c.c_kinds);
      ids = ints (fun c -> c.c_ids);
      sizes = ints (fun c -> c.c_sizes);
      len = Chunks.length b.events;
      id_bound = b.id_bound;
    }
end

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

(* Sized from the list, so it writes each event once, in place. *)
let of_list events =
  let len = List.length events in
  let kinds = Bytes.create len and ids = Array.make len 0 and sizes = Array.make len 0 in
  let id_bound = ref 0 in
  let set i code id size =
    Bytes.set kinds i code;
    ids.(i) <- id;
    sizes.(i) <- size
  in
  List.iteri
    (fun i -> function
      | Event.Alloc { id; size } ->
        id_bound := raise_bound !id_bound id;
        set i alloc_code id size
      | Event.Free { id } -> set i free_code id 0
      | Event.Phase p -> set i phase_code p 0)
    events;
  { kinds; ids; sizes; len; id_bound = !id_bound }

let to_list t = List.init t.len (unsafe_get t)

let interleave ?(seed = 0) sources =
  let rng = Dmm_util.Prng.create seed in
  let srcs = Array.of_list sources in
  let n_sources = Array.length srcs in
  let lengths = Array.map length srcs in
  let pos = Array.make n_sources 0 in
  let total = Array.fold_left ( + ) 0 lengths in
  let out = Builder.create () in
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
      Builder.add_alloc out ~id:!next_id ~size
    | Event.Free { id } -> (
      match Hashtbl.find_opt remap.(i) id with
      | Some id' -> Builder.add_free out id'
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
      Builder.add_phase out p');
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
  Builder.build out

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
          let b = Builder.create () in
          let rec go lineno =
            match input_line ic with
            | exception End_of_file -> Ok (Builder.build b)
            | "" -> go (lineno + 1)
            | line -> (
              match Event.of_line line with
              | Ok e ->
                Builder.add b e;
                go (lineno + 1)
              | Error m -> Error (Printf.sprintf "%s: line %d: %s" path lineno m))
          in
          go 1
        with Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg))
