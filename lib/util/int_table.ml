(* Open-addressing hash table specialised to int keys (heap addresses).
   The generic [Hashtbl] costs a seeded hash call plus a bucket allocation
   per [replace]; on the allocator hot paths (base/end registries,
   free-structure slot maps) that is most of the per-event constant. Linear
   probing over two flat arrays allocates nothing per operation.

   In the arrays, [min_int] marks an empty slot and [min_int + 1] a
   tombstone, so those two keys live in side cells instead; one compare
   ([k <= tombstone]) sends them there. Capacity is a power of two, grown
   (and tombstones compacted) when live + deleted entries pass 2/3 of it.
   No field counts the live entries: nothing on a hot path asks, and
   [resize] and [length] count them, so the side cells fit in the record
   without making a table bigger to create. *)

(* Bit i of [bound] is set when key [min_int + i] is, its value in
   [cells.(i)]. *)
type 'a side = { mutable bound : int; cells : 'a array }

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable mask : int; (* capacity - 1 *)
  mutable used : int; (* live + tombstones *)
  dummy : 'a; (* parks in vacated value slots so they don't pin heap data *)
  mutable side : 'a side option; (* made when a side key is first bound *)
}

let empty_key = min_int
let tombstone = min_int + 1

(* For the two side keys only. *)
let side_bit k = 1 lsl (k - empty_key)

let side_find t k ~default =
  match t.side with
  | Some s when s.bound land side_bit k <> 0 -> s.cells.(k - empty_key)
  | _ -> default

let create ?(size = 16) dummy =
  let cap = ref 16 in
  while !cap < size * 2 do
    cap := !cap * 2
  done;
  {
    keys = Array.make !cap empty_key;
    vals = Array.make !cap dummy;
    mask = !cap - 1;
    used = 0;
    dummy;
    side = None;
  }

(* Fibonacci hashing: spread aligned addresses across the high bits, then
   mask. The multiplier is 2^62 / phi, odd. *)
let slot_hash t k = (k * 0x2545F4914F6CDD1D) lsr 2 land t.mask

let in_arrays keys =
  Array.fold_left (fun n k -> if k <> empty_key && k <> tombstone then n + 1 else n) 0 keys

let length t =
  let side = match t.side with Some s -> (s.bound land 1) + (s.bound lsr 1) | None -> 0 in
  in_arrays t.keys + side

let dummy t = t.dummy

(* Find the slot holding [k], or -1. Probe indices stay masked below the
   capacity, so the reads can skip bounds checks. The probe loops are top
   level with explicit arguments: a local loop would allocate a closure
   over them on every call. *)
let rec probe_find keys mask k i =
  let key = Array.unsafe_get keys i in
  if key = k then i else if key = empty_key then -1 else probe_find keys mask k ((i + 1) land mask)

let find_slot t k = probe_find t.keys t.mask k (slot_hash t k)

let mem t k =
  if k <= tombstone then
    match t.side with Some s -> s.bound land side_bit k <> 0 | None -> false
  else find_slot t k >= 0

(* [find t k ~default] avoids boxing an option on the hot path. *)
let find t k ~default =
  if k <= tombstone then side_find t k ~default
  else begin
    let i = find_slot t k in
    if i < 0 then default else t.vals.(i)
  end

let find_opt t k =
  if k <= tombstone then if mem t k then Some (side_find t k ~default:t.dummy) else None
  else begin
    let i = find_slot t k in
    if i < 0 then None else Some t.vals.(i)
  end

let rec resize t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = (t.mask + 1) * if in_arrays old_keys * 4 > t.mask + 1 then 2 else 1 in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap t.dummy;
  t.mask <- cap - 1;
  t.used <- 0;
  Array.iteri
    (fun i k -> if k <> empty_key && k <> tombstone then set t k old_vals.(i))
    old_keys

and set t k v =
  if k <= tombstone then begin
    let s =
      match t.side with
      | Some s -> s
      | None ->
        let s = { bound = 0; cells = Array.make 2 t.dummy } in
        t.side <- Some s;
        s
    in
    s.cells.(k - empty_key) <- v;
    s.bound <- s.bound lor side_bit k
  end
  else probe_set t k v t.keys t.mask (slot_hash t k) (-1)

and probe_set t k v keys mask i insert_at =
  let key = Array.unsafe_get keys i in
  if key = k then begin
    Array.unsafe_set t.vals i v (* overwrite in place *)
  end
  else if key = empty_key then begin
    let i = if insert_at >= 0 then insert_at else i in
    if Array.unsafe_get keys i = empty_key then t.used <- t.used + 1;
    Array.unsafe_set keys i k;
    Array.unsafe_set t.vals i v;
    if t.used * 3 > (t.mask + 1) * 2 then resize t
  end
  else if key = tombstone then
    probe_set t k v keys mask ((i + 1) land mask) (if insert_at >= 0 then insert_at else i)
  else probe_set t k v keys mask ((i + 1) land mask) insert_at

let replace = set

let remove t k =
  if k <= tombstone then begin
    match t.side with
    | Some s ->
      s.cells.(k - empty_key) <- t.dummy;
      s.bound <- s.bound land lnot (side_bit k)
    | None -> ()
  end
  else begin
    let i = find_slot t k in
    if i >= 0 then begin
      Array.unsafe_set t.keys i tombstone;
      Array.unsafe_set t.vals i t.dummy
    end
  end

let iter f t =
  (match t.side with
  | Some s ->
    if s.bound land 1 <> 0 then f empty_key s.cells.(0);
    if s.bound land 2 <> 0 then f tombstone s.cells.(1)
  | None -> ());
  Array.iteri
    (fun i k -> if k <> empty_key && k <> tombstone then f k t.vals.(i))
    t.keys

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc
