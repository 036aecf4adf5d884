(* Open-addressing hash table specialised to int keys (heap addresses),
   for values that are pointers. The generic [Hashtbl] costs a seeded hash
   call plus a bucket allocation per [replace]; on the allocator hot paths
   that is most of the per-event constant. Linear probing over two flat
   arrays allocates nothing per operation. The key side (home slot, probe,
   backward-shift test) is [Int_hash], shared with [Int_int_table], whose
   values are ints: a store into this table's ['a array] takes the write
   barrier, one into an [int array] does not.

   Removal shifts the rest of the probe run back over the freed slot
   (backward-shift deletion), so the arrays hold no deleted markers, a
   probe stops at the first empty slot, and only growth rehashes.

   In the arrays, [min_int] marks an empty slot, so that one key lives in a
   side cell instead; one compare sends it there. Capacity is a power of
   two, doubled when the live entries pass half of it. *)

open Int_hash

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable shift : int; (* 63 - log2 capacity: the home slot's shift *)
  mutable count : int; (* bindings in the arrays *)
  dummy : 'a; (* parks in vacated value slots so they don't pin heap data *)
  mutable side : 'a option; (* the binding of [min_int] *)
}

let create ?(size = 16) dummy =
  let shift = shift_for size in
  let cap = mask_of shift + 1 in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap dummy;
    shift;
    count = 0;
    dummy;
    side = None;
  }

let length t = t.count + match t.side with Some _ -> 1 | None -> 0
let dummy t = t.dummy

(* Probe indices stay masked below the capacity, so the reads can skip
   bounds checks. The loops are top level with explicit arguments: a local
   loop would allocate a closure over them on every call. *)
let find_slot t k = probe_find t.keys (mask_of t.shift) k (home k t.shift)

let mem t k =
  if k = empty_key then (match t.side with Some _ -> true | None -> false)
  else find_slot t k >= 0

(* [find t k ~default] avoids boxing an option on the hot path. *)
let find t k ~default =
  if k = empty_key then (match t.side with Some v -> v | None -> default)
  else begin
    let i = find_slot t k in
    if i < 0 then default else Array.unsafe_get t.vals i
  end

let find_opt t k =
  if k = empty_key then t.side
  else begin
    let i = find_slot t k in
    if i < 0 then None else Some (Array.unsafe_get t.vals i)
  end

let rec grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * Array.length old_keys in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap t.dummy;
  t.shift <- t.shift - 1;
  t.count <- 0;
  Array.iteri (fun i k -> if k <> empty_key then set t k old_vals.(i)) old_keys

and set t k v =
  if k = empty_key then t.side <- Some v
  else probe_set t k v t.keys (mask_of t.shift) (home k t.shift)

and probe_set t k v keys mask i =
  let key = Array.unsafe_get keys i in
  if key = k then Array.unsafe_set t.vals i v (* overwrite in place *)
  else if key = empty_key then begin
    Array.unsafe_set keys i k;
    Array.unsafe_set t.vals i v;
    t.count <- t.count + 1;
    if t.count * 2 > mask + 1 then grow t
  end
  else probe_set t k v keys mask ((i + 1) land mask)

let replace = set

(* Close the hole at [hole] by pulling later entries of its probe run
   back; the run ends at the first empty slot. *)
let rec shift_back t keys mask shift hole j =
  let key = Array.unsafe_get keys j in
  if key = empty_key then begin
    Array.unsafe_set keys hole empty_key;
    Array.unsafe_set t.vals hole t.dummy
  end
  else if movable key shift mask ~hole j then begin
    Array.unsafe_set keys hole key;
    Array.unsafe_set t.vals hole (Array.unsafe_get t.vals j);
    shift_back t keys mask shift j ((j + 1) land mask)
  end
  else shift_back t keys mask shift hole ((j + 1) land mask)

let delete_slot t i =
  let mask = mask_of t.shift in
  t.count <- t.count - 1;
  shift_back t t.keys mask t.shift i ((i + 1) land mask)

let remove t k =
  if k = empty_key then t.side <- None
  else begin
    let i = find_slot t k in
    if i >= 0 then delete_slot t i
  end

let take t k ~default =
  if k = empty_key then begin
    match t.side with
    | Some v ->
      t.side <- None;
      v
    | None -> default
  end
  else begin
    let i = find_slot t k in
    if i < 0 then default
    else begin
      let v = Array.unsafe_get t.vals i in
      delete_slot t i;
      v
    end
  end

let iter f t =
  (match t.side with Some v -> f empty_key v | None -> ());
  Array.iteri (fun i k -> if k <> empty_key then f k t.vals.(i)) t.keys

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let max_displacement t = Int_hash.max_displacement t.keys t.shift
