(* Open-addressing hash table specialised to non-negative int keys (heap
   addresses). The generic [Hashtbl] costs a seeded hash call plus a bucket
   allocation per [replace]; on the allocator hot paths (base/end registries,
   free-structure slot maps) that is most of the per-event constant. Linear
   probing over two flat arrays allocates nothing per operation.

   Keys must be >= 0: [min_int] marks an empty slot and [min_int + 1] a
   tombstone. Capacity is a power of two, grown (and tombstones compacted)
   when live + deleted entries pass 2/3 of it. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable mask : int; (* capacity - 1 *)
  mutable live : int;
  mutable used : int; (* live + tombstones *)
  dummy : 'a; (* parks in vacated value slots so they don't pin heap data *)
}

let empty_key = min_int
let tombstone = min_int + 1

let create ?(size = 16) dummy =
  let cap = ref 16 in
  while !cap < size * 2 do
    cap := !cap * 2
  done;
  {
    keys = Array.make !cap empty_key;
    vals = Array.make !cap dummy;
    mask = !cap - 1;
    live = 0;
    used = 0;
    dummy;
  }

(* Fibonacci hashing: spread aligned addresses across the high bits, then
   mask. The multiplier is 2^62 / phi, odd. *)
let slot_hash t k = (k * 0x2545F4914F6CDD1D) lsr 2 land t.mask

let length t = t.live

let dummy t = t.dummy

(* Find the slot holding [k], or -1. Probe indices stay masked below the
   capacity, so the reads can skip bounds checks. The probe loops are top
   level with explicit arguments: a local loop would allocate a closure
   over them on every call. *)
let rec probe_find keys mask k i =
  let key = Array.unsafe_get keys i in
  if key = k then i else if key = empty_key then -1 else probe_find keys mask k ((i + 1) land mask)

let find_slot t k = probe_find t.keys t.mask k (slot_hash t k)

let mem t k = find_slot t k >= 0

let find_opt t k =
  let i = find_slot t k in
  if i < 0 then None else Some t.vals.(i)

(* [find t k ~default] avoids boxing an option on the hot path. *)
let find t k ~default =
  let i = find_slot t k in
  if i < 0 then default else t.vals.(i)

let rec resize t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = (t.mask + 1) * if t.live * 4 > t.mask + 1 then 2 else 1 in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap t.dummy;
  t.mask <- cap - 1;
  t.live <- 0;
  t.used <- 0;
  Array.iteri
    (fun i k -> if k <> empty_key && k <> tombstone then set t k old_vals.(i))
    old_keys

and set t k v =
  if k < 0 then invalid_arg "Int_table: negative key";
  probe_set t k v t.keys t.mask (slot_hash t k) (-1)

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
    t.live <- t.live + 1;
    if t.used * 3 > (t.mask + 1) * 2 then resize t
  end
  else if key = tombstone then
    probe_set t k v keys mask ((i + 1) land mask) (if insert_at >= 0 then insert_at else i)
  else probe_set t k v keys mask ((i + 1) land mask) insert_at

let replace = set

let remove t k =
  let i = find_slot t k in
  if i >= 0 then begin
    Array.unsafe_set t.keys i tombstone;
    Array.unsafe_set t.vals i t.dummy;
    t.live <- t.live - 1
  end

let iter f t =
  Array.iteri
    (fun i k -> if k <> empty_key && k <> tombstone then f k t.vals.(i))
    t.keys

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc
