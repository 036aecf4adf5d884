(* [Int_table] for int values: the same key side ([Int_hash]) over an
   [int array] of values. A value store is a plain store, where one into
   [Int_table]'s ['a array] calls the write barrier ([caml_modify]) and a
   read tests for a float array. Vacated value slots pin nothing, so they
   need no dummy; the binding of [min_int] sits in two side fields
   instead of an option, so binding it allocates nothing. *)

open Int_hash

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable shift : int; (* 63 - log2 capacity: the home slot's shift *)
  mutable count : int; (* bindings in the arrays *)
  mutable side_bound : bool; (* [min_int] is bound, to [side] *)
  mutable side : int;
}

let create ?(size = 16) () =
  let shift = shift_for size in
  let cap = mask_of shift + 1 in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap 0;
    shift;
    count = 0;
    side_bound = false;
    side = 0;
  }

let length t = if t.side_bound then t.count + 1 else t.count

let find_slot t k = probe_find t.keys (mask_of t.shift) k (home k t.shift)

let find t k ~default =
  if k = empty_key then (if t.side_bound then t.side else default)
  else begin
    let i = find_slot t k in
    if i < 0 then default else Array.unsafe_get t.vals i
  end

let rec probe_set t k v keys mask i =
  let key = Array.unsafe_get keys i in
  if key = k then Array.unsafe_set t.vals i v
  else if key = empty_key then begin
    Array.unsafe_set keys i k;
    Array.unsafe_set t.vals i v;
    t.count <- t.count + 1;
    if t.count * 2 > mask + 1 then grow t
  end
  else probe_set t k v keys mask ((i + 1) land mask)

(* Rehash into twice the capacity, in slot order, as [Int_table] does. *)
and grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * Array.length old_keys in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap 0;
  t.shift <- t.shift - 1;
  t.count <- 0;
  let mask = cap - 1 in
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k <> empty_key then probe_set t k (Array.unsafe_get old_vals i) t.keys mask (home k t.shift)
  done

let replace t k v =
  if k = empty_key then begin
    t.side_bound <- true;
    t.side <- v
  end
  else probe_set t k v t.keys (mask_of t.shift) (home k t.shift)

let rec shift_back t keys mask shift hole j =
  let key = Array.unsafe_get keys j in
  if key = empty_key then Array.unsafe_set keys hole empty_key
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
  if k = empty_key then t.side_bound <- false
  else begin
    let i = find_slot t k in
    if i >= 0 then delete_slot t i
  end

let take t k ~default =
  if k = empty_key then begin
    if t.side_bound then begin
      t.side_bound <- false;
      t.side
    end
    else default
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
  if t.side_bound then f empty_key t.side;
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> empty_key then f k (Array.unsafe_get vals i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let max_displacement t = Int_hash.max_displacement t.keys t.shift
