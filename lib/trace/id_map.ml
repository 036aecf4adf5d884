type t = { mutable slots : int array; absent : int }

let create ~absent hint = { slots = Array.make (max 16 hint) absent; absent }

let[@inline] find t id =
  if id < 0 || id >= Array.length t.slots then t.absent else Array.unsafe_get t.slots id

(* Grow straight to [id + 1] when doubling falls short: doubling until
   past [id] would wrap for an id near [max_int] and never end, while
   [id + 1] wraps to a negative size there, so the store in [set] raises
   [Invalid_argument] instead. *)
let grow t id =
  let n = Array.length t.slots in
  let grown = Array.make (max (2 * n) (id + 1)) t.absent in
  Array.blit t.slots 0 grown 0 n;
  t.slots <- grown

let[@inline] set t id v =
  if id >= Array.length t.slots then grow t id;
  t.slots.(id) <- v
