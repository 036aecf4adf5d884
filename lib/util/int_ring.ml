(* [data] holds [len] values from [head], wrapping past the end of the
   array. *)
type t = { mutable data : int array; mutable head : int; mutable len : int }

let create () = { data = Array.make 16 0; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

(* Slot [k] positions past the head. *)
let slot t k =
  let i = t.head + k in
  let n = Array.length t.data in
  if i >= n then i - n else i

(* Double, unrolling the wrapped contents to start at slot 0. *)
let grow t =
  let n = Array.length t.data in
  let grown = Array.make (2 * n) 0 in
  let first = n - t.head in
  Array.blit t.data t.head grown 0 first;
  Array.blit t.data 0 grown first (t.len - first);
  t.data <- grown;
  t.head <- 0

let push t v =
  if t.len = Array.length t.data then grow t;
  Array.unsafe_set t.data (slot t t.len) v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Int_ring.pop: empty";
  let v = Array.unsafe_get t.data t.head in
  t.head <- slot t 1;
  t.len <- t.len - 1;
  v

let peek t k =
  if k < 0 || k >= t.len then invalid_arg "Int_ring.peek: out of range";
  Array.unsafe_get t.data (slot t k)
