let size = 4096

(* Elements go into [current], [fill] of its [size] slots used; a full
   chunk moves to [full] (newest first) and a fresh one takes its place,
   so an element is never copied until [gather]. *)
type 'c t = {
  make : int -> 'c;
  mutable current : 'c;
  mutable fill : int;
  mutable full : 'c list;
  mutable full_len : int;
}

let create make = { make; current = make size; fill = 0; full = []; full_len = 0 }

let next_chunk t =
  t.full <- t.current :: t.full;
  t.full_len <- t.full_len + size;
  t.current <- t.make size;
  t.fill <- 0

let[@inline] slot t =
  if t.fill = size then next_chunk t;
  let i = t.fill in
  t.fill <- i + 1;
  i

let[@inline] current t = t.current
let length t = t.full_len + t.fill

let gather t ~sub ~concat column =
  concat (List.rev (sub (column t.current) 0 t.fill :: List.map column t.full))
