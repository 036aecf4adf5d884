type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 16 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let push t v =
  if t.len = Array.length t.data then begin
    let grown = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end;
  Array.unsafe_set t.data t.len v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Int_stack.pop: empty";
  t.len <- t.len - 1;
  Array.unsafe_get t.data t.len

let clear t = t.len <- 0
