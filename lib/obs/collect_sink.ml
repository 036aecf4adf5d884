type t = { mutable entries : (int * Event.t) array; mutable len : int }

let create ?(capacity = 1024) () = { entries = Array.make (max 1 capacity) (0, Event.Phase 0); len = 0 }

let record t clock ev =
  if t.len = Array.length t.entries then begin
    let grown = Array.make (2 * t.len) (0, Event.Phase 0) in
    Array.blit t.entries 0 grown 0 t.len;
    t.entries <- grown
  end;
  t.entries.(t.len) <- (clock, ev);
  t.len <- t.len + 1

let attach probe t = Probe.attach probe (fun clock ev -> record t clock ev)

let to_array t = Array.sub t.entries 0 t.len
