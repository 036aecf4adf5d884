(* Event-for-event comparison of two traces, for the tests that check a
   faster recording path against the run it replaces. *)

module Trace = Dmm_trace.Trace

(* The first index at which the traces' events differ, [None] when they
   hold the same events. *)
let first_difference a b =
  let n = Int.min (Trace.length a) (Trace.length b) in
  let rec go i =
    if i = n then if Trace.length a = Trace.length b then None else Some n
    else if Trace.get a i <> Trace.get b i then Some i
    else go (i + 1)
  in
  go 0

let check label a b =
  match first_difference a b with
  | None -> ()
  | Some i ->
    Alcotest.failf "%s: traces differ at event %d (%d and %d events)" label i (Trace.length a)
      (Trace.length b)
