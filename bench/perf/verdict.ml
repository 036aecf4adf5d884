(* The verdict on one (workload, end-to-end metric) pair, from the parent's
   and the change's values of that metric, one per run. Runs made
   alternately are paired by position.

   improved       at least 10 pairs, the change wins at least 9 in 10 of
                  them and its median differs from the parent's by more
                  than the parent's quartile spread
   regressed      the change's median is worse than the parent's by more
                  than [bound], a share of the parent's median, whatever
                  the spread
   unresolved     the median is within the bound, but the parent's own
                  quartile spread is wider than the bound, and not every
                  change run reads better than every parent run
   no-regression  otherwise *)

type t = {
  parent_median : float;
  parent_quartiles : float * float;
  change_median : float;
  change_quartiles : float * float;
  win_fraction : float;  (** of the pairs, those the change wins; ties count for neither *)
  verdict : string;
}

let judge ~better ~bound parent change =
  (* [sign *. (a -. b) < 0.0] when a reads better than b. *)
  let sign = if better = "higher" then -1.0 else 1.0 in
  let mp = Measure.median parent and mc = Measure.median change in
  let q1, q3 = Measure.quartiles parent in
  let worse_by = sign *. (mc -. mp) /. Float.abs mp in
  let n = min (List.length parent) (List.length change) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let pairs = List.combine (first parent) (first change) in
  let wins = List.length (List.filter (fun (p, c) -> sign *. (c -. p) < 0.0) pairs) in
  let win_fraction = float_of_int wins /. float_of_int n in
  let all_better = List.for_all (fun c -> List.for_all (fun p -> sign *. (c -. p) < 0.0) parent) change in
  let verdict =
    if n >= 10 && win_fraction >= 0.9 && worse_by < 0.0 && Float.abs (mc -. mp) > q3 -. q1 then "improved"
    else if worse_by > bound then "regressed"
    else if (q3 -. q1) /. Float.abs mp > bound && not all_better then "unresolved"
    else "no-regression"
  in
  {
    parent_median = mp;
    parent_quartiles = (q1, q3);
    change_median = mc;
    change_quartiles = Measure.quartiles change;
    win_fraction;
    verdict;
  }
