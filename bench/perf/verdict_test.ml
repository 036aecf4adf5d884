(* Verdicts of [compare] on hand-made parent/change samples. *)

let tight = List.init 10 (fun i -> 100.0 +. float_of_int (i mod 3))

(* Quartile spread about 40 % of the median: wider than any bound below. *)
let wide = [ 70.; 80.; 90.; 95.; 100.; 100.; 105.; 110.; 120.; 130. ]
let scale k = List.map (fun x -> x *. k)

let cases =
  [
    ("tight parent, change 30 % slower", "lower", tight, scale 1.3 tight, "regressed");
    ("tight parent, change 5 % slower", "lower", tight, scale 1.05 tight, "no-regression");
    ("tight parent, change 20 % faster in every pair", "lower", tight, scale 0.8 tight, "improved");
    ("change faster but only 5 pairs", "lower", List.filteri (fun i _ -> i < 5) tight,
     List.filteri (fun i _ -> i < 5) (scale 0.8 tight), "no-regression");
    ("throughput 30 % lower", "higher", tight, scale 0.7 tight, "regressed");
    ("throughput 30 % higher in every pair", "higher", tight, scale 1.3 tight, "improved");
    ("wide parent, change 50 % slower", "lower", wide, scale 1.5 wide, "regressed");
    ("wide parent, same median", "lower", wide, wide, "unresolved");
    ("wide parent, 5 change runs all better than every parent run", "lower", wide,
     List.init 5 (fun i -> 60.0 +. float_of_int i), "no-regression");
    ("wide parent, 10 change runs all better than every parent run", "lower", wide,
     List.init 10 (fun i -> 60.0 +. float_of_int i), "improved");
  ]

let () =
  let failed =
    List.filter
      (fun (name, better, parent, change, expected) ->
        let got = (Verdict.judge ~better ~bound:0.1 parent change).verdict in
        if got <> expected then Printf.printf "FAIL %s: %s, expected %s\n" name got expected;
        got <> expected)
      cases
  in
  if failed <> [] then exit 1
