module Size = Dmm_util.Size

let check_align_up () =
  Alcotest.(check int) "already aligned" 16 (Size.align_up 16 8);
  Alcotest.(check int) "rounds up" 24 (Size.align_up 17 8);
  Alcotest.(check int) "zero" 0 (Size.align_up 0 8);
  Alcotest.check_raises "bad alignment"
    (Invalid_argument "Size.align_up: non-positive alignment") (fun () ->
      ignore (Size.align_up 4 0));
  (* Rounding adds up to [a - 1] first, so the largest size it takes is
     [max_int - (a - 1)]; one past it would wrap negative. *)
  let top = max_int - 7 in
  Alcotest.(check int) "largest alignable size" top (Size.align_up top 8);
  Alcotest.(check int) "alignment 1 takes max_int" max_int (Size.align_up max_int 1);
  let past = Invalid_argument "Size.align_up: size past max_int" in
  Alcotest.check_raises "one past the bound" past (fun () -> ignore (Size.align_up (top + 1) 8));
  Alcotest.check_raises "max_int" past (fun () -> ignore (Size.align_up max_int 8))

let check_pow2 () =
  Alcotest.(check int) "pow2_ceil 0" 1 (Size.pow2_ceil 0);
  Alcotest.(check int) "pow2_ceil 1" 1 (Size.pow2_ceil 1);
  Alcotest.(check int) "pow2_ceil 17" 32 (Size.pow2_ceil 17);
  Alcotest.(check int) "pow2_ceil 64" 64 (Size.pow2_ceil 64);
  Alcotest.(check bool) "is_power_of_two" true (Size.is_power_of_two 64);
  Alcotest.(check bool) "48 is not" false (Size.is_power_of_two 48);
  Alcotest.(check bool) "0 is not" false (Size.is_power_of_two 0);
  (* 2^61 is the largest power of two an int holds: past it pow2_ceil
     would double into overflow and loop forever, so it raises instead. *)
  let top = 1 lsl 61 in
  Alcotest.(check int) "pow2_ceil at the bound" top (Size.pow2_ceil top);
  Alcotest.(check int) "pow2_ceil just below" top (Size.pow2_ceil (top - 1));
  Alcotest.(check int) "log2_ceil at the bound" 61 (Size.log2_ceil top);
  let past = Invalid_argument "Size.pow2_ceil: size above 2^61" in
  Alcotest.check_raises "pow2_ceil past the bound" past (fun () ->
      ignore (Size.pow2_ceil (top + 1)));
  Alcotest.check_raises "pow2_ceil max_int" past (fun () -> ignore (Size.pow2_ceil max_int));
  Alcotest.check_raises "log2_ceil past the bound" past (fun () ->
      ignore (Size.log2_ceil (top + 1)))

(* The total class function never raises, whatever a decoded stream
   carries: 1 at and below 1, pow2_ceil up to 2^61, max_int past it. *)
let check_pow2_class () =
  let top = 1 lsl 61 in
  List.iter
    (fun (name, n, want) -> Alcotest.(check int) name want (Size.pow2_class n))
    [
      ("min_int", min_int, 1);
      ("negative", -5, 1);
      ("0", 0, 1);
      ("1", 1, 1);
      ("2", 2, 2);
      ("17", 17, 32);
      ("just below 2^61", top - 1, top);
      ("2^61", top, top);
      ("just past 2^61", top + 1, max_int);
      ("max_int", max_int, max_int);
    ]

let check_log2 () =
  Alcotest.(check int) "log2_ceil 1" 0 (Size.log2_ceil 1);
  Alcotest.(check int) "log2_ceil 9" 4 (Size.log2_ceil 9);
  Alcotest.(check int) "kib" 2048 (Size.kib 2);
  Alcotest.(check int) "mib" 3145728 (Size.mib 3)

(* Models: the definitions by doubling, one bit at a time. *)
let rec pow2_model p n = if p >= n then p else pow2_model (p * 2) n

let log2_model n =
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v / 2) in
  go 0 (pow2_model 1 n)

let agrees_with_model n =
  Size.pow2_ceil n = pow2_model 1 n && Size.log2_ceil n = log2_model n

(* Every power of two up to 2^61 and its neighbours inside [0, 2^61]. *)
let check_pow2_model () =
  let top = 1 lsl 61 in
  List.iter
    (fun k ->
      let p = 1 lsl k in
      List.iter
        (fun n ->
          if n >= 0 && n <= top && not (agrees_with_model n) then
            Alcotest.failf "pow2_ceil/log2_ceil %d: %d/%d, model %d/%d" n (Size.pow2_ceil n)
              (Size.log2_ceil n) (pow2_model 1 n) (log2_model n))
        [ p - 1; p; p + 1 ])
    (List.init 62 Fun.id)

(* Outside [0, 2^61] both raise, with pow2_ceil's messages. *)
let check_pow2_range () =
  let negative = Invalid_argument "Size.pow2_ceil: negative size"
  and above = Invalid_argument "Size.pow2_ceil: size above 2^61" in
  List.iter
    (fun (n, e) ->
      Alcotest.check_raises (Printf.sprintf "pow2_ceil %d" n) e (fun () -> ignore (Size.pow2_ceil n));
      Alcotest.check_raises (Printf.sprintf "log2_ceil %d" n) e (fun () -> ignore (Size.log2_ceil n)))
    [
      (min_int, negative);
      (-1, negative);
      ((1 lsl 61) + 1, above);
      (3 lsl 60, above);
      (max_int, above);
    ]

let qcheck =
  [
    QCheck.Test.make ~name:"align_up properties" ~count:500
      QCheck.(pair (int_bound 100000) (int_range 1 64))
      (fun (n, a) ->
        let r = Size.align_up n a in
        r >= n && r mod a = 0 && r - n < a);
    QCheck.Test.make ~name:"pow2_ceil properties" ~count:500 (QCheck.int_bound 1000000)
      (fun n ->
        let p = Size.pow2_ceil n in
        Size.is_power_of_two p && p >= max 1 n && (p = 1 || p / 2 < max 1 n));
    (* Sizes of every magnitude: a bit count, then a size up to 2^bits. *)
    QCheck.Test.make ~name:"pow2_ceil and log2_ceil agree with the loops" ~count:2000
      (QCheck.make ~print:string_of_int
         QCheck.Gen.(int_range 0 61 >>= fun bits -> int_range 0 (1 lsl bits)))
      agrees_with_model;
  ]

(* Every power of two, its neighbours and max_int, against a shift loop. *)
let check_bit_length () =
  let rec naive n = if n = 0 then 0 else 1 + naive (n lsr 1) in
  let values =
    List.concat_map (fun k -> let p = 1 lsl k in [ p - 1; p; p + 1 ]) (List.init 62 Fun.id)
    @ [ 0; max_int; max_int - 1 ]
  in
  List.iter
    (fun n -> Alcotest.(check int) (Printf.sprintf "bit_length %d" n) (naive n) (Size.bit_length n))
    values

let check_sat_add () =
  List.iter
    (fun (a, b, want) ->
      Alcotest.(check int) (Printf.sprintf "sat_add %d %d" a b) want (Size.sat_add a b))
    [
      (0, 0, 0);
      (40, 2, 42);
      (-7, 3, -4);
      (min_int, max_int, -1);
      (max_int - 1, 1, max_int);
      (max_int, 1, max_int);
      (max_int / 2 + 1, max_int / 2 + 1, max_int);
      (max_int, max_int, max_int);
    ]

let tests =
  ( "size",
    [
      Alcotest.test_case "sat_add saturates at max_int" `Quick check_sat_add;
      Alcotest.test_case "align_up" `Quick check_align_up;
      Alcotest.test_case "bit_length" `Quick check_bit_length;
      Alcotest.test_case "pow2" `Quick check_pow2;
      Alcotest.test_case "pow2_class is total" `Quick check_pow2_class;
      Alcotest.test_case "pow2_ceil and log2_ceil at every 2^k +- 1" `Quick check_pow2_model;
      Alcotest.test_case "pow2_ceil and log2_ceil range messages" `Quick check_pow2_range;
      Alcotest.test_case "log2 and units" `Quick check_log2;
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
