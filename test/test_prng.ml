module Prng = Dmm_util.Prng

(* Golden outputs of the generator, recorded from its boxed-[int64]
   implementation: every trace and table depends on these streams, so a
   change of representation must reproduce them bit for bit. Each list is
   the first 8 draws from [Prng.create seed]; [int] draws below 1000,
   [int_max] below [max_int], [int_in] from [-50, 50], [float] from
   [0, 1), [bernoulli] at 0.3, [exponential] at rate 2, [pareto] with
   alpha 1.5 and xmin 1, [normal] with mean 0 and stddev 1, and
   [choose_weighted] over weights 0.2/0.5/0.3; [shuffle] is
   [Array.init 8 Fun.id] after one shuffle; [split_child] is the split
   generator's stream and [split_parent] the splitter's after it. *)

let golden_next_int64 =
  [
    (0, [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L; -537132696929009172L; 1961750202426094747L; 6038094601263162090L; 3207296026000306913L; -4214222208109204676L ]);
    (42, [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L; 6349198060258255764L; 701532786141963250L; -2430762948046562554L; 4028864712777624925L; -3677692746721775708L ]);
    ((-1), [ -1956407806741107680L; -1612297016619662647L; 4048727598324417001L; 7862637804313477842L; -5431262886246717010L; -3234237927366542541L; -1058577943711170651L; 4638043754431676516L ]);
    (max_int, [ 4890637089070741670L; 1157452369933151741L; -643383930175548127L; 7976771587059178518L; -5092280845031213240L; -2271687024784822601L; -4834145098101050242L; 571570269043650935L ]);
  ]

let golden_int =
  [
    (0, [ 823; 796; 679; 732; 747; 186; 913; 228 ]);
    (42, [ 605; 291; 954; 860; 250; 350; 925; 196 ]);
    ((-1), [ 224; 257; 1; 938; 798; 363; 253; 612 ]);
    (max_int, [ 766; 741; 777; 614; 568; 303; 566; 935 ]);
  ]

let golden_int_max =
  [
    (0, [ 2459150361376443823; 3348600503766967796; 487617019471545679; 4074553321498378732; 1961750202426094747; 1426408582835774186; 3207296026000306913; 397463810318183228 ]);
    (42, [ 4456085495900499605; 2949826092126892291; 527597730035375954; 1737512041830867860; 701532786141963250; 2180923070380825350; 4028864712777624925; 933993271705612196 ]);
    ((-1), [ 2655278211686280224; 2999389001807725257; 4048727598324417001; 3250951785886089938; 3792109150608058798; 1377448091060845363; 3553108074716217253; 26357736004288612 ]);
    (max_int, [ 278951070643353766; 1157452369933151741; 3968302088251839777; 3365085568631790614; 4131091191823562568; 2339998993642565303; 4389226938753725566; 571570269043650935 ]);
  ]

let golden_int_in =
  [
    (0, [ (-17); 32; 38; 29; (-36); (-8); 23; (-3) ]);
    (42, [ (-16); 13; 49; 11; (-8); (-25); 43; 16 ]);
    ((-1), [ (-2); 30; (-37); (-44); 13; (-5); 5; (-16) ]);
    (max_int, [ (-41); 11; 48; 3; 14; (-18); 43; (-28) ]);
  ]

let golden_float =
  [
    (0, [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6; 0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2; 0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1 ]);
    (42, [ 0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2; 0x1.607387fc392b8p-2; 0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1; 0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1 ]);
    ((-1), [ 0x1.c9b2e2ee36ca5p-1; 0x1.d33ff0cfb7edp-1; 0x1.c17fc2659394p-3; 0x1.b476cdb32ea6p-2; 0x1.69408e5caf00dp-1; 0x1.a63b5b7b48717p-1; 0x1.e29e59f004107p-1; 0x1.017690e28e7ap-2 ]);
    (max_int, [ 0x1.0f7c22154da5ep-2; 0x1.01018cc4a4ca8p-4; 0x1.ee247b72d7622p-1; 0x1.baccbdfb945d6p-2; 0x1.72a92b1a5ec6ep-1; 0x1.c0f2b15fadac5p-1; 0x1.79d3554a95fb6p-1; 0x1.fba80868a15cp-6 ]);
  ]

let golden_bernoulli =
  [
    (0, [ false; false; true; false; true; false; true; false ]);
    (42, [ false; true; true; false; true; false; true; false ]);
    ((-1), [ false; false; true; false; false; false; false; true ]);
    (max_int, [ true; true; false; false; false; false; false; true ]);
  ]

let golden_exponential =
  [
    (0, [ 0x1.12f992a7286f1p+0; 0x1.212de30b98d79p-2; 0x1.b6eafe549d45cp-7; 0x1.c4a8b07657ddep+0; 0x1.cc8b229e6f954p-5; 0x1.96028d9998e95p-3; 0x1.872b4bd3401ffp-4; 0x1.79f6d8d81b654p-1 ]);
    (42, [ 0x1.5a6574c7543bcp-1; 0x1.64db768f3aec5p-4; 0x1.4e668d23c24a3p-3; 0x1.b002b073625c3p-3; 0x1.3d9f2c7d1487p-6; 0x1.036a56bd686bfp+0; 0x1.f8aa6e97d493ap-4; 0x1.9cd38110bf8b9p-1 ]);
    ((-1), [ 0x1.1f341cc13e15p+0; 0x1.37f7164f566bep+0; 0x1.fb7d3801cfa4bp-4; 0x1.1c6f01bd1d55fp-2; 0x1.3903edc84c17ap-1; 0x1.bdb85f63ddc33p-1; 0x1.6dd1ae2cb1cadp+0; 0x1.288a06dd66fdep-3 ]);
    (max_int, [ 0x1.3b71a6f5989bep-3; 0x1.096c4cd9fd74fp-5; 0x1.ad8e2e5c9c5a5p+0; 0x1.21fc193faacebp-2; 0x1.498373b763994p-1; 0x1.0c142833248edp+0; 0x1.56d4bc406ea2fp-1; 0x1.01d8019347da6p-6 ]);
  ]

let golden_pareto =
  [
    (0, [ 0x1.0c03e950e3b49p+2; 0x1.750cd8168feb1p+0; 0x1.049cf6545c9dp+0; 0x1.5218fb3a3b003p+3; 0x1.13ed4443106d8p+0; 0x1.4d7463813ec1cp+0; 0x1.22c3864f9bbf2p+0; 0x1.56838d07b4cbap+1 ]);
    (42, [ 0x1.3b7b954fe091bp+1; 0x1.1f88c37720142p+0; 0x1.3e43fc733650ep+0; 0x1.5325b00f344f8p+0; 0x1.06b410d748092p+0; 0x1.ee4dfecc08106p+1; 0x1.2db5042025d42p+0; 0x1.77108e285e2d3p+1 ]);
    ((-1), [ 0x1.1da4099b786f2p+2; 0x1.44f5bb2c0a789p+2; 0x1.2dfc08f8708ddp+0; 0x1.72c08b76f6e9ap+0; 0x1.213756d382c68p+1; 0x1.989c0917858b3p+1; 0x1.ae2ca57bf7673p+2; 0x1.3684346bdb80ep+0 ]);
    (max_int, [ 0x1.3a5c9ff49efabp+0; 0x1.0b4d392f89136p+0; 0x1.2bc4345cd0328p+3; 0x1.75710ffb264ecp+0; 0x1.2de9ae7ea2f6cp+1; 0x1.028f46c3031dfp+2; 0x1.3891309d8724dp+1; 0x1.056db23151d8p+0 ]);
  ]

let golden_normal =
  [
    (0, [ -0x1.e247d108691cfp+0; 0x1.d2241bf902964p-3; -0x1.c581393a15295p-3; 0x1.55aeaef334755p-4; 0x1.6f2574ff978aap-1; 0x1.1d280f2433e9ep-4; -0x1.255b252434185p+0; -0x1.8f1a0c64384dep+0 ]);
    (42, [ 0x1.c3b620ee5015bp-1; -0x1.cdab96fe79013p-2; 0x1.81bf069d25a44p-3; 0x1.c1b680ea2bc5dp-3; -0x1.573aedc159932p-1; -0x1.5a61e05392f97p-1; -0x1.30d6c47f109c6p+0; 0x1.b4e2dc9e9a249p-2 ]);
    ((-1), [ 0x1.ce90bb8312787p+0; -0x1.426a096ddcd5ep-1; 0x1.6a04ddde69877p-1; -0x1.5fa97dc84101p-6; 0x1.b54c7b1351444p+0; 0x1.e572453a1d55bp-5; 0x1.41b051b39cefdp-4; -0x1.3ba3143d7d352p-2 ]);
    (max_int, [ 0x1.730cf7d6eba01p-1; -0x1.2e2a226ac0c3dp+1; 0x1.25cca115dc0a4p+0; 0x1.9b0c36c5a2af5p+0; 0x1.01176966b0955p-4; -0x1.188c994b1ef3bp-3; -0x1.6f81ee475419dp-1; -0x1.d49e0c0dedf07p-2 ]);
  ]

let golden_choose_weighted =
  [
    (0, [ 2; 1; 0; 2; 0; 1; 0; 2 ]);
    (42, [ 2; 0; 1; 1; 0; 2; 1; 2 ]);
    ((-1), [ 2; 2; 1; 1; 2; 2; 2; 1 ]);
    (max_int, [ 1; 0; 2; 1; 2; 2; 2; 0 ]);
  ]

let golden_shuffle =
  [
    (0, [ 0; 5; 6; 3; 2; 1; 4; 7 ]);
    (42, [ 3; 1; 4; 6; 0; 2; 7; 5 ]);
    ((-1), [ 7; 4; 5; 2; 6; 1; 3; 0 ]);
    (max_int, [ 7; 5; 2; 0; 4; 3; 1; 6 ]);
  ]

let golden_split_child =
  [
    (0, [ -6411193824288604561L; -5511663747979980962L; 7141179953334974231L; -6338048412857661178L; -3912029315837398853L; 2697553276395720353L; -4083151137508962626L; 4890566965504419038L ]);
    (42, [ 6332618229526065668L; -816328817471504299L; 8971565426155258802L; 1242533817266198696L; -5959852680200513735L; 1245346008178237623L; 3603600226484403572L; -4893543810735773810L ]);
    ((-1), [ 6755974106381971767L; -4781302686461524836L; -9028535867702509018L; -1347316446087456332L; -9005435230818359720L; 2841415184624655396L; -2394380014520722169L; -5093915736712460761L ]);
    (max_int, [ -465555950222020276L; 3673247009141676037L; 1473339217066085627L; 2894645044132810361L; 599829372260531601L; 7174744973500241372L; -6730870654992772091L; 6568773701453236670L ]);
  ]

let golden_split_parent =
  [
    (0, [ 7960286522194355700L; 487617019471545679L; -537132696929009172L; 1961750202426094747L; 6038094601263162090L; 3207296026000306913L; -4214222208109204676L; 4532161160992623299L ]);
    (42, [ 2949826092126892291L; 5139283748462763858L; 6349198060258255764L; 701532786141963250L; -2430762948046562554L; 4028864712777624925L; -3677692746721775708L; 6270620877612482005L ]);
    ((-1), [ -1612297016619662647L; 4048727598324417001L; 7862637804313477842L; -5431262886246717010L; -3234237927366542541L; -1058577943711170651L; 4638043754431676516L; -4251777345030058876L ]);
    (max_int, [ 1157452369933151741L; -643383930175548127L; 7976771587059178518L; -5092280845031213240L; -2271687024784822601L; -4834145098101050242L; 571570269043650935L; 2248756305882784531L ]);
  ]

let draws8 f seed =
  let g = Prng.create seed in
  List.init 8 (fun _ -> f g)

let check_golden name show golden draw =
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s, seed %d" name seed)
        (List.map show expected)
        (List.map show (draw seed)))
    golden

let check_golden_streams () =
  let i64 = Int64.to_string and int = string_of_int and flt = Printf.sprintf "%h" in
  check_golden "next_int64" i64 golden_next_int64 (draws8 Prng.next_int64);
  check_golden "int" int golden_int (draws8 (fun g -> Prng.int g 1000));
  check_golden "int max_int" int golden_int_max (draws8 (fun g -> Prng.int g max_int));
  check_golden "int_in" int golden_int_in (draws8 (fun g -> Prng.int_in g (-50) 50));
  check_golden "float" flt golden_float (draws8 (fun g -> Prng.float g 1.0));
  check_golden "bernoulli" string_of_bool golden_bernoulli (draws8 (fun g -> Prng.bernoulli g 0.3));
  check_golden "exponential" flt golden_exponential (draws8 (fun g -> Prng.exponential g 2.0));
  check_golden "pareto" flt golden_pareto (draws8 (fun g -> Prng.pareto g ~alpha:1.5 ~xmin:1.0));
  check_golden "normal" flt golden_normal (draws8 (fun g -> Prng.normal g ~mean:0.0 ~stddev:1.0));
  check_golden "choose_weighted" int golden_choose_weighted
    (draws8 (fun g -> Prng.choose_weighted g [| (0.2, 0); (0.5, 1); (0.3, 2) |]));
  check_golden "shuffle_in_place" int golden_shuffle (fun seed ->
      let a = Array.init 8 Fun.id in
      Prng.shuffle_in_place (Prng.create seed) a;
      Array.to_list a);
  check_golden "split child" i64 golden_split_child (fun seed ->
      let child = Prng.split (Prng.create seed) in
      List.init 8 (fun _ -> Prng.next_int64 child));
  check_golden "split parent" i64 golden_split_parent (fun seed ->
      let g = Prng.create seed in
      ignore (Prng.split g : Prng.t);
      List.init 8 (fun _ -> Prng.next_int64 g))

let check_det () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let check_seed_sensitivity () =
  let a = Prng.create 7 and b = Prng.create 8 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let check_copy () =
  let a = Prng.create 3 in
  let _ = Prng.next_int64 a in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a) (Prng.next_int64 b)

let check_split_independent () =
  let a = Prng.create 3 in
  let b = Prng.split a in
  let xa = Prng.next_int64 a and xb = Prng.next_int64 b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let check_int_bounds () =
  let rng = Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let check_int_errors () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Prng.int_in: empty range")
    (fun () -> ignore (Prng.int_in rng 5 4))

let check_float_bounds () =
  let rng = Prng.create 2 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 3.5 in
    Alcotest.(check bool) "0 <= v < 3.5" true (v >= 0.0 && v < 3.5)
  done

let mean_of n f =
  let rng = Prng.create 99 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. f rng
  done;
  !acc /. float_of_int n

let check_exponential_mean () =
  let m = mean_of 20000 (fun rng -> Prng.exponential rng 4.0) in
  Alcotest.(check bool) "mean ~ 1/4" true (Float.abs (m -. 0.25) < 0.02)

let check_normal_mean () =
  let m = mean_of 20000 (fun rng -> Prng.normal rng ~mean:10.0 ~stddev:2.0) in
  Alcotest.(check bool) "mean ~ 10" true (Float.abs (m -. 10.0) < 0.1)

let check_pareto_min () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.pareto rng ~alpha:1.5 ~xmin:2.0 in
    Alcotest.(check bool) "v >= xmin" true (v >= 2.0)
  done

let check_bernoulli_frequency () =
  let rng = Prng.create 11 in
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let f = float_of_int !hits /. 10000.0 in
  Alcotest.(check bool) "frequency ~ 0.3" true (Float.abs (f -. 0.3) < 0.03)

let check_choose_weighted () =
  let rng = Prng.create 13 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 9000 do
    let x = Prng.choose_weighted rng [| (1.0, "a"); (2.0, "b"); (0.0, "c") |] in
    Hashtbl.replace counts x (1 + Option.value ~default:0 (Hashtbl.find_opt counts x))
  done;
  let count k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  Alcotest.(check int) "zero weight never chosen" 0 (count "c");
  Alcotest.(check bool) "b roughly twice a" true
    (float_of_int (count "b") /. float_of_int (count "a") > 1.6)

let check_choose_weighted_errors () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "empty array"
    (Invalid_argument "Prng.choose_weighted: empty array") (fun () ->
      ignore (Prng.choose_weighted rng [||]))

let check_shuffle_permutation () =
  let rng = Prng.create 21 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle_in_place rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let qcheck =
  [
    QCheck.Test.make ~name:"int_in within range" ~count:500
      QCheck.(triple small_int small_int small_int)
      (fun (seed, lo, len) ->
        let lo = lo mod 1000 and len = abs len mod 1000 in
        let rng = Prng.create seed in
        let v = Prng.int_in rng lo (lo + len) in
        v >= lo && v <= lo + len);
    QCheck.Test.make ~name:"same seed same int stream" ~count:200
      QCheck.(pair small_int small_nat)
      (fun (seed, n) ->
        let n = 1 + (n mod 50) in
        let a = Prng.create seed and b = Prng.create seed in
        List.for_all
          (fun _ -> Prng.int a 1000 = Prng.int b 1000)
          (List.init n Fun.id));
  ]

let tests =
  ( "prng",
    [
      Alcotest.test_case "golden streams" `Quick check_golden_streams;
      Alcotest.test_case "determinism" `Quick check_det;
      Alcotest.test_case "seed sensitivity" `Quick check_seed_sensitivity;
      Alcotest.test_case "copy" `Quick check_copy;
      Alcotest.test_case "split independence" `Quick check_split_independent;
      Alcotest.test_case "int bounds" `Quick check_int_bounds;
      Alcotest.test_case "int errors" `Quick check_int_errors;
      Alcotest.test_case "float bounds" `Quick check_float_bounds;
      Alcotest.test_case "exponential mean" `Quick check_exponential_mean;
      Alcotest.test_case "normal mean" `Quick check_normal_mean;
      Alcotest.test_case "pareto minimum" `Quick check_pareto_min;
      Alcotest.test_case "bernoulli frequency" `Quick check_bernoulli_frequency;
      Alcotest.test_case "choose_weighted" `Quick check_choose_weighted;
      Alcotest.test_case "choose_weighted errors" `Quick check_choose_weighted_errors;
      Alcotest.test_case "shuffle permutation" `Quick check_shuffle_permutation;
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
