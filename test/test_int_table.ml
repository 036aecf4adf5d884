(* The open-addressing int table against [Hashtbl]: any int is a key,
   including [min_int], which marks empty slots inside the table; a table
   created small grows through several resizes, and removes and takes
   shift later entries of a probe run back, so every bound key is looked
   up again after each operation. *)

module Int_table = Dmm_util.Int_table

type op = Replace of int * int | Remove of int | Take of int | Find of int

let extremes = [ 0; 1; -1; min_int; min_int + 1; max_int; max_int - 1 ]

let show_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Take k -> Printf.sprintf "take %d" k
  | Find k -> Printf.sprintf "find %d" k

(* Aligned keys: multiples of 2^4 through 2^12, as allocator slots are. *)
let aligned =
  QCheck.Gen.(map2 (fun i j -> i * (1 lsl j)) (int_range (-64) 64) (int_range 4 12))

let gen_ops =
  let open QCheck.Gen in
  let key =
    frequency
      [
        (2, oneofl extremes);
        (5, int_range (-60) 60);
        (2, map (fun i -> 16 * i) small_nat);
        (4, aligned);
        (1, int);
      ]
  in
  list_size (0 -- 300)
    (frequency
       [
         (5, map2 (fun k v -> Replace (k, v)) key small_nat);
         (2, map (fun k -> Remove k) key);
         (2, map (fun k -> Take k) key);
         (2, map (fun k -> Find k) key);
       ])

let prop_against_hashtbl =
  QCheck.Test.make ~name:"agrees with Hashtbl" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops)) gen_ops)
    (fun ops ->
      let t = Int_table.create ~size:1 (-1) and h = Hashtbl.create 16 in
      let agree k =
        Int_table.find_opt t k = Hashtbl.find_opt h k
        && Int_table.mem t k = Hashtbl.mem h k
        && Int_table.find t k ~default:(-1) = Option.value ~default:(-1) (Hashtbl.find_opt h k)
      in
      List.iter
        (fun op ->
          let k =
            match op with
            | Replace (k, v) ->
              Int_table.replace t k v;
              Hashtbl.replace h k v;
              k
            | Remove k ->
              Int_table.remove t k;
              Hashtbl.remove h k;
              k
            | Take k ->
              let want = Option.value ~default:(-1) (Hashtbl.find_opt h k) in
              Hashtbl.remove h k;
              let got = Int_table.take t k ~default:(-1) in
              if got <> want then
                QCheck.Test.fail_reportf "take %d returned %d, not %d" k got want;
              k
            | Find k -> k
          in
          if
            not
              (List.for_all agree (k :: extremes)
              && Hashtbl.fold (fun k _ ok -> ok && agree k) h true
              && Int_table.length t = Hashtbl.length h)
          then QCheck.Test.fail_reportf "disagrees after %s" (show_op op))
        ops;
      let sorted l = List.sort compare l in
      sorted (Int_table.fold (fun k v acc -> (k, v) :: acc) t [])
      = sorted (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []))

(* Page-aligned keys must spread: with a hash that read the product's low
   bits, 4,096 multiples of 4,096 shared eight home slots and one probe
   ran 511 slots past its home; the top bits give each key its own. Taking
   every other key shifts the runs back, and the rest stay where lookups
   find them. *)
let check_aligned_keys_spread () =
  let n = 4096 in
  let t = Int_table.create 0 in
  for i = 0 to n - 1 do
    Int_table.replace t (i * 4096) i
  done;
  let worst = Int_table.max_displacement t in
  if worst > 8 then Alcotest.failf "longest probe run %d slots past its home" worst;
  for i = 0 to (n / 2) - 1 do
    Alcotest.(check int) "take" (2 * i) (Int_table.take t (2 * i * 4096) ~default:(-1))
  done;
  Alcotest.(check int) "length" (n / 2) (Int_table.length t);
  for i = 0 to n - 1 do
    let want = if i mod 2 = 0 then -1 else i in
    Alcotest.(check int) "find" want (Int_table.find t (i * 4096) ~default:(-1))
  done

let tests =
  ( "int_table",
    [
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |]) prop_against_hashtbl;
      Alcotest.test_case "aligned keys spread" `Quick check_aligned_keys_spread;
    ] )
