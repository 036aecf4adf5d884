(* The open-addressing int tables against [Hashtbl]: any int is a key,
   including [min_int], which marks empty slots inside the table; a table
   created small grows through several resizes, and removes and takes
   shift later entries of a probe run back, so every bound key is looked
   up again after each operation. Both tables, [Int_table] (any value)
   and [Int_int_table] (int values), run the same checks through one
   view, and the same operations must leave them one layout. *)

module Int_table = Dmm_util.Int_table
module Int_int_table = Dmm_util.Int_int_table

(* One table behind closures; a missing key reads -1. The int-valued
   table has no [mem]: a key is bound when two defaults read alike. *)
type view = {
  replace : int -> int -> unit;
  remove : int -> unit;
  take : int -> int;
  find : int -> int;
  find_opt : int -> int option;
  mem : int -> bool;
  length : unit -> int;
  bindings : unit -> (int * int) list; (* in iteration order *)
  max_displacement : unit -> int;
}

let pointer_valued size =
  let t = Int_table.create ~size (-1) in
  {
    replace = Int_table.replace t;
    remove = Int_table.remove t;
    take = (fun k -> Int_table.take t k ~default:(-1));
    find = (fun k -> Int_table.find t k ~default:(-1));
    find_opt = Int_table.find_opt t;
    mem = Int_table.mem t;
    length = (fun () -> Int_table.length t);
    bindings = (fun () -> List.rev (Int_table.fold (fun k v acc -> (k, v) :: acc) t []));
    max_displacement = (fun () -> Int_table.max_displacement t);
  }

let int_valued size =
  let t = Int_int_table.create ~size () in
  let find_opt k =
    let v = Int_int_table.find t k ~default:(-1) in
    if v = Int_int_table.find t k ~default:(-2) then Some v else None
  in
  {
    replace = Int_int_table.replace t;
    remove = Int_int_table.remove t;
    take = (fun k -> Int_int_table.take t k ~default:(-1));
    find = (fun k -> Int_int_table.find t k ~default:(-1));
    find_opt;
    mem = (fun k -> find_opt k <> None);
    length = (fun () -> Int_int_table.length t);
    bindings = (fun () -> List.rev (Int_int_table.fold (fun k v acc -> (k, v) :: acc) t []));
    max_displacement = (fun () -> Int_int_table.max_displacement t);
  }

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

let print_ops ops = String.concat "; " (List.map show_op ops)

let apply t = function
  | Replace (k, v) -> t.replace k v
  | Remove k -> t.remove k
  | Take k -> ignore (t.take k)
  | Find k -> ignore (t.find k)

let prop_against_hashtbl name make =
  QCheck.Test.make ~name ~count:300 (QCheck.make ~print:print_ops gen_ops) (fun ops ->
      let t = make 1 and h = Hashtbl.create 16 in
      let agree k =
        t.find_opt k = Hashtbl.find_opt h k
        && t.mem k = Hashtbl.mem h k
        && t.find k = Option.value ~default:(-1) (Hashtbl.find_opt h k)
      in
      List.iter
        (fun op ->
          let k =
            match op with
            | Replace (k, v) ->
              t.replace k v;
              Hashtbl.replace h k v;
              k
            | Remove k ->
              t.remove k;
              Hashtbl.remove h k;
              k
            | Take k ->
              let want = Option.value ~default:(-1) (Hashtbl.find_opt h k) in
              Hashtbl.remove h k;
              let got = t.take k in
              if got <> want then
                QCheck.Test.fail_reportf "take %d returned %d, not %d" k got want;
              k
            | Find k -> k
          in
          if
            not
              (List.for_all agree (k :: extremes)
              && Hashtbl.fold (fun k _ ok -> ok && agree k) h true
              && t.length () = Hashtbl.length h)
          then QCheck.Test.fail_reportf "disagrees after %s" (show_op op))
        ops;
      let sorted l = List.sort compare l in
      sorted (t.bindings ()) = sorted (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []))

(* The tables share their key side, so after every operation they hold
   the same bindings in the same order with the same longest probe. *)
let prop_one_layout =
  QCheck.Test.make ~name:"both tables keep one layout" ~count:300
    (QCheck.make ~print:print_ops gen_ops) (fun ops ->
      let p = pointer_valued 1 and i = int_valued 1 in
      List.for_all
        (fun op ->
          apply p op;
          apply i op;
          p.bindings () = i.bindings () && p.max_displacement () = i.max_displacement ())
        ops)

(* Page-aligned keys must spread: with a hash that read the product's low
   bits, 4,096 multiples of 4,096 shared eight home slots and one probe
   ran 511 slots past its home; the top bits give each key its own. Taking
   every other key shifts the runs back, and the rest stay where lookups
   find them. *)
let check_aligned_keys_spread make () =
  let n = 4096 in
  let t = make 0 in
  for i = 0 to n - 1 do
    t.replace (i * 4096) i
  done;
  let worst = t.max_displacement () in
  if worst > 8 then Alcotest.failf "longest probe run %d slots past its home" worst;
  for i = 0 to (n / 2) - 1 do
    Alcotest.(check int) "take" (2 * i) (t.take (2 * i * 4096))
  done;
  Alcotest.(check int) "length" (n / 2) (t.length ());
  for i = 0 to n - 1 do
    let want = if i mod 2 = 0 then -1 else i in
    Alcotest.(check int) "find" want (t.find (i * 4096))
  done

let tests =
  let qcheck seed test = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test in
  ( "int_table",
    [
      qcheck 29 (prop_against_hashtbl "agrees with Hashtbl" pointer_valued);
      Alcotest.test_case "aligned keys spread" `Quick (check_aligned_keys_spread pointer_valued);
      qcheck 29 (prop_against_hashtbl "int-valued agrees with Hashtbl" int_valued);
      Alcotest.test_case "int-valued aligned keys spread" `Quick
        (check_aligned_keys_spread int_valued);
      qcheck 31 prop_one_layout;
    ] )
