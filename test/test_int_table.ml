(* The open-addressing int table against [Hashtbl]: any int is a key,
   including [min_int] and [min_int + 1], which mark empty and deleted
   slots inside the table; a table created small grows through several
   resizes, and removes leave tombstones that later inserts reuse. *)

module Int_table = Dmm_util.Int_table

type op = Replace of int * int | Remove of int | Find of int

let extremes = [ 0; 1; -1; min_int; min_int + 1; max_int; max_int - 1 ]

let show_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k

let gen_ops =
  let open QCheck.Gen in
  let key =
    frequency [ (2, oneofl extremes); (5, int_range (-60) 60); (2, map (fun i -> 16 * i) small_nat); (1, int) ]
  in
  list_size (0 -- 300)
    (frequency
       [
         (5, map2 (fun k v -> Replace (k, v)) key small_nat);
         (3, map (fun k -> Remove k) key);
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
        && Int_table.length t = Hashtbl.length h
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
            | Find k -> k
          in
          if not (List.for_all agree (k :: extremes)) then
            QCheck.Test.fail_reportf "disagrees after %s" (show_op op))
        ops;
      let sorted l = List.sort compare l in
      sorted (Int_table.fold (fun k v acc -> (k, v) :: acc) t [])
      = sorted (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []))

let tests =
  ( "int_table",
    [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |]) prop_against_hashtbl ] )
