(* The sanitizer's live-range map against [Map.Make (Int)]: after every
   replace, remove or search, the exact node, both neighbours and the
   length agree with the persistent map, on keys that include the ends of
   the int range and clustered and sorted runs; and the tree stays
   shallow on the orders a bump allocator and its mirror images hand out
   addresses in. *)

module Int_treap = Dmm_util.Int_treap
module M = Map.Make (Int)

type op = Replace of int * int | Remove of int | Search of int

let extremes = [ 0; 1; -1; min_int; min_int + 1; max_int; max_int - 1 ]

let show_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Search k -> Printf.sprintf "search %d" k

(* Few clustered keys make removes and overwrites hit and searches land
   between keys; wide ones and the extremes test the ends of the range;
   runs insert sorted, ascending or descending. *)
let gen_ops =
  let open QCheck.Gen in
  let key = frequency [ (2, oneofl extremes); (5, int_range (-40) 40); (2, int) ] in
  let single =
    frequency
      [
        (4, map2 (fun k v -> [ Replace (k, v) ]) key int);
        (3, map (fun k -> [ Remove k ]) key);
        (3, map (fun k -> [ Search k ]) key);
      ]
  in
  let run =
    map3
      (fun start n step -> List.init n (fun i -> Replace (start + (i * step), i)))
      (int_range (-100) 100) (1 -- 30)
      (oneofl [ 1; -1; 8; -16 ])
  in
  map List.concat (list_size (0 -- 80) (frequency [ (5, single); (1, run) ]))

let binding t n = if n < 0 then None else Some (Int_treap.key t n, Int_treap.value t n)

(* [search] and the reference agree on [k]. *)
let agree t m k =
  let exact = binding t (Int_treap.search t k) in
  exact = Option.map (fun v -> (k, v)) (M.find_opt k m)
  && binding t (Int_treap.pred t) = M.find_last_opt (fun a -> a < k) m
  && binding t (Int_treap.succ t) = M.find_first_opt (fun a -> a > k) m
  && Int_treap.length t = M.cardinal m

let prop_against_map =
  QCheck.Test.make ~name:"agrees with Map.Make (Int)" ~count:400
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops)) gen_ops)
    (fun ops ->
      let t = Int_treap.create () in
      let step m op =
        let m, k =
          match op with
          | Replace (k, v) ->
            let present = binding t (Int_treap.replace t k v) in
            if present <> Option.map (fun _ -> (k, v)) (M.find_opt k m) then
              QCheck.Test.fail_reportf "replace %d returned the wrong node" k;
            (* A new key's neighbours are what [search] would have found. *)
            if present = None
               && (binding t (Int_treap.pred t) <> M.find_last_opt (fun a -> a < k) m
                  || binding t (Int_treap.succ t) <> M.find_first_opt (fun a -> a > k) m)
            then QCheck.Test.fail_reportf "replace %d left the wrong neighbours" k;
            (M.add k v m, k)
          | Remove k ->
            let removed = binding t (Int_treap.remove t k) in
            if removed <> Option.map (fun v -> (k, v)) (M.find_opt k m) then
              QCheck.Test.fail_reportf "remove %d returned the wrong node" k;
            (M.remove k m, k)
          | Search k -> (m, k)
        in
        if not (List.for_all (agree t m) (k :: extremes)) then
          QCheck.Test.fail_reportf "disagrees after %s" (show_op op);
        m
      in
      ignore (List.fold_left step M.empty ops);
      true)

(* A random binary search tree on n keys is about 4.3 ln n deep (about
   50 for n = 100,000); a sorted insertion order into an unbalanced tree
   would be n. *)
let depth_bound () =
  let n = 100_000 in
  let bound = 4 * 17 in
  let orders =
    [
      ("ascending", fun i -> i);
      ("descending", fun i -> n - i);
      ("alternating", fun i -> if i land 1 = 0 then i / 2 else n - (i / 2));
    ]
  in
  List.iter
    (fun (name, key_of) ->
      let t = Int_treap.create () in
      for i = 0 to n - 1 do
        ignore (Int_treap.replace t (16 * key_of i) i)
      done;
      Alcotest.(check int) (name ^ ": length") n (Int_treap.length t);
      let d = Int_treap.depth t in
      if d > bound then Alcotest.failf "%s: depth %d above %d" name d bound;
      (* Removing every other key keeps it shallow too. *)
      for i = 0 to (n / 2) - 1 do
        ignore (Int_treap.remove t (16 * key_of (2 * i)))
      done;
      Alcotest.(check int) (name ^ ": length after removes") (n / 2) (Int_treap.length t);
      let d = Int_treap.depth t in
      if d > bound then Alcotest.failf "%s: depth %d above %d after removes" name d bound)
    orders

let tests =
  ( "int_treap",
    [
      Alcotest.test_case "depth bound on sorted keys" `Quick depth_bound;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 23 |]) prop_against_map;
    ] )
