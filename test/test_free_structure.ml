open Dmm_core
module D = Decision
module FS = Free_structure

let structures =
  [
    ("sll", D.Singly_linked_list);
    ("dll", D.Doubly_linked_list);
    ("addr", D.Address_ordered_list);
    ("tree", D.Size_ordered_tree);
  ]

let block ~addr ~size = Block.v ~addr ~size ~status:Block.Free ~run_id:0

let mk structure sizes =
  let fs = FS.create structure in
  List.iteri (fun i size -> FS.insert fs (block ~addr:(i * 10000) ~size)) sizes;
  fs

let for_all_structures f =
  List.iter (fun (name, s) -> f name s) structures

let check_insert_remove () =
  for_all_structures (fun name s ->
      let fs = FS.create s in
      let b1 = block ~addr:0 ~size:64 in
      let b2 = block ~addr:100 ~size:32 in
      FS.insert fs b1;
      FS.insert fs b2;
      Alcotest.(check int) (name ^ " cardinal") 2 (FS.cardinal fs);
      Alcotest.(check int) (name ^ " bytes") 96 (FS.total_bytes fs);
      Alcotest.(check bool) (name ^ " mem") true (FS.mem fs b1);
      FS.remove fs b1;
      Alcotest.(check bool) (name ^ " removed") false (FS.mem fs b1);
      Alcotest.(check int) (name ^ " cardinal after" ) 1 (FS.cardinal fs);
      Alcotest.(check int) (name ^ " bytes after") 32 (FS.total_bytes fs))

let check_duplicate_insert () =
  for_all_structures (fun name s ->
      let fs = FS.create s in
      let b = block ~addr:0 ~size:64 in
      FS.insert fs b;
      (try
         FS.insert fs b;
         Alcotest.fail (name ^ ": duplicate insert should raise")
       with Invalid_argument _ -> ()))

let check_remove_missing () =
  for_all_structures (fun name s ->
      let fs = FS.create s in
      try
        FS.remove fs (block ~addr:0 ~size:64);
        Alcotest.fail (name ^ ": remove of absent should raise")
      with Not_found -> ())

let check_take_fit_adequacy () =
  for_all_structures (fun name s ->
      let fs = mk s [ 32; 64; 128 ] in
      match FS.take_fit fs D.First_fit 60 with
      | Some b ->
        Alcotest.(check bool) (name ^ " adequate") true (b.Block.size >= 60);
        Alcotest.(check int) (name ^ " removed from structure") 2 (FS.cardinal fs)
      | None -> Alcotest.fail (name ^ ": fit should succeed"))

let check_take_fit_none () =
  for_all_structures (fun name s ->
      let fs = mk s [ 32; 64 ] in
      Alcotest.(check bool) (name ^ " no block fits") true
        (FS.take_fit fs D.Best_fit 100 = None);
      Alcotest.(check int) (name ^ " nothing removed") 2 (FS.cardinal fs))

let check_best_fit_minimal () =
  for_all_structures (fun name s ->
      let fs = mk s [ 128; 72; 64; 256 ] in
      match FS.take_fit fs D.Best_fit 65 with
      | Some b -> Alcotest.(check int) (name ^ " minimal adequate") 72 b.Block.size
      | None -> Alcotest.fail (name ^ ": best fit should succeed"))

let check_exact_fit () =
  for_all_structures (fun name s ->
      let fs = mk s [ 128; 64; 256 ] in
      (match FS.take_fit fs D.Exact_fit 64 with
      | Some b -> Alcotest.(check int) (name ^ " exact match") 64 b.Block.size
      | None -> Alcotest.fail (name ^ ": exact fit should succeed"));
      (* No exact match: falls back to an adequate block. *)
      let fs2 = mk s [ 128; 256 ] in
      match FS.take_fit fs2 D.Exact_fit 64 with
      | Some b -> Alcotest.(check int) (name ^ " fallback best") 128 b.Block.size
      | None -> Alcotest.fail (name ^ ": exact-fit fallback should succeed"))

let check_worst_fit () =
  for_all_structures (fun name s ->
      let fs = mk s [ 128; 72; 256 ] in
      match FS.take_fit fs D.Worst_fit 64 with
      | Some b -> Alcotest.(check int) (name ^ " maximal") 256 b.Block.size
      | None -> Alcotest.fail (name ^ ": worst fit should succeed"))

let check_iteration_order () =
  (* SLL and DLL iterate most-recent-first; the address-ordered list by
     ascending address; the tree by ascending (size, address). *)
  let blocks =
    [ block ~addr:300 ~size:64; block ~addr:100 ~size:32; block ~addr:200 ~size:16 ]
  in
  let order s =
    let fs = FS.create s in
    List.iter (FS.insert fs) blocks;
    List.map (fun (b : Block.t) -> b.addr) (FS.to_list fs)
  in
  Alcotest.(check (list int)) "sll LIFO" [ 200; 100; 300 ] (order D.Singly_linked_list);
  Alcotest.(check (list int)) "dll LIFO" [ 200; 100; 300 ] (order D.Doubly_linked_list);
  Alcotest.(check (list int)) "address order" [ 100; 200; 300 ]
    (order D.Address_ordered_list);
  Alcotest.(check (list int)) "size order" [ 200; 100; 300 ] (order D.Size_ordered_tree)

let check_tree_cheaper_on_large_sets () =
  (* The point of tree A1's trade-off: logarithmic search beats scans once
     the free set is big. *)
  let populate s n =
    let fs = FS.create s in
    for i = 1 to n do
      FS.insert fs (block ~addr:(i * 1000) ~size:(8 * i))
    done;
    let before = FS.steps fs in
    ignore (FS.take_fit fs D.Best_fit (8 * (n / 2)));
    FS.steps fs - before
  in
  let tree = populate D.Size_ordered_tree 500 in
  let sll = populate D.Singly_linked_list 500 in
  Alcotest.(check bool)
    (Printf.sprintf "tree search (%d steps) cheaper than list scan (%d)" tree sll)
    true (tree * 5 < sll)

let check_next_fit_skips_previous () =
  let fs = mk D.Doubly_linked_list [ 100; 100; 100 ] in
  match FS.take_fit fs D.Next_fit 50 with
  | None -> Alcotest.fail "first take should succeed"
  | Some b1 -> (
    FS.insert fs b1;
    (* The roving pointer avoids handing back the block just used. *)
    match FS.take_fit fs D.Next_fit 50 with
    | None -> Alcotest.fail "second take should succeed"
    | Some b2 ->
      Alcotest.(check bool) "different block on the next turn" true
        (b2.Block.addr <> b1.Block.addr))

let check_iter_and_to_list () =
  for_all_structures (fun name s ->
      let fs = mk s [ 8; 16; 24 ] in
      let total = List.fold_left (fun acc b -> acc + b.Block.size) 0 (FS.to_list fs) in
      Alcotest.(check int) (name ^ " iteration covers all") 48 total)

let check_steps_accumulate () =
  for_all_structures (fun name s ->
      let fs = mk s [ 8; 16; 24; 32; 40 ] in
      let before = FS.steps fs in
      ignore (FS.take_fit fs D.Best_fit 8);
      Alcotest.(check bool) (name ^ " search charged") true (FS.steps fs > before))

(* Specification model: the blocks in structure order, the next-fit
   pointer and the step charge of every operation, written from the rules
   stated in free_structure.mli rather than from the implementation. *)
module Spec = struct
  type t = {
    structure : D.block_structure;
    mutable items : Block.t list; (* structure order *)
    mutable last : int option; (* address of the last block taken *)
    mutable steps : int;
  }

  let create structure = { structure; items = []; last = None; steps = 0 }
  let charge m n = m.steps <- m.steps + n

  (* ⌈log2 n⌉, at least 1. *)
  let log n =
    let rec go k p = if p >= n then k else go (k + 1) (2 * p) in
    max 1 (go 0 1)

  let index_of p l =
    let rec go i = function
      | [] -> None
      | x :: rest -> if p x then Some i else go (i + 1) rest
    in
    go 0 l

  let insert_at k x l =
    List.filteri (fun i _ -> i < k) l @ (x :: List.filteri (fun i _ -> i >= k) l)

  let size_key (b : Block.t) = (b.size, b.addr)

  let insert m (b : Block.t) =
    let n = List.length m.items in
    match m.structure with
    | D.Singly_linked_list | D.Doubly_linked_list ->
      m.items <- b :: m.items;
      charge m 1
    | D.Address_ordered_list -> (
      match index_of (fun (x : Block.t) -> x.addr > b.addr) m.items with
      | Some k ->
        m.items <- insert_at k b m.items;
        charge m (k + 2)
      | None ->
        m.items <- m.items @ [ b ];
        charge m (n + 1))
    | D.Size_ordered_tree ->
      m.items <- List.sort (fun x y -> compare (size_key x) (size_key y)) (b :: m.items);
      charge m (log n)

  let drop m (b : Block.t) =
    m.items <- List.filter (fun (x : Block.t) -> x.addr <> b.addr) m.items

  let remove m (b : Block.t) =
    let n = List.length m.items in
    let pos = index_of (fun (x : Block.t) -> x.addr = b.addr) m.items in
    (match (m.structure, pos) with
    | (D.Doubly_linked_list | D.Address_ordered_list), _ -> charge m 1
    | D.Singly_linked_list, Some k -> charge m (k + 1)
    | D.Size_ordered_tree, Some _ -> charge m (log n)
    | (D.Singly_linked_list | D.Size_ordered_tree), None -> ());
    if pos = None then raise Not_found;
    drop m b;
    if m.last = Some b.addr then m.last <- None

  (* Of the blocks satisfying [p], the earliest one that no later one
     beats under [better]. *)
  let earliest_best p better l =
    List.fold_left
      (fun acc (x : Block.t) ->
        if not (p x) then acc
        else match acc with Some c when not (better x c) -> acc | _ -> Some x)
      None l

  let take m fit need =
    let n = List.length m.items in
    let adequate (x : Block.t) = x.size >= need in
    (* A scan that stops at index i charges i + 1; a full one charges n. *)
    let first p =
      match index_of p m.items with
      | Some i -> (Some (List.nth m.items i), i + 1)
      | None -> (None, n)
    in
    let chosen, cost =
      match (m.structure, fit, m.last) with
      | D.Size_ordered_tree, D.Worst_fit, _ ->
        let largest =
          match List.rev m.items with x :: _ when adequate x -> Some x | _ -> None
        in
        (largest, log n)
      | D.Size_ordered_tree, _, _ -> (List.find_opt adequate m.items, log n)
      | (D.Doubly_linked_list | D.Address_ordered_list), D.Next_fit, Some a -> (
        match first (fun x -> adequate x && x.addr <> a) with
        | Some x, c -> (Some x, c)
        | None, _ ->
          (List.find_opt (fun (x : Block.t) -> adequate x && x.addr = a) m.items, n))
      | _, (D.First_fit | D.Next_fit), _ -> first adequate
      | _, (D.Exact_fit | D.Best_fit), _ -> (
        match first (fun (x : Block.t) -> x.size = need) with
        | Some x, c -> (Some x, c)
        | None, _ ->
          (earliest_best adequate (fun (x : Block.t) c -> x.size < c.Block.size) m.items, n))
      | _, D.Worst_fit, _ ->
        (earliest_best adequate (fun (x : Block.t) c -> x.size > c.Block.size) m.items, n)
    in
    charge m cost;
    Option.iter
      (fun (b : Block.t) ->
        drop m b;
        m.last <- Some b.addr)
      chosen;
    chosen
end

(* The implementation against the specification model, op for op: same
   chosen blocks, same cumulative step charge, same order, same
   exceptions, for every structure and all five fits. Blocks taken or
   removed are re-inserted as the very same records, as managers do,
   which is what exercises the next-fit pointer. With [~twins], removals
   and re-insertions pass a reconstructed record of the same address and
   size instead, as the boundary-tag managers do when they rebuild a
   neighbour from its tags: that drives the flat lists' address-scan
   fallback, which the identity check otherwise short-circuits. *)
let specification ~twins =
  let fits = [| D.First_fit; D.Next_fit; D.Best_fit; D.Exact_fit; D.Worst_fit |] in
  (* Indices into most-recent-first lists, biased to the most recent. *)
  let recent = QCheck.Gen.(frequency [ (2, return 0); (1, nat) ]) in
  let ops_gen =
    QCheck.Gen.(
      list_size (1 -- 80)
        (frequency
           [
             (4, map2 (fun s a -> `Insert (16 + (8 * (s mod 32)), 16 * (a mod 512))) nat nat);
             (4, map2 (fun f n -> `Take (fits.(f), n)) (int_bound 4) (1 -- 280));
             (3, map (fun i -> `Reinsert i) recent);
             (2, map (fun i -> `Remove i) recent);
             (1, map (fun i -> `Remove_absent i) nat);
           ]))
  in
  let print_op = function
    | `Insert (size, addr) -> Printf.sprintf "insert %d@%d" size addr
    | `Take (f, need) -> Printf.sprintf "take %s %d" (D.leaf_name (D.L_c1 f)) need
    | `Reinsert i -> Printf.sprintf "reinsert %d" i
    | `Remove i -> Printf.sprintf "remove %d" i
    | `Remove_absent i -> Printf.sprintf "remove-absent %d" i
  in
  let arb = QCheck.make ~print:QCheck.Print.(list print_op) ops_gen in
  let addrs l = List.map (fun (b : Block.t) -> b.addr) l in
  let addr_of = Option.map (fun (b : Block.t) -> b.addr) in
  let raises_not_found f = match f () with () -> false | exception Not_found -> true in
  List.map
    (fun (sname, structure) ->
      QCheck.Test.make
        ~name:
          (if twins then
             Printf.sprintf
               "%s: unboxed repr equivalent to the specification on reconstructed records" sname
           else Printf.sprintf "%s behaves like the reference specification" sname)
        ~count:300 arb
        (fun ops ->
          let fs = FS.create structure in
          let m = Spec.create structure in
          let used = Hashtbl.create 64 in
          (* Most recent first: blocks inserted, and blocks taken or removed. *)
          let live = ref [] and out = ref [] in
          let pick l i = List.nth l (i mod List.length l) in
          let without b l = List.filter (fun x -> x != b) l in
          let as_passed (b : Block.t) = if twins then block ~addr:b.addr ~size:b.size else b in
          let agree () =
            FS.steps fs = m.steps
            && addrs (FS.to_list fs) = addrs m.items
            && FS.cardinal fs = List.length m.items
            && FS.total_bytes fs
               = List.fold_left (fun acc (x : Block.t) -> acc + x.size) 0 m.items
            && List.for_all (FS.mem fs) m.items
          in
          let put b =
            FS.insert fs b;
            Spec.insert m b;
            live := b :: !live;
            agree ()
          in
          let retire b =
            live := without b !live;
            out := b :: !out
          in
          List.for_all
            (fun op ->
              match op with
              | `Insert (size, addr) ->
                Hashtbl.mem used addr
                || begin
                  Hashtbl.replace used addr ();
                  put (block ~addr ~size)
                end
              | `Reinsert i -> (
                match !out with
                | [] -> true
                | l ->
                  let b = pick l i in
                  out := without b l;
                  put (as_passed b))
              | `Take (fit, need) ->
                let got = FS.take_fit fs fit need in
                let want = Spec.take m fit need in
                Option.iter retire got;
                addr_of got = addr_of want && agree ()
              | `Remove i -> (
                match !live with
                | [] -> true
                | l ->
                  let b = pick l i in
                  FS.remove fs (as_passed b);
                  Spec.remove m (as_passed b);
                  retire b;
                  agree ())
              | `Remove_absent i ->
                let ghost =
                  match !out with [] -> block ~addr:8192 ~size:64 | l -> as_passed (pick l i)
                in
                raises_not_found (fun () -> FS.remove fs ghost)
                && raises_not_found (fun () -> Spec.remove m ghost)
                && agree ())
            ops))
    structures

let tests =
  ( "free_structure",
    [
      Alcotest.test_case "insert/remove" `Quick check_insert_remove;
      Alcotest.test_case "duplicate insert" `Quick check_duplicate_insert;
      Alcotest.test_case "remove missing" `Quick check_remove_missing;
      Alcotest.test_case "take_fit adequacy" `Quick check_take_fit_adequacy;
      Alcotest.test_case "take_fit exhausted" `Quick check_take_fit_none;
      Alcotest.test_case "best fit minimal" `Quick check_best_fit_minimal;
      Alcotest.test_case "exact fit" `Quick check_exact_fit;
      Alcotest.test_case "worst fit maximal" `Quick check_worst_fit;
      Alcotest.test_case "iteration" `Quick check_iter_and_to_list;
      Alcotest.test_case "iteration order per structure" `Quick check_iteration_order;
      Alcotest.test_case "tree cheaper on large sets" `Quick check_tree_cheaper_on_large_sets;
      Alcotest.test_case "next fit skips the previous block" `Quick check_next_fit_skips_previous;
      Alcotest.test_case "steps accumulate" `Quick check_steps_accumulate;
    ]
    @ List.map QCheck_alcotest.to_alcotest (specification ~twins:false)
    @ List.map QCheck_alcotest.to_alcotest (specification ~twins:true) )
