(* The circular int queue against [Queue]: runs of pushes and pops move
   the head around the array, so pushes wrap past its end and doublings
   happen with the contents split in two. *)

module Int_ring = Dmm_util.Int_ring

type op = Push of int | Pop | Peek of int

let show_op = function
  | Push v -> Printf.sprintf "push %d" v
  | Pop -> "pop"
  | Peek k -> Printf.sprintf "peek %d" k

let gen_ops =
  let open QCheck.Gen in
  list_size (0 -- 400)
    (frequency
       [
         (5, map (fun v -> Push v) (oneof [ small_int; oneofl [ min_int; max_int; -1; 0 ] ]));
         (4, return Pop);
         (2, map (fun k -> Peek k) (int_range (-1) 40));
       ])

let prop_against_queue =
  QCheck.Test.make ~name:"agrees with Queue" ~count:500
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops)) gen_ops)
    (fun ops ->
      let r = Int_ring.create () and q = Queue.create () in
      List.for_all
        (fun op ->
          (match op with
          | Push v ->
            Int_ring.push r v;
            Queue.add v q;
            true
          | Pop -> (
            match Queue.take_opt q with
            | Some v -> Int_ring.pop r = v
            | None -> ( match Int_ring.pop r with _ -> false | exception Invalid_argument _ -> true))
          | Peek k -> (
            match if k < 0 then None else List.nth_opt (List.of_seq (Queue.to_seq q)) k with
            | Some v -> Int_ring.peek r k = v
            | None -> ( match Int_ring.peek r k with _ -> false | exception Invalid_argument _ -> true)))
          && Int_ring.length r = Queue.length q
          && Int_ring.is_empty r = Queue.is_empty q)
        ops)

(* Fill, drain half, refill past the capacity: the doubling must unroll
   a wrapped ring in order. *)
let check_wrapped_growth () =
  let r = Int_ring.create () in
  for i = 0 to 11 do
    Int_ring.push r i
  done;
  for i = 0 to 9 do
    Alcotest.(check int) "drained in order" i (Int_ring.pop r)
  done;
  for i = 12 to 99 do
    Int_ring.push r i
  done;
  Alcotest.(check int) "length" 90 (Int_ring.length r);
  for i = 10 to 99 do
    Alcotest.(check int) "fifo across the wrap" i (Int_ring.pop r)
  done;
  Alcotest.(check bool) "empty" true (Int_ring.is_empty r)

let tests =
  ( "int_ring",
    [
      Alcotest.test_case "wrapped growth" `Quick check_wrapped_growth;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |]) prop_against_queue;
    ] )
