module Trace = Dmm_trace.Trace
module Event = Dmm_trace.Event
module Prng = Dmm_util.Prng

let check_positive name v = if v <= 0 then invalid_arg ("Micro." ^ name ^ ": non-positive argument")

let ramp ~blocks ~size =
  check_positive "ramp" blocks;
  check_positive "ramp" size;
  let t = Trace.Builder.create () in
  for i = 1 to blocks do
    Trace.Builder.add t (Event.Alloc { id = i; size })
  done;
  for i = 1 to blocks do
    Trace.Builder.add t (Event.Free { id = i })
  done;
  Trace.Builder.build t

let sawtooth ~cycles ~blocks ~size =
  check_positive "sawtooth" cycles;
  check_positive "sawtooth" blocks;
  check_positive "sawtooth" size;
  let t = Trace.Builder.create () in
  let id = ref 0 in
  for _ = 1 to cycles do
    let first = !id + 1 in
    for _ = 1 to blocks do
      incr id;
      Trace.Builder.add t (Event.Alloc { id = !id; size })
    done;
    for i = !id downto first do
      Trace.Builder.add t (Event.Free { id = i })
    done
  done;
  Trace.Builder.build t

let bimodal_churn ~ops ~small ~large ~seed =
  check_positive "bimodal_churn" ops;
  check_positive "bimodal_churn" small;
  check_positive "bimodal_churn" large;
  let rng = Prng.create seed in
  let t = Trace.Builder.create () in
  let live = ref [] in
  let id = ref 0 in
  for _ = 1 to ops do
    if Prng.bool rng || !live = [] then begin
      incr id;
      let size = if Prng.bool rng then small else large in
      Trace.Builder.add t (Event.Alloc { id = !id; size });
      live := !id :: !live
    end
    else begin
      let n = Prng.int rng (List.length !live) in
      Trace.Builder.add t (Event.Free { id = List.nth !live n });
      live := List.filteri (fun i _ -> i <> n) !live
    end
  done;
  List.iter (fun id -> Trace.Builder.add t (Event.Free { id })) !live;
  Trace.Builder.build t

let pinning ~pairs ~hole ~pin =
  check_positive "pinning" pairs;
  check_positive "pinning" hole;
  check_positive "pinning" pin;
  let t = Trace.Builder.create () in
  for i = 1 to pairs do
    Trace.Builder.add t (Event.Alloc { id = 2 * i; size = hole });
    Trace.Builder.add t (Event.Alloc { id = (2 * i) + 1; size = pin })
  done;
  (* Free every hole; the pins stay and fence the free space in. *)
  for i = 1 to pairs do
    Trace.Builder.add t (Event.Free { id = 2 * i })
  done;
  (* Now ask for blocks one hole plus one pin wide: none of the holes can
     serve them. *)
  let base = (2 * pairs) + 2 in
  for i = 0 to (pairs / 4) - 1 do
    Trace.Builder.add t (Event.Alloc { id = base + i; size = hole + pin + 8 })
  done;
  (* Tear down. *)
  for i = 0 to (pairs / 4) - 1 do
    Trace.Builder.add t (Event.Free { id = base + i })
  done;
  for i = 1 to pairs do
    Trace.Builder.add t (Event.Free { id = (2 * i) + 1 })
  done;
  Trace.Builder.build t

let size_shift ~phases ~blocks ~base =
  check_positive "size_shift" phases;
  check_positive "size_shift" blocks;
  check_positive "size_shift" base;
  let t = Trace.Builder.create () in
  let id = ref 0 in
  for p = 0 to phases - 1 do
    let size = base * (1 lsl p) in
    let first = !id + 1 in
    for _ = 1 to blocks do
      incr id;
      Trace.Builder.add t (Event.Alloc { id = !id; size })
    done;
    for i = first to !id do
      Trace.Builder.add t (Event.Free { id = i })
    done
  done;
  Trace.Builder.build t

let random_churn ~ops ~min_size ~max_size ~seed =
  check_positive "random_churn" ops;
  check_positive "random_churn" min_size;
  if max_size < min_size then invalid_arg "Micro.random_churn: empty size range";
  let rng = Prng.create seed in
  let t = Trace.Builder.create () in
  let live = ref [] in
  let id = ref 0 in
  for _ = 1 to ops do
    if Prng.bool rng || !live = [] then begin
      incr id;
      Trace.Builder.add t (Event.Alloc { id = !id; size = Prng.int_in rng min_size max_size });
      live := !id :: !live
    end
    else begin
      let n = Prng.int rng (List.length !live) in
      Trace.Builder.add t (Event.Free { id = List.nth !live n });
      live := List.filteri (fun i _ -> i <> n) !live
    end
  done;
  List.iter (fun id -> Trace.Builder.add t (Event.Free { id })) !live;
  Trace.Builder.build t

let suite () =
  [
    ("ramp (FIFO)", ramp ~blocks:2000 ~size:256);
    ("sawtooth (LIFO)", sawtooth ~cycles:20 ~blocks:500 ~size:128);
    ("bimodal churn", bimodal_churn ~ops:8000 ~small:32 ~large:2048 ~seed:3);
    ("pinning attack", pinning ~pairs:500 ~hole:512 ~pin:16);
    ("size shift", size_shift ~phases:6 ~blocks:500 ~base:32);
    ("random churn", random_churn ~ops:8000 ~min_size:16 ~max_size:4096 ~seed:4);
  ]
