(* The raw-speed allocator cores (Fixed_pool, Buddy_bitmap) against a naive
   reference model, plus invariants the flat-arena layouts must uphold:
   alignment, non-overlap, O(1) liveness validation, buddy merging, and
   clean sanitizer verdicts on their emitted event streams. *)

module Address_space = Dmm_vmem.Address_space
module Allocator = Dmm_core.Allocator
module Metrics = Dmm_core.Metrics
module Size = Dmm_util.Size
module Fixed_pool = Dmm_allocators.Fixed_pool
module Buddy_bitmap = Dmm_allocators.Buddy_bitmap
module Probe = Dmm_obs.Probe
module Stream = Dmm_check.Stream
module Sanitizer = Dmm_check.Sanitizer

type core = {
  name : string;
  make : ?probe:Probe.t -> unit -> Allocator.t;
  gross_of : int -> int; (* expected gross block size for a payload *)
  aligned : addr:int -> gross:int -> bool;
}

let fixed_core =
  {
    name = "fixed-pool";
    make =
      (fun ?(probe = Probe.null) () ->
        Fixed_pool.allocator (Fixed_pool.create (Address_space.create ~probe ())));
    gross_of = (fun p -> max 16 (Size.pow2_ceil p));
    aligned = (fun ~addr ~gross:_ -> addr mod 16 = 0);
  }

let buddy_core =
  {
    name = "buddy-bitmap";
    make =
      (fun ?(probe = Probe.null) () ->
        Buddy_bitmap.allocator (Buddy_bitmap.create (Address_space.create ~probe ())));
    gross_of = (fun p -> max 32 (Size.pow2_ceil p));
    (* Buddy blocks are naturally size-aligned. *)
    aligned = (fun ~addr ~gross -> addr mod gross = 0);
  }

let cores = [ fixed_core; buddy_core ]

let for_all_cores f = List.iter (fun c -> f c) cores

(* Random alloc/free scripts vs the naive model: every allocation must land
   on an aligned address, must not overlap any live block, and the
   footprint must cover the live gross bytes; the breakdown must add up. *)
let qcheck_model =
  let ops_gen =
    QCheck.Gen.(
      list_size (1 -- 150)
        (frequency
           [
             (3, map (fun s -> `Alloc (1 + (s mod 5000))) nat);
             (2, map (fun i -> `Free i) nat);
           ]))
  in
  let arb = QCheck.make ops_gen in
  List.map
    (fun core ->
      QCheck.Test.make
        ~name:(Printf.sprintf "%s agrees with the naive model" core.name)
        ~count:100 arb
        (fun ops ->
          let a = core.make () in
          let live = ref [] in
          let overlaps addr g =
            List.exists (fun (x, _, xg) -> addr < x + xg && x < addr + g) !live
          in
          List.for_all
            (fun op ->
              match op with
              | `Alloc payload ->
                let addr = a.Allocator.alloc payload in
                let g = core.gross_of payload in
                let fresh =
                  addr >= 0 && core.aligned ~addr ~gross:g && not (overlaps addr g)
                in
                live := (addr, payload, g) :: !live;
                let gross_live =
                  List.fold_left (fun acc (_, _, xg) -> acc + xg) 0 !live
                in
                fresh && a.Allocator.current_footprint () >= gross_live
              | `Free i -> (
                match !live with
                | [] -> true
                | l ->
                  let addr, _, _ = List.nth l (i mod List.length l) in
                  a.Allocator.free addr;
                  live := List.filter (fun (x, _, _) -> x <> addr) !live;
                  true))
            ops
          &&
          let b = a.Allocator.breakdown () in
          b.Metrics.live_payload
            = List.fold_left (fun acc (_, p, _) -> acc + p) 0 !live
          && b.Metrics.total_held = a.Allocator.current_footprint ()
          && b.Metrics.free_bytes >= 0
          && b.Metrics.internal_padding >= 0))
    cores

let check_invalid_free () =
  for_all_cores (fun core ->
      let a = core.make () in
      let addr = a.Allocator.alloc 100 in
      (try
         a.Allocator.free (addr + 4);
         Alcotest.fail (core.name ^ ": misaligned free should raise")
       with Allocator.Invalid_free _ -> ());
      (try
         a.Allocator.free (addr + core.gross_of 100);
         Alcotest.fail (core.name ^ ": free of a never-allocated block should raise")
       with Allocator.Invalid_free _ -> ());
      a.Allocator.free addr;
      try
        a.Allocator.free addr;
        Alcotest.fail (core.name ^ ": double free should raise")
      with Allocator.Invalid_free _ -> ())

(* Kenwright's in-band free list is LIFO: a freed block is the next one
   handed out for its class, whatever payload maps to that class. *)
let check_fixed_pool_lifo () =
  let a = fixed_core.make () in
  let x = a.Allocator.alloc 100 in
  let y = a.Allocator.alloc 101 in
  a.Allocator.free x;
  Alcotest.(check int) "LIFO reuse" x (a.Allocator.alloc 90);
  a.Allocator.free y;
  Alcotest.(check int) "LIFO reuse again" y (a.Allocator.alloc 120)

let check_buddy_split_merge () =
  let space = Address_space.create () in
  let b = Buddy_bitmap.create space in
  let a1 = Buddy_bitmap.alloc b 32 in
  (* Fresh 4096-byte arena split down to a 32-byte block: 7 splits. *)
  Alcotest.(check int) "splits on first carve" 7 (Buddy_bitmap.metrics b).Metrics.splits;
  let a2 = Buddy_bitmap.alloc b 32 in
  Alcotest.(check int) "buddy handed out" (a1 lxor 32) a2;
  Buddy_bitmap.free b a1;
  Buddy_bitmap.free b a2;
  Alcotest.(check int) "merged all the way back up" 7
    (Buddy_bitmap.metrics b).Metrics.coalesces;
  let cap = Buddy_bitmap.current_footprint b in
  (* The whole arena is one free block again: a capacity-sized request is
     served at base 0 without growing. *)
  Alcotest.(check int) "arena reassembled" 0 (Buddy_bitmap.alloc b cap);
  Alcotest.(check int) "no growth" cap (Buddy_bitmap.current_footprint b)

let check_buddy_growth () =
  let space = Address_space.create () in
  let b = Buddy_bitmap.create space in
  let a1 = Buddy_bitmap.alloc b 4096 in
  let a2 = Buddy_bitmap.alloc b 4096 in
  Alcotest.(check bool) "distinct blocks" true (a1 <> a2);
  Alcotest.(check bool) "arena doubled" true (Buddy_bitmap.current_footprint b >= 8192);
  Buddy_bitmap.free b a1;
  Buddy_bitmap.free b a2;
  let held = Buddy_bitmap.current_footprint b in
  Alcotest.(check int) "never trims" held (Buddy_bitmap.max_footprint b)

(* The payload lives in a signed 32-bit in-band word, so a request of
   2 GiB or more is refused before anything is carved; a 16 MiB one still
   round-trips. *)
let check_buddy_payload_bound () =
  let b = Buddy_bitmap.create (Address_space.create ()) in
  Alcotest.check_raises "2 GiB payload"
    (Invalid_argument
       "Buddy_bitmap.alloc: request of 2147483648 bytes exceeds the 32-bit payload word")
    (fun () -> ignore (Buddy_bitmap.alloc b 0x8000_0000));
  Alcotest.(check int) "nothing carved" 0 (Buddy_bitmap.current_footprint b);
  let payload = (1 lsl 24) + 1 in
  let addr = Buddy_bitmap.alloc b payload in
  Alcotest.(check int) "payload held" payload (Buddy_bitmap.breakdown b).Metrics.live_payload;
  Buddy_bitmap.free b addr;
  Alcotest.(check int) "payload released" 0 (Buddy_bitmap.breakdown b).Metrics.live_payload

(* A reference binary buddy written for clarity, not speed: one set of free
   block indexes per level; an allocation takes the lowest index at the
   lowest non-empty level at or above the request's, doubling the arena
   while there is none. It charges the steps Buddy_bitmap promises: 4 per
   sbrk, one per level probed plus one on a miss, one per split, per free
   and per coalesce. *)
module Int_set = Set.Make (Int)

type ref_buddy = {
  mutable cap : int;
  mutable free_at : Int_set.t array; (* level -> free block indexes *)
  level_of : (int, int) Hashtbl.t; (* live block addr -> level *)
  mutable ops : int;
  mutable splits : int;
  mutable coalesces : int;
}

let ref_min = 32
let ref_shift = 5

let ref_create () =
  { cap = 0; free_at = [||]; level_of = Hashtbl.create 16; ops = 0; splits = 0; coalesces = 0 }

let ref_add r l i = r.free_at.(l) <- Int_set.add i r.free_at.(l)
let ref_remove r l i = r.free_at.(l) <- Int_set.remove i r.free_at.(l)

let ref_alloc r payload =
  let needed = max ref_min (Size.pow2_ceil payload) in
  let lt = Size.log2_ceil needed - ref_shift in
  if r.cap = 0 then begin
    r.cap <- max 4096 needed;
    r.free_at <- Array.make (Size.log2_ceil r.cap - ref_shift + 1) Int_set.empty;
    ref_add r (Array.length r.free_at - 1) 0;
    r.ops <- r.ops + 4
  end;
  let rec level () =
    let n = Array.length r.free_at in
    let rec probe l = if l >= n || not (Int_set.is_empty r.free_at.(l)) then l else probe (l + 1) in
    let l = probe lt in
    r.ops <- r.ops + (l - lt + 1);
    if l < n then l
    else begin
      (* The new upper half is one free block of the old capacity. *)
      r.ops <- r.ops + 4;
      r.cap <- 2 * r.cap;
      r.free_at <- Array.append r.free_at [| Int_set.empty |];
      ref_add r (n - 1) 1;
      level ()
    end
  in
  let l = level () in
  let i = Int_set.min_elt r.free_at.(l) in
  ref_remove r l i;
  let addr = i lsl (ref_shift + l) in
  for k = l - 1 downto lt do
    ref_add r k ((addr lsr (ref_shift + k)) + 1);
    r.ops <- r.ops + 1;
    r.splits <- r.splits + 1
  done;
  Hashtbl.replace r.level_of addr lt;
  addr

let ref_free r addr =
  let lt = Hashtbl.find r.level_of addr in
  Hashtbl.remove r.level_of addr;
  r.ops <- r.ops + 1;
  let rec merge a l =
    let buddy = a lxor (ref_min lsl l) in
    let bi = buddy lsr (ref_shift + l) in
    if l < Array.length r.free_at - 1 && buddy < r.cap && Int_set.mem bi r.free_at.(l) then begin
      ref_remove r l bi;
      r.ops <- r.ops + 1;
      r.coalesces <- r.coalesces + 1;
      merge (min a buddy) (l + 1)
    end
    else ref_add r l (a lsr (ref_shift + l))
  in
  merge addr lt

(* Buddy_bitmap's counts, hints and word scan change how a block is found,
   never which: after every step of a random script it must agree with the
   reference on the address, ops, splits, coalesces and footprint. *)
let qcheck_buddy_reference =
  let ops_gen =
    QCheck.Gen.(
      list_size (1 -- 250)
        (frequency
           [
             (3, map (fun s -> `Alloc s) (oneof [ 1 -- 64; 1 -- 2048; 1 -- 65536 ]));
             (2, map (fun i -> `Free i) nat);
           ]))
  in
  let print =
    QCheck.Print.list (function
      | `Alloc p -> Printf.sprintf "a %d" p
      | `Free i -> Printf.sprintf "f #%d" i)
  in
  QCheck.Test.make ~name:"buddy-bitmap picks the reference buddy's blocks" ~count:300
    (QCheck.make ~print ops_gen)
    (fun ops ->
      let b = Buddy_bitmap.create (Address_space.create ()) in
      let r = ref_create () in
      let live = ref [] in
      let agree () =
        let m = Buddy_bitmap.metrics b in
        m.Metrics.ops = r.ops
        && m.Metrics.splits = r.splits
        && m.Metrics.coalesces = r.coalesces
        && Buddy_bitmap.current_footprint b = r.cap
      in
      List.for_all
        (fun op ->
          let same_addr =
            match op with
            | `Alloc p ->
              let addr = Buddy_bitmap.alloc b p in
              live := addr :: !live;
              addr = ref_alloc r p
            | `Free i -> (
              match !live with
              | [] -> true
              | l ->
                let addr = List.nth l (i mod List.length l) in
                Buddy_bitmap.free b addr;
                ref_free r addr;
                live := List.filter (fun x -> x <> addr) !live;
                true)
          in
          same_addr && agree ())
        ops)

(* A deterministic mixed script shared by the stream checks below. *)
let run_script (a : Allocator.t) =
  let live = ref [] in
  for i = 0 to 499 do
    if i mod 3 <> 2 then live := a.Allocator.alloc (8 + (i * 37 mod 2000)) :: !live
    else
      match !live with
      | [] -> ()
      | addr :: rest ->
        a.Allocator.free addr;
        live := rest
  done;
  List.iter a.Allocator.free !live

(* The emitted event stream must pass the heap sanitizer's invariant pass
   with zero diagnostics — same bar as EXP-CHECK and `dmm check`. *)
let check_sanitizer_clean () =
  for_all_cores (fun core ->
      let probe = Probe.create () in
      let st = Sanitizer.start () in
      Probe.attach probe (fun clock event -> Sanitizer.feed st { Stream.clock; event });
      run_script (core.make ~probe ());
      let report = Sanitizer.finalize st in
      List.iter
        (fun d -> Format.printf "%s: %a@." core.name Dmm_check.Diag.pp d)
        report.Sanitizer.diags;
      Alcotest.(check int) (core.name ^ " stream clean") 0
        (List.length report.Sanitizer.diags);
      Alcotest.(check bool) (core.name ^ " events seen") true
        (report.Sanitizer.events > 0))

(* Probe-on and probe-off runs must agree byte for byte on footprint and
   ops (the acct_ops contract every manager honours). *)
let check_probe_identity () =
  for_all_cores (fun core ->
      let observe ?probe () =
        let a = core.make ?probe () in
        run_script a;
        (a.Allocator.max_footprint (), (a.Allocator.stats ()).Metrics.ops)
      in
      let off = observe () in
      let probe = Probe.create () in
      Probe.attach probe (fun _ _ -> ());
      let on = observe ~probe () in
      Alcotest.(check (pair int int)) (core.name ^ " probe on/off identical") off on)

let tests =
  ( "pool_cores",
    [
      Alcotest.test_case "invalid frees" `Quick check_invalid_free;
      Alcotest.test_case "fixed-pool LIFO reuse" `Quick check_fixed_pool_lifo;
      Alcotest.test_case "buddy split/merge symmetry" `Quick check_buddy_split_merge;
      Alcotest.test_case "buddy growth" `Quick check_buddy_growth;
      Alcotest.test_case "buddy payload bound" `Quick check_buddy_payload_bound;
      Alcotest.test_case "sanitizer-clean streams" `Quick check_sanitizer_clean;
      Alcotest.test_case "probe on/off identity" `Quick check_probe_identity;
    ]
    @ List.map QCheck_alcotest.to_alcotest (qcheck_buddy_reference :: qcheck_model) )
