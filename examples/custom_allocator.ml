(* Extending the library with your own manager.

   Implements a naive first-fit free-list allocator from scratch against
   the Allocator.t interface, checks its event stream with the heap
   sanitizer, and races it against the framework-derived manager on the
   DRR case study.

   Run with: dune exec examples/custom_allocator.exe *)

module Allocator = Dmm_core.Allocator
module Metrics = Dmm_core.Metrics
module Address_space = Dmm_vmem.Address_space
module Probe = Dmm_obs.Probe
module Diag = Dmm_check.Diag
module Stream = Dmm_check.Stream
module Sanitizer = Dmm_check.Sanitizer
module Replay = Dmm_trace.Replay
module Scenario = Dmm_workloads.Scenario

(* A deliberately simple manager: one address-ordered free list, first
   fit, eager splitting, no coalescing, 4-byte headers, never trims.

   Its accounting is the library's idiom: a [Metrics.t] built from the
   address space's probe counts each step and, when a sink is attached,
   emits it as an event on the space's stream; the footprint is the
   space's break, since the space is this manager's alone. *)
module Naive = struct
  type free_block = { addr : int; size : int }

  type t = {
    space : Address_space.t;
    mutable free : free_block list; (* address-ordered *)
    live : (int, int * int) Hashtbl.t; (* payload addr -> gross, payload *)
    metrics : Metrics.t;
  }

  let header = 4
  let min_block = 16

  let create space =
    {
      space;
      free = [];
      live = Hashtbl.create 64;
      metrics = Metrics.create ~probe:(Address_space.probe space) ();
    }

  let gross_of payload = max min_block ((payload + header + 7) / 8 * 8)

  (* First fit over the address-ordered list; returns the block and the
     list without it. *)
  let rec take_first need = function
    | [] -> None
    | b :: rest when b.size >= need -> Some (b, rest)
    | b :: rest -> (
      match take_first need rest with
      | Some (found, remaining) -> Some (found, b :: remaining)
      | None -> None)

  let alloc t payload =
    if payload <= 0 then invalid_arg "Naive.alloc";
    let gross = gross_of payload in
    let addr =
      match take_first gross t.free with
      | Some (b, rest) ->
        (* Split the tail back onto the list, keeping address order. *)
        let remainder = b.size - gross in
        if remainder >= min_block then begin
          let tail = { addr = b.addr + gross; size = remainder } in
          t.free <- List.sort compare (tail :: rest);
          Metrics.on_split t.metrics ~addr:b.addr ~parent:b.size ~taken:gross ~remainder
        end
        else t.free <- rest;
        b.addr
      | None -> Address_space.sbrk t.space gross
    in
    Hashtbl.replace t.live (addr + header) (gross, payload);
    Metrics.on_alloc t.metrics ~payload ~gross ~tag:header ~addr:(addr + header);
    Metrics.add_ops t.metrics (1 + List.length t.free);
    addr + header

  let free t payload_addr =
    match Hashtbl.find_opt t.live payload_addr with
    | None -> raise (Allocator.Invalid_free payload_addr)
    | Some (gross, payload) ->
      Hashtbl.remove t.live payload_addr;
      Metrics.on_free t.metrics ~payload ~addr:payload_addr;
      t.free <-
        List.sort compare ({ addr = payload_addr - header; size = gross } :: t.free)

  let breakdown t : Metrics.breakdown =
    let live_payload = ref 0 and tags = ref 0 and padding = ref 0 in
    Hashtbl.iter
      (fun _ (gross, payload) ->
        live_payload := !live_payload + payload;
        tags := !tags + header;
        padding := !padding + (gross - header - payload))
      t.live;
    let free_bytes = List.fold_left (fun acc b -> acc + b.size) 0 t.free in
    {
      Metrics.live_payload = !live_payload;
      tag_overhead = !tags;
      internal_padding = !padding;
      free_bytes;
      total_held = Address_space.brk t.space;
    }

  let allocator t =
    {
      Allocator.name = "naive-first-fit";
      alloc = (fun size -> alloc t size);
      free = (fun addr -> free t addr);
      phase = Allocator.ignore_phase;
      current_footprint = (fun () -> Address_space.brk t.space);
      max_footprint = (fun () -> Address_space.high_water t.space);
      stats = (fun () -> Metrics.snapshot t.metrics);
      breakdown = (fun () -> breakdown t);
    }
end

let () =
  let trace = Scenario.drr_trace () in
  Format.printf "replaying %d DRR events...@.@." (Dmm_trace.Trace.length trace);

  (* 1. The sanitizer checks the new manager's event stream as the replay
     emits it: overlaps, double frees and footprint lies are all
     diagnostics. It is attached before the manager exists, so it sees
     the stream from its first event, and this one replay is also the
     manager's entry in the race below. *)
  let probe = Probe.create () in
  let st = Sanitizer.start () in
  Probe.attach probe (fun clock event -> Sanitizer.feed st { Stream.clock; event });
  let naive = Naive.allocator (Naive.create (Address_space.create ~probe ())) in
  Replay.run ~probe trace naive;
  (match (Sanitizer.finalize st).Sanitizer.diags with
  | [] -> Format.printf "sanitizer: naive-first-fit honours the allocator contract@."
  | d :: _ -> Format.printf "sanitizer caught: %s@." (Diag.to_string d));

  (* 2. Race it against the library's managers. *)
  Format.printf "@.maximum footprint:@.";
  let report name a =
    Format.printf "  %-18s %9d B   (%a)@." name (Allocator.max_footprint a)
      Metrics.pp_breakdown (Allocator.breakdown a)
  in
  report "naive-first-fit" naive;
  List.iter
    (fun (name, (make : Scenario.maker)) ->
      let a = make () in
      Replay.run trace a;
      report name a)
    [
      ("Lea-Linux", Scenario.lea);
      ("custom (derived)", Scenario.custom_manager (Scenario.drr_paper_design ()));
    ];
  Format.printf
    "@.the breakdowns after the run tell the story: the naive manager still@.\
     holds its whole peak as fragmented free-list residue, Lea keeps one@.\
     64 KiB granule, and the derived manager returned everything.@."
