module Explorer = Dmm_core.Explorer
module Manager = Dmm_core.Manager
module Allocator = Dmm_core.Allocator
module Address_space = Dmm_vmem.Address_space
module Trace = Dmm_trace.Trace
module Replay = Dmm_trace.Replay
module Probe = Dmm_obs.Probe
module Reg = Dmm_obs.Registry

(* Counters are bumped on the parent domain only, in lock-step with the
   mutable per-[t] fields, so they stay deterministic under DMM_JOBS. The
   wall-clock histogram is observed inside [replay] on whichever domain
   runs it (its count is deterministic; its values are not). *)
let m_replays =
  Reg.counter ~help:"Trace replays executed, stopped ones included" Reg.global
    "dmm_sim_replays_total"

let m_stopped =
  Reg.counter ~help:"Replays stopped early by an incumbent bound" Reg.global
    "dmm_sim_replays_stopped_total"

let m_replay_us =
  Reg.histogram ~help:"Wall-clock per design replay" Reg.global
    "dmm_sim_replay_microseconds"

(* Under the search-engine dmm_search_* prefix beside [Pool]'s queue depth
   and worker busy/idle time; parent domain only, deterministic under
   DMM_JOBS. *)
let m_search_events =
  Reg.counter ~help:"Trace events replayed by search simulations" Reg.global
    "dmm_search_replayed_events_total"

module Span = Dmm_obs.Span
module Clock = Dmm_obs.Clock

type outcome = { footprint : int; ops : int }

(* How one replay ended. A replay its bound stopped ran fewer [events]
   than the trace holds, and its [outcome] is the running high water and
   op count at the stop — a lower bound on the whole replay's. *)
type run = { outcome : outcome; events : int }

type t = {
  trace : Trace.t;
  peak_live : int; (* [Manager.create]'s [expected_live] *)
  mutable replays : int;
  mutable stopped : int;
}

let create trace =
  { trace; peak_live = Trace.peak_live_count trace; replays = 0; stopped = 0 }

let replays t = t.replays
let stopped t = t.stopped
let complete t r = r.events = Trace.length t.trace

(* The only place replay accounting happens, on the parent domain. *)
let record_replays t runs =
  let events = Array.fold_left (fun acc r -> acc + r.events) 0 runs in
  let stopped = Array.fold_left (fun acc r -> if complete t r then acc else acc + 1) 0 runs in
  let n = Array.length runs in
  t.replays <- t.replays + n;
  t.stopped <- t.stopped + stopped;
  Reg.add m_replays n;
  Reg.add m_stopped stopped;
  Reg.add m_search_events events

let score_of ~alpha o = Explorer.tradeoff_score ~alpha ~footprint:o.footprint ~ops:o.ops

(* The bound test runs after every [check_every]-th event, off the
   per-event path: a replay plays at most [check_every - 1] events past the
   point its score reached the bound. *)
let check_every = 64

exception Reached of int

(* Pure worker function: safe on any domain. With [bound], the replay
   stops at the first check where its running score is >= [bound]. Both
   terms of the score only grow as the trace plays (the footprint is a
   high-water mark, ops a counter), so such a candidate's whole-trace
   score is >= [bound] too. *)
let replay ?probe ?(alpha = 0.0) ?bound t a =
  Span.with_span ~args:[ ("events", Trace.length t.trace) ] "sim.replay" @@ fun () ->
  let start = Clock.now_ns () in
  let n = Trace.length t.trace in
  let events =
    match bound with
    | None ->
      Replay.run ?probe t.trace a;
      n
    | Some bound -> (
      let on_event i a =
        if i land (check_every - 1) = check_every - 1 then begin
          let ops = if alpha = 0.0 then 0 else (Allocator.stats a).Dmm_core.Metrics.ops in
          if Explorer.tradeoff_score ~alpha ~footprint:(Allocator.max_footprint a) ~ops >= bound
          then raise_notrace (Reached (i + 1))
        end
      in
      match Replay.run ?probe ~on_event t.trace a with
      | () -> n
      | exception Reached k -> k)
  in
  let outcome =
    { footprint = Allocator.max_footprint a; ops = (Allocator.stats a).Dmm_core.Metrics.ops }
  in
  Reg.observe m_replay_us ((Clock.now_ns () - start) / 1000);
  { outcome; events }

let allocator ?probe t (d : Explorer.design) =
  Manager.allocator
    (Manager.create ~expected_live:t.peak_live ~params:d.Explorer.params d.Explorer.vector
       (Address_space.create ?probe ()))

let outcomes t designs =
  Span.with_span ~args:[ ("designs", Array.length designs) ] "sim.score-batch" @@ fun () ->
  let runs = Pool.map designs (fun d -> replay t (allocator t d)) in
  record_replays t runs;
  Array.map (fun r -> r.outcome) runs

let sanitize t (d : Explorer.design) =
  let probe = Probe.create () in
  let st = Dmm_check.Sanitizer.start ~design:d () in
  Probe.attach probe (fun clock event ->
      Dmm_check.Sanitizer.feed st { Dmm_check.Stream.clock; event });
  record_replays t [| replay ~probe t (allocator ~probe t d) |];
  Dmm_check.Sanitizer.finalize st

(* Branch and bound on the incumbent, candidate 0: it is scored exactly
   first (unless the caller knows its score), and its score bounds every
   other replay of the batch. A stopped candidate answers with its running
   score, which is >= the bound, so it loses to candidate 0 exactly as its
   whole-trace score would (ties keep the lowest index). The bound is known
   before the fan-out, so which replays stop, and where, does not depend on
   the worker count. *)
let score_allocators ?(alpha = 0.0) ?incumbent t makes =
  let n = Array.length makes in
  if n = 0 then [||]
  else
    let first, bound =
      match incumbent with
      | Some s -> ([||], s)
      | None ->
        let r = replay t (makes.(0) ()) in
        ([| r |], score_of ~alpha r.outcome)
    in
    let rest = Array.sub makes 1 (n - 1) in
    let runs = Pool.map rest (fun make -> replay ~alpha ~bound t (make ())) in
    record_replays t (Array.append first runs);
    Array.append [| bound |] (Array.map (fun r -> score_of ~alpha r.outcome) runs)

let score_all ?alpha t designs =
  Span.with_span ~args:[ ("designs", Array.length designs) ] "sim.score-batch" @@ fun () ->
  score_allocators ?alpha t (Array.map (fun d () -> allocator t d) designs)
