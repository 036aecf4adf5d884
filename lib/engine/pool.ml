(* Self-metrics. Task totals are deterministic (one per mapped item); the
   sequential/parallel split and domain counts depend on the configured
   job count, and the wait histogram on scheduling — reporting layers
   treat everything under dmm_pool_* as machine-dependent. *)
module Reg = Dmm_obs.Registry

let m_seq_maps =
  Reg.counter ~help:"map calls that took the sequential path" Reg.global
    "dmm_pool_sequential_maps_total"

let m_par_maps =
  Reg.counter ~help:"map calls that fanned out to worker domains" Reg.global
    "dmm_pool_parallel_maps_total"

let m_tasks =
  Reg.counter ~help:"Items mapped (both paths)" Reg.global "dmm_pool_tasks_total"

let m_domains =
  Reg.counter ~help:"Worker domains spawned" Reg.global
    "dmm_pool_domains_spawned_total"

let m_wait_us =
  Reg.histogram ~help:"Delay between map start and task pickup" Reg.global
    "dmm_pool_task_wait_microseconds"

(* Search-engine self-metrics, dmm_search_* prefix: wall-clock facts about the
   machinery driving the design-space search, scraped alongside the
   replayed-events counter [Sim] keeps under the same prefix. All are
   machine-dependent (never part of the determinism contract). *)
let m_queue_depth =
  Reg.gauge ~help:"Tasks outstanding in the current parallel map" Reg.global
    "dmm_search_queue_depth"

let m_busy_us =
  Reg.counter ~help:"Worker-domain time spent executing tasks" Reg.global
    "dmm_search_busy_microseconds_total"

let m_idle_us =
  Reg.counter ~help:"Worker-domain time spent waiting for tasks" Reg.global
    "dmm_search_idle_microseconds_total"

module Span = Dmm_obs.Span
module Clock = Dmm_obs.Clock

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> n
  | Some _ | None ->
    invalid_arg (Printf.sprintf "Pool: DMM_JOBS=%S, expected a positive integer" s)

let override = ref None

let jobs () =
  match !override with
  | Some n -> n
  | None -> (
    match Sys.getenv_opt "DMM_JOBS" with
    | Some s -> parse_jobs s
    | None -> Domain.recommended_domain_count ())

let set_jobs n =
  if n < 1 then invalid_arg "Pool.set_jobs: worker count must be positive";
  override := Some n

let clear_jobs () = override := None

let with_jobs n f =
  let saved = !override in
  set_jobs n;
  Fun.protect ~finally:(fun () -> override := saved) f

(* A worker issuing a nested [map] must not spawn further domains: the
   flag makes nested calls take the sequential path in that worker. *)
let inside_worker = Domain.DLS.new_key (fun () -> false)

(* Explicit loop rather than [Array.map] so the sequential path pins the
   left-to-right evaluation order the determinism contract promises. *)
let sequential_map input f =
  let n = Array.length input in
  if n = 0 then [||]
  else begin
    let out = Array.make n (f input.(0)) in
    for i = 1 to n - 1 do
      out.(i) <- f input.(i)
    done;
    out
  end

let map input f =
  let n = Array.length input in
  let workers = min (jobs ()) n in
  Reg.add m_tasks n;
  if workers <= 1 || Domain.DLS.get inside_worker then begin
    Reg.incr m_seq_maps;
    sequential_map input f
  end
  else begin
    Reg.incr m_par_maps;
    Reg.add m_domains (workers - 1);
    Span.with_span ~args:[ ("tasks", n); ("workers", workers) ] "pool.map" @@ fun () ->
    Reg.set m_queue_depth n;
    let started = Clock.now_ns () in
    (* Each slot is written by exactly one domain (indices are handed out
       through [next]), and the joins publish the writes. *)
    let slots = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      Domain.DLS.set inside_worker true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set inside_worker false)
        (fun () ->
          let w_start = Clock.now_ns () in
          let busy = ref 0 in
          let rec go () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              Reg.observe m_wait_us ((Clock.now_ns () - started) / 1000);
              let t0 = Clock.now_ns () in
              slots.(i) <-
                Some
                  (match f input.(i) with
                  | v -> Ok v
                  | exception e -> Error (e, Printexc.get_raw_backtrace ()));
              busy := !busy + (Clock.now_ns () - t0);
              Reg.set m_queue_depth (max 0 (n - Atomic.get next));
              go ()
            end
          in
          go ();
          let total = Clock.now_ns () - w_start in
          Reg.add m_busy_us (!busy / 1000);
          Reg.add m_idle_us (max 0 (total - !busy) / 1000))
    in
    let run_worker () = Span.with_span "pool.worker" worker in
    let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn run_worker) in
    worker ();
    Array.iter Domain.join spawned;
    Reg.set m_queue_depth 0;
    for i = 0 to n - 1 do
      match slots.(i) with
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) -> ()
      | None -> assert false
    done;
    Array.map (function Some (Ok v) -> v | Some (Error _) | None -> assert false) slots
  end
