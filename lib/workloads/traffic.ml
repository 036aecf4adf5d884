module Prng = Dmm_util.Prng
module Chunks = Dmm_util.Chunks

type packet = { arrival : float; flow : int; size : int }

type profile = Bulk | Interactive | Mixed | Dominant of int

type config = {
  flows : int;
  duration : float;
  flow_rate_mbps : float;
  on_shape : float;
  mean_on : float;
  mean_off : float;
  seed : int;
}

let default_config =
  {
    flows = 6;
    duration = 1.5;
    flow_rate_mbps = 12.0;
    on_shape = 1.5;
    mean_on = 0.05;
    mean_off = 0.8;
    seed = 42;
  }

let paper_config =
  {
    flows = 10;
    duration = 60.0;
    flow_rate_mbps = 40.0;
    on_shape = 1.5;
    mean_on = 0.1;
    mean_off = 6.0;
    seed = 42;
  }

(* Ten application types with characteristic packet sizes, two per
   power-of-two class between 128 and 2048; most sit a little above half a
   class, as real protocol payloads tend to. *)
let dominant_sizes = [| 75; 95; 150; 190; 300; 380; 600; 760; 1200; 1500 |]

let profile_of_flow flow = Dominant dominant_sizes.(flow mod Array.length dominant_sizes)

(* The size mixes, hoisted so that a draw builds no array. *)
let bulk_mix =
  [| (0.70, `Fixed 1500); (0.10, `Fixed 576); (0.05, `Fixed 40); (0.15, `Uniform) |]

let interactive_mix =
  [| (0.55, `Fixed 40); (0.25, `Fixed 576); (0.05, `Fixed 1500); (0.15, `Uniform) |]

let mixed_mix =
  [| (0.30, `Fixed 40); (0.25, `Fixed 576); (0.25, `Fixed 1500); (0.20, `Uniform) |]

let rec packet_size rng = function
  | Bulk -> (
    match Prng.choose_weighted rng bulk_mix with
    | `Fixed n -> n
    | `Uniform -> Prng.int_in rng 600 1500)
  | Interactive -> (
    match Prng.choose_weighted rng interactive_mix with
    | `Fixed n -> n
    | `Uniform -> Prng.int_in rng 40 600)
  | Mixed -> (
    match Prng.choose_weighted rng mixed_mix with
    | `Fixed n -> n
    | `Uniform -> Prng.int_in rng 40 1500)
  | Dominant d ->
    if Prng.bernoulli rng 0.85 then
      Prng.int_in rng (max 40 (d * 9 / 10)) (min 1500 (d * 11 / 10))
    else packet_size rng Mixed

(* Pareto with the requested mean (mean = shape * xmin / (shape - 1)),
   truncated at 5x the mean: heavy-tailed enough for burstiness without
   letting a single burst dwarf the rest of the run. *)
let pareto_with_mean rng ~shape ~mean =
  let xmin = mean *. (shape -. 1.0) /. shape in
  Float.min (5.0 *. mean) (Prng.pareto rng ~alpha:shape ~xmin)

type t = { arrivals : float array; flow_ids : int array; sizes : int array }

(* Packets as the flows emit them, flow after flow, in chunks: one chunk
   is the three fields' arrays, [Chunks.size] long. *)
type chunk = { c_arrivals : float array; c_flows : int array; c_sizes : int array }

(* Inlined, so the arrival time reaches the float array unboxed. *)
let[@inline] push b arrival flow size =
  let i = Chunks.slot b in
  let c = Chunks.current b in
  Array.unsafe_set c.c_arrivals i arrival;
  Array.unsafe_set c.c_flows i flow;
  Array.unsafe_set c.c_sizes i size

(* Stable merge of the index runs [src.(lo .. mid - 1)] and
   [src.(mid .. hi - 1)], each in arrival order, into [dst.(lo .. hi - 1)]:
   on equal arrivals the left run goes first. *)
let merge (arrivals : float array) (src : int array) (dst : int array) lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !j >= hi || (!i < mid && arrivals.(src.(!i)) <= arrivals.(src.(!j))) then begin
      dst.(k) <- src.(!i);
      incr i
    end
    else begin
      dst.(k) <- src.(!j);
      incr j
    end
  done

(* Merge the runs [bounds.(r) .. bounds.(r + 1) - 1] of [src] pairwise,
   through [dst] and back, until one run is left; return the array that
   holds it. *)
let rec merge_runs arrivals src dst bounds =
  let runs = Array.length bounds - 1 in
  if runs <= 1 then src
  else begin
    for r = 0 to (runs / 2) - 1 do
      merge arrivals src dst bounds.(2 * r) bounds.((2 * r) + 1) bounds.((2 * r) + 2)
    done;
    if runs land 1 = 1 then begin
      let last = bounds.(runs - 1) in
      Array.blit src last dst last (bounds.(runs) - last)
    end;
    let merged = Array.init (((runs + 1) / 2) + 1) (fun k -> bounds.(min (2 * k) runs)) in
    merge_runs arrivals dst src merged
  end

(* One flow's on/off process, its packets in arrival order. The draws
   come in a fixed order: per burst its length, then each packet's size
   and gap, then the off gap. *)
let generate_flow rng (config : config) flow b =
  let profile = profile_of_flow flow in
  let pkts_per_sec =
    (* During a burst, packets arrive at the flow rate over the mean size. *)
    let mean_size =
      match profile with
      | Bulk -> 1200.0
      | Interactive -> 250.0
      | Mixed -> 700.0
      | Dominant d -> float_of_int d
    in
    config.flow_rate_mbps *. 1e6 /. 8.0 /. mean_size
  in
  (* Stagger flow start so bursts of different profiles do not line up. *)
  let time = ref (float_of_int flow *. config.mean_off /. float_of_int (max 1 config.flows)) in
  while !time < config.duration do
    let burst_len = pareto_with_mean rng ~shape:config.on_shape ~mean:config.mean_on in
    let burst_end = Float.min config.duration (!time +. burst_len) in
    let t = ref !time in
    while !t < burst_end do
      let size = packet_size rng profile in
      let gap = Prng.exponential rng pkts_per_sec in
      push b !t flow size;
      t := !t +. gap
    done;
    let gap = pareto_with_mean rng ~shape:config.on_shape ~mean:config.mean_off in
    time := burst_end +. gap
  done

let generate config =
  if config.flows <= 0 || config.duration <= 0.0 then
    invalid_arg "Traffic.generate: bad config";
  let rng = Prng.create config.seed in
  let b =
    Chunks.create (fun n ->
        { c_arrivals = Array.make n 0.0; c_flows = Array.make n 0; c_sizes = Array.make n 0 })
  in
  let starts = Array.make (config.flows + 1) 0 in
  for flow = 0 to config.flows - 1 do
    generate_flow (Prng.split rng) config flow b;
    starts.(flow + 1) <- Chunks.length b
  done;
  (* Each field copied once, into an array of exactly the packets. *)
  let field column = Chunks.gather b ~sub:Array.sub ~concat:Array.concat column in
  let arrivals = field (fun c -> c.c_arrivals) in
  let flows = field (fun c -> c.c_flows) and sizes = field (fun c -> c.c_sizes) in
  let n = Array.length arrivals in
  (* Order by arrival as the packets have always been ordered: a stable
     sort of the flows' packet lists concatenated, each list newest
     first. Sorted stably, flow [f]'s list is its packets in arrival
     order with each group of equal arrivals newest first; so the index
     array starts as those runs, flow after flow, and merging adjacent
     runs, the left run first on ties, is that stable sort. *)
  let order = Array.make n 0 in
  for flow = 0 to config.flows - 1 do
    let stop = starts.(flow + 1) in
    let k = ref starts.(flow) in
    while !k < stop do
      let g = ref (!k + 1) in
      while !g < stop && arrivals.(!g) = arrivals.(!k) do
        incr g
      done;
      for x = !k to !g - 1 do
        order.(x) <- !k + !g - 1 - x
      done;
      k := !g
    done
  done;
  let order = merge_runs arrivals order (Array.make n 0) starts in
  let t = { arrivals = Array.make n 0.0; flow_ids = Array.make n 0; sizes = Array.make n 0 } in
  for k = 0 to n - 1 do
    let i = order.(k) in
    t.arrivals.(k) <- arrivals.(i);
    t.flow_ids.(k) <- flows.(i);
    t.sizes.(k) <- sizes.(i)
  done;
  t

let length t = Array.length t.sizes

let to_list t =
  List.init (length t) (fun i ->
      { arrival = t.arrivals.(i); flow = t.flow_ids.(i); size = t.sizes.(i) })

let total_bytes t = Array.fold_left ( + ) 0 t.sizes

let pp_packet ppf p = Format.fprintf ppf "%.6fs flow=%d %dB" p.arrival p.flow p.size
