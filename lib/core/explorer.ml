open Decision
module Size = Dmm_util.Size

type design = { vector : Decision_vector.t; params : Manager.params }

(* Self-metrics. All four are bumped on the calling (parent) domain only,
   so their values are deterministic for a fixed grid whatever DMM_JOBS
   says. *)
module Reg = Dmm_obs.Registry

let m_generated =
  Reg.counter ~help:"Candidate designs generated (before dedupe)" Reg.global
    "dmm_explorer_candidates_generated_total"

let m_pruned =
  Reg.counter ~help:"Candidates dropped as duplicates or constraint-invalid"
    Reg.global "dmm_explorer_candidates_pruned_total"

let m_scored =
  Reg.counter ~help:"Designs handed to score_all for simulation" Reg.global
    "dmm_explorer_designs_scored_total"

let m_fallbacks =
  Reg.counter ~help:"first_legal walks where no preferred leaf was legal"
    Reg.global "dmm_explorer_first_legal_fallbacks_total"

(* Search-progress events, emitted on the orchestrating domain only (the
   batch API scores on workers but picks winners on the parent). The
   default observer does nothing, so drivers pay one indirect call per
   *batch*, not per simulation; [dmm explore --progress] installs a
   printer, [Scenario.global_design_for] announces its agenda through
   the same channel. *)
type progress =
  | Agenda of { rounds : int }
  | Round of { label : string }
  | Batch_scored of { candidates : int; best_score : int }

let on_progress : (progress -> unit) ref = ref (fun _ -> ())
let progress e = !on_progress e

module Span = Dmm_obs.Span

let pp_params ppf (p : Manager.params) =
  Format.fprintf ppf
    "word=%d align=%d chunk=%d trim=%b/%d classes=[%a] fixed=%d defer=%d max_coalesced=%s"
    p.word_size p.alignment p.chunk_request p.return_to_system p.trim_threshold
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";")
       Format.pp_print_int)
    p.size_classes p.fixed_block_size p.deferred_interval
    (match p.max_coalesced_size with None -> "none" | Some m -> string_of_int m)

let pp_design ppf d =
  Format.fprintf ppf "@[<v>%a@,params: %a@]" Decision_vector.pp d.vector pp_params d.params

(* Canonical key over every field that influences a replay: the fourteen
   decision leaves in tree order plus all ten run-time parameters (note
   [pp_params] omits [min_split_remainder], so it cannot serve here).
   Two designs replay identically iff their keys are equal. *)
let design_key d =
  let p = d.params in
  Printf.sprintf "%s|w%d;a%d;f%d;c[%s];m%s;s%d;k%d;r%b;t%d;d%d"
    (String.concat ";"
       (List.map (fun tree -> leaf_name (Decision_vector.get d.vector tree)) all_trees))
    p.Manager.word_size p.alignment p.fixed_block_size
    (String.concat "," (List.map string_of_int p.size_classes))
    (match p.max_coalesced_size with None -> "-" | Some m -> string_of_int m)
    p.min_split_remainder p.chunk_request p.return_to_system p.trim_threshold
    p.deferred_interval

let dedupe_designs designs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun d ->
      let key = design_key d in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    designs

(* A workload is "varied" when request sizes differ a lot; the paper's
   heuristics hinge on this (Section 4.2 last paragraph). A handful of
   distinct sizes is served better by per-size pools even when they spread
   widely, so both spread and cardinality must be high. *)
let is_varied s = Profile.size_variability s > 0.2 && Profile.distinct_sizes s > 8

let first_legal tree prefs legal =
  if legal = [] then
    invalid_arg
      (Printf.sprintf "Explorer.first_legal: no legal leaves for tree %s"
         (tree_name tree));
  let rec go = function
    | [] ->
      Reg.incr m_fallbacks;
      List.hd legal
    | p :: rest -> if List.exists (equal_leaf p) legal then p else go rest
  in
  go prefs

(* Preference order for each tree, derived from the profile; the ordered
   walk intersects it with the constraint-legal leaves. *)
let preferences s partial tree =
  let varied = is_varied s in
  let coalescing_chosen =
    match Decision_vector.Partial.get partial D2 with
    | Some (L_d2 (Always | Deferred)) -> true
    | Some _ | None -> false
  in
  let flexibility_chosen =
    match Decision_vector.Partial.get partial A5 with
    | Some (L_a5 (Split_only | Coalesce_only | Split_and_coalesce)) -> true
    | Some _ | None -> false
  in
  match tree with
  | A2 ->
    if Profile.distinct_sizes s <= 1 then [ L_a2 One_fixed_size ]
    else if varied then [ L_a2 Many_varying_sizes ]
    else [ L_a2 Many_fixed_sizes; L_a2 Many_varying_sizes ]
  | A5 ->
    if varied then [ L_a5 Split_and_coalesce; L_a5 No_flexibility ]
    else [ L_a5 No_flexibility ]
  | E2 -> if varied then [ L_e2 Always; L_e2 Never ] else [ L_e2 Never ]
  | D2 -> if varied then [ L_d2 Always; L_d2 Never ] else [ L_d2 Never ]
  | E1 -> [ L_e1 Not_fixed; L_e1 Many_fixed; L_e1 One_size ]
  | D1 -> [ L_d1 Not_fixed; L_d1 Many_fixed; L_d1 One_size ]
  | B4 ->
    if varied || Profile.distinct_sizes s <= 1 then
      [ L_b4 One_pool; L_b4 Fixed_pool_count ]
    else [ L_b4 Fixed_pool_count; L_b4 One_pool ]
  | B1 ->
    if varied || Profile.distinct_sizes s <= 1 then
      [ L_b1 Single_pool; L_b1 Pool_per_size ]
    else [ L_b1 Pool_per_size; L_b1 Single_pool ]
  | B2 -> [ L_b2 Pool_array ]
  | B3 -> [ L_b3 Shared_across_phases ]
  | C1 ->
    if varied then [ L_c1 Exact_fit; L_c1 Best_fit; L_c1 First_fit ]
    else [ L_c1 First_fit ]
  | A1 ->
    if coalescing_chosen then [ L_a1 Doubly_linked_list; L_a1 Address_ordered_list ]
    else [ L_a1 Singly_linked_list; L_a1 Doubly_linked_list ]
  | A3 ->
    if flexibility_chosen then [ L_a3 Header; L_a3 Header_and_footer ]
    else [ L_a3 No_tag; L_a3 Header ]
  | A4 ->
    if flexibility_chosen then [ L_a4 Size_and_status; L_a4 Size_only ]
    else [ L_a4 No_info; L_a4 Size_and_status ]

let heuristic_choice s partial tree legal = first_legal tree (preferences s partial tree) legal

let heuristic_vector ?order s = Order.walk ?order ~choose:(heuristic_choice s) ()

(* Gross (tagged, aligned) size of a payload request under the usual
   4-byte-header, 8-byte-alignment layout the heuristics assume. *)
let approx_gross payload = max 16 (Size.align_up (payload + 4) 8)

let heuristic_params s (vec : Decision_vector.t) : Manager.params =
  let max_size =
    if Dmm_util.Stats.count s.Profile.size_stats = 0 then 64
    else int_of_float (Dmm_util.Stats.max_value s.Profile.size_stats)
  in
  let dominant = Profile.dominant_sizes s 16 in
  let classes =
    let grosses = List.map (fun (size, _) -> approx_gross size) dominant in
    let grosses = approx_gross max_size :: grosses in
    List.sort_uniq compare grosses
  in
  let chunk = max 4096 (Size.pow2_ceil (approx_gross max_size)) in
  let max_coalesced =
    match vec.d1 with
    | Not_fixed -> None
    | One_size | Many_fixed -> Some (Size.pow2_ceil (4 * approx_gross max_size))
  in
  {
    Manager.default_params with
    size_classes = classes;
    fixed_block_size = approx_gross max_size;
    chunk_request = chunk;
    trim_threshold = chunk;
    return_to_system = true;
    max_coalesced_size = max_coalesced;
  }

let heuristic_design ?order s =
  match heuristic_vector ?order s with
  | Error _ as e -> (match e with Error m -> Error m | Ok _ -> assert false)
  | Ok vector -> Ok { vector; params = heuristic_params s vector }

let candidates s base =
  Span.with_span "explorer.candidates" @@ fun () ->
  let chunk0 = base.params.chunk_request in
  let param_variants =
    List.concat_map
      (fun chunk ->
        List.map
          (fun trim -> { base with params = { base.params with chunk_request = chunk; trim_threshold = trim } })
          [ chunk; 2 * chunk ])
      (List.sort_uniq compare [ 2048; 4096; chunk0; 2 * chunk0 ])
  in
  let leaf_variants =
    List.filter_map
      (fun leaf ->
        let vector = Decision_vector.set base.vector leaf in
        if Decision_vector.equal vector base.vector then None
        else if Constraints.is_valid vector then Some { base with vector }
        else None)
      [
        L_c1 Best_fit;
        L_c1 First_fit;
        L_a1 Address_ordered_list;
        L_a1 Size_ordered_tree;
        L_d2 Deferred;
      ]
  in
  let phase_variant =
    (* The B3 alternative the heuristics never pick: a pool set per phase
       (with the pool structure that entails — a fixed pool count needs
       per-size pools). Scoring it is what makes the search exhaustive on
       the B3 axis. *)
    let vector =
      {
        base.vector with
        b3 = Pool_set_per_phase;
        b4 = Fixed_pool_count;
        b1 = Pool_per_size;
      }
    in
    if Constraints.is_valid vector then [ { base with vector } ] else []
  in
  let fixed_variant =
    (* For moderately varied workloads it is worth scoring the fixed-class
       alternative the heuristics rejected. *)
    if is_varied s && Profile.distinct_sizes s <= 32 then
      let vector =
        {
          base.vector with
          a2 = Many_fixed_sizes;
          e1 = Many_fixed;
          d1 = Many_fixed;
        }
      in
      if Constraints.is_valid vector then
        [ { vector; params = heuristic_params s vector } ]
      else []
    else []
  in
  (* The chunk grid can collide with [base] (chunk0 = 2048 or 4096) and
     with itself; keep the first occurrence so [base] stays the head. *)
  let raw = base :: (param_variants @ leaf_variants @ phase_variant @ fixed_variant) in
  let kept = dedupe_designs raw in
  Reg.add m_generated (List.length raw);
  Reg.add m_pruned (List.length raw - List.length kept);
  kept

let tradeoff_score ~alpha ~footprint ~ops =
  if alpha < 0.0 then invalid_arg "Explorer.tradeoff_score: negative alpha";
  footprint + int_of_float (alpha *. float_of_int ops)

(* The single scoring pass shared by every driver. [score_all] may fan the
   batch out to worker domains; ties keep the lowest index, so the winner
   does not depend on the worker count. It may also answer a lower bound
   >= [scores.(0)] for a candidate that cannot beat candidate 0: such a
   candidate loses here exactly as its true score would. *)
let refine_batch ~score_all = function
  | [] -> invalid_arg "Explorer.refine: no candidates"
  | candidates ->
    let cands = Array.of_list candidates in
    Span.with_span ~args:[ ("candidates", Array.length cands) ] "explorer.refine-batch"
    @@ fun () ->
    Reg.add m_scored (Array.length cands);
    let scores = score_all cands in
    if Array.length scores <> Array.length cands then
      invalid_arg "Explorer.refine_batch: score_all changed the candidate count";
    let best = ref 0 in
    for i = 1 to Array.length cands - 1 do
      if scores.(i) < scores.(!best) then best := i
    done;
    progress (Batch_scored { candidates = Array.length cands; best_score = scores.(!best) });
    (cands.(!best), scores.(!best))

let random_design rng s =
  let choose _ _ legal =
    List.nth legal (Dmm_util.Prng.int rng (List.length legal))
  in
  match Order.walk ~choose () with
  | Ok vector -> { vector; params = heuristic_params s vector }
  | Error msg ->
    (* The paper order with constraint propagation cannot dead-end. *)
    invalid_arg ("Explorer.random_design: " ^ msg)

let random_search_batch ~rng ~samples ~profile ~score_all =
  if samples <= 0 then invalid_arg "Explorer.random_search: samples must be positive";
  refine_batch ~score_all (List.init samples (fun _ -> random_design rng profile))

let explore_batch ?order ~profile ~score_all () =
  Span.with_span "explorer.explore" @@ fun () ->
  match heuristic_design ?order profile with
  | Error m -> Error m
  | Ok base -> Ok (refine_batch ~score_all (candidates profile base))
