module Event = Dmm_obs.Event
module DV = Dmm_core.Decision_vector
module Manager = Dmm_core.Manager
module Constraints = Dmm_core.Constraints
module Explorer = Dmm_core.Explorer
module Size = Dmm_util.Size
module Int_treap = Dmm_util.Int_treap
open Dmm_core.Decision
module Int_map = Map.Make (Int)

type report = { events : int; diags : Diag.t list; conformance_checked : bool }

let clean r = r.diags = []

(* Each pass is an incremental stepper: feed entries one at a time, then
   collect the diagnostics. A live replay's probe, a file, a socket and a
   string all reach the passes through {!feed}. *)
type pass = { pass_feed : int -> Event.t -> unit; pass_done : unit -> Diag.t list }

(* --- overflow-free arithmetic ------------------------------------------------
   A stream may carry any int in any field, so a sum of two fields can wrap
   past [max_int] or [min_int] and turn a failing check into a passing one.
   [a + b] wraps exactly when both operands share a sign the sum lacks. *)

let wraps a b =
  let s = a + b in
  (a lxor s) land (b lxor s) < 0

(* [a + b > c] over the integers: a sum that wraps upwards exceeds every
   int, one that wraps downwards none. *)
let sum_exceeds a b c = if wraps a b then a > 0 else a + b > c

(* [a + b <> c] over the integers: a wrapped sum equals no int. *)
let sum_differs a b c = wraps a b || a + b <> c

(* [[a, a + n)] in a message; an end past the int range prints as the
   length instead. *)
let range a n =
  if wraps a n then Printf.sprintf "[%d,+%d)" a n else Printf.sprintf "[%d,%d)" a (a + n)

(* The live payload and the bytes held from the system, as exact sums of
   stream fields: each is [hi * 10^18 + lo] with [0 <= lo < 10^18], so no
   size can wrap it and a message prints it in decimal. Both live in one
   record that the pass's closures capture once, which keeps the set-up
   words [test/costs] pins for the serve path. *)
type ledger = {
  mutable live_hi : int;
  mutable live_lo : int;
  mutable held_hi : int;
  mutable held_lo : int;
}

let e18 = 1_000_000_000_000_000_000

(* The carry out of [lo + r] and the new low part, for [|r| < 10^18]. *)
let carry lo r =
  let s = lo + r in
  if s >= e18 then 1 else if s < 0 then -1 else 0

let low lo r =
  let s = lo + r in
  if s >= e18 then s - e18 else if s < 0 then s + e18 else s

(* Add [q * 10^18 + r]: [x] is [x / e18] and [x mod e18], [-x] their
   negations, neither of which can wrap. *)
let add_live l q r =
  l.live_hi <- l.live_hi + q + carry l.live_lo r;
  l.live_lo <- low l.live_lo r

let add_held l q r =
  l.held_hi <- l.held_hi + q + carry l.held_lo r;
  l.held_lo <- low l.held_lo r

let decimal hi lo =
  if hi = 0 then string_of_int lo
  else if hi > 0 || lo = 0 then Printf.sprintf "%d%018d" hi lo
  else
    (* [hi * 10^18 + lo = -((-hi - 1) * 10^18 + (10^18 - lo))]. *)
    let h = -hi - 1 and l = e18 - lo in
    if h = 0 then Printf.sprintf "-%d" l else Printf.sprintf "-%d%018d" h l

(* --- pass 1: heap invariants -----------------------------------------------
   Design-independent laws every allocator must obey, replayed over the
   stream with a live-range map: allocations never overlap live blocks,
   frees hit live addresses exactly once, split/coalesce conserve bytes,
   and the footprint ledger (sbrk/trim deltas) always covers live payload.
   The live map is an [Int_treap]: one descent binds an allocation's
   address and finds its neighbours, and a clean event allocates
   nothing. *)

let invariants_pass () =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let live = Int_treap.create () (* payload addr -> payload bytes *) in
  let sums = { live_hi = 0; live_lo = 0; held_hi = 0; held_lo = 0 } in
  let brk = ref 0 and brk_known = ref false in
  let feed i event =
      match event with
      | Event.Alloc { payload; gross; tag; addr } ->
        if payload <= 0 then
          add (Diag.vf ~index:i "alloc-nonpositive" "allocation of %d payload bytes" payload);
        if gross < payload then
          add
            (Diag.vf ~index:i "gross-below-payload"
               "gross block size %d cannot hold the %d-byte payload" gross payload);
        if tag < 0 || sum_exceeds tag payload gross then
          add
            (Diag.vf ~index:i "tag-overflow"
               "%d tag bytes plus the %d-byte payload do not fit the %d-byte gross \
                block"
               tag payload gross);
        if addr < 0 then
          add (Diag.vf ~index:i "negative-address" "payload address %d is negative" addr);
        (* A re-allocation over a live address overwrites its entry. *)
        if Int_treap.replace live addr payload >= 0 then
          add
            (Diag.vf ~index:i "live-overlap"
               "address %d returned while still live (its free was never recorded)" addr)
        else begin
          let n = Int_treap.pred live in
          if n >= 0 then begin
            let a = Int_treap.key live n and p = Int_treap.value live n in
            if sum_exceeds a p addr then
              add
                (Diag.vf ~index:i "live-overlap" "new block %s overlaps live block %s"
                   (range addr (max 1 payload)) (range a p))
          end;
          let n = Int_treap.succ live in
          if n >= 0 then begin
            let a = Int_treap.key live n and p = Int_treap.value live n in
            if sum_exceeds addr payload a then
              add
                (Diag.vf ~index:i "live-overlap" "new block %s overlaps live block %s"
                   (range addr payload) (range a p))
          end
        end;
        add_live sums (payload / e18) (payload mod e18);
        if sums.live_hi > sums.held_hi
           || (sums.live_hi = sums.held_hi && sums.live_lo > sums.held_lo)
        then
          add
            (Diag.vf ~index:i "footprint-below-live"
               "live payload (%s bytes) exceeds memory obtained from the system (%s \
                bytes)"
               (decimal sums.live_hi sums.live_lo) (decimal sums.held_hi sums.held_lo))
      | Event.Free { payload; addr } ->
        let n = Int_treap.remove live addr in
        if n < 0 then
          add
            (Diag.vf ~index:i "invalid-free"
               "free of address %d, which is not live (double free or wild pointer)"
               addr)
        else begin
          let p = Int_treap.value live n in
          if p <> payload then
            add
              (Diag.vf ~index:i "free-payload-mismatch"
                 "free of address %d records %d payload bytes but the allocation \
                  recorded %d"
                 addr payload p);
          add_live sums (-(p / e18)) (-(p mod e18))
        end
      | Event.Split { addr; parent; taken; remainder } ->
        if taken <= 0 || remainder <= 0 || sum_differs taken remainder parent then
          add
            (Diag.vf ~index:i "split-algebra"
               "split at %d does not conserve bytes: taken %d + remainder %d <> parent \
                %d"
               addr taken remainder parent)
      | Event.Coalesce { addr; merged; absorbed } ->
        if absorbed <= 0 || absorbed >= merged then
          add
            (Diag.vf ~index:i "coalesce-algebra"
               "coalesce at %d does not conserve bytes: absorbed %d must lie strictly \
                inside the merged size %d"
               addr absorbed merged)
      | Event.Sbrk { bytes; brk = b } ->
        if bytes <= 0 then
          add (Diag.vf ~index:i "footprint-accounting" "sbrk of %d bytes" bytes);
        if !brk_known then begin
          if sum_differs !brk bytes b then
            add
              (Diag.vf ~index:i "footprint-accounting"
                 "sbrk of %d bytes moved the break from %d to %d" bytes !brk b)
        end
        else if b < bytes then
          add
            (Diag.vf ~index:i "footprint-accounting"
               "sbrk of %d bytes left the break at %d" bytes b);
        brk := b;
        brk_known := true;
        add_held sums (bytes / e18) (bytes mod e18)
      | Event.Trim { bytes; brk = b } ->
        if bytes <= 0 then
          add (Diag.vf ~index:i "footprint-accounting" "trim of %d bytes" bytes);
        (* [brk - bytes <> b], as a sum that cannot wrap. *)
        if !brk_known && sum_differs b bytes !brk then
          add
            (Diag.vf ~index:i "footprint-accounting"
               "trim of %d bytes moved the break from %d to %d" bytes !brk b);
        brk := b;
        brk_known := true;
        add_held sums (-(bytes / e18)) (-(bytes mod e18));
        if sums.held_hi < 0 then
          add
            (Diag.vf ~index:i "footprint-accounting"
               "more bytes trimmed than ever obtained from the system")
      | Event.Phase _ -> ()
      | Event.Fit_scan { steps } ->
        if steps <= 0 then
          add
            (Diag.vf ~index:i "fit-scan-steps"
               "fit scan of %d steps (zero-step scans are suppressed at the emitter)"
               steps)
  in
  { pass_feed = feed; pass_done = (fun () -> List.rev !diags) }

(* --- pass 2: design conformance --------------------------------------------
   Given the decision vector and run-time parameters the stream claims to
   come from, check that the recorded behaviour is one that design could
   produce: disabled mechanisms stay silent (A5/D2/E2 gates), sizes respect
   the A2 regime and E1/D1 bounds, payload addresses respect the layout,
   and — via a shadow free map replayed from the events — the C1 fit
   policy actually returned the block it promises (best/exact fit must be
   minimal-adequate; no design may grow the heap past an adequate free
   block). The shadow map is only sound in the varying-size regime: fixed
   regimes carve slabs into free blocks without emitting events, so there
   the stream under-determines the free set and only the stateless checks
   apply. *)

let a5_name = function
  | No_flexibility -> "no flexibility"
  | Split_only -> "split only"
  | Coalesce_only -> "coalesce only"
  | Split_and_coalesce -> "split and coalesce"

let conformance_pass (design : Explorer.design) =
  let vec = design.Explorer.vector and params = design.Explorer.params in
  match Constraints.check vec with
  | _ :: _ as vs ->
    (* A stream cannot conform to an invalid design: report the
       constraint violations and ignore the events. *)
    {
      pass_feed = (fun _ _ -> ());
      pass_done = (fun () -> List.map Diag.of_constraint vs);
    }
  | [] ->
    let diags = ref [] in
    let add d = diags := d :: !diags in
    let lay = Manager.layout params vec in
    let header = lay.Manager.l_header_bytes in
    let tag = lay.Manager.l_tag_bytes in
    let min_block = lay.Manager.l_min_block in
    let alignment = params.Manager.alignment in
    let classes =
      match vec.DV.a2 with
      | One_fixed_size -> [| params.Manager.fixed_block_size |]
      | Many_fixed_sizes ->
        Array.of_list (List.sort_uniq compare params.Manager.size_classes)
      | Many_varying_sizes -> [||]
    in
    let gross_of payload =
      (* Total even on garbage streams: the invariants pass already reports
         non-positive payloads, so clamp instead of raising, and a need
         past the int range saturates at [max_int]. *)
      let payload = max 1 payload in
      let base =
        if payload > max_int - tag - (alignment - 1) then max_int
        else max min_block (Size.align_up (payload + tag) alignment)
      in
      if Array.length classes = 0 then base
      else begin
        let n = Array.length classes in
        let rec go i =
          if i >= n then base else if classes.(i) >= base then classes.(i) else go (i + 1)
        in
        go 0
      end
    in
    let can_split = DV.can_split vec and can_coalesce = DV.can_coalesce vec in
    let rigid_fixed = Array.length classes > 0 && (not can_split) && not can_coalesce in
    let max_class = if Array.length classes = 0 then 0 else classes.(Array.length classes - 1) in
    let shadow = vec.DV.a2 = Many_varying_sizes in
    (* Fit behaviour is only predictable when the search covers every
       adequate block: a single pool trivially, and range pools because any
       adequate block lives in a bucket the search visits. Per-size pools
       legitimately miss adequate blocks filed under other sizes. *)
    let fit_checked =
      shadow
      && match vec.DV.b1 with Single_pool | Pool_per_size_range -> true | Pool_per_size -> false
    in
    let minimality =
      fit_checked && match vec.DV.c1 with Best_fit | Exact_fit -> true | _ -> false
    in
    let free = ref Int_map.empty (* block base -> gross size *) in
    let live_gross : (int, int) Hashtbl.t = Hashtbl.create 256 in
    (* Fit-path split: (base, parent size, free map at fit time). *)
    let pending_fit = ref None in
    (* Free map snapshot when the heap last grew: the fit that failed ran
       against this set, not against remainders registered afterwards. *)
    let at_last_sbrk = ref None in
    let feed i event =
      match event with
        | Event.Split { addr; parent; taken; remainder } ->
          (if not can_split then
             match vec.DV.a5 with
             | No_flexibility | Coalesce_only ->
               add
                 (Diag.vf ~index:i "split-gated-by-A5"
                    "split event recorded but A5 (%s) never arms the splitting \
                     mechanism"
                    (a5_name vec.DV.a5))
             | Split_only | Split_and_coalesce ->
               add
                 (Diag.vf ~index:i "e2-never-split"
                    "split event recorded but E2 says never split"));
          if taken < min_block || remainder < min_block then
            add
              (Diag.vf ~index:i "min-block"
                 "split produces a block below the %d-byte minimum (taken %d, \
                  remainder %d)"
                 min_block taken remainder);
          (match vec.DV.e1 with
          | One_size ->
            let unit = max min_block params.Manager.min_split_remainder in
            if remainder mod unit <> 0 then
              add
                (Diag.vf ~index:i "e1-split-size"
                   "E1 fixes one split size: remainder %d is not a multiple of the \
                    %d-byte unit"
                   remainder unit)
          | Many_fixed ->
            if Array.length classes > 0 && not (Array.exists (fun c -> c = remainder) classes)
            then
              add
                (Diag.vf ~index:i "e1-split-size"
                   "E1 allows only declared sizes: remainder %d is not a size class"
                   remainder)
          | Not_fixed -> ());
          if shadow then begin
            match Int_map.find_opt addr !free with
            | Some sz ->
              if sz <> parent then
                add
                  (Diag.vf ~index:i "illegal-split"
                     "split claims parent size %d but the free block at %d has %d \
                      bytes"
                     parent addr sz);
              pending_fit := Some (addr, parent, !free);
              free := Int_map.add (addr + taken) remainder (Int_map.remove addr !free)
            | None ->
              (* Fresh system memory being trimmed to size (greedy grab). *)
              free := Int_map.add (addr + taken) remainder !free
          end
        | Event.Coalesce { addr; merged; absorbed } ->
          (if not can_coalesce then
             match vec.DV.a5 with
             | No_flexibility | Split_only ->
               add
                 (Diag.vf ~index:i "coalesce-gated-by-A5"
                    "coalesce event recorded but A5 (%s) never arms the coalescing \
                     mechanism"
                    (a5_name vec.DV.a5))
             | Coalesce_only | Split_and_coalesce ->
               add
                 (Diag.vf ~index:i "d2-never-coalesce"
                    "coalesce event recorded but D2 says never coalesce"));
          (match params.Manager.max_coalesced_size with
          | Some m when merged > m ->
            add
              (Diag.vf ~index:i "d1-max-coalesced-size"
                 "coalesced block of %d bytes exceeds the D1 bound of %d" merged m)
          | _ -> ());
          if shadow then begin
            let survivor = merged - absorbed in
            let other = addr + survivor in
            let ok =
              (match Int_map.find_opt addr !free with
              | Some sz -> sz = survivor
              | None -> false)
              && match Int_map.find_opt other !free with
                 | Some sz -> sz = absorbed
                 | None -> false
            in
            if not ok then
              add
                (Diag.vf ~index:i "illegal-coalesce"
                   "coalesce at %d merges [%d,+%d) and [%d,+%d), which are not both \
                    adjacent free blocks"
                   addr addr survivor other absorbed);
            free := Int_map.add addr merged (Int_map.remove other !free)
          end
        | Event.Alloc { payload; gross; tag = etag; addr } ->
          let base = addr - header in
          if alignment > 0 && base mod alignment <> 0 then
            add
              (Diag.vf ~index:i "alignment"
                 "block base %d (payload address %d minus the %d-byte header) is not \
                  %d-byte aligned"
                 base addr header alignment);
          (* tag = 0 also parses out of pre-tag recordings, so only a
             positive claim can contradict the layout. *)
          if etag <> 0 && etag <> tag then
            add
              (Diag.vf ~index:i "a3-tag-bytes"
                 "allocation carries %d tag bytes but the A3/A4 layout dictates %d"
                 etag tag);
          if gross < min_block then
            add
              (Diag.vf ~index:i "min-block"
                 "allocated block of %d gross bytes is below the %d-byte minimum" gross
                 min_block);
          if rigid_fixed && gross <= max_class
             && not (Array.exists (fun c -> c = gross) classes)
          then
            add
              (Diag.vf ~index:i "a2-size-class-membership"
                 "gross size %d is not a declared size class, yet A2 fixes the size \
                  set and A5 never changes it"
                 gross);
          if shadow then begin
            let need = gross_of payload in
            let chosen =
              match !pending_fit with
              | Some (b, parent, fit_set) when b = base -> Some (parent, fit_set)
              | _ -> (
                match Int_map.find_opt base !free with
                | Some sz -> Some (sz, !free)
                | None -> None)
            in
            pending_fit := None;
            (match chosen with
            | Some (sz, fit_set) ->
              free := Int_map.remove base !free;
              if sz < need then
                add
                  (Diag.vf ~index:i "c1-fit-policy"
                     "chosen free block of %d bytes cannot serve a request needing %d \
                      gross bytes"
                     sz need);
              if minimality then begin
                let minimal =
                  Int_map.fold
                    (fun _ s acc ->
                      if s >= need then
                        match acc with Some m when m <= s -> acc | _ -> Some s
                      else acc)
                    fit_set None
                in
                match minimal with
                | Some m when sz > m ->
                  add
                    (Diag.vf ~index:i "c1-fit-policy"
                       "C1 promises best/exact fit but the %d-byte block was chosen \
                        while a %d-byte block was adequate for the %d-byte need"
                       sz m need)
                | _ -> ()
              end
            | None ->
              (* Served from fresh system memory: the fit that failed ran
                 against the free set as of the sbrk. *)
              if fit_checked then begin
                let fit_set =
                  match !at_last_sbrk with Some s -> s | None -> !free
                in
                if Int_map.exists (fun _ s -> s >= need) fit_set then
                  add
                    (Diag.vf ~index:i "c1-fit-policy"
                       "heap grown for a request needing %d gross bytes although an \
                        adequate free block existed"
                       need)
              end);
            at_last_sbrk := None;
            Hashtbl.replace live_gross addr gross
          end
        | Event.Free { payload = _; addr } ->
          if shadow then (
            match Hashtbl.find_opt live_gross addr with
            | Some g ->
              Hashtbl.remove live_gross addr;
              free := Int_map.add (addr - header) g !free
            | None -> () (* the invariants pass already reports invalid frees *))
        | Event.Trim { bytes; brk } ->
          if shadow then (
            match Int_map.find_opt brk !free with
            | Some sz when sz = bytes -> free := Int_map.remove brk !free
            | Some sz ->
              add
                (Diag.vf ~index:i "illegal-trim"
                   "trim released %d bytes at %d but the free block there has %d" bytes
                   brk sz);
              free := Int_map.remove brk !free
            | None ->
              add
                (Diag.vf ~index:i "illegal-trim" "trim released %s, which is not a free block"
                   (range brk bytes)))
        | Event.Sbrk _ ->
          if shadow then at_last_sbrk := Some !free
        | Event.Phase _ | Event.Fit_scan _ -> ()
    in
    { pass_feed = feed; pass_done = (fun () -> List.rev !diags) }

(* --- driver -----------------------------------------------------------------
   The integrity gate, the invariants pass and (when a design is given) the
   conformance pass all advance one event at a time, so any stream is
   checked online in memory bounded by the live-block maps — never by the
   stream length. *)

type incremental = {
  mutable fed : int;  (* events seen = the clock the next event must carry *)
  mutable gap : Diag.t option;  (* first integrity violation, if any *)
  inv : pass;
  conf : pass option;
  checked : bool;
}

let start ?design () =
  let conf, checked =
    match design with None -> (None, false) | Some d -> (Some (conformance_pass d), true)
  in
  { fed = 0; gap = None; inv = invariants_pass (); conf; checked }

let feed st ({ Stream.clock; event } : Stream.entry) =
  (match st.gap with
  | Some _ -> () (* keep counting, but the heap passes are already moot *)
  | None ->
    if clock <> st.fed then st.gap <- Some (Stream.clock_gap ~clock ~position:st.fed)
    else begin
      st.inv.pass_feed clock event;
      match st.conf with None -> () | Some p -> p.pass_feed clock event
    end);
  st.fed <- st.fed + 1

let finalize st =
  match st.gap with
  | Some d ->
    (* The single incomplete-stream finding, with whatever the passes saw
       before the gap discarded as phantom. *)
    { events = st.fed; diags = [ d ]; conformance_checked = false }
  | None ->
    let diags =
      st.inv.pass_done () @ match st.conf with None -> [] | Some p -> p.pass_done ()
    in
    { events = st.fed; diags; conformance_checked = st.checked }
