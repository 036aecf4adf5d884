(* Merlin-style lifetime oracle.

   The explicit [Free] events of a recorded stream say when the
   application *returned* memory; the object-graph events ([Ptr_write],
   [Root_add]/[Root_remove]) say when it could last have *used* it. The
   oracle computes, per object, the ideal death time in the Merlin
   style: every time an object loses a reference (a pointer slot it sat
   in is overwritten, its source is freed, or a root is dropped) its
   last-reachable stamp advances to the probe clock of that event; once
   the whole stream is seen, death times propagate backwards through the
   retained pointer graph so that an object's death is the latest stamp
   among the dead objects that could still reach it. The gap between
   the explicit free and the oracle death is the object's *drag* — heap
   bytes the design paid for but the application could never touch
   again — and never-freed objects that end the stream unreachable are
   *leaks*.

   Streams without graph events (every recording made before the
   graph-probe level existed, and every manager-only stream) degrade
   soundly: nothing ever loses reachability before its free, so death
   equals the explicit free, drag is zero everywhere and no leak can be
   reported — zero false positives by construction. *)

module Event = Dmm_obs.Event
module Log_hist = Dmm_obs.Log_hist
module Trace = Dmm_trace.Trace
module Tevent = Dmm_trace.Event

type obj = {
  o_id : int;
  o_addr : int;
  o_payload : int;
  o_gross : int;
  o_birth : int;
  o_birth_phase : int;
  o_free : int option;
  o_death : int;
  o_reached : bool;
}

type defects = {
  d_src_missing : int;  (** pointer writes from an address with no live object *)
  d_dst_missing : int;  (** pointer writes to an address with no live object *)
  d_old_mismatch : int;  (** [old_dst] disagrees with the tracked slot *)
  d_root_missing : int;  (** root events on an address with no live object *)
  d_root_underflow : int;  (** more root removals than additions *)
  d_addr_reuse : int;  (** allocation over a still-live address *)
}

let no_defects =
  {
    d_src_missing = 0;
    d_dst_missing = 0;
    d_old_mismatch = 0;
    d_root_missing = 0;
    d_root_underflow = 0;
    d_addr_reuse = 0;
  }

let defect_count d =
  d.d_src_missing + d.d_dst_missing + d.d_old_mismatch + d.d_root_missing
  + d.d_root_underflow + d.d_addr_reuse

type report = {
  r_events : int;
  r_graph_events : int;
  r_graph : bool;  (** any graph event seen — false means the degenerate oracle *)
  r_objects : obj array;  (** in allocation order; [o_id] is the index *)
  r_freed : int;
  r_leaks : obj list;  (** unreachable at end of stream, never freed *)
  r_end_live : int;  (** still reachable (or, without graph events, live) at end *)
  r_end_clock : int;
  r_drag : Log_hist.t;
  r_drag_by_class : (int * Log_hist.t) list;  (** pow2 gross class, ascending *)
  r_drag_by_phase : (int * Log_hist.t) list;  (** birth phase, ascending *)
  r_defects : defects;
  r_phases : (int * int) list;  (** (clock, phase) markers in stream order *)
}

(* --- forward pass ---------------------------------------------------------- *)

type ostate = {
  id : int;
  addr : int;
  payload : int;
  gross : int;
  birth : int;
  birth_phase : int;
  mutable roots : int;
  mutable lost : bool;  (** ever observed losing a reference *)
  mutable stamp : int;  (** clock of the last lost reference; starts at birth *)
  mutable free : int;  (** explicit free clock, [-1] while live *)
  mutable out : (int * ostate) list;  (** (field, target) — the object's pointer slots *)
  mutable death : int;
  mutable reached : bool;
}

type t = {
  mutable events : int;
  mutable graph_events : int;
  mutable last_clock : int;
  mutable phase : int;
  mutable phases_rev : (int * int) list;
  mutable objs_rev : ostate list;  (** newest first; finalize reverses once *)
  mutable count : int;
  by_addr : (int, ostate) Hashtbl.t;
  mutable d : defects;
  mutable finalized : bool;
}

let create () =
  {
    events = 0;
    graph_events = 0;
    last_clock = -1;
    phase = 0;
    phases_rev = [];
    objs_rev = [];
    count = 0;
    by_addr = Hashtbl.create 1024;
    d = no_defects;
    finalized = false;
  }

let live t addr = if addr < 0 then None else Hashtbl.find_opt t.by_addr addr

(* The object at the target end of an edge loses an incoming reference:
   its last-reachable stamp moves up to now. Only objects that were ever
   observed losing a reference can die before their horizon — absent any
   evidence of unreachability, death defaults to the explicit free. *)
let lose tgt clock =
  tgt.lost <- true;
  if clock > tgt.stamp then tgt.stamp <- clock

let feed t (e : Stream.entry) =
  if t.finalized then invalid_arg "Oracle.feed: already finalized";
  let clock = e.Stream.clock in
  t.events <- t.events + 1;
  if clock > t.last_clock then t.last_clock <- clock;
  match e.Stream.event with
  | Event.Alloc { payload; gross; addr; _ } ->
    (match Hashtbl.find_opt t.by_addr addr with
    | Some prior ->
      (* Only defective streams allocate over a live address; keep the
         orphaned object for the backward pass but stop resolving its
         address to it. *)
      t.d <- { t.d with d_addr_reuse = t.d.d_addr_reuse + 1 };
      ignore prior
    | None -> ());
    let o =
      {
        id = t.count;
        addr;
        payload;
        gross;
        birth = clock;
        birth_phase = t.phase;
        roots = 0;
        lost = false;
        stamp = clock;
        free = -1;
        out = [];
        death = -1;
        reached = false;
      }
    in
    t.count <- t.count + 1;
    t.objs_rev <- o :: t.objs_rev;
    Hashtbl.replace t.by_addr addr o
  | Event.Free { addr; _ } -> (
    match Hashtbl.find_opt t.by_addr addr with
    | None -> ()
    | Some o ->
      o.free <- clock;
      (* Freeing a still-rooted object means the client could reach it
         right up to the free: death coincides with the free (the
         scripted replay client holds its one root until here). *)
      if o.roots > 0 then lose o clock;
      (* The freed object's outgoing pointers die with it: each target
         loses an incoming reference now. The slots themselves stay on
         the record — the backward pass propagates through them. *)
      List.iter (fun (_, tgt) -> lose tgt clock) o.out;
      Hashtbl.remove t.by_addr addr)
  | Event.Phase p ->
    t.phase <- p;
    t.phases_rev <- (clock, p) :: t.phases_rev
  | Event.Ptr_write { src; field; old_dst; new_dst } -> (
    t.graph_events <- t.graph_events + 1;
    match live t src with
    | None -> t.d <- { t.d with d_src_missing = t.d.d_src_missing + 1 }
    | Some s ->
      (* Retract whatever the tracked slot held — that target loses a
         reference now — cross-checking the stream's claimed [old_dst]
         (a mismatch means lost events or a buggy client: counted, not
         fatal, and the tracked edge wins). *)
      (match List.assoc_opt field s.out with
      | Some tgt ->
        s.out <- List.remove_assoc field s.out;
        lose tgt clock;
        let claim_agrees =
          match live t old_dst with Some o -> o == tgt | None -> false
        in
        if not claim_agrees then
          t.d <- { t.d with d_old_mismatch = t.d.d_old_mismatch + 1 }
      | None ->
        if old_dst >= 0 then
          t.d <- { t.d with d_old_mismatch = t.d.d_old_mismatch + 1 });
      match live t new_dst with
      | Some tgt -> s.out <- (field, tgt) :: s.out
      | None ->
        if new_dst >= 0 then t.d <- { t.d with d_dst_missing = t.d.d_dst_missing + 1 })
  | Event.Root_add { addr } -> (
    t.graph_events <- t.graph_events + 1;
    match live t addr with
    | None -> t.d <- { t.d with d_root_missing = t.d.d_root_missing + 1 }
    | Some o -> o.roots <- o.roots + 1)
  | Event.Root_remove { addr } -> (
    t.graph_events <- t.graph_events + 1;
    match live t addr with
    | None -> t.d <- { t.d with d_root_missing = t.d.d_root_missing + 1 }
    | Some o ->
      if o.roots <= 0 then t.d <- { t.d with d_root_underflow = t.d.d_root_underflow + 1 }
      else o.roots <- o.roots - 1;
      lose o clock)
  | Event.Split _ | Event.Coalesce _ | Event.Sbrk _ | Event.Trim _ | Event.Fit_scan _ ->
    ()

(* --- backward pass ---------------------------------------------------------- *)

let finalize t =
  if t.finalized then invalid_arg "Oracle.finalize: already finalized";
  t.finalized <- true;
  let objs = Array.of_list (List.rev t.objs_rev) in
  t.objs_rev <- [];
  let n = Array.length objs in
  let end_clock = t.last_clock in
  let graph = t.graph_events > 0 in
  (* Reachability at end of stream: never-freed objects holding a root,
     and everything they still point to. *)
  if graph then begin
    let stack = ref [] in
    Array.iter
      (fun o ->
        if o.free < 0 && o.roots > 0 then begin
          o.reached <- true;
          stack := o :: !stack
        end)
      objs;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | o :: rest ->
        stack := rest;
        List.iter
          (fun (_, q) ->
            if q.free < 0 && not q.reached then begin
              q.reached <- true;
              stack := q :: !stack
            end)
          o.out
    done
  end
  else
    (* No graph events: everything still live is (as far as anyone can
       tell) still reachable. *)
    Array.iter (fun o -> if o.free < 0 then o.reached <- true) objs;
  (* Death times. Dead objects are the freed ones plus the end-of-stream
     garbage; each is bounded by its own horizon (free clock, or end of
     stream) and starts at its last-lost-reference stamp. Propagation
     lifts death(q) to death(p) for every dead p holding a pointer to q:
     while p could be revived — up to its own death — so could
     everything it reaches. Monotone and bounded, so the worklist
     terminates. *)
  let limit o = if o.free >= 0 then o.free else end_clock in
  Array.iter
    (fun o ->
      if o.free >= 0 || not o.reached then
        (* No observed reference loss is no evidence of unreachability:
           such an object dies at its horizon (in particular, streams
           with no graph events measure zero drag everywhere). *)
        o.death <- (if o.lost then min o.stamp (limit o) else limit o)
      else o.death <- end_clock)
    objs;
  if graph then begin
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare objs.(b).stamp objs.(a).stamp) order;
    let stack = ref [] in
    Array.iter
      (fun i ->
        let o = objs.(i) in
        (* End-live objects propagate too: a still-reachable object
           keeps whatever it points to alive right up to each target's
           own horizon (e.g. a freed block still referenced by a live
           one has zero drag, whatever its stamp says). *)
        stack := o :: !stack;
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | p :: rest ->
            stack := rest;
            List.iter
              (fun (_, q) ->
                if q.free >= 0 || not q.reached then begin
                  let cand = min p.death (limit q) in
                  if cand > q.death then begin
                    q.death <- cand;
                    stack := q :: !stack
                  end
                end)
              p.out
        done)
      order
  end;
  (* Histograms: drag per freed object, overall and keyed by pow2 gross
     class and by birth phase. *)
  let drag_all = Log_hist.create () in
  let by_class = Hashtbl.create 16 and by_phase = Hashtbl.create 16 in
  let hist tbl key =
    match Hashtbl.find_opt tbl key with
    | Some h -> h
    | None ->
      let h = Log_hist.create () in
      Hashtbl.add tbl key h;
      h
  in
  let freed = ref 0 and leaks_rev = ref [] and end_live = ref 0 in
  Array.iter
    (fun o ->
      if o.free >= 0 then begin
        incr freed;
        let drag = o.free - o.death in
        Log_hist.record drag_all drag;
        Log_hist.record (hist by_class (Dmm_util.Size.pow2_class o.gross)) drag;
        Log_hist.record (hist by_phase o.birth_phase) drag
      end
      else if o.reached then incr end_live
      else leaks_rev := o :: !leaks_rev)
    objs;
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let export o =
    {
      o_id = o.id;
      o_addr = o.addr;
      o_payload = o.payload;
      o_gross = o.gross;
      o_birth = o.birth;
      o_birth_phase = o.birth_phase;
      o_free = (if o.free >= 0 then Some o.free else None);
      o_death = o.death;
      o_reached = o.reached;
    }
  in
  {
    r_events = t.events;
    r_graph_events = t.graph_events;
    r_graph = graph;
    r_objects = Array.map export objs;
    r_freed = !freed;
    r_leaks = List.rev_map export !leaks_rev;
    r_end_live = !end_live;
    r_end_clock = end_clock;
    r_drag = drag_all;
    r_drag_by_class = sorted by_class;
    r_drag_by_phase = sorted by_phase;
    r_defects = t.d;
    r_phases = List.rev t.phases_rev;
  }

(* --- consumers -------------------------------------------------------------- *)

let leak_diags r =
  List.map
    (fun o ->
      Diag.vf ~index:o.o_death "oracle-leak"
        "object #%d (addr %d, %d payload bytes) born at clock %d became unreachable \
         at clock %d and was never freed"
        o.o_id o.o_addr o.o_payload o.o_birth o.o_death)
    r.r_leaks

(* --- oracle-free rewriting -------------------------------------------------- *)

let synthesize r =
  (* Rebuild the workload timeline with the oracle's frees: allocations
     and phase markers keep their stream order; each dead object is
     freed at its death clock (ties resolve after the event already at
     that clock); end-live objects stay allocated. *)
  let ops = ref [] in
  let push clock rank ev = ops := (clock, rank, ev) :: !ops in
  Array.iter
    (fun o ->
      push o.o_birth 0 (Tevent.Alloc { id = o.o_id; size = o.o_payload });
      let dead = o.o_free <> None || not o.o_reached in
      if dead then push o.o_death 1 (Tevent.Free { id = o.o_id }))
    r.r_objects;
  List.iter (fun (clock, p) -> push clock 0 (Tevent.Phase p)) r.r_phases;
  let ops =
    List.stable_sort
      (fun (c1, k1, _) (c2, k2, _) -> if c1 <> c2 then compare c1 c2 else compare k1 k2)
      (List.rev !ops)
  in
  let trace = Trace.create ~capacity:(List.length ops) () in
  List.iter (fun (_, _, ev) -> Trace.add trace ev) ops;
  trace

(* --- rendering -------------------------------------------------------------- *)

let pp_hist_line ppf h =
  Format.fprintf ppf "count %d, p50 %d, p99 %d, max %d, total %d clocks"
    (Log_hist.count h)
    (Log_hist.percentile h 0.5)
    (Log_hist.percentile h 0.99)
    (Log_hist.max_value h) (Log_hist.sum h)

let pp ppf r =
  Format.fprintf ppf "oracle: %d events (%d graph), %d objects@." r.r_events
    r.r_graph_events
    (Array.length r.r_objects);
  Format.fprintf ppf "  freed %d, leaked %d, live at end %d@." r.r_freed
    (List.length r.r_leaks) r.r_end_live;
  if not r.r_graph then
    Format.fprintf ppf
      "  no object-graph events: death = explicit free, drag = 0, leaks undetectable@."
  else begin
    Format.fprintf ppf "  drag: %a@." pp_hist_line r.r_drag;
    if r.r_drag_by_class <> [] then begin
      Format.fprintf ppf "  drag by size class:@.";
      List.iter
        (fun (cls, h) -> Format.fprintf ppf "    <= %6d B: %a@." cls pp_hist_line h)
        r.r_drag_by_class
    end;
    if r.r_drag_by_phase <> [] then begin
      Format.fprintf ppf "  drag by birth phase:@.";
      List.iter
        (fun (p, h) -> Format.fprintf ppf "    phase %d: %a@." p pp_hist_line h)
        r.r_drag_by_phase
    end;
    (match r.r_leaks with
    | [] -> ()
    | leaks ->
      Format.fprintf ppf "  leaks:@.";
      let rec show n = function
        | [] -> ()
        | _ :: _ as rest when n = 0 ->
          Format.fprintf ppf "    ... and %d more@." (List.length rest)
        | o :: rest ->
          Format.fprintf ppf
            "    #%d addr %d payload %d: born @@ %d (phase %d), unreachable @@ %d@."
            o.o_id o.o_addr o.o_payload o.o_birth o.o_birth_phase o.o_death;
          show (n - 1) rest
      in
      show 5 leaks);
    if defect_count r.r_defects > 0 then
      Format.fprintf ppf
        "  graph defects: %d (src-missing %d, dst-missing %d, old-mismatch %d, \
         root-missing %d, root-underflow %d, addr-reuse %d)@."
        (defect_count r.r_defects) r.r_defects.d_src_missing r.r_defects.d_dst_missing
        r.r_defects.d_old_mismatch r.r_defects.d_root_missing
        r.r_defects.d_root_underflow r.r_defects.d_addr_reuse
  end
