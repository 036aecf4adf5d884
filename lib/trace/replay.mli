(** Drive a manager from a recorded trace.

    Replaying the same trace against different managers is how the paper's
    methodology scores candidates and how the benches regenerate Table 1
    and Figure 5. *)

val run :
  ?probe:Dmm_obs.Probe.t ->
  ?on_event:(int -> Dmm_core.Allocator.t -> unit) ->
  ?live_hint:int ->
  Trace.t ->
  Dmm_core.Allocator.t ->
  unit
(** [run trace a] feeds every event to [a], mapping trace ids to the
    addresses [a] returns through one int array of {!Trace.id_bound}
    slots, made before the first event and never grown. [on_event i a]
    fires after event [i]. Raises [Invalid_argument] on an invalid trace:
    a free of a non-live id (["Replay.run: free of non-live id N"]), a
    negative allocation id, or an id too large to size the array, such as
    [max_int] (before the first event).
    [probe] receives one {!Dmm_obs.Event.Phase} per phase marker replayed
    (pass the probe the manager's address space was built with, so the
    whole event stream shares one logical clock).
    [live_hint] is ignored: the table's size comes from the trace. *)

val max_footprint_of : Trace.t -> Dmm_core.Allocator.t -> int
(** Replay and return the manager's maximum footprint. *)
