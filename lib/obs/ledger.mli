(** Persistent run ledger: one flat-JSON line per [dmm explore]
    invocation, appended to [BENCH_history.jsonl].

    The ledger accumulates history, so throughput regressions and
    footprint-table drift are detectable across runs ([dmm runs diff],
    whose regression and drift logic test/runs.t pins). Records are
    hand-rolled flat JSON (string and number fields only, no nesting —
    the repo carries no JSON library) with unknown fields tolerated on
    read.

    Appending is silent and best-effort by default so it can run under
    every invocation without disturbing byte-exact CLI output; the
    [DMM_LEDGER] environment variable redirects it to another path, and
    [DMM_LEDGER=off] (or [0]) disables it. *)

type record = {
  r_time : float;  (** unix seconds at the end of the run *)
  r_git : string;  (** short commit hash, or ["unknown"] *)
  r_cmd : string;  (** ["explore"], ["bench"], ... *)
  r_scenario : string;
  r_jobs : int;
  r_wall : float;  (** wall seconds *)
  r_events : int;  (** trace events driving the run *)
  r_sims : int;  (** full replays executed *)
  r_sims_per_sec : float;
  r_best_footprint : int;  (** bytes; best design found, 0 when n/a *)
  r_digest : string;  (** {!digest} of the footprint table, "" when n/a *)
}

val schema_version : int
val default_file : string

val enabled : unit -> bool
(** False iff [DMM_LEDGER] is [off] or [0]. *)

val default_path : unit -> string
(** [DMM_LEDGER] when set to a path, else {!default_file}. *)

val git_rev : unit -> string
(** [DMM_GIT_REV] override, else [git rev-parse --short HEAD], else
    ["unknown"]. *)

val digest : (string * int) list -> string
(** Order-insensitive FNV-1a 64 over labelled byte counts (footprint
    table rows). Equal digests = identical simulated results. *)

val iso_time : float -> string
(** UTC [YYYY-MM-DDThh:mm:ssZ]. *)

val to_json : record -> string
val of_json : string -> (record, string) result

val append : string -> record -> (unit, string) result
(** Append one record (creating the file if needed). *)

val load : string -> (record list, string) result
(** All records in file order; blank lines are skipped; a malformed line
    fails the whole load with ["line N: <msg>"]. *)

val select : ?cmd:string -> ?scenario:string -> record list -> record list

val last_pair : record list -> (record * record) option
(** [(older, newer)] where [newer] is the last record and [older] the
    most recent earlier record with the same cmd + scenario, if any. *)

type verdict = {
  v_old : record;
  v_new : record;
  v_ratio : float;  (** new/old simulations per second *)
  v_throughput_regression : bool;  (** ratio fell below [1 - threshold] *)
  v_digest_drift : bool;  (** both digests present and different *)
}

val compare_runs : ?threshold:float -> older:record -> newer:record -> unit -> verdict
(** [threshold] defaults to 0.25 (a quarter of throughput lost flags a
    regression). *)
