(** Synthetic internet traffic generator.

    Stands in for the 10 real LBL traces the paper feeds to DRR (DESIGN.md
    §3): per-flow on/off processes with Pareto-distributed burst and gap
    lengths (heavy tails make the aggregate self-similar) and the classic
    trimodal packet-size mix. Flows carry different size profiles (bulk
    transfers vs. ack streams vs. mixed) and burst at different times, so
    the backlog's size composition shifts over the run — the behaviour that
    separates the managers of Table 1. Deterministic given the seed. *)

type packet = { arrival : float; (** seconds *) flow : int; size : int (** bytes *) }
(** One packet of the list view, {!to_list}. *)

type profile =
  | Bulk  (** mostly 1500-byte segments *)
  | Interactive  (** mostly 40-byte acks and small requests *)
  | Mixed
  | Dominant of int
      (** an application flow with a characteristic packet size: 70% within
          10% of the dominant size, 30% the generic internet mix *)

type config = {
  flows : int;  (** default 6 *)
  duration : float;  (** seconds of traffic, default 1.5 *)
  flow_rate_mbps : float;  (** per-flow rate during bursts, default 12.0 *)
  on_shape : float;  (** Pareto shape of burst lengths, default 1.5 *)
  mean_on : float;  (** mean burst length in seconds, default 0.05 *)
  mean_off : float;  (** mean gap length in seconds, default 0.8 *)
  seed : int;
}

val default_config : config

val paper_config : config
(** The Table-1 regime: ten application flows with distinct dominant packet
    sizes, rare fast bursts over a long run — successive bursts load
    different size classes at different times, which is what separates the
    managers in the paper's DRR column. *)

val profile_of_flow : int -> profile
(** Flows carry distinct dominant packet sizes (cycling through ten
    application types). *)

val packet_size : Dmm_util.Prng.t -> profile -> int
(** One packet size draw: trimodal 40/576/1500 plus a uniform component,
    weighted by profile. *)

type t = {
  arrivals : float array;  (** seconds, non-decreasing *)
  flow_ids : int array;  (** in [\[0, flows)] *)
  sizes : int array;  (** bytes *)
}
(** Packets of all flows merged in arrival order, one flat array per
    field: packet [i] arrives at [arrivals.(i)] on flow [flow_ids.(i)]
    with [sizes.(i)] bytes. The three arrays have the same length. *)

val generate : config -> t
(** Generates each flow's on/off process in flow order, each from its own
    {!Dmm_util.Prng.split} of the seed's generator, into
    {!Dmm_util.Chunks} (so no packet is copied while the flows grow),
    copies each field once into a flat array, and orders them by arrival
    with a stable merge of the flows' runs over an index array. Packets that arrive at the same instant keep the
    order of a stable sort of the flows' packet lists concatenated, each
    newest first: the lower flow first, and within a flow the later
    packet first. Allocates no block per packet. Raises
    [Invalid_argument] on a config with no flows or no duration. *)

val length : t -> int
(** Number of packets. *)

val to_list : t -> packet list
(** The packets as a list of records, in order: a view for tests and
    examples; the simulation reads the arrays. *)

val total_bytes : t -> int

val pp_packet : Format.formatter -> packet -> unit
