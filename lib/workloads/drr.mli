(** Deficit Round Robin scheduler (Shreedhar & Varghese, SIGCOMM'95) — the
    paper's first case study, from the NetBench suite.

    An event-driven router simulation: arriving packets are stored in
    per-flow queues (packet buffer + queue node allocated from the DM
    manager under test), and a DRR server drains the active flows with a
    per-round byte quantum at a fixed output rate. Bursty input above the
    output rate builds transient backlog — the dynamic memory demand whose
    footprint Table 1 and Figure 5 measure. *)

type config = {
  quantum : int;  (** DRR byte quantum per round (default 1500) *)
  service_rate_mbps : float;  (** output link rate (default 10.0) *)
  queue_node_bytes : int;  (** queue bookkeeping node size (default 24) *)
  flow_queue_limit : int option;
      (** per-flow backlog cap in bytes; arriving packets that would exceed
          it are dropped, as in a real router (default [None]) *)
  total_queue_limit : int option;
      (** shared buffer pool cap in bytes across all queues (default
          [None]). Routers drop on a full shared buffer; successive bursts
          can each fill the pool with their own packet-size class, which is
          exactly the behaviour that separates the managers of Table 1 *)
}

val default_config : config

val paper_config : config
(** The Table-1 regime: 10 Mbit/s output link, 96 KiB shared buffer pool. *)

type stats = {
  packets_in : int;
  packets_dropped : int;
  packets_out : int;
  bytes_out : int;
  max_backlog_bytes : int;  (** peak payload queued *)
  max_backlog_packets : int;
  per_flow_bytes : (int * int) list;  (** flow id, bytes forwarded *)
  finish_time : float;  (** simulated seconds when the last packet left *)
  checksum : int;
      (** digest of the simulated per-packet processing; 0 when it is
          skipped *)
}

val run : ?config:config -> ?simulate:bool -> Dmm_core.Allocator.t -> Traffic.t -> stats
(** Run the scheduler over the packets (sorted by arrival, as
    {!Traffic.generate} returns them), allocating every buffer and queue
    node from the given manager. All memory is freed by the end of the
    run. The flows live in an array indexed by flow id, each with its
    queue as an int ring of (buffer, node, size) triples, and the active
    flows in an int ring of ids, so the scheduler itself allocates
    nothing per packet. [simulate] (default [true]) runs the simulated
    per-packet processing, a pass over each packet's bytes on ingress
    and on egress that stands for the router's own work; its only output
    is [checksum]. With [~simulate:false] it is skipped: the manager sees
    the same calls in the same order, and every other field is the same,
    so a caller that keeps only the DM behaviour ({!Scenario.drr_trace})
    pays only for that. Raises [Invalid_argument] on a bad config or a
    negative flow id. *)

val pp_stats : Format.formatter -> stats -> unit
