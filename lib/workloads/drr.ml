module Allocator = Dmm_core.Allocator
module Int_ring = Dmm_util.Int_ring

type config = {
  quantum : int;
  service_rate_mbps : float;
  queue_node_bytes : int;
  flow_queue_limit : int option;
  total_queue_limit : int option;
}

let default_config =
  {
    quantum = 1500;
    service_rate_mbps = 10.0;
    queue_node_bytes = 24;
    flow_queue_limit = None;
    total_queue_limit = None;
  }

let paper_config = { default_config with total_queue_limit = Some 98304 }

type stats = {
  packets_in : int;
  packets_dropped : int;
  packets_out : int;
  bytes_out : int;
  max_backlog_bytes : int;
  max_backlog_packets : int;
  per_flow_bytes : (int * int) list;
  finish_time : float;
  checksum : int;
}

(* Simulated per-packet processing (classification on ingress, checksum and
   copy-out on egress): real router work that dilutes the DM manager's share
   of the execution time, as in the paper's 10%-overhead observation. Its
   only output is [stats.checksum], so a run that only records the DM
   behaviour skips it ([~simulate:false]). *)
let process_packet checksum size =
  let acc = ref checksum in
  for i = 1 to size do
    acc := (!acc * 31) + i
  done;
  !acc land 0x3FFFFFFF

(* Per-flow state, one record per flow id allocated up front. A queued
   packet is three consecutive ints of [queue]: its buffer's address, its
   queue node's address and its size. *)
type flow_state = {
  queue : Int_ring.t;
  mutable deficit : int;
  mutable active : bool; (* enqueued in the DRR active ring *)
  mutable arrived : bool; (* saw a packet, admitted or dropped *)
  mutable sent_bytes : int;
  mutable backlog : int; (* queued payload bytes *)
}

(* The simulated clock. A float record field is stored unboxed, so
   advancing the clock allocates nothing, where a captured [float ref]
   would box every update. *)
type clock = { mutable now : float; mutable finish : float }

let flow_count (packets : Traffic.t) =
  Array.fold_left
    (fun acc flow ->
      if flow < 0 then invalid_arg "Drr.run: negative flow id";
      max acc (flow + 1))
    0 packets.flow_ids

let run ?(config = default_config) ?(simulate = true) a (packets : Traffic.t) =
  if config.quantum <= 0 || config.service_rate_mbps <= 0.0 || config.queue_node_bytes <= 0
  then invalid_arg "Drr.run: bad config";
  let n = Traffic.length packets in
  let flows =
    Array.init (flow_count packets) (fun _ ->
        {
          queue = Int_ring.create ();
          deficit = 0;
          active = false;
          arrived = false;
          sent_bytes = 0;
          backlog = 0;
        })
  in
  let active = Int_ring.create () in
  let next = ref 0 in
  let clock = { now = 0.0; finish = 0.0 } in
  let backlog_bytes = ref 0 in
  let backlog_packets = ref 0 in
  let max_backlog_bytes = ref 0 in
  let max_backlog_packets = ref 0 in
  let checksum = ref 0 in
  let packets_in = ref 0 in
  let packets_dropped = ref 0 in
  let packets_out = ref 0 in
  let bytes_out = ref 0 in
  let bytes_per_sec = config.service_rate_mbps *. 1e6 /. 8.0 in
  let over limit backlog size = match limit with Some l -> backlog + size > l | None -> false in
  let enqueue i =
    incr packets_in;
    let fid = packets.flow_ids.(i) and size = packets.sizes.(i) in
    let f = flows.(fid) in
    f.arrived <- true;
    if
      over config.flow_queue_limit f.backlog size
      || over config.total_queue_limit !backlog_bytes size
    then incr packets_dropped
    else begin
      if simulate then checksum := process_packet !checksum size;
      let buf = Allocator.alloc a size in
      let node = Allocator.alloc a config.queue_node_bytes in
      Int_ring.push f.queue buf;
      Int_ring.push f.queue node;
      Int_ring.push f.queue size;
      f.backlog <- f.backlog + size;
      if not f.active then begin
        f.active <- true;
        f.deficit <- 0;
        Int_ring.push active fid
      end;
      backlog_bytes := !backlog_bytes + size;
      incr backlog_packets;
      if !backlog_bytes > !max_backlog_bytes then max_backlog_bytes := !backlog_bytes;
      if !backlog_packets > !max_backlog_packets then
        max_backlog_packets := !backlog_packets
    end
  in
  (* Admit every packet that has arrived by the current simulated time. *)
  let admit_due () =
    while !next < n && packets.arrivals.(!next) <= clock.now do
      enqueue !next;
      incr next
    done
  in
  (* Send the packet at the head of [f]'s queue. *)
  let transmit f =
    let buf = Int_ring.pop f.queue in
    let node = Int_ring.pop f.queue in
    let psize = Int_ring.pop f.queue in
    f.deficit <- f.deficit - psize;
    if simulate then checksum := process_packet !checksum psize;
    Allocator.free a buf;
    Allocator.free a node;
    f.sent_bytes <- f.sent_bytes + psize;
    f.backlog <- f.backlog - psize;
    incr packets_out;
    bytes_out := !bytes_out + psize;
    backlog_bytes := !backlog_bytes - psize;
    decr backlog_packets;
    clock.now <- clock.now +. (float_of_int psize /. bytes_per_sec);
    clock.finish <- clock.now;
    admit_due ()
  in
  (* One DRR service opportunity for the flow at the head of the ring:
     it sends while its head packet fits the deficit, packets admitted
     meanwhile included. *)
  let serve_turn () =
    let fid = Int_ring.pop active in
    let f = flows.(fid) in
    f.deficit <- f.deficit + config.quantum;
    while (not (Int_ring.is_empty f.queue)) && Int_ring.peek f.queue 2 <= f.deficit do
      transmit f
    done;
    if Int_ring.is_empty f.queue then begin
      f.active <- false;
      f.deficit <- 0
    end
    else Int_ring.push active fid
  in
  while not (Int_ring.is_empty active && !next >= n) do
    if Int_ring.is_empty active then begin
      (* Idle server: jump to the next arrival. *)
      clock.now <- Float.max clock.now packets.arrivals.(!next);
      admit_due ()
    end
    else serve_turn ()
  done;
  let per_flow_bytes = ref [] in
  for fid = Array.length flows - 1 downto 0 do
    let f = flows.(fid) in
    if f.arrived then per_flow_bytes := (fid, f.sent_bytes) :: !per_flow_bytes
  done;
  {
    packets_in = !packets_in;
    packets_dropped = !packets_dropped;
    packets_out = !packets_out;
    bytes_out = !bytes_out;
    max_backlog_bytes = !max_backlog_bytes;
    max_backlog_packets = !max_backlog_packets;
    per_flow_bytes = !per_flow_bytes;
    finish_time = clock.finish;
    checksum = !checksum;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "in=%d dropped=%d out=%d bytes=%d max_backlog=%dB/%dpkts finish=%.3fs flows=%d"
    s.packets_in s.packets_dropped s.packets_out s.bytes_out s.max_backlog_bytes
    s.max_backlog_packets s.finish_time
    (List.length s.per_flow_bytes)
