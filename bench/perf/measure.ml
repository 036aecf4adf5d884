(* Clocks, order statistics and process readings shared by every workload.

   Every duration in the benchmark comes from [now_ns], the monotonic
   clock (CLOCK_MONOTONIC through bechamel's stub), never from
   [Unix.gettimeofday]. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q xs =
  match sorted xs with
  | [||] -> invalid_arg "Measure.quantile: no samples"
  | a ->
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i >= Array.length a - 1 then a.(Array.length a - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* First and third quartile as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method), so spreads printed here
   match the ones the acceptance rule is stated in. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Measure.quartiles: need two samples";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (cut 1, cut 3)

(* Process CPU (user + system, every domain and thread) in seconds. *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [VmHWM] of a live process in MiB: its peak resident set so far. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* User + system CPU of another live process, from /proc/PID/stat, in
   seconds. Linux reports it in USER_HZ ticks, which are 1/100 s on every
   architecture the kernel exports to user space. *)
let cpu_of_pid pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* The command name (field 2) may hold spaces; fields resume after ')'. *)
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* utime and stime are fields 14 and 15 of the full line. *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0

(* Machine-wide CPU time by state, summed over every CPU, from the first
   line of /proc/stat: (busy, idle, steal) in seconds. Steal is time the
   hypervisor gave the virtual CPUs to someone else. *)
let cpu_states () =
  let line = In_channel.with_open_bin "/proc/stat" In_channel.input_line |> Option.get in
  let f = Array.of_list (List.filter (( <> ) "") (String.split_on_char ' ' line)) in
  let tick i = float_of_string f.(i) /. 100.0 in
  (tick 1 +. tick 2 +. tick 3 +. tick 6 +. tick 7, tick 4 +. tick 5, tick 8)

(* Minor words allocated and collections run while [f] executes. *)
type gc_delta = { minor_words : float; minor_collections : int; major_collections : int }

let with_gc f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    {
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    } )
