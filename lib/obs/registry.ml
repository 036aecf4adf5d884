(* Process-wide metrics registry: named counters, gauges and histograms
   cheap enough for hot paths.

   Increments are single [Atomic] operations — safe from any domain
   (worker domains in the engine pool record into the same cells) and
   wait-free in the uncontended case. Registration is get-or-create
   under a mutex; hot paths hold the returned handle, never the name. *)

type counter = { c_name : string; c_help : string; cell : int Atomic.t }
type gauge = { g_name : string; g_help : string; gcell : int Atomic.t }

type histogram = {
  h_name : string;
  h_help : string;
  h_sub_bits : int;
  buckets : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_max : int Atomic.t;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { lock : Mutex.t; by_name : (string, metric) Hashtbl.t }

let create () = { lock = Mutex.create (); by_name = Hashtbl.create 32 }

(* The process-wide registry the engine and the explorer instrument. *)
let global = create ()

let metric_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let register t name make classify =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.by_name name with
      | Some m -> (
        match classify m with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Registry: %S is already registered as another kind" name))
      | None ->
        let m, v = make () in
        Hashtbl.replace t.by_name name m;
        v)

let counter ?(help = "") t name =
  register t name
    (fun () ->
      let c = { c_name = name; c_help = help; cell = Atomic.make 0 } in
      (Counter c, c))
    (function Counter c -> Some c | Gauge _ | Histogram _ -> None)

let incr c = ignore (Atomic.fetch_and_add c.cell 1)

let add c n =
  if n < 0 then invalid_arg "Registry.add: negative increment";
  ignore (Atomic.fetch_and_add c.cell n)

let value c = Atomic.get c.cell

let gauge ?(help = "") t name =
  register t name
    (fun () ->
      let g = { g_name = name; g_help = help; gcell = Atomic.make 0 } in
      (Gauge g, g))
    (function Gauge g -> Some g | Counter _ | Histogram _ -> None)

let set g v = Atomic.set g.gcell v
let gauge_add g d = ignore (Atomic.fetch_and_add g.gcell d)

let rec set_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then set_max cell v

let gauge_max g v = set_max g.gcell v
let gauge_value g = Atomic.get g.gcell

let histogram ?(help = "") ?(sub_bits = 5) t name =
  register t name
    (fun () ->
      let h =
        {
          h_name = name;
          h_help = help;
          h_sub_bits = sub_bits;
          buckets = Array.init (Log_hist.bucket_count ~sub_bits) (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0;
          h_max = Atomic.make 0;
        }
      in
      (Histogram h, h))
    (function Histogram h -> Some h | Counter _ | Gauge _ -> None)

let observe h v =
  let v = max 0 v in
  ignore (Atomic.fetch_and_add h.buckets.(Log_hist.index ~sub_bits:h.h_sub_bits v) 1);
  ignore (Atomic.fetch_and_add h.h_count 1);
  ignore (Atomic.fetch_and_add h.h_sum v);
  set_max h.h_max v

(* Bulk import of an already-aggregated local histogram (one atomic add
   per non-empty bucket): the cheap bridge from a single-domain
   {!Log_hist} onto the shared registry. *)
let merge_log_hist h lh =
  if Log_hist.sub_bits lh <> h.h_sub_bits then
    invalid_arg "Registry.merge_log_hist: sub_bits mismatch";
  Log_hist.iter_buckets
    (fun ~upper ~count ->
      let i = Log_hist.index ~sub_bits:h.h_sub_bits upper in
      ignore (Atomic.fetch_and_add h.buckets.(i) count))
    lh;
  ignore (Atomic.fetch_and_add h.h_count (Log_hist.count lh));
  ignore (Atomic.fetch_and_add h.h_sum (Log_hist.sum lh));
  set_max h.h_max (Log_hist.max_value lh)

let hist_count h = Atomic.get h.h_count
let hist_sum h = Atomic.get h.h_sum
let hist_max h = Atomic.get h.h_max

(* Same rank rule as {!Log_hist.percentile}, over a racy-but-monotone
   snapshot of the buckets: good enough for reporting. *)
let hist_percentile h p =
  if p < 0.0 || p > 1.0 then invalid_arg "Registry.hist_percentile: p out of range";
  let total = hist_count h in
  if total = 0 then 0
  else if p >= 1.0 then hist_max h
  else begin
    let target = p *. float_of_int total in
    let n = Array.length h.buckets in
    let rec scan i acc =
      if i >= n then hist_max h
      else begin
        let c = Atomic.get h.buckets.(i) in
        let acc = acc + c in
        if c > 0 && float_of_int acc >= target then
          min (Log_hist.upper_bound ~sub_bits:h.h_sub_bits i) (hist_max h)
        else scan (i + 1) acc
      end
    in
    scan 0 0
  end

let reset t =
  with_lock t (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c.cell 0
          | Gauge g -> Atomic.set g.gcell 0
          | Histogram h ->
            Array.iter (fun b -> Atomic.set b 0) h.buckets;
            Atomic.set h.h_count 0;
            Atomic.set h.h_sum 0;
            Atomic.set h.h_max 0)
        t.by_name)

let metrics t =
  with_lock t (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) t.by_name [])
  |> List.sort (fun a b -> compare (metric_name a) (metric_name b))

let is_empty t = with_lock t (fun () -> Hashtbl.length t.by_name = 0)

type view =
  | Counter_view of string * int
  | Gauge_view of string * int
  | Histogram_view of string * histogram

let view t =
  List.map
    (function
      | Counter c -> Counter_view (c.c_name, value c)
      | Gauge g -> Gauge_view (g.g_name, gauge_value g)
      | Histogram h -> Histogram_view (h.h_name, h))
    (metrics t)

(* Prometheus text exposition (histograms as summaries: no cumulative
   bucket blowup, quantiles precomputed server-side).

   A registered name may carry a label set in Prometheus syntax —
   ["dmm_ingest_queue_depth{shard=\"3\"}"] — in which case the HELP/TYPE
   header is emitted once per base name (labelled series of one metric
   sort adjacently, since the base is a common prefix) and histogram
   quantile labels splice into the existing brace set. *)
let split_labels name =
  match String.index_opt name '{' with
  | None -> (name, None)
  | Some i ->
    let labels = String.sub name (i + 1) (String.length name - i - 2) in
    (String.sub name 0 i, Some labels)

let to_prometheus ?prefix t =
  let b = Buffer.create 1024 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let keep name =
    match prefix with None -> true | Some p -> String.starts_with ~prefix:p name
  in
  let last_base = ref "" in
  let header name help kind =
    let base, _ = split_labels name in
    if base <> !last_base then begin
      last_base := base;
      if help <> "" then bpf "# HELP %s %s\n" base help;
      bpf "# TYPE %s %s\n" base kind
    end
  in
  let series ?extra name =
    let base, labels = split_labels name in
    match (labels, extra) with
    | None, None -> base
    | Some l, None -> Printf.sprintf "%s{%s}" base l
    | None, Some e -> Printf.sprintf "%s{%s}" base e
    | Some l, Some e -> Printf.sprintf "%s{%s,%s}" base l e
  in
  (* _sum/_count suffixes attach to the base name, before the labels. *)
  let suffixed name suffix =
    let base, labels = split_labels name in
    match labels with
    | None -> base ^ suffix
    | Some l -> Printf.sprintf "%s%s{%s}" base suffix l
  in
  List.iter
    (fun m ->
      match m with
      | Counter c when keep c.c_name ->
        header c.c_name c.c_help "counter";
        bpf "%s %d\n" (series c.c_name) (value c)
      | Gauge g when keep g.g_name ->
        header g.g_name g.g_help "gauge";
        bpf "%s %d\n" (series g.g_name) (gauge_value g)
      | Histogram h when keep h.h_name ->
        header h.h_name h.h_help "summary";
        List.iter
          (fun q ->
            bpf "%s %d\n"
              (series ~extra:(Printf.sprintf "quantile=\"%g\"" q) h.h_name)
              (hist_percentile h q))
          [ 0.5; 0.9; 0.99; 0.999 ];
        bpf "%s %d\n" (suffixed h.h_name "_sum") (hist_sum h);
        bpf "%s %d\n" (suffixed h.h_name "_count") (hist_count h)
      | Counter _ | Gauge _ | Histogram _ -> ())
    (metrics t);
  Buffer.contents b
