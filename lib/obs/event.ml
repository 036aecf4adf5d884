type t =
  | Alloc of { payload : int; gross : int; tag : int; addr : int }
  | Free of { payload : int; addr : int }
  | Split of { addr : int; parent : int; taken : int; remainder : int }
  | Coalesce of { addr : int; merged : int; absorbed : int }
  | Phase of int
  | Sbrk of { bytes : int; brk : int }
  | Trim of { bytes : int; brk : int }
  | Fit_scan of { steps : int }

let name = function
  | Alloc _ -> "alloc"
  | Free _ -> "free"
  | Split _ -> "split"
  | Coalesce _ -> "coalesce"
  | Phase _ -> "phase"
  | Sbrk _ -> "sbrk"
  | Trim _ -> "trim"
  | Fit_scan _ -> "fit_scan"

(* The JSONL render is on the recording hot path (Jsonl_sink writes one
   line per probe event), so it goes through a caller-owned buffer with
   string_of_int rather than a sprintf per event. *)
let add_json b ~clock e =
  let field k v =
    Buffer.add_string b k;
    Buffer.add_string b (string_of_int v)
  in
  field "{\"t\":" clock;
  (match e with
  | Alloc { payload; gross; tag; addr } ->
    Buffer.add_string b ",\"ev\":\"alloc\"";
    field ",\"payload\":" payload;
    field ",\"gross\":" gross;
    field ",\"tag\":" tag;
    field ",\"addr\":" addr
  | Free { payload; addr } ->
    Buffer.add_string b ",\"ev\":\"free\"";
    field ",\"payload\":" payload;
    field ",\"addr\":" addr
  | Split { addr; parent; taken; remainder } ->
    Buffer.add_string b ",\"ev\":\"split\"";
    field ",\"addr\":" addr;
    field ",\"parent\":" parent;
    field ",\"taken\":" taken;
    field ",\"remainder\":" remainder
  | Coalesce { addr; merged; absorbed } ->
    Buffer.add_string b ",\"ev\":\"coalesce\"";
    field ",\"addr\":" addr;
    field ",\"merged\":" merged;
    field ",\"absorbed\":" absorbed
  | Phase p ->
    Buffer.add_string b ",\"ev\":\"phase\"";
    field ",\"id\":" p
  | Sbrk { bytes; brk } ->
    Buffer.add_string b ",\"ev\":\"sbrk\"";
    field ",\"bytes\":" bytes;
    field ",\"brk\":" brk
  | Trim { bytes; brk } ->
    Buffer.add_string b ",\"ev\":\"trim\"";
    field ",\"bytes\":" bytes;
    field ",\"brk\":" brk
  | Fit_scan { steps } ->
    Buffer.add_string b ",\"ev\":\"fit_scan\"";
    field ",\"steps\":" steps);
  Buffer.add_char b '}'

let to_json ~clock e =
  let b = Buffer.create 80 in
  add_json b ~clock e;
  Buffer.contents b

let pp ppf e =
  match e with
  | Alloc { payload; gross; tag; addr } ->
    Format.fprintf ppf "alloc payload=%d gross=%d tag=%d addr=%d" payload gross tag addr
  | Free { payload; addr } -> Format.fprintf ppf "free payload=%d addr=%d" payload addr
  | Split { addr; parent; taken; remainder } ->
    Format.fprintf ppf "split addr=%d parent=%d taken=%d remainder=%d" addr parent taken
      remainder
  | Coalesce { addr; merged; absorbed } ->
    Format.fprintf ppf "coalesce addr=%d merged=%d absorbed=%d" addr merged absorbed
  | Phase p -> Format.fprintf ppf "phase %d" p
  | Sbrk { bytes; brk } -> Format.fprintf ppf "sbrk bytes=%d brk=%d" bytes brk
  | Trim { bytes; brk } -> Format.fprintf ppf "trim bytes=%d brk=%d" bytes brk
  | Fit_scan { steps } -> Format.fprintf ppf "fit_scan steps=%d" steps
