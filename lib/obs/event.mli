(** The allocation-event vocabulary of the observability layer.

    Every accounting-relevant step of a simulated run — from the heap
    break moving at the bottom of the stack to a block splitting inside a
    manager — is one of these events. Managers emit them through a
    {!Probe}; sinks reconstruct whatever view they need (aggregate
    counters, exact footprint series, structured exports) from the stream
    alone. *)

type t =
  | Alloc of { payload : int; gross : int; tag : int; addr : int }
      (** A block was handed to the application: [payload] requested
          bytes, [gross] bytes consumed inside the manager (tags, padding
          and size-class rounding included), of which [tag] bytes are
          boundary tags (headers/footers — 0 for tag-free managers), at
          payload address [addr]. [gross - tag - payload] is the block's
          internal padding, so the Section-4.1 footprint factors are
          reconstructible from the stream alone. *)
  | Free of { payload : int; addr : int }
      (** The block at payload address [addr] was released. *)
  | Split of { addr : int; parent : int; taken : int; remainder : int }
      (** The block at base address [addr] of [parent] gross bytes was
          split: [taken] bytes stay at [addr], the trailing [remainder]
          bytes (at [addr + taken]) went back to a free structure. The
          split algebra [taken + remainder = parent] is checkable from the
          stream alone (tags live inside the gross ranges). *)
  | Coalesce of { addr : int; merged : int; absorbed : int }
      (** Two adjacent free blocks merged into one of [merged] gross bytes
          at base address [addr]; the absorbed neighbour contributed
          [absorbed] bytes and sat at [addr + merged - absorbed]. *)
  | Phase of int  (** The application crossed a logical-phase boundary. *)
  | Sbrk of { bytes : int; brk : int }
      (** The heap break grew by [bytes] to [brk] — the footprint went
          up. *)
  | Trim of { bytes : int; brk : int }
      (** [bytes] were returned to the system, lowering the break to
          [brk] — the footprint went down. *)
  | Fit_scan of { steps : int }
      (** The manager spent [steps] abstract operations searching free
          structures, probing pools or paying system-call cost — the
          platform-independent work measure behind EXP-PERF. *)

val name : t -> string
(** Lowercase tag: ["alloc"], ["free"], ["split"], ["coalesce"],
    ["phase"], ["sbrk"], ["trim"] or ["fit_scan"]. *)

val add_json : Buffer.t -> clock:int -> t -> unit
(** Append the JSON render to a caller-owned buffer — the allocation-free
    path {!Jsonl_sink} records through. *)

val to_json : clock:int -> t -> string
(** One self-contained JSON object (no trailing newline):
    [{"t":<clock>,"ev":"<name>",...fields}]. The field set per event kind
    is documented in EXPERIMENTS.md. Equals what {!add_json} appends. *)

val pp : Format.formatter -> t -> unit
