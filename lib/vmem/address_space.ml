module Probe = Dmm_obs.Probe
module Obs_event = Dmm_obs.Event

type t = {
  page_size : int;
  probe : Probe.t;
  mutable brk : int;
  mutable high_water : int;
  mutable sbrk_calls : int;
  mutable trim_calls : int;
  mutable bytes_released : int;
  mutable arena : Bytes.t; (* flat zero-initialised view of [0, capacity) *)
}

let create ?(probe = Probe.null) ?(page_size = 4096) () =
  if page_size <= 0 then invalid_arg "Address_space.create: page_size must be positive";
  {
    page_size;
    probe;
    brk = 0;
    high_water = 0;
    sbrk_calls = 0;
    trim_calls = 0;
    bytes_released = 0;
    arena = Bytes.empty;
  }

let page_size t = t.page_size
let probe t = t.probe
let brk t = t.brk
let high_water t = t.high_water

let sbrk t n =
  if n < 0 then invalid_arg "Address_space.sbrk: negative growth";
  let base = t.brk in
  t.brk <- t.brk + n;
  if t.brk > t.high_water then t.high_water <- t.brk;
  t.sbrk_calls <- t.sbrk_calls + 1;
  if Probe.enabled t.probe then
    Probe.emit t.probe (Obs_event.Sbrk { bytes = n; brk = t.brk });
  base

let grow_pages t n =
  if n <= 0 then invalid_arg "Address_space.grow_pages: non-positive growth";
  let pages = (n + t.page_size - 1) / t.page_size in
  sbrk t (pages * t.page_size)

let trim t addr =
  if addr < 0 || addr > t.brk then invalid_arg "Address_space.trim: address out of range";
  let released = t.brk - addr in
  t.bytes_released <- t.bytes_released + released;
  t.brk <- addr;
  t.trim_calls <- t.trim_calls + 1;
  if Probe.enabled t.probe then
    Probe.emit t.probe (Obs_event.Trim { bytes = released; brk = t.brk })

let sbrk_calls t = t.sbrk_calls
let trim_calls t = t.trim_calls
let bytes_released t = t.bytes_released

(* --- flat arena view --------------------------------------------------------
   Allocators that keep their bookkeeping in-band (boundary tags, free-list
   links, occupancy bitmaps) read and write it through these accessors
   instead of heap-allocated records. The backing [Bytes.t] is grown lazily
   by amortised doubling and never shrinks on [trim] — stale bytes above the
   break are simply ignored, exactly like real memory returned to the OS
   and remapped later (fresh regions read as zero until written). *)

let arena_reserve t n =
  if Bytes.length t.arena < n then begin
    let cap = ref (max 4096 (Bytes.length t.arena)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let grown = Bytes.make !cap '\000' in
    Bytes.blit t.arena 0 grown 0 (Bytes.length t.arena);
    t.arena <- grown
  end

let arena_get32 t pos =
  if pos < 0 then invalid_arg "Address_space.arena_get32: negative position";
  if pos + 4 > Bytes.length t.arena then 0
  else Int32.to_int (Bytes.get_int32_le t.arena pos)

let arena_set32 t pos v =
  if pos < 0 then invalid_arg "Address_space.arena_set32: negative position";
  arena_reserve t (pos + 4);
  Bytes.set_int32_le t.arena pos (Int32.of_int v)

let arena_get8 t pos =
  if pos < 0 then invalid_arg "Address_space.arena_get8: negative position";
  if pos >= Bytes.length t.arena then 0 else Char.code (Bytes.unsafe_get t.arena pos)

let arena_set8 t pos v =
  if pos < 0 then invalid_arg "Address_space.arena_set8: negative position";
  arena_reserve t (pos + 1);
  Bytes.unsafe_set t.arena pos (Char.unsafe_chr (v land 0xff))

let pp ppf t =
  Format.fprintf ppf "brk=%d high_water=%d sbrk_calls=%d trim_calls=%d released=%d" t.brk
    t.high_water t.sbrk_calls t.trim_calls t.bytes_released
