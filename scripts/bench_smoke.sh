#!/bin/sh
# Quick determinism smoke test for the parallel simulation engine and the
# observability layer:
#   1. the benchmark driver must print byte-identical tables under
#      DMM_JOBS=1 and DMM_JOBS=2 (wall-clock lines ([time] ...) and the
#      Bechamel ns/replay numbers are nondeterministic by nature, so the
#      Bechamel section is skipped and timing lines are stripped);
#   2. `dmm table1` must print byte-identical tables with and without a
#      probe attached (--probe rebuilds every cell from event sinks);
#   3. a `dmm trace --jsonl` export must be well-formed and its sbrk/trim
#      deltas must reconstruct exactly the peak footprint `dmm replay`
#      reports for the same (trace, manager);
#   4. the heap sanitizer (`dmm check --strict`) must find zero diagnostics
#      in that export, and a live custom-design replay must pass both the
#      invariant and design-conformance passes clean;
#   5. `dmm report` over that export must expose the stream metrics
#      (Prometheus names included), and `dmm explore --telemetry` must
#      print identical simulator/explorer counters under DMM_JOBS=1 and 2;
#   6. `dmm profile` over that export must match the live-replay profile
#      byte for byte after the source line, its --json/--chrome exports
#      must be well-formed, and `dmm explore --advise` must skip B3
#      candidates without changing the footprint comparison;
#   7. against the committed BENCH_results.json, every peak-footprint row
#      (workload, manager, bytes, ops) must reproduce byte-identically —
#      speed work must never change simulated results — and no throughput
#      row may fall below 75% of the committed ops/sec;
#   8. `dmm convert` must round-trip the JSONL export through the binary
#      framing and back byte-identically, the sanitizer and analytics must
#      read the binary file transparently, and a truncated binary file
#      must be rejected;
#   9. the Merlin lifetime oracle must report exactly zero drag and zero
#      leaks on the scripted DRR replay (`dmm oracle -w`), `dmm check
#      --leaks` must pass the same replay and the JSONL export clean
#      under --strict, and the GC-heap client with lagged frees must
#      show nonzero drag and leaks with zero graph defects;
#  10. a short `dmm serve` soak: a sharded daemon on a unix socket must
#      ingest concurrent streams in both encodings, reject a malformed
#      one with a one-line error, expose its registry over /metrics plus
#      /healthz and /statusz (the malformed stream must flip health to
#      degraded via the SLO gate), write a well-formed one-line-JSON
#      access log with propagated trace ids, emit a merged Chrome trace
#      carrying all five request stages, and shut down cleanly with an
#      accurate summary line; the EXP-SERVE-OBS bench section must land
#      a serve_obs block in BENCH_results.json (overhead over 5% only
#      warns — wall clock is too noisy under QUICK for a hard gate);
#  11. `dmm explore --progress --trace-self` must emit live progress on
#      stderr and a balanced Chrome trace whose span tree covers >=95%
#      of the run's wall time, and `dmm report --prom` must carry the
#      dmm_search_* self-metrics;
#  12. the run ledger (BENCH_history.jsonl) must hold the two bench runs
#      just recorded with zero footprint-digest drift, and `dmm runs
#      diff` must exit non-zero on an injected 30% throughput regression
#      and on an injected digest change.
#
# Usage: scripts/bench_smoke.sh   (from the repository root)
set -eu

cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT INT TERM

dune build bench/main.exe bin/main.exe
dmm=_build/default/bin/main.exe

# The benchmark driver rewrites BENCH_results.json; keep the committed
# grid around as the reference for step 7 and restore it afterwards.
cp BENCH_results.json "$tmpdir/committed.json"

run() {
  jobs=$1
  out=$2
  DMM_JOBS="$jobs" DMM_BENCH_QUICK=1 DMM_BENCH_SKIP_WALL=1 \
    dune exec bench/main.exe 2>&1 |
    grep -v '^\[time\]' |
    grep -v '^wrote BENCH_results.json' > "$out"
}

echo "bench_smoke: running quick benchmark with DMM_JOBS=1..."
run 1 "$tmpdir/jobs1.out"
echo "bench_smoke: running quick benchmark with DMM_JOBS=2..."
run 2 "$tmpdir/jobs2.out"

if diff -u "$tmpdir/jobs1.out" "$tmpdir/jobs2.out"; then
  echo "bench_smoke: PASS (output identical under DMM_JOBS=1 and DMM_JOBS=2)"
else
  echo "bench_smoke: FAIL (parallel run diverges from sequential run)" >&2
  exit 1
fi

echo "bench_smoke: serve-observability overhead block in BENCH_results.json..."
# The fresh results (still on disk — the committed grid is restored
# below) must carry the EXP-SERVE-OBS block. Overhead above the 5%
# target is a soft warning only: the quick soak is far too short for a
# stable wall-clock ratio, so the hard gate lives in review of the
# committed full-run BENCH_results.json.
if ! grep -q '"serve_obs"' BENCH_results.json; then
  echo "bench_smoke: FAIL (no serve_obs block in BENCH_results.json)" >&2
  exit 1
fi
sobs_overhead=$(sed -n '/"serve_obs"/,/}/s/.*"overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' \
  BENCH_results.json)
if [ -z "$sobs_overhead" ]; then
  echo "bench_smoke: FAIL (serve_obs block has no overhead_pct)" >&2
  exit 1
fi
if awk "BEGIN { exit !($sobs_overhead > 5.0) }"; then
  echo "bench_smoke: WARN (serve observability overhead $sobs_overhead% exceeds the 5% target)" >&2
else
  echo "bench_smoke: PASS (serve observability overhead $sobs_overhead% within the 5% target)"
fi

echo "bench_smoke: footprint identity and throughput floor vs the committed grid..."
# BENCH_results.json writes one row object per line, so the grids extract
# with sed alone. Footprint rows carry the simulated results (bytes, ops)
# and must match the committed file exactly; throughput rows are wall
# clock, so they only have to clear 75% of the committed ops/sec.
footprint_rows() {
  sed -n '/"peak_footprints": \[/,/^  \]/p' "$1" |
    sed -n 's/.*"workload": "\([^"]*\)", "manager": "\([^"]*\)", "bytes": \([0-9]*\), "ops": \([0-9]*\).*/\1|\2|\3|\4/p'
}
throughput_rows() {
  sed -n '/"throughput": \[/,/^  \]/p' "$1" |
    sed -n 's/.*"workload": "\([^"]*\)", "manager": "\([^"]*\)",.*"ops_per_sec": \([0-9]*\).*/\1|\2|\3/p'
}
footprint_rows "$tmpdir/committed.json" > "$tmpdir/fp_committed.rows"
footprint_rows BENCH_results.json > "$tmpdir/fp_fresh.rows"
throughput_rows "$tmpdir/committed.json" > "$tmpdir/thru_committed.rows"
throughput_rows BENCH_results.json > "$tmpdir/thru_fresh.rows"
cp "$tmpdir/committed.json" BENCH_results.json
if [ ! -s "$tmpdir/fp_committed.rows" ] || [ ! -s "$tmpdir/thru_committed.rows" ]; then
  echo "bench_smoke: FAIL (no peak_footprints/throughput rows in the committed BENCH_results.json)" >&2
  exit 1
fi
# Every committed footprint row must reappear with the same bytes and ops;
# extra rows (a manager added since the commit) are fine.
if awk -F'|' '
    NR == FNR { fresh[$1 "|" $2] = $3 "|" $4; next }
    {
      key = $1 "|" $2
      if (!(key in fresh)) { printf "  missing row: %s\n", key; bad = 1 }
      else if (fresh[key] != $3 "|" $4) {
        printf "  %s: committed bytes|ops %s|%s, fresh %s\n", key, $3, $4, fresh[key]
        bad = 1
      }
    }
    END { exit bad }
  ' "$tmpdir/fp_fresh.rows" "$tmpdir/fp_committed.rows"; then
  echo "bench_smoke: PASS (peak footprints byte-identical to the committed grid)"
else
  echo "bench_smoke: FAIL (peak footprints diverge from the committed BENCH_results.json)" >&2
  exit 1
fi
if awk -F'|' '
    NR == FNR { fresh[$1 "|" $2] = $3; next }
    {
      key = $1 "|" $2
      if (!(key in fresh)) { printf "  missing row: %s\n", key; bad = 1 }
      else if (fresh[key] + 0 < 0.75 * $3) {
        printf "  %s: %d ops/s < 75%% of committed %d\n", key, fresh[key], $3
        bad = 1
      }
    }
    END { exit bad }
  ' "$tmpdir/thru_fresh.rows" "$tmpdir/thru_committed.rows"; then
  echo "bench_smoke: PASS (replay throughput within 25% of the committed numbers)"
else
  echo "bench_smoke: FAIL (replay throughput regressed past the 25% floor)" >&2
  exit 1
fi

echo "bench_smoke: comparing dmm table1 with and without the probe..."
"$dmm" table1 --quick --seeds 1 > "$tmpdir/t1_off.out"
"$dmm" table1 --quick --seeds 1 --probe > "$tmpdir/t1_on.out"
if diff -u "$tmpdir/t1_off.out" "$tmpdir/t1_on.out"; then
  echo "bench_smoke: PASS (probe-on Table 1 identical to probe-off)"
else
  echo "bench_smoke: FAIL (probe-on Table 1 diverges from probe-off)" >&2
  exit 1
fi

echo "bench_smoke: validating a JSONL probe export..."
"$dmm" trace -w drr --quick --seed 1 -o "$tmpdir/drr.trace" --jsonl "$tmpdir/drr.jsonl" -m lea \
  > "$tmpdir/trace.out"
# Every line must be a {"t":N,"ev":"<name>",...} object with a known event
# name and a strictly increasing clock; sbrk minus trim reconstructs the
# footprint, whose running maximum must equal the replayed peak.
jsonl_peak=$(awk -F'"' '
  !/^\{"t":[0-9]+,"ev":"(alloc|free|split|coalesce|phase|sbrk|trim|fit_scan)",.*\}$/ {
    print "bad line " NR ": " $0 > "/dev/stderr"; bad = 1; exit 1
  }
  { split($0, f, /[:,]/); t = f[2] + 0
    if (t != NR - 1) { print "clock gap at line " NR > "/dev/stderr"; bad = 1; exit 1 } }
  $6 == "sbrk" || $6 == "trim" {
    bytes = $0; sub(/.*"bytes":/, "", bytes); sub(/,.*/, "", bytes)
    cur += ($6 == "sbrk" ? bytes : -bytes)
    if (cur > peak) peak = cur
  }
  END { if (!bad) print peak }
' "$tmpdir/drr.jsonl")
replay_peak=$("$dmm" replay -t "$tmpdir/drr.trace" -m lea |
  awk '/max footprint:/ { print $3 }')
if [ "$jsonl_peak" = "$replay_peak" ]; then
  echo "bench_smoke: PASS (JSONL well-formed; reconstructed peak $jsonl_peak B = replay peak)"
else
  echo "bench_smoke: FAIL (JSONL peak $jsonl_peak B != replay peak $replay_peak B)" >&2
  exit 1
fi

echo "bench_smoke: sanitizing the JSONL export and a custom-design replay..."
if "$dmm" check --jsonl "$tmpdir/drr.jsonl" --strict > "$tmpdir/check_jsonl.out"; then
  echo "bench_smoke: PASS (offline sanitizer clean: $(head -n 1 "$tmpdir/check_jsonl.out"))"
else
  echo "bench_smoke: FAIL (sanitizer flagged the JSONL export)" >&2
  cat "$tmpdir/check_jsonl.out" >&2
  exit 1
fi
if "$dmm" check -w drr --quick --seed 1 -m custom --strict > "$tmpdir/check_custom.out"; then
  echo "bench_smoke: PASS (custom design conformance clean: $(head -n 1 "$tmpdir/check_custom.out"))"
else
  echo "bench_smoke: FAIL (custom design failed the sanitizer)" >&2
  cat "$tmpdir/check_custom.out" >&2
  exit 1
fi

echo "bench_smoke: stream analytics over the JSONL export..."
"$dmm" report --jsonl "$tmpdir/drr.jsonl" --prom "$tmpdir/drr.prom" \
  > "$tmpdir/report.out"
for needle in \
  'fragmentation (Section 4.1 factors)' \
  'request bytes' \
  'size classes'
do
  if ! grep -q "$needle" "$tmpdir/report.out"; then
    echo "bench_smoke: FAIL (dmm report output missing \"$needle\")" >&2
    exit 1
  fi
done
for metric in dmm_events_total dmm_request_size_bytes dmm_footprint_bytes \
  dmm_search_replayed_events_total; do
  if ! grep -q "^$metric" "$tmpdir/drr.prom"; then
    echo "bench_smoke: FAIL (Prometheus export missing $metric)" >&2
    exit 1
  fi
done
echo "bench_smoke: PASS (dmm report text + Prometheus exposition complete)"

echo "bench_smoke: engine telemetry determinism across worker counts..."
telem() {
  "$dmm" explore -w drr --quick --seed 1 --jobs "$1" --telemetry |
    grep -E '^dmm_(sim|explorer)_'
}
telem 1 > "$tmpdir/telem1.out"
telem 2 > "$tmpdir/telem2.out"
if ! grep -q '^dmm_sim_memo_hits_total' "$tmpdir/telem1.out"; then
  echo "bench_smoke: FAIL (explore --telemetry missing dmm_sim_memo_hits_total)" >&2
  exit 1
fi
if diff -u "$tmpdir/telem1.out" "$tmpdir/telem2.out"; then
  echo "bench_smoke: PASS (telemetry counters identical under DMM_JOBS=1 and 2)"
else
  echo "bench_smoke: FAIL (telemetry counters depend on the worker count)" >&2
  exit 1
fi

echo "bench_smoke: self-tracing an advised exploration..."
# The explorer tracing itself: live [progress] lines on stderr, a Chrome
# trace of the run's own spans on disk (kept in the workspace so CI can
# upload it), coverage >= 95% of wall time, and balanced B/E pairs.
DMM_LEDGER="$tmpdir/explore_ledger.jsonl" \
  "$dmm" explore -w drr --quick --seed 1 --jobs 2 --advise \
  --progress --trace-self _build/explore_selftrace.json \
  > "$tmpdir/explore_trace.out" 2> "$tmpdir/explore_progress.err"
if ! grep -q '^\[progress\] round ' "$tmpdir/explore_progress.err" ||
   ! grep -q '^\[progress\] batch ' "$tmpdir/explore_progress.err"; then
  echo "bench_smoke: FAIL (--progress produced no live progress lines)" >&2
  cat "$tmpdir/explore_progress.err" >&2
  exit 1
fi
coverage=$(sed -n 's/^self-trace: wrote .* spans, \([0-9.]*\)% of .*/\1/p' \
  "$tmpdir/explore_trace.out")
if [ -z "$coverage" ]; then
  echo "bench_smoke: FAIL (no self-trace summary line on stdout)" >&2
  cat "$tmpdir/explore_trace.out" >&2
  exit 1
fi
if ! awk "BEGIN { exit !($coverage >= 95.0) }"; then
  echo "bench_smoke: FAIL (self-trace covers only $coverage% of wall time, need >=95%)" >&2
  exit 1
fi
self_b=$(grep -c '"ph":"B"' _build/explore_selftrace.json || true)
self_e=$(grep -c '"ph":"E"' _build/explore_selftrace.json || true)
if [ "$self_b" -gt 0 ] && [ "$self_b" = "$self_e" ]; then
  echo "bench_smoke: PASS (self-trace balanced: $self_b B/E pairs, $coverage% coverage)"
else
  echo "bench_smoke: FAIL (self-trace unbalanced: B=$self_b E=$self_e)" >&2
  exit 1
fi
if [ "$(wc -l < "$tmpdir/explore_ledger.jsonl")" != 1 ]; then
  echo "bench_smoke: FAIL (explore did not append exactly one ledger record)" >&2
  exit 1
fi

echo "bench_smoke: lifetime profiler over the JSONL export vs a live replay..."
"$dmm" profile --jsonl "$tmpdir/drr.jsonl" | tail -n +2 > "$tmpdir/profile_off.out"
"$dmm" profile -w drr --quick --seed 1 -m lea | tail -n +2 > "$tmpdir/profile_live.out"
"$dmm" profile --jsonl "$tmpdir/drr.jsonl" \
  --json "$tmpdir/profile.json" --chrome "$tmpdir/profile.trace" > /dev/null
if diff -u "$tmpdir/profile_off.out" "$tmpdir/profile_live.out"; then
  echo "bench_smoke: PASS (offline profile identical to live replay after the source line)"
else
  echo "bench_smoke: FAIL (offline profile diverges from live replay)" >&2
  exit 1
fi
for needle in '"spans"' '"size_classes"' '"phases"' '"heatmap"'; do
  if ! grep -q "$needle" "$tmpdir/profile.json"; then
    echo "bench_smoke: FAIL (profile JSON export missing $needle)" >&2
    exit 1
  fi
done
spans=$(awk '/^  completed/ { print $2 }' "$tmpdir/profile_off.out")
begins=$(grep -c '"ph":"b"' "$tmpdir/profile.trace")
ends=$(grep -c '"ph":"e"' "$tmpdir/profile.trace")
if [ "$spans" -gt 0 ] && [ "$begins" = "$spans" ] && [ "$ends" = "$spans" ]; then
  echo "bench_smoke: PASS (chrome export has one async b/e pair per span: $spans)"
else
  echo "bench_smoke: FAIL (chrome export pairs b=$begins e=$ends != spans=$spans)" >&2
  exit 1
fi

echo "bench_smoke: profile-advised exploration vs exhaustive..."
"$dmm" explore -w drr --quick --seed 1 |
  grep -A 6 'footprint comparison' > "$tmpdir/fp_exhaustive.out"
"$dmm" explore -w drr --quick --seed 1 --advise > "$tmpdir/explore_advised.out"
grep -A 6 'footprint comparison' "$tmpdir/explore_advised.out" > "$tmpdir/fp_advised.out"
skipped=$(awk '/^advisor skipped/ { print $3 }' "$tmpdir/explore_advised.out")
if [ -z "$skipped" ] || [ "$skipped" -le 0 ]; then
  echo "bench_smoke: FAIL (dmm explore --advise skipped no candidates)" >&2
  exit 1
fi
if diff -u "$tmpdir/fp_exhaustive.out" "$tmpdir/fp_advised.out"; then
  echo "bench_smoke: PASS (advisor skipped $skipped candidates; footprint comparison unchanged)"
else
  echo "bench_smoke: FAIL (advised exploration changed the footprint comparison)" >&2
  exit 1
fi

echo "bench_smoke: binary codec round-trip and transparent binary reads..."
"$dmm" convert -i "$tmpdir/drr.jsonl" -o "$tmpdir/drr.dmmt" > /dev/null
"$dmm" convert -i "$tmpdir/drr.dmmt" -o "$tmpdir/drr2.jsonl" > /dev/null
"$dmm" convert -i "$tmpdir/drr2.jsonl" -o "$tmpdir/drr2.dmmt" > /dev/null
if cmp -s "$tmpdir/drr.jsonl" "$tmpdir/drr2.jsonl" &&
   cmp -s "$tmpdir/drr.dmmt" "$tmpdir/drr2.dmmt"; then
  echo "bench_smoke: PASS (convert round-trips both encodings byte-identically)"
else
  echo "bench_smoke: FAIL (convert round-trip is not the identity)" >&2
  exit 1
fi
if ! "$dmm" check --stream "$tmpdir/drr.dmmt" --strict > "$tmpdir/check_bin.out"; then
  echo "bench_smoke: FAIL (sanitizer flagged the binary export)" >&2
  cat "$tmpdir/check_bin.out" >&2
  exit 1
fi
"$dmm" report --stream "$tmpdir/drr.dmmt" | tail -n +2 > "$tmpdir/report_bin.out"
"$dmm" report --stream "$tmpdir/drr.jsonl" | tail -n +2 > "$tmpdir/report_jsonl.out"
if diff -u "$tmpdir/report_jsonl.out" "$tmpdir/report_bin.out"; then
  echo "bench_smoke: PASS (report identical over JSONL and binary after the source line)"
else
  echo "bench_smoke: FAIL (report over the binary file diverges from JSONL)" >&2
  exit 1
fi
head -c 100 "$tmpdir/drr.dmmt" > "$tmpdir/trunc.dmmt"
if "$dmm" check --stream "$tmpdir/trunc.dmmt" > /dev/null 2>&1; then
  echo "bench_smoke: FAIL (truncated binary stream was accepted)" >&2
  exit 1
fi
echo "bench_smoke: PASS (truncated binary stream rejected)"

echo "bench_smoke: lifetime oracle over the scripted replay and the GC-heap client..."
# A scripted replay frees every block exactly when it dies, so any drag
# or leak the oracle reports there is a false positive.
"$dmm" oracle -w drr --quick --seed 1 -m lea > "$tmpdir/oracle_drr.out"
if grep -q ', leaked 0, live at end 0$' "$tmpdir/oracle_drr.out" &&
   grep -q '^  drag: count [0-9]*, p50 0, p99 0, max 0, total 0 clocks$' \
     "$tmpdir/oracle_drr.out"; then
  echo "bench_smoke: PASS (oracle: zero drag, zero leaks on the scripted replay)"
else
  echo "bench_smoke: FAIL (oracle found drag or leaks in a scripted replay)" >&2
  cat "$tmpdir/oracle_drr.out" >&2
  exit 1
fi
if "$dmm" check -w drr --quick --seed 1 -m lea --leaks --strict > "$tmpdir/leaks_live.out" &&
   "$dmm" check --jsonl "$tmpdir/drr.jsonl" --leaks --strict > "$tmpdir/leaks_off.out"; then
  echo "bench_smoke: PASS (dmm check --leaks clean: $(head -n 1 "$tmpdir/leaks_live.out"))"
else
  echo "bench_smoke: FAIL (dmm check --leaks flagged a leak-free stream)" >&2
  cat "$tmpdir/leaks_live.out" "$tmpdir/leaks_off.out" >&2
  exit 1
fi
"$dmm" oracle --gcheap --seed 7 --nodes 150 --lag 20 > "$tmpdir/oracle_gc.out"
gc_leaked=$(sed -n 's/^  freed [0-9]*, leaked \([0-9]*\),.*/\1/p' "$tmpdir/oracle_gc.out")
gc_drag=$(sed -n 's/^  drag: count [0-9]*, p50 \([0-9]*\),.*/\1/p' "$tmpdir/oracle_gc.out")
if [ -n "$gc_leaked" ] && [ "$gc_leaked" -gt 0 ] &&
   [ -n "$gc_drag" ] && [ "$gc_drag" -gt 0 ] &&
   ! grep -q 'graph defects' "$tmpdir/oracle_gc.out"; then
  echo "bench_smoke: PASS (gcheap client: $gc_leaked leaks, drag p50 $gc_drag clocks, no defects)"
else
  echo "bench_smoke: FAIL (gcheap oracle run missing expected drag/leak signal)" >&2
  cat "$tmpdir/oracle_gc.out" >&2
  exit 1
fi

echo "bench_smoke: short dmm serve soak over a unix socket..."
printf 'garbage\n' > "$tmpdir/bad.txt"
"$dmm" serve --listen "$tmpdir/ingest.sock" --metrics "$tmpdir/metrics.sock" \
  --exit-after 4 --jobs 2 \
  --trace _build/serve_trace.json --access-log _build/serve_access.jsonl \
  > "$tmpdir/serve.out" 2> "$tmpdir/serve.err" &
serve_pid=$!
for _ in $(seq 200); do
  if [ -S "$tmpdir/ingest.sock" ]; then break; fi
  sleep 0.05
done
"$dmm" feed --to "$tmpdir/ingest.sock" --ctx "$tmpdir/drr.jsonl" "$tmpdir/drr.dmmt" \
  > "$tmpdir/feed_ok.out"
if [ "$(grep -c ': ok ' "$tmpdir/feed_ok.out")" != 2 ]; then
  echo "bench_smoke: FAIL (serve did not accept both encodings)" >&2
  cat "$tmpdir/feed_ok.out" >&2
  exit 1
fi
if "$dmm" feed --to "$tmpdir/ingest.sock" "$tmpdir/bad.txt" > "$tmpdir/feed_bad.out"; then
  echo "bench_smoke: FAIL (serve accepted a malformed stream)" >&2
  exit 1
fi
if ! grep -q 'error: line 1:' "$tmpdir/feed_bad.out"; then
  echo "bench_smoke: FAIL (malformed stream did not yield a one-line error)" >&2
  cat "$tmpdir/feed_bad.out" >&2
  exit 1
fi
"$dmm" scrape "$tmpdir/metrics.sock" > "$tmpdir/metrics.out"
for metric in dmm_ingest_streams_total dmm_ingest_errors_total dmm_events_total \
  'dmm_ingest_queue_depth{shard="0"}' 'dmm_ingest_queue_depth{shard="1"}' \
  dmm_ingest_stalls_total dmm_ingest_bytes_total; do
  if ! grep -qF "$metric" "$tmpdir/metrics.out"; then
    echo "bench_smoke: FAIL (/metrics missing $metric)" >&2
    exit 1
  fi
done
# Three streams in, one of them garbage: the SLO gate (default 5% error
# budget) must have flipped /healthz to degraded, and /statusz must carry
# the per-shard queue depths and ingest tail latency.
"$dmm" scrape "$tmpdir/metrics.sock" --path /healthz > "$tmpdir/healthz.out"
if ! grep -q '^degraded: error rate' "$tmpdir/healthz.out"; then
  echo "bench_smoke: FAIL (/healthz not degraded after a malformed stream)" >&2
  cat "$tmpdir/healthz.out" >&2
  exit 1
fi
"$dmm" scrape "$tmpdir/metrics.sock" --path /statusz > "$tmpdir/statusz.out"
for key in '"status":"degraded"' '"queue_depths":[0,0]' '"ingest_p99_us":' \
  '"active_streams":0' '"streams_total":3' '"errors_total":1'; do
  if ! grep -qF "$key" "$tmpdir/statusz.out"; then
    echo "bench_smoke: FAIL (/statusz missing $key)" >&2
    cat "$tmpdir/statusz.out" >&2
    exit 1
  fi
done
echo "bench_smoke: PASS (/healthz degraded on SLO breach, /statusz complete)"
"$dmm" feed --to "$tmpdir/ingest.sock" "$tmpdir/drr.dmmt" > /dev/null
wait "$serve_pid"
if grep -q '^serve: done: 4 streams, .* 1 stream errors$' "$tmpdir/serve.out"; then
  echo "bench_smoke: PASS (serve ingested 4 streams, flagged 1 error, exited cleanly)"
else
  echo "bench_smoke: FAIL (serve summary line missing or wrong)" >&2
  cat "$tmpdir/serve.out" "$tmpdir/serve.err" >&2
  exit 1
fi
# Access log: one well-formed JSON record per connection, in the field
# order the serve loop writes, with the feeder's trace ids propagated
# over the wire for the two --ctx streams.
if [ "$(wc -l < _build/serve_access.jsonl)" != 4 ]; then
  echo "bench_smoke: FAIL (access log does not hold one record per connection)" >&2
  cat _build/serve_access.jsonl >&2
  exit 1
fi
if [ "$(grep -c '^{"ts":"20.*"shard":.*"trace_id":.*"status":.*"total_us":[0-9]*}$' \
  _build/serve_access.jsonl)" != 4 ]; then
  echo "bench_smoke: FAIL (malformed access-log record)" >&2
  cat _build/serve_access.jsonl >&2
  exit 1
fi
if [ "$(grep -c '"trace_id":"[0-9a-f]\{32\}"' _build/serve_access.jsonl)" != 2 ]; then
  echo "bench_smoke: FAIL (expected exactly 2 records with propagated trace ids)" >&2
  cat _build/serve_access.jsonl >&2
  exit 1
fi
if [ "$(grep -c '"status":"error"' _build/serve_access.jsonl)" != 1 ]; then
  echo "bench_smoke: FAIL (malformed stream missing from the access log)" >&2
  cat _build/serve_access.jsonl >&2
  exit 1
fi
# Merged Chrome trace: every connection contributes all five request
# stages, and the B/E halves pair up.
for stage in conn queue.wait decode feed finalize; do
  if [ "$(grep -c "\"name\":\"$stage\"" _build/serve_trace.json)" != 4 ]; then
    echo "bench_smoke: FAIL (serve trace missing stage $stage x4)" >&2
    exit 1
  fi
done
srv_b=$(grep -c '"ph":"B"' _build/serve_trace.json || true)
srv_e=$(grep -c '"ph":"E"' _build/serve_trace.json || true)
if [ "$srv_b" -gt 0 ] && [ "$srv_b" = "$srv_e" ]; then
  echo "bench_smoke: PASS (access log well-formed, serve trace balanced: $srv_b spans, 5 stages x4)"
else
  echo "bench_smoke: FAIL (serve trace unbalanced: B=$srv_b E=$srv_e)" >&2
  exit 1
fi

echo "bench_smoke: run-ledger regression gate..."
# The two quick bench runs above each appended a record to the ledger
# (kept in the workspace so CI can upload it). Their footprint digests
# must agree exactly; throughput gets a wide 60% margin because jobs=1
# vs jobs=2 wall clocks legitimately differ.
if [ ! -f BENCH_history.jsonl ]; then
  echo "bench_smoke: FAIL (bench runs did not create BENCH_history.jsonl)" >&2
  exit 1
fi
if "$dmm" runs diff --ledger BENCH_history.jsonl --cmd bench --threshold 60 \
  > "$tmpdir/runs_diff.out"; then
  echo "bench_smoke: PASS (ledger: $(sed -n '2p' "$tmpdir/runs_diff.out" | sed 's/^ *//'))"
else
  echo "bench_smoke: FAIL (dmm runs diff flagged the two fresh bench runs)" >&2
  cat "$tmpdir/runs_diff.out" >&2
  exit 1
fi
# Inject a 30% throughput regression into a copy: the gate must trip.
# (The explore steps above appended records of their own, so take the
# numbers from the last *bench* record, not the last line.)
cp BENCH_history.jsonl "$tmpdir/regress.jsonl"
last_bench=$(grep '"cmd":"bench"' "$tmpdir/regress.jsonl" | tail -n 1)
last_sps=$(printf '%s\n' "$last_bench" | sed -n 's/.*"sims_per_sec":\([0-9.]*\).*/\1/p')
last_digest=$(printf '%s\n' "$last_bench" | sed -n 's/.*"digest":"\([^"]*\)".*/\1/p')
slow=$(awk "BEGIN { printf \"%.3f\", $last_sps * 0.7 }")
"$dmm" runs record --ledger "$tmpdir/regress.jsonl" --cmd bench \
  --scenario bench-quick --jobs 2 --wall 1 --sims 1 \
  --sims-per-sec "$slow" --digest "$last_digest" --git synthetic > /dev/null
if "$dmm" runs diff --ledger "$tmpdir/regress.jsonl" --cmd bench \
  > "$tmpdir/runs_regress.out"; then
  echo "bench_smoke: FAIL (30% throughput regression not detected)" >&2
  cat "$tmpdir/runs_regress.out" >&2
  exit 1
fi
if ! grep -q 'REGRESSION' "$tmpdir/runs_regress.out"; then
  echo "bench_smoke: FAIL (regression diff did not name the regression)" >&2
  cat "$tmpdir/runs_regress.out" >&2
  exit 1
fi
# And an altered digest (same throughput) must trip the drift check.
cp BENCH_history.jsonl "$tmpdir/drift.jsonl"
"$dmm" runs record --ledger "$tmpdir/drift.jsonl" --cmd bench \
  --scenario bench-quick --jobs 2 --wall 1 --sims 1 \
  --sims-per-sec "$last_sps" --digest 0000000000000000 --git synthetic > /dev/null
if "$dmm" runs diff --ledger "$tmpdir/drift.jsonl" --cmd bench \
  > "$tmpdir/runs_drift.out"; then
  echo "bench_smoke: FAIL (footprint digest drift not detected)" >&2
  cat "$tmpdir/runs_drift.out" >&2
  exit 1
fi
if ! grep -q 'DRIFT' "$tmpdir/runs_drift.out"; then
  echo "bench_smoke: FAIL (drift diff did not name the drift)" >&2
  cat "$tmpdir/runs_drift.out" >&2
  exit 1
fi
echo "bench_smoke: PASS (runs diff: zero drift live, trips on injected regression + drift)"
