#!/usr/bin/env bash
# Runs every BENCH_*.json perf emitter in the workspace and fails loudly
# if any of them is skipped or dies:
#
#   * lcm_perf        -> BENCH_lcm.json             distance-cached LCM vs
#                        reference likelihood/fit/prediction speedups,
#                        plus Cholesky, 5-task LCM, acquisition and
#                        small-n parallel fit (width 1 vs nproc) rows
#   * lcm_scale       -> BENCH_lcm_scale.json       incremental extension vs
#                        from-scratch rebuild across n (>= 5x at
#                        n = 4096)
#   * trace_overhead  -> BENCH_trace_overhead.json  tracing-enabled vs
#                        disabled overhead guard (<= 3%), plus the
#                        rolling-window metrics arm (windowed vs plain
#                        tracer on the live serve request path, same
#                        <= 3% bar)
#   * serve_bench     -> BENCH_serve.json           >= 1000 concurrent
#                        suggest/report sessions, p50/p99 request latency
#                        from the gptune-trace histograms, the
#                        kill-the-server WAL-replay, archive and eviction
#                        drills (0 lost reports; the archive drill's own
#                        journal-before-ack report p50/p99), the restore
#                        drill: open_session p50/p99 over 64 drained
#                        sessions restored from their surrogate images,
#                        with fits_during_open (must be 0), and refit
#                        counts by kind plus NLL-drift trips
#
# Each emitter validates its own acceptance bars and exits non-zero on a
# regression; this wrapper additionally verifies that every expected
# output file actually appeared, so a silently-skipped emitter cannot
# masquerade as a green run. New emitters must be registered in the
# EMITTERS table below — the final count check makes forgetting that a
# loud failure too.
#
# Like tier1.sh, every cargo call runs offline against the committed
# Cargo.lock.
#
# Usage: scripts/bench_perf.sh [output-dir]   (default: repo root)
set -uo pipefail
cd "$(dirname "$0")/.."

out_dir="${1:-.}"
mkdir -p "$out_dir"

# name | binary | output file (one emitter per line).
EMITTERS=(
  "lcm_perf|lcm_perf|BENCH_lcm.json"
  "lcm_scale|lcm_scale|BENCH_lcm_scale.json"
  "trace_overhead|trace_overhead|BENCH_trace_overhead.json"
  "serve_bench|serve_bench|BENCH_serve.json"
)

failures=0
produced=0
for spec in "${EMITTERS[@]}"; do
  IFS='|' read -r name bin out <<<"$spec"
  out_path="$out_dir/$out"
  rm -f "$out_path"
  echo "=== $name -> $out_path"
  if ! cargo run --offline --locked -q --release -p gptune-bench --bin "$bin" -- "$out_path"; then
    echo "bench_perf: FAIL: emitter $name exited non-zero" >&2
    failures=$((failures + 1))
    continue
  fi
  if [ ! -s "$out_path" ]; then
    echo "bench_perf: FAIL: emitter $name did not write $out_path" >&2
    failures=$((failures + 1))
    continue
  fi
  produced=$((produced + 1))
done

# Belt-and-braces: every emitter in the table must have produced output.
if [ "$produced" -ne "${#EMITTERS[@]}" ]; then
  echo "bench_perf: FAIL: $produced/${#EMITTERS[@]} emitters produced output" >&2
  failures=$((failures + 1))
fi

if [ "$failures" -gt 0 ]; then
  echo "bench_perf: $failures failure(s)" >&2
  exit 1
fi
echo "bench_perf: all ${#EMITTERS[@]} emitters OK"
