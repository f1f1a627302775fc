#!/usr/bin/env bash
# Tier-1 gate: everything must build, pass tests, and be lint-clean. The
# workspace is std-only, so every cargo call runs offline against the
# committed Cargo.lock.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --offline --locked --release --workspace
# The root package is not a virtual workspace and has no default-members,
# so without --workspace only its own tests would run. This one run also
# holds two gates of the root package:
# - Chaos gate (tests/chaos.rs): MLA under injected crashes/hangs/transients
#   must complete, resume deterministically, and skip journaled crashers.
# - Protocol chaos gate (tests/serve_chaos.rs): a real client through the
#   deterministic fault proxy (resets, torn/oversized frames, duplicates,
#   delays) plus the server kill-restart and eviction drills must lose zero
#   reports and leave a bit-identical history.
cargo test --offline --locked -q --workspace
# Hot-path equivalence smoke in release mode: the distance-cached NLL,
# W ∘ K gradients, and batched prediction must match their retained
# pre-refactor references to ≤ 1e-12 under the optimizer's reassociations.
cargo test --offline --locked -q --release -p gptune-gp --test equivalence
# Incremental-LCM equivalence smoke in release mode: 64 sequential rank-1
# row extensions must match a from-scratch rebuild to ≤ 1e-10, and the
# ModelState image left by every update of an incremental schedule (full,
# incremental, duplicate point, the next scheduled full refit) must restore
# a surrogate bit-identical to the live one without running a fit -- see
# crates/gp/tests/incremental.rs.
cargo test --offline --locked -q --release -p gptune-gp --test incremental
cargo fmt --all -- --check
# Clippy also carries the panic-freedom policy: runtime and db deny
# unwrap/expect/panic!/unreachable!/todo!/unimplemented!/bare indexing and
# reasonless #[allow]s outside tests, core the same list except indexing
# (see their crate roots). `unsafe` is forbidden workspace-wide by the root
# [workspace.lints.rust] table, so the build steps already reject it.
cargo clippy --offline --locked --workspace --all-targets -- -D warnings
# Rustdoc gate: a dangling or private intra-doc link fails.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --locked --no-deps --workspace
# Domain-specific lint suite (NaN-safety, serve socket deadlines,
# determinism, observability, the dependency allowlist) plus the GX7xx
# workspace concurrency tier (lock-order graph, interprocedural
# guard-across-blocking summaries) -- see DESIGN.md section 6. -D
# semantics: any finding fails the gate. The full sweep must stay interactive
# (< 10s wall) so it never gets skipped locally; the binary is built
# above by `cargo build --release --workspace` (without `--workspace` only
# the root package is built), so this times the lint itself.
lint_start="$(date +%s%N)"
cargo run --offline --locked -q --release -p gptune-xtask -- lint
lint_ms="$(( ($(date +%s%N) - lint_start) / 1000000 ))"
echo "gptune-xtask lint wall time: ${lint_ms}ms"
if [ "$lint_ms" -ge 10000 ]; then
  echo "gptune-xtask lint took ${lint_ms}ms (>= 10s budget)" >&2
  exit 1
fi
# Trace smoke gate: a tiny traced MLA must export a JSONL trace that
# trace_tool summarizes cleanly, with at least one modeling span per
# iteration (5 iterations at budget 10 on 2 tasks).
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run --offline --locked -q --release --example trace_tool -- demo "$trace_dir/trace.jsonl"
cargo run --offline --locked -q --release --example trace_tool -- summarize "$trace_dir/trace.jsonl" \
  --chrome "$trace_dir/trace_chrome.json"
modeling_spans="$(grep -c '"name":"gptune.core.modeling"' "$trace_dir/trace.jsonl" || true)"
if [ "$modeling_spans" -lt 5 ]; then
  echo "trace smoke: expected >= 1 modeling span per iteration (5), got $modeling_spans" >&2
  exit 1
fi
# CLI archive smoke gate: `gptune-cli tune --db` must archive all 6
# evaluations of a one-task run and print the archive's summary.
cli_out="$(cargo run --offline --locked -q --release --bin gptune-cli -- tune --app pdgeqrf \
  --tasks 8000x8000 --budget 6 --db "$trace_dir/cli_db")"
if ! echo "$cli_out" | grep -q 'archived evals: 6$'; then
  echo "cli smoke: expected 'archived evals: 6' in the runlog" >&2
  echo "$cli_out" >&2
  exit 1
fi
# Shard smoke gate: `db_tool shard ... by-task` must split that archive
# into v2 shards (one for the task's 6 evals, one for the run summary) that
# `db_tool inspect` reads back as all 7 entries.
cli_journals=("$trace_dir"/cli_db/*.jsonl)
if [ "${#cli_journals[@]}" -ne 1 ] || [ ! -f "${cli_journals[0]}" ]; then
  echo "shard smoke: expected one journal in the CLI archive, got ${cli_journals[*]}" >&2
  exit 1
fi
cargo run --offline --locked -q --release --example db_tool -- shard "$trace_dir/cli_db" \
  "$(basename "${cli_journals[0]}")" by-task
inspect_out="$(cargo run --offline --locked -q --release --example db_tool -- inspect "$trace_dir/cli_db")"
if ! echo "$inspect_out" | grep -qF 'sharded (by-task policy, 2 shards)' ||
  ! echo "$inspect_out" | grep -qF 'combined (deduplicated): 7 entries'; then
  echo "shard smoke: expected 2 by-task shards holding 7 entries" >&2
  echo "$inspect_out" >&2
  exit 1
fi
# Serve smoke gate: a scaled-down serve_bench burst (32 concurrent
# sessions over 8 client connections) plus the kill-the-server WAL-replay,
# archive kill-restart, and eviction drills. The binary exits non-zero on
# any request error, missing latency histogram, lost report, history
# divergence, or cap breach, so a bare run is the assertion.
cargo run --offline --locked -q --release -p gptune-bench --bin serve_bench -- "$trace_dir/BENCH_serve_smoke.json" --smoke
# Both durability sections (WAL kill drill and archive kill-restart)
# report a lost_reports field; every one of them must be exactly 0.
while read -r lost; do
  if [ "$lost" != "0" ]; then
    echo "serve smoke: a durability drill lost $lost report(s)" >&2
    exit 1
  fi
done < <(grep -o '"lost_reports": [0-9-]*' "$trace_dir/BENCH_serve_smoke.json" | grep -o '[0-9-]*$')
# A failed archive load, append (a journal lock timeout included), flush or
# purge counts in robustness_counters.archive_errors; it must read 0.
archive_errors="$(grep -o '"archive_errors": [0-9]*' "$trace_dir/BENCH_serve_smoke.json" |
  grep -o '[0-9]*$' || true)"
if [ "$archive_errors" != "0" ]; then
  echo "serve smoke: archive_errors is '${archive_errors}', expected 0" >&2
  exit 1
fi
if ! grep -q '"bit_identical": true' "$trace_dir/BENCH_serve_smoke.json"; then
  echo "serve smoke: post-recovery history diverged from the clean run" >&2
  exit 1
fi
# Observability smoke gate: obs_tool --smoke stands up a real server,
# drives a WAL-backed burst, scrapes the live `metrics` endpoint (exit 2
# if the dashboard would render zero traffic), and dumps both sides'
# JSONL traces; trace_tool correlate must then link every acknowledged
# client rpc to its server-side spans by request id.
cargo run --offline --locked -q --release --example obs_tool -- --smoke "$trace_dir/obs"
correlate_out="$(cargo run --offline --locked -q --release --example trace_tool -- correlate \
  "$trace_dir/obs/client.jsonl" "$trace_dir/obs/server.jsonl")"
echo "$correlate_out" | tail -n 1
if ! echo "$correlate_out" | grep -q '(100.0% of acked)'; then
  echo "obs smoke: correlate did not link 100% of acked requests" >&2
  exit 1
fi
if echo "$correlate_out" | grep -q ' 0 acked'; then
  echo "obs smoke: no acknowledged requests in the client dump" >&2
  exit 1
fi
