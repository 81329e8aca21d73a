#!/usr/bin/env bash
# Tier-1 verification, fully offline: lint, build, test, and regenerate
# the performance baseline. The baseline binary makes the canonical run
# (full scale, seed 0, every registry entry, each report written to
# results/<id>.txt) cold from an emptied trace cache and then warm, and
# doubles as the parallelism and counter gate — it exits non-zero if a
# counter or a span name differs from the committed
# results/obs_report.json, if the warm reports differ from the cold ones,
# if any thread count changes a report byte or a counter, if the SCALE
# sweep's output digests differ from their pinned values, or if a
# 2-worker run misses its speedup target on a multi-core host — so
# `set -e` makes this script fail with it. The report bytes themselves
# are pinned by the golden suite (tests/golden_reports.rs) in the test
# run, and at full scale by the last step: every report the baseline
# wrote must equal the committed results/*.txt.
#
# Usage: scripts/verify.sh [--smoke]
#   --smoke   stop after the smoke tier (fmt, lint, rustdoc, build, then
#             the focused suites listed where they run below) — the fast
#             early signal; skips the full test run, the baseline and the
#             full-scale report diff
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --offline (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

# Broken or ambiguous intra-doc links, and public docs linking private
# items, fail the docs build.
echo "== cargo doc --offline (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cargo build --release --offline =="
cargo build --release --offline --workspace --all-targets

# Smoke tier: each suite below, named by its echo line, checks one layer
# against an independent oracle or a pinned invariant (the generators'
# reference vectors and the binomial's exact edge cases, mean and
# variance, closed-form t quantiles, a naive pair-table builder, the
# .trace2 round trip and its hostile values, a textbook per-pair Dijkstra,
# brute-force kernel properties, counters and bytes at 1/2/8 workers, the
# paper-shape envelopes, the routing-policy ablation's causal claim, the
# per-round-trip TCP oracle, the golden snapshots, the trace cache's
# miss/hit/quarantine counts). Fails fast before the full test run and
# the baseline.
echo "== smoke: detour-prng tests (generators, binomial, property harness) =="
cargo test -q --offline -p detour-prng

echo "== smoke: detour-stats unit and property tests (t quantile, intervals) =="
cargo test -q --offline -p detour-stats

echo "== smoke: detour-measure tests (dataset rules, pair tables, partition property) =="
cargo test -q --offline -p detour-measure

echo "== smoke: detour-datasets tests (trace2 codec, round-trip + hostile-value properties) =="
cargo test -q --offline -p detour-datasets

echo "== smoke: detour-core unit tests =="
cargo test -q --offline -p detour-core --lib

echo "== smoke: batched-kernel equivalence =="
cargo test -q --offline -p detour --test batched_kernel

echo "== smoke: kernel property tests =="
cargo test -q --offline -p detour-core --test kernel_properties

echo "== smoke: greedy removal + campaign determinism at 1/2/8 workers =="
cargo test -q --offline -p detour --test determinism

echo "== smoke: pipeline counters at 1/2/8 workers + dataset-level properties =="
cargo test -q --offline -p detour --test obs_determinism
cargo test -q --offline -p detour --test properties

echo "== smoke: paper-shape envelopes =="
cargo test -q --offline -p detour --test paper_shapes

echo "== smoke: routing-policy ablation (ideal routing strips the big wins) =="
cargo test -q --offline -p detour --test policy_ablation

echo "== smoke: renewal schedules and state_at bounds (detour-faults) + netsim unit and property tests (TCP closed form, fault watch and link-sample arithmetic vs their oracles) =="
cargo test -q --offline -p detour-faults
cargo test -q --offline -p detour-netsim

echo "== smoke: detour-bench unit tests (trace cache, registry, study order, report writer) =="
cargo test -q --offline -p detour-bench --lib

echo "== smoke: figures CLI input handling =="
cargo test -q --offline -p detour-bench --test figures_cli

echo "== smoke: obs report reader + the baseline's committed-report diff =="
cargo test -q --offline -p detour-obs
cargo test -q --offline -p detour-bench --bin baseline

echo "== smoke: chaos + golden report suites =="
cargo test -q --offline -p detour --test chaos --test golden_reports

# trace_explorer is the one tool that reads a user-supplied trace path:
# its default run (generate, save, reload a .trace2) must exit 0, and a
# file that is not a trace must end in its typed load error, exit 1.
echo "== smoke: trace_explorer on a .trace2 file and on a non-trace file =="
cargo run --release --offline -q --example trace_explorer >/dev/null
status=0
cargo run --release --offline -q --example trace_explorer -- Cargo.toml >/dev/null 2>&1 || status=$?
if [[ "$status" != 1 ]]; then
  echo "trace_explorer exited $status on a non-trace file (want 1)" >&2
  exit 1
fi

# benchmark/ is a separate Cargo workspace, so the workspace build above
# never compiles it: a core API change it depends on would otherwise only
# surface when the benchmark runs.
echo "== smoke: benchmark package build + unit tests =="
cargo build --offline --manifest-path benchmark/Cargo.toml --target-dir target --all-targets
cargo test -q --offline --manifest-path benchmark/Cargo.toml --target-dir target

if [[ "$SMOKE" == 1 ]]; then
  echo "verify: OK (smoke tier)"
  exit 0
fi

echo "== cargo test --offline =="
cargo test -q --offline --workspace

# Reads the committed results/obs_report.json and prints the new report as
# a table on stdout. A matching run rewrites the file (new timings); one
# that differs writes results/obs_report.new.json and leaves it untouched.
# Its cold canonical run regenerates every dataset from an emptied trace
# cache and writes every report to results/<id>.txt.
echo "== baseline (canonical run cold + warm; counters, span names, thread-scaling, byte-identity gates) =="
cargo run --release --offline -q -p detour-bench --bin baseline

# Full scale: fail on any byte the baseline's canonical run wrote that
# differs from the committed results/*.txt.
echo "== full scale: the baseline's reports against the committed results =="
git diff --exit-code -- 'results/*.txt'

echo "verify: OK"
