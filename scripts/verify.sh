#!/usr/bin/env bash
# Tier-1 verification, fully offline: lint, build, test, and regenerate
# the performance baseline. The baseline binary doubles as the
# parallelism gate — it exits non-zero if any thread count changes a
# report byte, if the batched kernel differs from (or is not 3x faster
# than) the per-pair reference on the SCALE dataset, or if a 2-worker run
# misses its speedup target on a multi-core host — so `set -e` makes this
# script fail with it. The report bytes themselves are pinned by the
# golden suite (tests/golden_reports.rs) in the test run.
#
# Usage: scripts/verify.sh [--fresh] [--smoke]
#   --fresh   purge the trace cache under results/cache/ first (the
#             .trace2 entries and .quarantined corpses), so the
#             baseline's cold-start timing starts from an empty disk
#   --smoke   stop after the smoke tier (fmt, lint, build, batched-kernel
#             equivalence, chaos + golden suites, benchmark package build
#             and unit tests) — the fast early signal;
#             skips the full test run and the baseline
set -euo pipefail
cd "$(dirname "$0")/.."

FRESH=0
SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --fresh) FRESH=1 ;;
    --smoke) SMOKE=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

if [[ "$FRESH" == 1 ]]; then
  echo "== --fresh: purging results/cache/ =="
  rm -f results/cache/*.trace2 results/cache/*.quarantined 2>/dev/null || true
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --offline (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release --offline =="
cargo build --release --offline --workspace --all-targets

# Smoke tier: the batched-kernel equivalence suite (source-batched sweep
# byte-identical to the retained per-pair reference) plus the tiny-scale
# end-to-end suites — the chaos suite (every fault scenario through the
# whole pipeline) and the golden snapshots (byte-level replay of committed
# reports, fault sweep included). Fails fast before the full test run and
# baseline.
echo "== smoke: batched-kernel equivalence =="
cargo test -q --offline -p detour --test batched_kernel

echo "== smoke: chaos + golden report suites =="
cargo test -q --offline -p detour --test chaos --test golden_reports

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

# The baseline binary prints its obs table (spans/counters/gauges) to
# stderr at the end of the run and writes the full detour-obs-v1 report
# to results/obs_report.json, which the obscheck gate below validates.
echo "== baseline (artifact store + thread-scaling + byte-identity gates) =="
cargo run --release --offline -q -p detour-bench --bin baseline -- BENCH_baseline.json >/dev/null

echo
echo "artifact cache (from BENCH_baseline.json):"
sed -n 's/.*"cache": {"dir": "\([^"]*\)", "cold_seconds": \([0-9.]*\), "cold_hits": \([0-9]*\), "cold_misses": \([0-9]*\)}.*/  dir \1: cold start \2s (\3 hits, \4 misses)/p' \
  BENCH_baseline.json
printf '  %-8s %-9s %-8s %-10s %-12s %-7s %-8s %s\n' \
  threads total load contexts experiments hits builds speedup
sed -n 's/.*"threads": \([0-9]*\), "seconds": \([0-9.]*\), "load_seconds": \([0-9.]*\), "context_seconds": \([0-9.]*\), "experiment_seconds": \([0-9.]*\), "cache_hits": \([0-9]*\), "cache_misses": [0-9]*, "artifact_builds": \([0-9]*\), "speedup_vs_1": \([0-9.]*\).*/  \1        \2s    \3s   \4s     \5s      \6      \7      \8x/p' \
  BENCH_baseline.json

echo
echo "generate-stage scaling (one reduced UW3 generation per worker count):"
printf '  %-8s %-9s %-9s %-10s %-9s %s\n' threads network routing campaign assemble total
sed -n 's/.*"threads": \([0-9]*\), "network_build_seconds": \([0-9.]*\), "routing_precompute_seconds": \([0-9.]*\), "campaign_seconds": \([0-9.]*\), "assemble_seconds": \([0-9.]*\), "total_seconds": \([0-9.]*\).*/  \1        \2s   \3s   \4s    \5s   \6s/p' \
  BENCH_baseline.json

echo
echo "campaign-only scaling (fixed network + request list):"
printf '  %-8s %-9s %s\n' threads seconds speedup
sed -n 's/.*"threads": \([0-9]*\), "seconds": \([0-9.]*\), "speedup_vs_1": \([0-9.]*\).*/  \1        \2s   \3x/p' \
  BENCH_baseline.json

echo
sed -n 's/.*"masked_kernel_seconds": \([0-9.]*\).*/  fig12 greedy: masked kernel \1s/p' BENCH_baseline.json

echo
echo "load paths (SCALE dataset; cold = generate + write, warm = decode only):"
printf '  %-22s %s\n' path seconds
sed -n 's/.*"load_cold_seconds": \([0-9.]*\).*/  cold (generate)        \1s/p' BENCH_baseline.json
sed -n 's/^ *"load_seconds": \([0-9.]*\).*/  warm (.trace2 decode)  \1s/p' BENCH_baseline.json

echo
echo "scale_sweep (source-batched kernel on the 128-host SCALE dataset):"
sed -n 's/.*"scale_hosts": \([0-9]*\), "pairs": \([0-9]*\), "fixups": \([0-9]*\), "avoided": \([0-9]*\).*/  hosts \1, pairs \2: \3 exclusion re-searches run, \4 avoided (answered from the SSSP tree)/p' \
  BENCH_baseline.json
sed -n 's/.*"reference_seconds": \([0-9.]*\), "batched_speedup_vs_reference": \([0-9.]*\).*/  per-pair reference: \1s, batched speedup vs reference: \2x/p' \
  BENCH_baseline.json
printf '  %-8s %-9s %s\n' threads seconds speedup
sed -n 's/.*"threads": \([0-9]*\), "sweep_seconds": \([0-9.]*\), "sweep_speedup_vs_1": \([0-9.]*\).*/  \1        \2s   \3x/p' \
  BENCH_baseline.json

echo
echo "speedup regression (2-worker speedups; gates enforced by the baseline binary on multi-core hosts):"
ENGINE2=$(sed -n 's/.*"threads": 2, "seconds": [0-9.]*, "load_seconds".*"speedup_vs_1": \([0-9.]*\).*/\1/p' BENCH_baseline.json)
CAMP2=$(sed -n 's/.*"threads": 2, "seconds": \([0-9.]*\), "speedup_vs_1": \([0-9.]*\).*/\2/p' BENCH_baseline.json)
SWEEP2=$(sed -n 's/.*"threads": 2, "sweep_seconds": [0-9.]*, "sweep_speedup_vs_1": \([0-9.]*\).*/\1/p' BENCH_baseline.json)
# Single-core hosts suppress multi-worker rows, so the 2-worker cells
# read n/a there (the baseline binary only gates them on multi-core).
x() { if [[ -n "${1:-}" ]]; then echo "$1x"; else echo "n/a"; fi; }
printf '  %-24s %-9s %s\n' workload speedup gate
printf '  %-24s %-9s %s\n' "engine (end-to-end)" "$(x "$ENGINE2")" ">= 1.2"
printf '  %-24s %-9s %s\n' "campaign (batched)" "$(x "$CAMP2")" ">= 1.3"
printf '  %-24s %-9s %s\n' "scale_sweep (batched)" "$(x "$SWEEP2")" ">= 1.3"

echo
echo "== obs schema gate (results/obs_report.json vs scripts/obs_manifest.txt) =="
cargo run --release --offline -q -p detour-bench --bin obscheck -- \
  results/obs_report.json scripts/obs_manifest.txt

echo "verify: OK"
