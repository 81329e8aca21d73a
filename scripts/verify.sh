#!/usr/bin/env bash
# Tier-1 verification, fully offline: lint, build, test, and regenerate
# the performance baseline. The baseline binary doubles as the
# parallelism and counter gate — it exits non-zero if a counter or a span
# name differs from the committed results/obs_report.json, if any thread
# count changes a report byte or a counter, if the SCALE sweep's output
# digests differ from their pinned values, or if a 2-worker run misses
# its speedup target on a multi-core host — so `set -e` makes this
# script fail with it. The report bytes themselves are pinned by the
# golden suite (tests/golden_reports.rs) in the test run, and at full
# scale by the last step: every report regenerated from an empty trace
# cache must equal the committed results/*.txt.
#
# Usage: scripts/verify.sh [--fresh] [--smoke]
#   --fresh   purge the trace cache under results/cache/ first (the
#             .trace2 entries and .quarantined corpses), so the
#             baseline's cold-start timing starts from an empty disk
#   --smoke   stop after the smoke tier (fmt, lint, rustdoc, build,
#             the detour-stats unit and property tests (the t quantile
#             against closed forms, bisection and its evaluation count),
#             the detour-measure tests, the detour-datasets tests (the
#             .trace2 decoder, where untrusted bytes enter the program),
#             the detour-core unit tests,
#             batched-kernel equivalence,
#             the kernel property tests, the determinism tests (greedy
#             removal and campaigns at 1/2/8 workers), the obs counters
#             at 1/2/8 workers, the dataset-level properties, the
#             paper-shape envelopes,
#             the fault-schedule unit tests, the netsim unit and
#             property tests,
#             the figures CLI input checks, the baseline's report
#             reader and diff tests,
#             chaos + golden suites, the trace_explorer example on its
#             own .trace2 file and on a non-trace file, benchmark package
#             build and unit tests) — the fast early signal; skips the
#             full test run, the baseline and the full-scale report check
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

# Broken or ambiguous intra-doc links, and public docs linking private
# items, fail the docs build.
echo "== cargo doc --offline (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cargo build --release --offline =="
cargo build --release --offline --workspace --all-targets

# Smoke tier: the detour-stats tests (the t quantile against the exact
# forms at 1 and 2 df and a bisection oracle, its t_cdf evaluation count,
# the inverts-the-CDF property, intervals and t-tests), the
# detour-measure tests (the dataset rules, pair-table
# aggregates, the host index, and the partition property: each part of a
# partitioned build equals the table of a dataset holding only that
# part's probes), the detour-datasets tests (the .trace2 codec, its
# round-trip property, and the hostile-value property: every value a
# dataset rule refuses comes back as the error naming its field, and
# every edge value loads and runs the registered experiments), the
# detour-core unit tests (metric laws, the context's build-once artifact
# slots, confidence intervals, hand-worked kernel cases, the Figure-11
# probe-visit bound, a re-settled tree == a fresh banned search, host
# bans on kept trees == a table rebuilt without the hosts), the
# batched-kernel equivalence suite (source-batched sweep byte-identical to
# a textbook per-pair Dijkstra kept in the test), the kernel property
# tests (brute-force DFS oracle, the Yen ranking and its head == the
# sweep's best alternate, incremental greedy == a greedy that sweeps a
# rebuilt table per candidate), the pipeline's counters at 1/2/8 workers
# (obs_determinism), the dataset-level properties (among them: removing
# hosts never invents a better alternate),
# the paper-shape envelopes (each qualitative finding of the paper on
# reduced datasets), the renewal-process tests (detour-faults' unit tests pin the episode
# draw order; netsim's unit tests pin the load model, among them one
# shared per-instant state sampling like a fresh one per link, and its
# property tests cover flap schedules, routing and load), the figures CLI input checks (unknown flags and ids, an unusable cache
# path), the obs report reader and the baseline's committed-report diff
# (every moved counter and span named), plus the tiny-scale end-to-end suites — the chaos suite (every
# fault scenario through the whole pipeline) and the golden snapshots
# (byte-level replay of every registered experiment's report, fault sweep
# included). Fails fast before the full test run and baseline.
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

echo "== smoke: renewal schedules (detour-faults) + netsim unit and property tests =="
cargo test -q --offline -p detour-faults
cargo test -q --offline -p detour-netsim

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
echo "== baseline (committed counters + span names, thread-scaling, byte-identity gates) =="
cargo run --release --offline -q -p detour-bench --bin baseline

# Full scale: regenerate every dataset from an empty trace cache and every
# report from those datasets (about 15 s on one core), then fail on any
# byte that differs from the committed results/*.txt.
echo "== full scale: figures --fresh all against the committed results =="
./target/release/figures --threads 1 --fresh all >/dev/null
git diff --exit-code -- 'results/*.txt'

echo "verify: OK"
