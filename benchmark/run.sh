#!/usr/bin/env bash
# Builds and runs the detour benchmark from the repository root.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1 [--threads N] [--out DIR]
#       one workload in one process; the last stdout line is the JSON result
#   benchmark/run.sh [--seed S] [--threads N] [--out DIR] [--repeat K] [--seconds T] [--smoke]
#       lint (cargo fmt --check, clippy -D warnings), then every workload,
#       each in its own child process; writes DIR/results.json and
#       DIR/trace-<workload>.json
#
# The build is offline and goes to $CARGO_TARGET_DIR, or to the
# repository's target/ so it shares the workspace's compiled crates. DIR
# defaults to detour-benchmark/ inside that target directory.
set -euo pipefail

cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-target}"

suite=1
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        suite=0
    fi
done

if [ "$suite" = 1 ]; then
    cargo fmt --check --manifest-path "$manifest"
    cargo clippy --offline --quiet --manifest-path "$manifest" --target-dir "$target" \
        --all-targets -- -D warnings
fi
cargo build --release --offline --quiet --manifest-path "$manifest" --target-dir "$target" >&2
# A later --out in "$@" overrides this one.
exec "$target/release/detour-benchmark" --out "$target/detour-benchmark" "$@"
