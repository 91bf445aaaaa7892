#!/usr/bin/env bash
# Build the release `or-server` and the perfbench harness from source, then
# make one benchmark run.  Run it from the repository root:
#
#   bash perfbench/run.sh --workload point_read --seed 1 --seconds 25 --trace 0
#
# Build output goes to standard error; the last line of standard output is
# the run's JSON result.  Everything the run writes stays under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/or-server || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run this from the root of the or-sets repository" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p or-server --bin or-server >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server "$CARGO_TARGET_DIR/release/or-server" \
    --out "$CARGO_TARGET_DIR/perfbench-runs" \
    "$@"
