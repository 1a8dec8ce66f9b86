#!/usr/bin/env bash
# Builds the `serve` binary and the `afbench` program from source, then runs
# one measured pass. Run from the repository root; arguments pass through:
#
#   bash benchmark/run.sh --workload cold_batch --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the last
# line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p arrayflow-service --bin serve >&2
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/afbench" --serve-bin "$CARGO_TARGET_DIR/release/serve" "$@"
