#!/usr/bin/env bash
# Build the benchmark (and the `soft` binary it measures) from source,
# then run it. Run from the repository root:
#
#   bash softbench/run.sh --workload interop_audit --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); only the
# benchmark's own report reaches standard output.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path softbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/softbench" "$@"
