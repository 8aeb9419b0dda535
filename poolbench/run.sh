#!/usr/bin/env bash
# Builds the pool benchmark from source (offline) and runs it.
# Usage: bash poolbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Cargo's output goes to stderr; the benchmark's result is the last line
# of stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_NET_OFFLINE=true
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/poolbench" "$@"
