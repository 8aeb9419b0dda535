#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 suite.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: build + tests"
cargo build --release
cargo test -q

echo "== nn + sim crates (tier-1 runs only the root package)"
cargo test -q -p rpol-nn -p rpol-sim

echo "== executor: 8-thread pass (scheduling + determinism under contention)"
RPOL_EXEC_THREADS=8 cargo test -q -p rpol-exec
RPOL_EXEC_THREADS=8 cargo test -q -p rpol --test exec_determinism
RPOL_EXEC_THREADS=8 cargo test -q -p rpol --test hierarchy_parity

echo "== GEMM on the executor: 8-thread invariance + quantizer determinism"
RPOL_EXEC_THREADS=8 cargo test -q -p rpol-tensor

echo "== wire suites outside tier-1: sim-vs-socket parity, trace determinism, faults at 8 threads"
# Filtered: the 1024-connection reactor case is a known multi-thread flake
# (ROADMAP item 1).
cargo test -q -p rpol --test net_parity socket_run_matches
cargo test -q -p rpol --test obs_determinism
RPOL_EXEC_THREADS=8 cargo test -q --test fault_tolerance

echo "== fault-injection matrix"
scripts/fault_matrix.sh

echo "== bench smoke: verification data plane vs committed baseline"
scripts/check_bench.sh

echo "== net smoke: full epoch over loopback TCP, readiness reactor, lossy chaos"
scripts/net_smoke.sh

echo "== trace smoke: observability pipeline"
scripts/trace_smoke.sh

echo "== obs e2e: multi-process trace stitching + live status plane"
scripts/obs_e2e.sh

echo "CI green"
