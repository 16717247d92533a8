#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
#
# Usage: scripts/check.sh
#
# The workspace builds fully offline — all third-party dependencies are
# vendored as API-compatible stand-ins under crates/compat/ — so every
# step runs with --offline and needs no registry access.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> first-party line count"
scripts/loc.sh

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test"
cargo test --offline --workspace -q

echo "==> benchmark smoke (every workload, untraced and traced, at the smoke size)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy (incl. the perf lint group, denied workspace-wide)"
cargo clippy --offline --workspace --all-targets -- -D warnings -D clippy::perf

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> hot-path smoke (micro-kernel bench at 2 iters + stepper-equivalence properties)"
LTS_BENCH_ITERS=2 LTS_BENCH_DIR="$(mktemp -d)" \
    cargo bench --offline -p lts-bench --bench micro_kernels
cargo test --release --offline -q -p lts-noc --test equivalence

echo "==> obs smoke (instrumented table3-quick: per-layer probe rows, exact cycle sums, <1% disabled overhead)"
LTS_BENCH_ITERS=2 LTS_BENCH_DIR="$(mktemp -d)" \
    cargo bench --offline -p lts-bench --bench obs

echo "==> fault-injection smoke (dead router + 0.5% flit drops must still deliver)"
cargo run --release --offline --example fault_injection

echo "==> chaos smoke (mid-flight core deaths: bounded loss or typed outcome, never a panic/hang)"
LTS_EFFORT=quick LTS_BENCH_DIR="$(mktemp -d)" \
    cargo run --release --offline -p lts-bench --bin chaos_soak

echo "==> serving smoke (open-loop streams: sub-saturation serves all, 2x overload sheds within budget, mid-stream core death rides through)"
LTS_EFFORT=quick LTS_BENCH_DIR="$(mktemp -d)" \
    cargo run --release --offline -p lts-bench --bin serving_sweep

echo "==> trainer kill-and-resume round-trip (bit-identical weights after crash recovery)"
cargo run --release --offline --example trainer_resume

echo "==> mcm smoke (1->2 chiplet scaling sweep: monotone throughput, per-hop-class + simcache accounting)"
LTS_MCM_MAX_CHIPLETS=2 LTS_BENCH_ITERS=1 LTS_BENCH_DIR="$(mktemp -d)" \
    cargo run --release --offline -p lts-bench --bin mcm_scaling

echo "==> mcm-fault smoke (mid-inference chiplet death: hierarchical detection, survivor restaging, serving ride-through)"
LTS_EFFORT=quick LTS_BENCH_ITERS=1 LTS_BENCH_DIR="$(mktemp -d)" \
    cargo run --release --offline -p lts-bench --bin mcm_fault_sweep

echo "==> quant smoke (i16 fast path: a_bt kernel uplift recorded, accuracy within tolerance of f32, 2 bytes/value traffic)"
LTS_EFFORT=quick LTS_BENCH_ITERS=1 LTS_BENCH_DIR="$(mktemp -d)" \
    cargo run --release --offline -p lts-bench --bin quant_sweep

echo "==> pairs smoke (HEAD vs the working tree on noc_sweep: identical deterministic metrics, 0 failed checks)"
# Two smoke-size pairs plus the traced pair; the ledger goes to a
# temporary directory, since a ledger is never overwritten.
PAIRS_LOG="$(mktemp)"
LTS_BENCH_DIR="$(mktemp -d)" \
    cargo run --release --offline -q -p lts-bench --bin bench_history -- \
    pairs HEAD --workload noc_sweep --smoke | tee "$PAIRS_LOG"
grep -q '^exact diff (seed 1, traced): 0 of [1-9][0-9]* deterministic metrics differ$' "$PAIRS_LOG"
grep -q '^failed checks: parent 0/[1-9][0-9]*, change 0/[1-9][0-9]*$' "$PAIRS_LOG"

echo "All checks passed."
