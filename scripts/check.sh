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
# The LTS_BENCH_BASELINE gate is wired through the run itself: the sweep
# writes BENCH_serving.json and then loads/compares it as its own
# baseline, so the write -> load -> compare path is exercised every CI
# run without wall-clock flake (the ms-scale cells jitter beyond the
# 25% tolerance on shared hosts; gating against a *stored* baseline is
# the manual workflow, as for the hotpath bench — see README).
SERVING_DIR="$(mktemp -d)"
LTS_EFFORT=quick LTS_BENCH_DIR="$SERVING_DIR" \
    LTS_BENCH_BASELINE="$SERVING_DIR/BENCH_serving.json" \
    cargo run --release --offline -p lts-bench --bin serving_sweep

echo "==> trainer kill-and-resume round-trip (bit-identical weights after crash recovery)"
cargo run --release --offline --example trainer_resume

echo "==> mcm smoke (1->2 chiplet scaling sweep: monotone throughput, per-hop-class + simcache accounting)"
LTS_MCM_MAX_CHIPLETS=2 LTS_BENCH_ITERS=1 LTS_BENCH_DIR="$(mktemp -d)" \
    cargo run --release --offline -p lts-bench --bin mcm_scaling

echo "==> mcm-fault smoke (mid-inference chiplet death: hierarchical detection, survivor restaging, serving ride-through)"
# Self-baselined like the serving smoke: the sweep writes
# BENCH_mcm_fault.json and compares it as its own baseline, exercising
# the regression-gate path without wall-clock flake.
MCMF_DIR="$(mktemp -d)"
LTS_EFFORT=quick LTS_BENCH_ITERS=1 LTS_BENCH_DIR="$MCMF_DIR" \
    LTS_BENCH_BASELINE="$MCMF_DIR/BENCH_mcm_fault.json" \
    cargo run --release --offline -p lts-bench --bin mcm_fault_sweep

echo "==> quant smoke (i16 fast path: a_bt kernel uplift recorded, accuracy within tolerance of f32, 2 bytes/value traffic)"
# Self-baselined like the serving smoke: the sweep writes
# BENCH_quant.json, compares it as its own baseline, then loads it back
# to prove the report round-trips through BenchReport::load.
QUANT_DIR="$(mktemp -d)"
LTS_EFFORT=quick LTS_BENCH_ITERS=1 LTS_BENCH_DIR="$QUANT_DIR" \
    LTS_BENCH_BASELINE="$QUANT_DIR/BENCH_quant.json" \
    cargo run --release --offline -p lts-bench --bin quant_sweep

echo "==> trend smoke (synthetic two-rev ledger: 30% slowdown flagged, 2% jitter not; then a real bench through the runner)"
# Part 1 is hermetic: bench_history smoke builds a synthetic two-commit
# history in a temp ledger and hard-asserts the verdicts (injected 30%
# slowdown -> regression, 2% jitter -> not, dirty append refused).
cargo run --release --offline -p lts-bench --bin bench_history smoke
# Part 2 drives a real bench end-to-end: two repeated runs of the quick
# Table III pipeline recorded into a fresh ledger, then compared and
# rendered as a trend report. Same commit twice, so the gate must pass;
# ALLOW_DIRTY because CI working trees routinely carry local edits.
TREND_DIR="$(mktemp -d)"
LTS_EFFORT=quick LTS_BENCH_ITERS=1 LTS_BENCH_DIR="$TREND_DIR" LTS_BENCH_ALLOW_DIRTY=1 \
    cargo run --release --offline -p lts-bench --bin bench_history run table3_structure_level --reps 2 --warmup 0
LTS_EFFORT=quick LTS_BENCH_ITERS=1 LTS_BENCH_DIR="$TREND_DIR" LTS_BENCH_ALLOW_DIRTY=1 \
    cargo run --release --offline -p lts-bench --bin bench_history run table3_structure_level --reps 2 --warmup 0
LTS_BENCH_DIR="$TREND_DIR" \
    cargo run --release --offline -p lts-bench --bin bench_history compare table3_structure_level
LTS_BENCH_DIR="$TREND_DIR" \
    cargo run --release --offline -p lts-bench --bin bench_history report table3_structure_level
test -f "$TREND_DIR/TREND_table3_structure_level.md"

echo "All checks passed."
