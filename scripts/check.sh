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

echo "==> hot-path smoke (stepper-equivalence and kernel bit-identity properties, both GEMM arms, optimized build)"
cargo test --release --offline -q -p lts-noc --test equivalence
cargo test --release --offline -q -p lts-tensor --test properties
cargo test --release --offline -q -p lts-tensor --lib

echo "==> obs smoke (<1% disabled-span overhead on a 256x256 GEMM, exact cycle sums on the evaluate and stepper tracks, optimized build)"
cargo test --release --offline -q -p lts-tensor --test disabled_span_overhead
cargo test --release --offline -q -p lts-core --test cycle_accounting

echo "==> fault-injection smoke (dead router + 0.5% flit drops must still deliver)"
cargo run --release --offline --example fault_injection

echo "==> fault-matrix smoke (degradation, chaos and chiplet-loss slices meet their contracts; stdout byte-identical at 1 and 2 threads)"
MATRIX_LOG="$(mktemp)"
LTS_EFFORT=quick LTS_THREADS=1 cargo run --release --offline -p lts-bench --bin fault_matrix | tee "$MATRIX_LOG"
LTS_EFFORT=quick LTS_THREADS=2 cargo run --release --offline -q -p lts-bench --bin fault_matrix | cmp - "$MATRIX_LOG"
# The usage line must count real simulations, not only cache answers.
grep -q '^sim usage: [1-9][0-9]* transitions simulated' "$MATRIX_LOG"

echo "==> serving smoke (open-loop streams: sub-saturation serves all, 2x overload sheds within budget, mid-stream core and chiplet deaths ride through)"
SERVE_LOG="$(mktemp)"
LTS_EFFORT=quick cargo run --release --offline -p lts-bench --bin serving_sweep | tee "$SERVE_LOG"
# The usage line must count real simulations, not only cache answers.
grep -q '^sim usage: [1-9][0-9]* transitions simulated' "$SERVE_LOG"

echo "==> trainer kill-and-resume round-trip (bit-identical weights after crash recovery)"
cargo run --release --offline --example trainer_resume

echo "==> mcm smoke (1->2 chiplet scaling sweep: monotone throughput, per-hop-class + simcache accounting)"
LTS_EFFORT=quick cargo run --release --offline -p lts-bench --bin mcm_scaling

echo "==> paper-table smoke (the analytic tables keep their shape claims; stdout byte-identical at 1 and 2 threads)"
TABLES_LOG="$(mktemp)"
LTS_THREADS=1 cargo run --release --offline -p lts-bench --bin paper_tables -- motivation table1 tradeoff | tee "$TABLES_LOG"
LTS_THREADS=2 cargo run --release --offline -q -p lts-bench --bin paper_tables -- motivation table1 tradeoff | cmp - "$TABLES_LOG"

echo "==> paper-table golden (every row of all nine tables at quick effort, the trained ones included, optimized build)"
cargo test --release --offline -q -p lts-core --test paper_tables_golden -- --include-ignored

echo "==> quant smoke (i16 fast path: accuracy within tolerance of f32, 2 bytes/value traffic)"
LTS_EFFORT=quick cargo run --release --offline -p lts-bench --bin quant_sweep

echo "==> pairs smoke (HEAD vs the working tree on noc_sweep, serve_fault and infer_sparse: identical deterministic metrics, 0 failed checks)"
# Two smoke-size pairs plus the traced pair per workload; the ledger goes
# to a temporary directory, since a ledger is never overwritten.
PAIRS_LOG="$(mktemp)"
LTS_BENCH_DIR="$(mktemp -d)" \
    cargo run --release --offline -q -p lts-bench --bin bench_history -- \
    pairs HEAD --workload noc_sweep --workload serve_fault --workload infer_sparse --smoke \
    | tee "$PAIRS_LOG"
# Each gate must hold once per workload.
test "$(grep -c '^exact diff (seed 1, traced): 0 of [1-9][0-9]* deterministic metrics differ$' "$PAIRS_LOG")" -eq 3
test "$(grep -c '^failed checks: parent 0/[1-9][0-9]*, change 0/[1-9][0-9]*$' "$PAIRS_LOG")" -eq 3

echo "All checks passed."
