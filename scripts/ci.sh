#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test suite.
#
#   ./scripts/ci.sh
#
# Runs entirely offline (the workspace vendors its dev-dependency stubs),
# so this is exactly what a fresh checkout must pass.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# The golden-digest suite must hold at any worker-thread count: the
# persistent pool's sharded phases are bit-identical by contract. Run it
# serial and sharded, in debug AND release — release reorders enough
# (inlining, vectorized loops) to have caught ordering bugs debug masks.
for profile in "" "--release"; do
  for t in 1 4; do
    echo "==> determinism suite, threads=$t ${profile:-debug}"
    MOBICACHE_THREADS=$t cargo test -q $profile --test determinism
  done
done

# Sharded ≡ serial for the chunked phases: the oracle scan against its
# serial reference (shard_props), and whole runs at any shard geometry
# (soa_equiv). Release too, for the same reason as the determinism legs.
# Timeouts because a wedged chunk barrier must fail fast.
echo "==> shard equivalence suites (release, under timeout)"
timeout 600 cargo test -q --release -p mobicache --test shard_props
timeout 600 cargo test -q --release --test soa_equiv

# The per-tick invalidation plan is the engine's only per-report decode,
# so plan ≡ decide (bitmap and per-item probes) also runs in release.
echo "==> plan equivalence suite (release, under timeout)"
timeout 600 cargo test -q --release -p mobicache-reports --test plan_props

# The client crate's equivalence tests in release, for the same reason:
# the planned report path ≡ the prepared path per client, and the
# pending-query header's counts ≡ a recount of its items.
echo "==> client equivalence tests (release, under timeout)"
timeout 600 cargo test -q --release -p mobicache-client

# Fault matrix: the high-fault digest must be thread-invariant too (the
# fault coins ride dedicated streams in the serial phases), and the
# any-fault-schedule proptests run the oracle under arbitrary fault
# plans. Timeout because their failure mode includes a retry loop that
# never terminates.
for t in 1 4; do
  echo "==> fault determinism leg, threads=$t (release)"
  MOBICACHE_THREADS=$t cargo test -q --release --test determinism fault
done
echo "==> fault-schedule proptest suite (under timeout)"
timeout 600 cargo test -q --release --test faults

# Multi-cell legs: the mobility digests must be thread-invariant (the
# mobility coins ride dedicated per-cell streams), and the cell
# equivalence battery pins cells=1 bit-identity plus the
# handoff-equals-disconnection contract. Timeouts because the proptests'
# failure mode includes shrink loops over whole-simulation runs.
for t in 1 4; do
  echo "==> multi-cell determinism leg, threads=$t (release)"
  MOBICACHE_THREADS=$t timeout 600 cargo test -q --release --test determinism \
    -- multi_cell mobility
done
echo "==> cell equivalence suite (under timeout)"
timeout 600 cargo test -q --release --test cells

# Pool lifecycle tests under a hard timeout: their failure mode is a
# wedged barrier or an unjoined worker, which must fail fast instead of
# hanging the suite.
echo "==> pool lifecycle suite (under timeout)"
timeout 300 cargo test -q --release --test pool

# Population-scale legs for the struct-of-arrays client core. The
# 100k-client determinism pin is #[ignore]d (debug would crawl), so run
# it explicitly in release; the popscale smoke re-runs the committed
# 100k bench row and fails on a >10% events/sec regression against
# BENCH_report_pipeline.json. Both under timeout: their failure mode
# includes a wedged shard barrier.
echo "==> 100k-client thread-invariance pin (release, under timeout)"
timeout 600 cargo test -q --release --test determinism \
  hundred_k_clients_digest_is_thread_invariant -- --ignored

echo "==> bench smoke: report_pipeline --quick --threads 2"
cargo build --release -p mobicache-bench
./target/release/report_pipeline --quick --threads 2 --out /tmp/bench_smoke.json
rm -f /tmp/bench_smoke.json

echo "==> popscale smoke: 100k clients vs committed BENCH_report_pipeline.json"
timeout 300 ./target/release/report_pipeline \
  --smoke-popscale 100000 --check-against BENCH_report_pipeline.json

# Scheduler legs for the timing wheel: the stress smoke re-runs the
# heavy AAW point against the committed stress row (a scheduler or
# report-pipeline throughput regression fails here, not just a
# population-scaling one), and the sched smoke re-runs the 10k-pending
# heap-vs-wheel micro-benchmark, failing if the wheel drops below the
# heap baseline.
echo "==> stress smoke: heavy AAW point vs committed BENCH_report_pipeline.json"
timeout 300 ./target/release/report_pipeline \
  --smoke-stress --check-against BENCH_report_pipeline.json

# The handoff smoke re-runs the heavy AAW multi-cell point (4 cells,
# migrating clients, per-cell fan-out and update replay) against the
# committed handoff row; a regression in the cell-aware broadcast path
# or the handoff machinery fails here before it reaches a figure sweep.
echo "==> handoff smoke: multi-cell AAW point vs committed BENCH_report_pipeline.json"
timeout 300 ./target/release/report_pipeline \
  --smoke-handoff --check-against BENCH_report_pipeline.json

echo "==> sched smoke: heap-vs-wheel micro-benchmark"
timeout 300 ./target/release/report_pipeline --smoke-sched

# Invalidation-plan legs: the invplan smoke re-runs the 100k-client
# plan-vs-per-item micro-benchmark and fails if the bitmap plan stops
# beating the per-item walk or drops below half the committed speedup
# (a ratio of two timed paths carries both runs' noise, hence the wider
# margin than the 10% throughput gates). The e2e smoke closes the old
# gap where the e2e section had no gate at all: it re-runs the full AAW
# fig05 sweep against the committed e2e row with an 80% floor (e2e wall
# times are tens of milliseconds, so proportional noise is larger).
echo "==> invplan smoke: plan-vs-per-item at 100k clients"
timeout 300 ./target/release/report_pipeline \
  --smoke-invplan --check-against BENCH_report_pipeline.json

echo "==> e2e smoke: AAW fig05 sweep vs committed BENCH_report_pipeline.json"
timeout 300 ./target/release/report_pipeline \
  --smoke-e2e --check-against BENCH_report_pipeline.json

echo "CI OK"
