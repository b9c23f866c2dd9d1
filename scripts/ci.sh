#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 build + test suite, the
# release equivalence legs, and last the perfbench A/B against HEAD~1.
#
#   ./scripts/ci.sh
#
# Runs entirely offline (the workspace vendors its dev-dependency stub),
# so this is exactly what a fresh checkout with its parent commit must
# pass.
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

# The 100k-client determinism pin is #[ignore]d (debug would crawl), so
# run it explicitly in release, under timeout: its failure mode includes
# a wedged shard barrier.
echo "==> 100k-client thread-invariance pin (release, under timeout)"
timeout 600 cargo test -q --release --test determinism \
  hundred_k_clients_digest_is_thread_invariant -- --ignored

# The perf gate: perfbench on the parent commit against HEAD, same
# host, alternating pairs per workload (scripts/perf_gate.py says when it
# fails). Its verdict rule is unit-tested first. Timeout because a
# wedged benchmark run must fail, not hang CI.
echo "==> perf gate verdict tests"
python3 scripts/test_perf_gate.py

echo "==> perf gate: perfbench A/B against HEAD~1 (under timeout)"
timeout 1200 python3 scripts/perf_gate.py

echo "CI OK"
