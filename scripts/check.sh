#!/usr/bin/env sh
# Tier-1 gate: the whole workspace must build in release mode and every
# test must pass. CI and pre-merge checks run exactly this.
set -eu
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

# The benchmark package is a workspace of its own (BENCHMARK.json runs it
# with --manifest-path), so the two commands above never compile it: an
# engine API change could break the benchmark without failing this gate.
# Builds it and runs its unit tests, which replay every workload against
# the PropertyGraph oracle.
cargo test --offline -q --manifest-path pgbench/Cargo.toml

# Every executor configuration (threads x morsel size x batch size) must
# stay bit-identical to the reference evaluator, with EXPLAIN ANALYZE
# tally parity, under optimized codegen, where data races and
# merge-order bugs actually surface.
cargo test --release -q --test parallel_equivalence

# MVCC snapshot isolation under real concurrency: writers toggling
# multi-quad edge shapes in all three encodings while readers run the
# paper's query families against pinned snapshots. Release mode only —
# torn reads and publish races need optimized codegen to surface.
cargo test --release -q --test concurrent_snapshots

# Bench harness smoke run: every section (including the PR2
# parallel/plan-cache artifact, the PR3 snapshot-isolated read scaling
# artifact, the PR4 operator-profile artifact, and the PR9
# flight-recorder/system-view artifact) must complete on a small fixture.
cargo run --release -q --bin repro -- --scale 0.01

# Telemetry overhead guard: the EQ1-EQ5 batch with engine counters
# enabled must cost at most 5% more wall time than with them disabled
# (best-of-5 alternating rounds; exits non-zero past the budget).
cargo run --release -q --bin repro -- --scale 0.01 overhead

# Resource-governor stress: bounded-time cancellation across thread
# counts, memory-budget aborts, 16-client admission shedding, and the
# fsync-storm read-only degradation + recovery path. Release mode so the
# 50ms cancellation-latency bound holds on slow machines.
cargo test --release -q --test resource_governor

# Resource-governor overhead guard: the EQ1-EQ5 batch under full
# governance (admission permit, cancel token, memory budget, deadline)
# must cost at most 5% more wall time than ungoverned execution.
cargo run --release -q --bin repro -- --scale 0.01 governor

# Flight-recorder overhead guard: the recorder is on by default, so the
# EQ1-EQ5 batch with it recording must cost at most 5% more wall time
# than with it off (best-of-5 paired rounds; exits non-zero past the
# budget).
cargo run --release -q --bin repro -- --scale 0.01 flightguard
