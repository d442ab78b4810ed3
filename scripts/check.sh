#!/usr/bin/env sh
# Tier-1 gate: the whole workspace must build in release mode and every
# test must pass. CI and pre-merge checks run exactly this.
set -eu
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

# Every crate is held to every default clippy lint: any warning in the
# workspace's code, tests, examples or benches fails the gate.
cargo clippy --offline --workspace --all-targets --no-deps -q -- -D warnings
# And to rustfmt's layout.
cargo fmt --all -- --check

# Rustdoc warnings fail the gate, so a deleted or private item cannot
# leave a dangling intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The benchmark package is a workspace of its own (BENCHMARK.json runs it
# with --manifest-path), so the two commands above never compile it: an
# engine API change could break the benchmark without failing this gate.
# Builds it and runs its unit tests, which replay every workload against
# the PropertyGraph oracle.
cargo test --offline -q --manifest-path pgbench/Cargo.toml
# The workspace lint and layout checks above do not reach it either.
cargo clippy --offline --manifest-path pgbench/Cargo.toml --all-targets --no-deps -q -- -D warnings
cargo fmt --manifest-path pgbench/Cargo.toml -- --check

# Every executor configuration (threads x morsel size; a morsel is one
# column batch) must stay bit-identical to the reference evaluator, with
# EXPLAIN ANALYZE tally parity, under optimized codegen, where data races
# and merge-order bugs actually surface.
cargo test --release -q --test parallel_equivalence

# Store reads (morsel planning, span and columnar scans, index merges:
# unit tests and store_props) under optimized codegen, where usize
# overflow wraps instead of panicking.
cargo test --release -q -p quadstore

# The query engine's own tests under optimized codegen, where integer
# overflow wraps instead of panicking: join strategies (optimizer, forced
# NLJ, forced hash; cycles closed by span intersection) agreeing on random
# data (engine_props), the intersection's bitmap kernel on one-member
# views and its gallop fallback on multi-member views with deltas, in
# rows, order and tallies against the reference across threads and
# morsel sizes (engine_props), merge joins matching the reference,
# forced hash and forced NLJ in rows, order and tallies across threads
# and morsel sizes (merge_join), the hash-join table's u32 row indices
# against a naive oracle (unit tests), one column batch per morsel
# (batch_per_morsel), resource limits (the intersection bitmap's charge,
# and its gallop when the budget refuses it, among them), executor
# corner cases, and the golden EXPLAIN LOGICAL and EXPLAIN texts of one
# query per rewrite outcome and operator (plan_text).
cargo test --release -q -p sparql

# MVCC snapshot isolation under real concurrency: writers toggling
# multi-quad edge shapes in all three encodings while readers run the
# paper's query families against pinned snapshots. Release mode only —
# torn reads and publish races need optimized codegen to surface.
cargo test --release -q --test concurrent_snapshots

# Paper harness smoke run: every table and figure section plus the
# ablations must complete on a small fixture (prints only, writes no
# files). Performance is measured by pgbench (BENCHMARK.json), not here.
cargo run --release -q --bin repro -- --scale 0.01

# Resource-governor stress: bounded-time cancellation across thread
# counts, memory-budget aborts, 16-client admission shedding, and the
# fsync-storm read-only degradation + recovery path. Release mode so the
# 50ms cancellation-latency bound holds on slow machines.
cargo test --release -q --test resource_governor

# Mutation check, opt-in (it rebuilds the workspace in a scratch
# worktree): every patch in scripts/mutants/ must be caught by the test
# it names.
if [ "${MUTANTS:-0}" = 1 ]; then
    scripts/mutants.sh
fi
