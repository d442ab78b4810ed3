//! End-to-end resource-governor behaviour: cooperative cancellation in
//! bounded time across thread counts, per-query memory budgets aborting
//! hash joins and aggregations, admission control shedding under client
//! overload, and read-only degradation (plus recovery) when the storage
//! layer's fsyncs fail persistently — with zero acknowledged writes lost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use pgrdf::{CoreError, GovernorConfig, PgRdfModel, PgRdfStore};
use propertygraph::PropertyGraph;
use quadstore::{DurableStore, FaultOp, FaultyVfs, RetryPolicy, Store, StoreError, SyncPolicy};
use rdf_model::{Quad, Term};
use sparql::{CancelToken, ExecLimits, ExecOptions, SparqlError};

/// A store where unconstrained patterns explode combinatorially.
fn dense_store(n: u32) -> Store {
    let store = Store::new();
    store.create_model("m").expect("model");
    let quads: Vec<Quad> = (0..n)
        .map(|i| {
            Quad::triple(
                Term::iri(format!("http://s{i}")),
                Term::iri("http://p"),
                Term::iri(format!("http://o{}", i % 7)),
            )
            .expect("valid quad")
        })
        .collect();
    store.bulk_load("m", &quads).expect("load");
    store
}

/// Three unconstrained patterns: n³ intermediate rows, far too many to
/// finish before the test cancels or the budget trips.
const TRIPLE_CROSS: &str = "SELECT ?a ?b ?c WHERE { \
     ?a <http://p> ?x . ?b <http://p> ?y . ?c <http://p> ?z }";

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

/// Cancelling a running query must return `Cancelled` within 50ms of the
/// cancel request — whatever the worker-thread count. The query itself
/// would run for orders of magnitude longer (250³ intermediate rows).
#[test]
fn cancellation_returns_in_bounded_time_across_thread_counts() {
    let store = Arc::new(dense_store(250));
    for threads in [1usize, 2, 8] {
        let token = CancelToken::new();
        let (tx, rx) = mpsc::channel();
        let worker = {
            let store = Arc::clone(&store);
            let options = ExecOptions::threads(threads).with_cancel(token.clone());
            std::thread::spawn(move || {
                let started = Instant::now();
                let result = sparql::query_with_options(&store, "m", TRIPLE_CROSS, options);
                tx.send((result, started.elapsed())).ok();
            })
        };
        // Let execution get well past planning and into the morsel loop.
        std::thread::sleep(Duration::from_millis(40));
        token.cancel();
        let cancelled_at = Instant::now();
        let (result, ran_for) = rx
            .recv_timeout(Duration::from_millis(50))
            .unwrap_or_else(|_| {
                panic!("{threads}-thread query did not stop within 50ms of cancel")
            });
        let latency = cancelled_at.elapsed();
        worker.join().unwrap();
        assert!(
            matches!(result, Err(SparqlError::Cancelled)),
            "threads={threads}: expected Cancelled, got {result:?} after {ran_for:?}"
        );
        assert!(
            latency <= Duration::from_millis(50),
            "threads={threads}: cancel latency {latency:?} exceeds 50ms"
        );
    }
}

/// A cancel token passed through the facade's options surfaces the same
/// abort as a typed `CoreError`, and a token cancelled before submission
/// aborts at the first periodic check without doing real work.
#[test]
fn facade_cancel_token_aborts_with_typed_error() {
    let store = PgRdfStore::load(&PropertyGraph::sample_figure1(), PgRdfModel::NG).expect("load");
    let dataset = store.dataset_name();
    let token = CancelToken::new();
    token.cancel();
    let result = store.select_in_with(
        &dataset,
        "SELECT ?a ?b ?c WHERE { ?a ?p ?x . ?b ?q ?y . ?c ?r ?z }",
        ExecOptions::default().with_cancel(token),
    );
    assert!(
        matches!(result, Err(CoreError::Sparql(SparqlError::Cancelled))),
        "expected Cancelled through the facade, got {result:?}"
    );
}

// ---------------------------------------------------------------------
// Memory budgets
// ---------------------------------------------------------------------

/// `q` on model `m` under a memory budget of `bytes`.
fn budgeted(store: &Store, q: &str, bytes: u64) -> Result<sparql::QueryResults, SparqlError> {
    let options = ExecOptions::default().with_limits(ExecLimits::memory(bytes));
    sparql::query_with_options(store, "m", q, options)
}

/// A skewed hash join (every row shares one of 7 join keys, so build
/// buckets are deep and the probe side fans out) must abort with
/// `ResourceExhausted` under a small memory budget.
#[test]
fn memory_budget_aborts_a_skewed_hash_join() {
    let store = dense_store(4_000);
    // Join on the skewed object: ~4000²/7 result rows.
    let q = "SELECT ?a ?b WHERE { ?a <http://p> ?x . ?b <http://p> ?x }";
    let result = budgeted(&store, q, 64 << 10);
    assert!(
        matches!(result, Err(SparqlError::ResourceExhausted(_))),
        "expected ResourceExhausted, got {result:?}"
    );
    // The same query completes under a generous budget.
    budgeted(&store, q, 1 << 30).expect("generous budget must not abort");
}

/// A high-cardinality GROUP BY (every subject its own group) must abort
/// when the aggregation state exceeds the budget.
#[test]
fn memory_budget_aborts_a_large_group_by() {
    let store = dense_store(20_000);
    let q = "SELECT ?a (COUNT(?x) AS ?n) WHERE { ?a <http://p> ?x } GROUP BY ?a";
    let result = budgeted(&store, q, 32 << 10);
    assert!(
        matches!(result, Err(SparqlError::ResourceExhausted(_))),
        "expected ResourceExhausted, got {result:?}"
    );
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

/// 16 clients hammering a governor with one execution slot and a single
/// queue seat: some work is admitted, the overflow sheds with a typed
/// `Overloaded` error, and the stats account for every arrival.
#[test]
fn admission_control_sheds_under_sixteen_clients() {
    let store =
        Arc::new(PgRdfStore::load(&PropertyGraph::sample_figure1(), PgRdfModel::NG).expect("load"));
    let governor = store.set_governor(GovernorConfig {
        max_concurrent: 1,
        max_queue: 1,
        queue_timeout: Duration::from_millis(1),
        ..GovernorConfig::default()
    });
    // Hold the only execution slot through the start of the burst so the
    // 16-client collision is deterministic instead of a scheduling race:
    // while the slot is busy, the single queue seat fills and every other
    // arrival sheds. Released as soon as the first shed is observed.
    let warm = governor.admit(1).expect("pre-burst slot hold");
    governor.reset_stats();

    const CLIENTS: usize = 16;
    const PER_CLIENT: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let q = "PREFIX key: <http://pg/k/> SELECT ?v ?n WHERE { ?v key:name ?n }";
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            let ok = Arc::clone(&ok);
            let shed = Arc::clone(&shed);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..PER_CLIENT {
                    match store.query_with(q, ExecOptions::default()) {
                        Ok(_) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(CoreError::Overloaded(_)) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected error under load: {other}"),
                    }
                }
            })
        })
        .collect();
    let burst_started = Instant::now();
    while shed.load(Ordering::Relaxed) == 0 && burst_started.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(warm);
    for w in workers {
        w.join().unwrap();
    }

    let stats = governor.stats();
    let total = (CLIENTS * PER_CLIENT) as u64;
    assert_eq!(
        ok.load(Ordering::Relaxed),
        stats.admitted,
        "admit accounting"
    );
    assert_eq!(shed.load(Ordering::Relaxed), stats.shed, "shed accounting");
    assert_eq!(
        stats.admitted + stats.shed,
        total,
        "every arrival accounted for"
    );
    assert!(stats.admitted > 0, "at least some queries must be admitted");
    assert!(
        stats.shed > 0,
        "16 clients against 1 slot + 1 queue seat must shed (admitted={})",
        stats.admitted
    );
    // Once the burst is over the governor is idle and admits normally.
    assert_eq!(governor.running(), 0);
    assert_eq!(governor.waiting(), 0);
    store.clear_governor();
    store
        .query_with(q, ExecOptions::default())
        .expect("post-burst query");
}

/// An explicit per-query memory budget above the governor's aggregate cap
/// still runs — alone — instead of deadlocking.
#[test]
fn oversized_reservation_degrades_to_serial_not_deadlock() {
    let store = PgRdfStore::load(&PropertyGraph::sample_figure1(), PgRdfModel::SP).expect("load");
    let governor = store.set_governor(GovernorConfig {
        max_total_memory: 1 << 20,
        queue_timeout: Duration::from_secs(5),
        ..GovernorConfig::default()
    });
    governor.reset_stats();
    let options = ExecOptions::default().with_limits(ExecLimits::memory(1 << 30));
    store
        .query_with(
            "PREFIX key: <http://pg/k/> SELECT ?v WHERE { ?v key:age ?a }",
            options,
        )
        .expect("an over-budget query must run alone, not deadlock");
    let stats = governor.stats();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.shed, 0);
    // The query never queued, so no wait samples were recorded.
    assert_eq!(stats.queued, 0);
    assert!(stats.queue_wait_percentile(0.95).is_none());
}

// ---------------------------------------------------------------------
// Storage degradation
// ---------------------------------------------------------------------

/// An fsync storm mid-workload: writes that were acknowledged before the
/// storm survive recovery bit-for-bit; the write that hit the storm fails
/// with a typed `ReadOnly` error (never a panic), reads keep serving from
/// the in-memory store, and after the fault clears `try_recover` re-arms
/// writes. Reopening from disk replays exactly the acknowledged set.
#[test]
fn fsync_storm_degrades_to_read_only_and_recovers_without_losing_acks() {
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let dir = std::env::temp_dir().join(format!(
        "pgrdf_governor_fsync_{}_{nonce}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let vfs = Arc::new(FaultyVfs::counting());
    let mut ds = DurableStore::open_with_retry(
        &dir,
        vfs.clone(),
        SyncPolicy::Always,
        RetryPolicy::immediate(2),
    )
    .expect("open");
    ds.create_model("m").expect("model");

    let quad = |i: u32| {
        Quad::triple(
            Term::iri(format!("http://s{i}")),
            Term::iri("http://p"),
            Term::iri(format!("http://o{i}")),
        )
        .expect("valid quad")
    };

    let mut acked = Vec::new();
    let mut degraded = false;
    for i in 0..200u32 {
        if i == 120 {
            // Persistent storm: more failures than the retry policy will
            // ever absorb, so the store must flip to read-only.
            vfs.fail_next(FaultOp::Sync, u64::MAX / 2);
        }
        match ds.insert("m", &quad(i)) {
            Ok(_) => acked.push(i),
            Err(StoreError::ReadOnly(_)) => {
                degraded = true;
                break;
            }
            Err(other) => panic!("unexpected insert error: {other}"),
        }
    }
    assert!(degraded, "the fsync storm must surface as ReadOnly");
    assert!(ds.is_read_only());
    assert!(ds.read_only_reason().is_some());
    assert_eq!(acked.len(), 120, "every pre-storm write was acknowledged");

    // Reads keep serving while degraded, and further writes fail fast.
    assert_eq!(ds.store().model("m").expect("model").len(), acked.len());
    assert!(matches!(
        ds.insert("m", &quad(999)),
        Err(StoreError::ReadOnly(_))
    ));
    assert!(matches!(ds.sync(), Err(StoreError::ReadOnly(_))));

    // While the fault persists, the recovery probe keeps the store down.
    assert!(
        !ds.try_recover(),
        "probe must fail while fsync still faults"
    );
    assert!(ds.is_read_only());

    // Fault clears → probe re-arms writes and the store accepts DML again.
    vfs.clear_scheduled();
    assert!(ds.try_recover(), "probe must succeed once the fault clears");
    assert!(!ds.is_read_only());
    ds.insert("m", &quad(500)).expect("post-recovery write");
    acked.push(500);
    drop(ds);

    // Cold recovery replays exactly the acknowledged writes.
    let reopened = DurableStore::open(&dir).expect("reopen");
    let model = reopened.store().model("m").expect("model");
    assert_eq!(
        model.len(),
        acked.len(),
        "acked writes survive, nothing extra"
    );
    let present = |i: u32| {
        let ask = format!("ASK {{ <http://s{i}> <http://p> <http://o{i}> }}");
        match sparql::query(reopened.store(), "m", &ask).expect("ask") {
            sparql::QueryResults::Boolean(b) => b,
            other => panic!("ASK returned {other:?}"),
        }
    };
    assert!(
        present(0) && present(119) && present(500),
        "acked quads lost"
    );
    assert!(
        !present(120) && !present(999),
        "un-acked quads must not reappear"
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Aborted queries in the observability surfaces
// ---------------------------------------------------------------------

/// Regression: the slow-query log and the flight recorder must retain
/// aborted queries — cancelled, budget-tripped, and shed — not only the
/// ones that finished. The threshold is set absurdly high, so nothing
/// below lands in the log for *being slow*; every entry is there because
/// it aborted, and each carries a query id that joins against the flight
/// recorder with the same outcome.
#[test]
fn aborted_queries_are_recorded_with_their_outcome() {
    let store = PgRdfStore::load(&PropertyGraph::sample_figure1(), PgRdfModel::NG).expect("load");
    let dataset = store.dataset_name();
    store.set_slow_query_threshold(u64::MAX);

    // A fast successful query does not qualify.
    store
        .select("PREFIX key: <http://pg/k/> SELECT ?v WHERE { ?v key:age ?a }")
        .expect("ok query");
    assert!(
        store.slow_queries().is_empty(),
        "fast ok queries must not land in the log"
    );

    let cross = "SELECT ?a ?b ?c WHERE { ?a ?p ?x . ?b ?q ?y . ?c ?r ?z }";

    // Cancelled before submission: aborts at the first periodic check.
    let token = CancelToken::new();
    token.cancel();
    let options = ExecOptions::default().with_cancel(token);
    let cancelled = store.select_in_with(&dataset, cross, options);
    assert!(matches!(
        cancelled,
        Err(CoreError::Sparql(SparqlError::Cancelled))
    ));

    // Budget trip (row budget reads as `memory_exhausted`).
    let exhausted = store.select_in_with(
        &dataset,
        cross,
        ExecOptions::default().with_limits(ExecLimits::rows(10)),
    );
    assert!(matches!(
        exhausted,
        Err(CoreError::Sparql(SparqlError::ResourceExhausted(_)))
    ));

    // Shed: the only execution slot is held and there is no queue seat,
    // so the next arrival is rejected before doing any work.
    let governor = store.set_governor(GovernorConfig {
        max_concurrent: 1,
        max_queue: 0,
        queue_timeout: Duration::from_millis(1),
        ..GovernorConfig::default()
    });
    let slot = governor.admit(1).expect("occupy the only slot");
    let shed = store.select_in(&dataset, cross);
    assert!(
        matches!(shed, Err(CoreError::Overloaded(_))),
        "expected shed, got {shed:?}"
    );
    drop(slot);
    store.clear_governor();

    let log = store.slow_queries();
    let outcomes: Vec<&str> = log.iter().map(|e| e.outcome).collect();
    assert_eq!(
        outcomes,
        ["cancelled", "memory_exhausted", "shed"],
        "three aborts, three entries, in submission order: {log:?}"
    );
    for entry in &log {
        assert!(entry.query_id > 0, "aborted entries still get ids");
        let event = telemetry::flight_recorder()
            .find(entry.query_id)
            .unwrap_or_else(|| panic!("flight recorder lost query {}", entry.query_id));
        assert_eq!(event.outcome.as_str(), entry.outcome);
        // Armed log + abort ⇒ the span timeline was kept for post-mortem.
        assert!(!event.spans.is_empty(), "{}: spans dropped", entry.outcome);
    }
}
