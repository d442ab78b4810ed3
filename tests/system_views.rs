//! The self-observing store end-to-end: flight-recorder entries and
//! registry metrics surfaced as SPARQL-queryable system graphs, ring
//! semantics under concurrent writers, Chrome trace export, and the
//! isolation guarantee that sys graphs stay invisible unless named.

use std::collections::HashSet;
use std::sync::Arc;

use pgrdf::{CoreError, PgRdfModel, PgRdfStore};
use propertygraph::PropertyGraph;
use sparql::SparqlError;
use telemetry::{FlightRecorder, QueryEvent};

fn sample_store() -> PgRdfStore {
    PgRdfStore::load(&PropertyGraph::sample_figure1(), PgRdfModel::NG).expect("load")
}

fn scalar(store: &PgRdfStore, q: &str) -> i64 {
    store
        .select(q)
        .expect("sys query")
        .scalar_i64()
        .unwrap_or_else(|| panic!("expected one scalar row from {q}"))
}

/// A counter bumped through the registry handle must read back with the
/// same value through `pgrdf:sys/metrics` — the sys graph is the
/// registry, not a copy that can drift.
#[test]
fn sys_metrics_graph_agrees_with_registry_reads() {
    let store = sample_store();
    let counter =
        telemetry::global().counter("test_sysview_counter", "system_views.rs scratch counter");
    counter.add(7);
    let via_sparql = scalar(
        &store,
        "SELECT ?v WHERE { GRAPH <pgrdf:sys/metrics> { \
           ?m <pgrdf:sys#name> \"test_sysview_counter\" . \
           ?m <pgrdf:sys#value> ?v } }",
    );
    let direct = telemetry::global()
        .samples()
        .into_iter()
        .find(|s| s.name == "test_sysview_counter")
        .map(|s| match s.value {
            telemetry::MetricValue::Counter(v) => v,
            other => panic!("expected a counter, got {other:?}"),
        })
        .expect("registry sample");
    assert_eq!(via_sparql, direct as i64);
    assert_eq!(via_sparql, 7);
}

/// The acceptance criterion: run a query, then ask the store *about
/// that query* over `pgrdf:sys/queries` — exec time and outcome must
/// match the `QueryProfile` the caller got, joined on the query id.
#[test]
fn sys_queries_graph_returns_the_recorded_query() {
    let store = sample_store();
    let q = store.queries().q2_edge_kvs();
    let (sols, profile) = store.select_profiled(&q).expect("profiled select");
    assert_eq!(sols.len(), 1);
    assert!(profile.query_id > 0);

    let exec = scalar(
        &store,
        &format!(
            "SELECT ?exec WHERE {{ GRAPH <pgrdf:sys/queries> {{ \
               ?q <pgrdf:sys#queryId> {} . ?q <pgrdf:sys#execNanos> ?exec }} }}",
            profile.query_id
        ),
    );
    assert_eq!(exec as u64, profile.wall_nanos);

    let outcome = store
        .select(&format!(
            "SELECT ?o WHERE {{ GRAPH <pgrdf:sys/queries> {{ \
               ?q <pgrdf:sys#queryId> {} . ?q <pgrdf:sys#outcome> ?o }} }}",
            profile.query_id
        ))
        .expect("outcome query");
    assert_eq!(outcome.len(), 1);
    let term = outcome.rows[0][0].as_ref().expect("bound outcome");
    assert_eq!(term.as_literal().expect("literal").lexical(), "ok");

    // The rows-out fact agrees with what the caller saw, too.
    let rows_out = scalar(
        &store,
        &format!(
            "SELECT ?r WHERE {{ GRAPH <pgrdf:sys/queries> {{ \
               ?q <pgrdf:sys#queryId> {} . ?q <pgrdf:sys#rowsOut> ?r }} }}",
            profile.query_id
        ),
    );
    assert_eq!(rows_out as u64, profile.result_rows);
}

/// The plan-cache graph exposes the live entries: after a compile and a
/// hit, the entry for the query text reports at least one hit.
#[test]
fn sys_plans_graph_lists_cached_entries() {
    let store = sample_store();
    let q = store.queries().q2_edge_kvs();
    store.select(&q).expect("compile");
    store.select(&q).expect("cache hit");
    let sols = store
        .select(
            "SELECT ?text ?hits WHERE { GRAPH <pgrdf:sys/plans> { \
               ?p <pgrdf:sys#text> ?text . ?p <pgrdf:sys#hits> ?hits } }",
        )
        .expect("plans query");
    let hit_entry = sols.rows.iter().find(|row| {
        row[0]
            .as_ref()
            .and_then(|t| t.as_literal())
            .map(|l| l.lexical())
            == Some(q.as_str())
    });
    let hits = hit_entry.expect("cached entry visible")[1]
        .as_ref()
        .and_then(|t| t.as_literal())
        .and_then(|l| l.as_i64())
        .expect("hits literal");
    assert!(hits >= 1, "expected at least one recorded hit, got {hits}");
}

/// `sys:vectorized` is what the executor did, not what was asked for:
/// the NG edge family runs on the vectorized pipeline at any thread
/// count, an OPTIONAL at the root runs on the row evaluator, and plans
/// (one per text) no longer carry the flag.
#[test]
fn sys_queries_report_whether_a_vectorized_pipeline_ran() {
    use pgrdf_bench::{Eq, Fixture};
    use sparql::ExecOptions;

    let fixture = Fixture::at_scale(0.002);
    let store = fixture.store(PgRdfModel::NG);
    let recorded = |text: &str, threads: usize| -> Vec<String> {
        store
            .select(&format!(
                "SELECT ?v WHERE {{ GRAPH <pgrdf:sys/queries> {{ \
                   ?q <pgrdf:sys#textHash> \"{:016x}\" . ?q <pgrdf:sys#threads> {threads} . \
                   ?q <pgrdf:sys#vectorized> ?v }} }}",
                telemetry::fnv1a64(text.as_bytes())
            ))
            .expect("sys query")
            .rows
            .iter()
            .map(|row| row[0].as_ref().expect("bound flag").str_value().to_string())
            .collect()
    };
    for eq in [Eq::Eq5, Eq::Eq6, Eq::Eq7, Eq::Eq8] {
        let text = fixture.query_text(eq, PgRdfModel::NG);
        let dataset = fixture.dataset_for(eq, PgRdfModel::NG);
        for threads in [1usize, 4] {
            store
                .select_in_with(&dataset, &text, ExecOptions::threads(threads))
                .expect("select");
            let flags = recorded(&text, threads);
            assert!(
                !flags.is_empty() && flags.iter().all(|v| v == "true"),
                "{} threads={threads}: sys:vectorized = {flags:?}",
                eq.label(PgRdfModel::NG)
            );
        }
    }
    let optional = "SELECT ?s ?x WHERE { ?s ?p ?o OPTIONAL { ?o ?p ?x } }";
    store
        .select_in_with(&store.dataset_name(), optional, ExecOptions::threads(1))
        .expect("select");
    assert_eq!(recorded(optional, 1), ["false"]);

    let plan_flags = store
        .select("SELECT ?v WHERE { GRAPH <pgrdf:sys/plans> { ?p <pgrdf:sys#vectorized> ?v } }")
        .expect("plans query");
    assert!(
        plan_flags.is_empty(),
        "pgrdf:sys/plans must not describe an execution"
    );
}

/// Sys queries are never cached, governed, recorded or profiled: a
/// profiled one is refused with a typed error, not run against the user
/// data — where no sys quad exists, so it would count 0.
#[test]
fn profiled_sys_query_is_refused_not_answered_from_user_data() {
    let store = sample_store();
    let q = "SELECT (COUNT(*) AS ?n) WHERE { GRAPH <pgrdf:sys/store> { ?s ?p ?o } }";
    assert!(
        scalar(&store, q) > 0,
        "the overlay answers the unprofiled query"
    );
    let profiled = store.select_profiled(q);
    assert!(
        matches!(
            profiled,
            Err(CoreError::Sparql(SparqlError::Unsupported(_)))
        ),
        "expected Unsupported, got {profiled:?}"
    );
}

/// The storage graph totals agree with the store's own report.
#[test]
fn sys_store_graph_matches_storage_report() {
    let store = sample_store();
    let total = scalar(
        &store,
        "SELECT ?b WHERE { GRAPH <pgrdf:sys/store> { \
           <pgrdf:sys/store> <pgrdf:sys#totalBytes> ?b } }",
    );
    assert_eq!(total as usize, store.storage_report().total_bytes());
    let quads = scalar(
        &store,
        "SELECT ?n WHERE { GRAPH <pgrdf:sys/store> { \
           <pgrdf:sys/store/model/pg> <pgrdf:sys#quads> ?n } }",
    );
    assert_eq!(quads as usize, store.stats().quads);
}

/// Ring semantics under contention: 8 writers racing into a 64-slot
/// recorder never lose the sequence count, never duplicate a slot, and
/// retain exactly the capacity's worth of newest entries.
#[test]
fn recorder_wraps_at_capacity_under_concurrent_writers() {
    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 32;
    let recorder = Arc::new(FlightRecorder::with_capacity(64));
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let recorder = Arc::clone(&recorder);
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    recorder.record(QueryEvent {
                        query_id: w * PER_WRITER + i + 1,
                        family: "select",
                        exec_nanos: w,
                        rows_out: i,
                        threads: 1,
                        vectorized: true,
                        ..QueryEvent::default()
                    });
                }
            });
        }
    });
    assert_eq!(recorder.recorded(), WRITERS * PER_WRITER);
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.len(), 64, "ring must retain exactly its capacity");
    let ids: HashSet<u64> = snapshot.iter().map(|e| e.query_id).collect();
    assert_eq!(ids.len(), 64, "no slot may hold a duplicated event");
    for event in &snapshot {
        assert!((1..=WRITERS * PER_WRITER).contains(&event.query_id));
    }
}

/// Trace export: the profiled run's timeline parses as Chrome trace JSON
/// and its spans nest sanely (no span ends before it starts, starts are
/// ordered).
#[test]
fn trace_json_parses_and_spans_nest() {
    let store = sample_store();
    let q = store.queries().q2_edge_kvs();
    let (_, profile) = store.select_profiled(&q).expect("profiled select");
    let event = telemetry::flight_recorder()
        .find(profile.query_id)
        .expect("recorded event");
    assert!(!event.spans.is_empty(), "profiled runs always keep spans");
    let scopes: Vec<&str> = event.spans.iter().map(|s| s.scope).collect();
    assert!(scopes.contains(&"admit"), "missing admit span: {scopes:?}");
    assert!(scopes.contains(&"emit"), "missing emit span: {scopes:?}");
    let mut last_start = 0;
    for span in &event.spans {
        assert!(
            span.end_nanos >= span.start_nanos,
            "span {} ends before it starts",
            span.scope
        );
        assert!(
            span.start_nanos >= last_start,
            "spans must be start-ordered"
        );
        last_start = span.start_nanos;
    }

    let json = store.trace_json(profile.query_id).expect("trace available");
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains(&format!("\"pid\":{}", profile.query_id)));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());

    // Unknown ids export nothing rather than an empty trace.
    assert!(store.trace_json(u64::MAX).is_none());
}

/// Isolation: a `GRAPH ?g` wildcard over the real dataset never
/// enumerates a sys graph, while naming one explicitly works — and sys
/// quads never reach the store's own quad count.
#[test]
fn sys_graphs_invisible_unless_named() {
    let store = sample_store();
    let quads_before = store.quads().len();
    // Seed the recorder so the queries graph is non-empty.
    store
        .select(&store.queries().q2_edge_kvs())
        .expect("seed query");

    let graphs = store
        .select("SELECT DISTINCT ?g WHERE { GRAPH ?g { ?s ?p ?o } }")
        .expect("wildcard");
    assert!(!graphs.is_empty(), "NG model stores edges in named graphs");
    for row in &graphs.rows {
        let g = row[0].as_ref().expect("bound graph");
        let iri = match g {
            rdf_model::Term::Iri(iri) => iri.as_str(),
            other => panic!("unexpected graph term {other:?}"),
        };
        assert!(
            !iri.starts_with("pgrdf:sys"),
            "sys graph leaked into wildcard: {iri}"
        );
    }

    let named = store
        .select(
            "SELECT ?q WHERE { GRAPH <pgrdf:sys/queries> { \
               ?q <pgrdf:sys#outcome> ?o } }",
        )
        .expect("explicit sys graph");
    assert!(!named.is_empty(), "explicitly named sys graph must resolve");
    assert_eq!(
        store.quads().len(),
        quads_before,
        "sys overlay must not leak into the store"
    );
}
