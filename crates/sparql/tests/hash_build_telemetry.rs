//! `pgrdf_hash_build_rows` records every hash-join build, including one a
//! limit cuts short: the rows it scanned before the budget stopped it are
//! work done, and a histogram that saw only finished builds would hide
//! the costliest ones. Its own binary with a single test, because it
//! flips the process-wide telemetry switch.

use quadstore::Store;
use rdf_model::{Quad, Term};
use sparql::{CompileOptions, ExecLimits, ExecOptions, ForcedJoin, SparqlError};

/// Keys on the build side of the hash join below.
const BUILD_ROWS: u64 = 3_000;

/// `(count, sum)` of the build-rows histogram.
fn build_rows() -> (u64, u64) {
    telemetry::global()
        .samples()
        .into_iter()
        .find(|s| s.name == "pgrdf_hash_build_rows")
        .map_or((0, 0), |s| match s.value {
            telemetry::MetricValue::Histogram { count, sum, .. } => (count, sum),
            other => panic!("expected a histogram, got {other:?}"),
        })
}

#[test]
fn every_build_records_the_rows_it_scanned() {
    let store = Store::new();
    store.create_model("m").expect("model");
    let n = |i: u64| Term::iri(format!("http://n{i}"));
    let mut quads: Vec<Quad> = (0..BUILD_ROWS)
        .map(|i| Quad::triple(n(i), Term::iri("http://p"), n(i + 1)).expect("quad"))
        .collect();
    quads.extend(
        (0..10).map(|i| Quad::triple(n(0), Term::iri("http://q"), n(i * 7)).expect("quad")),
    );
    store.bulk_load("m", &quads).expect("load");
    let view = store.dataset("m").expect("dataset");
    let text = "SELECT * WHERE { ?a <http://q> ?k . ?k <http://p> ?v }";
    let query = sparql::parse_query(text).expect("parse");
    let options = CompileOptions {
        force_join: Some(ForcedJoin::Hash),
        ..Default::default()
    };
    let plan = sparql::compile_with(&view, &query, options).expect("compile");
    let run = |limits: ExecLimits| {
        let options = ExecOptions::threads(1).with_limits(limits);
        sparql::execute_compiled_with_options(&view, &plan, options)
    };

    telemetry::set_enabled(true);
    let before = build_rows();
    let rows = run(ExecLimits::default()).expect("unlimited run");
    let finished = build_rows();
    // The build charges its first 1,024 rows in one chunk, which a 1 KiB
    // budget cannot hold.
    let err = run(ExecLimits::default().with_max_memory(1024)).expect_err("budget");
    let stopped = build_rows();
    telemetry::set_enabled(false);

    assert_eq!(rows.into_solutions().expect("solutions").len(), 10);
    assert_eq!(
        finished,
        (before.0 + 1, before.1 + BUILD_ROWS),
        "a finished build"
    );
    assert!(matches!(err, SparqlError::ResourceExhausted(_)), "{err:?}");
    assert_eq!(
        stopped,
        (finished.0 + 1, finished.1 + 1_024),
        "a build stopped by the budget"
    );
}
