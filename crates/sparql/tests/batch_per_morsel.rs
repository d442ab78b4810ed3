//! The vectorized pipeline runs each morsel as one column batch: the
//! driving scan's columns become the batch, and every operator runs once
//! per morsel. Its own binary with a single test, because it flips the
//! process-wide telemetry switch and reads a global counter.

use std::sync::Arc;

use quadstore::Store;
use rdf_model::{Quad, Term};
use sparql::{ExecObserver, ExecOptions, DEFAULT_MORSEL_SIZE};

/// Rows of the driving scan: three default-size morsels, the last one
/// partial.
const DRIVE_ROWS: u64 = 5_000;

/// The `pgrdf_vec_batches_emitted_total` counter.
fn batches_emitted() -> u64 {
    telemetry::global()
        .samples()
        .into_iter()
        .find(|s| s.name == "pgrdf_vec_batches_emitted_total")
        .map_or(0, |s| match s.value {
            telemetry::MetricValue::Counter(n) => n,
            other => panic!("expected a counter, got {other:?}"),
        })
}

#[test]
fn each_morsel_is_one_batch() {
    let store = Store::new();
    store.create_model("m").expect("model");
    let n = |i: u64| Term::iri(format!("http://n{i}"));
    let quads: Vec<Quad> = (0..DRIVE_ROWS)
        .map(|i| Quad::triple(n(i), Term::iri("http://p"), n(i + 1)).expect("quad"))
        .collect();
    store.bulk_load("m", &quads).expect("load");
    let view = store.dataset("m").expect("dataset");
    let text = "SELECT * WHERE { ?a <http://p> ?b . ?b <http://p> ?c }";
    let plan = sparql::compile(&view, &sparql::parse_query(text).expect("parse")).expect("compile");
    let observer = Arc::new(ExecObserver::new());
    let options = ExecOptions::threads(1).with_observer(Arc::clone(&observer));

    telemetry::set_enabled(true);
    let before = batches_emitted();
    let results = sparql::execute_compiled_with_options(&view, &plan, options).expect("run");
    let after = batches_emitted();
    telemetry::set_enabled(false);

    assert!(
        observer.vectorized(),
        "the chain must run on the vectorized pipeline"
    );
    assert_eq!(
        results.into_solutions().expect("solutions").len() as u64,
        DRIVE_ROWS - 1
    );
    // Per morsel: the drive scan's batch, then the join step's.
    let morsels = DRIVE_ROWS.div_ceil(DEFAULT_MORSEL_SIZE as u64);
    assert_eq!(
        after - before,
        2 * morsels,
        "batches emitted over {morsels} morsels"
    );
}
