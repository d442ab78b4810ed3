//! Query-execution resource guards: a row budget or deadline must abort
//! runaway queries with `ResourceExhausted`, and generous limits must
//! never change results.

use quadstore::Store;
use rdf_model::{Quad, Term};
use sparql::{
    query, query_with_options, ExecLimits, ExecObserver, ExecOptions, QueryResults, SparqlError,
};
use std::sync::Arc;

/// A store where `?a ?p ?x . ?b ?p ?y` explodes quadratically.
fn dense_store(n: u32) -> Store {
    let store = Store::new();
    store.create_model("m").expect("model");
    let quads: Vec<Quad> = (0..n)
        .map(|i| {
            Quad::triple(
                Term::iri(format!("http://s{i}")),
                Term::iri("http://p"),
                Term::iri(format!("http://o{i}")),
            )
            .expect("valid quad")
        })
        .collect();
    store.bulk_load("m", &quads).expect("load");
    store
}

const CROSS: &str = "SELECT ?a ?b WHERE { ?a <http://p> ?x . ?b <http://p> ?y }";

/// `q` on model `m` under `limits`, every other option at its default.
fn under_limits(store: &Store, q: &str, limits: ExecLimits) -> Result<QueryResults, SparqlError> {
    query_with_options(store, "m", q, ExecOptions::default().with_limits(limits))
}

/// The row evaluator on its own (`execute_reference`), under `limits`.
fn reference(store: &Store, q: &str, limits: ExecLimits) -> Result<QueryResults, SparqlError> {
    let view = store.dataset("m").expect("dataset");
    let compiled = sparql::compile(&view, &sparql::parse_query(q)?)?;
    sparql::execute_reference(&view, &compiled, limits).map(|(results, _)| results)
}

#[test]
fn row_budget_aborts_cross_products() {
    let store = dense_store(100);
    // 100 × 100 intermediate rows, budget of 500.
    let result = under_limits(&store, CROSS, ExecLimits::rows(500));
    assert!(
        matches!(result, Err(SparqlError::ResourceExhausted(_))),
        "expected ResourceExhausted, got {result:?}"
    );
}

#[test]
fn generous_budget_changes_nothing() {
    let store = dense_store(12);
    let unlimited = query(&store, "m", CROSS).expect("unlimited");
    let limited = under_limits(&store, CROSS, ExecLimits::rows(1_000_000)).expect("limited");
    assert_eq!(unlimited, limited);
}

#[test]
fn expired_deadline_aborts() {
    let store = dense_store(200);
    // A deadline in the past trips at the first stride check.
    let limits = ExecLimits {
        deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
        ..ExecLimits::default()
    };
    let result = under_limits(&store, CROSS, limits);
    assert!(
        matches!(result, Err(SparqlError::ResourceExhausted(_))),
        "expected ResourceExhausted, got {result:?}"
    );
}

#[test]
fn budget_inside_subselect_still_surfaces() {
    let store = dense_store(60);
    // The sub-select's error is discarded by the SubSelect operator, but
    // the sticky exhaustion flag must surface from the outer query.
    let q = "SELECT ?a WHERE { ?a <http://p> ?x . \
             { SELECT ?b WHERE { ?b <http://p> ?u . ?c <http://p> ?v } } }";
    let result = under_limits(&store, q, ExecLimits::rows(300));
    assert!(
        matches!(result, Err(SparqlError::ResourceExhausted(_))),
        "expected ResourceExhausted, got {result:?}"
    );
}

/// The memory budget must account for the executor's own row/column
/// buffers, not just retained state like hash tables: a wide cross
/// product whose intermediate buffers dwarf the budget has to abort
/// *between* operators under every engine — vectorized at any morsel
/// size, the row evaluator, and the parallel executor. (Regression: the
/// collected row vectors and column batches were once uncharged, so a
/// wide scan could balloon far past `max_memory` before any retained
/// state tripped the limit.)
#[test]
fn memory_budget_charges_interoperator_buffers() {
    let store = dense_store(300);
    // 300 × 300 = 90,000 intermediate rows; even at 8 bytes per value the
    // buffers need >1.4 MB against a 64 KB budget.
    let limits = ExecLimits::memory(64 * 1024);
    for (label, options) in [
        ("vectorized", ExecOptions::default().with_limits(limits)),
        (
            "vectorized morsel=1",
            ExecOptions::default()
                .with_limits(limits)
                .with_morsel_size(1),
        ),
        ("parallel", ExecOptions::threads(4).with_limits(limits)),
    ] {
        let result = query_with_options(&store, "m", CROSS, options);
        assert!(
            matches!(result, Err(SparqlError::ResourceExhausted(_))),
            "{label}: expected ResourceExhausted, got {result:?}"
        );
    }
    let result = reference(&store, CROSS, limits);
    assert!(
        matches!(result, Err(SparqlError::ResourceExhausted(_))),
        "row: expected ResourceExhausted, got {result:?}"
    );
}

/// A budget big enough for the buffers must leave results bit-identical
/// on the vectorized pipeline and the row evaluator.
#[test]
fn memory_budget_generous_changes_nothing() {
    let store = dense_store(12);
    let unlimited = query(&store, "m", CROSS).expect("unlimited");
    let limits = ExecLimits::memory(64 * 1024 * 1024);
    let options = ExecOptions::default().with_limits(limits);
    let vectorized = query_with_options(&store, "m", CROSS, options).expect("vectorized");
    assert_eq!(
        unlimited, vectorized,
        "vectorized diverged under a generous budget"
    );
    let row = reference(&store, CROSS, limits).expect("row");
    assert_eq!(unlimited, row, "row diverged under a generous budget");
}

/// Aggregates over plans the columnar compiler rejects never hold the
/// 160,000 solution rows, so a budget far below the rows' footprint holds
/// at every thread count: such a plan (MINUS sibling, root OPTIONAL)
/// streams through the row evaluator on the calling thread, and the
/// aggregation loop pulls its rows one at a time.
#[test]
fn aggregates_over_row_engine_plans_stay_within_memory_budget() {
    let store = dense_store(400);
    for q in [
        "SELECT (COUNT(*) AS ?n) WHERE { ?a <http://p> ?x . ?b <http://p> ?y \
         MINUS { ?a <http://p> <http://o3> } }",
        "SELECT (COUNT(*) AS ?n) WHERE { ?a <http://p> ?x OPTIONAL { ?b <http://p> ?y } }",
        "SELECT (SUM(1) AS ?n) WHERE { ?a <http://p> ?x OPTIONAL { ?b <http://p> ?y } }",
    ] {
        let expected = reference(&store, q, ExecLimits::default()).expect("reference");
        for threads in [1, 4] {
            let options = ExecOptions::threads(threads).with_limits(ExecLimits::memory(256 * 1024));
            let result = query_with_options(&store, "m", q, options);
            assert_eq!(
                result.as_ref().ok(),
                Some(&expected),
                "threads={threads} {q}: {result:?}"
            );
        }
        // The reference evaluator streams into the aggregation loop too.
        let limited = reference(&store, q, ExecLimits::memory(256 * 1024));
        assert_eq!(
            limited.as_ref().ok(),
            Some(&expected),
            "reference {q}: {limited:?}"
        );
    }
}

#[test]
fn ask_respects_limits() {
    let store = dense_store(100);
    let result = under_limits(
        &store,
        "ASK { ?a <http://p> ?x . ?b <http://p> ?y . FILTER (?a = ?b && ?x != ?y) }",
        ExecLimits::rows(50),
    );
    match result {
        Err(SparqlError::ResourceExhausted(_)) => {}
        Ok(QueryResults::Boolean(answer)) => {
            panic!("ASK completed ({answer}) despite a 50-row budget")
        }
        other => panic!("unexpected: {other:?}"),
    }
}

/// The row budget follows the work done, not the size of the relation: a
/// tail that stops pulling ends the scan, so ten rows of 50,000 fit a
/// 5,000-row budget on every engine, and an ASK stops at its first
/// solution. Without the LIMIT the same scan still aborts.
#[test]
fn row_budget_follows_the_rows_actually_scanned() {
    let store = dense_store(50_000);
    let limited = "SELECT ?s ?o WHERE { ?s <http://p> ?o } LIMIT 10";
    let rows = |result: Result<QueryResults, SparqlError>, label: &str| match result {
        Ok(QueryResults::Solutions(sols)) => sols.len(),
        other => panic!("{label}: {other:?}"),
    };
    for threads in [1, 4] {
        let options = ExecOptions::threads(threads).with_limits(ExecLimits::rows(5_000));
        let label = format!("threads={threads}");
        assert_eq!(
            rows(
                query_with_options(&store, "m", limited, options.clone()),
                &label
            ),
            10
        );
        let unlimited = query_with_options(
            &store,
            "m",
            "SELECT ?s ?o WHERE { ?s <http://p> ?o }",
            options,
        );
        assert!(
            matches!(unlimited, Err(SparqlError::ResourceExhausted(_))),
            "{label}: {unlimited:?}"
        );
    }
    assert_eq!(
        rows(
            reference(&store, limited, ExecLimits::rows(5_000)),
            "reference"
        ),
        10
    );

    let ask = under_limits(&store, "ASK { ?s <http://p> ?o }", ExecLimits::rows(100));
    assert_eq!(ask.ok(), Some(QueryResults::Boolean(true)));
}

/// `DISTINCT … LIMIT k` stops at its k-th fresh key at every thread count:
/// above one thread its rounds of morsels are sized from the LIMIT, like a
/// plain LIMIT's, so ten distinct rows of 50,000 fit a 5,000-row budget.
#[test]
fn distinct_limit_ends_the_scan_at_every_thread_count() {
    let store = dense_store(50_000);
    let q = "SELECT DISTINCT ?o WHERE { ?s <http://p> ?o } LIMIT 10";
    let expected = reference(&store, q, ExecLimits::rows(5_000)).expect("reference");
    assert!(
        matches!(&expected, QueryResults::Solutions(sols) if sols.len() == 10),
        "{expected:?}"
    );
    for threads in [1, 2, 4] {
        let options = ExecOptions::threads(threads).with_limits(ExecLimits::rows(5_000));
        let result = query_with_options(&store, "m", q, options);
        assert_eq!(
            result.as_ref().ok(),
            Some(&expected),
            "threads={threads}: {result:?}"
        );
    }
}

/// The rows a result keeps are charged as the tail takes them: a plain
/// whole-relation SELECT, whose 50,000 rows need about 2.5 MB, fails a
/// 256 KB budget on every engine rather than returning a truncated
/// result, and under a generous budget equals the reference exactly.
#[test]
fn a_result_over_the_memory_budget_fails_rather_than_truncates() {
    let store = dense_store(50_000);
    let q = "SELECT ?s ?o WHERE { ?s <http://p> ?o }";
    let small = ExecLimits::memory(256 * 1024);
    for threads in [1, 4] {
        let result = query_with_options(
            &store,
            "m",
            q,
            ExecOptions::threads(threads).with_limits(small),
        );
        assert!(
            matches!(result, Err(SparqlError::ResourceExhausted(_))),
            "threads={threads}: {result:?}"
        );
    }
    let result = reference(&store, q, small);
    assert!(
        matches!(result, Err(SparqlError::ResourceExhausted(_))),
        "reference: {result:?}"
    );

    let generous = ExecLimits::memory(64 * 1024 * 1024);
    let expected = reference(&store, q, generous).expect("reference");
    assert!(matches!(&expected, QueryResults::Solutions(sols) if sols.len() == 50_000));
    for threads in [1, 4] {
        let result = query_with_options(
            &store,
            "m",
            q,
            ExecOptions::threads(threads).with_limits(generous),
        );
        assert_eq!(result.as_ref().ok(), Some(&expected), "threads={threads}");
    }
}

/// `ORDER BY … LIMIT k` retains only its `k` best rows, so the memory
/// budget follows the answer, not the relation: ten of 50,000 rows fit a
/// budget the whole relation's 2.5 MB sort buffer does not, on every
/// engine. Without the LIMIT the same query sorts everything and aborts.
#[test]
fn ordered_limit_keeps_only_the_top_rows() {
    let store = dense_store(50_000);
    let top = "SELECT ?s ?o WHERE { ?s <http://p> ?o } ORDER BY ?o ?s LIMIT 10";
    let expected = query(&store, "m", top).expect("unlimited");
    let budget = ExecLimits::memory(256 * 1024);
    for threads in [1, 4] {
        let options = ExecOptions::threads(threads).with_limits(budget);
        let result = query_with_options(&store, "m", top, options.clone());
        assert_eq!(
            result.as_ref().ok(),
            Some(&expected),
            "threads={threads}: {result:?}"
        );
        let unlimited = query_with_options(&store, "m", top.trim_end_matches(" LIMIT 10"), options);
        assert!(
            matches!(unlimited, Err(SparqlError::ResourceExhausted(_))),
            "threads={threads}: {unlimited:?}"
        );
    }
    let limited = reference(&store, top, budget);
    assert_eq!(
        limited.as_ref().ok(),
        Some(&expected),
        "reference: {limited:?}"
    );
}

/// A plain count whose counted variable no later operator reads carries
/// each row's match count as a weight instead of materialising every
/// combination: the 160,000 pairs of a cross product fit a 256 KB budget
/// at every thread count. Rows are still charged in weighted counts, so
/// the same query aborts under a 100,000-row budget on every engine.
#[test]
fn plain_counts_charge_weighted_rows_and_materialised_bytes() {
    let store = dense_store(400);
    let q = "SELECT (COUNT(?y) AS ?n) WHERE { ?a <http://p> ?x . ?b <http://p> ?y }";
    let expected = reference(&store, q, ExecLimits::default()).expect("reference");
    for threads in [1, 4] {
        let options = ExecOptions::threads(threads).with_limits(ExecLimits::memory(256 * 1024));
        let result = query_with_options(&store, "m", q, options);
        assert_eq!(
            result.as_ref().ok(),
            Some(&expected),
            "threads={threads}: {result:?}"
        );
        let options = ExecOptions::threads(threads).with_limits(ExecLimits::rows(100_000));
        let result = query_with_options(&store, "m", q, options);
        assert!(
            matches!(result, Err(SparqlError::ResourceExhausted(_))),
            "threads={threads}: expected ResourceExhausted, got {result:?}"
        );
    }
    let result = reference(&store, q, ExecLimits::rows(100_000));
    assert!(
        matches!(result, Err(SparqlError::ResourceExhausted(_))),
        "reference: expected ResourceExhausted, got {result:?}"
    );
}

/// Plain-count groups are retained state however flat their table: 20,000
/// groups — on their own, or as the inner groups of EQ9's histogram,
/// whose rows pass straight into the outer count — exceed a 256 KB
/// budget at every thread count, and a generous one changes nothing.
#[test]
fn many_count_groups_exhaust_a_small_memory_budget() {
    let store = dense_store(20_000);
    let groups = "SELECT ?a (COUNT(*) AS ?n) WHERE { ?a <http://p> ?x } GROUP BY ?a";
    let histogram = format!("SELECT ?n (COUNT(*) AS ?c) WHERE {{ {groups} }} GROUP BY ?n");
    for q in [groups, histogram.as_str()] {
        let expected = reference(&store, q, ExecLimits::default()).expect("reference");
        for threads in [1, 4] {
            let options = ExecOptions::threads(threads).with_limits(ExecLimits::memory(256 * 1024));
            let result = query_with_options(&store, "m", q, options);
            assert!(
                matches!(result, Err(SparqlError::ResourceExhausted(_))),
                "threads={threads} {q}: expected ResourceExhausted, got {result:?}"
            );
            let options = ExecOptions::threads(threads).with_limits(ExecLimits::memory(64 << 20));
            let result = query_with_options(&store, "m", q, options);
            assert_eq!(
                result.as_ref().ok(),
                Some(&expected),
                "threads={threads} {q}"
            );
        }
    }
}

/// A plain-count group is charged what it holds — its key word, its
/// count, its first position and its chain link, 40 bytes here — and the
/// rows a root sub-select passes into the outer count are not kept, so
/// not charged. 20,000 groups then cost 1.98 MB with their result rows,
/// and EQ9's histogram over them 0.81 MB: both fit a 2.5 MB budget that a
/// charge of 105 bytes per group and `row_bytes` per passed row (3.28 and
/// 3.46 MB) exceeded, and equal the reference.
#[test]
fn count_groups_are_charged_what_they_hold() {
    let store = dense_store(20_000);
    let groups = "SELECT ?a (COUNT(*) AS ?n) WHERE { ?a <http://p> ?x } GROUP BY ?a";
    let histogram = format!("SELECT ?n (COUNT(*) AS ?c) WHERE {{ {groups} }} GROUP BY ?n");
    for q in [groups, histogram.as_str()] {
        let expected = reference(&store, q, ExecLimits::default()).expect("reference");
        let options = ExecOptions::threads(1).with_limits(ExecLimits::memory(2_500_000));
        let result = query_with_options(&store, "m", q, options);
        assert_eq!(result.as_ref().ok(), Some(&expected), "{q}: {result:?}");
    }
}

/// An ordered LIMIT over a UNION whose second branch streams (an
/// OPTIONAL) keeps its heap bound on every branch: the pipelined branch's
/// 25,000 rows are offered to the workers' heaps as they are made, not
/// buffered for the streamed branch's sake, so the 256 KB budget that ten
/// rows of one BGP fit holds at every thread count. Ties on `?o` must
/// break as a stable sort's do, as in the reference.
#[test]
fn ordered_limit_over_a_union_with_a_streamed_branch_keeps_only_the_top_rows() {
    let store = Store::new();
    store.create_model("m").expect("model");
    let mut quads = Vec::new();
    for i in 0..25_000u32 {
        let s = Term::iri(format!("http://s{i}"));
        let o = Term::iri(format!("http://o{}", i % 997));
        for p in ["http://p", "http://q"] {
            quads.push(Quad::triple(s.clone(), Term::iri(p), o.clone()).expect("quad"));
        }
        if i % 3 == 0 {
            let z = Term::iri(format!("http://z{i}"));
            quads.push(Quad::triple(s, Term::iri("http://r"), z).expect("quad"));
        }
    }
    store.bulk_load("m", &quads).expect("load");
    let top = "SELECT ?s ?o ?z WHERE { { ?s <http://p> ?o } \
               UNION { ?s <http://q> ?o OPTIONAL { ?s <http://r> ?z } } } \
               ORDER BY ?o LIMIT 10";
    let budget = ExecLimits::memory(256 * 1024);
    let expected = reference(&store, top, budget).expect("reference");
    for threads in [1, 2, 4] {
        let options = ExecOptions::threads(threads).with_limits(budget);
        let result = query_with_options(&store, "m", top, options);
        assert_eq!(
            result.as_ref().ok(),
            Some(&expected),
            "threads={threads}: {result:?}"
        );
    }
}

/// Triangles through one hub in model `m`, whose terms are interned
/// after `filler` subjects of another model, so every vertex's dictionary
/// ID exceeds `filler`: `x_i a hub` for `i < spokes`, the hub's `fan`
/// edges `hub b z_j`, `z_j c x_i` for `j` in `i..i + 3`, and one `b`
/// edge from each of `5 * fan` decoys, so that a `b` subject averages
/// fewer edges than a `c` object and the planner expands `b`.
fn late_hub(spokes: u32, fan: u32, filler: u32) -> Store {
    let store = Store::new();
    let triple = |s: String, p: &str, o: Term| {
        Quad::triple(Term::iri(s), Term::iri(p), o).expect("valid quad")
    };
    let quads: Vec<Quad> = (0..filler)
        .map(|i| triple(format!("http://f{i}"), "http://q", Term::string("f")))
        .collect();
    store.create_model("filler").expect("model");
    store.bulk_load("filler", &quads).expect("load");
    let (x, z) = (
        |i: u32| format!("http://x{i}"),
        |j: u32| format!("http://z{j}"),
    );
    let hub = || "http://hub".to_string();
    let edge = |s: String, p: &str, o: String| triple(s, p, Term::iri(o));
    let quads: Vec<Quad> = (0..spokes)
        .map(|i| edge(x(i), "http://a", hub()))
        .chain((0..fan).map(|j| edge(hub(), "http://b", z(j))))
        .chain((0..spokes).flat_map(|i| (i..i + 3).map(move |j| edge(z(j), "http://c", x(i)))))
        .chain((0..5 * fan).map(|d| edge(format!("http://d{d}"), "http://b", z(d % fan))))
        .collect();
    store.create_model("m").expect("model");
    store.bulk_load("m", &quads).expect("load");
    store
}

/// A triangle count closed by span intersection may mark an expand list
/// in a bitmap indexed by dictionary ID, grown to the largest ID marked
/// and charged to the query. The hub's 4,000 `b` neighbours, whose IDs
/// exceed 200,000, take a 25 KB bitmap, which a 1 MB budget holds. The
/// bitmap only speeds the intersection up: under a 16 KB budget, which
/// the reference fits, the intersection gallops instead, and every
/// thread count returns the reference's count.
#[test]
fn intersection_bitmaps_are_charged_but_never_abort() {
    let store = late_hub(8, 4_000, 200_000);
    let q = "SELECT (COUNT(*) AS ?n) WHERE { \
             ?x <http://a> ?y . ?y <http://b> ?z . ?z <http://c> ?x }";
    let view = store.dataset("m").expect("dataset");
    let plan = sparql::compile(&view, &sparql::parse_query(q).expect("parse")).expect("compile");
    assert!(
        sparql::explain::render(&plan).contains("INTERSECT"),
        "the cycle closes by intersection"
    );
    let small = ExecLimits::memory(16 * 1024);
    let expected = reference(&store, q, small).expect("the reference fits 16 KB");
    for threads in [1, 4] {
        let observer = Arc::new(ExecObserver::new());
        let options = ExecOptions::threads(threads)
            .with_limits(ExecLimits::memory(1 << 20))
            .with_observer(Arc::clone(&observer));
        let result = query_with_options(&store, "m", q, options);
        assert_eq!(result.as_ref().ok(), Some(&expected), "threads={threads}");
        assert!(
            observer.peak_mem_bytes() > 25_000,
            "threads={threads}: the bitmap is charged, peak {}",
            observer.peak_mem_bytes()
        );
        let options = ExecOptions::threads(threads).with_limits(small);
        let result = query_with_options(&store, "m", q, options);
        assert_eq!(
            result.as_ref().ok(),
            Some(&expected),
            "threads={threads}: {result:?}"
        );
    }
}
