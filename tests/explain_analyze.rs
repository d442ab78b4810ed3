//! `EXPLAIN ANALYZE` ground truth: the per-step actual row counts the
//! profiled executor reports must equal the true join cardinalities, as
//! computed by a naive nested-loop evaluator over the decoded quads —
//! an oracle that shares no code with the indexes, the scan layer, or
//! the streaming executor.
//!
//! Also checks chain consistency (step k is probed exactly once per row
//! step k-1 emitted) and spot-checks that the Prometheus exposition the
//! engine renders after real work is well-formed.
//!
//! Under a result tail that ends early (a plain LIMIT, a streaming
//! DISTINCT filling its LIMIT) a step's `actual_rows` is what it produced
//! before the pulling stopped — for the driving step, the whole morsels
//! scanned — not the join cardinality; the oracle skips sliced queries
//! and `early_ending_tails_report_the_rows_actually_scanned` covers them.

use std::collections::HashMap;

use pgrdf::PgRdfModel;
use pgrdf_bench::{Eq, Fixture};
use rdf_model::{GraphName, Quad, Term};
use sparql::plan::{CForm, CGraph, CPos, CTriple, CompiledQuery, Node, Step};

fn fixture() -> Fixture {
    Fixture::with_seed(0.002, 7)
}

/// The EQ suite under test: the paper's node-centric experiment plus the
/// first edge-centric query, under both physical models.
const SUITE: [Eq; 5] = [Eq::Eq1, Eq::Eq2, Eq::Eq3, Eq::Eq4, Eq::Eq5];

/// Unwraps a plan to its single `Steps` chain when the shape is one the
/// naive oracle can replay: an ungrouped, un-sliced SELECT whose root is
/// a (possibly filter-wrapped) flat BGP. Filters are applied *after* the
/// chain in this engine, so per-step actuals are pure join cardinalities
/// either way.
fn single_chain(compiled: &CompiledQuery) -> Option<&[Step]> {
    let sel = match &compiled.form {
        CForm::Select(sel) => sel,
        _ => return None,
    };
    if sel.limit.is_some() || sel.offset.is_some() {
        return None;
    }
    let mut node = &sel.root;
    loop {
        match node {
            Node::Filter(_, _, inner) => node = inner,
            Node::Steps(steps) => return Some(steps),
            _ => return None,
        }
    }
}

/// Binds `pos` against `term` under `row`, extending the row on fresh
/// variables. Returns false on a constant or binding mismatch.
fn bind(row: &mut HashMap<usize, Term>, pos: &CPos, term: &Term) -> bool {
    match pos {
        CPos::Const(c, _) => c == term,
        CPos::Var(slot) => match row.get(slot) {
            Some(bound) => bound == term,
            None => {
                row.insert(*slot, term.clone());
                true
            }
        },
    }
}

/// One naive match attempt of `quad` against `triple` under `row`.
fn match_quad(
    row: &HashMap<usize, Term>,
    triple: &CTriple,
    quad: &Quad,
) -> Option<HashMap<usize, Term>> {
    let mut next = row.clone();
    if !bind(&mut next, &triple.s, &quad.subject)
        || !bind(&mut next, &triple.p, &quad.predicate)
        || !bind(&mut next, &triple.o, &quad.object)
    {
        return None;
    }
    // Graph semantics mirror the executor: `Any` is union-default (every
    // graph), `GRAPH ?g` ranges over *named* graphs only.
    match (&triple.g, &quad.graph) {
        (CGraph::Any, _) => {}
        (CGraph::Default, GraphName::Default) => {}
        (CGraph::Default, GraphName::Named(_)) => return None,
        (CGraph::Var(_), GraphName::Default) => return None,
        (CGraph::Var(slot), GraphName::Named(g)) => {
            if !bind(&mut next, &CPos::Var(*slot), g) {
                return None;
            }
        }
        (CGraph::Const(c, _), GraphName::Named(g)) if c == g => {}
        (CGraph::Const(..), _) => return None,
    }
    Some(next)
}

/// Nested-loop join over the decoded dataset: returns the row count
/// after each step — the ground truth for `actual_rows`.
fn naive_chain_rows(quads: &[Quad], steps: &[Step]) -> Vec<u64> {
    let mut rows: Vec<HashMap<usize, Term>> = vec![HashMap::new()];
    let mut counts = Vec::new();
    for step in steps {
        let mut produced = Vec::new();
        for row in &rows {
            for quad in quads {
                if let Some(next) = match_quad(row, &step.triple, quad) {
                    produced.push(next);
                }
            }
        }
        counts.push(produced.len() as u64);
        rows = produced;
    }
    counts
}

#[test]
fn analyze_actual_rows_match_naive_join_oracle() {
    let f = fixture();
    let mut verified = 0usize;
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        let store = f.store(model);
        for eq in SUITE {
            let label = eq.label(model);
            let text = f.query_text(eq, model);
            let dataset = f.dataset_for(eq, model);
            let view = store.store().dataset(&dataset).unwrap();
            let parsed = sparql::parse_query(&text).unwrap();
            let compiled = sparql::compile(&view, &parsed).unwrap();
            let Some(steps) = single_chain(&compiled) else {
                continue; // shape the oracle can't replay (path, union, ...)
            };
            let quads: Vec<Quad> = view.scan_decoded(quadstore::QuadPattern::any()).collect();
            let expected = naive_chain_rows(&quads, steps);

            let (sols, profile) = store
                .select_profiled_in(&dataset, &text, sparql::ExecOptions::default())
                .unwrap();
            assert_eq!(profile.result_rows, sols.len() as u64, "{label} {model}");
            assert_eq!(
                profile.steps.len(),
                expected.len(),
                "{label} {model}: step count mismatch\n{}",
                profile.analyze
            );
            for (sp, want) in profile.steps.iter().zip(&expected) {
                assert!(
                    sp.executed,
                    "{label} {model} step {}: never executed",
                    sp.ordinal
                );
                assert_eq!(
                    sp.actual_rows, *want,
                    "{label} {model} step {}: EXPLAIN ANALYZE rows disagree with \
                     the naive join oracle\n{}",
                    sp.ordinal, profile.analyze
                );
            }
            // Chain consistency: the driving step runs once; every later
            // step is probed once per row its predecessor emitted.
            assert_eq!(
                profile.steps[0].loops, 1,
                "{label} {model}\n{}",
                profile.analyze
            );
            for pair in profile.steps.windows(2) {
                assert_eq!(
                    pair[1].loops, pair[0].actual_rows,
                    "{label} {model}: loops must equal upstream rows\n{}",
                    profile.analyze
                );
            }
            // And the analyze text carries the same actuals.
            for sp in &profile.steps {
                assert!(
                    profile.analyze.contains(&format!(
                        "(actual: rows={} loops={} ",
                        sp.actual_rows, sp.loops
                    )),
                    "{label} {model}: step actuals missing from analyze text\n{}",
                    profile.analyze
                );
            }
            verified += 1;
        }
    }
    assert!(
        verified >= 8,
        "oracle verified only {verified} of 10 EQ suite plans — coverage regressed"
    );
}

/// pgbench's T1 and T3 shapes at pgbench's one thread: the drive step
/// scans one morsel for ten rows, and fewer rows than the relation holds
/// for its first fresh keys. (Above one thread a round is several morsels,
/// sized from the LIMIT: the profile reports what that run scanned.)
#[test]
fn early_ending_tails_report_the_rows_actually_scanned() {
    // Big enough for `follows` to span several default-size morsels.
    let f = Fixture::with_seed(0.01, 7);
    let prefixes = pgrdf::PgVocab::twitter().prefixes();
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        let store = f.store(model);
        let dataset = store.partition_names().expect("partitioned").topology;
        let profiled = |tail: &str| {
            let text = format!("{prefixes}SELECT {tail}");
            store
                .select_profiled_in(&dataset, &text, sparql::ExecOptions::threads(1))
                .unwrap_or_else(|e| panic!("{model} {text}: {e}"))
        };
        let (all, _) = profiled("?s ?o WHERE { ?s r:follows ?o }");
        let relation = all.len() as u64;
        assert!(
            relation > sparql::DEFAULT_MORSEL_SIZE as u64,
            "{model}: {relation} rows"
        );

        let (sols, t1) = profiled("?s ?o WHERE { ?s r:follows ?o } LIMIT 10");
        assert_eq!(
            (sols.len(), t1.result_rows),
            (10, 10),
            "{model}\n{}",
            t1.analyze
        );
        assert_eq!(sols.rows[..], all.rows[..10], "{model}: LIMIT is a prefix");
        let drive = t1.steps[0].actual_rows;
        assert!(
            (10..=sparql::DEFAULT_MORSEL_SIZE as u64).contains(&drive),
            "{model}: drive step scanned {drive} of {relation}\n{}",
            t1.analyze
        );
        assert!(
            t1.analyze.contains("LIMIT 10 (ends scan)"),
            "{model}\n{}",
            t1.analyze
        );

        let (sols, t3) = profiled("DISTINCT ?o WHERE { ?s r:follows ?o } LIMIT 5");
        assert_eq!(sols.len(), 5, "{model}\n{}", t3.analyze);
        assert!(
            t3.steps[0].actual_rows < relation,
            "{model}\n{}",
            t3.analyze
        );
        assert!(
            t3.analyze.contains("DISTINCT (streaming)"),
            "{model}\n{}",
            t3.analyze
        );

        let (_, top) = profiled("?s ?o WHERE { ?s r:follows ?o } ORDER BY ?o ?s LIMIT 10");
        assert_eq!(
            top.steps[0].actual_rows, relation,
            "{model}\n{}",
            top.analyze
        );
        assert!(
            top.analyze.contains("ORDER BY (2 keys, top 10)"),
            "{model}\n{}",
            top.analyze
        );
        assert!(
            top.analyze.contains("SLICE limit=Some(10)"),
            "{model}\n{}",
            top.analyze
        );
        let (_, sorted) =
            profiled("DISTINCT ?s ?o WHERE { ?s r:follows ?o } ORDER BY ?o ?s LIMIT 10");
        assert!(
            sorted.analyze.contains("ORDER BY (2 keys)\n"),
            "{model}\n{}",
            sorted.analyze
        );
    }
}

/// A plain `LIMIT k` starts its drive at `k` keys and doubles from there,
/// so at one thread pgbench's T1 shape scans at most `2·k` rows for its
/// `k`, not a whole default-size morsel.
#[test]
fn a_plain_limit_scans_at_most_twice_its_rows() {
    let f = Fixture::with_seed(0.01, 7);
    let prefixes = pgrdf::PgVocab::twitter().prefixes();
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        let store = f.store(model);
        let dataset = store.partition_names().expect("partitioned").topology;
        for k in [2u64, 10, 100] {
            let text = format!("{prefixes}SELECT ?s ?o WHERE {{ ?s r:follows ?o }} LIMIT {k}");
            let (sols, t1) = store
                .select_profiled_in(&dataset, &text, sparql::ExecOptions::threads(1))
                .unwrap_or_else(|e| panic!("{model} {text}: {e}"));
            assert_eq!(sols.len() as u64, k, "{model}\n{}", t1.analyze);
            let drive = t1.steps[0].actual_rows;
            assert!(
                (k..=2 * k).contains(&drive),
                "{model} LIMIT {k}: drive step scanned {drive} rows\n{}",
                t1.analyze
            );
        }
    }
}

#[test]
fn analyze_reports_chosen_index_and_elapsed_time() {
    let f = fixture();
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        let store = f.store(model);
        for eq in SUITE {
            let text = f.query_text(eq, model);
            let dataset = f.dataset_for(eq, model);
            let (_, profile) = store
                .select_profiled_in(&dataset, &text, sparql::ExecOptions::default())
                .unwrap();
            let label = eq.label(model);
            assert!(
                profile.analyze.contains("Execution time: "),
                "{label} {model}: no total time\n{}",
                profile.analyze
            );
            assert!(!profile.steps.is_empty(), "{label} {model}");
            for sp in &profile.steps {
                assert!(
                    sp.index.contains("scan") || sp.index == "closure",
                    "{label} {model} step {}: no access path ({})",
                    sp.ordinal,
                    sp.index
                );
            }
        }
    }
}

#[test]
fn prometheus_exposition_is_well_formed_after_real_work() {
    let f = fixture();
    telemetry::set_enabled(true);
    let text = f.query_text(Eq::Eq2, PgRdfModel::NG);
    let dataset = f.dataset_for(Eq::Eq2, PgRdfModel::NG);
    f.ng.select_in(&dataset, &text).unwrap();
    telemetry::set_enabled(false);

    let out = telemetry::global().render_prometheus();
    assert!(
        out.contains("pgrdf_index_range_scans_total{index="),
        "index counters missing:\n{out}"
    );
    for line in out.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "bad comment line: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(!series.is_empty(), "empty series name: {line}");
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable sample value: {line}"
        );
        if let Some(rest) = series.split_once('{').map(|(_, r)| r) {
            assert!(rest.ends_with('}'), "unterminated label set: {line}");
        }
    }
}
