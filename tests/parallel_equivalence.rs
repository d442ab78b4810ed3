//! Every way of running a query must be indistinguishable from the
//! reference evaluator (`sparql::execute_reference`: one thread, rows
//! streamed through `eval_node`, nothing else): for every paper query
//! family, storage encoding, thread count and morsel size (each morsel
//! runs as one column batch) the result rows must be *identical* — same multiset, same order (the
//! executor merges morsel outputs back into sequential scan order, so
//! even queries without ORDER BY must match row-for-row, and ORDER BY
//! queries must tie-break identically) — and `EXPLAIN ANALYZE` must
//! attribute the same per-step row counts. The result tail (ORDER BY,
//! DISTINCT, OFFSET, LIMIT), which the reference shares, is checked
//! against an oracle computed in the test.

use std::sync::Arc;
use std::time::Instant;

use pgrdf::PgRdfModel;
use pgrdf_bench::{Eq, Fixture};
use quadstore::{DatasetView, Store};
use rdf_model::{GraphName, Quad, Term};
use sparql::{
    CompileOptions, CompiledQuery, ExecLimits, ExecObserver, ExecOptions, ForcedJoin, QueryResults,
};

const MODELS: [PgRdfModel; 3] = [PgRdfModel::NG, PgRdfModel::SP, PgRdfModel::RF];
const QUERIES: [Eq; 12] = [
    Eq::Eq1,
    Eq::Eq2,
    Eq::Eq3,
    Eq::Eq4,
    Eq::Eq5,
    Eq::Eq6,
    Eq::Eq7,
    Eq::Eq8,
    Eq::Eq9,
    Eq::Eq10,
    Eq::Eq11(2),
    Eq::Eq12,
];

fn compiled(fixture: &Fixture, eq: Eq, model: PgRdfModel) -> (DatasetView, CompiledQuery) {
    let view = fixture
        .store(model)
        .store()
        .dataset(&fixture.dataset_for(eq, model))
        .expect("dataset");
    let parsed = sparql::parse_query(&fixture.query_text(eq, model)).expect("parse");
    let plan = sparql::compile(&view, &parsed).expect("compile");
    (view, plan)
}

fn reference(view: &DatasetView, plan: &CompiledQuery) -> QueryResults {
    sparql::execute_reference(view, plan, ExecLimits::default())
        .expect("reference")
        .0
}

fn run(view: &DatasetView, plan: &CompiledQuery, options: ExecOptions) -> QueryResults {
    sparql::execute_compiled_with_options(view, plan, options).expect("execute")
}

fn row_count(results: &QueryResults) -> usize {
    match results {
        QueryResults::Solutions(s) => s.len(),
        other => panic!("expected solutions, got {other:?}"),
    }
}

/// Runs with an observer attached; returns whether a vectorized pipeline
/// ran along with the results.
fn run_observed(
    view: &DatasetView,
    plan: &CompiledQuery,
    options: ExecOptions,
) -> (QueryResults, bool) {
    let observer = Arc::new(ExecObserver::new());
    let results = run(view, plan, options.with_observer(Arc::clone(&observer)));
    (results, observer.vectorized())
}

/// The one sweep: EQ1–EQ12 x {NG, SP, RF} x threads {1, 2, 8} x morsel
/// {1, 7, 1024}; a morsel of 1 runs one-row batches between operators.
/// Ordered comparison: `QueryResults` equality covers variable names, row
/// order, and every binding.
#[test]
fn every_configuration_matches_the_reference_exactly() {
    let fixture = Fixture::at_scale(0.005);
    for model in MODELS {
        for eq in QUERIES {
            let (view, plan) = compiled(&fixture, eq, model);
            let expected = reference(&view, &plan);
            for threads in [1usize, 2, 8] {
                for morsel_size in [1usize, 7, 1024] {
                    let options = ExecOptions::threads(threads).with_morsel_size(morsel_size);
                    assert_eq!(
                        expected,
                        run(&view, &plan, options),
                        "{} {model}: threads={threads} morsel={morsel_size} \
                         diverged from the reference",
                        eq.label(model)
                    );
                }
            }
        }
    }
}

/// Morsel sizes near `usize::MAX` cut each member's span into one morsel
/// (the chunk end must not wrap around and re-scan from the index start).
#[test]
fn huge_morsel_sizes_match_the_reference() {
    let fixture = Fixture::at_scale(0.005);
    for model in MODELS {
        for eq in QUERIES {
            let (view, plan) = compiled(&fixture, eq, model);
            let expected = reference(&view, &plan);
            for threads in [1usize, 2] {
                for morsel_size in [usize::MAX, usize::MAX / 2] {
                    let options = ExecOptions::threads(threads).with_morsel_size(morsel_size);
                    assert_eq!(
                        expected,
                        run(&view, &plan, options),
                        "{} {model}: threads={threads} morsel={morsel_size} \
                         diverged from the reference",
                        eq.label(model)
                    );
                }
            }
        }
    }
}

/// ORDER BY ties (EQ9/EQ10 sort on a count many groups share) keep the
/// reference's order when four workers merge 64-quad morsels.
#[test]
fn order_by_ties_keep_sequential_order() {
    let fixture = Fixture::at_scale(0.005);
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        for eq in [Eq::Eq9, Eq::Eq10] {
            let (view, plan) = compiled(&fixture, eq, model);
            let par = run(&view, &plan, ExecOptions::threads(4).with_morsel_size(64));
            assert_eq!(reference(&view, &plan), par, "{} {model}", eq.label(model));
        }
    }
}

/// Asserts that profiling `plan` under every (threads, morsel)
/// configuration returns the reference's rows and per-step
/// `(ordinal, actual_rows, loops, executed)`.
fn assert_reference_tallies(view: &DatasetView, plan: &CompiledQuery, label: &str) {
    let (expected, prof_r) =
        sparql::execute_reference(view, plan, ExecLimits::default()).expect("reference");
    let steps_r = sparql::explain::step_profiles(plan, &prof_r);
    for threads in [1usize, 2, 8] {
        for morsel_size in [1usize, 7, 1024] {
            let config = format!("threads={threads} morsel={morsel_size}");
            let options = ExecOptions::threads(threads).with_morsel_size(morsel_size);
            let (got, prof) = sparql::execute_profiled(view, plan, options).expect("profiled");
            assert_eq!(expected, got, "{label} {config}: profiled results diverged");
            let steps = sparql::explain::step_profiles(plan, &prof);
            assert_eq!(steps.len(), steps_r.len());
            for (s, r) in steps.iter().zip(&steps_r) {
                assert_eq!(
                    (s.ordinal, s.actual_rows, s.loops, s.executed),
                    (r.ordinal, r.actual_rows, r.loops, r.executed),
                    "{label} {config}: step {} ({}) tallies diverged from the reference",
                    s.ordinal,
                    s.pattern
                );
            }
        }
    }
}

/// `EXPLAIN ANALYZE` must report the reference's per-step actual row
/// counts and probe loops whatever engine ran the step, on however many
/// threads, and however its input was cut into morsels and batches:
/// batching and parallelism change *when* work happens, never *how
/// much*. Besides EQ1–EQ12, a BGP with a MINUS or an OPTIONAL sibling —
/// plain and under COUNT — compiles to no pipeline, so it streams through
/// the row evaluator on the calling thread at every thread count. And the
/// recorder reports the thread count the profiled query actually ran on.
#[test]
fn explain_analyze_tallies_match_the_reference() {
    let (fixture, ng) = (Fixture::at_scale(0.005), PgRdfModel::NG);
    for model in MODELS {
        for eq in QUERIES {
            let (view, plan) = compiled(&fixture, eq, model);
            assert_reference_tallies(&view, &plan, &format!("{} {model}", eq.label(model)));
        }
    }

    let store = tail_store();
    let view = store.dataset("m").expect("dataset");
    let (p, q, r) = ("<http://x/p>", "<http://x/q>", "<http://x/r>");
    let minus = format!("MINUS {{ ?a {r} ?x }}");
    let optional = format!("{{ ?a {q} ?d OPTIONAL {{ ?a {r} ?x }} }}");
    for sibling in [minus, optional] {
        for head in ["?a ?b ?c", "(COUNT(*) AS ?n)"] {
            let text = format!("SELECT {head} WHERE {{ ?a {p} ?b . ?a {q} ?c {sibling} }}");
            let parsed = sparql::parse_query(&text).expect("parse");
            let plan = sparql::compile(&view, &parsed).expect("compile");
            let (_, vectorized) = run_observed(&view, &plan, ExecOptions::threads(2));
            assert!(
                !vectorized,
                "{text}: expected the row evaluator, a pipeline ran"
            );
            assert_reference_tallies(&view, &plan, &text);
        }
    }

    let (text, dataset) = (
        fixture.query_text(Eq::Eq9, ng),
        fixture.dataset_for(Eq::Eq9, ng),
    );
    let options = ExecOptions::threads(2);
    let (_, profile) = fixture
        .ng
        .select_profiled_in(&dataset, &text, options)
        .expect("profiled");
    let sys = format!(
        "SELECT ?t WHERE {{ GRAPH <pgrdf:sys/queries> {{ \
           ?q <pgrdf:sys#queryId> {} . ?q <pgrdf:sys#threads> ?t }} }}",
        profile.query_id
    );
    let threads = fixture.ng.select(&sys).expect("sys query").scalar_i64();
    assert_eq!(
        threads,
        Some(2),
        "sys:threads must be the profiled run's thread count"
    );
}

/// A morsel is always run by a pipeline: a plan the columnar compiler
/// rejects (a MINUS or an OPTIONAL sibling after the driving BGP, plain
/// or under COUNT(DISTINCT)) streams on the calling thread — no `drive`
/// span, no pipeline — even at eight threads and tiny morsels, while a
/// plain BGP is cut into morsels and run columnar.
#[test]
fn morsels_imply_pipelines() {
    let store = tail_store();
    let view = store.dataset("m").expect("dataset");
    let (p, q, r) = ("<http://x/p>", "<http://x/q>", "<http://x/r>");
    let bgp = format!("?a {p} ?b . ?a {q} ?c");
    let traced = |text: &str| {
        let parsed = sparql::parse_query(text).expect("parse");
        let plan = sparql::compile(&view, &parsed).expect("compile");
        let sink = Arc::new(telemetry::TraceSink::new());
        let observer = Arc::new(ExecObserver::with_trace(Some(Arc::clone(&sink))));
        let options = ExecOptions::threads(8).with_morsel_size(7);
        let got = run(&view, &plan, options.with_observer(Arc::clone(&observer)));
        assert_eq!(got, reference(&view, &plan), "{text}");
        let drives = sink.take().iter().filter(|s| s.scope == "drive").count();
        (drives, observer.vectorized())
    };
    for text in [
        format!("SELECT ?a ?b ?c WHERE {{ {bgp} MINUS {{ ?a {r} ?x }} }}"),
        format!("SELECT ?a ?b ?c WHERE {{ {bgp} {{ ?a {q} ?d OPTIONAL {{ ?a {r} ?x }} }} }}"),
        format!("SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE {{ {bgp} MINUS {{ ?a {r} ?x }} }}"),
    ] {
        assert_eq!(
            traced(&text),
            (0, false),
            "{text}: a morsel ran without a pipeline"
        );
    }
    for text in [
        format!("SELECT ?a ?b ?c WHERE {{ {bgp} }}"),
        format!("SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE {{ {bgp} }}"),
    ] {
        let (drives, vectorized) = traced(&text);
        assert!(
            drives >= 1 && vectorized,
            "{text}: {drives} drive spans, vectorized={vectorized}"
        );
    }
}

/// Grouped aggregates the fused path does not take (COUNT(DISTINCT),
/// SUM, MIN) equal the reference row for row at every thread count and
/// morsel size; so does a grouped query over a root OPTIONAL, and the
/// reference itself gives the same group order on every run.
#[test]
fn unfused_grouped_aggregates_match_the_reference() {
    let store = tail_store();
    let view = store.dataset("m").expect("dataset");
    let (p, r) = ("<http://x/p>", "<http://x/r>");
    for head in ["COUNT(DISTINCT ?o)", "SUM(?o)", "MIN(?o)", "COUNT(?x)"] {
        let body = if head == "COUNT(?x)" {
            format!("?s {p} ?o OPTIONAL {{ ?s {r} ?x }}")
        } else {
            format!("?s {p} ?o")
        };
        let text = format!("SELECT ?s ({head} AS ?n) WHERE {{ {body} }} GROUP BY ?s");
        let parsed = sparql::parse_query(&text).expect("parse");
        let plan = sparql::compile(&view, &parsed).expect("compile");
        let expected = reference(&view, &plan);
        assert_eq!(row_count(&expected), 40, "{text}");
        assert_eq!(
            expected,
            reference(&view, &plan),
            "{text}: group order changed between runs"
        );
        for threads in [1usize, 2, 8] {
            for morsel in [7usize, 1024] {
                let options = ExecOptions::threads(threads).with_morsel_size(morsel);
                let got = run(&view, &plan, options);
                assert_eq!(got, expected, "{text} threads={threads} morsel={morsel}");
            }
        }
    }
}

/// The NG edge family drives on the edge-KV quad `GRAPH ?g { ?g k:hasTag
/// "t" }` — one unbound variable in both S and G — and EQ6a/EQ7a join
/// sibling step chains. All four must run on the vectorized pipeline at
/// every thread count: the observer says a pipeline ran, and the
/// `vec_rows` counter says rows flowed through it (other tests of this
/// binary may add to the global counter, never subtract).
#[test]
fn ng_edge_family_runs_columnar() {
    let fixture = Fixture::at_scale(0.005);
    let vec_rows = || {
        telemetry::global()
            .samples()
            .into_iter()
            .find(|s| s.name == "pgrdf_vec_rows_emitted_total")
            .map_or(0, |s| match s.value {
                telemetry::MetricValue::Counter(v) => v,
                other => panic!("expected a counter, got {other:?}"),
            })
    };
    telemetry::set_enabled(true);
    for eq in [Eq::Eq5, Eq::Eq6, Eq::Eq7, Eq::Eq8] {
        let (view, plan) = compiled(&fixture, eq, PgRdfModel::NG);
        let expected = reference(&view, &plan);
        let label = eq.label(PgRdfModel::NG);
        for threads in [1usize, 4] {
            let before = vec_rows();
            let (got, vectorized) = run_observed(&view, &plan, ExecOptions::threads(threads));
            assert_eq!(expected, got, "{label} threads={threads}");
            assert!(vectorized, "{label} threads={threads} missed VecPipeline");
            assert!(
                vec_rows() > before,
                "{label} threads={threads}: vec_rows did not move"
            );
        }
    }
    telemetry::set_enabled(false);
}

/// A store of the shapes this engine split is about: self-loops, edge-KV
/// quads whose subject is their graph (and one whose is not), and a
/// twelve-node chain.
fn shapes_store() -> Store {
    let iri = |s: &str| Term::iri(format!("http://x/{s}"));
    let t = |s: &str, p: &str, o: Term| Quad::triple(iri(s), iri(p), o).expect("quad");
    let q = |s: &str, p: &str, o: Term, g: &str| {
        Quad::new(iri(s), iri(p), o, GraphName::iri(format!("http://x/{g}"))).expect("quad")
    };
    let mut quads = vec![
        t("a", "follows", iri("a")),
        t("a", "follows", iri("b")),
        t("b", "follows", iri("b")),
        t("c", "follows", iri("a")),
        t("a", "name", Term::string("ann")),
        q("a", "follows", iri("b"), "e1"),
        q("e1", "tag", Term::string("t"), "e1"),
        q("e1", "since", Term::int(2014), "e1"),
        q("e1", "about", iri("b"), "e1"),
        q("c", "follows", iri("a"), "e2"),
        q("e2", "tag", Term::string("t"), "e2"),
        q("e2", "about", iri("a"), "e2"),
        // Subject and graph differ: must never match `GRAPH ?g { ?g .. }`.
        q("e2", "tag", Term::string("t"), "e1"),
        q("e9", "about", iri("b"), "e2"),
    ];
    for i in 0..11 {
        quads.push(t(&format!("n{i}"), "next", iri(&format!("n{}", i + 1))));
    }
    let store = Store::new();
    store.create_model("m").expect("model");
    store.bulk_load("m", &quads).expect("load");
    store
}

/// A variable repeated in still-unbound positions of one triple — as the
/// driving scan, as a later probe, and as a hash-join step — must bind
/// once and be checked per quad, on the vectorized pipeline, with the
/// reference's rows.
#[test]
fn repeated_variables_in_one_triple() {
    let store = shapes_store();
    let view = store.dataset("m").expect("dataset");
    let cases: [(&str, Option<ForcedJoin>, usize); 5] = [
        // Driving self-loop (S = O).
        ("SELECT ?x WHERE { ?x <http://x/follows> ?x }", None, 2),
        // Driving edge-KV shape (S = G), every key.
        ("SELECT ?g ?k ?v WHERE { GRAPH ?g { ?g ?k ?v } }", None, 5),
        // The same shape as a non-driving probe behind a one-row scan.
        (
            "SELECT ?n ?g ?k ?v WHERE { ?n <http://x/name> \"ann\" . GRAPH ?g { ?g ?k ?v } }",
            None,
            5,
        ),
        // A self-loop probe behind a one-row scan.
        (
            "SELECT ?n ?z WHERE { ?n <http://x/name> \"ann\" . ?z <http://x/follows> ?z }",
            None,
            2,
        ),
        // Hash join on ?m with ?g repeated on the build side: a follows a
        // once and b twice (default graph and e1); e9's quad is not its own
        // graph's.
        (
            "SELECT ?a ?m ?g WHERE { ?a <http://x/name> \"ann\" . ?a <http://x/follows> ?m . \
             GRAPH ?g { ?g <http://x/about> ?m } }",
            Some(ForcedJoin::Hash),
            3,
        ),
    ];
    for (text, force_join, rows) in cases {
        let parsed = sparql::parse_query(text).expect("parse");
        let options = CompileOptions {
            force_join,
            ..CompileOptions::default()
        };
        let plan = sparql::compile_with(&view, &parsed, options).expect("compile");
        let expected = reference(&view, &plan);
        assert_eq!(row_count(&expected), rows, "{text}");
        for threads in [1usize, 4] {
            for morsel_size in [1usize, 1024] {
                let options = ExecOptions::threads(threads).with_morsel_size(morsel_size);
                let (got, vectorized) = run_observed(&view, &plan, options);
                assert_eq!(
                    expected, got,
                    "{text}: threads={threads} morsel={morsel_size}"
                );
                assert!(vectorized, "{text}: threads={threads} missed VecPipeline");
            }
        }
    }
}

/// Forty subjects with duplicate and tying keys: two `p` values each
/// (small integers, shared by many subjects), one or two `q` values for
/// three subjects in four, and an `r` value for every third.
fn tail_store() -> Store {
    let iri = |s: String| Term::iri(format!("http://x/{s}"));
    let mut quads = Vec::new();
    for i in 0..40i32 {
        let mut add = |p: &str, n: i32| {
            quads.push(
                Quad::triple(iri(format!("s{i:02}")), iri(p.into()), Term::int(n)).expect("quad"),
            );
        };
        add("p", i % 7);
        add("p", i % 3 + 7);
        if i % 4 != 0 {
            add("q", i % 5);
        }
        if i % 6 == 1 {
            add("q", 9);
        }
        if i % 3 == 0 {
            add("r", i % 2);
        }
    }
    let store = Store::new();
    store.create_model("m").expect("model");
    store.bulk_load("m", &quads).expect("load");
    store
}

type TermRow = Vec<Option<Term>>;

/// ORDER BY's documented key order over decoded terms: unbound < numeric
/// (`f64::total_cmp`) < everything else by string form.
fn key_order(a: &Option<Term>, b: &Option<Term>) -> std::cmp::Ordering {
    let num = |t: &Option<Term>| t.as_ref()?.as_literal()?.as_f64();
    let text = |t: &Option<Term>| t.as_ref().map(|t| t.str_value().to_string());
    a.is_some()
        .cmp(&b.is_some())
        .then_with(|| match (num(a), num(b)) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            (None, None) => text(a).cmp(&text(b)),
            (x, y) => y.is_some().cmp(&x.is_some()),
        })
}

/// The result tail against an oracle that is not the tail
/// (`execute_reference` shares `exec_select`, so it cannot check it): for
/// every tail over five root shapes, each configuration's rows must equal
/// what the test computes from the *untailed* query's decoded rows at
/// that configuration — stable sort, project, dedup keeping first, slice —
/// and those untailed rows must equal the reference's.
/// An unordered LIMIT is therefore the prefix of the unlimited rows.
/// Grouped output has no sequential order to keep (hash-map iteration),
/// so its ORDER BYs are total and its unordered tails are checked as
/// sub-multisets of the right size.
#[test]
fn result_tails_match_an_oracle_over_the_untailed_rows() {
    let store = tail_store();
    let view = store.dataset("m").expect("dataset");
    let (p, q, r) = ("<http://x/p>", "<http://x/q>", "<http://x/r>");
    // (name, untailed head, tailed head, WHERE + GROUP BY, sequential order?)
    let shapes: [(&str, &str, &str, String, bool); 6] = [
        (
            "flat BGP",
            "?a ?b ?c",
            "?a ?b",
            format!("{{ ?a {p} ?b . ?a {q} ?c }}"),
            true,
        ),
        (
            "GROUP BY + COUNT",
            "?a (COUNT(*) AS ?b) ?c",
            "?a (COUNT(*) AS ?b)",
            format!("{{ ?a {p} ?x . ?a {q} ?c }} GROUP BY ?a ?c"),
            false,
        ),
        (
            "sub-SELECT",
            "?a ?b ?c",
            "?a ?b",
            format!(
                "{{ ?a {p} ?b . {{ SELECT DISTINCT ?a ?c WHERE {{ ?a {q} ?c }} \
                 ORDER BY ?c ?a LIMIT 30 OFFSET 2 }} }}"
            ),
            true,
        ),
        (
            "UNION root",
            "?a ?b ?c",
            "?a ?b",
            format!("{{ {{ ?a {p} ?b . ?a {q} ?c }} UNION {{ ?a {r} ?b . ?a {q} ?c }} }}"),
            true,
        ),
        (
            "OPTIONAL root",
            "?a ?b ?c",
            "?a ?b",
            format!("{{ ?a {p} ?b OPTIONAL {{ ?a {q} ?c }} }}"),
            true,
        ),
        (
            "FILTER around a mixed UNION",
            "?a ?b ?c",
            "?a ?b",
            format!(
                "{{ {{ ?a {p} ?b . ?a {q} ?c FILTER (?c < 4) }} \
                 UNION {{ ?a {r} ?b OPTIONAL {{ ?a {q} ?c }} }} FILTER (?b != 5) }}"
            ),
            true,
        ),
    ];
    // Sort keys as (column of the untailed row, descending); the last one
    // leads with the non-projected ?c. The grouped shape extends each to
    // a total order over its (?a, ?c) groups.
    let orders: [&[(usize, bool)]; 4] =
        [&[], &[(0, false)], &[(0, true), (1, false)], &[(2, false)]];
    let mut configs: Vec<Option<ExecOptions>> = vec![None];
    for threads in [1usize, 2, 8] {
        for morsel_size in [1usize, 7, 1024] {
            configs.push(Some(
                ExecOptions::threads(threads).with_morsel_size(morsel_size),
            ));
        }
    }
    let compile = |text: &str| {
        let parsed = sparql::parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        sparql::compile(&view, &parsed).unwrap_or_else(|e| panic!("{text}: {e}"))
    };
    let rows = |plan: &CompiledQuery, config: &Option<ExecOptions>| -> Vec<TermRow> {
        let results = match config {
            None => reference(&view, plan),
            Some(options) => run(&view, plan, options.clone()),
        };
        match results {
            QueryResults::Solutions(sols) => sols.rows,
            other => panic!("expected solutions, got {other:?}"),
        }
    };
    for (name, untailed_head, head, body, sequential) in &shapes {
        let untailed_plan = compile(&format!("SELECT {untailed_head} WHERE {body}"));
        let untailed: Vec<Vec<TermRow>> = configs.iter().map(|c| rows(&untailed_plan, c)).collect();
        assert!(untailed[0].len() > 20, "{name}: {} rows", untailed[0].len());
        if *name == "FILTER around a mixed UNION" {
            // Its BGP branch runs as a pipeline, its OPTIONAL branch
            // streams, and both apply every FILTER as the reference does.
            let (_, vectorized) = run_observed(&view, &untailed_plan, ExecOptions::threads(2));
            assert!(vectorized, "{name}: expected a pipeline to run");
        }
        // The tails below are built from each configuration's own untailed
        // rows, so those rows must first equal the reference's (in order;
        // as multisets for grouped output, which has no sequential order).
        let as_multiset = |rows: &[TermRow]| {
            let mut rows = rows.to_vec();
            rows.sort_by_cached_key(|row| format!("{row:?}"));
            rows
        };
        for (config, rows) in configs.iter().zip(&untailed).skip(1) {
            let same = match sequential {
                true => *rows == untailed[0],
                false => as_multiset(rows) == as_multiset(&untailed[0]),
            };
            assert!(
                same,
                "{name}: untailed rows under {config:?} differ from the reference"
            );
        }
        for order in orders {
            let mut order = order.to_vec();
            if !sequential && !order.is_empty() {
                order.extend([(0, false), (2, false)]);
            }
            let order_text = match order.is_empty() {
                true => String::new(),
                false => order
                    .iter()
                    .fold(" ORDER BY".to_string(), |text, &(col, desc)| {
                        let var = ["?a", "?b", "?c"][col];
                        text + &if desc {
                            format!(" DESC({var})")
                        } else {
                            format!(" {var}")
                        }
                    }),
            };
            for distinct in [false, true] {
                for offset in [0usize, 3] {
                    for limit in [None, Some(0usize), Some(1), Some(10), Some(1000)] {
                        let mut text = format!(
                            "SELECT {}{head} WHERE {body}{order_text}",
                            if distinct { "DISTINCT " } else { "" }
                        );
                        if let Some(limit) = limit {
                            text += &format!(" LIMIT {limit}");
                        }
                        if offset > 0 {
                            text += &format!(" OFFSET {offset}");
                        }
                        let plan = compile(&text);
                        for (config, untailed) in configs.iter().zip(&untailed) {
                            let mut sorted = untailed.clone();
                            sorted.sort_by(|x, y| {
                                order
                                    .iter()
                                    .fold(std::cmp::Ordering::Equal, |ord, &(col, desc)| {
                                        let next = key_order(&x[col], &y[col]);
                                        ord.then(if desc { next.reverse() } else { next })
                                    })
                            });
                            let mut projected: Vec<TermRow> =
                                sorted.into_iter().map(|row| row[..2].to_vec()).collect();
                            if distinct {
                                let mut seen = std::collections::HashSet::new();
                                projected.retain(|row| seen.insert(row.clone()));
                            }
                            let expected: Vec<TermRow> = projected
                                .iter()
                                .skip(offset)
                                .take(limit.unwrap_or(usize::MAX))
                                .cloned()
                                .collect();
                            let got = rows(&plan, config);
                            if *sequential || !order.is_empty() {
                                assert!(got == expected, "{name}: {text} under {config:?}");
                                continue;
                            }
                            assert_eq!(
                                got.len(),
                                expected.len(),
                                "{name}: {text} under {config:?}"
                            );
                            for row in got {
                                let at = projected.iter().position(|r| *r == row);
                                let at = at.unwrap_or_else(|| {
                                    panic!("{name}: {text} under {config:?}: stray row {row:?}")
                                });
                                projected.swap_remove(at);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Eleven patterns is one past `DP_MAX_PATTERNS`: the greedy search
/// orders the chain, with the same statistics, and finds its one path.
#[test]
fn eleven_pattern_bgp_plans_greedily() {
    let store = shapes_store();
    let view = store.dataset("m").expect("dataset");
    let chain: Vec<String> = (0..11)
        .map(|i| format!("?v{i} <http://x/next> ?v{}", i + 1))
        .collect();
    let text = format!("SELECT ?v0 ?v11 WHERE {{ {} }}", chain.join(" . "));
    let parsed = sparql::parse_query(&text).expect("parse");
    let plan = sparql::compile(&view, &parsed).expect("compile");
    let expected = reference(&view, &plan);
    assert_eq!(row_count(&expected), 1);
    for threads in [1usize, 4] {
        assert_eq!(
            expected,
            run(
                &view,
                &plan,
                ExecOptions::threads(threads).with_morsel_size(3)
            )
        );
    }
}

/// Smoke-level timing probe (printed with --nocapture): one worker vs
/// four on the aggregate and triangle families.
#[test]
fn timing_probe_aggregate_and_triangle() {
    let fixture = Fixture::at_scale(0.01);
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        for eq in [Eq::Eq9, Eq::Eq10, Eq::Eq11(3), Eq::Eq12] {
            let (view, plan) = compiled(&fixture, eq, model);
            // Warm both once, then time.
            let _ = run(&view, &plan, ExecOptions::threads(1));
            let _ = run(&view, &plan, ExecOptions::threads(4));
            let t0 = Instant::now();
            let seq = run(&view, &plan, ExecOptions::threads(1));
            let t_seq = t0.elapsed();
            let t1 = Instant::now();
            let par = run(&view, &plan, ExecOptions::threads(4));
            let t_par = t1.elapsed();
            assert_eq!(seq, par);
            println!(
                "{:<8} {:<3} seq={:>10.3?} par(4)={:>10.3?} speedup={:.2}x",
                eq.label(model),
                model.to_string(),
                t_seq,
                t_par,
                t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9)
            );
        }
    }
}
