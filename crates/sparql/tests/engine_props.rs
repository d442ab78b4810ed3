//! Property-based tests of the SPARQL engine: physical-plan choices must
//! never change results, and the algebraic operators must obey their
//! laws, for arbitrary small datasets and patterns.

use quadstore::{DatasetView, Store};
use rdf_model::{GraphName, Quad, Term};
use sparql::{
    compile_with, execute_compiled, execute_reference, parse_query, CompileOptions, ExecLimits,
    ForcedJoin, QueryResults,
};
use twittergen::rng::Rng;

/// A small random dataset: quads over bounded vocabularies so joins and
/// graph matches actually happen.
fn rand_store(seed: u64) -> Store {
    let mut r = Rng::seed_from_u64(seed);
    let rows: Vec<(u8, u8, u8, u8)> = (0..1 + r.next_u64() % 39)
        .map(|_| [r.gen_range(0..6), r.gen_range(0..4), r.gen_range(0..8), r.gen_range(0..4)])
        .map(|[s, p, o, g]| (s as u8, p as u8, o as u8, g as u8))
        .collect();
    {
        let store = Store::new();
        store.create_model("m").expect("fresh model");
        let quads: Vec<Quad> = rows
            .into_iter()
            .map(|(s, p, o, g)| {
                let object = if o % 3 == 0 {
                    Term::string(format!("lit{o}"))
                } else {
                    Term::iri(format!("http://n{o}"))
                };
                let graph = if g == 0 {
                    GraphName::Default
                } else {
                    GraphName::iri(format!("http://g{g}"))
                };
                Quad::new(
                    Term::iri(format!("http://n{s}")),
                    Term::iri(format!("http://p{p}")),
                    object,
                    graph,
                )
                .expect("valid quad")
            })
            .collect();
        store.bulk_load("m", &quads).expect("bulk load");
        store
    }
}

/// A denser random graph over six nodes for cyclic queries, split over
/// two models viewed as one union: each model bulk-loads edges (one
/// triple may sit in several graphs, and in both models), then takes
/// uncompacted inserts and removes, so a probe reads several members,
/// each as a base span plus a delta.
fn rand_cyclic_view(seed: u64) -> (Store, DatasetView) {
    let mut r = Rng::seed_from_u64(seed);
    let store = Store::new();
    let quad = |r: &mut Rng| {
        let [s, p, o, g] =
            [r.gen_range(0..6), r.gen_range(0..2), r.gen_range(0..6), r.gen_range(0..3)];
        let graph =
            if g == 0 { GraphName::Default } else { GraphName::iri(format!("http://g{g}")) };
        Quad::new(
            Term::iri(format!("http://n{s}")),
            Term::iri(format!("http://p{p}")),
            Term::iri(format!("http://n{o}")),
            graph,
        )
        .expect("valid quad")
    };
    for model in ["m", "m2"] {
        store.create_model(model).expect("fresh model");
        let base: Vec<Quad> = (0..24 + r.next_u64() % 40).map(|_| quad(&mut r)).collect();
        store.bulk_load(model, &base).expect("bulk load");
        for _ in 0..r.next_u64() % 12 {
            let q = quad(&mut r);
            store.insert(model, &q).expect("insert");
        }
        for q in base.iter().take(r.next_u64() as usize % 8) {
            store.remove(model, q).expect("remove");
        }
    }
    let view = store.dataset_union(&["m", "m2"]).expect("union view");
    (store, view)
}

/// Cyclic queries, each with the most closing steps the optimizer fuses
/// into one span intersection on some case (0: it must never fuse).
fn cyclic_queries() -> Vec<(usize, &'static str)> {
    vec![
        (1, "SELECT ?x ?y ?z WHERE { ?x <http://p0> ?y . ?y <http://p0> ?z . ?z <http://p0> ?x }"),
        // A 4-clique: the last variable is closed by two steps.
        (
            2,
            "SELECT ?a ?b ?c ?d WHERE { ?a <http://p0> ?b . ?b <http://p0> ?c . ?a <http://p0> ?c . \
             ?c <http://p0> ?d . ?a <http://p0> ?d . ?b <http://p0> ?d }",
        ),
        (
            0,
            "SELECT ?g ?x ?y ?z WHERE { GRAPH ?g { ?x <http://p0> ?y . ?y <http://p0> ?z . \
             ?z <http://p0> ?x } }",
        ),
        // The closing edge's predicate is a variable.
        (0, "SELECT ?x ?y ?z ?q WHERE { ?x <http://p0> ?y . ?y <http://p0> ?z . ?z ?q ?x }"),
        (1, "SELECT (COUNT(*) AS ?c) WHERE { ?x <http://p1> ?y . ?y <http://p0> ?z . ?z <http://p1> ?x }"),
    ]
}

/// Queries whose joins exercise the planner.
fn queries() -> Vec<&'static str> {
    vec![
        "SELECT ?x ?y WHERE { ?x <http://p0> ?y }",
        "SELECT ?x ?z WHERE { ?x <http://p0> ?y . ?y <http://p1> ?z }",
        "SELECT ?x WHERE { ?x <http://p0> ?y . ?x <http://p1> ?z }",
        "SELECT ?x ?y WHERE { ?x ?p ?y . ?y ?q ?x }",
        "SELECT (COUNT(*) AS ?c) WHERE { ?x <http://p0> ?y . ?y <http://p0> ?z }",
        "SELECT ?g ?x WHERE { GRAPH ?g { ?x <http://p1> ?y } }",
        "SELECT ?x WHERE { ?x <http://p0> ?y FILTER (isIRI(?y)) }",
        "SELECT DISTINCT ?x WHERE { ?x ?p ?y }",
        "SELECT ?a ?z WHERE { ?x ?a ?y . ?z ?a ?z }",
        "SELECT ?g ?x ?z WHERE { GRAPH ?g { ?x <http://p0> ?y } GRAPH ?g { ?z <http://p1> ?z } }",
    ]
}

fn run(store: &Store, text: &str, force: Option<ForcedJoin>) -> Vec<String> {
    run_on(&store.dataset("m").expect("dataset"), text, force)
}

fn run_on(view: &DatasetView, text: &str, force: Option<ForcedJoin>) -> Vec<String> {
    let parsed = parse_query(text).expect("parse");
    let options = CompileOptions { force_join: force, ..Default::default() };
    let compiled = compile_with(view, &parsed, options).expect("compile");
    match execute_compiled(view, &compiled).expect("execute") {
        QueryResults::Solutions(s) => {
            let mut rows: Vec<String> = s
                .rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|t| t.as_ref().map(|t| t.to_string()).unwrap_or_default())
                        .collect::<Vec<_>>()
                        .join("|")
                })
                .collect();
            rows.sort();
            rows
        }
        QueryResults::Boolean(b) => vec![b.to_string()],
        QueryResults::Graph(_) => panic!("no CONSTRUCT in these tests"),
    }
}

#[test]
fn join_strategy_never_changes_results() {
    for case in 0..48u64 {
        let store = rand_store(case);
        for q in queries() {
            let plain = run(&store, q, None);
            let nlj = run(&store, q, Some(ForcedJoin::Nlj));
            let hash = run(&store, q, Some(ForcedJoin::Hash));
            assert_eq!(&plain, &nlj, "NLJ differs on {}", q);
            assert_eq!(&plain, &hash, "hash join differs on {}", q);
        }
    }
    // Cycles: the optimizer may close them by span intersection, whose
    // output must also keep the reference evaluator's row order.
    let mut most = vec![0; cyclic_queries().len()];
    for case in 0..48u64 {
        let (_store, view) = rand_cyclic_view(case);
        for (qi, (_, q)) in cyclic_queries().into_iter().enumerate() {
            let compiled = compile_with(&view, &parse_query(q).expect("parse"), CompileOptions::default())
                .expect("compile");
            // The longest run of closing steps after one expand step.
            let (mut run, mut longest) = (0, 0);
            for line in sparql::explain::render(&compiled).lines() {
                run = if line.contains("INTERSECT") { run + 1 } else { 0 };
                longest = longest.max(run);
            }
            most[qi] = most[qi].max(longest);
            let (reference, _) =
                execute_reference(&view, &compiled, ExecLimits::default()).expect("reference");
            assert_eq!(reference, execute_compiled(&view, &compiled).expect("execute"), "{q}");
            let plain = run_on(&view, q, None);
            assert_eq!(plain, run_on(&view, q, Some(ForcedJoin::Nlj)), "NLJ differs on {q}");
            assert_eq!(plain, run_on(&view, q, Some(ForcedJoin::Hash)), "hash join differs on {q}");
        }
    }
    for ((expected, q), got) in cyclic_queries().into_iter().zip(most) {
        assert_eq!(got, expected, "most closing steps fused on {q}");
    }
}

#[test]
fn distinct_is_a_subset_with_unique_rows() {
    for case in 0..48u64 {
        let store = rand_store(case);
        let all = run(&store, "SELECT ?x ?y WHERE { ?x ?p ?y }", None);
        let distinct = run(&store, "SELECT DISTINCT ?x ?y WHERE { ?x ?p ?y }", None);
        let unique: std::collections::BTreeSet<_> = all.iter().cloned().collect();
        assert_eq!(distinct.len(), unique.len());
        for row in &distinct {
            assert!(unique.contains(row));
        }
    }
}

#[test]
fn limit_truncates() {
    for case in 0..48u64 {
        let store = rand_store(case);
        let all = run(&store, "SELECT ?x WHERE { ?x ?p ?y }", None);
        let limited = run(&store, "SELECT ?x WHERE { ?x ?p ?y } LIMIT 3", None);
        assert_eq!(limited.len(), all.len().min(3));
    }
}

#[test]
fn union_default_graph_supersets_strict() {
    for case in 0..48u64 {
        let store = rand_store(case);
        let q = "SELECT ?x ?y WHERE { ?x <http://p1> ?y }";
        let view = store.dataset("m").expect("dataset");
        let parsed = parse_query(q).expect("parse");
        let strict = compile_with(&view, &parsed,
            CompileOptions { union_default_graph: false, ..Default::default() }).expect("compile");
        let union = compile_with(&view, &parsed, CompileOptions::default()).expect("compile");
        let count = |c: &sparql::CompiledQuery| match execute_compiled(&view, c).expect("execute") {
            QueryResults::Solutions(s) => s.len(),
            _ => 0,
        };
        assert!(count(&union) >= count(&strict));
    }
}

#[test]
fn ask_agrees_with_select() {
    for case in 0..48u64 {
        let store = rand_store(case);
        let select = run(&store, "SELECT ?x WHERE { ?x <http://p2> ?y }", None);
        let ask = run(&store, "ASK { ?x <http://p2> ?y }", None);
        assert_eq!(ask[0] == "true", !select.is_empty());
    }
}

#[test]
fn count_star_equals_row_count() {
    for case in 0..48u64 {
        let store = rand_store(case);
        let rows = run(&store, "SELECT ?x ?y WHERE { ?x <http://p0> ?y . ?x <http://p1> ?z }", None);
        let view = store.dataset("m").expect("dataset");
        let parsed = parse_query(
            "SELECT (COUNT(*) AS ?c) WHERE { ?x <http://p0> ?y . ?x <http://p1> ?z }").expect("parse");
        let compiled = compile_with(&view, &parsed, CompileOptions::default()).expect("compile");
        let QueryResults::Solutions(s) = execute_compiled(&view, &compiled).expect("run") else {
            panic!("expected solutions");
        };
        assert_eq!(s.scalar_i64().expect("scalar") as usize, rows.len());
    }
}

#[test]
fn path_plus_is_transitive_closure_of_single_step() {
    for case in 0..48u64 {
        let store = rand_store(case);
        // Every pair reachable via p0 directly must be in p0+.
        let direct = run(&store, "SELECT DISTINCT ?x ?y WHERE { ?x <http://p0> ?y }", None);
        let closure = run(&store, "SELECT DISTINCT ?x ?y WHERE { ?x <http://p0>+ ?y }", None);
        let closure_set: std::collections::BTreeSet<_> = closure.iter().cloned().collect();
        for pair in &direct {
            assert!(closure_set.contains(pair), "missing direct pair {}", pair);
        }
        // And p0+ ⊆ p0* (minus the zero-length pairs); just check sizes.
        assert!(closure.len() >= direct.len());
    }
}
