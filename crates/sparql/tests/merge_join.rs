//! Merge joins (`Strategy::Merge`, EXPLAIN `MERGE JOIN on ?v`) against
//! the strategies they replace: a merge step emits exactly what an index
//! NLJ over the same index emits, so the optimizer's plan must give the
//! reference evaluator's rows in the reference's order, with its per-step
//! EXPLAIN ANALYZE tallies, at every thread count and morsel size; and a
//! plan forced to hash joins or to NLJ that keeps the same join order
//! must give the same rows in the same order and the same tallies too.
//!
//! The data is SP-shaped (an edge IRI anchored by `?e <sub> <p0>`, used
//! as the predicate of its edge triple, and carrying key/values) over two
//! models viewed as one union. Both models hold anchors, so the drive's
//! `?e` restarts low at the second member; each takes uncompacted inserts
//! and removes; some edge triples and key/values repeat across graphs, so
//! a key has several matches. Morsels of 1 and 7 quads under two workers
//! hand a worker keys out of order.

use quadstore::{DatasetView, Store};
use rdf_model::{GraphName, Quad, Term};
use sparql::{
    compile_with, execute_profiled, execute_reference, explain, parse_query, CompileOptions,
    CompiledQuery, ExecLimits, ExecOptions, ExecProfile, ForcedJoin, QueryResults,
};
use twittergen::rng::Rng;

fn iri(name: &str) -> Term {
    Term::iri(format!("http://{name}"))
}

/// The union view of two SP-shaped models built from `seed`.
fn rand_view(seed: u64) -> (Store, DatasetView) {
    let mut r = Rng::seed_from_u64(seed);
    let store = Store::new();
    let quad = |s: Term, p: Term, o: Term, g: usize| {
        let graph = if g == 0 {
            GraphName::Default
        } else {
            GraphName::Named(iri(&format!("g{g}")))
        };
        Quad::new(s, p, o, graph).expect("valid quad")
    };
    let mut models = Vec::new();
    for m in 0..2 {
        let mut base = Vec::new();
        let mut extra = Vec::new();
        for e in 0..3 + r.gen_range(0..12) {
            // Edge IRIs interleave across the models.
            let edge = iri(&format!("e{}", 2 * e + m));
            let node = |r: &mut Rng| iri(&format!("n{}", r.gen_range(0..6)));
            let sup = iri(if r.gen_range(0..4) == 0 { "p1" } else { "p0" });
            let g = r.gen_range(0..3);
            let quads = if r.gen_range(0..5) == 0 {
                &mut extra
            } else {
                &mut base
            };
            quads.push(quad(edge.clone(), iri("sub"), sup, 0));
            let (s, o) = (node(&mut r), node(&mut r));
            quads.push(quad(s.clone(), edge.clone(), o.clone(), 0));
            if g > 0 {
                // The edge triple again in a named graph.
                quads.push(quad(s, edge.clone(), o.clone(), g));
            }
            for v in 0..r.gen_range(0..3) {
                let value = Term::string(format!("v{}", r.gen_range(0..4) + v));
                quads.push(quad(edge.clone(), iri("k0"), value, r.gen_range(0..2)));
            }
            quads.push(quad(node(&mut r), iri("link"), edge.clone(), 0));
        }
        models.push((base, extra));
    }
    // "b" interns its terms first, so the view's second member and every
    // delta restart the drive's `?e` below the last key before them.
    for (model, (base, _)) in ["a", "b"].iter().zip(&models).rev() {
        store.create_model(model).expect("model");
        store.bulk_load(model, base).expect("bulk load");
    }
    for (model, (base, extra)) in ["a", "b"].iter().zip(&models) {
        for q in extra {
            store.insert(model, q).expect("insert");
        }
        for _ in 0..r.gen_range(0..4) {
            let q = &base[r.gen_range(0..base.len())];
            store.remove(model, q).expect("remove");
        }
    }
    let view = store.dataset_union(&["a", "b"]).expect("union view");
    (store, view)
}

/// T7-SP's shape and its relatives: a key at P, at S and at O, under a
/// sorted tail, DISTINCT and COUNT.
fn queries() -> Vec<&'static str> {
    vec![
        "SELECT ?s ?o ?v WHERE { ?s ?e ?o . ?e <http://sub> <http://p0> . ?e <http://k0> ?v }",
        "SELECT ?s ?o ?v WHERE { ?s ?e ?o . ?e <http://sub> <http://p0> . ?e <http://k0> ?v } \
         ORDER BY ?v ?s LIMIT 4",
        "SELECT ?e ?o WHERE { ?e <http://sub> <http://p0> . ?s ?e ?o }",
        "SELECT ?x ?e WHERE { ?e <http://sub> <http://p0> . ?x <http://link> ?e }",
        "SELECT DISTINCT ?v WHERE { ?e <http://sub> <http://p0> . ?e <http://k0> ?v }",
        "SELECT (COUNT(*) AS ?c) WHERE { ?s ?e ?o . ?e <http://sub> <http://p0> . \
         ?x <http://link> ?e }",
    ]
}

fn compiled(view: &DatasetView, text: &str, force_join: Option<ForcedJoin>) -> CompiledQuery {
    let options = CompileOptions {
        force_join,
        ..Default::default()
    };
    compile_with(view, &parse_query(text).expect("parse"), options).expect("compile")
}

/// Per step: (pattern, actual rows, loops, executed).
type Tallies = Vec<(String, u64, u64, bool)>;

fn tallies(plan: &CompiledQuery, profile: &ExecProfile) -> Tallies {
    explain::step_profiles(plan, profile)
        .into_iter()
        .map(|s| (s.pattern, s.actual_rows, s.loops, s.executed))
        .collect()
}

fn reference(view: &DatasetView, plan: &CompiledQuery) -> (QueryResults, Tallies) {
    let (rows, profile) = execute_reference(view, plan, ExecLimits::default()).expect("reference");
    (rows, tallies(plan, &profile))
}

#[test]
fn merge_joins_match_hash_nlj_and_the_reference() {
    let mut merged = vec![0; queries().len()];
    let mut same_order = [0; 2];
    for case in 0..40u64 {
        let (_store, view) = rand_view(case);
        for (qi, text) in queries().into_iter().enumerate() {
            let plan = compiled(&view, text, None);
            let rendered = explain::render(&plan);
            merged[qi] += usize::from(rendered.contains("MERGE JOIN on ?e"));
            let (want, want_tallies) = reference(&view, &plan);
            for threads in [1, 2] {
                for morsel in [Some(1), Some(7), None] {
                    let mut options = ExecOptions::threads(threads);
                    if let Some(size) = morsel {
                        options = options.with_morsel_size(size);
                    }
                    let label = format!("case {case} threads {threads} morsel {morsel:?}: {text}");
                    let (got, profile) = execute_profiled(&view, &plan, options).expect("profiled");
                    assert_eq!(got, want, "{label}\n{rendered}");
                    assert_eq!(
                        tallies(&plan, &profile),
                        want_tallies,
                        "{label}\n{rendered}"
                    );
                }
            }
            // A forced plan in the same join order: the same rows in the
            // same order, and the same tallies.
            for (fi, force) in [ForcedJoin::Hash, ForcedJoin::Nlj].into_iter().enumerate() {
                let forced = compiled(&view, text, Some(force));
                let (rows, forced_tallies) = reference(&view, &forced);
                let order = |t: &Tallies| t.iter().map(|s| s.0.clone()).collect::<Vec<_>>();
                if order(&forced_tallies) == order(&want_tallies) {
                    same_order[fi] += 1;
                    assert_eq!(rows, want, "case {case} {force:?}: {text}");
                    assert_eq!(
                        forced_tallies, want_tallies,
                        "case {case} {force:?}: {text}"
                    );
                } else {
                    let case = format!("case {case} {force:?}: {text}");
                    assert_eq!(sorted(rows), sorted(want.clone()), "{case}");
                }
            }
        }
    }
    println!(
        "merge joins over 40 cases per query: {merged:?}; forced plans in order: {same_order:?}"
    );
    for (q, n) in queries().into_iter().zip(merged) {
        assert!(n >= 10, "MERGE JOIN fired on {n} of 40 cases: {q}");
    }
    assert!(
        same_order.iter().all(|&n| n >= 100),
        "same join order: {same_order:?}"
    );
}

/// Result rows as sorted strings, for plans whose join order differs.
fn sorted(results: QueryResults) -> Vec<String> {
    let QueryResults::Solutions(s) = results else {
        panic!("expected solutions")
    };
    let mut rows: Vec<String> = s.rows.iter().map(|row| format!("{row:?}")).collect();
    rows.sort();
    rows
}

/// Forced strategies turn the pass off, and a merge step renders its key.
#[test]
fn forced_joins_never_merge() {
    let (_store, view) = rand_view(3);
    let text = queries()[0];
    let plan = explain::render(&compiled(&view, text, None));
    assert_eq!(plan.matches("MERGE JOIN on ?e").count(), 2, "{plan}");
    for force in [ForcedJoin::Hash, ForcedJoin::Nlj] {
        let plan = explain::render(&compiled(&view, text, Some(force)));
        assert!(!plan.contains("MERGE"), "{force:?}:\n{plan}");
    }
}
