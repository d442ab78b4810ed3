//! Cost-based-optimizer quality suite: a skewed fixture checks that
//! per-predicate statistics put the joins in the order that moves the
//! fewest rows, a Q-error bound keeps the cardinality estimates honest,
//! and `EXPLAIN ANALYZE` surfaces both. (That plans never change answers
//! is `parallel_equivalence.rs`'s job: every configuration against the
//! reference evaluator.)

use pgrdf::PgRdfModel;
use pgrdf_bench::{Eq, Fixture};
use quadstore::Store;
use rdf_model::{Quad, Term};
use sparql::{CompileOptions, ExecOptions};

fn fixture() -> Fixture {
    Fixture::with_seed(0.002, 7)
}

/// A fixture where model-wide statistics mislead. One hub carries a
/// selective tag, a 1-row-per-hub `rel` edge, and a 100-rows-per-hub
/// `member` fan-out; 10k single-quad `attr` subjects dilute the
/// *model-wide* distinct-subject count, so a fanout estimate dividing by
/// it sees both joins as identical (fanout 1). Per-predicate statistics
/// see the true fanouts (100 vs 1) and probe `rel` first.
fn skewed_store() -> Store {
    let store = Store::new();
    store.create_model("m").unwrap();
    let tag = Term::iri("http://x/tag");
    let member = Term::iri("http://x/member");
    let rel = Term::iri("http://x/rel");
    let attr = Term::iri("http://x/attr");
    let mut quads = Vec::new();
    for h in 0..10 {
        let hub = Term::iri(format!("http://x/hub{h}"));
        quads.push(
            Quad::triple(
                hub.clone(),
                rel.clone(),
                Term::iri(format!("http://x/r{h}")),
            )
            .unwrap(),
        );
        for m in 0..100 {
            quads.push(
                Quad::triple(
                    hub.clone(),
                    member.clone(),
                    Term::iri(format!("http://x/m{h}_{m}")),
                )
                .unwrap(),
            );
        }
    }
    quads.push(Quad::triple(Term::iri("http://x/hub0"), tag, Term::string("T")).unwrap());
    for i in 0..10_000 {
        quads.push(
            Quad::triple(
                Term::iri(format!("http://x/f{i}")),
                attr.clone(),
                Term::string(format!("{i}")),
            )
            .unwrap(),
        );
    }
    store.bulk_load("m", &quads).unwrap();
    store
}

const SKEWED_QUERY: &str = "SELECT ?a ?c WHERE { \
     ?h <http://x/tag> \"T\" . \
     ?h <http://x/rel> ?c . \
     ?h <http://x/member> ?a }";

#[test]
fn skewed_join_order_follows_per_predicate_statistics() {
    let store = skewed_store();
    let view = store.dataset("m").unwrap();
    let parsed = sparql::parse_query(SKEWED_QUERY).unwrap();
    let compiled = sparql::compile_with(&view, &parsed, CompileOptions::default()).unwrap();

    // The 1-row `rel` probe must come before the 100-row `member` fan-out.
    let plan = sparql::explain::render(&compiled);
    let pos = |what: &str| {
        plan.find(what)
            .unwrap_or_else(|| panic!("no {what} step in:\n{plan}"))
    };
    assert!(
        pos("/tag>") < pos("/rel>") && pos("/rel>") < pos("/member>"),
        "expected tag, then rel, then the member fan-out:\n{plan}"
    );

    // In that order every step is probed once: tag emits the hub, rel
    // its one row, member its hundred. (Probing member first would run
    // rel a hundred times: 1+1 + 100+1 + 100+100 = 303.)
    let (results, prof) =
        sparql::execute_profiled(&view, &compiled, ExecOptions::threads(1)).unwrap();
    let steps = sparql::explain::step_profiles(&compiled, &prof);
    let tallies: Vec<(u64, u64)> = steps.iter().map(|s| (s.actual_rows, s.loops)).collect();
    assert_eq!(
        tallies,
        [(1, 1), (1, 1), (100, 1)],
        "rows and loops per step:\n{plan}"
    );
    match results {
        sparql::QueryResults::Solutions(s) => assert_eq!(s.len(), 100),
        other => panic!("expected solutions, got {other:?}"),
    }
}

/// Cardinality-estimate sanity: on the skewed fixture the per-predicate
/// statistics are exact, so every executed step's output estimate must be
/// within a small Q-error factor of the actual rows.
#[test]
fn skewed_fixture_estimates_are_tight() {
    let store = skewed_store();
    let view = store.dataset("m").unwrap();
    let parsed = sparql::parse_query(SKEWED_QUERY).unwrap();
    let compiled = sparql::compile_with(&view, &parsed, CompileOptions::default()).unwrap();
    let (_, prof) = sparql::execute_profiled(&view, &compiled, ExecOptions::threads(1)).unwrap();
    for step in sparql::explain::step_profiles(&compiled, &prof) {
        if !step.executed {
            continue;
        }
        let q = sparql::explain::q_error(step.est_out_rows, step.actual_rows);
        assert!(
            q <= 4.0,
            "step {} ({}) estimate drifted: est_out={} actual={} Q={q:.1}",
            step.ordinal,
            step.pattern,
            step.est_out_rows,
            step.actual_rows
        );
    }
}

/// `EXPLAIN ANALYZE` must surface both sides of the estimate: the
/// per-step output estimate in the plan line and the Q-error annotation
/// next to the actuals.
#[test]
fn explain_analyze_reports_estimates_and_q_error() {
    let f = fixture();
    let store = &f.ng;
    let text = f.query_text(Eq::Eq2, PgRdfModel::NG);
    let dataset = f.dataset_for(Eq::Eq2, PgRdfModel::NG);
    let (_, profile) = store
        .select_profiled_in(&dataset, &text, ExecOptions::default())
        .unwrap();
    assert!(
        profile.analyze.contains(" out ("),
        "plan lines must carry the output-row estimate:\n{}",
        profile.analyze
    );
    assert!(
        profile.analyze.contains(" Q="),
        "actuals must carry the Q-error annotation:\n{}",
        profile.analyze
    );
    let step = &profile.steps[0];
    assert!(step.executed, "driving step must have run");
    assert!(
        profile.to_json().contains("\"est_out_rows\""),
        "profile JSON must include output estimates"
    );
}
