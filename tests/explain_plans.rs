//! Table 5 verification: the optimizer's access plans match the paper's —
//! P-led index range scans for bound-predicate patterns, G-led access for
//! named-graph probes, S-led access for subject-bound KV retrieval. The
//! one deliberate departure is the triangle query: the optimizer closes
//! the cycle by intersecting sorted index spans, and the paper's hash
//! joins with full scans (Experiment 5) come back under
//! `ForcedJoin::Hash`.

use pgrdf::{LoadOptions, PartitionLayout, PgRdfModel, PgRdfStore, PgVocab};
use pgrdf_bench::{Eq, Fixture};
use sparql::{CompileOptions, ForcedJoin};

fn fixture() -> Fixture {
    Fixture::with_seed(0.002, 7)
}

#[test]
fn q1_triangles_use_p_led_indexes() {
    let f = fixture();
    for store in [&f.ng, &f.sp] {
        let plan = store.explain(&store.queries().q1_triangles()).unwrap();
        // Table 5: steps keyed on [P=rel:follows] via PCSGM/PSCGM.
        assert!(
            plan.contains("PCSGM") || plan.contains("PSCGM"),
            "plan should use P-led indexes:\n{plan}"
        );
        assert!(plan.contains("P=<http://pg/r/follows>"), "{plan}");
    }
}

#[test]
fn eq8_ng_probes_edge_kvs_through_a_bound_prefix() {
    // Table 5's [G=g1 and S=g1] plan shape: once the selective tag filter
    // binds the edge IRI, the per-edge KV fan-out is an index range scan
    // probed per binding (NLJ), not a full scan. With the paper's four
    // indexes the prefix comes from SPCGM or GPSCM (GSPCM isn't built).
    let f = fixture();
    let text = f.query_text(Eq::Eq8, PgRdfModel::NG);
    let dataset = f.dataset_for(Eq::Eq8, PgRdfModel::NG);
    let parsed = sparql::parse_query(&text).unwrap();
    let view = f.ng.store().dataset(&dataset).unwrap();
    let compiled = sparql::compile(&view, &parsed).unwrap();
    let plan = sparql::explain::render(&compiled);
    let kv_line = plan
        .lines()
        .find(|l| (l.contains("?k ?V") || l.contains("?k ?v")) && l.contains("scan"))
        .unwrap_or_else(|| panic!("no KV fan-out step in plan:\n{plan}"));
    assert!(
        (kv_line.contains("SPCGM") || kv_line.contains("GPSCM"))
            && kv_line.contains("range scan")
            && kv_line.contains("(NLJ)"),
        "edge-KV fan-out should range-scan per binding:\n{plan}"
    );
}

#[test]
fn unselective_q2_ng_builds_a_hash_join() {
    // Without a selective filter, probing the KV step per edge would cost
    // |edges| index probes; the optimizer switches to one full scan + a
    // hash table (the Experiment 4/5 strategy).
    let f = fixture();
    let plan = f.ng.explain(&f.ng.queries().q2_edge_kvs()).unwrap();
    assert!(
        plan.contains("HASH JOIN") || plan.contains("(NLJ)"),
        "plan renders a strategy:\n{plan}"
    );
}

#[test]
fn q2_sp_starts_from_the_subproperty_anchor() {
    let f = fixture();
    let plan = f.sp.explain(&f.sp.queries().q2_edge_kvs()).unwrap();
    // Table 5 Q2/SP step 1: [P=rdfs:subPropertyOf and C=rel:follows].
    assert!(
        plan.contains("P=<http://www.w3.org/2000/01/rdf-schema#subPropertyOf>"),
        "{plan}"
    );
    assert!(plan.contains("C=<http://pg/r/follows>"), "{plan}");
}

#[test]
fn q3_uses_s_led_index_for_kv_fanout() {
    let f = fixture();
    let plan = f.ng.explain(&f.ng.queries().q3_node_kvs("Amy")).unwrap();
    // Table 5 Q3 step 2: [S=s1] via an S-led index (SPCGM here).
    assert!(
        plan.contains("SPCGM"),
        "subject-bound KV fan-out should use an S-led index:\n{plan}"
    );
}

#[test]
fn triangle_query_closes_by_intersection() {
    // Experiment 5: "the query optimizer chooses a series of hash joins
    // with full table scans". Our optimizer instead closes the cycle: the
    // expand step (?y follows ?z) probes per binding and the closing step
    // merges its sorted span with the expand step's on ?z. Forcing hash
    // joins still reproduces the paper's plan. 0.01 scale gives ~17k
    // follows edges, enough for the cost model to tip towards hashing.
    let f = Fixture::with_seed(0.01, 7);
    let text = f.query_text(Eq::Eq12, PgRdfModel::NG);
    let dataset = f.dataset_for(Eq::Eq12, PgRdfModel::NG);
    let parsed = sparql::parse_query(&text).unwrap();
    let view = f.ng.store().dataset(&dataset).unwrap();
    let compiled = sparql::compile(&view, &parsed).unwrap();
    let plan = sparql::explain::render(&compiled);
    let lines: Vec<&str> = plan.lines().filter(|l| l.contains("follows")).collect();
    assert_eq!(lines.len(), 3, "{plan}");
    assert!(
        lines[1].contains("(NLJ)"),
        "the expand step probes per binding:\n{plan}"
    );
    assert!(
        lines[2].contains("(INTERSECT on ?"),
        "the closing step intersects:\n{plan}"
    );
    assert!(!plan.contains("HASH JOIN"), "{plan}");

    let options = CompileOptions {
        force_join: Some(ForcedJoin::Hash),
        ..Default::default()
    };
    let forced = sparql::compile_with(&view, &parsed, options).unwrap();
    let plan = sparql::explain::render(&forced);
    assert_eq!(
        plan.matches("HASH JOIN").count(),
        2,
        "forced hash joins:\n{plan}"
    );
    assert!(!plan.contains("INTERSECT"), "{plan}");
}

#[test]
fn selective_probe_stays_nlj() {
    // Experiment 1: selective node-centric queries run index-based NLJ.
    let f = fixture();
    let text = f.query_text(Eq::Eq2, PgRdfModel::NG);
    let dataset = f.dataset_for(Eq::Eq2, PgRdfModel::NG);
    let parsed = sparql::parse_query(&text).unwrap();
    let view = f.ng.store().dataset(&dataset).unwrap();
    let compiled = sparql::compile(&view, &parsed).unwrap();
    let plan = sparql::explain::render(&compiled);
    assert!(plan.contains("(NLJ)"), "{plan}");
    assert!(!plan.contains("HASH JOIN"), "{plan}");
}

#[test]
fn plans_order_selective_patterns_first() {
    // The hasTag probe (tiny) must come before the follows scan (huge).
    let graph = twittergen::generate(&twittergen::TwitterGenConfig::with_seed(0.002, 7));
    let store = PgRdfStore::load_with(
        &graph,
        PgRdfModel::NG,
        LoadOptions {
            vocab: PgVocab::twitter(),
            layout: PartitionLayout::Monolithic,
            ..Default::default()
        },
    )
    .unwrap();
    let tag = pgrdf_bench::pick_benchmark_tag(&graph);
    let plan = store.explain(&store.queries().eq2(&tag)).unwrap();
    let tag_pos = plan.find("hasTag").expect("hasTag step in plan");
    let follows_pos = plan.find("follows").expect("follows step in plan");
    assert!(
        tag_pos < follows_pos,
        "selective hasTag should be planned first:\n{plan}"
    );
}

#[test]
fn eq6_sp_probes_edge_triples_by_index() {
    // Experiment 2 expects SP to pay a constant factor over NG on EQ6,
    // with index NLJ in both encodings (Table 5). The `?s ?p ?n2` step
    // runs over topology + edge KVs, and the topology member holds none
    // of the edge IRIs ?p ranges over: priced by ?p's domain, the step
    // probes per edge IRI instead of hash-joining a full scan.
    let f = fixture();
    let text = f.query_text(Eq::Eq6, PgRdfModel::SP);
    let dataset = f.dataset_for(Eq::Eq6, PgRdfModel::SP);
    let (_, profile) =
        f.sp.select_profiled_in(&dataset, &text, sparql::ExecOptions::threads(1))
            .unwrap();
    let plan = &profile.analyze;
    let line = plan
        .lines()
        .find(|l| l.contains("?s ?p ?n2"))
        .unwrap_or_else(|| panic!("no edge-triple step in plan:\n{plan}"));
    assert!(
        line.contains("(NLJ)"),
        "the edge triple should be probed per binding:\n{plan}"
    );
    let q: f64 = line
        .split(" Q=")
        .nth(1)
        .and_then(|rest| rest.trim_end_matches(')').parse().ok())
        .unwrap_or_else(|| panic!("no Q-error on the step:\n{plan}"));
    assert!(q <= 16.0, "Q-error {q} of the edge-triple step:\n{plan}");
}

/// `topk`'s T7 in an encoding: the edge joined with its tag, ordered and
/// cut to ten rows.
fn t7_text(model: PgRdfModel) -> String {
    let shape = match model {
        PgRdfModel::NG => "GRAPH ?e { ?x r:follows ?y . ?e k:hasTag ?t }",
        _ => "?x ?e ?y . ?e rdfs:subPropertyOf r:follows . ?e k:hasTag ?t",
    };
    let p = PgVocab::twitter().prefixes();
    format!("{p}SELECT ?x ?y ?t WHERE {{ {shape} }} ORDER BY ?t ?x ?y LIMIT 10")
}

/// The plan of `text` over `model`'s edge-KV dataset (where EQ7 and
/// `topk`'s T7 run), with its actuals at threads=1.
fn analyzed_edge_plan(f: &Fixture, model: PgRdfModel, text: &str) -> String {
    let dataset = f.dataset_for(Eq::Eq7, model);
    let options = sparql::ExecOptions::threads(1);
    let (rows, profile) = f
        .store(model)
        .select_profiled_in(&dataset, text, options)
        .unwrap();
    assert_eq!(rows.len(), 10, "{}", profile.analyze);
    profile.analyze
}

#[test]
fn t7_sp_merge_joins_on_the_sorted_edge_iri() {
    // SP's drive scans the `subPropertyOf` anchor through PCSGM [P, C],
    // which emits `?e` in order: both joins on `?e` walk their index
    // spans forward instead of hash-building the `hasTag` rows and a full
    // scan of `?x ?e ?y`. NG's drive is not sorted on `?e`, so its join
    // stays a hash join. At 0.01 scale the planner drives T7-SP from the
    // anchor, as it does at pgbench's 0.05.
    let f = Fixture::with_seed(0.01, 7);
    let sp = analyzed_edge_plan(&f, PgRdfModel::SP, &t7_text(PgRdfModel::SP));
    let joins: Vec<&str> = sp.lines().filter(|l| l.contains("JOIN")).collect();
    assert_eq!(joins.len(), 2, "{sp}");
    assert!(
        joins.iter().all(|l| l.contains("(MERGE JOIN on ?e)")),
        "{sp}"
    );
    assert!(
        joins.iter().all(|l| l.contains("range scan")),
        "merge steps probe an index:\n{sp}"
    );
    let ng = analyzed_edge_plan(&f, PgRdfModel::NG, &t7_text(PgRdfModel::NG));
    assert!(ng.contains("(HASH JOIN on ?e)"), "{ng}");
    assert!(!ng.contains("MERGE"), "{ng}");
    // The cycle-closing fusion is untouched: EQ12 still intersects.
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        let text = f.query_text(Eq::Eq12, model);
        let view = f
            .store(model)
            .store()
            .dataset(&f.dataset_for(Eq::Eq12, model))
            .unwrap();
        let plan = sparql::explain::render(
            &sparql::compile(&view, &sparql::parse_query(&text).unwrap()).unwrap(),
        );
        assert!(plan.contains("INTERSECT on ?"), "{model}:\n{plan}");
        assert!(!plan.contains("MERGE"), "{model}:\n{plan}");
    }
}
