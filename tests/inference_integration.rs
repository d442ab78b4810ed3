//! Inference over PG-as-RDF data (§5.2): RDFS entailment recovers the
//! derivable `-s-p-o` triples of the SP model, and user-defined rules +
//! virtual models implement the paper's enrichment scenarios.

use inference::{rdfs_rules, Atom, InferenceEngine, Rule, RuleTerm};
use pgrdf::{ConvertOptions, PgRdfModel, PgVocab};
use propertygraph::PropertyGraph;
use quadstore::{IndexKind, Store};
use rdf_model::Term;

/// The §2 "Discussion" ablation: without the explicitly asserted
/// `-s-p-o` triple, `?x rel:follows ?y` on the SP model finds nothing —
/// until RDFS subPropertyOf inference materialises the entailment.
#[test]
fn rdfs_inference_recovers_unasserted_spo_triples() {
    let graph = PropertyGraph::sample_figure1();
    let vocab = PgVocab::default();
    let quads = pgrdf::convert_with(
        &graph,
        PgRdfModel::SP,
        &vocab,
        ConvertOptions {
            single_triple_for_kvless_edges: false,
            assert_spo: false,
        },
    );
    let mut store = Store::with_default_indexes(&IndexKind::PAPER_FOUR);
    store.create_model("sp").unwrap();
    store.bulk_load("sp", &quads).unwrap();

    let q = "PREFIX rel: <http://pg/r/> SELECT ?x ?y WHERE { ?x rel:follows ?y }";
    assert_eq!(
        sparql::select(&store, "sp", q).unwrap().len(),
        0,
        "no asserted -s-p-o"
    );

    let mut engine = InferenceEngine::new();
    engine.add_rules(rdfs_rules()).unwrap();
    let stats = engine.run(&mut store, &["sp"], "entailed").unwrap();
    assert!(stats.derived >= 2, "follows + knows entailments");

    store
        .create_virtual_model("sp+entailed", &["sp", "entailed"])
        .unwrap();
    let sols = sparql::select(&store, "sp+entailed", q).unwrap();
    assert_eq!(sols.len(), 1);
    assert_eq!(
        sols.rows[0][0].as_ref().unwrap().str_value(),
        "http://pg/v1"
    );
}

#[test]
fn equivalent_property_bridges_vocabularies() {
    // Map pg keys to a domain ontology (§5.2: owl:equivalentProperty to
    // "properties from existing domain ontologies") and query through the
    // ontology's name.
    let graph = PropertyGraph::sample_figure1();
    let quads = pgrdf::convert(&graph, PgRdfModel::NG, &PgVocab::default());
    let mut store = Store::with_default_indexes(&IndexKind::PAPER_FOUR);
    store.create_model("pg").unwrap();
    store.bulk_load("pg", &quads).unwrap();
    store.create_model("ontology").unwrap();
    store
        .insert(
            "ontology",
            &rdf_model::Quad::triple(
                Term::iri("http://pg/k/name"),
                Term::iri(rdf_model::vocab::owl::EQUIVALENT_PROPERTY),
                Term::iri("http://xmlns.com/foaf/0.1/name"),
            )
            .unwrap(),
        )
        .unwrap();

    let mut engine = InferenceEngine::new();
    engine
        .add_rules(inference::equivalent_property_rules())
        .unwrap();
    engine
        .run(&mut store, &["pg", "ontology"], "entailed")
        .unwrap();
    store
        .create_virtual_model("all", &["pg", "ontology", "entailed"])
        .unwrap();

    let sols = sparql::select(
        &store,
        "all",
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
         SELECT ?n WHERE { ?n foaf:name \"Amy\" }",
    )
    .unwrap();
    assert_eq!(sols.len(), 1);
}

#[test]
fn user_rule_derives_edges_queriable_with_paths() {
    // A user rule creating :closeTo edges between mutually-following
    // nodes, then a property-path query over the derived predicate.
    let mut graph = PropertyGraph::new();
    graph.add_edge(1, "follows", 2);
    graph.add_edge(2, "follows", 1);
    graph.add_edge(2, "follows", 3);
    graph.add_edge(3, "follows", 2);
    graph.add_edge(3, "follows", 4); // one-way: not close
    let quads = pgrdf::convert(&graph, PgRdfModel::NG, &PgVocab::default());
    let mut store = Store::with_default_indexes(&IndexKind::PAPER_FOUR);
    store.create_model("pg").unwrap();
    store.bulk_load("pg", &quads).unwrap();

    let mut engine = InferenceEngine::new();
    engine
        .add_rule(Rule::new(
            "mutual-follows",
            vec![
                Atom::new(
                    RuleTerm::var("x"),
                    RuleTerm::iri("http://pg/r/follows"),
                    RuleTerm::var("y"),
                ),
                Atom::new(
                    RuleTerm::var("y"),
                    RuleTerm::iri("http://pg/r/follows"),
                    RuleTerm::var("x"),
                ),
            ],
            vec![Atom::new(
                RuleTerm::var("x"),
                RuleTerm::iri("http://pg/r/closeTo"),
                RuleTerm::var("y"),
            )],
        ))
        .unwrap();
    engine.run(&mut store, &["pg"], "entailed").unwrap();
    store
        .create_virtual_model("all", &["pg", "entailed"])
        .unwrap();

    // 1 closeTo 2 closeTo 3: transitive reach via the derived predicate.
    let sols = sparql::select(
        &store,
        "all",
        "PREFIX r: <http://pg/r/> SELECT ?y WHERE { <http://pg/v1> r:closeTo+ ?y }",
    )
    .unwrap();
    // closeTo is symmetric here, so 1 reaches 1 (via 2), 2, and 3.
    assert_eq!(sols.len(), 3);
}

#[test]
fn inference_sees_ng_named_graph_quads() {
    // The engine collapses graph components, so NG topology quads feed
    // rules too.
    let graph = PropertyGraph::sample_figure1();
    let quads = pgrdf::convert(&graph, PgRdfModel::NG, &PgVocab::default());
    let mut store = Store::with_default_indexes(&IndexKind::PAPER_FOUR);
    store.create_model("pg").unwrap();
    store.bulk_load("pg", &quads).unwrap();

    let mut engine = InferenceEngine::new();
    engine
        .add_rule(Rule::new(
            "followers-are-people",
            vec![Atom::new(
                RuleTerm::var("x"),
                RuleTerm::iri("http://pg/r/follows"),
                RuleTerm::var("y"),
            )],
            vec![Atom::new(
                RuleTerm::var("x"),
                RuleTerm::iri(rdf_model::vocab::rdf::TYPE),
                RuleTerm::iri("http://schema/Person"),
            )],
        ))
        .unwrap();
    let stats = engine.run(&mut store, &["pg"], "entailed").unwrap();
    assert_eq!(stats.derived, 1, "v1 typed as Person from the e-s-p-o quad");
}
