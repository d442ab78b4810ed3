//! Table 3 verification: the generated SPARQL patterns match the paper's
//! formulations per model, and the formulation *rules* of §2.3 hold
//! (edge-KV-free queries are model-independent; edge-KV queries differ).

use pgrdf::{PgRdfModel, PgRdfStore, PgVocab, QuerySet};
use propertygraph::PropertyGraph;

fn qs(model: PgRdfModel) -> QuerySet {
    QuerySet::new(PgVocab::default(), model)
}

#[test]
fn q1_is_identical_across_models() {
    let base = qs(PgRdfModel::RF).q1_triangles();
    assert_eq!(base, qs(PgRdfModel::NG).q1_triangles());
    assert_eq!(base, qs(PgRdfModel::SP).q1_triangles());
    // The Table 3 pattern: three rel:follows hops closing a cycle.
    assert_eq!(base.matches("rel:follows").count(), 3);
}

#[test]
fn q2_uses_model_specific_access() {
    // RF: reification triples.
    let rf = qs(PgRdfModel::RF).q2_edge_kvs();
    assert!(rf.contains("rdf:subject"));
    assert!(rf.contains("rdf:predicate"));
    assert!(rf.contains("rdf:object"));
    // NG: a GRAPH clause binding the edge IRI.
    let ng = qs(PgRdfModel::NG).q2_edge_kvs();
    assert!(ng.contains("GRAPH ?e"));
    assert!(!ng.contains("rdf:subject"));
    // SP: the subPropertyOf anchor.
    let sp = qs(PgRdfModel::SP).q2_edge_kvs();
    assert!(sp.contains("rdfs:subPropertyOf rel:follows"));
    assert!(!sp.contains("GRAPH"));
}

#[test]
fn q3_and_q4_use_kind_filters() {
    // §2.3 rule 3b: retrieving only KVs needs isLiteral; rule 1b:
    // retrieving only topology needs isIRI.
    for model in PgRdfModel::ALL {
        assert!(qs(model).q3_node_kvs("Amy").contains("isLiteral"));
        assert!(qs(model).q4_all_edges().contains("isIRI"));
    }
}

#[test]
fn q2_returns_the_since_kv_on_figure1() {
    let graph = PropertyGraph::sample_figure1();
    for model in PgRdfModel::ALL {
        let store = PgRdfStore::load(&graph, model).unwrap();
        let sols = store.select(&store.queries().q2_edge_kvs()).unwrap();
        assert_eq!(sols.len(), 1, "{model}: the since/2007 KV");
        let row = &sols.rows[0];
        assert_eq!(row[0].as_ref().unwrap().str_value(), "http://pg/v1");
        assert_eq!(row[1].as_ref().unwrap().str_value(), "http://pg/v2");
        assert_eq!(row[2].as_ref().unwrap().str_value(), "http://pg/k/since");
        assert_eq!(row[3].as_ref().unwrap().str_value(), "2007");
    }
}

#[test]
fn q3_returns_amys_kvs() {
    let graph = PropertyGraph::sample_figure1();
    for model in PgRdfModel::ALL {
        let store = PgRdfStore::load(&graph, model).unwrap();
        let sols = store.select(&store.queries().q3_node_kvs("Amy")).unwrap();
        // Amy has name + age.
        assert_eq!(sols.len(), 2, "{model}");
    }
}

#[test]
fn q4_returns_topology_only() {
    let graph = PropertyGraph::sample_figure1();
    // Q4's isIRI filter keeps topology edges out of the KV noise. With
    // the full monolithic dataset, SP also matches its -s-e-o triples and
    // RF its reification triples — the filter excludes literals, not
    // extra object-property triples (the §2 "blurred distinction").
    let ng = PgRdfStore::load(&graph, PgRdfModel::NG).unwrap();
    let sols = ng.select(&ng.queries().q4_all_edges()).unwrap();
    assert_eq!(sols.len(), 2, "NG: follows + knows");
}

#[test]
fn eq_queries_embed_tag_and_start_node() {
    let qs = QuerySet::new(PgVocab::twitter(), PgRdfModel::NG);
    assert!(qs.eq1("#webseries").contains("\"#webseries\""));
    let eq11 = qs.eq11(6160742, 5);
    assert!(eq11.contains("<http://pg/n6160742>"));
    assert_eq!(eq11.matches("r:follows").count(), 5);
}

#[test]
fn paper_query_texts_run_verbatim_on_figure1_vocab() {
    // The literal Table 3 NG query from the paper (modulo PREFIX headers).
    let graph = PropertyGraph::sample_figure1();
    let store = PgRdfStore::load(&graph, PgRdfModel::NG).unwrap();
    let text = "\
        PREFIX rel: <http://pg/r/>\n\
        PREFIX key: <http://pg/k/>\n\
        SELECT ?xname ?yname ?yr WHERE {\n\
          GRAPH ?g {?x rel:follows ?y .\n\
                    ?g key:since ?yr }\n\
          ?x key:name ?xname .\n\
          ?y key:name ?yname }";
    let sols = store.select(text).unwrap();
    assert_eq!(sols.len(), 1);
    assert_eq!(sols.rows[0][0].as_ref().unwrap().str_value(), "Amy");
    assert_eq!(sols.rows[0][1].as_ref().unwrap().str_value(), "Mira");
    assert_eq!(sols.rows[0][2].as_ref().unwrap().str_value(), "2007");
}

#[test]
fn intro_uncle_query_runs() {
    // The introduction's 4-way-join example: "find the company that
    // John's uncle works for".
    let store = quadstore::Store::new();
    store.create_model("m").unwrap();
    let t = |s: &str, p: &str, o: rdf_model::Term| {
        rdf_model::Quad::triple(rdf_model::Term::iri(s), rdf_model::Term::iri(p), o).unwrap()
    };
    store
        .bulk_load(
            "m",
            &[
                t(
                    "http://x/john",
                    "http://x/name",
                    rdf_model::Term::string("John"),
                ),
                t(
                    "http://x/john",
                    "http://x/hasFather",
                    rdf_model::Term::iri("http://x/fred"),
                ),
                t(
                    "http://x/fred",
                    "http://x/hasBrother",
                    rdf_model::Term::iri("http://x/bob"),
                ),
                t(
                    "http://x/bob",
                    "http://x/worksFor",
                    rdf_model::Term::iri("http://x/oracle"),
                ),
            ],
        )
        .unwrap();
    let sols = sparql::select(
        &store,
        "m",
        "PREFIX : <http://x/>\n\
         SELECT ?company WHERE {\n\
           ?x :name \"John\" . ?x :hasFather ?f .\n\
           ?f :hasBrother ?b . ?b :worksFor ?company}",
    )
    .unwrap();
    assert_eq!(sols.len(), 1);
    assert_eq!(
        sols.rows[0][0].as_ref().unwrap().str_value(),
        "http://x/oracle"
    );
}
