//! SPARQL Update over PG-as-RDF data (§2.1: "any update basically creates
//! a new quad ... the key performance metric is time taken to locate
//! existing quads to delete").

use pgrdf::{PgRdfModel, PgRdfStore};
use propertygraph::PropertyGraph;

fn store(model: PgRdfModel) -> PgRdfStore {
    PgRdfStore::load(&PropertyGraph::sample_figure1(), model).unwrap()
}

#[test]
fn insert_node_kv_is_visible_to_queries() {
    for model in PgRdfModel::ALL {
        let s = store(model);
        let stats = s
            .update(
                "PREFIX key: <http://pg/k/>\n\
                 INSERT DATA { <http://pg/v2> key:city \"Cambridge\" }",
            )
            .unwrap();
        assert_eq!(stats.inserted, 1);
        let sols = s
            .select(
                "PREFIX key: <http://pg/k/>\n\
                 SELECT ?v WHERE { <http://pg/v2> key:city ?v }",
            )
            .unwrap();
        assert_eq!(sols.len(), 1, "{model}");
        // And the round trip picks it up as a property.
        let graph = s.to_property_graph().unwrap();
        assert!(graph
            .vertex(2)
            .unwrap()
            .has_prop("city", &propertygraph::PropValue::from("Cambridge")));
    }
}

#[test]
fn delete_where_locates_and_removes_edge_kvs() {
    // Remove the since KV from the follows edge — per model, the located
    // quads differ (triple for RF/SP, named-graph quad for NG).
    for model in PgRdfModel::ALL {
        let s = store(model);
        let text = match model {
            PgRdfModel::NG => {
                "PREFIX key: <http://pg/k/>\n\
                 DELETE WHERE { GRAPH <http://pg/e3> { <http://pg/e3> key:since ?v } }"
            }
            _ => {
                "PREFIX key: <http://pg/k/>\n\
                 DELETE WHERE { <http://pg/e3> key:since ?v }"
            }
        };
        let stats = s.update(text).unwrap();
        assert_eq!(stats.deleted, 1, "{model}");
        let graph = s.to_property_graph().unwrap();
        assert!(
            !graph.edge(3).unwrap().props.contains_key("since"),
            "{model}"
        );
        // The topology is untouched.
        assert_eq!(graph.edge_count(), 2, "{model}");
    }
}

#[test]
fn modify_rewrites_a_kv() {
    let s = store(PgRdfModel::SP);
    let stats = s
        .update(
            "PREFIX key: <http://pg/k/>\n\
             DELETE { ?e key:since ?y } INSERT { ?e key:since 2008 }\n\
             WHERE { ?e key:since ?y }",
        )
        .unwrap();
    assert_eq!(stats.deleted, 1);
    assert_eq!(stats.inserted, 1);
    let graph = s.to_property_graph().unwrap();
    assert_eq!(
        graph.edge(3).unwrap().prop_first("since"),
        Some(&propertygraph::PropValue::from(2008))
    );
}

#[test]
fn delete_data_requires_exact_quad() {
    let s = store(PgRdfModel::NG);
    // Wrong graph: the NG edge quad lives in <http://pg/e3>, so deleting
    // the bare triple is a no-op.
    let stats = s
        .update(
            "PREFIX rel: <http://pg/r/>\n\
             DELETE DATA { <http://pg/v1> rel:follows <http://pg/v2> }",
        )
        .unwrap();
    assert_eq!(stats.deleted, 0);
    // Right graph: gone.
    let stats = s
        .update(
            "PREFIX rel: <http://pg/r/>\n\
             DELETE DATA { GRAPH <http://pg/e3> { <http://pg/v1> rel:follows <http://pg/v2> } }",
        )
        .unwrap();
    assert_eq!(stats.deleted, 1);
}

#[test]
fn update_then_query_roundtrip_adds_edge() {
    // Add a whole new edge in the NG encoding via INSERT DATA.
    let s = store(PgRdfModel::NG);
    let stats = s
        .update(
            "PREFIX rel: <http://pg/r/>\n\
             PREFIX key: <http://pg/k/>\n\
             INSERT DATA { GRAPH <http://pg/e9> {\n\
               <http://pg/v2> rel:follows <http://pg/v1> .\n\
               <http://pg/e9> key:since 2013 } }",
        )
        .unwrap();
    assert_eq!(stats.inserted, 2);
    let graph = s.to_property_graph().unwrap();
    assert_eq!(graph.edge_count(), 3);
    let e9 = graph.edge(9).unwrap();
    assert_eq!((e9.src, e9.dst, e9.label.as_str()), (2, 1, "follows"));
    assert_eq!(
        e9.prop_first("since"),
        Some(&propertygraph::PropValue::from(2013))
    );
}

#[test]
fn ground_data_with_variables_is_rejected() {
    let s = store(PgRdfModel::NG);
    let err = s.update("INSERT DATA { ?x <http://p> <http://o> }");
    assert!(err.is_err());
}

#[test]
fn idempotent_inserts_count_once() {
    let s = store(PgRdfModel::NG);
    let text = "PREFIX key: <http://pg/k/>\n\
                INSERT DATA { <http://pg/v1> key:vip true }";
    assert_eq!(s.update(text).unwrap().inserted, 1);
    assert_eq!(s.update(text).unwrap().inserted, 0, "already present");
}
