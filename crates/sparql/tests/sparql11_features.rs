//! Tests for the SPARQL 1.1 features beyond the paper's core subset:
//! BIND, HAVING, EXISTS / NOT EXISTS, MINUS, and CONSTRUCT.

use quadstore::Store;
use rdf_model::{GraphName, Quad, Term};
use sparql::QueryResults;

fn store() -> Store {
    let store = Store::new();
    store.create_model("m").expect("model");
    let t = |s: &str, p: &str, o: Term| Quad::triple(Term::iri(s), Term::iri(p), o).expect("valid");
    store
        .bulk_load(
            "m",
            &[
                t("http://a", "http://age", Term::int(30)),
                t("http://b", "http://age", Term::int(25)),
                t("http://c", "http://age", Term::int(30)),
                t("http://a", "http://knows", Term::iri("http://b")),
                t("http://b", "http://knows", Term::iri("http://c")),
                t("http://a", "http://banned", Term::iri("http://b")),
            ],
        )
        .expect("load");
    store
}

#[test]
fn bind_computes_new_bindings() {
    let sols = sparql::select(
        &store(),
        "m",
        "SELECT ?x ?decade WHERE { ?x <http://age> ?a . BIND((?a / 10) AS ?decade) } ORDER BY ?x",
    )
    .unwrap();
    assert_eq!(sols.len(), 3);
    // SPARQL's `/` on integers produces a decimal value.
    assert_eq!(sols.rows[0][1].as_ref().unwrap().str_value(), "3.0");
}

#[test]
fn bind_string_construction() {
    let sols = sparql::select(
        &store(),
        "m",
        "SELECT ?tag WHERE { ?x <http://age> ?a . BIND(CONCAT(\"age-\", STR(?a)) AS ?tag) }",
    )
    .unwrap();
    let tags: Vec<String> = sols
        .column_terms("tag")
        .map(|t| t.str_value().to_string())
        .collect();
    assert!(tags.contains(&"age-30".to_string()));
    assert!(tags.contains(&"age-25".to_string()));
}

#[test]
fn having_filters_groups() {
    let sols = sparql::select(
        &store(),
        "m",
        "SELECT ?a (COUNT(*) AS ?n) WHERE { ?x <http://age> ?a } GROUP BY ?a HAVING (?n > 1)",
    )
    .unwrap();
    assert_eq!(sols.len(), 1, "only age 30 occurs twice");
    assert_eq!(sols.rows[0][0].as_ref().unwrap().str_value(), "30");
}

#[test]
fn exists_filters_rows() {
    let sols = sparql::select(
        &store(),
        "m",
        "SELECT ?x WHERE { ?x <http://age> ?a FILTER EXISTS { ?x <http://knows> ?y } }",
    )
    .unwrap();
    assert_eq!(sols.len(), 2); // a and b know someone
}

#[test]
fn not_exists_excludes_rows() {
    let sols = sparql::select(
        &store(),
        "m",
        "SELECT ?x WHERE { ?x <http://age> ?a FILTER NOT EXISTS { ?x <http://knows> ?y } }",
    )
    .unwrap();
    assert_eq!(sols.len(), 1);
    assert_eq!(sols.rows[0][0].as_ref().unwrap().str_value(), "http://c");
}

#[test]
fn not_exists_with_join_back() {
    // "knows but not banned": correlated NOT EXISTS on two variables.
    let sols = sparql::select(
        &store(),
        "m",
        "SELECT ?x ?y WHERE { ?x <http://knows> ?y \
         FILTER NOT EXISTS { ?x <http://banned> ?y } }",
    )
    .unwrap();
    assert_eq!(sols.len(), 1);
    assert_eq!(sols.rows[0][0].as_ref().unwrap().str_value(), "http://b");
}

#[test]
fn minus_removes_compatible_solutions() {
    let sols = sparql::select(
        &store(),
        "m",
        "SELECT ?x ?y WHERE { ?x <http://knows> ?y MINUS { ?x <http://banned> ?y } }",
    )
    .unwrap();
    assert_eq!(sols.len(), 1);
    assert_eq!(sols.rows[0][1].as_ref().unwrap().str_value(), "http://c");
}

#[test]
fn minus_with_no_shared_vars_keeps_everything() {
    // Per SPARQL semantics, MINUS rows sharing no variables remove nothing.
    let sols = sparql::select(
        &store(),
        "m",
        "SELECT ?x WHERE { ?x <http://age> ?a MINUS { ?q <http://banned> ?r } }",
    )
    .unwrap();
    assert_eq!(sols.len(), 3);
}

#[test]
fn construct_builds_new_graph() {
    let store = store();
    let quads = sparql::construct(
        &store,
        "m",
        "CONSTRUCT { ?y <http://knownBy> ?x } WHERE { ?x <http://knows> ?y }",
    )
    .unwrap();
    assert_eq!(quads.len(), 2);
    assert!(quads
        .iter()
        .all(|q| q.predicate == Term::iri("http://knownBy")));
    assert!(quads
        .iter()
        .any(|q| q.subject == Term::iri("http://b") && q.object == Term::iri("http://a")));
}

#[test]
fn construct_into_named_graph_and_dedup() {
    let store = store();
    let quads = sparql::construct(
        &store,
        "m",
        "CONSTRUCT { GRAPH <http://derived> { <http://root> <http://hasAge> ?a } } \
         WHERE { ?x <http://age> ?a }",
    )
    .unwrap();
    // Ages 30, 25, 30 -> two distinct quads after dedup.
    assert_eq!(quads.len(), 2);
    assert!(quads
        .iter()
        .all(|q| q.graph == GraphName::iri("http://derived")));
}

#[test]
fn construct_skips_invalid_instantiations() {
    let store = store();
    // ?a is a literal; using it as subject must be skipped, not error.
    let quads = sparql::construct(
        &store,
        "m",
        "CONSTRUCT { ?a <http://p> ?x } WHERE { ?x <http://age> ?a }",
    )
    .unwrap();
    assert!(quads.is_empty());
}

#[test]
fn construct_roundtrips_the_ng_encoding() {
    // CONSTRUCT can re-encode NG topology as plain triples: the
    // "publish as linked data" story of the paper's introduction.
    let store = Store::new();
    store.create_model("pg").unwrap();
    store
        .bulk_load(
            "pg",
            &[Quad::new(
                Term::iri("http://pg/v1"),
                Term::iri("http://pg/r/follows"),
                Term::iri("http://pg/v2"),
                GraphName::iri("http://pg/e3"),
            )
            .unwrap()],
        )
        .unwrap();
    let quads = sparql::construct(
        &store,
        "pg",
        "PREFIX rel: <http://pg/r/>\n\
         CONSTRUCT { ?x rel:follows ?y } WHERE { GRAPH ?e { ?x rel:follows ?y } }",
    )
    .unwrap();
    assert_eq!(quads.len(), 1);
    assert!(
        quads[0].graph.is_default(),
        "published triple leaves the named graph"
    );
}

#[test]
fn exists_inside_boolean_expression() {
    let sols = sparql::select(
        &store(),
        "m",
        "SELECT ?x WHERE { ?x <http://age> ?a \
         FILTER (EXISTS { ?x <http://knows> ?y } || ?a = 30) }",
    )
    .unwrap();
    // a (knows + 30), b (knows), c (30).
    assert_eq!(sols.len(), 3);
}

#[test]
fn queryresults_graph_variant_via_query() {
    let store = store();
    match sparql::query(
        &store,
        "m",
        "CONSTRUCT { ?x <http://q> ?y } WHERE { ?x <http://knows> ?y }",
    )
    .unwrap()
    {
        QueryResults::Graph(quads) => assert_eq!(quads.len(), 2),
        other => panic!("expected graph, got {other:?}"),
    }
}
