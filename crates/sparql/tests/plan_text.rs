//! Golden plan texts: the exact `EXPLAIN LOGICAL` text
//! (`CompiledQuery::logical`) and physical `EXPLAIN` text
//! (`explain::render`) of one query per rewrite outcome and operator, on a
//! small fixed store. Any change to lowering, the rewrite rules or the
//! planner that moves either text fails here.

use quadstore::Store;
use rdf_model::{GraphName, Quad, Term};
use sparql::plan::{CPos, CompiledQuery, Node};

fn store() -> Store {
    let store = Store::new();
    store.create_model("m").expect("model");
    let t = |s: &str, p: &str, o: Term| Quad::triple(Term::iri(s), Term::iri(p), o).expect("valid");
    let mut quads = vec![
        t("http://a", "http://name", Term::string("alice")),
        t("http://a", "http://age", Term::int(30)),
        t("http://b", "http://name", Term::string("bob")),
        t("http://c", "http://name", Term::string("carol")),
        t("http://c", "http://age", Term::int(25)),
        t("http://a", "http://knows", Term::iri("http://b")),
        t("http://b", "http://knows", Term::iri("http://c")),
        t("http://c", "http://knows", Term::iri("http://d")),
        Quad::new(
            Term::iri("http://a"),
            Term::iri("http://secret"),
            Term::string("hidden"),
            GraphName::iri("http://g1"),
        )
        .expect("valid"),
    ];
    // A larger relation, so the optimizer has a join order to choose.
    for i in 0..20 {
        let o = format!("http://p{}", (i * 7) % 20);
        quads.push(t(&format!("http://p{i}"), "http://likes", Term::iri(&o)));
    }
    store.bulk_load("m", &quads).expect("load");
    store
}

/// Compiles `query` and asserts both plan texts.
fn check(query: &str, logical: &str, explain: &str) -> CompiledQuery {
    let store = store();
    let view = store.dataset("m").expect("dataset");
    let compiled =
        sparql::compile(&view, &sparql::parse_query(query).expect("parses")).expect("compiles");
    assert_eq!(compiled.logical, logical, "EXPLAIN LOGICAL of {query}");
    assert_eq!(
        sparql::explain::render(&compiled),
        explain,
        "EXPLAIN of {query}"
    );
    compiled
}

/// The planned steps of the first EXISTS pattern, one line each: the
/// triple, the join strategy and the estimates.
fn exists_steps(compiled: &CompiledQuery) -> Vec<String> {
    let Node::Steps(steps) = &compiled.exists[0] else {
        panic!("expected one planned BGP");
    };
    let pos = |p: &CPos| match p {
        CPos::Var(slot) => format!("?{}", compiled.vars.name(*slot)),
        CPos::Const(term, _) => term.to_string(),
    };
    steps
        .iter()
        .map(|s| {
            format!(
                "{} {} {} {:?} ~{} -> ~{}",
                pos(&s.triple.s),
                pos(&s.triple.p),
                pos(&s.triple.o),
                s.strategy,
                s.est_scan,
                s.est_out
            )
        })
        .collect()
}

/// A pin every solution binds is pushed into the scan, with a one-row VALUES ahead of it.
#[test]
fn pushed_pin() {
    check(
        "SELECT ?x ?n WHERE { ?x <http://name> ?n . ?x <http://knows> ?y FILTER(?y = <http://c>) }",
        r#"LOGICAL PLAN (rewrites: pin-pushdown)
SELECT ?x ?n
  FILTER (1 exprs) [pins: ?y = <http://c>]
    JOIN
      VALUES ?y (1 rows)
      BGP (2 triple patterns)
        ?x <http://name> ?n
        ?x <http://knows> <http://c>
"#,
        r#"SELECT ?x ?n
  VALUES ?y (1 rows)
  1: ?x <http://name> ?n  [P=<http://name>] PCSGM range scan (NLJ) ~3 rows -> ~3 out
  2: ?x <http://knows> <http://c>  [P=<http://knows> and C=<http://c>] PCSGM range scan (HASH JOIN on ?x) ~1 rows -> ~1 out
  FILTER (1 predicates)
"#,
    );
}

/// A UNION branch that leaves ?v unbound keeps the pin a plain filter.
#[test]
fn unpushed_pin_union() {
    check(
        "SELECT ?s ?v WHERE { { ?s <http://name> ?v } UNION { ?s <http://age> ?o } FILTER(?v = <http://c>) }",
        r#"LOGICAL PLAN (no rewrites applied)
SELECT ?s ?v
  FILTER (1 exprs)
    UNION
      BGP (1 triple patterns)
        ?s <http://name> ?v
      BGP (1 triple patterns)
        ?s <http://age> ?o
"#,
        r#"SELECT ?s ?v
  UNION
    1: ?s <http://name> ?v  [P=<http://name>] PCSGM range scan (NLJ) ~3 rows -> ~3 out
    --
    2: ?s <http://age> ?o  [P=<http://age>] PCSGM range scan (NLJ) ~2 rows -> ~2 out
  FILTER (1 predicates)
"#,
    );
}

/// An OPTIONAL that may leave ?v unbound keeps the pin a plain filter.
#[test]
fn unpushed_pin_optional() {
    check(
        "SELECT ?s ?v WHERE { ?s <http://name> ?o OPTIONAL { ?s <http://knows> ?v } FILTER(?v = <http://c>) }",
        r#"LOGICAL PLAN (no rewrites applied)
SELECT ?s ?v
  FILTER (1 exprs)
    OPTIONAL
      BGP (1 triple patterns)
        ?s <http://name> ?o
      BGP (1 triple patterns)
        ?s <http://knows> ?v
"#,
        r#"SELECT ?s ?v
  1: ?s <http://name> ?o  [P=<http://name>] PCSGM range scan (NLJ) ~3 rows -> ~3 out
  OPTIONAL
    2: ?s <http://knows> ?v  [P=<http://knows>] PCSGM range scan (HASH JOIN on ?s) ~3 rows -> ~1 out
  FILTER (1 predicates)
"#,
    );
}

/// A BGP with a constant absent from the store is planned as it is: the
/// zero-row scan drives and stops the chain.
#[test]
fn short_circuit() {
    check(
        "SELECT ?x WHERE { ?x <http://name> ?n . ?x <http://nowhere> ?y }",
        r#"LOGICAL PLAN (rewrites: prune-unsatisfiable)
SELECT ?x
  UNSATISFIABLE (yields no solutions)
    BGP (2 triple patterns)
      ?x <http://name> ?n
      ?x <http://nowhere> ?y
"#,
        r#"SELECT ?x
  1: ?x <http://nowhere> ?y  [P=<http://nowhere>] empty scan (constant absent from store) (NLJ) ~0 rows -> ~0 out
  2: ?x <http://name> ?n  [P=<http://name>] PSCGM range scan (NLJ) ~3 rows -> ~1 out
"#,
    );
}

/// A constant-false FILTER over live patterns collapses to the synthetic
/// always-empty step.
#[test]
fn false_filter() {
    check(
        "SELECT ?x WHERE { ?x <http://name> ?n . ?x <http://knows> ?y FILTER(false) }",
        r#"LOGICAL PLAN (rewrites: constant-false-filter)
SELECT ?x
  UNSATISFIABLE (yields no solutions)
    FILTER (1 exprs)
      BGP (2 triple patterns)
        ?x <http://name> ?n
        ?x <http://knows> ?y
"#,
        r#"SELECT ?x
  1: <urn:pgrdf:unsatisfiable> <urn:pgrdf:unsatisfiable> <urn:pgrdf:unsatisfiable>  [S=<urn:pgrdf:unsatisfiable> and P=<urn:pgrdf:unsatisfiable> and C=<urn:pgrdf:unsatisfiable>] empty scan (constant absent from store) (NLJ) ~0 rows -> ~0 out
"#,
    );
}

/// OPTIONAL: the right side is planned with the left side's slots bound.
#[test]
fn optional() {
    check(
        "SELECT ?x ?age WHERE { ?x <http://name> ?n OPTIONAL { ?x <http://age> ?age } }",
        r#"LOGICAL PLAN (no rewrites applied)
SELECT ?x ?age
  OPTIONAL
    BGP (1 triple patterns)
      ?x <http://name> ?n
    BGP (1 triple patterns)
      ?x <http://age> ?age
"#,
        r#"SELECT ?x ?age
  1: ?x <http://name> ?n  [P=<http://name>] PCSGM range scan (NLJ) ~3 rows -> ~3 out
  OPTIONAL
    2: ?x <http://age> ?age  [P=<http://age>] PCSGM range scan (HASH JOIN on ?x) ~2 rows -> ~1 out
"#,
    );
}

/// MINUS is planned on its own, with nothing bound.
#[test]
fn minus() {
    check(
        "SELECT ?x WHERE { ?x <http://name> ?n MINUS { ?x <http://age> ?a } }",
        r#"LOGICAL PLAN (no rewrites applied)
SELECT ?x
  JOIN
    BGP (1 triple patterns)
      ?x <http://name> ?n
    MINUS
      BGP (1 triple patterns)
        ?x <http://age> ?a
"#,
        r#"SELECT ?x
  1: ?x <http://name> ?n  [P=<http://name>] PCSGM range scan (NLJ) ~3 rows -> ~3 out
  MINUS
    2: ?x <http://age> ?a  [P=<http://age>] PCSGM range scan (NLJ) ~2 rows -> ~2 out
"#,
    );
}

/// VALUES binds its slot for the steps after it.
#[test]
fn values() {
    check(
        "SELECT ?x ?n WHERE { VALUES ?x { <http://a> <http://c> } ?x <http://name> ?n }",
        r#"LOGICAL PLAN (no rewrites applied)
SELECT ?x ?n
  JOIN
    VALUES ?x (2 rows)
    BGP (1 triple patterns)
      ?x <http://name> ?n
"#,
        r#"SELECT ?x ?n
  VALUES ?x (2 rows)
  1: ?x <http://name> ?n  [P=<http://name>] PCSGM range scan (HASH JOIN on ?x) ~3 rows -> ~1 out
"#,
    );
}

/// A BIND whose target is projected stays.
#[test]
fn bind_kept() {
    check(
        "SELECT ?x ?up WHERE { ?x <http://name> ?n BIND(UCASE(?n) AS ?up) }",
        r#"LOGICAL PLAN (no rewrites applied)
SELECT ?x ?up
  JOIN
    BGP (1 triple patterns)
      ?x <http://name> ?n
    BIND -> ?up
"#,
        r#"SELECT ?x ?up
  1: ?x <http://name> ?n  [P=<http://name>] PCSGM range scan (NLJ) ~3 rows -> ~3 out
  BIND -> ?up
"#,
    );
}

/// A BIND nobody reads is removed.
#[test]
fn bind_pruned() {
    check(
        "SELECT ?x WHERE { ?x <http://name> ?n BIND(UCASE(?n) AS ?up) }",
        r#"LOGICAL PLAN (rewrites: prune-unused-bind)
SELECT ?x
  BGP (1 triple patterns)
    ?x <http://name> ?n
"#,
        r#"SELECT ?x
  1: ?x <http://name> ?n  [P=<http://name>] PCSGM range scan (NLJ) ~3 rows -> ~3 out
"#,
    );
}

/// A sub-select is planned in its own scope.
#[test]
fn sub_select() {
    check(
        "SELECT ?x ?c WHERE { ?x <http://name> ?n { SELECT ?x (COUNT(?y) AS ?c) WHERE { ?x <http://knows> ?y } GROUP BY ?x } }",
        r#"LOGICAL PLAN (no rewrites applied)
SELECT ?x ?c
  JOIN
    BGP (1 triple patterns)
      ?x <http://name> ?n
    SUBQUERY
      SELECT ?x ?c
        BGP (1 triple patterns)
          ?x <http://knows> ?y
"#,
        r#"SELECT ?x ?c
  1: ?x <http://name> ?n  [P=<http://name>] PCSGM range scan (NLJ) ~3 rows -> ~3 out
  SUBQUERY
    SELECT ?x ?c
    GROUP BY ?x
      1: ?x <http://knows> ?y  [P=<http://knows>] PCSGM range scan (NLJ) ~3 rows -> ~3 out
"#,
    );
}

/// A closure path is one PATH step.
#[test]
fn closure_path() {
    check(
        "SELECT ?y WHERE { <http://a> <http://knows>+ ?y }",
        r#"LOGICAL PLAN (no rewrites applied)
SELECT ?y
  PATH <http://a> -[closure]-> ?y
"#,
        r#"SELECT ?y
  1: PATH <http://a> -[closure]-> ?y
"#,
    );
}

/// An EXISTS pattern is rendered after the form and planned with the
/// slots bound at its filter.
#[test]
fn exists() {
    let compiled = check(
        "SELECT ?x WHERE { ?x <http://name> ?n FILTER NOT EXISTS { ?y <http://likes> ?z . ?x <http://knows> ?y } }",
        r#"LOGICAL PLAN (no rewrites applied)
SELECT ?x
  FILTER (1 exprs)
    BGP (1 triple patterns)
      ?x <http://name> ?n
EXISTS #0
  BGP (2 triple patterns)
    ?y <http://likes> ?z
    ?x <http://knows> ?y
"#,
        r#"SELECT ?x
  1: ?x <http://name> ?n  [P=<http://name>] PCSGM range scan (NLJ) ~3 rows -> ~3 out
  FILTER (1 predicates)
"#,
    );
    // ?x is bound at the filter, so the EXISTS plan starts from it.
    assert_eq!(
        exists_steps(&compiled),
        [
            "?x <http://knows> ?y HashJoin { join_slots: [0] } ~3 -> ~1",
            "?y <http://likes> ?z IndexNlj ~20 -> ~1",
        ]
    );
}

/// Each UNION branch is planned separately.
#[test]
fn union() {
    check(
        "SELECT ?x ?v WHERE { { ?x <http://name> ?v } UNION { ?x <http://age> ?v } }",
        r#"LOGICAL PLAN (no rewrites applied)
SELECT ?x ?v
  UNION
    BGP (1 triple patterns)
      ?x <http://name> ?v
    BGP (1 triple patterns)
      ?x <http://age> ?v
"#,
        r#"SELECT ?x ?v
  UNION
    1: ?x <http://name> ?v  [P=<http://name>] PCSGM range scan (NLJ) ~3 rows -> ~3 out
    --
    2: ?x <http://age> ?v  [P=<http://age>] PCSGM range scan (NLJ) ~2 rows -> ~2 out
"#,
    );
}

/// ASK.
#[test]
fn ask() {
    check(
        "ASK { ?x <http://knows> <http://c> }",
        r#"LOGICAL PLAN (no rewrites applied)
ASK
  BGP (1 triple patterns)
    ?x <http://knows> <http://c>
"#,
        r#"ASK
  1: ?x <http://knows> <http://c>  [P=<http://knows> and C=<http://c>] PCSGM range scan (NLJ) ~1 rows -> ~1 out
"#,
    );
}

/// CONSTRUCT over a two-pattern BGP.
#[test]
fn construct() {
    check(
        "CONSTRUCT { ?y <http://knownBy> ?x } WHERE { ?x <http://knows> ?y . ?y <http://name> ?n }",
        r#"LOGICAL PLAN (no rewrites applied)
CONSTRUCT (1 template quads)
  SELECT ?x ?y ?n
    BGP (2 triple patterns)
      ?x <http://knows> ?y
      ?y <http://name> ?n
"#,
        r#"CONSTRUCT (1 template quads)
  SELECT ?x ?y ?n
    1: ?x <http://knows> ?y  [P=<http://knows>] PCSGM range scan (NLJ) ~3 rows -> ~3 out
    2: ?y <http://name> ?n  [P=<http://name>] PSCGM range scan (MERGE JOIN on ?y) ~3 rows -> ~3 out
"#,
    );
}

/// An empty UNION branch and an empty OPTIONAL side are pruned away.
#[test]
fn empty_branches() {
    check(
        "SELECT ?x WHERE { { ?x <http://name> ?n } UNION { ?x <http://nowhere> ?n } OPTIONAL { ?x <http://nowhere> ?z } }",
        r#"LOGICAL PLAN (rewrites: prune-unsatisfiable, prune-empty-union-branch, drop-empty-optional)
SELECT ?x
  BGP (1 triple patterns)
    ?x <http://name> ?n
"#,
        r#"SELECT ?x
  1: ?x <http://name> ?n  [P=<http://name>] PCSGM range scan (NLJ) ~3 rows -> ~3 out
"#,
    );
}

/// A multi-pattern BGP is reordered by the optimizer; a GRAPH ?g pattern
/// and an ordered LIMIT tail.
#[test]
fn reordered() {
    check(
        "SELECT ?a ?c WHERE { ?a <http://likes> ?b . ?b <http://likes> ?c . ?c <http://name> \"bob\" . GRAPH ?g { ?a ?k ?v } } ORDER BY ?c LIMIT 5",
        r#"LOGICAL PLAN (no rewrites applied)
SELECT ?a ?c
  JOIN
    BGP (3 triple patterns)
      ?a <http://likes> ?b
      ?b <http://likes> ?c
      ?c <http://name> "bob"
    BGP (1 triple patterns)
      ?a ?k ?v GRAPH ?g
"#,
        r#"SELECT ?a ?c
  1: ?c <http://name> "bob"  [P=<http://name> and C="bob"] PCSGM range scan (NLJ) ~1 rows -> ~1 out
  2: ?b <http://likes> ?c  [P=<http://likes>] PCSGM range scan (NLJ) ~20 rows -> ~1 out
  3: ?a <http://likes> ?b  [P=<http://likes>] PCSGM range scan (NLJ) ~20 rows -> ~1 out
  4: ?a ?k ?v GRAPH ?g  [] PCSGM full scan (NLJ) ~29 rows -> ~1 out
ORDER BY (1 keys, top 5)
SLICE limit=Some(5) offset=None
"#,
    );
}

/// SP edges: 300 edge IRIs, each anchored as a sub-property of
/// `<http://follows>`, used as the predicate of one edge triple and
/// tagged with one of 30 tags, so a tag names 10 edges.
fn sp_store() -> Store {
    let store = Store::new();
    store.create_model("m").expect("model");
    let t =
        |s: String, p: String, o: Term| Quad::triple(Term::iri(s), Term::iri(p), o).expect("valid");
    let mut quads = Vec::new();
    for i in 0..300 {
        let edge = format!("http://e{i}");
        let sub = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf".to_string();
        quads.push(t(edge.clone(), sub, Term::iri("http://follows")));
        let (s, o) = (
            format!("http://n{}", i % 40),
            format!("http://n{}", (i * 7) % 40),
        );
        quads.push(t(s, edge.clone(), Term::iri(o)));
        let tag = Term::string(format!("t{}", i % 30));
        quads.push(t(edge, "http://hasTag".into(), tag));
    }
    store.bulk_load("m", &quads).expect("load");
    store
}

/// In SP an edge IRI is a predicate used once, so a bound edge's tag
/// probe is a semi-join that drops most rows: EQ7's hops check each
/// edge's tag before its sub-property anchor, and no hop builds a hash
/// table over the anchors.
#[test]
fn selective_semi_join_plans_first() {
    let store = sp_store();
    let view = store.dataset("m").expect("dataset");
    let hop = |s: &str, p: &str, o: &str| {
        format!(
            "?{s} ?{p} ?{o} . ?{p} <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> \
             <http://follows> . ?{p} <http://hasTag> \"t3\" ."
        )
    };
    let query = format!(
        "SELECT ?n4 WHERE {{ {} {} {} }}",
        hop("s", "p", "n2"),
        hop("n2", "p2", "n3"),
        hop("n3", "p3", "n4")
    );
    let compiled =
        sparql::compile(&view, &sparql::parse_query(&query).expect("parses")).expect("compiles");
    let explain = sparql::explain::render(&compiled);
    let line = |p: &str, pred: &str| {
        explain
            .lines()
            .position(|l| l.contains(&format!(": ?{p} <http://{pred}")))
            .unwrap_or_else(|| panic!("no ?{p} {pred} step in\n{explain}"))
    };
    for p in ["p", "p2", "p3"] {
        let (tag, anchor) = (line(p, "hasTag"), line(p, "www.w3.org"));
        assert!(
            tag < anchor,
            "?{p}'s tag probe after its anchor in\n{explain}"
        );
        let anchor_line = explain.lines().nth(anchor).expect("line");
        assert!(
            !anchor_line.contains("HASH JOIN"),
            "?{p}'s anchors hash-built in\n{explain}"
        );
    }
}
