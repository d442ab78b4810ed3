//! Executor corner cases: OPTIONAL, VALUES, multi-key ORDER BY,
//! OFFSET/LIMIT, sub-SELECT joins, language tags, aggregates over empty
//! input, and the computed-term identity rules.

use std::sync::Arc;

use quadstore::Store;
use rdf_model::{GraphName, Literal, Quad, Term};
use sparql::{ExecLimits, ExecObserver, ExecOptions, QueryResults, Solutions};

fn store() -> Store {
    let store = Store::new();
    store.create_model("m").expect("model");
    let t = |s: &str, p: &str, o: Term| Quad::triple(Term::iri(s), Term::iri(p), o).expect("valid");
    store
        .bulk_load(
            "m",
            &[
                t("http://a", "http://name", Term::string("alice")),
                t("http://a", "http://age", Term::int(30)),
                t("http://b", "http://name", Term::string("bob")),
                t("http://c", "http://name", Term::string("carol")),
                t("http://c", "http://age", Term::int(25)),
                t("http://a", "http://knows", Term::iri("http://b")),
                t("http://b", "http://knows", Term::iri("http://c")),
                t(
                    "http://a",
                    "http://label",
                    Term::Literal(Literal::lang_string("zug", "de")),
                ),
                Quad::new(
                    Term::iri("http://a"),
                    Term::iri("http://secret"),
                    Term::string("hidden"),
                    GraphName::iri("http://g1"),
                )
                .expect("valid"),
            ],
        )
        .expect("load");
    store
}

fn select(q: &str) -> Solutions {
    sparql::select(&store(), "m", q).expect("query runs")
}

#[test]
fn optional_keeps_unmatched_left_rows() {
    let sols =
        select("SELECT ?x ?age WHERE { ?x <http://name> ?n OPTIONAL { ?x <http://age> ?age } }");
    assert_eq!(sols.len(), 3);
    let unbound = sols.rows.iter().filter(|r| r[1].is_none()).count();
    assert_eq!(unbound, 1, "bob has no age");
}

#[test]
fn optional_binds_when_present() {
    let sols = select(
        "SELECT ?x ?age WHERE { ?x <http://name> \"alice\" OPTIONAL { ?x <http://age> ?age } }",
    );
    assert_eq!(sols.len(), 1);
    assert_eq!(sols.rows[0][1].as_ref().unwrap().str_value(), "30");
}

#[test]
fn values_restricts_and_binds() {
    let sols =
        select("SELECT ?x ?n WHERE { VALUES ?x { <http://a> <http://c> } ?x <http://name> ?n }");
    assert_eq!(sols.len(), 2);
}

#[test]
fn values_multi_column_with_undef() {
    let sols = select(
        "SELECT ?x ?n WHERE { VALUES (?x ?n) { (<http://a> \"alice\") (<http://b> UNDEF) } \
         ?x <http://name> ?n }",
    );
    // Row 1 pins both (consistent); row 2 leaves ?n free.
    assert_eq!(sols.len(), 2);
}

#[test]
fn order_by_multiple_keys_and_offset() {
    let sols = select("SELECT ?n ?x WHERE { ?x <http://name> ?n } ORDER BY ?n LIMIT 2 OFFSET 1");
    assert_eq!(sols.len(), 2);
    assert_eq!(sols.rows[0][0].as_ref().unwrap().str_value(), "bob");
    assert_eq!(sols.rows[1][0].as_ref().unwrap().str_value(), "carol");
}

#[test]
fn order_by_desc_numeric() {
    let sols = select("SELECT ?x ?a WHERE { ?x <http://age> ?a } ORDER BY DESC(?a)");
    assert_eq!(sols.rows[0][1].as_ref().unwrap().str_value(), "30");
    assert_eq!(sols.rows[1][1].as_ref().unwrap().str_value(), "25");
}

#[test]
fn subselect_joins_with_outer_pattern() {
    let sols = select(
        "SELECT ?x ?n WHERE { { SELECT ?x WHERE { ?x <http://age> ?a } } ?x <http://name> ?n }",
    );
    assert_eq!(sols.len(), 2); // alice + carol have ages
}

#[test]
fn aggregate_over_empty_input_yields_zero() {
    let sols = select("SELECT (COUNT(*) AS ?c) WHERE { ?x <http://nothing> ?y }");
    assert_eq!(sols.scalar_i64(), Some(0));
}

#[test]
fn sum_avg_min_max() {
    let sols = select(
        "SELECT (SUM(?a) AS ?s) (AVG(?a) AS ?avg) (MIN(?a) AS ?min) (MAX(?a) AS ?max) \
         WHERE { ?x <http://age> ?a }",
    );
    let row = &sols.rows[0];
    assert_eq!(row[0].as_ref().unwrap().str_value(), "55");
    assert_eq!(row[1].as_ref().unwrap().str_value(), "27.5");
    assert_eq!(row[2].as_ref().unwrap().str_value(), "25");
    assert_eq!(row[3].as_ref().unwrap().str_value(), "30");
}

#[test]
fn count_distinct() {
    let sols = select("SELECT (COUNT(DISTINCT ?p) AS ?c) WHERE { <http://a> ?p ?o }");
    // name, age, knows, label, secret (named graph; union semantics).
    assert_eq!(sols.scalar_i64(), Some(5));
}

#[test]
fn lang_tag_functions() {
    let sols = select("SELECT ?l WHERE { ?x <http://label> ?l FILTER (LANG(?l) = \"de\") }");
    assert_eq!(sols.len(), 1);
}

#[test]
fn named_graph_data_visible_without_graph_clause() {
    // Union default graph semantics (Oracle SEM_MATCH style).
    let sols = select("SELECT ?o WHERE { <http://a> <http://secret> ?o }");
    assert_eq!(sols.len(), 1);
    // But GRAPH restricts to named graphs and binds the graph.
    let sols = select("SELECT ?g WHERE { GRAPH ?g { <http://a> <http://secret> ?o } }");
    assert_eq!(sols.rows[0][0].as_ref().unwrap().str_value(), "http://g1");
}

#[test]
fn projection_expression_arithmetic() {
    let sols = select("SELECT ?x ((?a + 1) AS ?next) WHERE { ?x <http://age> ?a } ORDER BY ?next");
    assert_eq!(sols.rows[0][1].as_ref().unwrap().str_value(), "26");
    assert_eq!(sols.rows[1][1].as_ref().unwrap().str_value(), "31");
}

#[test]
fn grouped_computed_keys_merge() {
    // Two different nodes with the same computed (COUNT) value group into
    // one row at the outer level — the computed-term identity rule.
    let sols = select(
        "SELECT ?cnt (COUNT(*) AS ?nodes) WHERE { \
           SELECT ?x (COUNT(*) AS ?cnt) WHERE { ?x <http://name> ?n } GROUP BY ?x \
         } GROUP BY ?cnt",
    );
    assert_eq!(sols.len(), 1, "all three nodes have exactly 1 name");
    assert_eq!(sols.rows[0][1].as_ref().unwrap().str_value(), "3");
}

#[test]
fn union_combines_branches() {
    let sols = select(
        "SELECT ?v WHERE { { <http://a> <http://name> ?v } UNION { <http://a> <http://age> ?v } }",
    );
    assert_eq!(sols.len(), 2);
}

#[test]
fn ask_true_and_false() {
    let store = store();
    match sparql::query(&store, "m", "ASK { <http://a> <http://knows> <http://b> }").unwrap() {
        QueryResults::Boolean(b) => assert!(b),
        _ => panic!("expected boolean"),
    }
    match sparql::query(&store, "m", "ASK { <http://b> <http://knows> <http://a> }").unwrap() {
        QueryResults::Boolean(b) => assert!(!b),
        _ => panic!("expected boolean"),
    }
}

/// ASK runs on the producer every SELECT runs on: it answers like the
/// row evaluator at every thread count, and a pipelinable pattern runs on
/// the vectorized pipeline.
#[test]
fn ask_runs_on_the_shared_producer() {
    let store = store();
    let view = store.dataset("m").expect("dataset");
    let cases = [
        ("ASK { ?x <http://knows> ?y }", Some(true)),
        ("ASK { ?x <http://knows> <http://a> }", Some(false)),
        (
            "ASK { { ?x <http://age> 99 } UNION { ?x <http://knows> <http://c> } }",
            None,
        ),
        (
            "ASK { ?x <http://name> ?n OPTIONAL { ?x <http://age> ?a } FILTER (!BOUND(?a)) }",
            None,
        ),
    ];
    for (text, answer) in cases {
        let plan =
            sparql::compile(&view, &sparql::parse_query(text).expect("parse")).expect("compile");
        let (expected, _) =
            sparql::execute_reference(&view, &plan, ExecLimits::default()).expect("reference");
        if let Some(answer) = answer {
            assert_eq!(expected, QueryResults::Boolean(answer), "{text}");
        }
        for threads in [1, 2] {
            let observer = Arc::new(ExecObserver::new());
            let options = ExecOptions::threads(threads).with_observer(Arc::clone(&observer));
            let got = sparql::execute_compiled_with_options(&view, &plan, options).expect("run");
            assert_eq!(got, expected, "{text} threads={threads}");
            if answer.is_some() {
                assert!(
                    observer.vectorized(),
                    "{text} threads={threads}: not vectorized"
                );
            }
        }
    }
}

#[test]
fn repeated_variable_in_pattern() {
    let store = Store::new();
    store.create_model("m").unwrap();
    store
        .bulk_load(
            "m",
            &[
                Quad::triple(
                    Term::iri("http://x"),
                    Term::iri("http://p"),
                    Term::iri("http://x"),
                )
                .unwrap(),
                Quad::triple(
                    Term::iri("http://x"),
                    Term::iri("http://p"),
                    Term::iri("http://y"),
                )
                .unwrap(),
            ],
        )
        .unwrap();
    let sols = sparql::select(&store, "m", "SELECT ?a WHERE { ?a <http://p> ?a }").unwrap();
    assert_eq!(sols.len(), 1, "only the self-loop binds ?a twice");
}

#[test]
fn filter_regex_and_strstarts() {
    let sols = select("SELECT ?n WHERE { ?x <http://name> ?n FILTER (REGEX(?n, \"^ali\")) }");
    assert_eq!(sols.len(), 1);
    let sols = select("SELECT ?n WHERE { ?x <http://name> ?n FILTER (STRSTARTS(?n, \"c\")) }");
    assert_eq!(sols.len(), 1);
}

#[test]
fn inverse_path() {
    let sols = select("SELECT ?x WHERE { <http://b> ^<http://knows> ?x }");
    assert_eq!(sols.len(), 1);
    assert_eq!(sols.rows[0][0].as_ref().unwrap().str_value(), "http://a");
}

#[test]
fn zero_or_one_path() {
    let sols = select("SELECT ?y WHERE { <http://a> <http://knows>? ?y }");
    // a itself (zero) + b (one).
    assert_eq!(sols.len(), 2);
}

/// Row count of `q` over `{ s1 <a> X . s2 <b> Y }` on the reference
/// evaluator, which must agree with one and four workers; also asserts
/// the `pin-pushdown` rewrite left the query alone.
fn unpinned_rows(q: &str) -> usize {
    let store = Store::new();
    store.create_model("m").unwrap();
    let t =
        |s: &str, p: &str, o: &str| Quad::triple(Term::iri(s), Term::iri(p), Term::iri(o)).unwrap();
    store
        .bulk_load(
            "m",
            &[
                t("http://x/s1", "http://x/a", "http://x/X"),
                t("http://x/s2", "http://x/b", "http://x/Y"),
            ],
        )
        .unwrap();
    let view = store.dataset("m").unwrap();
    let compiled = sparql::compile(&view, &sparql::parse_query(q).unwrap()).unwrap();
    assert!(
        !compiled.logical.contains("pin-pushdown"),
        "?v is not bound by every solution, so its pin must stay a filter:\n{}",
        compiled.logical
    );
    let (reference, _) =
        sparql::execute_reference(&view, &compiled, sparql::ExecLimits::default()).unwrap();
    for threads in [1, 4] {
        let got = sparql::execute_compiled_with_options(
            &view,
            &compiled,
            sparql::ExecOptions::threads(threads),
        )
        .unwrap();
        assert_eq!(
            reference, got,
            "threads={threads} diverged from the reference"
        );
    }
    match reference {
        QueryResults::Solutions(s) => s.len(),
        other => panic!("expected solutions, got {other:?}"),
    }
}

#[test]
fn pin_on_a_variable_one_union_branch_leaves_unbound() {
    // The <b> branch does not bind ?v: FILTER(?v = <X>) must drop its row
    // (unbound -> error -> false), not bind ?v for it.
    let rows = unpinned_rows(
        "SELECT ?s ?v WHERE { \
           { ?s <http://x/a> ?v } UNION { ?s <http://x/b> ?o } \
           FILTER(?v = <http://x/X>) }",
    );
    assert_eq!(rows, 1, "only s1 survives");
}

#[test]
fn pin_on_a_variable_an_optional_leaves_unbound() {
    // s1 has no <b> edge: ?v stays unbound and the filter drops the row.
    let rows = unpinned_rows(
        "SELECT ?s ?v WHERE { \
           ?s <http://x/a> ?o \
           OPTIONAL { ?s <http://x/b> ?v } \
           FILTER(?v = <http://x/Y>) }",
    );
    assert_eq!(rows, 0, "no row survives");
}

/// An ORDER BY key holding an aggregate sorts the groups by it, exactly
/// as ordering by the same aggregate projected under a name does: object
/// `o{i}` is the target of `i` edges, so descending count is the reverse
/// of the objects' names.
#[test]
fn order_by_an_aggregate_sorts_the_groups() {
    let store = Store::new();
    store.create_model("m").expect("model");
    let quads: Vec<Quad> = (1..=9u32)
        .flat_map(|i| {
            (0..i).map(move |j| {
                let (s, o) = (format!("http://s{i}_{j}"), format!("http://o{i}"));
                Quad::triple(Term::iri(s), Term::iri("http://p"), Term::iri(o)).expect("valid")
            })
        })
        .collect();
    store.bulk_load("m", &quads).expect("load");
    let objects = |q: &str| -> Vec<Option<Term>> {
        let sols = sparql::select(&store, "m", q).expect("query runs");
        sols.rows.into_iter().map(|row| row[0].clone()).collect()
    };
    let named = objects(
        "SELECT ?o (COUNT(*) AS ?c) WHERE { ?s <http://p> ?o } GROUP BY ?o ORDER BY DESC(?c) ?o",
    );
    assert_eq!(named[0], Some(Term::iri("http://o9")), "{named:?}");
    for tail in ["", " LIMIT 4"] {
        let q = format!(
            "SELECT ?o WHERE {{ ?s <http://p> ?o }} GROUP BY ?o ORDER BY DESC(COUNT(*)) ?o{tail}"
        );
        let got = objects(&q);
        assert_eq!(got[..], named[..got.len()], "{q}");
    }
}

/// A variable projected out of a grouped query but not grouped by is a
/// compile error — also over zero groups, and inside a sub-select, whose
/// execution errors the sub-select operator would otherwise discard.
#[test]
fn projecting_an_ungrouped_variable_is_rejected() {
    for q in [
        "SELECT ?y (COUNT(*) AS ?c) WHERE { ?x <http://nothing> ?y } GROUP BY ?x",
        "SELECT ?a WHERE { { SELECT ?y (COUNT(*) AS ?c) WHERE { ?x <http://knows> ?y } \
         GROUP BY ?x } }",
    ] {
        let result = sparql::query(&store(), "m", q);
        assert!(
            matches!(result, Err(sparql::SparqlError::Unsupported(_))),
            "{q}: {result:?}"
        );
    }
}

/// A term's sort key orders exactly like its value under the comparison
/// ORDER BY used before keys borrowed from the dictionary: numbers by
/// `f64::total_cmp` (integers through `i64 as f64`, so beyond 2^53 they
/// round alike), booleans by their canonical spelling, everything else by
/// string form.
#[test]
fn sort_keys_order_terms_like_their_values() {
    use rdf_model::vocab::xsd;
    use rdf_model::Iri;
    use sparql::expr::{SortKey, Value};
    use std::cmp::Ordering;

    let typed = |lex: &str, dt: &str| Term::Literal(Literal::typed(lex, Iri::new(dt)));
    let terms = [
        Term::iri("http://b"),
        Term::iri("http://a"),
        Term::blank("b1"),
        Term::string("abc"),
        Term::string("10"),
        Term::string("true"),
        Term::string(""),
        Term::Literal(Literal::lang_string("zug", "de")),
        typed("x", "http://custom"),
        typed("abc", xsd::STRING),
        typed("abc", xsd::INTEGER),
        Term::Literal(Literal::double(f64::NAN)),
        Term::Literal(Literal::double(-0.0)),
        Term::Literal(Literal::double(1e300)),
        Term::int(9),
        Term::int(10),
        Term::Literal(Literal::integer((1 << 53) + 1)),
        Term::Literal(Literal::integer(1 << 53)),
        Term::Literal(Literal::integer(-(1 << 60))),
        typed("99999999999999999999", xsd::INTEGER),
        typed("1.5", xsd::DECIMAL),
        typed("1", xsd::BOOLEAN),
        typed("false", xsd::BOOLEAN),
        typed("yes", xsd::BOOLEAN),
    ];
    let old_order = |a: &Value, b: &Value| match (a.as_number(), b.as_number()) {
        (Some(x), Some(y)) => x.total_cmp(&y),
        (None, None) => a.str_value().cmp(&b.str_value()),
        (x, y) => y.is_some().cmp(&x.is_some()),
    };
    for a in &terms {
        for b in &terms {
            let (va, vb) = (Value::from_term(a), Value::from_term(b));
            let expected = old_order(&va, &vb);
            assert_eq!(
                SortKey::of_term(a).cmp(&SortKey::of_term(b)),
                expected,
                "{a} vs {b}"
            );
            assert_eq!(va.order_cmp(&vb), expected, "{a} vs {b} as values");
        }
        assert_eq!(
            SortKey::Unbound.cmp(&SortKey::of_term(a)),
            Ordering::Less,
            "{a}"
        );
    }
    let one = typed("1", xsd::BOOLEAN);
    assert_eq!(
        SortKey::of_term(&one),
        SortKey::of_term(&Term::string("true"))
    );
}

/// ORDER BY needs a total order or `sort_by` may panic: `sparql_cmp`
/// compares numeric pairs numerically and every other pair by string
/// form, so `9 < 10`, `10 < "5"`, `"5" < 9`. The sort key order is
/// unbound < numeric (by `f64::total_cmp`, so NaN has a place) <
/// everything else by string form — over a column that alternates
/// integers and their string forms, asc and DESC, with and without LIMIT,
/// sequential and parallel.
#[test]
fn order_by_is_total_over_mixed_numeric_and_string_keys() {
    use sparql::{query_with_options, ExecOptions};
    use std::cmp::Ordering;

    let store = Store::new();
    store.create_model("m").expect("model");
    let row = |i: u32, v: Term| {
        Quad::triple(Term::iri(format!("http://s{i}")), Term::iri("http://p"), v).expect("valid")
    };
    let mut quads: Vec<Quad> = (0..2_000u32)
        .map(|i| {
            let n = (i / 2) as i32;
            row(
                i,
                if i % 2 == 0 {
                    Term::int(n)
                } else {
                    Term::string(n.to_string())
                },
            )
        })
        .collect();
    quads.push(row(2_000, Term::Literal(Literal::double(f64::NAN))));
    store.bulk_load("m", &quads).expect("load");

    let rank = |a: &Option<Term>, b: &Option<Term>| -> Ordering {
        let num = |t: &Option<Term>| t.as_ref()?.as_literal()?.as_f64();
        match (num(a), num(b)) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => {
                let s = |t: &Option<Term>| t.as_ref().map(|t| t.str_value().to_string());
                s(a).cmp(&s(b))
            }
        }
    };
    for threads in [1usize, 4] {
        for (key, desc) in [("?v", false), ("DESC(?v)", true)] {
            let run = |tail: &str| {
                let q = format!("SELECT ?s ?v WHERE {{ ?s <http://p> ?v }} ORDER BY {key}{tail}");
                match query_with_options(&store, "m", &q, ExecOptions::threads(threads)) {
                    Ok(QueryResults::Solutions(sols)) => sols.rows,
                    other => panic!("{q} threads={threads}: {other:?}"),
                }
            };
            let all = run("");
            assert_eq!(all.len(), 2_001, "{key} threads={threads}");
            for pair in all.windows(2) {
                let ord = rank(&pair[0][1], &pair[1][1]);
                let ord = if desc { ord.reverse() } else { ord };
                assert_ne!(ord, Ordering::Greater, "{key} threads={threads}: {pair:?}");
            }
            assert_eq!(run(" LIMIT 25"), all[..25], "{key} threads={threads}");
        }
    }
}

#[test]
fn flat_chains_of_256_links_answer_on_a_small_stack() {
    let chain = |item: &str, sep: &str| vec![item; 257].join(sep);
    let optionals = vec!["OPTIONAL { ?y <http://age> ?a }"; 256].join(" ");
    let queries = [
        format!(
            "SELECT ?x WHERE {{ ?x <http://age> ?a FILTER ({} > 0) }}",
            chain("?a", " + ")
        ),
        format!(
            "SELECT ?x WHERE {{ ?x <http://age> ?a FILTER ({}) }}",
            chain("?a = 30", " || ")
        ),
        format!(
            "SELECT ?x WHERE {{ {} }}",
            chain("{ ?x <http://age> ?a }", " UNION ")
        ),
        format!(
            "SELECT ?x WHERE {{ ?x {} ?y }}",
            chain("<http://knows>", "|")
        ),
        format!(
            "SELECT ?x WHERE {{ ?x {} ?y }}",
            chain("<http://knows>", "/")
        ),
        format!("SELECT ?x WHERE {{ ?x <http://knows> ?y {optionals} }}"),
    ];
    // A release build answers them all on a 2 MB thread; a debug build's
    // larger frames take a 257-branch UNION past 2 MB.
    let stack = if cfg!(debug_assertions) {
        4 << 20
    } else {
        2 << 20
    };
    let counts = std::thread::Builder::new()
        .stack_size(stack)
        .spawn(move || queries.map(|q| select(&q).len()))
        .expect("spawn")
        .join()
        .expect("no stack overflow or panic");
    // Ages 30 and 25; alice at 30; two rows per UNION branch and per
    // path alternative; no path of 257 knows edges; the two knows edges,
    // each kept once by every OPTIONAL.
    assert_eq!(counts, [2, 1, 514, 514, 0, 2]);
}
