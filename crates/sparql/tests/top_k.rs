//! `ORDER BY … LIMIT` keeps its best rows in bounded heaps that drop a
//! row on its first key alone once they are full. Each ordered LIMIT here
//! must equal the stable sort's prefix — the same query without LIMIT or
//! OFFSET, whose heap never fills, sliced by the test — and
//! `execute_reference`, at one thread and at four with small morsels (a
//! heap per worker). The keys tie heavily on the first key, leave it
//! unbound, or compute it from an expression.

use quadstore::Store;
use rdf_model::{Quad, Term};
use sparql::{CompiledQuery, ExecLimits, ExecOptions, QueryResults};

/// 3,000 subjects: `p` = i mod 5 (600 ties per value), `q` = i (distinct,
/// arriving out of numeric order in subject IRI order), and `r` = i mod 4
/// on two subjects in three.
fn store() -> Store {
    let iri = |s: String| Term::iri(format!("http://x/{s}"));
    let mut quads = Vec::new();
    for i in 0..3000i32 {
        let s = iri(format!("s{i}"));
        let mut add = |p: &str, n: i32| {
            quads.push(Quad::triple(s.clone(), iri(p.into()), Term::int(n)).expect("quad"));
        };
        add("p", i % 5);
        add("q", i);
        if i % 3 != 0 {
            add("r", i % 4);
        }
    }
    let store = Store::new();
    store.create_model("m").expect("model");
    store.bulk_load("m", &quads).expect("load");
    store
}

fn rows(results: QueryResults) -> Vec<Vec<Option<Term>>> {
    match results {
        QueryResults::Solutions(s) => s.rows,
        other => panic!("expected solutions, got {other:?}"),
    }
}

#[test]
fn ordered_limits_equal_the_sorted_prefix_and_the_reference() {
    let store = store();
    let view = store.dataset("m").expect("dataset");
    let compile = |text: &str| -> CompiledQuery {
        let parsed = sparql::parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        sparql::compile(&view, &parsed).unwrap_or_else(|e| panic!("{text}: {e}"))
    };
    let reference = |plan: &CompiledQuery| {
        let (results, _) =
            sparql::execute_reference(&view, plan, ExecLimits::default()).expect("reference");
        rows(results)
    };
    let both = "?s <http://x/p> ?p . ?s <http://x/q> ?q";
    let optional = "?s <http://x/p> ?p . ?s <http://x/q> ?q OPTIONAL { ?s <http://x/r> ?r }";
    // (WHERE body, ORDER BY keys)
    let cases = [
        (both, "?p ?q"),
        (both, "DESC(?p) ?q"),
        (both, "?p DESC(?q)"),
        (both, "DESC(?p) DESC(?q)"),
        (optional, "?r ?q"),
        (optional, "DESC(?r) DESC(?q)"),
        (both, "ASC(?p * 2) DESC(?q)"),
        (optional, "ASC(?r + 1) ?q"),
        (optional, "DESC(?r - ?p) ?p ?q"),
    ];
    let slices = [(1usize, 0usize), (7, 0), (25, 3), (700, 0), (650, 20)];
    for (body, keys) in cases {
        let sorted_text = format!("SELECT ?s ?p ?q WHERE {{ {body} }} ORDER BY {keys}");
        let sorted = reference(&compile(&sorted_text));
        assert_eq!(sorted.len(), 3000, "{sorted_text}");
        for (limit, offset) in slices {
            let text = format!("{sorted_text} LIMIT {limit} OFFSET {offset}");
            let expected: Vec<_> = sorted.iter().skip(offset).take(limit).cloned().collect();
            let plan = compile(&text);
            assert_eq!(reference(&plan), expected, "reference: {text}");
            for options in [
                ExecOptions::threads(1),
                ExecOptions::threads(4).with_morsel_size(64),
            ] {
                let got = sparql::execute_compiled_with_options(&view, &plan, options.clone())
                    .expect("runs");
                assert_eq!(rows(got), expected, "{options:?}: {text}");
            }
        }
    }
}
