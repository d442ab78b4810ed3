//! Plans bound from a cached query shape answer exactly what a fresh
//! compile of the same text answers.
//!
//! The plan cache keys on a query's shape: its text with the `<…>` IRIs
//! and plain strings lifted out. A text that differs from a cached shape
//! only in those constants is served by binding its values into a cached
//! template. Every test here warms the cache with one binding of a shape,
//! runs other bindings through the facade, and compares each answer with
//! `sparql::query`, which parses and compiles the text afresh — under NG,
//! SP and RF, for constants present in and absent from the dictionary.

use pgrdf::{PgRdfModel, PgRdfStore, PgVocab};
use pgrdf_bench::{Eq, Fixture};
use propertygraph::{PropValue, PropertyGraph};
use quadstore::Snapshot;
use sparql::{ExecOptions, QueryResults};

/// An answer with its row order forgotten.
#[derive(Debug, PartialEq)]
enum Answer {
    Bool(bool),
    Rows(Vec<String>),
}

fn answer(results: QueryResults) -> Answer {
    let mut rows: Vec<String> = match results {
        QueryResults::Boolean(b) => return Answer::Bool(b),
        QueryResults::Solutions(s) => s.rows.iter().map(|r| format!("{r:?}")).collect(),
        QueryResults::Graph(quads) => quads.iter().map(|q| format!("{q:?}")).collect(),
    };
    rows.sort();
    Answer::Rows(rows)
}

/// Runs `text` through the facade and through a fresh compile, both
/// against the store's whole dataset, and asserts the answers agree.
fn agree(store: &PgRdfStore, text: &str) {
    let served = store
        .query(text)
        .unwrap_or_else(|e| panic!("{}: {e}\n{text}", store.model()));
    let fresh = sparql::query(store.store(), &store.dataset_name(), text).expect("fresh query");
    assert_eq!(answer(served), answer(fresh), "{}: {text}", store.model());
}

/// The answer of a fresh compile of `text` against a pinned snapshot.
fn fresh_at(store: &PgRdfStore, snapshot: &Snapshot, text: &str) -> Answer {
    let view = snapshot.dataset(&store.dataset_name()).expect("dataset");
    let plan = sparql::compile(&view, &sparql::parse_query(text).expect("parse")).expect("compile");
    answer(sparql::execute_compiled(&view, &plan).expect("execute"))
}

fn served_at(store: &PgRdfStore, snapshot: &Snapshot, text: &str) -> Answer {
    answer(QueryResults::Solutions(
        store.select_at(snapshot, text).expect("query at snapshot"),
    ))
}

/// Eight people with names, ages and their ages as plain strings: a
/// `follows` chain 1→…→7 with a fan-out from 1, one `knows` edge, and a
/// name holding a quote.
fn people() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    for i in 1..=8u64 {
        let name = if i == 8 {
            "Quo\"ted".to_string()
        } else {
            format!("P{i}")
        };
        let age = 20 + i as i64;
        let code = PropValue::from(age.to_string());
        let props = [
            ("name", PropValue::from(name)),
            ("age", age.into()),
            ("code", code),
        ];
        g.add_vertex_with_props(i, props);
    }
    for i in 1..=6u64 {
        let e = g
            .add_edge_with_id(100 + i, i, "follows", i + 1)
            .expect("fresh id");
        g.set_edge_prop(e, "since", 2000 + i as i64)
            .expect("edge exists");
    }
    for o in [3, 4, 5] {
        g.add_edge_with_id(200 + o, 1, "follows", o)
            .expect("fresh id");
    }
    g.add_edge_with_id(300, 2, "knows", 1).expect("fresh id");
    g
}

/// The people under every encoding, plus language-tagged nicknames whose
/// plain forms name someone else.
fn people_stores() -> Vec<PgRdfStore> {
    let graph = people();
    let nicks = format!(
        "{}INSERT DATA {{ {} key:nick \"N1\"@en . {} key:nick \"N2\"@en . {} key:nick \"N2\" }}",
        PgVocab::default().prefixes(),
        v(1),
        v(2),
        v(3)
    );
    let load = |m| {
        let store = PgRdfStore::load(&graph, m).expect("load");
        store.update(&nicks).expect("nicknames");
        store
    };
    PgRdfModel::ALL.iter().map(|&m| load(m)).collect()
}

fn v(i: u64) -> String {
    format!("<http://pg/v{i}>")
}

/// Present vertices and one absent from every dictionary.
const VERTICES: [u64; 6] = [1, 2, 3, 5, 7, 99];

#[test]
fn lifted_constants_bind_in_every_position_they_can_occupy() {
    let p = PgVocab::default().prefixes();
    // One case per shape: its texts, with `$v` a vertex, `$a`/`$b` a
    // pair of vertices or `$x` a word.
    let vertices = |shape: &str| -> Vec<String> {
        VERTICES
            .iter()
            .map(|&i| format!("{p}{}", shape.replace("$v", &v(i))))
            .collect()
    };
    let pairs = |shape: &str, pairs: &[(u64, u64)]| -> Vec<String> {
        let bind = |&(a, b): &(u64, u64)| shape.replace("$a", &v(a)).replace("$b", &v(b));
        pairs
            .iter()
            .map(|pair| format!("{p}{}", bind(pair)))
            .collect()
    };
    let words = |shape: &str, words: &[&str]| -> Vec<String> {
        words
            .iter()
            .map(|w| format!("{p}{}", shape.replace("$x", w)))
            .collect()
    };
    let xsd_int = "<http://www.w3.org/2001/XMLSchema#int>";
    let mut cases: Vec<Vec<String>> = vec![
        // Subject and object of a triple pattern: generic.
        vertices("SELECT ?o WHERE { $v r:follows ?o }"),
        vertices("SELECT ?s WHERE { ?s r:follows $v }"),
        // A repeated constant pins itself; distinct ones rebind.
        pairs(
            "ASK { $a r:follows $b }",
            &[
                (1, 1),
                (1, 2),
                (2, 3),
                (3, 3),
                (1, 99),
                (99, 99),
                (2, 1),
                (4, 5),
            ],
        ),
        // Predicate, GRAPH, FILTER pin, VALUES and BIND positions pin.
        words(
            "SELECT ?s ?o WHERE { ?s <http://pg/r/$x> ?o }",
            &["follows", "knows", "likes"],
        ),
        words(
            "SELECT ?k ?x WHERE { GRAPH <http://pg/e$x> { ?s ?k ?x } }",
            &["101", "102", "300", "999"],
        ),
        words(
            "SELECT ?s WHERE { ?s key:name ?n FILTER(?n = \"$x\") }",
            &["P1", "P3", "Nobody"],
        ),
        vertices("SELECT ?s WHERE { ?s r:follows ?o FILTER(?o = $v) }"),
        vertices("SELECT ?o WHERE { VALUES ?s { $v } ?s r:follows ?o }"),
        pairs(
            "SELECT ?o ?c WHERE { $a r:follows ?o BIND($b AS ?c) }",
            &[(1, 2), (2, 2), (3, 99), (99, 1)],
        ),
        // A closure path's endpoint, ORDER BY, OPTIONAL, MINUS, EXISTS and
        // a sub-select.
        vertices("SELECT ?y WHERE { $v r:follows+ ?y }"),
        vertices("SELECT ?o WHERE { $v ?q ?o } ORDER BY DESC(?o) LIMIT 2"),
        words(
            "SELECT ?x ?y WHERE { ?x key:name ?n \
             OPTIONAL { ?x r:follows ?y . ?y key:name \"$x\" } }",
            &["P2", "P4", "Nobody"],
        ),
        vertices("SELECT ?x WHERE { ?x key:name ?n MINUS { ?x r:follows $v } }"),
        vertices("SELECT ?x WHERE { ?x key:name ?n FILTER EXISTS { ?x r:follows $v } }"),
        vertices("SELECT ?x WHERE { ?x key:name ?n FILTER NOT EXISTS { ?x r:follows $v } }"),
        vertices("SELECT ?o WHERE { { SELECT ?o WHERE { $v r:follows ?o } } }"),
        // Escaped and single-quoted strings bind their unescaped values;
        // tagged and typed literals, numbers and BASE queries stay whole.
        words(
            "SELECT ?x WHERE { ?x key:name $x }",
            &[
                r#""P1""#,
                r#""Quo\"ted""#,
                "'P2'",
                r#""Nobody""#,
                r#""P1"@en"#,
            ],
        ),
        words(
            &format!("SELECT ?x WHERE {{ ?x key:age \"$x\"^^{xsd_int} }}"),
            &["21", "22", "99"],
        ),
        words(
            "SELECT ?x WHERE { ?x key:nick \"$x\"@en }",
            &["N1", "N2", "N3"],
        ),
        words(
            "SELECT ?x WHERE { ?x key:age ?a . ?x key:name \"P1\" FILTER(?a < $x) }",
            &["23", "25"],
        ),
        VERTICES
            .iter()
            .map(|&i| {
                format!(
                    "BASE <http://pg/> {p}SELECT ?o WHERE {{ {} r:follows ?o }}",
                    v(i)
                )
            })
            .collect(),
    ];
    // Every case once more in reverse order, on the warm cache.
    let reversed: Vec<Vec<String>> = cases
        .iter()
        .map(|c| c.iter().rev().cloned().collect())
        .collect();
    cases.extend(reversed);
    for store in people_stores() {
        let mut texts = 0;
        for case in &cases {
            for text in case {
                agree(&store, text);
                texts += 1;
            }
        }
        let cache = store.plan_cache();
        assert!(
            cache.compiles() < texts && cache.hits() > 0,
            "{}: {} compiles for {texts} texts",
            store.model(),
            cache.compiles()
        );
    }
}

#[test]
fn filter_and_predicate_constants_pin_and_subject_constants_rebind() {
    let p = PgVocab::default().prefixes();
    let store = PgRdfStore::load(&people(), PgRdfModel::NG).expect("load");
    let generic = |text: &str| {
        store.query(text).expect("query");
        let entries = store.plan_cache().entries();
        let entry = entries
            .iter()
            .find(|e| e.text == text)
            .expect("the text compiled");
        entry.generic_params
    };
    // Compiled first, a repeated constant pins both occurrences; the
    // distinct pair then needs a variant of its own, which rebinds both.
    assert_eq!(
        generic(&format!("{p}ASK {{ {} r:follows {} }}", v(3), v(3))),
        0
    );
    assert_eq!(
        generic(&format!("{p}ASK {{ {} r:follows {} }}", v(1), v(2))),
        2
    );
    let pinned = format!(
        "{p}SELECT ?s WHERE {{ ?s r:follows ?o FILTER(?o = {}) }}",
        v(2)
    );
    assert_eq!(generic(&pinned), 0);
    assert_eq!(
        generic(&format!(
            "{p}SELECT ?s ?o WHERE {{ ?s <http://pg/r/knows> ?o }}"
        )),
        0
    );
    assert_eq!(
        generic(&format!("{p}SELECT ?y WHERE {{ {} r:follows+ ?y }}", v(2))),
        0
    );
    assert_eq!(
        generic(&format!("{p}SELECT ?x WHERE {{ ?x key:name 'P4' }}")),
        1
    );
}

#[test]
fn every_query_set_shape_binds_over_present_and_absent_constants() {
    let fixture = Fixture::at_scale(0.002);
    let mut tags = tag_pool(&fixture);
    tags.extend(["#absent".to_string(), "#tag999999".to_string()]);
    let mut vertices: Vec<u64> = fixture.graph.vertices().map(|(id, _)| id).take(4).collect();
    vertices.extend([fixture.start_node, 987_654_321]);
    for model in PgRdfModel::ALL {
        let store = fixture.store(model);
        let qs = store.queries();
        for tagged in [
            QuerySetFn::Tag(|q, t| q.eq1(t)),
            QuerySetFn::Tag(|q, t| q.eq2(t)),
            QuerySetFn::Tag(|q, t| q.eq3(t)),
            QuerySetFn::Tag(|q, t| q.eq4(t)),
            QuerySetFn::Tag(|q, t| q.eq5(t)),
            QuerySetFn::Tag(|q, t| q.eq6(t)),
            QuerySetFn::Tag(|q, t| q.eq7(t)),
            QuerySetFn::Tag(|q, t| q.eq8(t)),
            QuerySetFn::Tag(|q, t| q.q3_node_kvs(t)),
            QuerySetFn::Vertex(|q, v| q.eq11(v, 1)),
            QuerySetFn::Vertex(|q, v| q.eq11(v, 3)),
        ] {
            match tagged {
                QuerySetFn::Tag(f) => tags.iter().for_each(|t| agree(store, &f(&qs, t))),
                QuerySetFn::Vertex(f) => vertices.iter().for_each(|&v| agree(store, &f(&qs, v))),
            }
        }
        let fixed = [
            qs.q1_triangles(),
            qs.q2_edge_kvs(),
            qs.q4_all_edges(),
            qs.eq9(),
            qs.eq10(),
        ];
        for text in fixed.into_iter().chain([qs.eq12()]) {
            agree(store, &text);
            agree(store, &text);
        }
        assert!(store.plan_cache().hits() > 0, "{model}");
    }
}

enum QuerySetFn {
    Tag(fn(&pgrdf::QuerySet, &str) -> String),
    Vertex(fn(&pgrdf::QuerySet, u64) -> String),
}

/// Tags that label at least one edge, from the most to the least used,
/// thinned to six, with the fixture's benchmark tag first.
fn tag_pool(fixture: &Fixture) -> Vec<String> {
    let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
    for (_, vertex) in fixture.graph.vertices() {
        for tag in vertex.props.get("hasTag").into_iter().flatten() {
            *counts
                .entry(tag.as_str().expect("string tag").to_string())
                .or_default() += 1;
        }
    }
    let mut on_edges = std::collections::BTreeSet::new();
    for (_, edge) in fixture.graph.edges() {
        for tag in edge.props.get("hasTag").into_iter().flatten() {
            on_edges.insert(tag.as_str().expect("string tag").to_string());
        }
    }
    let mut tags: Vec<(usize, String)> = counts
        .into_iter()
        .filter(|(t, _)| on_edges.contains(t))
        .map(|(t, c)| (c, t))
        .collect();
    tags.sort_by(|a, b| b.cmp(a));
    let step = (tags.len() / 5).max(1);
    let mut pool = vec![fixture.tag.clone()];
    pool.extend(
        tags.into_iter()
            .step_by(step)
            .map(|(_, t)| t)
            .filter(|t| *t != fixture.tag),
    );
    pool.truncate(6);
    pool
}

/// Step order, access paths and strategies of a plan, as profiled.
fn plan_shape(steps: &[sparql::StepProfile]) -> Vec<(String, String, String)> {
    steps
        .iter()
        .map(|s| (s.pattern.clone(), s.index.clone(), s.strategy.clone()))
        .collect()
}

#[test]
fn analytic_plans_bound_from_a_cached_shape_match_a_fresh_compile() {
    let fixture = Fixture::at_scale(0.002);
    let tags = tag_pool(&fixture);
    let mut bound = 0;
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        let store = fixture.store(model);
        let qs = store.queries();
        for eq in [Eq::Eq2, Eq::Eq3, Eq::Eq4, Eq::Eq6, Eq::Eq7, Eq::Eq8] {
            let dataset = fixture.dataset_for(eq, model);
            for tag in &tags {
                let text = match eq {
                    Eq::Eq2 => qs.eq2(tag),
                    Eq::Eq3 => qs.eq3(tag),
                    Eq::Eq4 => qs.eq4(tag),
                    Eq::Eq6 => qs.eq6(tag),
                    Eq::Eq7 => qs.eq7(tag),
                    _ => qs.eq8(tag),
                };
                let options = || ExecOptions::threads(1);
                let (_, served) = store
                    .select_profiled_in(&dataset, &text, options())
                    .expect("served");
                let view = store.store().dataset(&dataset).expect("dataset");
                let plan = sparql::compile(&view, &sparql::parse_query(&text).expect("parse"))
                    .expect("compile");
                let (_, profile) =
                    sparql::execute_profiled(&view, &plan, options()).expect("fresh");
                let fresh = sparql::explain::step_profiles(&plan, &profile);
                assert_eq!(
                    plan_shape(&served.steps),
                    plan_shape(&fresh),
                    "{} {tag} on {model}: served plan\n{}\nfresh plan\n{}",
                    eq.label(model),
                    served.plan,
                    sparql::explain::render(&plan)
                );
                bound += usize::from(served.cache_hit && *tag != tags[0]);
            }
        }
    }
    assert!(
        bound > 0,
        "no tag was served from a plan bound to another tag"
    );
}

#[test]
fn absent_constants_appear_after_insert() {
    let p = PgVocab::default().prefixes();
    for store in people_stores() {
        let follows = |o: u64| format!("{p}SELECT ?s WHERE {{ ?s r:follows {} }}", v(o));
        let likes = |o: u64| format!("{p}SELECT ?s WHERE {{ ?s r:likes {} }}", v(o));
        for text in [follows(50), follows(51), follows(2), likes(2), likes(3)] {
            agree(&store, &text);
        }
        let invalidations = store.plan_cache().invalidations();
        store
            .update(&format!(
                "{p}INSERT DATA {{ {} r:follows {} . {} r:likes {} }}",
                v(1),
                v(50),
                v(1),
                v(2)
            ))
            .expect("insert");
        for text in [follows(50), follows(51), follows(2), likes(2), likes(3)] {
            agree(&store, &text);
        }
        assert!(
            store.plan_cache().invalidations() > invalidations,
            "{}: the plan that pruned r:likes as absent must be dropped",
            store.model()
        );
    }
}

#[test]
fn plans_compiled_on_a_newer_snapshot_are_not_replayed_on_an_older_one() {
    let p = PgVocab::default().prefixes();
    for store in people_stores() {
        let old = store.snapshot();
        store
            .update(&format!(
                "{p}INSERT DATA {{ {} r:follows {} }}",
                v(60),
                v(1)
            ))
            .expect("insert");
        let new = store.snapshot();
        let from = |s: u64| format!("{p}SELECT ?o WHERE {{ {} r:follows ?o }}", v(s));
        for (snapshot, s) in [
            (&new, 60),
            (&old, 60),
            (&old, 1),
            (&new, 1),
            (&old, 60),
            (&new, 2),
        ] {
            assert_eq!(
                served_at(&store, snapshot, &from(s)),
                fresh_at(&store, snapshot, &from(s)),
                "{}: v{s} at epoch {}",
                store.model(),
                snapshot.epoch()
            );
        }
        // r:likes is no lifted constant: a plan that resolved it is newer
        // than the old snapshot's dictionary and is not replayed there.
        store
            .update(&format!("{p}INSERT DATA {{ {} r:likes {} }}", v(1), v(2)))
            .expect("insert");
        let newest = store.snapshot();
        let likes =
            format!("{p}SELECT ?s ?o WHERE {{ ?s r:likes ?o OPTIONAL {{ ?o r:likes ?z }} }}");
        let compiles = || store.plan_cache().compiles();
        for (snapshot, compiled) in [(&newest, 1), (&newest, 0), (&old, 1), (&old, 0)] {
            let before = compiles();
            assert_eq!(
                served_at(&store, snapshot, &likes),
                fresh_at(&store, snapshot, &likes),
                "{} at epoch {}",
                store.model(),
                snapshot.epoch()
            );
            let at = snapshot.epoch();
            assert_eq!(
                compiles() - before,
                compiled,
                "{} at epoch {at}",
                store.model()
            );
        }
    }
}
