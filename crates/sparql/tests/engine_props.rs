//! Property-based tests of the SPARQL engine: physical-plan choices must
//! never change results, and the algebraic operators must obey their
//! laws, for arbitrary small datasets and patterns.

use quadstore::{DatasetView, Store};
use rdf_model::{GraphName, Quad, Term};
use sparql::{
    compile_with, execute_compiled, execute_profiled, execute_reference, parse_query,
    CompileOptions, ExecLimits, ExecOptions, ForcedJoin, QueryResults,
};
use twittergen::rng::Rng;

/// A small random dataset: quads over bounded vocabularies so joins and
/// graph matches actually happen.
fn rand_store(seed: u64) -> Store {
    let mut r = Rng::seed_from_u64(seed);
    let rows: Vec<(u8, u8, u8, u8)> = (0..1 + r.next_u64() % 39)
        .map(|_| {
            [
                r.gen_range(0..6),
                r.gen_range(0..4),
                r.gen_range(0..8),
                r.gen_range(0..4),
            ]
        })
        .map(|[s, p, o, g]| (s as u8, p as u8, o as u8, g as u8))
        .collect();
    {
        let store = Store::new();
        store.create_model("m").expect("fresh model");
        let quads: Vec<Quad> = rows
            .into_iter()
            .map(|(s, p, o, g)| {
                let object = if o % 3 == 0 {
                    Term::string(format!("lit{o}"))
                } else {
                    Term::iri(format!("http://n{o}"))
                };
                let graph = if g == 0 {
                    GraphName::Default
                } else {
                    GraphName::iri(format!("http://g{g}"))
                };
                Quad::new(
                    Term::iri(format!("http://n{s}")),
                    Term::iri(format!("http://p{p}")),
                    object,
                    graph,
                )
                .expect("valid quad")
            })
            .collect();
        store.bulk_load("m", &quads).expect("bulk load");
        store
    }
}

/// A denser random graph over six nodes for cyclic queries, split over
/// two models viewed as one union: each model bulk-loads edges (one
/// triple may sit in several graphs, and in both models), then takes
/// uncompacted inserts and removes, so a probe reads several members,
/// each as a base span plus a delta.
fn rand_cyclic_view(seed: u64) -> (Store, DatasetView) {
    let mut r = Rng::seed_from_u64(seed);
    let store = Store::new();
    let quad = |r: &mut Rng| {
        let [s, p, o, g] = [
            r.gen_range(0..6),
            r.gen_range(0..2),
            r.gen_range(0..6),
            r.gen_range(0..3),
        ];
        let graph = if g == 0 {
            GraphName::Default
        } else {
            GraphName::iri(format!("http://g{g}"))
        };
        Quad::new(
            Term::iri(format!("http://n{s}")),
            Term::iri(format!("http://p{p}")),
            Term::iri(format!("http://n{o}")),
            graph,
        )
        .expect("valid quad")
    };
    for model in ["m", "m2"] {
        store.create_model(model).expect("fresh model");
        let base: Vec<Quad> = (0..24 + r.next_u64() % 40).map(|_| quad(&mut r)).collect();
        store.bulk_load(model, &base).expect("bulk load");
        for _ in 0..r.next_u64() % 12 {
            let q = quad(&mut r);
            store.insert(model, &q).expect("insert");
        }
        for q in base.iter().take(r.next_u64() as usize % 8) {
            store.remove(model, q).expect("remove");
        }
    }
    let view = store.dataset_union(&["m", "m2"]).expect("union view");
    (store, view)
}

/// SP-shaped data over two models viewed as one virtual model: `kv`
/// holds edge IRIs, each anchored by `?e <sub> <p0|p1>` and used as the
/// predicate of `?s ?e ?o` rows (one, sometimes two), plus a key/value
/// triple; `topo` holds a few heavy predicates among the same nodes. A
/// variable predicate bound to an edge IRI matches `kv` only, so the
/// planner prices its probe by the variable's domain over both members.
fn rand_sp_view(seed: u64) -> (Store, DatasetView) {
    let mut r = Rng::seed_from_u64(seed);
    let store = Store::new();
    let iri = |name: String| Term::iri(format!("http://{name}"));
    let node = |r: &mut Rng| iri(format!("n{}", r.gen_range(0..6)));
    let triple = |s: Term, p: Term, o: Term| Quad::triple(s, p, o).expect("valid quad");
    let mut kv = Vec::new();
    for e in 0..2 + r.gen_range(0..10) {
        let edge = || iri(format!("e{e}"));
        let sup = iri(format!("p{}", r.gen_range(0..3) / 2));
        kv.push(triple(edge(), iri("sub".into()), sup));
        for _ in 0..1 + r.gen_range(0..4) / 3 {
            kv.push(triple(node(&mut r), edge(), node(&mut r)));
        }
        kv.push(triple(
            edge(),
            iri("k0".into()),
            Term::string(format!("v{}", r.gen_range(0..3))),
        ));
    }
    let topo: Vec<Quad> = (0..20 + r.gen_range(0..40))
        .map(|_| {
            triple(
                node(&mut r),
                iri(format!("p{}", r.gen_range(0..2))),
                node(&mut r),
            )
        })
        .collect();
    for (model, quads) in [("kv", kv), ("topo", topo)] {
        store.create_model(model).expect("fresh model");
        store.bulk_load(model, &quads).expect("bulk load");
    }
    // An uncompacted edge in the delta.
    if r.gen_bool(0.5) {
        let edge = iri("e99".into());
        let anchor = triple(edge.clone(), iri("sub".into()), iri("p0".into()));
        store.insert("kv", &anchor).expect("insert");
        store
            .insert("kv", &triple(node(&mut r), edge, node(&mut r)))
            .expect("insert");
    }
    store
        .create_virtual_model("v", &["kv", "topo"])
        .expect("virtual model");
    let view = store.dataset("v").expect("virtual view");
    (store, view)
}

/// Variable-predicate shapes over [`rand_sp_view`]: SP's edge triple
/// `?s ?e ?o` joined with its anchor, its key/values and topology hops.
fn sp_queries() -> Vec<&'static str> {
    vec![
        "SELECT ?e ?s ?o ?z WHERE { ?e <http://sub> <http://p0> . ?s ?e ?o . ?o <http://p1> ?z }",
        "SELECT ?z WHERE { ?s ?e ?o . ?e <http://sub> <http://p0> . ?e <http://k0> \"v1\" . \
         ?o <http://p0> ?z }",
        "SELECT ?e ?v WHERE { ?e <http://sub> ?sup . ?s ?e ?o . ?e <http://k0> ?v . ?o ?sup ?s }",
        "SELECT DISTINCT ?s ?o WHERE { ?e <http://sub> <http://p1> . ?s ?e ?o . \
         ?s <http://p0> ?x . ?x <http://p1> ?o }",
    ]
}

/// Cyclic queries, each with the most closing steps the optimizer fuses
/// into one span intersection on some case (0: it must never fuse).
fn cyclic_queries() -> Vec<(usize, &'static str)> {
    vec![
        (1, "SELECT ?x ?y ?z WHERE { ?x <http://p0> ?y . ?y <http://p0> ?z . ?z <http://p0> ?x }"),
        // A 4-clique: the last variable is closed by two steps.
        (
            2,
            "SELECT ?a ?b ?c ?d WHERE { ?a <http://p0> ?b . ?b <http://p0> ?c . ?a <http://p0> ?c . \
             ?c <http://p0> ?d . ?a <http://p0> ?d . ?b <http://p0> ?d }",
        ),
        (
            0,
            "SELECT ?g ?x ?y ?z WHERE { GRAPH ?g { ?x <http://p0> ?y . ?y <http://p0> ?z . \
             ?z <http://p0> ?x } }",
        ),
        // The closing edge's predicate is a variable.
        (0, "SELECT ?x ?y ?z ?q WHERE { ?x <http://p0> ?y . ?y <http://p0> ?z . ?z ?q ?x }"),
        (1, "SELECT (COUNT(*) AS ?c) WHERE { ?x <http://p1> ?y . ?y <http://p0> ?z . ?z <http://p1> ?x }"),
    ]
}

/// Queries whose joins exercise the planner.
fn queries() -> Vec<&'static str> {
    vec![
        "SELECT ?x ?y WHERE { ?x <http://p0> ?y }",
        "SELECT ?x ?z WHERE { ?x <http://p0> ?y . ?y <http://p1> ?z }",
        "SELECT ?x WHERE { ?x <http://p0> ?y . ?x <http://p1> ?z }",
        "SELECT ?x ?y WHERE { ?x ?p ?y . ?y ?q ?x }",
        "SELECT (COUNT(*) AS ?c) WHERE { ?x <http://p0> ?y . ?y <http://p0> ?z }",
        "SELECT ?g ?x WHERE { GRAPH ?g { ?x <http://p1> ?y } }",
        "SELECT ?x WHERE { ?x <http://p0> ?y FILTER (isIRI(?y)) }",
        "SELECT DISTINCT ?x WHERE { ?x ?p ?y }",
        "SELECT ?a ?z WHERE { ?x ?a ?y . ?z ?a ?z }",
        "SELECT ?g ?x ?z WHERE { GRAPH ?g { ?x <http://p0> ?y } GRAPH ?g { ?z <http://p1> ?z } }",
        // The row engine's hash join: a key left unbound at runtime probes
        // the index per row (the optimizer plans HASH JOIN on ?x,?y here)...
        "SELECT ?x ?y WHERE { VALUES (?x ?y) { (<http://n1> UNDEF) (<http://n2> <http://n3>) } \
         ?x <http://p0> ?y }",
        // A hash join on ?y keys on its subject and checks its object.
        "SELECT ?x ?y WHERE { ?x <http://p0> ?y . ?y <http://p1> ?y }",
        // ...and a key bound to a term the store lacks matches nothing.
        "SELECT ?x ?y WHERE { { BIND(<http://n99> AS ?x) } UNION { BIND(<http://n1> AS ?x) } \
         ?x <http://p0> ?y }",
    ]
}

fn run(store: &Store, text: &str, force: Option<ForcedJoin>) -> Vec<String> {
    run_on(&store.dataset("m").expect("dataset"), text, force)
}

fn run_on(view: &DatasetView, text: &str, force: Option<ForcedJoin>) -> Vec<String> {
    let parsed = parse_query(text).expect("parse");
    let options = CompileOptions {
        force_join: force,
        ..Default::default()
    };
    let compiled = compile_with(view, &parsed, options).expect("compile");
    match execute_compiled(view, &compiled).expect("execute") {
        QueryResults::Solutions(s) => {
            let mut rows: Vec<String> = s
                .rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|t| t.as_ref().map(|t| t.to_string()).unwrap_or_default())
                        .collect::<Vec<_>>()
                        .join("|")
                })
                .collect();
            rows.sort();
            rows
        }
        QueryResults::Boolean(b) => vec![b.to_string()],
        QueryResults::Graph(_) => panic!("no CONSTRUCT in these tests"),
    }
}

#[test]
fn join_strategy_never_changes_results() {
    for case in 0..48u64 {
        let store = rand_store(case);
        for q in queries() {
            let plain = run(&store, q, None);
            let nlj = run(&store, q, Some(ForcedJoin::Nlj));
            let hash = run(&store, q, Some(ForcedJoin::Hash));
            assert_eq!(&plain, &nlj, "NLJ differs on {}", q);
            assert_eq!(&plain, &hash, "hash join differs on {}", q);
        }
    }
    // Cycles: the optimizer may close them by span intersection, whose
    // output must also keep the reference evaluator's row order.
    let mut most = vec![0; cyclic_queries().len()];
    for case in 0..48u64 {
        let (_store, view) = rand_cyclic_view(case);
        for (qi, (_, q)) in cyclic_queries().into_iter().enumerate() {
            let compiled = compile_with(
                &view,
                &parse_query(q).expect("parse"),
                CompileOptions::default(),
            )
            .expect("compile");
            // The longest run of closing steps after one expand step.
            let (mut run, mut longest) = (0, 0);
            for line in sparql::explain::render(&compiled).lines() {
                run = if line.contains("INTERSECT") {
                    run + 1
                } else {
                    0
                };
                longest = longest.max(run);
            }
            most[qi] = most[qi].max(longest);
            let (reference, _) =
                execute_reference(&view, &compiled, ExecLimits::default()).expect("reference");
            assert_eq!(
                reference,
                execute_compiled(&view, &compiled).expect("execute"),
                "{q}"
            );
            let plain = run_on(&view, q, None);
            assert_eq!(
                plain,
                run_on(&view, q, Some(ForcedJoin::Nlj)),
                "NLJ differs on {q}"
            );
            assert_eq!(
                plain,
                run_on(&view, q, Some(ForcedJoin::Hash)),
                "hash join differs on {q}"
            );
        }
    }
    for ((expected, q), got) in cyclic_queries().into_iter().zip(most) {
        assert_eq!(got, expected, "most closing steps fused on {q}");
    }
    // SP shapes on two members: every shape must match on some case.
    let mut matched = vec![false; sp_queries().len()];
    for case in 0..48u64 {
        let (_store, view) = rand_sp_view(case);
        for (qi, q) in sp_queries().into_iter().enumerate() {
            let parsed = parse_query(q).expect("parse");
            let compiled =
                compile_with(&view, &parsed, CompileOptions::default()).expect("compile");
            let (reference, _) =
                execute_reference(&view, &compiled, ExecLimits::default()).expect("reference");
            assert_eq!(
                reference,
                execute_compiled(&view, &compiled).expect("execute"),
                "{q}"
            );
            let plain = run_on(&view, q, None);
            matched[qi] |= !plain.is_empty();
            assert_eq!(
                plain,
                run_on(&view, q, Some(ForcedJoin::Nlj)),
                "NLJ differs on {q}"
            );
            assert_eq!(
                plain,
                run_on(&view, q, Some(ForcedJoin::Hash)),
                "hash join differs on {q}"
            );
        }
    }
    for (q, hit) in sp_queries().into_iter().zip(matched) {
        assert!(hit, "no case matched {q}");
    }
}

#[test]
fn distinct_is_a_subset_with_unique_rows() {
    for case in 0..48u64 {
        let store = rand_store(case);
        let all = run(&store, "SELECT ?x ?y WHERE { ?x ?p ?y }", None);
        let distinct = run(&store, "SELECT DISTINCT ?x ?y WHERE { ?x ?p ?y }", None);
        let unique: std::collections::BTreeSet<_> = all.iter().cloned().collect();
        assert_eq!(distinct.len(), unique.len());
        for row in &distinct {
            assert!(unique.contains(row));
        }
    }
}

#[test]
fn limit_truncates() {
    for case in 0..48u64 {
        let store = rand_store(case);
        let all = run(&store, "SELECT ?x WHERE { ?x ?p ?y }", None);
        let limited = run(&store, "SELECT ?x WHERE { ?x ?p ?y } LIMIT 3", None);
        assert_eq!(limited.len(), all.len().min(3));
    }
}

#[test]
fn union_default_graph_supersets_strict() {
    for case in 0..48u64 {
        let store = rand_store(case);
        let q = "SELECT ?x ?y WHERE { ?x <http://p1> ?y }";
        let view = store.dataset("m").expect("dataset");
        let parsed = parse_query(q).expect("parse");
        let strict = compile_with(
            &view,
            &parsed,
            CompileOptions {
                union_default_graph: false,
                ..Default::default()
            },
        )
        .expect("compile");
        let union = compile_with(&view, &parsed, CompileOptions::default()).expect("compile");
        let count = |c: &sparql::CompiledQuery| match execute_compiled(&view, c).expect("execute") {
            QueryResults::Solutions(s) => s.len(),
            _ => 0,
        };
        assert!(count(&union) >= count(&strict));
    }
}

#[test]
fn ask_agrees_with_select() {
    for case in 0..48u64 {
        let store = rand_store(case);
        let select = run(&store, "SELECT ?x WHERE { ?x <http://p2> ?y }", None);
        let ask = run(&store, "ASK { ?x <http://p2> ?y }", None);
        assert_eq!(ask[0] == "true", !select.is_empty());
    }
}

#[test]
fn count_star_equals_row_count() {
    for case in 0..48u64 {
        let store = rand_store(case);
        let rows = run(
            &store,
            "SELECT ?x ?y WHERE { ?x <http://p0> ?y . ?x <http://p1> ?z }",
            None,
        );
        let view = store.dataset("m").expect("dataset");
        let parsed =
            parse_query("SELECT (COUNT(*) AS ?c) WHERE { ?x <http://p0> ?y . ?x <http://p1> ?z }")
                .expect("parse");
        let compiled = compile_with(&view, &parsed, CompileOptions::default()).expect("compile");
        let QueryResults::Solutions(s) = execute_compiled(&view, &compiled).expect("run") else {
            panic!("expected solutions");
        };
        assert_eq!(s.scalar_i64().expect("scalar") as usize, rows.len());
    }
}

#[test]
fn path_plus_is_transitive_closure_of_single_step() {
    for case in 0..48u64 {
        let store = rand_store(case);
        // Every pair reachable via p0 directly must be in p0+.
        let direct = run(
            &store,
            "SELECT DISTINCT ?x ?y WHERE { ?x <http://p0> ?y }",
            None,
        );
        let closure = run(
            &store,
            "SELECT DISTINCT ?x ?y WHERE { ?x <http://p0>+ ?y }",
            None,
        );
        let closure_set: std::collections::BTreeSet<_> = closure.iter().cloned().collect();
        for pair in &direct {
            assert!(closure_set.contains(pair), "missing direct pair {}", pair);
        }
        // And p0+ ⊆ p0* (minus the zero-length pairs); just check sizes.
        assert!(closure.len() >= direct.len());
    }
}

/// Plain counts — COUNT(*), COUNT(?v), and COUNT under GROUP BY, keyed by
/// a variable the drive binds or one the last step binds — over a chain
/// ending in an index probe or a hash join, a triangle closed by span
/// intersection (or, forced, by an existence probe or a hash join), and
/// a fork whose `?w` step binds only a dead variable, so a weighted batch
/// can feed a step that still binds a live one; a UNION of a chain, which
/// pipelines, and an OPTIONAL, which streams, so one count takes weighted
/// pipeline rows and streamed rows; and EQ9's shape, a count grouped by a
/// computed count of a grouped sub-select, which streams. On
/// two-member union views where a triple repeats across graphs and
/// members and each member carries uncompacted inserts and removes, every
/// thread count and morsel size returns the reference's counts and
/// EXPLAIN ANALYZE reports the reference's per-step rows and loops.
#[test]
fn plain_counts_match_the_reference_with_its_tallies() {
    let chain = "?x <http://p0> ?y . ?y <http://p0> ?z";
    let triangle = "?x <http://p0> ?y . ?y <http://p0> ?z . ?z <http://p0> ?x";
    let fork = "?x <http://p0> ?y . ?x <http://p1> ?w . ?y <http://p0> ?z";
    let mixed = "{ ?x <http://p0> ?y . ?y <http://p0> ?z } \
                 UNION { ?x <http://p1> ?y OPTIONAL { ?y <http://p0> ?z } }";
    let degrees = "{ SELECT ?x (COUNT(?w) AS ?z) \
                   WHERE { ?x <http://p0> ?y . ?y <http://p0> ?w } GROUP BY ?x }";
    let bodies = [chain, triangle, fork, mixed, degrees];
    let heads = [
        ("(COUNT(*) AS ?n)", ""),
        ("(COUNT(?z) AS ?n)", ""),
        ("?x (COUNT(?y) AS ?n)", "GROUP BY ?x"),
        ("?z (COUNT(*) AS ?n)", "GROUP BY ?z"),
    ];
    let forces = [None, Some(ForcedJoin::Nlj), Some(ForcedJoin::Hash)];
    let sorted = |results: QueryResults| match results {
        QueryResults::Solutions(s) => {
            let mut rows: Vec<String> = s.rows.iter().map(|row| format!("{row:?}")).collect();
            rows.sort();
            rows
        }
        other => panic!("expected solutions, got {other:?}"),
    };
    // Operators seen per body: probe tails, hash tails, intersections.
    let mut seen = [[false; 3]; 5];
    for case in 0..48u64 {
        let (_store, view) = rand_cyclic_view(case);
        for (bi, body) in bodies.into_iter().enumerate() {
            for (head, group) in heads {
                for force in forces {
                    let text = format!("SELECT {head} WHERE {{ {body} }} {group}");
                    let options = CompileOptions {
                        force_join: force,
                        ..Default::default()
                    };
                    let parsed = parse_query(&text).expect("parse");
                    let plan = compile_with(&view, &parsed, options).expect("compile");
                    let explain = sparql::explain::render(&plan);
                    seen[bi][0] |= force == Some(ForcedJoin::Nlj);
                    seen[bi][1] |= explain.contains("HASH JOIN");
                    seen[bi][2] |= explain.contains("INTERSECT");
                    let (expected, prof_r) =
                        execute_reference(&view, &plan, ExecLimits::default()).expect("reference");
                    let steps_r = sparql::explain::step_profiles(&plan, &prof_r);
                    let expected = sorted(expected);
                    for threads in [1usize, 2, 8] {
                        for morsel in [1usize, 7, 1024] {
                            let exec = ExecOptions::threads(threads).with_morsel_size(morsel);
                            let (got, prof) =
                                execute_profiled(&view, &plan, exec).expect("profiled");
                            let config = format!("case {case} threads={threads} morsel={morsel}");
                            assert_eq!(expected, sorted(got), "{text} {force:?} {config}");
                            let steps = sparql::explain::step_profiles(&plan, &prof);
                            let tally =
                                |s: &sparql::StepProfile| (s.ordinal, s.actual_rows, s.loops);
                            assert_eq!(
                                steps_r.iter().map(tally).collect::<Vec<_>>(),
                                steps.iter().map(tally).collect::<Vec<_>>(),
                                "{text} {force:?} {config}: step tallies diverged"
                            );
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        seen,
        [
            [true, true, false],
            [true, true, true],
            [true, true, false],
            [true, true, false],
            [true, true, false],
        ],
        "plan tails covered"
    );
}

/// A random graph over eight nodes in one model, bulk-loaded and never
/// written after: every probe reads one member's base span, so an
/// expand step's values come out as one ascending run unless a triple
/// sits in several graphs, which also repeats closing keys.
fn rand_one_member_view(seed: u64) -> (Store, DatasetView) {
    let mut r = Rng::seed_from_u64(seed);
    let store = Store::new();
    store.create_model("m").expect("fresh model");
    let quads: Vec<Quad> = (0..20 + r.next_u64() % 60)
        .map(|_| {
            let [s, o, g] = [r.gen_range(0..8), r.gen_range(0..8), r.gen_range(0..4)];
            let graph = if g == 0 {
                GraphName::Default
            } else {
                GraphName::iri(format!("http://g{g}"))
            };
            Quad::new(
                Term::iri(format!("http://n{s}")),
                Term::iri("http://p0"),
                Term::iri(format!("http://n{o}")),
                graph,
            )
            .expect("valid quad")
        })
        .collect();
    store.bulk_load("m", &quads).expect("bulk load");
    let view = store.dataset("m").expect("view");
    (store, view)
}

/// A directed 3-cycle, counted and enumerated, closed by span
/// intersection. On a one-member view an expand step's values are one
/// ascending run, which the intersection marks in a bitmap and tests each
/// closing key against; on two-member views where a triple repeats
/// across graphs and members and each member carries uncompacted inserts
/// and removes, the runs break and it gallops. Every thread count and
/// morsel size returns the reference's rows, in its order, and EXPLAIN
/// ANALYZE reports the reference's per-step rows and loops.
#[test]
fn intersections_match_the_reference_with_their_tallies() {
    let triangle = "?x <http://p0> ?y . ?y <http://p0> ?z . ?z <http://p0> ?x";
    let texts = [
        format!("SELECT (COUNT(*) AS ?n) WHERE {{ {triangle} }}"),
        format!("SELECT ?x ?y ?z WHERE {{ {triangle} }}"),
    ];
    let mut intersected = [0; 2];
    for case in 0..48u64 {
        let views = [rand_one_member_view(case), rand_cyclic_view(case)];
        for (vi, (_store, view)) in views.iter().enumerate() {
            for text in &texts {
                let parsed = parse_query(text).expect("parse");
                let plan = compile_with(view, &parsed, CompileOptions::default()).expect("compile");
                if !sparql::explain::render(&plan).contains("INTERSECT") {
                    continue;
                }
                let (expected, prof_r) =
                    execute_reference(view, &plan, ExecLimits::default()).expect("reference");
                let steps_r = sparql::explain::step_profiles(&plan, &prof_r);
                intersected[vi] += usize::from(steps_r.iter().any(|s| s.actual_rows > 0));
                let tally = |s: &sparql::StepProfile| (s.ordinal, s.actual_rows, s.loops);
                for threads in [1usize, 2, 8] {
                    for morsel in [1usize, 7, 1024] {
                        let exec = ExecOptions::threads(threads).with_morsel_size(morsel);
                        let (got, prof) = execute_profiled(view, &plan, exec).expect("profiled");
                        let config = format!(
                            "{text}: view {vi} case {case} threads={threads} morsel={morsel}"
                        );
                        assert_eq!(expected, got, "{config}");
                        let steps = sparql::explain::step_profiles(&plan, &prof);
                        assert_eq!(
                            steps_r.iter().map(tally).collect::<Vec<_>>(),
                            steps.iter().map(tally).collect::<Vec<_>>(),
                            "{config}: step tallies diverged"
                        );
                    }
                }
            }
        }
    }
    assert!(
        intersected.iter().all(|&n| n >= 24),
        "intersections run per view: {intersected:?}"
    );
}

/// Plain-count GROUP BY — and EQ9's histogram, a count grouped over a
/// grouped sub-select — equals the reference at every thread count and
/// morsel size, over two-member views whose members carry uncompacted
/// inserts and removes and repeat triples across graphs: runs of a
/// group key split across morsels and batches, two-slot keys, a key an
/// OPTIONAL leaves unbound, `COUNT(?v)` over an OPTIONAL, HAVING on a
/// count, and a grouped sub-select under a seed row that binds its join
/// slot. Groups arrive in the same order at every thread count, and so
/// do the per-step tallies as the reference's.
#[test]
fn grouped_counts_match_the_reference() {
    let (p0, p1) = ("<http://p0>", "<http://p1>");
    let degrees = format!("SELECT ?y (COUNT(*) AS ?d) WHERE {{ ?x ({p0}|{p1}) ?y }} GROUP BY ?y");
    let texts = [
        format!("SELECT ?x (COUNT(*) AS ?n) WHERE {{ ?x {p0} ?y . ?y {p0} ?z }} GROUP BY ?x"),
        format!("SELECT ?y ?x (COUNT(*) AS ?n) WHERE {{ ?x {p0} ?y }} GROUP BY ?y ?x"),
        format!(
            "SELECT ?z (COUNT(*) AS ?n) WHERE {{ ?x {p1} ?y OPTIONAL {{ ?y {p0} ?z }} }} \
             GROUP BY ?z"
        ),
        format!(
            "SELECT ?x (COUNT(?z) AS ?n) WHERE {{ ?x {p1} ?y OPTIONAL {{ ?y {p0} ?z }} }} \
             GROUP BY ?x"
        ),
        format!(
            "SELECT ?x (COUNT(*) AS ?n) WHERE {{ ?x {p0} ?y . ?y {p0} ?z }} GROUP BY ?x \
             HAVING (?n > 3)"
        ),
        format!("SELECT ?d (COUNT(*) AS ?c) WHERE {{ {degrees} }} GROUP BY ?d ORDER BY DESC(?d)"),
        format!("SELECT ?d (COUNT(*) AS ?c) WHERE {{ {{ {degrees} }} }} GROUP BY ?d"),
        format!("SELECT ?d (COUNT(*) AS ?c) WHERE {{ ?w {p1} ?y . {{ {degrees} }} }} GROUP BY ?d"),
        format!("SELECT ?y ?d WHERE {{ ?w {p1} ?y . {{ {degrees} }} }}"),
    ];
    let sorted = |results: &QueryResults| match results {
        QueryResults::Solutions(s) => {
            let mut rows: Vec<String> = s.rows.iter().map(|row| format!("{row:?}")).collect();
            rows.sort();
            rows
        }
        other => panic!("expected solutions, got {other:?}"),
    };
    let tally = |s: &sparql::StepProfile| (s.ordinal, s.actual_rows, s.loops);
    let mut grouped_rows = [0usize; 9];
    for case in 0..32u64 {
        let (_store, view) = rand_cyclic_view(case);
        for (ti, text) in texts.iter().enumerate() {
            let parsed = parse_query(text).expect("parse");
            let plan = compile_with(&view, &parsed, CompileOptions::default()).expect("compile");
            let (expected, prof_r) =
                execute_reference(&view, &plan, ExecLimits::default()).expect("reference");
            let steps_r = sparql::explain::step_profiles(&plan, &prof_r);
            grouped_rows[ti] += sorted(&expected).len();
            let ordered = text.contains("ORDER BY");
            for morsel in [1usize, 7, 1024] {
                let mut first: Option<QueryResults> = None;
                for threads in [1usize, 2, 8] {
                    let exec = ExecOptions::threads(threads).with_morsel_size(morsel);
                    let (got, prof) = execute_profiled(&view, &plan, exec).expect("profiled");
                    let config = format!("{text}: case {case} threads={threads} morsel={morsel}");
                    if ordered {
                        assert_eq!(expected, got, "{config}");
                    } else {
                        assert_eq!(sorted(&expected), sorted(&got), "{config}");
                    }
                    let steps = sparql::explain::step_profiles(&plan, &prof);
                    assert_eq!(
                        steps_r.iter().map(tally).collect::<Vec<_>>(),
                        steps.iter().map(tally).collect::<Vec<_>>(),
                        "{config}: step tallies diverged"
                    );
                    match &first {
                        None => first = Some(got),
                        Some(one) => assert_eq!(one, &got, "{config}: group order moved"),
                    }
                }
            }
        }
    }
    assert!(
        grouped_rows.iter().all(|&n| n >= 32),
        "every shape yields rows: {grouped_rows:?}"
    );
}
