//! Snapshot-isolation stress test (the PR 3 tentpole's acceptance bar):
//! writer threads continuously insert and remove multi-quad edge writes in
//! all three PG-as-RDF encodings while reader threads run the paper's five
//! query families against pinned snapshots.
//!
//! The invariants checked on every reader iteration:
//!
//! 1. **No torn reads.** Each writer toggles one sentinel edge whose
//!    encoding is a multi-quad shape (edge triple + KVs; reification
//!    triples for RF, `GRAPH` quads for NG, sub-property anchors for SP).
//!    Both sides of the toggle are applied as a single `WriteBatch`, so a
//!    pinned snapshot must contain either *all* of a sentinel's quads or
//!    *none* of them.
//! 2. **Every result set corresponds to a published epoch.** Published
//!    generations only ever hold each sentinel fully-in or fully-out, so
//!    (1) establishes the data part; in addition the same pinned snapshot
//!    must return byte-identical results when a query is repeated (no
//!    dependence on concurrent DML), and epochs must be monotone.
//! 3. **Cached plans are valid for the snapshot they serve.** Readers also
//!    look up each writer's sentinel vertex by name: one query shape whose
//!    lifted literal writers intern and then keep removing and re-adding
//!    the data of. Each answer must be the sentinel's rows exactly when the
//!    same snapshot holds the sentinel, and no rows otherwise.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use pgrdf::{PgRdfModel, PgRdfStore};
use propertygraph::{PropValue, PropertyGraph};
use quadstore::{DatasetView, EncodedQuad, QuadPattern, Store};
use rdf_model::{GraphName, Quad, Term, TermId};

const WRITERS: usize = 4;
const READERS: usize = 8;
const RACE_FOR: Duration = Duration::from_millis(2200);

/// The exact quads the encoder produces for one sentinel edge in the given
/// model — built by converting a two-vertex graph and taking its quads, so
/// the test never re-implements the encoding rules. Writer `w` gets its
/// own vertex/edge IDs so sentinels are independent.
fn sentinel_quads(model: PgRdfModel, w: usize) -> Vec<Quad> {
    PgRdfStore::load(&sentinel_graph(w), model)
        .expect("sentinel graph loads")
        .quads()
}

/// Rows of the by-name lookup of writer `w`'s sentinel vertex when the
/// sentinel is present.
fn sentinel_rows(model: PgRdfModel, w: usize) -> usize {
    let store = PgRdfStore::load(&sentinel_graph(w), model).expect("sentinel graph loads");
    let rows = store
        .select(&store.queries().q3_node_kvs(&format!("writer{w}")))
        .expect("query");
    assert!(!rows.is_empty(), "the sentinel vertex has a name");
    rows.len()
}

fn sentinel_graph(w: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let (src, dst) = (9000 + 2 * w as u64, 9001 + 2 * w as u64);
    g.add_vertex_with_props(src, [("name", PropValue::from(format!("writer{w}")))]);
    g.add_vertex(dst);
    let e = g
        .add_edge_with_id(9100 + w as u64, src, "follows", dst)
        .expect("fresh id");
    g.set_edge_prop(e, "since", 2020 + w as i64)
        .expect("edge exists");
    g.set_edge_prop(e, "via", "stress").expect("edge exists");
    g
}

/// Encodes a quad against a pinned snapshot's dictionary; `None` when any
/// term is absent from that generation (the quad cannot be present).
fn encode_at(view: &DatasetView, quad: &Quad) -> Option<EncodedQuad> {
    let g = match &quad.graph {
        GraphName::Default => TermId::DEFAULT_GRAPH,
        GraphName::Named(t) => view.term_id(t)?,
    };
    Some([
        view.term_id(&quad.subject)?.0,
        view.term_id(&quad.predicate)?.0,
        view.term_id(&quad.object)?.0,
        g.0,
    ])
}

/// How many of the sentinel's quads a pinned snapshot contains.
fn visible_count(view: &DatasetView, quads: &[Quad]) -> usize {
    quads
        .iter()
        .filter(|q| encode_at(view, q).is_some_and(|e| view.contains(&e)))
        .count()
}

#[test]
fn writers_never_tear_reads_across_all_encodings() {
    // One monolithic store per encoding; every thread works all three, so
    // the race covers all three multi-quad edge shapes concurrently.
    let graph = PropertyGraph::sample_figure1();
    let stores: Vec<PgRdfStore> = PgRdfModel::ALL
        .iter()
        .map(|&m| PgRdfStore::load(&graph, m).expect("load"))
        .collect();
    let sentinels: Vec<Vec<Vec<Quad>>> = PgRdfModel::ALL
        .iter()
        .map(|&m| (0..WRITERS).map(|w| sentinel_quads(m, w)).collect())
        .collect();
    let sentinel_rows: Vec<Vec<usize>> = PgRdfModel::ALL
        .iter()
        .map(|&m| (0..WRITERS).map(|w| sentinel_rows(m, w)).collect())
        .collect();

    let stop = AtomicBool::new(false);
    let saw_present = AtomicUsize::new(0);
    let saw_absent = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let stores = &stores;
            let sentinels = &sentinels;
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for (store, model_sentinels) in stores.iter().zip(sentinels) {
                        let name = store.dataset_name();
                        let quads = &model_sentinels[w];
                        // Insert the whole edge shape as ONE atomic batch…
                        let mut batch = store.store().begin();
                        for q in quads {
                            batch.insert(&name, q).expect("insert sentinel");
                        }
                        batch.commit();
                        // …and remove it as one atomic batch.
                        let mut batch = store.store().begin();
                        for q in quads {
                            batch.remove(&name, q).expect("remove sentinel");
                        }
                        batch.commit();
                    }
                }
            });
        }

        for _ in 0..READERS {
            let stores = &stores;
            let sentinels = &sentinels;
            let sentinel_rows = &sentinel_rows;
            let stop = &stop;
            let saw_present = &saw_present;
            let saw_absent = &saw_absent;
            scope.spawn(move || {
                let mut last_epochs = vec![0u64; stores.len()];
                while !stop.load(Ordering::Relaxed) {
                    for (i, store) in stores.iter().enumerate() {
                        let snap = store.snapshot();
                        assert!(
                            snap.epoch() >= last_epochs[i],
                            "published epochs must be monotone"
                        );
                        last_epochs[i] = snap.epoch();
                        assert!(
                            store.store().epoch() >= snap.epoch(),
                            "a pinned snapshot can never be ahead of the store"
                        );

                        // Torn-read probe: each sentinel is all-in or
                        // all-out of this generation.
                        let view = snap
                            .dataset(&store.dataset_name())
                            .expect("dataset at snapshot");
                        let qs = store.queries();
                        for (w, quads) in sentinels[i].iter().enumerate() {
                            let n = visible_count(&view, quads);
                            assert!(
                                n == 0 || n == quads.len(),
                                "torn read on {}: saw {n} of {} quads of a sentinel edge",
                                store.model(),
                                quads.len()
                            );
                            if n == 0 {
                                saw_absent.fetch_add(1, Ordering::Relaxed);
                            } else {
                                saw_present.fetch_add(1, Ordering::Relaxed);
                            }
                            // The same snapshot through a cached plan.
                            let by_name = qs.q3_node_kvs(&format!("writer{w}"));
                            let rows = store
                                .select_at(&snap, &by_name)
                                .expect("lookup at snapshot")
                                .len();
                            let want = if n == 0 { 0 } else { sentinel_rows[i][w] };
                            assert_eq!(
                                rows,
                                want,
                                "{}: writer{w}'s sentinel is {} in the snapshot",
                                store.model(),
                                if n == 0 { "absent" } else { "present" }
                            );
                        }

                        // The paper's five query families, all pinned to
                        // the same snapshot: node-KV selection (Q3),
                        // edge-KV access (Q2, model-specific), topology
                        // scan (Q4), aggregation (EQ9), traversal (Q1).
                        for text in [
                            qs.q3_node_kvs("Amy"),
                            qs.q2_edge_kvs(),
                            qs.q4_all_edges(),
                            qs.eq9(),
                            qs.q1_triangles(),
                        ] {
                            let first = store.select_at(&snap, &text).expect("query at snapshot");
                            let again = store.select_at(&snap, &text).expect("repeat at snapshot");
                            assert_eq!(
                                first,
                                again,
                                "a pinned snapshot returned different results for the \
                                 same query while DML ran ({})",
                                store.model()
                            );
                        }
                    }
                }
            });
        }

        std::thread::sleep(RACE_FOR);
        stop.store(true, Ordering::Relaxed);
    });

    // The race must have actually exercised both sides of the toggle;
    // writers cycle thousands of times over the window, so observing only
    // one state would mean the writers (or readers) never ran.
    assert!(
        saw_present.load(Ordering::Relaxed) > 0,
        "never observed a sentinel present"
    );
    assert!(
        saw_absent.load(Ordering::Relaxed) > 0,
        "never observed a sentinel absent"
    );

    // After the dust settles every sentinel was removed by its writer's
    // final full cycle or is fully present — spot-check all-or-none holds
    // on the final published generation too.
    for (i, store) in stores.iter().enumerate() {
        let snap = store.snapshot();
        let view = snap.dataset(&store.dataset_name()).expect("dataset");
        for quads in &sentinels[i] {
            let n = visible_count(&view, quads);
            assert!(n == 0 || n == quads.len(), "final generation is torn");
        }
    }
}

/// Quads per window batch and live batches in the window.
const BATCH: usize = 64;
const WINDOW: usize = 16;

/// Quad `k` of window batch `b`: `<e{b}_{k}> <in> <b{b}>`.
fn window_quad(b: usize, k: usize) -> Quad {
    Quad::triple(
        Term::iri(format!("http://w/e{b}_{k}")),
        Term::iri("http://w/in"),
        Term::iri(format!("http://w/b{b}")),
    )
    .expect("valid quad")
}

/// The round marker `<round> <at> <r{i}>`, rewritten by every round.
fn marker(i: usize) -> Quad {
    Quad::triple(
        Term::iri("http://w/round"),
        Term::iri("http://w/at"),
        Term::iri(format!("http://w/r{i}")),
    )
    .expect("valid quad")
}

/// The number at the end of an IRI `http://w/<letter><n>`.
fn iri_number(t: &Term) -> usize {
    let Term::Iri(iri) = t else {
        panic!("an IRI, got {t:?}")
    };
    iri.as_str()[10..].parse().expect("a number")
}

/// A writer slides a window of fresh quads over a small model: round `i`
/// inserts batch `i`, deletes batch `i - WINDOW` and moves the round
/// marker, in one batch. Its writes fold the top run into the sealed run
/// several times and merge the sealed run into the base, while readers
/// pin snapshots and check that each holds exactly the window of the
/// round its marker names, whole batches only, the same on a repeat read,
/// under monotone epochs.
#[test]
fn window_churn_folds_and_merges_under_pinned_readers() {
    let store = Store::new();
    store.create_model("m").expect("model");
    let base: Vec<Quad> = (0..2000)
        .map(|i| {
            Quad::triple(
                Term::iri(format!("http://b/s{i}")),
                Term::iri("http://b/p"),
                Term::iri(format!("http://b/o{}", i % 7)),
            )
            .expect("valid quad")
        })
        .collect();
    store.bulk_load("m", &base).expect("bulk load");
    let stop = AtomicBool::new(false);
    let (folds, merges, checked) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    std::thread::scope(|scope| {
        let (store, stop) = (&store, &stop);
        let (folds, merges) = (&folds, &merges);
        scope.spawn(move || {
            let mut i = 0;
            while !stop.load(Ordering::Relaxed) || merges.load(Ordering::Relaxed) == 0 {
                let before = store.model("m").expect("m");
                let mut batch = store.begin();
                for k in 0..BATCH {
                    batch.insert("m", &window_quad(i, k)).expect("insert");
                }
                if let Some(old) = i.checked_sub(WINDOW) {
                    for k in 0..BATCH {
                        assert!(batch.remove("m", &window_quad(old, k)).expect("remove"));
                    }
                }
                if i > 0 {
                    batch.remove("m", &marker(i - 1)).expect("remove marker");
                }
                batch.insert("m", &marker(i)).expect("insert marker");
                batch.commit();
                let after = store.model("m").expect("m");
                if after.run_lens()[1] < before.run_lens()[1] {
                    folds.fetch_add(1, Ordering::Relaxed);
                }
                if after.indexes()[0].len() != before.indexes()[0].len() {
                    merges.fetch_add(1, Ordering::Relaxed);
                }
                i += 1;
            }
        });
        for _ in 0..3 {
            let checked = &checked;
            scope.spawn(move || {
                let mut last_epoch = 0;
                while !stop.load(Ordering::Relaxed) {
                    let snap = store.snapshot();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "published epochs must be monotone"
                    );
                    last_epoch = snap.epoch();
                    let view = snap.dataset("m").expect("dataset at snapshot");
                    let at = |p: &str| QuadPattern {
                        p: view.term_id(&Term::iri(p)),
                        ..QuadPattern::any()
                    };
                    let Some(round) = view.term_id(&Term::iri("http://w/at")).map(|_| {
                        let marks: Vec<EncodedQuad> = view.scan(at("http://w/at")).collect();
                        assert_eq!(marks.len(), 1, "one round marker");
                        iri_number(&view.decode(&marks[0]).object)
                    }) else {
                        continue;
                    };
                    let window: Vec<EncodedQuad> = view.scan(at("http://w/in")).collect();
                    let again: Vec<EncodedQuad> = view.scan(at("http://w/in")).collect();
                    assert_eq!(window, again, "a repeated read at one snapshot differs");
                    let mut per_batch = std::collections::BTreeMap::new();
                    for q in &window {
                        *per_batch
                            .entry(iri_number(&view.decode(q).object))
                            .or_insert(0) += 1;
                    }
                    let live: Vec<usize> = (round.saturating_sub(WINDOW - 1)..=round).collect();
                    assert_eq!(
                        per_batch.keys().copied().collect::<Vec<_>>(),
                        live,
                        "round {round}: the window's batches"
                    );
                    assert!(
                        per_batch.values().all(|&n| n == BATCH),
                        "round {round}: a torn batch {per_batch:?}"
                    );
                    checked.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(1500));
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        folds.load(Ordering::Relaxed) >= 3,
        "top run folds: {folds:?}"
    );
    assert!(
        merges.load(Ordering::Relaxed) >= 1,
        "merges into the base: {merges:?}"
    );
    assert!(
        checked.load(Ordering::Relaxed) > 0,
        "no reader checked a window"
    );
}
