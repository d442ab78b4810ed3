//! Property-style tests of the quad store: every index permutation must
//! answer every pattern identically to a naive filter, the DML delta
//! overlay must behave like a set, and merging it into the indexes must
//! give what a fresh build gives. Cases are generated deterministically
//! from seeded pseudo-random streams (std-only, no crates.io access).

use std::collections::BTreeSet;

use quadstore::{GraphConstraint, IndexKind, QuadPattern, SemanticModel, SortedIndex, Store};
use rdf_model::{GraphName, Quad, Term, TermId};
use twittergen::rng::Rng;

fn rand_quad(r: &mut Rng) -> [u64; 4] {
    [
        r.gen_range(1..8),
        r.gen_range(1..5),
        r.gen_range(1..10),
        r.gen_range(0..4),
    ]
    .map(|n| n as u64)
}

fn rand_quads(r: &mut Rng) -> Vec<[u64; 4]> {
    let n = r.gen_range(0..60);
    (0..n).map(|_| rand_quad(r)).collect()
}

/// A random element of `quads`, or a fresh random quad when it is empty.
fn pick<'a>(r: &mut Rng, mut quads: impl ExactSizeIterator<Item = &'a [u64; 4]>) -> [u64; 4] {
    match quads.len() {
        0 => rand_quad(r),
        n => *quads.nth(r.gen_range(0..n)).expect("in range"),
    }
}

fn rand_pattern(r: &mut Rng) -> QuadPattern {
    let opt = |r: &mut Rng, lo: usize, hi: usize| {
        if r.next_u64() & 1 == 0 {
            None
        } else {
            Some(TermId(r.gen_range(lo..hi) as u64))
        }
    };
    QuadPattern {
        s: opt(r, 1, 8),
        p: opt(r, 1, 5),
        o: opt(r, 1, 10),
        g: match r.gen_range(0..4) {
            0 => GraphConstraint::DefaultOnly,
            1 => GraphConstraint::Named(TermId(1)),
            2 => GraphConstraint::AnyNamed,
            _ => GraphConstraint::Any,
        },
    }
}

fn decode(q: &[u64; 4]) -> Quad {
    Quad::new(
        Term::iri(format!("http://s{}", q[0])),
        Term::iri(format!("http://p{}", q[1])),
        Term::iri(format!("http://o{}", q[2])),
        if q[3] == 0 {
            GraphName::Default
        } else {
            GraphName::iri(format!("http://g{}", q[3]))
        },
    )
    .expect("valid quad")
}

#[test]
fn every_index_answers_like_a_naive_filter() {
    for case in 0..128u64 {
        let mut r = Rng::seed_from_u64(case);
        let quads = rand_quads(&mut r);
        let pattern = rand_pattern(&mut r);
        let mut dedup = quads.clone();
        dedup.sort_unstable();
        dedup.dedup();
        let expected: Vec<[u64; 4]> = dedup
            .iter()
            .copied()
            .filter(|q| pattern.matches(q))
            .collect();
        for kind in IndexKind::STANDARD_SIX {
            // A one-index model reads every pattern through that order.
            let mut model = SemanticModel::new("m", &[kind]).expect("model");
            model.bulk_load(quads.iter().copied());
            let mut got: Vec<[u64; 4]> = model.scan(pattern).collect();
            got.sort_unstable();
            let mut want = expected.clone();
            want.sort_unstable();
            assert_eq!(got, want, "case {case}, index {kind}");
        }
    }
}

/// Whether the bound prefix of the index `model` picks for `pattern` pins
/// all of it, so that no residual filter is left: every bound position
/// lies in the prefix, and the graph constraint is not `AnyNamed`.
fn prefix_covers(model: &SemanticModel, pattern: &QuadPattern) -> bool {
    let bound = (0..4).filter(|&i| pattern.bound(i).is_some()).count();
    model.choose_index(pattern).bound_prefix == bound && pattern.g != GraphConstraint::AnyNamed
}

#[test]
fn estimate_is_exact_when_the_prefix_covers_the_pattern() {
    let mut covered = 0;
    for case in 0..128u64 {
        let mut r = Rng::seed_from_u64(case);
        let quads = rand_quads(&mut r);
        let mut model = SemanticModel::new("m", &IndexKind::STANDARD_SIX).expect("model");
        model.bulk_load(quads.iter().copied());
        let mut dedup = quads.clone();
        dedup.sort_unstable();
        dedup.dedup();
        let predicates = (1u64..5).map(|p| QuadPattern {
            s: None,
            p: Some(TermId(p)),
            o: None,
            g: GraphConstraint::Any,
        });
        let random: Vec<QuadPattern> = (0..4).map(|_| rand_pattern(&mut r)).collect();
        for pattern in predicates.chain(random) {
            let matches = dedup.iter().filter(|q| pattern.matches(q)).count();
            if prefix_covers(&model, &pattern) {
                assert_eq!(
                    model.estimate(&pattern),
                    matches,
                    "case {case}, {pattern:?}"
                );
                covered += 1;
            } else {
                assert!(
                    model.estimate(&pattern) >= matches,
                    "case {case}, {pattern:?}"
                );
            }
        }
    }
    assert!(covered >= 512, "{covered} covered patterns");
}

#[test]
fn delta_overlay_behaves_like_a_set() {
    for case in 0..128u64 {
        let mut r = Rng::seed_from_u64(case);
        let base = rand_quads(&mut r);
        let n_ops = r.gen_range(0..30);
        let ops: Vec<(bool, u64, u64, u64)> = (0..n_ops)
            .map(|_| {
                let [s, p, o] = [r.gen_range(1..8), r.gen_range(1..5), r.gen_range(1..10)];
                (r.next_u64() & 1 == 0, s as u64, p as u64, o as u64)
            })
            .collect();

        let store = Store::new();
        store.create_model("m").expect("model");
        let base_quads: Vec<Quad> = base.iter().map(decode).collect();
        store.bulk_load("m", &base_quads).expect("load");

        let mut reference: std::collections::BTreeSet<Quad> = base_quads.into_iter().collect();
        for (insert, s, p, o) in ops {
            let quad = decode(&[s, p, o, 0]);
            if insert {
                let newly = store.insert("m", &quad).expect("insert");
                assert_eq!(newly, reference.insert(quad), "case {case}");
            } else {
                let removed = store.remove("m", &quad).expect("remove");
                assert_eq!(removed, reference.remove(&quad), "case {case}");
            }
        }
        assert_eq!(store.model("m").expect("m").len(), reference.len());
        // Compaction changes nothing observable.
        store.compact("m").expect("compact");
        assert_eq!(store.model("m").expect("m").len(), reference.len());
        let mut all: Vec<Quad> = store
            .dataset("m")
            .expect("view")
            .scan_decoded(QuadPattern::any())
            .collect();
        all.sort();
        let want: Vec<Quad> = reference.into_iter().collect();
        assert_eq!(all, want, "case {case}");
    }
}

#[test]
fn estimate_is_an_upper_bound_on_matches() {
    for case in 0..128u64 {
        let mut r = Rng::seed_from_u64(case);
        let quads = rand_quads(&mut r);
        let pattern = rand_pattern(&mut r);
        let store = Store::new();
        store.create_model("m").expect("model");
        let base_quads: Vec<Quad> = quads.iter().map(decode).collect();
        store.bulk_load("m", &base_quads).expect("load");
        // The encoded ids in `pattern` refer to this test's id space, not
        // the store's; remap via a pattern of the store's own terms
        // instead: use predicate-only pattern for determinism.
        if let Some(p) = pattern.p {
            let term = Term::iri(format!("http://p{}", p.0));
            if let Some(pid) = store.term_id(&term) {
                let probe = QuadPattern {
                    s: None,
                    p: Some(pid),
                    o: None,
                    g: GraphConstraint::Any,
                };
                let view = store.dataset("m").expect("view");
                assert!(
                    view.estimate(&probe) >= view.scan(probe).count(),
                    "case {case}"
                );
            }
        }
    }
}

/// Every index of a compacted model is a fresh build over the same quads.
fn assert_indexes_are_fresh_builds(
    model: &SemanticModel,
    reference: &BTreeSet<[u64; 4]>,
    case: u64,
) {
    assert_eq!(model.delta_len(), 0, "case {case}");
    assert_eq!(model.len(), reference.len(), "case {case}");
    let quads: Vec<[u64; 4]> = reference.iter().copied().collect();
    for index in model.indexes() {
        let fresh = SortedIndex::build(index.kind(), &quads);
        assert!(**index == fresh, "case {case}, index {}", index.kind());
    }
}

/// Random patterns scan the model, delta overlay included, like a naive
/// filter over the reference set.
fn assert_scans_like_a_filter(
    model: &SemanticModel,
    reference: &BTreeSet<[u64; 4]>,
    r: &mut Rng,
    case: u64,
) {
    for _ in 0..4 {
        let pattern = rand_pattern(r);
        let mut got: Vec<[u64; 4]> = model.scan(pattern).collect();
        got.sort_unstable();
        let want: Vec<[u64; 4]> = reference
            .iter()
            .copied()
            .filter(|q| pattern.matches(q))
            .collect();
        assert_eq!(got, want, "case {case}, pattern {pattern:?}");
    }
}

#[test]
fn merged_indexes_equal_fresh_builds() {
    for case in 0..128u64 {
        let mut r = Rng::seed_from_u64(case);
        let mut model = SemanticModel::new("m", &IndexKind::STANDARD_SIX).expect("model");
        let base = rand_quads(&mut r);
        model.bulk_load(base.iter().copied());
        let mut reference: BTreeSet<[u64; 4]> = base.into_iter().collect();
        assert_indexes_are_fresh_builds(&model, &reference, case);
        // Every quad ever removed, so inserts and bulk loads can bring
        // back removed base quads and removed delta quads alike.
        let mut removed: Vec<[u64; 4]> = Vec::new();
        for _ in 0..r.gen_range(1..40) {
            match r.gen_range(0..10) {
                0..=3 => {
                    let quad = if r.gen_bool(0.5) {
                        pick(&mut r, removed.iter())
                    } else {
                        rand_quad(&mut r)
                    };
                    assert_eq!(model.insert(quad), reference.insert(quad), "case {case}");
                }
                4..=6 => {
                    let quad = pick(&mut r, reference.iter());
                    assert_eq!(model.remove(quad), reference.remove(&quad), "case {case}");
                    removed.push(quad);
                }
                7 | 8 => {
                    let batch: Vec<[u64; 4]> = (0..r.gen_range(0..12))
                        .map(|_| match r.gen_range(0..3) {
                            0 => pick(&mut r, reference.iter()),
                            1 => pick(&mut r, removed.iter()),
                            _ => rand_quad(&mut r),
                        })
                        .collect();
                    model.bulk_load(batch.iter().copied());
                    reference.extend(batch);
                    assert_indexes_are_fresh_builds(&model, &reference, case);
                    assert_scans_like_a_filter(&model, &reference, &mut r, case);
                }
                _ => {
                    assert_scans_like_a_filter(&model, &reference, &mut r, case);
                    model.compact();
                    assert_indexes_are_fresh_builds(&model, &reference, case);
                    assert_scans_like_a_filter(&model, &reference, &mut r, case);
                }
            }
        }
    }
}

/// `id` (1-based, in this file's id space) as the term `decode` gives it
/// at quad position `pos`.
fn term_at(pos: usize, id: u64) -> Term {
    Term::iri(format!("http://{}{id}", ["s", "p", "o", "g"][pos]))
}

/// Morsels of three keys, planned with every output-order preference over
/// a model with a pending insert delta and removed overlay, read back
/// through `scan_morsel_columns`: each morsel carries the index it was
/// planned on, so every preference reads the naive filter's rows. Besides
/// the standard six, SPGCM ties PSCGM on an S, P pattern but sorts G
/// next, so a preference for G moves the span to another place.
#[test]
fn preferred_morsels_read_like_a_naive_filter() {
    let mut kinds = IndexKind::STANDARD_SIX.to_vec();
    kinds.push(IndexKind::parse("SPGC").expect("a permutation"));
    let mut pending = 0;
    for case in 0..128u64 {
        let mut r = Rng::seed_from_u64(case);
        let base = rand_quads(&mut r);
        let store = Store::new();
        store.create_model_with_indexes("m", &kinds).expect("model");
        let base_quads: Vec<Quad> = base.iter().map(decode).collect();
        store.bulk_load("m", &base_quads).expect("load");
        let mut reference: BTreeSet<[u64; 4]> = base.iter().copied().collect();
        let (mut inserts, mut removes) = (0, 0);
        for _ in 0..r.gen_range(0..12) {
            let quad = if r.gen_bool(0.5) {
                rand_quad(&mut r)
            } else {
                pick(&mut r, reference.iter())
            };
            if reference.remove(&quad) {
                removes += usize::from(store.remove("m", &decode(&quad)).expect("remove"));
            } else {
                reference.insert(quad);
                inserts += usize::from(store.insert("m", &decode(&quad)).expect("insert"));
            }
        }
        pending += usize::from(inserts > 0 && removes > 0);
        let view = store.dataset("m").expect("view");
        for _ in 0..4 {
            let pattern = rand_pattern(&mut r);
            // The same pattern in the store's IDs; a term the store never
            // saw gets an ID that matches nothing.
            let id = |pos: usize, t: Option<TermId>| {
                t.map(|t| {
                    store
                        .term_id(&term_at(pos, t.0))
                        .unwrap_or(TermId(u64::MAX))
                })
            };
            let probe = QuadPattern {
                s: id(0, pattern.s),
                p: id(1, pattern.p),
                o: id(2, pattern.o),
                g: match pattern.g {
                    GraphConstraint::Named(g) => {
                        GraphConstraint::Named(id(3, Some(g)).expect("bound"))
                    }
                    other => other,
                },
            };
            let mut want: Vec<Quad> = reference
                .iter()
                .filter(|q| pattern.matches(q))
                .map(decode)
                .collect();
            want.sort();
            for prefer in [None, Some(0), Some(1), Some(2), Some(3)] {
                let mut cols = vec![Vec::new(); 4];
                for morsel in view.plan_morsels(&probe, 3, 3, prefer) {
                    view.scan_morsel_columns(&probe, &morsel, &[0, 1, 2, 3], &mut cols);
                }
                let mut got: Vec<Quad> = (0..cols[0].len())
                    .map(|i| view.decode(&[cols[0][i], cols[1][i], cols[2][i], cols[3][i]]))
                    .collect();
                got.sort();
                assert_eq!(got, want, "case {case}, {pattern:?}, prefer {prefer:?}");
            }
        }
    }
    assert!(
        pending >= 32,
        "{pending} cases with both inserts and removes"
    );
}
