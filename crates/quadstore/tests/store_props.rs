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
    [r.gen_range(1..8), r.gen_range(1..5), r.gen_range(1..10), r.gen_range(0..4)].map(|n| n as u64)
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
        if r.next_u64() & 1 == 0 { None } else { Some(TermId(r.gen_range(lo..hi) as u64)) }
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
        let expected: Vec<[u64; 4]> =
            dedup.iter().copied().filter(|q| pattern.matches(q)).collect();
        for kind in IndexKind::STANDARD_SIX {
            let index = SortedIndex::build(kind, &quads);
            let mut got: Vec<[u64; 4]> = index.scan(pattern).collect();
            got.sort_unstable();
            let mut want = expected.clone();
            want.sort_unstable();
            assert_eq!(got, want, "case {case}, index {kind}");
        }
    }
}

/// The bound-prefix values of `pattern` under `kind`'s order, stopping at
/// the first unbound component: an allocating construction independent of
/// the prefix scans build on the stack.
fn prefix_for(kind: IndexKind, pattern: &QuadPattern) -> Vec<u64> {
    (0..kind.bound_prefix_len(pattern))
        .map(|i| pattern.bound(kind.position_at(i)).expect("bound prefix component"))
        .collect()
}

#[test]
fn prefix_count_matches_scan_len() {
    for case in 0..128u64 {
        let mut r = Rng::seed_from_u64(case);
        let quads = rand_quads(&mut r);
        let index = SortedIndex::build(IndexKind::PCSGM, &quads);
        for p in 1u64..5 {
            let pattern = QuadPattern {
                s: None,
                p: Some(TermId(p)),
                o: None,
                g: GraphConstraint::Any,
            };
            let prefix = prefix_for(index.kind(), &pattern);
            assert_eq!(index.prefix_count(&prefix), index.scan(pattern).count(), "case {case}");
        }
    }
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
                let probe =
                    QuadPattern { s: None, p: Some(pid), o: None, g: GraphConstraint::Any };
                let view = store.dataset("m").expect("view");
                assert!(view.estimate(&probe) >= view.scan(probe).count(), "case {case}");
            }
        }
    }
}

/// Every index of a compacted model holds exactly what a fresh build over
/// the same quads holds, in the same order.
fn assert_indexes_are_fresh_builds(model: &SemanticModel, reference: &BTreeSet<[u64; 4]>, case: u64) {
    assert_eq!(model.delta_len(), 0, "case {case}");
    assert_eq!(model.len(), reference.len(), "case {case}");
    let quads: Vec<[u64; 4]> = reference.iter().copied().collect();
    for index in model.indexes() {
        let fresh = SortedIndex::build(index.kind(), &quads);
        assert!(
            index.scan_prefix(&[]).eq(fresh.scan_prefix(&[])),
            "case {case}, index {}",
            index.kind()
        );
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
        let want: Vec<[u64; 4]> = reference.iter().copied().filter(|q| pattern.matches(q)).collect();
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
                    let quad = if r.gen_bool(0.5) { pick(&mut r, removed.iter()) } else { rand_quad(&mut r) };
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
