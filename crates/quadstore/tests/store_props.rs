//! Property-style tests of the quad store: every index permutation must
//! answer every pattern identically to a naive filter, and the DML delta
//! overlay must behave like a set. Cases are generated deterministically
//! from seeded pseudo-random streams (std-only, no crates.io access).

use quadstore::{GraphConstraint, IndexKind, QuadPattern, SortedIndex, Store};
use rdf_model::{GraphName, Quad, Term, TermId};
use twittergen::rng::Rng;

fn rand_quads(r: &mut Rng) -> Vec<[u64; 4]> {
    let n = r.gen_range(0..60);
    (0..n)
        .map(|_| [r.gen_range(1..8), r.gen_range(1..5), r.gen_range(1..10), r.gen_range(0..4)])
        .map(|q| q.map(|n| n as u64))
        .collect()
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
            let prefix = index.prefix_for(&pattern);
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
