//! Seeded property test of the DML runs: random interleavings of inserts
//! and removes in write batches, explicit compactions and snapshot pins,
//! long enough to fold the top run into the sealed run and the sealed run
//! into the base several times, read back through every read path against
//! a `BTreeSet` oracle. Cases come from seeded pseudo-random streams
//! (std-only, no crates.io access).

use std::collections::BTreeSet;

use quadstore::{
    DatasetView, EncodedQuad, GraphConstraint, IndexKind, QuadPattern, Snapshot, Store, SEALED, TOP,
};
use rdf_model::{Term, TermId};
use twittergen::rng::Rng;

/// Distinct values per position: subjects, predicates, objects, graphs
/// (graph 0 is the default graph).
const SPACE: [usize; 4] = [96, 4, 96, 3];

/// The store's IDs of each position's terms.
struct Ids([Vec<u64>; 4]);

impl Ids {
    fn intern(store: &Store) -> Ids {
        Ids(std::array::from_fn(|pos| {
            (0..SPACE[pos])
                .map(|i| match (pos, i) {
                    (3, 0) => 0,
                    _ => store.intern(&Term::iri(format!("http://t{pos}/{i}"))).0,
                })
                .collect()
        }))
    }

    fn quad(&self, r: &mut Rng) -> EncodedQuad {
        std::array::from_fn(|pos| self.0[pos][r.gen_range(0..SPACE[pos])])
    }
}

/// A pattern binding the positions in `mask` (bit `i` = position `i`) to
/// `q`'s values; an unbound graph is `Any` or `AnyNamed`.
fn pattern(q: &EncodedQuad, mask: usize, any_named: bool) -> QuadPattern {
    let bind = |pos: usize| (mask >> pos & 1 == 1).then_some(TermId(q[pos]));
    QuadPattern {
        s: bind(0),
        p: bind(1),
        o: bind(2),
        g: match (mask >> 3 & 1 == 1, q[3], any_named) {
            (true, 0, _) => GraphConstraint::DefaultOnly,
            (true, g, _) => GraphConstraint::Named(TermId(g)),
            (false, _, true) => GraphConstraint::AnyNamed,
            (false, _, false) => GraphConstraint::Any,
        },
    }
}

/// A live quad: the first at or after a random one, else the first.
fn live(oracle: &BTreeSet<EncodedQuad>, ids: &Ids, r: &mut Rng) -> EncodedQuad {
    let q = ids.quad(r);
    let mut after = oracle.range(q..).chain(oracle);
    *after.next().expect("the oracle is never empty")
}

fn quads_of(cols: &[Vec<u64>]) -> Vec<EncodedQuad> {
    (0..cols[0].len())
        .map(|i| [cols[0][i], cols[1][i], cols[2][i], cols[3][i]])
        .collect()
}

/// `pattern` read through `scan`, through morsels under every output-order
/// preference and through a span cursor for every key it accepts, against
/// the oracle.
fn check(view: &DatasetView, oracle: &BTreeSet<EncodedQuad>, pattern: &QuadPattern, ctx: &str) {
    let want: Vec<EncodedQuad> = oracle
        .iter()
        .copied()
        .filter(|q| pattern.matches(q))
        .collect();
    let scanned: Vec<EncodedQuad> = view.scan(*pattern).collect();
    let mut sorted = scanned.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, want, "{ctx}: scan {pattern:?}");
    assert!(view.estimate(pattern) >= want.len(), "{ctx}: estimate");
    for (prefer, size) in [
        (None, 3),
        (Some(0), 5),
        (Some(1), 64),
        (Some(2), 1),
        (Some(3), 7),
    ] {
        let mut cols = vec![Vec::new(); 4];
        for morsel in view.plan_morsels(pattern, size, size, prefer) {
            view.scan_morsel_columns(pattern, &morsel, &[0, 1, 2, 3], &mut cols);
        }
        let mut got = quads_of(&cols);
        if prefer.is_none() {
            assert_eq!(got, scanned, "{ctx}: morsels in order {pattern:?}");
        }
        got.sort_unstable();
        assert_eq!(got, want, "{ctx}: morsels {pattern:?} prefer {prefer:?}");
    }
    for key in 0..4 {
        let Some(mut cursor) = view.span_cursor(pattern, key) else {
            continue;
        };
        // The pattern's own key, then ascending keys with a repeat, then a
        // descent: each seek reads what a fresh probe of its key reads.
        let mut keys: Vec<u64> = oracle.iter().map(|q| q[key]).step_by(97).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.insert(0, pattern.bound(key).expect("a cursor key is bound"));
        keys.push(keys[keys.len() / 2]);
        for k in keys {
            let mut probe = *pattern;
            match key {
                0 => probe.s = Some(TermId(k)),
                1 => probe.p = Some(TermId(k)),
                2 => probe.o = Some(TermId(k)),
                _ if k == 0 => probe.g = GraphConstraint::DefaultOnly,
                _ => probe.g = GraphConstraint::Named(TermId(k)),
            }
            let mut cols = vec![Vec::new(); 4];
            cursor.scan_columns(&probe, &[0, 1, 2, 3], &mut cols);
            let got = quads_of(&cols);
            let fresh: Vec<EncodedQuad> = view.scan(probe).collect();
            assert_eq!(got, fresh, "{ctx}: cursor seek {probe:?}");
        }
    }
}

#[test]
fn runs_read_like_a_set_across_folds_and_merges() {
    for case in 0..2u64 {
        let mut r = Rng::seed_from_u64(case);
        let store = Store::new();
        store
            .create_model_with_indexes("m", &IndexKind::STANDARD_SIX)
            .expect("model");
        let ids = Ids::intern(&store);
        // A base large enough that one full top run stays sealed: the
        // second fold crosses the merge fraction (1/16 of the base).
        let base: Vec<EncodedQuad> = (0..28_000).map(|_| ids.quad(&mut r)).collect();
        let mut oracle: BTreeSet<EncodedQuad> = base.iter().copied().collect();
        let mut batch = store.begin();
        for q in &base {
            batch.insert_encoded("m", *q).expect("insert");
        }
        batch.commit();
        store.compact("m").expect("compact");
        let mut pins: Vec<(Snapshot, BTreeSet<EncodedQuad>)> = Vec::new();
        let (mut sealed_seen, mut merges, mut base_len) = (false, 0, oracle.len());
        for step in 0..100 {
            let ctx = format!("case {case} step {step}");
            let explicit = r.gen_range(0..40);
            match explicit {
                0 => {
                    store.compact("m").expect("compact");
                    assert_eq!(store.model("m").expect("m").delta_len(), 0, "{ctx}");
                }
                1 => {
                    pins.push((store.snapshot(), oracle.clone()));
                    if pins.len() > 3 {
                        pins.remove(0);
                    }
                }
                _ => {
                    let mut batch = store.begin();
                    for _ in 0..r.gen_range(1..400) {
                        // Removes pick live quads, inserts fresh ones or
                        // ones removed earlier.
                        let q = if r.gen_bool(0.5) {
                            live(&oracle, &ids, &mut r)
                        } else {
                            ids.quad(&mut r)
                        };
                        if r.gen_bool(0.5) {
                            let got = batch.insert_encoded("m", q).expect("insert");
                            assert_eq!(got, oracle.insert(q), "{ctx}: insert {q:?}");
                        } else {
                            let got = batch.remove_encoded("m", q).expect("remove");
                            assert_eq!(got, oracle.remove(&q), "{ctx}: remove {q:?}");
                        }
                    }
                    batch.commit();
                }
            }
            let model = store.model("m").expect("m");
            assert_eq!(model.len(), oracle.len(), "{ctx}");
            assert!(
                model.run_lens()[TOP] < 1024,
                "{ctx}: {:?}",
                model.run_lens()
            );
            sealed_seen |= model.run_lens()[SEALED] > 0;
            // A base that changed without an explicit compaction took a
            // merge of the sealed run.
            if model.indexes()[0].len() != base_len {
                merges += usize::from(explicit != 0);
                base_len = model.indexes()[0].len();
            }
            let view = store.dataset("m").expect("view");
            let any = ids.quad(&mut r);
            let live = live(&oracle, &ids, &mut r);
            for mask in 0..16 {
                let q = if mask % 3 == 0 { any } else { live };
                if step % 25 == 0 || r.gen_range(0..8) == 0 {
                    check(&view, &oracle, &pattern(&q, mask, r.gen_bool(0.3)), &ctx);
                }
            }
            for (snap, then) in &pins {
                let pinned = snap.dataset("m").expect("pinned view");
                check(
                    &pinned,
                    then,
                    &pattern(&live, r.gen_range(0..16), false),
                    &ctx,
                );
            }
        }
        assert!(sealed_seen, "case {case}: no fold left a sealed run");
        assert!(merges >= 2, "case {case}: {merges} merges into the base");
    }
}
