//! Forward span cursors: the index side of a merge join.
//!
//! A probe pattern whose one varying position (the *key*) is the last
//! component of its bound prefix reads, for each key, one run of the
//! span its constants select. When the keys arrive in ascending order
//! the runs do too, so a cursor that remembers where the last run began
//! finds the next one by galloping forward from there instead of by two
//! binary searches from the root of the index. A key below the last one
//! (the next member's rows, a delta, another worker's morsel) restarts
//! the walk at the start of the span, so any key order gives the same
//! rows; only the work depends on the order. A member with runs walks
//! their adds and tombstones the same way, one position per sorted array.

use std::sync::Arc;

use crate::dataset::DatasetView;
use crate::ids::QuadPattern;
use crate::index::seek_run;
use crate::model::{SemanticModel, Span, RUNS};

/// A forward cursor over one probe pattern's spans in every member of a
/// view, one walk per member ([`DatasetView::span_cursor`]).
#[derive(Debug, Clone)]
pub struct SpanCursor {
    key: usize,
    members: Vec<MemberCursor>,
}

/// One member's walk: the span of the constant prefix, which each seek
/// narrows to one key's run in every sorted array the span ranges over,
/// the key's component in its index's order, and the last seek.
#[derive(Debug, Clone)]
struct MemberCursor {
    model: Arc<SemanticModel>,
    /// The constant prefix's span: every run lies inside it.
    span: Span,
    /// The key's component in the span's index order.
    slot: usize,
    /// The start of the last run in the base, each run's adds and each
    /// run's tombstones ([`SemanticModel::span_keys`]' order): the next
    /// seek gallops from here.
    at: [usize; 1 + 2 * RUNS],
    /// The key of the last seek.
    last: u64,
}

impl DatasetView {
    /// A cursor over the spans of `pattern` with quad position `key` (0=S,
    /// 1=P, 2=O, 3=G) bound per seek, or `None` when some member's index
    /// for `pattern` does not order its constants and then `key`: the key
    /// must be the last component of the chosen index's bound prefix.
    /// `pattern` must bind `key` (to any value): index choice depends only
    /// on which positions are bound, so every seek walks the index a probe
    /// of [`Self::scan_columns`] would.
    pub fn span_cursor(&self, pattern: &QuadPattern, key: usize) -> Option<SpanCursor> {
        pattern.bound(key)?;
        let members = self
            .members()
            .iter()
            .map(|m| {
                // The probe's span, widened to the constants before the key.
                let span = m.span(pattern, None);
                let kind = m.index_kinds()[span.index];
                let n = kind.bound_prefix_len(pattern);
                if n == 0 || kind.position_at(n - 1) != key {
                    return None;
                }
                let span = Span {
                    filter: span.filter,
                    ..m.prefix_span(pattern, span.index, n - 1)
                };
                let model = Arc::clone(m);
                Some(MemberCursor {
                    model,
                    span,
                    slot: n - 1,
                    at: ranges(&span).map(|r| r.0),
                    last: 0,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(SpanCursor { key, members })
    }
}

impl SpanCursor {
    /// Fills one ID column per requested quad position (`positions[i]` →
    /// `cols[i]`) with the matches of `pattern`, whose key position holds
    /// this probe's key and whose other positions are the ones the cursor
    /// was made with, and returns the match count: exactly the rows, order
    /// and index telemetry of [`DatasetView::scan_columns`].
    pub fn scan_columns(
        &mut self,
        pattern: &QuadPattern,
        positions: &[usize],
        cols: &mut [Vec<u64>],
    ) -> usize {
        let k = pattern.bound(self.key).expect("the key position is bound");
        let mut n = 0;
        for c in &mut self.members {
            let span = c.seek(k);
            n += c.model.read(pattern, span).fill(positions, cols);
        }
        n
    }
}

/// A span's ranges in [`SemanticModel::span_keys`]' order.
fn ranges(span: &Span) -> [(usize, usize); 1 + 2 * RUNS] {
    let [sealed, top] = span.adds;
    let [sealed_dead, top_dead] = span.dead;
    let base = span.keys.expect("a prefix span has base keys");
    [base, sealed, top, sealed_dead, top_dead]
}

impl MemberCursor {
    /// The span narrowed to key `k`'s run in every range: galloped to
    /// from the start of the last run, or from the start of the span when
    /// `k` is below the last key.
    fn seek(&mut self, k: u64) -> Span {
        let spans = ranges(&self.span);
        if k < self.last {
            self.at = spans.map(|r| r.0);
        }
        let keys = self.model.span_keys(&self.span);
        // An empty range (every range of a model with no runs but the
        // base's) stays empty.
        let run = |i: usize| match spans[i] {
            (a, b) if a == b => (a, b),
            (_, hi) => seek_run(keys[i], self.at[i], hi, self.slot, k),
        };
        let [base, sealed, top, sealed_dead, top_dead] = std::array::from_fn(run);
        self.at = [base, sealed, top, sealed_dead, top_dead].map(|r| r.0);
        self.last = k;
        Span {
            keys: Some(base),
            adds: [sealed, top],
            dead: [sealed_dead, top_dead],
            ..self.span
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ids::{GraphConstraint, QuadPattern, G, O, P, S};
    use crate::index::IndexKind;
    use crate::store::Store;
    use rdf_model::{GraphName, Quad, Term, TermId};
    use twittergen::rng::Rng;

    fn iri(name: String) -> Term {
        Term::iri(format!("http://{name}"))
    }

    /// Two models of random quads over small vocabularies (one triple may
    /// sit in several graphs, and in both models), each with uncompacted
    /// inserts and removes; viewed as one union.
    fn rand_store(seed: u64) -> Store {
        let mut r = Rng::seed_from_u64(seed);
        let store = Store::new();
        let quad = |r: &mut Rng| {
            let g = r.gen_range(0..3);
            let graph = if g == 0 {
                GraphName::Default
            } else {
                GraphName::Named(iri(format!("g{g}")))
            };
            let [s, p, o] = [r.gen_range(0..8), r.gen_range(0..3), r.gen_range(0..8)];
            Quad::new(
                iri(format!("n{s}")),
                iri(format!("p{p}")),
                iri(format!("n{o}")),
                graph,
            )
            .expect("valid quad")
        };
        for model in ["a", "b"] {
            store.create_model(model).expect("model");
            let base: Vec<Quad> = (0..r.gen_range(0..60)).map(|_| quad(&mut r)).collect();
            store.bulk_load(model, &base).expect("bulk load");
            for _ in 0..r.gen_range(0..6) {
                store.insert(model, &quad(&mut r)).expect("insert");
            }
            for q in base.iter().take(r.gen_range(0..6)) {
                store.remove(model, q).expect("remove");
            }
        }
        store
    }

    /// Every probe shape the cursor accepts, over every key order (runs,
    /// repeats, descents, absent keys), gives `scan_columns`' rows in
    /// `scan_columns`' order.
    #[test]
    fn cursor_seeks_equal_independent_scans() {
        let mut accepted = 0;
        for case in 0..40 {
            let store = rand_store(case);
            let view = store.dataset_union(&["a", "b"]).expect("view");
            let id = |t: Term| store.term_id(&t).map(|id| id.0);
            let mut r = Rng::seed_from_u64(case + 1000);
            let p0 = store.term_id(&iri("p0".into()));
            let shapes = [
                (
                    QuadPattern {
                        s: None,
                        p: p0,
                        o: None,
                        g: GraphConstraint::Any,
                    },
                    S,
                ),
                (
                    QuadPattern {
                        s: None,
                        p: p0,
                        o: None,
                        g: GraphConstraint::DefaultOnly,
                    },
                    S,
                ),
                (
                    QuadPattern {
                        s: None,
                        p: None,
                        o: None,
                        g: GraphConstraint::Any,
                    },
                    P,
                ),
                (
                    QuadPattern {
                        s: None,
                        p: p0,
                        o: None,
                        g: GraphConstraint::Any,
                    },
                    O,
                ),
                (
                    QuadPattern {
                        s: None,
                        p: None,
                        o: None,
                        g: GraphConstraint::AnyNamed,
                    },
                    S,
                ),
            ];
            for (shape, key) in shapes {
                let with_key = |k: u64| {
                    let mut pat = shape;
                    match key {
                        S => pat.s = Some(TermId(k)),
                        P => pat.p = Some(TermId(k)),
                        O => pat.o = Some(TermId(k)),
                        _ => pat.g = GraphConstraint::Named(TermId(k)),
                    }
                    pat
                };
                let Some(mut cursor) = view.span_cursor(&with_key(1), key) else {
                    continue;
                };
                accepted += 1;
                // Ascending runs with repeats, then descents.
                let mut keys: Vec<u64> = (0..24)
                    .filter_map(|_| match r.gen_range(0..4) {
                        0 => id(iri(format!("p{}", r.gen_range(0..4)))),
                        _ => id(iri(format!("n{}", r.gen_range(0..9)))),
                    })
                    .collect();
                let half = keys.len() / 2;
                keys[..half].sort_unstable();
                keys.push(u64::MAX);
                for k in keys {
                    let pat = with_key(k);
                    let mut got = vec![Vec::new(); 4];
                    let n = cursor.scan_columns(&pat, &[S, P, O, G], &mut got);
                    let mut want = vec![Vec::new(); 4];
                    assert_eq!(n, view.scan_columns(&pat, &[S, P, O, G], &mut want));
                    assert_eq!(got, want, "case {case} {pat:?}");
                }
            }
        }
        assert!(accepted >= 80, "{accepted} cursors");
    }

    /// Every member's run for a key is the span a fresh probe of the
    /// keyed pattern resolves by two binary searches, over
    /// ascending keys, repeats, gaps, descents and keys past the end.
    #[test]
    fn seeks_find_pattern_spans() {
        for case in 0..40 {
            let store = rand_store(case);
            let view = store.dataset_union(&["a", "b"]).expect("view");
            let p0 = store.term_id(&iri("p0".into()));
            let shape = QuadPattern {
                s: None,
                p: p0,
                o: None,
                g: GraphConstraint::Any,
            };
            let with_key = |k: u64| QuadPattern {
                s: Some(TermId(k)),
                ..shape
            };
            let Some(mut cursor) = view.span_cursor(&with_key(1), S) else {
                continue;
            };
            let mut r = Rng::seed_from_u64(case);
            let mut keys: Vec<u64> = (0..40).map(|_| r.gen_range(0..40) as u64).collect();
            keys[..20].sort_unstable();
            keys.extend([u64::MAX, 0, 3, 3, 2]);
            for k in keys {
                for (c, m) in cursor.members.iter_mut().zip(view.members()) {
                    let want = m.span(&with_key(k), None);
                    assert_eq!(c.seek(k), want, "case {case} key {k}");
                }
            }
        }
    }

    /// The cursor walks the index a probe chooses, and only when the key
    /// closes that index's bound prefix.
    #[test]
    fn cursor_requires_the_key_after_the_constants() {
        let store = Store::new();
        store
            .create_model_with_indexes("m", &[IndexKind::PCSGM, IndexKind::SPCGM])
            .expect("model");
        let q = Quad::triple(iri("s".into()), iri("p".into()), iri("o".into())).expect("quad");
        store.insert("m", &q).expect("insert");
        let view = store.dataset("m").expect("view");
        let [s, p, o] = ["s", "p", "o"].map(|n| store.term_id(&iri(n.into())));
        let pat = |s, p, o| QuadPattern {
            s,
            p,
            o,
            g: GraphConstraint::Any,
        };
        // S and P bound: SPCGM's prefix S, P beats PCSGM's P, so P is a
        // key and S is not.
        assert!(view.span_cursor(&pat(s, p, None), P).is_some());
        assert!(view.span_cursor(&pat(s, p, None), S).is_none());
        // P then O: PCSGM orders P, C.
        assert!(view.span_cursor(&pat(None, p, o), O).is_some());
        // The key must be bound.
        assert!(view.span_cursor(&pat(None, p, None), O).is_none());
        // Only O bound: no index leads with C.
        assert!(view.span_cursor(&pat(None, None, o), O).is_none());
    }
}
