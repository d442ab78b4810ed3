//! Dataset views: the query target resolved from one model, a virtual
//! model, or an explicit union of models (§3.2, Table 4: "a user can choose
//! the appropriate RDF dataset for each query").
//!
//! A view is an *owned* piece of one published store generation: it holds
//! `Arc`s to its member models plus the dictionary snapshot that decodes
//! them. Once resolved, it is immune to concurrent DML/DDL on the store —
//! this is what lets morsel workers on other threads drive a whole query
//! off one consistent snapshot.

use std::sync::Arc;

use rdf_model::{DictSnapshot, GraphName, Quad, Term, TermId};

use crate::ids::{EncodedQuad, QuadPattern, G, O, P, S};
use crate::model::{AccessPath, SemanticModel};

/// A read-only union view over one or more semantic models, carrying the
/// dictionary snapshot that decodes its quads. Cloning shares the same
/// pinned generation (`Arc` clones only).
#[derive(Debug, Clone)]
pub struct DatasetView {
    dict: DictSnapshot,
    members: Vec<Arc<SemanticModel>>,
}

/// One unit of parallel scan work: a contiguous chunk of one member's
/// sorted-index span for a pattern, or that member's DML-delta overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Index of the member model within the view.
    pub member: usize,
    /// Absolute start key position in the member's chosen index.
    pub lo: usize,
    /// Absolute end key position (exclusive).
    pub hi: usize,
    /// True for the member's delta-added morsel (lo/hi unused).
    pub delta: bool,
}

impl DatasetView {
    pub(crate) fn new(dict: DictSnapshot, members: Vec<Arc<SemanticModel>>) -> Self {
        DatasetView { dict, members }
    }

    pub(crate) fn into_members(self) -> Vec<Arc<SemanticModel>> {
        self.members
    }

    /// The dictionary snapshot this view decodes against.
    pub fn dictionary(&self) -> &DictSnapshot {
        &self.dict
    }

    /// Resolves an ID back to its term in the view's pinned dictionary.
    pub fn term(&self, id: TermId) -> Option<&Term> {
        self.dict.lookup(id)
    }

    /// Resolves a term to its ID without interning; `None` means the term
    /// occurs nowhere in this generation, so no pattern mentioning it can
    /// match.
    pub fn term_id(&self, term: &Term) -> Option<TermId> {
        self.dict.get(term)
    }

    /// Decodes an encoded quad back to terms. Panics if the IDs were not
    /// issued by the owning store's dictionary (an internal invariant).
    pub fn decode(&self, quad: &EncodedQuad) -> Quad {
        let term = |id: u64| {
            self.dict
                .lookup(TermId(id))
                .expect("encoded quad refers to interned terms")
                .clone()
        };
        let graph = if quad[G] == 0 {
            GraphName::Default
        } else {
            GraphName::Named(term(quad[G]))
        };
        Quad::new_unchecked(term(quad[S]), term(quad[P]), term(quad[O]), graph)
    }

    /// Names of the member models, in view order.
    pub fn member_names(&self) -> Vec<&str> {
        self.members.iter().map(|m| m.name()).collect()
    }

    /// The member models themselves, in view order. The cost-based
    /// optimizer walks these to pair each member's exact range estimates
    /// with its [`SemanticModel::cbo_stats`] snapshot.
    pub fn members(&self) -> &[Arc<SemanticModel>] {
        &self.members
    }

    /// A combined statistics-version fingerprint over the members. Plan
    /// caches fold this into their validation key: an `ANALYZE` or a
    /// drift-triggered refresh bumps it without bumping the mutation
    /// epoch, evicting plans whose join order was chosen under the old
    /// statistics.
    pub fn stats_version(&self) -> u64 {
        let mut v: u64 = 0;
        for m in &self.members {
            v = v.wrapping_mul(1_000_003).wrapping_add(m.cbo_version());
        }
        v
    }

    /// Total visible quads across members.
    pub fn len(&self) -> usize {
        self.members.iter().map(|m| m.len()).sum()
    }

    /// True if every member is empty.
    pub fn is_empty(&self) -> bool {
        self.members.iter().all(|m| m.is_empty())
    }

    /// Scans quads matching `pattern` across all member models. Each member
    /// uses its own best local index (Oracle's partition-local indexes).
    pub fn scan(&self, pattern: QuadPattern) -> impl Iterator<Item = EncodedQuad> + '_ {
        self.members.iter().flat_map(move |m| m.scan(pattern))
    }

    /// Alias of [`Self::scan`], kept because the benchmark's per-layer
    /// `quadstore.index.probe_ns` times it. The engine reads through
    /// [`Self::scan_columns`] and [`Self::scan_morsel_columns`].
    pub fn probe(&self, pattern: QuadPattern) -> impl Iterator<Item = EncodedQuad> + '_ {
        self.members.iter().flat_map(move |m| m.scan(pattern))
    }

    /// Decoded scan, for callers that want terms rather than IDs.
    pub fn scan_decoded(&self, pattern: QuadPattern) -> impl Iterator<Item = Quad> + '_ {
        self.scan(pattern).map(move |q| self.decode(&q))
    }

    /// A stable signature of the view's member models and their index
    /// sets, e.g. `"topology[PCSGM,PSCGM,SPCGM,GPSCM]"`. Plan caches key
    /// on this: dropping or creating an index changes the signature, so a
    /// plan compiled against a different physical design can never be
    /// replayed (index choice is baked into compiled access paths).
    pub fn index_signature(&self) -> String {
        use std::fmt::Write;
        let mut sig = String::new();
        for m in &self.members {
            if !sig.is_empty() {
                sig.push('|');
            }
            let _ = write!(sig, "{}[", m.name());
            for (i, kind) in m.index_kinds().iter().enumerate() {
                if i > 0 {
                    sig.push(',');
                }
                let _ = write!(sig, "{kind}");
            }
            sig.push(']');
        }
        sig
    }

    /// Whether any member contains the quad.
    pub fn contains(&self, quad: &EncodedQuad) -> bool {
        self.members.iter().any(|m| m.contains(quad))
    }

    /// Total estimated matches for `pattern` (sum over members).
    pub fn estimate(&self, pattern: &QuadPattern) -> usize {
        self.members.iter().map(|m| m.estimate(pattern)).sum()
    }

    /// The access path each member would use for `pattern`; the first entry
    /// is what `EXPLAIN` reports for single-member views.
    pub fn access_paths(&self, pattern: &QuadPattern) -> Vec<(&str, AccessPath)> {
        self.members
            .iter()
            .map(|m| (m.name(), m.choose_index(pattern)))
            .collect()
    }

    /// Columnar twin of [`Self::scan`]: fills one ID column per requested
    /// quad position (`positions[i]` → `cols[i]`) from each member's whole
    /// base span and then its insert delta, in [`Self::scan`] order, and
    /// returns the match count.
    pub fn scan_columns(
        &self,
        pattern: &QuadPattern,
        positions: &[usize],
        cols: &mut [Vec<u64>],
    ) -> usize {
        self.members.iter().map(|m| m.scan_columns(pattern, positions, cols)).sum()
    }

    /// Splits the scan of `pattern` into fixed-size morsels: contiguous
    /// chunks of each member's chosen sorted-index span, plus (per member)
    /// one morsel for its uncompacted DML delta. Scanning the morsels in
    /// order with [`Self::scan_morsel_columns`] yields exactly the quads
    /// of [`Self::scan`], in the same order — which is what lets parallel
    /// workers merge morsel outputs back into the sequential row order.
    ///
    /// `prefer` (0=S, 1=P, 2=O, 3=G, or `None`) is an output-order
    /// preference: among each member's tying indexes, chunk the one whose
    /// scan emits quads sorted by that position. The same `prefer` must be
    /// passed to [`Self::scan_morsel_columns`]. It changes *row order
    /// only*; the quad multiset is identical, which is why only
    /// order-insensitive consumers (grouped aggregation) set it.
    pub fn plan_morsels(
        &self,
        pattern: &QuadPattern,
        morsel_size: usize,
        prefer: Option<usize>,
    ) -> Vec<Morsel> {
        let size = morsel_size.max(1);
        let mut out = Vec::new();
        for (member, m) in self.members.iter().enumerate() {
            let (lo, hi) = m.base_span(pattern, prefer);
            let mut start = lo;
            while start < hi {
                // `start + size` would wrap for sizes near `usize::MAX`.
                let end = start + size.min(hi - start);
                out.push(Morsel { member, lo: start, hi: end, delta: false });
                start = end;
            }
            if m.has_delta_added() {
                out.push(Morsel { member, lo: 0, hi: 0, delta: true });
            }
        }
        out
    }

    /// Scans one morsel produced by [`Self::plan_morsels`], with the same
    /// `prefer` the morsels were planned with: fills one ID column per
    /// requested quad position (`positions[i]` → `cols[i]`) and returns
    /// the match count. Quad order within the morsel is the sequential
    /// scan's, so concatenated morsels preserve the row order morsel
    /// merging depends on.
    pub fn scan_morsel_columns(
        &self,
        pattern: &QuadPattern,
        morsel: &Morsel,
        prefer: Option<usize>,
        positions: &[usize],
        cols: &mut [Vec<u64>],
    ) -> usize {
        let m = &self.members[morsel.member];
        if morsel.delta {
            // Tallied against the index an unordered scan picks, as `scan`.
            m.delta_columns(m.index_for(pattern, None).kind(), pattern, positions, cols)
        } else {
            let idx = m.index_for(pattern, prefer);
            m.scan_index_columns(idx, pattern, morsel.lo, morsel.hi, positions, cols)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GraphConstraint;
    use crate::store::Store;

    fn store_with_two_models() -> Store {
        let store = Store::new();
        store.create_model("a").unwrap();
        store.create_model("b").unwrap();
        let q1 = Quad::triple(
            Term::iri("http://s1"),
            Term::iri("http://p"),
            Term::iri("http://o"),
        )
        .unwrap();
        let q2 = Quad::new(
            Term::iri("http://s2"),
            Term::iri("http://p"),
            Term::iri("http://o"),
            GraphName::iri("http://g"),
        )
        .unwrap();
        store.insert("a", &q1).unwrap();
        store.insert("b", &q2).unwrap();
        store
    }

    #[test]
    fn scan_unions_members() {
        let store = store_with_two_models();
        let view = store.dataset_union(&["a", "b"]).unwrap();
        let p = store.term_id(&Term::iri("http://p")).unwrap();
        let pat = QuadPattern { s: None, p: Some(p), o: None, g: GraphConstraint::Any };
        assert_eq!(view.scan(pat).count(), 2);
    }

    #[test]
    fn graph_constraint_splits_members() {
        let store = store_with_two_models();
        let view = store.dataset_union(&["a", "b"]).unwrap();
        let default_only = QuadPattern::default_graph();
        assert_eq!(view.scan(default_only).count(), 1);
        let named = QuadPattern { s: None, p: None, o: None, g: GraphConstraint::AnyNamed };
        assert_eq!(view.scan(named).count(), 1);
    }

    #[test]
    fn estimate_sums_members() {
        let store = store_with_two_models();
        let view = store.dataset_union(&["a", "b"]).unwrap();
        let p = store.term_id(&Term::iri("http://p")).unwrap();
        let pat = QuadPattern { s: None, p: Some(p), o: None, g: GraphConstraint::Any };
        assert_eq!(view.estimate(&pat), 2);
    }

    #[test]
    fn scan_decoded_yields_terms() {
        let store = store_with_two_models();
        let view = store.dataset("a").unwrap();
        let quads: Vec<Quad> = view.scan_decoded(QuadPattern::any()).collect();
        assert_eq!(quads.len(), 1);
        assert_eq!(quads[0].subject, Term::iri("http://s1"));
    }

    #[test]
    fn views_are_snapshots_of_their_generation() {
        let store = store_with_two_models();
        let view = store.dataset("a").unwrap();
        assert_eq!(view.len(), 1);
        store
            .insert("a", &quad_of("http://s9", "http://p", "http://o9"))
            .unwrap();
        // The already-resolved view still sees the old generation …
        assert_eq!(view.len(), 1);
        // … while a freshly resolved one sees the new quad.
        assert_eq!(store.dataset("a").unwrap().len(), 2);
    }

    /// Quads back from columns filled with all four positions.
    fn quads_of(cols: &[Vec<u64>]) -> Vec<EncodedQuad> {
        (0..cols[0].len()).map(|i| [cols[0][i], cols[1][i], cols[2][i], cols[3][i]]).collect()
    }

    /// The quads of `morsels`, scanned in order through the columnar reader.
    fn scan_morsels(view: &DatasetView, pat: &QuadPattern, morsels: &[Morsel]) -> Vec<EncodedQuad> {
        let mut cols = vec![Vec::new(); 4];
        for m in morsels {
            view.scan_morsel_columns(pat, m, None, &[S, P, O, G], &mut cols);
        }
        quads_of(&cols)
    }

    /// Model "a" with base rows in the default and a named graph, and an
    /// uncompacted insert; with `remove`, also a pending removed overlay,
    /// which sends its base reads down the row-wise fallback.
    fn store_with_deltas(remove: bool) -> Store {
        let store = store_with_two_models();
        let quads: Vec<Quad> = (0..10)
            .map(|i| {
                let g = if i % 3 == 0 { GraphName::iri("http://g") } else { GraphName::Default };
                let (p, o) = (Term::iri("http://p"), Term::iri("http://o"));
                Quad::new(Term::iri(format!("http://s{i}")), p, o, g).unwrap()
            })
            .collect();
        store.bulk_load("a", &quads).unwrap();
        store
            .insert("a", &quad_of("http://sx", "http://p", "http://oy"))
            .unwrap();
        if remove {
            store.remove("a", &quads[4]).unwrap();
        }
        store
    }

    /// A predicate pattern (prefix-covered) and `AnyNamed` (a residual
    /// filter over a full index scan).
    fn patterns(store: &Store) -> [QuadPattern; 2] {
        let p = store.term_id(&Term::iri("http://p")).unwrap();
        [
            QuadPattern { s: None, p: Some(p), o: None, g: GraphConstraint::Any },
            QuadPattern { s: None, p: None, o: None, g: GraphConstraint::AnyNamed },
        ]
    }

    #[test]
    fn morsels_reproduce_scan_order() {
        for remove in [false, true] {
            let store = store_with_deltas(remove);
            let view = store.dataset_union(&["a", "b"]).unwrap();
            for pat in patterns(&store) {
                let sequential: Vec<_> = view.scan(pat).collect();
                assert!(!sequential.is_empty());
                for morsel_size in [1, 3, 7, 1024] {
                    let morsels = view.plan_morsels(&pat, morsel_size, None);
                    let chunked = scan_morsels(&view, &pat, &morsels);
                    let case = format!("remove {remove} {pat:?} morsel_size {morsel_size}");
                    assert_eq!(chunked, sequential, "{case}");
                }
            }
        }
    }

    #[test]
    fn scan_columns_is_scan_projected() {
        for remove in [false, true] {
            let store = store_with_deltas(remove);
            let view = store.dataset_union(&["a", "b"]).unwrap();
            for pat in patterns(&store) {
                for positions in [vec![S, P, O, G], vec![O, S], vec![G], vec![]] {
                    let mut cols = vec![Vec::new(); positions.len()];
                    let n = view.scan_columns(&pat, &positions, &mut cols);
                    let rows: Vec<_> = view.scan(pat).collect();
                    assert_eq!(n, rows.len(), "remove {remove} {pat:?}");
                    for (col, &p) in cols.iter().zip(&positions) {
                        let want: Vec<u64> = rows.iter().map(|q| q[p]).collect();
                        assert_eq!(*col, want, "remove {remove} {pat:?} position {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn huge_morsel_sizes_cut_one_morsel_per_member_span() {
        let store = store_with_two_models();
        // A predicate interned after `http://p`: its span starts past 0.
        let quads: Vec<Quad> = (0..10)
            .map(|i| quad_of(&format!("http://s{i}"), "http://q", "http://o"))
            .collect();
        store.bulk_load("a", &quads).unwrap();
        let view = store.dataset_union(&["a", "b"]).unwrap();
        let q = store.term_id(&Term::iri("http://q")).unwrap();
        let pat = QuadPattern { s: None, p: Some(q), o: None, g: GraphConstraint::Any };
        let sequential: Vec<_> = view.scan(pat).collect();
        for morsel_size in [usize::MAX, usize::MAX / 2] {
            let morsels = view.plan_morsels(&pat, morsel_size, None);
            // Model "a": its whole base span; model "b": only its delta.
            let (lo, hi) = view.members()[0].base_span(&pat, None);
            assert!(lo > 0 && hi > lo);
            let expected = vec![
                Morsel { member: 0, lo, hi, delta: false },
                Morsel { member: 1, lo: 0, hi: 0, delta: true },
            ];
            assert_eq!(morsels, expected, "morsel_size {morsel_size}");
            let chunked = scan_morsels(&view, &pat, &morsels);
            assert_eq!(chunked, sequential, "morsel_size {morsel_size}");
        }
    }

    fn quad_of(s: &str, p: &str, o: &str) -> Quad {
        Quad::triple(Term::iri(s), Term::iri(p), Term::iri(o)).unwrap()
    }

    #[test]
    fn access_paths_report_per_member() {
        let store = store_with_two_models();
        let view = store.dataset_union(&["a", "b"]).unwrap();
        let pat = QuadPattern {
            s: None,
            p: Some(TermId(1)),
            o: None,
            g: GraphConstraint::Any,
        };
        let paths = view.access_paths(&pat);
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|(_, p)| p.bound_prefix == 1));
    }
}
