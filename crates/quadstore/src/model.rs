//! Semantic models: the unit of storage and partitioning.
//!
//! Oracle "allows creating one or more semantic models each of which can
//! hold an RDF dataset" and implements each partition "as a separate model"
//! (§3.1–3.2). A model owns its local indexes; incremental DML goes to a
//! small delta overlay that [`SemanticModel::compact`] merges into the
//! sorted base arrays (the same bulk-vs-incremental split real stores use).

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::error::StoreError;
use crate::ids::{EncodedQuad, QuadPattern};
use crate::index::{IndexKind, SortedIndex};
use crate::stats::{CboStats, StatsCell};

/// Decision record of which access path a scan used; surfaces in the
/// SPARQL `EXPLAIN` output (Table 5 analogue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPath {
    /// Index chosen for the scan.
    pub index: IndexKind,
    /// Number of leading key components the pattern binds; `0` means a
    /// full index scan.
    pub bound_prefix: usize,
}

impl AccessPath {
    /// `true` when the scan walks the entire index.
    pub fn is_full_scan(&self) -> bool {
        self.bound_prefix == 0
    }
}

/// What one read of a member covers, resolved by
/// [`SemanticModel::span`]: a key range of one of its indexes, then its
/// insert delta. A morsel is a chunk of one, and a cursor seek narrows
/// one to a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    /// The index's place in [`SemanticModel::indexes`].
    pub(crate) index: usize,
    /// The key range `[lo, hi)` read, or `None` for the delta alone.
    pub(crate) keys: Option<(usize, usize)>,
    /// Whether the insert delta is read after the keys.
    pub(crate) delta: bool,
    /// Whether each key must be checked against the pattern and the
    /// removed overlay: the index's bound prefix does not cover the
    /// pattern ([`IndexKind::covers`]), or the member has removed quads.
    pub(crate) filter: bool,
}

/// The one member read: the quads of a [`Span`] that match a pattern, in
/// index order and then delta order, less the removed overlay. It yields
/// them as rows, or [`Self::fill`]s them into ID columns. When dropped
/// with telemetry on, it tallies against its index one range scan (if it
/// read keys) and the range's length, the rows it yielded, and the delta
/// rows among them as delta hits; with telemetry off it touches no
/// metric, and it never allocates.
pub(crate) struct MemberRead<'a> {
    model: &'a SemanticModel,
    pattern: QuadPattern,
    kind: IndexKind,
    keys: std::slice::Iter<'a, [u64; 4]>,
    /// Whether each key must be checked against the pattern and the
    /// removed overlay.
    filter: bool,
    delta: std::collections::btree_set::Iter<'a, EncodedQuad>,
    /// The range's length, when the read has one.
    scanned: Option<usize>,
    matched: usize,
    hits: usize,
    /// False for the untallied walk of [`SemanticModel::iter_all`].
    tally: bool,
}

impl MemberRead<'_> {
    /// Appends position `positions[i]` of every match to `cols[i]` and
    /// returns the match count. With no residual filter and no removed
    /// overlay, the columns are copied straight out of the sorted key run,
    /// with no positions no key is touched at all, and with no delta that
    /// is the whole read.
    pub(crate) fn fill(mut self, positions: &[usize], cols: &mut [Vec<u64>]) -> usize {
        debug_assert_eq!(positions.len(), cols.len());
        if !self.filter {
            let keys = std::mem::take(&mut self.keys).as_slice();
            for (col, &p) in cols.iter_mut().zip(positions) {
                let slot = self.kind.slot_of(p);
                col.extend(keys.iter().map(|k| k[slot]));
            }
            self.matched += keys.len();
            if self.delta.len() == 0 {
                return self.matched;
            }
        }
        for q in self.by_ref() {
            for (col, &p) in cols.iter_mut().zip(positions) {
                col.push(q[p]);
            }
        }
        self.matched
    }
}

impl Iterator for MemberRead<'_> {
    type Item = EncodedQuad;

    #[inline]
    fn next(&mut self) -> Option<EncodedQuad> {
        if !self.filter {
            if let Some(key) = self.keys.next() {
                self.matched += 1;
                return Some(self.kind.quad_of(key));
            }
        }
        let (kind, pattern, removed) = (self.kind, &self.pattern, &self.model.delta_removed);
        let keep = |q: &EncodedQuad| pattern.matches(q) && !removed.contains(q);
        let q = match self.keys.by_ref().map(|key| kind.quad_of(key)).find(keep) {
            Some(q) => q,
            None => {
                let q = *self.delta.find(|q| pattern.matches(q))?;
                self.hits += 1;
                q
            }
        };
        self.matched += 1;
        Some(q)
    }
}

impl Drop for MemberRead<'_> {
    fn drop(&mut self) {
        if !self.tally || !telemetry::enabled() {
            return;
        }
        let m = crate::metrics::index_metrics(self.kind);
        if let Some(scanned) = self.scanned {
            m.scans.inc();
            m.rows_scanned.add(scanned as u64);
        }
        m.rows_matched.add(self.matched as u64);
        if self.hits > 0 {
            crate::metrics::delta_hits().add(self.hits as u64);
        }
    }
}

/// One semantic model: a set of quads plus its local indexes.
///
/// Cloning is the copy-on-write primitive of the MVCC store: the sorted
/// base indexes are `Arc`-shared (pointer copies), so a clone costs only
/// the uncompacted DML delta sets — which the store keeps small by
/// auto-compacting.
#[derive(Debug, Clone)]
pub struct SemanticModel {
    name: String,
    indexes: Vec<Arc<SortedIndex>>,
    index_kinds: Vec<IndexKind>,
    /// Quads inserted since the last compaction (SPOG order).
    delta_added: BTreeSet<EncodedQuad>,
    /// Quads deleted since the last compaction.
    delta_removed: BTreeSet<EncodedQuad>,
    base_len: usize,
    /// Optimizer statistics, `Arc`-shared across MVCC generations (every
    /// copy-on-write clone of this model keeps the same cell), refreshed
    /// on drift rather than reset on every mutation — see
    /// [`crate::stats::StatsCell`].
    cbo_cell: Arc<StatsCell>,
}

impl SemanticModel {
    /// Creates an empty model with the given local indexes. At least one
    /// index is required (it doubles as the primary storage).
    pub fn new(name: impl Into<String>, index_kinds: &[IndexKind]) -> Result<Self, StoreError> {
        if index_kinds.is_empty() {
            return Err(StoreError::NoIndexes);
        }
        let mut kinds = index_kinds.to_vec();
        kinds.dedup();
        Ok(SemanticModel {
            name: name.into(),
            indexes: kinds
                .iter()
                .map(|&k| Arc::new(SortedIndex::build(k, &[])))
                .collect(),
            index_kinds: kinds,
            delta_added: BTreeSet::new(),
            delta_removed: BTreeSet::new(),
            base_len: 0,
            cbo_cell: Arc::new(StatsCell::default()),
        })
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured index kinds.
    pub fn index_kinds(&self) -> &[IndexKind] {
        &self.index_kinds
    }

    /// The built index structures (`Arc`-shared with snapshot clones).
    pub fn indexes(&self) -> &[Arc<SortedIndex>] {
        &self.indexes
    }

    /// Number of quads visible (base − removed + added).
    pub fn len(&self) -> usize {
        self.base_len - self.delta_removed.len() + self.delta_added.len()
    }

    /// True if the model holds no quads.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of uncompacted delta entries.
    pub fn delta_len(&self) -> usize {
        self.delta_added.len() + self.delta_removed.len()
    }

    fn primary(&self) -> &SortedIndex {
        self.indexes[0].as_ref()
    }

    /// Whether the model currently contains the quad.
    pub fn contains(&self, quad: &EncodedQuad) -> bool {
        if self.delta_added.contains(quad) {
            return true;
        }
        if self.delta_removed.contains(quad) {
            return false;
        }
        self.primary().contains(quad)
    }

    /// Inserts one quad; returns `true` if it was not already present.
    pub fn insert(&mut self, quad: EncodedQuad) -> bool {
        if self.contains(&quad) {
            return false;
        }
        if self.delta_removed.remove(&quad) {
            return true; // resurrect a base quad
        }
        self.delta_added.insert(quad)
    }

    /// Removes one quad; returns `true` if it was present.
    pub fn remove(&mut self, quad: EncodedQuad) -> bool {
        if self.delta_added.remove(&quad) {
            return true;
        }
        if self.delta_removed.contains(&quad) {
            return false;
        }
        if self.primary().contains(&quad) {
            self.delta_removed.insert(quad);
            true
        } else {
            false
        }
    }

    /// Bulk-appends quads, folding them and the pending DML delta into
    /// every index in one merge. Equivalent to N-Quads bulk load in
    /// Oracle: much cheaper per quad than [`Self::insert`].
    pub fn bulk_load(&mut self, quads: impl IntoIterator<Item = EncodedQuad>) {
        let mut added: Vec<EncodedQuad> = quads.into_iter().collect();
        added.extend(self.delta_added.iter().copied());
        self.merge(&added);
    }

    /// Folds the DML delta into the sorted base arrays: each index merges
    /// the sorted delta into its existing keys, so the cost is one linear
    /// copy per index, not a re-sort of the model.
    pub fn compact(&mut self) {
        if self.delta_len() == 0 {
            return;
        }
        if telemetry::enabled() {
            crate::metrics::compactions().inc();
        }
        let added: Vec<EncodedQuad> = self.delta_added.iter().copied().collect();
        self.merge(&added);
    }

    /// Replaces every index with its merge of `added` and the removed
    /// delta, then clears the delta.
    fn merge(&mut self, added: &[EncodedQuad]) {
        let removed: Vec<_> = std::mem::take(&mut self.delta_removed)
            .into_iter()
            .collect();
        let removed = &removed;
        self.delta_added.clear();
        // The indexes merge independently, so run them on scoped threads;
        // worth it for bulk loads of millions of quads with 4+ indexes,
        // harmless for small models.
        self.indexes = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .indexes
                .iter()
                .map(|index| scope.spawn(move || index.merge(added, removed)))
                .collect();
            handles
                .into_iter()
                .map(|h| Arc::new(h.join().expect("index merge thread panicked")))
                .collect::<Vec<_>>()
        });
        self.base_len = self.primary().len();
    }

    /// All quads currently visible, in the primary index's order and then
    /// the delta's: an untallied read, so statistics refreshes move no
    /// index telemetry.
    pub(crate) fn iter_all(&self) -> impl Iterator<Item = EncodedQuad> + '_ {
        let all = QuadPattern::any();
        let mut read = self.read(&all, self.span(&all, None));
        read.tally = false;
        read
    }

    /// Adds a new local index, built over the current quads (including the
    /// DML delta, which is compacted first). No-op if already present.
    pub fn add_index(&mut self, kind: IndexKind) {
        if self.index_kinds.contains(&kind) {
            return;
        }
        self.compact();
        let all: Vec<EncodedQuad> = self.iter_all().collect();
        self.index_kinds.push(kind);
        self.indexes.push(Arc::new(SortedIndex::build(kind, &all)));
    }

    /// Drops a local index. Fails if it is the last one (the primary index
    /// doubles as storage).
    pub fn drop_index(&mut self, kind: IndexKind) -> Result<(), StoreError> {
        if let Some(pos) = self.index_kinds.iter().position(|&k| k == kind) {
            if self.index_kinds.len() == 1 {
                return Err(StoreError::NoIndexes);
            }
            self.index_kinds.remove(pos);
            self.indexes.remove(pos);
        }
        Ok(())
    }

    /// Picks the best local index for a pattern: the one whose key order
    /// gives the longest bound prefix (ties broken by declaration order,
    /// so PCSGM wins when several qualify — matching Table 5's plans).
    pub fn choose_index(&self, pattern: &QuadPattern) -> AccessPath {
        let (index, bound_prefix) = self.choose(pattern, None);
        AccessPath {
            index: self.index_kinds[index],
            bound_prefix,
        }
    }

    /// The one index choice: the place in [`Self::indexes`] of the index
    /// [`Self::choose_index`] picks for `pattern`, and its bound-prefix
    /// length. `prefer` (0=S, 1=P, 2=O, 3=G) is an output-order
    /// preference: among indexes tying on bound-prefix length, pick one
    /// whose first *unbound* sort position is `prefer`, so the scan emits
    /// quads sorted by that position, falling back to the declaration-order
    /// winner when none does. The grouped executor uses this to feed its
    /// run-length accumulator keys in sorted runs; it never changes which
    /// rows are produced, only their order.
    fn choose(&self, pattern: &QuadPattern, prefer: Option<usize>) -> (usize, usize) {
        let mut best = 0usize;
        let mut best_len = self.index_kinds[0].bound_prefix_len(pattern);
        for (i, kind) in self.index_kinds.iter().enumerate().skip(1) {
            let len = kind.bound_prefix_len(pattern);
            if len > best_len {
                best = i;
                best_len = len;
            }
        }
        if let Some(pos) = prefer.filter(|_| best_len < 4) {
            let tie = |kind: &IndexKind| {
                kind.bound_prefix_len(pattern) == best_len && kind.position_at(best_len) == pos
            };
            best = self.index_kinds.iter().position(tie).unwrap_or(best);
        }
        (best, best_len)
    }

    /// The read of `pattern` through the index [`Self::choose`] picks: the
    /// key span of its bound prefix, then the insert delta if any.
    pub(crate) fn span(&self, pattern: &QuadPattern, prefer: Option<usize>) -> Span {
        let (index, n) = self.choose(pattern, prefer);
        let kind = self.index_kinds[index];
        Span {
            index,
            keys: Some(self.indexes[index].prefix_span(pattern, n)),
            delta: !self.delta_added.is_empty(),
            filter: !kind.covers(pattern, n) || !self.delta_removed.is_empty(),
        }
    }

    /// The quads of `span` that match `pattern` (see [`MemberRead`]), which
    /// must have been resolved for a pattern binding the same positions.
    pub(crate) fn read(&self, pattern: &QuadPattern, span: Span) -> MemberRead<'_> {
        let index = &self.indexes[span.index];
        let (lo, hi) = span.keys.unwrap_or_default();
        MemberRead {
            model: self,
            pattern: *pattern,
            kind: index.kind(),
            keys: index.keys()[lo..hi].iter(),
            filter: span.filter,
            delta: if span.delta {
                self.delta_added.iter()
            } else {
                Default::default()
            },
            scanned: span.keys.map(|_| hi - lo),
            matched: 0,
            hits: 0,
            tally: true,
        }
    }

    /// Scans quads matching `pattern` through the best index, overlaying
    /// the DML delta: a row view of the member read, tallied as it is
    /// when telemetry is on.
    pub fn scan(&self, pattern: QuadPattern) -> impl Iterator<Item = EncodedQuad> + '_ {
        self.read(&pattern, self.span(&pattern, None))
    }

    /// Estimated number of matches for `pattern`: exact on the base index
    /// span, plus the whole insert delta as slack.
    pub fn estimate(&self, pattern: &QuadPattern) -> usize {
        let (lo, hi) = self.span(pattern, None).keys.unwrap_or_default();
        hi - lo + self.delta_added.len()
    }

    /// The optimizer-statistics snapshot for this model: the pinned one
    /// if it has not drifted past [`crate::stats::CBO_DRIFT_THRESHOLD`],
    /// else freshly computed (one pass) and pinned. The cell is shared
    /// across MVCC generations, so the cost of computing is paid once per
    /// drift window, not per snapshot.
    pub fn cbo_stats(&self) -> Arc<CboStats> {
        self.cbo_cell.get_or_compute(self.len(), self.iter_all())
    }

    /// Unconditionally recomputes and pins fresh optimizer statistics
    /// (the `ANALYZE` entry point). Does **not** bump the store's
    /// mutation epoch — plan caches detect the refresh through
    /// [`Self::cbo_version`] instead.
    pub fn refresh_cbo_stats(&self) -> Arc<CboStats> {
        self.cbo_cell.refresh(self.iter_all())
    }

    /// Refreshes optimizer statistics only if they were ever computed and
    /// have drifted — the maintenance hook [`crate::WriteBatch::commit`]
    /// calls at publish.
    pub fn maybe_refresh_cbo_stats(&self) {
        self.cbo_cell
            .refresh_if_drifted(self.len(), || self.iter_all());
    }

    /// The statistics refresh counter (`0` = never computed); part of the
    /// plan-cache validation key.
    pub fn cbo_version(&self) -> u64 {
        self.cbo_cell.version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GraphConstraint, G, O, P, S};
    use rdf_model::TermId;

    fn model() -> SemanticModel {
        SemanticModel::new("m", &[IndexKind::PCSGM, IndexKind::GSPCM]).unwrap()
    }

    #[test]
    fn requires_at_least_one_index() {
        assert!(matches!(
            SemanticModel::new("m", &[]),
            Err(StoreError::NoIndexes)
        ));
    }

    #[test]
    fn insert_remove_contains() {
        let mut m = model();
        let q = [1, 2, 3, 0];
        assert!(m.insert(q));
        assert!(!m.insert(q));
        assert!(m.contains(&q));
        assert_eq!(m.len(), 1);
        assert!(m.remove(q));
        assert!(!m.remove(q));
        assert!(!m.contains(&q));
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn bulk_load_dedups_against_existing() {
        let mut m = model();
        m.insert([1, 2, 3, 0]);
        m.bulk_load(vec![[1, 2, 3, 0], [4, 5, 6, 0]]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.delta_len(), 0);
    }

    #[test]
    fn remove_base_quad_then_reinsert() {
        let mut m = model();
        m.bulk_load(vec![[1, 2, 3, 0]]);
        assert!(m.remove([1, 2, 3, 0]));
        assert!(!m.contains(&[1, 2, 3, 0]));
        assert!(m.insert([1, 2, 3, 0]));
        assert!(m.contains(&[1, 2, 3, 0]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn compact_folds_delta() {
        let mut m = model();
        m.bulk_load(vec![[1, 2, 3, 0], [4, 5, 6, 0]]);
        m.remove([1, 2, 3, 0]);
        m.insert([7, 8, 9, 2]);
        assert_eq!(m.delta_len(), 2);
        m.compact();
        assert_eq!(m.delta_len(), 0);
        assert_eq!(m.len(), 2);
        assert!(m.contains(&[7, 8, 9, 2]));
        assert!(!m.contains(&[1, 2, 3, 0]));
    }

    #[test]
    fn scan_overlays_delta() {
        let mut m = model();
        m.bulk_load(vec![[1, 10, 3, 0], [2, 10, 3, 0]]);
        m.remove([1, 10, 3, 0]);
        m.insert([5, 10, 6, 0]);
        let pat = QuadPattern {
            s: None,
            p: Some(TermId(10)),
            o: None,
            g: GraphConstraint::DefaultOnly,
        };
        let mut hits: Vec<_> = m.scan(pat).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![[2, 10, 3, 0], [5, 10, 6, 0]]);
    }

    #[test]
    fn span_chunks_plus_delta_reproduce_scan() {
        let mut m = model();
        m.bulk_load(vec![
            [1, 10, 3, 0],
            [2, 10, 3, 0],
            [3, 10, 4, 0],
            [4, 11, 5, 0],
        ]);
        m.remove([2, 10, 3, 0]);
        m.insert([9, 10, 9, 0]);
        let pat = QuadPattern {
            s: None,
            p: Some(TermId(10)),
            o: None,
            g: GraphConstraint::DefaultOnly,
        };
        let sequential: Vec<_> = m.scan(pat).collect();
        let span = m.span(&pat, None);
        let (lo, hi) = span.keys.expect("a key range");
        let all = [S, P, O, G];
        for chunk in [1usize, 2, 100] {
            let mut cols = vec![Vec::new(); 4];
            let mut start = lo;
            while start < hi {
                let end = (start + chunk).min(hi);
                let keys = Some((start, end));
                m.read(
                    &pat,
                    Span {
                        keys,
                        delta: false,
                        ..span
                    },
                )
                .fill(&all, &mut cols);
                start = end;
            }
            m.read(&pat, Span { keys: None, ..span })
                .fill(&all, &mut cols);
            let out: Vec<EncodedQuad> = (0..cols[0].len())
                .map(|i| [cols[0][i], cols[1][i], cols[2][i], cols[3][i]])
                .collect();
            assert_eq!(out, sequential, "chunk {chunk}");
        }
    }

    #[test]
    fn choose_index_prefers_longest_prefix() {
        let m = SemanticModel::new("m", &[IndexKind::PCSGM, IndexKind::PSCGM, IndexKind::GSPCM])
            .unwrap();
        // S and G bound, P unbound: GSPCM binds prefix 2, P-led bind 0.
        let pat = QuadPattern {
            s: Some(TermId(1)),
            p: None,
            o: None,
            g: GraphConstraint::Named(TermId(9)),
        };
        let path = m.choose_index(&pat);
        assert_eq!(path.index, IndexKind::GSPCM);
        assert_eq!(path.bound_prefix, 2);
        assert!(!path.is_full_scan());
    }

    #[test]
    fn unconstrained_scan_is_full_scan() {
        let m = model();
        let path = m.choose_index(&QuadPattern::any());
        assert!(path.is_full_scan());
    }

    #[test]
    fn estimate_tracks_range_size() {
        let mut m = model();
        m.bulk_load(vec![[1, 10, 3, 0], [2, 10, 4, 0], [3, 11, 5, 0]]);
        let pat = QuadPattern {
            s: None,
            p: Some(TermId(10)),
            o: None,
            g: GraphConstraint::DefaultOnly,
        };
        assert_eq!(m.estimate(&pat), 2);
    }
}

#[cfg(test)]
mod index_mgmt_tests {
    use super::*;
    use crate::ids::GraphConstraint;
    use rdf_model::TermId;

    #[test]
    fn add_index_changes_access_path() {
        let mut m = SemanticModel::new("m", &[IndexKind::PCSGM]).unwrap();
        m.bulk_load(vec![[1, 2, 3, 4], [5, 2, 6, 7]]);
        let pat = QuadPattern {
            s: None,
            p: None,
            o: None,
            g: GraphConstraint::Named(TermId(4)),
        };
        assert!(m.choose_index(&pat).is_full_scan(), "no G-led index yet");
        m.add_index(IndexKind::GPSCM);
        let path = m.choose_index(&pat);
        assert_eq!(path.index, IndexKind::GPSCM);
        assert_eq!(path.bound_prefix, 1);
        assert_eq!(m.scan(pat).count(), 1);
    }

    #[test]
    fn add_index_includes_delta() {
        let mut m = SemanticModel::new("m", &[IndexKind::PCSGM]).unwrap();
        m.insert([1, 2, 3, 0]);
        m.add_index(IndexKind::SPCGM);
        assert_eq!(m.indexes().len(), 2);
        assert_eq!(m.indexes()[1].len(), 1, "delta compacted into new index");
    }

    #[test]
    fn drop_index_keeps_at_least_one() {
        let mut m = SemanticModel::new("m", &[IndexKind::PCSGM, IndexKind::PSCGM]).unwrap();
        m.drop_index(IndexKind::PSCGM).unwrap();
        assert!(matches!(
            m.drop_index(IndexKind::PCSGM),
            Err(StoreError::NoIndexes)
        ));
        // Dropping an absent index is a no-op.
        m.drop_index(IndexKind::GSPCM).unwrap();
        assert_eq!(m.index_kinds().len(), 1);
    }
}
