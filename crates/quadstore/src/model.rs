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
use crate::index::{push_columns, IndexKind, SortedIndex};
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

/// Flush-on-drop scan accounting: counts rows the scan actually yields
/// and adds them to the chosen index's `rows_matched` series once, when
/// the iterator is dropped. With telemetry disabled (`metrics: None`)
/// the per-row cost is a predictable untaken branch.
struct ScanTally<I> {
    inner: I,
    matched: u64,
    metrics: Option<Arc<crate::metrics::IndexMetrics>>,
}

impl<I: Iterator> Iterator for ScanTally<I> {
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next();
        if self.metrics.is_some() && item.is_some() {
            self.matched += 1;
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<I> Drop for ScanTally<I> {
    fn drop(&mut self) {
        if let Some(m) = &self.metrics {
            m.rows_matched.add(self.matched);
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
        let removed: Vec<_> = std::mem::take(&mut self.delta_removed).into_iter().collect();
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

    /// All quads currently visible, in unspecified order.
    pub fn iter_all(&self) -> impl Iterator<Item = EncodedQuad> + '_ {
        self.primary()
            .scan_prefix(&[])
            .filter(move |q| !self.delta_removed.contains(q))
            .chain(self.delta_added.iter().copied())
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
        self.choose_index_ordered(pattern, None)
    }

    /// Like [`Self::choose_index`], but with an output-order preference:
    /// among indexes tying on bound-prefix length, pick one whose first
    /// *unbound* sort position is `prefer` (0=S, 1=P, 2=O, 3=G), so the
    /// scan emits quads sorted by that position. Falls back to the default
    /// declaration-order winner when no tying index matches. The grouped
    /// executor uses this to feed its run-length accumulator keys in sorted
    /// runs; it never changes which rows are produced, only their order.
    fn choose_index_ordered(
        &self,
        pattern: &QuadPattern,
        prefer: Option<usize>,
    ) -> AccessPath {
        let mut best = 0usize;
        let mut best_len = self.index_kinds[0].bound_prefix_len(pattern);
        for (i, kind) in self.index_kinds.iter().enumerate().skip(1) {
            let len = kind.bound_prefix_len(pattern);
            if len > best_len {
                best = i;
                best_len = len;
            }
        }
        if let Some(pos) = prefer {
            if best_len < 4 {
                for (i, kind) in self.index_kinds.iter().enumerate() {
                    if kind.bound_prefix_len(pattern) == best_len
                        && kind.position_at(best_len) == pos
                    {
                        best = i;
                        break;
                    }
                }
            }
        }
        AccessPath { index: self.index_kinds[best], bound_prefix: best_len }
    }

    /// Scans quads matching `pattern` through the best index, overlaying
    /// the DML delta.
    ///
    /// When [`telemetry::enabled`], the scan accounts one range scan,
    /// the scanned key-span length, and (via a flush-on-drop tally) the
    /// rows that survive the residual filter, per chosen index kind;
    /// rows served from the delta overlay count as delta hits.
    pub fn scan<'a>(&'a self, pattern: QuadPattern) -> impl Iterator<Item = EncodedQuad> + 'a {
        let idx = self.index_for(&pattern, None);
        let (lo, hi) = idx.pattern_span(&pattern);
        let metrics = telemetry::enabled().then(|| {
            let m = crate::metrics::index_metrics(idx.kind());
            m.scans.inc();
            m.rows_scanned.add((hi - lo) as u64);
            m
        });
        let track_delta = metrics.is_some();
        let inner = idx
            .scan_span(pattern, lo, hi)
            .filter(move |q| !self.delta_removed.contains(q))
            .chain(self.scan_delta(pattern).inspect(move |_| {
                if track_delta {
                    crate::metrics::delta_hits().inc();
                }
            }));
        ScanTally { inner, matched: 0, metrics }
    }

    /// Estimated number of matches for `pattern` (exact on the base index
    /// range, plus the whole delta as slack).
    pub fn estimate(&self, pattern: &QuadPattern) -> usize {
        self.index_for(pattern, None).pattern_count(pattern) + self.delta_added.len()
    }

    /// The index [`Self::choose_index_ordered`] picks for `pattern`.
    pub(crate) fn index_for(&self, pattern: &QuadPattern, prefer: Option<usize>) -> &SortedIndex {
        let path = self.choose_index_ordered(pattern, prefer);
        self.indexes
            .iter()
            .find(|i| i.kind() == path.index)
            .expect("chosen index exists")
            .as_ref()
    }

    /// The base-index key span `[lo, hi)` a scan of `pattern` walks in the
    /// model's chosen index — what morsel-driven execution chunks. The DML
    /// delta is not part of the span; see [`Self::scan_delta`]. `prefer`
    /// picks among tying indexes as `choose_index_ordered` does, and the
    /// chunks must be scanned with the same `prefer`
    /// ([`DatasetView::scan_morsel_columns`](crate::DatasetView::scan_morsel_columns)).
    pub fn base_span(&self, pattern: &QuadPattern, prefer: Option<usize>) -> (usize, usize) {
        self.index_for(pattern, prefer).pattern_span(pattern)
    }

    /// Quads added by uncompacted DML that match `pattern` (the tail of
    /// [`Self::scan`]'s output).
    pub fn scan_delta<'a>(
        &'a self,
        pattern: QuadPattern,
    ) -> impl Iterator<Item = EncodedQuad> + 'a {
        self.delta_added
            .iter()
            .copied()
            .filter(move |q| pattern.matches(q))
    }

    /// Columnar twin of [`Self::scan`]: the whole base span of `pattern`
    /// and then the insert delta, into one ID column per requested quad
    /// position. The access path is resolved once for both parts.
    pub(crate) fn scan_columns(
        &self,
        pattern: &QuadPattern,
        positions: &[usize],
        cols: &mut [Vec<u64>],
    ) -> usize {
        let idx = self.index_for(pattern, None);
        let (lo, hi) = idx.pattern_span(pattern);
        let mut n = self.scan_index_columns(idx, pattern, lo, hi, positions, cols);
        if self.has_delta_added() {
            n += self.delta_columns(idx.kind(), pattern, positions, cols);
        }
        n
    }

    /// Scans the sub-span `[lo, hi)` of `idx`, one of this model's
    /// indexes, into one ID column per requested quad position
    /// (`positions[i]` → `cols[i]`), applying residual filtering and the
    /// removed-quads overlay, and returns the match count. Concatenating
    /// the chunks of [`Self::base_span`] and then [`Self::delta_columns`]
    /// reproduces [`Self::scan`] exactly (up to row order when `idx` is
    /// not the index `scan` picks). With no positions it touches no key
    /// unless a residual filter or the overlay must. When no removed-quads
    /// overlay is pending the copy happens directly from the sorted index
    /// runs ([`SortedIndex::scan_span_columns`]); otherwise the overlay
    /// forces a row-wise decode.
    ///
    /// When [`telemetry::enabled`], records what [`Self::scan`] records
    /// for its base span: one range scan, the sub-span's length, and the
    /// matches.
    pub(crate) fn scan_index_columns(
        &self,
        idx: &SortedIndex,
        pattern: &QuadPattern,
        lo: usize,
        hi: usize,
        positions: &[usize],
        cols: &mut [Vec<u64>],
    ) -> usize {
        let count = if self.delta_removed.is_empty() {
            idx.scan_span_columns(pattern, lo, hi, positions, cols)
        } else {
            let kept = idx.scan_span(*pattern, lo, hi).filter(|q| !self.delta_removed.contains(q));
            push_columns(kept, positions, cols)
        };
        if telemetry::enabled() {
            let m = crate::metrics::index_metrics(idx.kind());
            m.scans.inc();
            m.rows_scanned.add((hi - lo) as u64);
            m.rows_matched.add(count as u64);
        }
        count
    }

    /// Columnar variant of [`Self::scan_delta`]: row-wise over the (small,
    /// unsorted) insert delta. When [`telemetry::enabled`], records what
    /// [`Self::scan`] records for its delta rows, tallied against `kind`,
    /// the index the caller resolved for `pattern`: matches and delta hits.
    pub(crate) fn delta_columns(
        &self,
        kind: IndexKind,
        pattern: &QuadPattern,
        positions: &[usize],
        cols: &mut [Vec<u64>],
    ) -> usize {
        let count = push_columns(self.scan_delta(*pattern), positions, cols);
        if telemetry::enabled() {
            crate::metrics::index_metrics(kind).rows_matched.add(count as u64);
            crate::metrics::delta_hits().add(count as u64);
        }
        count
    }

    /// True when the model has uncompacted inserted quads.
    pub fn has_delta_added(&self) -> bool {
        !self.delta_added.is_empty()
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
        self.cbo_cell.refresh_if_drifted(self.len(), || self.iter_all());
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
        assert!(matches!(SemanticModel::new("m", &[]), Err(StoreError::NoIndexes)));
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
        m.bulk_load(vec![[1, 10, 3, 0], [2, 10, 3, 0], [3, 10, 4, 0], [4, 11, 5, 0]]);
        m.remove([2, 10, 3, 0]);
        m.insert([9, 10, 9, 0]);
        let pat = QuadPattern {
            s: None,
            p: Some(TermId(10)),
            o: None,
            g: GraphConstraint::DefaultOnly,
        };
        let sequential: Vec<_> = m.scan(pat).collect();
        let (lo, hi) = m.base_span(&pat, None);
        let idx = m.index_for(&pat, None);
        let all = [S, P, O, G];
        for chunk in [1usize, 2, 100] {
            let mut cols = vec![Vec::new(); 4];
            let mut start = lo;
            while start < hi {
                let end = (start + chunk).min(hi);
                m.scan_index_columns(idx, &pat, start, end, &all, &mut cols);
                start = end;
            }
            m.delta_columns(idx.kind(), &pat, &all, &mut cols);
            let out: Vec<EncodedQuad> = (0..cols[0].len())
                .map(|i| [cols[0][i], cols[1][i], cols[2][i], cols[3][i]])
                .collect();
            assert_eq!(out, sequential, "chunk {chunk}");
        }
    }

    #[test]
    fn choose_index_prefers_longest_prefix() {
        let m = SemanticModel::new(
            "m",
            &[IndexKind::PCSGM, IndexKind::PSCGM, IndexKind::GSPCM],
        )
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
