//! Semantic models: the unit of storage and partitioning.
//!
//! Oracle "allows creating one or more semantic models each of which can
//! hold an RDF dataset" and implements each partition "as a separate model"
//! (§3.1–3.2). A model owns its local indexes. Incremental DML lands in two
//! levels of sorted runs above them, each holding per index the keys it
//! adds and removes in that index's own order, so a read resolves every
//! level with the bound-prefix search it uses for the base. The writer
//! folds the top run into the sealed run when it fills, and the sealed run
//! into the base once it reaches a fraction of it ([`crate::Store`]);
//! [`SemanticModel::compact`] folds both.

use std::sync::Arc;

use crate::error::StoreError;
use crate::ids::{EncodedQuad, QuadPattern};
use crate::index::{gallop, IndexKind, SortedIndex};
use crate::stats::{CboStats, StatsCell};

/// Levels of runs above the base: the sealed run, then the top run.
pub(crate) const RUNS: usize = 2;
/// The place of the sealed run in [`SemanticModel::run_lens`] and a span.
pub const SEALED: usize = 0;
/// The place of the top run in [`SemanticModel::run_lens`] and a span.
pub const TOP: usize = 1;

type Key = [u64; 4];

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
/// [`SemanticModel::span`]: a key range of one of its indexes, then the
/// range of the same prefix in each run's added keys, less the run
/// tombstones in that prefix. A morsel is a chunk of one, and a cursor
/// seek narrows every range to one key's run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    /// The index's place in [`SemanticModel::indexes`].
    pub(crate) index: usize,
    /// The base key range `[lo, hi)` read, or `None` for the runs alone.
    pub(crate) keys: Option<(usize, usize)>,
    /// The range of each run's added keys read after the base (sealed,
    /// then top); empty in a morsel of the base alone.
    pub(crate) adds: [(usize, usize); RUNS],
    /// The range of each run's tombstones inside the prefix: a key of an
    /// older level found there is not read.
    pub(crate) dead: [(usize, usize); RUNS],
    /// Whether each key must be checked against the pattern: the index's
    /// bound prefix does not cover it ([`IndexKind::covers`]).
    pub(crate) filter: bool,
}

/// One level of runs above the base: per index, in that index's key order,
/// the keys the level adds to the levels below it and the keys it removes
/// from them (its tombstones). The adds are in none of the lower levels
/// and the tombstones are visible there, so the levels read as disjoint
/// sets. An empty run holds no index at all.
#[derive(Debug, Clone, Default)]
struct Run {
    adds: Vec<SortedIndex>,
    dead: Vec<SortedIndex>,
}

impl Run {
    /// Added keys of index `i`.
    fn adds(&self, i: usize) -> &[Key] {
        self.adds.get(i).map_or(&[], |x| x.keys())
    }

    /// Tombstones of index `i`.
    fn dead(&self, i: usize) -> &[Key] {
        self.dead.get(i).map_or(&[], |x| x.keys())
    }

    /// Added keys and tombstones (per index; every index holds the same).
    fn len(&self) -> usize {
        self.adds(0).len() + self.dead(0).len()
    }

    /// `(self − removed) ∪ added` and its tombstones `(dead − added) ∪
    /// removed` per index, from `adds` and `dead` already net of this run
    /// (see [`SemanticModel::apply`] and [`SemanticModel::fold_top`]).
    fn folded(
        kinds: &[IndexKind],
        mut edit: impl FnMut(usize, IndexKind) -> (SortedIndex, SortedIndex),
    ) -> Run {
        let (adds, dead) = kinds.iter().enumerate().map(|(i, &k)| edit(i, k)).unzip();
        let run = Run { adds, dead };
        if run.len() == 0 {
            Run::default()
        } else {
            run
        }
    }
}

/// The keys of `a` that are not in `b`, both sorted.
fn minus(a: &[Key], b: &[Key]) -> Vec<Key> {
    crate::index::fold(a, &[], b)
}

/// The one member read: the quads of a [`Span`] that match a pattern, in
/// index order level by level (the base, then the sealed and top runs'
/// adds), less the tombstones of newer runs. It yields them as rows, or
/// [`Self::fill`]s them into ID columns. When dropped with telemetry on,
/// it tallies against its index one range scan (if it read base keys) and
/// the ranges' length, the rows it yielded, and the run rows among them as
/// delta hits; with telemetry off it touches no metric, and it never
/// allocates.
pub(crate) struct MemberRead<'a> {
    pattern: QuadPattern,
    kind: IndexKind,
    /// The keys left at the level being read.
    keys: std::slice::Iter<'a, Key>,
    /// The level being read: 0 for the base, `1 + r` for run `r`'s adds.
    level: usize,
    /// The newest level with keys in the span: the read ends after it.
    last: usize,
    /// Each run's added keys in the span.
    adds: [&'a [Key]; RUNS],
    /// Each run's tombstones in the span.
    dead: [&'a [Key]; RUNS],
    /// Each run's tombstones not yet passed at this level: a key of level
    /// `l` is buried by a tombstone of run `r >= l`.
    walk: [&'a [Key]; RUNS],
    /// Whether each key must be checked against the pattern.
    filter: bool,
    /// Whether no key is filtered: no residual filter and no tombstone in
    /// the span, so every key read is a match.
    plain: bool,
    /// The ranges' length, when the read has a base range.
    scanned: Option<usize>,
    matched: usize,
    hits: usize,
    /// False for the untallied walk of [`SemanticModel::iter_all`].
    tally: bool,
}

impl MemberRead<'_> {
    /// Appends position `positions[i]` of every match to `cols[i]` and
    /// returns the match count. With no residual filter, the columns are
    /// copied straight out of each level's sorted keys, in runs between
    /// the tombstones that fall inside them; with no positions no key is
    /// touched at all, and with no runs the base range is the whole read.
    pub(crate) fn fill(mut self, positions: &[usize], cols: &mut [Vec<u64>]) -> usize {
        debug_assert_eq!(positions.len(), cols.len());
        if self.filter {
            for q in self.by_ref() {
                for (col, &p) in cols.iter_mut().zip(positions) {
                    col.push(q[p]);
                }
            }
            return self.matched;
        }
        loop {
            let mut keys = std::mem::take(&mut self.keys).as_slice();
            if self.plain {
                self.copy(keys, positions, cols);
                keys = &[];
            }
            while !keys.is_empty() {
                let next = self.next_tombstone(&keys[0]);
                let end = next.map_or(keys.len(), |t| gallop(keys, 0, |k| *k < t));
                self.copy(&keys[..end], positions, cols);
                keys = &keys[end..];
                if next.is_some() && keys.first() == next.as_ref() {
                    keys = &keys[1..];
                }
            }
            if !self.next_level() {
                return self.matched;
            }
        }
    }

    /// Appends `keys` to the columns and counts them.
    fn copy(&mut self, keys: &[Key], positions: &[usize], cols: &mut [Vec<u64>]) {
        for (col, &p) in cols.iter_mut().zip(positions) {
            let slot = self.kind.slot_of(p);
            col.extend(keys.iter().map(|k| k[slot]));
        }
        self.matched += keys.len();
        if self.level > 0 {
            self.hits += keys.len();
        }
    }

    /// The first tombstone at or after `key` that buries keys of this
    /// level, with every walk moved past the keys below `key`.
    fn next_tombstone(&mut self, key: &Key) -> Option<Key> {
        let mut next: Option<Key> = None;
        for walk in &mut self.walk[self.level..] {
            *walk = &walk[gallop(walk, 0, |t| t < key)..];
            if let Some(&t) = walk.first() {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        }
        next
    }

    /// Whether a newer run's tombstone buries `key` of this level.
    fn buried(&mut self, key: &Key) -> bool {
        self.next_tombstone(key) == Some(*key)
    }

    /// Moves to the next level's keys, or returns false after the last
    /// one with keys in the span.
    fn next_level(&mut self) -> bool {
        if self.level == self.last {
            return false;
        }
        self.keys = self.adds[self.level].iter();
        self.level += 1;
        self.walk = self.dead;
        true
    }
}

impl Iterator for MemberRead<'_> {
    type Item = EncodedQuad;

    #[inline]
    fn next(&mut self) -> Option<EncodedQuad> {
        loop {
            let Some(key) = self.keys.next() else {
                if !self.next_level() {
                    return None;
                }
                continue;
            };
            let q = self.kind.quad_of(key);
            if !self.plain && ((self.filter && !self.pattern.matches(&q)) || self.buried(key)) {
                continue;
            }
            self.matched += 1;
            if self.level > 0 {
                self.hits += 1;
            }
            return Some(q);
        }
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
/// base indexes and both runs are `Arc`-shared (pointer copies), and a
/// write replaces the top run with its fold of the batch's edits, which
/// costs the top run's size — kept small by [`crate::Store`]'s folding.
#[derive(Debug, Clone)]
pub struct SemanticModel {
    name: String,
    indexes: Vec<Arc<SortedIndex>>,
    index_kinds: Vec<IndexKind>,
    /// The sealed run, then the top run: DML since the base was built.
    runs: [Arc<Run>; RUNS],
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
            runs: Default::default(),
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

    /// The built base index structures (`Arc`-shared with snapshot
    /// clones); the runs above them are not included.
    pub fn indexes(&self) -> &[Arc<SortedIndex>] {
        &self.indexes
    }

    /// Number of quads visible (the base less the runs' tombstones, plus
    /// their adds).
    pub fn len(&self) -> usize {
        let runs = self.runs.iter();
        runs.fold(self.base_len, |n, r| n + r.adds(0).len() - r.dead(0).len())
    }

    /// True if the model holds no quads.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of uncompacted entries: added keys and tombstones of both
    /// runs.
    pub fn delta_len(&self) -> usize {
        self.run_lens().iter().sum()
    }

    /// Entries of the sealed run and of the top run ([`SEALED`], [`TOP`]).
    pub fn run_lens(&self) -> [usize; RUNS] {
        [self.runs[SEALED].len(), self.runs[TOP].len()]
    }

    /// Entries of index `i` counting its runs' adds and tombstones: what
    /// the index holds in memory.
    pub fn index_entries(&self, i: usize) -> usize {
        let runs = self.runs.iter();
        runs.fold(self.indexes[i].len(), |n, r| {
            n + r.adds(i).len() + r.dead(i).len()
        })
    }

    fn primary(&self) -> &SortedIndex {
        self.indexes[0].as_ref()
    }

    /// Whether the model currently contains the quad: the newest level
    /// that adds or removes it decides.
    pub fn contains(&self, quad: &EncodedQuad) -> bool {
        let key = self.index_kinds[0].key_of(quad);
        for run in self.runs.iter().rev() {
            if run.adds(0).binary_search(&key).is_ok() {
                return true;
            }
            if run.dead(0).binary_search(&key).is_ok() {
                return false;
            }
        }
        self.primary().contains(quad)
    }

    /// Inserts one quad; returns `true` if it was not already present.
    pub fn insert(&mut self, quad: EncodedQuad) -> bool {
        let absent = !self.contains(&quad);
        if absent {
            self.apply(&[(quad, true)]);
        }
        absent
    }

    /// Removes one quad; returns `true` if it was present.
    pub fn remove(&mut self, quad: EncodedQuad) -> bool {
        let present = self.contains(&quad);
        if present {
            self.apply(&[(quad, false)]);
        }
        present
    }

    /// Folds edits into the top run: `(quad, true)` adds a quad the model
    /// does not contain, `(quad, false)` removes one it does, each quad at
    /// most once. An add cancels the top run's tombstone of the quad and a
    /// removal the top run's add, so the top run only ever holds net
    /// changes. One linear merge per index, of the top run's size.
    pub(crate) fn apply(&mut self, edits: &[(EncodedQuad, bool)]) {
        if edits.is_empty() {
            return;
        }
        let quads = |add: bool| -> Vec<EncodedQuad> {
            let of = edits.iter().filter(move |e| e.1 == add);
            of.map(|e| e.0).collect()
        };
        let (added, removed) = (quads(true), quads(false));
        let top = &self.runs[TOP];
        let run = Run::folded(&self.index_kinds, |i, kind| {
            let added = SortedIndex::build(kind, &added);
            let removed = SortedIndex::build(kind, &removed);
            let (adds, dead) = (top.adds(i), top.dead(i));
            (
                SortedIndex::sorted(
                    kind,
                    crate::index::fold(adds, &minus(added.keys(), dead), removed.keys()),
                ),
                SortedIndex::sorted(
                    kind,
                    crate::index::fold(dead, &minus(removed.keys(), adds), added.keys()),
                ),
            )
        });
        self.runs[TOP] = Arc::new(run);
    }

    /// Folds the top run into the sealed run. An add of the top run that
    /// the sealed run removed cancels that tombstone, and a tombstone of
    /// the top run over a sealed add cancels the add, so a window of
    /// quads inserted and later deleted leaves nothing behind. Copies the
    /// sealed run once per index; the base is untouched.
    pub(crate) fn fold_top(&mut self) {
        if self.runs[TOP].len() == 0 {
            return;
        }
        if telemetry::enabled() {
            crate::metrics::compactions().inc();
        }
        let (sealed, top) = (&self.runs[SEALED], &self.runs[TOP]);
        let run = Run::folded(&self.index_kinds, |i, kind| {
            let (adds, dead) = (sealed.adds(i), sealed.dead(i));
            let (new_adds, new_dead) = (top.adds(i), top.dead(i));
            (
                SortedIndex::sorted(
                    kind,
                    crate::index::fold(adds, &minus(new_adds, dead), new_dead),
                ),
                SortedIndex::sorted(
                    kind,
                    crate::index::fold(dead, &minus(new_dead, adds), new_adds),
                ),
            )
        });
        self.runs = [Arc::new(run), Arc::default()];
    }

    /// Folds the sealed run into the base: each index copies its keys once
    /// with the run's adds and without its tombstones.
    fn merge_sealed(&mut self) {
        if self.runs[SEALED].len() == 0 {
            return;
        }
        if telemetry::enabled() {
            crate::metrics::compactions().inc();
        }
        let sealed = std::mem::take(&mut self.runs[SEALED]);
        self.rebuild(|i, index| index.fold(sealed.adds(i), sealed.dead(i)));
    }

    /// Bulk-appends quads, folding them and the pending runs into every
    /// index in one merge. Equivalent to N-Quads bulk load in Oracle: much
    /// cheaper per quad than [`Self::insert`].
    pub fn bulk_load(&mut self, quads: impl IntoIterator<Item = EncodedQuad>) {
        self.fold_top();
        let sealed = std::mem::take(&mut self.runs[SEALED]);
        let kind = self.index_kinds[0];
        let mut added: Vec<EncodedQuad> = quads.into_iter().collect();
        added.extend(sealed.adds(0).iter().map(|k| kind.quad_of(k)));
        let removed: Vec<EncodedQuad> = sealed.dead(0).iter().map(|k| kind.quad_of(k)).collect();
        let (added, removed) = (&added, &removed);
        self.rebuild(|_, index| index.merge(added, removed));
    }

    /// Folds both runs into the sorted base arrays: each index merges the
    /// sorted runs into its existing keys, so the cost is one linear copy
    /// per index, not a re-sort of the model.
    pub fn compact(&mut self) {
        self.fold_top();
        self.merge_sealed();
    }

    /// Replaces every base index `i` with `edit(i, index)`.
    fn rebuild(&mut self, edit: impl Fn(usize, &SortedIndex) -> SortedIndex + Sync) {
        // The indexes merge independently, so run them on scoped threads;
        // worth it for bulk loads of millions of quads with 4+ indexes,
        // harmless for small models.
        let edit = &edit;
        self.indexes = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .indexes
                .iter()
                .enumerate()
                .map(|(i, index)| scope.spawn(move || edit(i, index)))
                .collect();
            handles
                .into_iter()
                .map(|h| Arc::new(h.join().expect("index merge thread panicked")))
                .collect::<Vec<_>>()
        });
        self.base_len = self.primary().len();
    }

    /// All quads currently visible, in the primary index's order level by
    /// level: an untallied read, so statistics refreshes move no index
    /// telemetry.
    pub(crate) fn iter_all(&self) -> impl Iterator<Item = EncodedQuad> + '_ {
        let all = QuadPattern::any();
        let mut read = self.read(&all, self.span(&all, None));
        read.tally = false;
        read
    }

    /// Adds a new local index, built over the current quads (the runs are
    /// compacted first). No-op if already present.
    pub fn add_index(&mut self, kind: IndexKind) {
        if self.index_kinds.contains(&kind) {
            return;
        }
        self.compact();
        let all: Vec<EncodedQuad> = self.iter_all().collect();
        self.index_kinds.push(kind);
        self.indexes.push(Arc::new(SortedIndex::build(kind, &all)));
    }

    /// Drops a local index, and its part of the runs. Fails if it is the
    /// last one (the primary index doubles as storage).
    pub fn drop_index(&mut self, kind: IndexKind) -> Result<(), StoreError> {
        if let Some(pos) = self.index_kinds.iter().position(|&k| k == kind) {
            if self.index_kinds.len() == 1 {
                return Err(StoreError::NoIndexes);
            }
            self.index_kinds.remove(pos);
            self.indexes.remove(pos);
            for run in &mut self.runs {
                if run.len() > 0 {
                    let run = Arc::make_mut(run);
                    run.adds.remove(pos);
                    run.dead.remove(pos);
                }
            }
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
    /// key span of its bound prefix in the base and in each run.
    #[inline]
    pub(crate) fn span(&self, pattern: &QuadPattern, prefer: Option<usize>) -> Span {
        let (index, n) = self.choose(pattern, prefer);
        self.prefix_span(pattern, index, n)
    }

    /// The span of the keys of index `index` whose first `n` components
    /// equal `pattern`'s values there, in the base and in each run.
    #[inline]
    pub(crate) fn prefix_span(&self, pattern: &QuadPattern, index: usize, n: usize) -> Span {
        let kind = self.index_kinds[index];
        let mut span = Span {
            index,
            keys: Some(self.indexes[index].prefix_span(pattern, n)),
            adds: [(0, 0); RUNS],
            dead: [(0, 0); RUNS],
            filter: !kind.covers(pattern, n),
        };
        for (r, run) in self.runs.iter().enumerate() {
            if let (Some(adds), Some(dead)) = (run.adds.get(index), run.dead.get(index)) {
                span.adds[r] = adds.prefix_span(pattern, n);
                span.dead[r] = dead.prefix_span(pattern, n);
            }
        }
        span
    }

    /// The sorted keys `span`'s ranges index: the base index, then each
    /// run's adds, then each run's tombstones.
    pub(crate) fn span_keys(&self, span: &Span) -> [&[Key]; 1 + 2 * RUNS] {
        let i = span.index;
        let [sealed, top] = [&self.runs[SEALED], &self.runs[TOP]];
        [
            self.indexes[i].keys(),
            sealed.adds(i),
            top.adds(i),
            sealed.dead(i),
            top.dead(i),
        ]
    }

    /// The quads of `span` that match `pattern` (see [`MemberRead`]), which
    /// must have been resolved for a pattern binding the same positions.
    #[inline]
    pub(crate) fn read(&self, pattern: &QuadPattern, span: Span) -> MemberRead<'_> {
        let (lo, hi) = span.keys.unwrap_or_default();
        let mut read = MemberRead {
            pattern: *pattern,
            kind: self.index_kinds[span.index],
            keys: self.indexes[span.index].keys()[lo..hi].iter(),
            level: 0,
            last: 0,
            adds: [&[]; RUNS],
            dead: [&[]; RUNS],
            walk: [&[]; RUNS],
            filter: span.filter,
            plain: !span.filter,
            scanned: span.keys.map(|_| hi - lo),
            matched: 0,
            hits: 0,
            tally: true,
        };
        // No run range in the span (every bulk-loaded model): the base
        // range is the whole read.
        if span.adds.iter().chain(&span.dead).all(|(a, b)| a == b) {
            return read;
        }
        let [_, sealed, top, sealed_dead, top_dead] = self.span_keys(&span);
        fn range(keys: &[Key], (a, b): (usize, usize)) -> &[Key] {
            &keys[a..b]
        }
        read.adds = [range(sealed, span.adds[SEALED]), range(top, span.adds[TOP])];
        read.dead = [
            range(sealed_dead, span.dead[SEALED]),
            range(top_dead, span.dead[TOP]),
        ];
        read.walk = read.dead;
        read.last = read
            .adds
            .iter()
            .rposition(|a| !a.is_empty())
            .map_or(0, |r| r + 1);
        read.plain = !span.filter && read.dead.iter().all(|d| d.is_empty());
        read.scanned = span
            .keys
            .map(|_| hi - lo + read.adds.iter().map(|a| a.len()).sum::<usize>());
        read
    }

    /// Scans quads matching `pattern` through the best index, the runs
    /// included: a row view of the member read, tallied as it is when
    /// telemetry is on.
    pub fn scan(&self, pattern: QuadPattern) -> impl Iterator<Item = EncodedQuad> + '_ {
        self.read(&pattern, self.span(&pattern, None))
    }

    /// Estimated number of matches for `pattern`: exact on the base index
    /// span and on the sealed run's span, plus the top run's whole adds as
    /// slack.
    pub fn estimate(&self, pattern: &QuadPattern) -> usize {
        let span = self.span(pattern, None);
        let (lo, hi) = span.keys.unwrap_or_default();
        let (a, b) = span.adds[SEALED];
        hi - lo + b - a + self.runs[TOP].adds(0).len()
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
                        adds: Default::default(),
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
