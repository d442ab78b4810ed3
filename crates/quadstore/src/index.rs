//! Composite semantic-network indexes.
//!
//! Oracle lets users "create indexes with any of the various permutations
//! (with S, P, C, and G — ignoring M) as key" (§3.1); in practice six
//! permutations matter and two (PCSGM, PSCGM) are created by default. Each
//! index here is a fully-sorted array of permuted ID keys; a scan with a
//! bound prefix is two binary searches (an *index range scan*), and a scan
//! with no usable prefix walks the whole array (a *full index scan*).
//! Indexes are local to a semantic model, which is what the trailing `M`
//! of Oracle's index names denotes.

use std::fmt;

use crate::ids::{EncodedQuad, GraphConstraint, QuadPattern, G, O, P, S};

/// One of the four key components (the paper writes the object as `C`,
/// for canonical object).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Subject.
    S,
    /// Predicate.
    P,
    /// Canonical object.
    C,
    /// Graph (named-graph IRI, 0 for the default graph).
    G,
}

impl Component {
    fn quad_position(self) -> usize {
        match self {
            Component::S => S,
            Component::P => P,
            Component::C => O,
            Component::G => G,
        }
    }

    fn letter(self) -> char {
        match self {
            Component::S => 'S',
            Component::P => 'P',
            Component::C => 'C',
            Component::G => 'G',
        }
    }
}

/// An index key order: a permutation of `{S, P, C, G}`.
///
/// The model component `M` is implicit: every index is local to one
/// semantic model, so the display form appends `M` to match the paper's
/// index names (`PCSGM`, `GSPCM`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexKind(pub [Component; 4]);

impl IndexKind {
    /// `PCSGM` — default index #1 (unique) in Oracle.
    pub const PCSGM: IndexKind =
        IndexKind([Component::P, Component::C, Component::S, Component::G]);
    /// `PSCGM` — default index #2 in Oracle.
    pub const PSCGM: IndexKind =
        IndexKind([Component::P, Component::S, Component::C, Component::G]);
    /// `GSPCM` — named-graph access by (G, S).
    pub const GSPCM: IndexKind =
        IndexKind([Component::G, Component::S, Component::P, Component::C]);
    /// `GPSCM` — named-graph access by (G, P).
    pub const GPSCM: IndexKind =
        IndexKind([Component::G, Component::P, Component::S, Component::C]);
    /// `SPCGM` — subject-based access.
    pub const SPCGM: IndexKind =
        IndexKind([Component::S, Component::P, Component::C, Component::G]);
    /// `SCPGM` — subject-based access with object next.
    pub const SCPGM: IndexKind =
        IndexKind([Component::S, Component::C, Component::P, Component::G]);

    /// The six practically useful permutations (§3.1).
    pub const STANDARD_SIX: [IndexKind; 6] = [
        IndexKind::PCSGM,
        IndexKind::PSCGM,
        IndexKind::GSPCM,
        IndexKind::GPSCM,
        IndexKind::SPCGM,
        IndexKind::SCPGM,
    ];

    /// The experiment configuration of §4.4: "Four semantic network indexes
    /// were created: PCSGM, PSCGM, SPCGM, GPSCM."
    pub const PAPER_FOUR: [IndexKind; 4] =
        [IndexKind::PCSGM, IndexKind::PSCGM, IndexKind::SPCGM, IndexKind::GPSCM];

    /// Parses an index name such as `"PCSGM"` or `"pcsg"` (trailing `M`
    /// optional). Returns `None` unless the name is a permutation of SPCG.
    pub fn parse(name: &str) -> Option<IndexKind> {
        let letters: Vec<char> = name
            .trim()
            .to_ascii_uppercase()
            .chars()
            .filter(|&c| c != 'M')
            .collect();
        if letters.len() != 4 {
            return None;
        }
        let mut comps = [Component::S; 4];
        for (i, c) in letters.iter().enumerate() {
            comps[i] = match c {
                'S' => Component::S,
                'P' => Component::P,
                'C' | 'O' => Component::C,
                'G' => Component::G,
                _ => return None,
            };
        }
        let mut seen = [false; 4];
        for c in comps {
            let pos = c.quad_position();
            if seen[pos] {
                return None;
            }
            seen[pos] = true;
        }
        Some(IndexKind(comps))
    }

    /// Length of the key prefix that a pattern binds under this order —
    /// the number of leading key components whose value the pattern pins.
    pub fn bound_prefix_len(&self, pattern: &QuadPattern) -> usize {
        self.0
            .iter()
            .take_while(|c| pattern.bound(c.quad_position()).is_some())
            .count()
    }

    /// The quad position (0=S, 1=P, 2=O, 3=G) of the `i`-th key component.
    /// `position_at(bound_prefix_len(p))` is the first position a scan of
    /// `p` through this index emits in sorted order — what the grouped
    /// executor matches against its group key to get run-length input.
    pub fn position_at(&self, i: usize) -> usize {
        self.0[i].quad_position()
    }

    /// Permutes an SPOG-encoded quad into this index's key order.
    pub fn key_of(&self, quad: &EncodedQuad) -> [u64; 4] {
        [
            quad[self.0[0].quad_position()],
            quad[self.0[1].quad_position()],
            quad[self.0[2].quad_position()],
            quad[self.0[3].quad_position()],
        ]
    }

    /// Inverts [`Self::key_of`].
    pub fn quad_of(&self, key: &[u64; 4]) -> EncodedQuad {
        let mut quad = [0u64; 4];
        for (i, c) in self.0.iter().enumerate() {
            quad[c.quad_position()] = key[i];
        }
        quad
    }
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0 {
            write!(f, "{}", c.letter())?;
        }
        write!(f, "M")
    }
}

/// Appends position `positions[i]` of every quad to `cols[i]` and returns
/// the quad count: the row-wise fill of the columnar scans.
pub(crate) fn push_columns(
    quads: impl Iterator<Item = EncodedQuad>,
    positions: &[usize],
    cols: &mut [Vec<u64>],
) -> usize {
    let mut count = 0;
    for q in quads {
        for (col, &p) in cols.iter_mut().zip(positions) {
            col.push(q[p]);
        }
        count += 1;
    }
    count
}

/// A sorted-array index over the quads of one semantic model.
#[derive(Debug, Clone)]
pub struct SortedIndex {
    kind: IndexKind,
    /// Keys in the index's permuted order, fully sorted, deduplicated.
    keys: Vec<[u64; 4]>,
}

impl SortedIndex {
    /// Builds an index over SPOG-encoded quads. Input need not be sorted.
    pub fn build(kind: IndexKind, quads: &[EncodedQuad]) -> Self {
        let mut keys: Vec<[u64; 4]> = quads.iter().map(|q| kind.key_of(q)).collect();
        keys.sort_unstable();
        keys.dedup();
        SortedIndex { kind, keys }
    }

    /// A new index holding `(self − removed) ∪ added`: a key both removed
    /// and added is kept, once. Only the delta is sorted; the base keys
    /// are copied in runs between the delta keys, so folding a small delta
    /// into a large index costs one linear copy, not a sort of the model.
    pub fn merge(&self, added: &[EncodedQuad], removed: &[EncodedQuad]) -> SortedIndex {
        // A fresh bulk load: no base to copy, and no tagged copy of a
        // large input.
        if self.keys.is_empty() {
            return SortedIndex::build(self.kind, added);
        }
        let kind = self.kind;
        // Removals sort before additions of the same key, and the last
        // edit of a key decides whether it stays.
        let mut edits: Vec<([u64; 4], bool)> = removed
            .iter()
            .map(|q| (kind.key_of(q), false))
            .chain(added.iter().map(|q| (kind.key_of(q), true)))
            .collect();
        edits.sort_unstable();
        let mut keys = Vec::with_capacity(self.keys.len() + added.len());
        let mut base = &self.keys[..];
        for (i, &(key, keep)) in edits.iter().enumerate() {
            if edits.get(i + 1).is_some_and(|next| next.0 == key) {
                continue;
            }
            let at = base.partition_point(|k| *k < key);
            keys.extend_from_slice(&base[..at]);
            base = &base[at..];
            if base.first() == Some(&key) {
                base = &base[1..];
            }
            if keep {
                keys.push(key);
            }
        }
        keys.extend_from_slice(base);
        SortedIndex { kind, keys }
    }

    /// The key order of this index.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Number of index entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Estimated on-disk/in-memory bytes of this index: entries × key width
    /// (4 × 8 bytes) — the Table 9 analogue.
    pub fn approx_bytes(&self) -> usize {
        self.keys.len() * 32
    }

    /// The contiguous key range whose first `prefix.len()` components equal
    /// `prefix`. `prefix` may be empty (full index scan).
    fn prefix_range(&self, prefix: &[u64]) -> (usize, usize) {
        debug_assert!(prefix.len() <= 4);
        let lo = self.keys.partition_point(|k| k[..prefix.len()] < *prefix);
        let hi = self.keys.partition_point(|k| k[..prefix.len()] <= *prefix);
        (lo, hi)
    }

    /// Index range scan: yields quads (decoded back to SPOG order) whose
    /// key starts with `prefix`. Residual positions are *not* filtered here.
    pub fn scan_prefix<'a>(
        &'a self,
        prefix: &[u64],
    ) -> impl Iterator<Item = EncodedQuad> + 'a {
        let (lo, hi) = self.prefix_range(prefix);
        let kind = self.kind;
        self.keys[lo..hi].iter().map(move |k| kind.quad_of(k))
    }

    /// Exact number of keys sharing `prefix` — this is what the planner
    /// uses for selectivity estimation.
    pub fn prefix_count(&self, prefix: &[u64]) -> usize {
        let (lo, hi) = self.prefix_range(prefix);
        hi - lo
    }

    /// Exact number of keys under `pattern`'s bound prefix. This is the
    /// per-probe hot path for fully-bound existence checks (e.g. the
    /// closing edge of a triangle count runs once per candidate wedge).
    pub fn pattern_count(&self, pattern: &QuadPattern) -> usize {
        let (lo, hi) = self.pattern_span(pattern);
        hi - lo
    }

    /// The absolute key span `[lo, hi)` that a scan of `pattern` would
    /// walk under this index's order — the unit that morsel-driven
    /// execution chunks into fixed-size work items. The prefix is built
    /// on the stack: every scan, count and estimate runs this once per
    /// index probe, so an allocation here would be one per probed row.
    pub fn pattern_span(&self, pattern: &QuadPattern) -> (usize, usize) {
        let n = self.kind.bound_prefix_len(pattern);
        let mut prefix = [0u64; 4];
        for (i, slot) in prefix.iter_mut().enumerate().take(n) {
            *slot = pattern.bound(self.kind.position_at(i)).expect("prefix position bound");
        }
        self.prefix_range(&prefix[..n])
    }

    /// Scans an absolute key sub-span (clamped to the index length),
    /// applying the same residual filtering as [`Self::scan`]. Chunking a
    /// pattern's [`Self::pattern_span`] and scanning each chunk yields
    /// exactly the quads of `scan(pattern)`, in the same order.
    pub fn scan_span<'a>(
        &'a self,
        pattern: QuadPattern,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = EncodedQuad> + 'a {
        let lo = lo.min(self.keys.len());
        let hi = hi.min(self.keys.len()).max(lo);
        let kind = self.kind;
        self.keys[lo..hi]
            .iter()
            .map(move |k| kind.quad_of(k))
            .filter(move |q| pattern.matches(q))
    }

    /// Columnar variant of [`Self::scan_span`]: fills one ID column per
    /// requested quad position (`positions[i]` → `cols[i]`) instead of
    /// yielding decoded quads. Returns the number of matching entries
    /// (every column grows by exactly that many values).
    ///
    /// When the pattern needs no residual filtering — every bound
    /// component is covered by the index prefix and the graph constraint
    /// is not `AnyNamed` — the columns are copied straight out of the
    /// sorted key runs without decoding quads at all, which is the
    /// vectorized executor's hot path.
    pub fn scan_span_columns(
        &self,
        pattern: &QuadPattern,
        lo: usize,
        hi: usize,
        positions: &[usize],
        cols: &mut [Vec<u64>],
    ) -> usize {
        debug_assert_eq!(positions.len(), cols.len());
        let lo = lo.min(self.keys.len());
        let hi = hi.min(self.keys.len()).max(lo);
        if lo == hi {
            return 0;
        }
        let n = self.kind.bound_prefix_len(pattern);
        let mut residual = matches!(pattern.g, GraphConstraint::AnyNamed);
        for i in n..4 {
            if pattern.bound(self.kind.position_at(i)).is_some() {
                residual = true;
            }
        }
        // Key slot holding each quad position under this index's order.
        let mut slot_of = [0usize; 4];
        for (i, c) in self.kind.0.iter().enumerate() {
            slot_of[c.quad_position()] = i;
        }
        if !residual {
            for (col, &p) in cols.iter_mut().zip(positions) {
                let s = slot_of[p];
                col.extend(self.keys[lo..hi].iter().map(|k| k[s]));
            }
            return hi - lo;
        }
        push_columns(self.scan_span(*pattern, lo, hi), positions, cols)
    }

    /// Extracts the bound-prefix values of `pattern` under this index's
    /// order (stopping at the first unbound component). Scans build their
    /// prefix on the stack ([`Self::pattern_span`]); this allocating form
    /// is the independent construction property tests check them against.
    pub fn prefix_for(&self, pattern: &QuadPattern) -> Vec<u64> {
        let n = self.kind.bound_prefix_len(pattern);
        (0..n)
            .map(|i| pattern.bound(self.kind.0[i].quad_position()).unwrap())
            .collect()
    }

    /// Scans all quads matching `pattern`, applying residual filtering for
    /// components the prefix does not cover.
    pub fn scan<'a>(&'a self, pattern: QuadPattern) -> impl Iterator<Item = EncodedQuad> + 'a {
        let (lo, hi) = self.pattern_span(&pattern);
        self.scan_span(pattern, lo, hi)
    }

    /// Whether the index contains an exact quad.
    pub fn contains(&self, quad: &EncodedQuad) -> bool {
        self.keys.binary_search(&self.kind.key_of(quad)).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GraphConstraint;
    use rdf_model::TermId;

    fn q(s: u64, p: u64, o: u64, g: u64) -> EncodedQuad {
        [s, p, o, g]
    }

    fn sample() -> Vec<EncodedQuad> {
        vec![q(1, 10, 2, 0), q(1, 10, 3, 0), q(2, 10, 3, 0), q(1, 11, 2, 5), q(3, 11, 4, 6)]
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(IndexKind::PCSGM.to_string(), "PCSGM");
        assert_eq!(IndexKind::GSPCM.to_string(), "GSPCM");
        assert_eq!(IndexKind::SCPGM.to_string(), "SCPGM");
    }

    #[test]
    fn parse_names() {
        assert_eq!(IndexKind::parse("PCSGM"), Some(IndexKind::PCSGM));
        assert_eq!(IndexKind::parse("pscg"), Some(IndexKind::PSCGM));
        assert_eq!(IndexKind::parse("PPSG"), None);
        assert_eq!(IndexKind::parse("PCS"), None);
        assert_eq!(IndexKind::parse("XCSG"), None);
    }

    #[test]
    fn key_roundtrip() {
        let quad = q(1, 2, 3, 4);
        for kind in IndexKind::STANDARD_SIX {
            assert_eq!(kind.quad_of(&kind.key_of(&quad)), quad);
        }
    }

    #[test]
    fn bound_prefix_lengths() {
        let pat = QuadPattern {
            s: None,
            p: Some(TermId(10)),
            o: Some(TermId(3)),
            g: GraphConstraint::DefaultOnly,
        };
        // PCSGM: P bound, C bound, S unbound -> prefix 2.
        assert_eq!(IndexKind::PCSGM.bound_prefix_len(&pat), 2);
        // PSCGM: P bound, S unbound -> prefix 1.
        assert_eq!(IndexKind::PSCGM.bound_prefix_len(&pat), 1);
        // GPSCM: G bound (default graph), P bound, S unbound -> 2.
        assert_eq!(IndexKind::GPSCM.bound_prefix_len(&pat), 2);
        // SPCGM: S unbound -> 0.
        assert_eq!(IndexKind::SPCGM.bound_prefix_len(&pat), 0);
    }

    #[test]
    fn range_scan_by_predicate() {
        let idx = SortedIndex::build(IndexKind::PCSGM, &sample());
        let hits: Vec<_> = idx.scan_prefix(&[10]).collect();
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|h| h[1] == 10));
    }

    #[test]
    fn empty_prefix_is_full_scan() {
        let idx = SortedIndex::build(IndexKind::PCSGM, &sample());
        assert_eq!(idx.scan_prefix(&[]).count(), 5);
    }

    #[test]
    fn scan_applies_residual_filter() {
        let idx = SortedIndex::build(IndexKind::PCSGM, &sample());
        // Pattern binds S (residual for PCSGM when P unbound... here P bound).
        let pat = QuadPattern {
            s: Some(TermId(1)),
            p: Some(TermId(10)),
            o: None,
            g: GraphConstraint::DefaultOnly,
        };
        let hits: Vec<_> = idx.scan(pat).collect();
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h[0] == 1 && h[1] == 10 && h[3] == 0));
    }

    #[test]
    fn scan_any_named_filters_default_graph() {
        let idx = SortedIndex::build(IndexKind::GSPCM, &sample());
        let pat = QuadPattern { s: None, p: None, o: None, g: GraphConstraint::AnyNamed };
        let hits: Vec<_> = idx.scan(pat).collect();
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h[3] != 0));
    }

    #[test]
    fn prefix_count_is_exact() {
        let idx = SortedIndex::build(IndexKind::PCSGM, &sample());
        assert_eq!(idx.prefix_count(&[10]), 3);
        assert_eq!(idx.prefix_count(&[10, 3]), 2);
        assert_eq!(idx.prefix_count(&[99]), 0);
        assert_eq!(idx.prefix_count(&[]), 5);
    }

    #[test]
    fn build_dedups() {
        let quads = vec![q(1, 2, 3, 0), q(1, 2, 3, 0)];
        let idx = SortedIndex::build(IndexKind::PCSGM, &quads);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn merge_keeps_added_over_removed_and_dedups() {
        let base = SortedIndex::build(IndexKind::GSPCM, &sample());
        // Re-adds a base key, adds one key twice, and both removes and adds
        // (2, 10, 3, 0): the addition wins.
        let added = [q(9, 10, 2, 0), q(1, 10, 2, 0), q(2, 10, 3, 0), q(9, 10, 2, 0)];
        let removed = [q(2, 10, 3, 0), q(3, 11, 4, 6)];
        let merged = base.merge(&added, &removed);
        let want = [q(1, 10, 2, 0), q(1, 10, 3, 0), q(2, 10, 3, 0), q(1, 11, 2, 5), q(9, 10, 2, 0)];
        assert_eq!(merged.keys, SortedIndex::build(IndexKind::GSPCM, &want).keys);
    }

    #[test]
    fn contains_exact() {
        let idx = SortedIndex::build(IndexKind::SPCGM, &sample());
        assert!(idx.contains(&q(1, 10, 2, 0)));
        assert!(!idx.contains(&q(1, 10, 2, 5)));
    }

    #[test]
    fn approx_bytes_scales_with_entries() {
        let idx = SortedIndex::build(IndexKind::PCSGM, &sample());
        assert_eq!(idx.approx_bytes(), 5 * 32);
    }
}
