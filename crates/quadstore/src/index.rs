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
    pub const PAPER_FOUR: [IndexKind; 4] = [
        IndexKind::PCSGM,
        IndexKind::PSCGM,
        IndexKind::SPCGM,
        IndexKind::GPSCM,
    ];

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

    /// The key slot holding quad position `position`: the inverse of
    /// [`Self::position_at`].
    pub(crate) fn slot_of(&self, position: usize) -> usize {
        self.0
            .iter()
            .position(|c| c.quad_position() == position)
            .expect("a permutation")
    }

    /// Whether every key of `pattern`'s bound-prefix span, `n` components
    /// long ([`Self::bound_prefix_len`]), matches it: the prefix pins each
    /// bound position, and the graph constraint is not `AnyNamed`, which
    /// no prefix expresses. Otherwise a read of the span filters it.
    pub(crate) fn covers(&self, pattern: &QuadPattern, n: usize) -> bool {
        !matches!(pattern.g, GraphConstraint::AnyNamed)
            && (n..4).all(|i| pattern.bound(self.position_at(i)).is_none())
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

/// The first index at or after `from` where `below` turns false, for a
/// `below` that holds on a prefix of `items` and fails on the rest:
/// exponential probing from `from`, then a binary search of the last
/// leap, so a forward walk pays O(log gap) per seek rather than
/// O(log len).
pub fn gallop<T>(items: &[T], from: usize, mut below: impl FnMut(&T) -> bool) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < items.len() && below(&items[hi]) {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(items.len());
    lo + items[lo..hi].partition_point(below)
}

/// The run `[a, b)` of keys in `[from, hi)` whose component `slot` equals
/// `k`, where the keys of `[from, hi)` are sorted on `slot`: two gallops
/// from `from`, so a seek costs O(log gap) past the last.
pub(crate) fn seek_run(
    keys: &[[u64; 4]],
    from: usize,
    hi: usize,
    slot: usize,
    k: u64,
) -> (usize, usize) {
    let keys = &keys[..hi];
    let a = gallop(keys, from, |key| key[slot] < k);
    (a, gallop(keys, a, |key| key[slot] == k))
}

/// `(base − removed) ∪ added` over sorted, deduplicated key runs: a key
/// both removed and added is kept, once.
pub(crate) fn fold(base: &[[u64; 4]], added: &[[u64; 4]], removed: &[[u64; 4]]) -> Vec<[u64; 4]> {
    let mut keys = Vec::with_capacity(base.len() + added.len());
    let (mut base, mut added, mut removed) = (base, added, removed);
    loop {
        let key = match (added.first(), removed.first()) {
            (None, None) => break,
            (Some(&a), Some(&r)) => a.min(r),
            (Some(&k), None) | (None, Some(&k)) => k,
        };
        let keep = added.first() == Some(&key);
        if keep {
            added = &added[1..];
        }
        if removed.first() == Some(&key) {
            removed = &removed[1..];
        }
        let at = gallop(base, 0, |k| *k < key);
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
    keys
}

/// A sorted-array index over the quads of one semantic model.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// and added is kept, once. Only the edits are sorted; the base keys
    /// are copied in runs between them, so folding a small delta into a
    /// large index costs one linear copy, not a sort of the model.
    pub fn merge(&self, added: &[EncodedQuad], removed: &[EncodedQuad]) -> SortedIndex {
        // A fresh bulk load: no base to copy, and no sorted copy of a
        // large input besides the build's own.
        if self.keys.is_empty() {
            return SortedIndex::build(self.kind, added);
        }
        let added = SortedIndex::build(self.kind, added);
        let removed = SortedIndex::build(self.kind, removed);
        self.fold(&added.keys, &removed.keys)
    }

    /// A new index holding `(self − removed) ∪ added`, for edits already
    /// sorted and deduplicated in this index's order: a key in both is
    /// kept, once. Each edit gallops to its place from the last one, and
    /// the keys between two edits are copied as one run.
    pub(crate) fn fold(&self, added: &[[u64; 4]], removed: &[[u64; 4]]) -> SortedIndex {
        SortedIndex {
            kind: self.kind,
            keys: fold(&self.keys, added, removed),
        }
    }

    /// An index of keys already sorted and deduplicated in `kind`'s order.
    pub(crate) fn sorted(kind: IndexKind, keys: Vec<[u64; 4]>) -> SortedIndex {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
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

    /// The keys, in this index's order.
    pub(crate) fn keys(&self) -> &[[u64; 4]] {
        &self.keys
    }

    /// The contiguous key range whose first `prefix.len()` components equal
    /// `prefix`. `prefix` may be empty (full index scan). One binary search
    /// finds the start; the end gallops forward from it, so a short span
    /// (a point probe's 0 or 1 keys) costs a few comparisons near `lo`
    /// instead of a second root-to-leaf search.
    fn prefix_range(&self, prefix: &[u64]) -> (usize, usize) {
        let n = prefix.len();
        debug_assert!(n <= 4);
        if n == 0 {
            return (0, self.keys.len());
        }
        // The prefix padded below and above, so both searches compare
        // whole keys.
        let (mut first, mut last) = ([0u64; 4], [u64::MAX; 4]);
        first[..n].copy_from_slice(prefix);
        last[..n].copy_from_slice(prefix);
        let lo = self.keys.partition_point(|k| *k < first);
        (lo, gallop(&self.keys, lo, |k| *k <= last))
    }

    /// The span of the keys whose first `n` components equal `pattern`'s
    /// values there (each of them bound): the one key-range function every
    /// read resolves its span with. The prefix is built on the stack, since
    /// a probe resolves one span per probed row.
    pub(crate) fn prefix_span(&self, pattern: &QuadPattern, n: usize) -> (usize, usize) {
        let mut prefix = [0u64; 4];
        for (i, slot) in prefix.iter_mut().enumerate().take(n) {
            *slot = pattern
                .bound(self.kind.position_at(i))
                .expect("prefix position bound");
        }
        self.prefix_range(&prefix[..n])
    }

    /// Whether the index contains an exact quad.
    pub(crate) fn contains(&self, quad: &EncodedQuad) -> bool {
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
        vec![
            q(1, 10, 2, 0),
            q(1, 10, 3, 0),
            q(2, 10, 3, 0),
            q(1, 11, 2, 5),
            q(3, 11, 4, 6),
        ]
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
        let (lo, hi) = idx.prefix_range(&[10]);
        assert_eq!(hi - lo, 3);
        assert!(idx.keys()[lo..hi]
            .iter()
            .all(|k| idx.kind().quad_of(k)[1] == 10));
    }

    #[test]
    fn empty_prefix_is_full_scan() {
        let idx = SortedIndex::build(IndexKind::PCSGM, &sample());
        assert_eq!(idx.prefix_range(&[]), (0, 5));
    }

    /// The quads of a one-index model over [`sample`] that match `pat`.
    fn scan(kind: IndexKind, pat: QuadPattern) -> Vec<EncodedQuad> {
        let mut m = crate::SemanticModel::new("m", &[kind]).unwrap();
        m.bulk_load(sample());
        m.scan(pat).collect()
    }

    #[test]
    fn scan_applies_residual_filter() {
        // PCSGM binds P; S is a residual filter.
        let pat = QuadPattern {
            s: Some(TermId(1)),
            p: Some(TermId(10)),
            o: None,
            g: GraphConstraint::DefaultOnly,
        };
        assert!(!IndexKind::PCSGM.covers(&pat, IndexKind::PCSGM.bound_prefix_len(&pat)));
        let hits = scan(IndexKind::PCSGM, pat);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h[0] == 1 && h[1] == 10 && h[3] == 0));
    }

    #[test]
    fn scan_any_named_filters_default_graph() {
        let pat = QuadPattern {
            s: None,
            p: None,
            o: None,
            g: GraphConstraint::AnyNamed,
        };
        assert!(!IndexKind::GSPCM.covers(&pat, IndexKind::GSPCM.bound_prefix_len(&pat)));
        let hits = scan(IndexKind::GSPCM, pat);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h[3] != 0));
    }

    #[test]
    fn prefix_count_is_exact() {
        let idx = SortedIndex::build(IndexKind::PCSGM, &sample());
        let count = |prefix: &[u64]| {
            let (lo, hi) = idx.prefix_range(prefix);
            hi - lo
        };
        assert_eq!(count(&[10]), 3);
        assert_eq!(count(&[10, 3]), 2);
        assert_eq!(count(&[99]), 0);
        assert_eq!(count(&[]), 5);
    }

    /// The galloping end search against the two-binary-search oracle:
    /// random indexes (empty ones too) under every key order, and prefixes
    /// of 0-4 components taken from the first key, the last key, a random
    /// key, or random values (spans at either end, inside, and empty).
    #[test]
    fn prefix_range_matches_two_binary_searches() {
        let mut r = twittergen::rng::Rng::seed_from_u64(31);
        for case in 0..600 {
            let quads: Vec<EncodedQuad> = (0..r.gen_range(0..80))
                .map(|_| [1..4, 1..4, 1..6, 0..3].map(|range| r.gen_range(range) as u64))
                .collect();
            let idx = SortedIndex::build(IndexKind::STANDARD_SIX[case % 6], &quads);
            for _ in 0..20 {
                let n = r.gen_range(0..5);
                let pick = r.gen_range(0..4);
                let prefix: Vec<u64> = match (pick, idx.keys.len()) {
                    (0, len) if len > 0 => idx.keys[0][..n].to_vec(),
                    (1, len) if len > 0 => idx.keys[len - 1][..n].to_vec(),
                    (2, len) if len > 0 => idx.keys[r.gen_range(0..len)][..n].to_vec(),
                    _ => (0..n).map(|_| r.gen_range(0..7) as u64).collect(),
                };
                let lo = idx.keys.partition_point(|k| k[..n] < *prefix);
                let hi = idx.keys.partition_point(|k| k[..n] <= *prefix);
                assert_eq!(
                    idx.prefix_range(&prefix),
                    (lo, hi),
                    "case {case} prefix {prefix:?}"
                );
            }
        }
    }

    #[test]
    fn gallop_finds_the_first_failing_item_from_any_start() {
        let items: Vec<u64> = (0..100).map(|i| i / 3).collect();
        for x in 0..36 {
            for from in 0..=items.len() {
                let want = from.max(items.partition_point(|&k| k < x));
                assert_eq!(gallop(&items, from, |&k| k < x), want, "x {x} from {from}");
            }
        }
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
        let added = [
            q(9, 10, 2, 0),
            q(1, 10, 2, 0),
            q(2, 10, 3, 0),
            q(9, 10, 2, 0),
        ];
        let removed = [q(2, 10, 3, 0), q(3, 11, 4, 6)];
        let merged = base.merge(&added, &removed);
        let want = [
            q(1, 10, 2, 0),
            q(1, 10, 3, 0),
            q(2, 10, 3, 0),
            q(1, 11, 2, 5),
            q(9, 10, 2, 0),
        ];
        assert_eq!(
            merged.keys,
            SortedIndex::build(IndexKind::GSPCM, &want).keys
        );
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
