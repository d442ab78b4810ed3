//! Dictionary (ID) encoding of RDF terms.
//!
//! Like Oracle's RDF store, all quad components are stored as numeric
//! identifiers, never as lexical values: "All of these columns hold numeric
//! identifiers, not lexical values, because they are ID-based" (§3.1).
//! Literals are canonicalised before interning, so the object-position ID is
//! the *canonical object* ("C") of the paper's index keys.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::term::Term;

/// A numeric identifier for an interned RDF term.
///
/// `TermId(0)` is reserved as the sentinel for the default (unnamed) graph
/// in the quad store's encoded representation and never names a real term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u64);

impl TermId {
    /// The reserved sentinel used for the default graph.
    pub const DEFAULT_GRAPH: TermId = TermId(0);

    /// True if this is the default-graph sentinel.
    pub fn is_default_graph(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A bidirectional map between [`Term`]s and [`TermId`]s.
///
/// This is the "values table" of an ID-based RDF store. Interning a literal
/// first canonicalises it (see [`crate::Literal::canonical`]) so that
/// value-equal numerics share an ID.
///
/// Each term's text is stored once: interning a new term copies its text
/// into one fresh allocation (`Term::unshared`) that `terms`, the `ids`
/// key and every [`Dictionary::lookup`] clone share by reference count.
/// The copy is fresh rather than the caller's own so that the dictionary,
/// which lives as long as the store, never pins an allocation made among a
/// loader's short-lived duplicates: those would free around it and leave
/// holes that every later small allocation lands in.
#[derive(Debug, Default)]
pub struct Dictionary {
    terms: Vec<Term>,
    ids: HashMap<Term, TermId>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Interns a term, returning its (possibly pre-existing) ID.
    pub fn intern(&mut self, term: &Term) -> TermId {
        let canonical = Self::canonicalise(term);
        if let Some(&id) = self.ids.get(canonical.as_ref()) {
            return id;
        }
        let owned = canonical.unshared();
        // IDs start at 1; 0 is the default-graph sentinel.
        let id = TermId(self.terms.len() as u64 + 1);
        self.terms.push(owned.clone());
        self.ids.insert(owned, id);
        id
    }

    /// Looks up the ID of a term without interning it.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        let canonical = Self::canonicalise(term);
        self.ids.get(canonical.as_ref()).copied()
    }

    /// Resolves an ID back to its term. Returns `None` for the
    /// default-graph sentinel and for IDs never issued.
    pub fn lookup(&self, id: TermId) -> Option<&Term> {
        if id.0 == 0 {
            return None;
        }
        self.terms.get((id.0 - 1) as usize)
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(id, term)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u64 + 1), t))
    }

    /// Approximate heap bytes used by the stored lexical values; feeds the
    /// "Values Table" row of the storage report (Table 9 analogue).
    pub fn approx_value_bytes(&self) -> usize {
        self.terms
            .iter()
            .map(|t| match t {
                Term::Iri(iri) => iri.as_str().len() + 16,
                Term::Blank(b) => b.as_str().len() + 16,
                Term::Literal(lit) => {
                    lit.lexical().len()
                        + lit.datatype_iri().map(|d| d.as_str().len()).unwrap_or(0)
                        + lit.lang().map(|l| l.len()).unwrap_or(0)
                        + 16
                }
            })
            .sum()
    }

    fn canonicalise(term: &Term) -> std::borrow::Cow<'_, Term> {
        match term {
            Term::Literal(lit) => match lit.canonical() {
                std::borrow::Cow::Borrowed(_) => std::borrow::Cow::Borrowed(term),
                std::borrow::Cow::Owned(c) => std::borrow::Cow::Owned(Term::Literal(c)),
            },
            _ => std::borrow::Cow::Borrowed(term),
        }
    }
}

/// An immutable, contiguous run of interned terms covering the ID range
/// `[first_id, first_id + terms.len())`. Segments are the sharing unit of
/// the MVCC dictionary: snapshots hold `Arc`s to segments, so publishing a
/// new dictionary generation never copies previously frozen terms. Its
/// `terms` and `ids` keys share each term's text, as [`Dictionary`]'s do.
#[derive(Debug)]
pub struct DictSegment {
    first_id: u64,
    terms: Vec<Term>,
    ids: HashMap<Term, TermId>,
    value_bytes: usize,
}

impl DictSegment {
    fn new(first_id: u64, terms: Vec<Term>) -> Self {
        let ids = terms
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), TermId(first_id + i as u64)))
            .collect();
        let value_bytes = terms.iter().map(term_value_bytes).sum();
        DictSegment {
            first_id,
            terms,
            ids,
            value_bytes,
        }
    }

    /// Number of terms in this segment.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the segment holds no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// An immutable dictionary generation: a stack of [`DictSegment`]s whose ID
/// ranges are contiguous and start at 1. Cloning is O(#segments) — segment
/// contents are `Arc`-shared — which is what lets every published store
/// generation carry its own consistent dictionary view.
#[derive(Debug, Clone, Default)]
pub struct DictSnapshot {
    segments: Vec<Arc<DictSegment>>,
    len: usize,
}

impl DictSnapshot {
    /// Resolves an ID back to its term. Returns `None` for the
    /// default-graph sentinel and for IDs never issued in this generation.
    pub fn lookup(&self, id: TermId) -> Option<&Term> {
        if id.0 == 0 || id.0 > self.len as u64 {
            return None;
        }
        // Binary search for the segment whose range contains the ID.
        let seg = match self.segments.binary_search_by(|s| s.first_id.cmp(&id.0)) {
            Ok(i) => &self.segments[i],
            Err(0) => return None,
            Err(i) => &self.segments[i - 1],
        };
        seg.terms.get((id.0 - seg.first_id) as usize)
    }

    /// Looks up the ID of a term without interning it.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        let canonical = Dictionary::canonicalise(term);
        let probe = canonical.as_ref();
        // Probe newest segments first: recently interned terms are the
        // common case for DML-heavy workloads.
        self.segments
            .iter()
            .rev()
            .find_map(|s| s.ids.get(probe).copied())
    }

    /// Number of distinct interned terms in this generation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when this generation holds no terms.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(id, term)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.segments.iter().flat_map(|s| {
            s.terms
                .iter()
                .enumerate()
                .map(move |(i, t)| (TermId(s.first_id + i as u64), t))
        })
    }

    /// Approximate heap bytes used by the stored lexical values (segment
    /// totals are precomputed at freeze time, so this is O(#segments)).
    pub fn approx_value_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.value_bytes).sum()
    }
}

/// The writer-side dictionary of the MVCC store: frozen `Arc`-shared
/// segments plus a mutable tail. [`DictBuilder::freeze`] seals the tail
/// into a new segment and returns an immutable [`DictSnapshot`] sharing
/// all segments. Adjacent segments are merged LSM-style (whenever the
/// newest is at least as large as its predecessor), keeping the segment
/// count — and thus [`DictSnapshot::get`] probe cost — logarithmic.
#[derive(Debug, Default)]
pub struct DictBuilder {
    frozen: Vec<Arc<DictSegment>>,
    frozen_len: usize,
    tail_terms: Vec<Term>,
    tail_ids: HashMap<Term, TermId>,
}

impl DictBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        DictBuilder::default()
    }

    /// Interns a term, returning its (possibly pre-existing) ID. Literals
    /// are canonicalised, and a new term's text copied once, exactly like
    /// [`Dictionary::intern`]; freezing and segment merges share that copy.
    pub fn intern(&mut self, term: &Term) -> TermId {
        let canonical = Dictionary::canonicalise(term);
        if let Some(id) = self.get_canonical(canonical.as_ref()) {
            return id;
        }
        let owned = canonical.unshared();
        let id = TermId((self.frozen_len + self.tail_terms.len()) as u64 + 1);
        self.tail_terms.push(owned.clone());
        self.tail_ids.insert(owned, id);
        id
    }

    /// Looks up the ID of a term without interning it.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        let canonical = Dictionary::canonicalise(term);
        self.get_canonical(canonical.as_ref())
    }

    fn get_canonical(&self, probe: &Term) -> Option<TermId> {
        if let Some(&id) = self.tail_ids.get(probe) {
            return Some(id);
        }
        self.frozen
            .iter()
            .rev()
            .find_map(|s| s.ids.get(probe).copied())
    }

    /// Total number of interned terms (frozen + tail).
    pub fn len(&self) -> usize {
        self.frozen_len + self.tail_terms.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seals the mutable tail (if any) into a frozen segment and returns a
    /// snapshot sharing every segment.
    pub fn freeze(&mut self) -> DictSnapshot {
        if !self.tail_terms.is_empty() {
            let first_id = self.frozen_len as u64 + 1;
            let terms = std::mem::take(&mut self.tail_terms);
            self.tail_ids.clear();
            self.frozen_len += terms.len();
            self.frozen
                .push(Arc::new(DictSegment::new(first_id, terms)));
            // LSM merge: fold the newest segment into its predecessor while
            // it is at least as large, bounding the segment count at
            // O(log n) without ever rewriting the big old segments.
            while self.frozen.len() >= 2 {
                let last = self.frozen.len() - 1;
                if self.frozen[last].len() < self.frozen[last - 1].len() {
                    break;
                }
                let newer = self.frozen.pop().expect("len checked");
                let older = self.frozen.pop().expect("len checked");
                let mut terms = older.terms.clone();
                terms.extend(newer.terms.iter().cloned());
                self.frozen
                    .push(Arc::new(DictSegment::new(older.first_id, terms)));
            }
        }
        DictSnapshot {
            segments: self.frozen.clone(),
            len: self.frozen_len,
        }
    }
}

fn term_value_bytes(t: &Term) -> usize {
    match t {
        Term::Iri(iri) => iri.as_str().len() + 16,
        Term::Blank(b) => b.as_str().len() + 16,
        Term::Literal(lit) => {
            lit.lexical().len()
                + lit.datatype_iri().map(|d| d.as_str().len()).unwrap_or(0)
                + lit.lang().map(|l| l.len()).unwrap_or(0)
                + 16
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Iri, Literal};
    use crate::vocab::xsd;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("http://pg/v1"));
        let b = d.intern(&Term::iri("http://pg/v1"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_start_at_one() {
        let mut d = Dictionary::new();
        let id = d.intern(&Term::iri("http://x"));
        assert_eq!(id, TermId(1));
        assert!(!id.is_default_graph());
        assert!(TermId::DEFAULT_GRAPH.is_default_graph());
    }

    #[test]
    fn lookup_roundtrips() {
        let mut d = Dictionary::new();
        let t = Term::string("Amy");
        let id = d.intern(&t);
        assert_eq!(d.lookup(id), Some(&t));
        assert_eq!(d.lookup(TermId::DEFAULT_GRAPH), None);
        assert_eq!(d.lookup(TermId(999)), None);
    }

    #[test]
    fn numeric_literals_share_canonical_id() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::Literal(Literal::typed("023", Iri::new(xsd::INT))));
        let b = d.intern(&Term::Literal(Literal::typed("23", Iri::new(xsd::INT))));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn distinct_datatypes_get_distinct_ids() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::Literal(Literal::string("23")));
        let b = d.intern(&Term::int(23));
        assert_ne!(a, b);
    }

    #[test]
    fn get_canonicalises_probe() {
        let mut d = Dictionary::new();
        let id = d.intern(&Term::int(23));
        let probe = Term::Literal(Literal::typed("023", Iri::new(xsd::INT)));
        assert_eq!(d.get(&probe), Some(id));
        assert_eq!(d.get(&Term::iri("http://absent")), None);
    }

    #[test]
    fn iter_yields_in_order() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("http://a"));
        let b = d.intern(&Term::iri("http://b"));
        let pairs: Vec<_> = d.iter().map(|(id, _)| id).collect();
        assert_eq!(pairs, vec![a, b]);
    }

    #[test]
    fn value_bytes_grow_with_content() {
        let mut d = Dictionary::new();
        let before = d.approx_value_bytes();
        d.intern(&Term::iri("http://a-rather-long-iri/with/segments"));
        assert!(d.approx_value_bytes() > before);
    }

    #[test]
    fn builder_matches_dictionary_semantics() {
        let mut b = DictBuilder::new();
        let a = b.intern(&Term::iri("http://pg/v1"));
        assert_eq!(a, TermId(1));
        assert_eq!(b.intern(&Term::iri("http://pg/v1")), a);
        // Canonicalisation: value-equal numerics share an ID.
        let n = b.intern(&Term::Literal(Literal::typed("023", Iri::new(xsd::INT))));
        assert_eq!(b.intern(&Term::int(23)), n);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(&Term::iri("http://absent")), None);
    }

    #[test]
    fn snapshots_are_stable_across_later_interning() {
        let mut b = DictBuilder::new();
        let a = b.intern(&Term::iri("http://a"));
        let snap1 = b.freeze();
        let c = b.intern(&Term::iri("http://c"));
        let snap2 = b.freeze();
        // IDs survive across freezes, both directions, in both snapshots.
        assert_eq!(snap1.len(), 1);
        assert_eq!(snap2.len(), 2);
        assert_eq!(snap1.lookup(a), Some(&Term::iri("http://a")));
        assert_eq!(snap1.lookup(c), None, "old snapshot must not see new terms");
        assert_eq!(snap2.lookup(c), Some(&Term::iri("http://c")));
        assert_eq!(snap2.get(&Term::iri("http://a")), Some(a));
        assert_eq!(snap1.get(&Term::iri("http://c")), None);
    }

    /// The address of each text part of a term: its IRI, label or
    /// lexical form, then a literal's datatype and language tag.
    fn text_ptrs(term: &Term) -> Vec<*const u8> {
        let mut ptrs = vec![term.str_value().as_ptr()];
        if let Term::Literal(lit) = term {
            ptrs.extend(lit.datatype_iri().map(|d| d.as_str().as_ptr()));
            ptrs.extend(lit.lang().map(str::as_ptr));
        }
        ptrs
    }

    fn callers_terms() -> [Term; 4] {
        [
            Term::iri("http://pg/v1"),
            Term::blank("b1"),
            Term::Literal(Literal::typed("23", Iri::new(xsd::INT))),
            Term::Literal(Literal::lang_string("zug", "de")),
        ]
    }

    #[test]
    fn a_term_is_one_allocation_shared_by_both_maps_and_every_lookup() {
        let mut d = Dictionary::new();
        for caller in callers_terms() {
            let id = d.intern(&caller);
            let (key, _) = d.ids.get_key_value(&caller).expect("interned");
            let stored = &d.terms[(id.0 - 1) as usize];
            let first = d.lookup(id).expect("issued").clone();
            let second = d.lookup(id).expect("issued").clone();
            for looked_up in [stored, &first, &second] {
                assert_eq!(text_ptrs(looked_up), text_ptrs(key), "{caller}");
            }
            let ours = text_ptrs(key);
            assert!(
                text_ptrs(&caller).iter().all(|p| !ours.contains(p)),
                "{caller}: the dictionary keeps a fresh copy, not the caller's text"
            );
        }
    }

    #[test]
    fn frozen_segments_and_their_merges_share_the_interned_copy() {
        let mut b = DictBuilder::new();
        let mut interned = Vec::new();
        for caller in callers_terms() {
            let id = b.intern(&caller);
            let (key, _) = b.tail_ids.get_key_value(&caller).expect("interned");
            let ours = text_ptrs(key);
            assert!(
                text_ptrs(&caller).iter().all(|p| !ours.contains(p)),
                "{caller}: the builder keeps a fresh copy, not the caller's text"
            );
            interned.push((caller, id, ours));
            // A freeze per term merges segments of equal size LSM-style.
            b.freeze();
        }
        let snap = b.freeze();
        assert_eq!(
            snap.segments.len(),
            1,
            "four freezes merged into one segment"
        );
        let segment = &snap.segments[0];
        for (caller, id, ours) in interned {
            let (key, _) = segment.ids.get_key_value(&caller).expect("frozen");
            assert_eq!(text_ptrs(key), ours, "{caller}");
            assert_eq!(
                text_ptrs(snap.lookup(id).expect("issued")),
                ours,
                "{caller}"
            );
        }
    }

    #[test]
    fn many_freezes_keep_lookups_consistent() {
        let mut b = DictBuilder::new();
        let mut ids = Vec::new();
        for i in 0..100 {
            ids.push(b.intern(&Term::iri(format!("http://t{i}"))));
            // Freeze after every intern: worst case for segment churn.
            let snap = b.freeze();
            assert_eq!(snap.len(), i + 1);
        }
        let snap = b.freeze();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(snap.lookup(*id), Some(&Term::iri(format!("http://t{i}"))));
            assert_eq!(snap.get(&Term::iri(format!("http://t{i}"))), Some(*id));
        }
        let pairs: Vec<TermId> = snap.iter().map(|(id, _)| id).collect();
        assert_eq!(pairs, ids);
        assert!(snap.approx_value_bytes() > 0);
        assert_eq!(snap.lookup(TermId::DEFAULT_GRAPH), None);
        assert_eq!(snap.lookup(TermId(101)), None);
    }
}
