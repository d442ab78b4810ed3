//! Hash-join build sides: one flat chained table.
//!
//! The build side's rows sit in one `Vec`, in scan order. A power-of-two
//! `heads` array maps a key hash to the first row of its bucket, and
//! `next` links each row to the following row of the same bucket. The
//! chains are filled back to front, so every bucket, and with it every
//! key's matches, runs in scan order. A probe hashes its key once, walks
//! one chain and compares the key positions. A build of `n` rows is three
//! allocations (rows, `heads`, `next`), however many distinct keys it
//! holds.

use quadstore::EncodedQuad;

use super::mix;

/// End of a chain.
const NIL: u32 = u32::MAX;

/// The most rows one table indexes: row indices are `u32`, and the last
/// value is [`NIL`].
pub(super) const MAX_ROWS: usize = NIL as usize;

/// The hash of a key: each word mixed once, in order.
pub(super) fn key_hash(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0, mix)
}

/// The hash of a row's `slots`, or `None` if one is unbound.
pub(super) fn row_hash(row: &[Option<u64>], slots: &[usize]) -> Option<u64> {
    slots
        .iter()
        .try_fold(0, |hash, &s| row[s].map(|id| mix(hash, id)))
}

/// Bucket chains over rows `0..len`, each chain in ascending row order.
pub(super) struct Chains {
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl Chains {
    /// Chains rows `0..len` (at most [`MAX_ROWS`]) by `hash(row)`. A row
    /// whose hash is `None` joins no chain.
    pub(super) fn new(len: usize, hash: impl FnMut(usize) -> Option<u64>) -> Self {
        Self::with_buckets(len.next_power_of_two(), len, hash)
    }

    /// [`Self::new`] over `buckets` buckets, a power of two.
    pub(super) fn with_buckets(
        buckets: usize,
        len: usize,
        mut hash: impl FnMut(usize) -> Option<u64>,
    ) -> Self {
        assert!(
            buckets.is_power_of_two() && len <= MAX_ROWS,
            "{len} rows in {buckets} buckets"
        );
        let mask = buckets as u64 - 1;
        let mut heads = vec![NIL; buckets];
        let mut next = vec![NIL; len];
        for row in (0..len).rev() {
            if let Some(h) = hash(row) {
                let head = &mut heads[(h & mask) as usize];
                next[row] = *head;
                *head = row as u32;
            }
        }
        Chains { heads, next }
    }

    /// Rows chained so far.
    pub(super) fn len(&self) -> usize {
        self.next.len()
    }

    /// Buckets the rows are chained over.
    pub(super) fn buckets(&self) -> usize {
        self.heads.len()
    }

    /// Chains row [`Self::len`] by `hash`, first in its bucket: the
    /// bucket no longer runs in row order, so only a table of distinct
    /// keys, which never walks past its one match, appends rows.
    pub(super) fn push(&mut self, hash: u64) {
        assert!(self.next.len() < MAX_ROWS, "more than {MAX_ROWS} rows");
        let mask = self.heads.len() as u64 - 1;
        let head = &mut self.heads[(hash & mask) as usize];
        self.next.push(*head);
        *head = self.next.len() as u32 - 1;
    }

    /// The rows whose hash shares `hash`'s bucket, in ascending order: a
    /// superset of the rows with that hash, which the caller filters.
    pub(super) fn bucket(&self, hash: u64) -> Bucket<'_> {
        let mask = self.heads.len() as u64 - 1;
        Bucket {
            next: &self.next,
            row: self.heads[(hash & mask) as usize],
        }
    }
}

/// A walk down one chain.
pub(super) struct Bucket<'a> {
    next: &'a [u32],
    row: u32,
}

impl Iterator for Bucket<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.row == NIL {
            return None;
        }
        let row = self.row as usize;
        self.row = self.next[row];
        Some(row)
    }
}

/// A hash-join build side: quads in scan order, chained on the key
/// positions. Keys are store dictionary IDs (never attacker-controlled),
/// so the cheap multiply-rotate [`mix`] replaces SipHash.
pub(super) struct BuildTable {
    quads: Vec<EncodedQuad>,
    positions: Vec<usize>,
    chains: Chains,
}

impl BuildTable {
    /// Chains `quads` (at most [`MAX_ROWS`]) on the quad `positions`.
    pub(super) fn new(quads: Vec<EncodedQuad>, positions: Vec<usize>) -> Self {
        let chains = Chains::new(quads.len(), |i| Some(quad_hash(&quads[i], &positions)));
        BuildTable {
            quads,
            positions,
            chains,
        }
    }

    /// The quads whose key positions hold `key`, in scan order.
    pub(super) fn get<'a>(&'a self, key: &'a [u64]) -> impl Iterator<Item = &'a EncodedQuad> + 'a {
        self.chains
            .bucket(key_hash(key.iter().copied()))
            .map(|row| &self.quads[row])
            .filter(move |quad| self.positions.iter().zip(key).all(|(&p, &k)| quad[p] == k))
    }
}

fn quad_hash(quad: &EncodedQuad, positions: &[usize]) -> u64 {
    key_hash(positions.iter().map(|&p| quad[p]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` quads drawn from a small ID range, so keys repeat, in a fixed
    /// pseudo-random order that stands in for a scan.
    fn scanned(n: usize, ids: u64, seed: u64) -> Vec<EncodedQuad> {
        let mut state = seed;
        let mut draw = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % ids + 1
        };
        (0..n).map(|_| [draw(), draw(), draw(), draw()]).collect()
    }

    /// The oracle: a naive filter over the scanned quads, in scan order.
    fn oracle(quads: &[EncodedQuad], positions: &[usize], key: &[u64]) -> Vec<EncodedQuad> {
        quads
            .iter()
            .filter(|q| positions.iter().zip(key).all(|(&p, &k)| q[p] == k))
            .copied()
            .collect()
    }

    /// Every key present in `quads` plus a few absent ones, each probed
    /// against the oracle.
    fn check(table: &BuildTable, quads: &[EncodedQuad], positions: &[usize], ids: u64) {
        let mut keys: Vec<Vec<u64>> = quads
            .iter()
            .map(|q| positions.iter().map(|&p| q[p]).collect())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.push(vec![0; positions.len()]);
        keys.push(vec![ids + 1; positions.len()]);
        keys.push(vec![u64::MAX; positions.len()]);
        for key in keys {
            let got: Vec<EncodedQuad> = table.get(&key).copied().collect();
            assert_eq!(
                got,
                oracle(quads, positions, &key),
                "key {key:?} on {positions:?}"
            );
        }
    }

    #[test]
    fn duplicate_keys_keep_scan_order() {
        let quads = scanned(2_000, 20, 1);
        for positions in [vec![0], vec![2], vec![3]] {
            let table = BuildTable::new(quads.clone(), positions.clone());
            check(&table, &quads, &positions, 20);
            let key = [quads[7][positions[0]]];
            assert!(table.get(&key).count() > 50, "ID {key:?} repeats");
        }
    }

    #[test]
    fn two_position_keys_match_both_positions() {
        let quads = scanned(3_000, 12, 2);
        for positions in [vec![0, 2], vec![2, 0], vec![1, 3]] {
            let table = BuildTable::new(quads.clone(), positions.clone());
            check(&table, &quads, &positions, 12);
        }
    }

    #[test]
    fn one_chain_holding_every_key_still_filters_and_orders() {
        let quads = scanned(500, 40, 3);
        let positions = vec![0, 2];
        let hash = |i: usize| Some(quad_hash(&quads[i], &positions));
        let chains = Chains::with_buckets(1, quads.len(), hash);
        assert_eq!(
            chains.bucket(0).collect::<Vec<_>>(),
            (0..quads.len()).collect::<Vec<_>>()
        );
        let table = BuildTable {
            quads: quads.clone(),
            positions: positions.clone(),
            chains,
        };
        check(&table, &quads, &positions, 40);
    }

    #[test]
    fn empty_builds_and_absent_keys_match_nothing() {
        let table = BuildTable::new(Vec::new(), vec![0]);
        for key in [0, 1, u64::MAX] {
            assert_eq!(table.get(&[key]).count(), 0);
        }
        let quads = vec![[1, 2, 3, 4], [1, 5, 6, 7]];
        let table = BuildTable::new(quads, vec![0, 1]);
        assert_eq!(table.get(&[1, 2]).count(), 1);
        assert_eq!(table.get(&[2, 1]).count(), 0);
        assert_eq!(table.get(&[1, 3]).count(), 0);
    }

    /// Row indices are `u32`: a build side over the cap fails the query
    /// with a typed error instead of wrapping an index.
    #[test]
    fn a_build_over_the_row_cap_exhausts_the_query() {
        use crate::exec::{build_table_capped, EvalCtx};
        use crate::plan::{compile_with, CForm, CompileOptions, ForcedJoin, Node, Strategy};
        use crate::SparqlError;
        use rdf_model::{Quad, Term};

        let store = quadstore::Store::new();
        store.create_model("m").unwrap();
        let quads: Vec<Quad> = (0..5)
            .map(|i| {
                let n = |i: usize| Term::iri(format!("http://n{i}"));
                Quad::triple(n(i), Term::iri("http://p"), n(i + 1)).unwrap()
            })
            .collect();
        store.bulk_load("m", &quads).unwrap();
        let view = store.dataset("m").unwrap();
        let query =
            crate::parse_query("SELECT * WHERE { ?x <http://p> ?y . ?y <http://p> ?z }").unwrap();
        let options = CompileOptions {
            force_join: Some(ForcedJoin::Hash),
            ..Default::default()
        };
        let compiled = compile_with(&view, &query, options).unwrap();
        let CForm::Select(sel) = &compiled.form else {
            panic!("expected a select")
        };
        let Node::Steps(steps) = &sel.root else {
            panic!("expected one BGP")
        };
        let (step, slots) = steps
            .iter()
            .find_map(|s| match &s.strategy {
                Strategy::HashJoin { join_slots } => Some((s, join_slots)),
                _ => None,
            })
            .expect("a hash step");
        for (cap, fails) in [(5, false), (4, true)] {
            let ctx = EvalCtx::for_query(&view, &compiled);
            let table = build_table_capped(&ctx, step, slots, cap);
            match ctx.abort_error() {
                Some(SparqlError::ResourceExhausted(reason)) if fails => {
                    assert!(reason.contains("more than 4 rows"), "{reason}");
                    assert!(table.quads.is_empty(), "a failed build holds no rows");
                }
                None if !fails => assert_eq!(table.quads.len(), 5),
                other => panic!("cap {cap}: {other:?}"),
            }
        }
    }

    #[test]
    fn rows_without_a_hash_join_no_chain() {
        let chains = Chains::new(6, |i| (i % 2 == 0).then_some(7));
        assert_eq!(chains.bucket(7).collect::<Vec<_>>(), [0, 2, 4]);
    }
}
