//! Group keys numbered densely, in the order they first arrive.
//!
//! The keys sit in one `Vec<u64>`, `width` words per group, an unbound
//! key slot as [`UNBOUND`]. The join table's [`Chains`] index them by
//! key hash: a lookup hashes the key once, walks one chain and compares
//! key words. When the groups outnumber the buckets, the chains are
//! rebuilt over twice as many. A table of `n` groups is three growing
//! allocations (keys, heads, links), whatever its key width; a caller
//! keeps its per-group values in its own flat vectors, indexed by group
//! number.

use super::join_table::{key_hash, Chains};

/// An unbound group key slot. No ID is this word: store IDs count up
/// from zero, and computed IDs count up from `COMPUTED_BIT`.
pub(super) const UNBOUND: u64 = u64::MAX;

/// A row's group key slot as a key word.
pub(super) fn key_word(id: Option<u64>) -> u64 {
    id.unwrap_or(UNBOUND)
}

/// A key word as a row's slot value.
pub(super) fn slot_value(word: u64) -> Option<u64> {
    (word != UNBOUND).then_some(word)
}

/// Group keys of one width, numbered `0..len()` in insertion order.
pub(super) struct GroupKeys {
    width: usize,
    keys: Vec<u64>,
    chains: Chains,
}

impl GroupKeys {
    /// An empty table of `width`-word keys.
    pub(super) fn new(width: usize) -> Self {
        GroupKeys {
            width,
            keys: Vec::new(),
            chains: Chains::new(0, |_| None),
        }
    }

    /// Groups held.
    pub(super) fn len(&self) -> usize {
        self.chains.len()
    }

    /// Group `g`'s key.
    pub(super) fn key(&self, g: usize) -> &[u64] {
        &self.keys[g * self.width..][..self.width]
    }

    /// The number of the group keyed `key`, and whether this call added
    /// it (as number [`Self::len`] before the call).
    pub(super) fn insert(&mut self, key: &[u64]) -> (usize, bool) {
        debug_assert_eq!(key.len(), self.width);
        let hash = key_hash(key.iter().copied());
        if let Some(g) = self.chains.bucket(hash).find(|&g| self.key(g) == key) {
            return (g, false);
        }
        let g = self.len();
        self.keys.extend_from_slice(key);
        if g == self.chains.buckets() {
            let (keys, width) = (&self.keys, self.width);
            let rehash = |g: usize| Some(key_hash(keys[g * width..][..width].iter().copied()));
            self.chains = Chains::with_buckets(2 * g.max(1), g + 1, rehash);
        } else {
            self.chains.push(hash);
        }
        (g, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Keys drawn from a small range, so they repeat, against a map that
    /// numbers them in arrival order.
    #[test]
    fn numbers_follow_first_arrival() {
        for width in [0usize, 1, 2, 3] {
            let mut table = GroupKeys::new(width);
            let mut oracle: HashMap<Vec<u64>, usize> = HashMap::new();
            let mut state = 7u64 + width as u64;
            for _ in 0..5_000 {
                let key: Vec<u64> = (0..width)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        match (state >> 33) % 41 {
                            40 => UNBOUND,
                            w => w,
                        }
                    })
                    .collect();
                let next = oracle.len();
                let want = *oracle.entry(key.clone()).or_insert(next);
                assert_eq!(table.insert(&key), (want, want == next), "{key:?}");
            }
            assert_eq!(table.len(), oracle.len());
            for (key, g) in oracle {
                assert_eq!(table.key(g), key.as_slice());
            }
        }
    }

    #[test]
    fn unbound_round_trips() {
        assert_eq!(slot_value(key_word(None)), None);
        assert_eq!(slot_value(key_word(Some(5))), Some(5));
    }
}
