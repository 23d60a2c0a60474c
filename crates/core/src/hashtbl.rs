//! The functional hash tables behind the benchmark's group-by (Q4) and
//! hash join (Q5).
//!
//! Hashing is modelled as CPU time, not as memory traffic: each insert and
//! probe is charged `cost.hash_build`/`hash_probe` (and each group update
//! `cost.group_by`), constants that include the average cache behaviour of
//! the table, because the paper observes that hashing is a CPU-dominated,
//! path-independent cost (Figure 12b). The maps here therefore only compute
//! the queries' answers; they grow with the keys they hold and share one
//! deterministic hasher built on splitmix64.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `u64`-keyed map hashed by [`MixHasher`].
pub(crate) type MixMap<V> = HashMap<u64, V, BuildHasherDefault<MixHasher>>;

/// Multimap from join key to the payloads stored under it. It starts empty
/// and grows as keys arrive.
///
/// A payload `a` is stored prehashed, as the first round of the output
/// pair's checksum term, `X_a = (basis ^ a) * prime`, since that round does
/// not depend on the probe row: [`probe`](Self::probe) then sums a row's
/// terms with one xor-add per pair.
#[derive(Debug, Clone, Default)]
pub struct SimHashTable {
    map: MixMap<Vec<u64>>,
}

impl SimHashTable {
    /// Inserts a `(key, value)` pair.
    pub fn insert(&mut self, key: u64, value: u64) {
        self.map
            .entry(key)
            .or_default()
            .push((FNV_BASIS ^ value).wrapping_mul(FNV_PRIME));
    }

    /// Joins the probe value `b` with every payload `a` stored under `key`
    /// and returns the pair count `n` and the wrapping sum of the pairs'
    /// checksum terms, `checksum_accumulate(0, &[a, b])` each. The sum is
    /// `prime * Σ (X_a ^ b)`: multiplication distributes over wrapping
    /// addition, so one multiply serves the whole row.
    pub fn probe(&self, key: u64, b: u64) -> (u64, u64) {
        let Some(prehashed) = self.map.get(&key) else {
            return (0, 0);
        };
        let sum = prehashed
            .iter()
            .fold(0u64, |acc, &x| acc.wrapping_add(x ^ b));
        (prehashed.len() as u64, sum.wrapping_mul(FNV_PRIME))
    }
}

/// A deterministic hasher for integer keys: splitmix64's finaliser over
/// each written word.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix(self.0 ^ x);
    }
}

/// splitmix64's 64-bit finaliser.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The FNV-1a offset basis and prime the row checksum rounds use.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Order-insensitive checksum helper used to validate row-set results
/// across access paths.
pub fn checksum_accumulate(acc: u64, values: &[u64]) -> u64 {
    let mut h = FNV_BASIS;
    for &v in values {
        h ^= v;
        h = h.wrapping_mul(FNV_PRIME);
    }
    acc.wrapping_add(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Per-pair reference for [`SimHashTable::probe`]: the pair count and
    /// the sum of `checksum_accumulate` over every stored payload.
    fn probe_by_pairs(payloads: &[u64], b: u64) -> (u64, u64) {
        let sum = payloads
            .iter()
            .fold(0, |acc, &a| checksum_accumulate(acc, &[a, b]));
        (payloads.len() as u64, sum)
    }

    #[test]
    fn functional_map_behaviour() {
        let mut t = SimHashTable::default();
        t.insert(1, 10);
        t.insert(1, 11);
        t.insert(2, 20);
        assert_eq!(t.probe(1, 7), probe_by_pairs(&[10, 11], 7));
        assert_eq!(t.probe(2, 7), probe_by_pairs(&[20], 7));
        assert_eq!(t.probe(3, 7), (0, 0));
        assert_ne!(t.probe(1, 7), t.probe(1, 8), "the probe value counts");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The prehashed probe equals the per-pair `checksum_accumulate`
        /// loop over the payloads stored under the key, for random keys
        /// (a few, so keys repeat), payloads and probe values, 0 and
        /// `u64::MAX` included, and keys never inserted.
        #[test]
        fn probe_equals_the_per_pair_checksum_loop(
            pairs in proptest::collection::vec((0u64..8, any::<u64>()), 0..64),
            probes in proptest::collection::vec((0u64..10, 0u8..4, any::<u64>()), 1..16),
        ) {
            let mut t = SimHashTable::default();
            for &(key, a) in &pairs {
                t.insert(key, a);
            }
            for (key, pick, random) in probes {
                let b = [0, u64::MAX].get(usize::from(pick)).copied().unwrap_or(random);
                let payloads: Vec<u64> =
                    pairs.iter().filter(|p| p.0 == key).map(|p| p.1).collect();
                prop_assert_eq!(t.probe(key, b), probe_by_pairs(&payloads, b));
            }
        }
    }

    #[test]
    fn mix_hasher_is_deterministic_and_spreads_keys() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<MixHasher>::default();
        assert_eq!(build.hash_one(7u64), build.hash_one(7u64));
        // Sequential keys land in distinct 1,024-slot buckets at least half
        // the time, by the hash's low bits.
        let buckets: std::collections::HashSet<u64> =
            (0..1_024u64).map(|k| build.hash_one(k) % 1_024).collect();
        assert!(
            buckets.len() > 512,
            "only {} distinct buckets",
            buckets.len()
        );
    }

    #[test]
    fn checksum_is_order_insensitive_but_value_sensitive() {
        let a = checksum_accumulate(checksum_accumulate(0, &[1, 2]), &[3, 4]);
        let b = checksum_accumulate(checksum_accumulate(0, &[3, 4]), &[1, 2]);
        assert_eq!(a, b);
        let c = checksum_accumulate(checksum_accumulate(0, &[1, 2]), &[3, 5]);
        assert_ne!(a, c);
    }
}
