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
#[derive(Debug, Clone, Default)]
pub struct SimHashTable {
    map: MixMap<Vec<u64>>,
}

impl SimHashTable {
    /// Inserts a `(key, value)` pair.
    pub fn insert(&mut self, key: u64, value: u64) {
        self.map.entry(key).or_default().push(value);
    }

    /// Values stored under `key`.
    pub fn get(&self, key: u64) -> &[u64] {
        self.map.get(&key).map(Vec::as_slice).unwrap_or(&[])
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

/// Order-insensitive checksum helper used to validate row-set results
/// across access paths.
pub fn checksum_accumulate(acc: u64, values: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in values {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    acc.wrapping_add(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_map_behaviour() {
        let mut t = SimHashTable::default();
        t.insert(1, 10);
        t.insert(1, 11);
        t.insert(2, 20);
        assert_eq!(t.get(1), &[10, 11]);
        assert_eq!(t.get(2), &[20]);
        assert_eq!(t.get(3), &[] as &[u64]);
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
