//! Physical address → DRAM coordinate mapping.
//!
//! The controller needs to know which bank and which DRAM row a request
//! touches in order to model open-row hits and bank-level parallelism. We
//! use the common "row : bank : column" interleaving where consecutive DRAM
//! rows of the same bank are `banks × row_bytes` apart, which spreads
//! sequential streams across banks — the behaviour the RME's Requestor
//! exploits when it issues outstanding fetches.
//!
//! # Bank-index hashing
//!
//! The plain interleaving has a pathology: two streams whose start
//! addresses differ by a multiple of `banks × row_bytes` (e.g. the shards
//! of a sharded scan over a power-of-two-sized table) land on the *same*
//! bank at every step and serialize there while the other banks idle. Real
//! controllers break the pattern by hashing higher address bits into the
//! bank index; [`AddressMapping::with_hash`] implements the standard
//! row-XOR permutation (`bank = bank_bits ⊕ row_bits`, an additive
//! rotation for non-power-of-two bank counts). The permutation is exact —
//! [`encode`](AddressMapping::encode) inverts it — and is enabled by
//! default through `DramConfig::xor_bank_hash`.

/// Maps physical addresses to (bank, row, column) coordinates.
///
/// Decoding runs once per simulated DRAM access, so the power-of-two
/// geometries every real configuration uses are decoded with shifts and
/// masks; arbitrary geometries (exercised by the property tests) fall back
/// to division.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    banks: usize,
    row_bytes: usize,
    /// `log2(row_bytes)` when `row_bytes` is a power of two.
    row_shift: Option<u32>,
    /// `banks - 1` when `banks` is a power of two.
    bank_mask: Option<u64>,
    /// `log2(banks)` when `banks` is a power of two.
    bank_shift: u32,
    /// Whether the row-XOR bank permutation is applied (see module docs).
    xor_hash: bool,
}

/// A decoded DRAM coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCoord {
    /// Bank index in `[0, banks)`.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Byte offset within the row.
    pub column: usize,
}

impl AddressMapping {
    /// Creates a mapping for `banks` banks of `row_bytes`-byte rows with
    /// the plain "row : bank : column" interleaving (no bank hashing).
    pub fn new(banks: usize, row_bytes: usize) -> Self {
        AddressMapping::with_hash(banks, row_bytes, false)
    }

    /// Creates a mapping with the bank-index hash switched on or off (see
    /// the module docs for what the hash buys).
    pub fn with_hash(banks: usize, row_bytes: usize, xor_hash: bool) -> Self {
        assert!(banks >= 1 && row_bytes >= 1);
        AddressMapping {
            banks,
            row_bytes,
            row_shift: row_bytes
                .is_power_of_two()
                .then(|| row_bytes.trailing_zeros()),
            bank_mask: banks.is_power_of_two().then_some(banks as u64 - 1),
            bank_shift: banks.trailing_zeros(),
            xor_hash,
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// DRAM row size in bytes.
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Decodes an address.
    #[inline]
    pub fn decode(&self, addr: u64) -> DramCoord {
        let (row_global, column) = match self.row_shift {
            Some(shift) => (addr >> shift, (addr & (self.row_bytes as u64 - 1)) as usize),
            None => (
                addr / self.row_bytes as u64,
                (addr % self.row_bytes as u64) as usize,
            ),
        };
        let (bank_raw, row) = match self.bank_mask {
            Some(mask) => ((row_global & mask) as usize, row_global >> self.bank_shift),
            None => (
                (row_global % self.banks as u64) as usize,
                row_global / self.banks as u64,
            ),
        };
        DramCoord {
            bank: self.hash_bank(bank_raw, row),
            row,
            column,
        }
    }

    /// Applies the bank permutation for a given DRAM row: XOR with the low
    /// row bits when the bank count is a power of two, an additive rotation
    /// by `row mod banks` otherwise. Identity when hashing is off.
    #[inline]
    fn hash_bank(&self, bank_raw: usize, row: u64) -> usize {
        if !self.xor_hash {
            return bank_raw;
        }
        match self.bank_mask {
            Some(mask) => bank_raw ^ (row & mask) as usize,
            None => (bank_raw + (row % self.banks as u64) as usize) % self.banks,
        }
    }

    /// Inverts [`hash_bank`](Self::hash_bank): recovers the raw
    /// interleaving index from a (hashed) bank number and its row.
    #[inline]
    fn unhash_bank(&self, bank: usize, row: u64) -> usize {
        if !self.xor_hash {
            return bank;
        }
        match self.bank_mask {
            // XOR is an involution.
            Some(mask) => bank ^ (row & mask) as usize,
            None => {
                let rot = (row % self.banks as u64) as usize;
                (bank + self.banks - rot) % self.banks
            }
        }
    }

    /// The address-translation period: the smallest byte shift that keeps
    /// every address on the same bank and column, moving it
    /// `shift / (banks × row_bytes)` rows further. Without hashing that is
    /// one pass over the banks (`banks × row_bytes`); the XOR hash mixes the
    /// row into the bank index, so its pattern repeats only after `banks`
    /// such passes.
    pub fn translation_period(&self) -> u64 {
        let pass = (self.banks * self.row_bytes) as u64;
        if self.xor_hash {
            pass * self.banks as u64
        } else {
            pass
        }
    }

    /// Re-encodes a coordinate back into an address (inverse of
    /// [`decode`](Self::decode)).
    pub fn encode(&self, coord: DramCoord) -> u64 {
        let bank_raw = self.unhash_bank(coord.bank, coord.row) as u64;
        let row_global = coord.row * self.banks as u64 + bank_raw;
        row_global * self.row_bytes as u64 + coord.column as u64
    }

    /// Splits a byte range `[addr, addr+len)` into per-DRAM-row chunks, so a
    /// long burst that crosses a row boundary is charged as two accesses.
    /// Returns a lazy iterator: the common case (a cache-line fill inside
    /// one DRAM row) allocates nothing on this per-miss path.
    pub fn split_by_row(&self, addr: u64, len: usize) -> RowChunks {
        RowChunks {
            cur: addr,
            end: addr + len as u64,
            row_bytes: self.row_bytes as u64,
            row_mask: self.row_shift.map(|_| self.row_bytes as u64 - 1),
        }
    }
}

/// Iterator over the per-DRAM-row chunks of a byte range (see
/// [`AddressMapping::split_by_row`]).
#[derive(Debug, Clone)]
pub struct RowChunks {
    cur: u64,
    end: u64,
    row_bytes: u64,
    /// `row_bytes - 1` when the row size is a power of two, replacing the
    /// per-chunk division with a mask on this per-access path.
    row_mask: Option<u64>,
}

impl Iterator for RowChunks {
    type Item = (u64, usize);

    #[inline]
    fn next(&mut self) -> Option<(u64, usize)> {
        if self.cur >= self.end {
            return None;
        }
        let row_end = match self.row_mask {
            Some(mask) => (self.cur | mask) + 1,
            None => (self.cur / self.row_bytes + 1) * self.row_bytes,
        };
        let chunk_end = row_end.min(self.end);
        let chunk = (self.cur, (chunk_end - self.cur) as usize);
        self.cur = chunk_end;
        Some(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn decode_spreads_consecutive_rows_across_banks() {
        let m = AddressMapping::new(4, 1024);
        let a = m.decode(0);
        let b = m.decode(1024);
        let c = m.decode(2048);
        assert_eq!(a.bank, 0);
        assert_eq!(b.bank, 1);
        assert_eq!(c.bank, 2);
        assert_eq!(a.row, 0);
        assert_eq!(m.decode(4 * 1024).bank, 0);
        assert_eq!(m.decode(4 * 1024).row, 1);
    }

    #[test]
    fn column_is_offset_within_row() {
        let m = AddressMapping::new(8, 2048);
        let c = m.decode(2048 * 3 + 100);
        assert_eq!(c.column, 100);
    }

    #[test]
    fn split_by_row_respects_boundaries() {
        let m = AddressMapping::new(2, 128);
        let chunks: Vec<_> = m.split_by_row(120, 20).collect();
        assert_eq!(chunks, vec![(120, 8), (128, 12)]);
        let single: Vec<_> = m.split_by_row(0, 64).collect();
        assert_eq!(single, vec![(0, 64)]);
    }

    #[test]
    fn xor_hash_decorrelates_power_of_two_strides() {
        // Addresses `banks × row_bytes` apart share a bank under the plain
        // interleaving; the hash sends each to a different bank.
        let plain = AddressMapping::new(16, 2048);
        let hashed = AddressMapping::with_hash(16, 2048, true);
        let stride = 16 * 2048u64;
        let plain_banks: std::collections::BTreeSet<usize> =
            (0..16u64).map(|i| plain.decode(i * stride).bank).collect();
        let hashed_banks: std::collections::BTreeSet<usize> =
            (0..16u64).map(|i| hashed.decode(i * stride).bank).collect();
        assert_eq!(plain_banks.len(), 1);
        assert_eq!(hashed_banks.len(), 16);
        // Within one DRAM row nothing changes: the permutation only mixes
        // row bits into the bank index.
        assert_eq!(hashed.decode(100).column, 100);
        assert_eq!(hashed.decode(0).row, hashed.decode(100).row);
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(addr in 0u64..1_000_000_000u64, banks in 1usize..32, row_pow in 7u32..14) {
            let m = AddressMapping::new(banks, 1 << row_pow);
            let coord = m.decode(addr);
            prop_assert_eq!(m.encode(coord), addr);
            prop_assert!(coord.bank < banks);
            prop_assert!(coord.column < (1 << row_pow));
        }

        /// The hashed mapping stays a bijection for every geometry,
        /// power-of-two bank counts (XOR) and otherwise (rotation) alike.
        #[test]
        fn hashed_encode_decode_roundtrip(addr in 0u64..1_000_000_000u64, banks in 1usize..32, row_pow in 7u32..14) {
            let m = AddressMapping::with_hash(banks, 1 << row_pow, true);
            let coord = m.decode(addr);
            prop_assert_eq!(m.encode(coord), addr);
            prop_assert!(coord.bank < banks);
            prop_assert!(coord.column < (1 << row_pow));
        }

        #[test]
        fn split_covers_range_exactly(addr in 0u64..1_000_000u64, len in 1usize..10_000) {
            let m = AddressMapping::new(16, 2048);
            let chunks: Vec<_> = m.split_by_row(addr, len).collect();
            let total: usize = chunks.iter().map(|(_, l)| *l).sum();
            prop_assert_eq!(total, len);
            prop_assert_eq!(chunks[0].0, addr);
            // Chunks are contiguous.
            for w in chunks.windows(2) {
                prop_assert_eq!(w[0].0 + w[0].1 as u64, w[1].0);
            }
        }
    }
}
