//! Delta / frame-of-reference encoding.
//!
//! A [`DeltaBlock`] stores a block of values as unsigned offsets from the
//! block minimum, using the smallest byte width that fits the largest
//! offset. Like dictionary codes, the offsets are fixed width, so an
//! encoded column remains RME-projectable.

/// A frame-of-reference encoded block of `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaBlock {
    /// The block minimum all offsets are relative to.
    pub reference: u64,
    /// Offset width in bytes (1, 2, 4 or 8).
    pub width: usize,
    /// Packed little-endian offsets, `width` bytes each.
    pub data: Vec<u8>,
    /// Number of encoded values.
    pub len: usize,
}

impl DeltaBlock {
    /// Encodes a block of values. Empty input produces an empty block.
    pub fn encode(values: &[u64]) -> Self {
        if values.is_empty() {
            return DeltaBlock {
                reference: 0,
                width: 1,
                data: Vec::new(),
                len: 0,
            };
        }
        let reference = *values.iter().min().expect("non-empty");
        let max_delta = values
            .iter()
            .map(|v| v - reference)
            .max()
            .expect("non-empty");
        let width = if max_delta < 1 << 8 {
            1
        } else if max_delta < 1 << 16 {
            2
        } else if max_delta < 1 << 32 {
            4
        } else {
            8
        };
        let mut data = Vec::with_capacity(values.len() * width);
        for v in values {
            let delta = (v - reference).to_le_bytes();
            data.extend_from_slice(&delta[..width]);
        }
        DeltaBlock {
            reference,
            width,
            data,
            len: values.len(),
        }
    }

    /// Decodes the whole block.
    pub fn decode(&self) -> Vec<u64> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Decodes a single value by index.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: usize) -> u64 {
        assert!(idx < self.len, "index {idx} out of range ({})", self.len);
        let start = idx * self.width;
        let mut buf = [0u8; 8];
        buf[..self.width].copy_from_slice(&self.data[start..start + self.width]);
        self.reference + u64::from_le_bytes(buf)
    }

    /// Encoded size in bytes (excluding the constant-size header).
    pub fn encoded_bytes(&self) -> usize {
        self.data.len()
    }

    /// Compression ratio versus storing `value_width`-byte plain values.
    pub fn compression_ratio(&self, value_width: usize) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            (self.len * value_width) as f64 / self.encoded_bytes() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_range_uses_one_byte() {
        let values = [1_000_000u64, 1_000_005, 1_000_255, 1_000_001];
        let block = DeltaBlock::encode(&values);
        assert_eq!(block.reference, 1_000_000);
        assert_eq!(block.width, 1);
        assert_eq!(block.decode(), values);
        assert_eq!(block.get(2), 1_000_255);
        assert!(block.compression_ratio(8) >= 8.0);
    }

    #[test]
    fn wide_range_uses_wider_offsets() {
        let values = [0u64, u32::MAX as u64 + 10];
        let block = DeltaBlock::encode(&values);
        assert_eq!(block.width, 8);
        assert_eq!(block.decode(), values);
    }

    #[test]
    fn empty_block_is_valid() {
        let block = DeltaBlock::encode(&[]);
        assert_eq!(block.len, 0);
        assert!(block.decode().is_empty());
        assert_eq!(block.compression_ratio(8), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let block = DeltaBlock::encode(&[1, 2, 3]);
        let _ = block.get(3);
    }

    proptest! {
        #[test]
        fn roundtrip(values in proptest::collection::vec(any::<u64>(), 0..500)) {
            let block = DeltaBlock::encode(&values);
            prop_assert_eq!(block.decode(), values);
        }

        #[test]
        fn clustered_values_compress(base in 0u64..u64::MAX - 1_000, values in proptest::collection::vec(0u64..200, 10..100)) {
            let shifted: Vec<u64> = values.iter().map(|v| base + v).collect();
            let block = DeltaBlock::encode(&shifted);
            prop_assert_eq!(block.width, 1);
            prop_assert_eq!(block.decode(), shifted);
        }
    }
}
