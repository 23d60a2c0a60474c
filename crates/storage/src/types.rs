//! Column types and values.
//!
//! The benchmark tables are made of fixed-width fields: unsigned integers of
//! 1–8 bytes (the `long` fields of Listing 1) and raw byte strings for wider
//! fields (`char text_fld[n]` and the 16-byte columns used in the width
//! sweeps). Numeric interpretation of a wide field uses its low 8 bytes,
//! matching what the paper's C benchmark does when it declares such a field
//! as an integer-bearing struct member.

use crate::error::StorageError;

/// The physical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Little-endian unsigned integer of the given width (1..=8 bytes).
    UInt(usize),
    /// Raw bytes of the given fixed width.
    Bytes(usize),
}

impl ColumnType {
    /// Width in bytes occupied in the row.
    pub fn width(&self) -> usize {
        match self {
            ColumnType::UInt(w) | ColumnType::Bytes(w) => *w,
        }
    }

    /// Validates the type's width.
    pub fn validate(&self) -> Result<(), StorageError> {
        match self {
            ColumnType::UInt(w) if *w >= 1 && *w <= 8 => Ok(()),
            ColumnType::Bytes(w) if *w >= 1 => Ok(()),
            _ => Err(StorageError::InvalidColumnGroup(format!(
                "invalid column type {self:?}"
            ))),
        }
    }

    /// Human readable name.
    pub fn name(&self) -> String {
        match self {
            ColumnType::UInt(w) => format!("uint({w})"),
            ColumnType::Bytes(w) => format!("bytes({w})"),
        }
    }
}

/// A single field value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Unsigned integer value.
    UInt(u64),
    /// Raw bytes value.
    Bytes(Vec<u8>),
}

impl Value {
    /// Numeric view of the value: integers as-is, byte strings as their low
    /// 8 bytes interpreted little-endian.
    pub fn as_u64(&self) -> u64 {
        match self {
            Value::UInt(v) => *v,
            Value::Bytes(b) => {
                let mut buf = [0u8; 8];
                let n = b.len().min(8);
                buf[..n].copy_from_slice(&b[..n]);
                u64::from_le_bytes(buf)
            }
        }
    }

    /// Encodes the value into exactly `out.len()` bytes: the low bytes of an
    /// integer or the front of a byte string, zero-padded.
    pub fn encode_into(&self, out: &mut [u8]) {
        let bytes: &[u8] = match self {
            Value::UInt(v) => &v.to_le_bytes(),
            Value::Bytes(b) => b,
        };
        let n = out.len().min(bytes.len());
        out[..n].copy_from_slice(&bytes[..n]);
        out[n..].fill(0);
    }

    /// Decodes a value of the given type from raw bytes.
    pub fn decode(ty: ColumnType, bytes: &[u8]) -> Value {
        match ty {
            ColumnType::UInt(w) => {
                let mut buf = [0u8; 8];
                buf[..w].copy_from_slice(&bytes[..w]);
                Value::UInt(u64::from_le_bytes(buf))
            }
            ColumnType::Bytes(w) => Value::Bytes(bytes[..w].to_vec()),
        }
    }

    /// Checks that the value can be stored in a column of type `ty`.
    pub fn compatible_with(&self, ty: ColumnType) -> bool {
        match (self, ty) {
            (Value::UInt(v), ColumnType::UInt(w)) => {
                if w == 8 {
                    true
                } else {
                    *v < (1u64 << (8 * w))
                }
            }
            (Value::Bytes(b), ColumnType::Bytes(w)) => b.len() <= w,
            // An integer may be stored into a wide byte column (low bytes).
            (Value::UInt(_), ColumnType::Bytes(_)) => true,
            _ => false,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}

impl From<&[u8]> for Value {
    fn from(b: &[u8]) -> Self {
        Value::Bytes(b.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn widths_and_names() {
        assert_eq!(ColumnType::UInt(8).width(), 8);
        assert_eq!(ColumnType::Bytes(20).width(), 20);
        assert_eq!(ColumnType::UInt(4).name(), "uint(4)");
        assert!(ColumnType::UInt(9).validate().is_err());
        assert!(ColumnType::Bytes(0).validate().is_err());
        assert!(ColumnType::UInt(1).validate().is_ok());
    }

    #[test]
    fn encode_decode_uint() {
        let v = Value::UInt(0xABCD);
        let mut enc = [0xFF; 4];
        v.encode_into(&mut enc);
        assert_eq!(enc, [0xCD, 0xAB, 0, 0]);
        assert_eq!(Value::decode(ColumnType::UInt(4), &enc), v);
    }

    #[test]
    fn encode_decode_bytes_pads_and_truncates() {
        let v = Value::Bytes(vec![1, 2, 3]);
        let mut enc = [0xFF; 5];
        v.encode_into(&mut enc);
        assert_eq!(enc, [1, 2, 3, 0, 0]);
        assert_eq!(
            Value::decode(ColumnType::Bytes(5), &enc),
            Value::Bytes(vec![1, 2, 3, 0, 0])
        );
    }

    #[test]
    fn numeric_view_of_bytes() {
        let v = Value::Bytes(vec![0x01, 0x02]);
        assert_eq!(v.as_u64(), 0x0201);
        assert_eq!(Value::UInt(7).as_u64(), 7);
    }

    #[test]
    fn compatibility_rules() {
        assert!(Value::UInt(255).compatible_with(ColumnType::UInt(1)));
        assert!(!Value::UInt(256).compatible_with(ColumnType::UInt(1)));
        assert!(Value::UInt(u64::MAX).compatible_with(ColumnType::UInt(8)));
        assert!(Value::Bytes(vec![0; 4]).compatible_with(ColumnType::Bytes(4)));
        assert!(!Value::Bytes(vec![0; 5]).compatible_with(ColumnType::Bytes(4)));
        assert!(!Value::Bytes(vec![]).compatible_with(ColumnType::UInt(8)));
    }

    proptest! {
        #[test]
        fn uint_roundtrip(v in 0u64..u64::MAX, w in 1usize..=8) {
            let mask = if w == 8 { u64::MAX } else { (1u64 << (8 * w)) - 1 };
            let val = Value::UInt(v & mask);
            let mut enc = vec![0xFF; w];
            val.encode_into(&mut enc);
            prop_assert_eq!(enc.len(), w);
            prop_assert_eq!(Value::decode(ColumnType::UInt(w), &enc), val);
        }

        #[test]
        fn bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 1..64)) {
            let w = data.len();
            let val = Value::Bytes(data);
            let mut enc = vec![0xFF; w];
            val.encode_into(&mut enc);
            prop_assert_eq!(Value::decode(ColumnType::Bytes(w), &enc), val);
        }
    }
}
