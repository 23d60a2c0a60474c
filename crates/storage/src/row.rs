//! Row values and their fixed-width binary encoding.

use crate::error::StorageError;
use crate::schema::Schema;
use crate::types::Value;

/// An owned row: one [`Value`] per schema column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Wraps a vector of values as a row.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Builds a row of unsigned integers (convenience for the benchmark
    /// tables whose columns are all numeric).
    pub fn from_u64s(values: &[u64]) -> Self {
        Row {
            values: values.iter().map(|&v| Value::UInt(v)).collect(),
        }
    }

    /// The row's values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// A single value.
    pub fn value(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Validates the row against a schema, then encodes it into `out`, its
    /// row-major byte representation (`schema.row_bytes()` long). Nothing
    /// is written when validation fails.
    pub fn encode_into(&self, schema: &Schema, out: &mut [u8]) -> Result<(), StorageError> {
        schema.check_values(&self.values)?;
        for (idx, value) in self.values.iter().enumerate() {
            let off = schema.offset(idx)?;
            value.encode_into(&mut out[off..off + schema.width(idx)?]);
        }
        Ok(())
    }

    /// Decodes a row from its byte representation.
    pub fn decode(schema: &Schema, bytes: &[u8]) -> Result<Row, StorageError> {
        if bytes.len() < schema.row_bytes() {
            return Err(StorageError::InvalidColumnGroup(format!(
                "need {} bytes to decode a row, got {}",
                schema.row_bytes(),
                bytes.len()
            )));
        }
        let mut values = Vec::with_capacity(schema.num_columns());
        for idx in 0..schema.num_columns() {
            let col = schema.column(idx)?;
            let off = schema.offset(idx)?;
            values.push(Value::decode(col.ty, &bytes[off..off + col.ty.width()]));
        }
        Ok(Row { values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::types::ColumnType;
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("a", ColumnType::UInt(4)),
            ColumnDef::new("b", ColumnType::Bytes(3)),
            ColumnDef::new("c", ColumnType::UInt(8)),
        ])
        .unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = schema();
        let row = Row::new(vec![
            Value::UInt(0xDEAD),
            Value::Bytes(vec![9, 8, 7]),
            Value::UInt(u64::MAX),
        ]);
        let mut bytes = vec![0xFF; s.row_bytes()];
        row.encode_into(&s, &mut bytes).unwrap();
        assert_eq!(Row::decode(&s, &bytes).unwrap(), row);
    }

    #[test]
    fn wrong_arity_and_type_rejected() {
        let s = schema();
        let mut out = vec![0u8; s.row_bytes()];
        let short = Row::from_u64s(&[1, 2]);
        assert!(short.encode_into(&s, &mut out).is_err());
        let bad = Row::new(vec![
            Value::UInt(u64::MAX), // does not fit 4 bytes
            Value::Bytes(vec![1, 2, 3]),
            Value::UInt(0),
        ]);
        assert!(matches!(
            bad.encode_into(&s, &mut out),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert_eq!(
            out,
            vec![0u8; s.row_bytes()],
            "a rejected row writes nothing"
        );
    }

    #[test]
    fn decode_requires_enough_bytes() {
        let s = schema();
        assert!(Row::decode(&s, &[0u8; 3]).is_err());
    }

    proptest! {
        #[test]
        fn roundtrip_random_numeric_rows(a in 0u64..u32::MAX as u64, b in proptest::collection::vec(any::<u8>(), 3), c in any::<u64>()) {
            let s = schema();
            let row = Row::new(vec![Value::UInt(a), Value::Bytes(b), Value::UInt(c)]);
            let mut bytes = vec![0u8; s.row_bytes()];
            row.encode_into(&s, &mut bytes).unwrap();
            prop_assert_eq!(Row::decode(&s, &bytes).unwrap(), row);
        }
    }
}
