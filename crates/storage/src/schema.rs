//! Schemas and row layouts.
//!
//! A [`Schema`] is an ordered list of fixed-width columns; the row layout is
//! simply their concatenation (no padding — the paper's Listing 1 lays the
//! struct out the same way, and the RME addresses fields by byte offset, not
//! by alignment). Besides arbitrary user schemas this module provides the
//! two schemas the evaluation uses:
//!
//! * [`Schema::listing1`] — the ten-column example table of Listing 1, and
//! * [`Schema::benchmark`] — `n` columns of uniform width, the synthetic
//!   relation `S(A1..An)` of the Relational Memory Benchmark.

use crate::error::StorageError;
use crate::types::{ColumnType, Value};

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within the schema).
    pub name: String,
    /// Physical type.
    pub ty: ColumnType,
}

impl ColumnDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered collection of columns plus the derived row layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
    offsets: Vec<usize>,
    row_bytes: usize,
}

impl Schema {
    /// Builds a schema from column definitions.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Self, StorageError> {
        if columns.is_empty() {
            return Err(StorageError::EmptySchema);
        }
        for (i, c) in columns.iter().enumerate() {
            c.ty.validate()?;
            if columns[..i].iter().any(|other| other.name == c.name) {
                return Err(StorageError::DuplicateColumn(c.name.clone()));
            }
        }
        let mut offsets = Vec::with_capacity(columns.len());
        let mut off = 0usize;
        for c in &columns {
            offsets.push(off);
            off += c.ty.width();
        }
        Ok(Schema {
            columns,
            offsets,
            row_bytes: off,
        })
    }

    /// The ten-column schema of Listing 1 in the paper (104-byte rows).
    pub fn listing1() -> Schema {
        Schema::new(vec![
            ColumnDef::new("key", ColumnType::UInt(8)),
            ColumnDef::new("text_fld1", ColumnType::Bytes(8)),
            ColumnDef::new("text_fld2", ColumnType::Bytes(12)),
            ColumnDef::new("text_fld3", ColumnType::Bytes(20)),
            ColumnDef::new("text_fld4", ColumnType::Bytes(16)),
            ColumnDef::new("num_fld1", ColumnType::UInt(8)),
            ColumnDef::new("num_fld2", ColumnType::UInt(8)),
            ColumnDef::new("num_fld3", ColumnType::UInt(8)),
            ColumnDef::new("num_fld4", ColumnType::UInt(8)),
            ColumnDef::new("num_fld5", ColumnType::UInt(8)),
        ])
        .expect("listing1 schema is valid")
    }

    /// The synthetic benchmark relation: columns `A1..An`, each
    /// `column_width` bytes, with the row padded out to `row_bytes` by a
    /// trailing filler column if needed. This mirrors the paper's setup of
    /// "row size 64 bytes, column size 4 bytes" with tunable widths.
    ///
    /// # Panics
    /// Panics if the requested columns do not fit in `row_bytes`.
    pub fn benchmark(columns: usize, column_width: usize, row_bytes: usize) -> Schema {
        assert!(columns >= 1);
        assert!(
            columns * column_width <= row_bytes,
            "{columns} columns of {column_width} bytes exceed a {row_bytes}-byte row"
        );
        let mut defs = Vec::with_capacity(columns + 1);
        for i in 0..columns {
            let ty = if column_width <= 8 {
                ColumnType::UInt(column_width)
            } else {
                ColumnType::Bytes(column_width)
            };
            defs.push(ColumnDef::new(format!("A{}", i + 1), ty));
        }
        let used = columns * column_width;
        if used < row_bytes {
            defs.push(ColumnDef::new("fill", ColumnType::Bytes(row_bytes - used)));
        }
        Schema::new(defs).expect("benchmark schema is valid")
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Row width in bytes.
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// The columns in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// A column definition by index.
    pub fn column(&self, idx: usize) -> Result<&ColumnDef, StorageError> {
        self.columns
            .get(idx)
            .ok_or(StorageError::ColumnOutOfRange(idx))
    }

    /// Byte offset of a column within the row.
    pub fn offset(&self, idx: usize) -> Result<usize, StorageError> {
        self.offsets
            .get(idx)
            .copied()
            .ok_or(StorageError::ColumnOutOfRange(idx))
    }

    /// Width in bytes of a column.
    pub fn width(&self, idx: usize) -> Result<usize, StorageError> {
        Ok(self.column(idx)?.ty.width())
    }

    /// Checks that `values` holds one value per column, each storable in
    /// its column.
    pub(crate) fn check_values(&self, values: &[Value]) -> Result<(), StorageError> {
        if values.len() != self.columns.len() {
            return Err(StorageError::InvalidColumnGroup(format!(
                "row has {} values, schema has {} columns",
                values.len(),
                self.columns.len()
            )));
        }
        for (value, col) in values.iter().zip(&self.columns) {
            if !value.compatible_with(col.ty) {
                return Err(StorageError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ty.name(),
                });
            }
        }
        Ok(())
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing1_layout_matches_paper() {
        let s = Schema::listing1();
        assert_eq!(s.num_columns(), 10);
        // 8 + 8 + 12 + 20 + 16 + 5*8 = 104 bytes.
        assert_eq!(s.row_bytes(), 104);
        assert_eq!(s.offset(0).unwrap(), 0);
        assert_eq!(s.offset(5).unwrap(), 64); // num_fld1 starts after the text fields
        assert_eq!(s.index_of("num_fld3"), Some(7));
    }

    #[test]
    fn benchmark_schema_pads_to_row_size() {
        let s = Schema::benchmark(11, 4, 64);
        assert_eq!(s.row_bytes(), 64);
        assert_eq!(s.num_columns(), 12); // 11 data columns + filler
        assert_eq!(s.width(0).unwrap(), 4);
        assert_eq!(s.width(11).unwrap(), 64 - 44);

        let exact = Schema::benchmark(4, 16, 64);
        assert_eq!(exact.num_columns(), 4);
        assert_eq!(exact.row_bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn benchmark_schema_rejects_overflow() {
        let _ = Schema::benchmark(5, 16, 64);
    }

    #[test]
    fn duplicate_and_empty_rejected() {
        assert_eq!(Schema::new(vec![]).unwrap_err(), StorageError::EmptySchema);
        let dup = Schema::new(vec![
            ColumnDef::new("a", ColumnType::UInt(4)),
            ColumnDef::new("a", ColumnType::UInt(4)),
        ]);
        assert!(matches!(dup, Err(StorageError::DuplicateColumn(_))));
    }

    #[test]
    fn offsets_are_cumulative_widths() {
        let s = Schema::new(vec![
            ColumnDef::new("a", ColumnType::UInt(2)),
            ColumnDef::new("b", ColumnType::Bytes(5)),
            ColumnDef::new("c", ColumnType::UInt(8)),
        ])
        .unwrap();
        assert_eq!(s.offset(0).unwrap(), 0);
        assert_eq!(s.offset(1).unwrap(), 2);
        assert_eq!(s.offset(2).unwrap(), 7);
        assert_eq!(s.row_bytes(), 15);
        assert!(s.offset(3).is_err());
    }
}
