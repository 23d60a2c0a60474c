//! Column-group descriptions — the software side of an ephemeral variable.
//!
//! A [`ColumnGroup`] names the subset of a schema's columns a query wants,
//! in ascending row order (possibly non-contiguous, exactly like
//! `column_group_1` in Listing 2 of the paper). From it we derive the packed
//! layout the CPU will see (dense concatenation of the selected fields) and
//! the geometry parameters the RME's configuration port needs: per-column
//! widths `CA_j` and relative offsets `OA_j` (each column's offset measured
//! from the previous column of interest).

use crate::error::StorageError;
use crate::schema::Schema;

/// An ordered selection of columns to project.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnGroup {
    columns: Vec<usize>,
}

impl ColumnGroup {
    /// Creates a column group from ascending, distinct column indices.
    pub fn new(columns: Vec<usize>) -> Result<Self, StorageError> {
        if columns.is_empty() {
            return Err(StorageError::InvalidColumnGroup(
                "a column group needs at least one column".into(),
            ));
        }
        if !columns.windows(2).all(|w| w[0] < w[1]) {
            return Err(StorageError::InvalidColumnGroup(
                "column indices must be strictly ascending".into(),
            ));
        }
        Ok(ColumnGroup { columns })
    }

    /// A group projecting every column of `schema` (a full-row view).
    pub fn all(schema: &Schema) -> Self {
        ColumnGroup {
            columns: (0..schema.num_columns()).collect(),
        }
    }

    /// The selected column indices.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Number of selected columns (the paper's `Q`).
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the group is empty (never the case for a constructed group).
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Validates the group against a schema and the RME's structural limits.
    pub fn validate(
        &self,
        schema: &Schema,
        max_columns: usize,
        max_width: usize,
    ) -> Result<(), StorageError> {
        if self.columns.len() > max_columns {
            return Err(StorageError::InvalidColumnGroup(format!(
                "{} columns requested but the engine supports at most {max_columns}",
                self.columns.len()
            )));
        }
        for &c in &self.columns {
            let def = schema.column(c)?;
            if def.ty.width() > max_width {
                return Err(StorageError::InvalidColumnGroup(format!(
                    "column {:?} is {} bytes wide, engine supports at most {max_width}",
                    def.name,
                    def.ty.width()
                )));
            }
        }
        Ok(())
    }

    /// Widths of the selected columns (`CA_j`).
    pub fn widths(&self, schema: &Schema) -> Result<Vec<usize>, StorageError> {
        self.columns.iter().map(|&c| schema.width(c)).collect()
    }

    /// Absolute byte offsets of the selected columns within the source row.
    pub fn row_offsets(&self, schema: &Schema) -> Result<Vec<usize>, StorageError> {
        self.columns.iter().map(|&c| schema.offset(c)).collect()
    }

    /// The paper's `OA_j` encoding: the first entry is the absolute offset
    /// of the first column of interest, and each subsequent entry is the
    /// offset *delta* from the previous column of interest.
    pub fn oa_deltas(&self, schema: &Schema) -> Result<Vec<usize>, StorageError> {
        let abs = self.row_offsets(schema)?;
        let mut out = Vec::with_capacity(abs.len());
        let mut prev = 0usize;
        for (j, &off) in abs.iter().enumerate() {
            if j == 0 {
                out.push(off);
            } else {
                out.push(off - prev);
            }
            prev = off;
        }
        Ok(out)
    }

    /// Width in bytes of one packed (projected) row.
    pub fn packed_row_bytes(&self, schema: &Schema) -> Result<usize, StorageError> {
        Ok(self.widths(schema)?.iter().sum())
    }

    /// Byte offset of each selected column within the packed row.
    pub fn packed_offsets(&self, schema: &Schema) -> Result<Vec<usize>, StorageError> {
        let widths = self.widths(schema)?;
        let mut out = Vec::with_capacity(widths.len());
        let mut off = 0usize;
        for w in widths {
            out.push(off);
            off += w;
        }
        Ok(out)
    }

    /// Reference (software) projection of a single row's bytes: the packed
    /// concatenation of the selected fields. The RME's hardware packing is
    /// property-tested against this function.
    pub fn pack_row(&self, schema: &Schema, row_bytes: &[u8]) -> Result<Vec<u8>, StorageError> {
        let mut out = Vec::with_capacity(self.packed_row_bytes(schema)?);
        for &c in &self.columns {
            let off = schema.offset(c)?;
            let w = schema.width(c)?;
            out.extend_from_slice(&row_bytes[off..off + w]);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::listing1()
    }

    #[test]
    fn listing2_column_group() {
        // num_fld1, num_fld3, num_fld4 — columns 5, 7, 8 of Listing 1.
        let s = schema();
        let g = ColumnGroup::new(vec![5, 7, 8]).unwrap();
        g.validate(&s, 11, 64).unwrap();
        assert_eq!(g.widths(&s).unwrap(), vec![8, 8, 8]);
        assert_eq!(g.row_offsets(&s).unwrap(), vec![64, 80, 88]);
        assert_eq!(g.oa_deltas(&s).unwrap(), vec![64, 16, 8]);
        assert_eq!(g.packed_row_bytes(&s).unwrap(), 24);
        assert_eq!(g.packed_offsets(&s).unwrap(), vec![0, 8, 16]);
    }

    #[test]
    fn invalid_groups_rejected() {
        let s = schema();
        assert!(ColumnGroup::new(vec![]).is_err());
        assert!(ColumnGroup::new(vec![3, 3]).is_err());
        assert!(ColumnGroup::new(vec![5, 2]).is_err());
        let too_many = ColumnGroup::all(&s);
        assert!(too_many.validate(&s, 5, 64).is_err());
        // Column 3 (text_fld3) is 20 bytes; a 16-byte limit rejects it.
        let wide = ColumnGroup::new(vec![3]).unwrap();
        assert!(wide.validate(&s, 11, 16).is_err());
        assert!(wide.validate(&s, 11, 64).is_ok());
        // Out-of-range column index.
        let oob = ColumnGroup::new(vec![42]).unwrap();
        assert!(oob.validate(&s, 11, 64).is_err());
    }

    #[test]
    fn pack_row_concatenates_selected_fields() {
        let s = Schema::benchmark(4, 2, 8); // columns at offsets 0,2,4,6
        let g = ColumnGroup::new(vec![0, 2]).unwrap();
        let row: Vec<u8> = (0u8..8).collect();
        assert_eq!(g.pack_row(&s, &row).unwrap(), vec![0, 1, 4, 5]);
    }

    proptest! {
        #[test]
        fn oa_deltas_reconstruct_absolute_offsets(cols in proptest::collection::btree_set(0usize..10, 1..=10)) {
            let s = schema();
            let g = ColumnGroup::new(cols.into_iter().collect()).unwrap();
            let abs = g.row_offsets(&s).unwrap();
            let deltas = g.oa_deltas(&s).unwrap();
            // Per the paper: offset of column j = sum of OA_0..=OA_j.
            let mut sum = 0usize;
            for (j, d) in deltas.iter().enumerate() {
                sum += d;
                prop_assert_eq!(sum, abs[j]);
            }
        }

        #[test]
        fn packed_row_width_is_sum_of_widths(cols in proptest::collection::btree_set(0usize..10, 1..=10)) {
            let s = schema();
            let g = ColumnGroup::new(cols.into_iter().collect()).unwrap();
            let row = vec![0xAAu8; s.row_bytes()];
            let packed = g.pack_row(&s, &row).unwrap();
            prop_assert_eq!(packed.len(), g.packed_row_bytes(&s).unwrap());
        }
    }
}
