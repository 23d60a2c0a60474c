//! Table geometry: what the RME needs to know about the target relation.
//!
//! The configuration port (Table 1 of the paper) communicates the tuple
//! width `R`, tuple count `N`, the number of columns of interest `Q`, their
//! widths `CA_j` and relative offsets `OA_j`, and the frame number `F`.
//! [`TableGeometry`] is the decoded, validated form of that configuration plus
//! the two base addresses the prototype passes alongside it: where the
//! row-major source data lives and where the ephemeral alias range starts.

use relmem_storage::{ColumnGroup, MvccConfig, Schema, Snapshot, StorageError};

/// One column of interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Width in bytes (`CA_j`).
    pub width: usize,
    /// Offset in bytes from the previous column of interest (`OA_j`); for
    /// the first column this is its absolute offset within the row.
    pub oa_delta: usize,
}

/// The full geometry of one programmed projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableGeometry {
    /// Source row width in bytes (`R`), including any MVCC header.
    pub row_bytes: usize,
    /// Number of source rows (`N`).
    pub row_count: u64,
    /// Columns of interest (`Q` entries).
    pub columns: Vec<ColumnSpec>,
    /// Physical base address of the row-major source table.
    pub source_base: u64,
    /// Base address of the ephemeral alias range served by the RME.
    pub ephemeral_base: u64,
    /// Bytes of MVCC header at the start of each row (0 or 16). When
    /// non-zero the engine filters rows by `snapshot` while packing.
    pub mvcc_header_bytes: usize,
    /// Snapshot used for visibility filtering (ignored when
    /// `mvcc_header_bytes == 0`).
    pub snapshot: Option<Snapshot>,
}

impl TableGeometry {
    /// Builds a geometry from storage-level metadata.
    ///
    /// `source_base` is the address of row 0 (its header if MVCC is on);
    /// `ephemeral_base` is where the packed alias range will be mapped.
    pub fn from_schema(
        schema: &Schema,
        group: &ColumnGroup,
        source_base: u64,
        ephemeral_base: u64,
        row_count: u64,
        mvcc: MvccConfig,
        snapshot: Option<Snapshot>,
    ) -> Result<Self, StorageError> {
        let widths = group.widths(schema)?;
        let mut deltas = group.oa_deltas(schema)?;
        // Column offsets are measured from the start of the *physical* row,
        // which includes the MVCC header if present.
        if mvcc.is_enabled() && !deltas.is_empty() {
            deltas[0] += mvcc.header_bytes();
        }
        let columns = widths
            .into_iter()
            .zip(deltas)
            .map(|(width, oa_delta)| ColumnSpec { width, oa_delta })
            .collect();
        Ok(TableGeometry {
            row_bytes: schema.row_bytes() + mvcc.header_bytes(),
            row_count,
            columns,
            source_base,
            ephemeral_base,
            mvcc_header_bytes: mvcc.header_bytes(),
            snapshot,
        })
    }

    /// Number of columns of interest (`Q`).
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Absolute offset of column `j` within the source row:
    /// Σ_{k=0..=j} OA_k (equation (1)'s inner sum).
    pub fn column_offset(&self, j: usize) -> usize {
        self.columns[..=j].iter().map(|c| c.oa_delta).sum()
    }

    /// Width of column `j` (`CA_j`).
    pub fn column_width(&self, j: usize) -> usize {
        self.columns[j].width
    }

    /// Absolute source address where the useful data of row `i`, column `j`
    /// starts — the paper's `P_{i,j} = R·i + Σ OA_k`, plus the table base.
    pub fn p(&self, i: u64, j: usize) -> u64 {
        self.source_base + self.row_bytes as u64 * i + self.column_offset(j) as u64
    }

    /// Width of one packed (projected) row in bytes.
    pub fn packed_row_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.width).sum()
    }

    /// Offset of column `j` within the packed row.
    pub fn packed_column_offset(&self, j: usize) -> usize {
        self.columns[..j].iter().map(|c| c.width).sum()
    }

    /// Whether this geometry requires MVCC visibility filtering.
    pub fn needs_visibility_filter(&self) -> bool {
        self.mvcc_header_bytes > 0 && self.snapshot.is_some()
    }

    /// Validates the geometry against the engine's structural limits.
    pub fn validate(&self, max_columns: usize, max_width: usize) -> Result<(), StorageError> {
        if self.columns.is_empty() {
            return Err(StorageError::InvalidColumnGroup(
                "geometry has no columns of interest".into(),
            ));
        }
        if self.columns.len() > max_columns {
            return Err(StorageError::InvalidColumnGroup(format!(
                "{} columns exceed the engine limit of {max_columns}",
                self.columns.len()
            )));
        }
        for (j, c) in self.columns.iter().enumerate() {
            if c.width == 0 || c.width > max_width {
                return Err(StorageError::InvalidColumnGroup(format!(
                    "column {j} width {} outside (0, {max_width}]",
                    c.width
                )));
            }
        }
        if self.column_offset(self.columns.len() - 1)
            + self.columns.last().map(|c| c.width).unwrap_or(0)
            > self.row_bytes
        {
            return Err(StorageError::InvalidColumnGroup(
                "columns of interest extend past the end of the row".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmem_storage::Schema;

    fn geometry() -> TableGeometry {
        // Listing 1 schema, projecting num_fld1 / num_fld3 / num_fld4.
        let schema = Schema::listing1();
        let group = ColumnGroup::new(vec![5, 7, 8]).unwrap();
        TableGeometry::from_schema(
            &schema,
            &group,
            0x1000,
            0x100_0000,
            1000,
            MvccConfig::Disabled,
            None,
        )
        .unwrap()
    }

    #[test]
    fn offsets_follow_equation_one() {
        let g = geometry();
        assert_eq!(g.row_bytes, 104);
        assert_eq!(g.num_columns(), 3);
        assert_eq!(g.column_offset(0), 64);
        assert_eq!(g.column_offset(1), 80);
        assert_eq!(g.column_offset(2), 88);
        // P_{i,j} = base + R*i + sum(OA).
        assert_eq!(g.p(0, 0), 0x1000 + 64);
        assert_eq!(g.p(2, 1), 0x1000 + 2 * 104 + 80);
    }

    #[test]
    fn packed_layout() {
        let g = geometry();
        assert_eq!(g.packed_row_bytes(), 24);
        assert_eq!(g.packed_column_offset(0), 0);
        assert_eq!(g.packed_column_offset(2), 16);
    }

    #[test]
    fn mvcc_header_shifts_offsets() {
        let schema = Schema::benchmark(4, 4, 32);
        let group = ColumnGroup::new(vec![1, 3]).unwrap();
        let g = TableGeometry::from_schema(
            &schema,
            &group,
            0,
            0,
            10,
            MvccConfig::Enabled,
            Some(Snapshot::at(5)),
        )
        .unwrap();
        assert_eq!(g.row_bytes, 32 + 16);
        assert_eq!(g.column_offset(0), 16 + 4);
        assert_eq!(g.column_offset(1), 16 + 12);
        assert!(g.needs_visibility_filter());
    }

    #[test]
    fn validation_limits() {
        let g = geometry();
        assert!(g.validate(11, 64).is_ok());
        assert!(g.validate(2, 64).is_err());
        assert!(g.validate(11, 4).is_err());
        let mut empty = g.clone();
        empty.columns.clear();
        assert!(empty.validate(11, 64).is_err());
        let mut overflow = g;
        overflow.row_bytes = 80;
        assert!(overflow.validate(11, 64).is_err());
    }
}
