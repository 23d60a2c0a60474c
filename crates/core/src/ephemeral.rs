//! Ephemeral variables — the paper's software abstraction for Relational
//! Memory.
//!
//! Registering an ephemeral variable (`register_var(the_table, num_fld1,
//! num_fld3, num_fld4)` in Listing 4) picks a column group of a row-major
//! table, programs the RME's configuration port with the table's geometry
//! and returns a handle that behaves like a dense array of packed rows. The
//! variable is never materialised in main memory: reads of its address
//! range are intercepted and answered by the engine.

use relmem_storage::{ColumnGroup, RowTable, Schema, Snapshot, StorageError};

/// A registered ephemeral variable.
#[derive(Debug, Clone)]
pub struct EphemeralVariable {
    group: ColumnGroup,
    /// Base address of the (never materialised) packed alias range.
    base: u64,
    /// Bytes per packed row.
    packed_row_bytes: usize,
    /// Byte offset of each projected column within the packed row.
    packed_offsets: Vec<usize>,
    /// Width of each projected column.
    widths: Vec<usize>,
    /// Number of packed (visible) rows.
    rows: u64,
    /// The snapshot the variable was registered against, if any.
    snapshot: Option<Snapshot>,
}

impl EphemeralVariable {
    /// Builds the software-side description of an ephemeral variable. The
    /// hardware-side registration (configuration-port programming) is done
    /// by [`System::register_ephemeral`](crate::System::register_ephemeral),
    /// which calls this.
    pub fn describe(
        schema: &Schema,
        group: ColumnGroup,
        base: u64,
        visible_rows: u64,
        snapshot: Option<Snapshot>,
    ) -> Result<Self, StorageError> {
        let packed_row_bytes = group.packed_row_bytes(schema)?;
        let packed_offsets = group.packed_offsets(schema)?;
        let widths = group.widths(schema)?;
        Ok(EphemeralVariable {
            group,
            base,
            packed_row_bytes,
            packed_offsets,
            widths,
            rows: visible_rows,
            snapshot,
        })
    }

    /// The projected column group.
    pub fn group(&self) -> &ColumnGroup {
        &self.group
    }

    /// Base address of the alias range.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Bytes per packed row.
    pub fn packed_row_bytes(&self) -> usize {
        self.packed_row_bytes
    }

    /// Number of packed rows visible through this variable.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of projected columns.
    pub fn num_columns(&self) -> usize {
        self.widths.len()
    }

    /// Width in bytes of projected column `j`.
    pub fn width(&self, j: usize) -> usize {
        self.widths[j]
    }

    /// The snapshot this variable reads at, if MVCC filtering is active.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.snapshot
    }

    /// Total bytes of the packed projection.
    pub fn total_bytes(&self) -> u64 {
        self.rows * self.packed_row_bytes as u64
    }

    /// Address of projected column `j` of packed row `i`.
    pub fn field_addr(&self, i: u64, j: usize) -> u64 {
        self.base + i * self.packed_row_bytes as u64 + self.packed_offsets[j] as u64
    }

    /// Counts the visible rows of `table` at `snapshot` — the software-side
    /// work `register_var` performs when the table is versioned.
    pub fn visible_rows(
        table: &RowTable,
        mem: &relmem_dram::PhysicalMemory,
        snapshot: Option<Snapshot>,
    ) -> Result<Option<Vec<u64>>, StorageError> {
        let Some(snap) = snapshot else {
            return Ok(None);
        };
        if !table.mvcc().is_enabled() {
            return Ok(None);
        }
        let mut rows = Vec::new();
        for row in 0..table.num_rows() {
            if table.visible(mem, row, snap)? {
                rows.push(row);
            }
        }
        Ok(Some(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmem_dram::PhysicalMemory;
    use relmem_storage::{DataGen, MvccConfig, Row};

    #[test]
    fn addresses_are_dense_and_packed() {
        let schema = Schema::listing1();
        let group = ColumnGroup::new(vec![5, 7, 8]).unwrap();
        let var = EphemeralVariable::describe(&schema, group, 0x1000, 100, None).unwrap();
        assert_eq!(var.packed_row_bytes(), 24);
        assert_eq!(var.total_bytes(), 2_400);
        assert_eq!(var.num_columns(), 3);
        assert_eq!(var.width(0), 8);
        assert_eq!(var.field_addr(0, 0), 0x1000);
        assert_eq!(var.field_addr(0, 2), 0x1000 + 16);
        assert_eq!(var.field_addr(2, 1), 0x1000 + 2 * 24 + 8);
        assert!(var.snapshot().is_none());
    }

    #[test]
    fn visible_rows_respects_snapshots() {
        let mut mem = PhysicalMemory::new(1 << 20);
        let schema = Schema::benchmark(2, 8, 16);
        let mut table = RowTable::create(&mut mem, schema, 16, MvccConfig::Enabled).unwrap();
        DataGen::new(3)
            .fill_table(&mut mem, &mut table, 10)
            .unwrap();
        table.mark_deleted(&mut mem, 4, 5).unwrap();
        table
            .update(&mut mem, 7, &Row::from_u64s(&[9, 9]), 8)
            .unwrap();

        // No snapshot requested: no filtering.
        assert!(EphemeralVariable::visible_rows(&table, &mem, None)
            .unwrap()
            .is_none());
        // Snapshot after the delete and the update: row 4 and the old row 7
        // are gone, the new version (row 10) is visible.
        let visible = EphemeralVariable::visible_rows(&table, &mem, Some(Snapshot::at(9)))
            .unwrap()
            .unwrap();
        assert!(!visible.contains(&4));
        assert!(!visible.contains(&7));
        assert!(visible.contains(&10));
        assert_eq!(visible.len(), 9);
        // Snapshot before any change sees the original ten rows only.
        let old = EphemeralVariable::visible_rows(&table, &mem, Some(Snapshot::at(1)))
            .unwrap()
            .unwrap();
        assert_eq!(old, (0..10).collect::<Vec<_>>());
    }
}
