//! Materialised column-store copy of a row table.
//!
//! The paper's "Direct Columnar" baseline reads data that is *already*
//! stored one column per contiguous array (`long num_field_array[]`).
//! [`ColumnarTable`] materialises that layout in physical memory from a
//! [`RowTable`], so the baseline pays no transformation cost at query time —
//! exactly the comparison the paper makes (and exactly the copy the RME
//! renders unnecessary).

use std::cell::Cell;

use relmem_dram::PhysicalMemory;

use crate::error::StorageError;
use crate::schema::Schema;
use crate::table::RowTable;
use crate::types::Value;

/// A column-major copy of a table.
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    schema: Schema,
    /// Base address of each column's array.
    column_bases: Vec<u64>,
    /// Rows each column array can hold (≥ `rows` when materialised with
    /// headroom for appends).
    capacity_rows: u64,
    /// Populated row count. A `Cell` for the same reason as
    /// [`RowTable`]'s: transactional inserts publish through shared refs.
    rows: Cell<u64>,
}

impl ColumnarTable {
    /// Materialises every column of `table` into new contiguous arrays.
    pub fn materialize(mem: &mut PhysicalMemory, table: &RowTable) -> Result<Self, StorageError> {
        Self::materialize_with_capacity(mem, table, table.num_rows())
    }

    /// Materialises every column of `table`, sizing each array for
    /// `capacity_rows` rows so the table can later grow via
    /// [`append`](Self::append) (transactional inserts).
    pub fn materialize_with_capacity(
        mem: &mut PhysicalMemory,
        table: &RowTable,
        capacity_rows: u64,
    ) -> Result<Self, StorageError> {
        let schema = table.schema().clone();
        let rows = table.num_rows();
        let capacity_rows = capacity_rows.max(rows);

        // Allocate every column array, then transpose the rows into them in
        // one pass. (column base, offset in the row, width) per column:
        let mut fields = Vec::with_capacity(schema.num_columns());
        for (col, def) in schema.columns().iter().enumerate() {
            let width = def.ty.width();
            let available = mem.capacity() - mem.allocated() as usize;
            let needed = (width as u64).saturating_mul(capacity_rows).max(1) as usize;
            if needed > available {
                return Err(StorageError::OutOfMemory {
                    requested: needed,
                    available,
                });
            }
            fields.push((mem.alloc(needed, 64), schema.offset(col)?, width));
        }
        let mut row = vec![0u8; schema.row_bytes()];
        for r in 0..rows {
            mem.read_into(table.row_data_addr(r), &mut row);
            for &(base, off, width) in &fields {
                mem.write(base + r * width as u64, &row[off..off + width]);
            }
        }

        Ok(ColumnarTable {
            schema,
            column_bases: fields.iter().map(|&(base, _, _)| base).collect(),
            capacity_rows,
            rows: Cell::new(rows),
        })
    }

    /// Appends one row's values (one per column, in schema order) into the
    /// column arrays. Returns the new row's index.
    pub fn append(&self, mem: &mut PhysicalMemory, values: &[Value]) -> Result<u64, StorageError> {
        self.schema.check_values(values)?;
        let idx = self.rows.get();
        if idx == self.capacity_rows {
            return Err(StorageError::OutOfMemory {
                requested: self.schema.row_bytes(),
                available: 0,
            });
        }
        for (col, value) in values.iter().enumerate() {
            let width = self.schema.width(col)?;
            let addr = self.column_base(col)? + idx * width as u64;
            value.encode_into(mem.slice_mut(addr, width));
        }
        self.rows.set(idx + 1);
        Ok(idx)
    }

    /// Rows each column array can hold.
    pub fn capacity_rows(&self) -> u64 {
        self.capacity_rows
    }

    /// The schema shared with the source row table.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> u64 {
        self.rows.get()
    }

    /// Base address of a column's array.
    pub fn column_base(&self, col: usize) -> Result<u64, StorageError> {
        self.column_bases
            .get(col)
            .copied()
            .ok_or(StorageError::ColumnOutOfRange(col))
    }

    /// Physical address of `row`'s entry in column `col`.
    pub fn field_addr(&self, row: u64, col: usize) -> Result<u64, StorageError> {
        if row >= self.rows.get() {
            return Err(StorageError::RowOutOfRange {
                row,
                rows: self.rows.get(),
            });
        }
        let width = self.schema.width(col)? as u64;
        Ok(self.column_base(col)? + row * width)
    }

    /// Reads one value.
    pub fn read_field(
        &self,
        mem: &PhysicalMemory,
        row: u64,
        col: usize,
    ) -> Result<Value, StorageError> {
        let def = self.schema.column(col)?;
        let addr = self.field_addr(row, col)?;
        Ok(Value::decode(def.ty, mem.read(addr, def.ty.width())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::tests::{mvcc_of, schema_of};
    use crate::datagen::DataGen;
    use crate::mvcc::MvccConfig;
    use crate::row::Row;
    use proptest::prelude::*;

    #[test]
    fn materialized_columns_match_row_table() {
        let mut mem = PhysicalMemory::new(1 << 20);
        let schema = Schema::benchmark(4, 4, 32);
        let mut table = RowTable::create(&mut mem, schema, 100, MvccConfig::Disabled).unwrap();
        let mut gen = DataGen::new(7);
        gen.fill_table(&mut mem, &mut table, 100).unwrap();

        let cols = ColumnarTable::materialize(&mut mem, &table).unwrap();
        assert_eq!(cols.num_rows(), 100);
        for row in (0..100).step_by(13) {
            for col in 0..4 {
                assert_eq!(
                    cols.read_field(&mem, row, col).unwrap(),
                    table.read_field(&mem, row, col).unwrap(),
                    "mismatch at row {row} col {col}"
                );
            }
        }
    }

    #[test]
    fn column_arrays_are_dense() {
        let mut mem = PhysicalMemory::new(1 << 20);
        let schema = Schema::benchmark(2, 8, 64);
        let table = RowTable::create(&mut mem, schema, 10, MvccConfig::Disabled).unwrap();
        for i in 0..10u64 {
            table
                .append(&mut mem, &Row::from_u64s(&[i, i * 2, 0]), 0)
                .unwrap();
        }
        let cols = ColumnarTable::materialize(&mut mem, &table).unwrap();
        // Entries of column 0 are 8 bytes apart, not row_bytes apart.
        assert_eq!(
            cols.field_addr(1, 0).unwrap() - cols.field_addr(0, 0).unwrap(),
            8
        );
        assert_eq!(cols.read_field(&mem, 3, 1).unwrap(), Value::UInt(6));
    }

    #[test]
    fn append_grows_within_capacity() {
        let mut mem = PhysicalMemory::new(1 << 20);
        let schema = Schema::benchmark(2, 8, 64);
        let table = RowTable::create(&mut mem, schema, 4, MvccConfig::Disabled).unwrap();
        for i in 0..2u64 {
            table
                .append(&mut mem, &Row::from_u64s(&[i, i, 0]), 0)
                .unwrap();
        }
        let cols = ColumnarTable::materialize_with_capacity(&mut mem, &table, 4).unwrap();
        assert_eq!(cols.num_rows(), 2);
        assert_eq!(cols.capacity_rows(), 4);
        let idx = cols
            .append(&mut mem, &[Value::UInt(7), Value::UInt(9), Value::UInt(0)])
            .unwrap();
        assert_eq!(idx, 2);
        assert_eq!(cols.read_field(&mem, 2, 1).unwrap(), Value::UInt(9));
        // Existing data stays dense and intact.
        assert_eq!(cols.read_field(&mem, 1, 0).unwrap(), Value::UInt(1));
        // A value of the wrong type fails the append before any column of
        // the row is written.
        let bad = [Value::UInt(5), Value::Bytes(vec![1]), Value::UInt(0)];
        assert!(cols.append(&mut mem, &bad).is_err());
        assert_eq!(mem.read_uint(cols.column_base(0).unwrap() + 3 * 8, 8), 0);
        cols.append(&mut mem, &[Value::UInt(0), Value::UInt(0), Value::UInt(0)])
            .unwrap();
        assert!(
            cols.append(&mut mem, &[Value::UInt(0), Value::UInt(0), Value::UInt(0)])
                .is_err(),
            "append past capacity must fail"
        );
        // Arity and type are checked before any byte is written.
        assert!(cols.append(&mut mem, &[Value::UInt(0)]).is_err());
    }

    #[test]
    fn oversized_capacity_is_out_of_memory_not_a_wrap() {
        // 8 B x 2^61 rows wraps to 0 bytes in unchecked u64 arithmetic.
        let mut mem = PhysicalMemory::new(1 << 16);
        let table = RowTable::create(
            &mut mem,
            Schema::benchmark(1, 8, 8),
            1,
            MvccConfig::Disabled,
        )
        .unwrap();
        table.append(&mut mem, &Row::from_u64s(&[1]), 0).unwrap();
        assert!(matches!(
            ColumnarTable::materialize_with_capacity(&mut mem, &table, 1 << 61),
            Err(StorageError::OutOfMemory { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn materialized_copy_equals_a_field_walk_and_appends_after_it(
            cols in proptest::collection::vec((any::<bool>(), 1usize..=40), 1..8),
            fill in 0usize..24,
            mvcc in any::<bool>(),
            headroom in 1u64..4,
            rows in 0u64..40,
            seed in any::<u64>(),
        ) {
            let mut mem = PhysicalMemory::new(1 << 16);
            let schema = schema_of(&cols, fill);
            let mut table = RowTable::create(&mut mem, schema.clone(), rows, mvcc_of(mvcc)).unwrap();
            DataGen::new(seed).fill_table(&mut mem, &mut table, rows).unwrap();
            let columnar =
                ColumnarTable::materialize_with_capacity(&mut mem, &table, rows + headroom).unwrap();
            // Values every column type accepts: below 256 fits a 1-byte UInt.
            let appended: Vec<Value> = (0..schema.num_columns() as u64)
                .map(|c| Value::UInt((c * 37 + seed % 256) % 256))
                .collect();
            prop_assert_eq!(columnar.append(&mut mem, &appended).unwrap(), rows);
            for (col, value) in appended.iter().enumerate() {
                for row in 0..rows {
                    prop_assert_eq!(
                        columnar.read_field(&mem, row, col).unwrap(),
                        table.read_field(&mem, row, col).unwrap()
                    );
                }
                let width = schema.width(col).unwrap();
                let at = columnar.column_base(col).unwrap() + rows * width as u64;
                let mut expected = vec![0u8; width];
                value.encode_into(&mut expected);
                prop_assert_eq!(mem.read(at, width), &expected[..]);
            }
        }
    }

    #[test]
    fn bounds_checked() {
        let mut mem = PhysicalMemory::new(1 << 16);
        let schema = Schema::benchmark(1, 4, 4);
        let table = RowTable::create(&mut mem, schema, 4, MvccConfig::Disabled).unwrap();
        table.append(&mut mem, &Row::from_u64s(&[1]), 0).unwrap();
        let cols = ColumnarTable::materialize(&mut mem, &table).unwrap();
        assert!(cols.field_addr(5, 0).is_err());
        assert!(cols.column_base(3).is_err());
    }
}
