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

use crate::chunks::{drain, helpers, CHUNK_ROWS};
use crate::error::StorageError;
use crate::schema::Schema;
use crate::table::RowTable;
use crate::types::Value;

/// Rows per tile of the columnar transpose: a tile of 64-byte rows (32 KB)
/// and the arrays' share of it stay in cache while every column is copied.
const TILE_ROWS: usize = 512;
// Chunks hold whole tiles, so the chunked copy tiles as one pass would.
const _: () = assert!(CHUNK_ROWS.is_multiple_of(TILE_ROWS));

/// Copies the `width`-byte field at `at` of each `row_bytes`-byte row of
/// `rows` into consecutive entries of `dst`. Always inlined, so the calls
/// with a literal width compile to fixed-size moves.
#[inline(always)]
fn copy_field(dst: &mut [u8], rows: &[u8], row_bytes: usize, at: usize, width: usize) {
    for (entry, row) in dst
        .chunks_exact_mut(width)
        .zip(rows.chunks_exact(row_bytes))
    {
        entry.copy_from_slice(&row[at..at + width]);
    }
}

/// Copies the fields of the `row_bytes`-byte rows of `source` into the
/// column arrays inside `arrays`, one per `(start, at, width)` of `fields`:
/// the array at `start` takes the `width`-byte field at `at` of each row.
///
/// The rows and every array are cut at the same `chunk_rows` boundaries,
/// and the calling thread and up to `helpers` more drain the chunks. Within
/// a chunk the rows are transposed in tiles of `TILE_ROWS`: each tile is
/// copied into every column's array before the next is read, so the tile
/// stays in cache across the columns.
fn transpose(
    source: &[u8],
    arrays: &mut [u8],
    fields: &[(usize, usize, usize)],
    row_bytes: usize,
    chunk_rows: usize,
    helpers: usize,
) {
    let rows = source.len() / row_bytes;
    // Each column's array, cut into chunks; the arrays ascend.
    let mut columns = Vec::with_capacity(fields.len());
    let (mut rest, mut at) = (arrays, 0);
    for &(start, _, width) in fields {
        let (_, tail) = rest.split_at_mut(start - at);
        let (array, tail) = tail.split_at_mut(rows * width);
        columns.push(array.chunks_mut(chunk_rows * width));
        (rest, at) = (tail, start + rows * width);
    }
    let work: Vec<(&[u8], Vec<&mut [u8]>)> = source
        .chunks(chunk_rows * row_bytes)
        .map(|chunk| {
            let dsts = columns
                .iter_mut()
                .map(|c| c.next().expect("a chunk per column"));
            (chunk, dsts.collect())
        })
        .collect();
    drain(work.into_iter(), helpers, |(chunk, mut dsts)| {
        for (tile, src) in chunk.chunks(TILE_ROWS * row_bytes).enumerate() {
            let first = tile * TILE_ROWS;
            for (dst, &(_, at, width)) in dsts.iter_mut().zip(fields) {
                let dst = &mut dst[first * width..][..src.len() / row_bytes * width];
                match width {
                    4 => copy_field(dst, src, row_bytes, at, 4),
                    8 => copy_field(dst, src, row_bytes, at, 8),
                    _ => copy_field(dst, src, row_bytes, at, width),
                }
            }
        }
    });
}

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
    ///
    /// The arrays are laid out one after another, each 64-byte aligned, and
    /// allocated together, so a copy that does not fit allocates nothing.
    /// The copy then reads the source rows in place (the arrays sit above
    /// the table) and transposes them in chunks of 65,536 rows on a shared
    /// work queue, each in tiles of `TILE_ROWS` (512) rows.
    pub fn materialize_with_capacity(
        mem: &mut PhysicalMemory,
        table: &RowTable,
        capacity_rows: u64,
    ) -> Result<Self, StorageError> {
        Self::materialize_chunked(mem, table, capacity_rows, CHUNK_ROWS, helpers())
    }

    /// [`materialize_with_capacity`](Self::materialize_with_capacity) with
    /// the copy in chunks of `chunk_rows` rows drained by the calling
    /// thread and up to `helpers` more.
    fn materialize_chunked(
        mem: &mut PhysicalMemory,
        table: &RowTable,
        capacity_rows: u64,
        chunk_rows: usize,
        helpers: usize,
    ) -> Result<Self, StorageError> {
        let schema = table.schema().clone();
        let rows = table.num_rows() as usize;
        let capacity_rows = capacity_rows.max(rows as u64);

        // (start of the column's array within the block, its offset in the
        // physical row, its width) per column.
        let header = table.mvcc().header_bytes();
        let mut fields = Vec::with_capacity(schema.num_columns());
        let mut block = 0u64;
        for (col, def) in schema.columns().iter().enumerate() {
            let width = def.ty.width();
            let start = block.checked_next_multiple_of(64).unwrap_or(u64::MAX);
            fields.push((start as usize, header + schema.offset(col)?, width));
            let bytes = (width as u64).saturating_mul(capacity_rows).max(1);
            block = start.saturating_add(bytes);
        }
        let requested = usize::try_from(block).unwrap_or(usize::MAX);
        let available = mem.capacity() - mem.allocated() as usize;
        let base = mem
            .try_alloc(requested, 64)
            .ok_or(StorageError::OutOfMemory {
                requested,
                available,
            })?;

        let row_bytes = table.physical_row_bytes();
        let (below, arrays) = mem.split_at_mut(base);
        let source = &below[table.base_addr() as usize..][..rows * row_bytes];
        transpose(source, arrays, &fields, row_bytes, chunk_rows, helpers);

        Ok(ColumnarTable {
            schema,
            column_bases: fields
                .iter()
                .map(|&(start, _, _)| base + start as u64)
                .collect(),
            capacity_rows,
            rows: Cell::new(rows as u64),
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

    #[test]
    fn a_column_that_does_not_fit_allocates_no_array() {
        let mut mem = PhysicalMemory::new(1024);
        let table = RowTable::create(
            &mut mem,
            Schema::benchmark(2, 8, 16),
            4,
            MvccConfig::Disabled,
        )
        .unwrap();
        table.append(&mut mem, &Row::from_u64s(&[1, 2]), 0).unwrap();
        // The first 512-byte array fits at 64; the second would end at 1088.
        assert!(matches!(
            ColumnarTable::materialize_with_capacity(&mut mem, &table, 64),
            Err(StorageError::OutOfMemory { .. })
        ));
        assert_eq!(mem.allocated(), 64);
    }

    #[test]
    fn tiled_copy_equals_the_row_fields_across_tiles_and_chunks() {
        // Three whole tiles and a partial one, mixed widths, MVCC headers;
        // one chunk, chunks of whole tiles, and chunks ending inside tiles.
        let schema = schema_of(
            &[(true, 1), (false, 3), (true, 4), (true, 8), (false, 13)],
            0,
        );
        let rows = 3 * TILE_ROWS as u64 + 77;
        let mut mem = PhysicalMemory::new(1 << 18);
        let mut table = RowTable::create(&mut mem, schema, rows, MvccConfig::Enabled).unwrap();
        DataGen::new(11)
            .fill_table(&mut mem, &mut table, rows)
            .unwrap();
        for (chunk_rows, helpers) in [(CHUNK_ROWS, 0), (TILE_ROWS, 1), (700, 2), (7, 3)] {
            let columnar =
                ColumnarTable::materialize_chunked(&mut mem, &table, rows, chunk_rows, helpers)
                    .unwrap();
            for row in 0..rows {
                for col in 0..5 {
                    assert_eq!(
                        columnar.read_field(&mem, row, col).unwrap(),
                        table.read_field(&mem, row, col).unwrap(),
                        "row {row} col {col}, chunks of {chunk_rows}"
                    );
                }
            }
        }
    }

    #[test]
    fn bulk_builders_write_nothing_past_their_regions() {
        // The last column ends the row with 4 bytes, so a stray 8-byte
        // store there would spill into the next row or past the table.
        let schema = schema_of(&[(true, 8), (true, 1), (false, 3), (true, 4)], 0);
        for mvcc in [false, true] {
            let rows = 1_600;
            let mut mem = PhysicalMemory::new(1 << 18);
            let mut table =
                RowTable::create(&mut mem, schema.clone(), rows, mvcc_of(mvcc)).unwrap();
            let canary = mem.alloc(64, 64);
            assert_eq!(canary, table.row_addr(rows));
            mem.write(canary, &[0xA5; 64]);
            // Mark everything above the first canary too: the column
            // arrays overwrite their own bytes, and the second canary is
            // allocated where the last array ends.
            let free = mem.capacity() - mem.allocated() as usize;
            mem.slice_mut(mem.allocated(), free).fill(0x5A);
            DataGen::new(3)
                .fill_table(&mut mem, &mut table, rows)
                .unwrap();
            assert_eq!(table.num_rows(), rows);
            assert_eq!(mem.read(canary, 64), &[0xA5; 64]);
            let columnar = ColumnarTable::materialize(&mut mem, &table).unwrap();
            let after = mem.alloc(64, 64);
            assert_eq!(after, columnar.column_base(3).unwrap() + rows * 4);
            assert_eq!(mem.read(canary, 64), &[0xA5; 64]);
            assert_eq!(mem.read(after, 64), &[0x5A; 64]);
        }
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
            chunk_rows in 1usize..=7,
            helpers in 0usize..=3,
        ) {
            let mut mem = PhysicalMemory::new(1 << 16);
            let schema = schema_of(&cols, fill);
            let mut table = RowTable::create(&mut mem, schema.clone(), rows, mvcc_of(mvcc)).unwrap();
            DataGen::new(seed).fill_table(&mut mem, &mut table, rows).unwrap();
            let capacity = rows + headroom;
            let columnar = ColumnarTable::materialize_chunked(
                &mut mem, &table, capacity, chunk_rows, helpers,
            )
            .unwrap();
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
