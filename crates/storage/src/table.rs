//! Row-major tables resident in simulated physical memory.
//!
//! A [`RowTable`] is the paper's `struct row table[]`: an array of
//! fixed-width rows stored contiguously in [`PhysicalMemory`]. When MVCC is
//! enabled each row is preceded by a 16-byte version header (begin/end
//! timestamps); the logical schema is unaffected.

use std::cell::Cell;

use relmem_dram::PhysicalMemory;

use crate::error::StorageError;
use crate::mvcc::{decode_header, encode_header, MvccConfig, Snapshot, Timestamp};
use crate::row::Row;
use crate::schema::Schema;
use crate::types::Value;

/// How a table's rows sit in their slots: the MVCC header, if any, then
/// the data bytes. Owns no table state, so bulk builders hand it to other
/// threads with disjoint runs of slots.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotFormat {
    row_bytes: usize,
    header: usize,
    version: [u8; 16],
}

impl SlotFormat {
    /// Bytes per slot (header and data).
    pub(crate) fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Encodes the slots of `slots` in order, each in place: its data bytes
    /// are zeroed, so bytes `encode` never writes read as zero, then
    /// `encode` fills them, then the header is written. `encode` must
    /// validate before it writes: the first row it rejects gets no header
    /// and ends the walk.
    #[inline(always)]
    pub(crate) fn encode_each<E>(
        &self,
        slots: &mut [u8],
        mut encode: impl FnMut(&mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        for slot in slots.chunks_exact_mut(self.row_bytes) {
            let (head, data) = slot.split_at_mut(self.header);
            data.fill(0);
            encode(data)?;
            head.copy_from_slice(&self.version[..self.header]);
        }
        Ok(())
    }
}

/// A row-major table stored in physical memory.
#[derive(Debug, Clone)]
pub struct RowTable {
    schema: Schema,
    mvcc: MvccConfig,
    base: u64,
    capacity_rows: u64,
    /// Populated row count. A `Cell` because transactional inserts append
    /// through the shared references the workload ops carry; the simulator
    /// is single-threaded, so interior mutability is safe here.
    rows: Cell<u64>,
}

impl RowTable {
    /// Allocates space for `capacity_rows` rows in `mem` and returns an
    /// empty table.
    pub fn create(
        mem: &mut PhysicalMemory,
        schema: Schema,
        capacity_rows: u64,
        mvcc: MvccConfig,
    ) -> Result<Self, StorageError> {
        let phys_row = schema.row_bytes() + mvcc.header_bytes();
        let needed = (phys_row as u64).saturating_mul(capacity_rows) as usize;
        let available = mem.capacity() - mem.allocated() as usize;
        let base = mem.try_alloc(needed, 64).ok_or(StorageError::OutOfMemory {
            requested: needed,
            available,
        })?;
        Ok(RowTable {
            schema,
            mvcc,
            base,
            capacity_rows,
            rows: Cell::new(0),
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The MVCC configuration.
    pub fn mvcc(&self) -> MvccConfig {
        self.mvcc
    }

    /// Number of rows currently stored (including versions no longer
    /// visible to new snapshots).
    pub fn num_rows(&self) -> u64 {
        self.rows.get()
    }

    /// Maximum number of rows the allocation can hold.
    pub fn capacity_rows(&self) -> u64 {
        self.capacity_rows
    }

    /// Base physical address of the table.
    pub fn base_addr(&self) -> u64 {
        self.base
    }

    /// Bytes occupied by one row in memory (header + data).
    pub fn physical_row_bytes(&self) -> usize {
        self.schema.row_bytes() + self.mvcc.header_bytes()
    }

    /// Physical address of row `row` (start of its header if MVCC is on).
    pub fn row_addr(&self, row: u64) -> u64 {
        self.base + row * self.physical_row_bytes() as u64
    }

    /// Physical address of the data portion of row `row`.
    pub fn row_data_addr(&self, row: u64) -> u64 {
        self.row_addr(row) + self.mvcc.header_bytes() as u64
    }

    /// Physical address of field `col` of row `row`.
    pub fn field_addr(&self, row: u64, col: usize) -> Result<u64, StorageError> {
        Ok(self.row_data_addr(row) + self.schema.offset(col)? as u64)
    }

    /// Appends a row, visible from `begin_ts` onwards. Returns its index.
    /// Takes `&self`: transactional inserts publish rows through the shared
    /// references held by in-flight workload ops.
    pub fn append(
        &self,
        mem: &mut PhysicalMemory,
        row: &Row,
        begin_ts: Timestamp,
    ) -> Result<u64, StorageError> {
        let idx = self.rows.get();
        self.append_encoded(mem, 1, begin_ts, |slot, format| {
            format.encode_each(slot, |data| row.encode_into(&self.schema, data))
        })?;
        Ok(idx)
    }

    /// Appends up to `rows` rows visible from `begin_ts`. `fill` gets the
    /// slots of the rows that fit, back to back, and the format that
    /// encodes each one in place; when it returns `Ok` they are counted, and
    /// when it fails none is. When the table fills up, the rows that fit
    /// stay and the call fails with `OutOfMemory`.
    pub(crate) fn append_encoded(
        &self,
        mem: &mut PhysicalMemory,
        rows: u64,
        begin_ts: Timestamp,
        fill: impl FnOnce(&mut [u8], SlotFormat) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let format = SlotFormat {
            row_bytes: self.physical_row_bytes(),
            header: self.mvcc.header_bytes(),
            version: encode_header(begin_ts, 0),
        };
        let start = self.rows.get();
        let fits = rows.min(self.capacity_rows - start);
        let slots = mem.slice_mut(self.row_addr(start), fits as usize * format.row_bytes);
        fill(slots, format)?;
        self.rows.set(start + fits);
        if rows > fits {
            return Err(StorageError::OutOfMemory {
                requested: format.row_bytes,
                available: 0,
            });
        }
        Ok(())
    }

    /// Reads a whole row back.
    pub fn get_row(&self, mem: &PhysicalMemory, row: u64) -> Result<Row, StorageError> {
        self.check_row(row)?;
        let bytes = mem.read(self.row_data_addr(row), self.schema.row_bytes());
        Row::decode(&self.schema, bytes)
    }

    /// Reads a single field.
    pub fn read_field(
        &self,
        mem: &PhysicalMemory,
        row: u64,
        col: usize,
    ) -> Result<Value, StorageError> {
        self.check_row(row)?;
        let def = self.schema.column(col)?;
        let addr = self.field_addr(row, col)?;
        let bytes = mem.read(addr, def.ty.width());
        Ok(Value::decode(def.ty, bytes))
    }

    /// Overwrites a single field in place (a transactional update of the
    /// row-oriented base data).
    pub fn write_field(
        &self,
        mem: &mut PhysicalMemory,
        row: u64,
        col: usize,
        value: &Value,
    ) -> Result<(), StorageError> {
        self.check_row(row)?;
        let def = self.schema.column(col)?;
        if !value.compatible_with(def.ty) {
            return Err(StorageError::TypeMismatch {
                column: def.name.clone(),
                expected: def.ty.name(),
            });
        }
        let addr = self.field_addr(row, col)?;
        value.encode_into(mem.slice_mut(addr, def.ty.width()));
        Ok(())
    }

    /// Reads the MVCC header of a row (begin, end). Rows of non-MVCC tables
    /// report `(0, 0)` — visible to every snapshot.
    pub fn version(
        &self,
        mem: &PhysicalMemory,
        row: u64,
    ) -> Result<(Timestamp, Timestamp), StorageError> {
        self.check_row(row)?;
        if !self.mvcc.is_enabled() {
            return Ok((0, 0));
        }
        Ok(decode_header(mem.read(self.row_addr(row), 16)))
    }

    /// Marks a row version as ended at `end_ts` (delete, or the old half of
    /// an update).
    pub fn mark_deleted(
        &self,
        mem: &mut PhysicalMemory,
        row: u64,
        end_ts: Timestamp,
    ) -> Result<(), StorageError> {
        self.check_row(row)?;
        if !self.mvcc.is_enabled() {
            return Err(StorageError::InvalidColumnGroup(
                "cannot delete from a table without MVCC headers".into(),
            ));
        }
        let (begin, _) = self.version(mem, row)?;
        mem.write(self.row_addr(row), &encode_header(begin, end_ts));
        Ok(())
    }

    /// MVCC update: ends the old version and appends the new one.
    pub fn update(
        &self,
        mem: &mut PhysicalMemory,
        row: u64,
        new_row: &Row,
        ts: Timestamp,
    ) -> Result<u64, StorageError> {
        self.mark_deleted(mem, row, ts)?;
        self.append(mem, new_row, ts)
    }

    /// Whether a row version is visible to `snapshot`.
    pub fn visible(
        &self,
        mem: &PhysicalMemory,
        row: u64,
        snapshot: Snapshot,
    ) -> Result<bool, StorageError> {
        if !self.mvcc.is_enabled() {
            self.check_row(row)?;
            return Ok(true);
        }
        let (begin, end) = self.version(mem, row)?;
        Ok(snapshot.sees(begin, end))
    }

    fn check_row(&self, row: u64) -> Result<(), StorageError> {
        if row < self.rows.get() {
            Ok(())
        } else {
            Err(StorageError::RowOutOfRange {
                row,
                rows: self.rows.get(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::types::ColumnType;

    fn mem() -> PhysicalMemory {
        PhysicalMemory::new(1 << 20)
    }

    fn simple_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("a", ColumnType::UInt(8)),
            ColumnDef::new("b", ColumnType::UInt(4)),
        ])
        .unwrap()
    }

    #[test]
    fn append_and_read_back() {
        let mut m = mem();
        let t = RowTable::create(&mut m, simple_schema(), 10, MvccConfig::Disabled).unwrap();
        let idx = t.append(&mut m, &Row::from_u64s(&[7, 9]), 0).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.read_field(&m, 0, 0).unwrap(), Value::UInt(7));
        assert_eq!(t.read_field(&m, 0, 1).unwrap(), Value::UInt(9));
        assert_eq!(t.get_row(&m, 0).unwrap(), Row::from_u64s(&[7, 9]));
    }

    #[test]
    fn addresses_are_contiguous_rows() {
        let mut m = mem();
        let t = RowTable::create(&mut m, simple_schema(), 10, MvccConfig::Disabled).unwrap();
        assert_eq!(t.physical_row_bytes(), 12);
        assert_eq!(t.row_addr(3) - t.row_addr(2), 12);
        assert_eq!(t.field_addr(2, 1).unwrap() - t.row_addr(2), 8);
        // MVCC adds a 16-byte header before each row.
        let mut m2 = mem();
        let t2 = RowTable::create(&mut m2, simple_schema(), 10, MvccConfig::Enabled).unwrap();
        assert_eq!(t2.physical_row_bytes(), 28);
        assert_eq!(t2.row_data_addr(0) - t2.row_addr(0), 16);
    }

    #[test]
    fn capacity_and_bounds_enforced() {
        let mut m = mem();
        let t = RowTable::create(&mut m, simple_schema(), 1, MvccConfig::Disabled).unwrap();
        t.append(&mut m, &Row::from_u64s(&[1, 2]), 0).unwrap();
        assert!(t.append(&mut m, &Row::from_u64s(&[3, 4]), 0).is_err());
        assert!(t.read_field(&m, 5, 0).is_err());
        // Creating a table bigger than memory fails.
        let mut small = PhysicalMemory::new(64);
        assert!(matches!(
            RowTable::create(&mut small, simple_schema(), 1000, MvccConfig::Disabled),
            Err(StorageError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn oversized_capacity_is_out_of_memory_not_a_wrap() {
        // 64 B x 2^58 rows wraps to 0 bytes in unchecked u64 arithmetic.
        let mut m = mem();
        let schema = Schema::new(vec![ColumnDef::new("a", ColumnType::Bytes(64))]).unwrap();
        assert!(matches!(
            RowTable::create(&mut m, schema, 1 << 58, MvccConfig::Disabled),
            Err(StorageError::OutOfMemory { .. })
        ));
        assert_eq!(m.allocated(), 0);
    }

    #[test]
    fn alignment_padding_counts_against_the_room() {
        // A 12-byte table leaves the cursor off a 64-byte boundary, so a
        // table that fits the bytes left does not fit once padded.
        let mut m = PhysicalMemory::new(1024);
        let schema = Schema::new(vec![ColumnDef::new("a", ColumnType::UInt(4))]).unwrap();
        RowTable::create(&mut m, schema.clone(), 3, MvccConfig::Disabled).unwrap();
        let rows = (1024 - m.allocated()) / 4;
        assert!(matches!(
            RowTable::create(&mut m, schema, rows, MvccConfig::Disabled),
            Err(StorageError::OutOfMemory { .. })
        ));
        assert_eq!(m.allocated(), 12);
    }

    #[test]
    fn in_place_field_update() {
        let mut m = mem();
        let t = RowTable::create(&mut m, simple_schema(), 4, MvccConfig::Disabled).unwrap();
        t.append(&mut m, &Row::from_u64s(&[1, 2]), 0).unwrap();
        t.write_field(&mut m, 0, 1, &Value::UInt(42)).unwrap();
        assert_eq!(t.read_field(&m, 0, 1).unwrap(), Value::UInt(42));
        assert!(t.write_field(&mut m, 0, 1, &Value::UInt(u64::MAX)).is_err());
    }

    #[test]
    fn mvcc_lifecycle() {
        let mut m = mem();
        let t = RowTable::create(&mut m, simple_schema(), 8, MvccConfig::Enabled).unwrap();
        let r0 = t.append(&mut m, &Row::from_u64s(&[1, 10]), 5).unwrap();
        assert_eq!(t.version(&m, r0).unwrap(), (5, 0));
        // Visible at ts >= 5, invisible before.
        assert!(t.visible(&m, r0, Snapshot::at(5)).unwrap());
        assert!(!t.visible(&m, r0, Snapshot::at(4)).unwrap());
        // Update at ts 9: old version ends, new version begins.
        let r1 = t.update(&mut m, r0, &Row::from_u64s(&[1, 20]), 9).unwrap();
        assert!(t.visible(&m, r0, Snapshot::at(8)).unwrap());
        assert!(!t.visible(&m, r0, Snapshot::at(9)).unwrap());
        assert!(t.visible(&m, r1, Snapshot::at(9)).unwrap());
        assert_eq!(t.read_field(&m, r1, 1).unwrap(), Value::UInt(20));
        // Deleting from a non-MVCC table is an error.
        let t2 = RowTable::create(&mut m, simple_schema(), 2, MvccConfig::Disabled).unwrap();
        t2.append(&mut m, &Row::from_u64s(&[0, 0]), 0).unwrap();
        assert!(t2.mark_deleted(&mut m, 0, 1).is_err());
        // Non-MVCC rows are always visible.
        assert!(t2.visible(&m, 0, Snapshot::at(0)).unwrap());
    }
}
