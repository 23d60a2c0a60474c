//! Seeded synthetic data generation for the Relational Memory Benchmark.
//!
//! The paper's benchmark populates relations `S` and `R` with tunable column
//! and row widths; selections such as `WHERE A3 > k` hit a target
//! selectivity because values are drawn uniformly from a known range. The
//! generator is fully deterministic given its seed so that experiments and
//! property tests are reproducible.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use relmem_dram::PhysicalMemory;

use crate::error::StorageError;
use crate::table::RowTable;
use crate::types::ColumnType;

/// Upper bound (exclusive) of generated numeric values. Predicates can then
/// dial in a selectivity directly: `value < s * VALUE_RANGE` keeps a fraction
/// `s` of uniformly distributed rows.
pub const VALUE_RANGE: u64 = 1_000;

/// Deterministic data generator.
#[derive(Debug)]
pub struct DataGen {
    rng: StdRng,
}

impl DataGen {
    /// Creates a generator with a fixed seed.
    pub fn new(seed: u64) -> Self {
        DataGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Appends `rows` generated rows to `table` (all visible from ts 1):
    /// numeric columns uniform in `[0, VALUE_RANGE)`, byte columns such a
    /// value in their low bytes (at most 8) and zeros above.
    pub fn fill_table(
        &mut self,
        mem: &mut PhysicalMemory,
        table: &mut RowTable,
        rows: u64,
    ) -> Result<(), StorageError> {
        self.fill_rows(mem, table, rows, |_, _| {})
    }

    /// Fills a join *inner* relation `r` such that a target `match_fraction`
    /// of the rows of the already-populated *outer* relation `s` find a
    /// partner on the join column. Keys of the outer relation occupy
    /// `[0, VALUE_RANGE)`; non-matching inner keys are drawn from
    /// `[VALUE_RANGE, 2 * VALUE_RANGE)`.
    pub fn fill_join_inner(
        &mut self,
        mem: &mut PhysicalMemory,
        inner: &mut RowTable,
        rows: u64,
        join_col: usize,
        match_fraction: f64,
    ) -> Result<(), StorageError> {
        let schema = inner.schema();
        // Clamp the key ranges to what the join column can physically hold:
        // narrow key columns (1 byte) cannot represent a disjoint
        // "non-matching" range, in which case every inner key may match.
        let capacity = match schema.column(join_col)?.ty {
            ColumnType::UInt(w) if w < 8 => 1u64 << (8 * w),
            _ => u64::MAX,
        };
        let upper = (2 * VALUE_RANGE).min(capacity);
        let split = VALUE_RANGE.min(upper / 2).max(1);
        let key_at = schema.offset(join_col)?;
        let key_bytes = schema.width(join_col)?.min(8);
        self.fill_rows(mem, inner, rows, |rng, row| {
            let key = if rng.random_bool(match_fraction) {
                rng.random_range(0..split)
            } else {
                rng.random_range(split..upper)
            };
            row[key_at..key_at + key_bytes].copy_from_slice(&key.to_le_bytes()[..key_bytes]);
        })
    }

    /// The row kernel behind both fills. Per row it draws one value per
    /// column, in column order, and writes its low bytes at the column's
    /// offset, straight into the row's slot; then `finish` may draw more
    /// and overwrite fields.
    ///
    /// The per-schema plan is resolved once. Every column with at least 8
    /// bytes of room before the row's end takes one 8-byte little-endian
    /// store; offsets ascend, so these columns are a prefix. A store may
    /// spill past its column, but only into the columns after it (rows are
    /// packed), whose stores come later and overwrite the spill; bytes of a
    /// wide `Bytes` column beyond its first 8 stay as `append_encoded`
    /// zeroed them. The suffix columns, narrower than 8 bytes, take an
    /// exact-width store, so nothing is written past the row's end.
    fn fill_rows(
        &mut self,
        mem: &mut PhysicalMemory,
        table: &RowTable,
        rows: u64,
        mut finish: impl FnMut(&mut StdRng, &mut [u8]),
    ) -> Result<(), StorageError> {
        let schema = table.schema();
        // (offset, exclusive bound of the drawn value) per prefix column,
        // and (offset, width, bound) per suffix column.
        let (mut prefix, mut suffix) = (Vec::new(), Vec::new());
        for (idx, col) in schema.columns().iter().enumerate() {
            let at = schema.offset(idx)?;
            let bound = match col.ty {
                ColumnType::UInt(w) if w < 8 => VALUE_RANGE.min(1 << (8 * w)),
                _ => VALUE_RANGE,
            };
            if at + 8 <= schema.row_bytes() {
                prefix.push((at, bound));
            } else {
                suffix.push((at, col.ty.width(), bound));
            }
        }
        let rng = &mut self.rng;
        table.append_encoded(mem, rows, 1, |row| {
            for &(at, bound) in &prefix {
                let v = rng.random_range(0..bound);
                row[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
            for &(at, bytes, bound) in &suffix {
                let v = rng.random_range(0..bound);
                row[at..at + bytes].copy_from_slice(&v.to_le_bytes()[..bytes]);
            }
            finish(rng, row);
            Ok(())
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mvcc::MvccConfig;
    use crate::row::Row;
    use crate::schema::{ColumnDef, Schema};
    use crate::types::Value;
    use proptest::prelude::*;
    use rand::RngCore;

    /// The per-row reference the bulk kernel must match: every row is built
    /// as `Value`s and stored through `RowTable::append`.
    impl DataGen {
        fn row(&mut self, schema: &Schema) -> Row {
            let values = schema
                .columns()
                .iter()
                .map(|c| match c.ty {
                    ColumnType::UInt(w) => {
                        let bound =
                            VALUE_RANGE.min(if w >= 8 { u64::MAX } else { 1u64 << (8 * w) });
                        Value::UInt(self.rng.random_range(0..bound))
                    }
                    ColumnType::Bytes(w) => {
                        let mut bytes = vec![0u8; w];
                        let v = self.rng.random_range(0..VALUE_RANGE);
                        let n = w.min(8);
                        bytes[..n].copy_from_slice(&v.to_le_bytes()[..n]);
                        Value::Bytes(bytes)
                    }
                })
                .collect();
            Row::new(values)
        }

        fn reference_fill(
            &mut self,
            mem: &mut PhysicalMemory,
            table: &RowTable,
            rows: u64,
        ) -> Result<(), StorageError> {
            for _ in 0..rows {
                let row = self.row(table.schema());
                table.append(mem, &row, 1)?;
            }
            Ok(())
        }

        fn reference_join(
            &mut self,
            mem: &mut PhysicalMemory,
            inner: &RowTable,
            rows: u64,
            join_col: usize,
            match_fraction: f64,
        ) -> Result<(), StorageError> {
            let schema = inner.schema().clone();
            let capacity = match schema.column(join_col)?.ty {
                ColumnType::UInt(w) if w < 8 => 1u64 << (8 * w),
                _ => u64::MAX,
            };
            let upper = (2 * VALUE_RANGE).min(capacity);
            let split = VALUE_RANGE.min(upper / 2).max(1);
            for _ in 0..rows {
                let mut values = self.row(&schema).values().to_vec();
                let matching = self.rng.random_bool(match_fraction);
                let key = if matching {
                    self.rng.random_range(0..split)
                } else {
                    self.rng.random_range(split..upper)
                };
                values[join_col] = Value::UInt(key);
                inner.append(mem, &Row::new(values), 1)?;
            }
            Ok(())
        }
    }

    /// A schema from generated `(is_uint, width)` pairs — `UInt` widths
    /// 1–8, `Bytes` widths 1–40 — plus a trailing `fill` column of `fill`
    /// bytes when `fill > 0`.
    pub(crate) fn schema_of(cols: &[(bool, usize)], fill: usize) -> Schema {
        let mut defs: Vec<ColumnDef> = cols
            .iter()
            .enumerate()
            .map(|(i, &(uint, w))| {
                let ty = if uint {
                    ColumnType::UInt(1 + (w - 1) % 8)
                } else {
                    ColumnType::Bytes(w)
                };
                ColumnDef::new(format!("c{i}"), ty)
            })
            .collect();
        if fill > 0 {
            defs.push(ColumnDef::new("fill", ColumnType::Bytes(fill)));
        }
        Schema::new(defs).unwrap()
    }

    pub(crate) fn mvcc_of(on: bool) -> MvccConfig {
        if on {
            MvccConfig::Enabled
        } else {
            MvccConfig::Disabled
        }
    }

    /// Everything a fill leaves behind: the table's whole allocation, its
    /// row count, the result, and the generator's next draw.
    type Filled = (Vec<u8>, u64, Result<(), StorageError>, u64);

    /// A fill scenario: `pre` reference rows from another seed, then `rows`
    /// rows from `seed`, into a table of `capacity` rows; a join fill when
    /// `join` names the key column and the match fraction.
    #[derive(Debug, Clone, Copy)]
    struct Fill {
        mvcc: bool,
        capacity: u64,
        pre: u64,
        rows: u64,
        seed: u64,
        join: Option<(usize, f64)>,
    }

    impl Fill {
        /// Runs the scenario through the library (`bulk`) or the reference.
        fn run(self, schema: &Schema, bulk: bool) -> Filled {
            let mut mem = PhysicalMemory::new(1 << 16);
            let mut table =
                RowTable::create(&mut mem, schema.clone(), self.capacity, mvcc_of(self.mvcc))
                    .unwrap();
            DataGen::new(!self.seed)
                .reference_fill(&mut mem, &table, self.pre)
                .unwrap();
            let (mut gen, rows) = (DataGen::new(self.seed), self.rows);
            let result = match (self.join, bulk) {
                (None, true) => gen.fill_table(&mut mem, &mut table, rows),
                (None, false) => gen.reference_fill(&mut mem, &table, rows),
                (Some((col, frac)), true) => {
                    gen.fill_join_inner(&mut mem, &mut table, rows, col, frac)
                }
                (Some((col, frac)), false) => gen.reference_join(&mut mem, &table, rows, col, frac),
            };
            // `append` writes headers through the kernel's own
            // `append_encoded`, so check them against their value rather
            // than the reference.
            let begin = u64::from(self.mvcc);
            for row in 0..table.num_rows() {
                assert_eq!(table.version(&mem, row).unwrap(), (begin, 0));
            }
            let bytes = table.physical_row_bytes() * self.capacity as usize;
            let bytes = mem.read(table.base_addr(), bytes).to_vec();
            (bytes, table.num_rows(), result, gen.rng.next_u64())
        }

        fn matches_reference(self, schema: &Schema) -> bool {
            self.run(schema, true) == self.run(schema, false)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn fill_table_writes_the_reference_bytes(
            cols in proptest::collection::vec((any::<bool>(), 1usize..=40), 1..8),
            fill in 0usize..24,
            mvcc in any::<bool>(),
            pre in 0u64..4,
            rows in 0u64..40,
            seed in any::<u64>(),
        ) {
            let capacity = pre + rows + 2;
            let run = Fill { mvcc, capacity, pre, rows, seed, join: None };
            prop_assert!(run.matches_reference(&schema_of(&cols, fill)));
        }

        #[test]
        fn fill_join_inner_writes_the_reference_bytes(
            cols in proptest::collection::vec((any::<bool>(), 1usize..=40), 1..8),
            join in any::<usize>(),
            quarters in 0u64..=4,
            mvcc in any::<bool>(),
            pre in 0u64..4,
            rows in 0u64..40,
            seed in any::<u64>(),
        ) {
            let join = Some((join % cols.len(), quarters as f64 / 4.0));
            let run = Fill { mvcc, capacity: pre + rows, pre, rows, seed, join };
            prop_assert!(run.matches_reference(&schema_of(&cols, 0)));
        }
    }

    #[test]
    fn one_byte_join_keys_clamp_like_the_reference() {
        // A 1-byte key column cannot hold a disjoint non-matching range.
        let schema = schema_of(&[(true, 4), (true, 1), (false, 3)], 5);
        for frac in [0.0, 0.3, 1.0] {
            let join = Some((1, frac));
            let run = Fill {
                mvcc: true,
                capacity: 300,
                pre: 2,
                rows: 298,
                seed: 7,
                join,
            };
            assert!(run.matches_reference(&schema), "match fraction {frac}");
        }
    }

    #[test]
    fn overfill_keeps_the_rows_that_fit_and_reports_out_of_memory() {
        let schema = Schema::benchmark(3, 4, 20);
        for mvcc in [false, true] {
            let exact = Fill {
                mvcc,
                capacity: 12,
                pre: 0,
                rows: 12,
                seed: 3,
                join: None,
            };
            let over = Fill {
                rows: 12 + 5,
                ..exact
            }
            .run(&schema, true);
            assert!(matches!(over.2, Err(StorageError::OutOfMemory { .. })));
            assert_eq!(over.1, 12);
            assert_eq!(over.0, exact.run(&schema, true).0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let schema = Schema::benchmark(4, 4, 32);
        let a = Fill {
            mvcc: false,
            capacity: 10,
            pre: 0,
            rows: 10,
            seed: 42,
            join: None,
        };
        assert_eq!(a.run(&schema, true), a.run(&schema, true));
        let c = Fill { seed: 43, ..a };
        assert_ne!(
            a.run(&schema, true).0,
            c.run(&schema, true).0,
            "different seeds should produce different data"
        );
    }

    #[test]
    fn values_respect_range_and_widths() {
        let mut mem = PhysicalMemory::new(1 << 20);
        let mut g = DataGen::new(1);
        for (width, bound) in [(1, 256), (8, VALUE_RANGE)] {
            let schema = Schema::benchmark(2, width, 16);
            let mut t = RowTable::create(&mut mem, schema, 100, MvccConfig::Disabled).unwrap();
            g.fill_table(&mut mem, &mut t, 100).unwrap();
            for row in 0..100 {
                let v = t.read_field(&mem, row, 0).unwrap();
                assert!(v.as_u64() < bound, "{width}-byte column overflow: {v:?}");
            }
        }
    }

    #[test]
    fn fill_table_appends_requested_rows() {
        let mut mem = PhysicalMemory::new(1 << 20);
        let schema = Schema::benchmark(4, 4, 64);
        let mut t = RowTable::create(&mut mem, schema, 500, MvccConfig::Disabled).unwrap();
        DataGen::new(5).fill_table(&mut mem, &mut t, 500).unwrap();
        assert_eq!(t.num_rows(), 500);
        // Every stored value is decodable and within range.
        let v = t.read_field(&mem, 499, 2).unwrap();
        assert!(v.as_u64() < VALUE_RANGE);
    }

    #[test]
    fn join_inner_match_fraction_is_respected() {
        let mut mem = PhysicalMemory::new(1 << 22);
        let schema = Schema::benchmark(4, 8, 64);
        let mut inner = RowTable::create(&mut mem, schema, 2_000, MvccConfig::Disabled).unwrap();
        DataGen::new(9)
            .fill_join_inner(&mut mem, &mut inner, 2_000, 1, 0.5)
            .unwrap();
        let mut matching = 0u64;
        for row in 0..2_000 {
            if inner.read_field(&mem, row, 1).unwrap().as_u64() < VALUE_RANGE {
                matching += 1;
            }
        }
        let frac = matching as f64 / 2_000.0;
        assert!((frac - 0.5).abs() < 0.05, "match fraction was {frac}");
    }
}
