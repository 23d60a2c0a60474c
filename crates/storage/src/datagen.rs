//! Seeded synthetic data generation for the Relational Memory Benchmark.
//!
//! The paper's benchmark populates relations `S` and `R` with tunable column
//! and row widths; selections such as `WHERE A3 > k` hit a target
//! selectivity because values are drawn uniformly from a known range. The
//! generator is fully deterministic given its seed so that experiments and
//! property tests are reproducible.

use std::convert::Infallible;

use rand::rngs::{Jump, StdRng};
use rand::{RngExt, SeedableRng};
use relmem_dram::PhysicalMemory;

use crate::chunks::{drain, helpers, CHUNK_ROWS};
use crate::error::StorageError;
use crate::schema::Schema;
use crate::table::{RowTable, SlotFormat};
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
        let plan = Plan::new(table.schema(), None)?;
        self.fill_chunked(mem, table, rows, &plan, CHUNK_ROWS, helpers())
            .map(drop)
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
        let key = JoinKey::new(inner.schema(), join_col, match_fraction)?;
        let plan = Plan::new(inner.schema(), Some(key))?;
        self.fill_chunked(mem, inner, rows, &plan, CHUNK_ROWS, helpers())
            .map(drop)
    }

    /// The row kernel behind both fills, over chunks of `chunk_rows` rows
    /// drained by the calling thread and up to `helpers` more (see
    /// [`Plan::fill_chunks`]). Returns the first chunk it had to regenerate.
    fn fill_chunked(
        &mut self,
        mem: &mut PhysicalMemory,
        table: &RowTable,
        rows: u64,
        plan: &Plan,
        chunk_rows: usize,
        helpers: usize,
    ) -> Result<Option<usize>, StorageError> {
        let rng = &mut self.rng;
        let mut regenerated = None;
        table.append_encoded(mem, rows, 1, |slots, format| {
            regenerated = plan.fill_chunks(slots, format, rng, chunk_rows, helpers);
            Ok(())
        })?;
        Ok(regenerated)
    }
}

/// The key a join inner relation's row draws after its columns: a match
/// below `split` with probability `match_fraction`, else a miss in
/// `[split, upper)`, written over the low `bytes` of the column at `at`.
#[derive(Debug, Clone, Copy)]
struct JoinKey {
    at: usize,
    bytes: usize,
    split: u64,
    upper: u64,
    match_fraction: f64,
}

impl JoinKey {
    fn new(schema: &Schema, join_col: usize, match_fraction: f64) -> Result<Self, StorageError> {
        // Clamp the key ranges to what the join column can physically hold:
        // narrow key columns (1 byte) cannot represent a disjoint
        // "non-matching" range, in which case every inner key may match.
        let capacity = match schema.column(join_col)?.ty {
            ColumnType::UInt(w) if w < 8 => 1u64 << (8 * w),
            _ => u64::MAX,
        };
        let upper = (2 * VALUE_RANGE).min(capacity);
        Ok(JoinKey {
            at: schema.offset(join_col)?,
            bytes: schema.width(join_col)?.min(8),
            split: VALUE_RANGE.min(upper / 2).max(1),
            upper,
            match_fraction,
        })
    }

    /// Draws per key without rejections: `random_bool` draws unless its
    /// probability is 0 or 1.
    fn draws(&self) -> u64 {
        1 + u64::from(self.match_fraction > 0.0 && self.match_fraction < 1.0)
    }

    fn write(&self, rng: &mut StdRng, row: &mut [u8]) {
        let key = if rng.random_bool(self.match_fraction) {
            rng.random_range(0..self.split)
        } else {
            rng.random_range(self.split..self.upper)
        };
        row[self.at..self.at + self.bytes].copy_from_slice(&key.to_le_bytes()[..self.bytes]);
    }
}

/// What each generated row draws, resolved once per fill. Per row the
/// kernel draws one value per column, in column order, and writes its low
/// bytes at the column's offset, straight into the row's slot; then a join
/// key may draw more and overwrite its column.
///
/// Every column with at least 8 bytes of room before the row's end takes
/// one 8-byte little-endian store; offsets ascend, so these columns are a
/// prefix. A store may spill past its column, but only into the columns
/// after it (rows are packed), whose stores come later and overwrite the
/// spill; bytes of a wide `Bytes` column beyond its first 8 stay as
/// [`SlotFormat::encode_each`] zeroed them. The suffix columns, narrower
/// than 8 bytes, take an exact-width store, so nothing is written past the
/// row's end.
#[derive(Debug)]
struct Plan {
    /// (offset, exclusive bound of the drawn value) per prefix column.
    prefix: Vec<(usize, u64)>,
    /// (offset, width, bound) per suffix column.
    suffix: Vec<(usize, usize, u64)>,
    join: Option<JoinKey>,
}

impl Plan {
    fn new(schema: &Schema, join: Option<JoinKey>) -> Result<Self, StorageError> {
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
        Ok(Plan {
            prefix,
            suffix,
            join,
        })
    }

    /// Draws per row when no draw takes a rejection in `bounded`.
    fn draws_per_row(&self) -> u64 {
        (self.prefix.len() + self.suffix.len()) as u64 + self.join.map_or(0, |key| key.draws())
    }

    /// Writes the rows of `slots` in order, drawing from `rng`.
    fn fill(&self, slots: &mut [u8], format: SlotFormat, rng: &mut StdRng) {
        let Ok(()) = format.encode_each(slots, |row| {
            for &(at, bound) in &self.prefix {
                let v = rng.random_range(0..bound);
                row[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
            for &(at, bytes, bound) in &self.suffix {
                let v = rng.random_range(0..bound);
                row[at..at + bytes].copy_from_slice(&v.to_le_bytes()[..bytes]);
            }
            if let Some(key) = &self.join {
                key.write(rng, row);
            }
            Ok::<(), Infallible>(())
        });
    }

    /// Writes the rows of `slots` as [`fill`](Self::fill) would from `rng`,
    /// in chunks of `chunk_rows` rows drained by the calling thread and up
    /// to `helpers` more, and leaves `rng` where the sequential fill would.
    ///
    /// Chunk `k` starts at the state `k` chunks' draws ahead, one
    /// precomputed [`Jump`] past chunk `k - 1`'s start. A row draws
    /// [`draws_per_row`](Self::draws_per_row) values unless a draw is
    /// rejected in `bounded` (616 in 2^64 per draw for bound 1000, never
    /// for a power of two), so after the chunks each one's end state is
    /// checked against the next one's start: at the first mismatch, every
    /// later chunk is regenerated sequentially from the real end state.
    /// Returns the first chunk regenerated.
    fn fill_chunks(
        &self,
        slots: &mut [u8],
        format: SlotFormat,
        rng: &mut StdRng,
        chunk_rows: usize,
        helpers: usize,
    ) -> Option<usize> {
        let chunk_bytes = chunk_rows * format.row_bytes();
        let chunks = slots.chunks_mut(chunk_bytes);
        let mut starts = vec![rng.clone()];
        if chunks.len() > 1 {
            let jump = Jump::new(chunk_rows as u64 * self.draws_per_row());
            while starts.len() < chunks.len() {
                let mut next = starts[starts.len() - 1].clone();
                next.jump(&jump);
                starts.push(next);
            }
        }
        let mut ends = starts.clone();
        drain(chunks.zip(&mut ends), helpers, |(chunk, end)| {
            // Draw from a copy on this thread's stack: neighbouring chunks'
            // states share a cache line.
            let mut rng = end.clone();
            self.fill(chunk, format, &mut rng);
            *end = rng;
        });
        let mut end = ends.pop().expect("one state per chunk, and at least one");
        let regenerate = (1..starts.len()).find(|&k| ends[k - 1] != starts[k]);
        if let Some(k) = regenerate {
            end = ends[k - 1].clone();
            self.fill(&mut slots[k * chunk_bytes..], format, &mut end);
        }
        *rng = end;
        regenerate
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
    /// row count, the result, and the generator.
    type Filled = (Vec<u8>, u64, Result<(), StorageError>, StdRng);

    /// Chunk rows that put every test table in one chunk.
    const ONE_CHUNK: usize = 1 << 12;

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
        /// Runs the scenario through `fill`.
        fn run_with(
            self,
            schema: &Schema,
            fill: impl FnOnce(
                &mut DataGen,
                &mut PhysicalMemory,
                &mut RowTable,
            ) -> Result<(), StorageError>,
        ) -> Filled {
            let mut mem = PhysicalMemory::new(1 << 16);
            let mut table =
                RowTable::create(&mut mem, schema.clone(), self.capacity, mvcc_of(self.mvcc))
                    .unwrap();
            DataGen::new(!self.seed)
                .reference_fill(&mut mem, &table, self.pre)
                .unwrap();
            let mut gen = DataGen::new(self.seed);
            let result = fill(&mut gen, &mut mem, &mut table);
            // `append` writes headers through the kernel's own
            // `SlotFormat`, so check them against their value rather than
            // the reference.
            let begin = u64::from(self.mvcc);
            for row in 0..table.num_rows() {
                assert_eq!(table.version(&mem, row).unwrap(), (begin, 0));
            }
            let bytes = table.physical_row_bytes() * self.capacity as usize;
            let bytes = mem.read(table.base_addr(), bytes).to_vec();
            (bytes, table.num_rows(), result, gen.rng)
        }

        /// Runs the scenario through the per-row reference.
        fn reference(self, schema: &Schema) -> Filled {
            self.run_with(schema, |gen, mem, table| match self.join {
                None => gen.reference_fill(mem, table, self.rows),
                Some((col, frac)) => gen.reference_join(mem, table, self.rows, col, frac),
            })
        }

        /// Runs the scenario through the public fills.
        fn library(self, schema: &Schema) -> Filled {
            self.run_with(schema, |gen, mem, table| match self.join {
                None => gen.fill_table(mem, table, self.rows),
                Some((col, frac)) => gen.fill_join_inner(mem, table, self.rows, col, frac),
            })
        }

        /// Runs the scenario through the kernel under `plan`, in chunks of
        /// `chunk_rows` rows with `helpers` helper threads; also returns the
        /// first chunk the kernel regenerated.
        fn chunked(
            self,
            schema: &Schema,
            plan: &Plan,
            chunk_rows: usize,
            helpers: usize,
        ) -> (Filled, Option<usize>) {
            let mut regenerated = None;
            let filled = self.run_with(schema, |gen, mem, table| {
                regenerated = gen.fill_chunked(mem, table, self.rows, plan, chunk_rows, helpers)?;
                Ok(())
            });
            (filled, regenerated)
        }

        /// The scenario's own plan, as the public fills build it.
        fn plan(self, schema: &Schema) -> Plan {
            let key = self
                .join
                .map(|(col, frac)| JoinKey::new(schema, col, frac).unwrap());
            Plan::new(schema, key).unwrap()
        }

        /// Whether the public fill, the one-chunk kernel and the kernel in
        /// chunks of `chunk_rows` rows with `helpers` helpers all leave the
        /// reference's bytes, row count, result and generator, with no
        /// chunk regenerated (no bound the fills draw from rejects).
        fn matches_reference(self, schema: &Schema, chunk_rows: usize, helpers: usize) -> bool {
            let reference = self.reference(schema);
            let plan = self.plan(schema);
            let one = self.chunked(schema, &plan, ONE_CHUNK, 0);
            let chunked = self.chunked(schema, &plan, chunk_rows, helpers);
            self.library(schema) == reference
                && one == (reference.clone(), None)
                && chunked == (reference, None)
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
            chunk_rows in 1usize..=7,
            helpers in 0usize..=3,
        ) {
            let capacity = pre + rows + 2;
            let run = Fill { mvcc, capacity, pre, rows, seed, join: None };
            prop_assert!(run.matches_reference(&schema_of(&cols, fill), chunk_rows, helpers));
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
            chunk_rows in 1usize..=7,
            helpers in 0usize..=3,
        ) {
            let join = Some((join % cols.len(), quarters as f64 / 4.0));
            let run = Fill { mvcc, capacity: pre + rows, pre, rows, seed, join };
            prop_assert!(run.matches_reference(&schema_of(&cols, 0), chunk_rows, helpers));
        }

        #[test]
        fn rejected_draws_leave_the_one_chunk_bytes(
            cols in proptest::collection::vec((any::<bool>(), 1usize..=40), 0..6),
            mvcc in any::<bool>(),
            pre in 0u64..4,
            rows in 0u64..40,
            seed in any::<u64>(),
            chunk_rows in 1usize..=7,
            helpers in 0usize..=3,
        ) {
            let mut cols = cols;
            cols.insert(0, (true, 8));
            let schema = schema_of(&cols, 0);
            let plan = rejecting_plan(&schema);
            let run = Fill { mvcc, capacity: pre + rows + 1, pre, rows, seed, join: None };
            prop_assert_eq!(
                run.chunked(&schema, &plan, chunk_rows, helpers).0,
                run.chunked(&schema, &plan, ONE_CHUNK, 0).0
            );
        }
    }

    /// `schema`'s plan with the first column drawn below 2^63 + 1, where
    /// about half the draws are rejected at least once.
    fn rejecting_plan(schema: &Schema) -> Plan {
        let mut plan = Plan::new(schema, None).unwrap();
        plan.prefix[0].1 = (1 << 63) + 1;
        plan
    }

    /// The `chunk_rows`-row chunks in which a sequential fill of `rows`
    /// rows under `plan` from `seed` takes a rejection.
    fn rejecting_chunks(plan: &Plan, seed: u64, rows: u64, chunk_rows: u64) -> Vec<u64> {
        let bounds: Vec<u64> = plan.prefix.iter().map(|p| p.1).collect();
        assert!(plan.suffix.is_empty() && plan.join.is_none());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chunks = Vec::new();
        for row in 0..rows {
            let mut unrejected = rng.clone();
            unrejected.advance(plan.draws_per_row());
            for &bound in &bounds {
                rng.random_range(0..bound);
            }
            if rng != unrejected && chunks.last() != Some(&(row / chunk_rows)) {
                chunks.push(row / chunk_rows);
            }
        }
        chunks
    }

    #[test]
    fn a_rejection_in_the_first_a_middle_or_the_last_chunk_is_caught() {
        // Seven rows in chunks of two: chunks 0-2 of two rows, chunk 3 of one.
        let schema = Schema::benchmark(3, 8, 24);
        let plan = rejecting_plan(&schema);
        for only in [0, 2, 3] {
            let seed = (0..)
                .find(|&seed| rejecting_chunks(&plan, seed, 7, 2) == [only])
                .unwrap();
            for mvcc in [false, true] {
                let run = Fill {
                    mvcc,
                    capacity: 9,
                    pre: 1,
                    rows: 7,
                    seed,
                    join: None,
                };
                let (one, _) = run.chunked(&schema, &plan, ONE_CHUNK, 0);
                for helpers in 0..=3 {
                    let (filled, regenerated) = run.chunked(&schema, &plan, 2, helpers);
                    assert_eq!(filled, one, "rejection in chunk {only}, {helpers} helpers");
                    // The chunk after the rejecting one started too early;
                    // the last chunk has no chunk after it.
                    let after = only as usize + 1;
                    assert_eq!(regenerated, (after < 4).then_some(after));
                }
            }
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
            for helpers in 0..=3 {
                assert!(
                    run.matches_reference(&schema, 7, helpers),
                    "match fraction {frac}"
                );
            }
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
            };
            let whole = exact.library(&schema).0;
            let plan = over.plan(&schema);
            for filled in [over.library(&schema), over.chunked(&schema, &plan, 5, 2).0] {
                assert!(matches!(filled.2, Err(StorageError::OutOfMemory { .. })));
                assert_eq!(filled.1, 12);
                assert_eq!(filled.0, whole);
            }
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
        assert_eq!(a.library(&schema), a.library(&schema));
        let c = Fill { seed: 43, ..a };
        assert_ne!(
            a.library(&schema).0,
            c.library(&schema).0,
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
