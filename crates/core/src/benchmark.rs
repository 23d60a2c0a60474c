//! The Relational Memory Benchmark runner.
//!
//! [`Benchmark`] owns a [`System`] plus the relation(s) the benchmark
//! queries touch, and executes any of Q0–Q5 over any [`AccessPath`],
//! returning both the (cross-path identical) functional output and the
//! simulated measurement. The experiment harness in `relmem-bench` drives
//! this type for every figure of the paper.

use relmem_rme::HwRevision;
use relmem_sim::{PlatformConfig, SimTime};
use relmem_storage::{
    ColumnDef, ColumnGroup, ColumnType, ColumnarTable, DataGen, MvccConfig, RowTable, Schema,
    Snapshot,
};

use crate::access_path::AccessPath;
use crate::ephemeral::EphemeralVariable;
use crate::hashtbl::{checksum_accumulate, MixMap, SimHashTable};
use crate::measure::{QueryOutput, QueryRun};
use crate::queries::{spread_columns, Query, Q2_THRESHOLD, Q3_THRESHOLD};
use crate::system::{RowEffect, ScanSource, System};

/// Parameters of one benchmark instance (one point of a figure sweep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkParams {
    /// Rows of the main relation `S` (the paper's default is 44 K).
    pub rows: u64,
    /// Row width in bytes (default 64).
    pub row_bytes: usize,
    /// Width of each data column in bytes (default 4).
    pub column_width: usize,
    /// Byte offset of the single target column within the row. `None` uses
    /// the natural multi-column layout; `Some(o)` builds the Figure 6 layout
    /// (padding, one target column at offset `o`, padding).
    pub target_offset: Option<usize>,
    /// Rows of the join relation `R` (Q5).
    pub inner_rows: u64,
    /// Fraction of `R` rows with a join partner in `S` (Q5, default 0.5).
    pub match_fraction: f64,
    /// RNG seed for data generation.
    pub seed: u64,
    /// RME hardware revision to model.
    pub revision: HwRevision,
}

impl Default for BenchmarkParams {
    fn default() -> Self {
        BenchmarkParams {
            rows: 44_000,
            row_bytes: 64,
            column_width: 4,
            target_offset: None,
            inner_rows: 44_000,
            match_fraction: 0.5,
            seed: 42,
            revision: HwRevision::Mlp,
        }
    }
}

impl BenchmarkParams {
    /// A scaled-down configuration for unit tests.
    pub fn small_for_tests() -> Self {
        BenchmarkParams {
            rows: 2_000,
            inner_rows: 2_000,
            ..BenchmarkParams::default()
        }
    }

    /// Number of data columns in the main relation's schema.
    pub fn data_columns(&self) -> usize {
        match self.target_offset {
            Some(_) => 1,
            None => self.row_bytes / self.column_width,
        }
    }

    /// Physical memory needed to hold both relations (each row with room
    /// for a 16 B MVCC header) and their columnar copies, plus a fixed
    /// 16 MiB margin. Nothing else is allocated in it.
    fn mem_bytes(&self) -> usize {
        let main = self.rows as usize * (self.row_bytes + 16);
        let inner = self.inner_rows as usize * (self.row_bytes + 16);
        (main + inner) * 2 + (16 << 20)
    }
}

/// The benchmark runner.
pub struct Benchmark {
    params: BenchmarkParams,
    system: System,
    table: RowTable,
    columnar: Option<ColumnarTable>,
    inner: Option<RowTable>,
    inner_columnar: Option<ColumnarTable>,
    /// Column index of `A1` (differs from 0 only in the Figure 6 layout).
    target_col: usize,
}

/// Which relation a scan runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Relation {
    Outer,
    Inner,
}

/// A prepared (path-specific) source description.
enum Prepared {
    Rows(Vec<usize>),
    Columnar(Vec<usize>),
    Ephemeral(EphemeralVariable),
}

impl Benchmark {
    /// Builds the benchmark: allocates the platform, creates and populates
    /// the main relation `S`.
    pub fn new(params: BenchmarkParams) -> Self {
        Benchmark::with_platform(params, PlatformConfig::zcu102())
    }

    /// Builds the benchmark on a custom platform configuration (used by the
    /// ablation benches).
    pub fn with_platform(params: BenchmarkParams, cfg: PlatformConfig) -> Self {
        let mut system = System::new(cfg, params.revision, params.mem_bytes());
        let schema = Self::schema_for(&params);
        let target_col = match params.target_offset {
            Some(0) | None => 0,
            Some(_) => 1,
        };
        let mut table = system
            .create_table(schema, params.rows, MvccConfig::Disabled)
            .expect("main relation fits in memory");
        DataGen::new(params.seed)
            .fill_table(system.mem_mut(), &mut table, params.rows)
            .expect("data generation succeeds");
        Benchmark {
            params,
            system,
            table,
            columnar: None,
            inner: None,
            inner_columnar: None,
            target_col,
        }
    }

    /// The parameters this benchmark was built with.
    pub fn params(&self) -> &BenchmarkParams {
        &self.params
    }

    /// The underlying system (for inspecting configuration and stats).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The main relation.
    pub fn table(&self) -> &RowTable {
        &self.table
    }

    fn schema_for(params: &BenchmarkParams) -> Schema {
        match params.target_offset {
            None | Some(0) => {
                Schema::benchmark(params.data_columns(), params.column_width, params.row_bytes)
            }
            Some(offset) => {
                assert!(
                    offset + params.column_width <= params.row_bytes,
                    "target column does not fit in the row"
                );
                let mut defs = vec![ColumnDef::new("pad_head", ColumnType::Bytes(offset))];
                let ty = if params.column_width <= 8 {
                    ColumnType::UInt(params.column_width)
                } else {
                    ColumnType::Bytes(params.column_width)
                };
                defs.push(ColumnDef::new("A1", ty));
                let used = offset + params.column_width;
                if used < params.row_bytes {
                    defs.push(ColumnDef::new(
                        "pad_tail",
                        ColumnType::Bytes(params.row_bytes - used),
                    ));
                }
                Schema::new(defs).expect("figure-6 schema is valid")
            }
        }
    }

    /// Runs `query` over `path`.
    pub fn run(&mut self, query: Query, path: AccessPath) -> QueryRun {
        assert!(
            query.min_columns() <= self.params.data_columns(),
            "{} needs {} data columns but the relation has {}",
            query.label(),
            query.min_columns(),
            self.params.data_columns()
        );
        match query {
            Query::Q0 => self.q0(path),
            Query::Q1 { projectivity } => self.q1(projectivity, path),
            Query::Q2 => self.q2(path),
            Query::Q3 => self.q3(path),
            Query::Q4 => self.q4(path),
            Query::Q5 => self.q5(path),
        }
    }

    // ------------------------------------------------------------------
    // Individual queries
    // ------------------------------------------------------------------

    /// `SELECT SUM(A1) FROM S`.
    fn q0(&mut self, path: AccessPath) -> QueryRun {
        let cols = vec![self.target_col];
        let prepared = self.prepare(path, &cols, Relation::Outer, None);
        self.system.begin_measurement(path);
        let agg = self.system.cost_model().aggregate();
        let mut sum = 0u64;
        let src = scan_source(&prepared, &self.table, self.columnar.as_ref(), None);
        let (end, cpu, _) = self.system.scan(&src, SimTime::ZERO, |_, v| {
            sum = sum.wrapping_add(v[0]);
            RowEffect {
                cpu: agg,
                touch: None,
            }
        });
        self.finish(path, QueryOutput::Scalar(sum), end, cpu)
    }

    /// `SELECT A1..Ak FROM S`.
    fn q1(&mut self, projectivity: usize, path: AccessPath) -> QueryRun {
        let cols = spread_columns(projectivity, self.params.data_columns());
        let prepared = self.prepare(path, &cols, Relation::Outer, None);
        self.system.begin_measurement(path);
        let out_cost = self.system.cost_model().output(projectivity);
        let mut checksum = 0u64;
        let mut rows = 0u64;
        let src = scan_source(&prepared, &self.table, self.columnar.as_ref(), None);
        let (end, cpu, _) = self.system.scan(&src, SimTime::ZERO, |_, v| {
            checksum = checksum_accumulate(checksum, v);
            rows += 1;
            RowEffect {
                cpu: out_cost,
                touch: None,
            }
        });
        self.finish(path, QueryOutput::Set { rows, checksum }, end, cpu)
    }

    /// `SELECT A1 FROM S WHERE A3 > k` (~90 % selectivity).
    fn q2(&mut self, path: AccessPath) -> QueryRun {
        let cols = vec![0, 2];
        let prepared = self.prepare(path, &cols, Relation::Outer, None);
        self.system.begin_measurement(path);
        let cost = *self.system.cost_model();
        let (predicate, out_cost) = (cost.predicate(), cost.output(1));
        let mut checksum = 0u64;
        let mut rows = 0u64;
        let src = scan_source(&prepared, &self.table, self.columnar.as_ref(), None);
        let (end, cpu, _) = self.system.scan(&src, SimTime::ZERO, |_, v| {
            let mut extra = predicate;
            if v[1] > Q2_THRESHOLD {
                checksum = checksum_accumulate(checksum, &[v[0]]);
                rows += 1;
                extra += out_cost;
            }
            RowEffect {
                cpu: extra,
                touch: None,
            }
        });
        self.finish(path, QueryOutput::Set { rows, checksum }, end, cpu)
    }

    /// `SELECT SUM(A2) FROM S WHERE A4 < k` (<10 % selectivity).
    fn q3(&mut self, path: AccessPath) -> QueryRun {
        let cols = vec![1, 3];
        let prepared = self.prepare(path, &cols, Relation::Outer, None);
        self.system.begin_measurement(path);
        let cost = *self.system.cost_model();
        let (predicate, agg) = (cost.predicate(), cost.aggregate());
        let mut sum = 0u64;
        let src = scan_source(&prepared, &self.table, self.columnar.as_ref(), None);
        let (end, cpu, _) = self.system.scan(&src, SimTime::ZERO, |_, v| {
            let mut extra = predicate;
            if v[1] < Q3_THRESHOLD {
                sum = sum.wrapping_add(v[0]);
                extra += agg;
            }
            RowEffect {
                cpu: extra,
                touch: None,
            }
        });
        self.finish(path, QueryOutput::Scalar(sum), end, cpu)
    }

    /// `SELECT AVG(A1) FROM S WHERE A3 < k GROUP BY A2`.
    fn q4(&mut self, path: AccessPath) -> QueryRun {
        let cols = vec![0, 1, 2];
        let prepared = self.prepare(path, &cols, Relation::Outer, None);
        self.system.begin_measurement(path);
        let cost = *self.system.cost_model();
        let (predicate, group_by) = (cost.predicate(), cost.group_by());
        // The group-by hash table (≤ VALUE_RANGE entries) fits comfortably in
        // the caches, so its maintenance is charged as CPU work.
        let mut sums = MixMap::<(u64, u64)>::default();
        let src = scan_source(&prepared, &self.table, self.columnar.as_ref(), None);
        let (end, cpu, _) = self.system.scan(&src, SimTime::ZERO, |_, v| {
            let mut extra = predicate;
            if v[2] < Q3_THRESHOLD {
                let entry = sums.entry(v[1]).or_insert((0, 0));
                entry.0 = entry.0.wrapping_add(v[0]);
                entry.1 += 1;
                extra += group_by;
            }
            RowEffect {
                cpu: extra,
                touch: None,
            }
        });
        let mut checksum = 0u64;
        for (&key, &(sum, count)) in &sums {
            let avg = sum.checked_div(count).unwrap_or(0);
            checksum = checksum_accumulate(checksum, &[key, avg]);
        }
        let output = QueryOutput::Set {
            rows: sums.len() as u64,
            checksum,
        };
        self.finish(path, output, end, cpu)
    }

    /// `SELECT S.A1, R.A3 FROM S JOIN R ON S.A2 = R.A2`, single-pass hash
    /// join: build on `S`, probe with `R`.
    fn q5(&mut self, path: AccessPath) -> QueryRun {
        self.ensure_inner();

        // The Reorganization Buffer cannot hold two relations' projections
        // at once, so the join is always a "cold" RME run.
        let path = if path == AccessPath::RmeHot {
            AccessPath::RmeCold
        } else {
            path
        };

        // Build side: S.A1 (payload) and S.A2 (key).
        let build_cols = vec![0, 1];
        let prepared_build = self.prepare(path, &build_cols, Relation::Outer, None);
        self.system.begin_measurement(path);
        let cost = *self.system.cost_model();
        let (build_cost, probe_cost, out_cost) =
            (cost.hash_build(), cost.hash_probe(), cost.output(2));
        // Hash-table maintenance is charged as CPU work (the build/probe cost
        // constants include the average cache behaviour of a table this
        // size); the paper likewise observes that hashing is a CPU-dominated,
        // path-independent cost (Figure 12b).
        let mut hash = SimHashTable::default();
        let src = scan_source(&prepared_build, &self.table, self.columnar.as_ref(), None);
        let (build_end, build_cpu, _) = self.system.scan(&src, SimTime::ZERO, |_, v| {
            hash.insert(v[1], v[0]);
            RowEffect {
                cpu: build_cost,
                touch: None,
            }
        });

        // Probe side: R.A2 (key) and R.A3 (output).
        let probe_cols = vec![1, 2];
        let prepared_probe = self.prepare(path, &probe_cols, Relation::Inner, None);
        let inner = self.inner.as_ref().expect("inner relation exists");
        let mut matches = 0u64;
        let mut checksum = 0u64;
        let src = scan_source(&prepared_probe, inner, self.inner_columnar.as_ref(), None);
        let (end, probe_cpu, _) = self.system.scan(&src, build_end, |_, v| {
            // One charge per probe row: `SimTime` saturates, so the product
            // equals one `+= out_cost` per match, and the checksum is a
            // wrapping sum, so the row's terms can be added at once.
            let (partners, terms) = hash.probe(v[0], v[1]);
            checksum = checksum.wrapping_add(terms);
            matches += partners;
            RowEffect {
                cpu: probe_cost + out_cost * partners,
                touch: None,
            }
        });

        let output = QueryOutput::Set {
            rows: matches,
            checksum,
        };
        self.finish(path, output, end, build_cpu + probe_cpu)
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn prepare(
        &mut self,
        path: AccessPath,
        columns: &[usize],
        relation: Relation,
        snapshot: Option<Snapshot>,
    ) -> Prepared {
        match path {
            AccessPath::DirectRowWise => Prepared::Rows(columns.to_vec()),
            AccessPath::DirectColumnar => {
                self.ensure_columnar(relation);
                Prepared::Columnar(columns.to_vec())
            }
            AccessPath::RmeCold | AccessPath::RmeHot => {
                if relation == Relation::Inner {
                    self.ensure_inner();
                }
                let group = ColumnGroup::new(columns.to_vec()).expect("valid column group");
                let table = match relation {
                    Relation::Outer => &self.table,
                    Relation::Inner => self.inner.as_ref().expect("inner relation exists"),
                };
                let var = self
                    .system
                    .register_ephemeral(table, group, snapshot)
                    .expect("ephemeral registration succeeds");
                Prepared::Ephemeral(var)
            }
        }
    }

    fn ensure_columnar(&mut self, relation: Relation) {
        match relation {
            Relation::Outer => {
                if self.columnar.is_none() {
                    self.columnar = Some(
                        self.system
                            .materialize_columnar(&self.table)
                            .expect("columnar copy fits in memory"),
                    );
                }
            }
            Relation::Inner => {
                self.ensure_inner();
                if self.inner_columnar.is_none() {
                    let inner = self.inner.as_ref().expect("inner relation exists");
                    self.inner_columnar = Some(
                        self.system
                            .materialize_columnar(inner)
                            .expect("columnar copy fits in memory"),
                    );
                }
            }
        }
    }

    fn ensure_inner(&mut self) {
        if self.inner.is_some() {
            return;
        }
        let schema = Self::schema_for(&self.params);
        let mut inner = self
            .system
            .create_table(schema, self.params.inner_rows, MvccConfig::Disabled)
            .expect("inner relation fits in memory");
        DataGen::new(self.params.seed.wrapping_add(1))
            .fill_join_inner(
                self.system.mem_mut(),
                &mut inner,
                self.params.inner_rows,
                1,
                self.params.match_fraction,
            )
            .expect("join data generation succeeds");
        self.inner = Some(inner);
    }

    fn finish(
        &self,
        path: AccessPath,
        output: QueryOutput,
        end: SimTime,
        cpu: SimTime,
    ) -> QueryRun {
        QueryRun {
            output,
            measurement: self.system.finish_measurement(end, cpu, path),
        }
    }
}

/// Builds a [`ScanSource`] from a prepared description and the relation's
/// storage objects. Free function so the caller can keep disjoint borrows of
/// the benchmark's fields.
fn scan_source<'a>(
    prepared: &'a Prepared,
    table: &'a RowTable,
    columnar: Option<&'a ColumnarTable>,
    snapshot: Option<Snapshot>,
) -> ScanSource<'a> {
    match prepared {
        Prepared::Rows(columns) => ScanSource::Rows {
            table,
            columns,
            snapshot,
        },
        Prepared::Columnar(columns) => ScanSource::Columnar {
            table: columnar.expect("columnar copy was materialised"),
            columns,
        },
        Prepared::Ephemeral(var) => ScanSource::Ephemeral { var },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> Benchmark {
        Benchmark::new(BenchmarkParams::small_for_tests())
    }

    #[test]
    fn every_query_gives_identical_results_on_every_path() {
        let mut b = bench();
        for query in Query::all() {
            let reference = b.run(query, AccessPath::DirectRowWise).output;
            for path in [
                AccessPath::DirectColumnar,
                AccessPath::RmeCold,
                AccessPath::RmeHot,
            ] {
                let run = b.run(query, path);
                assert_eq!(
                    run.output,
                    reference,
                    "{} produced a different result on {}",
                    query.label(),
                    path.label()
                );
            }
        }
    }

    #[test]
    fn q0_sum_matches_a_direct_computation() {
        let mut b = bench();
        let run = b.run(Query::Q0, AccessPath::DirectRowWise);
        let mut expected = 0u64;
        for row in 0..b.table().num_rows() {
            expected = expected.wrapping_add(
                b.table()
                    .read_field(b.system().mem(), row, 0)
                    .unwrap()
                    .as_u64(),
            );
        }
        assert_eq!(run.output, QueryOutput::Scalar(expected));
        assert!(run.measurement.elapsed > SimTime::ZERO);
    }

    #[test]
    fn q2_selectivity_is_about_ninety_percent() {
        let mut b = bench();
        let run = b.run(Query::Q2, AccessPath::DirectRowWise);
        let rows = run.output.cardinality() as f64 / b.params().rows as f64;
        assert!((rows - 0.9).abs() < 0.05, "selectivity was {rows}");
    }

    #[test]
    fn q5_join_finds_about_half_of_the_inner_rows() {
        let mut b = bench();
        let run = b.run(Query::Q5, AccessPath::DirectRowWise);
        // Every matching inner row joins with every S row sharing the key;
        // with |S| = 2000 rows over 1000 key values, each matching R row
        // joins ~2 S rows, so matches ≈ inner_rows * 0.5 * 2.
        let matches = run.output.cardinality() as f64;
        let expected = b.params().inner_rows as f64;
        assert!(
            matches > expected * 0.7 && matches < expected * 1.3,
            "match count {matches} far from expected ~{expected}"
        );
    }

    /// Reads one column of a relation straight from simulated memory.
    fn column(b: &Benchmark, table: &RowTable, col: usize) -> Vec<u64> {
        (0..table.num_rows())
            .map(|row| {
                table
                    .read_field(b.system().mem(), row, col)
                    .unwrap()
                    .as_u64()
            })
            .collect()
    }

    #[test]
    fn hash_queries_match_an_independent_reference_on_every_path() {
        let mut b = bench();
        b.ensure_inner();
        let (s_a1, s_a2, s_a3) = (
            column(&b, b.table(), 0),
            column(&b, b.table(), 1),
            column(&b, b.table(), 2),
        );
        let inner = b.inner.as_ref().unwrap();
        let (r_a2, r_a3) = (column(&b, inner, 1), column(&b, inner, 2));

        // Q4: AVG(A1) WHERE A3 < T GROUP BY A2, one (key, avg) term per group.
        let mut groups = std::collections::BTreeMap::<u64, (u64, u64)>::new();
        for row in 0..s_a1.len() {
            if s_a3[row] < Q3_THRESHOLD {
                let group = groups.entry(s_a2[row]).or_default();
                group.0 += s_a1[row];
                group.1 += 1;
            }
        }
        let mut checksum = 0;
        for (&key, &(sum, count)) in &groups {
            checksum = checksum_accumulate(checksum, &[key, sum / count]);
        }
        let q4 = QueryOutput::Set {
            rows: groups.len() as u64,
            checksum,
        };

        // Q5: nested-loop join of S and R on A2, emitting (S.A1, R.A3).
        let (mut rows, mut checksum) = (0, 0);
        for (&key, &r3) in r_a2.iter().zip(&r_a3) {
            for (&s2, &s1) in s_a2.iter().zip(&s_a1) {
                if s2 == key {
                    rows += 1;
                    checksum = checksum_accumulate(checksum, &[s1, r3]);
                }
            }
        }
        let q5 = QueryOutput::Set { rows, checksum };
        assert!(rows > 0, "the reference join must produce rows");

        for path in AccessPath::all() {
            assert_eq!(b.run(Query::Q4, path).output, q4, "Q4 on {}", path.label());
            assert_eq!(b.run(Query::Q5, path).output, q5, "Q5 on {}", path.label());
        }
    }

    #[test]
    fn rme_beats_direct_row_wise_on_the_projection_query() {
        let mut b = bench();
        let row = b.run(Query::Q1 { projectivity: 3 }, AccessPath::DirectRowWise);
        let cold = b.run(Query::Q1 { projectivity: 3 }, AccessPath::RmeCold);
        let hot = b.run(Query::Q1 { projectivity: 3 }, AccessPath::RmeHot);
        assert!(
            cold.measurement.elapsed < row.measurement.elapsed,
            "RME cold {} vs direct {}",
            cold.measurement.elapsed,
            row.measurement.elapsed
        );
        assert!(hot.measurement.elapsed <= cold.measurement.elapsed);
    }

    #[test]
    fn figure6_layout_puts_the_target_column_at_the_requested_offset() {
        let params = BenchmarkParams {
            target_offset: Some(13),
            rows: 500,
            ..BenchmarkParams::default()
        };
        let mut b = Benchmark::new(params);
        assert_eq!(b.params().data_columns(), 1);
        let schema = b.table().schema();
        assert_eq!(schema.offset(1).unwrap(), 13);
        assert_eq!(schema.row_bytes(), 64);
        // Q0 still runs (it aggregates the single target column).
        let run = b.run(Query::Q0, AccessPath::RmeCold);
        assert!(run.measurement.elapsed > SimTime::ZERO);
        assert!(run.measurement.rme.useful_bytes >= 500 * 4);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn queries_that_need_more_columns_than_available_panic() {
        let params = BenchmarkParams {
            target_offset: Some(8),
            rows: 100,
            ..BenchmarkParams::default()
        };
        let mut b = Benchmark::new(params);
        let _ = b.run(Query::Q2, AccessPath::DirectRowWise);
    }
}
