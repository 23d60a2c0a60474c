//! `scan_direct`: the paper's queries Q0–Q5 on Direct Row-wise and Direct
//! Columnar over a 1M-row table (64 MB, 64x the modelled 1 MB L2), then
//! repeated warm scans of a table that fits in the L2, so the L1/L2 hit
//! path dominates. The RME is bypassed: the batched scan stepper, the
//! caches and the occupancy DRAM model do the work.

use relational_memory::core::hashtbl::checksum_accumulate;
use relational_memory::core::queries::{spread_columns, Q2_THRESHOLD, Q3_THRESHOLD};
use relational_memory::core::system::{RowEffect, ScanSource};
use relational_memory::core::{AccessPath, Benchmark, BenchmarkParams, Query, QueryOutput, System};
use relational_memory::rme::HwRevision;
use relational_memory::sim::{PlatformConfig, SimTime};
use relational_memory::storage::{DataGen, MvccConfig, RowTable, Schema};

use crate::metrics::{Checks, Metrics, Tally};
use crate::probes::{field_stream, ProbeInput};
use crate::spans::Spans;
use crate::{q1_reference, Fields, Pass, Workload};

const ROWS: u64 = 1 << 20;
const INNER_ROWS: u64 = 44_000;
/// 12,288 rows of 64 B: 768 KB, inside the 1 MB L2 and 24x the 32 KB L1.
const WARM_ROWS: u64 = 12_288;
const WARM_PASSES: u64 = 48;
const TINY_ROWS: u64 = 10_000;
const TINY_INNER_ROWS: u64 = 2_000;
const TINY_WARM_ROWS: u64 = 1_024;
const ROW_BYTES: usize = 64;
const COLUMN_WIDTH: usize = 4;
const PROJECTIVITY: usize = 4;

const QUERIES: [(Query, [&str; 2]); 6] = [
    (
        Query::Q0,
        ["sim.elapsed_ns.q0.row", "sim.elapsed_ns.q0.columnar"],
    ),
    (
        Query::Q1 {
            projectivity: PROJECTIVITY,
        },
        ["sim.elapsed_ns.q1.row", "sim.elapsed_ns.q1.columnar"],
    ),
    (
        Query::Q2,
        ["sim.elapsed_ns.q2.row", "sim.elapsed_ns.q2.columnar"],
    ),
    (
        Query::Q3,
        ["sim.elapsed_ns.q3.row", "sim.elapsed_ns.q3.columnar"],
    ),
    (
        Query::Q4,
        ["sim.elapsed_ns.q4.row", "sim.elapsed_ns.q4.columnar"],
    ),
    (
        Query::Q5,
        ["sim.elapsed_ns.q5.row", "sim.elapsed_ns.q5.columnar"],
    ),
];

pub struct ScanDirect {
    bench: Benchmark,
    /// A separate single-core system holding the L2-resident table.
    warm_sys: System,
    warm_table: RowTable,
    columns: Vec<usize>,
    rows_filled: u64,
    /// Row-wise outputs of Q0..Q5 in the last pass.
    outputs: Vec<QueryOutput>,
    /// Output of the last warm scan.
    warm_output: QueryOutput,
}

impl Workload for ScanDirect {
    fn setup(tiny: bool, seed: u64, spans: &mut Spans) -> Self {
        let (rows, inner_rows, warm_rows) = if tiny {
            (TINY_ROWS, TINY_INNER_ROWS, TINY_WARM_ROWS)
        } else {
            (ROWS, INNER_ROWS, WARM_ROWS)
        };
        let params = BenchmarkParams {
            rows,
            row_bytes: ROW_BYTES,
            column_width: COLUMN_WIDTH,
            inner_rows,
            seed,
            ..BenchmarkParams::default()
        };
        let open = spans.enter("storage.fill");
        let mut bench = Benchmark::new(params);
        let mut warm_sys = System::new(PlatformConfig::zcu102(), HwRevision::Mlp, 16 << 20);
        let schema = Schema::benchmark(ROW_BYTES / COLUMN_WIDTH, COLUMN_WIDTH, ROW_BYTES);
        let mut warm_table = warm_sys
            .create_table(schema, warm_rows, MvccConfig::Disabled)
            .expect("the warm table fits in simulated memory");
        DataGen::new(seed.wrapping_add(1))
            .fill_table(warm_sys.mem_mut(), &mut warm_table, warm_rows)
            .expect("data generation succeeds");
        spans.exit(open);

        // `Benchmark` materialises columnar copies lazily, on a query's
        // first columnar run: Q0 builds S's copy, Q5 the join relation R
        // and its copy. Doing both here keeps that work out of the passes.
        let open = spans.enter("storage.columnar");
        bench.run(Query::Q0, AccessPath::DirectColumnar);
        bench.run(Query::Q5, AccessPath::DirectColumnar);
        spans.exit(open);

        ScanDirect {
            bench,
            warm_sys,
            warm_table,
            columns: spread_columns(PROJECTIVITY, ROW_BYTES / COLUMN_WIDTH),
            rows_filled: rows + warm_rows,
            outputs: Vec::new(),
            warm_output: QueryOutput::Scalar(0),
        }
    }

    fn rows_filled(&self) -> u64 {
        self.rows_filled
    }

    fn pass(&mut self, spans: &mut Spans, checks: &mut Checks) -> Pass {
        let mut tally = Tally::default();
        let mut sim = Metrics::new();
        let mut fields = Fields::default();
        let rows = self.bench.table().num_rows();
        self.outputs.clear();

        for (query, [row_name, col_name]) in QUERIES {
            let open = spans.enter("core.scan.row");
            let row = self.bench.run(query, AccessPath::DirectRowWise);
            spans.exit(open);
            let open = spans.enter("core.scan.columnar");
            let col = self.bench.run(query, AccessPath::DirectColumnar);
            spans.exit(open);

            checks.equal(
                &col.output,
                &row.output,
                &format!("{} columnar output equals row-wise", query.label()),
            );
            if let Query::Q1 { .. } = query {
                checks.equal(row.output.cardinality(), rows, "Q1 row count");
            }
            sim.insert(row_name, row.measurement.elapsed.as_nanos_f64());
            sim.insert(col_name, col.measurement.elapsed.as_nanos_f64());
            *fields.entry("core.scan.row").or_default() += row.measurement.cache.l1.requests;
            *fields.entry("core.scan.columnar").or_default() += col.measurement.cache.l1.requests;
            tally.add_measurement(&row.measurement);
            tally.add_measurement(&col.measurement);
            self.outputs.push(row.output);
        }

        // Warm scans: flushed once, then the L2-resident table is scanned
        // back to back, so every pass after the first hits in L1/L2.
        let ScanDirect {
            warm_sys,
            warm_table,
            columns,
            warm_output,
            ..
        } = self;
        let source = ScanSource::Rows {
            table: warm_table,
            columns,
            snapshot: None,
        };
        let open = spans.enter("core.scan.row");
        warm_sys.begin_measurement(AccessPath::DirectRowWise);
        let out_cost = warm_sys.cost_model().output(PROJECTIVITY);
        let mut now = SimTime::ZERO;
        let mut cpu = SimTime::ZERO;
        let mut outputs = Vec::with_capacity(WARM_PASSES as usize);
        for _ in 0..WARM_PASSES {
            let mut checksum = 0u64;
            let (end, pass_cpu, scanned) = warm_sys.scan(&source, now, |_, v| {
                checksum = checksum_accumulate(checksum, v);
                RowEffect {
                    cpu: out_cost,
                    touch: None,
                }
            });
            now = end;
            cpu += pass_cpu;
            outputs.push(QueryOutput::Set {
                rows: scanned,
                checksum,
            });
        }
        let warm = warm_sys.finish_measurement(now, cpu, AccessPath::DirectRowWise);
        spans.exit(open);
        checks.expect(outputs.windows(2).all(|w| w[0] == w[1]), || {
            "every warm pass returns the same Q1 output".to_string()
        });
        sim.insert("sim.elapsed_ns.q1_warm.row", warm.elapsed.as_nanos_f64());
        *fields.entry("core.scan.row").or_default() += warm.cache.l1.requests;
        tally.add_measurement(&warm);
        *warm_output = outputs.pop().expect("at least one warm pass");

        tally.write(self.bench.system().config().dram.bus_bytes, &mut sim);
        Pass { sim, fields }
    }

    fn verify(&self, checks: &mut Checks) {
        let mem = self.bench.system().mem();
        let table = self.bench.table();
        let field = |row: u64, col: usize| {
            table
                .read_field(mem, row, col)
                .expect("reference read")
                .as_u64()
        };
        let (mut q0, mut q3) = (0u64, 0u64);
        let (mut q2_rows, mut q2_sum) = (0u64, 0u64);
        for row in 0..table.num_rows() {
            q0 = q0.wrapping_add(field(row, 0));
            if field(row, 2) > Q2_THRESHOLD {
                q2_rows += 1;
                q2_sum = checksum_accumulate(q2_sum, &[field(row, 0)]);
            }
            if field(row, 3) < Q3_THRESHOLD {
                q3 = q3.wrapping_add(field(row, 1));
            }
        }
        let want = [
            QueryOutput::Scalar(q0),
            q1_reference(mem, table, &self.columns),
            QueryOutput::Set {
                rows: q2_rows,
                checksum: q2_sum,
            },
            QueryOutput::Scalar(q3),
        ];
        for (i, want) in want.iter().enumerate() {
            checks.equal(
                self.outputs.get(i),
                Some(want),
                &format!("Q{i} row-wise output equals the reference"),
            );
        }
        checks.equal(
            &self.warm_output,
            &q1_reference(self.warm_sys.mem(), &self.warm_table, &self.columns),
            "warm Q1 output equals the reference",
        );
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        let sys = self.bench.system();
        ProbeInput {
            cfg: sys.config(),
            mem: sys.mem(),
            // The L2-resident stream the warm scans replay.
            accesses: field_stream(
                &self.warm_table,
                &self.columns,
                self.warm_table.num_rows(),
                8,
            ),
            rme_table: self.bench.table(),
            rme_columns: self.columns.clone(),
        }
    }
}
