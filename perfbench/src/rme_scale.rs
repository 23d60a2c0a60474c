//! `rme_scale`: Figure 13's dominant point. Q1 with k = 4 over a 128 MB
//! table (2M rows of 64 B) on Direct Row-wise, Direct Columnar and RME-cold
//! (16 frames of the 2 MB Data SPM). The RME and data generation do most
//! of the host work here; the caches and DRAM do little.

use relational_memory::core::hashtbl::checksum_accumulate;
use relational_memory::core::queries::spread_columns;
use relational_memory::core::system::{RowEffect, ScanSource};
use relational_memory::core::{AccessPath, QueryMeasurement, QueryOutput, System};
use relational_memory::rme::HwRevision;
use relational_memory::sim::{PlatformConfig, SimTime};
use relational_memory::storage::{
    ColumnGroup, ColumnarTable, DataGen, MvccConfig, RowTable, Schema,
};

use crate::metrics::{ratio, Checks, Metrics, Tally};
use crate::probes::{field_stream, ProbeInput};
use crate::spans::Spans;
use crate::{q1_reference, Fields, Pass, Workload};

const ROWS: u64 = 2 << 20;
const TINY_ROWS: u64 = 20_000;
const ROW_BYTES: usize = 64;
const COLUMN_WIDTH: usize = 4;
const PROJECTIVITY: usize = 4;
/// Rows of the table whose field stream feeds the cache and DRAM probes.
const PROBE_ROWS: u64 = 1 << 18;

pub struct RmeScale {
    sys: System,
    table: RowTable,
    columnar: ColumnarTable,
    columns: Vec<usize>,
    /// Q1's row-wise output in the last pass.
    row_output: QueryOutput,
}

/// Runs Q1 over `source` exactly as `Benchmark::run` does.
fn q1(
    sys: &mut System,
    path: AccessPath,
    source: &ScanSource<'_>,
) -> (QueryOutput, QueryMeasurement) {
    sys.begin_measurement(path);
    let out_cost = sys.cost_model().output(PROJECTIVITY);
    let mut checksum = 0u64;
    let mut rows = 0u64;
    let (end, cpu, _) = sys.scan(source, SimTime::ZERO, |_, v| {
        checksum = checksum_accumulate(checksum, v);
        rows += 1;
        RowEffect {
            cpu: out_cost,
            touch: None,
        }
    });
    let m = sys.finish_measurement(end, cpu, path);
    (QueryOutput::Set { rows, checksum }, m)
}

impl Workload for RmeScale {
    fn setup(tiny: bool, seed: u64, spans: &mut Spans) -> Self {
        let rows = if tiny { TINY_ROWS } else { ROWS };
        let mem = rows as usize * ROW_BYTES * 2 + (16 << 20);
        let mut sys = System::new(PlatformConfig::zcu102(), HwRevision::Mlp, mem);
        let schema = Schema::benchmark(ROW_BYTES / COLUMN_WIDTH, COLUMN_WIDTH, ROW_BYTES);
        let mut table = sys
            .create_table(schema, rows, MvccConfig::Disabled)
            .expect("the table fits in simulated memory");

        let open = spans.enter("storage.fill");
        DataGen::new(seed)
            .fill_table(sys.mem_mut(), &mut table, rows)
            .expect("data generation succeeds");
        spans.exit(open);

        let open = spans.enter("storage.columnar");
        let columnar = sys
            .materialize_columnar(&table)
            .expect("the columnar copy fits in simulated memory");
        spans.exit(open);

        let columns = spread_columns(PROJECTIVITY, ROW_BYTES / COLUMN_WIDTH);
        RmeScale {
            sys,
            table,
            columnar,
            columns,
            row_output: QueryOutput::Scalar(0),
        }
    }

    fn rows_filled(&self) -> u64 {
        self.table.num_rows()
    }

    fn pass(&mut self, spans: &mut Spans, checks: &mut Checks) -> Pass {
        let mut tally = Tally::default();
        let mut sim = Metrics::new();
        let mut fields = Fields::default();
        let RmeScale {
            sys,
            table,
            columnar,
            columns,
            row_output,
        } = self;
        let rows = table.num_rows();

        let open = spans.enter("core.scan.row");
        let (row_out, row) = q1(
            sys,
            AccessPath::DirectRowWise,
            &ScanSource::Rows {
                table,
                columns,
                snapshot: None,
            },
        );
        spans.exit(open);

        let open = spans.enter("core.scan.columnar");
        let (col_out, col) = q1(
            sys,
            AccessPath::DirectColumnar,
            &ScanSource::Columnar {
                table: columnar,
                columns,
            },
        );
        spans.exit(open);

        let open = spans.enter("core.register");
        let var = sys
            .register_ephemeral(
                table,
                ColumnGroup::new(columns.clone()).expect("valid group"),
                None,
            )
            .expect("the projection fits the engine");
        spans.exit(open);
        let descriptors = sys.engine().stats().descriptors;
        let open = spans.enter("core.scan.rme_cold");
        let (rme_out, mut rme) = q1(
            sys,
            AccessPath::RmeCold,
            &ScanSource::Ephemeral { var: &var },
        );
        spans.exit(open);
        // The engine's descriptor count runs across measurements.
        rme.rme.descriptors -= descriptors;

        checks.equal(row_out.cardinality(), rows, "Q1 row-wise row count");
        checks.equal(&col_out, &row_out, "Q1 columnar output equals row-wise");
        checks.equal(&rme_out, &row_out, "Q1 RME-cold output equals row-wise");

        for (m, name) in [
            (&row, "sim.elapsed_ns.q1.row"),
            (&col, "sim.elapsed_ns.q1.columnar"),
            (&rme, "sim.elapsed_ns.q1.rme_cold"),
        ] {
            tally.add_measurement(m);
            sim.insert(name, m.elapsed.as_nanos_f64());
        }
        let rme_ns = rme.elapsed.as_nanos_f64();
        sim.insert(
            "sim.rme_vs_row_speedup",
            ratio(row.elapsed.as_nanos_f64(), rme_ns),
        );
        sim.insert(
            "sim.rme_vs_columnar_speedup",
            ratio(col.elapsed.as_nanos_f64(), rme_ns),
        );
        fields.insert("core.scan.row", row.cache.l1.requests);
        fields.insert("core.scan.columnar", col.cache.l1.requests);
        fields.insert("core.scan.rme_cold", rme.cache.l1.requests);
        tally.write(sys.config().dram.bus_bytes, &mut sim);
        *row_output = row_out;
        Pass { sim, fields }
    }

    fn verify(&self, checks: &mut Checks) {
        checks.equal(
            &self.row_output,
            &q1_reference(self.sys.mem(), &self.table, &self.columns),
            "Q1 row-wise output equals the reference",
        );
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            cfg: self.sys.config(),
            mem: self.sys.mem(),
            accesses: field_stream(&self.table, &self.columns, PROBE_ROWS, 1),
            rme_table: &self.table,
            rme_columns: self.columns.clone(),
        }
    }
}
