//! `htap_txn`: four simulated cores on the cycle-accurate DRAM model
//! (event-driven) over a 1M-row MVCC table. Cores 0–1 run OLTP — point
//! lookups plus read-read-update transactions, a share of which hit a few
//! hot keys so first-updater-wins aborts happen; core 2 runs an RME-cold
//! 2-column snapshot scan and core 3 a direct row scan. The same mix then
//! runs open loop at a fixed arrival rate past the saturation knee, so
//! admission, shedding, retry and degradation are all active.

use relational_memory::core::system::{RowEffect, ScanSource, SystemConfig};
use relational_memory::core::workload::{OpKind, QueryStream, Workload as SimWorkload, WorkloadOp};
use relational_memory::core::{
    AccessPath, AdmissionConfig, DegradePolicy, EphemeralVariable, OpenLoopOp, OpenLoopStream,
    OpenLoopWorkload, System, TxnOp, TxnSpec,
};
use relational_memory::sim::{MemoryModel, PlatformConfig, SimTime};
use relational_memory::storage::{ColumnGroup, DataGen, MvccConfig, RowTable, Schema, Snapshot};

use crate::metrics::{Checks, Metrics, Tally};
use crate::probes::{field_stream, ProbeInput};
use crate::spans::Spans;
use crate::{Fields, Pass, Workload};

const ROWS: u64 = 1 << 20;
const TINY_ROWS: u64 = 10_000;
const CORES: usize = 4;
/// OLTP ops per closed-loop stream; every fourth is a transaction.
const CLOSED_OPS: usize = 80_000;
const TINY_CLOSED_OPS: usize = 400;
/// Distinct ops in each open-loop OLTP template.
const TEMPLATE_OPS: usize = 256;
/// Open-loop OLTP arrivals per stream, and their rate (ops per simulated
/// second): past the knee of two OLTP streams beside two scans.
const OPEN_ARRIVALS: u64 = 300_000;
const TINY_OPEN_ARRIVALS: u64 = 400;
const OPEN_RATE: f64 = 12.0e6;
/// Each scan stream's one open-loop scan arrives within about 0.1 µs, so
/// both scans overlap the same way whatever the seed.
const SCAN_ARRIVALS: u64 = 1;
const SCAN_RATE: f64 = 1.0e7;
/// Hot keys, and the share of transactions whose updated key is one.
const HOT_KEYS: usize = 8;
const HOT_SHARE_PCT: u64 = 25;
const TXN_RETRIES: u32 = 16;

const SCAN_COLUMNS: [usize; 1] = [0];
const RME_COLUMNS: [usize; 2] = [0, 1];
/// OLTP reads columns 0 and 1 and updates column 1 only, so column 0 is
/// never written and every scan's column-0 sum is known in advance.
const OLTP_COLUMNS: [usize; 2] = [0, 1];
/// What a point lookup reads instead in degraded mode.
const DEGRADED_COLUMNS: [usize; 1] = [0];
const UPDATE_COLUMN: usize = 1;

/// One planned OLTP op.
#[derive(Clone, Copy)]
enum Oltp {
    Lookup(u64),
    /// Read `update` and `other`, then update `update`.
    Txn {
        update: u64,
        other: u64,
        value: u64,
    },
}

/// SplitMix64: the key-choice generator, seeded from the workload seed.
struct KeyRng(u64);

impl KeyRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn plan(rng: &mut KeyRng, hot: &[u64], rows: u64, ops: usize) -> Vec<Oltp> {
    (0..ops)
        .map(|i| {
            if i % 4 == 3 {
                let update = if rng.below(100) < HOT_SHARE_PCT {
                    hot[rng.below(hot.len() as u64) as usize]
                } else {
                    rng.below(rows)
                };
                Oltp::Txn {
                    update,
                    other: rng.below(rows),
                    value: i as u64,
                }
            } else {
                Oltp::Lookup(rng.below(rows))
            }
        })
        .collect()
}

fn specs<'a>(table: &'a RowTable, plan: &[Oltp]) -> Vec<TxnSpec<'a>> {
    plan.iter()
        .filter_map(|op| match *op {
            Oltp::Txn {
                update,
                other,
                value,
            } => Some(
                TxnSpec::new(vec![
                    TxnOp::Read {
                        table,
                        columns: &OLTP_COLUMNS,
                        row: update,
                    },
                    TxnOp::Read {
                        table,
                        columns: &OLTP_COLUMNS,
                        row: other,
                    },
                    TxnOp::Update {
                        table,
                        row: update,
                        column: UPDATE_COLUMN,
                        value,
                    },
                ])
                .with_retries(TXN_RETRIES),
            ),
            Oltp::Lookup(_) => None,
        })
        .collect()
}

/// The workload ops of `plan`, with transaction `i` taken from `specs[i]`.
fn ops<'a>(table: &'a RowTable, plan: &[Oltp], specs: &'a [TxnSpec<'a>]) -> Vec<WorkloadOp<'a>> {
    let mut next_spec = specs.iter();
    plan.iter()
        .map(|op| match *op {
            Oltp::Lookup(row) => WorkloadOp::PointLookup {
                table,
                columns: &OLTP_COLUMNS,
                row,
            },
            Oltp::Txn { .. } => WorkloadOp::Txn {
                spec: next_spec.next().expect("one spec per transaction"),
            },
        })
        .collect()
}

pub struct HtapTxn {
    sys: System,
    table: RowTable,
    var: EphemeralVariable,
    seed: u64,
    closed: [Vec<Oltp>; 2],
    template: [Vec<Oltp>; 2],
    open_arrivals: u64,
    /// Pristine bytes of every row an OLTP op may update, restored before
    /// each run so every pass starts from the same table.
    pristine: Vec<(u64, Vec<u8>)>,
    /// Column-0 sums of the scan cores in the last pass, with the number of
    /// scans each completed: closed loop, then open loop.
    scan_sums: Vec<(u64, u64)>,
}

impl HtapTxn {
    fn restore(&mut self) {
        for (addr, bytes) in &self.pristine {
            self.sys.mem_mut().write(*addr, bytes);
        }
    }
}

impl Workload for HtapTxn {
    fn setup(tiny: bool, seed: u64, spans: &mut Spans) -> Self {
        let rows = if tiny { TINY_ROWS } else { ROWS };
        let mut platform = PlatformConfig::zcu102();
        platform.dram.model = MemoryModel::CycleAccurate;
        let mut sys = System::with_config(SystemConfig {
            platform,
            cores: CORES,
            mem_bytes: (rows as usize * 80 + (64 << 20)).next_power_of_two(),
            event_driven: true,
            ..SystemConfig::default()
        });
        let schema = Schema::benchmark(4, 4, 64);
        let mut table = sys
            .create_table(schema, rows, MvccConfig::Enabled)
            .expect("the table fits in simulated memory");
        let open = spans.enter("storage.fill");
        DataGen::new(seed)
            .fill_table(sys.mem_mut(), &mut table, rows)
            .expect("data generation succeeds");
        spans.exit(open);

        let open = spans.enter("core.register");
        let var = sys
            .register_ephemeral(
                &table,
                ColumnGroup::new(RME_COLUMNS.to_vec()).expect("valid group"),
                Some(Snapshot::at(1)),
            )
            .expect("the projection fits the engine");
        spans.exit(open);

        let mut rng = KeyRng(seed);
        let hot: Vec<u64> = (0..HOT_KEYS).map(|_| rng.below(rows)).collect();
        let closed_ops = if tiny { TINY_CLOSED_OPS } else { CLOSED_OPS };
        let closed = [0, 1].map(|_| plan(&mut rng, &hot, rows, closed_ops));
        let template = [0, 1].map(|_| plan(&mut rng, &hot, rows, TEMPLATE_OPS));

        let mut updated: Vec<u64> = closed
            .iter()
            .chain(&template)
            .flatten()
            .filter_map(|op| match *op {
                Oltp::Txn { update, .. } => Some(update),
                Oltp::Lookup(_) => None,
            })
            .collect();
        updated.sort_unstable();
        updated.dedup();
        let row_bytes = table.physical_row_bytes();
        let pristine = updated
            .iter()
            .map(|&row| {
                let addr = table.row_addr(row);
                (addr, sys.mem().read(addr, row_bytes).to_vec())
            })
            .collect();

        HtapTxn {
            sys,
            table,
            var,
            seed,
            closed,
            template,
            open_arrivals: if tiny {
                TINY_OPEN_ARRIVALS
            } else {
                OPEN_ARRIVALS
            },
            pristine,
            scan_sums: Vec::new(),
        }
    }

    fn rows_filled(&self) -> u64 {
        self.table.num_rows()
    }

    fn pass(&mut self, spans: &mut Spans, checks: &mut Checks) -> Pass {
        let mut tally = Tally::default();
        let mut sim = Metrics::new();
        let bus_bytes = self.sys.config().dram.bus_bytes;
        self.scan_sums.clear();

        // Closed loop.
        self.restore();
        let HtapTxn {
            sys,
            table,
            var,
            closed,
            ..
        } = self;
        let rows = table.num_rows();
        let closed_specs = [specs(table, &closed[0]), specs(table, &closed[1])];
        let scan_rows = ScanSource::Rows {
            table,
            columns: &SCAN_COLUMNS,
            snapshot: None,
        };
        let scan_rme = ScanSource::Ephemeral { var };
        let workload = SimWorkload::new(vec![
            QueryStream::new(ops(table, &closed[0], &closed_specs[0])),
            QueryStream::new(ops(table, &closed[1], &closed_specs[1])),
            QueryStream::new(vec![WorkloadOp::olap(scan_rme)]),
            QueryStream::new(vec![WorkloadOp::olap(scan_rows)]),
        ]);
        let mut sums = [0u64; CORES];
        let descriptors = sys.engine().stats().descriptors;
        sys.begin_measurement(AccessPath::RmeCold);
        let open = spans.enter("core.run_workload");
        let run = sys.run_workload(&workload, SimTime::ZERO, |core, _, _, v| {
            sums[core] = sums[core].wrapping_add(v[0]);
            RowEffect::default()
        });
        spans.exit(open);
        let run = run.expect("the closed-loop workload is valid");
        let mut m = sys.finish_measurement(run.end, run.cpu, AccessPath::RmeCold);
        // The engine's descriptor count runs across measurements.
        m.rme.descriptors -= descriptors;

        checks.expect(run.txn.is_consistent(), || {
            format!("closed-loop txns balance: {:?}", run.txn)
        });
        checks.equal(run.streams[2].rows, var.rows(), "RME snapshot scan rows");
        checks.equal(run.streams[3].rows, rows, "direct row scan rows");
        for (core, plan) in closed.iter().enumerate() {
            // Every op ends once: committed, or aborted for good after its
            // retries (each aborted attempt reports its own outcome).
            let mut finished: Vec<usize> = run.streams[core].ops.iter().map(|o| o.op).collect();
            finished.dedup();
            checks.equal(finished.len(), plan.len(), "closed-loop OLTP ops finished");
        }
        self.scan_sums.push((sums[2], 1));
        self.scan_sums.push((sums[3], 1));
        sim.insert("sim.elapsed_ns.htap_closed.mixed", run.end.as_nanos_f64());
        tally.add_measurement(&m);
        tally.add_txn(&run.txn);
        for latency in run.oltp_latencies().samples() {
            tally.oltp.push(*latency);
        }

        // Open loop: the same mix, arriving on a schedule.
        self.restore();
        let HtapTxn {
            sys,
            table,
            var,
            seed,
            template,
            open_arrivals,
            ..
        } = self;
        let template_specs = [specs(table, &template[0]), specs(table, &template[1])];
        // Under overload, lookups degrade to a one-column read.
        let oltp = |i: usize| -> Vec<OpenLoopOp<'_>> {
            ops(table, &template[i], &template_specs[i])
                .into_iter()
                .map(|op| match op {
                    WorkloadOp::PointLookup { table, row, .. } => OpenLoopOp::with_degraded(
                        op,
                        WorkloadOp::PointLookup {
                            table,
                            columns: &DEGRADED_COLUMNS,
                            row,
                        },
                    ),
                    _ => OpenLoopOp::new(op),
                })
                .collect()
        };
        let scan_rme = WorkloadOp::olap(ScanSource::Ephemeral { var });
        let scan_rows = WorkloadOp::olap(ScanSource::Rows {
            table,
            columns: &SCAN_COLUMNS,
            snapshot: None,
        });
        let workload = OpenLoopWorkload::new(vec![
            OpenLoopStream::new(oltp(0), OPEN_RATE, *open_arrivals),
            OpenLoopStream::new(oltp(1), OPEN_RATE, *open_arrivals),
            OpenLoopStream::new(vec![OpenLoopOp::new(scan_rme)], SCAN_RATE, SCAN_ARRIVALS),
            OpenLoopStream::new(vec![OpenLoopOp::new(scan_rows)], SCAN_RATE, SCAN_ARRIVALS),
        ]);
        let admission = AdmissionConfig {
            seed: *seed,
            queue_capacity: 32,
            delay_budget: Some(SimTime::from_micros(8)),
            timeout: Some(SimTime::from_micros(16)),
            max_retries: 2,
            retry_backoff: SimTime::from_nanos(500),
            degrade: Some(DegradePolicy {
                high_watermark: 24,
                low_watermark: 4,
                trigger_after: 8,
                clear_after: 16,
            }),
        };
        let mut sums = [0u64; CORES];
        let descriptors = sys.engine().stats().descriptors;
        sys.begin_measurement(AccessPath::RmeCold);
        let open = spans.enter("core.run_open_loop");
        let run = sys.run_open_loop(&workload, &admission, SimTime::ZERO, |core, _, _, v| {
            sums[core] = sums[core].wrapping_add(v[0]);
            RowEffect::default()
        });
        spans.exit(open);
        let run = run.expect("the open-loop workload is valid");
        let mut m = sys.finish_measurement(run.end, run.cpu, AccessPath::RmeCold);
        // The engine's descriptor count runs across measurements.
        m.rme.descriptors -= descriptors;

        let o = &run.overload;
        checks.expect(run.txn.is_consistent(), || {
            format!("open-loop txns balance: {:?}", run.txn)
        });
        checks.expect(
            o.arrivals + o.retries == o.admitted + o.shed_queue_full,
            || format!("open-loop admission balances: {o:?}"),
        );
        checks.expect(
            o.admitted == o.completed + o.shed_deadline + o.timed_out,
            || format!("open-loop completion balances: {o:?}"),
        );
        for core in [2, 3] {
            let scans = run.streams[core]
                .outcomes
                .iter()
                .filter(|x| x.kind == OpKind::OlapScan)
                .count() as u64;
            self.scan_sums.push((sums[core], scans));
        }
        sim.insert("sim.elapsed_ns.htap_open.mixed", run.end.as_nanos_f64());
        tally.add_measurement(&m);
        tally.add_txn(&run.txn);
        tally.add_overload(&run.overload);

        tally.write(bus_bytes, &mut sim);
        Pass {
            sim,
            fields: Fields::default(),
        }
    }

    fn verify(&self, checks: &mut Checks) {
        let mem = self.sys.mem();
        let mut column0 = 0u64;
        for row in 0..self.table.num_rows() {
            let v = self
                .table
                .read_field(mem, row, 0)
                .expect("reference read")
                .as_u64();
            column0 = column0.wrapping_add(v);
        }
        for &(sum, scans) in &self.scan_sums {
            checks.equal(
                sum,
                column0.wrapping_mul(scans),
                "scan column-0 sum equals the reference",
            );
        }
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        // The OLTP reads followed by the direct scan's column stream.
        let mut accesses: Vec<(u64, usize)> = Vec::new();
        for op in self.closed.iter().flatten() {
            let rows = match *op {
                Oltp::Lookup(row) => vec![row],
                Oltp::Txn { update, other, .. } => vec![update, other],
            };
            for row in rows {
                for c in OLTP_COLUMNS {
                    accesses.push((self.table.field_addr(row, c).expect("probe rows exist"), 4));
                }
            }
        }
        accesses.extend(field_stream(&self.table, &SCAN_COLUMNS, 1 << 18, 1));
        ProbeInput {
            cfg: self.sys.config(),
            mem: self.sys.mem(),
            accesses,
            rme_table: &self.table,
            rme_columns: RME_COLUMNS.to_vec(),
        }
    }
}
