//! Invariants of the memory path: blocking DRAM reads, posted writebacks,
//! incremental RME frame fetching and demand-priority admission of CPU
//! traffic. Each property compares against a reference that does not
//! share the mechanism under test:
//!
//! * **Mixed RME + CPU runs carry the rows' values.** Point traffic on
//!   core 0 beside ephemeral scans on the other cores: incremental fetching
//!   and demand priority shape the timing, but every stream's value trace
//!   equals the same seed's run with the scans taken directly row-wise,
//!   where the engine is not involved at all.
//! * **The cycle-accurate model changes timing only.** Scans, workloads
//!   and transactions over row, columnar and ephemeral sources give the
//!   same per-stream value traces, row counts and transaction accounting
//!   as the same seed on the occupancy model, and its extra DRAM writes
//!   are exactly its writebacks.
//! * **Writebacks.** An update-heavy stream that overflows the L2 posts
//!   its dirty evictions as DRAM writes under the cycle-accurate model
//!   (every write there is a writeback) and none under the occupancy
//!   model. What they cost in time is pinned by the `update_heavy_ca_event`
//!   golden fixture.

use proptest::prelude::*;
use relational_memory::core::system::{RowEffect, ScanSource, SystemConfig};
use relational_memory::core::workload::{QueryStream, Workload, WorkloadOp};
use relational_memory::core::{TxnOp, TxnSpec, TXN_TS_BASE};
use relational_memory::dram::DramStats;
use relational_memory::prelude::*;
use relmem_sim::{MemoryModel, SimTime, TxnStats};

const ROWS_CAP: u64 = 400;

/// Per-stream `(row, projected values)` traces.
type Traces = Vec<Vec<(u64, Vec<u64>)>>;

/// What one run computed, and its DRAM traffic.
#[derive(Debug)]
struct RunRecord {
    rows: u64,
    /// Per-stream `(row, projected values)` traces. Per-stream order is
    /// deterministic regardless of how the interleaver schedules cores.
    traces: Traces,
    dram: DramStats,
    txn: TxnStats,
}

/// Which runner a case goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Runner {
    /// `System::scan` on one core.
    Scan,
    /// `System::run_workload`: two cores, each running one single-scan
    /// stream.
    Workload,
    /// `System::run_workload`: core 0 runs conflict-free transactions
    /// (reads + updates), core 1 a concurrent scan of the same source.
    Txn,
}

/// Which scan source every stream of a case uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Rows,
    RowsMvcc,
    Columnar,
    EphemeralCold,
    EphemeralHot,
}

const ALL_SOURCES: [Source; 5] = [
    Source::Rows,
    Source::RowsMvcc,
    Source::Columnar,
    Source::EphemeralCold,
    Source::EphemeralHot,
];

fn build_system(cores: usize, model: MemoryModel) -> System {
    let mut config = SystemConfig {
        cores,
        mem_bytes: 32 << 20,
        ..SystemConfig::default()
    };
    config.platform.dram.model = model;
    System::with_config(config)
}

/// Builds an identical world per call and runs one case. The scans read
/// columns 0 and 2 and the transactions write only columns 1 and 3, and
/// the MVCC snapshot lies past every commit timestamp the run allocates,
/// so no scanned value or visibility depends on when a commit lands.
fn run_case(runner: Runner, source: Source, model: MemoryModel, seed: u64, rows: u64) -> RunRecord {
    let cores = if runner == Runner::Scan { 1 } else { 2 };
    let mut sys = build_system(cores, model);
    let mvcc = source == Source::RowsMvcc;
    let schema = Schema::benchmark(4, 4, 64);
    let mut table = sys
        .create_table(
            schema,
            rows,
            if mvcc {
                MvccConfig::Enabled
            } else {
                MvccConfig::Disabled
            },
        )
        .unwrap();
    DataGen::new(seed)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .unwrap();
    if mvcc {
        for row in 0..rows {
            if row.wrapping_mul(2654435761) % 3 == 0 {
                table.mark_deleted(sys.mem_mut(), row, 5).unwrap();
            }
        }
    }
    let snapshot = mvcc.then(|| Snapshot::at(TXN_TS_BASE + 1_000));
    let columns = [0usize, 2];

    let columnar;
    let var;
    let (scan_source, path) = match source {
        Source::Rows | Source::RowsMvcc => (
            ScanSource::Rows {
                table: &table,
                columns: &columns,
                snapshot,
            },
            AccessPath::DirectRowWise,
        ),
        Source::Columnar => {
            columnar = sys.materialize_columnar(&table).unwrap();
            (
                ScanSource::Columnar {
                    table: &columnar,
                    columns: &columns,
                },
                AccessPath::DirectColumnar,
            )
        }
        Source::EphemeralCold | Source::EphemeralHot => {
            var = sys
                .register_ephemeral(&table, ColumnGroup::new(vec![0, 2]).unwrap(), snapshot)
                .unwrap();
            (
                ScanSource::Ephemeral { var: &var },
                if source == Source::EphemeralHot {
                    AccessPath::RmeHot
                } else {
                    AccessPath::RmeCold
                },
            )
        }
    };

    // Conflict-free transactions over disjoint row stripes (Txn runner).
    let read_columns = [1usize, 3];
    let specs: Vec<TxnSpec> = (0..4u64)
        .map(|t| {
            let stripe = (rows / 4).max(1);
            let lo = (t * stripe) % rows;
            TxnSpec::new(vec![
                TxnOp::Read {
                    table: &table,
                    columns: &read_columns,
                    row: lo,
                },
                TxnOp::Update {
                    table: &table,
                    row: lo,
                    column: 1,
                    value: seed + t,
                },
                TxnOp::Update {
                    table: &table,
                    row: (lo + 1) % rows,
                    column: 3,
                    value: t,
                },
            ])
        })
        .collect();

    sys.begin_measurement(path);
    let mut traces: Traces = vec![Vec::new(); cores];
    let effect_of = |row: u64| RowEffect {
        cpu: SimTime::from_nanos(row % 5),
        touch: None,
    };
    let (rows_done, txn) = match runner {
        Runner::Scan => {
            let (_, _, n) = sys.scan(&scan_source, SimTime::ZERO, |row, vals| {
                traces[0].push((row, vals.to_vec()));
                effect_of(row)
            });
            (n, TxnStats::default())
        }
        Runner::Workload | Runner::Txn => {
            let first = if runner == Runner::Txn {
                specs.iter().map(|spec| WorkloadOp::Txn { spec }).collect()
            } else {
                vec![WorkloadOp::olap(scan_source)]
            };
            let workload = Workload::new(vec![
                QueryStream::new(first),
                QueryStream::new(vec![WorkloadOp::olap(scan_source)]),
            ]);
            let run = sys
                .run_workload(&workload, SimTime::ZERO, |core, _, row, vals| {
                    traces[core].push((row, vals.to_vec()));
                    effect_of(row)
                })
                .expect("valid workload");
            if runner == Runner::Txn {
                assert_eq!(run.txn.committed, 4, "disjoint stripes never conflict");
            }
            (run.rows, run.txn)
        }
    };
    RunRecord {
        rows: rows_done,
        traces,
        dram: sys.dram_stats().clone(),
        txn,
    }
}

/// Core 0 runs point lookups and updates (of column 1) while cores 1 and 2
/// scan column 0, through the RME or directly row-wise.
fn run_mixed(seed: u64, rows: u64, oltp_ops: u64, through_rme: bool) -> (u64, Traces) {
    let mut sys = build_system(3, MemoryModel::Occupancy);
    let schema = Schema::benchmark(4, 4, 64);
    let mut table = sys
        .create_table(schema, rows, MvccConfig::Disabled)
        .unwrap();
    DataGen::new(seed)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .unwrap();
    let scan_columns = [0usize];
    let var;
    let (scan, path) = if through_rme {
        var = sys
            .register_ephemeral(&table, ColumnGroup::new(vec![0]).unwrap(), None)
            .unwrap();
        (ScanSource::Ephemeral { var: &var }, AccessPath::RmeCold)
    } else {
        let scan = ScanSource::Rows {
            table: &table,
            columns: &scan_columns,
            snapshot: None,
        };
        (scan, AccessPath::DirectRowWise)
    };
    let oltp_columns = [1usize, 2];
    let oltp: Vec<WorkloadOp> = (0..oltp_ops)
        .map(|i| {
            let row = i.wrapping_mul(2654435761) % rows;
            if i % 5 == 4 {
                WorkloadOp::PointUpdate {
                    table: &table,
                    row,
                    column: 1,
                    value: i,
                }
            } else {
                WorkloadOp::PointLookup {
                    table: &table,
                    columns: &oltp_columns,
                    row,
                }
            }
        })
        .collect();
    let workload = Workload::new(vec![
        QueryStream::new(oltp),
        QueryStream::new(vec![WorkloadOp::olap(scan)]),
        QueryStream::new(vec![WorkloadOp::olap(scan)]),
    ]);
    sys.begin_measurement(path);
    let mut traces: Traces = vec![Vec::new(); 3];
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |core, _, row, vals| {
            traces[core].push((row, vals.to_vec()));
            RowEffect::default()
        })
        .expect("valid workload");
    if through_rme {
        assert!(
            sys.dram_stats().rme_accesses > 0,
            "the scans must fetch through the engine"
        );
    }
    (run.rows, traces)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Mixed RME + CPU workload: every stream's values and the row count
    /// equal the same seed's run with the scans taken directly row-wise.
    #[test]
    fn mixed_rme_and_cpu_runs_carry_the_row_values(
        seed in 0u64..1_000,
        rows in 64u64..ROWS_CAP,
        oltp_ops in 8u64..40,
    ) {
        let rme = run_mixed(seed, rows, oltp_ops, true);
        let direct = run_mixed(seed, rows, oltp_ops, false);
        prop_assert_eq!(rme, direct);
    }

    /// The cycle-accurate model computes what the occupancy model computes
    /// — per-stream value traces, row counts, transaction accounting —
    /// and adds to the occupancy model's explicit (commit) writes exactly
    /// its writebacks, which the occupancy model drops.
    #[test]
    fn cycle_accurate_runs_compute_what_occupancy_runs_compute(
        seed in 0u64..1_000,
        rows in 16u64..ROWS_CAP,
    ) {
        for source in ALL_SOURCES {
            for runner in [Runner::Scan, Runner::Workload, Runner::Txn] {
                let occ = run_case(runner, source, MemoryModel::Occupancy, seed, rows);
                let ca = run_case(runner, source, MemoryModel::CycleAccurate, seed, rows);
                prop_assert_eq!(
                    &occ.traces, &ca.traces,
                    "data diverged for {:?}/{:?}", runner, source
                );
                prop_assert_eq!(occ.rows, ca.rows);
                prop_assert_eq!(&occ.txn, &ca.txn);
                prop_assert_eq!(occ.dram.writebacks, 0);
                prop_assert_eq!(
                    occ.dram.writes + ca.dram.writebacks,
                    ca.dram.writes,
                    "CA writes = occupancy writes + writebacks for {:?}/{:?}",
                    runner,
                    source
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Writebacks: dirty evictions become real DRAM writes only where tWR/tWTR
// exist to observe them.
// ---------------------------------------------------------------------------

/// An update-heavy workload sized to overflow the L2, so dirty lines are
/// evicted while the stream is still running, followed by a row scan of
/// column 0 that evicts the dirty lines the stream left in the L2. Returns
/// the DRAM counters after the stream and after the scan.
fn run_update_heavy(model: MemoryModel) -> (DramStats, DramStats) {
    let rows: u64 = 40_000;
    let mut sys = build_system(1, model);
    let schema = Schema::benchmark(4, 4, 64);
    let mut table = sys
        .create_table(schema, rows, MvccConfig::Disabled)
        .unwrap();
    DataGen::new(3)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .unwrap();
    let columns = [1usize];
    let ops: Vec<WorkloadOp> = (0..40_000u64)
        .map(|i| {
            let row = i.wrapping_mul(2654435761) % rows;
            if i % 2 == 0 {
                WorkloadOp::PointUpdate {
                    table: &table,
                    row,
                    column: 1,
                    value: i,
                }
            } else {
                WorkloadOp::PointLookup {
                    table: &table,
                    columns: &columns,
                    row,
                }
            }
        })
        .collect();
    let workload = Workload::new(vec![QueryStream::new(ops)]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
        .expect("valid workload");
    let after_stream = sys.dram_stats().clone();
    let scan = ScanSource::Rows {
        table: &table,
        columns: &[0],
        snapshot: None,
    };
    sys.scan(&scan, run.end, |_, _| RowEffect::default());
    (after_stream, sys.dram_stats().clone())
}

/// Under the cycle-accurate model the update stream's dirty evictions
/// surface as DRAM writes, and they are its only writes: point updates
/// issue no explicit ones. The scan after it, which has no per-step
/// horizon, writes back the lines it evicts by the time it returns.
#[test]
fn cycle_accurate_update_stream_writes_back_its_dirty_lines() {
    let (stream, scan) = run_update_heavy(MemoryModel::CycleAccurate);
    assert!(
        stream.writebacks > 0,
        "dirty evictions must surface as writebacks: {stream:?}"
    );
    assert_eq!(stream.writes, stream.writebacks);
    assert!(
        scan.writebacks > stream.writebacks,
        "the scan must evict dirty lines"
    );
    assert_eq!(scan.writes, scan.writebacks);
}

/// The occupancy model drops posted writebacks: the same stream and scan
/// write nothing to DRAM.
#[test]
fn occupancy_update_stream_writes_nothing_back() {
    let (_, scan) = run_update_heavy(MemoryModel::Occupancy);
    assert_eq!(scan.writebacks, 0);
    assert_eq!(scan.writes, 0);
}
