//! Golden-trace regression suite.
//!
//! Every simulator counter is deterministic: identical inputs produce
//! bit-identical statistics. This suite pins that behaviour down as data —
//! it runs a fixed seed matrix of `scan` / `scan_sharded` / `run_workload`
//! / `run_open_loop` measurements and the benchmark's hash queries (Q4,
//! Q5) and compares the end-of-run counter snapshots (`HierarchyStats` per
//! core, `SharedL2Stats`, `DramStats`, timing) against checked-in fixtures
//! under `tests/golden/`.
//!
//! An *intended* timing-model change will shift these numbers. Regenerate
//! the fixtures with
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden_trace
//! ```
//!
//! and commit the diff — the point is that counter drift shows up in code
//! review as data, never silently.

use std::fmt::Write as _;
use std::path::PathBuf;

use relational_memory::cache::HierarchyStats;
use relational_memory::core::system::{RowEffect, ScanSource, SystemConfig};
use relational_memory::core::workload::{QueryStream, Workload, WorkloadOp};
use relational_memory::prelude::*;
use relmem_sim::SimTime;

// ---------------------------------------------------------------------------
// Snapshot rendering: a stable, diffable `key = value` text format.
// ---------------------------------------------------------------------------

fn put(out: &mut String, key: &str, value: impl std::fmt::Display) {
    writeln!(out, "{key} = {value}").expect("string write");
}

fn put_time(out: &mut String, key: &str, t: SimTime) {
    put(out, key, format!("{} ps", t.as_picos()));
}

fn render_hierarchy(out: &mut String, prefix: &str, h: &HierarchyStats) {
    put(out, &format!("{prefix}.l1.requests"), h.l1.requests);
    put(out, &format!("{prefix}.l1.hits"), h.l1.hits);
    put(out, &format!("{prefix}.l1.misses"), h.l1.misses);
    put(out, &format!("{prefix}.l2.requests"), h.l2.requests);
    put(out, &format!("{prefix}.l2.hits"), h.l2.hits);
    put(out, &format!("{prefix}.l2.misses"), h.l2.misses);
    put(out, &format!("{prefix}.backend_fills"), h.backend_fills);
    put(
        out,
        &format!("{prefix}.prefetches_issued"),
        h.prefetches_issued,
    );
    put(out, &format!("{prefix}.prefetch_hits"), h.prefetch_hits);
    put(
        out,
        &format!("{prefix}.l2_contended_lookups"),
        h.l2_contended_lookups,
    );
    put_time(
        out,
        &format!("{prefix}.l2_contention_delay"),
        h.l2_contention_delay,
    );
}

/// Renders the full end-of-run counter snapshot of a system plus the run's
/// aggregate timing.
fn render_snapshot(sys: &System, end: SimTime, cpu: SimTime, rows: u64) -> String {
    let mut out = String::new();
    put_time(&mut out, "run.end", end);
    put_time(&mut out, "run.cpu", cpu);
    put(&mut out, "run.rows", rows);

    let mut merged = HierarchyStats::default();
    for core in 0..sys.num_cores() {
        merged.merge(sys.core_stats(core));
    }
    render_hierarchy(&mut out, "cache", &merged);
    for core in 0..sys.num_cores() {
        render_hierarchy(&mut out, &format!("core{core}"), sys.core_stats(core));
    }

    let l2 = sys.l2_stats();
    put(&mut out, "shared_l2.lookups", l2.lookups);
    put(
        &mut out,
        "shared_l2.contended_lookups",
        l2.contended_lookups,
    );
    put_time(&mut out, "shared_l2.contention_delay", l2.contention_delay);
    for (core, share) in sys.l2_shares().iter().enumerate() {
        put(
            &mut out,
            &format!("shared_l2.core{core}.lookups"),
            share.lookups,
        );
        put(
            &mut out,
            &format!("shared_l2.core{core}.contended_lookups"),
            share.contended_lookups,
        );
        put_time(
            &mut out,
            &format!("shared_l2.core{core}.contention_delay"),
            share.contention_delay,
        );
    }

    let dram = sys.dram_stats();
    put(&mut out, "dram.accesses", dram.accesses);
    put(&mut out, "dram.row_hits", dram.row_hits);
    put(&mut out, "dram.row_misses", dram.row_misses);
    put(&mut out, "dram.bytes_transferred", dram.bytes_transferred);
    put(&mut out, "dram.beats", dram.beats);
    put(&mut out, "dram.rme_accesses", dram.rme_accesses);
    // Explicit DRAM writes are issued only by transaction commits
    // (version-header stamps and published inserts); rendering the counter
    // only when nonzero keeps every pre-transaction fixture byte-identical.
    if dram.writes > 0 {
        put(&mut out, "dram.writes", dram.writes);
    }
    for (core, n) in dram.per_core_accesses.iter().enumerate() {
        put(&mut out, &format!("dram.core{core}.accesses"), n);
    }
    // Command-level counters exist only under the cycle-accurate model;
    // gating keeps the occupancy-model fixtures byte-identical to their
    // pre-cycle-accurate state.
    if sys.memory_model() == relmem_sim::MemoryModel::CycleAccurate {
        put(&mut out, "dram.refreshes", dram.refreshes);
        put(&mut out, "dram.tfaw_stalls", dram.tfaw_stalls);
        put(&mut out, "dram.queue_stalls", dram.queue_stalls);
        put(
            &mut out,
            "dram.queue_occupancy_sum",
            dram.queue_occupancy_sum,
        );
    }
    // Writeback traffic and FR-FCFS reorders occur only under the
    // cycle-accurate model; rendering them only when nonzero keeps every
    // fixture without them byte-identical to its original form.
    if dram.writebacks > 0 {
        put(&mut out, "dram.writebacks", dram.writebacks);
    }
    if dram.fr_fcfs_reorders > 0 {
        put(&mut out, "dram.fr_fcfs_reorders", dram.fr_fcfs_reorders);
    }
    out
}

/// Compares `actual` against the checked-in fixture, or regenerates it
/// when `GOLDEN_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.golden"));
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden fixture {} — generate it with \
             `GOLDEN_BLESS=1 cargo test --test golden_trace` and commit it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden trace {name} diverged. If the timing-model change is \
         intended, regenerate with `GOLDEN_BLESS=1 cargo test --test \
         golden_trace` and commit the fixture diff."
    );
}

// ---------------------------------------------------------------------------
// The fixed seed matrix.
// ---------------------------------------------------------------------------

const ROWS: u64 = 3_000;
const SEED: u64 = 11;

fn build(cores: usize, mvcc: MvccConfig) -> (System, RowTable) {
    build_with_model(cores, mvcc, relmem_sim::MemoryModel::Occupancy)
}

fn build_with_model(
    cores: usize,
    mvcc: MvccConfig,
    model: relmem_sim::MemoryModel,
) -> (System, RowTable) {
    let mut config = SystemConfig {
        cores,
        mem_bytes: 16 << 20,
        ..SystemConfig::default()
    };
    config.platform.dram.model = model;
    build_with_config(config, mvcc)
}

fn build_with_config(config: SystemConfig, mvcc: MvccConfig) -> (System, RowTable) {
    let mut sys = System::with_config(config);
    let schema = Schema::benchmark(4, 4, 64);
    let mut table = sys.create_table(schema, ROWS, mvcc).unwrap();
    DataGen::new(SEED)
        .fill_table(sys.mem_mut(), &mut table, ROWS)
        .unwrap();
    (sys, table)
}

fn golden_scan(name: &str, kind: &str, cores: usize) {
    golden_scan_with_model(name, kind, cores, relmem_sim::MemoryModel::Occupancy);
}

fn golden_scan_with_model(name: &str, kind: &str, cores: usize, model: relmem_sim::MemoryModel) {
    let mvcc = if kind == "rows_mvcc" {
        MvccConfig::Enabled
    } else {
        MvccConfig::Disabled
    };
    let (mut sys, table) = build_with_model(cores, mvcc, model);
    assert_eq!(sys.memory_model(), model);
    if mvcc.is_enabled() {
        for row in 0..ROWS {
            if row % 7 == 0 {
                table.mark_deleted(sys.mem_mut(), row, 5).unwrap();
            }
        }
    }
    let columns = [0usize, 2];
    let columnar;
    let var;
    let (source, path) = match kind {
        "rows" => (
            ScanSource::Rows {
                table: &table,
                columns: &columns,
                snapshot: None,
            },
            AccessPath::DirectRowWise,
        ),
        "rows_mvcc" => (
            ScanSource::Rows {
                table: &table,
                columns: &columns,
                snapshot: Some(Snapshot::at(7)),
            },
            AccessPath::DirectRowWise,
        ),
        "columnar" => {
            columnar = sys.materialize_columnar(&table).unwrap();
            (
                ScanSource::Columnar {
                    table: &columnar,
                    columns: &columns,
                },
                AccessPath::DirectColumnar,
            )
        }
        "ephemeral" => {
            var = sys
                .register_ephemeral(&table, ColumnGroup::new(vec![0, 2]).unwrap(), None)
                .unwrap();
            (ScanSource::Ephemeral { var: &var }, AccessPath::RmeCold)
        }
        other => panic!("unknown kind {other}"),
    };
    sys.begin_measurement(path);
    let snapshot = if cores == 1 {
        let (end, cpu, rows) = sys.scan(&source, SimTime::ZERO, |_, _| RowEffect::default());
        render_snapshot(&sys, end, cpu, rows)
    } else {
        let run = sys.scan_sharded(&source, SimTime::ZERO, |_, _, _| RowEffect::default());
        render_snapshot(&sys, run.end, run.cpu, run.rows)
    };
    check_golden(name, &snapshot);
}

#[test]
fn golden_scan_rows_1core() {
    golden_scan("scan_rows_1core", "rows", 1);
}

/// The same fixed-seed scan as `scan_rows_1core`, run on the cycle-accurate
/// DRAM model — regression-locks the command-level counters (refreshes,
/// tFAW stalls, queue occupancy) from day one.
#[test]
fn golden_scan_rows_1core_ca() {
    golden_scan_with_model(
        "scan_rows_1core_ca",
        "rows",
        1,
        relmem_sim::MemoryModel::CycleAccurate,
    );
}

#[test]
fn golden_scan_rows_mvcc_1core() {
    golden_scan("scan_rows_mvcc_1core", "rows_mvcc", 1);
}

#[test]
fn golden_scan_columnar_1core() {
    golden_scan("scan_columnar_1core", "columnar", 1);
}

#[test]
fn golden_scan_ephemeral_1core() {
    golden_scan("scan_ephemeral_1core", "ephemeral", 1);
}

/// Appends the RME engine's counters to a snapshot. Rendered only by the
/// multi-frame fixture, so every older fixture stays byte-identical.
fn render_rme(out: &mut String, rme: &relational_memory::rme::RmeStats) {
    put(out, "rme.frames_fetched", rme.frames_fetched);
    put(out, "rme.descriptors", rme.descriptors);
    put(out, "rme.buffer_hits", rme.buffer_hits);
    put(out, "rme.buffer_misses", rme.buffer_misses);
    put(out, "rme.dram_beats", rme.dram_beats);
    put(out, "rme.useful_bytes", rme.useful_bytes);
    put(out, "rme.rows_filtered", rme.rows_filtered);
    put(out, "rme.epoch_resets", rme.epoch_resets);
}

/// An RME-cold scan whose projection spans several Data SPM frames, with
/// MVCC snapshot filtering dropping every seventh row: the 4 KiB SPM holds
/// 512 packed rows of the 8-byte projection, so the 2571 visible rows
/// take six frames.
#[test]
fn golden_scan_ephemeral_multiframe_mvcc_1core() {
    let mut config = SystemConfig {
        cores: 1,
        mem_bytes: 16 << 20,
        ..SystemConfig::default()
    };
    config.platform.rme.data_spm_bytes = 4 * 1024;
    let (mut sys, table) = build_with_config(config, MvccConfig::Enabled);
    for row in (0..ROWS).step_by(7) {
        table.mark_deleted(sys.mem_mut(), row, 5).unwrap();
    }
    let var = sys
        .register_ephemeral(
            &table,
            ColumnGroup::new(vec![0, 2]).unwrap(),
            Some(Snapshot::at(7)),
        )
        .unwrap();
    sys.begin_measurement(AccessPath::RmeCold);
    let (end, cpu, rows) = sys.scan(
        &ScanSource::Ephemeral { var: &var },
        SimTime::ZERO,
        |_, _| RowEffect::default(),
    );
    let rme = sys.engine().stats();
    assert!(
        rme.frames_fetched >= 3,
        "the scan must cross several frames"
    );
    assert!(rme.rows_filtered > 0, "the snapshot must drop rows");
    let mut snapshot = render_snapshot(&sys, end, cpu, rows);
    render_rme(&mut snapshot, &rme);
    check_golden("scan_ephemeral_multiframe_mvcc_1core", &snapshot);
}

#[test]
fn golden_sharded_rows_2core() {
    golden_scan("sharded_rows_2core", "rows", 2);
}

#[test]
fn golden_sharded_rows_4core() {
    golden_scan("sharded_rows_4core", "rows", 4);
}

#[test]
fn golden_sharded_ephemeral_4core() {
    golden_scan("sharded_ephemeral_4core", "ephemeral", 4);
}

/// A mixed HTAP workload: OLTP point stream with a mid-stream MVCC
/// snapshot on core 0, an analytical scan on core 1.
#[test]
fn golden_workload_htap_2core() {
    let (mut sys, table) = build(2, MvccConfig::Enabled);
    let scan_columns = [0usize];
    let oltp_columns = [1usize, 3];
    let mut ops = vec![WorkloadOp::TakeSnapshot { ts: 3 }];
    for i in 0..60u64 {
        let row = i.wrapping_mul(2654435761) % ROWS;
        ops.push(match i % 6 {
            4 => WorkloadOp::PointUpdate {
                table: &table,
                row,
                column: 1,
                value: i,
            },
            5 => WorkloadOp::PointDelete {
                table: &table,
                row,
                ts: 9,
            },
            _ => WorkloadOp::PointLookup {
                table: &table,
                columns: &oltp_columns,
                row,
            },
        });
    }
    let workload = Workload::new(vec![
        QueryStream::new(ops),
        QueryStream::new(vec![WorkloadOp::OlapScan {
            source: ScanSource::Rows {
                table: &table,
                columns: &scan_columns,
                snapshot: Some(Snapshot::at(2)),
            },
            stream_snapshot: false,
        }]),
    ]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, row, _| RowEffect {
            cpu: SimTime::from_nanos(row % 3),
            touch: None,
        })
        .expect("valid workload");
    check_golden(
        "workload_htap_2core",
        &render_snapshot(&sys, run.end, run.cpu, run.rows),
    );
}

/// An update-heavy point stream on the cycle-accurate model: the working
/// set overflows the L2, so dirty lines are evicted mid-stream and become
/// real DRAM writes scheduled through the FR-FCFS write buffer. This is
/// the first
/// fixture where `dram.writebacks` (and, when the buffer reorders,
/// `dram.fr_fcfs_reorders`) appear.
#[test]
fn golden_update_heavy_ca_event() {
    const BIG_ROWS: u64 = 40_000;
    let mut config = SystemConfig {
        cores: 1,
        mem_bytes: 16 << 20,
        ..SystemConfig::default()
    };
    config.platform.dram.model = relmem_sim::MemoryModel::CycleAccurate;
    let mut sys = System::with_config(config);
    let schema = Schema::benchmark(4, 4, 64);
    let mut table = sys
        .create_table(schema, BIG_ROWS, MvccConfig::Disabled)
        .unwrap();
    DataGen::new(SEED)
        .fill_table(sys.mem_mut(), &mut table, BIG_ROWS)
        .unwrap();
    let columns = [1usize];
    let ops: Vec<WorkloadOp> = (0..30_000u64)
        .map(|i| {
            let row = i.wrapping_mul(2654435761) % BIG_ROWS;
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
    let snapshot = render_snapshot(&sys, run.end, run.cpu, run.rows);
    assert!(
        snapshot.contains("dram.writebacks"),
        "writeback traffic must appear in this fixture"
    );
    check_golden("update_heavy_ca_event", &snapshot);
}

/// Appends the run's transaction accounting to a snapshot, so the fixture
/// reviews commit/abort drift alongside the hardware counters.
fn render_txn(out: &mut String, txn: &relmem_sim::TxnStats) {
    put(out, "txn.begun", txn.begun);
    put(out, "txn.committed", txn.committed);
    put(out, "txn.aborted_conflict", txn.aborted_conflict);
    put(out, "txn.aborted_shed", txn.aborted_shed);
    put(out, "txn.rows_inserted", txn.rows_inserted);
}

/// A transactional HTAP mix: core 0 runs multi-row MVCC transactions
/// (read-modify-write pairs plus a delete), core 1 a concurrent snapshot
/// scan. Commit stamps force version headers to DRAM, so this is the first
/// fixture where `dram.writes` appears.
#[test]
fn golden_txn_mixed_2core() {
    use relational_memory::core::{TxnOp, TxnSpec};

    let (mut sys, table) = build(2, MvccConfig::Enabled);
    let read_columns = [1usize, 3];
    let scan_columns = [0usize];
    let specs: Vec<TxnSpec> = (0..12u64)
        .map(|i| {
            let a = i.wrapping_mul(2654435761) % ROWS;
            let b = (a + 1) % ROWS;
            let mut ops = vec![
                TxnOp::Read {
                    table: &table,
                    columns: &read_columns,
                    row: a,
                },
                TxnOp::Update {
                    table: &table,
                    row: a,
                    column: 1,
                    value: i,
                },
                TxnOp::Read {
                    table: &table,
                    columns: &read_columns,
                    row: b,
                },
                TxnOp::Update {
                    table: &table,
                    row: b,
                    column: 2,
                    value: i + 100,
                },
            ];
            if i % 4 == 3 {
                ops.push(TxnOp::Delete {
                    table: &table,
                    row: (a + 2) % ROWS,
                });
            }
            TxnSpec::new(ops)
        })
        .collect();
    let txn_ops: Vec<WorkloadOp> = specs.iter().map(|spec| WorkloadOp::Txn { spec }).collect();
    let workload = Workload::new(vec![
        QueryStream::new(txn_ops),
        QueryStream::new(vec![WorkloadOp::OlapScan {
            source: ScanSource::Rows {
                table: &table,
                columns: &scan_columns,
                snapshot: Some(Snapshot::at(2)),
            },
            stream_snapshot: false,
        }]),
    ]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, row, _| RowEffect {
            cpu: SimTime::from_nanos(row % 3),
            touch: None,
        })
        .expect("valid workload");
    assert_eq!(run.txn.committed, 12, "a sequential stream never conflicts");
    assert!(run.txn.is_consistent());
    let mut snapshot = render_snapshot(&sys, run.end, run.cpu, run.rows);
    render_txn(&mut snapshot, &run.txn);
    check_golden("txn_mixed_2core", &snapshot);
}

/// Insert-publishing transactions on one core: the table is created with
/// append headroom and each transaction publishes two fresh rows (cold
/// cache lines plus explicit DRAM writes) next to a point read.
#[test]
fn golden_txn_insert_1core() {
    use relational_memory::core::{TxnOp, TxnSpec};

    let mut config = SystemConfig {
        cores: 1,
        mem_bytes: 16 << 20,
        ..SystemConfig::default()
    };
    config.platform.dram.model = relmem_sim::MemoryModel::Occupancy;
    let mut sys = System::with_config(config);
    let schema = Schema::benchmark(4, 4, 64);
    let mut table = sys
        .create_table(schema, ROWS + 32, MvccConfig::Disabled)
        .unwrap();
    DataGen::new(SEED)
        .fill_table(sys.mem_mut(), &mut table, ROWS)
        .unwrap();

    let read_columns = [0usize, 2];
    let value_rows: Vec<[u64; 5]> = (0..16u64).map(|i| [i, i + 1, i + 2, i + 3, 0]).collect();
    let specs: Vec<TxnSpec> = value_rows
        .chunks(2)
        .enumerate()
        .map(|(t, chunk)| {
            let mut ops = vec![TxnOp::Read {
                table: &table,
                columns: &read_columns,
                row: (t as u64).wrapping_mul(2654435761) % ROWS,
            }];
            for values in chunk {
                ops.push(TxnOp::Insert {
                    table: &table,
                    columnar: None,
                    values,
                });
            }
            TxnSpec::new(ops)
        })
        .collect();
    let txn_ops: Vec<WorkloadOp> = specs.iter().map(|spec| WorkloadOp::Txn { spec }).collect();
    let workload = Workload::new(vec![QueryStream::new(txn_ops)]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
        .expect("valid workload");
    assert_eq!(run.txn.committed, 8);
    assert_eq!(run.txn.rows_inserted, 16);
    assert_eq!(table.num_rows(), ROWS + 16);
    let mut snapshot = render_snapshot(&sys, run.end, run.cpu, run.rows);
    render_txn(&mut snapshot, &run.txn);
    check_golden("txn_insert_1core", &snapshot);
}

/// A single-stream workload on one core — pinned to the same numbers as
/// `scan_rows_1core` would produce through `System::scan` (the equivalence
/// the proptests prove; the fixture makes it reviewable data).
#[test]
fn golden_workload_single_stream_1core() {
    let (mut sys, table) = build(1, MvccConfig::Disabled);
    let columns = [0usize, 2];
    let workload = Workload::new(vec![QueryStream::new(vec![WorkloadOp::olap(
        ScanSource::Rows {
            table: &table,
            columns: &columns,
            snapshot: None,
        },
    )])]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
        .expect("valid workload");
    check_golden(
        "workload_single_stream_1core",
        &render_snapshot(&sys, run.end, run.cpu, run.rows),
    );
}

/// Appends an open-loop run's admission-control accounting — every
/// [`OverloadStats`](relmem_sim::OverloadStats) field, each degradation
/// transition — and the per-core end/cpu/rows.
fn render_open_loop(out: &mut String, run: &OpenLoopRun) {
    let o = &run.overload;
    put(out, "overload.arrivals", o.arrivals);
    put(out, "overload.retries", o.retries);
    put(out, "overload.admitted", o.admitted);
    put(out, "overload.shed_queue_full", o.shed_queue_full);
    put(out, "overload.shed_deadline", o.shed_deadline);
    put(out, "overload.timed_out", o.timed_out);
    put(out, "overload.completed", o.completed);
    put(out, "overload.degraded_ops", o.degraded_ops);
    put(out, "overload.max_queue_depth", o.max_queue_depth);
    put(out, "overload.transitions", o.transitions.len());
    for (i, t) in o.transitions.iter().enumerate() {
        put_time(out, &format!("overload.transition{i}.at"), t.at);
        put(out, &format!("overload.transition{i}.degraded"), t.degraded);
    }
    for s in &run.streams {
        put_time(out, &format!("stream{}.end", s.core), s.end);
        put_time(out, &format!("stream{}.cpu", s.core), s.cpu);
        put(out, &format!("stream{}.rows", s.core), s.rows);
        put(
            out,
            &format!("stream{}.completed", s.core),
            s.outcomes.len(),
        );
    }
}

/// Open-loop traffic past the saturation knee on two cores. Core 0 takes
/// point lookups and read-read-update transactions on eight hot keys;
/// core 1 takes direct row scans whose degraded alternative is the same
/// projection through the RME (cold). A small admission queue, a delay
/// budget below a client timeout with one retry, and a degradation policy
/// make every overload path fire: queue-full and deadline sheds,
/// timeouts, retries and degraded (RME) scans. The degraded scan runs
/// while core 0 is still busy, so the interleaver arbitrates between an
/// ephemeral and a plain stream.
#[test]
fn golden_openloop_overload_2core() {
    use relational_memory::core::{TxnOp, TxnSpec};

    let (mut sys, table) = build(2, MvccConfig::Enabled);
    let var = sys
        .register_ephemeral(&table, ColumnGroup::new(vec![0, 2]).unwrap(), None)
        .unwrap();
    let hot = |i: u64| (i % 8).wrapping_mul(2654435761) % ROWS;
    let oltp_columns = [1usize, 3];
    let scan_columns = [0usize, 2];
    let specs: Vec<TxnSpec> = (0..4u64)
        .map(|i| {
            TxnSpec::new(vec![
                TxnOp::Read {
                    table: &table,
                    columns: &oltp_columns,
                    row: hot(i),
                },
                TxnOp::Read {
                    table: &table,
                    columns: &oltp_columns,
                    row: hot(i + 3),
                },
                TxnOp::Update {
                    table: &table,
                    row: hot(i),
                    column: 1,
                    value: i,
                },
            ])
        })
        .collect();
    let mut oltp: Vec<OpenLoopOp> = Vec::new();
    for i in 0..8u64 {
        oltp.push(OpenLoopOp::new(WorkloadOp::PointLookup {
            table: &table,
            columns: &oltp_columns,
            row: hot(i),
        }));
        if i % 2 == 1 {
            oltp.push(OpenLoopOp::new(WorkloadOp::Txn {
                spec: &specs[(i / 2) as usize],
            }));
        }
    }
    let scan = vec![OpenLoopOp::with_degraded(
        WorkloadOp::olap(ScanSource::Rows {
            table: &table,
            columns: &scan_columns,
            snapshot: None,
        }),
        WorkloadOp::olap(ScanSource::Ephemeral { var: &var }),
    )];
    let workload = OpenLoopWorkload::new(vec![
        OpenLoopStream::new(oltp, 1.5e7, 1_500),
        OpenLoopStream::new(scan, 2.0e5, 16),
    ]);
    let cfg = AdmissionConfig {
        seed: SEED,
        queue_capacity: 4,
        delay_budget: Some(SimTime::from_nanos(20_000)),
        timeout: Some(SimTime::from_nanos(36_000)),
        max_retries: 1,
        retry_backoff: SimTime::from_nanos(2_000),
        degrade: Some(DegradePolicy {
            high_watermark: 4,
            low_watermark: 1,
            trigger_after: 3,
            clear_after: 16,
        }),
    };
    sys.begin_measurement(AccessPath::RmeCold);
    let run = sys
        .run_open_loop(&workload, &cfg, SimTime::ZERO, |_, _, row, _| RowEffect {
            cpu: SimTime::from_nanos(row % 3),
            touch: None,
        })
        .expect("valid open-loop workload");
    let o = &run.overload;
    assert!(o.shed_queue_full > 0, "queue-full sheds: {o:?}");
    assert!(o.shed_deadline > 0, "deadline sheds: {o:?}");
    assert!(o.timed_out > 0, "timeouts: {o:?}");
    assert!(o.retries > 0, "retries: {o:?}");
    assert!(o.degraded_ops > 0, "degraded ops: {o:?}");
    assert!(run.txn.is_consistent());
    let mut snapshot = render_snapshot(&sys, run.end, run.cpu, run.rows);
    render_open_loop(&mut snapshot, &run);
    render_txn(&mut snapshot, &run.txn);
    render_rme(&mut snapshot, &sys.engine().stats());
    check_golden("openloop_overload_2core", &snapshot);
}

/// The benchmark's hash queries, Q4 (group-by) and Q5 (hash join), on the
/// direct row, direct columnar and RME-cold paths of a small [`Benchmark`].
/// Each section renders the functional output (rows, checksum), the run's
/// elapsed and CPU time and the counters its measurement left in the
/// system, so the hash tables' host-side implementation can change only
/// if every output and simulated number stays put.
#[test]
fn golden_benchmark_hash_queries_1core() {
    let mut bench = Benchmark::new(BenchmarkParams {
        rows: 4_000,
        inner_rows: 1_000,
        seed: SEED,
        ..BenchmarkParams::default()
    });
    let mut snapshot = String::new();
    for (query, name) in [(Query::Q4, "q4"), (Query::Q5, "q5")] {
        for (path, label) in [
            (AccessPath::DirectRowWise, "row"),
            (AccessPath::DirectColumnar, "columnar"),
            (AccessPath::RmeCold, "rme_cold"),
        ] {
            let run = bench.run(query, path);
            let QueryOutput::Set { rows, checksum } = run.output else {
                panic!("{name} returns a row set");
            };
            let m = &run.measurement;
            writeln!(snapshot, "[{name}.{label}]").expect("string write");
            put(&mut snapshot, "output.checksum", checksum);
            snapshot.push_str(&render_snapshot(
                bench.system(),
                m.elapsed,
                m.cpu_time,
                rows,
            ));
            if path.uses_rme() {
                render_rme(&mut snapshot, &m.rme);
            }
        }
    }
    check_golden("benchmark_hash_queries_1core", &snapshot);
}
