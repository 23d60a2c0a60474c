//! Named transactional benchmarks gating the MVCC transaction layer.
//!
//! Each benchmark is a fixed, named scenario with its parameters as
//! constants at the top of its section, in three tiers of assertion:
//!
//! * **exact answers** — row counts, read-back values, final cell
//!   contents: these must never drift;
//! * **exact accounting** — commit/abort counters and the identity
//!   `begun == committed + aborted_conflict + aborted_shed`: conflicts are
//!   deterministic under the min-clock interleaver, so the counts are
//!   pinned as data;
//! * **budgets** — simulated-time and DRAM-access ceilings with ~2×
//!   headroom: a timing-model tune may move the numbers, a complexity
//!   regression (e.g. commits re-reading whole tables) blows the budget.
//!   The golden-trace suite pins the exact counters; budgets here catch
//!   order-of-magnitude mistakes with a readable failure.

use relational_memory::core::system::{RowEffect, ScanSource, SystemConfig};
use relational_memory::core::workload::{OpKind, QueryStream, Workload, WorkloadOp};
use relational_memory::core::{TxnOp, TxnSpec};
use relational_memory::prelude::*;
use relmem_sim::SimTime;

/// Builds a system with `cores` cores and a benchmark-schema table filled
/// with `rows` rows (allocated for `capacity` so transactions can append).
fn build(
    cores: usize,
    rows: u64,
    capacity: u64,
    mvcc: MvccConfig,
    model: relmem_sim::MemoryModel,
) -> (System, RowTable) {
    let mut config = SystemConfig {
        cores,
        mem_bytes: 16 << 20,
        ..SystemConfig::default()
    };
    config.platform.dram.model = model;
    let mut sys = System::with_config(config);
    let schema = Schema::benchmark(4, 4, 64);
    let mut table = sys.create_table(schema, capacity, mvcc).unwrap();
    DataGen::new(29)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .unwrap();
    (sys, table)
}

// ---------------------------------------------------------------------------
// transfer_hotrow_4core — write-write contention on one hot row
// ---------------------------------------------------------------------------

const TRANSFER_ROWS: u64 = 2_000;
const TRANSFER_CORES: usize = 4;
const TRANSFER_TXNS_PER_CORE: u64 = 8;
/// In-place retry budget per transaction — generous enough that every
/// transfer eventually commits despite the hot row (at 8 retries one
/// transaction still starves under the fixed 4-core interleaving).
const TRANSFER_RETRIES: u32 = 16;
/// Row every transaction transfers against.
const TRANSFER_HOT_ROW: u64 = 0;
/// Pinned conflict-abort count of the fixed 4-core interleaving.
const TRANSFER_CONFLICT_ABORTS: u64 = 37;
/// Simulated-time budget (ns) — ~2× the observed makespan.
const TRANSFER_END_BUDGET_NS: u64 = 40_000;
/// DRAM-access budget — ~2× the observed traffic.
const TRANSFER_DRAM_BUDGET: u64 = 700;

/// Four cores each run eight transfer transactions against one hot row:
/// read hot + read own, then update both. First-updater-wins aborts the
/// later claimer; with retries every transfer must eventually commit, and
/// the abort count of the fixed interleaving is pinned exactly.
#[test]
fn transfer_hotrow_4core() {
    let (mut sys, table) = build(
        TRANSFER_CORES,
        TRANSFER_ROWS,
        TRANSFER_ROWS,
        MvccConfig::Enabled,
        relmem_sim::MemoryModel::Occupancy,
    );
    let read_columns = [0usize, 1];
    let specs: Vec<Vec<TxnSpec>> = (0..TRANSFER_CORES)
        .map(|core| {
            (0..TRANSFER_TXNS_PER_CORE)
                .map(|i| {
                    let own = 100 + (core as u64) * 50 + i;
                    TxnSpec::new(vec![
                        TxnOp::Read {
                            table: &table,
                            columns: &read_columns,
                            row: TRANSFER_HOT_ROW,
                        },
                        TxnOp::Read {
                            table: &table,
                            columns: &read_columns,
                            row: own,
                        },
                        TxnOp::Update {
                            table: &table,
                            row: TRANSFER_HOT_ROW,
                            column: 0,
                            value: (core as u64) * 1_000 + i,
                        },
                        TxnOp::Update {
                            table: &table,
                            row: own,
                            column: 1,
                            value: i,
                        },
                    ])
                    .with_retries(TRANSFER_RETRIES)
                })
                .collect()
        })
        .collect();
    let workload = Workload::new(
        specs
            .iter()
            .map(|core_specs| {
                QueryStream::new(
                    core_specs
                        .iter()
                        .map(|spec| WorkloadOp::Txn { spec })
                        .collect(),
                )
            })
            .collect(),
    );
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
        .expect("valid workload");

    let expected_commits = TRANSFER_CORES as u64 * TRANSFER_TXNS_PER_CORE;
    assert!(
        run.txn.is_consistent(),
        "accounting identity: {:?}",
        run.txn
    );
    assert_eq!(
        run.txn.committed, expected_commits,
        "every transfer must eventually commit: {:?}",
        run.txn
    );
    assert_eq!(
        run.txn.aborted_conflict, TRANSFER_CONFLICT_ABORTS,
        "pinned conflict-abort count of the fixed interleaving: {:?}",
        run.txn
    );
    assert_eq!(run.txn.aborted_shed, 0);
    assert_eq!(
        run.txn.begun,
        expected_commits + TRANSFER_CONFLICT_ABORTS,
        "each retry counts as a fresh attempt"
    );
    assert_eq!(
        run.txn_aborts.len() as u64,
        TRANSFER_CONFLICT_ABORTS,
        "every abort is recorded as a victim"
    );
    assert!(
        run.txn_aborts.iter().all(|a| a.attempt < TRANSFER_RETRIES),
        "no transfer exhausted its retry budget"
    );
    assert!(
        run.end <= SimTime::from_nanos(TRANSFER_END_BUDGET_NS),
        "makespan {} exceeds the {TRANSFER_END_BUDGET_NS} ns budget",
        run.end
    );
    let dram = sys.dram_stats();
    assert!(
        dram.accesses <= TRANSFER_DRAM_BUDGET,
        "{} DRAM accesses exceed the {TRANSFER_DRAM_BUDGET} budget",
        dram.accesses
    );
}

// ---------------------------------------------------------------------------
// insert_append_stream — publication, capacity shedding and read-back
// ---------------------------------------------------------------------------

const INSERT_ROWS: u64 = 1_000;
/// Append headroom: exactly the rows the committing transactions publish.
const INSERT_HEADROOM: u64 = 24;
/// Committing insert transactions (2 rows each — fills the headroom).
const INSERT_TXNS: u64 = 12;
/// Extra transactions past capacity — every one must shed at commit.
const INSERT_OVERFLOW_TXNS: u64 = 2;
const INSERT_ROWS_PER_TXN: u64 = 2;
const INSERT_END_BUDGET_NS: u64 = 20_000;
const INSERT_DRAM_BUDGET: u64 = 400;

/// A single stream of insert transactions publishing into both the row
/// table and a columnar copy with matching headroom. The first twelve fill
/// the capacity exactly; two more must abort as shed, publishing nothing.
/// Published values are read back exactly from both representations.
#[test]
fn insert_append_stream() {
    let (mut sys, table) = build(
        1,
        INSERT_ROWS,
        INSERT_ROWS + INSERT_HEADROOM,
        MvccConfig::Disabled,
        relmem_sim::MemoryModel::Occupancy,
    );
    let columnar = relational_memory::storage::ColumnarTable::materialize_with_capacity(
        sys.mem_mut(),
        &table,
        INSERT_ROWS + INSERT_HEADROOM,
    )
    .unwrap();

    let total_txns = INSERT_TXNS + INSERT_OVERFLOW_TXNS;
    let value_rows: Vec<[u64; 5]> = (0..total_txns * INSERT_ROWS_PER_TXN)
        .map(|j| [j + 10, j + 20, j + 30, j + 40, 0])
        .collect();
    let specs: Vec<TxnSpec> = value_rows
        .chunks(INSERT_ROWS_PER_TXN as usize)
        .map(|chunk| {
            TxnSpec::new(
                chunk
                    .iter()
                    .map(|values| TxnOp::Insert {
                        table: &table,
                        columnar: Some(&columnar),
                        values,
                    })
                    .collect(),
            )
        })
        .collect();
    let workload = Workload::new(vec![QueryStream::new(
        specs.iter().map(|spec| WorkloadOp::Txn { spec }).collect(),
    )]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
        .expect("valid workload");

    assert!(
        run.txn.is_consistent(),
        "accounting identity: {:?}",
        run.txn
    );
    assert_eq!(run.txn.begun, total_txns);
    assert_eq!(run.txn.committed, INSERT_TXNS);
    assert_eq!(
        run.txn.aborted_shed, INSERT_OVERFLOW_TXNS,
        "capacity exhaustion sheds whole transactions: {:?}",
        run.txn
    );
    assert_eq!(run.txn.aborted_conflict, 0);
    assert_eq!(run.txn.rows_inserted, INSERT_TXNS * INSERT_ROWS_PER_TXN);
    assert_eq!(table.num_rows(), INSERT_ROWS + INSERT_HEADROOM);
    assert_eq!(columnar.num_rows(), INSERT_ROWS + INSERT_HEADROOM);
    assert_eq!(run.rows, INSERT_TXNS * INSERT_ROWS_PER_TXN);

    // The shed transactions are the last two outcomes, publishing nothing.
    let outcomes = &run.streams[0].ops;
    assert_eq!(outcomes.len() as u64, total_txns);
    for out in &outcomes[..INSERT_TXNS as usize] {
        assert_eq!(out.kind, OpKind::TxnCommit);
    }
    for out in &outcomes[INSERT_TXNS as usize..] {
        assert_eq!(out.kind, OpKind::TxnAbortShed);
        assert_eq!(out.rows, 0);
    }

    // Exact read-back of every published row, from both representations.
    for j in 0..INSERT_TXNS * INSERT_ROWS_PER_TXN {
        let row = INSERT_ROWS + j;
        for col in 0..4usize {
            let expect = j + 10 * (col as u64 + 1);
            assert_eq!(
                table.read_field(sys.mem(), row, col).unwrap().as_u64(),
                expect,
                "row table row {row} col {col}"
            );
            assert_eq!(
                columnar.read_field(sys.mem(), row, col).unwrap().as_u64(),
                expect,
                "columnar row {row} col {col}"
            );
        }
    }
    assert!(
        run.end <= SimTime::from_nanos(INSERT_END_BUDGET_NS),
        "makespan {} exceeds the {INSERT_END_BUDGET_NS} ns budget",
        run.end
    );
    let dram = sys.dram_stats();
    assert!(
        dram.accesses <= INSERT_DRAM_BUDGET,
        "{} DRAM accesses exceed the {INSERT_DRAM_BUDGET} budget",
        dram.accesses
    );
    assert!(
        dram.writes > 0,
        "published inserts must reach DRAM as explicit writes"
    );
}

// ---------------------------------------------------------------------------
// readonly_snapshot_txn — snapshot reads see a frozen world
// ---------------------------------------------------------------------------

const SNAPSHOT_ROWS: u64 = 1_000;
/// Rows the read-only transactions touch (rows `0..SNAPSHOT_READS`).
const SNAPSHOT_READS: u64 = 50;
/// Every 5th row is deleted at this timestamp before the run.
const SNAPSHOT_DELETE_TS: u64 = 5;
/// Reads under ts 3 run before the deletes: all rows visible.
const SNAPSHOT_EARLY_TS: u64 = 3;
/// Reads under ts 7 run after: every 5th row (10 of 50) is gone.
const SNAPSHOT_LATE_TS: u64 = 7;

/// Two read-only transactions over the same 50 rows, one with a snapshot
/// timestamp before a batch of deletes and one after. The answer row
/// counts are exact, and a read-only transaction issues no DRAM writes.
#[test]
fn readonly_snapshot_txn() {
    let (mut sys, table) = build(
        1,
        SNAPSHOT_ROWS,
        SNAPSHOT_ROWS,
        MvccConfig::Enabled,
        relmem_sim::MemoryModel::Occupancy,
    );
    for row in 0..SNAPSHOT_ROWS {
        if row % 5 == 0 {
            table
                .mark_deleted(sys.mem_mut(), row, SNAPSHOT_DELETE_TS)
                .unwrap();
        }
    }
    let read_columns = [1usize, 2];
    let reads: Vec<TxnOp> = (0..SNAPSHOT_READS)
        .map(|row| TxnOp::Read {
            table: &table,
            columns: &read_columns,
            row,
        })
        .collect();
    let early = TxnSpec::new(reads.clone()).with_read_ts(SNAPSHOT_EARLY_TS);
    let late = TxnSpec::new(reads).with_read_ts(SNAPSHOT_LATE_TS);
    let workload = Workload::new(vec![QueryStream::new(vec![
        WorkloadOp::Txn { spec: &early },
        WorkloadOp::Txn { spec: &late },
    ])]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
        .expect("valid workload");

    assert!(run.txn.is_consistent());
    assert_eq!(run.txn.begun, 2);
    assert_eq!(run.txn.committed, 2);
    assert_eq!(run.txn.aborted_conflict + run.txn.aborted_shed, 0);

    let outcomes = &run.streams[0].ops;
    assert_eq!(outcomes.len(), 2);
    assert_eq!(outcomes[0].kind, OpKind::TxnCommit);
    assert_eq!(
        outcomes[0].rows, SNAPSHOT_READS,
        "under ts {SNAPSHOT_EARLY_TS} every row is still visible"
    );
    assert_eq!(outcomes[1].kind, OpKind::TxnCommit);
    assert_eq!(
        outcomes[1].rows,
        SNAPSHOT_READS - SNAPSHOT_READS / 5,
        "under ts {SNAPSHOT_LATE_TS} the deleted rows are invisible"
    );
    assert_eq!(
        sys.dram_stats().writes,
        0,
        "read-only transactions issue no commit stamps"
    );
}

// ---------------------------------------------------------------------------
// mixed_htap_txn — transactions beside an analytical scan
// ---------------------------------------------------------------------------

const MIXED_ROWS: u64 = 2_000;
const MIXED_HEADROOM: u64 = 8;
/// Read-modify-write transactions on core 0.
const MIXED_RMW_TXNS: u64 = 8;
/// Insert transactions (one published row each) on core 0.
const MIXED_INSERT_TXNS: u64 = 4;
/// Delete transactions (one row each) on core 0.
const MIXED_DELETE_TXNS: u64 = 2;
/// Rows the concurrent snapshot scan reports. Not the full 2 000: an MVCC
/// commit restamps an updated row's header to begin at the commit
/// timestamp (the one-version-per-slot approximation documented in
/// `relmem_core::txn`), so rows whose update committed before the scan
/// cursor reached them drop out of the pre-transaction snapshot. The
/// count is deterministic under the min-clock interleaver — pinned here
/// as data, like a golden fixture.
const MIXED_SCAN_ROWS: u64 = 1_993;
const MIXED_END_BUDGET_NS: u64 = 1_000_000;
const MIXED_DRAM_BUDGET: u64 = 6_000;

/// An HTAP mix: core 0 interleaves read-modify-write, insert and delete
/// transactions while core 1 scans one column under a pre-transaction
/// snapshot — the scan's answer count is pinned exactly (including the
/// restamp artifact, see [`MIXED_SCAN_ROWS`]), and every DRAM write is
/// accounted to a commit.
#[test]
fn mixed_htap_txn() {
    let (mut sys, table) = build(
        2,
        MIXED_ROWS,
        MIXED_ROWS + MIXED_HEADROOM,
        MvccConfig::Enabled,
        relmem_sim::MemoryModel::Occupancy,
    );
    let read_columns = [0usize, 3];
    let scan_columns = [0usize];

    let value_rows: Vec<[u64; 5]> = (0..MIXED_INSERT_TXNS)
        .map(|j| [j, j + 1, j + 2, j + 3, 0])
        .collect();
    let mut specs: Vec<TxnSpec> = Vec::new();
    for i in 0..MIXED_RMW_TXNS {
        let row = i.wrapping_mul(2654435761) % MIXED_ROWS;
        specs.push(TxnSpec::new(vec![
            TxnOp::Read {
                table: &table,
                columns: &read_columns,
                row,
            },
            TxnOp::Update {
                table: &table,
                row,
                column: 2,
                value: i,
            },
        ]));
    }
    for values in &value_rows {
        specs.push(TxnSpec::new(vec![TxnOp::Insert {
            table: &table,
            columnar: None,
            values,
        }]));
    }
    for i in 0..MIXED_DELETE_TXNS {
        specs.push(TxnSpec::new(vec![TxnOp::Delete {
            table: &table,
            row: 500 + i,
        }]));
    }
    let workload = Workload::new(vec![
        QueryStream::new(specs.iter().map(|spec| WorkloadOp::Txn { spec }).collect()),
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
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
        .expect("valid workload");

    let total_txns = MIXED_RMW_TXNS + MIXED_INSERT_TXNS + MIXED_DELETE_TXNS;
    assert!(
        run.txn.is_consistent(),
        "accounting identity: {:?}",
        run.txn
    );
    assert_eq!(run.txn.begun, total_txns);
    assert_eq!(
        run.txn.committed, total_txns,
        "a single transactional stream never conflicts: {:?}",
        run.txn
    );
    assert_eq!(run.txn.rows_inserted, MIXED_INSERT_TXNS);
    assert_eq!(
        run.streams[1].rows, MIXED_SCAN_ROWS,
        "the snapshot scan's answer is pinned (restamp artifact included)"
    );
    let dram = sys.dram_stats();
    // Every MVCC update, delete and published row stamps DRAM exactly once.
    assert_eq!(
        dram.writes,
        MIXED_RMW_TXNS + MIXED_INSERT_TXNS + MIXED_DELETE_TXNS,
        "one explicit DRAM write per committed intent"
    );
    assert!(
        run.end <= SimTime::from_nanos(MIXED_END_BUDGET_NS),
        "makespan {} exceeds the {MIXED_END_BUDGET_NS} ns budget",
        run.end
    );
    assert!(
        dram.accesses <= MIXED_DRAM_BUDGET,
        "{} DRAM accesses exceed the {MIXED_DRAM_BUDGET} budget",
        dram.accesses
    );
}

// ---------------------------------------------------------------------------
// Cycle-accurate commit write traffic
// ---------------------------------------------------------------------------

const CA_TXNS: u64 = 4;

/// Commit stamps are the only CPU-side traffic that reaches DRAM as
/// explicit writes; under the cycle-accurate model they must show up in
/// the write counter (exercising tWR/tWTR turnaround outside the DRAM
/// crate's own unit tests). One update plus one delete per transaction →
/// exactly two writes per commit.
#[test]
fn cycle_accurate_commit_write_traffic() {
    let (mut sys, table) = build(
        1,
        1_000,
        1_000,
        MvccConfig::Enabled,
        relmem_sim::MemoryModel::CycleAccurate,
    );
    assert_eq!(sys.memory_model(), relmem_sim::MemoryModel::CycleAccurate);
    let specs: Vec<TxnSpec> = (0..CA_TXNS)
        .map(|i| {
            TxnSpec::new(vec![
                TxnOp::Update {
                    table: &table,
                    row: i * 7,
                    column: 0,
                    value: i,
                },
                TxnOp::Delete {
                    table: &table,
                    row: 100 + i,
                },
            ])
        })
        .collect();
    let workload = Workload::new(vec![QueryStream::new(
        specs.iter().map(|spec| WorkloadOp::Txn { spec }).collect(),
    )]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
        .expect("valid workload");
    assert_eq!(run.txn.committed, CA_TXNS);
    let dram = sys.dram_stats();
    assert_eq!(
        dram.writes,
        2 * CA_TXNS,
        "one explicit DRAM write per update stamp and per delete stamp"
    );
    assert!(
        dram.writes > 0,
        "commit stamps must reach the cycle-accurate controller as writes"
    );
}
