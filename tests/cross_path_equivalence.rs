//! Cross-crate integration: the hardware projection (RME packing) must be
//! byte-for-byte equivalent to the software projection, for arbitrary
//! schemas and column groups, and every benchmark query must produce
//! identical results on every access path.

use proptest::prelude::*;
use relational_memory::core::system::{RowEffect, ScanSource};
use relational_memory::prelude::*;
use relational_memory::storage::ColumnDef;
use relmem_sim::SimTime;

/// Builds a random (but valid) schema from proptest-chosen column widths.
fn schema_from_widths(widths: &[usize]) -> Schema {
    let defs: Vec<ColumnDef> = widths
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let ty = if w <= 8 {
                ColumnType::UInt(w)
            } else {
                ColumnType::Bytes(w)
            };
            ColumnDef::new(format!("c{i}"), ty)
        })
        .collect();
    Schema::new(defs).expect("generated schema is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random schemas, row counts and column groups, scanning through an
    /// ephemeral variable yields exactly the same values as reading the
    /// fields straight from the row table.
    #[test]
    fn rme_projection_equals_software_projection(
        widths in proptest::collection::vec(1usize..=16, 2..=8),
        rows in 1u64..400,
        seed in 0u64..1_000,
        pick in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let columns: Vec<usize> = (0..widths.len()).filter(|&i| pick[i]).collect();
        prop_assume!(!columns.is_empty());

        let mut system = System::with_revision(HwRevision::Mlp, 32 << 20);
        let schema = schema_from_widths(&widths);
        let mut table = system.create_table(schema, rows, MvccConfig::Disabled).unwrap();
        DataGen::new(seed).fill_table(system.mem_mut(), &mut table, rows).unwrap();

        // Software reference: read the fields directly.
        let mut expected: Vec<Vec<u64>> = Vec::new();
        for row in 0..rows {
            expected.push(
                columns
                    .iter()
                    .map(|&c| table.read_field(system.mem(), row, c).unwrap().as_u64()
                        & width_mask(widths[c]))
                    .collect(),
            );
        }

        // Hardware path: ephemeral variable + measured scan.
        let var = system
            .register_ephemeral(&table, ColumnGroup::new(columns.clone()).unwrap(), None)
            .unwrap();
        system.begin_measurement(AccessPath::RmeCold);
        let mut actual: Vec<Vec<u64>> = Vec::new();
        let src = ScanSource::Ephemeral { var: &var };
        system.scan(&src, SimTime::ZERO, |_, values| {
            actual.push(values.to_vec());
            RowEffect::default()
        });
        prop_assert_eq!(actual, expected);
    }
}

/// Values wider than 8 bytes are compared through their low 8 bytes (the
/// numeric view used by the query engine).
fn width_mask(width: usize) -> u64 {
    if width >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * width)) - 1
    }
}

// ---------------------------------------------------------------------------
// Optimized scan ≡ reference stepping mode
// ---------------------------------------------------------------------------

mod scan_equivalence {
    use super::*;
    use relational_memory::cache::HierarchyStats;
    use relational_memory::core::system::RowEffect;
    use relational_memory::core::workload::{QueryStream, Workload, WorkloadOp};
    use relational_memory::dram::DramStats;
    use relational_memory::storage::MvccConfig;

    /// Everything observable about one measured scan.
    #[derive(Debug, Clone, PartialEq)]
    struct ScanRecord {
        end: SimTime,
        cpu: SimTime,
        rows: u64,
        values: Vec<Vec<u64>>,
        cache: HierarchyStats,
        dram: DramStats,
        rme: relational_memory::rme::RmeStats,
    }

    /// Which source/path combination a case exercises.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        Rows,
        RowsMvccSnapshot,
        Columnar,
        EphemeralCold,
        EphemeralHot,
        EphemeralMvccSnapshot,
    }

    const ALL_KINDS: [Kind; 6] = [
        Kind::Rows,
        Kind::RowsMvccSnapshot,
        Kind::Columnar,
        Kind::EphemeralCold,
        Kind::EphemeralHot,
        Kind::EphemeralMvccSnapshot,
    ];

    /// Which scan engine a case runs through.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Engine {
        /// `System::scan`: line plans, the cache fast path and the
        /// periodic fast-forward.
        Optimized,
        /// `System::scan` in the reference stepping mode
        /// (`System::set_reference_stepping`): every field is its own
        /// access through the full hierarchy walk, and nothing is skipped.
        Reference,
        /// `System::run_workload` with a single one-scan stream on a
        /// single core: the scan is one op among a stream's, started by
        /// the workload scheduler's op dispatch and then run to its end by
        /// the lone lane, as `System::scan` runs.
        WorkloadOneCore,
    }

    /// Builds a system + table deterministically and runs one scan through
    /// the chosen engine. All calls construct an identical world, so every
    /// divergence is attributable to the scan implementation.
    fn run_case(
        kind: Kind,
        engine: Engine,
        seed: u64,
        widths: &[usize],
        rows: u64,
        columns: &[usize],
    ) -> ScanRecord {
        let mvcc = matches!(kind, Kind::RowsMvccSnapshot | Kind::EphemeralMvccSnapshot);
        let mut sys = System::with_revision(HwRevision::Mlp, 32 << 20);
        let schema = schema_from_widths(widths);
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
            // Deterministically delete about a third of the rows at ts 5.
            for row in 0..rows {
                if row.wrapping_mul(2654435761) % 3 == 0 {
                    table.mark_deleted(sys.mem_mut(), row, 5).unwrap();
                }
            }
        }
        let snapshot = mvcc.then(|| Snapshot::at(7));
        let scratch = sys.mem_mut().alloc(64 * 64, 64);

        let columnar;
        let var;
        let (source, path) = match kind {
            Kind::Rows | Kind::RowsMvccSnapshot => (
                ScanSource::Rows {
                    table: &table,
                    columns,
                    snapshot,
                },
                AccessPath::DirectRowWise,
            ),
            Kind::Columnar => {
                columnar = sys.materialize_columnar(&table).unwrap();
                (
                    ScanSource::Columnar {
                        table: &columnar,
                        columns,
                    },
                    AccessPath::DirectColumnar,
                )
            }
            Kind::EphemeralCold | Kind::EphemeralHot | Kind::EphemeralMvccSnapshot => {
                let path = if matches!(kind, Kind::EphemeralHot) {
                    AccessPath::RmeHot
                } else {
                    AccessPath::RmeCold
                };
                var = sys
                    .register_ephemeral(
                        &table,
                        ColumnGroup::new(columns.to_vec()).unwrap(),
                        snapshot,
                    )
                    .unwrap();
                (ScanSource::Ephemeral { var: &var }, path)
            }
        };

        sys.set_reference_stepping(engine == Engine::Reference);
        sys.begin_measurement(path);
        let mut values: Vec<Vec<u64>> = Vec::new();
        // Exercise the closure-effect paths: extra CPU on some rows and
        // an extra memory touch (a hash-table-bucket-like access) on
        // every third row.
        let effect_of = |row: u64| RowEffect {
            cpu: SimTime::from_nanos(row % 5),
            touch: row
                .is_multiple_of(3)
                .then(|| (scratch + (row % 64) * 64, 8)),
        };
        let per_row = |row: u64, vals: &[u64]| {
            values.push(vals.to_vec());
            effect_of(row)
        };
        let (end, cpu, rows_scanned) = match engine {
            Engine::Optimized | Engine::Reference => sys.scan(&source, SimTime::ZERO, per_row),
            Engine::WorkloadOneCore => {
                let workload =
                    Workload::new(vec![QueryStream::new(vec![WorkloadOp::olap(source)])]);
                let run = sys
                    .run_workload(&workload, SimTime::ZERO, |core, op, row, vals: &[u64]| {
                        assert_eq!(core, 0, "one stream runs on core 0");
                        assert_eq!(op, 0, "the stream holds a single op");
                        values.push(vals.to_vec());
                        effect_of(row)
                    })
                    .expect("valid workload");
                (run.end, run.cpu, run.rows)
            }
        };
        let m = sys.finish_measurement(end, cpu, path);
        ScanRecord {
            end,
            cpu,
            rows: rows_scanned,
            values,
            cache: m.cache,
            dram: m.dram,
            rme: m.rme,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The optimized scan paths — line plans stepping whole-line runs
        /// of fields through one hierarchy walk, the cache's line-resident
        /// fast path and the periodic fast-forward — must be bit-identical
        /// to the reference stepping mode, which steps every field through
        /// the full hierarchy walk: same completion time, CPU time, row
        /// count, values and every cache/DRAM/RME counter, for every source
        /// kind, with and without MVCC snapshot filtering, through
        /// `System::scan` and the workload scheduler.
        #[test]
        fn batched_stepping_is_bit_identical_to_per_field(
            widths in proptest::collection::vec(1usize..=12, 2..=6),
            rows in 1u64..250,
            seed in 0u64..1_000,
            pick in proptest::collection::vec(any::<bool>(), 6),
        ) {
            let columns: Vec<usize> = (0..widths.len()).filter(|&i| pick[i]).collect();
            prop_assume!(!columns.is_empty());
            for kind in ALL_KINDS {
                let reference = run_case(kind, Engine::Reference, seed, &widths, rows, &columns);
                for engine in [Engine::Optimized, Engine::WorkloadOneCore] {
                    let optimized = run_case(kind, engine, seed, &widths, rows, &columns);
                    prop_assert_eq!(
                        &optimized,
                        &reference,
                        "diverged for {:?} via {:?}",
                        kind,
                        engine
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Open-loop traffic ≡ closed-loop stream on the data path
// ---------------------------------------------------------------------------

mod open_loop_equivalence {
    use super::*;
    use relational_memory::cache::HierarchyStats;
    use relational_memory::core::system::RowEffect;
    use relational_memory::core::workload::{QueryStream, Workload, WorkloadOp};
    use relational_memory::core::{AdmissionConfig, OpenLoopOp, OpenLoopStream, OpenLoopWorkload};
    use relational_memory::dram::DramStats;
    use relational_memory::storage::MvccConfig;

    /// Everything the data path produces for one op sequence: the observer
    /// trace (op label, row, projected values) plus every hardware counter.
    /// Deliberately excludes wall-clock (`end`) — open-loop arrival gaps
    /// shift the timeline — but includes charged CPU, which must match.
    #[derive(Debug, Clone, PartialEq)]
    struct PathRecord {
        cpu: SimTime,
        rows: u64,
        trace: Vec<(usize, u64, Vec<u64>)>,
        cache: HierarchyStats,
        dram: DramStats,
        rme: relational_memory::rme::RmeStats,
    }

    /// A deterministic mixed op sequence: scans interleaved with hashed
    /// point lookups (and updates when a UInt column exists).
    fn build_ops<'a>(
        table: &'a RowTable,
        columns: &'a [usize],
        update_col: Option<usize>,
        rows: u64,
        n: u64,
    ) -> Vec<WorkloadOp<'a>> {
        (0..n)
            .map(|i| {
                let row = i.wrapping_mul(2654435761) % rows;
                match (i % 4, update_col) {
                    (0, _) => WorkloadOp::olap(ScanSource::Rows {
                        table,
                        columns,
                        snapshot: None,
                    }),
                    (3, Some(column)) => WorkloadOp::PointUpdate {
                        table,
                        row,
                        column,
                        value: i,
                    },
                    _ => WorkloadOp::PointLookup {
                        table,
                        columns,
                        row,
                    },
                }
            })
            .collect()
    }

    /// Builds an identical world per call and runs the op sequence either
    /// closed-loop (one stream on one core) or open-loop (one low-rate
    /// arrival stream on one core, ample queue, no shedding policy).
    fn run_path(
        open: bool,
        seed: u64,
        widths: &[usize],
        rows: u64,
        columns: &[usize],
        n_ops: u64,
    ) -> PathRecord {
        let mut sys = System::with_revision(HwRevision::Mlp, 32 << 20);
        let schema = schema_from_widths(widths);
        let mut table = sys
            .create_table(schema, rows, MvccConfig::Disabled)
            .unwrap();
        DataGen::new(seed)
            .fill_table(sys.mem_mut(), &mut table, rows)
            .unwrap();
        let update_col = widths.iter().position(|&w| w <= 8);
        let ops = build_ops(&table, columns, update_col, rows, n_ops);

        sys.begin_measurement(AccessPath::DirectRowWise);
        let mut trace: Vec<(usize, u64, Vec<u64>)> = Vec::new();
        let (end, cpu, rows_done) = if open {
            let template: Vec<OpenLoopOp> = ops.into_iter().map(OpenLoopOp::new).collect();
            // One arrival per template op, injected in order at a rate slow
            // enough that the queue sees light (but occasionally nonzero)
            // backlog. The admission policy is inert: ample capacity, no
            // deadline, no timeout, no degradation.
            let workload =
                OpenLoopWorkload::new(vec![OpenLoopStream::new(template, 50_000.0, n_ops)]);
            let cfg = AdmissionConfig {
                seed: seed ^ 0xBEEF,
                queue_capacity: 4096,
                ..AdmissionConfig::default()
            };
            let run = sys
                .run_open_loop(&workload, &cfg, SimTime::ZERO, |core, op, row, vals| {
                    assert_eq!(core, 0);
                    trace.push((op, row, vals.to_vec()));
                    RowEffect::default()
                })
                .expect("valid open-loop workload");
            let o = &run.overload;
            assert_eq!(o.arrivals, n_ops);
            assert_eq!(o.completed, n_ops, "the inert policy admits everything");
            assert_eq!(o.shed() + o.timed_out + o.retries, 0);
            // FIFO admission at one arrival per template op preserves the
            // closed-loop op order exactly.
            for (i, out) in run.streams[0].outcomes.iter().enumerate() {
                assert_eq!(out.template, i);
                assert_eq!(out.attempt, 0);
                assert!(!out.degraded);
            }
            (run.end, run.cpu, run.rows)
        } else {
            let workload = Workload::new(vec![QueryStream::new(ops)]);
            let run = sys
                .run_workload(&workload, SimTime::ZERO, |core, op, row, vals| {
                    assert_eq!(core, 0);
                    trace.push((op, row, vals.to_vec()));
                    RowEffect::default()
                })
                .expect("valid workload");
            (run.end, run.cpu, run.rows)
        };
        let m = sys.finish_measurement(end, cpu, AccessPath::DirectRowWise);
        PathRecord {
            cpu,
            rows: rows_done,
            trace,
            cache: m.cache,
            dram: m.dram,
            rme: m.rme,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// A low-rate open-loop run on one core must execute the exact
        /// same op sequence as the equivalent closed-loop stream, with an
        /// identical observer trace, identical charged CPU and identical
        /// cache/DRAM/RME counters — the admission machinery only delays
        /// *when* ops run, never *what* the data path does. (On one core
        /// with the occupancy DRAM model every data-path counter depends
        /// only on the address sequence, so arrival gaps cannot leak in.)
        #[test]
        fn low_rate_open_loop_is_counter_identical_to_closed_loop(
            widths in proptest::collection::vec(1usize..=12, 2..=6),
            rows in 1u64..200,
            seed in 0u64..1_000,
            pick in proptest::collection::vec(any::<bool>(), 6),
        ) {
            let columns: Vec<usize> = (0..widths.len()).filter(|&i| pick[i]).collect();
            prop_assume!(!columns.is_empty());
            let closed = run_path(false, seed, &widths, rows, &columns, 12);
            let open = run_path(true, seed, &widths, rows, &columns, 12);
            prop_assert_eq!(&closed, &open);
        }
    }
}

// ---------------------------------------------------------------------------
// Transactions ≡ flat point ops on the data path
// ---------------------------------------------------------------------------

mod txn_equivalence {
    use super::*;
    use relational_memory::cache::HierarchyStats;
    use relational_memory::core::system::RowEffect;
    use relational_memory::core::workload::{QueryStream, Workload, WorkloadOp};
    use relational_memory::core::{TxnOp, TxnSpec};
    use relational_memory::dram::DramStats;
    use relational_memory::storage::MvccConfig;
    use relmem_sim::TxnStats;

    /// Everything the data path produces for one run. The observer trace
    /// drops the op label (one transaction is one op; its flat expansion is
    /// many) but keeps row and projected values, and — unlike the open-loop
    /// record — *includes* `end`: on one core the transaction scheduler
    /// adds no time of its own, so even the wall clock must match.
    #[derive(Debug, Clone, PartialEq)]
    struct TxnRecord {
        end: SimTime,
        cpu: SimTime,
        rows: u64,
        trace: Vec<(u64, Vec<u64>)>,
        cache: HierarchyStats,
        dram: DramStats,
        rme: relational_memory::rme::RmeStats,
    }

    /// One generated transaction: `(row, column, value)` updates plus
    /// `(row)` reads, derived deterministically from the proptest seed.
    /// Rows are distinct *across* transactions (conflict-free by
    /// construction — each transaction owns a disjoint row stripe).
    struct GenTxn {
        reads: Vec<u64>,
        updates: Vec<(u64, usize, u64)>,
    }

    fn gen_txns(
        n_txns: u64,
        ops_per_txn: u64,
        rows: u64,
        update_col: usize,
        seed: u64,
    ) -> Vec<GenTxn> {
        (0..n_txns)
            .map(|t| {
                // Disjoint per-transaction stripe, so no two transactions
                // ever claim the same row even if they were concurrent.
                let stripe = rows / n_txns.max(1);
                let lo = t * stripe;
                let span = stripe.max(1);
                let mut reads = Vec::new();
                let mut updates = Vec::new();
                for i in 0..ops_per_txn {
                    let row = lo + (seed ^ (t << 8) ^ i).wrapping_mul(2654435761) % span;
                    if i % 3 == 2 {
                        updates.push((row, update_col, seed + t * 100 + i));
                    } else {
                        reads.push(row);
                    }
                }
                GenTxn { reads, updates }
            })
            .collect()
    }

    /// Runs the generated transactions either as [`WorkloadOp::Txn`] ops or
    /// as their flat expansion (each transaction's reads in spec order,
    /// then its updates in spec order — the exact order the transaction
    /// layer charges them), on one core over an identically built world.
    fn run_txn_path(
        flat: bool,
        seed: u64,
        widths: &[usize],
        rows: u64,
        columns: &[usize],
        txns: &[GenTxn],
    ) -> (TxnRecord, TxnStats) {
        let mut sys = System::with_revision(HwRevision::Mlp, 32 << 20);
        let schema = schema_from_widths(widths);
        let mut table = sys
            .create_table(schema, rows, MvccConfig::Disabled)
            .unwrap();
        DataGen::new(seed)
            .fill_table(sys.mem_mut(), &mut table, rows)
            .unwrap();

        let specs: Vec<TxnSpec> = txns
            .iter()
            .map(|t| {
                let mut ops: Vec<TxnOp> = t
                    .reads
                    .iter()
                    .map(|&row| TxnOp::Read {
                        table: &table,
                        columns,
                        row,
                    })
                    .collect();
                ops.extend(t.updates.iter().map(|&(row, column, value)| TxnOp::Update {
                    table: &table,
                    row,
                    column,
                    value,
                }));
                TxnSpec::new(ops)
            })
            .collect();
        let ops: Vec<WorkloadOp> = if flat {
            txns.iter()
                .flat_map(|t| {
                    t.reads
                        .iter()
                        .map(|&row| WorkloadOp::PointLookup {
                            table: &table,
                            columns,
                            row,
                        })
                        .chain(t.updates.iter().map(|&(row, column, value)| {
                            WorkloadOp::PointUpdate {
                                table: &table,
                                row,
                                column,
                                value,
                            }
                        }))
                        .collect::<Vec<_>>()
                })
                .collect()
        } else {
            specs.iter().map(|spec| WorkloadOp::Txn { spec }).collect()
        };

        sys.begin_measurement(AccessPath::DirectRowWise);
        let mut trace: Vec<(u64, Vec<u64>)> = Vec::new();
        let workload = Workload::new(vec![QueryStream::new(ops)]);
        let run = sys
            .run_workload(&workload, SimTime::ZERO, |core, _, row, vals| {
                assert_eq!(core, 0);
                trace.push((row, vals.to_vec()));
                RowEffect::default()
            })
            .expect("valid workload");
        let m = sys.finish_measurement(run.end, run.cpu, AccessPath::DirectRowWise);
        (
            TxnRecord {
                end: run.end,
                cpu: run.cpu,
                rows: run.rows,
                trace,
                cache: m.cache,
                dram: m.dram,
                rme: m.rme,
            },
            run.txn,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// A conflict-free transactional workload on one core over a
        /// non-MVCC table must be counter-identical — observer trace,
        /// charged CPU, wall clock, cache/DRAM/RME counters — to the flat
        /// point-op sequence that executes each transaction's reads then
        /// its updates. Grouping ops into atomic units adds bookkeeping,
        /// never simulated work: begin is free, intents buffer without
        /// charge on non-MVCC tables, and commit replays the exact
        /// point-update bodies.
        #[test]
        fn conflict_free_txn_is_counter_identical_to_flat_ops(
            widths in proptest::collection::vec(1usize..=12, 2..=6),
            rows in 8u64..200,
            seed in 0u64..1_000,
            n_txns in 1u64..5,
            ops_per_txn in 1u64..8,
            pick in proptest::collection::vec(any::<bool>(), 6),
        ) {
            let columns: Vec<usize> = (0..widths.len()).filter(|&i| pick[i]).collect();
            prop_assume!(!columns.is_empty());
            let update_col = widths.iter().position(|&w| w <= 8);
            prop_assume!(update_col.is_some());
            let txns = gen_txns(n_txns, ops_per_txn, rows, update_col.unwrap(), seed);

            let (flat, flat_stats) = run_txn_path(true, seed, &widths, rows, &columns, &txns);
            let (txn, txn_stats) = run_txn_path(false, seed, &widths, rows, &columns, &txns);
            prop_assert_eq!(&txn, &flat);
            prop_assert_eq!(flat_stats, TxnStats::default(), "flat runs begin no transactions");
            prop_assert_eq!(txn_stats.begun, n_txns);
            prop_assert_eq!(txn_stats.committed, n_txns);
            prop_assert_eq!(txn_stats.aborted_conflict + txn_stats.aborted_shed, 0);
        }
    }

    /// Contended multi-core transactional runs are deterministic: the same
    /// construction replays to the same commit/abort counts *and* the same
    /// abort victims (core, op, attempt, local time), run after run.
    #[test]
    fn contended_txn_replay_is_deterministic() {
        fn run_once() -> (TxnStats, Vec<relational_memory::core::TxnAbort>, SimTime) {
            let rows: u64 = 500;
            let mut sys = System::with_config(relational_memory::core::SystemConfig {
                cores: 4,
                mem_bytes: 32 << 20,
                ..Default::default()
            });
            let schema = schema_from_widths(&[4, 4, 8]);
            let mut table = sys.create_table(schema, rows, MvccConfig::Enabled).unwrap();
            DataGen::new(7)
                .fill_table(sys.mem_mut(), &mut table, rows)
                .unwrap();
            let read_columns = [0usize, 1];
            // Every core hammers row 0 (plus a private row), with one
            // in-place retry — guaranteed first-updater-wins conflicts.
            let specs: Vec<TxnSpec> = (0..4usize)
                .flat_map(|core| (0..6u64).map(move |i| (core, i)))
                .map(|(core, i)| {
                    TxnSpec::new(vec![
                        TxnOp::Read {
                            table: &table,
                            columns: &read_columns,
                            row: 0,
                        },
                        TxnOp::Update {
                            table: &table,
                            row: 0,
                            column: 0,
                            value: i,
                        },
                        TxnOp::Update {
                            table: &table,
                            row: 1 + (core as u64) * 10 + i,
                            column: 1,
                            value: i,
                        },
                    ])
                    .with_retries(3)
                })
                .collect();
            let streams: Vec<QueryStream> = specs
                .chunks(6)
                .map(|chunk| {
                    QueryStream::new(chunk.iter().map(|spec| WorkloadOp::Txn { spec }).collect())
                })
                .collect();
            let workload = Workload::new(streams);
            sys.begin_measurement(AccessPath::DirectRowWise);
            let run = sys
                .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
                .expect("valid workload");
            assert!(run.txn.is_consistent());
            (run.txn, run.txn_aborts, run.end)
        }

        let (stats_a, aborts_a, end_a) = run_once();
        let (stats_b, aborts_b, end_b) = run_once();
        assert!(
            stats_a.aborted_conflict > 0,
            "four cores hammering one row must conflict: {stats_a:?}"
        );
        assert_eq!(stats_a, stats_b, "commit/abort counts must replay exactly");
        assert_eq!(aborts_a, aborts_b, "abort victims must replay exactly");
        assert_eq!(end_a, end_b, "the makespan must replay exactly");
    }
}

#[test]
fn all_queries_agree_across_paths_and_parameters() {
    for (rows, row_bytes, width) in [(1_500u64, 64usize, 4usize), (1_000, 128, 8)] {
        let params = BenchmarkParams {
            rows,
            inner_rows: rows,
            row_bytes,
            column_width: width,
            ..BenchmarkParams::default()
        };
        let mut bench = Benchmark::new(params);
        for query in Query::all() {
            let reference = bench.run(query, AccessPath::DirectRowWise).output;
            for path in [
                AccessPath::DirectColumnar,
                AccessPath::RmeCold,
                AccessPath::RmeHot,
            ] {
                let run = bench.run(query, path);
                assert_eq!(
                    run.output,
                    reference,
                    "{} disagreed on {} (rows={rows}, row_bytes={row_bytes}, width={width})",
                    query.label(),
                    path.label()
                );
            }
        }
    }
}

#[test]
fn hardware_revisions_agree_on_results() {
    // The revisions differ only in timing; every one must produce the same
    // answers.
    let mut outputs = Vec::new();
    for revision in HwRevision::all() {
        let params = BenchmarkParams {
            rows: 1_000,
            revision,
            ..BenchmarkParams::default()
        };
        let mut bench = Benchmark::new(params);
        outputs.push(bench.run(Query::Q3, AccessPath::RmeCold).output);
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
}

// ---------------------------------------------------------------------------
// Periodic fast-forward ≡ full stepping
// ---------------------------------------------------------------------------

mod skip_vs_step {
    use super::*;
    use relational_memory::cache::{HierarchyStats, SharedL2Stats};
    use relational_memory::dram::DramStats;
    use relational_memory::rme::RmeStats;

    /// Which per-row effects the closure returns.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Effects {
        /// The same CPU charge on every row.
        Constant,
        /// Constant except for one row in the last quarter of the table,
        /// whose period must be stepped (replaying the effects already
        /// returned) or is the last one.
        OneOff(u64),
        /// A charge that depends on the row's first value.
        Varying,
        /// An extra memory touch on every fifth row.
        Touching,
    }

    /// Which layout the case scans.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Layout {
        /// The row table, direct row-wise.
        Rows,
        /// The columnar copy of the table, direct columnar.
        Columnar,
        /// The ephemeral variable, through the RME.
        Ephemeral,
    }

    /// Which scan implementation runs the case.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Path {
        /// `System::scan`: cut into periods, fast-forwarded when periodic.
        Scan,
        /// `System::scan` in the reference stepping mode: steps every
        /// field through the full hierarchy walk.
        Reference,
    }

    /// Everything observable about one scan, plus the skip count.
    #[derive(Debug, Clone, PartialEq)]
    struct Outcome {
        end: SimTime,
        cpu: SimTime,
        rows: u64,
        values: Vec<Vec<u64>>,
        cache: HierarchyStats,
        l2: SharedL2Stats,
        dram: DramStats,
        rme: RmeStats,
        /// The projection read back through the engine after the scan.
        packed: Vec<u8>,
        resident_frame: Option<u64>,
    }

    struct Case {
        /// Column widths; the columns picked by `columns` are scanned.
        widths: Vec<usize>,
        columns: Vec<usize>,
        revision: HwRevision,
        /// Whole Reorganization-Buffer frames (rows and ephemeral) or
        /// columnar periods of the first picked column's width.
        frames: u64,
        extra_rows: u64,
        layout: Layout,
        mvcc: bool,
        effects: Effects,
        traced: bool,
        /// Simulated cores: with two, the shared L2's bank model is
        /// engaged under the scan on core 0.
        cores: usize,
        seed: u64,
    }

    /// A small platform: 4 KB L1, 16 KB L2 (16 sets each, the fewest that
    /// keep ephemeral tags in range), 4 KB Data SPM and a 4-bank DRAM with
    /// 256 B rows, so every translation period is a few KB.
    fn platform() -> PlatformConfig {
        let mut cfg = PlatformConfig::tiny_for_tests();
        cfg.l1.size_bytes = 4 * 1024;
        cfg.l2.size_bytes = 16 * 1024;
        cfg.dram.banks = 4;
        cfg.dram.row_bytes = 256;
        cfg
    }

    /// The largest translation period of the small platform's models.
    const SPAN: u64 = 4 * 256 * 4;

    /// Periods within which every periodic case of the small platform has
    /// reached its steady state (the slowest transient is the order in
    /// which the Fetch Units' settled reader slots are picked, which takes
    /// up to about seven frames to repeat), confirmed it and skipped.
    const SETTLED_PERIODS: u64 = 10;

    /// Runs `case` through `path`; returns the outcome, the fast-forwarded
    /// period count and whether the case is periodic with enough periods
    /// for the fast-forward to engage (see [`periodic`]).
    fn run(case: &Case, path: Path) -> (Outcome, u64, Option<bool>) {
        let mut sys = System::with_config(SystemConfig {
            platform: platform(),
            revision: case.revision,
            mem_bytes: 16 << 20,
            cores: case.cores,
            ..SystemConfig::default()
        });
        let schema = schema_from_widths(&case.widths);
        let mvcc = if case.mvcc {
            MvccConfig::Enabled
        } else {
            MvccConfig::Disabled
        };
        // Size the table from the frame geometry: a throwaway registration
        // tells how many rows one frame holds.
        let probe = sys.create_table(schema.clone(), 1, mvcc).unwrap();
        let group = ColumnGroup::new(case.columns.clone()).unwrap();
        sys.register_ephemeral(&probe, group.clone(), None).unwrap();
        let frame_rows = sys.engine().rows_per_frame().unwrap();
        let unit = match case.layout {
            Layout::Columnar => direct_period(case.widths[case.columns[0]] as u64),
            Layout::Rows | Layout::Ephemeral => frame_rows,
        };
        let rows = case.frames * unit + case.extra_rows;
        let mut table = sys.create_table(schema, rows, mvcc).unwrap();
        DataGen::new(case.seed)
            .fill_table(sys.mem_mut(), &mut table, rows)
            .unwrap();
        if case.mvcc {
            for row in (0..rows).step_by(7) {
                table.mark_deleted(sys.mem_mut(), row, 5).unwrap();
            }
        }
        let snapshot = case.mvcc.then(|| Snapshot::at(9));
        let scratch = sys.mem_mut().alloc(4096, 64);
        let var = sys.register_ephemeral(&table, group, snapshot).unwrap();
        let expect_skip = periodic(
            case,
            rows,
            frame_rows,
            var.packed_row_bytes() as u64,
            table.physical_row_bytes() as u64,
        );
        let columnar = sys.materialize_columnar(&table).unwrap();
        let (source, access) = match case.layout {
            Layout::Rows => (
                ScanSource::Rows {
                    table: &table,
                    columns: &case.columns,
                    snapshot,
                },
                AccessPath::DirectRowWise,
            ),
            Layout::Columnar => (
                ScanSource::Columnar {
                    table: &columnar,
                    columns: &case.columns,
                },
                AccessPath::DirectColumnar,
            ),
            Layout::Ephemeral => (ScanSource::Ephemeral { var: &var }, AccessPath::RmeCold),
        };
        sys.set_tracing(case.traced);
        sys.set_reference_stepping(path == Path::Reference);
        sys.begin_measurement(access);
        let mut values: Vec<Vec<u64>> = Vec::new();
        let effects = match case.effects {
            Effects::OneOff(k) => Effects::OneOff(rows - 1 - k % (rows / 4 + 1)),
            other => other,
        };
        let mut per_row = |row: u64, vals: &[u64]| {
            values.push(vals.to_vec());
            let ns = match effects {
                Effects::Constant | Effects::Touching => 3,
                Effects::OneOff(r) => 3 + u64::from(row == r),
                Effects::Varying => 1 + vals[0] % 3,
            };
            RowEffect {
                cpu: SimTime::from_nanos(ns),
                touch: (effects == Effects::Touching && row.is_multiple_of(5))
                    .then(|| (scratch + (row % 64) * 64, 8)),
            }
        };
        let (end, cpu, rows) = sys.scan(&source, SimTime::ZERO, &mut per_row);
        let m = sys.finish_measurement(end, cpu, access);
        let packed = sys.engine().read_packed(
            var.base(),
            sys.engine().packed_total_bytes() as usize,
            sys.mem(),
        );
        let resident_frame = sys.engine().resident_frame();
        let skipped = sys.fast_forwarded_periods();
        let outcome = Outcome {
            end,
            cpu,
            rows,
            values,
            cache: m.cache,
            l2: *sys.l2_stats(),
            dram: m.dram,
            rme: m.rme,
            packed,
            resident_frame,
        };
        (outcome, skipped, expect_skip)
    }

    /// Rows in one period of a direct scan advancing `stride` bytes a row:
    /// the fewest whose byte span is a multiple of [`SPAN`].
    fn direct_period(stride: u64) -> u64 {
        let (mut a, mut b) = (SPAN, stride);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        SPAN / a
    }

    /// Whether the fast-forward must engage: `Some(false)` when the case
    /// cannot skip (traced, MVCC visibility, data-dependent or touching
    /// effects, or a period that is no translation of every model),
    /// `Some(true)` when it is periodic with at least [`SETTLED_PERIODS`]
    /// periods, `None` in between. A direct scan's period is derived to be
    /// a translation: rows of any stride, and a columnar projection whose
    /// picked columns share one width (one shift then moves every column
    /// array); an ephemeral frame must move the source by a multiple of
    /// the DRAM span and the packed data by a multiple of the cache set
    /// spans. MVCC only filters the row and ephemeral scans.
    fn periodic(
        case: &Case,
        rows: u64,
        frame_rows: u64,
        packed_row: u64,
        row_bytes: u64,
    ) -> Option<bool> {
        let (invariant, period) = match case.layout {
            Layout::Ephemeral => {
                let invariant = (frame_rows * row_bytes).is_multiple_of(SPAN)
                    && (frame_rows * packed_row).is_multiple_of(1024);
                (invariant, frame_rows)
            }
            Layout::Rows => (true, direct_period(row_bytes)),
            Layout::Columnar => {
                let width = case.widths[case.columns[0]];
                let same = case.columns.iter().all(|&c| case.widths[c] == width);
                (same, direct_period(width as u64))
            }
        };
        let periods = rows.div_ceil(period);
        if case.traced
            || (case.mvcc && case.layout != Layout::Columnar)
            || !matches!(case.effects, Effects::Constant | Effects::OneOff(_))
            || !invariant
            || periods < 4
        {
            Some(false)
        } else {
            (periods >= SETTLED_PERIODS).then_some(true)
        }
    }

    /// Builds a [`Case`] from raw proptest draws. Unless `aligned` is 9,
    /// the geometry is replaced by a power-of-two packed row (2, 4 or 8
    /// bytes wide, 1, 2 or 4 columns) so that frames move both address
    /// spaces by whole translation periods; `pad` appends an unscanned
    /// filler column that makes the row one cache line (a single line
    /// plan; other strides step several).
    #[allow(clippy::too_many_arguments)]
    fn case(
        widths: Vec<usize>,
        pad: bool,
        pick: &[bool],
        aligned: usize,
        revision: usize,
        frames: u64,
        extra_rows: u64,
        layout: u8,
        mvcc: bool,
        effects: u8,
        one_off: u64,
        traced: bool,
        cores: usize,
        seed: u64,
    ) -> Option<Case> {
        let (mut widths, mut pad) = (widths, pad);
        let mut columns: Vec<usize> = (0..widths.len()).filter(|&i| pick[i]).collect();
        if aligned < 9 {
            let (width, picked) = ([2, 4, 8][aligned % 3], [1, 2, 4][aligned / 3]);
            (widths, columns, pad) = (vec![width; 4], (0..picked).collect(), true);
        }
        if columns.is_empty() {
            return None;
        }
        if pad {
            widths.push(64 - widths.iter().sum::<usize>());
        }
        Some(Case {
            widths,
            columns,
            revision: HwRevision::all()[revision],
            frames,
            extra_rows,
            layout: match layout {
                0 => Layout::Rows,
                1 => Layout::Columnar,
                _ => Layout::Ephemeral,
            },
            mvcc,
            effects: match effects {
                0 => Effects::Constant,
                1 => Effects::OneOff(one_off),
                2 => Effects::Varying,
                _ => Effects::Touching,
            },
            traced,
            cores,
            seed,
        })
    }

    /// Runs `case` through `System::scan` and the same scan in the
    /// reference stepping mode; asserts they agree and the skip count
    /// matches [`periodic`].
    fn check(case: &Case) -> Result<(), proptest::TestCaseError> {
        let (scan, skipped, expect_skip) = run(case, Path::Scan);
        let (reference, reference_skips, _) = run(case, Path::Reference);
        prop_assert_eq!(
            reference_skips,
            0,
            "the reference stepping mode steps every row"
        );
        prop_assert_eq!(&scan, &reference);
        match expect_skip {
            Some(true) => prop_assert!(skipped > 0, "a periodic scan must fast-forward"),
            Some(false) => prop_assert_eq!(skipped, 0, "only periodic untraced scans skip"),
            None => {}
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// `System::scan` — fast-forwarding the periodic steady state of
        /// row, columnar and ephemeral scans — produces the same end time,
        /// CPU time, row count, values, cache/DRAM/RME counters and buffer
        /// contents as itself in the reference stepping mode, which steps
        /// every row, for random geometries, all three layouts and
        /// revisions, 1–8 frames or columnar periods, MVCC on and off,
        /// constant, one-off, varying and touching effects, tracing on and
        /// off (traced scans step every row), and one or two cores. The
        /// fast-forward
        /// engages (a non-zero skip count) exactly in the periodic,
        /// untraced cases with enough periods, and never otherwise.
        #[test]
        fn skip_is_bit_identical_to_stepping(
            widths in proptest::collection::vec(1usize..=12, 2..=5),
            pad in any::<bool>(),
            pick in proptest::collection::vec(any::<bool>(), 5),
            aligned in 0usize..=9,
            revision in 0usize..3,
            frames in 1u64..=8,
            extra_rows in 0u64..40,
            layout in 0u8..3,
            mvcc in any::<bool>(),
            effects in 0u8..4,
            one_off in 0u64..4_000,
            traced in any::<bool>(),
            cores in 1usize..=2,
            seed in 0u64..1_000,
        ) {
            let case = case(widths, pad, &pick, aligned, revision, frames, extra_rows,
                layout, mvcc, effects, one_off, traced, cores, seed);
            prop_assume!(case.is_some());
            check(&case.unwrap())?;
        }

        /// The same agreement for periodic ephemeral scans long enough for
        /// the small platform to settle (10–16 frames, untraced, no MVCC,
        /// constant or one-off effects): the fast-forward must engage.
        #[test]
        fn settled_ephemeral_scans_fast_forward(
            aligned in 0usize..9,
            revision in 0usize..3,
            frames in SETTLED_PERIODS..=16,
            extra_rows in 0u64..40,
            effects in 0u8..2,
            one_off in 0u64..4_000,
            seed in 0u64..1_000,
        ) {
            let case = case(vec![4; 4], true, &[true; 4], aligned, revision, frames, extra_rows,
                2, false, effects, one_off, false, 1, seed);
            check(&case.expect("aligned cases pick columns"))?;
        }

        /// The same for direct scans long enough to settle: rows of four
        /// 2-, 4- or 8-byte columns (8–32 B, so several line plans) and
        /// columnar projections of 1, 2 or 4 such equal-width columns.
        #[test]
        fn settled_direct_scans_fast_forward(
            aligned in 0usize..9,
            columnar in any::<bool>(),
            revision in 0usize..3,
            frames in SETTLED_PERIODS..=16,
            extra_rows in 0u64..40,
            effects in 0u8..2,
            one_off in 0u64..4_000,
            seed in 0u64..1_000,
        ) {
            let (width, picked) = ([2, 4, 8][aligned % 3], [1, 2, 4][aligned / 3]);
            check(&Case {
                widths: vec![width; 4],
                columns: (0..picked).collect(),
                revision: HwRevision::all()[revision],
                frames,
                extra_rows,
                layout: if columnar { Layout::Columnar } else { Layout::Rows },
                mvcc: false,
                effects: if effects == 0 { Effects::Constant } else { Effects::OneOff(one_off) },
                traced: false,
                cores: 1,
                seed,
            })?;
        }
    }

    /// A columnar projection of mixed widths has no common period and
    /// steps every row; the same table projected on equal widths skips.
    #[test]
    fn mixed_width_columnar_scans_step() {
        let case = |columns: Vec<usize>| Case {
            widths: vec![4, 8, 4, 8],
            columns,
            revision: HwRevision::Mlp,
            frames: SETTLED_PERIODS + 2,
            extra_rows: 5,
            layout: Layout::Columnar,
            mvcc: false,
            effects: Effects::Constant,
            traced: false,
            cores: 1,
            seed: 7,
        };
        for (columns, periodic) in [(vec![0, 1], false), (vec![0, 2], true)] {
            let case = case(columns);
            let (_, skipped, expect) = run(&case, Path::Scan);
            assert_eq!((skipped > 0, expect), (periodic, Some(periodic)));
            check(&case).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Columnar line-block replay ≡ per-field walk
// ---------------------------------------------------------------------------

mod line_blocks {
    use super::*;
    use relational_memory::cache::{HierarchyStats, SharedL2Stats};
    use relational_memory::core::workload::{QueryStream, Workload, WorkloadOp};
    use relational_memory::dram::DramStats;
    use relational_memory::rme::RmeStats;

    /// Which entry point runs the columnar scan.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Entry {
        /// `System::scan`.
        Scan,
        /// `System::run_workload`, one stream on one core.
        OneCore,
        /// `System::run_workload` on two cores, beside a shorter row scan
        /// on core 1: runs of rows up to the rival's clock while the rival
        /// lives (one row per pick in the reference stepping mode), then
        /// the rest of the columnar scan in one step.
        TwoCores,
    }

    /// Everything observable about one run.
    #[derive(Debug, Clone, PartialEq)]
    struct Outcome {
        end: SimTime,
        cpu: SimTime,
        rows: u64,
        /// (core, row, values) per row, in observation order.
        values: Vec<(usize, u64, Vec<u64>)>,
        cache: HierarchyStats,
        per_core: Vec<HierarchyStats>,
        l2: SharedL2Stats,
        dram: DramStats,
        rme: RmeStats,
    }

    /// A 4 KB 4-way L1 (16 sets, a 1 KB set span) and a 16 KB L2.
    fn platform() -> PlatformConfig {
        let mut cfg = PlatformConfig::tiny_for_tests();
        cfg.l1.size_bytes = 4 * 1024;
        cfg.l2.size_bytes = 16 * 1024;
        cfg
    }

    /// Which per-row effects the closure returns.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Effects {
        /// 3 ns on every row.
        Constant,
        /// 1–3 ns by the row's first value.
        Varying,
        /// 3 ns, and a touch of a scratch line on every fifth row (which
        /// may evict or demote a line the scan reads).
        Touching,
    }

    /// Scans `columns` of a `rows`-row columnar table through `entry`,
    /// optimized or in the reference stepping mode.
    fn run(
        widths: &[usize],
        columns: &[usize],
        rows: u64,
        effects: Effects,
        entry: Entry,
        reference: bool,
        seed: u64,
    ) -> Outcome {
        let cores = if entry == Entry::TwoCores { 2 } else { 1 };
        let mut sys = System::with_config(SystemConfig {
            platform: platform(),
            revision: HwRevision::Mlp,
            mem_bytes: 16 << 20,
            cores,
            ..SystemConfig::default()
        });
        let schema = schema_from_widths(widths);
        let mut table = sys
            .create_table(schema.clone(), rows, MvccConfig::Disabled)
            .unwrap();
        DataGen::new(seed)
            .fill_table(sys.mem_mut(), &mut table, rows)
            .unwrap();
        let rival_rows = rows / 3;
        let mut rival = sys
            .create_table(schema, rival_rows, MvccConfig::Disabled)
            .unwrap();
        DataGen::new(seed + 1)
            .fill_table(sys.mem_mut(), &mut rival, rival_rows)
            .unwrap();
        let columnar = sys.materialize_columnar(&table).unwrap();
        let scratch = sys.mem_mut().alloc(4096, 64);
        let source = ScanSource::Columnar {
            table: &columnar,
            columns,
        };
        sys.set_reference_stepping(reference);
        sys.begin_measurement(AccessPath::DirectColumnar);
        let mut values = Vec::new();
        let effect = |row: u64, vals: &[u64]| RowEffect {
            cpu: SimTime::from_nanos(if effects == Effects::Varying {
                1 + vals[0] % 3
            } else {
                3
            }),
            touch: (effects == Effects::Touching && row.is_multiple_of(5))
                .then(|| (scratch + (row % 64) * 64, 8)),
        };
        let (end, cpu, rows) = match entry {
            Entry::Scan => sys.scan(&source, SimTime::ZERO, |row, vals| {
                values.push((0, row, vals.to_vec()));
                effect(row, vals)
            }),
            Entry::OneCore | Entry::TwoCores => {
                let mut streams = vec![QueryStream::new(vec![WorkloadOp::olap(source)])];
                if entry == Entry::TwoCores {
                    streams.push(QueryStream::new(vec![WorkloadOp::olap(ScanSource::Rows {
                        table: &rival,
                        columns: &[0],
                        snapshot: None,
                    })]));
                }
                let run = sys
                    .run_workload(
                        &Workload::new(streams),
                        SimTime::ZERO,
                        |core, _, row, vals| {
                            values.push((core, row, vals.to_vec()));
                            effect(row, vals)
                        },
                    )
                    .expect("valid workload");
                (run.end, run.cpu, run.rows)
            }
        };
        let m = sys.finish_measurement(end, cpu, AccessPath::DirectColumnar);
        Outcome {
            end,
            cpu,
            rows,
            values,
            cache: m.cache,
            per_core: (0..cores).map(|c| *sys.core_stats(c)).collect(),
            l2: *sys.l2_stats(),
            dram: m.dram,
            rme: m.rme,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// A columnar scan that replays line blocks — a row whose fields
        /// each re-read the line the previous row read for that column,
        /// after a row of all L1 hits, is booked as that many L1 hits —
        /// equals the reference stepping mode's per-field walk in end
        /// time, CPU time, rows, values and every cache, L2, DRAM and RME
        /// counter. Effects that never touch memory let replay engage for
        /// whole blocks: constant and varying CPU charges; an effect that
        /// touches memory every fifth row ends the replay. 1–8 columns of
        /// 1–12 B (random, or all one width, 3 B and 12 B straddling
        /// lines), at least three blocks of rows, and tables of 1,024 rows
        /// whose column arrays all map to one L1 set (more than four
        /// columns thrash its four ways), through `System::scan`, a
        /// one-core workload and a two-core workload with a live rival.
        #[test]
        fn columnar_line_blocks_equal_per_field(
            random_widths in proptest::collection::vec(1usize..=12, 8),
            uniform in 0usize..=12,
            pick in proptest::collection::vec(any::<bool>(), 8),
            same_set in any::<bool>(),
            rows in 192u64..1_200,
            seed in 0u64..1_000,
        ) {
            let widths = if uniform == 0 { random_widths } else { vec![uniform; 8] };
            let columns: Vec<usize> = (0..8).filter(|&i| pick[i]).collect();
            prop_assume!(!columns.is_empty());
            let rows = if same_set { 1_024 } else { rows };
            for effects in [Effects::Constant, Effects::Varying, Effects::Touching] {
                for entry in [Entry::Scan, Entry::OneCore, Entry::TwoCores] {
                    let reference = run(&widths, &columns, rows, effects, entry, true, seed);
                    let optimized = run(&widths, &columns, rows, effects, entry, false, seed);
                    prop_assert_eq!(
                        &optimized,
                        &reference,
                        "diverged via {:?} with {:?} effects",
                        entry,
                        effects
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Runner-up lookahead ≡ one unit per pick, on several lanes
// ---------------------------------------------------------------------------

mod lookahead {
    use super::*;
    use relational_memory::cache::{HierarchyStats, SharedL2Stats};
    use relational_memory::core::workload::{OpKind, QueryStream, Workload, WorkloadOp};
    use relational_memory::core::{TxnAbort, TxnOp, TxnSpec};
    use relational_memory::dram::DramStats;
    use relational_memory::rme::RmeStats;
    use relational_memory::sim::{MemoryModel, OverloadStats, TxnStats};
    use relational_memory::storage::ColumnarTable;

    /// Everything observable about one multi-lane run.
    #[derive(Debug, Clone, PartialEq)]
    struct Record {
        end: SimTime,
        cpu: SimTime,
        rows: u64,
        /// (core, op or template, row, values) per observed row, in order.
        values: Vec<(usize, usize, u64, Vec<u64>)>,
        /// Per stream: (op or template, kind, arrival, start, end, rows,
        /// attempt, degraded) per finished op; closed-loop ops carry their
        /// start as arrival, attempt 0 and no degradation.
        #[allow(clippy::type_complexity)]
        outcomes: Vec<Vec<(usize, OpKind, SimTime, SimTime, SimTime, u64, u32, bool)>>,
        txn: TxnStats,
        aborts: Vec<TxnAbort>,
        overload: Option<OverloadStats>,
        per_core: Vec<HierarchyStats>,
        l2: SharedL2Stats,
        dram: DramStats,
        rme: RmeStats,
    }

    /// What one core runs, by `mix` value.
    ///
    /// * 0: a direct row scan, a snapshot, an MVCC snapshot scan, lookups;
    /// * 1: a columnar scan between point updates;
    /// * 2 and 3: an ephemeral scan of the multi-frame variable between a
    ///   lookup and an update, so two such cores give two ephemeral lanes;
    /// * 4: point lookups, updates, a delete and hot-row transactions.
    #[allow(clippy::too_many_arguments)] // the world the ops borrow
    fn stream_ops<'a>(
        mix: u64,
        core: usize,
        seed: u64,
        table: &'a RowTable,
        columnar: &'a ColumnarTable,
        var: &'a EphemeralVariable,
        columns: &'a [usize],
        txns: &'a [TxnSpec<'a>],
    ) -> Vec<WorkloadOp<'a>> {
        let rows = table.num_rows();
        let row = |i: u64| (seed ^ (core as u64) << 16 ^ i).wrapping_mul(2654435761) % rows;
        let lookup = |i| WorkloadOp::PointLookup {
            table,
            columns,
            row: row(i),
        };
        let update = |i: u64| WorkloadOp::PointUpdate {
            table,
            row: row(i),
            column: 0,
            value: i,
        };
        let rows_scan = WorkloadOp::olap(ScanSource::Rows {
            table,
            columns,
            snapshot: None,
        });
        let ephemeral = WorkloadOp::olap(ScanSource::Ephemeral { var });
        match mix {
            0 => vec![
                rows_scan,
                lookup(1),
                WorkloadOp::TakeSnapshot { ts: 7 },
                WorkloadOp::OlapScan {
                    source: ScanSource::Rows {
                        table,
                        columns,
                        snapshot: None,
                    },
                    stream_snapshot: true,
                },
                lookup(2),
            ],
            1 => vec![
                update(1),
                WorkloadOp::olap(ScanSource::Columnar {
                    table: columnar,
                    columns,
                }),
                update(2),
            ],
            2 | 3 => vec![lookup(1), ephemeral, update(2), ephemeral],
            _ => {
                let mut ops = Vec::new();
                for (i, spec) in txns.iter().enumerate() {
                    let i = i as u64;
                    ops.push(lookup(3 * i));
                    ops.push(WorkloadOp::Txn { spec });
                    ops.push(update(3 * i + 1));
                }
                ops.push(WorkloadOp::PointDelete {
                    table,
                    row: row(99),
                    ts: 9,
                });
                ops
            }
        }
    }

    /// Builds one world per call and runs `mix[i]`'s ops on core `i`,
    /// closed loop or open loop, on either DRAM model, optimized or in the
    /// reference stepping mode.
    fn run(mix: &[u64], seed: u64, rows: u64, open: bool, ca: bool, reference: bool) -> Record {
        let cores = mix.len();
        // A 4 KB L1 and a 16 KB L2 (the tiny L1's tags cannot reach the
        // ephemeral region), and a 4 KB RME frame.
        let mut platform = PlatformConfig::tiny_for_tests();
        platform.l1.size_bytes = 4 * 1024;
        platform.l2.size_bytes = 16 * 1024;
        if ca {
            platform.dram.model = MemoryModel::CycleAccurate;
        }
        let mut sys = System::with_config(SystemConfig {
            platform,
            revision: HwRevision::Mlp,
            mem_bytes: 16 << 20,
            cores,
            ..SystemConfig::default()
        });
        let mut table = sys
            .create_table(schema_from_widths(&[8, 4, 8, 4]), rows, MvccConfig::Enabled)
            .unwrap();
        DataGen::new(seed)
            .fill_table(sys.mem_mut(), &mut table, rows)
            .unwrap();
        for row in (0..rows).step_by(5) {
            table.mark_deleted(sys.mem_mut(), row, 5).unwrap();
        }
        let columnar = sys.materialize_columnar(&table).unwrap();
        // 16 B packed rows: 256 rows per 4 KB frame, so two or more frames.
        let var = sys
            .register_ephemeral(&table, ColumnGroup::new(vec![0, 2]).unwrap(), None)
            .unwrap();
        let scratch = sys.mem_mut().alloc(4096, 64);
        let columns = [0usize, 3];
        let read_columns = [1usize];
        // Hot-row transactions: every OLTP core reads and updates rows 0-3.
        let txns: Vec<TxnSpec> = (0..3u64)
            .map(|i| {
                TxnSpec::new(vec![
                    TxnOp::Read {
                        table: &table,
                        columns: &read_columns,
                        row: i % 4,
                    },
                    TxnOp::Update {
                        table: &table,
                        row: (i + seed) % 4,
                        column: 2,
                        value: seed + i,
                    },
                ])
                .with_retries(1)
            })
            .collect();
        let ops: Vec<Vec<WorkloadOp>> = mix
            .iter()
            .enumerate()
            .map(|(core, &m)| stream_ops(m, core, seed, &table, &columnar, &var, &columns, &txns))
            .collect();

        sys.set_reference_stepping(reference);
        sys.begin_measurement(AccessPath::RmeCold);
        let mut values = Vec::new();
        let mut observer = |core: usize, op: usize, row: u64, vals: &[u64]| {
            values.push((core, op, row, vals.to_vec()));
            RowEffect {
                cpu: SimTime::from_nanos(1 + vals[0] % 3),
                touch: row
                    .is_multiple_of(7)
                    .then(|| (scratch + (row % 64) * 64, 8)),
            }
        };
        let (end, cpu, rows_done, outcomes, txn, aborts, overload) = if open {
            let streams = ops
                .into_iter()
                .enumerate()
                .map(|(core, ops)| {
                    let template: Vec<OpenLoopOp> = ops
                        .into_iter()
                        .map(|op| match op {
                            // Under pressure a direct scan runs through the
                            // RME and a lookup reads one column.
                            WorkloadOp::OlapScan {
                                source: ScanSource::Rows { .. },
                                ..
                            } => OpenLoopOp::with_degraded(
                                op,
                                WorkloadOp::olap(ScanSource::Ephemeral { var: &var }),
                            ),
                            WorkloadOp::PointLookup { table, row, .. } => {
                                OpenLoopOp::with_degraded(
                                    op,
                                    WorkloadOp::PointLookup {
                                        table,
                                        columns: &read_columns,
                                        row,
                                    },
                                )
                            }
                            _ => OpenLoopOp::new(op),
                        })
                        .collect();
                    let arrivals = 2 * template.len() as u64;
                    OpenLoopStream::new(template, 2e6 * (1 + core) as f64, arrivals)
                })
                .collect();
            let cfg = AdmissionConfig {
                seed,
                queue_capacity: 3,
                delay_budget: Some(SimTime::from_micros(40)),
                timeout: Some(SimTime::from_micros(20)),
                max_retries: 1,
                retry_backoff: SimTime::from_micros(1),
                degrade: Some(DegradePolicy {
                    high_watermark: 2,
                    low_watermark: 0,
                    trigger_after: 1,
                    clear_after: 2,
                }),
            };
            let run = sys
                .run_open_loop(
                    &OpenLoopWorkload::new(streams),
                    &cfg,
                    SimTime::ZERO,
                    &mut observer,
                )
                .expect("valid open-loop workload");
            let outcomes = run
                .streams
                .iter()
                .map(|s| {
                    s.outcomes
                        .iter()
                        .map(|o| {
                            let (arrival, attempt, degraded) = (o.arrival, o.attempt, o.degraded);
                            (
                                o.template, o.kind, arrival, o.start, o.end, o.rows, attempt,
                                degraded,
                            )
                        })
                        .collect()
                })
                .collect();
            (
                run.end,
                run.cpu,
                run.rows,
                outcomes,
                run.txn,
                run.txn_aborts,
                Some(run.overload),
            )
        } else {
            let workload = Workload::new(ops.into_iter().map(QueryStream::new).collect());
            let run = sys
                .run_workload(&workload, SimTime::ZERO, &mut observer)
                .expect("valid workload");
            let outcomes = run
                .streams
                .iter()
                .map(|s| {
                    s.ops
                        .iter()
                        .map(|o| (o.op, o.kind, o.start, o.start, o.end, o.rows, 0, false))
                        .collect()
                })
                .collect();
            (
                run.end,
                run.cpu,
                run.rows,
                outcomes,
                run.txn,
                run.txn_aborts,
                None,
            )
        };
        let m = sys.finish_measurement(end, cpu, AccessPath::RmeCold);
        Record {
            end,
            cpu,
            rows: rows_done,
            values,
            outcomes,
            txn,
            aborts,
            overload,
            per_core: (0..cores).map(|c| *sys.core_stats(c)).collect(),
            l2: *sys.l2_stats(),
            dram: m.dram,
            rme: m.rme,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Runner-up lookahead — a picked lane keeps the pick, running a
        /// scan's rows in one call, while its clock stays below the
        /// runner-up's — equals the reference stepping mode, which steps
        /// every lane one unit per pick beside a live rival: the same
        /// per-stream outcomes and observed values, transaction stats and
        /// aborts, overload stats, and every core, L2, DRAM and RME counter.
        /// 2–4 cores mix direct, columnar and ephemeral scans (two
        /// ephemeral lanes over a multi-frame variable when two cores draw
        /// one), point lookups, updates and a delete, and hot-row
        /// transactions; closed loop and open loop past the point where
        /// queues shed and the run degrades; on both DRAM models.
        #[test]
        fn lookahead_equals_one_unit_per_pick(
            mix in proptest::collection::vec(0u64..5, 2..=4),
            rows in 512u64..1_200,
            seed in 0u64..1_000,
        ) {
            for open in [false, true] {
                for ca in [false, true] {
                    let reference = run(&mix, seed, rows, open, ca, true);
                    let optimized = run(&mix, seed, rows, open, ca, false);
                    prop_assert_eq!(
                        &optimized,
                        &reference,
                        "diverged for mix {:?}, open loop {}, cycle-accurate {}",
                        &mix,
                        open,
                        ca
                    );
                }
            }
        }
    }
}
