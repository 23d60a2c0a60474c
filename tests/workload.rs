//! The per-core workload-stream subsystem: edge cases, determinism, MVCC
//! snapshots taken mid-stream, and the HTAP isolation claim — OLTP tail
//! latency under concurrent analytical scans degrades less when the scans
//! go through the RME than when they read the rows directly.

use relational_memory::core::system::{RowEffect, ScanSource, SystemConfig};
use relational_memory::core::workload::{OpKind, QueryStream, Workload, WorkloadError, WorkloadOp};
use relational_memory::core::{TxnOp, TxnSpec};
use relational_memory::prelude::*;
use relmem_sim::SimTime;

fn build(cores: usize, rows: u64, mvcc: MvccConfig) -> (System, RowTable) {
    let mut cfg = SystemConfig {
        cores,
        ..SystemConfig::default()
    };
    cfg.mem_bytes = ((rows * 96) as usize + (16 << 20)).next_power_of_two();
    let mut sys = System::with_config(cfg);
    let schema = Schema::benchmark(4, 4, 64);
    let mut table = sys.create_table(schema, rows + 16, mvcc).unwrap();
    DataGen::new(7)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .unwrap();
    (sys, table)
}

#[test]
fn zero_query_streams_complete_instantly() {
    let (mut sys, _table) = build(4, 100, MvccConfig::Disabled);
    let workload = Workload::new(vec![
        QueryStream::empty(),
        QueryStream::empty(),
        QueryStream::empty(),
        QueryStream::empty(),
    ]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| {
            panic!("no op should produce a row")
        })
        .expect("empty workload is valid");
    assert_eq!(run.end, SimTime::ZERO);
    assert_eq!(run.rows, 0);
    assert_eq!(run.streams.len(), 4);
    assert!(run.streams.iter().all(|s| s.ops.is_empty()));
}

#[test]
fn cores_with_empty_streams_stay_idle_while_others_work() {
    let rows = 2_000;
    let (mut sys, table) = build(4, rows, MvccConfig::Disabled);
    let columns = [0usize, 1];
    // Only core 2 works; cores 0, 1 have empty streams; core 3 has no
    // stream at all (workload shorter than the core count).
    let workload = Workload::new(vec![
        QueryStream::empty(),
        QueryStream::empty(),
        QueryStream::new(vec![WorkloadOp::olap(ScanSource::Rows {
            table: &table,
            columns: &columns,
            snapshot: None,
        })]),
    ]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |core, _, _, _| {
            assert_eq!(core, 2, "only core 2 has work");
            RowEffect::default()
        })
        .expect("valid workload");
    assert_eq!(run.rows, rows);
    assert_eq!(run.streams.len(), 3);
    assert_eq!(run.streams[2].ops[0].rows, rows);
    assert!(run.streams[0].end.is_zero() && run.streams[1].end.is_zero());
    assert!(run.end > SimTime::ZERO);
    // Idle cores issued no cache requests.
    assert_eq!(sys.core_stats(0).l1.requests, 0);
    assert_eq!(sys.core_stats(1).l1.requests, 0);
    assert!(sys.core_stats(2).l1.requests > 0);
}

#[test]
fn more_streams_than_cores_is_rejected() {
    let (mut sys, _table) = build(1, 10, MvccConfig::Disabled);
    let workload = Workload::new(vec![QueryStream::empty(), QueryStream::empty()]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let err = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
        .unwrap_err();
    assert_eq!(
        err,
        WorkloadError::TooManyStreams {
            streams: 2,
            cores: 1
        }
    );
    assert_eq!(
        err.to_string(),
        "workload has 2 streams but the system only has 1 cores"
    );
}

#[test]
fn mvcc_snapshot_taken_mid_stream_governs_later_ops() {
    let rows = 200;
    let (mut sys, table) = build(1, rows, MvccConfig::Enabled);
    let columns = [0usize];
    // The stream deletes row 7 at ts 5, then scans under a snapshot taken
    // *before* the delete (sees every row) and one taken *after* (sees one
    // row fewer). Point lookups of row 7 flip visibility the same way.
    let workload = Workload::new(vec![QueryStream::new(vec![
        WorkloadOp::PointDelete {
            table: &table,
            row: 7,
            ts: 5,
        },
        WorkloadOp::TakeSnapshot { ts: 4 },
        WorkloadOp::OlapScan {
            source: ScanSource::Rows {
                table: &table,
                columns: &columns,
                snapshot: None,
            },
            stream_snapshot: true,
        },
        WorkloadOp::PointLookup {
            table: &table,
            columns: &columns,
            row: 7,
        },
        WorkloadOp::TakeSnapshot { ts: 6 },
        WorkloadOp::OlapScan {
            source: ScanSource::Rows {
                table: &table,
                columns: &columns,
                snapshot: None,
            },
            stream_snapshot: true,
        },
        WorkloadOp::PointLookup {
            table: &table,
            columns: &columns,
            row: 7,
        },
    ])]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
        .expect("valid workload");
    let ops = &run.streams[0].ops;
    assert_eq!(ops[2].rows, rows, "pre-delete snapshot sees every row");
    assert_eq!(ops[3].rows, 1, "row 7 is visible at ts 4");
    assert_eq!(ops[5].rows, rows - 1, "post-delete snapshot misses row 7");
    assert_eq!(ops[6].rows, 0, "row 7 is invisible at ts 6");
}

#[test]
fn point_updates_are_visible_to_later_readers() {
    let (mut sys, table) = build(1, 50, MvccConfig::Disabled);
    let columns = [1usize];
    let workload = Workload::new(vec![QueryStream::new(vec![
        WorkloadOp::PointUpdate {
            table: &table,
            row: 3,
            column: 1,
            value: 0xAB,
        },
        WorkloadOp::PointLookup {
            table: &table,
            columns: &columns,
            row: 3,
        },
    ])]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let mut seen = Vec::new();
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, op, _, values| {
            seen.push((op, values[0]));
            RowEffect::default()
        })
        .expect("valid workload");
    assert_eq!(seen, vec![(0, 0xAB), (1, 0xAB)]);
    assert_eq!(run.streams[0].ops[0].kind, OpKind::PointUpdate);
    assert!(run.streams[0].ops[1].latency() > SimTime::ZERO);
}

#[test]
fn workload_runs_are_deterministic() {
    let run_once = || {
        let rows = 4_000;
        let (mut sys, table) = build(2, rows, MvccConfig::Disabled);
        let columns = [0usize, 2];
        let oltp: Vec<WorkloadOp> = (0..100)
            .map(|i| {
                if i % 3 == 0 {
                    WorkloadOp::PointUpdate {
                        table: &table,
                        row: (i * 37) % rows,
                        column: 0,
                        value: i,
                    }
                } else {
                    WorkloadOp::PointLookup {
                        table: &table,
                        columns: &columns,
                        row: (i * 17) % rows,
                    }
                }
            })
            .collect();
        let workload = Workload::new(vec![
            QueryStream::new(oltp),
            QueryStream::new(vec![WorkloadOp::olap(ScanSource::Rows {
                table: &table,
                columns: &columns,
                snapshot: None,
            })]),
        ]);
        sys.begin_measurement(AccessPath::DirectRowWise);
        let mut checksum = 0u64;
        let run = sys
            .run_workload(&workload, SimTime::ZERO, |_, _, _, values| {
                checksum = checksum
                    .wrapping_mul(31)
                    .wrapping_add(values.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
                RowEffect::default()
            })
            .expect("valid workload");
        let latencies: Vec<SimTime> = run.streams[0].ops.iter().map(|o| o.latency()).collect();
        (run.end, run.cpu, checksum, latencies)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "identical workloads must replay bit-identically");
}

#[test]
fn concurrent_streams_contend_on_the_shared_l2() {
    let rows = 20_000;
    let (mut sys, table) = build(2, rows, MvccConfig::Disabled);
    let columns = [0usize, 1, 2, 3];
    let src = ScanSource::Rows {
        table: &table,
        columns: &columns,
        snapshot: None,
    };
    let workload = Workload::new(vec![
        QueryStream::new(vec![WorkloadOp::olap(src)]),
        QueryStream::new(vec![WorkloadOp::olap(src)]),
    ]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
        .expect("valid workload");
    assert_eq!(run.rows, 2 * rows);
    // Both streams see shared-L2 contention, and the per-core L2 shares
    // attribute the traffic stream by stream.
    assert!(run
        .streams
        .iter()
        .any(|s| !s.cache.l2_contention_delay.is_zero()));
    let shares = sys.l2_shares().to_vec();
    assert!(shares[0].lookups > 0 && shares[1].lookups > 0);
    let total: u64 = shares.iter().map(|s| s.lookups).sum();
    assert_eq!(total, sys.l2_stats().lookups);
}

/// The paper's HTAP isolation story, as a regression gate: run an OLTP
/// point-query stream on core 0 while the other cores run analytical
/// scans, once with the scans reading the row table directly and once
/// through the RME. The OLTP p99 must degrade less (vs. an interference-
/// free baseline) when the analytics go through the engine.
#[test]
fn rme_scans_disturb_oltp_tail_latency_less_than_direct_scans() {
    let rows: u64 = 30_000;
    let oltp_ops = 400usize;
    let scan_columns = [0usize];
    let oltp_columns = [1usize, 2];

    // (is_update, row) pairs, generated deterministically.
    let oltp_stream = |table: &RowTable| -> Vec<(bool, u64)> {
        (0..oltp_ops as u64)
            .map(|i| {
                (
                    (i % 5 == 4),
                    (i.wrapping_mul(2654435761)) % table.num_rows(),
                )
            })
            .collect()
    };

    // p99 with no analytical interference (single stream on 1 core).
    let baseline_p99 = {
        let (mut sys, table) = build(1, rows, MvccConfig::Disabled);
        let ops: Vec<WorkloadOp> = oltp_stream(&table)
            .into_iter()
            .map(|(upd, row)| {
                if upd {
                    WorkloadOp::PointUpdate {
                        table: &table,
                        row,
                        column: 1,
                        value: row,
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
        let workload = Workload::new(vec![QueryStream::new(ops)]);
        sys.begin_measurement(AccessPath::DirectRowWise);
        let run = sys
            .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
            .expect("valid workload");
        run.oltp_latencies().p99()
    };

    // p99 with three concurrent analytical streams, direct vs. RME.
    let contended_p99 = |through_rme: bool| {
        let (mut sys, table) = build(4, rows, MvccConfig::Disabled);
        let var;
        let scan_source = if through_rme {
            var = sys
                .register_ephemeral(&table, ColumnGroup::new(vec![0]).unwrap(), None)
                .unwrap();
            ScanSource::Ephemeral { var: &var }
        } else {
            ScanSource::Rows {
                table: &table,
                columns: &scan_columns,
                snapshot: None,
            }
        };
        let ops: Vec<WorkloadOp> = oltp_stream(&table)
            .into_iter()
            .map(|(upd, row)| {
                if upd {
                    WorkloadOp::PointUpdate {
                        table: &table,
                        row,
                        column: 1,
                        value: row,
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
            QueryStream::new(ops),
            QueryStream::new(vec![WorkloadOp::olap(scan_source)]),
            QueryStream::new(vec![WorkloadOp::olap(scan_source)]),
            QueryStream::new(vec![WorkloadOp::olap(scan_source)]),
        ]);
        sys.begin_measurement(if through_rme {
            AccessPath::RmeCold
        } else {
            AccessPath::DirectRowWise
        });
        let run = sys
            .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
            .expect("valid workload");
        assert_eq!(run.olap_rows(), 3 * rows);
        run.oltp_latencies().p99()
    };

    let direct = contended_p99(false);
    let rme = contended_p99(true);
    assert!(baseline_p99 > SimTime::ZERO);
    let direct_deg = direct.as_nanos_f64() / baseline_p99.as_nanos_f64();
    let rme_deg = rme.as_nanos_f64() / baseline_p99.as_nanos_f64();
    assert!(
        rme_deg < direct_deg,
        "OLTP p99 should degrade less under RME scans: \
         baseline {baseline_p99}, direct {direct} ({direct_deg:.2}x), \
         RME {rme} ({rme_deg:.2}x)"
    );
}

// ---------------------------------------------------------------------------
// Invalid workloads are rejected with typed errors before any work runs.
// ---------------------------------------------------------------------------

#[test]
fn invalid_closed_loop_ops_are_rejected_before_any_work_runs() {
    let (mut sys, table) = build(1, 100, MvccConfig::Disabled);
    let rows = table.num_rows();
    let cols = [0usize];
    let bad_cols = [7usize];
    let mut run = |ops: Vec<WorkloadOp>| {
        sys.run_workload(
            &Workload::new(vec![QueryStream::new(ops)]),
            SimTime::ZERO,
            |_, _, _, _| panic!("rejected workloads must not execute"),
        )
        .unwrap_err()
    };
    assert_eq!(
        run(vec![WorkloadOp::PointLookup {
            table: &table,
            columns: &cols,
            row: rows,
        }]),
        WorkloadError::RowOutOfRange {
            stream: 0,
            op: 0,
            row: rows,
            rows,
        }
    );
    // Schema::benchmark(4, 4, 64) has 4 UInt columns plus one Bytes fill
    // column: 5 in total, and only the first 4 are updatable.
    assert_eq!(
        run(vec![WorkloadOp::olap(ScanSource::Rows {
            table: &table,
            columns: &bad_cols,
            snapshot: None,
        })]),
        WorkloadError::ColumnOutOfRange {
            stream: 0,
            op: 0,
            column: 7,
            columns: 5,
        }
    );
    assert_eq!(
        run(vec![WorkloadOp::PointUpdate {
            table: &table,
            row: 0,
            column: 4,
            value: 1,
        }]),
        WorkloadError::NonUIntUpdate {
            stream: 0,
            op: 0,
            column: 4,
        }
    );
    assert_eq!(
        run(vec![WorkloadOp::PointDelete {
            table: &table,
            row: 0,
            ts: 1,
        }]),
        WorkloadError::MvccRequired { stream: 0, op: 0 }
    );
    // The error comes from the offending op, not the first one.
    assert_eq!(
        run(vec![
            WorkloadOp::PointLookup {
                table: &table,
                columns: &cols,
                row: 0,
            },
            WorkloadOp::PointLookup {
                table: &table,
                columns: &cols,
                row: rows + 5,
            },
        ]),
        WorkloadError::RowOutOfRange {
            stream: 0,
            op: 1,
            row: rows + 5,
            rows,
        }
    );
    // A transaction's ops are held to the same checks as the flat point
    // ops; the error names the transaction's op index in its stream.
    let specs = [
        TxnSpec::new(vec![TxnOp::Read {
            table: &table,
            columns: &cols,
            row: rows,
        }]),
        TxnSpec::new(vec![TxnOp::Update {
            table: &table,
            row: 0,
            column: 4,
            value: 1,
        }]),
        TxnSpec::new(vec![TxnOp::Delete {
            table: &table,
            row: 0,
        }]),
        TxnSpec::new(vec![TxnOp::Insert {
            table: &table,
            columnar: None,
            values: &[1, 2, 3],
        }]),
        TxnSpec::new(vec![TxnOp::Insert {
            table: &table,
            columnar: None,
            values: &[1, 1 << 32, 3, 4, 5],
        }]),
    ];
    let expected = [
        WorkloadError::RowOutOfRange {
            stream: 0,
            op: 1,
            row: rows,
            rows,
        },
        WorkloadError::NonUIntUpdate {
            stream: 0,
            op: 1,
            column: 4,
        },
        WorkloadError::MvccRequired { stream: 0, op: 1 },
        WorkloadError::ColumnOutOfRange {
            stream: 0,
            op: 1,
            column: 3,
            columns: 5,
        },
        WorkloadError::InsertValueOverflow {
            stream: 0,
            op: 1,
            column: 1,
        },
    ];
    for (spec, expected) in specs.iter().zip(expected) {
        let lookup = WorkloadOp::PointLookup {
            table: &table,
            columns: &cols,
            row: 0,
        };
        assert_eq!(run(vec![lookup, WorkloadOp::Txn { spec }]), expected);
    }
}

#[test]
fn invalid_open_loop_config_is_rejected() {
    let (mut sys, table) = build(1, 100, MvccConfig::Disabled);
    let cols = [0usize];
    let lookup = OpenLoopOp::new(WorkloadOp::PointLookup {
        table: &table,
        columns: &cols,
        row: 0,
    });
    let mut run = |wl: &OpenLoopWorkload, cfg: &AdmissionConfig| {
        sys.run_open_loop(wl, cfg, SimTime::ZERO, |_, _, _, _| {
            panic!("rejected workloads must not execute")
        })
        .unwrap_err()
    };
    let cfg = AdmissionConfig::default();
    assert_eq!(
        run(
            &OpenLoopWorkload::new(vec![
                OpenLoopStream::new(vec![lookup], 100.0, 1),
                OpenLoopStream::new(vec![lookup], 100.0, 1),
            ]),
            &cfg,
        ),
        WorkloadError::TooManyStreams {
            streams: 2,
            cores: 1
        }
    );
    for bad_rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert_eq!(
            run(
                &OpenLoopWorkload::new(vec![OpenLoopStream::new(vec![lookup], bad_rate, 1)]),
                &cfg,
            ),
            WorkloadError::InvalidArrivalRate { stream: 0 }
        );
    }
    assert_eq!(
        run(
            &OpenLoopWorkload::new(vec![OpenLoopStream::new(Vec::new(), 100.0, 1)]),
            &cfg,
        ),
        WorkloadError::EmptyTemplate { stream: 0 }
    );
    let valid = OpenLoopWorkload::new(vec![OpenLoopStream::new(vec![lookup], 100.0, 1)]);
    assert_eq!(
        run(
            &valid,
            &AdmissionConfig {
                queue_capacity: 0,
                ..cfg
            },
        ),
        WorkloadError::ZeroQueueCapacity
    );
    assert_eq!(
        run(
            &valid,
            &AdmissionConfig {
                degrade: Some(DegradePolicy {
                    high_watermark: 2,
                    low_watermark: 5,
                    trigger_after: 1,
                    clear_after: 1,
                }),
                ..cfg
            },
        ),
        WorkloadError::InvalidWatermarks { high: 2, low: 5 }
    );
    // Validation covers the degraded alternative, not just the normal op.
    let rows = table.num_rows();
    assert_eq!(
        run(
            &OpenLoopWorkload::new(vec![OpenLoopStream::new(
                vec![OpenLoopOp::with_degraded(
                    lookup.op,
                    WorkloadOp::PointLookup {
                        table: &table,
                        columns: &cols,
                        row: rows,
                    },
                )],
                100.0,
                1,
            )]),
            &cfg,
        ),
        WorkloadError::RowOutOfRange {
            stream: 0,
            op: 0,
            row: rows,
            rows,
        }
    );
}

// ---------------------------------------------------------------------------
// Open-loop traffic: admission control, shedding, timeout/retry and
// graceful degradation under overload.
// ---------------------------------------------------------------------------

/// Runs the open-loop HTAP mix with OLTP arrivals at `factor` times the
/// calibrated contended closed-loop service rate. Mirrors the harness's
/// `fig_htap_openloop` scenario: point queries on core 0, quasi-continuous
/// direct scans with RME degraded alternatives on cores 1–3. Returns the
/// run and the configured queueing-delay budget.
fn open_loop_htap_at(factor: f64) -> (OpenLoopRun, SimTime) {
    let rows: u64 = 10_000;
    let scan_columns = [0usize];
    const OLTP_COLUMNS: [usize; 2] = [1, 2];
    fn oltp_op(table: &RowTable, i: u64) -> WorkloadOp<'_> {
        let row = i.wrapping_mul(2654435761) % table.num_rows();
        if i % 5 == 4 {
            WorkloadOp::PointUpdate {
                table,
                row,
                column: 1,
                value: i,
            }
        } else {
            WorkloadOp::PointLookup {
                table,
                columns: &OLTP_COLUMNS,
                row,
            }
        }
    }

    // Calibrate from a contended closed-loop run: mean OLTP service time
    // (whose inverse is the 1.0x arrival rate) and one full scan's length.
    let (mean_ns, scan_dur) = {
        let (mut sys, table) = build(4, rows, MvccConfig::Disabled);
        let src = ScanSource::Rows {
            table: &table,
            columns: &scan_columns,
            snapshot: None,
        };
        let ops: Vec<WorkloadOp> = (0..400).map(|i| oltp_op(&table, i)).collect();
        let workload = Workload::new(vec![
            QueryStream::new(ops),
            QueryStream::new(vec![WorkloadOp::olap(src)]),
            QueryStream::new(vec![WorkloadOp::olap(src)]),
            QueryStream::new(vec![WorkloadOp::olap(src)]),
        ]);
        sys.begin_measurement(AccessPath::DirectRowWise);
        let run = sys
            .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
            .expect("valid workload");
        (
            run.oltp_latencies().mean_nanos().max(1.0),
            run.streams[1].ops[0].latency().max(SimTime::from_nanos(1)),
        )
    };

    let (mut sys, table) = build(4, rows, MvccConfig::Disabled);
    let var = sys
        .register_ephemeral(&table, ColumnGroup::new(vec![0]).unwrap(), None)
        .unwrap();
    let oltp_template: Vec<OpenLoopOp> = (0..100)
        .map(|i| OpenLoopOp::new(oltp_op(&table, i)))
        .collect();
    let scan_template = vec![OpenLoopOp::with_degraded(
        WorkloadOp::olap(ScanSource::Rows {
            table: &table,
            columns: &scan_columns,
            snapshot: None,
        }),
        WorkloadOp::olap(ScanSource::Ephemeral { var: &var }),
    )];
    let mut streams = vec![OpenLoopStream::new(
        oltp_template,
        1e9 / mean_ns * factor,
        400,
    )];
    for _ in 1..4 {
        streams.push(OpenLoopStream::new(
            scan_template.clone(),
            1e9 / (1.5 * scan_dur.as_nanos_f64()),
            6,
        ));
    }
    let budget = scan_dur.scaled(8);
    let cfg = AdmissionConfig {
        seed: 42,
        queue_capacity: 32,
        delay_budget: Some(budget),
        timeout: Some(scan_dur.scaled(16)),
        max_retries: 2,
        retry_backoff: SimTime::from_nanos(mean_ns as u64 + 1),
        degrade: Some(DegradePolicy {
            high_watermark: 24,
            low_watermark: 4,
            trigger_after: 8,
            clear_after: 16,
        }),
    };
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_open_loop(
            &OpenLoopWorkload::new(streams),
            &cfg,
            SimTime::ZERO,
            |_, _, _, _| RowEffect::default(),
        )
        .expect("valid open-loop workload");
    (run, budget)
}

fn assert_conservation(o: &relmem_sim::OverloadStats) {
    assert_eq!(
        o.arrivals + o.retries,
        o.admitted + o.shed_queue_full,
        "every presented attempt is either admitted or rejected"
    );
    assert_eq!(
        o.admitted,
        o.completed + o.shed_deadline + o.timed_out,
        "every admitted attempt completes, sheds on deadline or times out"
    );
}

/// The PR's robustness gate: well below the saturation knee the admission
/// machinery is invisible (nothing shed, nothing timed out, no mode
/// switches); past the knee the bounded queue sheds, sustained pressure
/// downgrades the concurrent scans to the RME path, and the ops that *are*
/// admitted keep a tail within the configured queueing-delay budget.
#[test]
fn open_loop_saturation_knee_sheds_and_degrades_gracefully() {
    let (calm, _) = open_loop_htap_at(0.2);
    let o = &calm.overload;
    assert_eq!(o.shed(), 0, "no sheds well below the knee: {o:?}");
    assert_eq!(o.timed_out, 0, "no timeouts well below the knee");
    assert_eq!(o.retries, 0, "nothing to retry below the knee");
    assert!(
        o.transitions.is_empty(),
        "no degradation below the knee: {:?}",
        o.transitions
    );
    assert_conservation(o);

    let (hot, budget) = open_loop_htap_at(4.0);
    let o = &hot.overload;
    assert!(
        o.shed_queue_full > 0,
        "the bounded queue must reject past the knee: {o:?}"
    );
    assert!(
        o.degraded_ops > 0,
        "sustained pressure must downgrade scans to the RME path: {o:?}"
    );
    assert!(
        !o.transitions.is_empty() && o.transitions[0].degraded,
        "the first recorded transition enters degraded mode: {:?}",
        o.transitions
    );
    assert_conservation(o);

    // Graceful degradation: load shedding keeps the admitted ops' queueing
    // delay inside the budget by construction, and the admitted OLTP tail
    // stays within that budget end to end.
    let mut queue = hot.queue_delays();
    assert!(
        queue.max() <= budget,
        "started ops never waited past the budget: {} > {budget}",
        queue.max()
    );
    let mut lat = hot.oltp_latencies();
    assert!(
        lat.p99() <= budget,
        "admitted OLTP p99 {} must stay within the {budget} budget",
        lat.p99()
    );
}

/// Identical seeds and configuration replay bit-identically: the overload
/// accounting, every latency sample and the drain time all match.
#[test]
fn open_loop_runs_are_deterministic() {
    let (a, _) = open_loop_htap_at(4.0);
    let (b, _) = open_loop_htap_at(4.0);
    assert_eq!(a.overload, b.overload);
    assert_eq!(a.end, b.end);
    assert_eq!(a.cpu, b.cpu);
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.latencies().samples(), b.latencies().samples());
    assert_eq!(a.queue_delays().samples(), b.queue_delays().samples());
}
