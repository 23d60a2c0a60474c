//! Invariants of the simulated-time trace layer (`relmem_sim::trace`).
//!
//! The observability contract the rest of the workspace relies on:
//!
//! * per-track timestamps are monotone after [`Trace::merge`],
//! * synchronous (`ph: "X"`) spans are disjoint-or-nested per track,
//! * `Degrade` events on the system track carry exactly the timestamps
//!   of [`OverloadStats::transitions`],
//! * the Chrome-trace export validates against the schema Perfetto
//!   requires, with per-track event counts matching the in-memory trace,
//! * identical runs produce byte-identical traces, and
//! * installing the recording sink changes *nothing* about the
//!   simulation: every counter stays bit-identical to a no-op-sink run
//!   (spot-checked on the overload scenario, property-tested on random
//!   single-core workloads).

use proptest::prelude::*;
use relational_memory::core::system::{RowEffect, ScanSource, SystemConfig};
use relational_memory::core::workload::{QueryStream, Workload, WorkloadOp};
use relational_memory::prelude::*;
use relmem_sim::trace::SpanStyle;
use relmem_sim::{validate_chrome_trace, SimTime, Trace, TraceEventKind, Track};
use std::collections::BTreeMap;

fn build(cores: usize, rows: u64) -> (System, RowTable) {
    let mut cfg = SystemConfig {
        cores,
        ..SystemConfig::default()
    };
    cfg.mem_bytes = ((rows * 96) as usize + (16 << 20)).next_power_of_two();
    let mut sys = System::with_config(cfg);
    let schema = Schema::benchmark(4, 4, 64);
    let mut table = sys
        .create_table(schema, rows + 16, MvccConfig::Disabled)
        .unwrap();
    DataGen::new(7)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .unwrap();
    (sys, table)
}

// ---------------------------------------------------------------------------
// The shared scenario: an open-loop HTAP mix pushed past its saturation
// knee, so the trace contains the full taxonomy — op lifecycle (arrivals,
// admissions, sheds, timeouts), degraded-mode transitions, RME frame
// fetches from the downgraded scans, and cache/DRAM activity.
// ---------------------------------------------------------------------------

fn oltp_op(table: &RowTable, i: u64) -> WorkloadOp<'_> {
    const OLTP_COLUMNS: &[usize] = &[1, 2];
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
            columns: OLTP_COLUMNS,
            row,
        }
    }
}

/// Runs the overloaded open-loop mix (OLTP arrivals at 4x the calibrated
/// service rate on core 0, degradable scans on cores 1-3), optionally
/// recording a trace. The run is deterministic: identical calls return
/// identical results whether or not the trace is recorded.
fn overloaded_htap(trace: bool) -> (OpenLoopRun, Option<Trace>) {
    let rows: u64 = 4_000;
    let scan_columns = [0usize];

    // Calibrate the 1.0x arrival rate (inverse mean OLTP service time) and
    // one scan's length from a contended closed-loop run.
    let (mean_ns, scan_dur) = {
        let (mut sys, table) = build(4, rows);
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

    let (mut sys, table) = build(4, rows);
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
    let mut streams = vec![OpenLoopStream::new(oltp_template, 1e9 / mean_ns * 4.0, 400)];
    for _ in 1..4 {
        streams.push(OpenLoopStream::new(
            scan_template.clone(),
            1e9 / (1.5 * scan_dur.as_nanos_f64()),
            6,
        ));
    }
    let cfg = AdmissionConfig {
        seed: 42,
        queue_capacity: 32,
        delay_budget: Some(scan_dur.scaled(8)),
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
    // Trace only the measured run: setup traffic never reaches the buffers.
    sys.set_tracing(trace);
    let run = sys
        .run_open_loop(
            &OpenLoopWorkload::new(streams),
            &cfg,
            SimTime::ZERO,
            |_, _, _, _| RowEffect::default(),
        )
        .expect("valid open-loop workload");
    let captured = trace.then(|| sys.take_trace());
    (run, captured)
}

/// Synchronous spans must be disjoint-or-nested per track (touching
/// endpoints and zero-duration spans allowed). Events arrive sorted by
/// start time, so a stack walk per track suffices.
fn assert_sync_spans_well_nested(trace: &Trace) {
    let mut stacks: BTreeMap<u32, Vec<(SimTime, SimTime)>> = BTreeMap::new();
    for e in &trace.events {
        if e.kind.style() != SpanStyle::Sync {
            continue;
        }
        let stack = stacks.entry(e.track.tid()).or_default();
        while let Some(&(_, top_end)) = stack.last() {
            if top_end <= e.at {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(top_start, top_end)) = stack.last() {
            assert!(
                e.end() <= top_end,
                "sync span [{:?}, {:?}] straddles enclosing [{top_start:?}, {top_end:?}] \
                 on track {:?}",
                e.at,
                e.end(),
                e.track,
            );
        }
        stack.push((e.at, e.end()));
    }
}

#[test]
fn trace_invariants_hold_on_an_overloaded_open_loop_run() {
    let (run, trace) = overloaded_htap(true);
    let trace = trace.expect("tracing was requested");
    assert!(!trace.events.is_empty(), "the traced run recorded nothing");

    // Per-track monotone timestamps after the merge.
    let mut last: BTreeMap<u32, SimTime> = BTreeMap::new();
    for e in &trace.events {
        let prev = last.entry(e.track.tid()).or_insert(SimTime::ZERO);
        assert!(
            e.at >= *prev,
            "track {:?} went backwards: {:?} after {prev:?}",
            e.track,
            e.at,
        );
        *prev = e.at;
    }

    assert_sync_spans_well_nested(&trace);

    // Degrade events on the system track mirror OverloadStats::transitions
    // exactly: same count, same timestamps, same direction.
    let degrades: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Degrade)
        .collect();
    assert!(
        !run.overload.transitions.is_empty(),
        "the scenario must actually degrade: {:?}",
        run.overload,
    );
    assert_eq!(degrades.len(), run.overload.transitions.len());
    for (event, transition) in degrades.iter().zip(&run.overload.transitions) {
        assert_eq!(event.track, Track::System);
        assert_eq!(event.at, transition.at, "trace and stats disagree on when");
        assert_eq!(
            event.arg0 == 1,
            transition.degraded,
            "trace and stats disagree on the direction at {:?}",
            transition.at,
        );
    }

    // Every layer of the system shows up on its own track.
    let counts = trace.events_per_track();
    for core in 0..4 {
        assert!(
            counts.contains_key(&Track::Core(core)),
            "core {core} recorded nothing: {counts:?}"
        );
    }
    assert!(counts.contains_key(&Track::System));
    assert!(counts.keys().any(|t| matches!(t, Track::L2Bank(_))));
    assert!(counts.keys().any(|t| matches!(t, Track::DramBank(_))));
    if run.overload.degraded_ops > 0 {
        assert!(
            counts.contains_key(&Track::Rme),
            "degraded scans ran on the RME but its track is empty"
        );
    }

    // The Chrome export validates against the Perfetto-required schema and
    // its per-track counts agree with the in-memory trace (async spans
    // export as begin/end pairs, hence count twice).
    let summary = validate_chrome_trace(&trace.to_chrome_json()).expect("export validates");
    let mut expected: BTreeMap<u64, usize> = BTreeMap::new();
    for e in &trace.events {
        let weight = if e.kind.style() == SpanStyle::Async {
            2
        } else {
            1
        };
        *expected.entry(e.track.tid() as u64).or_insert(0) += weight;
    }
    assert_eq!(summary.events_per_tid, expected);
    for &track in counts.keys() {
        assert_eq!(
            summary.track_names.get(&(track.tid() as u64)),
            Some(&track.name()),
            "track {track:?} is missing its thread-name metadata"
        );
    }
}

#[test]
fn identical_runs_produce_byte_identical_traces() {
    let (run_a, trace_a) = overloaded_htap(true);
    let (run_b, trace_b) = overloaded_htap(true);
    assert_eq!(run_a.overload, run_b.overload);
    let (trace_a, trace_b) = (trace_a.unwrap(), trace_b.unwrap());
    assert_eq!(trace_a, trace_b, "recorded event lists diverged");
    assert_eq!(
        trace_a.to_chrome_json(),
        trace_b.to_chrome_json(),
        "serialized traces diverged"
    );
}

#[test]
fn recording_sink_leaves_the_overload_run_bit_identical() {
    let (plain, none) = overloaded_htap(false);
    let (traced, some) = overloaded_htap(true);
    assert!(none.is_none());
    assert!(some.is_some());
    assert_eq!(plain.end, traced.end);
    assert_eq!(plain.cpu, traced.cpu);
    assert_eq!(plain.rows, traced.rows);
    assert_eq!(plain.overload, traced.overload);
    assert_eq!(plain.txn, traced.txn);
    assert_eq!(
        format!("{:?}", plain.streams),
        format!("{:?}", traced.streams),
        "per-stream reports diverged under recording"
    );
}

// ---------------------------------------------------------------------------
// Property test: on random single-core open-loop workloads, a recording
// sink never perturbs the simulation — run end, charged CPU, admission
// counters, per-op outcomes and the full cache/DRAM measurement are
// bit-identical to the no-op-sink run.
// ---------------------------------------------------------------------------

fn random_open_loop(
    rows: u64,
    seed: u64,
    n_ops: u64,
    rate: f64,
    record: bool,
) -> (OpenLoopRun, String, bool) {
    let (mut sys, table) = build(1, rows);
    let template: Vec<OpenLoopOp> = (0..n_ops.min(48))
        .map(|i| OpenLoopOp::new(oltp_op(&table, i.wrapping_mul(seed | 1))))
        .collect();
    let workload = OpenLoopWorkload::new(vec![OpenLoopStream::new(template, rate, n_ops)]);
    // A small queue so high random rates exercise the shed path too.
    let cfg = AdmissionConfig {
        seed: seed ^ 0xBEEF,
        queue_capacity: 4,
        ..AdmissionConfig::default()
    };
    sys.begin_measurement(AccessPath::DirectRowWise);
    sys.set_tracing(record);
    let run = sys
        .run_open_loop(&workload, &cfg, SimTime::ZERO, |_, _, _, _| {
            RowEffect::default()
        })
        .expect("valid open-loop workload");
    let measurement = sys.finish_measurement(run.end, run.cpu, AccessPath::DirectRowWise);
    let recorded = if record {
        !sys.take_trace().events.is_empty()
    } else {
        false
    };
    (run, format!("{measurement:?}"), recorded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn recording_vs_noop_sinks_are_counter_identical(
        rows in 1u64..200,
        seed in 0u64..1_000,
        n_ops in 1u64..40,
        rate_exp in 4u32..9,
    ) {
        let rate = 10f64.powi(rate_exp as i32);
        let (plain, plain_m, _) = random_open_loop(rows, seed, n_ops, rate, false);
        let (traced, traced_m, recorded) = random_open_loop(rows, seed, n_ops, rate, true);
        prop_assert!(recorded, "a completed run must record at least one event");
        prop_assert_eq!(plain.end, traced.end);
        prop_assert_eq!(plain.cpu, traced.cpu);
        prop_assert_eq!(plain.rows, traced.rows);
        prop_assert_eq!(&plain.overload, &traced.overload);
        prop_assert_eq!(&plain.txn, &traced.txn);
        prop_assert_eq!(
            format!("{:?}", plain.streams),
            format!("{:?}", traced.streams)
        );
        prop_assert_eq!(plain_m, traced_m);
    }
}
