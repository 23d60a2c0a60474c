//! Transactional contention: commit throughput and abort rate vs. hot-row
//! skew (beyond the paper's read-only evaluation).
//!
//! The transaction layer runs multi-row MVCC transactions through the same
//! timing model as the paper's queries, with first-updater-wins conflict
//! detection on write intents. This experiment quantifies what that costs
//! under contention: every core runs a stream of transfer-style
//! transactions (read two rows, update two rows), and a *skew* knob moves
//! a fraction of them onto one shared hot row. At 0 % skew every
//! transaction touches only core-private rows (conflict-free); at 100 %
//! every transaction claims the hot row, so all concurrency on it
//! serialises through abort-and-retry.
//!
//! Reported per core count and skew: committed-transaction throughput,
//! the conflict-abort rate (aborted attempts / attempts begun) and the
//! wasted-work share (attempts that paid simulated traffic and then threw
//! it away). Two properties are asserted in-harness and smoke-checked by
//! CI:
//!
//! * the abort rate rises monotonically with hot-row skew at every
//!   multi-core point (more claims on one key ⇒ more first-updater-wins
//!   victims), and
//! * conflict-free transactions are free: at 0 % skew on one core over a
//!   non-MVCC table, the transactional makespan is within 5 % of the
//!   identical flat point-op sequence (the equivalence proptests pin the
//!   counters bit-exactly; this pins the end-to-end figure the harness
//!   reports). On MVCC tables transactions deliberately cost more —
//!   intent-claim header probes and per-commit durability writes are
//!   charged as real traffic, which is what the sweep measures.

use relmem_core::system::{RowEffect, SystemConfig};
use relmem_core::workload::{QueryStream, Workload, WorkloadOp};
use relmem_core::{AccessPath, System, TxnOp, TxnSpec};
use relmem_sim::report::{series_table, Series};
use relmem_sim::{SimTime, Trace};
use relmem_storage::{DataGen, MvccConfig, RowTable, Schema};

use super::Experiment;

/// Hot-row skew percentages swept (fraction of transactions that claim
/// the shared hot row).
const SKEWS: [u64; 4] = [0, 25, 50, 100];
/// Core counts swept (1 is the conflict-free throughput baseline).
const CORES: [usize; 3] = [1, 2, 4];
/// In-place retry budget — large enough that transfers eventually commit
/// even at full skew on four cores.
const RETRIES: u32 = 64;

const READ_COLUMNS: [usize; 2] = [0, 1];

/// One (cores, skew) measurement.
struct TxnPoint {
    committed: u64,
    begun: u64,
    abort_rate: f64,
    ktxn_s: f64,
    end: SimTime,
}

/// Whether transaction `i` of a stream claims the hot row at this skew —
/// a deterministic spread, not a prefix, so contention is sustained over
/// the whole run.
fn is_hot(i: u64, skew_pct: u64) -> bool {
    i.wrapping_mul(37) % 100 < skew_pct
}

fn build_system(rows: u64, cores: usize, mvcc: MvccConfig) -> (System, RowTable) {
    let mut sys = System::with_config(SystemConfig {
        cores,
        mem_bytes: ((rows * 64) as usize + (32 << 20)).next_power_of_two(),
        ..SystemConfig::default()
    });
    let schema = Schema::benchmark(4, 4, 64);
    let mut table = sys.create_table(schema, rows, mvcc).expect("table fits");
    DataGen::new(3)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .expect("fill");
    (sys, table)
}

/// Builds one core's transaction specs: transfer-style read-read-update-
/// update bodies, `skew_pct` percent of them against the shared hot row.
fn build_specs(
    table: &RowTable,
    core: usize,
    txns: u64,
    rows: u64,
    skew_pct: u64,
) -> Vec<TxnSpec<'_>> {
    (0..txns)
        .map(|i| {
            // Private rows live in a per-core stripe above the hot row.
            let own = 1 + (core as u64) * txns * 2 + (i * 2) % (rows / 8);
            let partner = if is_hot(i, skew_pct) { 0 } else { own + 1 };
            TxnSpec::new(vec![
                TxnOp::Read {
                    table,
                    columns: &READ_COLUMNS,
                    row: partner,
                },
                TxnOp::Read {
                    table,
                    columns: &READ_COLUMNS,
                    row: own,
                },
                TxnOp::Update {
                    table,
                    row: partner,
                    column: 0,
                    value: i,
                },
                TxnOp::Update {
                    table,
                    row: own,
                    column: 1,
                    value: i,
                },
            ])
            .with_retries(RETRIES)
        })
        .collect()
}

fn run_txn(
    rows: u64,
    txns_per_core: u64,
    cores: usize,
    skew_pct: u64,
    mvcc: MvccConfig,
    trace: bool,
) -> (TxnPoint, Option<Trace>) {
    let (mut sys, table) = build_system(rows, cores, mvcc);
    let specs: Vec<Vec<TxnSpec>> = (0..cores)
        .map(|core| build_specs(&table, core, txns_per_core, rows, skew_pct))
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
    // Trace only the measured run, never the table setup.
    sys.set_tracing(trace);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
        .expect("valid transactional workload");
    let captured = trace.then(|| sys.take_trace());
    assert!(run.txn.is_consistent(), "txn accounting: {:?}", run.txn);
    assert_eq!(
        run.txn.committed,
        cores as u64 * txns_per_core,
        "every transfer must eventually commit: {:?}",
        run.txn
    );
    let point = TxnPoint {
        committed: run.txn.committed,
        begun: run.txn.begun,
        abort_rate: run.txn.conflict_abort_rate(),
        ktxn_s: run.txn.committed as f64 / run.end.as_nanos_f64() * 1e9 / 1e3,
        end: run.end,
    };
    (point, captured)
}

/// The flat expansion of one core's conflict-free specs: each
/// transaction's reads then its updates, as plain point ops.
fn run_flat_baseline(rows: u64, txns: u64) -> SimTime {
    let (mut sys, table) = build_system(rows, 1, MvccConfig::Disabled);
    let specs = build_specs(&table, 0, txns, rows, 0);
    let ops: Vec<WorkloadOp> = specs
        .iter()
        .flat_map(|spec| {
            spec.ops.iter().map(|op| match *op {
                TxnOp::Read {
                    table,
                    columns,
                    row,
                } => WorkloadOp::PointLookup {
                    table,
                    columns,
                    row,
                },
                TxnOp::Update {
                    table,
                    row,
                    column,
                    value,
                } => WorkloadOp::PointUpdate {
                    table,
                    row,
                    column,
                    value,
                },
                _ => unreachable!("transfer specs hold only reads and updates"),
            })
        })
        .collect();
    let workload = Workload::new(vec![QueryStream::new(ops)]);
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys
        .run_workload(&workload, SimTime::ZERO, |_, _, _, _| RowEffect::default())
        .expect("valid flat workload");
    run.end
}

/// Runs the transactional contention sweep: hot-row skew × core count,
/// asserting abort-rate monotonicity and the conflict-free-is-free bound.
pub fn fig_txn(quick: bool) -> Experiment {
    fig_txn_traced(quick, false).0
}

/// [`fig_txn`], optionally recording a trace of the headline contention
/// point — 4 cores at 100 % hot-row skew, where conflict aborts and
/// retries dominate.
pub fn fig_txn_traced(quick: bool, trace: bool) -> (Experiment, Option<Trace>) {
    let rows: u64 = if quick { 4_000 } else { 20_000 };
    let txns_per_core: u64 = if quick { 30 } else { 120 };

    let mut throughput: Vec<Series> = CORES
        .iter()
        .map(|c| Series::new(format!("commit ktxn/s ({c} cores)")))
        .collect();
    let mut abort_rate: Vec<Series> = CORES
        .iter()
        .map(|c| Series::new(format!("conflict-abort rate ({c} cores)")))
        .collect();
    let mut wasted: Vec<Series> = CORES
        .iter()
        .map(|c| Series::new(format!("wasted attempts ({c} cores)")))
        .collect();

    let mut captured: Option<Trace> = None;
    let (last_cores, last_skew) = (CORES[CORES.len() - 1], SKEWS[SKEWS.len() - 1]);
    for (ci, &cores) in CORES.iter().enumerate() {
        let mut prev_rate = -1.0f64;
        for skew in SKEWS {
            let (point, run_trace) = run_txn(
                rows,
                txns_per_core,
                cores,
                skew,
                MvccConfig::Enabled,
                trace && cores == last_cores && skew == last_skew,
            );
            if run_trace.is_some() {
                captured = run_trace;
            }
            if cores == 1 {
                assert_eq!(
                    point.begun, point.committed,
                    "one stream never conflicts with itself"
                );
            } else {
                assert!(
                    point.abort_rate >= prev_rate,
                    "abort rate must rise monotonically with hot-row skew: \
                     {} cores, {skew}% skew: {} < {prev_rate}",
                    cores,
                    point.abort_rate
                );
                prev_rate = point.abort_rate;
            }
            let label = format!("{skew}% hot");
            throughput[ci].push(label.clone(), point.ktxn_s);
            abort_rate[ci].push(label.clone(), point.abort_rate);
            wasted[ci].push(label, (point.begun - point.committed) as f64);
        }
    }

    // Conflict-free transactions are free: on a non-MVCC table (no header
    // probes at claim time, no commit stamps — the grouping alone), the
    // 1-core 0 %-skew transactional run must finish within 5 % of its flat
    // expansion. The equivalence proptests pin this bit-exactly; the
    // harness pins the end-to-end number it reports. The MVCC sweep above
    // deliberately pays more — intent checks and commit durability are
    // real traffic.
    let (txn_baseline, _) = run_txn(rows, txns_per_core, 1, 0, MvccConfig::Disabled, false);
    let flat_end = run_flat_baseline(rows, txns_per_core);
    let ratio = txn_baseline.end.as_nanos_f64() / flat_end.as_nanos_f64();
    assert!(
        (ratio - 1.0).abs() <= 0.05,
        "conflict-free transactional makespan must be within 5% of the flat \
         point-op path (txn {}, flat {flat_end}, ratio {ratio:.4})",
        txn_baseline.end
    );

    let tables = vec![
        series_table(
            "Transactions: commit throughput vs. hot-row skew",
            "Skew",
            &throughput,
        ),
        series_table(
            "Transactions: conflict-abort rate vs. hot-row skew \
             (first-updater-wins victims / attempts begun)",
            "Skew",
            &abort_rate,
        ),
        series_table(
            "Transactions: aborted attempts (wasted simulated work) vs. hot-row skew",
            "Skew",
            &wasted,
        ),
    ];
    let experiment = Experiment {
        id: "fig_txn",
        description: format!(
            "Multi-row MVCC transactions under contention: transfer transactions per core with \
             a sweep of hot-row skew — abort rate rises monotonically with skew, and at zero \
             skew the transactional path matches the flat point-op path within 5% \
             (measured ratio {ratio:.4})"
        ),
        tables,
    };
    (experiment, captured)
}
