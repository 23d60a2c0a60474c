//! Concurrent HTAP workload streams, one per core.
//!
//! The paper's headline claim is that the Relational Memory Engine lets
//! analytical projections run *beside* transactional row-wise traffic
//! without the two trashing each other's cache behaviour. The scan API can
//! only shard a single query across cores; this module models the actual
//! HTAP scenario: every core runs its own [`QueryStream`] of OLAP column
//! scans, OLTP point lookups and point updates/deletes against MVCC
//! snapshots, and the streams execute *concurrently in simulated time*,
//! contending on the shared L2 banks, the DRAM controller and the RME.
//!
//! # Scheduling
//!
//! [`System::run_workload`] runs on the crate's one deterministic
//! interleaver, the same loop as [`System::scan_sharded`] and
//! [`System::run_open_loop`](crate::openloop): at every step the
//! unfinished stream with the smallest local clock (ties broken by lowest
//! core index) advances by one *unit* — one row of an in-progress OLAP
//! scan, one whole point operation, or one transaction unit. Zero-time
//! ops ([`WorkloadOp::TakeSnapshot`], starting a scan, an empty scan) do
//! not advance the clock. The pick is frame-aware among ephemeral scans:
//! streams whose next row lies in the RME's resident frame are preferred,
//! so concurrent scans of a multi-frame variable stay frame-granular
//! instead of thrashing the Reorganization Buffer, while every other
//! stream competes purely by clock.
//!
//! A workload of **one stream holding one OLAP scan on a 1-core system is
//! counter-identical to [`System::scan`]** — same timestamps, values and
//! every cache/DRAM/RME counter — which `tests/cross_path_equivalence.rs`
//! asserts by proptest. The scan body is literally the same code: the
//! crate-private `stepper::ScanJob::step_rows`, here called for the rows a
//! stream runs before the interleaver's next pick could go elsewhere.
//!
//! # Open-loop traffic
//!
//! [`System::run_open_loop`] drives the *same* per-unit machinery from
//! arrival processes instead of fixed per-core op lists: ops arrive in
//! simulated time independent of service completion, pass through bounded
//! admission queues with load shedding, timeout/retry and graceful
//! degradation. See the [`openloop`](crate::openloop) module.
//!
//! # Example
//!
//! ```
//! use relmem_core::system::{RowEffect, ScanSource, SystemConfig};
//! use relmem_core::workload::{QueryStream, Workload, WorkloadOp};
//! use relmem_core::{AccessPath, System};
//! use relmem_sim::SimTime;
//! use relmem_storage::{DataGen, MvccConfig, Schema};
//!
//! let mut sys = System::with_config(SystemConfig { cores: 2, ..SystemConfig::default() });
//! let schema = Schema::benchmark(4, 4, 64);
//! let mut table = sys.create_table(schema, 5_000, MvccConfig::Disabled).unwrap();
//! DataGen::new(1).fill_table(sys.mem_mut(), &mut table, 5_000).unwrap();
//!
//! // Core 0: an analytical scan. Core 1: transactional point traffic.
//! let columns = [0usize];
//! let workload = Workload::new(vec![
//!     QueryStream::new(vec![WorkloadOp::olap(ScanSource::Rows {
//!         table: &table,
//!         columns: &columns,
//!         snapshot: None,
//!     })]),
//!     QueryStream::new(vec![
//!         WorkloadOp::PointLookup { table: &table, columns: &columns, row: 17 },
//!         WorkloadOp::PointUpdate { table: &table, row: 17, column: 0, value: 99 },
//!         WorkloadOp::PointLookup { table: &table, columns: &columns, row: 17 },
//!     ]),
//! ]);
//! sys.begin_measurement(AccessPath::DirectRowWise);
//! let run = sys
//!     .run_workload(&workload, SimTime::ZERO, |_core, _op, _row, _values| {
//!         RowEffect::default()
//!     })
//!     .expect("workload fits the system");
//! assert_eq!(run.streams.len(), 2);
//! assert_eq!(run.streams[0].ops[0].rows, 5_000);
//! assert_eq!(run.oltp_latencies().count(), 3);
//! ```

use std::fmt;
use std::ops::Range;

use relmem_cache::HierarchyStats;
use relmem_sim::{LatencyProfile, SimTime, TraceEvent, TraceEventKind, Track, TxnStats};
use relmem_storage::{ColumnType, RowTable, Snapshot, Timestamp, Value};

use crate::stepper::ScanJob;
use crate::system::{DramBackend, RowEffect, ScanSource, System};
use crate::txn::{ActiveTxn, TxnAbort, TxnOp, TxnSpec};

/// A workload (or open-loop traffic) configuration the system cannot run.
///
/// Every condition here used to be a panic (or an internal `expect`)
/// reachable from public configuration; [`System::run_workload`] and
/// [`System::run_open_loop`](crate::openloop) validate everything upfront
/// and return one of these instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadError {
    /// More streams than the system has cores (stream `i` runs on core
    /// `i`; there is no oversubscription model).
    TooManyStreams {
        /// Streams in the workload.
        streams: usize,
        /// Cores the system simulates.
        cores: usize,
    },
    /// A point op addresses a row outside its table.
    RowOutOfRange {
        /// Stream holding the op.
        stream: usize,
        /// Op index within the stream (template index for open-loop).
        op: usize,
        /// The offending row.
        row: u64,
        /// Rows the table holds.
        rows: u64,
    },
    /// An op names a column the schema does not have.
    ColumnOutOfRange {
        /// Stream holding the op.
        stream: usize,
        /// Op index within the stream.
        op: usize,
        /// The offending column index.
        column: usize,
        /// Columns in the schema.
        columns: usize,
    },
    /// A [`WorkloadOp::PointUpdate`] targets a non-`UInt` column.
    NonUIntUpdate {
        /// Stream holding the op.
        stream: usize,
        /// Op index within the stream.
        op: usize,
        /// The offending column index.
        column: usize,
    },
    /// A [`WorkloadOp::PointDelete`] targets a table without MVCC headers.
    MvccRequired {
        /// Stream holding the op.
        stream: usize,
        /// Op index within the stream.
        op: usize,
    },
    /// An open-loop stream's arrival rate is zero, negative or non-finite.
    InvalidArrivalRate {
        /// The offending stream.
        stream: usize,
    },
    /// An open-loop stream generates arrivals but has no ops to inject.
    EmptyTemplate {
        /// The offending stream.
        stream: usize,
    },
    /// A [`TxnOp::Insert`] carries a value that does not fit its column.
    InsertValueOverflow {
        /// Stream holding the op.
        stream: usize,
        /// Op index within the stream.
        op: usize,
        /// The overflowed column index.
        column: usize,
    },
    /// The admission queue capacity is zero (nothing could ever be
    /// admitted).
    ZeroQueueCapacity,
    /// A degradation policy's low watermark exceeds its high watermark.
    InvalidWatermarks {
        /// Queue depth that counts as pressure.
        high: usize,
        /// Queue depth that counts as calm.
        low: usize,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WorkloadError::TooManyStreams { streams, cores } => write!(
                f,
                "workload has {streams} streams but the system only has {cores} cores"
            ),
            WorkloadError::RowOutOfRange {
                stream,
                op,
                row,
                rows,
            } => write!(
                f,
                "stream {stream} op {op} addresses row {row} of a {rows}-row table"
            ),
            WorkloadError::ColumnOutOfRange {
                stream,
                op,
                column,
                columns,
            } => write!(
                f,
                "stream {stream} op {op} names column {column} of a {columns}-column schema"
            ),
            WorkloadError::NonUIntUpdate { stream, op, column } => write!(
                f,
                "stream {stream} op {op} updates column {column}, which is not a UInt column"
            ),
            WorkloadError::MvccRequired { stream, op } => write!(
                f,
                "stream {stream} op {op} deletes from a table without MVCC headers"
            ),
            WorkloadError::InsertValueOverflow { stream, op, column } => write!(
                f,
                "stream {stream} op {op} inserts a value that overflows column {column}"
            ),
            WorkloadError::InvalidArrivalRate { stream } => write!(
                f,
                "open-loop stream {stream} needs a positive, finite arrival rate"
            ),
            WorkloadError::EmptyTemplate { stream } => write!(
                f,
                "open-loop stream {stream} generates arrivals but its op template is empty"
            ),
            WorkloadError::ZeroQueueCapacity => {
                write!(f, "admission queue capacity must be at least 1")
            }
            WorkloadError::InvalidWatermarks { high, low } => write!(
                f,
                "degradation low watermark {low} exceeds high watermark {high}"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// One operation of a per-core query stream.
///
/// Ops hold only shared references and copyable payloads, so they are
/// `Copy` — the open-loop driver re-injects the same template op for every
/// arrival.
#[derive(Clone, Copy)]
pub enum WorkloadOp<'a> {
    /// An analytical scan over any [`ScanSource`]. With `stream_snapshot`
    /// set and a row source, the scan reads under the stream's *current*
    /// snapshot (the latest [`TakeSnapshot`](WorkloadOp::TakeSnapshot))
    /// instead of the snapshot embedded in the source.
    OlapScan {
        /// What to scan.
        source: ScanSource<'a>,
        /// Replace a row source's snapshot with the stream's current one.
        stream_snapshot: bool,
    },
    /// A transactional point read of the named columns of one row. Checks
    /// MVCC visibility under the stream's current snapshot when the table
    /// is versioned and a snapshot was taken.
    PointLookup {
        /// The row-major base table.
        table: &'a RowTable,
        /// Column indices to read.
        columns: &'a [usize],
        /// Row to read.
        row: u64,
    },
    /// A transactional in-place update of one (unsigned-integer) field of
    /// the row-oriented base data.
    PointUpdate {
        /// The row-major base table.
        table: &'a RowTable,
        /// Row to update.
        row: u64,
        /// Column to overwrite (must be a `UInt` column).
        column: usize,
        /// New value (masked to the column width).
        value: u64,
    },
    /// A transactional delete: ends the row's current version at `ts`
    /// (requires an MVCC table).
    PointDelete {
        /// The row-major base table.
        table: &'a RowTable,
        /// Row to delete.
        row: u64,
        /// End timestamp of the version.
        ts: Timestamp,
    },
    /// Sets the stream's current snapshot to read at `ts`. Takes no
    /// simulated time — acquiring a read timestamp is a counter increment
    /// on real MVCC systems.
    TakeSnapshot {
        /// Read timestamp of the snapshot.
        ts: Timestamp,
    },
    /// A multi-row transaction: reads execute immediately, write intents
    /// buffer and apply atomically at commit under first-updater-wins
    /// conflict detection. See the [`txn`](crate::txn) module.
    Txn {
        /// The transaction template.
        spec: &'a TxnSpec<'a>,
    },
}

impl<'a> WorkloadOp<'a> {
    /// An OLAP scan using the snapshot embedded in the source (if any).
    pub fn olap(source: ScanSource<'a>) -> Self {
        WorkloadOp::OlapScan {
            source,
            stream_snapshot: false,
        }
    }

    /// Which [`OpKind`] this op reports as.
    pub fn kind(&self) -> OpKind {
        match self {
            WorkloadOp::OlapScan { .. } => OpKind::OlapScan,
            WorkloadOp::PointLookup { .. } => OpKind::PointLookup,
            WorkloadOp::PointUpdate { .. } => OpKind::PointUpdate,
            WorkloadOp::PointDelete { .. } => OpKind::PointDelete,
            WorkloadOp::TakeSnapshot { .. } => OpKind::TakeSnapshot,
            WorkloadOp::Txn { .. } => OpKind::TxnCommit,
        }
    }

    /// Checks the op against its tables' schemas: rows in range, columns
    /// present, updates target `UInt` columns, deletes require MVCC.
    /// `stream`/`op` only label the error. Running a validated op cannot
    /// hit the storage layer's internal error paths.
    pub(crate) fn validate(&self, stream: usize, op: usize) -> Result<(), WorkloadError> {
        let check_row = |table: &RowTable, row: u64| {
            if row >= table.num_rows() {
                Err(WorkloadError::RowOutOfRange {
                    stream,
                    op,
                    row,
                    rows: table.num_rows(),
                })
            } else {
                Ok(())
            }
        };
        let check_columns = |count: usize, columns: &[usize]| {
            for &column in columns {
                if column >= count {
                    return Err(WorkloadError::ColumnOutOfRange {
                        stream,
                        op,
                        column,
                        columns: count,
                    });
                }
            }
            Ok(())
        };
        match *self {
            WorkloadOp::OlapScan { source, .. } => match source {
                ScanSource::Rows { table, columns, .. } => {
                    check_columns(table.schema().num_columns(), columns)
                }
                ScanSource::Columnar { table, columns } => {
                    check_columns(table.schema().num_columns(), columns)
                }
                ScanSource::Ephemeral { .. } => Ok(()),
            },
            WorkloadOp::PointLookup {
                table,
                columns,
                row,
            } => {
                check_row(table, row)?;
                check_columns(table.schema().num_columns(), columns)
            }
            WorkloadOp::PointUpdate {
                table, row, column, ..
            } => {
                check_row(table, row)?;
                check_columns(table.schema().num_columns(), &[column])?;
                match table.schema().column(column) {
                    Ok(def) if matches!(def.ty, ColumnType::UInt(_)) => Ok(()),
                    _ => Err(WorkloadError::NonUIntUpdate { stream, op, column }),
                }
            }
            WorkloadOp::PointDelete { table, row, .. } => {
                check_row(table, row)?;
                if table.mvcc().is_enabled() {
                    Ok(())
                } else {
                    Err(WorkloadError::MvccRequired { stream, op })
                }
            }
            WorkloadOp::TakeSnapshot { .. } => Ok(()),
            WorkloadOp::Txn { spec } => {
                for top in &spec.ops {
                    // Reads, updates and deletes are held to the checks of
                    // the flat point ops whose bodies they run.
                    let point = match *top {
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
                        TxnOp::Delete { table, row } => {
                            WorkloadOp::PointDelete { table, row, ts: 0 }
                        }
                        TxnOp::Insert {
                            table,
                            columnar,
                            values,
                        } => {
                            let columns = table.schema().num_columns();
                            if values.len() != columns
                                || columnar
                                    .is_some_and(|ct| ct.schema().num_columns() != values.len())
                            {
                                return Err(WorkloadError::ColumnOutOfRange {
                                    stream,
                                    op,
                                    column: values.len(),
                                    columns,
                                });
                            }
                            for (column, &value) in values.iter().enumerate() {
                                let Ok(def) = table.schema().column(column) else {
                                    continue;
                                };
                                if !Value::UInt(value).compatible_with(def.ty) {
                                    return Err(WorkloadError::InsertValueOverflow {
                                        stream,
                                        op,
                                        column,
                                    });
                                }
                            }
                            continue;
                        }
                    };
                    point.validate(stream, op)?;
                }
                Ok(())
            }
        }
    }
}

/// One core's query stream: operations executed in order.
pub struct QueryStream<'a> {
    /// The operations, executed front to back.
    pub ops: Vec<WorkloadOp<'a>>,
}

impl<'a> QueryStream<'a> {
    /// A stream running `ops` in order.
    pub fn new(ops: Vec<WorkloadOp<'a>>) -> Self {
        QueryStream { ops }
    }

    /// A stream with no work (its core stays idle).
    pub fn empty() -> Self {
        QueryStream { ops: Vec::new() }
    }
}

/// A mixed workload: stream `i` runs on core `i`.
pub struct Workload<'a> {
    /// Per-core streams. May be shorter than the core count (the remaining
    /// cores idle) but never longer.
    pub streams: Vec<QueryStream<'a>>,
}

impl<'a> Workload<'a> {
    /// A workload of the given per-core streams.
    pub fn new(streams: Vec<QueryStream<'a>>) -> Self {
        Workload { streams }
    }
}

/// Classification of a finished operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Analytical scan.
    OlapScan,
    /// Transactional point read.
    PointLookup,
    /// Transactional in-place update.
    PointUpdate,
    /// Transactional delete.
    PointDelete,
    /// Snapshot acquisition (zero-time).
    TakeSnapshot,
    /// A multi-row transaction that committed.
    TxnCommit,
    /// A transaction that aborted on a write-write conflict
    /// (first-updater-wins).
    TxnAbortConflict,
    /// A transaction shed at commit (insert capacity exhausted) or — in
    /// open-loop accounting — dropped before execution.
    TxnAbortShed,
}

impl OpKind {
    /// Whether the op counts as OLTP for latency reporting. Aborted
    /// transactions are excluded — they never delivered a result, so
    /// their (shorter) latency would flatter the tail.
    pub fn is_oltp(&self) -> bool {
        matches!(
            self,
            OpKind::PointLookup | OpKind::PointUpdate | OpKind::PointDelete | OpKind::TxnCommit
        )
    }
}

/// One finished operation of a stream.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// Index of the op in its stream.
    pub op: usize,
    /// What kind of op it was.
    pub kind: OpKind,
    /// Local time the op started.
    pub start: SimTime,
    /// Local time the op completed.
    pub end: SimTime,
    /// Rows processed (scan rows, or 1 / 0 for point ops depending on
    /// MVCC visibility).
    pub rows: u64,
}

impl OpOutcome {
    /// End-to-end latency of the op.
    pub fn latency(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// One stream's (= one core's) results.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The core the stream ran on.
    pub core: usize,
    /// Per-op outcomes, in stream order.
    pub ops: Vec<OpOutcome>,
    /// The stream's completion time.
    pub end: SimTime,
    /// CPU time the stream charged.
    pub cpu: SimTime,
    /// Rows the stream processed across all its ops.
    pub rows: u64,
    /// The core's cache counters for the whole measurement window,
    /// including its share of shared-L2 contention delay.
    pub cache: HierarchyStats,
}

/// Outcome of a [`System::run_workload`] call.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Completion of the slowest stream (the workload's makespan).
    pub end: SimTime,
    /// Total CPU time across streams.
    pub cpu: SimTime,
    /// Total rows processed across streams.
    pub rows: u64,
    /// Per-stream results, indexed by core.
    pub streams: Vec<StreamReport>,
    /// Transaction accounting for the run (all zero when the workload
    /// holds no [`WorkloadOp::Txn`] ops). Satisfies
    /// `begun == committed + aborted_conflict + aborted_shed`.
    pub txn: TxnStats,
    /// Every transaction abort of the run, in abort order — deterministic
    /// for a given workload and platform.
    pub txn_aborts: Vec<TxnAbort>,
}

impl WorkloadRun {
    /// Latency samples of every OLTP op (point lookups, updates, deletes)
    /// across all streams — feed into p50/p99 queries.
    pub fn oltp_latencies(&self) -> LatencyProfile {
        let mut profile = LatencyProfile::new();
        for stream in &self.streams {
            for op in &stream.ops {
                if op.kind.is_oltp() {
                    profile.push(op.latency());
                }
            }
        }
        profile
    }

    /// Total rows scanned by OLAP ops across all streams.
    pub fn olap_rows(&self) -> u64 {
        self.streams
            .iter()
            .flat_map(|s| s.ops.iter())
            .filter(|o| o.kind == OpKind::OlapScan)
            .map(|o| o.rows)
            .sum()
    }
}

/// A stream's in-progress OLAP scan over rows `next_row..end_row` of its
/// job (the whole source, or one core's shard of a sharded scan).
pub(crate) struct ActiveScan<'a> {
    job: ScanJob<'a>,
    next_row: u64,
    end_row: u64,
    rows_scanned: u64,
    op: usize,
    start: SimTime,
}

/// Per-stream scheduler state: one lane of the interleaver. A sharded scan
/// holds one per core, each scanning its shard; the open-loop scheduler
/// ([`crate::openloop`]) wraps one per core. The data path (clock, CPU
/// charge, snapshot, active scan) is identical in every mode.
pub(crate) struct StreamState<'a, 'w> {
    pub(crate) ops: &'w [WorkloadOp<'a>],
    /// Next op to start (ops before it are finished or active). The
    /// open-loop driver leaves this at 0 and feeds ops explicitly.
    pub(crate) next_op: usize,
    pub(crate) active: Option<ActiveScan<'a>>,
    /// The stream's in-progress transaction, if any (a stream runs at
    /// most one at a time; scans and transactions never overlap).
    pub(crate) active_txn: Option<ActiveTxn<'a>>,
    pub(crate) now: SimTime,
    pub(crate) cpu: SimTime,
    pub(crate) rows: u64,
    pub(crate) snapshot: Option<Snapshot>,
    pub(crate) values: Vec<u64>,
    pub(crate) outcomes: Vec<OpOutcome>,
}

impl<'a, 'w> StreamState<'a, 'w> {
    /// A fresh stream over `ops` with its clock at `start`.
    pub(crate) fn fresh(ops: &'w [WorkloadOp<'a>], start: SimTime) -> Self {
        StreamState {
            ops,
            next_op: 0,
            active: None,
            active_txn: None,
            now: start,
            cpu: SimTime::ZERO,
            rows: 0,
            snapshot: None,
            values: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Whether a scan or transaction is in progress.
    pub(crate) fn busy(&self) -> bool {
        self.active.is_some() || self.active_txn.is_some()
    }

    pub(crate) fn finished(&self) -> bool {
        !self.busy() && self.next_op >= self.ops.len()
    }

    /// The Reorganization-Buffer frame holding the stream's next unit, if
    /// that unit is a row of an ephemeral (RME) scan.
    pub(crate) fn next_frame(&self) -> Option<u64> {
        let a = self.active.as_ref()?;
        a.job.frame_rows().map(|fr| a.next_row / fr)
    }

    /// Makes `rows` of `job` the stream's active scan, labelled `op`.
    pub(crate) fn begin_scan(&mut self, job: ScanJob<'a>, rows: Range<u64>, op: usize) {
        self.values.resize(job.num_columns(), 0);
        self.values.fill(0);
        self.active = Some(ActiveScan {
            job,
            next_row: rows.start,
            end_row: rows.end,
            rows_scanned: 0,
            op,
            start: self.now,
        });
    }
}

impl System {
    /// Runs a mixed HTAP workload: stream `i` of `workload` executes on
    /// core `i`, all streams concurrently in simulated time under
    /// deterministic min-clock interleaving (see the module docs).
    ///
    /// `observer` is invoked as `(core, op_index, row, values)` for every
    /// row an OLAP scan produces and for every point lookup/update (with
    /// the read — or written — values); its [`RowEffect`] models the
    /// downstream work (aggregation CPU, an extra memory touch). It is not
    /// called for [`WorkloadOp::TakeSnapshot`], point deletes or rows
    /// invisible under the governing snapshot.
    ///
    /// # Errors
    /// Returns a [`WorkloadError`] — before any simulated work runs — if
    /// the workload has more streams than the system has cores, a point op
    /// addresses a row outside its table, an op names a column the schema
    /// does not have, a [`WorkloadOp::PointUpdate`] targets a non-`UInt`
    /// column, or a [`WorkloadOp::PointDelete`] targets a table without
    /// MVCC headers.
    pub fn run_workload<F>(
        &mut self,
        workload: &Workload<'_>,
        start: SimTime,
        mut observer: F,
    ) -> Result<WorkloadRun, WorkloadError>
    where
        F: FnMut(usize, usize, u64, &[u64]) -> RowEffect,
    {
        self.check_stream_count(workload.streams.len())?;
        for (i, stream) in workload.streams.iter().enumerate() {
            for (j, op) in stream.ops.iter().enumerate() {
                op.validate(i, j)?;
            }
        }
        self.txn_rt.reset(false);
        let mut lanes: Vec<StreamState<'_, '_>> = workload
            .streams
            .iter()
            .map(|stream| StreamState::fresh(&stream.ops, start))
            .collect();
        let totals = self.interleave(&mut lanes, |sys, core, st, bound| {
            sys.step_stream(core, st, bound, &mut observer)
        });
        let streams = lanes
            .into_iter()
            .enumerate()
            .map(|(core, st)| StreamReport {
                core,
                ops: st.outcomes,
                end: st.now,
                cpu: st.cpu,
                rows: st.rows,
                cache: *self.cores[core].stats(),
            })
            .collect();
        let (txn, txn_aborts) = self.txn_rt.take_results();
        Ok(WorkloadRun {
            end: totals.end,
            cpu: totals.cpu,
            rows: totals.rows,
            streams,
            txn,
            txn_aborts,
        })
    }

    /// Advances one stream by one unit: rows of the active scan up to
    /// `bound` (see [`step_scan`](Self::step_scan)), a unit of the active
    /// transaction, or one whole point op. Zero-time units (scan start,
    /// empty scan, `TakeSnapshot`) leave the clock untouched.
    fn step_stream<F>(
        &mut self,
        core: usize,
        st: &mut StreamState<'_, '_>,
        bound: Option<SimTime>,
        observer: &mut F,
    ) where
        F: FnMut(usize, usize, u64, &[u64]) -> RowEffect,
    {
        // The in-progress scan, if any.
        if self.step_scan(core, st, bound, observer) {
            return;
        }
        // One unit of the in-progress transaction, if any.
        if self.step_txn_unit(core, st, observer) {
            return;
        }

        // Otherwise start/execute the next op. Copy the op out so its
        // borrows don't pin `st` itself.
        let op_idx = st.next_op;
        st.next_op += 1;
        let op = st.ops[op_idx];
        self.start_op(core, st, op_idx, op, observer);
    }

    /// Records a finished op: its outcome in the stream, and a span on its
    /// core's trace track (arg0 = op ordinal in its stream, arg1 = rows
    /// touched). Per-core op servicing is sequential, so these spans never
    /// overlap.
    #[inline(always)]
    pub(crate) fn record_op(&mut self, core: usize, st: &mut StreamState<'_, '_>, out: OpOutcome) {
        let (op, rows, start, end) = (out.op as u64, out.rows, out.start, out.end);
        self.tracer.emit(|| {
            TraceEvent::span(
                Track::Core(core as u32),
                TraceEventKind::OpSpan,
                start,
                end,
                op,
                rows,
            )
        });
        st.outcomes.push(out);
    }

    /// Advances the stream's active scan, recording the [`OpOutcome`] when
    /// the scan completes: by its next row and the rows after it that
    /// start before `bound`, or — when `bound` is `None`, the stream's lane
    /// being alone — by all its remaining rows, fast-forwarding a whole
    /// scan over its periodic steady state where it has one. Returns
    /// `false` — and does nothing — if no scan is active.
    pub(crate) fn step_scan<F>(
        &mut self,
        core: usize,
        st: &mut StreamState<'_, '_>,
        bound: Option<SimTime>,
        observer: &mut F,
    ) -> bool
    where
        F: FnMut(usize, usize, u64, &[u64]) -> RowEffect,
    {
        let Some(active) = &mut st.active else {
            return false;
        };
        let rows = active.next_row..active.end_row;
        let op = active.op;
        let per_row = &mut |r, v: &[u64]| observer(core, op, r, v);
        let job = &active.job;
        let period = (bound.is_none() && rows == (0..job.rows()))
            .then(|| self.steady_state_period(job))
            .flatten();
        let (now, cpu, scanned, next) = match period {
            Some(period) => {
                let end = rows.end;
                let (now, cpu, scanned) =
                    self.scan_periodic(job, &period, core, st.now, &mut st.values, per_row);
                (now, cpu, scanned, end)
            }
            None => job.step_rows(
                self.parts(),
                core,
                rows,
                bound,
                st.now,
                &mut st.values,
                per_row,
            ),
        };
        active.next_row = next;
        st.now = now;
        st.cpu += cpu;
        active.rows_scanned += scanned;
        st.rows += scanned;
        if active.next_row >= active.end_row {
            let outcome = OpOutcome {
                op: active.op,
                kind: OpKind::OlapScan,
                start: active.start,
                end: st.now,
                rows: active.rows_scanned,
            };
            st.active = None;
            self.record_op(core, st, outcome);
        }
        true
    }

    /// Starts (scans, transactions) or executes (point ops, snapshots)
    /// `op`, labelling its outcome `op_idx`. Scans with rows and
    /// transactions become the stream's active work; every other op
    /// completes within the call and records its [`OpOutcome`].
    pub(crate) fn start_op<'a, F>(
        &mut self,
        core: usize,
        st: &mut StreamState<'a, '_>,
        op_idx: usize,
        op: WorkloadOp<'a>,
        observer: &mut F,
    ) where
        F: FnMut(usize, usize, u64, &[u64]) -> RowEffect,
    {
        let start = st.now;
        let rows = match op {
            WorkloadOp::OlapScan {
                mut source,
                stream_snapshot,
            } => {
                if stream_snapshot {
                    if let ScanSource::Rows { snapshot, .. } = &mut source {
                        *snapshot = st.snapshot;
                    }
                }
                let job = self.scan_job(&source);
                if job.rows() > 0 {
                    let rows = 0..job.rows();
                    st.begin_scan(job, rows, op_idx);
                    return;
                }
                0
            }
            WorkloadOp::PointLookup {
                table,
                columns,
                row,
            } => self.point_lookup(core, st, op_idx, table, columns, row, observer),
            WorkloadOp::PointUpdate {
                table,
                row,
                column,
                value,
            } => {
                self.point_update(core, st, op_idx, table, row, column, value, observer);
                1
            }
            WorkloadOp::PointDelete { table, row, ts } => {
                self.point_delete(core, st, table, row, ts);
                1
            }
            WorkloadOp::TakeSnapshot { ts } => {
                st.snapshot = Some(Snapshot::at(ts));
                0
            }
            WorkloadOp::Txn { spec } => {
                // Zero-time begin; subsequent units execute the ops and
                // the commit (see `step_txn_unit`).
                self.begin_txn(core, st, op_idx, spec, 0);
                return;
            }
        };
        let outcome = OpOutcome {
            op: op_idx,
            kind: op.kind(),
            start,
            end: st.now,
            rows,
        };
        self.record_op(core, st, outcome);
    }

    /// One cache read — or, with `write`, a write-allocate cache write
    /// that marks its L2 lines dirty — of `bytes` at `addr` by an op on
    /// `core`, issued at the stream's clock, which moves to its completion.
    pub(crate) fn op_access(
        &mut self,
        core: usize,
        st: &mut StreamState<'_, '_>,
        addr: u64,
        bytes: usize,
        write: bool,
    ) {
        let mut backend = DramBackend {
            dram: &mut self.dram,
            line_bytes: self.cfg.l1.line_bytes,
            core,
        };
        let front = &mut self.cores[core];
        let out = if write {
            front.write(addr, bytes, st.now, &mut self.l2, &mut backend)
        } else {
            front.access(addr, bytes, st.now, &mut self.l2, &mut backend)
        };
        st.now = out.completion;
    }

    /// The MVCC step of a point op: one access to the row's 16-byte version
    /// header (a write when the op rewrites it), then the visibility-check
    /// CPU cost.
    pub(crate) fn header_access(
        &mut self,
        core: usize,
        st: &mut StreamState<'_, '_>,
        table: &RowTable,
        row: u64,
        write: bool,
    ) {
        self.op_access(core, st, table.row_addr(row), 16, write);
        st.now += self.cost.visibility();
        st.cpu += self.cost.visibility();
    }

    /// Hands a point op's first `fields` values of `row` to the observer and
    /// charges the per-field CPU cost plus the observer's [`RowEffect`].
    fn observe_point<F>(
        &mut self,
        core: usize,
        st: &mut StreamState<'_, '_>,
        op_idx: usize,
        row: u64,
        fields: usize,
        observer: &mut F,
    ) where
        F: FnMut(usize, usize, u64, &[u64]) -> RowEffect,
    {
        let effect = observer(core, op_idx, row, &st.values[..fields]);
        let cpu = self.cost.fields(fields) + effect.cpu;
        st.now += cpu;
        st.cpu += cpu;
        if let Some((addr, bytes)) = effect.touch {
            self.op_access(core, st, addr, bytes, false);
        }
        st.rows += 1;
    }

    /// A point read: optional MVCC visibility check under the stream's
    /// snapshot, then one cache access per projected field. Returns the
    /// rows read (0 when the row is invisible). Shared with the
    /// transaction layer ([`TxnOp::Read`] is this exact body).
    #[allow(clippy::too_many_arguments)] // private scheduler helper
    pub(crate) fn point_lookup<F>(
        &mut self,
        core: usize,
        st: &mut StreamState<'_, '_>,
        op_idx: usize,
        table: &RowTable,
        columns: &[usize],
        row: u64,
        observer: &mut F,
    ) -> u64
    where
        F: FnMut(usize, usize, u64, &[u64]) -> RowEffect,
    {
        if table.mvcc().is_enabled() {
            if let Some(snap) = st.snapshot {
                self.header_access(core, st, table, row, false);
                if !table.visible(&self.mem, row, snap).unwrap_or(false) {
                    return 0;
                }
            }
        }
        st.values.resize(columns.len(), 0);
        for (slot, &col) in columns.iter().enumerate() {
            let addr = table.field_addr(row, col).expect("row in range");
            let width = table.schema().width(col).expect("valid column");
            self.op_access(core, st, addr, width, false);
            st.values[slot] = self.mem.read_uint(addr, width.min(8));
        }
        self.observe_point(core, st, op_idx, row, columns.len(), observer);
        1
    }

    /// An in-place field update: one cache write (timing) plus the actual
    /// store into physical memory, so later readers — including the RME's
    /// packing — see the new value. Shared with the transaction layer
    /// ([`TxnOp::Update`] intents apply this exact body at commit).
    #[allow(clippy::too_many_arguments)] // private scheduler helper
    pub(crate) fn point_update<F>(
        &mut self,
        core: usize,
        st: &mut StreamState<'_, '_>,
        op_idx: usize,
        table: &RowTable,
        row: u64,
        column: usize,
        value: u64,
        observer: &mut F,
    ) where
        F: FnMut(usize, usize, u64, &[u64]) -> RowEffect,
    {
        let addr = table.field_addr(row, column).expect("row in range");
        let width = table.schema().width(column).expect("valid column");
        let masked = if width >= 8 {
            value
        } else {
            value & ((1u64 << (8 * width)) - 1)
        };
        self.op_access(core, st, addr, width, true);
        table
            .write_field(&mut self.mem, row, column, &Value::UInt(masked))
            .expect("point updates target UInt columns");
        st.values.resize(1, 0);
        st.values[0] = masked;
        self.observe_point(core, st, op_idx, row, 1, observer);
    }

    /// A delete: one cache write of the 16-byte version header plus the
    /// actual header store ending the version at `ts`. Shared with the
    /// transaction layer ([`TxnOp::Delete`] intents apply this body at
    /// commit, with `ts` the commit timestamp).
    pub(crate) fn point_delete(
        &mut self,
        core: usize,
        st: &mut StreamState<'_, '_>,
        table: &RowTable,
        row: u64,
        ts: Timestamp,
    ) {
        self.header_access(core, st, table, row, true);
        table
            .mark_deleted(&mut self.mem, row, ts)
            .expect("point deletes require an MVCC table and a row in range");
        st.rows += 1;
    }
}
