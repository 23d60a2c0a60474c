//! Open-loop traffic with admission control and graceful degradation.
//!
//! [`System::run_workload`](crate::System::run_workload) is *closed-loop*:
//! each stream issues its next op the instant the previous one completes,
//! so offered load always equals service capacity and the system can never
//! fall behind. Production traffic is open-loop — requests arrive on their
//! own schedule, independent of completions — and the behaviour that
//! matters for robustness (the saturation knee, queueing-dominated p99.9,
//! what gets *shed* when the system cannot keep up) only exists there.
//!
//! This module adds that mode on top of the exact same per-unit machinery
//! the closed-loop scheduler uses:
//!
//! * [`ArrivalProcess`] — a deterministic pseudo-Poisson process
//!   (exponential inter-arrival gaps via inverse-CDF over the vendored
//!   xoshiro256** generator) that injects template [`WorkloadOp`]s into
//!   **bounded per-core admission queues** in simulated time.
//! * Admission control — **reject-on-full** at arrival,
//!   **deadline-based load shedding** (an op whose queueing delay exceeds
//!   [`AdmissionConfig::delay_budget`] is dropped at dequeue, no retry) and
//!   a **client timeout with bounded retry** (an op still queued past
//!   [`AdmissionConfig::timeout`] is abandoned; the client re-submits after
//!   an exponential backoff, up to [`AdmissionConfig::max_retries`] times;
//!   retries re-enter the queue and are counted separately from first
//!   arrivals). The timeout is checked before the delay budget: a client
//!   that gave up takes precedence over the server dropping the op.
//!   Service is never preempted — an op that starts executing runs to
//!   completion; timeouts and sheds apply only while queued.
//! * Graceful degradation — under sustained pressure (a shed event, or
//!   admission-queue depth at/above
//!   [`DegradePolicy::high_watermark`], observed `trigger_after` times in
//!   a row) the run enters *degraded mode*: every subsequent op that
//!   carries a cheaper alternative ([`OpenLoopOp::degraded`] — typically
//!   an OLAP scan downgraded from the direct path to the RME path, which
//!   PR 3 showed leaves OLTP tails unharmed) executes the alternative
//!   instead. `clear_after` consecutive calm observations (no shed, depth
//!   at/below `low_watermark`) restore normal mode. Every transition is
//!   recorded with its timestamp in [`OverloadStats::transitions`].
//!
//! # Accounting identities
//!
//! [`OverloadStats`] satisfies, at the end of every run:
//!
//! ```text
//! arrivals + retries == admitted + shed_queue_full
//! admitted          == completed + shed_deadline + timed_out
//! ```
//!
//! # Determinism
//!
//! Everything is deterministic: arrivals come from a seeded generator, the
//! interleaver is the closed-loop scheduler's own frame-aware min-clock
//! loop (an idle core's key is its next arrival time), and ties break to
//! the lowest core index. Identical seeds and configuration produce
//! identical [`OverloadStats`], latency profiles and data-path counters.
//! At low rates (queues never fill, nothing sheds or times out) an
//! open-loop stream executes the *same op sequence* as the equivalent
//! closed-loop stream — `tests/cross_path_equivalence.rs` proves by
//! proptest that the data-path counters match bit for bit.

use std::collections::VecDeque;

use rand::{rngs::StdRng, RngCore, SeedableRng};
use relmem_cache::HierarchyStats;
use relmem_sim::{
    DegradeTransition, LatencyProfile, OverloadStats, SimTime, TraceEvent, TraceEventKind, Tracer,
    Track, TxnStats,
};

use crate::interleave::Lane;
use crate::system::{RowEffect, System};
use crate::txn::TxnAbort;
use crate::workload::{OpKind, StreamState, WorkloadError, WorkloadOp};

/// A deterministic pseudo-Poisson arrival process.
///
/// Inter-arrival gaps are exponentially distributed with mean `1 / rate`,
/// drawn by inverse CDF from the workspace's vendored xoshiro256**
/// generator — fully determined by the seed, stable across runs. Gaps are
/// floored at one picosecond so arrivals are strictly increasing.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    rng: StdRng,
    mean_gap_ns: f64,
}

impl ArrivalProcess {
    /// A Poisson process of `rate_ops_per_s` arrivals per simulated
    /// second, seeded with `seed`.
    ///
    /// # Panics
    /// Panics if the rate is not positive and finite —
    /// [`System::run_open_loop`] validates stream rates upfront and
    /// returns [`WorkloadError::InvalidArrivalRate`] instead.
    pub fn poisson(rate_ops_per_s: f64, seed: u64) -> Self {
        assert!(
            rate_ops_per_s.is_finite() && rate_ops_per_s > 0.0,
            "arrival rate must be positive and finite"
        );
        ArrivalProcess {
            rng: StdRng::seed_from_u64(seed),
            mean_gap_ns: 1e9 / rate_ops_per_s,
        }
    }

    /// Draws the next inter-arrival gap (always at least one picosecond).
    pub fn next_gap(&mut self) -> SimTime {
        // 53 random bits give u uniform in [0, 1); 1 - u is in (0, 1] so
        // the log is finite and the gap non-negative.
        let u = (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let gap_ns = -(1.0 - u).ln() * self.mean_gap_ns;
        SimTime::from_nanos_f64(gap_ns).max(SimTime::from_picos(1))
    }
}

/// One template op of an open-loop stream, with an optional cheaper
/// alternative to run in degraded mode.
#[derive(Clone, Copy)]
pub struct OpenLoopOp<'a> {
    /// The op as issued under normal operation.
    pub op: WorkloadOp<'a>,
    /// The degraded-mode substitute (typically the same scan through the
    /// RME path instead of the direct path). `None` means the op runs
    /// unchanged even in degraded mode.
    pub degraded: Option<WorkloadOp<'a>>,
}

impl<'a> OpenLoopOp<'a> {
    /// An op with no degraded alternative.
    pub fn new(op: WorkloadOp<'a>) -> Self {
        OpenLoopOp { op, degraded: None }
    }

    /// An op that executes `degraded` instead while the run is in
    /// degraded mode.
    pub fn with_degraded(op: WorkloadOp<'a>, degraded: WorkloadOp<'a>) -> Self {
        OpenLoopOp {
            op,
            degraded: Some(degraded),
        }
    }
}

/// One core's open-loop traffic: `arrivals` ops drawn round-robin from the
/// `ops` template, arriving at `rate_ops_per_s`.
pub struct OpenLoopStream<'a> {
    /// Template ops; arrival `i` injects `ops[i % ops.len()]`.
    pub ops: Vec<OpenLoopOp<'a>>,
    /// Mean arrival rate in operations per simulated second.
    pub rate_ops_per_s: f64,
    /// Total arrivals the stream generates (the run ends when every
    /// stream's arrivals, retries and queues have drained).
    pub arrivals: u64,
}

impl<'a> OpenLoopStream<'a> {
    /// A stream injecting `arrivals` ops from `ops` at `rate_ops_per_s`.
    pub fn new(ops: Vec<OpenLoopOp<'a>>, rate_ops_per_s: f64, arrivals: u64) -> Self {
        OpenLoopStream {
            ops,
            rate_ops_per_s,
            arrivals,
        }
    }

    /// A stream generating no traffic (its core stays idle).
    pub fn idle() -> Self {
        OpenLoopStream {
            ops: Vec::new(),
            rate_ops_per_s: 1.0,
            arrivals: 0,
        }
    }
}

/// Open-loop traffic for the whole system: stream `i` targets core `i`.
pub struct OpenLoopWorkload<'a> {
    /// Per-core streams. May be shorter than the core count (the rest
    /// idle) but never longer.
    pub streams: Vec<OpenLoopStream<'a>>,
}

impl<'a> OpenLoopWorkload<'a> {
    /// A workload of the given per-core streams.
    pub fn new(streams: Vec<OpenLoopStream<'a>>) -> Self {
        OpenLoopWorkload { streams }
    }
}

/// Watermark-based hysteresis controlling graceful degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Queue depth that counts as pressure (a shed event always does).
    pub high_watermark: usize,
    /// Queue depth at/below which an observation counts as calm.
    pub low_watermark: usize,
    /// Consecutive pressure observations before entering degraded mode.
    pub trigger_after: u32,
    /// Consecutive calm observations before restoring normal mode.
    pub clear_after: u32,
}

/// Admission-control policy for [`System::run_open_loop`].
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Seed for the per-stream arrival processes (stream `i` derives its
    /// own independent stream from this).
    pub seed: u64,
    /// Bounded admission-queue capacity per core; arrivals beyond it are
    /// rejected (`shed_queue_full`). Must be at least 1.
    pub queue_capacity: usize,
    /// Maximum queueing delay before the *system* sheds the op at dequeue
    /// (`shed_deadline`, never retried). `None` disables shedding.
    pub delay_budget: Option<SimTime>,
    /// Maximum queueing delay before the *client* abandons the op
    /// (`timed_out`) and — attempts permitting — re-submits it. `None`
    /// disables timeouts (and therefore retries).
    pub timeout: Option<SimTime>,
    /// Retry attempts per op after its first submission.
    pub max_retries: u32,
    /// Base backoff: retry `k` (1-based) of an op arriving at `t` is
    /// re-submitted at `t + timeout + retry_backoff · 2^(k-1)`.
    pub retry_backoff: SimTime,
    /// Graceful-degradation policy; `None` never degrades.
    pub degrade: Option<DegradePolicy>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            seed: 0,
            queue_capacity: 64,
            delay_budget: None,
            timeout: None,
            max_retries: 0,
            retry_backoff: SimTime::ZERO,
            degrade: None,
        }
    }
}

/// One completed open-loop op.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopOutcome {
    /// Index into the stream's op template.
    pub template: usize,
    /// What kind of op ran.
    pub kind: OpKind,
    /// When this attempt of the op arrived (retries carry their
    /// re-submission time).
    pub arrival: SimTime,
    /// When the op left the queue and started executing.
    pub start: SimTime,
    /// When the op completed.
    pub end: SimTime,
    /// Rows processed.
    pub rows: u64,
    /// 0 for a first submission, `k` for the `k`-th retry.
    pub attempt: u32,
    /// Whether the degraded-mode alternative ran instead of the op.
    pub degraded: bool,
}

impl OpenLoopOutcome {
    /// End-to-end latency the client observed: queueing plus service.
    pub fn latency(&self) -> SimTime {
        self.end.saturating_sub(self.arrival)
    }

    /// Time the op spent queued before service.
    pub fn queue_delay(&self) -> SimTime {
        self.start.saturating_sub(self.arrival)
    }
}

/// One core's open-loop results.
#[derive(Debug, Clone)]
pub struct OpenLoopStreamReport {
    /// The core the stream ran on.
    pub core: usize,
    /// Completed ops in completion order (shed and abandoned attempts do
    /// not appear here — they are counted in [`OverloadStats`]).
    pub outcomes: Vec<OpenLoopOutcome>,
    /// The core's local clock when it drained.
    pub end: SimTime,
    /// CPU time the core charged.
    pub cpu: SimTime,
    /// Rows processed on the core.
    pub rows: u64,
    /// The core's cache counters for the whole measurement window.
    pub cache: HierarchyStats,
}

/// Outcome of a [`System::run_open_loop`] call.
#[derive(Debug, Clone)]
pub struct OpenLoopRun {
    /// Drain time of the slowest core.
    pub end: SimTime,
    /// Total CPU time across cores.
    pub cpu: SimTime,
    /// Total rows processed.
    pub rows: u64,
    /// Per-core results.
    pub streams: Vec<OpenLoopStreamReport>,
    /// Admission-control accounting for the whole run.
    pub overload: OverloadStats,
    /// Transaction accounting for the run (all zero without
    /// [`WorkloadOp::Txn`] templates). Submissions dropped before
    /// execution — queue-full, deadline shed, final timeout — count as
    /// `begun` *and* `aborted_shed`, keeping the identity
    /// `begun == committed + aborted_conflict + aborted_shed`.
    pub txn: TxnStats,
    /// Every transaction abort that reached execution, in abort order.
    pub txn_aborts: Vec<TxnAbort>,
}

impl OpenLoopRun {
    /// End-to-end (arrival → completion) latencies of every completed op.
    pub fn latencies(&self) -> LatencyProfile {
        self.streams
            .iter()
            .flat_map(|s| s.outcomes.iter())
            .map(|o| o.latency())
            .collect()
    }

    /// Queueing delays (arrival → service start) of every completed op.
    pub fn queue_delays(&self) -> LatencyProfile {
        self.streams
            .iter()
            .flat_map(|s| s.outcomes.iter())
            .map(|o| o.queue_delay())
            .collect()
    }

    /// End-to-end latencies of completed OLTP ops only.
    pub fn oltp_latencies(&self) -> LatencyProfile {
        self.streams
            .iter()
            .flat_map(|s| s.outcomes.iter())
            .filter(|o| o.kind.is_oltp())
            .map(|o| o.latency())
            .collect()
    }
}

/// One queued (or scheduled-to-retry) submission of a template op.
#[derive(Debug, Clone, Copy)]
struct Pending {
    template: usize,
    arrival: SimTime,
    attempt: u32,
}

/// The op currently in service on a core (only scans span steps).
struct Inflight {
    pending: Pending,
    degraded: bool,
}

/// Global degradation hysteresis (one state machine per run — degradation
/// is a system-wide mode switch, not a per-core one).
struct DegradeState {
    policy: Option<DegradePolicy>,
    degraded: bool,
    pressure_run: u32,
    calm_run: u32,
}

impl DegradeState {
    fn new(policy: Option<DegradePolicy>) -> Self {
        DegradeState {
            policy,
            degraded: false,
            pressure_run: 0,
            calm_run: 0,
        }
    }

    /// Feeds one admission/shed observation into the hysteresis, recording
    /// a transition in `stats` — and, mirrored at the exact same
    /// timestamp, a [`TraceEventKind::Degrade`] instant — when the mode
    /// flips.
    fn observe(
        &mut self,
        at: SimTime,
        shed: bool,
        depth: usize,
        stats: &mut OverloadStats,
        tracer: &mut Tracer,
    ) {
        let Some(p) = self.policy else {
            return;
        };
        if shed || depth >= p.high_watermark {
            self.pressure_run += 1;
            self.calm_run = 0;
        } else if depth <= p.low_watermark {
            self.calm_run += 1;
            self.pressure_run = 0;
        } else {
            // Between watermarks: neither pressure nor calm accumulates.
            self.pressure_run = 0;
            self.calm_run = 0;
        }
        if !self.degraded && self.pressure_run >= p.trigger_after.max(1) {
            self.pressure_run = 0;
        } else if self.degraded && self.calm_run >= p.clear_after.max(1) {
            self.calm_run = 0;
        } else {
            return;
        }
        self.degraded = !self.degraded;
        let degraded = self.degraded;
        stats.transitions.push(DegradeTransition { at, degraded });
        tracer.emit(|| {
            TraceEvent::instant(
                Track::System,
                TraceEventKind::Degrade,
                at,
                u64::from(degraded),
                0,
            )
        });
    }
}

/// Per-core open-loop scheduler state, wrapping the closed-loop
/// [`StreamState`] so both modes share the identical data path.
struct CoreState<'a, 'w> {
    st: StreamState<'a, 'w>,
    template: &'w [OpenLoopOp<'a>],
    arrivals: ArrivalProcess,
    /// First arrivals not yet injected.
    remaining: u64,
    /// Arrival time of the next first arrival (valid while `remaining > 0`).
    next_arrival: SimTime,
    /// Index (mod template length) of the next first arrival.
    arrival_index: u64,
    /// Scheduled retries, sorted by arrival time (stable for ties).
    retries: Vec<Pending>,
    /// The bounded admission queue.
    queue: VecDeque<Pending>,
    inflight: Option<Inflight>,
    outcomes: Vec<OpenLoopOutcome>,
}

impl Lane for CoreState<'_, '_> {
    /// The core's clock while it has work, its next arrival while idle,
    /// `None` once fully drained.
    fn ready_at(&self) -> Option<SimTime> {
        if self.st.busy() || !self.queue.is_empty() {
            Some(self.st.now)
        } else {
            self.next_event_time().map(|t| self.st.now.max(t))
        }
    }

    fn stream(&self) -> &StreamState<'_, '_> {
        &self.st
    }
}

impl CoreState<'_, '_> {
    /// Arrival time of the next un-admitted event (first arrival or
    /// retry), or `None` when the source has drained.
    fn next_event_time(&self) -> Option<SimTime> {
        let first = (self.remaining > 0).then_some(self.next_arrival);
        let retry = self.retries.first().map(|p| p.arrival);
        match (first, retry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Schedules the next attempt of `p` at `after` plus the exponential
    /// backoff `retry_backoff · 2^attempt`, keeping the list sorted by
    /// arrival time.
    fn schedule_retry(&mut self, p: Pending, after: SimTime, cfg: &AdmissionConfig) {
        let retry = Pending {
            template: p.template,
            arrival: after + cfg.retry_backoff.scaled(1u64 << p.attempt.min(20)),
            attempt: p.attempt + 1,
        };
        let at = self.retries.partition_point(|q| q.arrival <= retry.arrival);
        self.retries.insert(at, retry);
    }
}

impl System {
    /// Runs open-loop traffic: each stream's [`ArrivalProcess`] injects
    /// template ops into its core's bounded admission queue in simulated
    /// time, independent of service completion, under the admission /
    /// shedding / timeout-retry / degradation policy of `cfg` (see the
    /// [module docs](crate::openloop)). The run ends when every arrival
    /// and retry has been admitted, shed or abandoned and all queues have
    /// drained.
    ///
    /// `observer` is invoked exactly as in
    /// [`run_workload`](System::run_workload), with the *template index*
    /// as the op label.
    ///
    /// # Errors
    /// Returns a [`WorkloadError`] — before any simulated work runs — on
    /// more streams than cores, an invalid (non-positive or non-finite)
    /// arrival rate, a non-empty arrival count with an empty op template,
    /// a zero queue capacity, degradation watermarks with `low > high`,
    /// or any template op (or degraded alternative) that fails the same
    /// validation `run_workload` applies.
    pub fn run_open_loop<F>(
        &mut self,
        workload: &OpenLoopWorkload<'_>,
        cfg: &AdmissionConfig,
        start: SimTime,
        mut observer: F,
    ) -> Result<OpenLoopRun, WorkloadError>
    where
        F: FnMut(usize, usize, u64, &[u64]) -> RowEffect,
    {
        self.check_stream_count(workload.streams.len())?;
        if cfg.queue_capacity == 0 {
            return Err(WorkloadError::ZeroQueueCapacity);
        }
        if let Some(p) = cfg.degrade {
            if p.low_watermark > p.high_watermark {
                return Err(WorkloadError::InvalidWatermarks {
                    high: p.high_watermark,
                    low: p.low_watermark,
                });
            }
        }
        for (i, stream) in workload.streams.iter().enumerate() {
            if !(stream.rate_ops_per_s.is_finite() && stream.rate_ops_per_s > 0.0) {
                return Err(WorkloadError::InvalidArrivalRate { stream: i });
            }
            if stream.arrivals > 0 && stream.ops.is_empty() {
                return Err(WorkloadError::EmptyTemplate { stream: i });
            }
            for (j, op) in stream.ops.iter().enumerate() {
                op.op.validate(i, j)?;
                if let Some(alt) = &op.degraded {
                    alt.validate(i, j)?;
                }
            }
        }

        self.txn_rt.reset(true);
        let mut lanes: Vec<CoreState<'_, '_>> = workload
            .streams
            .iter()
            .enumerate()
            .map(|(i, stream)| {
                // Give every stream its own statistically independent
                // arrival stream derived from the one seed.
                let seed = cfg.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut arrivals = ArrivalProcess::poisson(stream.rate_ops_per_s, seed);
                let first = start + arrivals.next_gap();
                CoreState {
                    st: StreamState::fresh(&[], start),
                    template: &stream.ops,
                    arrivals,
                    remaining: stream.arrivals,
                    next_arrival: first,
                    arrival_index: 0,
                    retries: Vec::new(),
                    queue: VecDeque::new(),
                    inflight: None,
                    outcomes: Vec::new(),
                }
            })
            .collect();
        let mut stats = OverloadStats::default();
        let mut degrade = DegradeState::new(cfg.degrade);

        let totals = self.interleave(&mut lanes, |sys, core, cs, bound| {
            sys.step_open_core(
                core,
                cs,
                bound,
                cfg,
                &mut stats,
                &mut degrade,
                &mut observer,
            )
        });
        let streams = lanes
            .into_iter()
            .enumerate()
            .map(|(core, cs)| {
                debug_assert!(cs.st.outcomes.is_empty(), "every op outcome is consumed");
                OpenLoopStreamReport {
                    core,
                    outcomes: cs.outcomes,
                    end: cs.st.now,
                    cpu: cs.st.cpu,
                    rows: cs.st.rows,
                    cache: *self.cores[core].stats(),
                }
            })
            .collect();
        let (txn, txn_aborts) = self.txn_rt.take_results();
        Ok(OpenLoopRun {
            end: totals.end,
            cpu: totals.cpu,
            rows: totals.rows,
            streams,
            overload: stats,
            txn,
            txn_aborts,
        })
    }

    /// Advances one core by one unit: rows of its active scan up to
    /// `bound` (all its rows when `bound` is `None`, the core being alone),
    /// a unit of its active transaction, or one dequeue decision (shed /
    /// timeout / start an op). An idle core first advances its clock to the
    /// next arrival. Admissions are drained lazily — every event at or
    /// before the core's clock is admitted (or rejected) before the unit
    /// runs. Beside a live rival a run of rows therefore also stops before
    /// the core's next arrival or retry; alone, a scan never dequeues, so
    /// draining the arrivals of a whole-scan unit after it decides each of
    /// them as row-by-row draining would.
    #[allow(clippy::too_many_arguments)] // private scheduler helper
    fn step_open_core<'a, F>(
        &mut self,
        core: usize,
        cs: &mut CoreState<'a, '_>,
        bound: Option<SimTime>,
        cfg: &AdmissionConfig,
        stats: &mut OverloadStats,
        degrade: &mut DegradeState,
        observer: &mut F,
    ) where
        F: FnMut(usize, usize, u64, &[u64]) -> RowEffect,
    {
        // An idle core sleeps until its next arrival.
        if !cs.st.busy() && cs.queue.is_empty() {
            if let Some(t) = cs.next_event_time() {
                cs.st.now = cs.st.now.max(t);
            }
        }
        drain_admissions(
            cs,
            cfg,
            stats,
            degrade,
            &mut self.txn_rt.stats,
            core as u32,
            &mut self.tracer,
        );

        // The in-progress scan or one unit of the in-progress
        // transaction, if any; otherwise dequeue until something runs:
        // sheds and abandoned timeouts are pure bookkeeping and consume no
        // simulated time.
        let bound = bound.map(|b| cs.next_event_time().map_or(b, |t| b.min(t)));
        let stepped = self.step_scan(core, &mut cs.st, bound, observer)
            || self.step_txn_unit(core, &mut cs.st, observer);
        if !stepped {
            while let Some(p) = cs.queue.pop_front() {
                let waited = cs.st.now.saturating_sub(p.arrival);
                if let Some(timeout) = cfg.timeout {
                    if waited > timeout {
                        stats.timed_out += 1;
                        let (at, template, attempt) =
                            (cs.st.now, p.template as u64, u64::from(p.attempt));
                        self.tracer.emit(|| {
                            TraceEvent::instant(
                                Track::Core(core as u32),
                                TraceEventKind::OpTimeout,
                                at,
                                template,
                                attempt,
                            )
                        });
                        if p.attempt < cfg.max_retries {
                            cs.schedule_retry(p, p.arrival + timeout, cfg);
                        } else {
                            // The final attempt of a transaction template was
                            // abandoned before it could begin: account it as
                            // begun-and-shed so the txn identity holds.
                            account_txn_drop(cs, p.template, &mut self.txn_rt.stats);
                        }
                        continue;
                    }
                }
                if let Some(budget) = cfg.delay_budget {
                    if waited > budget {
                        stats.shed_deadline += 1;
                        account_txn_drop(cs, p.template, &mut self.txn_rt.stats);
                        let (at, template, delay) =
                            (cs.st.now, p.template as u64, waited.as_picos());
                        self.tracer.emit(|| {
                            TraceEvent::instant(
                                Track::Core(core as u32),
                                TraceEventKind::OpShedDeadline,
                                at,
                                template,
                                delay,
                            )
                        });
                        degrade.observe(cs.st.now, true, cs.queue.len(), stats, &mut self.tracer);
                        continue;
                    }
                }
                let tmpl = &cs.template[p.template];
                let degraded = degrade.degraded && tmpl.degraded.is_some();
                let op = if degraded {
                    tmpl.degraded.expect("checked above")
                } else {
                    tmpl.op
                };
                if degraded {
                    stats.degraded_ops += 1;
                }
                cs.inflight = Some(Inflight {
                    pending: p,
                    degraded,
                });
                self.start_op(core, &mut cs.st, p.template, op, observer);
                break;
            }
        }
        // The op in service completed in this unit: point ops, snapshots
        // and empty scans complete in the call that starts them. A
        // conflict abort frees the queue slot immediately; `finish_op`
        // reschedules it through the admission queue when retries remain.
        if cs.inflight.is_some() && !cs.st.busy() {
            finish_op(cs, cfg, stats);
        }
    }
}

/// Accounts an open-loop transaction submission dropped before execution
/// (queue-full rejection, deadline shed, or final timeout): it counts as
/// begun *and* shed so `begun == committed + aborted_conflict +
/// aborted_shed` holds for the run. Non-transaction templates are
/// untouched.
fn account_txn_drop(cs: &CoreState<'_, '_>, template: usize, txn: &mut TxnStats) {
    if matches!(cs.template[template].op, WorkloadOp::Txn { .. }) {
        txn.begun += 1;
        txn.aborted_shed += 1;
    }
}

/// Admits (or rejects) every pending arrival and retry at or before the
/// core's clock, feeding each observation into the degradation hysteresis.
#[allow(clippy::too_many_arguments)] // private scheduler helper
fn drain_admissions(
    cs: &mut CoreState<'_, '_>,
    cfg: &AdmissionConfig,
    stats: &mut OverloadStats,
    degrade: &mut DegradeState,
    txn: &mut TxnStats,
    core: u32,
    tracer: &mut Tracer,
) {
    loop {
        let first = (cs.remaining > 0).then_some(cs.next_arrival);
        let retry = cs.retries.first().map(|p| p.arrival);
        // Take the earlier event; ties go to the first arrival.
        let take_retry = match (first, retry) {
            (Some(a), Some(b)) => b < a,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => return,
        };
        let at = if take_retry {
            retry.expect("retry chosen")
        } else {
            first.expect("arrival chosen")
        };
        if at > cs.st.now {
            return;
        }
        let p = if take_retry {
            stats.retries += 1;
            cs.retries.remove(0)
        } else {
            stats.arrivals += 1;
            let template = (cs.arrival_index % cs.template.len() as u64) as usize;
            cs.arrival_index += 1;
            cs.remaining -= 1;
            let gap = cs.arrivals.next_gap();
            cs.next_arrival += gap;
            Pending {
                template,
                arrival: at,
                attempt: 0,
            }
        };
        let (template, attempt) = (p.template as u64, u64::from(p.attempt));
        tracer.emit(|| {
            TraceEvent::instant(
                Track::Core(core),
                TraceEventKind::OpArrival,
                at,
                template,
                attempt,
            )
        });
        if cs.queue.len() >= cfg.queue_capacity {
            stats.shed_queue_full += 1;
            account_txn_drop(cs, p.template, txn);
            tracer.emit(|| {
                TraceEvent::instant(
                    Track::Core(core),
                    TraceEventKind::OpShedQueueFull,
                    at,
                    template,
                    0,
                )
            });
            degrade.observe(at, true, cs.queue.len(), stats, tracer);
        } else {
            cs.queue.push_back(p);
            stats.admitted += 1;
            stats.max_queue_depth = stats.max_queue_depth.max(cs.queue.len() as u64);
            let depth = cs.queue.len() as u64;
            tracer.emit(|| {
                TraceEvent::instant(
                    Track::Core(core),
                    TraceEventKind::OpAdmitted,
                    at,
                    template,
                    depth,
                )
            });
            degrade.observe(at, false, cs.queue.len(), stats, tracer);
        }
    }
}

/// Converts the just-pushed closed-loop [`OpOutcome`](crate::OpOutcome)
/// into an [`OpenLoopOutcome`] for the in-flight submission.
///
/// A conflict-aborted transaction counts as *completed* service (the
/// attempt occupied the core and its outcome is recorded) but, attempts
/// permitting, its submission is rescheduled through the admission queue
/// with the same exponential backoff as client timeouts — re-entering as
/// a retry, so the overload identities keep holding.
fn finish_op(cs: &mut CoreState<'_, '_>, cfg: &AdmissionConfig, stats: &mut OverloadStats) {
    let inflight = cs.inflight.take().expect("an op was in flight");
    let out = cs.st.outcomes.pop().expect("the op pushed its outcome");
    stats.completed += 1;
    cs.outcomes.push(OpenLoopOutcome {
        template: inflight.pending.template,
        kind: out.kind,
        arrival: inflight.pending.arrival,
        start: out.start,
        end: out.end,
        rows: out.rows,
        attempt: inflight.pending.attempt,
        degraded: inflight.degraded,
    });
    if out.kind == OpKind::TxnAbortConflict && inflight.pending.attempt < cfg.max_retries {
        cs.schedule_retry(inflight.pending, cs.st.now, cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_gaps_are_deterministic_positive_and_mean_reverting() {
        let mut a = ArrivalProcess::poisson(1e6, 42);
        let mut b = ArrivalProcess::poisson(1e6, 42);
        let mut sum = SimTime::ZERO;
        for _ in 0..10_000 {
            let g = a.next_gap();
            assert_eq!(g, b.next_gap());
            assert!(g > SimTime::ZERO);
            sum += g;
        }
        // Mean gap of a 1M ops/s process is 1 µs; 10k samples put the
        // sample mean within a few percent of it.
        let mean_ns = sum.as_nanos_f64() / 10_000.0;
        assert!(
            (mean_ns - 1_000.0).abs() < 50.0,
            "mean gap {mean_ns} ns is not close to 1000 ns"
        );
        let mut c = ArrivalProcess::poisson(1e6, 43);
        assert_ne!(a.next_gap(), c.next_gap());
    }

    #[test]
    fn degradation_hysteresis_triggers_and_clears() {
        let mut stats = OverloadStats::default();
        let mut st = DegradeState::new(Some(DegradePolicy {
            high_watermark: 4,
            low_watermark: 1,
            trigger_after: 2,
            clear_after: 3,
        }));
        let mut tr = Tracer::new();
        // One pressure observation is not enough.
        st.observe(SimTime::from_nanos(1), true, 0, &mut stats, &mut tr);
        assert!(!st.degraded);
        // A calm observation in between resets the run.
        st.observe(SimTime::from_nanos(2), false, 0, &mut stats, &mut tr);
        st.observe(SimTime::from_nanos(3), false, 5, &mut stats, &mut tr);
        assert!(!st.degraded);
        st.observe(SimTime::from_nanos(4), true, 0, &mut stats, &mut tr);
        assert!(st.degraded, "two consecutive pressure events degrade");
        // Three consecutive calm observations clear it; a depth between
        // the watermarks counts as neither.
        st.observe(SimTime::from_nanos(5), false, 0, &mut stats, &mut tr);
        st.observe(SimTime::from_nanos(6), false, 2, &mut stats, &mut tr);
        st.observe(SimTime::from_nanos(7), false, 0, &mut stats, &mut tr);
        st.observe(SimTime::from_nanos(8), false, 1, &mut stats, &mut tr);
        assert!(st.degraded);
        st.observe(SimTime::from_nanos(9), false, 0, &mut stats, &mut tr);
        assert!(!st.degraded, "three consecutive calm events restore");
        assert_eq!(
            stats.transitions,
            vec![
                DegradeTransition {
                    at: SimTime::from_nanos(4),
                    degraded: true
                },
                DegradeTransition {
                    at: SimTime::from_nanos(9),
                    degraded: false
                },
            ]
        );
    }

    #[test]
    fn no_policy_never_degrades() {
        let mut stats = OverloadStats::default();
        let mut st = DegradeState::new(None);
        let mut tr = Tracer::new();
        for i in 0..100 {
            st.observe(SimTime::from_nanos(i), true, 1_000, &mut stats, &mut tr);
        }
        assert!(!st.degraded);
        assert!(stats.transitions.is_empty());
    }
}
