//! Lightweight statistics helpers.
//!
//! [`LatencyProfile`] summarises per-operation latency samples into the
//! percentiles the HTAP workload harness reports (OLTP p50/p99 under
//! concurrent analytical scans).

use crate::time::SimTime;

/// A collection of per-operation latency samples with percentile queries.
///
/// Used by the workload layer to report OLTP tail latencies: each point
/// query contributes one sample, and the harness asks for p50/p99. Samples
/// are kept as exact [`SimTime`] values so summaries stay deterministic.
///
/// ```
/// use relmem_sim::{LatencyProfile, SimTime};
///
/// let mut lat = LatencyProfile::new();
/// for ns in [10u64, 20, 30, 40, 50] {
///     lat.push(SimTime::from_nanos(ns));
/// }
/// assert_eq!(lat.count(), 5);
/// assert_eq!(lat.p50(), SimTime::from_nanos(30));
/// assert_eq!(lat.p99(), SimTime::from_nanos(50));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyProfile {
    samples: Vec<SimTime>,
    sorted: bool,
}

impl LatencyProfile {
    /// An empty profile.
    pub fn new() -> Self {
        LatencyProfile {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one latency sample.
    pub fn push(&mut self, latency: SimTime) {
        self.samples.push(latency);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The `p`-th percentile (`0.0 ..= 1.0`) using the nearest-rank method,
    /// or [`SimTime::ZERO`] when no samples were recorded.
    pub fn percentile(&mut self, p: f64) -> SimTime {
        if self.samples.is_empty() {
            return SimTime::ZERO;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.samples.len() as f64).ceil() as usize).max(1);
        self.samples[rank - 1]
    }

    /// Median latency.
    pub fn p50(&mut self) -> SimTime {
        self.percentile(0.50)
    }

    /// 99th-percentile latency.
    pub fn p99(&mut self) -> SimTime {
        self.percentile(0.99)
    }

    /// 99.9th-percentile latency — the tail the open-loop overload
    /// experiments report. Nearest-rank like every other percentile, so on
    /// fewer than 1000 samples this is simply the maximum.
    pub fn p999(&mut self) -> SimTime {
        self.percentile(0.999)
    }

    /// Largest sample (or zero when empty).
    pub fn max(&mut self) -> SimTime {
        self.percentile(1.0)
    }

    /// Mean latency in nanoseconds (0 when empty) — for throughput-style
    /// summaries next to the percentiles.
    pub fn mean_nanos(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.as_nanos_f64()).sum::<f64>() / self.samples.len() as f64
    }

    /// The raw samples, in insertion order until a percentile query sorts
    /// them. Exposed so determinism tests can compare whole profiles.
    pub fn samples(&self) -> &[SimTime] {
        &self.samples
    }
}

impl FromIterator<SimTime> for LatencyProfile {
    fn from_iter<T: IntoIterator<Item = SimTime>>(iter: T) -> Self {
        let mut profile = LatencyProfile::new();
        for s in iter {
            profile.push(s);
        }
        profile
    }
}

/// One recorded graceful-degradation transition of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeTransition {
    /// Simulated time of the transition.
    pub at: SimTime,
    /// `true`: the system entered the degraded mode (OLAP ops switch to
    /// their downgraded form); `false`: pressure cleared and the system
    /// restored the normal paths.
    pub degraded: bool,
}

/// Admission-control counters of one open-loop run.
///
/// Kept here (next to [`LatencyProfile`]) so every layer that reports
/// overload behaviour — the workload scheduler, the figure harness, the
/// tests — shares a single definition. The counters satisfy
///
/// ```text
/// arrivals + retries == admitted + shed_queue_full
/// admitted          == completed + shed_deadline + timed_out_in_queue
/// ```
///
/// where `timed_out_in_queue` is the portion of [`timed_out`](Self::timed_out)
/// whose client deadline expired before service started (the scheduler
/// drops those at dequeue instead of doing wasted work).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// First-admission attempts presented by the arrival process.
    pub arrivals: u64,
    /// Retry attempts presented (timed-out ops re-entering the queue).
    pub retries: u64,
    /// Attempts that entered an admission queue (first + retry).
    pub admitted: u64,
    /// Attempts rejected because the queue was at capacity.
    pub shed_queue_full: u64,
    /// Admitted ops dropped at dequeue because their queueing delay
    /// exceeded the configured budget.
    pub shed_deadline: u64,
    /// Client-visible timeouts: ops whose end-to-end latency exceeded the
    /// per-op timeout, whether the deadline expired in the queue or during
    /// service.
    pub timed_out: u64,
    /// Attempts serviced to completion (including ones that completed past
    /// their client timeout — wasted work the server still performed).
    pub completed: u64,
    /// Ops serviced through their downgraded form while the system was in
    /// the degraded state.
    pub degraded_ops: u64,
    /// Largest admission-queue depth observed on any core.
    pub max_queue_depth: u64,
    /// Every graceful-degradation transition, in simulated-time order.
    pub transitions: Vec<DegradeTransition>,
}

impl OverloadStats {
    /// Total ops shed (queue-full rejections plus deadline drops).
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline
    }

    /// Fraction of presented attempts that were shed (`0.0` when nothing
    /// arrived).
    pub fn shed_rate(&self) -> f64 {
        let presented = self.arrivals + self.retries;
        if presented == 0 {
            0.0
        } else {
            self.shed() as f64 / presented as f64
        }
    }
}

/// Transaction-layer counters of one workload or open-loop run.
///
/// Kept here (next to [`OverloadStats`]) so the closed-loop scheduler, the
/// open-loop scheduler, the figure harness and the tests all share one
/// definition. The counters satisfy the accounting identity
///
/// ```text
/// begun == committed + aborted_conflict + aborted_shed
/// ```
///
/// checked by [`is_consistent`](Self::is_consistent): every transaction
/// attempt that begins either commits, aborts on a first-updater-wins
/// write-write conflict, or is abandoned by the system (a commit that ran
/// out of table capacity, or an open-loop template shed before service).
/// A retried transaction counts as a fresh attempt in `begun`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transaction attempts started (each retry counts again).
    pub begun: u64,
    /// Attempts that committed and published their write intents.
    pub committed: u64,
    /// Attempts aborted by first-updater-wins conflict detection.
    pub aborted_conflict: u64,
    /// Attempts abandoned by the system rather than by a data conflict:
    /// commit-time capacity exhaustion, or open-loop admission shedding.
    pub aborted_shed: u64,
    /// Rows published by committed inserts (row + columnar appends each
    /// count the rows they added).
    pub rows_inserted: u64,
}

impl TxnStats {
    /// `true` when the accounting identity
    /// `begun == committed + aborted_conflict + aborted_shed` holds.
    pub fn is_consistent(&self) -> bool {
        self.begun == self.committed + self.aborted_conflict + self.aborted_shed
    }

    /// Fraction of attempts that aborted on a conflict (`0.0` when no
    /// transaction began).
    pub fn conflict_abort_rate(&self) -> f64 {
        if self.begun == 0 {
            0.0
        } else {
            self.aborted_conflict as f64 / self.begun as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let mut lat = LatencyProfile::new();
        assert_eq!(lat.p99(), SimTime::ZERO);
        for ns in (1..=100u64).rev() {
            lat.push(SimTime::from_nanos(ns));
        }
        assert_eq!(lat.count(), 100);
        assert_eq!(lat.p50(), SimTime::from_nanos(50));
        assert_eq!(lat.p99(), SimTime::from_nanos(99));
        assert_eq!(lat.max(), SimTime::from_nanos(100));
        assert_eq!(lat.percentile(0.0), SimTime::from_nanos(1));
        assert!((lat.mean_nanos() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_reports_zero_everywhere() {
        let mut lat = LatencyProfile::new();
        assert_eq!(lat.count(), 0);
        assert_eq!(lat.p50(), SimTime::ZERO);
        assert_eq!(lat.p99(), SimTime::ZERO);
        assert_eq!(lat.p999(), SimTime::ZERO);
        assert_eq!(lat.max(), SimTime::ZERO);
        assert_eq!(lat.percentile(0.0), SimTime::ZERO);
        assert_eq!(lat.mean_nanos(), 0.0);
        assert!(lat.samples().is_empty());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut lat = LatencyProfile::new();
        lat.push(SimTime::from_nanos(42));
        for p in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(lat.percentile(p), SimTime::from_nanos(42), "p = {p}");
        }
        assert!((lat.mean_nanos() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn p999_nearest_rank_on_small_counts() {
        // Nearest rank: rank = ceil(0.999 * n). For n < 1000 that is n
        // (the maximum); at n = 1000 it first drops below the maximum,
        // to rank 999 (0.999 * 1000 rounds to 999 in f64).
        let fill = |n: u64| -> LatencyProfile { (1..=n).map(SimTime::from_nanos).collect() };
        assert_eq!(fill(10).p999(), SimTime::from_nanos(10));
        assert_eq!(fill(100).p999(), SimTime::from_nanos(100));
        assert_eq!(fill(999).p999(), SimTime::from_nanos(999));
        assert_eq!(fill(1000).p999(), SimTime::from_nanos(999));
        assert_eq!(fill(1001).p999(), SimTime::from_nanos(1000));
        // And the rounding never exceeds the maximum.
        assert_eq!(fill(3).p999(), fill(3).max());
    }

    #[test]
    fn overload_stats_shed_accounting() {
        let mut o = OverloadStats::default();
        assert_eq!(o.shed(), 0);
        assert_eq!(o.shed_rate(), 0.0);
        o.arrivals = 90;
        o.retries = 10;
        o.shed_queue_full = 4;
        o.shed_deadline = 1;
        assert_eq!(o.shed(), 5);
        assert!((o.shed_rate() - 0.05).abs() < 1e-12);
        o.transitions.push(DegradeTransition {
            at: SimTime::from_nanos(7),
            degraded: true,
        });
        assert_eq!(o.clone(), o, "OverloadStats compares structurally");
    }

    #[test]
    fn txn_stats_accounting_identity() {
        let mut t = TxnStats::default();
        assert!(t.is_consistent());
        assert_eq!(t.conflict_abort_rate(), 0.0);
        t.begun = 10;
        t.committed = 7;
        t.aborted_conflict = 2;
        t.aborted_shed = 1;
        t.rows_inserted = 3;
        assert!(t.is_consistent());
        assert!((t.conflict_abort_rate() - 0.2).abs() < 1e-12);
        t.committed = 8;
        assert!(!t.is_consistent(), "a double-counted commit must be caught");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Nearest-rank percentiles are monotone in `p` for any sample
            /// set: p50 ≤ p99 ≤ p99.9 ≤ max.
            #[test]
            fn percentiles_are_monotone(
                samples in proptest::collection::vec(0u64..1_000_000_000, 1..400)
            ) {
                let mut lat: LatencyProfile =
                    samples.into_iter().map(SimTime::from_nanos).collect();
                let p50 = lat.p50();
                let p99 = lat.p99();
                let p999 = lat.p999();
                let max = lat.max();
                prop_assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
                prop_assert!(p99 <= p999, "p99 {p99} > p99.9 {p999}");
                prop_assert!(p999 <= max, "p99.9 {p999} > max {max}");
            }
        }
    }
}
