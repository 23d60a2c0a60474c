//! Wall-time attribution of the scan miss path (the `miss-profile` feature).
//!
//! The scan hot loop spends its time in a handful of per-line phases —
//! the L1 tag walk, prefetcher training, prefetch-side L2 bookkeeping,
//! the demand L2 walk and the backend (DRAM/RME) booking — and which
//! lever is worth pulling depends entirely on how the ~tens of
//! nanoseconds split between them. This module measures that split with
//! scoped phase guards placed in `hierarchy.rs`.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when the feature is off.** Every entry point compiles
//!    to nothing; the guards are unit structs.
//! 2. **Near-zero cost when compiled in but disabled.** Each guard costs
//!    one relaxed atomic load and a predictable branch. Benchmarks keep
//!    the feature compiled (so one binary produces both the headline
//!    numbers and the breakdown) but only enable it for a dedicated
//!    attribution rep.
//! 3. **Honest numbers when enabled.** Phases are measured with the TSC
//!    (`rdtsc` on x86_64, `Instant` elsewhere) in *self time*: entering a
//!    nested phase suspends the parent, so the backend booking inside a
//!    prefetch issue is charged to the backend, not double-counted. The
//!    guard overhead itself is calibrated with an empty-guard loop at
//!    report time and subtracted per phase boundary, and the report
//!    carries the calibration alongside the shares so the subtraction is
//!    inspectable rather than silent.
//!
//! The profiler is thread-local: each thread attributes its own work.
//! The simulator's measured scans are single-threaded, which is the only
//! use this is built for.

/// The measured phases of one cache-hierarchy access walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// L1 tag walk + MRU install (`Cache::probe_else_fill`).
    L1Walk = 0,
    /// Stream-prefetcher training (`StreamPrefetcher::train`).
    PrefetchTrain = 1,
    /// Prefetch-side L2 bookkeeping: bank booking, tag walk, pending-fill
    /// insert and MSHR booking for issued prefetches (excluding the
    /// nested backend fill, which is charged to [`Phase::BackendFill`]).
    PrefetchIssue = 2,
    /// Demand-side L2 walk: bank booking, tag walk, pending-fill removal
    /// and MSHR booking (again excluding the nested backend fill).
    L2Walk = 3,
    /// Backend line fills — DRAM occupancy booking or RME service — for
    /// both demand misses and prefetches.
    BackendFill = 4,
}

/// Number of phases (length of the accumulator arrays).
pub const NUM_PHASES: usize = 5;

/// Phase names, indexed by `Phase as usize`; stable keys for reports.
pub const PHASE_NAMES: [&str; NUM_PHASES] = [
    "l1_tag_walk",
    "prefetch_train",
    "prefetch_issue",
    "l2_walk",
    "backend_fill",
];

/// One phase's accumulated self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseReport {
    /// Attributed self time in seconds, guard overhead subtracted.
    pub seconds: f64,
    /// Raw attributed self time in seconds, before the overhead
    /// subtraction.
    pub raw_seconds: f64,
    /// Number of times the phase was entered.
    pub entries: u64,
}

/// A full attribution report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Per-phase self times, indexed like [`PHASE_NAMES`].
    pub phases: [PhaseReport; NUM_PHASES],
    /// Estimated cost of one guard enter/exit pair in seconds (the
    /// calibration subtracted from each phase entry).
    pub guard_overhead_seconds: f64,
}

impl ProfileReport {
    /// Total attributed (overhead-corrected) seconds across phases.
    pub fn attributed_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.seconds).sum()
    }
}

#[cfg(feature = "miss-profile")]
mod imp {
    use super::{NUM_PHASES, Phase, PhaseReport, ProfileReport};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Whether guards record anything. Relaxed is enough: the flag is
    /// flipped between measurement passes, never concurrently with them.
    static ENABLED: AtomicBool = AtomicBool::new(false);

    thread_local! {
        /// Self-time tick accumulator per phase.
        static TICKS: [Cell<u64>; NUM_PHASES] = Default::default();
        /// Entry count per phase.
        static ENTRIES: [Cell<u64>; NUM_PHASES] = Default::default();
        /// The phase currently being charged (`usize::MAX` = outside any
        /// phase, i.e. charged to the caller's "other" remainder).
        static CURRENT: Cell<usize> = const { Cell::new(usize::MAX) };
        /// Tick of the last phase boundary.
        static LAST_SWITCH: Cell<u64> = const { Cell::new(0) };
    }

    /// Monotonic tick source: the TSC where available, `Instant`
    /// nanoseconds elsewhere. Ticks are converted to seconds through
    /// [`calibrate_tick_seconds`], so the unit never leaks.
    #[inline(always)]
    fn ticks() -> u64 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: RDTSC is unprivileged and side-effect-free.
        unsafe {
            core::arch::x86_64::_rdtsc()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            use std::time::Instant;
            thread_local! {
                static EPOCH: Instant = Instant::now();
            }
            EPOCH.with(|e| e.elapsed().as_nanos() as u64)
        }
    }

    /// Charges the span since the last boundary to the current phase and
    /// makes `next` current. Returns the previous phase index.
    #[inline]
    fn switch_to(next: usize) -> usize {
        let now = ticks();
        let prev = CURRENT.with(|c| c.replace(next));
        let last = LAST_SWITCH.with(|l| l.replace(now));
        if prev != usize::MAX {
            TICKS.with(|t| {
                let cell = &t[prev];
                cell.set(cell.get().wrapping_add(now.wrapping_sub(last)));
            });
        }
        prev
    }

    /// Scoped guard charging its lifetime (minus nested guards) to one
    /// phase.
    pub struct PhaseGuard {
        /// Phase to restore on drop; `usize::MAX - 1` marks an inert
        /// guard created while profiling was disabled.
        prev: usize,
    }

    const INERT: usize = usize::MAX - 1;

    impl Drop for PhaseGuard {
        #[inline]
        fn drop(&mut self) {
            if self.prev != INERT {
                switch_to(self.prev);
            }
        }
    }

    /// Whether recording is currently enabled. Hot callers branch on this
    /// once and take a guard-free code path when it is off, instead of
    /// paying one atomic load per guard site.
    #[inline(always)]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Enters `phase` (self-time accounting) until the guard drops.
    #[inline]
    pub fn phase(phase: Phase) -> PhaseGuard {
        if !ENABLED.load(Ordering::Relaxed) {
            return PhaseGuard { prev: INERT };
        }
        let idx = phase as usize;
        ENTRIES.with(|e| {
            let cell = &e[idx];
            cell.set(cell.get() + 1);
        });
        PhaseGuard {
            prev: switch_to(idx),
        }
    }

    /// Turns recording on or off (off by default).
    pub fn set_enabled(on: bool) {
        if on {
            // Restart the boundary clock so a span from a previous
            // session is never charged across the gap.
            CURRENT.with(|c| c.set(usize::MAX));
            LAST_SWITCH.with(|l| l.set(ticks()));
        }
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Clears the current thread's accumulators.
    pub fn reset() {
        TICKS.with(|t| t.iter().for_each(|c| c.set(0)));
        ENTRIES.with(|e| e.iter().for_each(|c| c.set(0)));
        CURRENT.with(|c| c.set(usize::MAX));
        LAST_SWITCH.with(|l| l.set(ticks()));
    }

    /// Seconds per tick, measured against `Instant` over a short busy
    /// wait (the TSC frequency is not architecturally discoverable).
    fn calibrate_tick_seconds() -> f64 {
        use std::time::Instant;
        let wall_start = Instant::now();
        let t0 = ticks();
        // ~2 ms busy wait: long enough to swamp both clocks' read costs.
        while wall_start.elapsed().as_micros() < 2_000 {
            std::hint::spin_loop();
        }
        let dt = ticks().wrapping_sub(t0);
        let secs = wall_start.elapsed().as_secs_f64();
        if dt == 0 { 0.0 } else { secs / dt as f64 }
    }

    /// Measures the self-time cost of one empty guard pair, in ticks.
    fn calibrate_guard_ticks() -> f64 {
        const N: u64 = 200_000;
        reset();
        set_enabled(true);
        for _ in 0..N {
            let _g = phase(Phase::L1Walk);
        }
        set_enabled(false);
        let ticks = TICKS.with(|t| t[Phase::L1Walk as usize].get());
        ticks as f64 / N as f64
    }

    /// Produces the report for the current thread's accumulated phases,
    /// with per-entry guard overhead calibrated and subtracted. Clears
    /// nothing; call [`reset`] to start a fresh session.
    pub fn report() -> ProfileReport {
        let snapshot_ticks: Vec<u64> = TICKS.with(|t| t.iter().map(Cell::get).collect());
        let snapshot_entries: Vec<u64> = ENTRIES.with(|e| e.iter().map(Cell::get).collect());
        let tick_secs = calibrate_tick_seconds();
        let guard_ticks = calibrate_guard_ticks();
        // Calibration ran through the accumulators; restore the snapshot.
        TICKS.with(|t| {
            for (cell, &v) in t.iter().zip(&snapshot_ticks) {
                cell.set(v);
            }
        });
        ENTRIES.with(|e| {
            for (cell, &v) in e.iter().zip(&snapshot_entries) {
                cell.set(v);
            }
        });
        let mut phases = [PhaseReport::default(); NUM_PHASES];
        for (i, out) in phases.iter_mut().enumerate() {
            let raw = snapshot_ticks[i] as f64 * tick_secs;
            let overhead = guard_ticks * snapshot_entries[i] as f64 * tick_secs;
            *out = PhaseReport {
                seconds: (raw - overhead).max(0.0),
                raw_seconds: raw,
                entries: snapshot_entries[i],
            };
        }
        ProfileReport {
            phases,
            guard_overhead_seconds: guard_ticks * tick_secs,
        }
    }
}

#[cfg(not(feature = "miss-profile"))]
mod imp {
    use super::{Phase, ProfileReport};

    /// Inert guard; the compiler erases it entirely.
    pub struct PhaseGuard;

    /// No-op without the `miss-profile` feature.
    #[inline(always)]
    pub fn phase(_phase: Phase) -> PhaseGuard {
        PhaseGuard
    }

    /// Always false without the `miss-profile` feature.
    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    /// No-op without the `miss-profile` feature.
    pub fn set_enabled(_on: bool) {}

    /// No-op without the `miss-profile` feature.
    pub fn reset() {}

    /// Empty report without the `miss-profile` feature.
    pub fn report() -> ProfileReport {
        ProfileReport::default()
    }
}

pub use imp::{PhaseGuard, enabled, phase, report, reset, set_enabled};

#[cfg(all(test, feature = "miss-profile"))]
mod tests {
    use std::sync::{Mutex, MutexGuard};

    use super::*;

    /// Both tests write the process-global recording flag and counters,
    /// and the harness runs tests in parallel, so each holds this lock.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        // A failed test poisons the lock; the other test may still run.
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_guards_record_nothing() {
        let _serial = serial();
        reset();
        set_enabled(false);
        for _ in 0..100 {
            let _g = phase(Phase::L2Walk);
        }
        let r = report();
        assert_eq!(r.phases[Phase::L2Walk as usize].entries, 0);
        assert_eq!(r.phases[Phase::L2Walk as usize].raw_seconds, 0.0);
    }

    #[test]
    fn nested_phases_attribute_self_time() {
        let _serial = serial();
        reset();
        set_enabled(true);
        {
            let _outer = phase(Phase::PrefetchIssue);
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = phase(Phase::BackendFill);
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        set_enabled(false);
        let r = report();
        let outer = r.phases[Phase::PrefetchIssue as usize];
        let inner = r.phases[Phase::BackendFill as usize];
        assert_eq!(outer.entries, 1);
        assert_eq!(inner.entries, 1);
        // Each phase holds its own ~4 ms, not the nested sum.
        assert!(outer.seconds > 0.002 && outer.seconds < 0.008, "{outer:?}");
        assert!(inner.seconds > 0.002 && inner.seconds < 0.008, "{inner:?}");
        reset();
    }
}
