//! Periodic fast-forward of lone scans.
//!
//! A scan over a table far larger than the caches, the DRAM bank/XOR span
//! and the Reorganization Buffer settles into a periodic steady state. A
//! period is one Reorganization Buffer frame for an ephemeral scan and, for
//! a direct scan, `span / gcd(span, stride)` rows, where `span` is the lcm
//! of every model's address-translation period and `stride` the row stride
//! (row table) or the shared column width (columnar table); see
//! `ScanJob::period`. Once the timing state at the start of a period
//! equals the state at the start of the previous period — every address
//! moved by the period's byte span, every time by its duration (a
//! [`Shift`]) — each later period with the same per-row effects replays
//! the same timing, moved once more. When an interleaver lane with no live
//! rival runs a whole scan in one step ([`System::scan`] always does; see
//! `crate::interleave`), that step exploits this:
//!
//! 1. It steps periods as usual, and at chosen period starts clones the
//!    timing models (the lane core's frontend, the shared L2, the DRAM
//!    model and, for ephemeral scans, the RME) and records that period's
//!    clock and CPU deltas and its run-length-encoded [`RowEffect`]s.
//! 2. At the next period start it asks every model whether its state is the
//!    snapshot's moved by one period (`same_up_to_shift`).
//! 3. If so, every period but the last runs only its functional part: each
//!    row's values are gathered straight from source memory, the closure is
//!    called once per row in row order, and its effects are compared with
//!    the recorded ones. A matching period advances the clock, the CPU time
//!    and (through `shift`) every counter arithmetically. A diverging
//!    period is stepped for real, replaying the effects already returned,
//!    so the closure is never called twice for a row.
//! 4. The models are shifted by the number of skipped periods, and the last
//!    period is always stepped for real — which also refills the
//!    Reorganization Buffer with the last frame's real bytes.
//!
//! The first attempts run back to back — warm-up transients (the cold
//! first period, resource free times converging onto the period) settle
//! within a few periods — and later ones at doubling distances, so a scan
//! that never becomes periodic pays O(log periods) snapshots. Scans with a
//! recording tracer, in the reference stepping mode, with MVCC visibility,
//! a columnar projection of mixed widths, memory-touching effects or fewer
//! than four periods step every row; under the cycle-accurate DRAM model,
//! whose refresh grid never repeats up to a shift, no period is cut and
//! no snapshot taken.

use std::ops::Range;

use relmem_cache::{CoreFrontend, SharedL2};
use relmem_dram::DramModel;
use relmem_rme::RmeEngine;
use relmem_sim::{MemoryModel, Shift, SimTime};

use crate::stepper::{ScanJob, ScanPeriod};
use crate::system::{RowEffect, System, EPHEMERAL_REGION_BASE};

/// Periods a scan needs before a skip can pay off: two stepped to reach
/// and confirm the steady state, at least one skipped, the last stepped.
const MIN_PERIODS: u64 = 4;

/// Failed attempts retried at the very next period before backing off.
const EAGER_ATTEMPTS: u32 = 8;

/// Periods to step after `failures` failed attempts before recording the
/// next reference period.
fn backoff(failures: u32) -> u64 {
    match failures.checked_sub(EAGER_ATTEMPTS) {
        None | Some(0) => 0,
        Some(n) => 1 << n.min(32),
    }
}

/// The timing models at the start of a recorded period, with what that
/// period did.
struct Snapshot {
    /// The core the scan runs on, whose frontend `front` is.
    core: usize,
    front: CoreFrontend,
    l2: SharedL2,
    dram: DramModel,
    engine: Option<RmeEngine>,
    now: SimTime,
    cpu: SimTime,
    /// The period's row effects, run-length encoded.
    effects: Vec<(RowEffect, u64)>,
}

/// Replays a recorded run-length-encoded effect sequence in row order.
struct EffectRuns<'a> {
    runs: &'a [(RowEffect, u64)],
    run: usize,
    used: u64,
}

impl<'a> EffectRuns<'a> {
    fn new(runs: &'a [(RowEffect, u64)]) -> Self {
        EffectRuns {
            runs,
            run: 0,
            used: 0,
        }
    }

    fn next_effect(&mut self) -> RowEffect {
        let (effect, count) = self.runs[self.run];
        self.used += 1;
        if self.used == count {
            self.run += 1;
            self.used = 0;
        }
        effect
    }
}

/// How the functional pass of a period ended when an effect diverged from
/// the recorded period: the rows whose effects matched, then the diverging
/// effect.
struct Divergence {
    matched: u64,
    effect: RowEffect,
}

impl System {
    /// The steady-state period a whole scan may fast-forward over, or
    /// `None` when the scan must step every row: always with a recording
    /// tracer, in the reference stepping mode
    /// ([`set_reference_stepping`](Self::set_reference_stepping)) or under
    /// the cycle-accurate DRAM model, whose state never repeats up to a
    /// shift.
    pub(crate) fn steady_state_period(&self, job: &ScanJob<'_>) -> Option<ScanPeriod> {
        if self.tracing()
            || self.reference_stepping
            || self.dram.kind() == MemoryModel::CycleAccurate
        {
            return None;
        }
        let period = job.period(&self.cfg, &self.dram, &self.engine)?;
        (job.rows().div_ceil(period.rows) >= MIN_PERIODS).then_some(period)
    }

    /// A whole scan on `core`, run by a lane with no live rival, cut into
    /// `period`s and fast-forwarded over its steady state (see the module
    /// docs). Returns `(end, cpu_total, rows_scanned)`, identical to
    /// stepping every row.
    pub(crate) fn scan_periodic<F>(
        &mut self,
        job: &ScanJob<'_>,
        period: &ScanPeriod,
        core: usize,
        start: SimTime,
        values: &mut [u64],
        per_row: &mut F,
    ) -> (SimTime, SimTime, u64)
    where
        F: FnMut(u64, &[u64]) -> RowEffect,
    {
        let rows = job.rows();
        let count = rows.div_ceil(period.rows);
        let bounds = |p: u64| p * period.rows..((p + 1) * period.rows).min(rows);
        let (mut now, mut cpu, mut scanned) = (start, SimTime::ZERO, 0u64);
        let mut reference: Option<Snapshot> = None;
        // The first reference is period 1: period 0 starts cold.
        let mut next_reference = 1u64;
        let mut failures = 0u32;
        let mut p = 0u64;
        while p < count {
            if let Some(snap) = reference.take() {
                let shift = Shift {
                    time: now - snap.now,
                    start: now,
                    source: period.source_bytes,
                    ephemeral: period.ephemeral_bytes,
                    ephemeral_base: EPHEMERAL_REGION_BASE,
                };
                if self.same_up_to_shift(&snap, &shift) {
                    let cpu_per_period = cpu - snap.cpu;
                    let mut j = p;
                    let mut divergence = None;
                    while j + 1 < count {
                        match self.replay_functional(
                            period,
                            bounds(j),
                            &snap.effects,
                            values,
                            per_row,
                        ) {
                            Ok(()) => {
                                now += shift.time;
                                cpu += cpu_per_period;
                                j += 1;
                            }
                            Err(d) => {
                                divergence = Some(d);
                                break;
                            }
                        }
                    }
                    let skipped = j - p;
                    if skipped > 0 {
                        self.shift_models(&snap, &shift, skipped);
                        scanned += skipped * period.rows;
                        self.fast_forwarded_periods += skipped;
                    }
                    p = j;
                    if let Some(d) = divergence {
                        let mut runs = EffectRuns::new(&snap.effects);
                        let first = bounds(p).start;
                        let mut replay = |row: u64, values: &[u64]| match row - first {
                            i if i < d.matched => runs.next_effect(),
                            i if i == d.matched => d.effect,
                            _ => per_row(row, values),
                        };
                        let (n, c, s, _) = job.step_rows(
                            self.parts(),
                            core,
                            bounds(p),
                            None,
                            now,
                            values,
                            &mut replay,
                        );
                        (now, cpu, scanned) = (n, cpu + c, scanned + s);
                        p += 1;
                        failures += 1;
                        next_reference = p + backoff(failures);
                    }
                    continue;
                }
                failures += 1;
                next_reference = p + backoff(failures);
            }
            let range = bounds(p);
            if p == next_reference && p + 2 < count {
                let mut snap = self.snapshot(core, now, cpu, period.uses_engine);
                let mut touched = false;
                let effects = &mut snap.effects;
                let mut record = |row: u64, values: &[u64]| {
                    let effect = per_row(row, values);
                    touched |= effect.touch.is_some();
                    match effects.last_mut() {
                        Some((last, n)) if *last == effect => *n += 1,
                        _ => effects.push((effect, 1)),
                    }
                    effect
                };
                let (n, c, s, _) =
                    job.step_rows(self.parts(), core, range, None, now, values, &mut record);
                (now, cpu, scanned) = (n, cpu + c, scanned + s);
                if touched {
                    // Extra memory touches land outside the scanned range, so
                    // the state cannot move with the period: step the rest.
                    next_reference = u64::MAX;
                } else {
                    reference = Some(snap);
                }
            } else {
                let (n, c, s, _) =
                    job.step_rows(self.parts(), core, range, None, now, values, per_row);
                (now, cpu, scanned) = (n, cpu + c, scanned + s);
            }
            p += 1;
        }
        (now, cpu, scanned)
    }

    /// Clones the timing models a lone scan on `core` drives.
    fn snapshot(&self, core: usize, now: SimTime, cpu: SimTime, uses_engine: bool) -> Snapshot {
        Snapshot {
            core,
            front: self.cores[core].clone(),
            l2: self.l2.clone(),
            dram: self.dram.clone(),
            engine: uses_engine.then(|| self.engine.clone()),
            now,
            cpu,
            effects: Vec::new(),
        }
    }

    /// Whether every model's state is `snap`'s moved by one period.
    fn same_up_to_shift(&self, snap: &Snapshot, shift: &Shift) -> bool {
        self.cores[snap.core].same_up_to_shift(&snap.front, shift)
            && self.l2.same_up_to_shift(&snap.l2, shift)
            && self.dram.same_up_to_shift(&snap.dram, shift)
            && snap
                .engine
                .as_ref()
                .is_none_or(|e| self.engine.same_up_to_shift(e, shift))
    }

    /// Moves every model forward by `periods` periods (the state one period
    /// after `snap` is the current one).
    fn shift_models(&mut self, snap: &Snapshot, shift: &Shift, periods: u64) {
        self.cores[snap.core].shift(&snap.front, shift, periods);
        self.l2.shift(&snap.l2, shift, periods);
        self.dram.shift(&snap.dram, shift, periods);
        if let Some(engine) = &snap.engine {
            self.engine.shift(engine, shift, periods);
        }
    }

    /// The functional part of one period: gathers each row's values from
    /// source memory and calls the closure once per row, in row order,
    /// checking its effects against the recorded period's. Stops at the
    /// first diverging effect.
    fn replay_functional<F>(
        &self,
        period: &ScanPeriod,
        rows: Range<u64>,
        effects: &[(RowEffect, u64)],
        values: &mut [u64],
        per_row: &mut F,
    ) -> Result<(), Divergence>
    where
        F: FnMut(u64, &[u64]) -> RowEffect,
    {
        let first = rows.start;
        let mut runs = EffectRuns::new(effects);
        for row in rows {
            period.gather(&self.mem, row, values);
            let effect = per_row(row, values);
            if effect != runs.next_effect() {
                return Err(Divergence {
                    matched: row - first,
                    effect,
                });
            }
        }
        Ok(())
    }
}
