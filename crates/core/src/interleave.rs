//! The one deterministic scheduler loop behind every scan and workload.
//!
//! [`System::scan`], [`System::scan_sharded`], [`System::run_workload`]
//! and [`System::run_open_loop`](crate::openloop) each hold one [`Lane`]
//! per core and hand it to [`System::interleave`], which owns the pick
//! rule, the per-step advance of the DRAM model and the closing settle of
//! the memory system. The callers differ only in what a lane is and what
//! one step of it does; `System::scan` is the one-lane case.
//!
//! # The pick rule
//!
//! A lane's key is its ready time — its local clock, or for an idle
//! open-loop core its next arrival — and `None` once it has drained. At
//! every step the lane with the smallest key advances by one unit: one row
//! of a scan, one point op, one transaction unit or one dequeue decision.
//! Ties go to the lowest core index, so every run is reproducible bit for
//! bit.
//!
//! # Runner-up lookahead
//!
//! A step changes only the stepped lane's key, so while at most one live
//! lane is ephemeral (below) the rule picks that lane again for as long as
//! its `(key, core)` stays below the runner-up's. `pick` returns that bound
//! with the lane, and the lane keeps the pick until it reaches the bound:
//! conservative lookahead (Chandy & Misra, IEEE TSE 1979) bounded by the
//! runner-up's clock. A scan runs the rows up to the bound in one
//! `ScanJob::step_rows` call, and other units re-step without a new pick;
//! an open-loop lane's run of rows also stops before its own next arrival
//! or retry, which the next unit would admit first. A lane with no live
//! rival has no bound: it runs its active scan's remaining rows in one
//! step, and when those rows are the whole scan it may fast-forward over
//! the scan's periodic steady state (`crate::periodic`). With two or more
//! live ephemeral lanes every lane steps one unit per pick, and so does
//! any lane beside a live rival in the reference stepping mode, which
//! keeps the rule itself as the oracle. `ScanJob::step_rows` advances the
//! DRAM model after every row, so a run of rows schedules buffered writes
//! at the same horizons as row-by-row picks.
//!
//! Lanes whose next unit is a row of an ephemeral (RME) scan are
//! arbitrated frame-aware among themselves. The cores share one
//! Reorganization Buffer holding a single resident frame, so the
//! smallest-key such lane whose next row lies in that frame is preferred,
//! and the smallest-key one overall only when none has work there (a frame
//! turnover). This bounds frame fetches at O(cores × frames); plain
//! min-clock stepping would re-fetch a frame on nearly every access once
//! shards span frame boundaries. The preferred ephemeral lane then competes
//! with the smallest-key other lane purely by key, so a point-query stream
//! never defers a frame turnover it does not take part in, nor is deferred
//! by one.

use relmem_sim::SimTime;

use crate::system::System;
use crate::workload::{StreamState, WorkloadError};

/// One core's schedulable state.
pub(crate) trait Lane {
    /// When the lane can next step, or `None` once it has drained.
    fn ready_at(&self) -> Option<SimTime>;

    /// The stream the lane steps: its clock, CPU and row totals, and the
    /// scan whose next row the frame-aware rule inspects.
    fn stream(&self) -> &StreamState<'_, '_>;
}

impl Lane for StreamState<'_, '_> {
    fn ready_at(&self) -> Option<SimTime> {
        (!self.finished()).then_some(self.now)
    }

    fn stream(&self) -> &StreamState<'_, '_> {
        self
    }
}

/// Roll-up of a drained run.
pub(crate) struct Totals {
    /// The slowest lane's clock (the run's makespan).
    pub(crate) end: SimTime,
    /// CPU time across lanes.
    pub(crate) cpu: SimTime,
    /// Rows processed across lanes.
    pub(crate) rows: u64,
}

/// A picked lane and how long it keeps the pick.
struct Pick {
    core: usize,
    /// `None` when no other lane is live; otherwise the lane keeps the pick
    /// while its key is before this time.
    bound: Option<SimTime>,
    /// Whether another live lane is ephemeral: the picked lane then loses
    /// the pick once its next unit is ephemeral too.
    ephemeral_rival: bool,
}

impl Pick {
    /// Whether `lane`, just stepped, would be picked again.
    fn kept_by<L: Lane>(&self, lane: &L) -> bool {
        lane.ready_at()
            .is_some_and(|key| self.bound.is_none_or(|bound| key < bound))
            && !(self.ephemeral_rival && lane.stream().next_frame().is_some())
    }
}

/// The lane to step next under the pick rule (see the module docs) and how
/// long it keeps the pick; `None` once every lane has drained. `resident`
/// is the RME's resident frame; without `lookahead` a lane beside a live
/// rival keeps the pick for one unit.
fn pick<L: Lane>(lanes: &[L], resident: Option<u64>, lookahead: bool) -> Option<Pick> {
    // The smallest key of each class: plain lanes, ephemeral lanes in the
    // resident frame, other ephemeral lanes; and the two smallest
    // `(key, index)` over all live lanes. Strict comparisons keep the
    // lowest index on ties.
    let mut best: [Option<(SimTime, usize)>; 3] = [None; 3];
    let (mut first, mut second): (Option<(SimTime, usize)>, _) = (None, None);
    let mut ephemeral = 0usize;
    for (i, lane) in lanes.iter().enumerate() {
        let Some(key) = lane.ready_at() else {
            continue;
        };
        let class = match lane.stream().next_frame() {
            None => 0,
            Some(frame) if resident == Some(frame) => 1,
            Some(_) => 2,
        };
        ephemeral += usize::from(class != 0);
        if best[class].is_none_or(|(k, _)| key < k) {
            best[class] = Some((key, i));
        }
        if first.is_none_or(|f| (key, i) < f) {
            second = first;
            first = Some((key, i));
        } else if second.is_none_or(|s| (key, i) < s) {
            second = Some((key, i));
        }
    }
    let [plain, in_frame, turnover] = best;
    let (core, picked_ephemeral) = match (plain, in_frame.or(turnover)) {
        (Some(a), Some(b)) => (a.min(b).1, b < a),
        (a, None) => (a?.1, false),
        (None, Some(b)) => (b.1, true),
    };
    // With at most one ephemeral lane the rule picks the smallest
    // `(key, index)`, so `second` is the runner-up, and
    // `(clock, core) < (key, rival)` holds exactly while the clock is
    // before `key`, or `key` plus one picosecond when `core < rival`.
    let bound = second.map(|(key, rival)| {
        if !lookahead || ephemeral > 1 {
            SimTime::ZERO
        } else if core < rival {
            key + SimTime::from_picos(1)
        } else {
            key
        }
    });
    Some(Pick {
        core,
        bound,
        ephemeral_rival: ephemeral > usize::from(picked_ephemeral),
    })
}

impl System {
    /// Runs `lanes` to completion: picks a lane, advances it with
    /// `step(system, core, lane, bound)`, schedules the buffered DRAM
    /// writes that are ready by its clock, re-steps it while it keeps the
    /// pick, and repeats until every lane has drained; then settles the
    /// memory system so run totals include deferred traffic. `bound` is
    /// `None` when no other lane is live, so the step may run a scan to its
    /// end in one call; otherwise the step may run a scan's rows while the
    /// lane's clock is before `bound` (see the module docs), and always
    /// runs at least one unit.
    pub(crate) fn interleave<L: Lane>(
        &mut self,
        lanes: &mut [L],
        mut step: impl FnMut(&mut System, usize, &mut L, Option<SimTime>),
    ) -> Totals {
        let lookahead = !self.reference_stepping;
        while let Some(pick) = pick(lanes, self.engine.resident_frame(), lookahead) {
            let lane = &mut lanes[pick.core];
            loop {
                step(self, pick.core, lane, pick.bound);
                // The stepped lane's clock is the event horizon: buffered
                // writes ready by then are scheduled now.
                self.dram.advance(lane.stream().now);
                if !pick.kept_by(lane) {
                    break;
                }
            }
        }
        self.settle_memory();
        let mut totals = Totals {
            end: SimTime::ZERO,
            cpu: SimTime::ZERO,
            rows: 0,
        };
        for lane in lanes.iter() {
            let st = lane.stream();
            totals.end = totals.end.max(st.now);
            totals.cpu += st.cpu;
            totals.rows += st.rows;
        }
        totals
    }

    /// Rejects a workload with more streams than the system has cores
    /// (stream `i` runs on core `i`).
    pub(crate) fn check_stream_count(&self, streams: usize) -> Result<(), WorkloadError> {
        if streams > self.cores.len() {
            return Err(WorkloadError::TooManyStreams {
                streams,
                cores: self.cores.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use relmem_cache::{HierarchyStats, SharedL2Stats};
    use relmem_dram::DramStats;
    use relmem_sim::{MemoryModel, PlatformConfig, SimTime};
    use relmem_storage::{DataGen, MvccConfig, Schema};

    use super::*;
    use crate::system::{RowEffect, ScanSource, SystemConfig};
    use crate::workload::{QueryStream, Workload, WorkloadOp};

    /// What a scan lane produced, with the run's DRAM counters.
    #[derive(Debug, PartialEq)]
    struct ScanRecord {
        end: SimTime,
        cpu: SimTime,
        rows: u64,
        values: Vec<Vec<u64>>,
        dram: DramStats,
    }

    /// On a two-core cycle-accurate system, dirties every L2 line with
    /// point updates, then scans a table four times the L2 as one lane on
    /// core 0 — alone, or beside a lane on core 1 that stays live until
    /// long after the scan ends and touches no memory, in the reference
    /// stepping mode, which steps the scan one row per pick beside it. The
    /// scan evicts the dirty lines, so its writebacks are buffered and
    /// scheduled at the DRAM horizons the run sets.
    fn scan_after_updates(rival: bool) -> ScanRecord {
        let mut config = SystemConfig {
            platform: PlatformConfig::tiny_for_tests(),
            cores: 2,
            mem_bytes: 4 << 20,
            ..SystemConfig::default()
        };
        config.platform.dram.model = MemoryModel::CycleAccurate;
        let mut sys = System::with_config(config);
        let rows = 512;
        let mut table = sys
            .create_table(Schema::benchmark(4, 4, 64), rows, MvccConfig::Disabled)
            .unwrap();
        DataGen::new(7)
            .fill_table(sys.mem_mut(), &mut table, rows)
            .unwrap();
        let l2_rows = sys.config().l2.size_bytes as u64 / 64;
        let updates = (0..l2_rows)
            .map(|row| WorkloadOp::PointUpdate {
                table: &table,
                row,
                column: 1,
                value: row,
            })
            .collect();
        let start = sys
            .run_workload(
                &Workload::new(vec![QueryStream::new(updates)]),
                SimTime::ZERO,
                |_, _, _, _| RowEffect::default(),
            )
            .unwrap()
            .end;

        sys.set_reference_stepping(rival);
        let source = ScanSource::Rows {
            table: &table,
            columns: &[0, 2],
            snapshot: None,
        };
        let mut scan = StreamState::fresh(&[], start);
        scan.begin_scan(sys.scan_job(&source), 0..rows, 0);
        let idle_ops = [WorkloadOp::TakeSnapshot { ts: 1 }];
        let idle = StreamState::fresh(&idle_ops, start + SimTime::from_nanos(1_000_000_000));
        let mut lanes = if rival { vec![scan, idle] } else { vec![scan] };
        let mut values = Vec::new();
        sys.interleave(&mut lanes, |sys, core, st, bound| {
            let mut observe = |_, _, _, v: &[u64]| {
                values.push(v.to_vec());
                RowEffect::default()
            };
            if !sys.step_scan(core, st, bound, &mut observe) {
                // The idle lane drains without running its op.
                st.next_op += 1;
            }
        });
        let scan = &lanes[0];
        ScanRecord {
            end: scan.now,
            cpu: scan.cpu,
            rows: scan.rows,
            values,
            dram: sys.dram_stats().clone(),
        }
    }

    /// A lone lane runs its whole scan in one step, and a lane with a live
    /// rival in the reference stepping mode steps it one row per pick; both
    /// must schedule the buffered writebacks at the same horizons, so the
    /// scan's end, CPU time, rows, values and every DRAM counter agree.
    #[test]
    fn a_lone_lane_batch_equals_per_row_picks() {
        let alone = scan_after_updates(false);
        let beside_idle = scan_after_updates(true);
        assert!(alone.dram.writebacks > 0, "the scan evicts dirty lines");
        assert_eq!(alone.rows, 512);
        assert_eq!(alone, beside_idle);
    }

    /// A two-core workload whose core-0 stream is empty and whose core-1
    /// stream scans 1,024 rows of 64 B on a small platform (a 4 KB
    /// translation span, so 64-row periods): the core-1 lane is alone from
    /// the scan's first row. Returns what the scan produced, core 1's and
    /// the L2's counters, and the periods fast-forwarded.
    fn lone_scan_on_core_1(reference: bool) -> (ScanRecord, HierarchyStats, SharedL2Stats, u64) {
        let mut platform = PlatformConfig::tiny_for_tests();
        platform.l1.size_bytes = 4 * 1024;
        platform.l2.size_bytes = 16 * 1024;
        platform.dram.banks = 4;
        platform.dram.row_bytes = 256;
        let mut sys = System::with_config(SystemConfig {
            platform,
            cores: 2,
            mem_bytes: 4 << 20,
            ..SystemConfig::default()
        });
        let rows = 1_024;
        let mut table = sys
            .create_table(Schema::benchmark(4, 4, 64), rows, MvccConfig::Disabled)
            .unwrap();
        DataGen::new(3)
            .fill_table(sys.mem_mut(), &mut table, rows)
            .unwrap();
        sys.set_reference_stepping(reference);
        let source = ScanSource::Rows {
            table: &table,
            columns: &[0, 3],
            snapshot: None,
        };
        let workload = Workload::new(vec![
            QueryStream::new(vec![]),
            QueryStream::new(vec![WorkloadOp::olap(source)]),
        ]);
        let mut values = Vec::new();
        let run = sys
            .run_workload(&workload, SimTime::ZERO, |core, _, _, v| {
                assert_eq!(core, 1);
                values.push(v.to_vec());
                RowEffect {
                    cpu: SimTime::from_nanos(2),
                    touch: None,
                }
            })
            .unwrap();
        let scan = ScanRecord {
            end: run.end,
            cpu: run.cpu,
            rows: run.rows,
            values,
            dram: sys.dram_stats().clone(),
        };
        let skipped = sys.fast_forwarded_periods();
        (scan, *sys.core_stats(1), *sys.l2_stats(), skipped)
    }

    /// A lone lane on a core other than 0 fast-forwards its whole scan, on
    /// that core's frontend, exactly as stepping every field would run it.
    #[test]
    fn a_lone_lane_on_core_1_fast_forwards_exactly() {
        let (fast, fast_core, fast_l2, skipped) = lone_scan_on_core_1(false);
        let (reference, reference_core, reference_l2, none) = lone_scan_on_core_1(true);
        assert!(skipped > 0, "the lone whole scan fast-forwards");
        assert_eq!(none, 0, "the reference stepping mode steps every row");
        assert_eq!(fast.rows, 1_024);
        assert_eq!(fast, reference);
        assert_eq!(fast_core, reference_core);
        assert_eq!(fast_l2, reference_l2);
    }
}
