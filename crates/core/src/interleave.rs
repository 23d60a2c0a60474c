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
//! A lane with no live rival runs its active scan's remaining rows in one
//! step: nothing else can be scheduled before they end, so this is the
//! unbounded case of conservative lookahead (Chandy & Misra). When those
//! rows are the whole scan it may fast-forward over the scan's periodic
//! steady state (`crate::periodic`). `ScanJob::step_rows` advances the DRAM
//! model after every row, so the batch schedules buffered writes at the
//! same horizons as row-by-row picks.
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

/// The lane to step next under the pick rule (see the module docs), and
/// whether it is the only live lane; `None` once every lane has drained.
/// `resident` is the RME's resident frame.
fn pick<L: Lane>(lanes: &[L], resident: Option<u64>) -> Option<(usize, bool)> {
    // The smallest key of each class: plain lanes, ephemeral lanes in the
    // resident frame, other ephemeral lanes. A strict comparison keeps the
    // lowest index on ties.
    let mut best: [Option<(SimTime, usize)>; 3] = [None; 3];
    let mut live = 0usize;
    for (i, lane) in lanes.iter().enumerate() {
        let Some(key) = lane.ready_at() else {
            continue;
        };
        live += 1;
        let class = match lane.stream().next_frame() {
            None => 0,
            Some(frame) if resident == Some(frame) => 1,
            Some(_) => 2,
        };
        if best[class].is_none_or(|(k, _)| key < k) {
            best[class] = Some((key, i));
        }
    }
    let [plain, in_frame, turnover] = best;
    let picked = match (plain, in_frame.or(turnover)) {
        (Some(a), Some(b)) => a.min(b).1,
        (a, b) => a.or(b)?.1,
    };
    Some((picked, live == 1))
}

impl System {
    /// Runs `lanes` to completion: picks a lane, advances it with
    /// `step(system, core, lane, alone)`, schedules the buffered DRAM
    /// writes that are ready by its clock, and repeats until every lane has
    /// drained; then settles the memory system so run totals include
    /// deferred traffic. `alone` tells the step that no other lane is live,
    /// so nothing can be scheduled between its units and it may run a scan
    /// to its end in one call.
    pub(crate) fn interleave<L: Lane>(
        &mut self,
        lanes: &mut [L],
        mut step: impl FnMut(&mut System, usize, &mut L, bool),
    ) -> Totals {
        while let Some((core, alone)) = pick(lanes, self.engine.resident_frame()) {
            step(self, core, &mut lanes[core], alone);
            // The stepped lane's clock is the event horizon: buffered writes
            // ready by then are scheduled now.
            let horizon = lanes[core].stream().now;
            self.dram.advance(horizon);
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
    /// long after the scan ends and touches no memory. The scan evicts the
    /// dirty lines, so its writebacks are buffered and scheduled at the
    /// DRAM horizons the run sets.
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
        sys.interleave(&mut lanes, |sys, core, st, alone| {
            let mut observe = |_, _, _, v: &[u64]| {
                values.push(v.to_vec());
                RowEffect::default()
            };
            if !sys.step_scan(core, st, alone, &mut observe) {
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
    /// rival steps it one row per pick; both must schedule the buffered
    /// writebacks at the same horizons, so the scan's end, CPU time, rows,
    /// values and every DRAM counter agree.
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
