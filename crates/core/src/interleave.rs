//! The one deterministic scheduler loop behind every multi-core run.
//!
//! [`System::scan_sharded`], [`System::run_workload`] and
//! [`System::run_open_loop`](crate::openloop) each hold one [`Lane`] per
//! core and hand it to [`System::interleave`], which owns the pick rule,
//! the per-step advance of the DRAM model and the closing settle of the
//! memory system. The callers differ only in what a lane is and what one
//! step of it does.
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

/// The lane to step next under the pick rule (see the module docs), or
/// `None` once every lane has drained. `resident` is the RME's resident
/// frame.
fn pick<L: Lane>(lanes: &[L], resident: Option<u64>) -> Option<usize> {
    // The smallest key of each class: plain lanes, ephemeral lanes in the
    // resident frame, other ephemeral lanes. A strict comparison keeps the
    // lowest index on ties.
    let mut best: [Option<(SimTime, usize)>; 3] = [None; 3];
    for (i, lane) in lanes.iter().enumerate() {
        let Some(key) = lane.ready_at() else {
            continue;
        };
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
    match (plain, in_frame.or(turnover)) {
        (Some(a), Some(b)) => Some(a.min(b).1),
        (a, b) => a.or(b).map(|(_, i)| i),
    }
}

impl System {
    /// Runs `lanes` to completion: picks a lane, advances it by one unit
    /// with `step`, schedules the buffered DRAM writes that are ready by
    /// its clock, and repeats until every lane has drained; then settles
    /// the memory system so run totals include deferred traffic.
    pub(crate) fn interleave<L: Lane>(
        &mut self,
        lanes: &mut [L],
        mut step: impl FnMut(&mut System, usize, &mut L),
    ) -> Totals {
        while let Some(core) = pick(lanes, self.engine.resident_frame()) {
            step(self, core, &mut lanes[core]);
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
