//! The DRAM model dispatcher.
//!
//! [`DramModel`] puts the two timing implementations — the fast
//! occupancy-tracked [`DramController`] and the command-level
//! [`CycleAccurateDram`] — behind one concrete type, selected by
//! [`DramConfig::model`](relmem_sim::DramConfig). Every client of the
//! memory system (the cache hierarchy's backends, the RME's fetch units,
//! the schedulers in `relmem-core`) takes a `&mut DramModel`, so the same
//! scan / workload code runs unchanged on either fidelity level. An enum
//! rather than a trait object: the access path is the simulator's hottest
//! call, the dispatch is a predictable two-way branch, and both variants
//! stay `Clone` for fixture snapshotting.

use relmem_sim::{DramConfig, MemoryModel, Shift, SimTime, Tracer};

use crate::address::AddressMapping;
use crate::controller::{DramController, DramStats};
use crate::controller_ca::CycleAccurateDram;
use crate::request::{Completion, MemRequest, RequestId};

/// A DRAM timing model: occupancy-tracked or cycle-accurate, per
/// [`DramConfig::model`](relmem_sim::DramConfig).
#[derive(Debug, Clone)]
pub enum DramModel {
    /// The transaction-level occupancy model (default; the model every
    /// golden fixture pins).
    Occupancy(DramController),
    /// The command-level cycle-accurate model.
    CycleAccurate(CycleAccurateDram),
}

impl DramModel {
    /// Builds the model `cfg.model` selects.
    pub fn new(cfg: DramConfig) -> Self {
        match cfg.model {
            MemoryModel::Occupancy => DramModel::Occupancy(DramController::new(cfg)),
            MemoryModel::CycleAccurate => DramModel::CycleAccurate(CycleAccurateDram::new(cfg)),
        }
    }

    /// Which model this is.
    pub fn kind(&self) -> MemoryModel {
        match self {
            DramModel::Occupancy(_) => MemoryModel::Occupancy,
            DramModel::CycleAccurate(_) => MemoryModel::CycleAccurate,
        }
    }

    /// Services a request and returns its completion.
    #[inline]
    pub fn access(&mut self, req: MemRequest) -> Completion {
        match self {
            DramModel::Occupancy(c) => c.access(req),
            DramModel::CycleAccurate(c) => c.access(req),
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &DramConfig {
        match self {
            DramModel::Occupancy(c) => c.config(),
            DramModel::CycleAccurate(c) => c.config(),
        }
    }

    /// The address mapping in use (identical for both models).
    pub fn mapping(&self) -> &AddressMapping {
        match self {
            DramModel::Occupancy(c) => c.mapping(),
            DramModel::CycleAccurate(c) => c.mapping(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        match self {
            DramModel::Occupancy(c) => c.stats(),
            DramModel::CycleAccurate(c) => c.stats(),
        }
    }

    /// Resets timing state and statistics.
    pub fn reset(&mut self) {
        match self {
            DramModel::Occupancy(c) => c.reset(),
            DramModel::CycleAccurate(c) => c.reset(),
        }
    }

    /// Whether this model's timing state is `earlier`'s moved by one period
    /// (see [`relmem_sim::shift`] and
    /// [`DramController::same_up_to_shift`]). The cycle-accurate model
    /// refreshes on an absolute tREFI grid, so its state is never periodic
    /// in this sense and the answer is always `false`.
    pub fn same_up_to_shift(&self, earlier: &DramModel, shift: &Shift) -> bool {
        match (self, earlier) {
            (DramModel::Occupancy(c), DramModel::Occupancy(e)) => c.same_up_to_shift(e, shift),
            _ => false,
        }
    }

    /// Moves the timing state forward by `periods` periods and advances the
    /// counters by their increment since `earlier`. Call only after
    /// [`same_up_to_shift`](Self::same_up_to_shift) held; on the
    /// cycle-accurate model (which never reports a periodic state) this is
    /// a no-op.
    pub fn shift(&mut self, earlier: &DramModel, shift: &Shift, periods: u64) {
        match (self, earlier) {
            (DramModel::Occupancy(c), DramModel::Occupancy(e)) => c.shift(e, shift, periods),
            _ => debug_assert!(false, "only the occupancy model shifts"),
        }
    }

    /// Time the data bus becomes free.
    pub fn bus_free_at(&self) -> SimTime {
        match self {
            DramModel::Occupancy(c) => c.bus_free_at(),
            DramModel::CycleAccurate(c) => c.bus_free_at(),
        }
    }

    /// Total busy time of the data bus so far.
    pub fn bus_busy(&self) -> SimTime {
        match self {
            DramModel::Occupancy(c) => c.bus_busy(),
            DramModel::CycleAccurate(c) => c.bus_busy(),
        }
    }

    /// Issues a request asynchronously; its completion is retrieved later
    /// through [`drain_completions`](Self::drain_completions). Under the
    /// occupancy model (and for reads under the cycle-accurate model) the
    /// request is scheduled eagerly — only retrieval is deferred, which
    /// keeps the event-driven path counter-identical to the synchronous
    /// one. The cycle-accurate model in event-driven mode additionally
    /// buffers writes into its cross-request FR-FCFS window.
    pub fn issue(&mut self, req: MemRequest) -> RequestId {
        match self {
            DramModel::Occupancy(c) => c.issue(req),
            DramModel::CycleAccurate(c) => c.issue(req),
        }
    }

    /// Drains every issued request whose completion finished at or before
    /// `now`, ordered by `(finish, id)`; under the cycle-accurate model
    /// this first schedules any buffered writes that became ready.
    pub fn drain_completions(&mut self, now: SimTime) -> &[(RequestId, Completion)] {
        match self {
            DramModel::Occupancy(c) => c.drain_completions(now),
            DramModel::CycleAccurate(c) => c.drain_completions(now),
        }
    }

    /// Drains every outstanding completion regardless of finish time (end
    /// of a measured run), scheduling any still-buffered writes first.
    pub fn drain_all(&mut self) -> &[(RequestId, Completion)] {
        match self {
            DramModel::Occupancy(c) => c.drain_all(),
            DramModel::CycleAccurate(c) => c.drain_all(),
        }
    }

    /// Issued requests whose completions have not been drained yet.
    pub fn outstanding(&self) -> usize {
        match self {
            DramModel::Occupancy(c) => c.outstanding(),
            DramModel::CycleAccurate(c) => c.outstanding(),
        }
    }

    /// Enables or disables event-driven mode. The occupancy model switches
    /// CPU requests to demand-priority admission (they no longer queue
    /// behind the RME's paced future reservations); its issue path stays a
    /// counter-neutral eager pass-through either way. The cycle-accurate
    /// model toggles its write buffer (the cross-request FR-FCFS window).
    pub fn set_event_driven(&mut self, on: bool) {
        match self {
            DramModel::Occupancy(c) => c.set_event_driven(on),
            DramModel::CycleAccurate(c) => c.set_event_driven(on),
        }
    }

    /// The active model's trace hook (recording is controlled by the
    /// system; the hook is a no-op by default).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        match self {
            DramModel::Occupancy(c) => c.tracer_mut(),
            DramModel::CycleAccurate(c) => c.tracer_mut(),
        }
    }

    /// Whether dirty cache evictions should reach this model as real DRAM
    /// writes. True only for the cycle-accurate model in event-driven mode:
    /// that is where tWR/tWTR constraints exist to observe them, and gating
    /// here keeps the occupancy model (every golden fixture) and the
    /// synchronous cycle-accurate path bit-identical to their
    /// pre-event-queue behaviour.
    pub fn writebacks_active(&self) -> bool {
        match self {
            DramModel::Occupancy(_) => false,
            DramModel::CycleAccurate(c) => c.event_driven(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_builds_the_requested_model() {
        let occ = DramModel::new(DramConfig::default());
        assert_eq!(occ.kind(), MemoryModel::Occupancy);
        let ca = DramModel::new(DramConfig {
            model: MemoryModel::CycleAccurate,
            ..DramConfig::default()
        });
        assert_eq!(ca.kind(), MemoryModel::CycleAccurate);
    }

    /// The dispatcher's occupancy variant is bit-identical to using the
    /// controller directly — the invariant the golden suite relies on.
    #[test]
    fn occupancy_dispatch_is_transparent() {
        let cfg = DramConfig::default();
        let mut direct = DramController::new(cfg);
        let mut via = DramModel::new(cfg);
        for i in 0..256u64 {
            let req = MemRequest::new(i * 48, 24, SimTime::from_nanos(i / 3));
            assert_eq!(direct.access(req), via.access(req));
        }
        assert_eq!(direct.stats(), via.stats());
    }

    /// Both models agree on functional facts (what was accessed), while
    /// timing fidelity differs.
    #[test]
    fn models_agree_on_traffic_counters() {
        let mut occ = DramModel::new(DramConfig::default());
        let mut ca = DramModel::new(DramConfig {
            model: MemoryModel::CycleAccurate,
            ..DramConfig::default()
        });
        for i in 0..128u64 {
            let req = MemRequest::new(i * 64, 64, SimTime::from_nanos(i * 50));
            occ.access(req);
            ca.access(req);
        }
        let (o, c) = (occ.stats(), ca.stats());
        assert_eq!(o.accesses, c.accesses);
        assert_eq!(o.beats, c.beats);
        assert_eq!(o.bytes_transferred, c.bytes_transferred);
        // The occupancy model never refreshes; the CA model's knobs exist.
        assert_eq!(o.refreshes, 0);
        assert_eq!(o.tfaw_stalls, 0);
    }

    /// The dispatcher's issue/drain path on the occupancy model matches the
    /// synchronous access path bit for bit — the invariant the differential
    /// equivalence suite scales up to whole-system runs.
    #[test]
    fn occupancy_issue_drain_matches_access() {
        let cfg = DramConfig::default();
        let mut sync = DramModel::new(cfg);
        let mut evt = DramModel::new(cfg);
        // Core-only traffic: backfill admission degenerates to FIFO, so
        // event mode must stay bit-identical to the synchronous path.
        evt.set_event_driven(true);
        let mut expected = Vec::new();
        for i in 0..64u64 {
            let mut req = MemRequest::new(i * 80, 32, SimTime::from_nanos(i));
            if i % 5 == 0 {
                req = req.as_write();
            }
            expected.push(sync.access(req));
            evt.issue(req);
        }
        assert!(!evt.writebacks_active(), "occupancy never emits writebacks");
        let drained = evt.drain_all().to_vec();
        assert_eq!(drained.len(), expected.len());
        for (id, completion) in drained {
            assert_eq!(completion, expected[id.0 as usize]);
        }
        // All counters but the issue-path writeback attribution agree.
        let mut evt_stats = evt.stats().clone();
        assert_eq!(evt_stats.writebacks, 13);
        evt_stats.writebacks = 0;
        assert_eq!(&evt_stats, sync.stats());
    }

    /// In event mode the cycle-accurate model defers writes but reads stay
    /// synchronous-identical until a write enters the buffer.
    #[test]
    fn cycle_accurate_event_mode_defers_only_writes() {
        let cfg = DramConfig {
            model: MemoryModel::CycleAccurate,
            ..DramConfig::default()
        };
        let mut m = DramModel::new(cfg);
        m.set_event_driven(true);
        assert!(m.writebacks_active());
        m.issue(MemRequest::new(0, 64, SimTime::ZERO));
        assert_eq!(m.stats().accesses, 1, "reads schedule eagerly");
        m.issue(MemRequest::new(1 << 16, 64, SimTime::ZERO).as_write());
        assert_eq!(m.stats().writes, 0, "the write waits in the buffer");
        assert_eq!(m.outstanding(), 2);
        m.drain_all();
        assert_eq!(m.stats().writes, 1);
        assert_eq!(m.outstanding(), 0);
        // reset() keeps the mode but clears the queue.
        m.reset();
        assert!(m.writebacks_active());
        assert_eq!(m.outstanding(), 0);
        assert_eq!(m.stats(), &DramStats::default());
    }

    /// ReqKind round-trips through the dispatcher unchanged (guards the
    /// write attribution the writeback path relies on).
    #[test]
    fn write_attribution_is_model_independent() {
        for model in [MemoryModel::Occupancy, MemoryModel::CycleAccurate] {
            let mut m = DramModel::new(DramConfig {
                model,
                ..DramConfig::default()
            });
            assert!(!m.access(MemRequest::new(0, 64, SimTime::ZERO)).row_hit);
            m.access(MemRequest::new(0, 64, SimTime::ZERO).as_write());
            assert_eq!(m.stats().writes, 1);
            assert_eq!(m.stats().fr_fcfs_reorders, 0);
        }
    }
}
