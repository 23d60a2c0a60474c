//! The DRAM model dispatcher.
//!
//! [`DramModel`] puts the two timing implementations — the fast
//! occupancy-tracked [`DramController`] and the command-level
//! [`CycleAccurateDram`] — behind one concrete type, selected by
//! [`DramConfig::model`](relmem_sim::DramConfig). Every client of the
//! memory system (the cache hierarchy's backends, the RME's fetch units,
//! the schedulers in `relmem-core`) takes a `&mut DramModel`, so the same
//! scan / workload code runs unchanged on either fidelity level. Reads
//! block: [`DramModel::access`] returns the completion in the caller's
//! step. Dirty-line writebacks are posted with [`DramModel::post_write`]
//! and scheduled at the horizons the scheduler sets with
//! [`DramModel::advance`] and [`DramModel::drain_all`]; only the
//! cycle-accurate model keeps them. An enum
//! rather than a trait object: the access path is the simulator's hottest
//! call, the dispatch is a predictable two-way branch, and both variants
//! stay `Clone` for fixture snapshotting.

use relmem_sim::{DramConfig, MemoryModel, Shift, SimTime, Tracer};

use crate::address::AddressMapping;
use crate::controller::{DramController, DramStats};
use crate::controller_ca::CycleAccurateDram;
use crate::request::{Completion, MemRequest};

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

    /// Posts a write that needs no reply (a dirty cache-line writeback).
    /// The cycle-accurate model buffers it in its FR-FCFS write window,
    /// where tWR/tWTR make it cost time; the occupancy model, whose timing
    /// is symmetric in the request kind, drops it.
    #[inline]
    pub fn post_write(&mut self, req: MemRequest) {
        if let DramModel::CycleAccurate(c) = self {
            c.post_write(req);
        }
    }

    /// Schedules the buffered writes that are ready by `now` (the
    /// scheduler's event horizon). A no-op under the occupancy model.
    #[inline]
    pub fn advance(&mut self, now: SimTime) {
        if let DramModel::CycleAccurate(c) = self {
            c.advance(now);
        }
    }

    /// Schedules every buffered write (end of a measured run). A no-op
    /// under the occupancy model.
    pub fn drain_all(&mut self) {
        if let DramModel::CycleAccurate(c) = self {
            c.drain_all();
        }
    }

    /// Kept so callers that still select the event-driven memory path
    /// compile; it is the only path, so this changes nothing.
    ///
    /// # Panics
    /// Panics if `on` is `false`: the synchronous path no longer exists.
    #[doc(hidden)]
    pub fn set_event_driven(&mut self, on: bool) {
        assert!(on, "the event-driven memory path is the only one");
    }

    /// The active model's trace hook (recording is controlled by the
    /// system; the hook is a no-op by default).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        match self {
            DramModel::Occupancy(c) => c.tracer_mut(),
            DramModel::CycleAccurate(c) => c.tracer_mut(),
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

    /// Posted writes reach only the cycle-accurate model: it buffers them
    /// until a drain, and the occupancy model drops them without a trace
    /// in its counters.
    #[test]
    fn posted_writes_reach_only_the_cycle_accurate_model() {
        let write = MemRequest::new(1 << 16, 64, SimTime::ZERO).as_write();
        let mut occ = DramModel::new(DramConfig::default());
        occ.post_write(write);
        occ.drain_all();
        assert_eq!(occ.stats(), &DramStats::default());

        let mut ca = DramModel::new(DramConfig {
            model: MemoryModel::CycleAccurate,
            ..DramConfig::default()
        });
        ca.access(MemRequest::new(0, 64, SimTime::ZERO));
        ca.post_write(write);
        assert_eq!(ca.stats().accesses, 1, "the write waits in the buffer");
        assert_eq!(ca.stats().writebacks, 1);
        ca.drain_all();
        assert_eq!(ca.stats().writes, 1);
        ca.reset();
        assert_eq!(ca.stats(), &DramStats::default());
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
