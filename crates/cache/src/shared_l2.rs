//! The shared, banked L2 cache behind every core's private L1.
//!
//! [`SharedL2`] owns what all cores see in common: the L2 tag store, the
//! pending-fill table (lines whose backend fill is still in flight), and a
//! pool of bank servers that model *contention* — when several cores are
//! simulated, lookups that map to the same bank serialize on its occupancy.
//!
//! # Contention model
//!
//! Each lookup (demand or prefetch) books the line's bank — selected by the
//! line number modulo [`PlatformConfig::l2_banks`] — for
//! `l2_bank_occupancy_cycles` CPU cycles, starting no earlier than the time
//! the request reaches the L2. Occupancy is shorter than the hit *latency*
//! (`l2.hit_latency_cycles`): the bank pipeline accepts a new lookup every
//! few cycles even though each one takes the full latency to answer, the
//! same occupancy-vs-latency split the DRAM model uses for tCCD vs tCAS.
//! The delay a request suffers waiting for its bank is reported per core in
//! [`HierarchyStats::l2_contention_delay`](crate::stats::HierarchyStats) and
//! in aggregate in [`SharedL2Stats`].
//!
//! # Single-core bypass
//!
//! With `cores == 1` the bank booking is bypassed entirely, keeping every
//! timestamp bit-identical to the pre-multi-core hierarchy (which charged
//! no bank occupancy at all) — the cross-path equivalence tests assert
//! this against the reference stepping mode. Note the bypass is a fidelity
//! choice, not a physical law: a core's stream prefetches are issued at
//! the same instant as its demand lookup, so even one core *can* collide
//! with itself on a bank. On a multi-core `SharedL2` that self-contention
//! is modelled (and shows up in the issuing core's counters alongside
//! genuine cross-core contention, exactly as a hardware bank-conflict
//! counter would report it); on a single-core build it is below the
//! model's resolution, as it was in the paper-faithful original.

use relmem_sim::shift::{extrapolate, extrapolate_time};
use relmem_sim::{
    MultiResource, PlatformConfig, Shift, SimTime, TraceEvent, TraceEventKind, Tracer, Track,
};

use crate::cache::Cache;

/// Aggregate contention counters of the shared L2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedL2Stats {
    /// Lookups presented to the banks (demand + prefetch, all cores).
    pub lookups: u64,
    /// Lookups that found their bank busy and had to wait.
    pub contended_lookups: u64,
    /// Total time lookups spent waiting for a busy bank.
    pub contention_delay: SimTime,
}

impl SharedL2Stats {
    /// Advances every counter by `periods` times its increment since
    /// `earlier` (see [`relmem_sim::shift`]).
    pub fn extrapolate(&mut self, earlier: &SharedL2Stats, periods: u64) {
        self.lookups = extrapolate(self.lookups, earlier.lookups, periods);
        self.contended_lookups =
            extrapolate(self.contended_lookups, earlier.contended_lookups, periods);
        self.contention_delay =
            extrapolate_time(self.contention_delay, earlier.contention_delay, periods);
    }
}

/// One core's share of the shared-L2 bank traffic — the per-stream
/// attribution the HTAP workload harness reports (each core runs one query
/// stream, so core index ≡ stream index). The sum over cores equals
/// [`SharedL2Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreL2Share {
    /// Bank lookups this core presented (demand + prefetch).
    pub lookups: u64,
    /// Of those, how many found their bank busy.
    pub contended_lookups: u64,
    /// Total time this core's lookups spent waiting for a busy bank.
    pub contention_delay: SimTime,
}

impl CoreL2Share {
    /// Advances every counter by `periods` times its increment since
    /// `earlier` (see [`relmem_sim::shift`]).
    pub fn extrapolate(&mut self, earlier: &CoreL2Share, periods: u64) {
        self.lookups = extrapolate(self.lookups, earlier.lookups, periods);
        self.contended_lookups =
            extrapolate(self.contended_lookups, earlier.contended_lookups, periods);
        self.contention_delay =
            extrapolate_time(self.contention_delay, earlier.contention_delay, periods);
    }
}

/// The shared L2: tag store + pending fills + banked contention model.
#[derive(Debug, Clone)]
pub struct SharedL2 {
    cache: Cache,
    /// Arrival times of fills still in flight (typically prefetches),
    /// indexed by the owning line's way slot in `cache` (`SimTime::ZERO` =
    /// none). Keying by slot instead of by line address means the set walk
    /// that locates a line has already located its pending entry — no
    /// second, hashed lookup — and stale entries die structurally: a fill
    /// that recycles a way clears the slot, so the departed occupant's
    /// arrival can never serve a later refill. (An earlier revision kept
    /// an open-addressed line-address map and dropped entries at eviction
    /// for the same guarantee, paying the extra probe on every walk.)
    pending: Vec<SimTime>,
    /// Number of non-zero entries in `pending`.
    pending_len: usize,
    banks: MultiResource,
    /// Whether bank occupancy is modelled (true iff built for > 1 core).
    contended: bool,
    line_shift: u32,
    bank_occupancy: SimTime,
    stats: SharedL2Stats,
    /// Per-core traffic attribution (indexed by core, grown on demand).
    per_core: Vec<CoreL2Share>,
    /// Observability hook (no-op unless recording; see `relmem_sim::trace`).
    tracer: Tracer,
}

impl SharedL2 {
    /// Builds the shared L2 described by `cfg`, serving `cores` cores.
    /// Contention is modelled only when `cores > 1` (see module docs).
    pub fn new(cfg: &PlatformConfig, cores: usize) -> Self {
        let cache = Cache::new(cfg.l2);
        SharedL2 {
            pending: vec![SimTime::ZERO; cache.slots()],
            pending_len: 0,
            cache,
            banks: MultiResource::new("l2-banks", cfg.l2_banks.max(1)),
            contended: cores > 1,
            line_shift: cfg.l2.line_bytes.trailing_zeros(),
            bank_occupancy: cfg.cpu_clock().cycles(cfg.l2_bank_occupancy_cycles),
            stats: SharedL2Stats::default(),
            per_core: vec![CoreL2Share::default(); cores],
            tracer: Tracer::new(),
        }
    }

    /// The cache's trace hook (recording is controlled by the system).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Aggregate contention counters.
    pub fn stats(&self) -> &SharedL2Stats {
        &self.stats
    }

    /// Per-core attribution of the bank traffic (index = core = stream).
    pub fn core_shares(&self) -> &[CoreL2Share] {
        &self.per_core
    }

    /// Resets contention counters (keeps cache contents and occupancy).
    pub fn reset_stats(&mut self) {
        self.stats = SharedL2Stats::default();
        self.per_core
            .iter_mut()
            .for_each(|s| *s = CoreL2Share::default());
    }

    /// The bank a line maps to.
    #[inline]
    pub fn bank_of(&self, line: u64) -> usize {
        ((line >> self.line_shift) % self.banks.capacity() as u64) as usize
    }

    /// Books the line's bank for one lookup arriving at `ready`. Returns
    /// `(start, waited)`: the time the lookup actually starts and how long
    /// it waited for the bank (`(ready, 0)` when uncontended). The caller
    /// charges the hit latency on top of the returned start and records
    /// `waited` in its own per-core counters; `core` attributes the lookup
    /// in this cache's own [`core_shares`](Self::core_shares) breakdown.
    #[inline(always)]
    pub fn book_bank(&mut self, core: usize, line: u64, ready: SimTime) -> (SimTime, SimTime) {
        if !self.contended {
            return (ready, SimTime::ZERO);
        }
        self.stats.lookups += 1;
        if self.per_core.len() <= core {
            self.per_core.resize(core + 1, CoreL2Share::default());
        }
        self.per_core[core].lookups += 1;
        let bank = self.bank_of(line);
        let (start, _end) = self.banks.acquire_server(bank, ready, self.bank_occupancy);
        let waited = start.saturating_sub(ready);
        if !waited.is_zero() {
            self.stats.contended_lookups += 1;
            self.stats.contention_delay += waited;
            self.per_core[core].contended_lookups += 1;
            self.per_core[core].contention_delay += waited;
        }
        self.tracer.emit(|| {
            TraceEvent::instant(
                Track::L2Bank(bank as u32),
                TraceEventKind::L2BankBook,
                start,
                core as u64,
                waited.as_picos(),
            )
        });
        (start, waited)
    }

    /// Dirty-aware probe-or-install, exposing the touched way's slot index
    /// so the caller can address this line's pending-fill entry without a
    /// second lookup (see [`Cache::probe_else_fill_dirty_slot`]). `None`
    /// in the second component means a hit.
    #[inline(always)]
    pub(crate) fn walk(&mut self, line: u64) -> (usize, Option<(Option<u64>, bool)>) {
        self.cache.probe_else_fill_dirty_slot(line)
    }

    /// Marks a resident line dirty (a CPU write touched it). Never alters
    /// LRU order, bank occupancy or counters.
    #[inline]
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        self.cache.mark_dirty(line)
    }

    /// Records that the line occupying `slot` has a fill in flight until
    /// `arrival`. A `SimTime::ZERO` arrival is indistinguishable from "no
    /// pending fill" — which is exactly how the hierarchy already treats
    /// it (a zero arrival never counts as a prefetch hit nor delays a
    /// completion), so nothing observable changes.
    #[inline(always)]
    pub(crate) fn pending_set(&mut self, slot: usize, arrival: SimTime) {
        debug_assert!(self.pending[slot].is_zero(), "slot already pending");
        if !arrival.is_zero() {
            self.pending_len += 1;
        }
        self.pending[slot] = arrival;
    }

    /// Takes `slot`'s in-flight arrival time, leaving the slot clear.
    /// Returns `SimTime::ZERO` when no fill was pending.
    #[inline(always)]
    pub(crate) fn pending_take(&mut self, slot: usize) -> SimTime {
        let arrival = self.pending[slot];
        if !arrival.is_zero() {
            self.pending[slot] = SimTime::ZERO;
            self.pending_len -= 1;
        }
        arrival
    }

    /// Whether this L2's timing state is `earlier`'s moved by one period
    /// (see [`relmem_sim::shift`]): tag store, each line's pending-fill
    /// arrival and the bank free times.
    pub fn same_up_to_shift(&self, earlier: &SharedL2, shift: &Shift) -> bool {
        self.contended == earlier.contended
            && self.pending_len == earlier.pending_len
            && self
                .cache
                .same_up_to_shift_with(&earlier.cache, shift, |now, was| {
                    shift.same_time(self.pending[now], earlier.pending[was])
                })
            && self.banks.same_up_to_shift(&earlier.banks, shift)
    }

    /// Moves this L2's timing state forward by `periods` periods and
    /// advances the counters by their increment since `earlier`.
    pub fn shift(&mut self, earlier: &SharedL2, shift: &Shift, periods: u64) {
        self.cache.shift(shift, periods);
        shift.shift_times(&mut self.pending, periods);
        self.banks.shift(&earlier.banks, shift, periods);
        self.stats.extrapolate(&earlier.stats, periods);
        for (i, share) in self.per_core.iter_mut().enumerate() {
            share.extrapolate(
                &earlier.per_core.get(i).copied().unwrap_or_default(),
                periods,
            );
        }
    }

    /// Flushes the tag store, forgets pending fills and frees every bank.
    pub fn flush(&mut self) {
        self.cache.flush();
        self.pending.fill(SimTime::ZERO);
        self.pending_len = 0;
        self.banks.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SharedL2 {
        /// Whether the bank contention model is active.
        fn is_contended(&self) -> bool {
            self.contended
        }

        /// Number of pending (in-flight prefetch) fills currently tracked.
        pub(crate) fn pending_fills(&self) -> usize {
            self.pending_len
        }
    }

    #[test]
    fn only_a_multi_core_l2_is_contended() {
        let cfg = PlatformConfig::zcu102();
        assert!(SharedL2::new(&cfg, 4).is_contended());
        assert!(!SharedL2::new(&cfg, 1).is_contended());
    }

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn uncontended_booking_is_the_identity() {
        let cfg = PlatformConfig::zcu102();
        let mut l2 = SharedL2::new(&cfg, 1);
        // Back-to-back same-bank requests at the same instant: no delay,
        // no bookkeeping.
        assert_eq!(l2.book_bank(0, 0, ns(10)), (ns(10), SimTime::ZERO));
        assert_eq!(l2.book_bank(0, 0, ns(10)), (ns(10), SimTime::ZERO));
        assert_eq!(l2.stats(), &SharedL2Stats::default());
    }

    #[test]
    fn contended_same_bank_lookups_serialize() {
        let cfg = PlatformConfig::zcu102();
        let mut l2 = SharedL2::new(&cfg, 2);
        let occ = cfg.cpu_clock().cycles(cfg.l2_bank_occupancy_cycles);
        assert_eq!(l2.book_bank(0, 0, ns(10)), (ns(10), SimTime::ZERO));
        // Same line → same bank → the second lookup waits out the occupancy.
        assert_eq!(l2.book_bank(0, 0, ns(10)), (ns(10) + occ, occ));
        assert_eq!(l2.stats().contended_lookups, 1);
        assert_eq!(l2.stats().contention_delay, occ);
    }

    #[test]
    fn different_banks_do_not_contend() {
        let cfg = PlatformConfig::zcu102();
        let mut l2 = SharedL2::new(&cfg, 2);
        let line = 64u64;
        assert_ne!(l2.bank_of(0), l2.bank_of(line));
        l2.book_bank(0, 0, ns(10));
        assert_eq!(l2.book_bank(0, line, ns(10)), (ns(10), SimTime::ZERO));
        assert_eq!(l2.stats().contended_lookups, 0);
    }

    #[test]
    fn per_core_shares_attribute_contention() {
        let cfg = PlatformConfig::zcu102();
        let mut l2 = SharedL2::new(&cfg, 2);
        let occ = cfg.cpu_clock().cycles(cfg.l2_bank_occupancy_cycles);
        l2.book_bank(0, 0, ns(10));
        l2.book_bank(1, 0, ns(10)); // same bank: core 1 waits out core 0
        assert_eq!(l2.core_shares()[0].lookups, 1);
        assert_eq!(l2.core_shares()[0].contended_lookups, 0);
        assert_eq!(l2.core_shares()[1].contended_lookups, 1);
        assert_eq!(l2.core_shares()[1].contention_delay, occ);
        // The per-core shares sum to the aggregate counters.
        let total: u64 = l2.core_shares().iter().map(|s| s.lookups).sum();
        assert_eq!(total, l2.stats().lookups);
        l2.reset_stats();
        assert_eq!(l2.core_shares()[1], CoreL2Share::default());
    }

    #[test]
    fn flush_frees_banks_and_pending() {
        let cfg = PlatformConfig::zcu102();
        let mut l2 = SharedL2::new(&cfg, 2);
        l2.book_bank(0, 0, ns(10));
        let (slot, filled) = l2.walk(0);
        assert!(filled.is_some(), "cold walk installs the line");
        l2.pending_set(slot, ns(99));
        assert_eq!(l2.pending_fills(), 1);
        assert_eq!(l2.pending_take(slot), ns(99));
        assert_eq!(l2.pending_take(slot), SimTime::ZERO, "take clears");
        l2.pending_set(slot, ns(99));
        l2.flush();
        assert_eq!(l2.pending_fills(), 0);
        assert_eq!(l2.book_bank(0, 0, ns(10)), (ns(10), SimTime::ZERO));
    }
}
