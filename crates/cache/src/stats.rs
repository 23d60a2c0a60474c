//! Cache statistics, the raw material of the paper's Figure 8.
//!
//! Counters are kept *per core* in each
//! [`CoreFrontend`](crate::CoreFrontend); cluster-wide numbers are obtained
//! with [`HierarchyStats::merge`], which is exactly what `relmem-core`'s
//! `System` reports for a multi-core measurement.

use relmem_sim::shift::{extrapolate, extrapolate_time};
use relmem_sim::SimTime;

/// Counters for a single cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLevelStats {
    /// Lookups presented to this level (demand + prefetch).
    pub requests: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl CacheLevelStats {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.misses as f64 / self.requests as f64
        }
    }

    /// Adds another stats block into this one.
    pub fn merge(&mut self, other: &CacheLevelStats) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Advances every counter by `periods` times its increment since
    /// `earlier` (see [`relmem_sim::shift`]).
    pub fn extrapolate(&mut self, earlier: &CacheLevelStats, periods: u64) {
        self.requests = extrapolate(self.requests, earlier.requests, periods);
        self.hits = extrapolate(self.hits, earlier.hits, periods);
        self.misses = extrapolate(self.misses, earlier.misses, periods);
    }
}

/// Counters for the whole hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 data cache counters.
    pub l1: CacheLevelStats,
    /// L2 counters (demand L1 misses + prefetches).
    pub l2: CacheLevelStats,
    /// Lines requested from the backend (DRAM or RME).
    pub backend_fills: u64,
    /// Prefetch requests issued by the stream prefetcher.
    pub prefetches_issued: u64,
    /// Demand misses that found their line already in flight thanks to the
    /// prefetcher.
    pub prefetch_hits: u64,
    /// L2 lookups (demand + prefetch) from this core that found their bank
    /// busy with another lookup. Always zero when a single core is
    /// simulated — the shared-L2 contention model only engages for
    /// multi-core clusters.
    pub l2_contended_lookups: u64,
    /// Total time this core's L2 lookups spent waiting for a busy bank.
    pub l2_contention_delay: SimTime,
}

impl HierarchyStats {
    /// Merges another hierarchy's counters into this one.
    pub fn merge(&mut self, other: &HierarchyStats) {
        self.l1.merge(&other.l1);
        self.l2.merge(&other.l2);
        self.backend_fills += other.backend_fills;
        self.prefetches_issued += other.prefetches_issued;
        self.prefetch_hits += other.prefetch_hits;
        self.l2_contended_lookups += other.l2_contended_lookups;
        self.l2_contention_delay += other.l2_contention_delay;
    }

    /// Advances every counter by `periods` times its increment since
    /// `earlier` (see [`relmem_sim::shift`]).
    pub fn extrapolate(&mut self, earlier: &HierarchyStats, periods: u64) {
        self.l1.extrapolate(&earlier.l1, periods);
        self.l2.extrapolate(&earlier.l2, periods);
        self.backend_fills = extrapolate(self.backend_fills, earlier.backend_fills, periods);
        self.prefetches_issued =
            extrapolate(self.prefetches_issued, earlier.prefetches_issued, periods);
        self.prefetch_hits = extrapolate(self.prefetch_hits, earlier.prefetch_hits, periods);
        self.l2_contended_lookups = extrapolate(
            self.l2_contended_lookups,
            earlier.l2_contended_lookups,
            periods,
        );
        self.l2_contention_delay = extrapolate_time(
            self.l2_contention_delay,
            earlier.l2_contention_delay,
            periods,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_handles_zero() {
        let s = CacheLevelStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        let s2 = CacheLevelStats {
            requests: 10,
            hits: 6,
            misses: 4,
        };
        assert!((s2.miss_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = HierarchyStats::default();
        a.l1.requests = 5;
        a.backend_fills = 2;
        let mut b = HierarchyStats::default();
        b.l1.requests = 3;
        b.backend_fills = 1;
        b.prefetches_issued = 7;
        a.merge(&b);
        assert_eq!(a.l1.requests, 8);
        assert_eq!(a.backend_fills, 3);
        assert_eq!(a.prefetches_issued, 7);
    }
}
