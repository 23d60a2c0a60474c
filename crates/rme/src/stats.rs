//! Engine statistics.

/// Counters accumulated by the engine while serving a query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RmeStats {
    /// CPU-side line requests that found their line complete in the
    /// Reorganization Buffer (hits).
    pub buffer_hits: u64,
    /// CPU-side line requests that had to wait for (or trigger) a fetch.
    pub buffer_misses: u64,
    /// Frames fetched from main memory.
    pub frames_fetched: u64,
    /// Descriptors generated by the Requestor.
    pub descriptors: u64,
    /// Bus beats requested from main memory by the Fetch Units.
    pub dram_beats: u64,
    /// Useful bytes extracted and written into the Data SPM.
    pub useful_bytes: u64,
    /// Source rows skipped by MVCC visibility filtering.
    pub rows_filtered: u64,
    /// Epoch resets (frame turnovers) performed.
    pub epoch_resets: u64,
}

impl RmeStats {
    /// Advances every counter by `periods` times its increment since
    /// `earlier` (see [`relmem_sim::shift`]).
    pub fn extrapolate(&mut self, earlier: &RmeStats, periods: u64) {
        use relmem_sim::shift::extrapolate;
        let e = |now: u64, was: u64| extrapolate(now, was, periods);
        self.buffer_hits = e(self.buffer_hits, earlier.buffer_hits);
        self.buffer_misses = e(self.buffer_misses, earlier.buffer_misses);
        self.frames_fetched = e(self.frames_fetched, earlier.frames_fetched);
        self.descriptors = e(self.descriptors, earlier.descriptors);
        self.dram_beats = e(self.dram_beats, earlier.dram_beats);
        self.useful_bytes = e(self.useful_bytes, earlier.useful_bytes);
        self.rows_filtered = e(self.rows_filtered, earlier.rows_filtered);
        self.epoch_resets = e(self.epoch_resets, earlier.epoch_resets);
    }

    /// Bytes moved over the PL↔DRAM interface (beats × 16).
    pub fn dram_bytes(&self, bus_bytes: usize) -> u64 {
        self.dram_beats * bus_bytes as u64
    }

    /// Fraction of the fetched bytes that were actually useful — the
    /// "no wasted traffic" argument of the paper.
    pub fn efficiency(&self, bus_bytes: usize) -> f64 {
        let fetched = self.dram_bytes(bus_bytes);
        if fetched == 0 {
            0.0
        } else {
            self.useful_bytes as f64 / fetched as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let s = RmeStats {
            buffer_hits: 3,
            buffer_misses: 1,
            dram_beats: 10,
            useful_bytes: 40,
            ..Default::default()
        };
        assert_eq!(s.dram_bytes(16), 160);
        assert!((s.efficiency(16) - 0.25).abs() < 1e-12);
        let empty = RmeStats::default();
        assert_eq!(empty.efficiency(16), 0.0);
    }
}
