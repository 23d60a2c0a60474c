//! The Reorganization Buffer: Data SPM + Metadata SPM.
//!
//! Extracted column chunks are written into the Data SPM at the packed
//! offset the Requestor computed; the Metadata SPM keeps, for every cache
//! line of packed data, the epoch the line belongs to (`P`) and the number
//! of valid bytes accumulated so far (`K`). A line is complete when its
//! valid-byte count reaches the line size *and* its epoch matches the
//! engine's current epoch; bumping the epoch therefore invalidates the whole
//! buffer in a single cycle — the lightweight reset used when moving to the
//! next frame of a table larger than the SPM.
//!
//! The hardware entry also holds the ID of a CPU transaction stalled on
//! the line, to answer it when the line completes. That field is not
//! modelled: the engine computes a stalled request's response time in the
//! same call that books the line's data, from the line's completion time.

use relmem_sim::shift::extrapolate;
use relmem_sim::{Shift, SimTime};

/// Per-line metadata (the Metadata SPM entry's `{P, K}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct LineMeta {
    /// Epoch the line's data belongs to (`P`).
    epoch: u64,
    /// Valid bytes accumulated (`K`).
    valid_bytes: u32,
    /// Time at which the line became complete (timing-model companion of
    /// the completion bit).
    complete_at: SimTime,
}

/// The Data + Metadata scratch-pad memories.
#[derive(Debug, Clone)]
pub struct ReorganizationBuffer {
    line_bytes: usize,
    /// `log2(line_bytes)`: line indices are shifts, not divisions.
    line_shift: u32,
    data: Vec<u8>,
    meta: Vec<LineMeta>,
    epoch: u64,
    /// Epoch resets performed.
    resets: u64,
}

impl ReorganizationBuffer {
    /// Creates a buffer of `capacity_bytes` data SPM, organised in
    /// `line_bytes` lines.
    pub fn new(capacity_bytes: usize, line_bytes: usize) -> Self {
        assert!(line_bytes.is_power_of_two());
        assert!(capacity_bytes.is_multiple_of(line_bytes) && capacity_bytes > 0);
        let lines = capacity_bytes / line_bytes;
        ReorganizationBuffer {
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            data: vec![0u8; capacity_bytes],
            meta: vec![LineMeta::default(); lines],
            // Start at epoch 1 so that the all-zero metadata is "stale".
            epoch: 1,
            resets: 0,
        }
    }

    /// Capacity of the Data SPM in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.data.len()
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of epoch resets performed.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Invalidates every line by bumping the epoch — the single-cycle
    /// software-triggered reset of Section 5.
    pub fn reset_epoch(&mut self) {
        self.epoch += 1;
        self.resets += 1;
    }

    /// The Data SPM, for the engine's pack kernel to write packed rows
    /// into. Writing bytes credits no line: see [`credit`](Self::credit).
    pub(crate) fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Adds `bytes` valid bytes to `line`, the last of them written at
    /// `when`: the Metadata SPM update of one or more chunks written into
    /// the line. Returns whether the line is complete afterwards.
    pub(crate) fn credit(&mut self, line: usize, bytes: usize, when: SimTime) -> bool {
        let meta = &mut self.meta[line];
        if meta.epoch != self.epoch {
            // First write of this epoch: start counting from zero.
            meta.epoch = self.epoch;
            meta.valid_bytes = 0;
            meta.complete_at = SimTime::ZERO;
        }
        meta.valid_bytes += bytes as u32;
        meta.complete_at = meta.complete_at.max(when);
        debug_assert!(
            meta.valid_bytes as usize <= self.line_bytes,
            "line {line} overfilled"
        );
        meta.valid_bytes as usize == self.line_bytes
    }

    /// Credits every line that `len` bytes written at `offset` overlap with
    /// its share of them, all written at `when`.
    ///
    /// # Panics
    /// Panics if the bytes do not fit in the buffer.
    pub(crate) fn credit_bytes(&mut self, offset: usize, len: usize, when: SimTime) {
        let end = offset + len;
        assert!(
            end <= self.data.len(),
            "bytes [{offset}, {end}) exceed SPM capacity {}",
            self.data.len()
        );
        let mut from = offset;
        while from < end {
            let line = from >> self.line_shift;
            let to = end.min((line + 1) << self.line_shift);
            self.credit(line, to - from, when);
            from = to;
        }
    }

    /// Marks a line complete without data movement (used when a line is
    /// known to be shorter than a full cache line — the tail of the packed
    /// projection — or when prewarming for "hot" measurements).
    pub fn force_complete(&mut self, line: usize, when: SimTime) {
        let line_bytes = self.line_bytes as u32;
        let meta = &mut self.meta[line];
        meta.epoch = self.epoch;
        meta.valid_bytes = line_bytes;
        meta.complete_at = meta.complete_at.max(when);
    }

    /// Whether a line is complete in the current epoch.
    pub fn is_complete(&self, line: usize) -> bool {
        let meta = &self.meta[line];
        meta.epoch == self.epoch && meta.valid_bytes as usize == self.line_bytes
    }

    /// The time a complete line became available (ZERO for prewarmed lines).
    /// Returns `None` if the line is not complete in the current epoch.
    pub fn completion_time(&self, line: usize) -> Option<SimTime> {
        self.is_complete(line).then(|| self.meta[line].complete_at)
    }

    /// Reads a full line of packed data.
    pub fn read_line(&self, line: usize) -> &[u8] {
        let start = line * self.line_bytes;
        &self.data[start..start + self.line_bytes]
    }

    /// Reads an arbitrary byte range of the packed data (for tests and for
    /// the functional path of partially filled tail lines).
    pub fn read_bytes(&self, offset: usize, len: usize) -> &[u8] {
        &self.data[offset..offset + len]
    }

    /// Whether the Metadata SPM is `earlier`'s moved by one period (see
    /// [`relmem_sim::shift`]): the same lines belong to the current epoch,
    /// and each such line has the same valid-byte count and completed one
    /// period later (or both before their period started: a completion
    /// time only ever enters `max(completion, request)`). Lines of older
    /// epochs are dead — the next write resets them — and the Data SPM
    /// bytes are not timing state, so neither is compared.
    pub fn same_up_to_shift(&self, earlier: &ReorganizationBuffer, shift: &Shift) -> bool {
        self.meta.len() == earlier.meta.len()
            && self.meta.iter().zip(&earlier.meta).all(|(m, e)| {
                let live = m.epoch == self.epoch;
                live == (e.epoch == earlier.epoch)
                    && (!live
                        || (m.valid_bytes == e.valid_bytes
                            && shift.same_free_time(m.complete_at, e.complete_at)))
            })
    }

    /// Moves the current epoch's lines forward by `periods` periods (their
    /// completion times, and their epoch along with the current one) and
    /// advances the reset counter by its increment since `earlier`. The
    /// data bytes stay as they are: they belong to whichever frame was last
    /// really fetched, and the next fetch overwrites them.
    pub fn shift(&mut self, earlier: &ReorganizationBuffer, shift: &Shift, periods: u64) {
        let epochs = (self.epoch - earlier.epoch) * periods;
        for m in &mut self.meta {
            if m.epoch == self.epoch {
                m.epoch += epochs;
                m.complete_at = shift.time_after(m.complete_at, periods);
            }
        }
        self.epoch += epochs;
        self.resets = extrapolate(self.resets, earlier.resets, periods);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl ReorganizationBuffer {
        /// Writes one extracted chunk at `offset` bytes within the buffer,
        /// arriving at `when`, and credits the lines it touches: the
        /// per-descriptor write the engine's run booking is held to.
        /// Returns how many lines became complete.
        ///
        /// # Panics
        /// Panics if the chunk does not fit in the buffer.
        pub(crate) fn write_chunk(&mut self, offset: usize, bytes: &[u8], when: SimTime) -> usize {
            assert!(
                offset + bytes.len() <= self.data.len(),
                "chunk [{offset}, {}) exceeds SPM capacity {}",
                offset + bytes.len(),
                self.data.len()
            );
            let end = offset + bytes.len();
            self.data[offset..end].copy_from_slice(bytes);
            let first_line = offset >> self.line_shift;
            let last_line = (end - 1) >> self.line_shift;
            let mut completed = 0;
            for line in first_line..=last_line {
                let line_start = line << self.line_shift;
                let overlap = end.min(line_start + self.line_bytes) - offset.max(line_start);
                completed += self.credit(line, overlap, when) as usize;
            }
            completed
        }

        /// Every line's `(epoch, valid bytes, completion time)`.
        pub(crate) fn metadata(&self) -> Vec<(u64, u32, SimTime)> {
            self.meta
                .iter()
                .map(|m| (m.epoch, m.valid_bytes, m.complete_at))
                .collect()
        }
    }

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn chunks_accumulate_until_the_line_completes() {
        let mut buf = ReorganizationBuffer::new(256, 64);
        assert!(!buf.is_complete(0));
        let done = buf.write_chunk(0, &[1u8; 32], ns(10));
        assert_eq!(done, 0);
        assert!(!buf.is_complete(0));
        let done = buf.write_chunk(32, &[2u8; 32], ns(25));
        assert_eq!(done, 1);
        assert!(buf.is_complete(0));
        assert_eq!(buf.completion_time(0), Some(ns(25)));
        assert_eq!(&buf.read_line(0)[..2], &[1, 1]);
        assert_eq!(&buf.read_line(0)[32..34], &[2, 2]);
        assert!(!buf.is_complete(1));
    }

    #[test]
    fn a_chunk_spanning_two_lines_feeds_both() {
        let mut buf = ReorganizationBuffer::new(256, 64);
        buf.write_chunk(0, &[7u8; 60], ns(1));
        buf.write_chunk(100, &[8u8; 28], ns(2));
        // Bytes 60..128 complete both line 0 (4 missing bytes) and line 1.
        let done = buf.write_chunk(60, &[9u8; 40], ns(3));
        assert_eq!(done, 2);
        assert_eq!(buf.completion_time(1), Some(ns(3)));
    }

    /// Crediting a line once with the sum of its chunks' bytes and the
    /// latest of their times leaves the metadata one credit per chunk
    /// leaves, across a line split between two credits.
    #[test]
    fn one_credit_per_line_equals_one_per_chunk() {
        let mut per_chunk = ReorganizationBuffer::new(256, 64);
        for (k, at) in [(0, 9), (1, 4), (2, 7), (3, 2), (4, 8), (5, 1)] {
            per_chunk.write_chunk(k * 12, &[0u8; 12], ns(at));
        }
        let mut per_line = ReorganizationBuffer::new(256, 64);
        assert!(per_line.credit(0, 64, ns(9)));
        assert!(!per_line.credit(1, 8, ns(1)));
        assert_eq!(per_line.meta, per_chunk.meta);
        per_chunk.write_chunk(72, &[0u8; 56], ns(3));
        assert!(per_line.credit(1, 56, ns(3)));
        assert_eq!(per_line.meta, per_chunk.meta);
        assert_eq!(per_line.completion_time(1), Some(ns(3)));
    }

    #[test]
    fn credited_bytes_feed_every_line_they_overlap() {
        let mut buf = ReorganizationBuffer::new(256, 64);
        buf.credit_bytes(40, 100, ns(5));
        assert!(!buf.is_complete(0));
        assert_eq!(buf.completion_time(1), Some(ns(5)));
        assert!(!buf.is_complete(2));
        buf.credit_bytes(0, 40, ns(2));
        buf.credit_bytes(140, 52, ns(6));
        assert_eq!(buf.completion_time(0), Some(ns(5)));
        assert_eq!(buf.completion_time(2), Some(ns(6)));
    }

    #[test]
    fn epoch_reset_invalidates_in_one_step() {
        let mut buf = ReorganizationBuffer::new(128, 64);
        buf.write_chunk(0, &[1u8; 64], ns(5));
        assert!(buf.is_complete(0));
        buf.reset_epoch();
        assert!(!buf.is_complete(0));
        assert_eq!(buf.completion_time(0), None);
        assert_eq!(buf.resets(), 1);
        // Writing after the reset starts a fresh count.
        let done = buf.write_chunk(0, &[2u8; 64], ns(50));
        assert_eq!(done, 1);
        assert_eq!(buf.completion_time(0), Some(ns(50)));
    }

    #[test]
    fn force_complete_marks_partial_tail_lines() {
        let mut buf = ReorganizationBuffer::new(128, 64);
        buf.write_chunk(64, &[3u8; 10], ns(4));
        assert!(!buf.is_complete(1));
        buf.force_complete(1, ns(6));
        assert!(buf.is_complete(1));
        assert_eq!(buf.completion_time(1), Some(ns(6)));
        // Forcing an already complete line keeps its earlier completion
        // unless the new time is later.
        buf.force_complete(1, ns(5));
        assert_eq!(buf.completion_time(1), Some(ns(6)));
    }

    #[test]
    #[should_panic(expected = "exceed SPM capacity")]
    fn overflowing_bytes_panic() {
        let mut buf = ReorganizationBuffer::new(128, 64);
        buf.credit_bytes(100, 64, SimTime::ZERO);
    }
}
