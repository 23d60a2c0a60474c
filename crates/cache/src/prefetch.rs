//! Sequential stream prefetcher.
//!
//! The Cortex-A53's L1 prefetcher recognises sequential access streams and
//! runs ahead of them; the paper observes that it tracks *up to four*
//! concurrent streams, which is why direct columnar access stops scaling at
//! a projectivity of four (Figure 9). This module reproduces that behaviour:
//! streams are detected from consecutive line-granular misses, at most
//! `max_streams` streams are tracked (LRU replacement), and an established
//! stream prefetches `degree` lines ahead of the demand pointer.

use std::collections::VecDeque;

use relmem_sim::shift::extrapolate;
use relmem_sim::Shift;

/// Outcome of training the prefetcher with one demand access.
///
/// Prefetch targets are always a contiguous run of lines, so the decision
/// stores the run as `(first_line_number, count)` instead of materialising
/// a `Vec<u64>` — training happens on every L1 miss, and the allocation was
/// one of the simulator's hottest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchDecision {
    /// First line *number* (address / line size) to prefetch.
    first_line: u64,
    /// Number of consecutive lines to prefetch.
    count: u64,
    /// Line size, to turn line numbers back into addresses.
    line_bytes: u64,
    /// Whether the access continued an established stream.
    pub stream_hit: bool,
}

impl PrefetchDecision {
    fn run(first_line: u64, count: u64, line_bytes: u64, stream_hit: bool) -> Self {
        PrefetchDecision {
            first_line,
            count,
            line_bytes,
            stream_hit,
        }
    }

    /// Number of lines to prefetch.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether there is nothing to prefetch.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The line *addresses* to prefetch, in ascending order.
    pub fn lines(self) -> impl Iterator<Item = u64> {
        (self.first_line..self.first_line + self.count).map(move |l| l * self.line_bytes)
    }
}

#[derive(Debug, Clone)]
struct Stream {
    /// The last line demanded by the program on this stream.
    last_demand: u64,
    /// The furthest line already requested by the prefetcher.
    last_prefetched: u64,
    /// LRU tick of the last touch.
    touched: u64,
}

/// A next-line stream prefetcher with a bounded number of stream trackers.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    line_bytes: u64,
    line_shift: u32,
    max_streams: usize,
    degree: usize,
    streams: Vec<Stream>,
    /// Recently missed lines used to detect new streams.
    recent: VecDeque<u64>,
    tick: u64,
    issued: u64,
    stream_hits: u64,
}

impl StreamPrefetcher {
    /// Creates a prefetcher.
    ///
    /// * `line_bytes` — cache line size.
    /// * `max_streams` — number of concurrent streams tracked (4 on the A53).
    /// * `degree` — how many lines ahead of the demand pointer to run.
    pub fn new(line_bytes: usize, max_streams: usize, degree: usize) -> Self {
        assert!(line_bytes.is_power_of_two());
        StreamPrefetcher {
            line_bytes: line_bytes as u64,
            line_shift: line_bytes.trailing_zeros(),
            max_streams,
            degree,
            streams: Vec::new(),
            recent: VecDeque::with_capacity(16),
            tick: 0,
            issued: 0,
            stream_hits: 0,
        }
    }

    /// Forgets all streams and history (e.g. between queries).
    pub fn reset(&mut self) {
        self.streams.clear();
        self.recent.clear();
    }

    /// Trains the prefetcher with a demand access to `addr` and returns the
    /// lines to prefetch. `max_streams == 0` disables prefetching entirely.
    ///
    /// Inlined aggressively: training runs on every L1 miss, and during a
    /// sequential scan every call takes the stream-continuation branch
    /// below — a handful of compares over at most `max_streams` trackers.
    /// The detection/allocation machinery only runs when no stream matches
    /// and lives in the outlined `train_no_stream`.
    #[inline(always)]
    pub fn train(&mut self, addr: u64) -> PrefetchDecision {
        if self.max_streams == 0 || self.degree == 0 {
            return PrefetchDecision::default();
        }
        self.tick += 1;
        let line = addr >> self.line_shift;

        // Continuation of an existing stream? Allow the demand pointer to be
        // anywhere between the stream head and its prefetch horizon.
        if let Some(idx) = self
            .streams
            .iter()
            .position(|s| line > s.last_demand && line <= s.last_prefetched + 1)
        {
            let degree = self.degree as u64;
            let stream = &mut self.streams[idx];
            stream.last_demand = line;
            stream.touched = self.tick;
            let target = line + degree;
            let from = stream.last_prefetched + 1;
            let mut count = 0;
            if target >= from {
                count = target - from + 1;
                stream.last_prefetched = target;
            }
            self.issued += count;
            self.stream_hits += 1;
            return PrefetchDecision::run(from, count, self.line_bytes, true);
        }
        self.train_no_stream(line)
    }

    /// The cold half of [`train`](Self::train): no tracked stream matched.
    fn train_no_stream(&mut self, line: u64) -> PrefetchDecision {
        // New stream detection: this line follows a recently missed line.
        let predecessor = line.checked_sub(1);
        let detected = predecessor.is_some_and(|p| self.recent.contains(&p));
        self.remember(line);
        if !detected {
            return PrefetchDecision::default();
        }

        // Allocate (possibly evicting the LRU stream).
        if self.streams.len() == self.max_streams {
            if let Some(lru) = self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.touched)
                .map(|(i, _)| i)
            {
                self.streams.swap_remove(lru);
            }
        }
        let degree = self.degree as u64;
        let last_prefetched = line + degree;
        self.issued += degree;
        self.streams.push(Stream {
            last_demand: line,
            last_prefetched,
            touched: self.tick,
        });
        PrefetchDecision::run(line + 1, degree, self.line_bytes, false)
    }

    /// Line number `line` moved forward by `periods` periods.
    fn moved(&self, line: u64, shift: &Shift, periods: u64) -> u64 {
        shift.addr(line << self.line_shift, periods) >> self.line_shift
    }

    /// Whether the tracked streams and the miss history are `earlier`'s
    /// moved by one period: same order, lines moved, and each stream's LRU
    /// age (`tick - touched`) unchanged. A history no training consulted
    /// during the period must be unchanged instead of moved.
    pub fn same_up_to_shift(&self, earlier: &StreamPrefetcher, shift: &Shift) -> bool {
        self.streams.len() == earlier.streams.len()
            && self.streams.iter().zip(&earlier.streams).all(|(s, e)| {
                s.last_demand == self.moved(e.last_demand, shift, 1)
                    && s.last_prefetched == self.moved(e.last_prefetched, shift, 1)
                    && self.tick - s.touched == earlier.tick - e.touched
            })
            && if self.untracked() == earlier.untracked() {
                // No miss fell outside the streams during the period, so
                // the history was never consulted and never will be while
                // the streams keep moving with the period: it is frozen.
                self.recent == earlier.recent
            } else {
                self.recent.len() == earlier.recent.len()
                    && self
                        .recent
                        .iter()
                        .zip(&earlier.recent)
                        .all(|(&l, &e)| l == self.moved(e, shift, 1))
            }
    }

    /// Trainings that matched no stream (each one consulted and extended
    /// the miss history).
    fn untracked(&self) -> u64 {
        self.tick - self.stream_hits
    }

    /// Moves every stream and remembered miss forward by `periods` periods
    /// and advances the LRU clock and the counters by their increment since
    /// `earlier`.
    pub fn shift(&mut self, earlier: &StreamPrefetcher, shift: &Shift, periods: u64) {
        let ticks = (self.tick - earlier.tick) * periods;
        for i in 0..self.streams.len() {
            let s = &self.streams[i];
            let (demand, prefetched) = (
                self.moved(s.last_demand, shift, periods),
                self.moved(s.last_prefetched, shift, periods),
            );
            let s = &mut self.streams[i];
            s.last_demand = demand;
            s.last_prefetched = prefetched;
            s.touched += ticks;
        }
        if self.untracked() != earlier.untracked() {
            for i in 0..self.recent.len() {
                self.recent[i] = self.moved(self.recent[i], shift, periods);
            }
        }
        self.tick += ticks;
        self.issued = extrapolate(self.issued, earlier.issued, periods);
        self.stream_hits = extrapolate(self.stream_hits, earlier.stream_hits, periods);
    }

    fn remember(&mut self, line: u64) {
        if self.recent.len() == 16 {
            self.recent.pop_front();
        }
        self.recent.push_back(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StreamPrefetcher {
        /// Number of prefetch requests issued so far.
        fn issued(&self) -> u64 {
            self.issued
        }

        /// Number of streams currently tracked.
        fn active_streams(&self) -> usize {
            self.streams.len()
        }
    }

    const LINE: u64 = 64;

    fn feed_sequential(pf: &mut StreamPrefetcher, start_line: u64, n: u64) -> u64 {
        let mut prefetched = 0;
        for i in 0..n {
            let d = pf.train((start_line + i) * LINE);
            prefetched += d.len() as u64;
        }
        prefetched
    }

    #[test]
    fn sequential_stream_is_detected_and_prefetched() {
        let mut pf = StreamPrefetcher::new(64, 4, 4);
        // First access: nothing known yet.
        assert!(pf.train(0).is_empty());
        // Second sequential access allocates a stream and prefetches ahead.
        let d = pf.train(64);
        assert_eq!(d.lines().collect::<Vec<_>>(), vec![128, 192, 256, 320]);
        // Third access continues the stream one line further.
        let d = pf.train(128);
        assert!(d.stream_hit);
        assert_eq!(d.lines().collect::<Vec<_>>(), vec![384]);
        assert_eq!(pf.active_streams(), 1);
    }

    #[test]
    fn random_accesses_do_not_prefetch() {
        let mut pf = StreamPrefetcher::new(64, 4, 4);
        for addr in [0u64, 1024, 8192, 640, 70_000] {
            assert!(pf.train(addr).is_empty());
        }
        assert_eq!(pf.issued(), 0);
    }

    #[test]
    fn at_most_max_streams_are_tracked() {
        let mut pf = StreamPrefetcher::new(64, 4, 2);
        // Establish 6 interleaved streams far apart; only 4 survive.
        for s in 0..6u64 {
            let base = s * 1_000; // line number base
            feed_sequential(&mut pf, base, 3);
        }
        assert_eq!(pf.active_streams(), 4);
    }

    #[test]
    fn disabled_prefetcher_is_inert() {
        let mut pf = StreamPrefetcher::new(64, 0, 8);
        assert_eq!(feed_sequential(&mut pf, 0, 50), 0);
        let mut pf2 = StreamPrefetcher::new(64, 4, 0);
        assert_eq!(feed_sequential(&mut pf2, 0, 50), 0);
    }

    #[test]
    fn established_stream_keeps_pace_with_demand() {
        let mut pf = StreamPrefetcher::new(64, 4, 8);
        feed_sequential(&mut pf, 0, 2);
        // From now on every demand access should trigger exactly one new
        // prefetch (steady state).
        for i in 2..20u64 {
            let d = pf.train(i * LINE);
            assert!(d.stream_hit, "access {i} should continue the stream");
            assert_eq!(d.len(), 1);
        }
    }

    #[test]
    fn reset_forgets_streams() {
        let mut pf = StreamPrefetcher::new(64, 4, 4);
        feed_sequential(&mut pf, 0, 5);
        assert!(pf.active_streams() > 0);
        pf.reset();
        assert_eq!(pf.active_streams(), 0);
        // After reset the next access is treated as cold again.
        assert!(pf.train(10 * LINE).is_empty());
    }
}
