//! Whole-period translations of timing state.
//!
//! A single-lane scan over a table much larger than every cache, the DRAM
//! bank/XOR span and the Reorganization Buffer settles into a *periodic
//! steady state*: once the state at the start of one period equals the
//! state at the start of the previous one — with every address moved by the
//! period's byte span and every time by the period's duration — each later
//! period replays the same timing. [`Shift`] describes that translation;
//! every timing model (cache levels, DRAM controller, RME) offers
//! `same_up_to_shift` to detect it and `shift` to apply it over many
//! periods at once.
//!
//! These conventions hold across the models:
//!
//! * **Times.** A time is compared relative to the period's start:
//!   `now == earlier + shift.time`. [`SimTime::ZERO`] is the "never" value
//!   of every resource, slot and pending table (it acts as minus infinity
//!   in `max(ready, free)`), so it stays zero under a shift.
//! * **Settled free times.** Every request a single-lane scan issues after
//!   a period's start is ready no earlier than that start, so a resource
//!   free time at or before it never delays anything again: such times
//!   compare as equal to each other ([`Shift::same_free_time`]). Only
//!   times used purely as `max(ready, free)` qualify.
//! * **Lazy pools.** Pools that drop an entry only once the clock passes
//!   it (in-flight fills, outstanding transactions) are compared as the
//!   multiset of their *live* entries, those after the period's start
//!   ([`Shift::same_live_times`]): every later request arrives at or after
//!   that start, so an entry at or before it is already dead.
//! * **Counters.** A counter advances by its per-period increment,
//!   `now + (now - earlier) * periods` ([`extrapolate`]); a maximum stays.
//!
//! ```
//! use relmem_sim::{Shift, SimTime};
//!
//! let s = Shift {
//!     time: SimTime::from_nanos(100),
//!     start: SimTime::from_nanos(300),
//!     source: 4096,
//!     ephemeral: 1024,
//!     ephemeral_base: 1 << 40,
//! };
//! assert_eq!(s.addr(64, 3), 64 + 3 * 4096);
//! assert_eq!(s.addr((1 << 40) + 64, 2), (1 << 40) + 64 + 2 * 1024);
//! assert!(s.same_time(SimTime::from_nanos(150), SimTime::from_nanos(50)));
//! assert!(s.same_time(SimTime::ZERO, SimTime::ZERO));
//! assert_eq!(s.time_after(SimTime::ZERO, 5), SimTime::ZERO);
//! ```

use crate::time::SimTime;

/// The translation between the starts of two consecutive periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shift {
    /// Simulated duration of one period.
    pub time: SimTime,
    /// Start of the later of the two compared periods (the current state's
    /// period); every later request arrives at or after it.
    pub start: SimTime,
    /// Bytes a physical (source) address advances per period.
    pub source: u64,
    /// Bytes an ephemeral address advances per period.
    pub ephemeral: u64,
    /// First ephemeral address: addresses at or above it move by
    /// `ephemeral`, those below by `source`.
    pub ephemeral_base: u64,
}

impl Shift {
    /// `addr` moved forward by `periods` periods in its address space.
    #[inline]
    pub fn addr(&self, addr: u64, periods: u64) -> u64 {
        let delta = if addr >= self.ephemeral_base {
            self.ephemeral
        } else {
            self.source
        };
        addr + delta * periods
    }

    /// `t` moved forward by `periods` periods; zero (never) stays zero.
    #[inline]
    pub fn time_after(&self, t: SimTime, periods: u64) -> SimTime {
        if t.is_zero() {
            t
        } else {
            t + self.time * periods
        }
    }

    /// Whether `now` is `earlier` moved forward by one period.
    #[inline]
    pub fn same_time(&self, now: SimTime, earlier: SimTime) -> bool {
        now == self.time_after(earlier, 1)
    }

    /// Start of the earlier of the two compared periods.
    #[inline]
    pub fn earlier_start(&self) -> SimTime {
        self.start.saturating_sub(self.time)
    }

    /// Whether resource free time `now` matches `earlier` (see the module
    /// docs): both settled at or before their period's start, or `now` is
    /// `earlier` moved by one period.
    #[inline]
    pub fn same_free_time(&self, now: SimTime, earlier: SimTime) -> bool {
        (now <= self.start && earlier <= self.earlier_start()) || self.same_time(now, earlier)
    }

    /// Whether two time sequences match element by element.
    pub fn same_times(&self, now: &[SimTime], earlier: &[SimTime]) -> bool {
        now.len() == earlier.len() && now.iter().zip(earlier).all(|(&n, &e)| self.same_time(n, e))
    }

    /// Whether the live entries of a lazily expired pool (see the module
    /// docs) match as multisets: those after `start` now against those
    /// after the earlier period's start, moved by one period.
    pub fn same_live_times(&self, now: &[SimTime], earlier: &[SimTime]) -> bool {
        let live = |times: &[SimTime], after: SimTime| {
            let mut live: Vec<SimTime> = times.iter().copied().filter(|&t| t > after).collect();
            live.sort_unstable();
            live
        };
        let now = live(now, self.start);
        let earlier = live(earlier, self.earlier_start());
        self.same_times(&now, &earlier)
    }

    /// Moves every time of `times` forward by `periods` periods.
    pub fn shift_times(&self, times: &mut [SimTime], periods: u64) {
        for t in times {
            *t = self.time_after(*t, periods);
        }
    }
}

/// A counter advanced by its per-period increment: `now + (now - earlier)
/// * periods`.
#[inline]
pub fn extrapolate(now: u64, earlier: u64, periods: u64) -> u64 {
    now + (now - earlier) * periods
}

/// [`extrapolate`] for a time-valued counter (busy time, summed delay).
#[inline]
pub fn extrapolate_time(now: SimTime, earlier: SimTime, periods: u64) -> SimTime {
    now + (now - earlier) * periods
}

/// [`extrapolate`] element-wise over per-core counter vectors (a missing
/// earlier entry counts as zero).
pub fn extrapolate_all(now: &mut [u64], earlier: &[u64], periods: u64) {
    for (i, c) in now.iter_mut().enumerate() {
        *c = extrapolate(*c, earlier.get(i).copied().unwrap_or(0), periods);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shift() -> Shift {
        Shift {
            time: SimTime::from_picos(7),
            start: SimTime::from_picos(20),
            source: 64,
            ephemeral: 16,
            ephemeral_base: 1_000,
        }
    }

    #[test]
    fn addresses_move_by_their_space() {
        let s = shift();
        assert_eq!(s.addr(999, 2), 999 + 128);
        assert_eq!(s.addr(1_000, 2), 1_032);
    }

    #[test]
    fn zero_times_never_move() {
        let s = shift();
        assert_eq!(s.time_after(SimTime::ZERO, 9), SimTime::ZERO);
        assert_eq!(
            s.time_after(SimTime::from_picos(1), 3),
            SimTime::from_picos(22)
        );
        let mut ts = [SimTime::ZERO, SimTime::from_picos(5)];
        assert!(s.same_times(&[SimTime::ZERO, SimTime::from_picos(12)], &ts));
        s.shift_times(&mut ts, 2);
        assert_eq!(ts, [SimTime::ZERO, SimTime::from_picos(19)]);
    }

    #[test]
    fn settled_free_times_compare_equal() {
        let s = shift();
        let t = SimTime::from_picos;
        assert!(s.same_free_time(t(20), t(1)));
        assert!(s.same_free_time(t(25), t(18)));
        assert!(!s.same_free_time(t(25), t(13)));
        assert!(!s.same_free_time(t(21), t(13)));
    }

    #[test]
    fn lazy_pools_compare_their_live_entries() {
        let s = shift();
        let t = SimTime::from_picos;
        // Entries at or before each period's start are dead.
        assert!(s.same_live_times(&[t(30), t(4), t(21)], &[t(14), t(23), t(13), t(2)]));
        assert!(!s.same_live_times(&[t(30)], &[t(23), t(14)]));
    }

    #[test]
    fn counters_extrapolate_their_increment() {
        assert_eq!(extrapolate(10, 4, 3), 28);
        assert_eq!(
            extrapolate_time(SimTime::from_picos(10), SimTime::from_picos(4), 1),
            SimTime::from_picos(16)
        );
        let mut v = [5, 9];
        extrapolate_all(&mut v, &[3], 2);
        assert_eq!(v, [9, 27]);
    }
}
