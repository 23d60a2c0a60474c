//! Clock domains.
//!
//! The platform modelled by this workspace has three relevant clock domains:
//! the CPU cluster (≈1.2 GHz Cortex-A53), the programmable logic holding the
//! RME (100 MHz in the paper's prototype) and the DRAM device clock. The
//! paper repeatedly points out that every transaction routed through the PL
//! pays a clock-domain-crossing penalty and runs at the lower PL frequency;
//! [`ClockDomain`] is how those penalties are expressed.

use crate::time::SimTime;

/// A named clock domain running at a fixed frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDomain {
    /// Human-readable name (used in reports only).
    pub name: &'static str,
    /// Frequency in megahertz.
    pub freq_mhz: f64,
}

impl ClockDomain {
    /// Creates a new clock domain.
    pub const fn new(name: &'static str, freq_mhz: f64) -> Self {
        ClockDomain { name, freq_mhz }
    }

    /// Duration of a single cycle.
    pub fn cycle(&self) -> SimTime {
        SimTime::from_nanos_f64(1_000.0 / self.freq_mhz)
    }

    /// Duration of `n` cycles.
    pub fn cycles(&self, n: u64) -> SimTime {
        SimTime::from_picos(self.cycle().as_picos() * n)
    }

    /// Number of whole cycles elapsed in `t` (rounded up — a partial cycle
    /// still occupies the hardware for a full cycle).
    pub fn cycles_in(&self, t: SimTime) -> u64 {
        let cycle = self.cycle().as_picos().max(1);
        t.as_picos().div_ceil(cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_durations() {
        let pl = ClockDomain::new("pl", 100.0);
        assert_eq!(pl.cycle(), SimTime::from_nanos(10));
        assert_eq!(pl.cycles(3), SimTime::from_nanos(30));

        let cpu = ClockDomain::new("cpu", 1_200.0);
        // 1/1.2 GHz ≈ 0.833 ns
        let c = cpu.cycle().as_nanos_f64();
        assert!((c - 0.8333).abs() < 0.001, "cpu cycle was {c}");
    }

    #[test]
    fn cycles_in_rounds_up() {
        let pl = ClockDomain::new("pl", 100.0);
        assert_eq!(pl.cycles_in(SimTime::from_nanos(10)), 1);
        assert_eq!(pl.cycles_in(SimTime::from_nanos(11)), 2);
        assert_eq!(pl.cycles_in(SimTime::from_nanos(0)), 0);
    }
}
