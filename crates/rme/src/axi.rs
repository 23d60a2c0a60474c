//! AXI transactions and the PS↔PL clock-domain-crossing cost model.
//!
//! CPU-originated reads that target ephemeral addresses reach the RME as AXI
//! read transactions identified by an ID; the Trapper extracts `{A, ID}` and
//! later answers with `{ID, RD}`. Every crossing between the PS (CPU-side)
//! and PL (RME-side) clock domains costs a few PL cycles, and the response
//! data must also be streamed over the PS–PL port. The paper stresses that
//! the RME wins *despite* these penalties; this module is where they are
//! charged.

use relmem_sim::shift::extrapolate;
use relmem_sim::{CdcConfig, Resource, Shift, SimTime};

/// An AXI read request as seen by the Trapper: target address + transaction
/// ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiReadRequest {
    /// Target (ephemeral) address, line aligned by the cache.
    pub addr: u64,
    /// AXI transaction ID.
    pub id: u16,
}

/// An AXI read response: the ID being answered and when its data is valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiReadResponse {
    /// Transaction ID being answered.
    pub id: u16,
    /// Time at which the requesting core receives the data.
    pub data_ready: SimTime,
}

/// Timing model of the PS↔PL boundary.
#[derive(Debug, Clone)]
pub struct CdcModel {
    cfg: CdcConfig,
    /// One-way crossing latencies and the PL cycle in picoseconds, resolved
    /// once from the configuration's clock.
    request_latency: SimTime,
    response_latency: SimTime,
    pl_cycle_ps: u64,
    /// The PS–PL high-performance port the responses are streamed over.
    port: Resource,
    crossings: u64,
}

impl CdcModel {
    /// Creates the model from the platform's CDC configuration.
    pub fn new(cfg: CdcConfig) -> Self {
        CdcModel {
            cfg,
            request_latency: cfg.request_latency(),
            response_latency: cfg.response_latency(),
            pl_cycle_ps: cfg.pl_clock().cycle().as_picos(),
            port: Resource::new("ps-pl-port"),
            crossings: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CdcConfig {
        &self.cfg
    }

    /// Number of request/response crossings charged so far.
    pub fn crossings(&self) -> u64 {
        self.crossings
    }

    /// Time at which a request issued by the PS at `ready` becomes visible
    /// to the PL-side logic.
    pub fn request_into_pl(&mut self, ready: SimTime) -> SimTime {
        self.crossings += 1;
        ready + self.request_latency
    }

    /// Time at which a response of `bytes` bytes, ready inside the PL at
    /// `ready`, has fully crossed back to the PS. The port is a shared
    /// resource, so back-to-back responses serialize on it.
    pub fn response_into_ps(&mut self, ready: SimTime, bytes: usize) -> SimTime {
        self.crossings += 1;
        let cycles = bytes.div_ceil(self.cfg.port_bytes_per_cycle) as u64;
        let (_, end) = self
            .port
            .acquire(ready, SimTime::from_picos(self.pl_cycle_ps * cycles));
        end + self.response_latency
    }

    /// Resets port occupancy and counters (between measured runs).
    pub fn reset(&mut self) {
        self.port.reset();
        self.crossings = 0;
    }

    /// Whether the port's free time is `earlier`'s moved by one period
    /// (see [`relmem_sim::shift`]).
    pub fn same_up_to_shift(&self, earlier: &CdcModel, shift: &Shift) -> bool {
        self.port.same_up_to_shift(&earlier.port, shift)
    }

    /// Moves the port forward by `periods` periods and advances the
    /// crossing counter by its increment since `earlier`.
    pub fn shift(&mut self, earlier: &CdcModel, shift: &Shift, periods: u64) {
        self.port.shift(&earlier.port, shift, periods);
        self.crossings = extrapolate(self.crossings, earlier.crossings, periods);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CdcModel {
        CdcModel::new(CdcConfig::default())
    }

    #[test]
    fn request_crossing_adds_latency() {
        let mut m = model();
        let t = m.request_into_pl(SimTime::from_nanos(100));
        assert_eq!(t, SimTime::from_nanos(120)); // 2 PL cycles at 100 MHz
        assert_eq!(m.crossings(), 1);
    }

    #[test]
    fn responses_serialize_on_the_port() {
        let mut m = model();
        // Two 64-byte responses both ready at t=0: the second waits for the
        // port (20 ns each at 32 B / 10 ns cycle).
        let a = m.response_into_ps(SimTime::ZERO, 64);
        let b = m.response_into_ps(SimTime::ZERO, 64);
        assert_eq!(a, SimTime::from_nanos(20 + 20));
        assert_eq!(b, SimTime::from_nanos(40 + 20));
    }

    #[test]
    fn resolved_constants_match_the_configured_clock() {
        for (pl_freq_mhz, port_bytes_per_cycle) in [(100.0, 32), (150.0, 16), (333.0, 24)] {
            let cfg = CdcConfig {
                pl_freq_mhz,
                port_bytes_per_cycle,
                request_pl_cycles: 3,
                response_pl_cycles: 5,
                ..CdcConfig::default()
            };
            let mut m = CdcModel::new(cfg);
            let at = SimTime::from_nanos(7);
            assert_eq!(m.request_into_pl(at), at + cfg.request_latency());
            for bytes in [1, 16, 64, 100] {
                m.reset();
                let want = cfg.port_transfer_time(bytes) + cfg.response_latency();
                assert_eq!(m.response_into_ps(SimTime::ZERO, bytes), want);
            }
        }
    }

    #[test]
    fn reset_clears_port_state() {
        let mut m = model();
        m.response_into_ps(SimTime::ZERO, 64);
        m.reset();
        assert_eq!(m.crossings(), 0);
        let again = m.response_into_ps(SimTime::ZERO, 64);
        assert_eq!(again, SimTime::from_nanos(40));
    }
}
