//! The Trapper: the engine's AXI-facing front end.
//!
//! The Trapper is the first module a CPU-originated read meets. It extracts
//! the `{A, ID}` pair, forwards it to the Monitor Bypass, and later forms
//! the AXI response `{ID, RD}` once the requested line is available. Because
//! the CPUs issue multiple asynchronous requests, the Trapper supports a
//! bounded number of outstanding transactions; when the bound is reached a
//! new request has to wait for an older one to retire — which is exactly how
//! the PS-side interconnect behaves.

use relmem_sim::shift::extrapolate;
use relmem_sim::{CdcConfig, Shift, SimTime};

use crate::axi::{AxiReadRequest, AxiReadResponse, CdcModel};

/// The Trapper module.
#[derive(Debug, Clone)]
pub struct Trapper {
    cdc: CdcModel,
    max_outstanding: usize,
    /// Retirement times of transactions currently in flight.
    inflight: Vec<SimTime>,
    next_id: u16,
    accepted: u64,
}

impl Trapper {
    /// Creates a Trapper over the PS↔PL boundary described by `cfg`.
    pub fn new(cfg: CdcConfig) -> Self {
        Trapper {
            max_outstanding: cfg.max_outstanding.max(1),
            cdc: CdcModel::new(cfg),
            inflight: Vec::new(),
            next_id: 0,
            accepted: 0,
        }
    }

    /// Number of transactions accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Accepts a CPU read of `addr` issued at `ready`. Returns the AXI
    /// request (with its allocated ID) and the time at which it is visible
    /// to the PL-side logic.
    pub fn accept(&mut self, addr: u64, ready: SimTime) -> (AxiReadRequest, SimTime) {
        // Retire transactions that have already completed.
        self.inflight.retain(|&t| t > ready);
        let start = if self.inflight.len() >= self.max_outstanding {
            let (idx, &earliest) = self
                .inflight
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| t)
                .expect("inflight non-empty");
            self.inflight.swap_remove(idx);
            ready.max(earliest)
        } else {
            ready
        };
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.accepted += 1;
        let at_pl = self.cdc.request_into_pl(start);
        (AxiReadRequest { addr, id }, at_pl)
    }

    /// Forms the response for transaction `id`: the line data of `bytes`
    /// bytes is ready inside the PL at `data_ready_pl`; the returned
    /// response carries the time the CPU receives it.
    pub fn respond(&mut self, id: u16, data_ready_pl: SimTime, bytes: usize) -> AxiReadResponse {
        let data_ready = self.cdc.response_into_ps(data_ready_pl, bytes);
        self.inflight.push(data_ready);
        AxiReadResponse { id, data_ready }
    }

    /// Resets timing state between measured runs.
    pub fn reset(&mut self) {
        self.cdc.reset();
        self.inflight.clear();
        self.accepted = 0;
    }

    /// Whether the PS–PL port and the live in-flight retirement times are
    /// `earlier`'s moved by one period (see [`relmem_sim::shift`]).
    /// Transaction ids are labels, not timing state, so they are not
    /// compared.
    pub fn same_up_to_shift(&self, earlier: &Trapper, shift: &Shift) -> bool {
        self.cdc.same_up_to_shift(&earlier.cdc, shift)
            && shift.same_live_times(&self.inflight, &earlier.inflight)
    }

    /// Moves the timing state forward by `periods` periods and advances the
    /// id allocator and counters by their increment since `earlier`.
    pub fn shift(&mut self, earlier: &Trapper, shift: &Shift, periods: u64) {
        self.cdc.shift(&earlier.cdc, shift, periods);
        shift.shift_times(&mut self.inflight, periods);
        let ids = self.next_id.wrapping_sub(earlier.next_id);
        self.next_id = self.next_id.wrapping_add(ids.wrapping_mul(periods as u16));
        self.accepted = extrapolate(self.accepted, earlier.accepted, periods);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn accept_allocates_distinct_ids_and_adds_cdc_latency() {
        let mut t = Trapper::new(CdcConfig::default());
        let (r1, at_pl1) = t.accept(0x100, SimTime::ZERO);
        let (r2, _) = t.accept(0x140, SimTime::ZERO);
        assert_ne!(r1.id, r2.id);
        assert_eq!(at_pl1, ns(20));
        assert_eq!(t.accepted(), 2);
    }

    #[test]
    fn response_adds_port_transfer_and_cdc() {
        let mut t = Trapper::new(CdcConfig::default());
        let (req, at_pl) = t.accept(0x100, SimTime::ZERO);
        let resp = t.respond(req.id, at_pl, 64);
        // 20 ns request CDC + 20 ns port + 20 ns response CDC.
        assert_eq!(resp.data_ready, ns(60));
        assert_eq!(resp.id, req.id);
    }

    #[test]
    fn outstanding_limit_backpressures() {
        let cfg = CdcConfig {
            max_outstanding: 2,
            ..CdcConfig::default()
        };
        let mut t = Trapper::new(cfg);
        // Two transactions in flight that retire late.
        let (a, a_pl) = t.accept(0, SimTime::ZERO);
        t.respond(a.id, a_pl + ns(1_000), 64);
        let (b, b_pl) = t.accept(64, SimTime::ZERO);
        t.respond(b.id, b_pl + ns(2_000), 64);
        // The third must wait for the earliest retirement (~1 µs).
        let (_, c_pl) = t.accept(128, SimTime::ZERO);
        assert!(c_pl > ns(1_000));
        assert!(c_pl < ns(2_000));
    }

    #[test]
    fn reset_clears_backpressure() {
        let cfg = CdcConfig {
            max_outstanding: 1,
            ..CdcConfig::default()
        };
        let mut t = Trapper::new(cfg);
        let (a, a_pl) = t.accept(0, SimTime::ZERO);
        t.respond(a.id, a_pl + ns(500), 64);
        t.reset();
        let (_, pl) = t.accept(64, SimTime::ZERO);
        assert_eq!(pl, ns(20));
    }
}
