//! Memory request / completion types shared by the DRAM controller and its
//! clients (the cache hierarchy and the RME fetch units).

use relmem_sim::SimTime;

/// A read request for `bytes` bytes starting at physical address `addr`.
///
/// `ready` is the earliest time the request can be presented to the
/// controller — callers that pipeline multiple outstanding requests (the
/// prefetcher, the MLP fetch units) use it to overlap latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Physical start address.
    pub addr: u64,
    /// Number of bytes requested.
    pub bytes: usize,
    /// Earliest issue time.
    pub ready: SimTime,
    /// Which requestor (CPU core index, or the RME) issued the request.
    /// Purely an accounting tag: arbitration itself happens on the
    /// controller's occupancy-tracked banks and bus, which serve requests
    /// from any requestor in `ready`-time order.
    pub requestor: Requestor,
    /// Read or write. The occupancy model's timing is symmetric and ignores
    /// this; the cycle-accurate model applies the write-recovery (tWR) and
    /// write-to-read turnaround (tWTR) constraints to writes.
    pub kind: ReqKind,
}

/// Direction of a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReqKind {
    /// A read (cache-line fill, RME fetch). The default.
    #[default]
    Read,
    /// A write (dirty-line writeback, in-place update traffic).
    Write,
}

/// Who issued a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requestor {
    /// A CPU core (cache-hierarchy demand miss or prefetch), by core index.
    Core(usize),
    /// The Relational Memory Engine's fetch units.
    Rme,
}

impl Default for Requestor {
    fn default() -> Self {
        Requestor::Core(0)
    }
}

impl MemRequest {
    /// Convenience constructor; the request is a read attributed to core 0.
    pub fn new(addr: u64, bytes: usize, ready: SimTime) -> Self {
        MemRequest {
            addr,
            bytes,
            ready,
            requestor: Requestor::Core(0),
            kind: ReqKind::Read,
        }
    }

    /// Attributes the request to a requestor (builder style).
    pub fn with_requestor(mut self, requestor: Requestor) -> Self {
        self.requestor = requestor;
        self
    }

    /// Marks the request as a write (builder style).
    pub fn as_write(mut self) -> Self {
        self.kind = ReqKind::Write;
        self
    }
}

/// The timing outcome of a serviced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When the request started occupying DRAM resources.
    pub start: SimTime,
    /// When the last byte arrived at the requester.
    pub finish: SimTime,
    /// Whether every row touched was already open (pure row-buffer hit).
    pub row_hit: bool,
}

impl Completion {
    /// Service latency (finish − start).
    pub fn latency(&self) -> SimTime {
        self.finish.saturating_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_latency() {
        let c = Completion {
            start: SimTime::from_nanos(10),
            finish: SimTime::from_nanos(35),
            row_hit: true,
        };
        assert_eq!(c.latency(), SimTime::from_nanos(25));
    }

    #[test]
    fn request_constructor() {
        let r = MemRequest::new(64, 16, SimTime::from_nanos(1));
        assert_eq!(r.addr, 64);
        assert_eq!(r.bytes, 16);
        assert_eq!(r.ready, SimTime::from_nanos(1));
        assert_eq!(r.kind, ReqKind::Read);
        assert_eq!(r.as_write().kind, ReqKind::Write);
    }
}
