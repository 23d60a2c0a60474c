//! DRAM controller timing model.
//!
//! The controller owns per-bank open-row state, a pool of bank "servers"
//! (bank-level parallelism), and a single shared data bus. A request is
//! serviced as:
//!
//! 1. split the byte range by DRAM row (a burst never spans rows for
//!    timing purposes),
//! 2. for each chunk, occupy the owning bank for the activate/CAS latency
//!    (row-buffer hit or miss),
//! 3. stream the chunk's beats over the shared data bus.
//!
//! Because every request carries its own `ready` time and the resources are
//! occupancy-tracked, callers that keep many requests in flight overlap the
//! per-bank latencies and end up limited by the data bus — exactly the
//! behaviour that separates the paper's BSL (one outstanding transaction)
//! from MLP (sixteen outstanding transactions).
//!
//! # Multi-requestor arbitration
//!
//! The controller is shared by every CPU core's cache hierarchy *and* the
//! RME's fetch units. No request queue is modelled: arbitration emerges
//! from the occupancy tracking — a request starts service at
//! `max(ready, resource_free)` on its bank and the bus, so concurrent
//! requestors interleave in ready-time order and contend exactly where the
//! hardware contends (same bank, shared data bus). Each request carries a
//! [`Requestor`] tag so traffic can be attributed per core in
//! [`DramStats::per_core_accesses`].
//!
//! CPU ([`Requestor::Core`]) requests are admitted with demand priority:
//! they do not queue behind the RME's paced future reservations, the way
//! the PS–PL interconnect's QoS arbitration serves a CPU demand read ahead
//! of the PL requestor's prefetch stream. Engine ([`Requestor::Rme`])
//! traffic appends behind every booking, so its descriptor pacing is
//! kept, and CPU requests stay FIFO among themselves.

use relmem_sim::shift::{extrapolate, extrapolate_all};
use relmem_sim::{
    DramConfig, PriorityResource, Shift, SimTime, TraceEvent, TraceEventKind, Tracer, Track,
};

use crate::address::AddressMapping;
use crate::request::{Completion, MemRequest, ReqKind, Requestor};

/// Aggregate statistics kept by the controller.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Requests serviced (after row splitting each chunk counts once).
    pub accesses: u64,
    /// Chunks that hit an open row.
    pub row_hits: u64,
    /// Chunks that required activate (+ precharge) first.
    pub row_misses: u64,
    /// Bytes actually moved over the data bus (rounded up to bus beats).
    pub bytes_transferred: u64,
    /// Bus beats transferred.
    pub beats: u64,
    /// Accesses attributed to each CPU core (indexed by core; grown on
    /// demand). All single-core traffic lands in slot 0.
    pub per_core_accesses: Vec<u64>,
    /// Accesses issued by the RME's fetch units.
    pub rme_accesses: u64,
    /// Write requests serviced (after row splitting, like
    /// [`accesses`](Self::accesses)). The occupancy model's timing is
    /// symmetric in the request kind, so this is attribution only; the
    /// cycle-accurate model additionally charges tWR/tWTR to these.
    pub writes: u64,
    /// Per-bank refresh windows applied (cycle-accurate model only: each
    /// bank is refreshed once per tREFI; a refresh closes the open row and
    /// stalls the bank for tRFC). Always zero under the occupancy model.
    pub refreshes: u64,
    /// Activates delayed by the four-activate window, tFAW (cycle-accurate
    /// model only).
    pub tfaw_stalls: u64,
    /// Requests that stalled at admission because the transaction queue was
    /// full (cycle-accurate model only).
    pub queue_stalls: u64,
    /// Sum over all requests of the number of transactions already in
    /// flight at admission (cycle-accurate model only); divide by
    /// [`accesses`](Self::accesses) for the mean queue occupancy — or use
    /// [`avg_queue_occupancy`](Self::avg_queue_occupancy).
    pub queue_occupancy_sum: u64,
    /// Maximum transactions simultaneously in flight, sampled at each
    /// admission *including* the request being admitted (cycle-accurate
    /// model only). Equal to the configured queue depth once the
    /// transaction queue has saturated at least once.
    pub queue_occupancy_max: u64,
    /// Writes posted through [`DramModel::post_write`](crate::DramModel::post_write)
    /// (cache dirty-line writebacks). The cycle-accurate model buffers and
    /// schedules them; the occupancy model drops them, so this stays zero
    /// there. A subset of [`writes`](Self::writes): explicit writes through
    /// `access` (transaction commit durability) count only there.
    pub writebacks: u64,
    /// Cross-request FR-FCFS reorder events (cycle-accurate model only):
    /// a read scheduled past at least one older buffered write, or a
    /// buffered write promoted ahead of an older one because it hits an
    /// open row. Always zero under the occupancy model.
    pub fr_fcfs_reorders: u64,
}

impl DramStats {
    /// Row-buffer hit rate in `[0, 1]`.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Advances every summed counter by `periods` times its increment since
    /// `earlier` (see [`relmem_sim::shift`]); the queue-occupancy maximum
    /// stays.
    pub fn extrapolate(&mut self, earlier: &DramStats, periods: u64) {
        let e = |now: u64, was: u64| extrapolate(now, was, periods);
        self.accesses = e(self.accesses, earlier.accesses);
        self.row_hits = e(self.row_hits, earlier.row_hits);
        self.row_misses = e(self.row_misses, earlier.row_misses);
        self.bytes_transferred = e(self.bytes_transferred, earlier.bytes_transferred);
        self.beats = e(self.beats, earlier.beats);
        extrapolate_all(
            &mut self.per_core_accesses,
            &earlier.per_core_accesses,
            periods,
        );
        self.rme_accesses = e(self.rme_accesses, earlier.rme_accesses);
        self.writes = e(self.writes, earlier.writes);
        self.refreshes = e(self.refreshes, earlier.refreshes);
        self.tfaw_stalls = e(self.tfaw_stalls, earlier.tfaw_stalls);
        self.queue_stalls = e(self.queue_stalls, earlier.queue_stalls);
        self.queue_occupancy_sum = e(self.queue_occupancy_sum, earlier.queue_occupancy_sum);
        self.writebacks = e(self.writebacks, earlier.writebacks);
        self.fr_fcfs_reorders = e(self.fr_fcfs_reorders, earlier.fr_fcfs_reorders);
    }

    /// Mean transactions in flight at admission (cycle-accurate model only;
    /// `0.0` under the occupancy model, which has no transaction queue).
    pub fn avg_queue_occupancy(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.queue_occupancy_sum as f64 / self.accesses as f64
        }
    }
}

/// Tail state of the most recently serviced chunk, kept so a request that
/// *continues* it — next sequential address, same open DRAM row, same
/// requestor (and so the same admission class) — can be booked
/// arithmetically without re-deriving what is already known (see
/// [`DramController::access`]).
///
/// The streak is replaced on every access, so any intervening request —
/// one that conflicts on the bank (opening a different row) or one from a
/// different requestor (for Core ↔ RME, the PS–PL QoS preemption point) —
/// automatically breaks it: the next
/// request fails the continuation test and takes the full decode path.
/// The occupancy model has no refresh events (the cycle-accurate model
/// owns those); the row boundary is the hard stop here, and a streak
/// never extends across it.
#[derive(Debug, Clone, Copy)]
struct Streak {
    /// Address one past the last serviced chunk — the continuation point.
    next_addr: u64,
    /// Exclusive end of the open DRAM row that chunk landed in. A
    /// continuation must fit strictly inside it (single chunk, guaranteed
    /// row-buffer hit).
    row_end: u64,
    /// Bank owning that row.
    bank: usize,
    /// Requestor of the tail access; attribution (and with it the
    /// admission class) must match to coalesce.
    requestor: Requestor,
}

impl Streak {
    /// A streak no request can continue (`row_end == 0` fails the
    /// containment test for every address).
    fn broken() -> Self {
        Streak {
            next_addr: u64::MAX,
            row_end: 0,
            bank: 0,
            requestor: Requestor::Core(0),
        }
    }
}

/// The DRAM controller.
#[derive(Debug, Clone)]
pub struct DramController {
    cfg: DramConfig,
    mapping: AddressMapping,
    /// Open row per bank (None = precharged).
    open_rows: Vec<Option<u64>>,
    banks: Vec<PriorityResource>,
    bus: PriorityResource,
    /// Sequential same-row streak cache (see [`Streak`]). Timing and
    /// statistics are identical with and without it (the differential
    /// tests below hold it to the full decode path).
    streak: Streak,
    /// `log2(bus_bytes)` when the bus width is a power of two (always, in
    /// practice): turns the per-access beat count into a shift.
    bus_shift: Option<u32>,
    stats: DramStats,
    /// Observability hook (no-op unless recording; see `relmem_sim::trace`).
    tracer: Tracer,
}

impl DramController {
    /// Creates a controller from the platform's DRAM configuration.
    pub fn new(cfg: DramConfig) -> Self {
        let mapping = AddressMapping::with_hash(cfg.banks, cfg.row_bytes, cfg.xor_bank_hash);
        DramController {
            open_rows: vec![None; cfg.banks],
            banks: (0..cfg.banks)
                .map(|_| PriorityResource::new("dram-bank"))
                .collect(),
            bus: PriorityResource::new("dram-bus"),
            streak: Streak::broken(),
            bus_shift: cfg
                .bus_bytes
                .is_power_of_two()
                .then(|| cfg.bus_bytes.trailing_zeros()),
            mapping,
            cfg,
            stats: DramStats::default(),
            tracer: Tracer::new(),
        }
    }

    /// The controller's trace hook (recording is controlled by the system).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The address mapping in use.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets timing state and statistics (open rows, resource occupancy).
    pub fn reset(&mut self) {
        self.open_rows.iter_mut().for_each(|r| *r = None);
        self.banks.iter_mut().for_each(PriorityResource::reset);
        self.bus.reset();
        self.streak = Streak::broken();
        self.stats = DramStats::default();
    }

    /// Whether this controller's timing state is `earlier`'s moved by one
    /// period (see [`relmem_sim::shift`]): open rows and bank and bus free
    /// times. Physical addresses move by
    /// `shift.source`, which must be a multiple of the address mapping's
    /// [`translation_period`](AddressMapping::translation_period) so that
    /// every address keeps its bank. The coalescing streak is a host-side
    /// hint and the counters are not state, so neither is compared.
    pub fn same_up_to_shift(&self, earlier: &DramController, shift: &Shift) -> bool {
        let Some(rows) = self.rows_per_period(shift) else {
            return false;
        };
        self.open_rows
            .iter()
            .zip(&earlier.open_rows)
            .all(|(&now, &was)| now == was.map(|r| r + rows))
            && self
                .banks
                .iter()
                .zip(&earlier.banks)
                .all(|(b, e)| b.same_up_to_shift(e, shift))
            && self.bus.same_up_to_shift(&earlier.bus, shift)
    }

    /// Moves this controller's timing state forward by `periods` periods,
    /// breaks the coalescing streak and advances the counters by their
    /// increment since `earlier`. Call only after
    /// [`same_up_to_shift`](Self::same_up_to_shift) held.
    pub fn shift(&mut self, earlier: &DramController, shift: &Shift, periods: u64) {
        let rows = self.rows_per_period(shift).unwrap_or(0) * periods;
        for row in self.open_rows.iter_mut().flatten() {
            *row += rows;
        }
        for (bank, was) in self.banks.iter_mut().zip(&earlier.banks) {
            bank.shift(was, shift, periods);
        }
        self.bus.shift(&earlier.bus, shift, periods);
        self.streak = Streak::broken();
        self.stats.extrapolate(&earlier.stats, periods);
    }

    /// DRAM rows each bank's open row advances per period, or `None` when
    /// the source shift is not a multiple of the translation period.
    fn rows_per_period(&self, shift: &Shift) -> Option<u64> {
        shift
            .source
            .is_multiple_of(self.mapping.translation_period())
            .then(|| shift.source / (self.cfg.banks * self.cfg.row_bytes) as u64)
    }

    /// Services a read (or write — timing is symmetric at this level) and
    /// returns its completion. The data itself is read from
    /// [`PhysicalMemory`](crate::PhysicalMemory) by the caller; the
    /// controller only accounts time.
    /// Inlined into callers so that on a sequential read stream only the
    /// streak test and the coalesced booking run at the call site; the full
    /// decode path stays an outlined call taken on streak breaks.
    #[inline(always)]
    pub fn access(&mut self, req: MemRequest) -> Completion {
        let bytes = req.bytes.max(1);
        let demand = matches!(req.requestor, Requestor::Core(_));
        // Streak fast path: a read that continues the previous chunk —
        // next sequential address, inside the same (still open) DRAM row,
        // same requestor — books exactly what the full path's row-hit
        // branch would book, without re-splitting and re-decoding the
        // address. Anything else (a bank conflict that opened a different
        // row, a requestor switch, a row-boundary crossing) falls through
        // to the full path, which replaces the streak with its own tail.
        if self.continues_streak(&req, bytes) {
            return self.access_coalesced(req, bytes, demand);
        }
        self.access_full(req, bytes, demand)
    }

    /// Whether `req` (of `bytes` bytes) continues the streak: a read of the
    /// next sequential address, inside the same open DRAM row, by the same
    /// requestor.
    #[inline(always)]
    fn continues_streak(&self, req: &MemRequest, bytes: usize) -> bool {
        req.kind == ReqKind::Read
            && req.addr == self.streak.next_addr
            && req.addr + bytes as u64 <= self.streak.row_end
            && req.requestor == self.streak.requestor
    }

    /// The full decode path: split by DRAM row, decode each chunk, book
    /// bank + bus per chunk. Leaves the streak pointing one past the tail
    /// chunk so a sequential successor can coalesce.
    fn access_full(&mut self, req: MemRequest, bytes: usize, demand: bool) -> Completion {
        let chunks = self.mapping.split_by_row(req.addr, bytes);
        let mut finish = req.ready;
        let mut start = SimTime::from_picos(u64::MAX);
        let mut all_hits = true;
        let mut tail = Streak::broken();

        for (addr, len) in chunks {
            let coord = self.mapping.decode(addr);
            let prev_row = self.open_rows[coord.bank];
            let row_hit = prev_row == Some(coord.row);
            // Occupancy and latency differ: back-to-back row-buffer hits
            // pipeline at the column-to-column rate (tCCD) even though each
            // access still observes the full CAS latency; a row miss keeps
            // the bank busy for the precharge + activate window.
            let (occupancy, latency) = if row_hit {
                self.stats.row_hits += 1;
                (self.cfg.t_ccd, self.cfg.row_hit_latency())
            } else {
                self.stats.row_misses += 1;
                all_hits = false;
                self.open_rows[coord.bank] = Some(coord.row);
                (
                    self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_ccd,
                    self.cfg.row_miss_latency(),
                )
            };
            let (bank_start, _) = if demand {
                self.banks[coord.bank].acquire_demand(req.ready, occupancy)
            } else {
                self.banks[coord.bank].acquire(req.ready, occupancy)
            };
            let data_ready = bank_start + latency;
            // Then stream the beats over the shared bus.
            let beats = match self.bus_shift {
                Some(shift) => ((len + self.cfg.bus_bytes - 1) >> shift) as u64,
                None => len.div_ceil(self.cfg.bus_bytes) as u64,
            };
            let transfer = self.cfg.beat_time * beats;
            let (_, bus_end) = if demand {
                self.bus.acquire_demand(data_ready, transfer)
            } else {
                self.bus.acquire(data_ready, transfer)
            };

            if !row_hit {
                // The occupancy model folds PRE/ACT into the miss latency;
                // the trace still marks them so both models draw the same
                // command picture on a bank track.
                let bank = coord.bank as u32;
                if let Some(old) = prev_row {
                    self.tracer.emit(|| {
                        TraceEvent::instant(
                            Track::DramBank(bank),
                            TraceEventKind::DramPrecharge,
                            bank_start,
                            old,
                            0,
                        )
                    });
                }
                self.tracer.emit(|| {
                    TraceEvent::instant(
                        Track::DramBank(bank),
                        TraceEventKind::DramActivate,
                        bank_start,
                        coord.row,
                        0,
                    )
                });
            }
            {
                let kind = if req.kind == ReqKind::Write {
                    TraceEventKind::DramWrite
                } else {
                    TraceEventKind::DramRead
                };
                let bank = coord.bank as u32;
                self.tracer.emit(|| {
                    TraceEvent::span(
                        Track::DramBank(bank),
                        kind,
                        bank_start,
                        bus_end,
                        addr,
                        row_hit as u64,
                    )
                });
            }

            self.stats.accesses += 1;
            if req.kind == ReqKind::Write {
                self.stats.writes += 1;
            }
            self.stats.beats += beats;
            self.stats.bytes_transferred += beats * self.cfg.bus_bytes as u64;
            match req.requestor {
                Requestor::Core(core) => {
                    if self.stats.per_core_accesses.len() <= core {
                        self.stats.per_core_accesses.resize(core + 1, 0);
                    }
                    self.stats.per_core_accesses[core] += 1;
                }
                Requestor::Rme => self.stats.rme_accesses += 1,
            }

            start = start.min(bank_start);
            finish = finish.max(bus_end);
            tail = Streak {
                next_addr: addr + len as u64,
                row_end: addr - coord.column as u64 + self.cfg.row_bytes as u64,
                bank: coord.bank,
                requestor: req.requestor,
            };
        }
        self.streak = tail;

        Completion {
            start: if start == SimTime::from_picos(u64::MAX) {
                req.ready
            } else {
                start
            },
            finish,
            row_hit: all_hits,
        }
    }

    /// Books a chunk that continues the current streak: guaranteed
    /// row-buffer hit on the streak's bank, single chunk, same requestor.
    /// Performs the same resource bookings and counter bumps as the
    /// full path's row-hit branch, bit for bit.
    #[inline(always)]
    fn access_coalesced(&mut self, req: MemRequest, len: usize, demand: bool) -> Completion {
        self.stats.row_hits += 1;
        let (bank_start, _) = if demand {
            self.banks[self.streak.bank].acquire_demand(req.ready, self.cfg.t_ccd)
        } else {
            self.banks[self.streak.bank].acquire(req.ready, self.cfg.t_ccd)
        };
        let data_ready = bank_start + self.cfg.row_hit_latency();
        let beats = match self.bus_shift {
            Some(shift) => ((len + self.cfg.bus_bytes - 1) >> shift) as u64,
            None => len.div_ceil(self.cfg.bus_bytes) as u64,
        };
        let transfer = self.cfg.beat_time * beats;
        let (_, bus_end) = if demand {
            self.bus.acquire_demand(data_ready, transfer)
        } else {
            self.bus.acquire(data_ready, transfer)
        };
        self.stats.accesses += 1;
        self.stats.beats += beats;
        self.stats.bytes_transferred += beats * self.cfg.bus_bytes as u64;
        match req.requestor {
            Requestor::Core(core) => {
                if self.stats.per_core_accesses.len() <= core {
                    self.stats.per_core_accesses.resize(core + 1, 0);
                }
                self.stats.per_core_accesses[core] += 1;
            }
            Requestor::Rme => self.stats.rme_accesses += 1,
        }
        let bank = self.streak.bank as u32;
        self.tracer.emit(|| {
            TraceEvent::span(
                Track::DramBank(bank),
                TraceEventKind::DramRead,
                bank_start,
                bus_end,
                req.addr,
                1,
            )
        });
        self.streak.next_addr = req.addr + len as u64;
        Completion {
            start: bank_start,
            finish: req.ready.max(bus_end),
            row_hit: true,
        }
    }

    /// Time the data bus becomes free — useful for callers that want to
    /// throttle their issue rate to the controller.
    pub fn bus_free_at(&self) -> SimTime {
        self.bus.next_free()
    }

    /// Total busy time of the data bus so far (bandwidth-bound lower bound
    /// on any schedule of the serviced requests).
    pub fn bus_busy(&self) -> SimTime {
        self.bus.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> DramController {
        DramController::new(DramConfig::default())
    }

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn first_access_is_a_row_miss_then_hits() {
        let mut c = ctl();
        let a = c.access(MemRequest::new(0, 16, SimTime::ZERO));
        assert!(!a.row_hit);
        let b = c.access(MemRequest::new(16, 16, a.finish));
        assert!(b.row_hit);
        assert!(b.latency() < a.latency());
        assert_eq!(c.stats().row_hits, 1);
        assert_eq!(c.stats().row_misses, 1);
    }

    #[test]
    fn larger_bursts_take_longer_on_the_bus() {
        let mut c = ctl();
        let small = c.access(MemRequest::new(0, 16, SimTime::ZERO));
        c.reset();
        let big = c.access(MemRequest::new(0, 64, SimTime::ZERO));
        let delta = big.latency().saturating_sub(small.latency());
        // 3 extra beats at 1.25 ns each.
        assert_eq!(delta, SimTime::from_picos(3 * 1_250));
    }

    #[test]
    fn different_banks_overlap_same_bank_serializes() {
        let cfg = DramConfig::default();
        let row = cfg.row_bytes as u64;
        // Two requests to different banks, both ready at 0: bank latencies overlap.
        let mut c = DramController::new(cfg);
        let a = c.access(MemRequest::new(0, 16, SimTime::ZERO));
        let b = c.access(MemRequest::new(row, 16, SimTime::ZERO));
        // b is only delayed by bus serialization (one beat), not a full bank latency.
        assert!(b.finish <= a.finish + SimTime::from_picos(1_250) + SimTime::from_picos(1));

        // Same bank, back-to-back, ready at 0: the second waits for the bank.
        // The same-bank partner is constructed through the mapping so the
        // test holds with the (default-on) bank hash as well.
        let mut c2 = DramController::new(DramConfig::default());
        let a2 = c2.access(MemRequest::new(0, 16, SimTime::ZERO));
        let bank0 = c2.mapping().decode(0).bank;
        let partner = c2.mapping().encode(crate::address::DramCoord {
            bank: bank0,
            row: 1,
            column: 0,
        });
        assert_eq!(c2.mapping().decode(partner).bank, bank0);
        let b2 = c2.access(MemRequest::new(partner, 16, SimTime::ZERO));
        assert!(b2.finish > a2.finish, "same-bank accesses must serialize");
    }

    /// Regression test for the power-of-two shard bank-camping pathology:
    /// four streams whose start addresses differ by `banks × row_bytes`
    /// (the shard layout of a sharded scan over a power-of-two table) camp
    /// on one bank under the plain interleaving but spread across banks —
    /// and finish sooner — with the XOR hash on.
    #[test]
    fn xor_hash_breaks_power_of_two_shard_bank_camping() {
        let run = |xor_bank_hash: bool| {
            let cfg = DramConfig {
                xor_bank_hash,
                ..DramConfig::default()
            };
            let stride = (cfg.banks * cfg.row_bytes) as u64; // power-of-two shard size
            let mut c = DramController::new(cfg);
            let mut banks_touched = std::collections::BTreeSet::new();
            let mut last = SimTime::ZERO;
            for shard in 0..4u64 {
                let addr = shard * stride;
                banks_touched.insert(c.mapping().decode(addr).bank);
                let done = c.access(MemRequest::new(addr, 64, SimTime::ZERO));
                last = last.max(done.finish);
            }
            (banks_touched.len(), last)
        };
        let (spread_plain, finish_plain) = run(false);
        let (spread_hashed, finish_hashed) = run(true);
        assert_eq!(
            spread_plain, 1,
            "plain mapping camps all shards on one bank"
        );
        assert_eq!(
            spread_hashed, 4,
            "hashed mapping spreads shards across banks"
        );
        assert!(
            finish_hashed < finish_plain,
            "spreading must unserialize the shard openings ({finish_hashed} vs {finish_plain})"
        );
    }

    #[test]
    fn outstanding_requests_become_bandwidth_bound() {
        // Issue 64 independent 16 B requests all ready at t=0 (maximum
        // memory-level parallelism). The total completion should approach
        // the bus transfer bound rather than 64 serial latencies.
        let mut c = ctl();
        let mut last = SimTime::ZERO;
        for i in 0..64u64 {
            let done = c.access(MemRequest::new(i * 64, 16, SimTime::ZERO));
            last = last.max(done.finish);
        }
        let serial_bound = DramConfig::default().row_miss_latency() * 64;
        assert!(
            last < serial_bound,
            "parallel issue ({last}) should beat serial latency bound ({serial_bound})"
        );
    }

    #[test]
    fn row_spanning_requests_are_split() {
        let mut c = ctl();
        let row = c.config().row_bytes as u64;
        let done = c.access(MemRequest::new(row - 8, 16, SimTime::ZERO));
        assert_eq!(c.stats().accesses, 2);
        assert!(!done.row_hit);
    }

    #[test]
    fn stats_and_reset() {
        let mut c = ctl();
        c.access(MemRequest::new(0, 64, SimTime::ZERO));
        assert_eq!(c.stats().beats, 4);
        assert_eq!(c.stats().bytes_transferred, 64);
        assert!(c.stats().row_hit_rate() < 1.0);
        assert_eq!(c.stats().writes, 0, "reads are not writes");
        c.access(MemRequest::new(0, 64, SimTime::ZERO).as_write());
        assert_eq!(c.stats().writes, 1, "write requests are attributed");
        c.reset();
        assert_eq!(c.stats(), &DramStats::default());
        assert_eq!(c.bus_free_at(), SimTime::ZERO);
    }

    #[test]
    fn ready_time_defers_service() {
        let mut c = ctl();
        let done = c.access(MemRequest::new(0, 16, ns(1_000)));
        assert!(done.start >= ns(1_000));
        assert!(done.finish > ns(1_000));
    }

    /// Services `req` down the full decode path, never through the streak
    /// fast path: the oracle the coalescing tests hold `access` to.
    fn access_uncoalesced(c: &mut DramController, req: MemRequest) -> Completion {
        let demand = matches!(req.requestor, Requestor::Core(_));
        c.access_full(req, req.bytes.max(1), demand)
    }

    /// Services `req` through `access` and reports whether it took the
    /// streak fast path.
    fn access_counting(c: &mut DramController, req: MemRequest) -> (Completion, bool) {
        let coalesced = c.continues_streak(&req, req.bytes.max(1));
        (c.access(req), coalesced)
    }

    /// Runs the same request sequence through a coalescing controller and
    /// one forced down the full decode path, asserting bit-identical
    /// completions, statistics, and bus occupancy. Returns the number of
    /// chunks the coalescing side booked through the streak fast path.
    fn assert_coalescing_identical(reqs: &[MemRequest]) -> u64 {
        let mut fast = ctl();
        let mut slow = ctl();
        let mut coalesced = 0;
        for (i, &req) in reqs.iter().enumerate() {
            let (f, streak) = access_counting(&mut fast, req);
            coalesced += u64::from(streak);
            let s = access_uncoalesced(&mut slow, req);
            assert_eq!(f, s, "completion diverged at request {i} ({req:?})");
        }
        assert_eq!(fast.stats(), slow.stats(), "DramStats diverged");
        assert_eq!(fast.bus_busy(), slow.bus_busy());
        assert_eq!(fast.bus_free_at(), slow.bus_free_at());
        coalesced
    }

    /// A sequential line stream (the scan fill pattern): every in-row
    /// continuation is coalesced, and totals and finish times match the
    /// uncoalesced path bit for bit.
    #[test]
    fn sequential_streak_coalesces_identically() {
        let reqs: Vec<MemRequest> = (0..96u64)
            .map(|i| MemRequest::new(i * 64, 64, ns(i * 3)))
            .collect();
        // 3 rows of 32 lines: each row's first line decodes in full (row
        // miss), the remaining 31 ride the streak.
        assert_eq!(assert_coalescing_identical(&reqs), 93);
    }

    /// Coalescing never crosses a DRAM row boundary: the row-crossing
    /// request takes the full path (and is charged its row miss), whether
    /// it lands on the boundary or straddles it.
    #[test]
    fn streak_breaks_at_row_boundary() {
        let row = DramConfig::default().row_bytes as u64;
        // Lines up to the boundary, then one straddling it.
        let mut reqs: Vec<MemRequest> = (0..row / 64)
            .map(|i| MemRequest::new(i * 64, 64, ns(i)))
            .collect();
        reqs.push(MemRequest::new(row - 8, 16, ns(row / 64)));
        let coalesced = assert_coalescing_identical(&reqs);
        assert_eq!(coalesced, row / 64 - 1, "the straddler must not coalesce");

        let mut c = ctl();
        for &req in &reqs {
            c.access(req);
        }
        // One miss opening the row, one per half of the split straddler.
        assert_eq!(c.stats().row_misses, 2);
        assert_eq!(c.stats().row_hits, row / 64 + 1 - 1);
    }

    /// An intervening access that conflicts on the bank (opens a different
    /// row) breaks the streak: the stream's next request re-decodes and is
    /// charged the row re-open, identically to the uncoalesced path.
    #[test]
    fn bank_conflict_breaks_streak() {
        let c = ctl();
        let bank0 = c.mapping().decode(0).bank;
        let conflict = c.mapping().encode(crate::address::DramCoord {
            bank: bank0,
            row: 7,
            column: 0,
        });
        assert_eq!(c.mapping().decode(conflict).bank, bank0);
        let reqs = vec![
            MemRequest::new(0, 64, ns(0)),
            MemRequest::new(64, 64, ns(1)),
            MemRequest::new(conflict, 64, ns(2)), // same bank, different row
            MemRequest::new(128, 64, ns(3)),      // would-be continuation
            MemRequest::new(192, 64, ns(4)),
        ];
        let coalesced = assert_coalescing_identical(&reqs);
        // Only the 0→64 continuation coalesces: the conflict replaces the
        // streak, and 128 no longer continues anything (row re-open), so
        // 192 starts a fresh streak off 128's full-path tail.
        assert_eq!(coalesced, 2);
        let mut full = ctl();
        for &req in &reqs {
            access_uncoalesced(&mut full, req);
        }
        assert_eq!(full.stats().row_misses, 3, "conflict re-opens the row");
    }

    /// Coalescing never crosses a priority-class boundary: a requestor
    /// switch (Core ↔ RME) mid-stream — the PS–PL QoS preemption point —
    /// forces the full path.
    #[test]
    fn class_switch_breaks_streak() {
        // Core and RME alternate on one sequential stream: no continuation
        // ever has a matching class, so nothing coalesces — but results
        // still match the oracle exactly.
        let reqs: Vec<MemRequest> = (0..16u64)
            .map(|i| {
                let requestor = if i % 2 == 0 {
                    Requestor::Core(0)
                } else {
                    Requestor::Rme
                };
                MemRequest::new(i * 64, 64, ns(i)).with_requestor(requestor)
            })
            .collect();
        assert_eq!(assert_coalescing_identical(&reqs), 0);
    }

    /// Writes never coalesce (their attribution differs), but a write does
    /// not corrupt the streak state for the reads around it: the whole
    /// mixed stream stays bit-identical to the uncoalesced path.
    #[test]
    fn writes_never_coalesce() {
        let reqs: Vec<MemRequest> = (0..16u64)
            .map(|i| {
                let req = MemRequest::new(i * 64, 64, ns(i));
                if i % 4 == 3 {
                    req.as_write()
                } else {
                    req
                }
            })
            .collect();
        let coalesced = assert_coalescing_identical(&reqs);
        // 15 continuations, minus the 4 writes (full path each).
        assert_eq!(coalesced, 11);
        let mut c = ctl();
        for &req in &reqs {
            c.access(req);
        }
        assert_eq!(c.stats().writes, 4);
    }

    /// `reset` also clears the streak: the first post-reset request must
    /// re-decode (the open-row table was just wiped).
    #[test]
    fn reset_breaks_streak() {
        let mut c = ctl();
        c.access(MemRequest::new(0, 64, ns(0)));
        let (_, streak) = access_counting(&mut c, MemRequest::new(64, 64, ns(1)));
        assert!(streak, "the continuation rides the streak");
        c.reset();
        let (post, streak) = access_counting(&mut c, MemRequest::new(128, 64, ns(0)));
        assert!(!streak, "reset breaks the streak");
        assert!(
            !post.row_hit,
            "post-reset access must observe the precharge"
        );
    }

    /// One request pattern driven period after period, each time a
    /// translation period further on: the state after the second period
    /// compares equal to the state after the first moved by one period,
    /// and shifting it over three periods leaves exactly the state (and
    /// counters) that stepping them does.
    #[test]
    fn a_translated_pattern_compares_equal_and_shifts_exactly() {
        let cfg = DramConfig::default();
        let span = DramController::new(cfg).mapping().translation_period();
        let period = ns(5_000);
        let drive = |c: &mut DramController, k: u64| -> Vec<Completion> {
            (0..64u64)
                .map(|i| {
                    let ready = period * k + ns(i * 37);
                    c.access(MemRequest::new(k * span + i * 200, 64, ready))
                })
                .collect()
        };
        let mut stepped = DramController::new(cfg);
        drive(&mut stepped, 0);
        let first = stepped.clone();
        drive(&mut stepped, 1);
        let shift = Shift {
            time: period,
            start: period * 2,
            source: span,
            ephemeral: 0,
            ephemeral_base: u64::MAX,
        };
        assert!(stepped.same_up_to_shift(&first, &shift));
        let mut skipped = stepped.clone();
        skipped.shift(&first, &shift, 3);
        for k in 2..5 {
            drive(&mut stepped, k);
        }
        assert_eq!(skipped.stats(), stepped.stats());
        assert_eq!(drive(&mut skipped, 5), drive(&mut stepped, 5));

        // A shift that is not a whole translation period never matches.
        let half = Shift {
            source: span / 2,
            ..shift
        };
        assert!(!skipped.same_up_to_shift(&first, &half));
    }
}
