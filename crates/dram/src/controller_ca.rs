//! Command-level (cycle-accurate) DRAM timing model.
//!
//! Where [`DramController`](crate::DramController) folds a request's timing
//! into two constants (row-hit / row-miss latency) plus occupancy, this
//! model walks the actual DDR command protocol per bank:
//!
//! * **ACT / PRE / RD / WR state machines per bank** — an access to a
//!   closed row issues PRE (bounded by tRAS after the activate, tRTP after
//!   the last read, tWR after the last write burst) and ACT (tRP after the
//!   precharge, tRC after the previous activate) before its column command;
//!   row-buffer hits pipeline at tCCD.
//! * **Per-rank tFAW window** — at most four activates may issue in any
//!   tFAW window; the fifth stalls (counted in
//!   [`DramStats::tfaw_stalls`]). This is what throttles many-bank random
//!   traffic that the occupancy model happily overlaps.
//! * **Periodic refresh** — every bank is refreshed once per tREFI window;
//!   a refresh closes the bank's open row and occupies it for tRFC
//!   (counted in [`DramStats::refreshes`]). Refresh catch-up is applied
//!   lazily when a bank is next used, keyed off the request's issue time,
//!   so identical request streams always produce identical schedules.
//! * **Bounded transaction queue** — at most `queue_depth` requests are in
//!   flight; a request arriving at a full queue waits for the earliest
//!   completion (admission stall, counted in [`DramStats::queue_stalls`]).
//!   The queue is a FIFO because the data bus is one: every request
//!   completes at the end of its last beat on that bus, whose free time
//!   never decreases, so completions come in admission order and the
//!   earliest is always the front.
//!
//! Within one multi-row request the chunks are scheduled row-hits first
//! (FR-FCFS order). Across requests, [`access`](CycleAccurateDram::access)
//! is arrival-ordered — its callers need each completion before they can
//! take another step — while writes posted through
//! [`post_write`](CycleAccurateDram::post_write) wait in a write buffer
//! until [`advance`](CycleAccurateDram::advance) or
//! [`drain_all`](CycleAccurateDram::drain_all) schedules them: a read
//! presented while writes sit buffered bypasses them, and buffered writes
//! drain row-hits first regardless of their arrival order. Both reorder
//! flavours are counted in [`DramStats::fr_fcfs_reorders`].
//!
//! The model shares [`AddressMapping`] (including the XOR bank hash),
//! [`MemRequest`]/[`Completion`] and [`DramStats`] with the occupancy
//! controller, so every caller — scans, sharded scans, HTAP workloads, the
//! RME's fetch units — runs unchanged on either model via
//! [`DramModel`](crate::DramModel).

use std::collections::VecDeque;

use relmem_sim::{DramConfig, Resource, SimTime, TraceEvent, TraceEventKind, Tracer, Track};

use crate::address::AddressMapping;
use crate::controller::DramStats;
use crate::request::{Completion, MemRequest, ReqKind, Requestor};

/// Per-bank command state.
#[derive(Debug, Clone)]
struct BankState {
    /// Open row, `None` when precharged.
    open_row: Option<u64>,
    /// Time of the last ACT (anchors tRAS and tRC); `None` until the bank
    /// first activates, so an idle bank pays no phantom tRC at t=0.
    act_at: Option<SimTime>,
    /// Earliest next column command (tCCD pipelining, tRCD after ACT,
    /// refresh recovery).
    cmd_ready: SimTime,
    /// Earliest next ACT (tRP after PRE, tRC after ACT, refresh recovery).
    act_ready: SimTime,
    /// Last read command (tRTP bound on a following PRE).
    last_rd_cmd: SimTime,
    /// End of the last write burst on the bus (tWR bound on a following
    /// PRE).
    wr_data_end: SimTime,
    /// Refresh windows already applied to this bank.
    refresh_applied: u64,
}

impl BankState {
    fn idle() -> Self {
        BankState {
            open_row: None,
            act_at: None,
            cmd_ready: SimTime::ZERO,
            act_ready: SimTime::ZERO,
            last_rd_cmd: SimTime::ZERO,
            wr_data_end: SimTime::ZERO,
            refresh_applied: 0,
        }
    }
}

/// ACT-time history entries kept for the tFAW check. Four would suffice
/// for in-order schedules; cross-bank scheduling can produce ACTs out of
/// arrival order (a bank stuck in refresh recovery activates later than a
/// subsequently scheduled idle bank), so extra history keeps eviction
/// from forgetting an ACT that still shares a window with a future
/// candidate. tRFC (350 ns) bounds the reordering skew, and 16 entries
/// cover it at any realistic ACT rate.
const FAW_HISTORY: usize = 16;

/// Recent activate times on the rank, kept sorted by *time* (tFAW). The
/// window orders by timestamp, not by insertion, and counts only ACTs
/// that actually share a tFAW-length interval with the candidate.
#[derive(Debug, Clone, Default)]
struct FawWindow {
    /// At most [`FAW_HISTORY`] entries, ascending; eviction drops the
    /// oldest.
    acts: Vec<SimTime>,
}

impl FawWindow {
    /// The earliest time a new ACT proposed at `t` may issue under the
    /// four-activates-per-window rule, or `None` when `t` is fine as-is.
    /// The rule is violated iff some four tracked ACTs plus the candidate
    /// fit inside one tFAW-length interval; every four-consecutive run of
    /// the sorted history is tested, and the fix-up moves the candidate
    /// past the oldest ACT of the latest violating run. Callers re-check
    /// after bumping (a later run can come into range).
    fn bound(&self, t: SimTime, t_faw: SimTime) -> Option<SimTime> {
        let n = self.acts.len();
        if n < 4 {
            return None;
        }
        let mut fix_up: Option<SimTime> = None;
        for run in self.acts.windows(4) {
            let span_min = run[0].min(t);
            let span_max = run[3].max(t);
            if span_max.saturating_sub(span_min) < t_faw {
                let b = run[0] + t_faw;
                fix_up = Some(fix_up.map_or(b, |x| x.max(b)));
            }
        }
        fix_up
    }

    fn push(&mut self, act: SimTime) {
        let idx = self.acts.partition_point(|&a| a <= act);
        self.acts.insert(idx, act);
        if self.acts.len() > FAW_HISTORY {
            self.acts.remove(0);
        }
    }

    fn clear(&mut self) {
        self.acts.clear();
    }
}

/// The command-level DRAM controller.
#[derive(Debug, Clone)]
pub struct CycleAccurateDram {
    cfg: DramConfig,
    mapping: AddressMapping,
    banks: Vec<BankState>,
    faw: FawWindow,
    /// Earliest next *read* command on the rank (tWTR after a write burst).
    wtr_ready: SimTime,
    bus: Resource,
    /// Completion times of in-flight transactions (bounded admission), in
    /// completion order, so the front is the earliest (see the module
    /// docs).
    inflight: VecDeque<SimTime>,
    /// Posted writes not yet scheduled, in posting order: the
    /// cross-request FR-FCFS window.
    pending_writes: Vec<MemRequest>,
    stats: DramStats,
    /// Observability hook (no-op unless recording; see `relmem_sim::trace`).
    tracer: Tracer,
}

impl CycleAccurateDram {
    /// Creates a controller from the platform's DRAM configuration.
    pub fn new(cfg: DramConfig) -> Self {
        let mapping = AddressMapping::with_hash(cfg.banks, cfg.row_bytes, cfg.xor_bank_hash);
        CycleAccurateDram {
            banks: vec![BankState::idle(); cfg.banks],
            faw: FawWindow::default(),
            wtr_ready: SimTime::ZERO,
            bus: Resource::new("dram-bus-ca"),
            inflight: VecDeque::with_capacity(cfg.queue_depth.max(1)),
            pending_writes: Vec::new(),
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

    /// Resets all command state, the write buffer and the statistics.
    pub fn reset(&mut self) {
        self.banks.iter_mut().for_each(|b| *b = BankState::idle());
        self.faw.clear();
        self.wtr_ready = SimTime::ZERO;
        self.bus.reset();
        self.inflight.clear();
        self.pending_writes.clear();
        self.stats = DramStats::default();
    }

    /// Time the data bus becomes free.
    pub fn bus_free_at(&self) -> SimTime {
        self.bus.next_free()
    }

    /// Total busy time of the data bus so far.
    pub fn bus_busy(&self) -> SimTime {
        self.bus.busy_time()
    }

    /// Applies any refresh windows that started at or before `now` to
    /// `bank`: the open row closes and the bank is unusable until the last
    /// window's tRFC recovery ends.
    fn apply_refresh(&mut self, bank: usize, now: SimTime) {
        let t_refi = self.cfg.t_refi;
        if t_refi.is_zero() {
            return;
        }
        let b = &mut self.banks[bank];
        // No new window has started yet: skip the division.
        if now.as_picos() < (b.refresh_applied + 1) * t_refi.as_picos() {
            return;
        }
        let due = now.as_picos() / t_refi.as_picos();
        let applied = due - b.refresh_applied;
        self.stats.refreshes += applied;
        b.refresh_applied = due;
        b.open_row = None;
        let window_start = SimTime::from_picos(due * t_refi.as_picos());
        let recovery = window_start + self.cfg.t_rfc;
        b.act_ready = b.act_ready.max(recovery);
        b.cmd_ready = b.cmd_ready.max(recovery);
        let t_rfc = self.cfg.t_rfc;
        self.tracer.emit(|| {
            TraceEvent::instant(
                Track::DramBank(bank as u32),
                TraceEventKind::DramRefresh,
                window_start,
                applied,
                t_rfc.as_picos(),
            )
        });
    }

    /// Admits a request into the bounded transaction queue: returns
    /// `(admission_time, outstanding)` — the admission time is ≥ `ready`
    /// (later when the queue is full), `outstanding` is the number of
    /// transactions still in flight at `ready`.
    fn admit(&mut self, ready: SimTime) -> (SimTime, u64) {
        self.retire_until(ready);
        let outstanding = self.inflight.len() as u64;
        if self.inflight.len() < self.cfg.queue_depth.max(1) {
            self.stats.queue_occupancy_max = self.stats.queue_occupancy_max.max(outstanding + 1);
            return (ready, outstanding);
        }
        self.stats.queue_stalls += 1;
        self.tracer.emit(|| {
            TraceEvent::instant(
                Track::System,
                TraceEventKind::DramQueueStall,
                ready,
                outstanding,
                0,
            )
        });
        let earliest = self.inflight.pop_front().expect("full queue is non-empty");
        let admitted = ready.max(earliest);
        self.retire_until(admitted);
        // Occupancy is sampled at the actual admission time: the stall
        // waited for at least one transaction to drain.
        let after_drain = self.inflight.len() as u64;
        self.stats.queue_occupancy_max = self.stats.queue_occupancy_max.max(after_drain + 1);
        (admitted, after_drain)
    }

    /// Drops the in-flight transactions that finished at or before `t`.
    fn retire_until(&mut self, t: SimTime) {
        while self.inflight.front().is_some_and(|&f| f <= t) {
            self.inflight.pop_front();
        }
    }

    /// Schedules one per-row chunk: issues the PRE/ACT/column commands and
    /// streams the beats. Returns `(first_command, bus_end, row_hit)`.
    fn schedule_chunk(
        &mut self,
        addr: u64,
        len: usize,
        issue: SimTime,
        kind: ReqKind,
    ) -> (SimTime, SimTime, bool) {
        let coord = self.mapping.decode(addr);
        self.apply_refresh(coord.bank, issue);
        let read = kind == ReqKind::Read;
        let b = &mut self.banks[coord.bank];
        let row_hit = b.open_row == Some(coord.row);
        let (first_cmd, col_cmd) = if row_hit {
            let mut cmd = issue.max(b.cmd_ready);
            if read {
                cmd = cmd.max(self.wtr_ready);
            }
            (cmd, cmd)
        } else {
            // Close the open row first (PRE), honouring tRAS after its
            // activate, tRTP after the last read and tWR after the last
            // write burst; a precharged bank activates directly.
            let had_open_row = b.open_row.is_some();
            let (pre, act_lower) = if had_open_row {
                let act_at = b.act_at.expect("an open row implies a prior ACT");
                let pre = issue
                    .max(act_at + self.cfg.t_ras)
                    .max(b.last_rd_cmd + self.cfg.t_rtp)
                    .max(b.wr_data_end + self.cfg.t_wr);
                (pre, pre + self.cfg.t_rp)
            } else {
                (issue, issue)
            };
            let mut act = act_lower.max(b.act_ready);
            if let Some(prev_act) = b.act_at {
                act = act.max(prev_act + self.cfg.t_rc());
            }
            let unstalled_act = act;
            let mut faw_stalled = false;
            while let Some(bound) = self.faw.bound(act, self.cfg.t_faw) {
                faw_stalled = true;
                act = bound;
            }
            if faw_stalled {
                self.stats.tfaw_stalls += 1;
                self.tracer.emit(|| {
                    TraceEvent::instant(
                        Track::DramBank(coord.bank as u32),
                        TraceEventKind::TfawStall,
                        act,
                        coord.row,
                        act.saturating_sub(unstalled_act).as_picos(),
                    )
                });
            }
            self.faw.push(act);
            if had_open_row {
                let old_row = b.open_row.expect("had_open_row");
                self.tracer.emit(|| {
                    TraceEvent::instant(
                        Track::DramBank(coord.bank as u32),
                        TraceEventKind::DramPrecharge,
                        pre,
                        old_row,
                        0,
                    )
                });
            }
            self.tracer.emit(|| {
                TraceEvent::instant(
                    Track::DramBank(coord.bank as u32),
                    TraceEventKind::DramActivate,
                    act,
                    coord.row,
                    0,
                )
            });
            b.open_row = Some(coord.row);
            b.act_at = Some(act);
            b.act_ready = act + self.cfg.t_rc();
            let mut cmd = act + self.cfg.t_rcd;
            if read {
                cmd = cmd.max(self.wtr_ready);
            }
            // The first command the chunk puts on the bank: the PRE when a
            // row had to close, otherwise the (possibly tFAW- or
            // refresh-delayed) ACT itself.
            (if had_open_row { pre } else { act }, cmd)
        };
        let b = &mut self.banks[coord.bank];
        b.cmd_ready = col_cmd + self.cfg.t_ccd;
        if read {
            b.last_rd_cmd = col_cmd;
        }
        // Column latency (tCL ≈ tCWL at this granularity), then the beats
        // stream over the shared data bus.
        let data_at = col_cmd + self.cfg.t_cas;
        let beats = len.div_ceil(self.cfg.bus_bytes) as u64;
        let (_, bus_end) = self.bus.acquire(data_at, self.cfg.beat_time * beats);
        if !read {
            let b = &mut self.banks[coord.bank];
            b.wr_data_end = bus_end;
            self.wtr_ready = self.wtr_ready.max(bus_end + self.cfg.t_wtr);
        }

        self.stats.accesses += 1;
        if !read {
            self.stats.writes += 1;
        }
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        self.stats.beats += beats;
        self.stats.bytes_transferred += beats * self.cfg.bus_bytes as u64;
        self.tracer.emit(|| {
            TraceEvent::span(
                Track::DramBank(coord.bank as u32),
                if read {
                    TraceEventKind::DramRead
                } else {
                    TraceEventKind::DramWrite
                },
                first_cmd,
                bus_end,
                addr,
                row_hit as u64,
            )
        });
        (first_cmd, bus_end, row_hit)
    }

    /// Services a request and returns its completion (same contract as
    /// [`DramController::access`](crate::DramController::access)).
    pub fn access(&mut self, req: MemRequest) -> Completion {
        // Cross-request FR-FCFS: a read scheduled while older writes sit in
        // the write buffer has bypassed them.
        if req.kind == ReqKind::Read && !self.pending_writes.is_empty() {
            self.stats.fr_fcfs_reorders += 1;
            let pending = self.pending_writes.len() as u64;
            self.tracer.emit(|| {
                TraceEvent::instant(
                    Track::System,
                    TraceEventKind::FrFcfsReorder,
                    req.ready,
                    pending,
                    0,
                )
            });
        }
        let (admitted, outstanding) = self.admit(req.ready);
        // Front-end (queueing logic, PHY) latency, as in the occupancy
        // model — charged once per request, not per chunk.
        let issue = admitted + self.cfg.controller_overhead;

        // FR-FCFS within the request: schedule chunks that hit an already
        // open row before the ones that need an activate. The common case —
        // a cache-line fill inside one DRAM row — is a single chunk and
        // must not allocate on this hot path; only multi-row bursts
        // collect and reorder.
        let mut iter = self.mapping.split_by_row(req.addr, req.bytes.max(1));
        let first = iter.next().expect("a request covers at least one byte");
        let mut rest: Vec<(u64, usize)> = iter.collect();
        let single = [first];
        let chunks: &[(u64, usize)] = if rest.is_empty() {
            &single
        } else {
            rest.insert(0, first);
            // Cached key: one decode per chunk during the sort instead of
            // one per comparison.
            rest.sort_by_cached_key(|&(addr, _)| {
                let coord = self.mapping.decode(addr);
                self.banks[coord.bank].open_row != Some(coord.row)
            });
            &rest
        };

        let mut start: Option<SimTime> = None;
        let mut finish = req.ready;
        let mut all_hits = true;
        let n_chunks = chunks.len() as u64;
        for &(addr, len) in chunks {
            let (first_cmd, bus_end, row_hit) = self.schedule_chunk(addr, len, issue, req.kind);
            all_hits &= row_hit;
            start = Some(start.map_or(first_cmd, |s| s.min(first_cmd)));
            finish = finish.max(bus_end);
            match req.requestor {
                Requestor::Core(core) => {
                    if self.stats.per_core_accesses.len() <= core {
                        self.stats.per_core_accesses.resize(core + 1, 0);
                    }
                    self.stats.per_core_accesses[core] += 1;
                }
                Requestor::Rme => self.stats.rme_accesses += 1,
            }
        }
        // One occupancy sample per chunk, so `avg_queue_occupancy` (which
        // divides by per-chunk `accesses`) is an exact mean-at-admission.
        self.stats.queue_occupancy_sum += outstanding * n_chunks;
        debug_assert!(
            self.inflight.back().is_none_or(|&last| last <= finish),
            "completions follow the data bus in order"
        );
        self.inflight.push_back(finish);

        Completion {
            start: start.expect("a request schedules at least one chunk"),
            finish,
            row_hit: all_hits,
        }
    }

    /// Posts a write that needs no reply (a dirty-line writeback). It
    /// enters the write buffer and is scheduled by a later
    /// [`advance`](Self::advance) or [`drain_all`](Self::drain_all), row
    /// hits first — the cross-request FR-FCFS window.
    pub fn post_write(&mut self, req: MemRequest) {
        debug_assert_eq!(req.kind, ReqKind::Write, "only writes are posted");
        self.stats.writebacks += 1;
        self.pending_writes.push(req);
        // Backstop: a real controller's write buffer is bounded by the
        // transaction queue; past that everything drains.
        if self.pending_writes.len() > self.cfg.queue_depth.max(1) {
            self.flush_pending_writes(None);
        }
    }

    /// Schedules buffered writes whose `ready` time is at or before `now`
    /// (`None` = all of them), row-buffer hits first. A hit promoted past
    /// an older buffered miss counts one FR-FCFS reorder.
    fn flush_pending_writes(&mut self, now: Option<SimTime>) {
        let mut due: Vec<MemRequest> = Vec::new();
        self.pending_writes.retain(|&req| {
            let is_due = now.is_none_or(|cut| req.ready <= cut);
            if is_due {
                due.push(req);
            }
            !is_due
        });
        if due.is_empty() {
            return;
        }
        // Posting order first (the buffer keeps it), then a stable
        // partition by row-hit status against the banks as they stand now:
        // hits schedule ahead of misses, ties stay in posting order.
        // Classification is a snapshot — scheduling a miss opens its row,
        // but re-classifying mid-drain would make the schedule depend on
        // drain internals rather than the request stream, and determinism
        // wins here.
        let hit_now = |dram: &Self, req: &MemRequest| {
            dram.mapping
                .split_by_row(req.addr, req.bytes.max(1))
                .all(|(addr, _)| {
                    let coord = dram.mapping.decode(addr);
                    dram.banks[coord.bank].open_row == Some(coord.row)
                })
        };
        let hits: Vec<bool> = due.iter().map(|req| hit_now(self, req)).collect();
        let oldest_miss = hits.iter().position(|&h| !h);
        let pending = due.len() as u64;
        for (i, req) in due.iter().enumerate() {
            if hits[i] && oldest_miss.is_some_and(|m| i > m) {
                self.stats.fr_fcfs_reorders += 1;
                self.tracer.emit(|| {
                    TraceEvent::instant(
                        Track::System,
                        TraceEventKind::FrFcfsReorder,
                        req.ready,
                        pending,
                        0,
                    )
                });
            }
        }
        for want_hit in [true, false] {
            for (&req, _) in due.iter().zip(&hits).filter(|&(_, &h)| h == want_hit) {
                self.access(req);
            }
        }
    }

    /// Schedules every buffered write whose `ready` time is at or before
    /// `now`.
    pub fn advance(&mut self, now: SimTime) {
        self.flush_pending_writes(Some(now));
    }

    /// Schedules every buffered write (end of a measured run).
    pub fn drain_all(&mut self) {
        self.flush_pending_writes(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> DramConfig {
        DramConfig {
            xor_bank_hash: false,
            ..DramConfig::default()
        }
    }

    fn ctl() -> CycleAccurateDram {
        CycleAccurateDram::new(cfg())
    }

    /// Address of `row` on the bank that address 0 maps to.
    fn same_bank_row(c: &CycleAccurateDram, row: u64) -> u64 {
        let bank = c.mapping().decode(0).bank;
        c.mapping().encode(crate::address::DramCoord {
            bank,
            row,
            column: 0,
        })
    }

    #[test]
    fn back_to_back_activates_respect_trc() {
        let mut c = ctl();
        let d = cfg();
        let a = c.access(MemRequest::new(0, 64, SimTime::ZERO));
        assert!(!a.row_hit);
        // Same bank, different row, ready immediately: the second ACT must
        // wait out tRAS + tRP behind the first.
        let b = c.access(MemRequest::new(same_bank_row(&c, 1), 64, SimTime::ZERO));
        assert!(!b.row_hit);
        let first_act = d.controller_overhead;
        let lower = first_act + d.t_rc() + d.t_rcd + d.t_cas + d.transfer_time(64);
        assert!(
            b.finish >= lower,
            "second activate must respect tRC: finish {} < bound {lower}",
            b.finish
        );
    }

    #[test]
    fn fifth_activate_in_a_tfaw_window_stalls() {
        let mut c = ctl();
        let d = cfg();
        // Five row misses on five different banks, all ready at once: four
        // activates issue immediately, the fifth waits for the window.
        let row_stride = d.row_bytes as u64;
        let mut last = Completion {
            start: SimTime::ZERO,
            finish: SimTime::ZERO,
            row_hit: true,
        };
        for bank in 0..5u64 {
            last = c.access(MemRequest::new(bank * row_stride, 64, SimTime::ZERO));
        }
        assert_eq!(c.stats().tfaw_stalls, 1, "exactly the fifth ACT stalls");
        let lower = d.controller_overhead + d.t_faw + d.t_rcd + d.t_cas;
        assert!(
            last.finish >= lower,
            "fifth activate must wait out tFAW: finish {} < bound {lower}",
            last.finish
        );
        // A sixth access that hits an open row needs no ACT and no stall.
        let hit = c.access(MemRequest::new(16, 16, last.finish));
        assert!(hit.row_hit);
        assert_eq!(c.stats().tfaw_stalls, 1);
    }

    #[test]
    fn refresh_closes_open_rows_and_stalls_the_bank() {
        let mut c = ctl();
        let d = cfg();
        let a = c.access(MemRequest::new(0, 64, SimTime::ZERO));
        assert!(!a.row_hit);
        // Well before tREFI the row is still open.
        let warm = c.access(MemRequest::new(64, 64, a.finish));
        assert!(warm.row_hit);
        assert_eq!(c.stats().refreshes, 0);
        // Past the first refresh window the row has been closed by the
        // refresh and the access pays a fresh activate after tRFC.
        let after = d.t_refi + SimTime::from_nanos(1);
        let b = c.access(MemRequest::new(0, 64, after));
        assert!(!b.row_hit, "refresh must close the open row");
        assert!(c.stats().refreshes >= 1);
        let recovery = d.t_refi + d.t_rfc;
        assert!(
            b.finish >= recovery + d.t_rcd + d.t_cas,
            "bank must wait out tRFC: finish {} vs recovery {recovery}",
            b.finish
        );
    }

    #[test]
    fn write_to_read_turnaround_is_charged() {
        let d = cfg();
        // Write and read to the same row, both presented at t=0 (the
        // pipelined case where the turnaround bites: a read issued long
        // after the write has drained hides tWTR under the front-end
        // overhead).
        let mut c = ctl();
        let w = c.access(MemRequest::new(0, 64, SimTime::ZERO).as_write());
        let r = c.access(MemRequest::new(64, 64, SimTime::ZERO));
        assert!(r.row_hit);
        assert_eq!(c.stats().writes, 1, "exactly the write is attributed");
        // The read command waits tWTR after the write burst ends.
        assert!(
            r.finish >= w.finish + d.t_wtr + d.t_cas,
            "read after write must pay tWTR: {} vs write end {}",
            r.finish,
            w.finish
        );
        // Control: read-after-read with the same presentation pipelines
        // at tCCD and finishes sooner.
        let mut c2 = ctl();
        let w2 = c2.access(MemRequest::new(0, 64, SimTime::ZERO));
        let r2 = c2.access(MemRequest::new(64, 64, SimTime::ZERO));
        assert_eq!(w.finish, w2.finish, "first accesses are timing-identical");
        assert!(r2.finish < r.finish, "turnaround must cost time");
    }

    #[test]
    fn write_recovery_delays_the_following_precharge() {
        let d = cfg();
        let mut c = ctl();
        let w = c.access(MemRequest::new(0, 64, SimTime::ZERO).as_write());
        // Same bank, different row: PRE must wait tWR after the write data.
        let conflict = c.access(MemRequest::new(same_bank_row(&c, 1), 64, w.finish));
        assert!(!conflict.row_hit);
        assert!(
            conflict.finish >= w.finish + d.t_wr + d.t_rp + d.t_rcd + d.t_cas,
            "precharge after a write must pay tWR ({} vs {})",
            conflict.finish,
            w.finish
        );
    }

    #[test]
    fn row_hits_pipeline_at_tccd() {
        let mut c = ctl();
        let d = cfg();
        let a = c.access(MemRequest::new(0, 16, SimTime::ZERO));
        // Two hits presented at the same ready time: their column commands
        // pipeline at tCCD, so completions are one tCCD (+ beat) apart.
        let h1 = c.access(MemRequest::new(16, 16, a.finish));
        let h2 = c.access(MemRequest::new(32, 16, a.finish));
        assert!(h1.row_hit && h2.row_hit);
        let delta = h2.finish.saturating_sub(h1.finish);
        assert_eq!(delta, d.t_ccd, "hits pipeline at the tCCD rate");
    }

    #[test]
    fn full_transaction_queue_stalls_admission() {
        let mut c = CycleAccurateDram::new(DramConfig {
            queue_depth: 2,
            xor_bank_hash: false,
            ..DramConfig::default()
        });
        // Many independent requests all ready at t=0: only two can be in
        // flight, the rest wait at admission.
        for i in 0..8u64 {
            c.access(MemRequest::new(i * 4096, 64, SimTime::ZERO));
        }
        assert!(c.stats().queue_stalls > 0, "bounded queue must stall");
        assert!(c.stats().avg_queue_occupancy() > 0.0);
        // An unbounded-ish queue sees no stalls for the same traffic.
        let mut wide = ctl();
        for i in 0..8u64 {
            wide.access(MemRequest::new(i * 4096, 64, SimTime::ZERO));
        }
        assert_eq!(wide.stats().queue_stalls, 0);
    }

    #[test]
    fn admission_stalls_never_reorder_same_bank_completions() {
        let mut c = CycleAccurateDram::new(DramConfig {
            queue_depth: 2,
            xor_bank_hash: false,
            ..DramConfig::default()
        });
        // A burst of same-bank requests (cycling three rows so nearly
        // every one is a row conflict), all presented at t=0: admission
        // stalls throttle the stream, but the bank serialises its
        // commands in arrival order, so completions must come back in
        // issue order regardless of how the queue drained.
        let mut finishes = Vec::new();
        for i in 0..12u64 {
            let addr = same_bank_row(&c, i % 3);
            finishes.push(c.access(MemRequest::new(addr, 64, SimTime::ZERO)).finish);
        }
        assert!(c.stats().queue_stalls > 0, "the bounded queue must stall");
        assert!(
            finishes.windows(2).all(|w| w[0] <= w[1]),
            "same-bank completions reordered under admission stalls: {finishes:?}"
        );
        // Occupancy honestly reports saturation: the maximum equals the
        // configured depth, never more.
        assert_eq!(c.stats().queue_occupancy_max, 2);
        // The same traffic against the default (deep) queue never stalls,
        // fills well past 2, and keeps the same completion order.
        let mut wide = ctl();
        let mut wide_finishes = Vec::new();
        for i in 0..12u64 {
            let addr = same_bank_row(&wide, i % 3);
            wide_finishes.push(wide.access(MemRequest::new(addr, 64, SimTime::ZERO)).finish);
        }
        assert_eq!(wide.stats().queue_stalls, 0);
        assert_eq!(wide.stats().queue_occupancy_max, 12);
        assert!(wide_finishes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn row_spanning_requests_are_split_and_ordered_hits_first() {
        let mut c = ctl();
        // Open row 1's row buffer, then issue a burst spanning rows 0→1:
        // the row-1 chunk is a hit and schedules first.
        let row = cfg().row_bytes as u64;
        let warm = c.access(MemRequest::new(row, 64, SimTime::ZERO));
        assert!(!warm.row_hit);
        let spanning = c.access(MemRequest::new(row - 32, 64, warm.finish));
        assert!(!spanning.row_hit, "the row-0 half still misses");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().row_hits, 1, "the row-1 half hits the open row");
    }

    #[test]
    fn stats_reset_and_determinism() {
        let run = || {
            let mut c = ctl();
            let mut last = SimTime::ZERO;
            for i in 0..64u64 {
                let done = c.access(MemRequest::new(i * 96, 32, SimTime::from_nanos(i)));
                last = last.max(done.finish);
            }
            (last, c.stats().clone())
        };
        let (end_a, stats_a) = run();
        let (end_b, stats_b) = run();
        assert_eq!(end_a, end_b);
        assert_eq!(stats_a, stats_b);

        let mut c = ctl();
        c.access(MemRequest::new(0, 64, SimTime::ZERO));
        c.reset();
        assert_eq!(c.stats(), &DramStats::default());
        assert_eq!(c.bus_free_at(), SimTime::ZERO);
    }

    #[test]
    fn a_read_bypasses_a_buffered_write() {
        let mut c = ctl();
        c.post_write(MemRequest::new(0, 64, SimTime::ZERO).as_write());
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().writes, 0, "the write sits buffered");
        // A read presented while the write is buffered bypasses it.
        c.access(MemRequest::new(1 << 16, 64, SimTime::ZERO));
        assert_eq!(
            c.stats().fr_fcfs_reorders,
            1,
            "read bypassed a buffered write"
        );
        c.drain_all();
        assert_eq!(c.stats().writes, 1, "drain scheduled the write");
        assert_eq!(c.stats().accesses, 2);
    }

    #[test]
    fn advance_schedules_only_ready_writes() {
        let mut c = ctl();
        c.post_write(MemRequest::new(0, 64, SimTime::from_nanos(1_000)).as_write());
        c.advance(SimTime::from_nanos(999));
        assert_eq!(c.stats().writes, 0, "not ready yet");
        c.advance(SimTime::from_nanos(1_000));
        assert_eq!(c.stats().writes, 1);
        c.drain_all();
        assert_eq!(c.stats().writes, 1, "each write is scheduled once");
    }

    #[test]
    fn buffered_writes_drain_row_hits_first() {
        let mut c = ctl();
        // Open row 0's row buffer on bank 0.
        let warm = c.access(MemRequest::new(0, 64, SimTime::ZERO));
        assert!(!warm.row_hit);
        // Buffer a row-conflict write first, then a row-hit write.
        c.post_write(MemRequest::new(same_bank_row(&c, 1), 64, warm.finish).as_write());
        c.post_write(MemRequest::new(64, 64, warm.finish).as_write());
        let before = c.stats().clone();
        c.drain_all();
        assert_eq!(
            c.stats().fr_fcfs_reorders,
            before.fr_fcfs_reorders + 1,
            "the row hit overtook the older buffered miss"
        );
        // Scheduled ahead of the conflict write, the hit found row 0 still
        // open; in arrival order the conflict would have closed it first.
        assert_eq!(c.stats().row_hits, before.row_hits + 1);
        assert_eq!(c.stats().row_misses, before.row_misses + 1);
    }

    #[test]
    fn write_buffer_backstop_bounds_the_window() {
        let mut c = CycleAccurateDram::new(DramConfig {
            queue_depth: 2,
            xor_bank_hash: false,
            ..DramConfig::default()
        });
        for i in 0..8u64 {
            c.post_write(MemRequest::new(i * 4096, 64, SimTime::ZERO).as_write());
        }
        assert!(
            c.stats().writes >= 6,
            "the capacity backstop must have flushed buffered writes"
        );
        assert_eq!(c.stats().writebacks, 8);
        // Reset empties the buffer along with the counters.
        c.reset();
        c.drain_all();
        assert_eq!(c.stats(), &DramStats::default());
    }

    /// The bounded-admission rule as a `Vec` of completion times, filtered
    /// and min-scanned per request: the reference for the FIFO
    /// [`CycleAccurateDram::admit`].
    struct VecAdmission {
        inflight: Vec<SimTime>,
        depth: usize,
        stalls: u64,
        occupancy_max: u64,
        occupancy_sum: u64,
    }

    impl VecAdmission {
        fn admit(&mut self, ready: SimTime) -> (SimTime, u64) {
            self.inflight.retain(|&t| t > ready);
            let outstanding = self.inflight.len() as u64;
            if self.inflight.len() < self.depth {
                self.occupancy_max = self.occupancy_max.max(outstanding + 1);
                return (ready, outstanding);
            }
            self.stalls += 1;
            let (idx, earliest) = self
                .inflight
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(_, t)| t)
                .expect("full queue is non-empty");
            self.inflight.swap_remove(idx);
            let admitted = ready.max(earliest);
            self.inflight.retain(|&t| t > admitted);
            let after_drain = self.inflight.len() as u64;
            self.occupancy_max = self.occupancy_max.max(after_drain + 1);
            (admitted, after_drain)
        }

        /// Admits one request of `chunks` chunks that completes at
        /// `finish`.
        fn book(&mut self, ready: SimTime, chunks: u64, finish: SimTime) {
            let (_, outstanding) = self.admit(ready);
            self.occupancy_sum += outstanding * chunks;
            self.inflight.push(finish);
        }
    }

    /// Bytes of address space each posted write owns, so every chunk of
    /// a flushed write names its request.
    const REGION: u64 = 1 << 12;

    proptest! {
        /// FIFO admission counts the same stalls, the same maximum and the
        /// same summed occupancy as the reference `Vec` admission, and
        /// every request completes at or after the previous one, over
        /// random streams of reads, posted writes and multi-row bursts with
        /// out-of-order ready times across refresh windows, interleaved
        /// with `advance` and `drain_all`, at queue depths 1 to 8. The
        /// requests and their completions are read back from the
        /// controller's trace: a read is the chunks its `access` emits, and
        /// a flushed write the consecutive chunks inside its region.
        #[test]
        fn fifo_admission_matches_the_vec_reference(
            depth in 1usize..=8,
            xor_bank_hash in any::<bool>(),
            // (kind, address, bytes, time): ready times span four refresh
            // windows, and bursts cross up to five 512 B rows.
            ops in proptest::collection::vec(
                (0u64..10, 0u64..64 * REGION, 1usize..=2_048, 0u64..4 * 7_800),
                1..160,
            ),
        ) {
            let d = DramConfig { queue_depth: depth, row_bytes: 512, xor_bank_hash, ..cfg() };
            let mut c = CycleAccurateDram::new(d);
            c.tracer_mut().set_enabled(true);
            let mut reference = VecAdmission {
                inflight: Vec::new(),
                depth,
                stalls: 0,
                occupancy_max: 0,
                occupancy_sum: 0,
            };
            // Ready time of each posted write, by region; writes own the
            // regions above the reads' 64.
            let mut write_ready: Vec<SimTime> = Vec::new();
            let mut last_finish = SimTime::ZERO;
            for (kind, addr, bytes, ns) in ops {
                let t = SimTime::from_nanos(ns);
                let read = match kind {
                    // A read anywhere below the write regions.
                    0..=3 => {
                        let done = c.access(MemRequest::new(addr, bytes, t));
                        Some((t, done.finish))
                    }
                    // A posted write into the next unused region.
                    4..=6 => {
                        let region = 64 + write_ready.len() as u64;
                        write_ready.push(t);
                        let offset = addr % (REGION / 2);
                        let req = MemRequest::new(region * REGION + offset, bytes, t);
                        c.post_write(req.as_write());
                        None
                    }
                    7 | 8 => {
                        c.advance(t);
                        None
                    }
                    _ => {
                        c.drain_all();
                        None
                    }
                };
                // (ready, chunks, finish) of every request the call
                // scheduled, in scheduling order.
                let chunks: Vec<TraceEvent> = c
                    .tracer_mut()
                    .take()
                    .into_iter()
                    .filter(|e| matches!(e.kind, TraceEventKind::DramRead | TraceEventKind::DramWrite))
                    .collect();
                let mut requests: Vec<(SimTime, u64, SimTime)> = Vec::new();
                match read {
                    Some((ready, finish)) => {
                        prop_assert!(chunks.iter().all(|e| e.kind == TraceEventKind::DramRead));
                        prop_assert_eq!(chunks.iter().map(|e| e.end()).max(), Some(finish));
                        requests.push((ready, chunks.len() as u64, finish));
                    }
                    None => {
                        let mut current: Option<u64> = None;
                        for e in &chunks {
                            prop_assert_eq!(e.kind, TraceEventKind::DramWrite);
                            let region = e.arg0 / REGION;
                            if current != Some(region) {
                                current = Some(region);
                                requests.push((write_ready[(region - 64) as usize], 0, e.end()));
                            }
                            let last = requests.last_mut().expect("pushed above");
                            last.1 += 1;
                            last.2 = last.2.max(e.end());
                        }
                    }
                }
                for (ready, n, finish) in requests {
                    prop_assert!(
                        finish >= last_finish,
                        "completion {} before the previous one {}", finish, last_finish
                    );
                    last_finish = finish;
                    reference.book(ready, n, finish);
                }
                prop_assert_eq!(c.stats.queue_stalls, reference.stalls);
                prop_assert_eq!(c.stats.queue_occupancy_max, reference.occupancy_max);
                prop_assert_eq!(c.stats.queue_occupancy_sum, reference.occupancy_sum);
            }
        }

        /// The cycle-accurate model never completes a request earlier than
        /// the idealized row-hit lower bound: even a request that hits an
        /// open row on an idle device pays the front-end overhead, the
        /// column latency and its bus beats.
        #[test]
        fn never_beats_the_row_hit_lower_bound(
            ops in proptest::collection::vec(
                (0u64..32 * 2048 * 8, 1usize..256, 0u64..100_000u64, any::<bool>()),
                1..64,
            )
        ) {
            let d = cfg();
            let mut c = CycleAccurateDram::new(d);
            for (addr, bytes, ready_ns, write) in ops {
                let ready = SimTime::from_nanos(ready_ns);
                let mut req = MemRequest::new(addr, bytes, ready);
                if write {
                    req = req.as_write();
                }
                let done = c.access(req);
                let ideal = ready + d.controller_overhead + d.t_cas + d.transfer_time(bytes);
                prop_assert!(
                    done.finish >= ideal,
                    "completion {} beat the ideal row-hit bound {} (addr {addr}, {bytes} B)",
                    done.finish, ideal
                );
                prop_assert!(done.start >= ready);
            }
        }
    }
}
