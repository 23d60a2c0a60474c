//! The composed Relational Memory Engine.
//!
//! [`RmeEngine`] ties the Trapper, Monitor Bypass, Requestor, Fetch Units
//! and Reorganization Buffer together and exposes the two operations the
//! rest of the system needs:
//!
//! * [`RmeEngine::serve_line`] — the timing path: a CPU cache-line request
//!   for an ephemeral address enters through the Trapper, is looked up in
//!   the Reorganization Buffer, possibly triggers a frame fetch, and leaves
//!   as an AXI response. The returned time is when the line reaches the L2.
//! * [`RmeEngine::read_packed`] — the functional path: the actual packed
//!   bytes of the projection, produced by really extracting them from the
//!   row-major image in physical memory.
//!
//! Tables whose packed projection exceeds the Data SPM are processed in
//! *frames*: the SPM holds one frame at a time and moving to the next frame
//! uses the single-cycle epoch reset (Section 5, "RME Scales with Data
//! Size" / Figure 13).

use std::sync::Arc;

use relmem_dram::{DramModel, PhysicalMemory};
use relmem_sim::{
    CdcConfig, RmeHwConfig, Shift, SimTime, TraceEvent, TraceEventKind, Tracer, Track,
};

use crate::config_port::ConfigPort;
use crate::extractor::pack_row;
use crate::fetch_unit::{least_loaded, same_units_up_to_shift, BurstTimes, FetchUnit};
use crate::geometry::TableGeometry;
use crate::monitor::{Lookup, MonitorBypass};
use crate::requestor::{DescriptorCursor, FrameRows, ProjectionPlan, Requestor};
use crate::revision::HwRevision;
use crate::stats::RmeStats;
use crate::trapper::Trapper;

/// The Relational Memory Engine.
#[derive(Debug, Clone)]
pub struct RmeEngine {
    hw: RmeHwConfig,
    /// One Data SPM access (`spm_access_cycles` PL cycles), resolved once.
    spm_access: SimTime,
    bus_bytes: usize,
    revision: HwRevision,
    port: ConfigPort,
    trapper: Trapper,
    requestor: Requestor,
    fetch_units: Vec<FetchUnit>,
    monitor: MonitorBypass,
    programmed: Option<Programmed>,
    line_bytes: usize,
    /// Booking state of the activated frame, dropped once the frame is
    /// fully booked. A frame turnover generates the descriptor stream but
    /// books each descriptor's DRAM traffic lazily, as the demand cursor
    /// reaches it, so fetch overlaps compute line by line: the descriptors
    /// the cursor has not yielded yet have been generated — with their
    /// dispatch anchors frozen at activation — but not yet presented to
    /// the fetch units.
    progress: Option<FrameProgress>,
    stats: RmeStats,
    /// Trace hook for frame activations and fetch windows. A no-op unless
    /// the system enables recording; timing is never affected.
    tracer: Tracer,
}

#[derive(Debug, Clone)]
struct Programmed {
    geometry: TableGeometry,
    /// Per-column offsets of `geometry`, resolved once at configuration.
    plan: ProjectionPlan,
    /// Visible source rows in order (None ⇒ every row is visible), shared
    /// with the cursor of the active frame.
    visible_rows: Option<Arc<Vec<u64>>>,
    /// Rows per frame (how many packed rows fit in the Data SPM).
    rows_per_frame: u64,
}

/// Booking state of an activated frame. The full descriptor stream exists
/// from activation (the hardware Requestor emits one descriptor per PL
/// cycle regardless of demand, and each descriptor's dispatch anchor is
/// fixed by its position); what is deferred is presenting descriptors to
/// the Fetch Units — i.e. booking their DRAM traffic. Booking happens in
/// stream order as the demand cursor advances, a run of descriptors per
/// call, and is completed wholesale on frame turnover or at
/// [`RmeEngine::finish_pending_fetch`], so a run books every descriptor of
/// every frame it activates.
#[derive(Debug, Clone)]
struct FrameProgress {
    frame: u64,
    /// The frame's descriptor stream; the descriptors it has taken are
    /// booked.
    cursor: DescriptorCursor,
    /// Latest buffer-write completion among booked descriptors (the tail
    /// force-complete time).
    latest: SimTime,
    /// Per-column burst fields of the rows booked last.
    bursts: ColumnBursts,
}

/// The burst fields of every column of interest for source rows starting
/// `phase` bytes into a bus beat, recomputed when a row starts elsewhere
/// (never, when rows are a whole number of beats wide).
#[derive(Debug, Clone, Default)]
struct ColumnBursts {
    /// Offset into a bus beat of the rows `columns` hold for (`None`
    /// before the first row).
    phase: Option<u64>,
    /// Whether every source row starts at `phase`.
    every_row: bool,
    columns: Vec<ColumnBurst>,
}

/// The fields of one column's descriptors that depend only on where the
/// source row starts within a bus beat: every row starting at the same
/// offset reads the same beats of the column (equations (2), (3) and (5))
/// at the same port and pipeline cost.
#[derive(Debug, Clone, Copy)]
struct ColumnBurst {
    /// `Raddr` minus the row's first address, wrapping below zero when the
    /// column's first beat starts before the row.
    raddr_offset: u64,
    burst_bytes: usize,
    rburst: u64,
    times: BurstTimes,
}

impl ColumnBursts {
    /// The burst fields of every column of the source row at `row_base`,
    /// with `unit`'s port and pipeline costs.
    fn at(&mut self, plan: &ProjectionPlan, row_base: u64, unit: &FetchUnit) -> &[ColumnBurst] {
        if self.every_row {
            return &self.columns;
        }
        let bus = plan.bus_bytes();
        let phase = row_base % bus;
        if self.phase != Some(phase) {
            self.every_row = plan.row_bytes().is_multiple_of(bus);
            self.columns.clear();
            self.columns.extend(plan.columns().iter().map(|c| {
                let es = (phase + c.source_offset) % bus;
                let rburst = (es + c.width as u64).div_ceil(bus);
                ColumnBurst {
                    raddr_offset: c.source_offset.wrapping_sub(es),
                    burst_bytes: (rburst * bus) as usize,
                    rburst,
                    times: unit.burst_times(rburst as usize),
                }
            }));
            self.phase = Some(phase);
        }
        &self.columns
    }
}

impl FrameProgress {
    /// One past the descriptor that writes the last byte of frame line
    /// `line`. Descriptors write the frame's packed bytes in increasing
    /// order, so booking up to there completes the line. A line holding the
    /// frame's last packed byte, or past it, needs the whole stream: a
    /// partial tail line completes when the booked frame is closed.
    fn descriptors_through_line(&self, line: usize, line_bytes: usize) -> usize {
        let plan = self.cursor.plan();
        let packed_row = plan.packed_row_bytes();
        let line_end = (line + 1) * line_bytes;
        if line_end >= self.cursor.rows().len() * packed_row {
            return self.cursor.descriptors();
        }
        let last = line_end - 1;
        let within = last % packed_row;
        let columns = plan.columns();
        (last / packed_row) * columns.len()
            + columns.partition_point(|c| c.packed_offset + c.width <= within)
            + 1
    }
}

impl Programmed {
    fn visible_count(&self) -> u64 {
        self.visible_rows
            .as_ref()
            .map(|v| v.len() as u64)
            .unwrap_or(self.geometry.row_count)
    }

    fn packed_row_bytes(&self) -> usize {
        self.plan.packed_row_bytes()
    }

    /// Packed bytes covered by one full frame.
    fn frame_bytes(&self) -> u64 {
        self.rows_per_frame * self.packed_row_bytes() as u64
    }

    /// Total packed bytes of the projection.
    fn packed_total(&self) -> u64 {
        self.visible_count() * self.packed_row_bytes() as u64
    }

    /// The frame an ephemeral byte offset falls into.
    fn frame_of(&self, offset: u64) -> u64 {
        offset / self.frame_bytes()
    }

    /// Source rows (and their packed indices) belonging to a frame.
    fn frame_rows(&self, frame: u64) -> FrameRows {
        let count = self.visible_count();
        let start = (frame * self.rows_per_frame).min(count);
        let end = (start + self.rows_per_frame).min(count);
        match &self.visible_rows {
            Some(visible) => FrameRows::Visible {
                visible: Arc::clone(visible),
                start: start as usize,
                end: end as usize,
            },
            None => FrameRows::Range { start, end },
        }
    }

    /// The source row at packed index `packed_idx` of the projection.
    fn source_row(&self, packed_idx: u64) -> u64 {
        match &self.visible_rows {
            Some(v) => v[packed_idx as usize],
            None => packed_idx,
        }
    }
}

impl RmeEngine {
    /// Builds an engine.
    ///
    /// * `hw` — structural parameters (SPM sizes, fetch units, limits),
    /// * `cdc` — PS↔PL boundary parameters,
    /// * `revision` — BSL / PCK / MLP,
    /// * `bus_bytes` — main-memory bus width (16 B on the target platform),
    /// * `line_bytes` — CPU cache line size (64 B).
    pub fn new(
        hw: RmeHwConfig,
        cdc: CdcConfig,
        revision: HwRevision,
        bus_bytes: usize,
        line_bytes: usize,
    ) -> Self {
        let pl = cdc.pl_clock();
        let fetch_units = (0..hw.fetch_units.max(1))
            .map(|_| FetchUnit::new(hw, revision, pl, cdc.pl_dram_read_latency))
            .collect();
        RmeEngine {
            monitor: MonitorBypass::new(hw.data_spm_bytes, line_bytes),
            requestor: Requestor::new(pl.cycles(hw.descriptor_cycles)),
            trapper: Trapper::new(cdc),
            fetch_units,
            port: ConfigPort::new(),
            spm_access: pl.cycles(hw.spm_access_cycles),
            bus_bytes,
            revision,
            hw,
            programmed: None,
            line_bytes,
            progress: None,
            stats: RmeStats::default(),
            tracer: Tracer::new(),
        }
    }

    /// The engine's trace hook (recording is controlled by the system;
    /// the hook is a no-op by default).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The hardware revision this engine models.
    pub fn revision(&self) -> HwRevision {
        self.revision
    }

    /// The structural configuration.
    pub fn hw_config(&self) -> &RmeHwConfig {
        &self.hw
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RmeStats {
        let mut s = self.stats;
        s.descriptors = self.requestor.generated();
        s.epoch_resets = self.monitor.buffer().resets();
        s
    }

    /// Programs the engine for a projection described by `geometry`,
    /// optionally restricted to `visible_rows` (MVCC snapshot filtering).
    /// This is what `register_var(...)` — registering an ephemeral variable —
    /// does under the hood: a handful of configuration-port writes followed
    /// by a software reset.
    pub fn configure(
        &mut self,
        geometry: TableGeometry,
        visible_rows: Option<Vec<u64>>,
    ) -> Result<(), relmem_storage::StorageError> {
        geometry.validate(self.hw.max_columns, self.hw.max_column_width)?;
        self.port.program(&geometry);
        self.port.write(crate::config_port::regs::SW_RESET, 1);
        self.port.take_reset();
        let packed_row = geometry.packed_row_bytes().max(1);
        // Frames must end on a cache-line boundary of the packed projection,
        // otherwise a single line would straddle two frames. Round the rows
        // per frame down to a multiple of the smallest row count whose
        // packed size is line-aligned.
        let step = (self.line_bytes / gcd(packed_row, self.line_bytes)).max(1);
        let raw = (self.hw.data_spm_bytes / packed_row).max(1);
        let rows_per_frame = ((raw / step) * step).max(step) as u64;
        self.monitor.software_reset();
        self.progress = None;
        self.programmed = Some(Programmed {
            plan: ProjectionPlan::new(&geometry, self.bus_bytes),
            geometry,
            visible_rows: visible_rows.map(Arc::new),
            rows_per_frame,
        });
        Ok(())
    }

    /// The currently programmed geometry.
    pub fn geometry(&self) -> Option<&TableGeometry> {
        self.programmed.as_ref().map(|p| &p.geometry)
    }

    /// Total bytes of the packed projection currently programmed.
    pub fn packed_total_bytes(&self) -> u64 {
        self.programmed
            .as_ref()
            .map(|p| p.packed_total())
            .unwrap_or(0)
    }

    /// Whether `addr` falls inside the programmed ephemeral range.
    pub fn owns_address(&self, addr: u64) -> bool {
        match &self.programmed {
            Some(p) => {
                addr >= p.geometry.ephemeral_base
                    && addr < p.geometry.ephemeral_base + p.packed_total().max(1)
            }
            None => false,
        }
    }

    /// Whether a line can be served without disturbing the resident frame —
    /// used to filter CPU-side prefetches that run past a frame boundary.
    pub fn line_is_prefetchable(&self, addr: u64) -> bool {
        let Some(p) = &self.programmed else {
            return false;
        };
        if !self.owns_address(addr) {
            return false;
        }
        let offset = addr - p.geometry.ephemeral_base;
        self.monitor.resident_frame() == Some(p.frame_of(offset))
    }

    /// Serves a CPU cache-line request for ephemeral address `addr`, issued
    /// at `ready`. Returns the time the line's data arrives at the CPU side.
    /// The engine is core-agnostic: all cores share one Trapper (whose
    /// `max_outstanding` limit arbitrates concurrent requests), one
    /// Reorganization Buffer and one resident frame, so cores scanning
    /// different frames of the same variable contend for the buffer.
    ///
    /// # Panics
    /// Panics if the engine has not been configured or the address is
    /// outside the programmed ephemeral range.
    pub fn serve_line(
        &mut self,
        addr: u64,
        ready: SimTime,
        mem: &PhysicalMemory,
        dram: &mut DramModel,
    ) -> SimTime {
        assert!(
            self.owns_address(addr),
            "address 0x{addr:x} is not part of the programmed ephemeral range"
        );
        let (frame, line_in_frame) = {
            let p = self.programmed.as_ref().expect("engine configured");
            let offset = addr - p.geometry.ephemeral_base;
            (
                p.frame_of(offset),
                ((offset % p.frame_bytes()) / self.line_bytes as u64) as usize,
            )
        };

        let (axi, at_pl) = self.trapper.accept(addr, ready);

        // Bring the booking cursor up to the demanded line of the resident
        // frame *before* the lookup classifies it: a line of the resident
        // frame the cursor has not reached yet is a hit whose data is still
        // in flight, booked now at its frozen dispatch anchor.
        if self.monitor.resident_frame() == Some(frame) {
            self.advance_booking(frame, line_in_frame, mem, dram);
        }

        let data_ready_pl = match self.monitor.lookup(frame, line_in_frame) {
            Lookup::Hit(completed_at) => {
                self.stats.buffer_hits += 1;
                completed_at.max(at_pl) + self.spm_access
            }
            Lookup::Miss => {
                self.stats.buffer_misses += 1;
                // Frame turnover (or an empty-tail miss, where all of this
                // is a no-op): settle the outgoing frame's unbooked
                // descriptors before the epoch reset discards them, then
                // activate the new frame and book up to the demand.
                self.finish_frame_remainder(mem, dram);
                if self.monitor.frame_miss(frame) {
                    self.activate_frame(frame, at_pl, dram);
                }
                self.advance_booking(frame, line_in_frame, mem, dram);
                let completed_at = match self.monitor.lookup(frame, line_in_frame) {
                    Lookup::Hit(t) => t,
                    Lookup::Miss => at_pl, // an empty frame tail; nothing to wait for
                };
                completed_at.max(at_pl) + self.spm_access
            }
        };

        self.trapper
            .respond(axi.id, data_ready_pl, self.line_bytes)
            .data_ready
    }

    /// Reads `len` packed bytes at ephemeral-range offset `addr`. Falls back
    /// to packing straight from physical memory when the containing frame is
    /// not resident (e.g. the caches still hold lines of an already evicted
    /// frame).
    pub fn read_packed(&self, addr: u64, len: usize, mem: &PhysicalMemory) -> Vec<u8> {
        let p = self.programmed.as_ref().expect("engine configured");
        let offset = addr - p.geometry.ephemeral_base;
        let frame = p.frame_of(offset);
        if self.monitor.resident_frame() == Some(frame) {
            let in_frame = (offset - frame * p.frame_bytes()) as usize;
            if in_frame + len <= self.monitor.buffer().capacity_bytes()
                && self.lines_complete(frame, in_frame, len)
            {
                return self.monitor.buffer().read_bytes(in_frame, len).to_vec();
            }
        }
        let mut out = vec![0; len];
        self.pack_from_memory(offset, &mut out, mem);
        out
    }

    /// Whether every buffer line covering `len` bytes at frame-local offset
    /// `in_frame` has completed. A line the demand cursor has not reached
    /// yet is still incomplete, and functional reads must fall back to
    /// packing from memory rather than return its half-written bytes.
    fn lines_complete(&self, frame: u64, in_frame: usize, len: usize) -> bool {
        if len == 0 {
            return true;
        }
        let first = in_frame / self.line_bytes;
        let last = (in_frame + len - 1) / self.line_bytes;
        (first..=last).all(|line| matches!(self.monitor.lookup(frame, line), Lookup::Hit(_)))
    }

    /// Reads up to 8 packed bytes at ephemeral address `addr` as a
    /// little-endian unsigned integer, without allocating. This is the hot
    /// functional read used by the query engine's scan loops.
    pub fn read_packed_u64(&self, addr: u64, width: usize, mem: &PhysicalMemory) -> u64 {
        let width = width.min(8);
        let p = self.programmed.as_ref().expect("engine configured");
        let offset = addr - p.geometry.ephemeral_base;
        let frame = p.frame_of(offset);
        let mut buf = [0u8; 8];
        if self.monitor.resident_frame() == Some(frame) {
            let in_frame = (offset - frame * p.frame_bytes()) as usize;
            if in_frame + width <= self.monitor.buffer().capacity_bytes()
                && self.lines_complete(frame, in_frame, width)
            {
                buf[..width].copy_from_slice(self.monitor.buffer().read_bytes(in_frame, width));
                return u64::from_le_bytes(buf);
            }
        }
        self.pack_from_memory(offset, &mut buf[..width], mem);
        u64::from_le_bytes(buf)
    }

    /// Pre-packs `frame` into the Reorganization Buffer with zero timing
    /// cost — the "RME Hot" starting state of the paper's experiments.
    pub fn prewarm_frame(&mut self, frame: u64, mem: &PhysicalMemory) {
        let Some(p) = self.programmed.as_ref() else {
            return;
        };
        // Packs the frame without the Requestor: a prewarm is not a fetch,
        // so it generates nothing.
        let (rows, plan) = (p.frame_rows(frame), &p.plan);
        let packed_row = plan.packed_row_bytes();
        self.progress = None; // prewarm materializes everything at once
        self.monitor.frame_miss(frame);
        let buffer = self.monitor.buffer_mut();
        for i in 0..rows.len() {
            let waddr = i * packed_row;
            pack_row(
                plan.columns(),
                mem.read(plan.row_base(rows.get(i)), plan.reach()),
                &mut buffer.data_mut()[waddr..waddr + packed_row],
            );
        }
        buffer.credit_bytes(0, rows.len() * packed_row, SimTime::ZERO);
        self.finish_partial_tail(rows.len(), packed_row, SimTime::ZERO);
    }

    /// Clears all timing state (resource occupancy, counters) while keeping
    /// the configuration and any resident frame data.
    pub fn reset_timing(&mut self) {
        self.trapper.reset();
        for fu in &mut self.fetch_units {
            fu.reset();
        }
        self.stats = RmeStats::default();
    }

    /// The frame currently resident in the Reorganization Buffer, if any.
    /// Multi-core schedulers use this to keep cores working inside the
    /// resident frame instead of forcing a frame turnover on every access.
    pub fn resident_frame(&self) -> Option<u64> {
        self.monitor.resident_frame()
    }

    /// Full software reset: timing state *and* buffer residency.
    pub fn software_reset(&mut self) {
        self.reset_timing();
        self.monitor.software_reset();
        self.progress = None;
    }

    /// MVCC visibility filtering must inspect the version header of every
    /// source row in the frame's span, including the rows it ends up
    /// skipping. Charged eagerly at frame activation: header inspection is
    /// what *determines* the frame's rows, so it is not demand-elidable.
    /// A header descriptor moves no payload, so only its timing is booked,
    /// round-robin over the Fetch Units.
    fn charge_mvcc_headers(&mut self, rows: &FrameRows, start_pl: SimTime, dram: &mut DramModel) {
        let geometry = &self
            .programmed
            .as_ref()
            .expect("engine configured")
            .geometry;
        if !geometry.needs_visibility_filter() {
            return;
        }
        if let Some((first, last)) = rows.bounds() {
            let span = last - first + 1;
            self.stats.rows_filtered += span - rows.len() as u64;
            let rburst = geometry.mvcc_header_bytes.div_ceil(self.bus_bytes);
            let times = self.fetch_units[0].burst_times(rburst);
            let units = self.fetch_units.len();
            for (k, row) in (first..=last).enumerate() {
                let raddr = geometry.source_base + row * geometry.row_bytes as u64;
                self.fetch_units[k % units].book(
                    start_pl,
                    raddr,
                    rburst * self.bus_bytes,
                    times,
                    dram,
                );
            }
            self.stats.dram_beats += span * rburst as u64;
        }
    }

    /// Books descriptors `cursor.taken()..end` of the activated frame, in
    /// stream order at their frozen anchors, and lands their data in the
    /// Reorganization Buffer.
    ///
    /// Timing: every descriptor goes to the least-loaded Fetch Unit, which
    /// books its Reader slot, DRAM burst, port and pipeline
    /// ([`FetchUnit::book`]). Functional: each source row's columns of the
    /// run are packed from `mem` in one pass, and each line the run touches
    /// is credited once, with its share of the run's bytes at the latest
    /// write time among the descriptors that wrote them. The bytes are
    /// those in memory at this call, when their descriptors are booked.
    fn book_run(
        &mut self,
        progress: &mut FrameProgress,
        end: usize,
        mem: &PhysicalMemory,
        dram: &mut DramModel,
    ) {
        let FrameProgress {
            cursor,
            latest: booked_latest,
            bursts,
            ..
        } = progress;
        let start = cursor.taken();
        if end <= start {
            return;
        }
        let plan = cursor.plan();
        let (columns, packed_row) = (plan.columns(), plan.packed_row_bytes());
        let q = columns.len();
        let (mut k, mut row_idx, mut first) = (start, start / q, start % q);
        let run_start = row_idx * packed_row + columns[first].packed_offset;
        let line_bytes = self.line_bytes;
        let buffer = self.monitor.buffer_mut();

        // The line being credited: its index and end offset, the first of
        // the run's bytes not credited yet, and the latest write time among
        // the line's uncredited bytes.
        let mut line = run_start / line_bytes;
        let mut line_end = (line + 1) * line_bytes;
        let mut credited = run_start;
        let mut line_when = SimTime::ZERO;
        let (mut beats, mut latest, mut run_end) = (0u64, *booked_latest, run_start);
        while k < end {
            let last = q.min(first + end - k);
            let row_base = plan.row_base(cursor.rows().get(row_idx));
            let dispatch_at = cursor.dispatch_at(row_idx);
            let row_bursts = bursts.at(plan, row_base, &self.fetch_units[0]);
            let waddr = row_idx * packed_row;
            for (c, b) in columns[first..last].iter().zip(&row_bursts[first..last]) {
                let unit = least_loaded(&self.fetch_units);
                let written = self.fetch_units[unit].book(
                    dispatch_at,
                    row_base.wrapping_add(b.raddr_offset),
                    b.burst_bytes,
                    b.times,
                    dram,
                );
                beats += b.rburst;
                latest = latest.max(written);
                line_when = line_when.max(written);
                run_end = waddr + c.packed_offset + c.width;
                while run_end >= line_end {
                    buffer.credit(line, line_end - credited, line_when);
                    credited = line_end;
                    line += 1;
                    line_end += line_bytes;
                    line_when = if run_end > credited {
                        written
                    } else {
                        SimTime::ZERO
                    };
                }
            }
            pack_row(
                &columns[first..last],
                mem.read(row_base, plan.reach()),
                &mut buffer.data_mut()[waddr..waddr + packed_row],
            );
            k += last - first;
            row_idx += 1;
            first = 0;
        }
        if credited < run_end {
            buffer.credit(line, run_end - credited, line_when);
        }
        cursor.take_until(end);
        *booked_latest = latest;
        self.stats.dram_beats += beats;
        self.stats.useful_bytes += (run_end - run_start) as u64;
    }

    /// Activates `frame`: charges the eager MVCC header traffic, starts the
    /// Requestor's descriptor cursor with dispatch anchors frozen at
    /// `start_pl`, and books *nothing*: booking follows the demand cursor
    /// through [`advance_booking`](Self::advance_booking), and
    /// [`finish_frame_remainder`](Self::finish_frame_remainder) books the
    /// rest.
    fn activate_frame(&mut self, frame: u64, start_pl: SimTime, dram: &mut DramModel) {
        let p = self.programmed.as_ref().expect("engine configured");
        let cursor = self
            .requestor
            .activate(&p.plan, p.frame_rows(frame), start_pl);
        self.stats.frames_fetched += 1;
        self.charge_mvcc_headers(cursor.rows(), start_pl, dram);
        self.tracer.emit(|| {
            TraceEvent::instant(
                Track::Rme,
                TraceEventKind::FrameActivate,
                start_pl,
                frame,
                0,
            )
        });
        self.progress = Some(FrameProgress {
            frame,
            cursor,
            latest: start_pl,
            bursts: ColumnBursts::default(),
        });
    }

    /// Books descriptors of the activated frame, in stream order at their
    /// frozen anchors, up to the one that completes the demanded line (or
    /// the whole stream, which force-completes the partial tail), as one
    /// run. Prefix-monotone: any demand order books a prefix of the same
    /// descriptor stream at the same anchors.
    fn advance_booking(
        &mut self,
        frame: u64,
        line_in_frame: usize,
        mem: &PhysicalMemory,
        dram: &mut DramModel,
    ) {
        let Some(mut progress) = self.progress.take() else {
            return;
        };
        if progress.frame != frame {
            debug_assert!(false, "frame turnover must settle the old frame first");
            self.progress = Some(progress);
            return;
        }
        let end = progress.descriptors_through_line(line_in_frame, self.line_bytes);
        self.book_run(&mut progress, end, mem, dram);
        if progress.cursor.is_done() {
            // A fully booked frame needs no progress state: drop it,
            // closing its fetch window in the trace.
            self.close_frame(&progress);
        } else {
            self.progress = Some(progress);
        }
    }

    /// Books every remaining descriptor of the activated frame at its
    /// frozen anchor (the frame is being evicted, or the run is ending), so
    /// the frame's total DRAM traffic does not depend on how much of it was
    /// demanded.
    fn finish_frame_remainder(&mut self, mem: &PhysicalMemory, dram: &mut DramModel) {
        let Some(mut progress) = self.progress.take() else {
            return;
        };
        let end = progress.cursor.descriptors();
        self.book_run(&mut progress, end, mem, dram);
        self.close_frame(&progress);
    }

    /// Completes a fully booked frame: force-completes its partial tail
    /// line and emits its fetch window, activation → latest buffer-write
    /// completion.
    fn close_frame(&mut self, progress: &FrameProgress) {
        let rows = progress.cursor.rows().len();
        let packed_row = progress.cursor.plan().packed_row_bytes();
        self.finish_partial_tail(rows, packed_row, progress.latest);
        let lines = (rows * packed_row).div_ceil(self.line_bytes) as u64;
        let (frame, activated, latest) =
            (progress.frame, progress.cursor.activated(), progress.latest);
        self.tracer.emit(|| {
            TraceEvent::span(
                Track::Rme,
                TraceEventKind::FrameFetch,
                activated,
                latest,
                frame,
                lines,
            )
        });
    }

    /// Settles any frame fetch still in flight by booking every remaining
    /// descriptor, so a run's DRAM traffic totals include every frame it
    /// activated even when the run ends mid-frame. Call at the end of a
    /// measured run (and before any timing reset); a no-op when the
    /// resident frame is fully booked.
    pub fn finish_pending_fetch(&mut self, mem: &PhysicalMemory, dram: &mut DramModel) {
        self.finish_frame_remainder(mem, dram);
    }

    /// Kept so callers that still select incremental frame fetching
    /// compile; it is the only fetch mode, so this changes nothing.
    ///
    /// # Panics
    /// Panics if `on` is `false`: the whole-frame synchronous fetch no
    /// longer exists.
    #[doc(hidden)]
    pub fn set_incremental(&mut self, on: bool) {
        assert!(on, "incremental frame fetching is the only fetch mode");
    }

    /// Marks the trailing, partially filled cache line of a frame complete
    /// (it has no more data coming, so a request for it must not stall
    /// forever).
    fn finish_partial_tail(&mut self, rows_in_frame: usize, packed_row: usize, when: SimTime) {
        let frame_packed = rows_in_frame * packed_row;
        if frame_packed == 0 {
            return;
        }
        if !frame_packed.is_multiple_of(self.line_bytes) {
            let tail_line = frame_packed / self.line_bytes;
            self.monitor.buffer_mut().force_complete(tail_line, when);
        }
    }

    /// The programmed projection's per-column source offsets, when every
    /// source row is packed (no MVCC visibility filter): packed row `i` is
    /// then source row `i`, and its column `c` is the `min(width, 8)`-byte
    /// value at `plan.source_address(i, c)` — the functional part of a scan
    /// without the timing.
    pub fn unfiltered_plan(&self) -> Option<&ProjectionPlan> {
        self.programmed
            .as_ref()
            .filter(|p| p.visible_rows.is_none() && !p.geometry.needs_visibility_filter())
            .map(|p| &p.plan)
    }

    /// Frames one period of `shift` covers, if the engine's state can move
    /// by it at all: an unfiltered projection, no frame fetch in flight, and
    /// a shift of whole frames in both address spaces.
    fn frames_per_period(&self, shift: &Shift) -> Option<u64> {
        let p = self.programmed.as_ref()?;
        self.unfiltered_plan()?;
        if self.progress.is_some() {
            return None;
        }
        let frame_bytes = p.frame_bytes();
        let frames = shift.ephemeral / frame_bytes.max(1);
        (frames > 0
            && shift.ephemeral == frames * frame_bytes
            && shift.source == frames * p.rows_per_frame * p.geometry.row_bytes as u64)
            .then_some(frames)
    }

    /// Whether the engine's timing state is `earlier`'s moved by one period
    /// (see [`relmem_sim::shift`]): the same programmed projection, the
    /// Trapper's port and in-flight responses, the Fetch Units' reader
    /// slots, ports and pipelines, and the Monitor's resident frame (whole
    /// frames further on) with its per-line completion times. An MVCC
    /// visibility filter, a frame fetch still in flight or a shift that is
    /// not a whole number of frames all answer `false`.
    pub fn same_up_to_shift(&self, earlier: &RmeEngine, shift: &Shift) -> bool {
        let Some(frames) = self.frames_per_period(shift) else {
            return false;
        };
        let same_programming = match (&self.programmed, &earlier.programmed) {
            (Some(p), Some(e)) => p.plan == e.plan && p.rows_per_frame == e.rows_per_frame,
            _ => false,
        };
        same_programming
            && earlier.progress.is_none()
            && self.trapper.same_up_to_shift(&earlier.trapper, shift)
            && same_units_up_to_shift(&self.fetch_units, &earlier.fetch_units, shift)
            && self
                .monitor
                .same_up_to_shift(&earlier.monitor, shift, frames)
    }

    /// Moves the engine's timing state forward by `periods` periods and
    /// advances every counter by its increment since `earlier`. The
    /// Reorganization Buffer keeps the bytes of the last frame really
    /// fetched; the next frame turnover overwrites them. Call only after
    /// [`same_up_to_shift`](Self::same_up_to_shift) held.
    pub fn shift(&mut self, earlier: &RmeEngine, shift: &Shift, periods: u64) {
        let frames = self.frames_per_period(shift).unwrap_or(0);
        self.trapper.shift(&earlier.trapper, shift, periods);
        for unit in &mut self.fetch_units {
            unit.shift(shift, periods);
        }
        self.requestor.extrapolate(&earlier.requestor, periods);
        self.monitor.shift(&earlier.monitor, shift, frames, periods);
        self.stats.extrapolate(&earlier.stats, periods);
    }

    /// Largest frame the Reorganization Buffer can currently hold, in
    /// packed rows.
    pub fn rows_per_frame(&self) -> Option<u64> {
        self.programmed.as_ref().map(|p| p.rows_per_frame)
    }

    /// Fills `out` with the packed bytes at projection offset `offset`,
    /// straight from the row-major image in `mem`; bytes past the end of
    /// the projection read as zero.
    fn pack_from_memory(&self, offset: u64, out: &mut [u8], mem: &PhysicalMemory) {
        let p = self.programmed.as_ref().expect("engine configured");
        let packed_row = p.packed_row_bytes() as u64;
        let mut pos = 0;
        while pos < out.len() {
            let at = offset + pos as u64;
            let packed_idx = at / packed_row;
            if packed_idx >= p.visible_count() {
                out[pos..].fill(0);
                return;
            }
            // Copy the rest of the column of interest the byte belongs to.
            let within = (at % packed_row) as usize;
            let column = p
                .plan
                .columns()
                .iter()
                .find(|c| within < c.packed_offset + c.width)
                .expect("a packed row is covered by its columns");
            let skip = within - column.packed_offset;
            let n = (column.width - skip).min(out.len() - pos);
            let src = p.plan.source_address(p.source_row(packed_idx), column) + skip as u64;
            mem.read_into(src, &mut out[pos..pos + n]);
            pos += n;
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Descriptor;
    use crate::geometry::ColumnSpec;
    use proptest::prelude::*;
    use relmem_sim::{MemoryModel, PlatformConfig};
    use relmem_storage::{ColumnGroup, DataGen, MvccConfig, RowTable, Schema, Snapshot};

    /// The per-descriptor booking the engine's runs are held to: the demand
    /// cursor takes one descriptor at a time from the stream until the
    /// Monitor reports the demanded line complete, each descriptor goes to
    /// the least-loaded unit's [`FetchUnit::process`], and its chunk lands
    /// through [`ReorganizationBuffer::write_chunk`](crate::reorg_buffer::ReorganizationBuffer).
    impl RmeEngine {
        fn serve_line_per_descriptor(
            &mut self,
            addr: u64,
            ready: SimTime,
            mem: &PhysicalMemory,
            dram: &mut DramModel,
        ) -> SimTime {
            let (frame, line) = {
                let p = self.programmed.as_ref().expect("engine configured");
                let offset = addr - p.geometry.ephemeral_base;
                let in_frame = offset % p.frame_bytes();
                (
                    p.frame_of(offset),
                    (in_frame / self.line_bytes as u64) as usize,
                )
            };
            let (axi, at_pl) = self.trapper.accept(addr, ready);
            if self.monitor.resident_frame() == Some(frame) {
                self.book_per_descriptor(Some((frame, line)), mem, dram);
            }
            let data_ready_pl = match self.monitor.lookup(frame, line) {
                Lookup::Hit(completed_at) => {
                    self.stats.buffer_hits += 1;
                    completed_at.max(at_pl) + self.spm_access
                }
                Lookup::Miss => {
                    self.stats.buffer_misses += 1;
                    self.book_per_descriptor(None, mem, dram);
                    if self.monitor.frame_miss(frame) {
                        self.activate_frame_per_descriptor(frame, at_pl, mem, dram);
                    }
                    self.book_per_descriptor(Some((frame, line)), mem, dram);
                    let completed_at = match self.monitor.lookup(frame, line) {
                        Lookup::Hit(t) => t,
                        Lookup::Miss => at_pl,
                    };
                    completed_at.max(at_pl) + self.spm_access
                }
            };
            self.trapper
                .respond(axi.id, data_ready_pl, self.line_bytes)
                .data_ready
        }

        /// Activation with every MVCC header read through `process`.
        fn activate_frame_per_descriptor(
            &mut self,
            frame: u64,
            start_pl: SimTime,
            mem: &PhysicalMemory,
            dram: &mut DramModel,
        ) {
            let p = self.programmed.as_ref().expect("engine configured");
            let cursor = self
                .requestor
                .activate(&p.plan, p.frame_rows(frame), start_pl);
            self.stats.frames_fetched += 1;
            let g = &p.geometry;
            if let Some((first, last)) = cursor.rows().bounds() {
                if g.needs_visibility_filter() {
                    self.stats.rows_filtered += last - first + 1 - cursor.rows().len() as u64;
                    let units = self.fetch_units.len();
                    for (k, row) in (first..=last).enumerate() {
                        let header = Descriptor {
                            row,
                            column: 0,
                            raddr: g.source_base + row * g.row_bytes as u64,
                            rburst: g.mvcc_header_bytes.div_ceil(self.bus_bytes),
                            waddr: 0,
                            es: 0,
                            len: 0,
                        };
                        let chunk = self.fetch_units[k % units].process(
                            &header,
                            start_pl,
                            mem,
                            dram,
                            self.bus_bytes,
                        );
                        self.stats.dram_beats += chunk.beats as u64;
                    }
                }
            }
            self.progress = Some(FrameProgress {
                frame,
                cursor,
                latest: start_pl,
                bursts: ColumnBursts::default(),
            });
        }

        /// Books descriptors one at a time until the demanded `(frame,
        /// line)` completes, or all of them when there is no demand.
        fn book_per_descriptor(
            &mut self,
            demand: Option<(u64, usize)>,
            mem: &PhysicalMemory,
            dram: &mut DramModel,
        ) {
            let Some(mut progress) = self.progress.take() else {
                return;
            };
            if let Some((frame, _)) = demand {
                assert_eq!(
                    progress.frame, frame,
                    "turnover settles the old frame first"
                );
            }
            while demand.is_none_or(|(f, line)| self.monitor.lookup(f, line) == Lookup::Miss) {
                let Some(d) = progress.cursor.next() else {
                    break;
                };
                let unit = least_loaded(&self.fetch_units);
                let chunk = self.fetch_units[unit].process(
                    &d.descriptor,
                    d.dispatch_at,
                    mem,
                    dram,
                    self.bus_bytes,
                );
                self.stats.dram_beats += chunk.beats as u64;
                self.stats.useful_bytes += chunk.data.len() as u64;
                self.monitor.buffer_mut().write_chunk(
                    d.descriptor.waddr as usize,
                    chunk.data,
                    chunk.written_at,
                );
                progress.latest = progress.latest.max(chunk.written_at);
            }
            if progress.cursor.is_done() {
                self.close_frame(&progress);
            } else {
                self.progress = Some(progress);
            }
        }

        /// A prewarm that writes every descriptor's bytes as its own chunk.
        fn prewarm_frame_per_descriptor(&mut self, frame: u64, mem: &PhysicalMemory) {
            let p = self.programmed.as_ref().expect("engine configured");
            let cursor = DescriptorCursor::new(
                p.plan.clone(),
                p.frame_rows(frame),
                SimTime::ZERO,
                SimTime::ZERO,
            );
            let (rows, packed_row) = (cursor.rows().len(), p.packed_row_bytes());
            self.progress = None;
            self.monitor.frame_miss(frame);
            for d in cursor {
                let d = d.descriptor;
                let bytes = mem.read(d.raddr + d.es as u64, d.len);
                self.monitor
                    .buffer_mut()
                    .write_chunk(d.waddr as usize, bytes, SimTime::ZERO);
            }
            self.finish_partial_tail(rows, packed_row, SimTime::ZERO);
        }

        /// Everything the two bookings must agree on.
        #[allow(clippy::type_complexity)]
        fn booking_state(
            &self,
        ) -> (
            RmeStats,
            Vec<(u64, u32, SimTime)>,
            Vec<u8>,
            Vec<(Vec<SimTime>, usize, SimTime, SimTime)>,
            Option<(u64, usize, SimTime)>,
        ) {
            let buffer = self.monitor.buffer();
            (
                self.stats(),
                buffer.metadata(),
                buffer.read_bytes(0, buffer.capacity_bytes()).to_vec(),
                self.fetch_units.iter().map(FetchUnit::state).collect(),
                self.progress
                    .as_ref()
                    .map(|p| (p.frame, p.cursor.taken(), p.latest)),
            )
        }
    }

    struct Fixture {
        mem: PhysicalMemory,
        dram: DramModel,
        table: RowTable,
        engine: RmeEngine,
        ephemeral_base: u64,
    }

    fn fixture(rows: u64, revision: HwRevision, mvcc: MvccConfig) -> Fixture {
        let cfg = PlatformConfig::zcu102();
        let mut mem = PhysicalMemory::new(32 << 20);
        let schema = Schema::benchmark(8, 4, 64);
        let mut table = RowTable::create(&mut mem, schema, rows, mvcc).unwrap();
        DataGen::new(11)
            .fill_table(&mut mem, &mut table, rows)
            .unwrap();
        let dram = DramModel::new(cfg.dram);
        let engine = RmeEngine::new(cfg.rme, cfg.cdc, revision, cfg.dram.bus_bytes, 64);
        let ephemeral_base = 16 << 20;
        Fixture {
            mem,
            dram,
            table,
            engine,
            ephemeral_base,
        }
    }

    fn configure(f: &mut Fixture, cols: Vec<usize>, snapshot: Option<Snapshot>) {
        let group = ColumnGroup::new(cols).unwrap();
        let visible = snapshot.map(|snap| {
            (0..f.table.num_rows())
                .filter(|&r| f.table.visible(&f.mem, r, snap).unwrap())
                .collect::<Vec<_>>()
        });
        let geometry = TableGeometry::from_schema(
            f.table.schema(),
            &group,
            f.table.base_addr(),
            f.ephemeral_base,
            f.table.num_rows(),
            f.table.mvcc(),
            snapshot,
        )
        .unwrap();
        f.engine.configure(geometry, visible).unwrap();
    }

    /// Reference projection computed in software, for comparison.
    fn reference_packed(f: &Fixture, cols: &[usize], snapshot: Option<Snapshot>) -> Vec<u8> {
        let group = ColumnGroup::new(cols.to_vec()).unwrap();
        let mut out = Vec::new();
        for row in 0..f.table.num_rows() {
            if let Some(snap) = snapshot {
                if !f.table.visible(&f.mem, row, snap).unwrap() {
                    continue;
                }
            }
            let row_bytes = f
                .mem
                .read(f.table.row_data_addr(row), f.table.schema().row_bytes())
                .to_vec();
            out.extend(group.pack_row(f.table.schema(), &row_bytes).unwrap());
        }
        out
    }

    #[test]
    fn packed_data_matches_software_projection() {
        let mut f = fixture(300, HwRevision::Mlp, MvccConfig::Disabled);
        configure(&mut f, vec![1, 3, 6], None);
        // Drive the timing path so the frame gets fetched, then read back.
        let total = f.engine.packed_total_bytes();
        let mut now = SimTime::ZERO;
        let mut line = 0;
        while line < total {
            now = f
                .engine
                .serve_line(f.ephemeral_base + line, now, &f.mem, &mut f.dram);
            line += 64;
        }
        let packed = f
            .engine
            .read_packed(f.ephemeral_base, total as usize, &f.mem);
        assert_eq!(packed, reference_packed(&f, &[1, 3, 6], None));
        let stats = f.engine.stats();
        assert_eq!(stats.frames_fetched, 1);
        assert!(stats.useful_bytes >= total);
        assert!(stats.buffer_hits + stats.buffer_misses >= total / 64);
    }

    #[test]
    fn hot_requests_are_served_faster_than_cold() {
        let mut f = fixture(2_000, HwRevision::Mlp, MvccConfig::Disabled);
        configure(&mut f, vec![0], None);
        let total = f.engine.packed_total_bytes();

        // Cold pass.
        let mut now = SimTime::ZERO;
        let mut addr = f.ephemeral_base;
        while addr < f.ephemeral_base + total {
            now = f.engine.serve_line(addr, now, &f.mem, &mut f.dram);
            addr += 64;
        }
        let cold = now;

        // Hot pass: prewarmed buffer, fresh timing state.
        let mut f2 = fixture(2_000, HwRevision::Mlp, MvccConfig::Disabled);
        configure(&mut f2, vec![0], None);
        f2.engine.prewarm_frame(0, &f2.mem);
        f2.engine.reset_timing();
        let mut now = SimTime::ZERO;
        let mut addr = f2.ephemeral_base;
        while addr < f2.ephemeral_base + total {
            now = f2.engine.serve_line(addr, now, &f2.mem, &mut f2.dram);
            addr += 64;
        }
        let hot = now;
        assert!(hot < cold, "hot ({hot}) must be faster than cold ({cold})");
        assert_eq!(f2.engine.stats().buffer_misses, 0);
    }

    #[test]
    fn mlp_fetches_a_frame_faster_than_bsl() {
        let run = |rev: HwRevision| {
            let mut f = fixture(4_000, rev, MvccConfig::Disabled);
            configure(&mut f, vec![0], None);
            let total = f.engine.packed_total_bytes();
            let mut now = SimTime::ZERO;
            let mut addr = f.ephemeral_base;
            while addr < f.ephemeral_base + total {
                now = f.engine.serve_line(addr, now, &f.mem, &mut f.dram);
                addr += 64;
            }
            now
        };
        let bsl = run(HwRevision::Bsl);
        let pck = run(HwRevision::Pck);
        let mlp = run(HwRevision::Mlp);
        assert!(pck < bsl);
        assert!(
            mlp.as_nanos_f64() < 0.3 * bsl.as_nanos_f64(),
            "mlp {mlp} vs bsl {bsl}"
        );
    }

    #[test]
    fn multi_frame_tables_reset_the_epoch_between_frames() {
        let mut f = fixture(3_000, HwRevision::Mlp, MvccConfig::Disabled);
        // Shrink the SPM so a frame holds only 1024 packed rows (4 KiB).
        let mut hw = *f.engine.hw_config();
        hw.data_spm_bytes = 4 * 1024;
        let cfg = PlatformConfig::zcu102();
        f.engine = RmeEngine::new(hw, cfg.cdc, HwRevision::Mlp, cfg.dram.bus_bytes, 64);
        configure(&mut f, vec![0], None);

        let total = f.engine.packed_total_bytes();
        let mut now = SimTime::ZERO;
        let mut addr = f.ephemeral_base;
        let mut packed = Vec::new();
        while addr < f.ephemeral_base + total {
            now = f.engine.serve_line(addr, now, &f.mem, &mut f.dram);
            let len = 64.min((f.ephemeral_base + total - addr) as usize);
            packed.extend(f.engine.read_packed(addr, len, &f.mem));
            addr += 64;
        }
        assert_eq!(packed, reference_packed(&f, &[0], None));
        let stats = f.engine.stats();
        assert_eq!(stats.frames_fetched, 3); // 3000 rows / 1024 rows per frame
                                             // Two frame turnovers, plus the reset performed at configuration.
        assert_eq!(stats.epoch_resets, 3);
    }

    #[test]
    fn mvcc_snapshot_filters_rows_during_packing() {
        let mut f = fixture(200, HwRevision::Mlp, MvccConfig::Enabled);
        // Delete every third row at ts 5; snapshot at ts 10 must skip them.
        for row in (0..200).step_by(3) {
            f.table.mark_deleted(&mut f.mem, row, 5).unwrap();
        }
        let snapshot = Some(Snapshot::at(10));
        configure(&mut f, vec![1, 2], snapshot);
        let total = f.engine.packed_total_bytes();
        assert_eq!(total, (200 - 67) * 8); // 67 rows deleted, 2×4-byte columns

        let mut now = SimTime::ZERO;
        let mut addr = f.ephemeral_base;
        while addr < f.ephemeral_base + total {
            now = f.engine.serve_line(addr, now, &f.mem, &mut f.dram);
            addr += 64;
        }
        let packed = f
            .engine
            .read_packed(f.ephemeral_base, total as usize, &f.mem);
        assert_eq!(packed, reference_packed(&f, &[1, 2], snapshot));
        assert!(f.engine.stats().rows_filtered > 0);

        // An earlier snapshot (before the deletes) sees every row.
        let old_snapshot = Some(Snapshot::at(4));
        configure(&mut f, vec![1, 2], old_snapshot);
        assert_eq!(f.engine.packed_total_bytes(), 200 * 8);
    }

    #[test]
    fn prefetchability_is_limited_to_the_resident_frame() {
        let mut f = fixture(100, HwRevision::Mlp, MvccConfig::Disabled);
        configure(&mut f, vec![0], None);
        assert!(!f.engine.line_is_prefetchable(f.ephemeral_base));
        let _ = f
            .engine
            .serve_line(f.ephemeral_base, SimTime::ZERO, &f.mem, &mut f.dram);
        assert!(f.engine.line_is_prefetchable(f.ephemeral_base + 64));
        assert!(!f.engine.line_is_prefetchable(0xDEAD_0000));
    }

    #[test]
    fn configuration_rejects_geometry_beyond_engine_limits() {
        let mut f = fixture(10, HwRevision::Mlp, MvccConfig::Disabled);
        let schema = Schema::benchmark(12, 4, 64);
        let group = ColumnGroup::all(&schema);
        let geometry = TableGeometry::from_schema(
            &schema,
            &group,
            f.table.base_addr(),
            f.ephemeral_base,
            10,
            MvccConfig::Disabled,
            None,
        )
        .unwrap();
        // 13 columns (12 data + filler) exceed the 11-column limit.
        assert!(f.engine.configure(geometry, None).is_err());
    }

    /// The packed bytes a scan reads back, line by line through the
    /// Reorganization Buffer, are the projection packed straight from the
    /// row-major image — across frame turnovers, and under MVCC filtering.
    #[test]
    fn scanned_frames_hold_what_memory_packs() {
        for mvcc in [MvccConfig::Disabled, MvccConfig::Enabled] {
            let mut f = fixture(3_000, HwRevision::Mlp, mvcc);
            // A 4 KiB Data SPM holds 512 packed rows: six frames.
            let mut hw = *f.engine.hw_config();
            hw.data_spm_bytes = 4 * 1024;
            let cfg = PlatformConfig::zcu102();
            f.engine = RmeEngine::new(hw, cfg.cdc, HwRevision::Mlp, cfg.dram.bus_bytes, 64);
            let snapshot = (mvcc == MvccConfig::Enabled).then(|| {
                for row in (0..3_000).step_by(3) {
                    f.table.mark_deleted(&mut f.mem, row, 5).unwrap();
                }
                Snapshot::at(10)
            });
            configure(&mut f, vec![0, 2], snapshot);
            let total = f.engine.packed_total_bytes();
            let mut now = SimTime::ZERO;
            let mut packed = Vec::new();
            for offset in (0..total).step_by(64) {
                let addr = f.ephemeral_base + offset;
                now = f.engine.serve_line(addr, now, &f.mem, &mut f.dram);
                let len = 64.min(total - offset) as usize;
                packed.extend(f.engine.read_packed(addr, len, &f.mem));
            }
            assert!(
                f.engine.stats().frames_fetched > 1,
                "the scan must turn frames over"
            );
            let mut expected = vec![0; packed.len()];
            f.engine.pack_from_memory(0, &mut expected, &f.mem);
            assert_eq!(packed, expected);
        }
    }

    /// A fetch abandoned a quarter into the frame books less traffic up
    /// front, but `finish_pending_fetch` settles it to the frame's full
    /// descriptor and beat count — what a scan of the whole frame books.
    /// Whole-system runs rely on this at measurement end.
    #[test]
    fn an_abandoned_fetch_settles_to_the_whole_frame() {
        let run = |fraction: u64| {
            let mut f = fixture(2_000, HwRevision::Mlp, MvccConfig::Disabled);
            configure(&mut f, vec![0], None);
            let total = f.engine.packed_total_bytes() / fraction;
            let mut now = SimTime::ZERO;
            let mut addr = f.ephemeral_base;
            while addr < f.ephemeral_base + total {
                now = f.engine.serve_line(addr, now, &f.mem, &mut f.dram);
                addr += 64;
            }
            let booked_early = f.dram.stats().accesses;
            f.engine.finish_pending_fetch(&f.mem, &mut f.dram);
            (booked_early, f.dram.stats().accesses, f.engine.stats())
        };
        let (early, abandoned_total, abandoned) = run(4);
        let (_, whole_total, whole) = run(1);
        assert!(
            early < whole_total,
            "booking follows demand ({early} vs {whole_total})"
        );
        assert_eq!(
            abandoned_total, whole_total,
            "settled traffic totals must match"
        );
        assert_eq!(abandoned.frames_fetched, 1);
        assert_eq!(abandoned.descriptors, whole.descriptors);
        assert_eq!(abandoned.dram_beats, whole.dram_beats);
    }

    /// Functional reads never observe a half-fetched line: bytes the demand
    /// cursor has not reached come from the memory-packing fallback and are
    /// still correct.
    #[test]
    fn reads_ahead_of_the_cursor_stay_correct() {
        let mut f = fixture(500, HwRevision::Mlp, MvccConfig::Disabled);
        configure(&mut f, vec![1, 3], None);
        let total = f.engine.packed_total_bytes();
        // Demand exactly one line, leaving the rest of the frame unbooked.
        let _ = f
            .engine
            .serve_line(f.ephemeral_base, SimTime::ZERO, &f.mem, &mut f.dram);
        let packed = f
            .engine
            .read_packed(f.ephemeral_base, total as usize, &f.mem);
        assert_eq!(packed, reference_packed(&f, &[1, 3], None));
    }

    /// With nothing fetched, every `read_packed_u64` packs straight from
    /// memory: reads that straddle columns, rows and skipped MVCC rows
    /// match the software projection, and bytes past its end read as zero.
    #[test]
    fn packed_u64_reads_fall_back_to_memory_exactly() {
        let mut f = fixture(60, HwRevision::Mlp, MvccConfig::Enabled);
        for row in (0..60).step_by(4) {
            f.table.mark_deleted(&mut f.mem, row, 5).unwrap();
        }
        let snapshot = Some(Snapshot::at(10));
        configure(&mut f, vec![0, 3, 5], snapshot);
        let mut reference = reference_packed(&f, &[0, 3, 5], snapshot);
        let total = reference.len();
        reference.resize(total + 12, 0);
        for offset in 0..total + 4 {
            for width in 1..=8 {
                let mut want = [0u8; 8];
                want[..width].copy_from_slice(&reference[offset..offset + width]);
                let addr = f.ephemeral_base + offset as u64;
                assert_eq!(
                    f.engine.read_packed_u64(addr, width, &f.mem),
                    u64::from_le_bytes(want),
                    "offset {offset} width {width}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not part of the programmed ephemeral range")]
    fn serving_an_unowned_address_panics() {
        let mut f = fixture(10, HwRevision::Mlp, MvccConfig::Disabled);
        configure(&mut f, vec![0], None);
        let _ = f
            .engine
            .serve_line(0x10, SimTime::ZERO, &f.mem, &mut f.dram);
    }

    /// A source row rewritten between two bookings of one frame: each
    /// packed row holds the bytes in memory when its descriptors were
    /// booked, so the row booked before the write keeps its old bytes and
    /// the row booked after it has the new ones.
    #[test]
    fn packing_takes_the_bytes_present_at_booking() {
        let mut f = fixture(200, HwRevision::Mlp, MvccConfig::Disabled);
        configure(&mut f, vec![1, 3], None);
        let packed_row = 8u64;
        let row_addr = |f: &Fixture, row: u64| f.table.field_addr(row, 1).unwrap();
        let old_first = f.mem.read(row_addr(&f, 0), 4).to_vec();
        // Demand line 0: packed rows 0..8 are booked.
        let _ = f
            .engine
            .serve_line(f.ephemeral_base, SimTime::ZERO, &f.mem, &mut f.dram);
        let late_row = 20; // on line 2, not booked yet
        for row in [0, late_row] {
            let addr = row_addr(&f, row);
            f.mem.write(addr, &[0xAB; 4]);
        }
        let late = f.ephemeral_base + late_row * packed_row;
        let _ = f
            .engine
            .serve_line(late / 64 * 64, SimTime::ZERO, &f.mem, &mut f.dram);
        assert_eq!(f.engine.resident_frame(), Some(0));
        assert_eq!(f.engine.read_packed(f.ephemeral_base, 4, &f.mem), old_first);
        assert_eq!(f.engine.read_packed(late, 4, &f.mem), [0xAB; 4]);
    }

    /// A synthetic table for the booking proptest: `rows` rows of
    /// `row_bytes` pseudo-random bytes starting `offset` bytes past a
    /// line-aligned base.
    fn synthetic_memory(
        rows: u64,
        row_bytes: usize,
        offset: u64,
        seed: u64,
    ) -> (PhysicalMemory, u64) {
        let bytes = rows as usize * row_bytes;
        let mut mem = PhysicalMemory::new(bytes + 4096);
        let base = mem.alloc(bytes + 256, 64) + offset;
        let mut x = seed | 1;
        let data: Vec<u8> = (0..bytes)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        mem.write(base, &data);
        (mem, base)
    }

    proptest! {
        /// Booking a run of descriptors per call leaves exactly the state
        /// booking them one at a time leaves — every serve time, per-line
        /// completion, Data SPM byte, counter, fetch-unit slot and DRAM
        /// statistic — over random geometries (1–8 B columns, beat-straddling
        /// offsets, packed rows that do not divide a line), MVCC
        /// visible-row frames, hardware revisions, both DRAM models, an
        /// optional prewarm, and demand orders with skips, backward
        /// requests, frame turnovers and settled fetches.
        #[test]
        fn bulk_booking_equals_per_descriptor_booking(
            specs in proptest::collection::vec((1usize..=8, 0usize..24), 1..5),
            slack in 0usize..20,
            offset in 0u64..64,
            rows in 1u64..300,
            spm_lines in 1usize..24,
            mvcc in any::<bool>(),
            keep in proptest::collection::vec(any::<bool>(), 300),
            revision in 0usize..3,
            units in 1usize..=4,
            cycle_accurate in any::<bool>(),
            prewarm in any::<bool>(),
            seed in any::<u64>(),
            ops in proptest::collection::vec((0u8..8, any::<u64>(), 0u64..400), 1..60),
        ) {
            let header = if mvcc { 8 } else { 0 };
            let mut columns: Vec<ColumnSpec> = specs
                .iter()
                .map(|&(width, oa_delta)| ColumnSpec { width, oa_delta })
                .collect();
            columns[0].oa_delta += header;
            let reach: usize = specs.iter().map(|&(_, oa)| oa).sum::<usize>()
                + header
                + specs.last().map(|&(w, _)| w).unwrap_or(0);
            let row_bytes = reach + slack;
            let (mem, source_base) = synthetic_memory(rows, row_bytes, offset, seed);
            let geometry = TableGeometry {
                row_bytes,
                row_count: rows,
                columns,
                source_base,
                ephemeral_base: 1 << 30,
                mvcc_header_bytes: header,
                snapshot: mvcc.then(|| Snapshot::at(1)),
            };
            let visible = mvcc.then(|| (0..rows).filter(|&r| keep[r as usize]).collect::<Vec<_>>());

            let mut cfg = PlatformConfig::zcu102();
            if cycle_accurate {
                cfg.dram.model = MemoryModel::CycleAccurate;
            }
            let packed_row = geometry.packed_row_bytes();
            let hw = RmeHwConfig {
                data_spm_bytes: 64 * spm_lines.max(packed_row),
                fetch_units: units,
                ..cfg.rme
            };
            let revision = [HwRevision::Bsl, HwRevision::Pck, HwRevision::Mlp][revision];
            let mut bulk = RmeEngine::new(hw, cfg.cdc, revision, cfg.dram.bus_bytes, 64);
            bulk.configure(geometry, visible).unwrap();
            let mut reference = bulk.clone();
            let (mut dram_bulk, mut dram_reference) = (DramModel::new(cfg.dram), DramModel::new(cfg.dram));
            if prewarm {
                bulk.prewarm_frame(0, &mem);
                reference.prewarm_frame_per_descriptor(0, &mem);
                prop_assert_eq!(bulk.booking_state(), reference.booking_state());
            }

            let lines = bulk.packed_total_bytes().div_ceil(64).max(1);
            let mut ready = SimTime::ZERO;
            for &(kind, pick, gap) in &ops {
                if kind == 0 {
                    bulk.finish_pending_fetch(&mem, &mut dram_bulk);
                    reference.book_per_descriptor(None, &mem, &mut dram_reference);
                } else {
                    ready += SimTime::from_nanos(gap);
                    let addr = (1 << 30) + (pick % lines) * 64;
                    let got = bulk.serve_line(addr, ready, &mem, &mut dram_bulk);
                    let want = reference.serve_line_per_descriptor(addr, ready, &mem, &mut dram_reference);
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(bulk.booking_state(), reference.booking_state());
                prop_assert_eq!(dram_bulk.stats(), dram_reference.stats());
            }
            bulk.finish_pending_fetch(&mem, &mut dram_bulk);
            reference.book_per_descriptor(None, &mem, &mut dram_reference);
            prop_assert_eq!(bulk.booking_state(), reference.booking_state());
            prop_assert_eq!(dram_bulk.stats(), dram_reference.stats());
        }
    }
}
