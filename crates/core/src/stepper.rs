//! The reusable per-core scan stepper.
//!
//! [`ScanJob`] is the body of every scan: it captures the per-scan
//! precomputation (column cursors, MVCC snapshot, per-row CPU charge, line
//! plans) once, and [`ScanJob::step_rows`] then steps any range of rows on
//! any core. The crate's interleaver calls it with the rows a lane runs
//! while it keeps the pick: up to the runner-up lane's clock beside live
//! rivals (one row per pick beside a second ephemeral lane, or in the
//! reference stepping mode), and all the remaining rows once the lane is
//! alone ([`System::scan`] is a lane that is alone from its first row).
//! Row and ephemeral layouts share one field walk (`walk_fields`), generic
//! over the memory backend and the value reader, and the reference
//! stepping mode is a line plan of per-field steps, not a separate walk.
//! Columnar scans step one line block at a time: the rows up to the first
//! row where some column's cursor crosses a line boundary. Once a row of
//! the block was all L1 hits, its later rows re-touch the same resident
//! lines in the same order and are booked as L1 hits
//! ([`CoreFrontend::replay_l1_hits`]) until the block ends or a row's
//! effect touches memory. The cross-path equivalence proptests hold the
//! optimized stepping to the reference stepping mode on every entry point.
//!
//! [`Parts`] is the split-borrow view of the [`System`] a step works on:
//! the per-core frontends, the shared L2, the DRAM controller, physical
//! memory and the RME, borrowed simultaneously.

use std::ops::Range;

use relmem_cache::{CoreFrontend, HitLevel, MemoryBackend, SharedL2};
use relmem_dram::{DramModel, PhysicalMemory};
use relmem_rme::RmeEngine;
use relmem_sim::{PlatformConfig, SimTime};
use relmem_storage::{RowTable, Snapshot};

use crate::cost::CpuCostModel;
use crate::system::{DramBackend, RmeBackend, RowEffect, ScanSource, System};

/// Split-borrow view of a [`System`] for one scheduler step.
pub(crate) struct Parts<'a> {
    pub cores: &'a mut [CoreFrontend],
    pub l2: &'a mut SharedL2,
    pub dram: &'a mut DramModel,
    pub mem: &'a mut PhysicalMemory,
    pub engine: &'a mut RmeEngine,
    pub line_bytes: usize,
}

impl System {
    /// Captures the per-scan constants of `source` under this system's
    /// cost model, line size and stepping mode.
    pub(crate) fn scan_job<'a>(&self, source: &ScanSource<'a>) -> ScanJob<'a> {
        ScanJob::new(
            source,
            &self.cost,
            &self.engine,
            self.cfg.l1.line_bytes,
            !self.reference_stepping,
        )
    }

    /// Splits the platform into the borrows one scheduler step needs.
    pub(crate) fn parts(&mut self) -> Parts<'_> {
        Parts {
            cores: &mut self.cores,
            l2: &mut self.l2,
            dram: &mut self.dram,
            mem: &mut self.mem,
            engine: &mut self.engine,
            line_bytes: self.cfg.l1.line_bytes,
        }
    }
}

/// The per-scan precomputation of one [`ScanSource`], ready to step any
/// row on any core.
pub(crate) struct ScanJob<'a> {
    kind: JobKind<'a>,
    rows: u64,
    row_cpu: SimTime,
    num_columns: usize,
}

enum JobKind<'a> {
    Rows {
        table: &'a RowTable,
        /// (offset within the physical row, width) per projected column,
        /// with the MVCC header folded into the offset.
        cursors: Vec<(u64, usize)>,
        base: u64,
        stride: u64,
        snapshot: Option<Snapshot>,
        visibility_cpu: SimTime,
        /// Line-granular step schedule, one plan per row-base alignment.
        plans: Vec<LinePlan>,
    },
    Columnar {
        /// (column array base, width) per projected column.
        cursors: Vec<(u64, usize)>,
        /// Whether rows replay line blocks (off in the reference stepping
        /// mode, which walks every field).
        batched: bool,
    },
    Ephemeral {
        /// (offset within the packed row, width) per packed column.
        cursors: Vec<(u64, usize)>,
        base: u64,
        stride: u64,
        /// Packed rows per Reorganization-Buffer frame (for frame-aware
        /// scheduling; `u64::MAX` when the engine holds no configuration).
        frame_rows: u64,
        /// Line-granular step schedule (see [`JobKind::Rows`]).
        plans: Vec<LinePlan>,
    },
}

/// The line-granular schedule of one row's field accesses, valid for every
/// row whose base shares this plan's alignment within a cache line.
///
/// A row's cursors are fixed offsets off its base address, so which fields
/// share a line — and which straddle one — depends only on
/// `row_base % line_bytes`. That alignment cycles with period
/// `line_bytes / gcd(stride, line_bytes)` rows (at most `line_bytes`), so
/// a scan precomputes one plan per alignment and the hot loop replays
/// [`PlanStep`]s: maximal runs of consecutive same-line fields become one
/// [`CoreFrontend::access_run`] (one tag walk / MRU update / prefetcher
/// event / backend booking per *line*, per-field cost replayed
/// arithmetically inside), and line-straddling fields keep the full
/// per-field access. Step order equals slot order, so the access sequence
/// the cache hierarchy observes is exactly the per-field sequence.
struct LinePlan {
    /// `row_base % line_bytes` for rows this plan covers; the aligned
    /// line base is `row_base - align`.
    align: u64,
    steps: Vec<PlanStep>,
}

enum PlanStep {
    /// `fields` consecutive cursors starting at slot `first_slot`, all
    /// resident in the line `rel_line` bytes past the row's aligned base.
    Run {
        rel_line: u64,
        fields: u32,
        first_slot: u32,
    },
    /// A cursor straddling a line boundary, or any cursor in the reference
    /// stepping mode: full per-field access.
    Field { slot: u32 },
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Builds the per-alignment [`LinePlan`]s for cursors relative to a
/// `base`/`stride` row layout. `line_bytes` is a power of two. Without
/// `batched` (the reference stepping mode) there is one plan and every
/// field is its own [`PlanStep::Field`].
fn build_plans(
    cursors: &[(u64, usize)],
    base: u64,
    stride: u64,
    line_bytes: u64,
    batched: bool,
) -> Vec<LinePlan> {
    let l = line_bytes;
    let period = if batched {
        l / gcd(stride % l, l).max(1)
    } else {
        1
    };
    (0..period)
        .map(|r| {
            let align = (base + r * stride) % l;
            let mut steps: Vec<PlanStep> = Vec::with_capacity(cursors.len());
            for (slot, &(offset, width)) in cursors.iter().enumerate() {
                let start = align + offset;
                let line = start & !(l - 1);
                let last_line = (start + width.max(1) as u64 - 1) & !(l - 1);
                if !batched || line != last_line {
                    steps.push(PlanStep::Field { slot: slot as u32 });
                    continue;
                }
                // Extend the previous run when this field continues it.
                match steps.last_mut() {
                    Some(PlanStep::Run {
                        rel_line,
                        fields,
                        first_slot,
                    }) if *rel_line == line && *first_slot as usize + *fields as usize == slot => {
                        *fields += 1;
                    }
                    _ => steps.push(PlanStep::Run {
                        rel_line: line,
                        fields: 1,
                        first_slot: slot as u32,
                    }),
                }
            }
            LinePlan { align, steps }
        })
        .collect()
}

impl<'a> ScanJob<'a> {
    /// Captures the per-scan constants of `source`. Borrows only the
    /// source's tables — not the system — so a job can outlive any number
    /// of [`Parts`] borrows. Row-layout sources precompute [`LinePlan`]s;
    /// with `batched` set, [`step_rows`](Self::step_rows) advances
    /// whole-line runs of fields of a row layout and replays the line
    /// blocks of a columnar scan, and without it every field steps through
    /// the hierarchy individually (the reference stepping mode,
    /// [`System::set_reference_stepping`]).
    pub(crate) fn new(
        source: &ScanSource<'a>,
        cost: &CpuCostModel,
        engine: &RmeEngine,
        line_bytes: usize,
        batched: bool,
    ) -> ScanJob<'a> {
        match *source {
            ScanSource::Rows {
                table,
                columns,
                snapshot,
            } => {
                let schema = table.schema();
                let header = table.mvcc().header_bytes() as u64;
                let cursors: Vec<(u64, usize)> = columns
                    .iter()
                    .map(|&col| {
                        (
                            header + schema.offset(col).expect("valid column") as u64,
                            schema.width(col).expect("valid column"),
                        )
                    })
                    .collect();
                let base = table.row_addr(0);
                let stride = table.physical_row_bytes() as u64;
                ScanJob {
                    rows: table.num_rows(),
                    row_cpu: cost.row_loop() + cost.fields(columns.len()),
                    num_columns: columns.len(),
                    kind: JobKind::Rows {
                        table,
                        plans: build_plans(&cursors, base, stride, line_bytes as u64, batched),
                        cursors,
                        base,
                        stride,
                        snapshot: snapshot.filter(|_| table.mvcc().is_enabled()),
                        visibility_cpu: cost.visibility(),
                    },
                }
            }
            ScanSource::Columnar { table, columns } => {
                let schema = table.schema();
                let cursors: Vec<(u64, usize)> = columns
                    .iter()
                    .map(|&col| {
                        (
                            table.column_base(col).expect("valid column"),
                            schema.width(col).expect("valid column"),
                        )
                    })
                    .collect();
                ScanJob {
                    rows: table.num_rows(),
                    row_cpu: cost.row_loop()
                        + cost.fields(columns.len())
                        + cost.tuple_reconstruction(columns.len()),
                    num_columns: columns.len(),
                    kind: JobKind::Columnar { cursors, batched },
                }
            }
            ScanSource::Ephemeral { var } => {
                let num_columns = var.num_columns();
                let cursors: Vec<(u64, usize)> = (0..num_columns)
                    .map(|j| (var.field_addr(0, j) - var.base(), var.width(j)))
                    .collect();
                let base = var.base();
                let stride = var.packed_row_bytes() as u64;
                ScanJob {
                    rows: var.rows(),
                    row_cpu: cost.row_loop() + cost.fields(num_columns),
                    num_columns,
                    kind: JobKind::Ephemeral {
                        plans: build_plans(&cursors, base, stride, line_bytes as u64, batched),
                        cursors,
                        base,
                        stride,
                        frame_rows: engine.rows_per_frame().unwrap_or(u64::MAX).max(1),
                    },
                }
            }
        }
    }

    /// Total rows the scan covers (before MVCC visibility filtering).
    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }

    /// Values produced per row.
    pub(crate) fn num_columns(&self) -> usize {
        self.num_columns
    }

    /// For ephemeral scans, the packed rows per Reorganization-Buffer
    /// frame — the scheduler granule that keeps frame fetches bounded.
    /// `None` for sources that don't go through the engine.
    pub(crate) fn frame_rows(&self) -> Option<u64> {
        match self.kind {
            JobKind::Ephemeral { frame_rows, .. } => Some(frame_rows),
            _ => None,
        }
    }

    /// Steps the first of `rows` on `core`, starting at local time `now`,
    /// then each next row while the clock is before `bound` (all of them
    /// when `bound` is `None`), and returns `(end, cpu, rows_scanned,
    /// next_row)`: per row, its access chain, the per-row closure and its
    /// [`RowEffect`], then a DRAM `advance` to the row's end, so a range
    /// steps the DRAM model exactly as one scheduler pick per row would.
    /// `values` must hold [`num_columns`](Self::num_columns) slots.
    #[allow(clippy::too_many_arguments)] // the split-borrowed platform
    pub(crate) fn step_rows<F>(
        &self,
        p: Parts<'_>,
        core: usize,
        rows: Range<u64>,
        bound: Option<SimTime>,
        now: SimTime,
        values: &mut [u64],
        per_row: &mut F,
    ) -> (SimTime, SimTime, u64, u64)
    where
        F: FnMut(u64, &[u64]) -> RowEffect,
    {
        // Two instances, so a lone lane's rows pay no bound check.
        match bound {
            None => self.step_rows_until(p, core, rows, |_| false, now, values, per_row),
            Some(bound) => {
                self.step_rows_until(p, core, rows, |now| now >= bound, now, values, per_row)
            }
        }
    }

    /// [`step_rows`](Self::step_rows), stopping before the first row after
    /// `rows.start` at whose start `stop` accepts the clock. The layout is
    /// matched once per call and its per-row invariants (frontend borrow,
    /// backend, value reader) are hoisted out of the row loop.
    #[allow(clippy::too_many_arguments)] // the split-borrowed platform
    #[inline(always)]
    fn step_rows_until<F>(
        &self,
        p: Parts<'_>,
        core: usize,
        rows: Range<u64>,
        stop: impl Fn(SimTime) -> bool,
        now: SimTime,
        values: &mut [u64],
        per_row: &mut F,
    ) -> (SimTime, SimTime, u64, u64)
    where
        F: FnMut(u64, &[u64]) -> RowEffect,
    {
        let (front, l2, mem) = (&mut p.cores[core], p.l2, &*p.mem);
        let mut backend = DramBackend {
            dram: p.dram,
            line_bytes: p.line_bytes,
            core,
        };
        let (mut now, mut cpu) = (now, SimTime::ZERO);
        let (first, mut next, mut invisible) = (rows.start, rows.end, 0u64);
        match &self.kind {
            JobKind::Rows {
                table,
                cursors,
                base,
                stride,
                snapshot,
                visibility_cpu,
                plans,
            } => {
                for row in rows {
                    if row > first && stop(now) {
                        next = row;
                        break;
                    }
                    let row_base = base + row * stride;
                    if let Some(snap) = *snapshot {
                        let out = front.access(row_base, 16, now, l2, &mut backend);
                        now = out.completion + *visibility_cpu;
                        cpu += *visibility_cpu;
                        if !table.visible(mem, row, snap).unwrap_or(false) {
                            invisible += 1;
                            backend.dram.advance(now);
                            continue;
                        }
                    }
                    now = walk_fields(
                        front,
                        l2,
                        &mut backend,
                        |_, addr, width| mem.read_uint(addr, width.min(8)),
                        cursors,
                        plan_for(plans, row),
                        row_base,
                        now,
                        values,
                    );
                    now = self
                        .finish_row(front, l2, &mut backend, row, now, &mut cpu, values, per_row)
                        .0;
                }
            }
            JobKind::Columnar { cursors, batched } => {
                // Line-block replay (batched mode only): every row of a
                // block reads the same line per cursor, so once one row of
                // the block was all L1 hits, the later rows re-touch
                // resident lines in the same order — hits that leave every
                // L1 set's recency order as it was, train no prefetcher
                // and reach no L2, DRAM or tracer. They replay as k L1
                // hits. A memory touch by the row's effect ends the
                // replay until a walked row hits again.
                let fields = cursors.len() as u64;
                let (mut block_end, mut warm) = (rows.start, false);
                for row in rows {
                    if row > first && stop(now) {
                        next = row;
                        break;
                    }
                    if *batched && row == block_end {
                        block_end = row + line_block(cursors, row, p.line_bytes as u64);
                        warm = false;
                    }
                    if warm {
                        now = front.replay_l1_hits(fields, now);
                        for (slot, &(col_base, width)) in cursors.iter().enumerate() {
                            values[slot] =
                                mem.read_uint(col_base + row * width as u64, width.min(8));
                        }
                    } else {
                        let mut hits = *batched;
                        for (slot, &(col_base, width)) in cursors.iter().enumerate() {
                            let addr = col_base + row * width as u64;
                            let out = front.access(addr, width, now, l2, &mut backend);
                            now = out.completion;
                            hits &= out.level == HitLevel::L1;
                            values[slot] = mem.read_uint(addr, width.min(8));
                        }
                        warm = hits;
                    }
                    let (end, touched) = self.finish_row(
                        front,
                        l2,
                        &mut backend,
                        row,
                        now,
                        &mut cpu,
                        values,
                        per_row,
                    );
                    now = end;
                    warm &= !touched;
                }
            }
            JobKind::Ephemeral {
                cursors,
                base,
                stride,
                plans,
                ..
            } => {
                let mut rme = RmeBackend {
                    engine: p.engine,
                    mem,
                    dram: backend,
                };
                for row in rows {
                    if row > first && stop(now) {
                        next = row;
                        break;
                    }
                    now = walk_fields(
                        front,
                        l2,
                        &mut rme,
                        |b, addr, width| b.engine.read_packed_u64(addr, width, b.mem),
                        cursors,
                        plan_for(plans, row),
                        base + row * stride,
                        now,
                        values,
                    );
                    // The closure's extra touch is an ordinary DRAM access.
                    now = self
                        .finish_row(
                            front,
                            l2,
                            &mut rme.dram,
                            row,
                            now,
                            &mut cpu,
                            values,
                            per_row,
                        )
                        .0;
                }
            }
        }
        (now, cpu, next - first - invisible, next)
    }

    /// Runs the per-row closure over a row's values, charges the row's CPU
    /// work to `cpu`, applies the closure's extra memory touch and
    /// schedules the DRAM writes buffered by the row's end, the horizon a
    /// scheduler pick after this row would set. Returns the advanced clock
    /// and whether the closure touched memory.
    #[allow(clippy::too_many_arguments)] // the split-borrowed platform
    #[inline(always)]
    fn finish_row<F>(
        &self,
        front: &mut CoreFrontend,
        l2: &mut SharedL2,
        backend: &mut DramBackend<'_>,
        row: u64,
        now: SimTime,
        cpu: &mut SimTime,
        values: &[u64],
        per_row: &mut F,
    ) -> (SimTime, bool)
    where
        F: FnMut(u64, &[u64]) -> RowEffect,
    {
        let effect = per_row(row, values);
        let row_cpu = self.row_cpu + effect.cpu;
        *cpu += row_cpu;
        let mut now = now + row_cpu;
        if let Some((addr, bytes)) = effect.touch {
            now = front.access(addr, bytes, now, l2, backend).completion;
        }
        backend.dram.advance(now);
        (now, effect.touch.is_some())
    }

    /// The scan's steady-state period, if it has one the timing models can
    /// fast-forward over (see `crate::periodic`): a direct scan without an
    /// MVCC snapshot or an unfiltered ephemeral scan of the programmed
    /// projection.
    ///
    /// * Direct scan: `span / gcd(span, stride)` rows, the smallest row
    ///   count whose byte advance is a multiple of the shared translation
    ///   span — the lcm of the L1 and L2 set spans, the L2 bank interleave
    ///   and the DRAM mapping's bank/XOR span. The stride is the row stride
    ///   of a row table (the period is then a whole number of line-plan
    ///   cycles, as the span is a multiple of the line) and the column
    ///   width of a columnar table, whose projected columns must all have
    ///   that width so that one shift moves every column array.
    /// * Ephemeral scan: one Reorganization Buffer frame.
    pub(crate) fn period(
        &self,
        cfg: &PlatformConfig,
        dram: &DramModel,
        engine: &RmeEngine,
    ) -> Option<ScanPeriod> {
        let direct = |gather: Vec<(u64, usize)>, stride: u64| {
            let line = cfg.line_bytes() as u64;
            let span = [
                (cfg.l1.sets() as u64) * line,
                (cfg.l2.sets() as u64) * line,
                (cfg.l2_banks.max(1) as u64) * line,
                dram.mapping().translation_period(),
            ]
            .into_iter()
            .fold(1, lcm);
            let rows = span / gcd(span, stride);
            ScanPeriod {
                rows,
                source_bytes: rows * stride,
                ephemeral_bytes: 0,
                uses_engine: false,
                gather,
                gather_stride: stride,
            }
        };
        match &self.kind {
            JobKind::Rows {
                cursors,
                base,
                stride,
                snapshot: None,
                ..
            } => Some(direct(
                cursors
                    .iter()
                    .map(|&(offset, width)| (base + offset, width))
                    .collect(),
                *stride,
            )),
            JobKind::Columnar { cursors, .. } => {
                let width = cursors.first()?.1;
                cursors
                    .iter()
                    .all(|&(_, w)| w == width)
                    .then(|| direct(cursors.clone(), width as u64))
            }
            JobKind::Ephemeral {
                cursors,
                base,
                stride,
                frame_rows,
                ..
            } => {
                let plan = engine.unfiltered_plan()?;
                let geometry = engine.geometry()?;
                let matches = geometry.ephemeral_base == *base
                    && plan.packed_row_bytes() as u64 == *stride
                    && plan.columns().len() == cursors.len()
                    && plan
                        .columns()
                        .iter()
                        .zip(cursors)
                        .all(|(c, &cursor)| (c.packed_offset as u64, c.width) == cursor);
                if !matches {
                    return None;
                }
                let row_bytes = geometry.row_bytes as u64;
                Some(ScanPeriod {
                    rows: *frame_rows,
                    source_bytes: frame_rows * row_bytes,
                    ephemeral_bytes: frame_rows * stride,
                    uses_engine: true,
                    gather: plan
                        .columns()
                        .iter()
                        .map(|c| (plan.source_address(0, c), c.width))
                        .collect(),
                    gather_stride: row_bytes,
                })
            }
            _ => None,
        }
    }
}

/// The steady-state period of a scan (see [`ScanJob::period`]) and what
/// the functional part of a fast-forwarded period reads.
pub(crate) struct ScanPeriod {
    /// Rows per period.
    pub rows: u64,
    /// Bytes the physical (source) addresses advance per period.
    pub source_bytes: u64,
    /// Bytes the ephemeral addresses advance per period.
    pub ephemeral_bytes: u64,
    /// Whether the RME takes part (its state is compared and shifted).
    pub uses_engine: bool,
    /// (source address of row 0's field, width) per value slot.
    gather: Vec<(u64, usize)>,
    /// Source bytes between consecutive rows.
    gather_stride: u64,
}

impl ScanPeriod {
    /// Reads row `row`'s values straight from source memory — what the
    /// stepped scan reads from the row table or, for an unfiltered
    /// projection, from the Reorganization Buffer the engine packs from
    /// the same bytes.
    #[inline]
    pub fn gather(&self, mem: &PhysicalMemory, row: u64, values: &mut [u64]) {
        let row_off = row * self.gather_stride;
        for (slot, &(addr, width)) in self.gather.iter().enumerate() {
            values[slot] = mem.read_uint(addr + row_off, width.min(8));
        }
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// The line block of a columnar scan starting at `row`: the rows from `row`
/// on whose field of every cursor lies within the line that cursor's field
/// of `row` starts in. At least one row; exactly one when a field of `row`
/// straddles a line boundary. `line_bytes` is a power of two.
fn line_block(cursors: &[(u64, usize)], row: u64, line_bytes: u64) -> u64 {
    cursors
        .iter()
        .map(|&(col_base, width)| {
            let addr = col_base + row * width as u64;
            let line_end = (addr | (line_bytes - 1)) + 1;
            (line_end - addr) / width.max(1) as u64
        })
        .min()
        .unwrap_or(1)
        .max(1)
}

/// The line plan for `row`.
#[inline(always)]
fn plan_for(plans: &[LinePlan], row: u64) -> &LinePlan {
    if plans.len() == 1 {
        // The common aligned layout has one plan; skip the per-row modulo
        // (an integer divide).
        &plans[0]
    } else {
        &plans[(row % plans.len() as u64) as usize]
    }
}

/// Accesses one row's projected fields, starting at `now`, and returns the
/// clock after the last one: each same-line run of fields in `plan` is one
/// [`CoreFrontend::access_run`] and each [`PlanStep::Field`] one
/// [`CoreFrontend::access`]. `read` yields a field's value from
/// `(backend, address, width)`; value reads are pure, so reading a run's
/// values after its access keeps slot order.
#[allow(clippy::too_many_arguments)] // the split-borrowed platform
#[inline(always)]
fn walk_fields<B: MemoryBackend>(
    front: &mut CoreFrontend,
    l2: &mut SharedL2,
    backend: &mut B,
    read: impl Fn(&B, u64, usize) -> u64,
    cursors: &[(u64, usize)],
    plan: &LinePlan,
    row_base: u64,
    mut now: SimTime,
    values: &mut [u64],
) -> SimTime {
    let aligned = row_base - plan.align;
    for step in &plan.steps {
        match *step {
            PlanStep::Run {
                rel_line,
                fields,
                first_slot,
            } => {
                now = front
                    .access_run(aligned + rel_line, fields, now, l2, backend)
                    .completion;
                let first = first_slot as usize;
                for slot in first..first + fields as usize {
                    let (offset, width) = cursors[slot];
                    values[slot] = read(backend, row_base + offset, width);
                }
            }
            PlanStep::Field { slot } => {
                let (offset, width) = cursors[slot as usize];
                let addr = row_base + offset;
                now = front.access(addr, width, now, l2, backend).completion;
                values[slot as usize] = read(backend, addr, width);
            }
        }
    }
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relmem_rme::HwRevision;
    use relmem_storage::{ColumnDef, ColumnGroup, ColumnType, DataGen, MvccConfig, Schema};

    /// The (address, width) of every access `job` makes for `row`, in step
    /// order, computed from its cursors: a row scan's 16 B MVCC header when
    /// it checks visibility, then each projected field.
    fn job_accesses(job: &ScanJob<'_>, row: u64) -> Vec<(u64, usize)> {
        match &job.kind {
            JobKind::Rows {
                cursors,
                base,
                stride,
                snapshot,
                ..
            } => {
                let row_base = base + row * stride;
                let header = snapshot.map(|_| (row_base, 16));
                header
                    .into_iter()
                    .chain(cursors.iter().map(|&(offset, w)| (row_base + offset, w)))
                    .collect()
            }
            JobKind::Columnar { cursors, .. } => cursors
                .iter()
                .map(|&(col_base, w)| (col_base + row * w as u64, w))
                .collect(),
            JobKind::Ephemeral {
                cursors,
                base,
                stride,
                ..
            } => cursors
                .iter()
                .map(|&(offset, w)| (base + row * stride + offset, w))
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `ScanJob`'s precomputed cursors address exactly the bytes the
        /// storage layer's own per-field lookups name, for every row and
        /// projected column: `RowTable::row_addr` (the MVCC header) and
        /// `RowTable::field_addr`, `ColumnarTable::field_addr`, and
        /// `EphemeralVariable::field_addr`, each with the schema's or the
        /// variable's width — over random widths and projections, MVCC on
        /// and off, with and without a snapshot.
        #[test]
        fn cursors_address_what_the_storage_lookups_name(
            widths in proptest::collection::vec(1usize..=12, 1..=6),
            pick in proptest::collection::vec(any::<bool>(), 6),
            mvcc in any::<bool>(),
            with_snapshot in any::<bool>(),
            rows in 1u64..48,
            seed in 0u64..1_000,
        ) {
            let columns: Vec<usize> = (0..widths.len()).filter(|&i| pick[i]).collect();
            prop_assume!(!columns.is_empty());
            let defs = widths
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    let ty = if w <= 8 { ColumnType::UInt(w) } else { ColumnType::Bytes(w) };
                    ColumnDef::new(format!("c{i}"), ty)
                })
                .collect();
            let schema = Schema::new(defs).unwrap();
            let mut sys = System::with_revision(HwRevision::Mlp, 4 << 20);
            let config = if mvcc { MvccConfig::Enabled } else { MvccConfig::Disabled };
            let mut table = sys.create_table(schema, rows, config).unwrap();
            DataGen::new(seed).fill_table(sys.mem_mut(), &mut table, rows).unwrap();
            if mvcc {
                for row in (0..rows).step_by(3) {
                    table.mark_deleted(sys.mem_mut(), row, 5).unwrap();
                }
            }
            let snapshot = with_snapshot.then(|| Snapshot::at(7));
            let columnar = sys.materialize_columnar(&table).unwrap();
            let group = ColumnGroup::new(columns.clone()).unwrap();
            let var = sys.register_ephemeral(&table, group, snapshot).unwrap();

            let source = ScanSource::Rows { table: &table, columns: &columns, snapshot };
            let job = sys.scan_job(&source);
            prop_assert_eq!(job.rows(), rows);
            for row in 0..rows {
                let header = (mvcc && with_snapshot).then(|| (table.row_addr(row), 16));
                let expected: Vec<(u64, usize)> = header
                    .into_iter()
                    .chain(columns.iter().map(|&c| {
                        (table.field_addr(row, c).unwrap(), table.schema().width(c).unwrap())
                    }))
                    .collect();
                prop_assert_eq!(job_accesses(&job, row), expected, "row table, row {}", row);
            }

            let source = ScanSource::Columnar { table: &columnar, columns: &columns };
            let job = sys.scan_job(&source);
            prop_assert_eq!(job.rows(), rows);
            for row in 0..rows {
                let expected: Vec<(u64, usize)> = columns
                    .iter()
                    .map(|&c| {
                        (columnar.field_addr(row, c).unwrap(), columnar.schema().width(c).unwrap())
                    })
                    .collect();
                prop_assert_eq!(job_accesses(&job, row), expected, "columnar, row {}", row);
            }

            let source = ScanSource::Ephemeral { var: &var };
            let job = sys.scan_job(&source);
            prop_assert_eq!(job.rows(), var.rows());
            for row in 0..var.rows() {
                let expected: Vec<(u64, usize)> = (0..var.num_columns())
                    .map(|j| (var.field_addr(row, j), var.width(j)))
                    .collect();
                prop_assert_eq!(job_accesses(&job, row), expected, "ephemeral, row {}", row);
            }
        }
    }
}
