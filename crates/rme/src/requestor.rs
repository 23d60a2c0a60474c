//! The Requestor: descriptor generation and dispatch.
//!
//! When the Monitor Bypass reports the first miss of a frame, the Requestor
//! walks the frame's rows and columns of interest, evaluates equations
//! (1)–(6) for each pair and hands the resulting descriptors to idle Fetch
//! Units. The configuration port stores the widths and offsets of all (up
//! to eleven) columns of interest in registers, so the address arithmetic of
//! one *row* — every column's descriptor — is evaluated by parallel adders
//! in a single PL cycle; the dispatch times reported here are therefore
//! spaced per row, which is the issue-rate bound of the engine.
//!
//! Those registers are the [`ProjectionPlan`]: per-column offsets resolved
//! once at configuration. A frame's descriptor stream is a
//! [`DescriptorCursor`]: its position and dispatch anchors. The engine
//! takes a run of descriptors from it per call and evaluates their fields a
//! row at a time, so no frame's stream is ever materialised.

use std::sync::Arc;

use relmem_sim::shift::extrapolate;
use relmem_sim::SimTime;

use crate::geometry::TableGeometry;

/// One column of interest with the prefix sums of equations (1) and (4)
/// already taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnPlan {
    /// Offset of the column within a source row (`Σ_{k≤j} OA_k`).
    pub source_offset: u64,
    /// Width in bytes (`CA_j`).
    pub width: usize,
    /// Offset of the column within a packed row (`Σ_{k<j} CA_k`).
    pub packed_offset: usize,
}

/// The register-file view of a programmed projection: everything the
/// Requestor needs to turn a (row, column) pair into a descriptor with a
/// handful of adds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectionPlan {
    source_base: u64,
    row_bytes: u64,
    packed_row_bytes: usize,
    /// Source bytes a row's columns span from the row's start.
    reach: usize,
    bus_bytes: u64,
    columns: Arc<[ColumnPlan]>,
}

impl ProjectionPlan {
    /// Resolves the per-column offsets of `geometry` for a `bus_bytes`-wide
    /// main-memory bus.
    pub fn new(geometry: &TableGeometry, bus_bytes: usize) -> Self {
        let mut source_offset = 0u64;
        let mut packed_offset = 0usize;
        let mut reach = 0usize;
        let columns = geometry
            .columns
            .iter()
            .map(|c| {
                source_offset += c.oa_delta as u64;
                let plan = ColumnPlan {
                    source_offset,
                    width: c.width,
                    packed_offset,
                };
                packed_offset += c.width;
                reach = reach.max(source_offset as usize + c.width);
                plan
            })
            .collect();
        ProjectionPlan {
            source_base: geometry.source_base,
            row_bytes: geometry.row_bytes as u64,
            packed_row_bytes: packed_offset,
            reach,
            bus_bytes: bus_bytes as u64,
            columns,
        }
    }

    /// The columns of interest, in projection order.
    pub fn columns(&self) -> &[ColumnPlan] {
        &self.columns
    }

    /// Width of one packed row in bytes.
    pub fn packed_row_bytes(&self) -> usize {
        self.packed_row_bytes
    }

    /// Source address of `column` in source row `row` (`P_{i,j}`).
    pub fn source_address(&self, row: u64, column: &ColumnPlan) -> u64 {
        self.row_base(row) + column.source_offset
    }

    /// Address of source row `row`'s first byte.
    pub fn row_base(&self, row: u64) -> u64 {
        self.source_base + self.row_bytes * row
    }

    /// Source bytes the columns of interest span from a row's first byte:
    /// the slice of a source row the pack kernel reads.
    pub fn reach(&self) -> usize {
        self.reach
    }

    /// Width of one source row in bytes.
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Width of the main-memory bus in bytes.
    pub fn bus_bytes(&self) -> u64 {
        self.bus_bytes
    }
}

/// The source rows of one frame, in packed order, borrowed rather than
/// copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameRows {
    /// Every row is visible: the frame is source rows `start..end`.
    Range {
        /// First source row of the frame.
        start: u64,
        /// One past the last source row of the frame.
        end: u64,
    },
    /// MVCC filtering is active: the frame is `visible[start..end]`.
    Visible {
        /// The projection's visible source rows, in order.
        visible: Arc<Vec<u64>>,
        /// Index of the frame's first row in `visible`.
        start: usize,
        /// One past the index of the frame's last row in `visible`.
        end: usize,
    },
}

impl FrameRows {
    /// Number of rows in the frame.
    pub fn len(&self) -> usize {
        match self {
            FrameRows::Range { start, end } => (end - start) as usize,
            FrameRows::Visible { start, end, .. } => end - start,
        }
    }

    /// Whether the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The source row at packed position `i` within the frame.
    pub fn get(&self, i: usize) -> u64 {
        match self {
            FrameRows::Range { start, .. } => start + i as u64,
            FrameRows::Visible { visible, start, .. } => visible[start + i],
        }
    }

    /// The first and last source rows of the frame, if it has any.
    pub fn bounds(&self) -> Option<(u64, u64)> {
        (!self.is_empty()).then(|| (self.get(0), self.get(self.len() - 1)))
    }
}

/// The descriptor stream of one frame, in row-major order: packed row 0's
/// columns, then packed row 1's, and so on, with descriptor *k*'s dispatch
/// anchor frozen at `activated + period · (k / q)` for `q` columns of
/// interest. The cursor holds how far the stream has been taken; the
/// descriptors themselves are evaluated by whoever takes them.
#[derive(Debug, Clone)]
pub struct DescriptorCursor {
    plan: ProjectionPlan,
    rows: FrameRows,
    activated: SimTime,
    period: SimTime,
    /// Descriptors taken so far: descriptor `taken` is the next one.
    taken: usize,
}

impl DescriptorCursor {
    /// A cursor over `rows`, emitting one row per `period` from `activated`.
    pub fn new(plan: ProjectionPlan, rows: FrameRows, activated: SimTime, period: SimTime) -> Self {
        DescriptorCursor {
            plan,
            rows,
            activated,
            period,
            taken: 0,
        }
    }

    /// The projection the cursor walks.
    pub fn plan(&self) -> &ProjectionPlan {
        &self.plan
    }

    /// The frame's rows.
    pub fn rows(&self) -> &FrameRows {
        &self.rows
    }

    /// When the frame was activated (the anchor of descriptor 0).
    pub fn activated(&self) -> SimTime {
        self.activated
    }

    /// Dispatch anchor of every descriptor of the frame's packed row
    /// `row_idx`: one PL cycle per source row, as all of a row's column
    /// descriptors are produced by parallel adders in that cycle.
    pub fn dispatch_at(&self, row_idx: usize) -> SimTime {
        self.activated + self.period * row_idx as u64
    }

    /// Number of descriptors in the frame's stream.
    pub fn descriptors(&self) -> usize {
        self.rows.len() * self.plan.columns.len()
    }

    /// Descriptors taken so far (the row-major index of the next one).
    pub fn taken(&self) -> usize {
        self.taken
    }

    /// Marks the descriptors before `end` taken.
    pub fn take_until(&mut self, end: usize) {
        debug_assert!(end >= self.taken && end <= self.descriptors());
        self.taken = end;
    }

    /// Whether every descriptor has been taken.
    pub fn is_done(&self) -> bool {
        self.taken >= self.descriptors()
    }
}

/// The Requestor module.
#[derive(Debug, Clone)]
pub struct Requestor {
    descriptor_period: SimTime,
    generated: u64,
}

impl Requestor {
    /// Creates a Requestor. `descriptor_period` is the time between two
    /// consecutive descriptor emissions (one per PL cycle in the prototype).
    pub fn new(descriptor_period: SimTime) -> Self {
        Requestor {
            descriptor_period,
            generated: 0,
        }
    }

    /// Descriptors generated so far (a frame counts whole at activation).
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Advances the generated-descriptor counter by `periods` times its
    /// increment since `earlier` (the Requestor keeps no other state).
    pub fn extrapolate(&mut self, earlier: &Requestor, periods: u64) {
        self.generated = extrapolate(self.generated, earlier.generated, periods);
    }

    /// Activates the Requestor for a frame.
    ///
    /// * `rows` — the source rows belonging to the frame, in order. When
    ///   MVCC filtering is active these are the *visible* rows; a row's
    ///   position is its packed row index **within the frame**.
    /// * `start` — when the Requestor is activated (first miss of the frame
    ///   reaching the PL).
    ///
    /// The cursor's descriptors use frame-relative `waddr` (packed offsets
    /// starting at zero for the first row of the frame).
    pub fn activate(
        &mut self,
        plan: &ProjectionPlan,
        rows: FrameRows,
        start: SimTime,
    ) -> DescriptorCursor {
        let cursor = DescriptorCursor::new(plan.clone(), rows, start, self.descriptor_period);
        self.generated += cursor.descriptors() as u64;
        cursor
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::descriptor::{descriptor_for, Descriptor};
    use crate::geometry::ColumnSpec;
    use proptest::prelude::*;

    /// A descriptor together with the earliest time it may be dispatched.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DispatchedDescriptor {
        /// The descriptor itself.
        pub descriptor: Descriptor,
        /// Earliest dispatch time (Requestor issue-rate bound).
        pub dispatch_at: SimTime,
    }

    /// One descriptor at a time, with every field evaluated from scratch:
    /// the per-descriptor stream the engine's run booking is held to.
    impl Iterator for DescriptorCursor {
        type Item = DispatchedDescriptor;

        fn next(&mut self) -> Option<DispatchedDescriptor> {
            if self.is_done() {
                return None;
            }
            let q = self.plan.columns.len();
            let (row_idx, column) = (self.taken / q, self.taken % q);
            let row = self.rows.get(row_idx);
            let c = self.plan.columns[column];
            let p = self.plan.source_address(row, &c);
            let es = (p % self.plan.bus_bytes) as usize;
            self.taken += 1;
            Some(DispatchedDescriptor {
                descriptor: Descriptor {
                    row,
                    column,
                    raddr: p - es as u64,
                    rburst: (es + c.width).div_ceil(self.plan.bus_bytes as usize),
                    waddr: (row_idx * self.plan.packed_row_bytes + c.packed_offset) as u64,
                    es,
                    len: c.width,
                },
                dispatch_at: self.dispatch_at(row_idx),
            })
        }
    }

    fn geometry(rows: u64) -> TableGeometry {
        TableGeometry {
            row_bytes: 64,
            row_count: rows,
            columns: vec![
                ColumnSpec {
                    width: 4,
                    oa_delta: 0,
                },
                ColumnSpec {
                    width: 8,
                    oa_delta: 24,
                },
            ],
            source_base: 0,
            ephemeral_base: 0x1000_0000,
            mvcc_header_bytes: 0,
            snapshot: None,
        }
    }

    fn visible(rows: &[u64]) -> FrameRows {
        FrameRows::Visible {
            visible: Arc::new(rows.to_vec()),
            start: 0,
            end: rows.len(),
        }
    }

    #[test]
    fn generates_q_descriptors_per_row_at_one_per_period() {
        let g = geometry(100);
        let plan = ProjectionPlan::new(&g, 16);
        let mut r = Requestor::new(SimTime::from_nanos(10));
        let rows = FrameRows::Range { start: 0, end: 3 };
        let cursor = r.activate(&plan, rows, SimTime::from_nanos(100));
        // The whole frame counts as generated at activation.
        assert_eq!(r.generated(), 6);
        assert_eq!(cursor.descriptors(), 6);
        let ds: Vec<_> = cursor.collect();
        assert_eq!(ds.len(), 6);
        // Dispatch times are spaced by one descriptor period per *row*; both
        // columns of a row are produced in the same cycle.
        assert_eq!(ds[0].dispatch_at, SimTime::from_nanos(100));
        assert_eq!(ds[1].dispatch_at, SimTime::from_nanos(100));
        assert_eq!(ds[2].dispatch_at, SimTime::from_nanos(110));
        assert_eq!(ds[5].dispatch_at, SimTime::from_nanos(120));
        // Row-major order: row 0 col 0, row 0 col 1, row 1 col 0, ...
        assert_eq!(ds[0].descriptor.row, 0);
        assert_eq!(ds[1].descriptor.column, 1);
        assert_eq!(ds[2].descriptor.row, 1);
    }

    #[test]
    fn filtered_rows_pack_densely() {
        let g = geometry(100);
        let plan = ProjectionPlan::new(&g, 16);
        let mut r = Requestor::new(SimTime::from_nanos(10));
        // Only rows 5 and 9 are visible: they become packed rows 0 and 1.
        let ds: Vec<_> = r.activate(&plan, visible(&[5, 9]), SimTime::ZERO).collect();
        let packed_row = g.packed_row_bytes() as u64;
        assert_eq!(ds[0].descriptor.waddr, 0);
        assert_eq!(ds[2].descriptor.waddr, packed_row);
        assert_eq!(ds[2].descriptor.raddr, 9 * 64);
    }

    #[test]
    fn empty_frame_produces_nothing() {
        let g = geometry(10);
        let plan = ProjectionPlan::new(&g, 16);
        let mut r = Requestor::new(SimTime::from_nanos(10));
        let mut cursor = r.activate(&plan, FrameRows::Range { start: 4, end: 4 }, SimTime::ZERO);
        assert!(cursor.is_done());
        assert_eq!(cursor.next(), None);
        assert!(r
            .activate(&plan, visible(&[]), SimTime::ZERO)
            .next()
            .is_none());
        assert_eq!(r.generated(), 0);
    }

    #[test]
    fn frame_rows_index_into_the_visible_list() {
        let rows = FrameRows::Visible {
            visible: Arc::new(vec![1, 4, 6, 9, 12]),
            start: 1,
            end: 4,
        };
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.get(0), 4);
        assert_eq!(rows.bounds(), Some((4, 9)));
        assert_eq!(FrameRows::Range { start: 7, end: 7 }.bounds(), None);
    }

    proptest! {
        /// The cursor yields exactly the row-major `descriptor_for`
        /// sequence, with frame-relative packed indices and anchors
        /// `start + period · packed_row`, over random geometries and
        /// visible-row lists.
        #[test]
        fn cursor_matches_descriptor_for(
            specs in proptest::collection::vec((1usize..=16, 0usize..24), 1..6),
            slack in 0usize..40,
            source_base in 0u64..4096,
            bus_pow in 2u32..6,
            keep in proptest::collection::vec(any::<bool>(), 0..60),
            filtered in any::<bool>(),
            frame_start in 0usize..20,
            start_ns in 0u64..10_000,
            period_ps in 1u64..5_000,
        ) {
            let columns: Vec<ColumnSpec> = specs
                .iter()
                .map(|&(width, oa_delta)| ColumnSpec { width, oa_delta })
                .collect();
            let reach: usize = specs.iter().map(|&(_, oa)| oa).sum::<usize>()
                + specs.last().map(|&(w, _)| w).unwrap_or(0);
            let g = TableGeometry {
                row_bytes: reach + slack,
                row_count: keep.len() as u64,
                columns,
                source_base,
                ephemeral_base: 0,
                mvcc_header_bytes: 0,
                snapshot: None,
            };
            let bus = 1usize << bus_pow;
            let all: Vec<u64> = (0..keep.len() as u64)
                .filter(|&r| !filtered || keep[r as usize])
                .collect();
            let from = frame_start.min(all.len());
            let rows = if filtered {
                FrameRows::Visible { visible: Arc::new(all.clone()), start: from, end: all.len() }
            } else {
                FrameRows::Range { start: from as u64, end: all.len() as u64 }
            };
            let frame = &all[from..];
            let start = SimTime::from_nanos(start_ns);
            let period = SimTime::from_picos(period_ps);
            let mut r = Requestor::new(period);
            let cursor = r.activate(&ProjectionPlan::new(&g, bus), rows, start);
            let q = g.num_columns();
            prop_assert_eq!(r.generated(), (frame.len() * q) as u64);
            prop_assert_eq!(cursor.descriptors(), frame.len() * q);
            let got: Vec<_> = cursor.collect();
            let want: Vec<_> = frame
                .iter()
                .enumerate()
                .flat_map(|(packed, &row)| {
                    let g = &g;
                    (0..q).map(move |j| DispatchedDescriptor {
                        descriptor: descriptor_for(g, row, packed as u64, j, bus),
                        dispatch_at: start + period * packed as u64,
                    })
                })
                .collect();
            prop_assert_eq!(got, want);
        }
    }
}
