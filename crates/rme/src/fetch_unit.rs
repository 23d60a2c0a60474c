//! Fetch Units: the Reader / Column Extractor / Writer pipeline.
//!
//! Each Fetch Unit receives descriptors from the Requestor and, for each
//! one, (1) issues a variable-length burst read towards main memory, (2)
//! extracts the useful bytes from the returned beats, and (3) writes the
//! packed chunk into the Reorganization Buffer. The unit's Reader supports a
//! revision-dependent number of outstanding read transactions (1 for
//! BSL/PCK, 16 for MLP); the extractor and writer are shared per unit, so
//! chunk post-processing serialises within a unit even when many reads are
//! in flight.
//!
//! A unit here holds the timing half of that pipeline:
//! [`FetchUnit::book`] takes one descriptor through the Reader slot, the
//! DRAM controller, the ingest port and the pipeline. The bytes are the
//! functional half, and the engine packs them a source row at a time
//! ([`crate::extractor::pack_row`]) in the call that books their
//! descriptors.

use relmem_dram::{DramModel, MemRequest};
use relmem_sim::{ClockDomain, RmeHwConfig, Shift, SimTime};

use crate::revision::HwRevision;

/// Port and pipeline occupancy of one burst length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstTimes {
    /// Time the beats occupy the unit's PL-side ingest port.
    pub port: SimTime,
    /// Time the chunk occupies the extract/pack/write pipeline.
    pub pipeline: SimTime,
}

/// One Fetch Unit.
#[derive(Debug, Clone)]
pub struct FetchUnit {
    /// Reader slots: completion times of outstanding read transactions.
    slots: Vec<SimTime>,
    /// Ring index of the earliest-free reader slot. Each write stores the
    /// pipeline's end time, which never decreases, so the slots fill in
    /// ring order and the oldest write is always the next one to free.
    next_slot: usize,
    /// `slots[next_slot]`, kept beside the ring so that picking a unit
    /// reads no slot vector.
    earliest: SimTime,
    /// When the unit's extract/pack/write pipeline (serial within the
    /// unit) is next free.
    pipeline_free: SimTime,
    /// When the PL-side ingest port (beats cross at one per PL cycle) is
    /// next free.
    port_free: SimTime,
    /// PL cycle length in picoseconds, resolved once.
    cycle_ps: u64,
    revision: HwRevision,
    cfg: RmeHwConfig,
    /// Round-trip latency of a PL-originated read through the PS
    /// interconnect and DDR controller (hidden by outstanding reads).
    read_latency: SimTime,
}

impl FetchUnit {
    /// Creates a Fetch Unit.
    pub fn new(
        cfg: RmeHwConfig,
        revision: HwRevision,
        pl: ClockDomain,
        read_latency: SimTime,
    ) -> Self {
        FetchUnit {
            slots: vec![SimTime::ZERO; revision.outstanding_reads()],
            next_slot: 0,
            earliest: SimTime::ZERO,
            pipeline_free: SimTime::ZERO,
            port_free: SimTime::ZERO,
            cycle_ps: pl.cycle().as_picos(),
            revision,
            cfg,
            read_latency,
        }
    }

    /// The earliest time this unit could accept another descriptor (used by
    /// the engine to pick the least-loaded unit).
    pub fn earliest_slot(&self) -> SimTime {
        self.earliest
    }

    /// Books one descriptor dispatched at `dispatch_at` whose burst reads
    /// `burst_bytes` at `raddr` and costs `times`: a Reader slot, the DRAM
    /// controller, the unit's ingest port and its extract/write pipeline.
    /// Returns the time the chunk is written to the Reorganization Buffer.
    #[inline]
    pub fn book(
        &mut self,
        dispatch_at: SimTime,
        raddr: u64,
        burst_bytes: usize,
        times: BurstTimes,
        dram: &mut DramModel,
    ) -> SimTime {
        // 1. Reader: wait for a free outstanding-transaction slot.
        let issue = dispatch_at.max(self.earliest);

        // 2. Main-memory burst. A read launched from the PL additionally
        //    pays the PS-interconnect round-trip latency; with many
        //    outstanding reads it is hidden.
        let completion = dram.access(
            MemRequest::new(raddr, burst_bytes, issue).with_requestor(relmem_dram::Requestor::Rme),
        );
        let data_at_unit = completion.finish + self.read_latency;

        // 3. The beats cross the unit's PL-side read-data port, then the
        //    Column Extractor + Writer occupy the unit's pipeline.
        self.port_free = data_at_unit.max(self.port_free) + times.port;
        let written_at = self.port_free.max(self.pipeline_free) + times.pipeline;
        self.pipeline_free = written_at;

        // 4. The Reader slot stays occupied until the whole chunk has
        //    retired (this is what serialises BSL/PCK).
        debug_assert!(
            self.slots.iter().all(|&t| t <= written_at),
            "write times decreased"
        );
        self.slots[self.next_slot] = written_at;
        self.next_slot = if self.next_slot + 1 == self.slots.len() {
            0
        } else {
            self.next_slot + 1
        };
        self.earliest = self.slots[self.next_slot];
        written_at
    }

    /// Port and pipeline occupancy of a `rburst`-beat chunk. The landing
    /// FIFO drains `port_beats_per_cycle` beats per PL cycle. With the
    /// packer (PCK/MLP) the extractor streams one beat per PL cycle and the
    /// SPM write is folded into the same pipeline stage, so the unit
    /// sustains one beat of throughput per cycle. Without it (BSL) every
    /// chunk performs its own SPM write and the pipeline stalls for the
    /// write turnaround.
    pub fn burst_times(&self, rburst: usize) -> BurstTimes {
        let beats = rburst as u64;
        let port = self.cycle_ps * beats / self.cfg.port_beats_per_cycle.max(1);
        let mut pipeline_cycles = self.cfg.extract_cycles_per_beat * beats;
        if !self.revision.has_packer() {
            pipeline_cycles += self.cfg.spm_access_cycles * beats + 2;
        }
        BurstTimes {
            port: SimTime::from_picos(port),
            pipeline: SimTime::from_picos(self.cycle_ps * pipeline_cycles),
        }
    }

    /// Clears all timing state (between measured runs).
    pub fn reset(&mut self) {
        self.slots.fill(SimTime::ZERO);
        self.next_slot = 0;
        self.earliest = SimTime::ZERO;
        self.pipeline_free = SimTime::ZERO;
        self.port_free = SimTime::ZERO;
    }

    /// Moves the timing state forward by `periods` periods.
    pub fn shift(&mut self, shift: &Shift, periods: u64) {
        shift.shift_times(&mut self.slots, periods);
        self.earliest = self.slots[self.next_slot];
        self.pipeline_free = shift.time_after(self.pipeline_free, periods);
        self.port_free = shift.time_after(self.port_free, periods);
    }
}

/// Whether a bank of Fetch Units is `earlier`'s moved by one period (see
/// [`relmem_sim::shift`]): the same ring positions, port and pipeline free
/// times that match or have settled, and reader slots that match.
///
/// A reader slot written at or before the period's start has settled: it
/// no longer delays an issue, and in ring order from `next_slot` (oldest
/// first, as writes never go back in time) the settled slots of a unit are
/// a prefix. What they still decide is which unit [`least_loaded`] hands
/// each of the next bookings to, since a settled slot beats every live one:
/// the bookings take the settled prefixes in merged order of their times.
/// So settled slots compare through that pick sequence, live slots by time.
pub(crate) fn same_units_up_to_shift(
    now: &[FetchUnit],
    earlier: &[FetchUnit],
    shift: &Shift,
) -> bool {
    now.len() == earlier.len()
        && now.iter().zip(earlier).all(|(u, e)| {
            u.next_slot == e.next_slot
                && shift.same_free_time(u.pipeline_free, e.pipeline_free)
                && shift.same_free_time(u.port_free, e.port_free)
                && u.slots.len() == e.slots.len()
                && u.slots
                    .iter()
                    .zip(&e.slots)
                    .all(|(&t, &w)| shift.same_free_time(t, w))
        })
        && settled_picks(now, shift.start) == settled_picks(earlier, shift.earlier_start())
}

/// The units [`least_loaded`] picks, in order, while any unit's earliest
/// reader slot is settled at or before `start`.
fn settled_picks(units: &[FetchUnit], start: SimTime) -> Vec<usize> {
    let mut next: Vec<usize> = units.iter().map(|u| u.next_slot).collect();
    let mut taken = vec![0usize; units.len()];
    let mut picks = Vec::new();
    loop {
        let pick = units
            .iter()
            .enumerate()
            .filter(|&(i, u)| taken[i] < u.slots.len() && u.slots[next[i]] <= start)
            .min_by_key(|&(i, u)| u.slots[next[i]])
            .map(|(i, _)| i);
        let Some(i) = pick else {
            return picks;
        };
        picks.push(i);
        taken[i] += 1;
        next[i] = (next[i] + 1) % units[i].slots.len();
    }
}

/// Index of the unit whose earliest reader slot frees first (the first
/// such unit on ties). Round-robin would ignore load imbalance from
/// variable bursts; picking the unit whose reader frees first mirrors the
/// "any idle Fetch Unit" dispatch of the paper.
pub(crate) fn least_loaded(units: &[FetchUnit]) -> usize {
    units
        .iter()
        .enumerate()
        .min_by_key(|(_, fu)| fu.earliest_slot())
        .map(|(i, _)| i)
        .expect("at least one fetch unit")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::descriptor::{descriptor_for, Descriptor};
    use crate::extractor::tests::extract;
    use crate::geometry::{ColumnSpec, TableGeometry};
    use proptest::prelude::*;
    use relmem_dram::PhysicalMemory;
    use relmem_sim::DramConfig;

    /// The outcome of taking one descriptor through a unit with
    /// [`FetchUnit::process`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct ChunkResult<'m> {
        /// The extracted bytes (length = descriptor `len`), borrowed from
        /// physical memory.
        pub(crate) data: &'m [u8],
        /// Time at which the chunk has been written to the buffer.
        pub(crate) written_at: SimTime,
        /// Bus beats fetched from DRAM for this chunk.
        pub(crate) beats: usize,
    }

    impl FetchUnit {
        /// One descriptor at a time, functional and timing parts together:
        /// the burst's payload is read and cut by the extractor, and the
        /// burst length, DRAM request, port and pipeline are resolved per
        /// descriptor. The reference the engine's run booking is held to.
        pub(crate) fn process<'m>(
            &mut self,
            descriptor: &Descriptor,
            dispatch_at: SimTime,
            mem: &'m PhysicalMemory,
            dram: &mut DramModel,
            bus_bytes: usize,
        ) -> ChunkResult<'m> {
            let burst_bytes = descriptor.burst_bytes(bus_bytes);
            let issue = dispatch_at.max(self.slots[self.next_slot]);
            let completion = dram.access(
                MemRequest::new(descriptor.raddr, burst_bytes, issue)
                    .with_requestor(relmem_dram::Requestor::Rme),
            );
            let payload = mem.read(descriptor.raddr, burst_bytes);
            let times = self.burst_times(descriptor.rburst);
            let port_start = (completion.finish + self.read_latency).max(self.port_free);
            self.port_free = port_start + times.port;
            let pipeline_start = self.port_free.max(self.pipeline_free);
            self.pipeline_free = pipeline_start + times.pipeline;
            let written_at = self.pipeline_free;
            self.slots[self.next_slot] = written_at;
            self.next_slot = (self.next_slot + 1) % self.slots.len();
            self.earliest = self.slots[self.next_slot];
            ChunkResult {
                data: extract(descriptor, payload, bus_bytes),
                written_at,
                beats: descriptor.rburst,
            }
        }

        /// The unit's timing state: reader slots, ring position, port and
        /// pipeline free times.
        pub(crate) fn state(&self) -> (Vec<SimTime>, usize, SimTime, SimTime) {
            (
                self.slots.clone(),
                self.next_slot,
                self.port_free,
                self.pipeline_free,
            )
        }
    }

    fn setup(rows: u64) -> (PhysicalMemory, DramModel, TableGeometry) {
        let mut mem = PhysicalMemory::new(1 << 20);
        let base = mem.alloc(64 * rows as usize, 64);
        // Fill with a recognisable pattern: byte value = address & 0xff.
        for i in 0..64 * rows {
            mem.write(base + i, &[(i & 0xff) as u8]);
        }
        let dram = DramModel::new(DramConfig::default());
        let geometry = TableGeometry {
            row_bytes: 64,
            row_count: rows,
            columns: vec![ColumnSpec {
                width: 4,
                oa_delta: 8,
            }],
            source_base: base,
            ephemeral_base: 0,
            mvcc_header_bytes: 0,
            snapshot: None,
        };
        (mem, dram, geometry)
    }

    fn unit(revision: HwRevision) -> FetchUnit {
        FetchUnit::new(
            RmeHwConfig::default(),
            revision,
            ClockDomain::new("pl", 100.0),
            SimTime::from_nanos(200),
        )
    }

    /// Books `d` through `fu` the way the engine does.
    fn book(fu: &mut FetchUnit, d: &Descriptor, at: SimTime, dram: &mut DramModel) -> SimTime {
        let times = fu.burst_times(d.rburst);
        fu.book(at, d.raddr, d.burst_bytes(16), times, dram)
    }

    #[test]
    fn extracts_the_right_bytes() {
        let (mem, mut dram, g) = setup(16);
        let mut fu = unit(HwRevision::Mlp);
        let d = descriptor_for(&g, 2, 2, 0, 16);
        let chunk = fu.process(&d, SimTime::ZERO, &mem, &mut dram, 16);
        // Row 2, offset 8: source bytes (2*64 + 8 ..) & 0xff.
        assert_eq!(chunk.data, &[136, 137, 138, 139]);
        assert_eq!(chunk.beats, 1);
    }

    #[test]
    fn mlp_overlaps_where_bsl_serialises() {
        let (_, _, g) = setup(256);
        let descriptors: Vec<_> = (0..64u64)
            .map(|i| descriptor_for(&g, i, i, 0, 16))
            .collect();

        let run = |rev: HwRevision| {
            let mut dram = DramModel::new(DramConfig::default());
            let mut fu = unit(rev);
            let mut last = SimTime::ZERO;
            for d in &descriptors {
                last = last.max(book(&mut fu, d, SimTime::ZERO, &mut dram));
            }
            last
        };

        let bsl = run(HwRevision::Bsl);
        let pck = run(HwRevision::Pck);
        let mlp = run(HwRevision::Mlp);
        assert!(
            mlp.as_nanos_f64() < 0.25 * bsl.as_nanos_f64(),
            "MLP ({mlp}) should be far faster than BSL ({bsl})"
        );
        assert!(pck < bsl, "the packer alone must already help");
    }

    #[test]
    fn reset_restores_idle_state() {
        let (_, mut dram, g) = setup(4);
        let mut fu = unit(HwRevision::Bsl);
        let d = descriptor_for(&g, 0, 0, 0, 16);
        book(&mut fu, &d, SimTime::ZERO, &mut dram);
        assert!(fu.earliest_slot() > SimTime::ZERO);
        fu.reset();
        assert_eq!(fu.earliest_slot(), SimTime::ZERO);
        assert_eq!(
            (fu.port_free, fu.pipeline_free),
            (SimTime::ZERO, SimTime::ZERO)
        );
    }

    /// The first minimum of `times` in index order, with its index: the
    /// full scan the ring-ordered reader slots replace.
    fn first_min(times: &[SimTime]) -> (usize, SimTime) {
        times
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, t)| t)
            .expect("at least one reader slot")
    }

    fn sorted(times: &[SimTime]) -> Vec<SimTime> {
        let mut times = times.to_vec();
        times.sort_unstable();
        times
    }

    proptest! {
        /// The `(unit, slot)` choice of the ring equals a first-minimum scan
        /// over every slot of every unit, and the write times and slot
        /// times equal those of units whose slot comes from that scan, over
        /// random hardware configurations, descriptor streams and dispatch
        /// times.
        #[test]
        fn cached_dispatch_matches_a_full_scan(
            revision in 0usize..3,
            units in 1usize..=4,
            extract_cycles_per_beat in 0u64..=2,
            port_beats_per_cycle in 1u64..=4,
            spm_access_cycles in 0u64..=2,
            stream in proptest::collection::vec(
                (0u64..256, 0usize..64, 1usize..=16, 0u64..3_000),
                1..200,
            ),
        ) {
            let revision = [HwRevision::Bsl, HwRevision::Pck, HwRevision::Mlp][revision];
            let cfg = RmeHwConfig {
                extract_cycles_per_beat,
                port_beats_per_cycle,
                spm_access_cycles,
                ..RmeHwConfig::default()
            };
            // With zero pipeline occupancy a write can tie the slots still
            // holding the previous write's time; tied slots hold the same
            // time, so only which of them is written can differ.
            let occupied = extract_cycles_per_beat > 0 || !revision.has_packer();
            let pl = ClockDomain::new("pl", 100.0);
            let fresh = || FetchUnit::new(cfg, revision, pl, SimTime::from_nanos(200));
            let (_, _, g) = setup(256);
            let mut ring: Vec<FetchUnit> = (0..units).map(|_| fresh()).collect();
            let mut scanned = ring.clone();
            let mut dram_ring = DramModel::new(DramConfig::default());
            let mut dram_scanned = DramModel::new(DramConfig::default());
            for &(row, offset, width, at) in &stream {
                let mut g = g.clone();
                g.columns = vec![ColumnSpec { width, oa_delta: offset.min(64 - width) }];
                let d = descriptor_for(&g, row, row, 0, 16);
                let at = SimTime::from_nanos(at);

                let (u_ref, s_ref, t_ref) = scanned
                    .iter()
                    .enumerate()
                    .flat_map(|(u, fu)| fu.slots.iter().enumerate().map(move |(s, &t)| (u, s, t)))
                    .min_by_key(|&(_, _, t)| t)
                    .unwrap();
                let u = least_loaded(&ring);
                prop_assert_eq!((u, ring[u].earliest_slot()), (u_ref, t_ref));
                if occupied {
                    prop_assert_eq!(ring[u].next_slot, s_ref);
                }

                scanned[u_ref].next_slot = s_ref;
                let want = book(&mut scanned[u_ref], &d, at, &mut dram_scanned);
                let got = book(&mut ring[u], &d, at, &mut dram_ring);
                prop_assert_eq!(got, want);
                for (r, s) in ring.iter().zip(&scanned) {
                    prop_assert_eq!(r.earliest_slot(), first_min(&s.slots).1);
                    prop_assert_eq!(sorted(&r.slots), sorted(&s.slots));
                    if occupied {
                        prop_assert_eq!(&r.slots, &s.slots);
                    }
                }
            }
        }
    }
}
