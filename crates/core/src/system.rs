//! The simulated platform, wired together.
//!
//! [`System`] owns the physical memory, the DRAM timing model (the
//! occupancy-tracked default or the command-level cycle-accurate model,
//! selected by `DramConfig::model`), N cores' cache frontends over one
//! shared L2, and the Relational Memory Engine, and
//! exposes the operations the query layer needs: creating tables,
//! materialising the columnar baseline, registering ephemeral variables
//! (= programming the RME), and running measured scans over any
//! [`ScanSource`].
//!
//! All timing flows through the cache hierarchy: a scan performs one cache
//! access per touched field, misses are filled either by the DRAM
//! controller (normal addresses) or by the RME (ephemeral addresses), and
//! CPU work between accesses is charged from the [`CpuCostModel`].
//!
//! # Multi-core scans
//!
//! A system built with [`SystemConfig`] `{ cores: N }` owns N private L1
//! frontends in front of one shared, banked L2 ([`relmem_cache::SharedL2`]).
//! [`System::scan_sharded`] splits a scan's row range into N contiguous
//! shards, one scan stream per core, and steps the cores through the same
//! deterministic interleaver as the workload schedulers and
//! [`System::scan`], which is its one-shard case: at every step the core
//! with the smallest local clock (ties broken by core index) processes its
//! next *row*, so the whole run is reproducible bit for bit, and a core
//! left alone runs the rest of its shard in one step. The interleaving is
//! conservative at row granularity: a row's whole access chain is
//! simulated before the next core is stepped, so shared-resource bookings
//! from one row may land ahead of a slightly earlier-in-time request of
//! another core's next row — an approximation that is exact at row
//! boundaries and standard for transaction-level models. With
//! `cores == 1` the contention model is bypassed and the sharded scan is
//! [`System::scan`], the same code path.
//!
//! ```
//! use relmem_core::system::{RowEffect, ScanSource, SystemConfig};
//! use relmem_core::System;
//! use relmem_sim::SimTime;
//! use relmem_storage::{DataGen, MvccConfig, Schema};
//!
//! let mut sys = System::with_config(SystemConfig { cores: 4, ..SystemConfig::default() });
//! let schema = Schema::benchmark(4, 4, 64);
//! let mut table = sys.create_table(schema, 10_000, MvccConfig::Disabled).unwrap();
//! DataGen::new(1).fill_table(sys.mem_mut(), &mut table, 10_000).unwrap();
//!
//! let src = ScanSource::Rows { table: &table, columns: &[0, 1], snapshot: None };
//! let run = sys.scan_sharded(&src, SimTime::ZERO, |_core, _row, _values| RowEffect::default());
//! assert_eq!(run.rows, 10_000);
//! assert_eq!(run.per_core.len(), 4);
//! assert!(run.end > SimTime::ZERO);
//! ```

use std::ops::Range;

use relmem_cache::{CoreFrontend, HierarchyStats, MemoryBackend, SharedL2, SharedL2Stats};
use relmem_dram::{DramModel, MemRequest, PhysicalMemory, Requestor};
use relmem_rme::{HwRevision, RmeEngine, TableGeometry};
use relmem_sim::{PlatformConfig, SimTime, Trace, Tracer};
use relmem_storage::{
    ColumnGroup, ColumnarTable, MvccConfig, RowTable, Schema, Snapshot, StorageError,
};

use crate::access_path::AccessPath;
use crate::cost::CpuCostModel;
use crate::ephemeral::EphemeralVariable;
use crate::interleave::Totals;
use crate::measure::QueryMeasurement;
use crate::txn::TxnRuntime;
use crate::workload::StreamState;

/// Base of the (never materialised) ephemeral address region. It is far
/// above any physical allocation so aliases can never collide with real
/// data.
pub(crate) const EPHEMERAL_REGION_BASE: u64 = 1 << 40;

/// What a measured scan iterates over. The variants hold only shared
/// references and copyable metadata, so sources are `Copy` — the workload
/// layer clones them to override MVCC snapshots mid-stream.
#[derive(Clone, Copy)]
pub enum ScanSource<'a> {
    /// The row-major base table; only the named columns are touched.
    Rows {
        /// The table.
        table: &'a RowTable,
        /// Column indices to read, in ascending order.
        columns: &'a [usize],
        /// Snapshot for MVCC visibility filtering (requires an MVCC table).
        snapshot: Option<Snapshot>,
    },
    /// The materialised column-store copy.
    Columnar {
        /// The columnar table.
        table: &'a ColumnarTable,
        /// Column indices to read.
        columns: &'a [usize],
    },
    /// An ephemeral variable served by the RME.
    Ephemeral {
        /// The registered variable.
        var: &'a EphemeralVariable,
    },
}

impl ScanSource<'_> {
    /// Number of values produced per row.
    pub fn num_columns(&self) -> usize {
        match self {
            ScanSource::Rows { columns, .. } | ScanSource::Columnar { columns, .. } => {
                columns.len()
            }
            ScanSource::Ephemeral { var } => var.num_columns(),
        }
    }
}

/// Additional work a row's processing performs, reported by the per-row
/// closure of [`System::scan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowEffect {
    /// Extra CPU time (predicates, aggregation, hashing...).
    pub cpu: SimTime,
    /// An extra memory touch (address, bytes) — e.g. a hash-table bucket.
    /// Always served by the normal DRAM path.
    pub touch: Option<(u64, usize)>,
}

/// Everything needed to build a [`System`], including how many cores it
/// simulates.
///
/// ```
/// use relmem_core::system::SystemConfig;
///
/// // The default is the paper's setup: one active core on a ZCU102.
/// assert_eq!(SystemConfig::default().cores, 1);
/// // Scale out to the full A53 cluster for sharded scans.
/// let quad = SystemConfig { cores: 4, ..SystemConfig::default() };
/// assert_eq!(quad.cores, 4);
/// ```
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Platform (caches, DRAM, PS–PL boundary, RME structure).
    pub platform: PlatformConfig,
    /// RME hardware revision (BSL / PCK / MLP).
    pub revision: HwRevision,
    /// Physical memory size in bytes.
    pub mem_bytes: usize,
    /// Number of simulated cores. `1` reproduces the paper's single-threaded
    /// experiments bit for bit; `> 1` enables the shared-L2 contention model
    /// and [`System::scan_sharded`].
    pub cores: usize,
    /// Kept so configurations that still select the event-driven memory
    /// path compile; it is the only path, and
    /// [`System::with_config`] rejects `false`.
    #[doc(hidden)]
    pub event_driven: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            platform: PlatformConfig::zcu102(),
            revision: HwRevision::Mlp,
            mem_bytes: 64 << 20,
            cores: 1,
            event_driven: true,
        }
    }
}

/// The simulated platform.
///
/// Fields are `pub(crate)` so the sibling `stepper`/`workload` modules can
/// split-borrow the platform.
pub struct System {
    pub(crate) cfg: PlatformConfig,
    pub(crate) cost: CpuCostModel,
    pub(crate) mem: PhysicalMemory,
    pub(crate) dram: DramModel,
    /// Per-core private cache frontends (L1 + prefetcher + MSHRs).
    pub(crate) cores: Vec<CoreFrontend>,
    /// The L2 every core shares (banked; contended when `cores.len() > 1`).
    pub(crate) l2: SharedL2,
    pub(crate) engine: RmeEngine,
    /// Run-scoped transaction machinery (intent table, id/commit-ts
    /// allocators, [`TxnStats`](relmem_sim::TxnStats)); reset by
    /// `run_workload` / `run_open_loop`.
    pub(crate) txn_rt: TxnRuntime,
    ephemeral_cursor: u64,
    /// System-side trace hook: op lifecycle and txn events (core tracks)
    /// plus degradation transitions (system track). A no-op unless
    /// [`Self::set_tracing`] enables recording; timing is never affected.
    pub(crate) tracer: Tracer,
    /// Whether scans run in the reference stepping mode (off by default;
    /// see [`Self::set_reference_stepping`]).
    pub(crate) reference_stepping: bool,
    /// Scan periods fast-forwarded so far (host-side; see
    /// [`Self::fast_forwarded_periods`]).
    pub(crate) fast_forwarded_periods: u64,
}

impl System {
    /// Builds a single-core platform with `mem_bytes` of physical memory
    /// and an RME of the given hardware revision.
    pub fn new(cfg: PlatformConfig, revision: HwRevision, mem_bytes: usize) -> Self {
        System::with_config(SystemConfig {
            platform: cfg,
            revision,
            mem_bytes,
            ..SystemConfig::default()
        })
    }

    /// Builds a platform from a full [`SystemConfig`].
    ///
    /// `config.cores` is the single source of truth for the core count:
    /// it is written back into the platform's `cpu.cores`, so the
    /// resulting [`PlatformConfig`] always describes the cluster actually
    /// simulated (a `cores: 8` system is an 8-core variant of the given
    /// platform, not a ZCU102 with a stale 4-core label).
    ///
    /// # Panics
    /// Panics if `cores` is zero or `event_driven` is `false`.
    pub fn with_config(config: SystemConfig) -> Self {
        assert!(config.cores >= 1, "a system needs at least one core");
        assert!(
            config.event_driven,
            "the event-driven memory path is the only one"
        );
        let mut cfg = config.platform;
        cfg.cpu.cores = config.cores;
        let engine = RmeEngine::new(
            cfg.rme,
            cfg.cdc,
            config.revision,
            cfg.dram.bus_bytes,
            cfg.line_bytes(),
        );
        System {
            mem: PhysicalMemory::new(config.mem_bytes),
            dram: DramModel::new(cfg.dram),
            cores: (0..config.cores)
                .map(|i| CoreFrontend::for_core(&cfg, i))
                .collect(),
            l2: SharedL2::new(&cfg, config.cores),
            engine,
            cost: CpuCostModel::default(),
            cfg,
            txn_rt: TxnRuntime::default(),
            ephemeral_cursor: EPHEMERAL_REGION_BASE,
            tracer: Tracer::new(),
            reference_stepping: false,
            fast_forwarded_periods: 0,
        }
    }

    /// Convenience constructor: default single-core ZCU102 platform.
    pub fn with_revision(revision: HwRevision, mem_bytes: usize) -> Self {
        System::new(PlatformConfig::zcu102(), revision, mem_bytes)
    }

    /// Number of simulated cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// One core's cache counters (its private L1 plus its own share of the
    /// L2 traffic and contention delay).
    ///
    /// # Panics
    /// Panics if `core >= num_cores()`.
    pub fn core_stats(&self, core: usize) -> &HierarchyStats {
        self.cores[core].stats()
    }

    /// Aggregate contention counters of the shared L2 (all cores).
    pub fn l2_stats(&self) -> &SharedL2Stats {
        self.l2.stats()
    }

    /// Per-core attribution of the shared-L2 bank traffic. With one query
    /// stream per core (the workload layer's model) this is per-*stream*
    /// attribution: which stream drove the banks, and which stream paid
    /// the waiting.
    pub fn l2_shares(&self) -> &[relmem_cache::CoreL2Share] {
        self.l2.core_shares()
    }

    /// The DRAM controller's accumulated counters (also part of
    /// [`finish_measurement`](Self::finish_measurement); exposed directly
    /// for the golden-trace suite and ad-hoc inspection).
    pub fn dram_stats(&self) -> &relmem_dram::DramStats {
        self.dram.stats()
    }

    /// Enables or disables trace recording across every component. Off by
    /// default: the hooks compile to one predictable branch per site and
    /// never allocate or borrow timing state, so the untraced hot path is
    /// unchanged. Enabling clears any previously buffered events.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
        for core in &mut self.cores {
            core.tracer_mut().set_enabled(on);
        }
        self.l2.tracer_mut().set_enabled(on);
        self.dram.tracer_mut().set_enabled(on);
        self.engine.tracer_mut().set_enabled(on);
    }

    /// Whether trace recording is currently on.
    pub fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    /// Drains every component's recorded events into one time-sorted
    /// [`Trace`]. Recording stays in whatever state it was; the buffers are
    /// left empty, so consecutive calls partition the run.
    pub fn take_trace(&mut self) -> Trace {
        let mut buffers = Vec::with_capacity(self.cores.len() + 4);
        buffers.push(self.tracer.take());
        for core in &mut self.cores {
            buffers.push(core.tracer_mut().take());
        }
        buffers.push(self.l2.tracer_mut().take());
        buffers.push(self.dram.tracer_mut().take());
        buffers.push(self.engine.tracer_mut().take());
        Trace::merge(buffers)
    }

    /// Which DRAM timing model this system runs
    /// (`SystemConfig.platform.dram.model`): the fast occupancy model —
    /// the default, and the one every golden fixture pins — or the
    /// command-level cycle-accurate model. Scans, sharded scans, HTAP
    /// workloads and the RME fetch path all run unchanged on either.
    pub fn memory_model(&self) -> relmem_sim::MemoryModel {
        self.dram.kind()
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// The CPU cost model in use.
    pub fn cost_model(&self) -> &CpuCostModel {
        &self.cost
    }

    /// Physical memory (read access).
    pub fn mem(&self) -> &PhysicalMemory {
        &self.mem
    }

    /// Physical memory (write access, e.g. for data generation).
    pub fn mem_mut(&mut self) -> &mut PhysicalMemory {
        &mut self.mem
    }

    /// The Relational Memory Engine.
    pub fn engine(&self) -> &RmeEngine {
        &self.engine
    }

    /// Creates a row table in this system's memory.
    pub fn create_table(
        &mut self,
        schema: Schema,
        capacity_rows: u64,
        mvcc: MvccConfig,
    ) -> Result<RowTable, StorageError> {
        RowTable::create(&mut self.mem, schema, capacity_rows, mvcc)
    }

    /// Materialises the column-store baseline copy of a table.
    pub fn materialize_columnar(
        &mut self,
        table: &RowTable,
    ) -> Result<ColumnarTable, StorageError> {
        ColumnarTable::materialize(&mut self.mem, table)
    }

    /// Registers an ephemeral variable over `table` for the given column
    /// group: programs the RME configuration port and returns the handle.
    /// The engine holds a single configuration, so registering a new
    /// variable supersedes the previous one (as reconfiguring the port does
    /// in the prototype).
    pub fn register_ephemeral(
        &mut self,
        table: &RowTable,
        group: ColumnGroup,
        snapshot: Option<Snapshot>,
    ) -> Result<EphemeralVariable, StorageError> {
        group.validate(
            table.schema(),
            self.cfg.rme.max_columns,
            self.cfg.rme.max_column_width,
        )?;
        let visible = EphemeralVariable::visible_rows(table, &self.mem, snapshot)?;
        let visible_count = visible
            .as_ref()
            .map(|v| v.len() as u64)
            .unwrap_or(table.num_rows());
        let packed_row = group.packed_row_bytes(table.schema())? as u64;
        let base = self.ephemeral_cursor;
        let span = (packed_row * visible_count).max(1).div_ceil(4096) * 4096 + 4096;
        self.ephemeral_cursor += span;

        let geometry = TableGeometry::from_schema(
            table.schema(),
            &group,
            table.base_addr(),
            base,
            table.num_rows(),
            table.mvcc(),
            snapshot,
        )?;
        self.engine.configure(geometry, visible)?;
        EphemeralVariable::describe(table.schema(), group, base, visible_count, snapshot)
    }

    /// Prepares a measured run: flushes the caches, resets DRAM and RME
    /// timing state and clears counters. For [`AccessPath::RmeHot`] the
    /// first frame of the currently registered ephemeral variable is
    /// pre-packed into the Reorganization Buffer.
    pub fn begin_measurement(&mut self, path: AccessPath) {
        // Book any frame fetch still in flight *before* the DRAM reset, so
        // its traffic lands in the epoch that caused it and the measured
        // run starts from a settled memory system.
        self.settle_memory();
        for core in &mut self.cores {
            core.flush();
            core.reset_stats();
        }
        self.l2.flush();
        self.l2.reset_stats();
        self.dram.reset();
        match path {
            AccessPath::RmeHot => {
                self.engine.software_reset();
                self.engine.prewarm_frame(0, &self.mem);
                self.engine.reset_timing();
            }
            AccessPath::RmeCold => {
                self.engine.software_reset();
            }
            _ => {
                self.engine.reset_timing();
            }
        }
    }

    /// Settles all outstanding memory traffic: books any frame fetch still
    /// in flight and schedules the cycle-accurate model's buffered writes.
    /// Every scheduler loop ends with this (and every measurement begins
    /// with it), so run totals always include deferred traffic.
    pub fn settle_memory(&mut self) {
        self.engine.finish_pending_fetch(&self.mem, &mut self.dram);
        self.dram.drain_all();
    }

    /// Collects the counters accumulated since the last
    /// [`begin_measurement`](Self::begin_measurement) into a measurement.
    pub fn finish_measurement(
        &self,
        elapsed: SimTime,
        cpu_time: SimTime,
        path: AccessPath,
    ) -> QueryMeasurement {
        let mut cache = HierarchyStats::default();
        for core in &self.cores {
            cache.merge(core.stats());
        }
        QueryMeasurement {
            elapsed,
            cpu_time,
            cache,
            dram: self.dram.stats().clone(),
            rme: if path.uses_rme() {
                self.engine.stats()
            } else {
                relmem_rme::RmeStats::default()
            },
        }
    }

    /// How many scan periods whole scans run by a lone interleaver lane
    /// ([`scan`](Self::scan) always is one) have fast-forwarded over since
    /// this system was built, instead of stepping them row by row.
    ///
    /// This measures the simulator, not the simulated hardware: a
    /// fast-forwarded period produces exactly the timing, counters and
    /// values of a stepped one, so the count appears in no measurement,
    /// golden fixture or trace. Tests use it to show the fast-forward
    /// engaged.
    pub fn fast_forwarded_periods(&self) -> u64 {
        self.fast_forwarded_periods
    }

    /// Switches every scan to the reference stepping mode (off by
    /// default). In it, each projected field is its own hierarchy access
    /// (no line plans), every core's cache frontend walks the full
    /// hierarchy (its line-resident fast path is off) and no scan
    /// fast-forwards. Timing, statistics and
    /// values are identical either way: the mode is the oracle the
    /// equivalence suite holds the optimized stepping to.
    pub fn set_reference_stepping(&mut self, on: bool) {
        self.reference_stepping = on;
        for core in &mut self.cores {
            core.set_fast_path(!on);
        }
    }

    /// Runs a measured scan over `source`, invoking `per_row` for every
    /// (visible) row with the projected values, and returns
    /// `(end_time, cpu_time, rows_scanned)`.
    ///
    /// The closure receives the values of the requested columns (numeric
    /// view) and returns the extra work the row caused. It is called
    /// exactly once per row, in row order.
    ///
    /// The scan runs single-threaded on core 0. On a multi-core system the
    /// shared-L2 bank model stays engaged, so core 0's own prefetches can
    /// collide with its demand lookups (self-contention, a few percent) —
    /// timing there is *not* identical to a `cores = 1` system, which
    /// bypasses bank occupancy entirely for fidelity to the paper's
    /// single-threaded setup. Use `cores = 1` for paper-faithful
    /// single-threaded measurements; `multicore.rs` pins this distinction.
    ///
    /// The scan is one lane of the crate's interleaver (the scheduler loop
    /// behind [`scan_sharded`](Self::scan_sharded) and the workload
    /// schedulers) that is alone from its first row, so it runs all its
    /// rows in one step through `ScanJob::step_rows`
    /// (`crates/core/src/stepper.rs`): per-column cursors, the per-row CPU
    /// charge and — for row layouts — the line-granular step plans are
    /// computed once per scan, and each row then advances whole-line runs
    /// of fields through one hierarchy walk each. A recording tracer sees
    /// one `OpSpan` on core 0 for a non-empty scan.
    ///
    /// # Periodic fast-forward
    ///
    /// Direct scans without an MVCC snapshot and unfiltered ephemeral
    /// scans are cut into periods. A direct scan's period is the smallest
    /// row count whose byte advance is a multiple of every model's
    /// address-translation period; the advance per row is the row stride
    /// of a row table and the column width of a columnar table, whose
    /// projected columns must then share one width. An ephemeral scan's
    /// period is one Reorganization Buffer frame. Once the timing
    /// state at a period start equals the previous period start's moved by
    /// one period, the periods up to the last run only their functional
    /// part — values gathered from source memory, the closure called, its
    /// effects checked against the previous period's — and the clock, CPU
    /// time and every counter advance arithmetically; the last period is
    /// always stepped. The result is identical to stepping every row (the
    /// `skip_vs_step` proptest in `tests/cross_path_equivalence.rs` holds
    /// it to the [reference stepping mode](Self::set_reference_stepping)).
    /// A recording tracer, the reference stepping mode, MVCC visibility, a
    /// columnar projection of mixed widths, effects with a memory `touch`,
    /// the cycle-accurate DRAM model or any state difference keep the scan
    /// stepping row by row;
    /// [`fast_forwarded_periods`](Self::fast_forwarded_periods) counts the
    /// periods skipped. `docs/ARCHITECTURE.md` ("Periodic fast-forward")
    /// gives the invariant.
    pub fn scan<F>(
        &mut self,
        source: &ScanSource<'_>,
        start: SimTime,
        mut per_row: F,
    ) -> (SimTime, SimTime, u64)
    where
        F: FnMut(u64, &[u64]) -> RowEffect,
    {
        let (totals, _) = self.scan_shards(source, start, 1, |_, row, values| per_row(row, values));
        (totals.end, totals.cpu, totals.rows)
    }

    /// Runs `source` split into `shards` contiguous shards, one scan lane
    /// per shard on cores `0..shards`, through the crate's interleaver.
    /// Returns the run's totals and each shard's row range with its
    /// drained lane.
    fn scan_shards<'a, F>(
        &mut self,
        source: &ScanSource<'a>,
        start: SimTime,
        shards: usize,
        mut per_row: F,
    ) -> (Totals, Vec<(Range<u64>, StreamState<'a, 'a>)>)
    where
        F: FnMut(usize, u64, &[u64]) -> RowEffect,
    {
        let ranges = shard_ranges(self.scan_job(source).rows(), shards);
        let mut lanes: Vec<StreamState<'a, 'a>> = ranges
            .iter()
            .map(|rows| {
                let mut st = StreamState::fresh(&[], start);
                if !rows.is_empty() {
                    st.begin_scan(self.scan_job(source), rows.clone(), 0);
                }
                st
            })
            .collect();
        let totals = self.interleave(&mut lanes, |sys, core, st, bound| {
            sys.step_scan(core, st, bound, &mut |core, _op, row, values| {
                per_row(core, row, values)
            });
        });
        (totals, ranges.into_iter().zip(lanes).collect())
    }
}

/// Normal-route backend: L2 misses go straight to the DRAM controller,
/// attributed to the issuing core.
pub(crate) struct DramBackend<'a> {
    pub(crate) dram: &'a mut DramModel,
    pub(crate) line_bytes: usize,
    pub(crate) core: usize,
}

impl MemoryBackend for DramBackend<'_> {
    fn fill_line(&mut self, line_addr: u64, ready: SimTime) -> SimTime {
        self.dram
            .access(
                MemRequest::new(line_addr, self.line_bytes, ready)
                    .with_requestor(Requestor::Core(self.core)),
            )
            .finish
    }

    fn writeback_line(&mut self, line_addr: u64, ready: SimTime) {
        self.dram.post_write(
            MemRequest::new(line_addr, self.line_bytes, ready)
                .with_requestor(Requestor::Core(self.core))
                .as_write(),
        );
    }
}

/// Ephemeral-route backend: L2 misses are served by the RME, which fetches
/// from `dram.dram`; writebacks go to DRAM through `dram`, attributed to
/// the issuing core.
pub(crate) struct RmeBackend<'a> {
    pub(crate) engine: &'a mut RmeEngine,
    pub(crate) mem: &'a PhysicalMemory,
    pub(crate) dram: DramBackend<'a>,
}

impl MemoryBackend for RmeBackend<'_> {
    fn fill_line(&mut self, line_addr: u64, ready: SimTime) -> SimTime {
        self.engine
            .serve_line(line_addr, ready, self.mem, self.dram.dram)
    }

    fn writeback_line(&mut self, line_addr: u64, ready: SimTime) {
        self.dram.writeback_line(line_addr, ready);
    }

    fn prefetchable(&self, line_addr: u64) -> bool {
        self.engine.line_is_prefetchable(line_addr)
    }
}

// ---------------------------------------------------------------------------
// Sharded multi-core scans
// ---------------------------------------------------------------------------

/// One core's outcome of a [`System::scan_sharded`] run.
#[derive(Debug, Clone)]
pub struct CoreScan {
    /// Core index.
    pub core: usize,
    /// First row of this core's shard.
    pub first_row: u64,
    /// Rows of the shard (before MVCC visibility filtering).
    pub shard_rows: u64,
    /// Rows actually scanned (visible rows processed by the closure).
    pub rows: u64,
    /// This core's local completion time.
    pub end: SimTime,
    /// CPU time this core charged.
    pub cpu: SimTime,
    /// This core's cache counters for the whole measurement window —
    /// including its `l2_contention_delay`, which is where shared-L2
    /// contention becomes visible per core.
    pub cache: HierarchyStats,
}

/// Outcome of a [`System::scan_sharded`] run: the aggregate plus one
/// [`CoreScan`] per core.
#[derive(Debug, Clone)]
pub struct ShardedScan {
    /// Completion of the slowest core (the scan's makespan).
    pub end: SimTime,
    /// Total CPU time across cores.
    pub cpu: SimTime,
    /// Total rows scanned across cores.
    pub rows: u64,
    /// Per-core results, indexed by core.
    pub per_core: Vec<CoreScan>,
}

/// Splits `rows` into `cores` contiguous shards, the first `rows % cores`
/// of them one row larger — every row lands in exactly one shard even when
/// the core count does not divide the row count.
fn shard_ranges(rows: u64, cores: usize) -> Vec<Range<u64>> {
    let n = cores as u64;
    let base = rows / n;
    let extra = rows % n;
    let mut ranges = Vec::with_capacity(cores);
    let mut lo = 0u64;
    for i in 0..n {
        let len = base + u64::from(i < extra);
        ranges.push(lo..lo + len);
        lo += len;
    }
    ranges
}

impl System {
    /// Runs a measured scan over `source` sharded across every simulated
    /// core: the row range is split into `num_cores()` contiguous shards,
    /// each core scans its shard as one stream, and the crate's
    /// interleaver steps the cores one row at a time in smallest-local-clock
    /// order (see the module docs). `per_row` is invoked as
    /// `(core, row, values)` for every visible row.
    ///
    /// With one core this is exactly [`scan`](Self::scan): the same
    /// one-lane interleave, run to its end in one step. With several cores
    /// the scans proceed concurrently in simulated time and contend on the
    /// shared L2 banks, the DRAM controller and (for ephemeral sources) the
    /// RME; a core whose rivals have all finished runs the rest of its
    /// shard in one step. A recording trace sink sees one `OpSpan` per
    /// non-empty shard.
    ///
    /// For ephemeral sources the schedule is *frame-aware*: the cores
    /// share one Reorganization Buffer holding a single resident frame, so
    /// each step picks the smallest-clock core whose next row lies in the
    /// resident frame and only falls back to the global minimum-clock core
    /// (forcing a frame turnover) when no core has work left there. This
    /// bounds frame fetches at O(cores × frames). With one core the
    /// schedule degenerates to plain row order.
    pub fn scan_sharded<F>(
        &mut self,
        source: &ScanSource<'_>,
        start: SimTime,
        per_row: F,
    ) -> ShardedScan
    where
        F: FnMut(usize, u64, &[u64]) -> RowEffect,
    {
        let (totals, lanes) = self.scan_shards(source, start, self.cores.len(), per_row);
        let per_core = lanes
            .into_iter()
            .enumerate()
            .map(|(core, (rows, st))| CoreScan {
                core,
                first_row: rows.start,
                shard_rows: rows.end - rows.start,
                rows: st.rows,
                end: st.now,
                cpu: st.cpu,
                cache: *self.cores[core].stats(),
            })
            .collect();
        ShardedScan {
            end: totals.end,
            cpu: totals.cpu,
            rows: totals.rows,
            per_core,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmem_storage::DataGen;

    fn build_system(rows: u64) -> (System, RowTable) {
        let mut sys = System::with_revision(HwRevision::Mlp, 64 << 20);
        let schema = Schema::benchmark(8, 4, 64);
        let mut table = sys
            .create_table(schema, rows, MvccConfig::Disabled)
            .unwrap();
        DataGen::new(1)
            .fill_table(sys.mem_mut(), &mut table, rows)
            .unwrap();
        (sys, table)
    }

    fn sum_column(sys: &mut System, source: &ScanSource<'_>, path: AccessPath) -> (u64, SimTime) {
        sys.begin_measurement(path);
        let mut sum = 0u64;
        let (end, _cpu, _) = sys.scan(source, SimTime::ZERO, |_, values| {
            sum = sum.wrapping_add(values[0]);
            RowEffect {
                cpu: sys_cost_aggregate(),
                touch: None,
            }
        });
        (sum, end)
    }

    fn sys_cost_aggregate() -> SimTime {
        CpuCostModel::default().aggregate()
    }

    #[test]
    fn all_paths_compute_the_same_sum() {
        let (mut sys, table) = build_system(2_000);
        let columns = [0usize];

        let rows_src = ScanSource::Rows {
            table: &table,
            columns: &columns,
            snapshot: None,
        };
        let (sum_rows, t_rows) = sum_column(&mut sys, &rows_src, AccessPath::DirectRowWise);

        let columnar = sys.materialize_columnar(&table).unwrap();
        let col_src = ScanSource::Columnar {
            table: &columnar,
            columns: &columns,
        };
        let (sum_cols, _) = sum_column(&mut sys, &col_src, AccessPath::DirectColumnar);

        let var = sys
            .register_ephemeral(&table, ColumnGroup::new(vec![0]).unwrap(), None)
            .unwrap();
        let eph_src = ScanSource::Ephemeral { var: &var };
        let (sum_cold, t_cold) = sum_column(&mut sys, &eph_src, AccessPath::RmeCold);
        let (sum_hot, t_hot) = sum_column(&mut sys, &eph_src, AccessPath::RmeHot);

        assert_eq!(sum_rows, sum_cols);
        assert_eq!(sum_rows, sum_cold);
        assert_eq!(sum_rows, sum_hot);
        assert!(
            t_hot <= t_cold,
            "hot ({t_hot}) should not exceed cold ({t_cold})"
        );
        assert!(t_rows > SimTime::ZERO && t_cold > SimTime::ZERO);
    }

    #[test]
    fn rme_cold_beats_direct_row_wise_for_a_narrow_projection() {
        // The headline claim of the paper: accessing one 4-byte column of a
        // 64-byte-row table through the (MLP) RME is faster than scanning
        // the rows directly, even when the Reorganization Buffer is cold.
        let (mut sys, table) = build_system(20_000);
        let columns = [0usize];
        let rows_src = ScanSource::Rows {
            table: &table,
            columns: &columns,
            snapshot: None,
        };
        let (_, t_rows) = sum_column(&mut sys, &rows_src, AccessPath::DirectRowWise);

        let var = sys
            .register_ephemeral(&table, ColumnGroup::new(vec![0]).unwrap(), None)
            .unwrap();
        let eph_src = ScanSource::Ephemeral { var: &var };
        let (_, t_cold) = sum_column(&mut sys, &eph_src, AccessPath::RmeCold);

        assert!(
            t_cold < t_rows,
            "RME cold ({t_cold}) should beat direct row-wise ({t_rows})"
        );
    }

    #[test]
    fn mvcc_scan_skips_invisible_rows() {
        let mut sys = System::with_revision(HwRevision::Mlp, 16 << 20);
        let schema = Schema::benchmark(4, 8, 64);
        let mut table = sys.create_table(schema, 100, MvccConfig::Enabled).unwrap();
        DataGen::new(2)
            .fill_table(sys.mem_mut(), &mut table, 100)
            .unwrap();
        for row in 0..50 {
            table.mark_deleted(sys.mem_mut(), row, 5).unwrap();
        }
        let columns = [0usize];
        let src = ScanSource::Rows {
            table: &table,
            columns: &columns,
            snapshot: Some(Snapshot::at(10)),
        };
        sys.begin_measurement(AccessPath::DirectRowWise);
        let (_, _, rows) = sys.scan(&src, SimTime::ZERO, |_, _| RowEffect::default());
        assert_eq!(rows, 50);

        // And through the RME, with the same snapshot.
        let var = sys
            .register_ephemeral(
                &table,
                ColumnGroup::new(vec![0]).unwrap(),
                Some(Snapshot::at(10)),
            )
            .unwrap();
        assert_eq!(var.rows(), 50);
        let eph = ScanSource::Ephemeral { var: &var };
        sys.begin_measurement(AccessPath::RmeCold);
        let (_, _, rme_rows) = sys.scan(&eph, SimTime::ZERO, |_, _| RowEffect::default());
        assert_eq!(rme_rows, 50);
    }

    #[test]
    fn measurements_capture_counters() {
        let (mut sys, table) = build_system(500);
        let columns = [0usize, 3];
        let src = ScanSource::Rows {
            table: &table,
            columns: &columns,
            snapshot: None,
        };
        sys.begin_measurement(AccessPath::DirectRowWise);
        let (end, cpu, _) = sys.scan(&src, SimTime::ZERO, |_, _| RowEffect::default());
        let m = sys.finish_measurement(end, cpu, AccessPath::DirectRowWise);
        assert!(m.cache.l1.requests >= 1_000);
        assert!(m.dram.accesses > 0);
        assert!(m.cpu_time > SimTime::ZERO);
        assert!(m.data_time() > SimTime::ZERO);
        assert_eq!(m.rme, relmem_rme::RmeStats::default());
    }
}
