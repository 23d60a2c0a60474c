//! Standalone layer probes: each drives one layer's public entry point
//! directly on a workload's own address stream, with nothing else in the
//! loop, and reports host nanoseconds per request. They run only in the
//! traced run, after the measured passes, so they never inflate `run_s`.

use std::time::Instant;

use relational_memory::cache::{CacheHierarchy, FixedLatencyBackend};
use relational_memory::dram::{DramModel, MemRequest, PhysicalMemory};
use relational_memory::rme::{HwRevision, RmeEngine, TableGeometry};
use relational_memory::sim::{MemoryModel, PlatformConfig, SimTime};
use relational_memory::storage::{ColumnGroup, RowTable};

use crate::metrics::{ratio, Metrics};
use crate::spans::Spans;

/// Where the probes' ephemeral range starts (far above any allocation).
const EPHEMERAL_BASE: u64 = 1 << 40;
/// Fill latency of the fixed-latency backend behind the cache probe.
const FILL_LATENCY_NS: u64 = 100;
/// Frames of the projection the RME probe serves.
const RME_PROBE_FRAMES: u64 = 2;

/// One workload's input to the probes.
pub struct ProbeInput<'a> {
    pub cfg: &'a PlatformConfig,
    pub mem: &'a PhysicalMemory,
    /// The CPU-side access stream, as `(address, bytes)`.
    pub accesses: Vec<(u64, usize)>,
    /// The table and column group the workload projects through the RME
    /// (or would, for a workload that bypasses it).
    pub rme_table: &'a RowTable,
    pub rme_columns: Vec<usize>,
}

/// The CPU-side field addresses of scanning `columns` over the first
/// `rows` rows of `table`, repeated `passes` times.
pub fn field_stream(
    table: &RowTable,
    columns: &[usize],
    rows: u64,
    passes: u64,
) -> Vec<(u64, usize)> {
    let schema = table.schema();
    let widths: Vec<usize> = columns
        .iter()
        .map(|&c| schema.width(c).expect("probe columns exist"))
        .collect();
    let rows = rows.min(table.num_rows());
    let mut out = Vec::with_capacity((rows * passes) as usize * columns.len());
    for _ in 0..passes {
        for row in 0..rows {
            for (&c, &w) in columns.iter().zip(&widths) {
                out.push((table.field_addr(row, c).expect("probe rows exist"), w));
            }
        }
    }
    out
}

/// Runs every probe and returns its `*.host_ns_per_*` metrics.
pub fn run(input: &ProbeInput<'_>, spans: &mut Spans) -> Metrics {
    let mut out = Metrics::new();
    let cfg = input.cfg;
    let line = cfg.line_bytes() as u64;

    // cache: the L1/L2 hierarchy in front of a fixed-latency memory.
    let open = spans.enter("probe.cache");
    let mut hierarchy = CacheHierarchy::new(cfg);
    let mut backend = FixedLatencyBackend::new(SimTime::from_nanos(FILL_LATENCY_NS));
    let t = Instant::now();
    let mut now = SimTime::ZERO;
    for &(addr, bytes) in &input.accesses {
        now = hierarchy.access(addr, bytes, now, &mut backend).completion;
    }
    let elapsed = t.elapsed().as_nanos() as f64;
    std::hint::black_box(now);
    spans.exit(open);
    out.insert(
        "cache.host_ns_per_access",
        ratio(elapsed, input.accesses.len() as f64),
    );

    // dram: the distinct line stream, issued at bus rate, on both models.
    let mut lines: Vec<u64> = input
        .accesses
        .iter()
        .map(|&(a, _)| a / line * line)
        .collect();
    lines.dedup();
    let gap = cfg.dram.transfer_time(line as usize);
    for (model, name, span) in [
        (
            MemoryModel::Occupancy,
            "dram.occupancy.host_ns_per_req",
            "probe.dram.occupancy",
        ),
        (
            MemoryModel::CycleAccurate,
            "dram.cycle_accurate.host_ns_per_req",
            "probe.dram.cycle_accurate",
        ),
    ] {
        let open = spans.enter(span);
        let mut dram_cfg = cfg.dram;
        dram_cfg.model = model;
        let mut dram = DramModel::new(dram_cfg);
        let t = Instant::now();
        let mut ready = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        for &addr in &lines {
            last = dram
                .access(MemRequest::new(addr, line as usize, ready))
                .finish;
            ready += gap;
        }
        let elapsed = t.elapsed().as_nanos() as f64;
        std::hint::black_box(last);
        spans.exit(open);
        out.insert(name, ratio(elapsed, lines.len() as f64));
    }

    // rme: configure + serve every packed line of the first frames.
    let open = spans.enter("probe.rme");
    let (ns_per_line, ns_per_descriptor) = rme_probe(input);
    spans.exit(open);
    out.insert("rme.host_ns_per_line", ns_per_line);
    out.insert("rme.host_ns_per_descriptor", ns_per_descriptor);
    out
}

/// Serves the packed projection of `input.rme_table` line by line through
/// a freshly configured engine, the event-driven way the system runs it.
fn rme_probe(input: &ProbeInput<'_>) -> (f64, f64) {
    let cfg = input.cfg;
    let table = input.rme_table;
    let group = ColumnGroup::new(input.rme_columns.clone()).expect("probe column group is valid");
    let packed_row = group
        .packed_row_bytes(table.schema())
        .expect("probe column group fits the schema") as u64;
    let rows_per_frame = (cfg.rme.data_spm_bytes as u64 / packed_row).max(1);
    let rows = table.num_rows().min(RME_PROBE_FRAMES * rows_per_frame);
    let geometry = TableGeometry::from_schema(
        table.schema(),
        &group,
        table.base_addr(),
        EPHEMERAL_BASE,
        rows,
        table.mvcc(),
        None,
    )
    .expect("probe geometry is valid");
    let line = cfg.line_bytes() as u64;
    let lines = (rows * packed_row).div_ceil(line);

    let t = Instant::now();
    let mut engine = RmeEngine::new(
        cfg.rme,
        cfg.cdc,
        HwRevision::Mlp,
        cfg.dram.bus_bytes,
        cfg.line_bytes(),
    );
    engine.set_incremental(true);
    engine
        .configure(geometry, None)
        .expect("probe configuration is valid");
    let mut dram = DramModel::new(cfg.dram);
    dram.set_event_driven(true);
    let mut ready = SimTime::ZERO;
    for i in 0..lines {
        ready = engine.serve_line(EPHEMERAL_BASE + i * line, ready, input.mem, &mut dram);
    }
    engine.finish_pending_fetch(input.mem, &mut dram);
    dram.drain_all();
    let elapsed = t.elapsed().as_nanos() as f64;
    std::hint::black_box(ready);
    let descriptors = engine.stats().descriptors as f64;
    (ratio(elapsed, lines as f64), ratio(elapsed, descriptors))
}
