//! Metric names and units, simulated-counter tallies, output checks and the
//! one-line JSON report.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use relational_memory::cache::HierarchyStats;
use relational_memory::core::QueryMeasurement;
use relational_memory::dram::DramStats;
use relational_memory::rme::RmeStats;
use relational_memory::sim::{LatencyProfile, OverloadStats, TxnStats};

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed by every traced run. A metric a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // storage: data generation and the columnar copy (host time, set-up).
    ("storage.fill_s", "s"),
    ("storage.fill_ns_per_row", "ns"),
    ("storage.columnar_s", "s"),
    // core: host time of the measured calls, from spans.
    ("core.register_s", "s"),
    ("core.scan_row_s", "s"),
    ("core.scan_columnar_s", "s"),
    ("core.scan_rme_cold_s", "s"),
    ("core.host_ns_per_field.row", "ns"),
    ("core.host_ns_per_field.columnar", "ns"),
    ("core.host_ns_per_field.rme_cold", "ns"),
    ("core.closed_loop_s", "s"),
    ("core.open_loop_s", "s"),
    // core: simulated transaction, admission and OLTP-latency counts.
    ("core.txn.begun", "count"),
    ("core.txn.committed", "count"),
    ("core.txn.aborted", "count"),
    ("core.txn.abort_ratio", "ratio"),
    ("core.openloop.arrivals", "count"),
    ("core.openloop.admitted", "count"),
    ("core.openloop.shed", "count"),
    ("core.openloop.timed_out", "count"),
    ("core.openloop.retries", "count"),
    ("core.openloop.degraded_ops", "count"),
    ("core.openloop.shed_ratio", "ratio"),
    ("core.oltp.sim_p50_ns", "ns"),
    ("core.oltp.sim_p99_ns", "ns"),
    // cache: simulated counters plus the standalone host-time probe.
    ("cache.l1.requests", "count"),
    ("cache.l1.miss_ratio", "ratio"),
    ("cache.l2.requests", "count"),
    ("cache.l2.miss_ratio", "ratio"),
    ("cache.backend_fills", "count"),
    ("cache.prefetches_issued", "count"),
    ("cache.prefetch_hit_ratio", "ratio"),
    ("cache.l2_contention_delay_ns", "ns"),
    ("cache.host_ns_per_access", "ns"),
    // dram: simulated counters plus one probe per timing model.
    ("dram.accesses", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.bytes_transferred", "bytes"),
    ("dram.writes", "count"),
    ("dram.writebacks", "count"),
    ("dram.rme_accesses", "count"),
    ("dram.refreshes", "count"),
    ("dram.tfaw_stalls", "count"),
    ("dram.queue_stalls", "count"),
    ("dram.avg_queue_occupancy", "requests"),
    ("dram.fr_fcfs_reorders", "count"),
    ("dram.occupancy.host_ns_per_req", "ns"),
    ("dram.cycle_accurate.host_ns_per_req", "ns"),
    // rme: simulated counters plus the standalone host-time probe.
    ("rme.frames_fetched", "count"),
    ("rme.descriptors", "count"),
    ("rme.buffer_hits", "count"),
    ("rme.buffer_misses", "count"),
    ("rme.dram_beats", "count"),
    ("rme.useful_bytes", "bytes"),
    ("rme.useful_ratio", "ratio"),
    ("rme.host_ns_per_line", "ns"),
    ("rme.host_ns_per_descriptor", "ns"),
    // sim: the modelled result (simulated time), exact across runs.
    ("sim.elapsed_ns.q0.row", "ns"),
    ("sim.elapsed_ns.q0.columnar", "ns"),
    ("sim.elapsed_ns.q1.row", "ns"),
    ("sim.elapsed_ns.q1.columnar", "ns"),
    ("sim.elapsed_ns.q1.rme_cold", "ns"),
    ("sim.elapsed_ns.q1_warm.row", "ns"),
    ("sim.elapsed_ns.q2.row", "ns"),
    ("sim.elapsed_ns.q2.columnar", "ns"),
    ("sim.elapsed_ns.q3.row", "ns"),
    ("sim.elapsed_ns.q3.columnar", "ns"),
    ("sim.elapsed_ns.q4.row", "ns"),
    ("sim.elapsed_ns.q4.columnar", "ns"),
    ("sim.elapsed_ns.q5.row", "ns"),
    ("sim.elapsed_ns.q5.columnar", "ns"),
    ("sim.elapsed_ns.htap_closed.mixed", "ns"),
    ("sim.elapsed_ns.htap_open.mixed", "ns"),
    ("sim.rme_vs_row_speedup", "x"),
    ("sim.rme_vs_columnar_speedup", "x"),
    // trace: what recording the spans costs.
    ("trace.overhead_frac", "ratio"),
];

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest of `values` (0 when empty).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Simulated counters summed over every measured call of one pass.
#[derive(Default)]
pub struct Tally {
    pub cache: HierarchyStats,
    pub dram: DramStats,
    pub rme: RmeStats,
    pub txn: TxnStats,
    pub overload: OverloadStats,
    pub oltp: LatencyProfile,
}

impl Tally {
    pub fn add_measurement(&mut self, m: &QueryMeasurement) {
        self.cache.merge(&m.cache);
        self.add_dram(&m.dram);
        self.add_rme(&m.rme);
    }

    pub fn add_dram(&mut self, d: &DramStats) {
        let t = &mut self.dram;
        t.accesses += d.accesses;
        t.row_hits += d.row_hits;
        t.row_misses += d.row_misses;
        t.bytes_transferred += d.bytes_transferred;
        t.beats += d.beats;
        t.rme_accesses += d.rme_accesses;
        t.writes += d.writes;
        t.refreshes += d.refreshes;
        t.tfaw_stalls += d.tfaw_stalls;
        t.queue_stalls += d.queue_stalls;
        t.queue_occupancy_sum += d.queue_occupancy_sum;
        t.writebacks += d.writebacks;
        t.fr_fcfs_reorders += d.fr_fcfs_reorders;
    }

    pub fn add_rme(&mut self, r: &RmeStats) {
        let t = &mut self.rme;
        t.buffer_hits += r.buffer_hits;
        t.buffer_misses += r.buffer_misses;
        t.frames_fetched += r.frames_fetched;
        t.descriptors += r.descriptors;
        t.dram_beats += r.dram_beats;
        t.useful_bytes += r.useful_bytes;
    }

    pub fn add_txn(&mut self, s: &TxnStats) {
        let t = &mut self.txn;
        t.begun += s.begun;
        t.committed += s.committed;
        t.aborted_conflict += s.aborted_conflict;
        t.aborted_shed += s.aborted_shed;
    }

    pub fn add_overload(&mut self, s: &OverloadStats) {
        let t = &mut self.overload;
        t.arrivals += s.arrivals;
        t.retries += s.retries;
        t.admitted += s.admitted;
        t.shed_queue_full += s.shed_queue_full;
        t.shed_deadline += s.shed_deadline;
        t.timed_out += s.timed_out;
        t.completed += s.completed;
        t.degraded_ops += s.degraded_ops;
    }

    /// Writes the `cache.*`, `dram.*`, `rme.*` and simulated `core.*`
    /// counters into `out`.
    pub fn write(mut self, bus_bytes: usize, out: &mut Metrics) {
        let c = &self.cache;
        out.insert("cache.l1.requests", c.l1.requests as f64);
        out.insert("cache.l1.miss_ratio", c.l1.miss_ratio());
        out.insert("cache.l2.requests", c.l2.requests as f64);
        out.insert("cache.l2.miss_ratio", c.l2.miss_ratio());
        out.insert("cache.backend_fills", c.backend_fills as f64);
        out.insert("cache.prefetches_issued", c.prefetches_issued as f64);
        out.insert(
            "cache.prefetch_hit_ratio",
            ratio(c.prefetch_hits as f64, c.prefetches_issued as f64),
        );
        out.insert(
            "cache.l2_contention_delay_ns",
            c.l2_contention_delay.as_nanos_f64(),
        );

        let d = &self.dram;
        out.insert("dram.accesses", d.accesses as f64);
        out.insert("dram.row_hit_rate", d.row_hit_rate());
        out.insert("dram.bytes_transferred", d.bytes_transferred as f64);
        out.insert("dram.writes", d.writes as f64);
        out.insert("dram.writebacks", d.writebacks as f64);
        out.insert("dram.rme_accesses", d.rme_accesses as f64);
        out.insert("dram.refreshes", d.refreshes as f64);
        out.insert("dram.tfaw_stalls", d.tfaw_stalls as f64);
        out.insert("dram.queue_stalls", d.queue_stalls as f64);
        out.insert("dram.avg_queue_occupancy", d.avg_queue_occupancy());
        out.insert("dram.fr_fcfs_reorders", d.fr_fcfs_reorders as f64);

        let r = &self.rme;
        out.insert("rme.frames_fetched", r.frames_fetched as f64);
        out.insert("rme.descriptors", r.descriptors as f64);
        out.insert("rme.buffer_hits", r.buffer_hits as f64);
        out.insert("rme.buffer_misses", r.buffer_misses as f64);
        out.insert("rme.dram_beats", r.dram_beats as f64);
        out.insert("rme.useful_bytes", r.useful_bytes as f64);
        out.insert("rme.useful_ratio", r.efficiency(bus_bytes));

        let t = &self.txn;
        let aborted = t.aborted_conflict + t.aborted_shed;
        out.insert("core.txn.begun", t.begun as f64);
        out.insert("core.txn.committed", t.committed as f64);
        out.insert("core.txn.aborted", aborted as f64);
        out.insert(
            "core.txn.abort_ratio",
            ratio(aborted as f64, t.begun as f64),
        );

        let o = &self.overload;
        out.insert("core.openloop.arrivals", o.arrivals as f64);
        out.insert("core.openloop.admitted", o.admitted as f64);
        out.insert("core.openloop.shed", o.shed() as f64);
        out.insert("core.openloop.timed_out", o.timed_out as f64);
        out.insert("core.openloop.retries", o.retries as f64);
        out.insert("core.openloop.degraded_ops", o.degraded_ops as f64);
        out.insert("core.openloop.shed_ratio", o.shed_rate());

        if self.oltp.count() > 0 {
            out.insert("core.oltp.sim_p50_ns", self.oltp.p50().as_nanos_f64());
            out.insert("core.oltp.sim_p99_ns", self.oltp.p99().as_nanos_f64());
        }
    }
}

/// Output checks, counted rather than asserted: a failed check makes the
/// run report `"correct": false` and is never a panic.
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Inverts the outcome of the first check, to prove a broken check is
    /// counted as failed.
    break_first: bool,
}

impl Checks {
    pub fn new(break_first: bool) -> Self {
        Checks {
            attempted: 0,
            failed: 0,
            break_first,
        }
    }

    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        let ok = ok != (self.break_first && self.attempted == 0);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, got: T, want: T, what: &str) {
        let ok = got == want;
        self.expect(ok, || format!("{what}: got {got:?}, want {want:?}"));
    }
}

/// The benchmark's last line of output.
pub fn report_json(checks: &Checks, units: &[(&str, &str)], values: &Metrics) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in units.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    )
}
