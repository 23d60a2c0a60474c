//! Simulator-throughput micro-benchmark: simulated field accesses per
//! wall-clock second through `System::scan`, optimized stepping vs. the
//! reference stepping mode (`System::set_reference_stepping`: per-field
//! accesses, the full cache walk, no fast-forward) on the same system and
//! table, with identical simulated output and counters asserted between
//! the two.
//!
//! This measures the *simulator*, not the modelled hardware: the number is
//! how fast experiments run, and it gates how large the scaling sweeps
//! (Figure 13 and beyond) can grow. Results are printed and written to
//! `BENCH_scan_throughput.json` at the workspace root so successive PRs
//! can track the trajectory. The single-core record also carries the
//! simulated end time and the number of scan periods one optimized pass
//! fast-forwarded over: both depend on the simulator alone, and the bench
//! asserts the fast-forward engaged. So the single-core table must span
//! five scan periods (40,960 rows on the default platform), as the
//! `--quick` one does.
//!
//! ```text
//! cargo bench -p relmem-bench --bench scan_throughput \
//!     [-- --rows N] [-- --quick] [-- --cores N] [-- --model ca]
//! ```
//!
//! With `--cores N` (N > 1) the bench switches to the *multi-core sharded*
//! variant: the same table is scanned by `System::scan_sharded` on an
//! N-core system and by `System::scan` on a 1-core system, and the report
//! compares aggregate **simulated** throughput (fields per simulated
//! second) — the scaling number the shared-L2 contention model produces —
//! alongside the wall-clock simulator rate. Results go to
//! `BENCH_scan_throughput.cores<N>[.quick].json`.
//!
//! With `--model ca` the bench runs the same scan on the *cycle-accurate*
//! DRAM model (`DramConfig::model = MemoryModel::CycleAccurate`) beside the
//! default occupancy model: reported are the simulator's wall rate under
//! each model (the fidelity/speed trade), the simulated-time delta, and the
//! command-level counters (refreshes, tFAW stalls, queue occupancy) only
//! the cycle-accurate model produces. Results go to
//! `BENCH_scan_throughput.ca[.quick].json`.
//!
//! Every emitted `BENCH_*.json` carries the wall-clock spread across the
//! repetitions (mean/min/max/stddev seconds); rates keep using the best
//! (minimum) repetition, as before.

use std::time::Instant;

use relmem_cache::HierarchyStats;
use relmem_core::system::{RowEffect, ScanSource, SystemConfig};
use relmem_core::{AccessPath, System};
use relmem_dram::DramStats;
use relmem_sim::{MemoryModel, SimTime};
use relmem_storage::{DataGen, MvccConfig, RowTable, Schema};

/// Everything one scan pass simulated, apart from its wall time: two
/// passes over the same input must compare equal.
#[derive(Debug, PartialEq)]
struct Simulated {
    end: SimTime,
    cpu: SimTime,
    rows: u64,
    checksum: u64,
    cache: HierarchyStats,
    dram: DramStats,
}

/// One timed pass from a fresh measurement. `scan` runs the scan and
/// returns `(end, cpu, rows, checksum)`. Returns the wall seconds, what
/// the pass simulated and how many scan periods it fast-forwarded over.
fn timed_pass<F>(sys: &mut System, scan: F) -> (f64, Simulated, u64)
where
    F: FnOnce(&mut System) -> (SimTime, SimTime, u64, u64),
{
    sys.begin_measurement(AccessPath::DirectRowWise);
    let periods = sys.fast_forwarded_periods();
    let started = Instant::now();
    let (end, cpu, rows, checksum) = scan(sys);
    let secs = started.elapsed().as_secs_f64();
    let m = sys.finish_measurement(end, cpu, AccessPath::DirectRowWise);
    let simulated = Simulated {
        end,
        cpu,
        rows,
        checksum,
        cache: m.cache,
        dram: m.dram,
    };
    (secs, simulated, sys.fast_forwarded_periods() - periods)
}

/// Adds one row's projected values to a running checksum.
fn add_row(checksum: u64, values: &[u64]) -> u64 {
    values.iter().fold(checksum, |a, &v| a.wrapping_add(v))
}

/// One timed `System::scan` pass over `source`.
fn timed_scan(sys: &mut System, source: &ScanSource<'_>) -> (f64, Simulated, u64) {
    timed_pass(sys, |sys| {
        let mut checksum = 0u64;
        let (end, cpu, rows) = sys.scan(source, SimTime::ZERO, |_row, values: &[u64]| {
            checksum = add_row(checksum, values);
            RowEffect::default()
        });
        (end, cpu, rows, checksum)
    })
}

/// Runs `f` `reps` times, asserting every repetition simulates the same
/// thing, and returns `(wall_secs_per_rep, simulated, fast_forwarded)`.
/// Rates should use the best (minimum) repetition; the full sample vector
/// feeds the spread statistics in the emitted JSON.
fn run_reps<F: FnMut() -> (f64, Simulated, u64)>(
    reps: usize,
    mut f: F,
) -> (Vec<f64>, Simulated, u64) {
    let (secs, first, periods) = f();
    let mut samples = vec![secs];
    for _ in 1..reps {
        let (secs, run, run_periods) = f();
        assert_eq!(
            (&run, run_periods),
            (&first, periods),
            "repeated simulation of identical input diverged"
        );
        samples.push(secs);
    }
    (samples, first, periods)
}

/// Minimum of a non-empty wall-time sample vector.
fn best(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The canonical full-run row count; the unsuffixed `BENCH_*.json` names
/// are reserved for measurements at (at least) this scale.
const FULL_ROWS: u64 = 1_000_000;

/// Writes a bench report, refusing to clobber a canonical full-run JSON
/// with a reduced-scale one. Quick runs always target `.quick.json`
/// siblings; additionally, a down-scaled `--rows` run (without `--quick`)
/// must not silently replace a committed full-run record with numbers
/// measured at an incomparable scale.
fn write_report(out: &str, json: &str, quick: bool, rows: u64) {
    let full_dest = !out.ends_with(".quick.json");
    assert!(
        !(full_dest && quick),
        "refusing to overwrite full-run {out} with a --quick run"
    );
    if full_dest && rows < FULL_ROWS {
        if let Ok(existing) = std::fs::read_to_string(out) {
            if existing.contains("\"quick\": false") {
                eprintln!(
                    "refusing to overwrite the full-run record {out} (rows >= {FULL_ROWS}) \
                     with a --rows {rows} run; pass --quick to write the .quick.json sibling"
                );
                std::process::exit(2);
            }
        }
    }
    std::fs::write(out, json).expect("write scan_throughput report");
    println!("wrote {out}");
}

/// Renders the wall-clock spread of one measurement as a JSON object
/// (mean/min/max/sample-stddev seconds). `secs` is never empty.
fn wall_stats_json(secs: &[f64]) -> String {
    let n = secs.len() as f64;
    let mean = secs.iter().sum::<f64>() / n;
    let var = if secs.len() < 2 {
        0.0
    } else {
        secs.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0)
    };
    let max = secs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{{ \"mean\": {mean:.6}, \"min\": {:.6}, \"max\": {max:.6}, \"stddev\": {:.6}, \"reps\": {} }}",
        best(secs),
        var.sqrt(),
        secs.len()
    )
}

/// Builds an N-core system holding the benchmark table, deterministically,
/// on the requested DRAM timing model. The default platform is the paper's
/// (zcu102, MLP revision); the table is its default relation shape: 64-byte
/// rows of 4-byte columns.
fn build_system(cores: usize, rows: u64, model: MemoryModel) -> (System, RowTable) {
    let schema = Schema::benchmark(4, 4, 64);
    let table_bytes = rows * 64;
    let mem_bytes = (table_bytes + (64 << 20)).next_power_of_two() as usize;
    let mut config = SystemConfig {
        cores,
        mem_bytes,
        ..SystemConfig::default()
    };
    config.platform.dram.model = model;
    let mut sys = System::with_config(config);
    let mut table = sys
        .create_table(schema, rows, MvccConfig::Disabled)
        .expect("table fits");
    DataGen::new(1)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .expect("fill");
    (sys, table)
}

/// The scanned columns: the first four.
const COLUMNS: [usize; 4] = [0, 1, 2, 3];

/// The row scan of `table` every variant times.
fn row_scan(table: &RowTable) -> ScanSource<'_> {
    ScanSource::Rows {
        table,
        columns: &COLUMNS,
        snapshot: None,
    }
}

/// `BENCH_scan_throughput<variant>[.quick].json` at the workspace root
/// (`cargo bench` runs with the package as cwd).
fn report_path(variant: &str, quick: bool) -> String {
    let suffix = if quick { ".quick" } else { "" };
    format!(
        "{}/../../BENCH_scan_throughput{variant}{suffix}.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// The single-core variant: optimized stepping (line plans, the
/// line-resident fast path, the periodic fast-forward) against the
/// reference stepping mode of the same system, on the same table.
fn run_single_core(rows: u64, reps: usize, quick: bool) {
    let fields = rows * COLUMNS.len() as u64;
    println!(
        "scan_throughput: {rows} rows x {} columns = {fields} simulated field accesses",
        COLUMNS.len()
    );
    let (mut sys, table) = build_system(1, rows, MemoryModel::Occupancy);
    let source = row_scan(&table);

    let (opt_samples, optimized, fast_forwarded) = run_reps(reps, || timed_scan(&mut sys, &source));
    assert!(
        fast_forwarded > 0,
        "the optimized scan of {rows} rows fast-forwarded no period"
    );
    let opt_secs = best(&opt_samples);
    let opt_rate = fields as f64 / opt_secs;
    println!(
        "  optimized:  {opt_secs:.3} s wall  ({opt_rate:.3e} fields/s), \
         {fast_forwarded} periods fast-forwarded"
    );

    sys.set_reference_stepping(true);
    let (ref_samples, reference, _) = run_reps(reps, || timed_scan(&mut sys, &source));
    let ref_secs = best(&ref_samples);
    let ref_rate = fields as f64 / ref_secs;
    println!("  reference:  {ref_secs:.3} s wall  ({ref_rate:.3e} fields/s)");

    // Same end, CPU time, rows, values, cache and DRAM counters.
    assert_eq!(
        optimized, reference,
        "optimized stepping diverged from the reference stepping"
    );
    let speedup = ref_secs / opt_secs;
    println!("  speedup vs reference: {speedup:.2}x  (simulated output and counters identical)");

    let json = format!(
        "{{\n  \"bench\": \"scan_throughput\",\n  \"rows\": {rows},\n  \"columns\": {},\n  \
         \"quick\": {quick},\n  \"reps\": {reps},\n  \
         \"simulated_field_accesses\": {fields},\n  \
         \"simulated_end_ns\": {:.1},\n  \
         \"fast_forwarded_periods\": {fast_forwarded},\n  \
         \"optimized_fields_per_sec\": {opt_rate:.1},\n  \
         \"reference_fields_per_sec\": {ref_rate:.1},\n  \
         \"speedup_vs_reference\": {speedup:.3},\n  \
         \"optimized_wall_secs\": {},\n  \
         \"reference_wall_secs\": {},\n  \
         \"outputs_identical\": true\n}}\n",
        COLUMNS.len(),
        optimized.end.as_nanos_f64(),
        wall_stats_json(&opt_samples),
        wall_stats_json(&ref_samples)
    );
    // The tracked BENCH_scan_throughput.json records the canonical
    // full-scale (1M-row) measurement only; `--quick` smoke runs (e.g. CI)
    // write the .quick.json sibling so they never clobber it.
    write_report(&report_path("", quick), &json, quick, rows);
}

/// The multi-core sharded variant: aggregate simulated throughput scaling
/// of `scan_sharded` on `cores` cores over the single-core `scan`.
fn run_multicore(rows: u64, reps: usize, quick: bool, cores: usize) {
    let fields = rows * COLUMNS.len() as u64;
    println!(
        "scan_throughput (multicore): {rows} rows x {} columns on {cores} cores",
        COLUMNS.len()
    );

    // Single-core scan: the simulated-time yardstick.
    let (mut solo, solo_table) = build_system(1, rows, MemoryModel::Occupancy);
    let solo_src = row_scan(&solo_table);
    let (_, solo_run, _) = run_reps(reps, || timed_scan(&mut solo, &solo_src));
    let solo_end = solo_run.end;

    // Sharded run on N cores.
    let (mut sys, table) = build_system(cores, rows, MemoryModel::Occupancy);
    let src = row_scan(&table);
    // Per-core results are identical across reps (the run is deterministic,
    // asserted by run_reps), so keep the last rep's instead of re-scanning.
    let mut per_core = Vec::new();
    let (wall_secs, run, _) = run_reps(reps, || {
        timed_pass(&mut sys, |sys| {
            let mut checksum = 0u64;
            let run = sys.scan_sharded(&src, SimTime::ZERO, |_core, _row, values: &[u64]| {
                checksum = add_row(checksum, values);
                RowEffect::default()
            });
            per_core = run.per_core;
            (run.end, run.cpu, run.rows, checksum)
        })
    });
    let end = run.end;
    assert_eq!(run.rows, rows);
    assert_eq!(
        run.checksum, solo_run.checksum,
        "sharded scan changed the scanned values"
    );

    let scaling = solo_end.as_nanos_f64() / end.as_nanos_f64();
    let sim_rate_1 = fields as f64 / solo_end.as_nanos_f64() * 1e9;
    let sim_rate_n = fields as f64 / end.as_nanos_f64() * 1e9;
    let wall_rate = fields as f64 / best(&wall_secs);
    println!("  1 core : {solo_end} simulated  ({sim_rate_1:.3e} fields/sim-s)");
    println!("  {cores} cores: {end} simulated  ({sim_rate_n:.3e} fields/sim-s)");
    println!("  aggregate simulated throughput scaling: {scaling:.2}x");
    println!("  simulator wall rate ({cores} cores): {wall_rate:.3e} fields/s");
    let mut contention = Vec::new();
    for c in &per_core {
        println!(
            "    core {}: rows={} end={} l2-contended={} delay={}",
            c.core, c.rows, c.end, c.cache.l2_contended_lookups, c.cache.l2_contention_delay
        );
        contention.push(c.cache.l2_contention_delay.as_nanos_f64());
    }
    assert!(
        per_core.iter().any(|c| c.cache.l2_contended_lookups > 0),
        "multi-core run should show shared-L2 contention"
    );
    if cores >= 4 {
        assert!(
            scaling > 2.0,
            "cores={cores} sharded scan must scale aggregate simulated \
             throughput >2x over 1 core, got {scaling:.2}x"
        );
    }

    let per_core_json: Vec<String> = contention.iter().map(|d| format!("{d:.1}")).collect();
    let json = format!(
        "{{\n  \"bench\": \"scan_throughput_multicore\",\n  \"rows\": {rows},\n  \
         \"columns\": {},\n  \"cores\": {cores},\n  \
         \"quick\": {quick},\n  \"reps\": {reps},\n  \
         \"simulated_end_1core_ns\": {:.1},\n  \
         \"simulated_end_ns\": {:.1},\n  \
         \"aggregate_sim_throughput_scaling\": {scaling:.3},\n  \
         \"sim_fields_per_sec\": {sim_rate_n:.1},\n  \
         \"wall_fields_per_sec\": {wall_rate:.1},\n  \
         \"wall_secs\": {},\n  \
         \"per_core_l2_contention_delay_ns\": [{}],\n  \
         \"outputs_identical\": true\n}}\n",
        COLUMNS.len(),
        solo_end.as_nanos_f64(),
        end.as_nanos_f64(),
        wall_stats_json(&wall_secs),
        per_core_json.join(", ")
    );
    let out = report_path(&format!(".cores{cores}"), quick);
    write_report(&out, &json, quick, rows);
}

/// The `--model ca` variant: the same optimized scan under the occupancy
/// and the cycle-accurate DRAM model. There is no bit-identity to assert
/// across *models* (different fidelity is the point); instead the report
/// quantifies what the extra fidelity costs in simulator wall time and
/// what it changes in simulated time, plus the command-level counters only
/// the cycle-accurate model produces.
fn run_model_comparison(rows: u64, reps: usize, quick: bool) {
    let fields = rows * COLUMNS.len() as u64;
    println!(
        "scan_throughput (model fidelity): {rows} rows x {} columns, occupancy vs cycle-accurate",
        COLUMNS.len()
    );

    let run_model = |model: MemoryModel| {
        let (mut sys, table) = build_system(1, rows, model);
        let source = row_scan(&table);
        let (samples, run, _) = run_reps(reps, || timed_scan(&mut sys, &source));
        assert_eq!(run.rows, rows);
        (samples, run)
    };

    let (occ_samples, occ) = run_model(MemoryModel::Occupancy);
    let (ca_samples, ca) = run_model(MemoryModel::CycleAccurate);
    assert_eq!(
        occ.checksum, ca.checksum,
        "the timing model must not change the data"
    );
    let (occ_end, ca_end, ca_stats) = (occ.end, ca.end, &ca.dram);

    let occ_rate = fields as f64 / best(&occ_samples);
    let ca_rate = fields as f64 / best(&ca_samples);
    let slowdown = occ_rate / ca_rate;
    let sim_delta = ca_end.as_nanos_f64() / occ_end.as_nanos_f64();
    println!(
        "  occupancy:      {:.3} s wall ({occ_rate:.3e} fields/s), {occ_end} simulated",
        best(&occ_samples)
    );
    println!(
        "  cycle-accurate: {:.3} s wall ({ca_rate:.3e} fields/s), {ca_end} simulated",
        best(&ca_samples)
    );
    println!("  fidelity cost: {slowdown:.2}x wall, simulated-time ratio {sim_delta:.4}");
    println!(
        "  ca counters: refreshes={} tfaw_stalls={} queue_stalls={} avg_queue_occupancy={:.2}",
        ca_stats.refreshes,
        ca_stats.tfaw_stalls,
        ca_stats.queue_stalls,
        ca_stats.avg_queue_occupancy()
    );

    let json = format!(
        "{{\n  \"bench\": \"scan_throughput_model\",\n  \"rows\": {rows},\n  \
         \"columns\": {},\n  \
         \"quick\": {quick},\n  \"reps\": {reps},\n  \
         \"occupancy_fields_per_sec\": {occ_rate:.1},\n  \
         \"cycle_accurate_fields_per_sec\": {ca_rate:.1},\n  \
         \"fidelity_wall_slowdown\": {slowdown:.3},\n  \
         \"simulated_end_ratio_ca_over_occupancy\": {sim_delta:.4},\n  \
         \"occupancy_row_hit_rate\": {:.4},\n  \
         \"cycle_accurate_row_hit_rate\": {:.4},\n  \
         \"cycle_accurate_refreshes\": {},\n  \
         \"cycle_accurate_tfaw_stalls\": {},\n  \
         \"cycle_accurate_queue_stalls\": {},\n  \
         \"cycle_accurate_avg_queue_occupancy\": {:.3},\n  \
         \"occupancy_wall_secs\": {},\n  \
         \"cycle_accurate_wall_secs\": {},\n  \
         \"outputs_identical\": true\n}}\n",
        COLUMNS.len(),
        occ.dram.row_hit_rate(),
        ca_stats.row_hit_rate(),
        ca_stats.refreshes,
        ca_stats.tfaw_stalls,
        ca_stats.queue_stalls,
        ca_stats.avg_queue_occupancy(),
        wall_stats_json(&occ_samples),
        wall_stats_json(&ca_samples)
    );
    write_report(&report_path(".ca", quick), &json, quick, rows);
}

const USAGE: &str =
    "usage: scan_throughput [--quick] [--rows N] [--cores N] [--model ca|occupancy]";

/// Reports a malformed command line the way the `figures` binary does:
/// the problem and the usage on stderr, exit status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    std::process::exit(2);
}

/// The number following `flag`, or a usage error.
fn number_arg<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} requires a number, got {v:?}"))),
        None => usage_error(&format!("{flag} requires a number")),
    }
}

fn main() {
    let mut rows: u64 = FULL_ROWS;
    let mut reps = 3usize;
    let mut quick = false;
    let mut cores = 1usize;
    let mut model_ca = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                rows = 100_000;
                reps = 2;
                quick = true;
            }
            "--rows" => rows = number_arg("--rows", args.next()),
            "--cores" => cores = number_arg("--cores", args.next()),
            "--model" => match args.next().as_deref() {
                Some("ca" | "cycle-accurate") => model_ca = true,
                Some("occupancy") => model_ca = false,
                Some(other) => {
                    usage_error(&format!("unknown model {other:?} (expected ca|occupancy)"))
                }
                None => usage_error("--model requires a name"),
            },
            // `cargo bench` appends harness flags like --bench; ignore them.
            _ => {}
        }
    }
    if rows == 0 {
        usage_error("--rows must be at least 1");
    }
    if cores == 0 {
        usage_error("--cores must be at least 1");
    }
    if model_ca && cores > 1 {
        usage_error("--model ca runs the single-core scan; it takes no --cores above 1");
    }
    if model_ca {
        run_model_comparison(rows, reps, quick);
    } else if cores > 1 {
        run_multicore(rows, reps, quick, cores);
    } else {
        run_single_core(rows, reps, quick);
    }
}
