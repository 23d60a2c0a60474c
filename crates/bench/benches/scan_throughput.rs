//! Simulator-throughput micro-benchmark: simulated field accesses per
//! wall-clock second through `System::scan`, optimized hot path vs. the
//! pre-optimization baseline (`relmem_bench::baseline`: the seed's scan loop
//! over the seed's cache data structures), with bit-identical simulated
//! output asserted between the two.
//!
//! This measures the *simulator*, not the modelled hardware: the number is
//! how fast experiments run, and it gates how large the scaling sweeps
//! (Figure 13 and beyond) can grow. Results are printed and written to
//! `BENCH_scan_throughput.json` in the current directory so successive PRs
//! can track the trajectory.
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

use relmem_core::system::{RowEffect, ScanSource, SystemConfig};
use relmem_core::{AccessPath, System};
use relmem_rme::HwRevision;
use relmem_sim::SimTime;
use relmem_storage::{DataGen, MvccConfig, RowTable, Schema};

/// One timed scan pass. Returns (wall seconds, simulated end, cpu, rows,
/// checksum) so the caller can both rate it and check equivalence.
fn timed_scan(sys: &mut System, source: &ScanSource<'_>) -> (f64, SimTime, SimTime, u64, u64) {
    sys.begin_measurement(AccessPath::DirectRowWise);
    let mut checksum = 0u64;
    let started = Instant::now();
    let per_row = |_row: u64, values: &[u64]| {
        checksum = checksum.wrapping_add(values.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
        RowEffect::default()
    };
    let (end, cpu, rows) = sys.scan(source, SimTime::ZERO, per_row);
    (started.elapsed().as_secs_f64(), end, cpu, rows, checksum)
}

/// Runs `f` `reps` times, asserting the simulated outputs are identical
/// across repetitions, and returns `(wall_secs_per_rep, end, cpu, rows,
/// checksum)`. Rates should use the best (minimum) repetition; the full
/// sample vector feeds the spread statistics in the emitted JSON.
fn run_reps<F: FnMut() -> (f64, SimTime, SimTime, u64, u64)>(
    reps: usize,
    mut f: F,
) -> (Vec<f64>, SimTime, SimTime, u64, u64) {
    let first = f();
    let mut secs = vec![first.0];
    for _ in 1..reps {
        let run = f();
        assert_eq!(
            (run.1, run.2, run.3, run.4),
            (first.1, first.2, first.3, first.4),
            "repeated simulation of identical input diverged"
        );
        secs.push(run.0);
    }
    (secs, first.1, first.2, first.3, first.4)
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
/// on the requested DRAM timing model.
fn build_system(cores: usize, rows: u64, model: relmem_sim::MemoryModel) -> (System, RowTable) {
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

const COLUMNS: [usize; 4] = [0, 1, 2, 3];

/// The multi-core sharded variant: aggregate simulated throughput scaling
/// of `scan_sharded` on `cores` cores over the single-core `scan`.
fn run_multicore(rows: u64, reps: usize, quick: bool, cores: usize) {
    let fields = rows * COLUMNS.len() as u64;
    println!(
        "scan_throughput (multicore): {rows} rows x {} columns on {cores} cores",
        COLUMNS.len()
    );

    // Single-core reference (simulated time baseline).
    let (mut solo, solo_table) = build_system(1, rows, relmem_sim::MemoryModel::Occupancy);
    let solo_src = ScanSource::Rows {
        table: &solo_table,
        columns: &COLUMNS,
        snapshot: None,
    };
    let (_, solo_end, _, _, solo_sum) = run_reps(reps, || timed_scan(&mut solo, &solo_src));

    // Sharded run on N cores.
    let (mut sys, table) = build_system(cores, rows, relmem_sim::MemoryModel::Occupancy);
    let src = ScanSource::Rows {
        table: &table,
        columns: &COLUMNS,
        snapshot: None,
    };
    // Per-core results are identical across reps (the run is deterministic,
    // asserted by run_reps), so keep the last rep's instead of re-scanning.
    let mut per_core = Vec::new();
    let (wall_secs, end, _cpu, rows_scanned, sum) = run_reps(reps, || {
        sys.begin_measurement(AccessPath::DirectRowWise);
        let mut checksum = 0u64;
        let started = Instant::now();
        let run = sys.scan_sharded(&src, SimTime::ZERO, |_core, _row, values: &[u64]| {
            checksum = checksum.wrapping_add(values.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
            RowEffect::default()
        });
        per_core = run.per_core;
        (
            started.elapsed().as_secs_f64(),
            run.end,
            run.cpu,
            run.rows,
            checksum,
        )
    });
    assert_eq!(rows_scanned, rows);
    assert_eq!(sum, solo_sum, "sharded scan changed the scanned values");

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
    let suffix = if quick { ".quick" } else { "" };
    let out = format!(
        "{}/../../BENCH_scan_throughput.cores{cores}{suffix}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    write_report(&out, &json, quick, rows);
}

/// The `--model ca` variant: the same optimized scan under the occupancy
/// and the cycle-accurate DRAM model. There is no bit-identity to assert
/// across *models* (different fidelity is the point); instead the report
/// quantifies what the extra fidelity costs in simulator wall time and
/// what it changes in simulated time, plus the command-level counters only
/// the cycle-accurate model produces.
fn run_model_comparison(rows: u64, reps: usize, quick: bool) {
    use relmem_sim::MemoryModel;

    let fields = rows * COLUMNS.len() as u64;
    println!(
        "scan_throughput (model fidelity): {rows} rows x {} columns, occupancy vs cycle-accurate",
        COLUMNS.len()
    );

    let run_model = |model: MemoryModel| {
        let (mut sys, table) = build_system(1, rows, model);
        let source = ScanSource::Rows {
            table: &table,
            columns: &COLUMNS,
            snapshot: None,
        };
        let (samples, end, _, scanned, sum) = run_reps(reps, || timed_scan(&mut sys, &source));
        assert_eq!(scanned, rows);
        (samples, end, sum, sys.dram_stats().clone())
    };

    let (occ_samples, occ_end, occ_sum, occ_stats) = run_model(MemoryModel::Occupancy);
    let (ca_samples, ca_end, ca_sum, ca_stats) = run_model(MemoryModel::CycleAccurate);
    assert_eq!(occ_sum, ca_sum, "the timing model must not change the data");

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
        occ_stats.row_hit_rate(),
        ca_stats.row_hit_rate(),
        ca_stats.refreshes,
        ca_stats.tfaw_stalls,
        ca_stats.queue_stalls,
        ca_stats.avg_queue_occupancy(),
        wall_stats_json(&occ_samples),
        wall_stats_json(&ca_samples)
    );
    let suffix = if quick { ".quick" } else { "" };
    let out = format!(
        "{}/../../BENCH_scan_throughput.ca{suffix}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    write_report(&out, &json, quick, rows);
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
    let mut rows: u64 = 1_000_000;
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
    if model_ca {
        assert_eq!(cores, 1, "--model ca currently runs the single-core scan");
        run_model_comparison(rows, reps, quick);
        return;
    }
    if cores > 1 {
        run_multicore(rows, reps, quick, cores);
        return;
    }
    // The paper's default relation shape: 64-byte rows, 4-byte columns; we
    // scan the first four columns.
    let schema = Schema::benchmark(4, 4, 64);
    let table_bytes = rows * 64;
    let mem_bytes = (table_bytes + (64 << 20)).next_power_of_two() as usize;
    let mut sys = System::with_revision(HwRevision::Mlp, mem_bytes);
    let mut table = sys
        .create_table(schema, rows, MvccConfig::Disabled)
        .expect("table fits");
    DataGen::new(1)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .expect("fill");
    let source = ScanSource::Rows {
        table: &table,
        columns: &COLUMNS,
        snapshot: None,
    };
    let fields = rows * COLUMNS.len() as u64;
    println!(
        "scan_throughput: {rows} rows x {} columns = {fields} simulated field accesses",
        COLUMNS.len()
    );

    // Optimized hot path (line plans, line-resident fast path, periodic
    // fast-forward).
    let (opt_samples, opt_end, opt_cpu, opt_rows, opt_sum) =
        run_reps(reps, || timed_scan(&mut sys, &source));
    let opt_secs = best(&opt_samples);
    let opt_rate = fields as f64 / opt_secs;
    println!("  optimized:  {opt_secs:.3} s wall  ({opt_rate:.3e} fields/s)");

    // Pre-optimization baseline: the seed's scan loop over the seed's data
    // structures (Vec<Vec> tag stores, HashMap pending map, Vec MSHRs,
    // allocating prefetch decisions and DRAM chunk splits).
    let (base_samples, base_end, base_cpu, base_rows, base_sum) = run_reps(reps, || {
        let mut hierarchy = relmem_bench::baseline::BaselineHierarchy::new(sys.config());
        let mut checksum = 0u64;
        let started = Instant::now();
        let (end, cpu, rows_scanned) = relmem_bench::baseline::scan_rows_baseline(
            &mut hierarchy,
            sys.mem(),
            &table,
            &COLUMNS,
            SimTime::ZERO,
            |_row, values: &[u64]| {
                checksum =
                    checksum.wrapping_add(values.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
                RowEffect::default()
            },
        );
        (
            started.elapsed().as_secs_f64(),
            end,
            cpu,
            rows_scanned,
            checksum,
        )
    });
    let base_secs = best(&base_samples);
    let base_rate = fields as f64 / base_secs;
    println!("  baseline:   {base_secs:.3} s wall  ({base_rate:.3e} fields/s)");

    // Both must agree on simulated results exactly.
    assert_eq!(
        (opt_end, opt_cpu, opt_rows, opt_sum),
        (base_end, base_cpu, base_rows, base_sum),
        "optimized scan diverged from the pre-optimization baseline"
    );

    // …including every hierarchy counter (one verification pass each).
    sys.begin_measurement(AccessPath::DirectRowWise);
    let (end, cpu, _) = sys.scan(&source, SimTime::ZERO, |_, _| RowEffect::default());
    let optimized_stats = sys
        .finish_measurement(end, cpu, AccessPath::DirectRowWise)
        .cache;
    let mut hierarchy = relmem_bench::baseline::BaselineHierarchy::new(sys.config());
    relmem_bench::baseline::scan_rows_baseline(
        &mut hierarchy,
        sys.mem(),
        &table,
        &COLUMNS,
        SimTime::ZERO,
        |_, _| RowEffect::default(),
    );
    assert_eq!(
        optimized_stats,
        hierarchy.stats(),
        "optimized hierarchy counters diverged from the baseline"
    );
    let speedup = base_secs / opt_secs;
    println!("  speedup vs baseline: {speedup:.2}x  (simulated output bit-identical)");

    let json = format!(
        "{{\n  \"bench\": \"scan_throughput\",\n  \"rows\": {rows},\n  \"columns\": {},\n  \
         \"quick\": {quick},\n  \"reps\": {reps},\n  \
         \"simulated_field_accesses\": {fields},\n  \
         \"optimized_fields_per_sec\": {opt_rate:.1},\n  \
         \"baseline_fields_per_sec\": {base_rate:.1},\n  \
         \"speedup_vs_baseline\": {speedup:.3},\n  \
         \"optimized_wall_secs\": {},\n  \
         \"baseline_wall_secs\": {},\n  \
         \"outputs_identical\": true\n}}\n",
        COLUMNS.len(),
        wall_stats_json(&opt_samples),
        wall_stats_json(&base_samples)
    );
    // `cargo bench` runs with the package as cwd; anchor the report at the
    // workspace root. The tracked BENCH_scan_throughput.json records the
    // canonical full-scale (1M-row) measurement only; `--quick` smoke runs
    // (e.g. CI) write to an untracked sibling so they never clobber it.
    let out = if quick {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_scan_throughput.quick.json"
        )
    } else {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_scan_throughput.json"
        )
    };
    write_report(out, &json, quick, rows);
}
