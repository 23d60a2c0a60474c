//! The repository benchmark: host time of the Relational Memory simulator,
//! end to end and layer by layer.
//!
//! ```text
//! relmem-perfbench --workload <rme_scale|scan_direct|htap_txn> --seed <n>
//!                  --seconds <s> --trace <0|1> [--tiny] [--break-check]
//!                  [--spans-out <file>]
//! ```
//!
//! Each run repeats the workload's measured calls for `--seconds` (the
//! fastest pass is `run_s`), and rebuilds the workload between passes for
//! about a third of that time (the fastest set-up is `setup_s`), so both
//! are sampled over the whole run. Co-tenants of a shared host only ever
//! add time, up to 2x for seconds to minutes at a time; the fastest repeat
//! of a run estimates the uncontended cost, which a median does not, since
//! it follows the share of the run the host was loaded. With `--trace 1`,
//! every other pass records host-time spans around the calls into each
//! layer, and the layer probes run after the passes; the run then prints
//! the per-layer metrics instead. The last line of standard output is one
//! JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod htap_txn;
mod metrics;
mod probes;
mod rme_scale;
mod scan_direct;
mod spans;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use relational_memory::core::hashtbl::checksum_accumulate;
use relational_memory::core::QueryOutput;
use relational_memory::dram::PhysicalMemory;
use relational_memory::storage::RowTable;

use metrics::{fastest, median, ratio, report_json, Checks, Metrics, END_TO_END, PER_LAYER};
use probes::ProbeInput;
use spans::Spans;

/// Set-ups per run, at least; `setup_s` is the fastest.
const SETUPS: usize = 3;
/// Share of a run's time spent on set-ups between the passes.
const SETUP_SHARE: f64 = 0.3;
/// Measured passes per run, at least (a traced run alternates untraced and
/// traced passes, so it needs both).
const MIN_PASSES: usize = 3;

/// CPU-side accesses (L1 requests, one per field read) of one pass, by the
/// name of the span that timed them.
pub type Fields = BTreeMap<&'static str, u64>;

/// What one pass of the measured calls produced.
pub struct Pass {
    /// Every simulated metric of the pass (`sim.*`, `cache.*`, `dram.*`,
    /// `rme.*`, simulated `core.*`); it must repeat exactly.
    pub sim: Metrics,
    pub fields: Fields,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Builds the inputs: everything before the first measured call.
    fn setup(tiny: bool, seed: u64, spans: &mut Spans) -> Self;
    /// Rows the set-up generated.
    fn rows_filled(&self) -> u64;
    /// Runs the measured calls once, checking their outputs.
    fn pass(&mut self, spans: &mut Spans, checks: &mut Checks) -> Pass;
    /// Checks the last pass's outputs against a reference computed straight
    /// from the generated data (untimed).
    fn verify(&self, checks: &mut Checks);
    /// The workload's own address stream and projection, for the probes.
    fn probe_input(&self) -> ProbeInput<'_>;
}

/// Q1's output over `table` recomputed straight from memory.
pub fn q1_reference(mem: &PhysicalMemory, table: &RowTable, columns: &[usize]) -> QueryOutput {
    let mut checksum = 0u64;
    let mut values = vec![0u64; columns.len()];
    for row in 0..table.num_rows() {
        for (v, &c) in values.iter_mut().zip(columns) {
            *v = table
                .read_field(mem, row, c)
                .expect("reference read")
                .as_u64();
        }
        checksum = checksum_accumulate(checksum, &values);
    }
    QueryOutput::Set {
        rows: table.num_rows(),
        checksum,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    break_check: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        break_check: false,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--spans-out" => args.spans_out = Some(value()?),
            "--tiny" => args.tiny = true,
            "--break-check" => args.break_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host times of every set-up of a run, and of its storage spans.
#[derive(Default)]
struct SetupTimes {
    setup: Vec<f64>,
    fill: Vec<f64>,
    fill_per_row: Vec<f64>,
    columnar: Vec<f64>,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.setup.iter().sum()
    }
}

/// Builds the workload once, recording its host times.
fn set_up<W: Workload>(args: &Args, spans: &mut Spans, times: &mut SetupTimes) -> W {
    spans.set_enabled(args.trace);
    let mark = spans.len();
    let t = Instant::now();
    let open = spans.enter("setup");
    let w = W::setup(args.tiny, args.seed, spans);
    spans.exit(open);
    times.setup.push(t.elapsed().as_secs_f64());
    let sums = spans.sums(mark..spans.len());
    let fill_s = sums.get("storage.fill").copied().unwrap_or(0.0);
    times.fill.push(fill_s);
    times
        .fill_per_row
        .push(ratio(fill_s * 1e9, w.rows_filled() as f64));
    times
        .columnar
        .push(sums.get("storage.columnar").copied().unwrap_or(0.0));
    w
}

fn run<W: Workload>(args: &Args) -> Result<String, String> {
    let mut spans = Spans::new();
    let mut checks = Checks::new(args.break_check);
    let mut out = Metrics::new();

    // Measured passes, with set-ups between them. A traced run records
    // spans on every other pass.
    let mut times = SetupTimes::default();
    let start = Instant::now();
    let mut w = Some(set_up::<W>(args, &mut spans, &mut times));
    let mut timeline = vec![format!("S{:.3}", times.setup[0])];
    let (mut untraced, mut traced) = (vec![], vec![]);
    let mut traced_sums = vec![];
    let mut first: Option<Metrics> = None;
    let mut passes = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let time_up = elapsed >= args.seconds;
        if time_up && passes >= MIN_PASSES && times.setup.len() >= SETUPS {
            break;
        }
        // Rebuild while set-ups hold less than their share of the run, so
        // they sample the whole run as the passes do. The old instance is
        // dropped first, so only one is ever resident.
        while passes > 0
            && (times.total() < SETUP_SHARE * start.elapsed().as_secs_f64()
                || (time_up && times.setup.len() < SETUPS))
        {
            drop(w.take());
            w = Some(set_up::<W>(args, &mut spans, &mut times));
            timeline.push(format!("S{:.3}", times.setup.last().unwrap()));
        }
        let w = w.as_mut().ok_or("no set-up ran")?;
        let record = args.trace && passes % 2 == 1;
        spans.set_enabled(record);
        let mark = spans.len();
        let t = Instant::now();
        let open = spans.enter("pass");
        let pass = w.pass(&mut spans, &mut checks);
        spans.exit(open);
        let dt = t.elapsed().as_secs_f64();
        timeline.push(format!("P{dt:.3}"));
        if record {
            traced.push(dt);
            traced_sums.push((spans.sums(mark..spans.len()), pass.fields));
        } else {
            untraced.push(dt);
        }
        match &first {
            None => first = Some(pass.sim),
            Some(f) => checks.expect(*f == pass.sim, || {
                let diff: Vec<_> = f
                    .iter()
                    .filter(|(k, v)| pass.sim.get(*k) != Some(v))
                    .map(|(k, _)| *k)
                    .collect();
                format!("simulated outputs repeat exactly across passes; differing: {diff:?}")
            }),
        }
        passes += 1;
    }
    let w = w.ok_or("no set-up ran")?;
    spans.set_enabled(false);
    w.verify(&mut checks);
    // S: a set-up, P: a pass, in seconds.
    eprintln!(
        "{}: seed {}, {}",
        args.workload,
        args.seed,
        timeline.join(" ")
    );

    if !args.trace {
        out.insert("setup_s", fastest(&times.setup));
        out.insert("run_s", fastest(&untraced));
        let rss = peak_rss_mb();
        checks.expect(rss.is_some(), || "peak RSS is readable".to_string());
        out.insert("peak_rss_mb", rss.unwrap_or(0.0));
        return Ok(report_json(&checks, END_TO_END, &out));
    }

    out.insert("storage.fill_s", median(&times.fill));
    out.insert("storage.fill_ns_per_row", median(&times.fill_per_row));
    out.insert("storage.columnar_s", median(&times.columnar));
    let per_pass = |span: &str| -> Vec<f64> {
        traced_sums
            .iter()
            .map(|(sums, _)| sums.get(span).copied().unwrap_or(0.0))
            .collect()
    };
    for (span, metric) in [
        ("core.register", "core.register_s"),
        ("core.scan.row", "core.scan_row_s"),
        ("core.scan.columnar", "core.scan_columnar_s"),
        ("core.scan.rme_cold", "core.scan_rme_cold_s"),
        ("core.run_workload", "core.closed_loop_s"),
        ("core.run_open_loop", "core.open_loop_s"),
    ] {
        out.insert(metric, median(&per_pass(span)));
    }
    for (span, metric) in [
        ("core.scan.row", "core.host_ns_per_field.row"),
        ("core.scan.columnar", "core.host_ns_per_field.columnar"),
        ("core.scan.rme_cold", "core.host_ns_per_field.rme_cold"),
    ] {
        let ns: Vec<f64> = traced_sums
            .iter()
            .map(|(sums, fields)| {
                let s = sums.get(span).copied().unwrap_or(0.0);
                ratio(s * 1e9, fields.get(span).copied().unwrap_or(0) as f64)
            })
            .collect();
        out.insert(metric, median(&ns));
    }
    out.extend(first.ok_or("no pass ran")?);

    spans.set_enabled(true);
    let open = spans.enter("probes");
    let probes = probes::run(&w.probe_input(), &mut spans);
    spans.exit(open);
    out.extend(probes);

    out.insert(
        "trace.overhead_frac",
        ratio(fastest(&traced), fastest(&untraced)) - 1.0,
    );
    if let Some(path) = &args.spans_out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, spans.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(report_json(&checks, PER_LAYER, &out))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "rme_scale" => run::<rme_scale::RmeScale>(&args),
        "scan_direct" => run::<scan_direct::ScanDirect>(&args),
        "htap_txn" => run::<htap_txn::HtapTxn>(&args),
        other => Err(format!(
            "unknown workload {other:?} (expected rme_scale, scan_direct or htap_txn)"
        )),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("relmem-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
