//! Regenerates the paper's figures and tables on the simulated platform.
//!
//! ```text
//! figures [--quick] [--full] [--open-loop] [--out DIR] [--csv]
//!         [--trace PATH] [--timeseries] [ids...]
//! ```
//!
//! * `ids` — experiment identifiers (`fig6`..`fig13`, `table1`, `table2`);
//!   omitting them runs everything.
//! * `--quick` — shrink workloads (smoke test of the harness).
//! * `--full` — extend Figure 13 to the paper's full 2 GB sweep.
//! * `--open-loop` — run the HTAP experiment in its open-loop form
//!   (`fig_htap` becomes the `fig_htap_openloop` arrival-rate sweep).
//! * `--out DIR` — also write one text (and optionally CSV) file per
//!   experiment into `DIR`.
//! * `--csv` — write CSV next to the text output.
//! * `--trace PATH` — record the experiment's headline run as a
//!   Perfetto-loadable Chrome trace (`fig_htap_openloop`, `fig_txn` and
//!   `fig_dram_fidelity` have one; see `FIGURES.md`). With several traced
//!   ids in one invocation the id is appended to the file name.
//! * `--timeseries` — also render time-bucketed metrics (queue depth,
//!   in-flight ops, abort rate, DRAM bank occupancy) from the traced run.
//!
//! Unrecognised `-`/`--` options are an error: anything else on the
//! command line must be an experiment id.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use relmem_bench::{all_experiments, experiment_by_id_traced};
use relmem_sim::report::series_table;
use relmem_sim::{default_bucket, series_from_trace};

struct Args {
    ids: Vec<String>,
    quick: bool,
    full: bool,
    open_loop: bool,
    out: Option<PathBuf>,
    csv: bool,
    trace: Option<PathBuf>,
    timeseries: bool,
}

fn usage() -> String {
    format!(
        "usage: figures [--quick] [--full] [--open-loop] [--out DIR] [--csv] \
         [--trace PATH] [--timeseries] [ids...]\n\
         available ids: {}",
        all_experiments().join(", ")
    )
}

fn parse_args() -> Args {
    let mut args = Args {
        ids: Vec::new(),
        quick: false,
        full: false,
        open_loop: false,
        out: None,
        csv: false,
        trace: None,
        timeseries: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--full" => args.full = true,
            "--open-loop" => args.open_loop = true,
            "--csv" => args.csv = true,
            "--timeseries" => args.timeseries = true,
            "--out" => {
                let dir = it.next().unwrap_or_else(|| {
                    eprintln!("--out requires a directory argument");
                    std::process::exit(2);
                });
                args.out = Some(PathBuf::from(dir));
            }
            "--trace" => {
                let path = it.next().unwrap_or_else(|| {
                    eprintln!("--trace requires a file argument");
                    std::process::exit(2);
                });
                args.trace = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option {other:?}\n{}", usage());
                std::process::exit(2);
            }
            other => args.ids.push(other.to_string()),
        }
    }
    if args.ids.is_empty() {
        args.ids = all_experiments().iter().map(|s| s.to_string()).collect();
    }
    if args.open_loop {
        for id in &mut args.ids {
            if id == "fig_htap" {
                "fig_htap_openloop".clone_into(id);
            }
        }
    }
    args
}

/// Per-experiment trace file: the configured path as-is for a single id,
/// `name-{id}.json` when one invocation traces several experiments.
fn trace_path(base: &Path, id: &str, many: bool) -> PathBuf {
    if !many {
        return base.to_path_buf();
    }
    let stem = base
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".to_string());
    let ext = base
        .extension()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "json".to_string());
    base.with_file_name(format!("{stem}-{id}.{ext}"))
}

/// Unwraps a filesystem result, or reports `cannot <verb> <path>: <error>`
/// and exits with status 1.
fn or_exit<T>(result: io::Result<T>, verb: &str, path: &Path) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("cannot {verb} {}: {e}", path.display());
        std::process::exit(1);
    })
}

fn main() {
    let args = parse_args();
    if let Some(dir) = &args.out {
        or_exit(fs::create_dir_all(dir), "create", dir);
    }
    let capture = args.trace.is_some() || args.timeseries;
    let many = args.ids.len() > 1;
    for id in &args.ids {
        let started = Instant::now();
        let Some((experiment, trace)) = experiment_by_id_traced(id, args.quick, args.full, capture)
        else {
            eprintln!(
                "unknown experiment {id:?}; available: {}",
                all_experiments().join(", ")
            );
            std::process::exit(2);
        };
        let mut text = experiment.render_text();
        if let Some(trace) = &trace {
            if args.timeseries {
                let series = series_from_trace(trace, default_bucket(trace, 40));
                let table = series_table(
                    &format!("{}: time-bucketed metrics of the traced run", experiment.id),
                    "Bucket start us",
                    &series,
                );
                text.push_str(&table.render_text());
                text.push('\n');
            }
            if let Some(base) = &args.trace {
                let path = trace_path(base, experiment.id, many);
                or_exit(fs::write(&path, trace.to_chrome_json()), "write", &path);
                eprintln!("[{} trace written to {}]", experiment.id, path.display());
            }
        } else if capture {
            eprintln!("note: {id} has no traced run; no trace captured");
        }
        println!("{text}");
        println!(
            "[{} completed in {:.1}s]\n",
            experiment.id,
            started.elapsed().as_secs_f64()
        );
        if let Some(dir) = &args.out {
            let path = dir.join(format!("{}.txt", experiment.id));
            or_exit(fs::write(&path, &text), "write", &path);
            if args.csv {
                let path = dir.join(format!("{}.csv", experiment.id));
                or_exit(fs::write(&path, experiment.render_csv()), "write", &path);
            }
        }
    }
}
