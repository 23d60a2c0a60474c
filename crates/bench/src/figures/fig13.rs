//! Figure 13: scalability with data size.
//!
//! Q1 projecting four 4-byte columns of a 64-byte-row table whose total size
//! grows from 32 MB towards 2 GB. Every time the packed projection fills the
//! 2 MB Data SPM the engine performs its single-cycle epoch reset and moves
//! to the next frame. The paper's observation: the normalized benefit of the
//! RME over direct row-wise access is essentially constant across data
//! sizes.
//!
//! The default sweep stops at 512 MB to keep the harness runtime reasonable;
//! pass `--full` to the `figures` binary to extend it to the paper's 2 GB.

use relmem_core::{AccessPath, Benchmark, BenchmarkParams, Query};
use relmem_sim::report::{series_table, Series};

use super::Experiment;

const MB: u64 = 1024 * 1024;

/// Data sizes (bytes) for the default and full sweeps.
fn data_sizes(quick: bool, full: bool) -> Vec<u64> {
    if quick {
        return vec![4 * MB, 8 * MB];
    }
    let mut sizes = vec![32 * MB, 64 * MB, 128 * MB, 256 * MB, 512 * MB];
    if full {
        sizes.push(1024 * MB);
        sizes.push(2048 * MB);
    }
    sizes
}

/// Runs the Figure 13 experiment.
pub fn fig13(quick: bool, full: bool) -> Experiment {
    let query = Query::Q1 { projectivity: 4 };
    let mut series = vec![Series::new("Direct Row-wise"), Series::new("RME")];
    let mut frames = Series::new("Frames fetched");

    for size in data_sizes(quick, full) {
        let rows = size / 64;
        let label = format!("{}MB", size / MB);
        let params = BenchmarkParams {
            rows,
            row_bytes: 64,
            column_width: 4,
            inner_rows: 0,
            ..BenchmarkParams::default()
        };
        let mut bench = Benchmark::new(params);
        let direct = bench
            .run(query, AccessPath::DirectRowWise)
            .measurement
            .elapsed
            .as_nanos_f64();
        let rme = bench.run(query, AccessPath::RmeCold);
        series[0].push(label.clone(), 1.0);
        series[1].push(
            label.clone(),
            rme.measurement.elapsed.as_nanos_f64() / direct,
        );
        frames.push(label, rme.measurement.rme.frames_fetched as f64);
    }

    let mut tables = vec![series_table(
        "Figure 13: Q1 (4 columns) normalized execution time vs. data size",
        "Data size",
        &series,
    )];
    tables.push(series_table(
        "Figure 13 (supplement): Reorganization Buffer frames fetched per data size",
        "Data size",
        &[frames],
    ));
    Experiment {
        id: "fig13",
        description: "Scalability with data size: the RME's relative benefit is constant because \
                      the engine streams the table frame by frame through the 2 MB Data SPM"
            .to_string(),
        tables,
    }
}
