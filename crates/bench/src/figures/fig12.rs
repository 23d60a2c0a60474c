//! Figure 12: hash join (Q5).
//!
//! The paper's observations: joining through the RME is 5–12 % faster than
//! the direct row-store join; the CPU cost of hashing dominates and is
//! identical for both paths, while the RME reduces the data-movement share
//! of the runtime (by up to ~41 % at 256-byte rows).

use relmem_core::{AccessPath, Benchmark, BenchmarkParams, Query};
use relmem_sim::report::{series_table, Series, Table};

use super::{default_rows, Experiment};
use crate::figures::fig07::WIDTHS;
use crate::figures::fig11::ROW_WIDTHS;

/// Sub-figure (a): normalized execution time vs. column width.
fn by_column_width(rows: u64) -> Table {
    let mut series = vec![Series::new("Direct Row-wise"), Series::new("RME")];
    for width in WIDTHS {
        let params = BenchmarkParams {
            rows,
            inner_rows: rows,
            column_width: width,
            ..BenchmarkParams::default()
        };
        let mut bench = Benchmark::new(params);
        let base = bench
            .run(Query::Q5, AccessPath::DirectRowWise)
            .measurement
            .elapsed
            .as_nanos_f64();
        let rme = bench
            .run(Query::Q5, AccessPath::RmeCold)
            .measurement
            .elapsed
            .as_nanos_f64();
        series[0].push(width, 1.0);
        series[1].push(width, rme / base);
    }
    series_table(
        "Figure 12a: Q5 (hash join) normalized execution time vs. column width",
        "Column width (B)",
        &series,
    )
}

/// Sub-figure (b): execution time and CPU / data-movement breakdown vs. row
/// width.
fn by_row_width(rows: u64) -> Table {
    let mut table = Table::new(
        "Figure 12b: Q5 (hash join) execution time and CPU/data breakdown vs. row width",
        &[
            "Row width (B)",
            "Direct Row-wise total (ms)",
            "Direct CPU (ms)",
            "Direct data (ms)",
            "RME total (ms)",
            "RME CPU (ms)",
            "RME data (ms)",
            "Data movement reduction (%)",
        ],
    );
    for row_bytes in ROW_WIDTHS {
        let params = BenchmarkParams {
            rows,
            inner_rows: rows,
            row_bytes,
            column_width: 4,
            ..BenchmarkParams::default()
        };
        let mut bench = Benchmark::new(params);
        let direct = bench.run(Query::Q5, AccessPath::DirectRowWise).measurement;
        let rme = bench.run(Query::Q5, AccessPath::RmeCold).measurement;
        let reduction = 100.0
            * (1.0 - rme.data_time().as_nanos_f64() / direct.data_time().as_nanos_f64().max(1.0));
        table.push_row(vec![
            row_bytes.to_string(),
            format!("{:.3}", direct.elapsed.as_millis_f64()),
            format!("{:.3}", direct.cpu_time.as_millis_f64()),
            format!("{:.3}", direct.data_time().as_millis_f64()),
            format!("{:.3}", rme.elapsed.as_millis_f64()),
            format!("{:.3}", rme.cpu_time.as_millis_f64()),
            format!("{:.3}", rme.data_time().as_millis_f64()),
            format!("{:.1}", reduction),
        ]);
    }
    table
}

/// Runs the Figure 12 experiment.
pub fn fig12(quick: bool) -> Experiment {
    let rows = default_rows(quick);
    Experiment {
        id: "fig12",
        description: "Hash join through the RME vs. a direct row-store join: modest end-to-end \
                      gain, large data-movement reduction, CPU hashing dominates both"
            .to_string(),
        tables: vec![by_column_width(rows), by_row_width(rows)],
    }
}
