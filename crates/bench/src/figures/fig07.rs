//! Figure 7: Q1 (three-column projection) normalized execution time vs.
//! column width.
//!
//! The paper's observations: RME (cold and hot) beats direct row-wise access
//! at every width, roughly matches a pure column-store, and overtakes the
//! column-store at 16-byte columns.

use relmem_core::{AccessPath, Benchmark, BenchmarkParams, Query};
use relmem_sim::report::{series_table, Series};

use super::{default_rows, Experiment};

/// Column widths swept by the paper.
pub const WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// Runs the Figure 7 experiment. Values are normalized to direct row-wise
/// access at the same width.
pub fn fig07(quick: bool) -> Experiment {
    let rows = default_rows(quick);
    let query = Query::Q1 { projectivity: 3 };
    let mut series: Vec<Series> = vec![
        Series::new("Direct Row-Wise"),
        Series::new("RME Cold"),
        Series::new("RME Hot"),
        Series::new("Direct Columnar"),
    ];

    for width in WIDTHS {
        let params = BenchmarkParams {
            rows,
            column_width: width,
            ..BenchmarkParams::default()
        };
        let mut bench = Benchmark::new(params);
        let base = bench
            .run(query, AccessPath::DirectRowWise)
            .measurement
            .elapsed
            .as_nanos_f64();
        let normalized =
            |b: &mut Benchmark, path| b.run(query, path).measurement.elapsed.as_nanos_f64() / base;
        series[0].push(width, 1.0);
        series[1].push(width, normalized(&mut bench, AccessPath::RmeCold));
        series[2].push(width, normalized(&mut bench, AccessPath::RmeHot));
        series[3].push(width, normalized(&mut bench, AccessPath::DirectColumnar));
    }

    let table = series_table(
        "Figure 7: Q1 (k=3) normalized execution time vs. column width",
        "Column width (B)",
        &series,
    );
    Experiment {
        id: "fig7",
        description: "Projection of three non-contiguous columns: RME vs. direct row-wise and \
                      pure columnar access, normalized to direct row-wise"
            .to_string(),
        tables: vec![table],
    }
}
