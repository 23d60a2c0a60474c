//! Figure 10: selection/aggregation/group-by queries (Q2, Q3, Q4) with
//! varying column width.
//!
//! The paper's observations: the RME (cold and hot) outperforms direct
//! row-wise access for all three queries; the benefit is smaller for Q4
//! because the group-by CPU work dominates; Q3/Q4 dip at 16-byte columns.

use relmem_core::{AccessPath, Benchmark, BenchmarkParams, Query};
use relmem_sim::report::{series_table, Series, Table};

use super::{default_rows, Experiment};
use crate::figures::fig07::WIDTHS;

/// Builds one sub-figure (one query) of Figure 10.
fn sub_figure(query: Query, label: &str, rows: u64) -> Table {
    let mut series: Vec<Series> = vec![
        Series::new("Direct Row-wise"),
        Series::new("RME Cold"),
        Series::new("RME Hot"),
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
        let cold = bench
            .run(query, AccessPath::RmeCold)
            .measurement
            .elapsed
            .as_nanos_f64();
        let hot = bench
            .run(query, AccessPath::RmeHot)
            .measurement
            .elapsed
            .as_nanos_f64();
        series[0].push(width, 1.0);
        series[1].push(width, cold / base);
        series[2].push(width, hot / base);
    }
    series_table(
        &format!("Figure 10: {label} normalized execution time vs. column width"),
        "Column width (B)",
        &series,
    )
}

/// Runs the Figure 10 experiment (all three sub-figures).
pub fn fig10(quick: bool) -> Experiment {
    let rows = default_rows(quick);
    let tables = vec![
        sub_figure(Query::Q2, "Q2 (selection + projection)", rows),
        sub_figure(Query::Q3, "Q3 (selective aggregation)", rows),
        sub_figure(Query::Q4, "Q4 (aggregation + group by)", rows),
    ];
    Experiment {
        id: "fig10",
        description: "Q2/Q3/Q4 with varying column width, normalized to direct row-wise access"
            .to_string(),
        tables,
    }
}
