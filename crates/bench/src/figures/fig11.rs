//! Figure 11: Q2, Q3, Q4 with varying row width (4-byte columns).
//!
//! The paper's observations: the RME's execution time stays essentially flat
//! as rows grow (it fetches only the useful columns), while direct row-wise
//! access degrades with row width because every row drags more useless bytes
//! through the caches — the gain reaches ~1.4× at 256-byte rows.

use relmem_core::{AccessPath, Benchmark, BenchmarkParams, Query};
use relmem_sim::report::{series_table, Series, Table};

use super::{default_rows, Experiment};

/// Row widths swept by the paper.
pub const ROW_WIDTHS: [usize; 5] = [16, 32, 64, 128, 256];

fn sub_figure(query: Query, label: &str, rows: u64) -> Table {
    let mut series: Vec<Series> = vec![
        Series::new("Direct Row-wise (us)"),
        Series::new("RME Cold (us)"),
        Series::new("RME Hot (us)"),
    ];
    for row_bytes in ROW_WIDTHS {
        let params = BenchmarkParams {
            rows,
            row_bytes,
            column_width: 4,
            ..BenchmarkParams::default()
        };
        let mut bench = Benchmark::new(params);
        let direct = bench
            .run(query, AccessPath::DirectRowWise)
            .measurement
            .elapsed_us();
        let cold = bench
            .run(query, AccessPath::RmeCold)
            .measurement
            .elapsed_us();
        let hot = bench
            .run(query, AccessPath::RmeHot)
            .measurement
            .elapsed_us();
        series[0].push(row_bytes, direct);
        series[1].push(row_bytes, cold);
        series[2].push(row_bytes, hot);
    }
    series_table(
        &format!("Figure 11: {label} execution time vs. row width"),
        "Row width (B)",
        &series,
    )
}

/// Runs the Figure 11 experiment (all three sub-figures).
pub fn fig11(quick: bool) -> Experiment {
    let rows = default_rows(quick);
    let tables = vec![
        sub_figure(Query::Q2, "Q2 (selection + projection)", rows),
        sub_figure(Query::Q3, "Q3 (selective aggregation)", rows),
        sub_figure(Query::Q4, "Q4 (aggregation + group by)", rows),
    ];
    Experiment {
        id: "fig11",
        description: "Q2/Q3/Q4 with varying row width: the RME's cost tracks the useful data, \
                      direct row-wise access degrades with the row size"
            .to_string(),
        tables,
    }
}
