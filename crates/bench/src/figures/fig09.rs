//! Figure 9: Q1 normalized execution time vs. projectivity.
//!
//! The paper's observations: the RME is roughly flat relative to direct
//! row-wise access regardless of how many columns are projected; a pure
//! column-store wins for 1–4 columns (the prefetcher covers up to four
//! streams) and loses beyond that because of tuple reconstruction and the
//! extra, unprefetched streams.

use relmem_core::{AccessPath, Benchmark, BenchmarkParams, Query};
use relmem_sim::report::{series_table, Series};

use super::{default_rows, Experiment};

/// Runs the Figure 9 experiment (projectivity 1..=11, 4-byte columns).
pub fn fig09(quick: bool) -> Experiment {
    let rows = default_rows(quick);
    let projectivities: Vec<usize> = if quick {
        vec![1, 3, 5, 8, 11]
    } else {
        (1..=11).collect()
    };

    let params = BenchmarkParams {
        rows,
        column_width: 4,
        ..BenchmarkParams::default()
    };
    let mut bench = Benchmark::new(params);

    let mut series: Vec<Series> = vec![
        Series::new("Direct Row-wise"),
        Series::new("RME Cold"),
        Series::new("Direct Columnar"),
    ];
    for &k in &projectivities {
        let query = Query::Q1 { projectivity: k };
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
        let columnar = bench
            .run(query, AccessPath::DirectColumnar)
            .measurement
            .elapsed
            .as_nanos_f64();
        series[0].push(k, 1.0);
        series[1].push(k, cold / base);
        series[2].push(k, columnar / base);
    }

    let table = series_table(
        "Figure 9: Q1 normalized execution time vs. projectivity (number of 4-byte target columns)",
        "Projectivity",
        &series,
    );
    Experiment {
        id: "fig9",
        description: "Projectivity sweep: the column-store wins at low projectivity, the RME wins \
                      beyond four columns, and both beat direct row-wise access"
            .to_string(),
        tables: vec![table],
    }
}
