//! Smoke tests of the experiment harness: every figure/table generator runs
//! (at quick scale) and produces well-formed, non-trivial output.

use relmem_bench::{all_experiments, experiment_by_id};

#[test]
fn every_experiment_runs_at_quick_scale() {
    for id in all_experiments() {
        let experiment = experiment_by_id(id, true, false)
            .unwrap_or_else(|| panic!("experiment {id} is registered"));
        assert_eq!(experiment.id, id);
        assert!(!experiment.tables.is_empty(), "{id} produced no tables");
        for table in &experiment.tables {
            assert!(
                !table.rows.is_empty(),
                "{id}: table {:?} is empty",
                table.title
            );
            let text = table.render_text();
            assert!(text.contains('|'), "{id}: table did not render");
        }
    }
}

#[test]
fn unknown_experiment_ids_are_rejected() {
    assert!(experiment_by_id("fig99", true, false).is_none());
}

#[test]
fn figure7_quick_output_shows_rme_beating_direct_access() {
    let experiment = experiment_by_id("fig7", true, false).unwrap();
    let table = &experiment.tables[0];
    // Columns: width | Direct Row-Wise | RME Cold | RME Hot | Direct Columnar.
    for row in &table.rows {
        let direct: f64 = row[1].parse().unwrap();
        let cold: f64 = row[2].parse().unwrap();
        let hot: f64 = row[3].parse().unwrap();
        assert!(
            cold < direct,
            "RME cold must beat direct row-wise at width {}",
            row[0]
        );
        assert!(
            hot <= cold * 1.01,
            "RME hot must not exceed cold at width {}",
            row[0]
        );
    }
}

#[test]
fn table2_quick_output_matches_the_papers_magnitudes() {
    let experiment = experiment_by_id("table2", true, false).unwrap();
    let row = &experiment.tables[0].rows[0];
    let lut: f64 = row[1].parse().unwrap();
    let bram: f64 = row[3].parse().unwrap();
    assert!(
        lut < 5.0,
        "LUT utilisation should stay in single digits, got {lut}"
    );
    assert!(
        (bram - 60.69).abs() < 10.0,
        "BRAM utilisation should be ~60%, got {bram}"
    );
}
