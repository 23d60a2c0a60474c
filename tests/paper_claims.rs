//! End-to-end checks of the paper's qualitative claims on scaled-down
//! workloads: orderings, crossovers and stability — the properties
//! EXPERIMENTS.md reports at full scale.

use relational_memory::prelude::*;

fn bench(rows: u64) -> Benchmark {
    Benchmark::new(BenchmarkParams {
        rows,
        inner_rows: rows,
        ..BenchmarkParams::default()
    })
}

/// Section 6.3, Figure 6: the hardware revisions are strictly ordered and
/// the most optimised revision (MLP) serves a cold single-column projection
/// faster than reading the rows directly from DRAM.
#[test]
fn hardware_revisions_are_ordered_and_mlp_beats_direct_access() {
    let mut elapsed = Vec::new();
    for revision in HwRevision::all() {
        let mut b = Benchmark::new(BenchmarkParams {
            rows: 8_000,
            target_offset: Some(0),
            revision,
            ..BenchmarkParams::default()
        });
        let cold = b.run(Query::Q0, AccessPath::RmeCold).measurement.elapsed;
        let hot = b.run(Query::Q0, AccessPath::RmeHot).measurement.elapsed;
        let direct = b
            .run(Query::Q0, AccessPath::DirectRowWise)
            .measurement
            .elapsed;
        assert!(
            hot <= cold,
            "{}: hot must not exceed cold",
            revision.label()
        );
        elapsed.push((revision, cold, direct));
    }
    let (_, bsl_cold, _) = elapsed[0];
    let (_, pck_cold, _) = elapsed[1];
    let (_, mlp_cold, direct) = elapsed[2];
    assert!(
        bsl_cold > pck_cold,
        "the packer must improve on the baseline"
    );
    assert!(
        pck_cold > mlp_cold,
        "memory-level parallelism must improve on the packer"
    );
    assert!(
        mlp_cold < direct,
        "MLP cold ({mlp_cold}) must beat direct row-wise access ({direct})"
    );
    assert!(
        bsl_cold.as_nanos_f64() > 3.0 * direct.as_nanos_f64(),
        "BSL cold ({bsl_cold}) must be several times slower than direct access ({direct})"
    );
}

/// Figure 6: the projected column's offset does not change RME performance,
/// except for the slight penalty when the field straddles a bus word.
#[test]
fn column_offset_does_not_matter_except_for_bus_word_straddling() {
    let run_at = |offset: usize| {
        let mut b = Benchmark::new(BenchmarkParams {
            rows: 8_000,
            target_offset: Some(offset),
            ..BenchmarkParams::default()
        });
        b.run(Query::Q0, AccessPath::RmeCold)
            .measurement
            .elapsed
            .as_nanos_f64()
    };
    let aligned: Vec<f64> = [0usize, 16, 32, 48].iter().map(|&o| run_at(o)).collect();
    let straddling = run_at(13);
    let min = aligned.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = aligned.iter().cloned().fold(0.0, f64::max);
    assert!(
        max / min < 1.05,
        "aligned offsets should perform identically (min {min}, max {max})"
    );
    assert!(
        straddling >= max,
        "a straddling field must not be faster than aligned ones"
    );
}

/// Figures 7 and 9: the RME beats direct row-wise access for projection
/// queries, and the projectivity crossover against the column store exists —
/// the column store is competitive at low projectivity and loses at high
/// projectivity.
#[test]
fn projectivity_crossover_exists() {
    let mut b = bench(8_000);
    let ratio = |b: &mut Benchmark, k: usize, path: AccessPath| {
        let q = Query::Q1 { projectivity: k };
        let base = b
            .run(q, AccessPath::DirectRowWise)
            .measurement
            .elapsed
            .as_nanos_f64();
        b.run(q, path).measurement.elapsed.as_nanos_f64() / base
    };
    for k in [1, 3, 8, 11] {
        assert!(
            ratio(&mut b, k, AccessPath::RmeCold) < 1.0,
            "RME must beat direct row-wise access at projectivity {k}"
        );
    }
    // Low projectivity: the column store is at least as good as the RME.
    let col_low = ratio(&mut b, 1, AccessPath::DirectColumnar);
    let rme_low = ratio(&mut b, 1, AccessPath::RmeCold);
    assert!(
        col_low <= rme_low * 1.05,
        "columnar should win (or tie) at k=1"
    );
    // High projectivity: the column store falls behind both.
    let col_high = ratio(&mut b, 11, AccessPath::DirectColumnar);
    let rme_high = ratio(&mut b, 11, AccessPath::RmeCold);
    assert!(
        col_high > rme_high,
        "the RME must beat the column store at high projectivity"
    );
    assert!(
        col_high > 1.0,
        "tuple reconstruction must hurt the column store at k=11"
    );
}

/// Figure 8: the RME pollutes the caches less than direct row-wise access.
#[test]
fn rme_reduces_cache_misses() {
    let mut b = bench(8_000);
    let q = Query::Q1 { projectivity: 3 };
    let direct = b.run(q, AccessPath::DirectRowWise).measurement;
    let rme = b.run(q, AccessPath::RmeCold).measurement;
    assert!(
        rme.cache.l1.misses * 2 < direct.cache.l1.misses,
        "RME L1 misses ({}) should be far below direct row-wise ({})",
        rme.cache.l1.misses,
        direct.cache.l1.misses
    );
    assert!(rme.cache.l2.misses < direct.cache.l2.misses);
}

/// Figure 11: direct row-wise access degrades with the row width, the RME
/// stays roughly flat, so the gain grows with the row size.
#[test]
fn rme_benefit_grows_with_row_width() {
    let gain_at = |row_bytes: usize| {
        let mut b = Benchmark::new(BenchmarkParams {
            rows: 8_000,
            row_bytes,
            column_width: 4,
            ..BenchmarkParams::default()
        });
        let direct = b
            .run(Query::Q2, AccessPath::DirectRowWise)
            .measurement
            .elapsed;
        let rme = b.run(Query::Q2, AccessPath::RmeCold).measurement.elapsed;
        direct.as_nanos_f64() / rme.as_nanos_f64()
    };
    let narrow = gain_at(16);
    let wide = gain_at(256);
    assert!(
        wide > narrow,
        "gain at 256 B rows ({wide:.2}x) must exceed 16 B rows ({narrow:.2}x)"
    );
    assert!(
        wide > 1.2,
        "the gain at wide rows should be substantial, got {wide:.2}x"
    );
}

/// Figure 12: the join's CPU share is path-independent while the RME reduces
/// the data-movement share.
#[test]
fn join_data_movement_is_reduced_but_cpu_cost_is_identical() {
    let mut b = Benchmark::new(BenchmarkParams {
        rows: 6_000,
        inner_rows: 6_000,
        row_bytes: 128,
        column_width: 4,
        ..BenchmarkParams::default()
    });
    let direct = b.run(Query::Q5, AccessPath::DirectRowWise).measurement;
    let rme = b.run(Query::Q5, AccessPath::RmeCold).measurement;
    let cpu_delta = (direct.cpu_time.as_nanos_f64() - rme.cpu_time.as_nanos_f64()).abs()
        / direct.cpu_time.as_nanos_f64();
    assert!(
        cpu_delta < 0.02,
        "CPU time must be path-independent (delta {cpu_delta:.3})"
    );
    assert!(
        rme.data_time() < direct.data_time(),
        "the RME must reduce the data-movement share"
    );
    assert!(
        rme.elapsed <= direct.elapsed,
        "the join must not get slower through the RME"
    );
}

/// Figure 13: the relative benefit of the RME is stable as the data size
/// grows past the Data SPM capacity (multi-frame operation).
#[test]
fn scaling_keeps_the_benefit_roughly_constant() {
    let normalized = |rows: u64| {
        let mut b = Benchmark::new(BenchmarkParams {
            rows,
            row_bytes: 64,
            column_width: 4,
            inner_rows: 0,
            ..BenchmarkParams::default()
        });
        let q = Query::Q1 { projectivity: 4 };
        let direct = b
            .run(q, AccessPath::DirectRowWise)
            .measurement
            .elapsed
            .as_nanos_f64();
        let run = b.run(q, AccessPath::RmeCold);
        (
            run.measurement.elapsed.as_nanos_f64() / direct,
            run.measurement.rme.frames_fetched,
        )
    };
    // 16 MB and 48 MB tables: the 4-column, 4-byte projection packs to 4 MB
    // and 12 MB respectively, i.e. 2 and 6 frames of the 2 MB Data SPM.
    let (small, frames_small) = normalized(16 * 1024 * 1024 / 64);
    let (large, frames_large) = normalized(48 * 1024 * 1024 / 64);
    assert!(
        frames_small >= 2,
        "the small table must already span multiple frames"
    );
    assert!(frames_large > frames_small);
    assert!(small < 1.0 && large < 1.0, "the RME must win at both sizes");
    assert!(
        (small - large).abs() < 0.1,
        "normalized cost should be stable across sizes ({small:.3} vs {large:.3})"
    );
}

/// Figure 13's constant ratio is an exact period: on Q1 (k = 4, 64 B rows,
/// occupancy DRAM, MLP), every 2 MB Data SPM frame after the first adds the
/// same RME-cold time, and every 131,072-row block after the first adds the
/// same direct row-wise time and the same direct columnar time, to the
/// picosecond. A block is one columnar period (131,072 rows of 4-byte
/// columns span the 512 KB translation span), so four blocks are the
/// fewest over which a columnar scan fast-forwards.
#[test]
fn multi_frame_scans_grow_by_an_exact_period() {
    const FRAME_ROWS: u64 = 2 * 1024 * 1024 / 16; // 4 packed 4-byte columns
    let elapsed = |frames: u64| {
        let mut b = Benchmark::new(BenchmarkParams {
            rows: frames * FRAME_ROWS,
            row_bytes: 64,
            column_width: 4,
            inner_rows: 0,
            ..BenchmarkParams::default()
        });
        assert_eq!(
            b.system().memory_model(),
            relational_memory::sim::MemoryModel::Occupancy
        );
        let q = Query::Q1 { projectivity: 4 };
        let direct = b.run(q, AccessPath::DirectRowWise).measurement.elapsed;
        let columnar = b.run(q, AccessPath::DirectColumnar).measurement.elapsed;
        let rme = b.run(q, AccessPath::RmeCold).measurement;
        assert_eq!(rme.rme.frames_fetched, frames);
        (
            direct.as_picos(),
            columnar.as_picos(),
            rme.elapsed.as_picos(),
        )
    };
    let runs: Vec<(u64, u64, u64)> = (1..=4).map(elapsed).collect();
    for pair in runs.windows(2) {
        assert_eq!(
            pair[1].0 - pair[0].0,
            4_621_467_648,
            "direct row-wise period"
        );
        assert_eq!(
            pair[1].1 - pair[0].1,
            4_284_448_768,
            "direct columnar period"
        );
        assert_eq!(pair[1].2 - pair[0].2, 3_394_707_990, "RME-cold period");
    }
}
