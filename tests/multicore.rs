//! Multi-core sharded scans: scaling, determinism, shared-L2 contention
//! visibility and sharding edge cases.

use relational_memory::core::system::{RowEffect, ScanSource, SystemConfig};
use relational_memory::prelude::*;
use relmem_sim::SimTime;

fn build(cores: usize, rows: u64) -> (System, RowTable) {
    let mut cfg = SystemConfig {
        cores,
        ..SystemConfig::default()
    };
    cfg.mem_bytes = ((rows * 64) as usize + (16 << 20)).next_power_of_two();
    let mut sys = System::with_config(cfg);
    let schema = Schema::benchmark(4, 4, 64);
    let mut table = sys
        .create_table(schema, rows, MvccConfig::Disabled)
        .unwrap();
    DataGen::new(7)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .unwrap();
    (sys, table)
}

/// Sharded scan of the `scan_throughput` workload shape (4 columns of a
/// 64-byte row), returning (end, checksum, per-core contention delays).
fn sharded_scan(cores: usize, rows: u64) -> (SimTime, u64, Vec<SimTime>) {
    let (mut sys, table) = build(cores, rows);
    let columns = [0usize, 1, 2, 3];
    let src = ScanSource::Rows {
        table: &table,
        columns: &columns,
        snapshot: None,
    };
    sys.begin_measurement(AccessPath::DirectRowWise);
    let mut checksum = 0u64;
    let run = sys.scan_sharded(&src, SimTime::ZERO, |_core, _row, values| {
        checksum = checksum.wrapping_add(values.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
        RowEffect::default()
    });
    assert_eq!(run.rows, rows);
    let delays = run
        .per_core
        .iter()
        .map(|c| c.cache.l2_contention_delay)
        .collect();
    (run.end, checksum, delays)
}

#[test]
fn four_cores_scale_aggregate_simulated_throughput_over_2x() {
    let rows = 100_000;
    let (end1, sum1, _) = sharded_scan(1, rows);
    let (end4, sum4, _) = sharded_scan(4, rows);
    assert_eq!(sum1, sum4, "sharding must not change the scanned values");
    let scaling = end1.as_nanos_f64() / end4.as_nanos_f64();
    assert!(
        scaling > 2.0,
        "4-core sharded scan should scale aggregate simulated throughput \
         >2x over 1 core, got {scaling:.2}x ({end1} vs {end4})"
    );
}

/// The core-count-beyond-the-cluster sweep (fig13_multicore's 8-core
/// point). Measured on this workload: ~4.5x aggregate at 8 cores — well
/// short of linear, because the four shared-L2 banks and the DRAM bus
/// saturate (row-hit rate drops from ~0.97 to ~0.67). The gate is set
/// from that measurement with margin, and monotonicity over 4 cores is
/// required.
#[test]
fn eight_cores_keep_scaling_past_four() {
    let rows = 100_000;
    let (end1, sum1, _) = sharded_scan(1, rows);
    let (end4, _, _) = sharded_scan(4, rows);
    let (end8, sum8, _) = sharded_scan(8, rows);
    assert_eq!(sum1, sum8, "sharding must not change the scanned values");
    let scaling8 = end1.as_nanos_f64() / end8.as_nanos_f64();
    let scaling4 = end1.as_nanos_f64() / end4.as_nanos_f64();
    assert!(
        scaling8 > 3.5,
        "8-core sharded scan should scale aggregate simulated throughput \
         >3.5x over 1 core (measured ~4.5x), got {scaling8:.2}x"
    );
    assert!(
        scaling8 > scaling4,
        "8 cores must still beat 4 ({scaling8:.2}x vs {scaling4:.2}x)"
    );
}

#[test]
fn shared_l2_contention_is_visible_in_per_core_stats() {
    let (_, _, delays) = sharded_scan(4, 20_000);
    assert!(
        delays.iter().any(|d| !d.is_zero()),
        "at least one core should report shared-L2 bank contention, got {delays:?}"
    );
    // And single-core runs must never report any.
    let (_, _, solo) = sharded_scan(1, 20_000);
    assert!(solo.iter().all(|d| d.is_zero()), "1 core cannot contend");
}

#[test]
fn sharded_scans_are_deterministic() {
    let a = sharded_scan(3, 10_001);
    let b = sharded_scan(3, 10_001);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn core_counts_that_do_not_divide_the_rows_cover_every_row() {
    for (cores, rows) in [(3usize, 10_007u64), (4, 2), (5, 9_999), (7, 13)] {
        let (mut sys, table) = build(cores, rows);
        let columns = [0usize];
        let src = ScanSource::Rows {
            table: &table,
            columns: &columns,
            snapshot: None,
        };
        sys.begin_measurement(AccessPath::DirectRowWise);
        let mut seen = vec![false; rows as usize];
        let run = sys.scan_sharded(&src, SimTime::ZERO, |_core, row, _| {
            assert!(!seen[row as usize], "row {row} scanned twice");
            seen[row as usize] = true;
            RowEffect::default()
        });
        assert_eq!(run.rows, rows, "cores={cores} rows={rows}");
        assert!(seen.iter().all(|&s| s), "cores={cores} rows={rows}");
        // Shards partition the range contiguously.
        let covered: u64 = run.per_core.iter().map(|c| c.shard_rows).sum();
        assert_eq!(covered, rows);
    }
}

#[test]
fn zero_row_tables_scan_to_nothing_on_any_core_count() {
    for cores in [1usize, 4] {
        let (mut sys, table) = build(cores, 0);
        let columns = [0usize];
        let src = ScanSource::Rows {
            table: &table,
            columns: &columns,
            snapshot: None,
        };
        sys.begin_measurement(AccessPath::DirectRowWise);
        let run = sys.scan_sharded(&src, SimTime::ZERO, |_, _, _| {
            panic!("no rows should be scanned")
        });
        assert_eq!(run.rows, 0);
        assert_eq!(run.end, SimTime::ZERO);
        assert_eq!(run.per_core.len(), cores);
    }
}

/// Pins the documented behaviour of single-threaded `scan` on a
/// multi-core system: the shared-L2 bank model stays engaged, so core 0's
/// prefetches contend with its own demand lookups and timing differs
/// (slightly, upward) from a `cores = 1` system, where bank occupancy is
/// bypassed for fidelity to the paper's single-threaded setup.
#[test]
fn single_threaded_scan_on_a_multicore_system_models_self_contention() {
    let rows = 10_000;
    let columns = [0usize, 1, 2, 3];
    let run = |cores: usize| {
        let (mut sys, table) = build(cores, rows);
        let src = ScanSource::Rows {
            table: &table,
            columns: &columns,
            snapshot: None,
        };
        sys.begin_measurement(AccessPath::DirectRowWise);
        let (end, _, _) = sys.scan(&src, SimTime::ZERO, |_, _| RowEffect::default());
        (end, sys.core_stats(0).l2_contended_lookups)
    };
    let (end1, contended1) = run(1);
    let (end4, contended4) = run(4);
    assert_eq!(contended1, 0, "cores=1 bypasses the bank model");
    assert!(contended4 > 0, "core 0 self-contends on a 4-core system");
    assert!(
        end4 > end1,
        "self-contention must cost time ({end4} vs {end1})"
    );
    assert!(
        end4.as_nanos_f64() < end1.as_nanos_f64() * 1.15,
        "self-contention should stay a small effect ({end4} vs {end1})"
    );
}

#[test]
fn per_core_dram_traffic_is_attributed() {
    let rows = 10_000;
    let (mut sys, table) = build(4, rows);
    let columns = [0usize, 1, 2, 3];
    let src = ScanSource::Rows {
        table: &table,
        columns: &columns,
        snapshot: None,
    };
    sys.begin_measurement(AccessPath::DirectRowWise);
    let run = sys.scan_sharded(&src, SimTime::ZERO, |_, _, _| RowEffect::default());
    let m = sys.finish_measurement(run.end, run.cpu, AccessPath::DirectRowWise);
    // All four cores fetched their shard from DRAM.
    assert_eq!(m.dram.per_core_accesses.len(), 4);
    assert!(m.dram.per_core_accesses.iter().all(|&n| n > 0));
    // And the aggregate cache counters are the sum of the per-core ones.
    let l1_sum: u64 = (0..4).map(|c| sys.core_stats(c).l1.requests).sum();
    assert_eq!(m.cache.l1.requests, l1_sum);
}

/// Regression test for the multi-frame reorganization-buffer thrash: a
/// sharded ephemeral scan whose shards live in different RME frames must
/// complete with O(cores x frames) frame fetches, not one fetch per
/// access (the naive min-clock schedule re-fetched the frame on nearly
/// every step, which was an effective livelock at scale).
#[test]
fn sharded_ephemeral_scan_spanning_many_frames_stays_frame_granular() {
    let rows: u64 = 12_000;
    let mut platform = relmem_sim::PlatformConfig::zcu102();
    platform.rme.data_spm_bytes = 4 * 1024; // tiny SPM => many frames
    let make = |cores: usize| {
        let mut sys = System::with_config(SystemConfig {
            cores,
            platform: platform.clone(),
            ..SystemConfig::default()
        });
        let schema = Schema::benchmark(4, 4, 64);
        let mut table = sys
            .create_table(schema, rows, MvccConfig::Disabled)
            .unwrap();
        DataGen::new(3)
            .fill_table(sys.mem_mut(), &mut table, rows)
            .unwrap();
        let var = sys
            .register_ephemeral(&table, ColumnGroup::new(vec![0, 1]).unwrap(), None)
            .unwrap();
        (sys, table, var)
    };

    // 2 columns x 4 bytes = 8 packed bytes/row; 4 KB SPM => 512 rows/frame,
    // so 12 000 rows span ~24 frames and every 4-core shard crosses frames.
    let (mut sys, _table, var) = make(4);
    let frames = rows.div_ceil(sys.engine().rows_per_frame().unwrap());
    assert!(
        frames >= 8,
        "test needs a multi-frame variable, got {frames}"
    );
    let src = ScanSource::Ephemeral { var: &var };
    sys.begin_measurement(AccessPath::RmeCold);
    let mut sum4 = 0u64;
    let run = sys.scan_sharded(&src, SimTime::ZERO, |_, _, values| {
        sum4 = sum4.wrapping_add(values[0]).wrapping_add(values[1]);
        RowEffect::default()
    });
    assert_eq!(run.rows, rows);
    let fetched = sys
        .finish_measurement(run.end, run.cpu, AccessPath::RmeCold)
        .rme
        .frames_fetched;
    assert!(
        fetched <= frames * 4 + 4,
        "frame fetches must stay frame-granular: {fetched} fetches for {frames} frames"
    );

    // Values agree with a single-core scan of an identical world.
    let (mut solo, _table2, var2) = make(1);
    let src2 = ScanSource::Ephemeral { var: &var2 };
    solo.begin_measurement(AccessPath::RmeCold);
    let mut sum1 = 0u64;
    solo.scan(&src2, SimTime::ZERO, |_, values| {
        sum1 = sum1.wrapping_add(values[0]).wrapping_add(values[1]);
        RowEffect::default()
    });
    assert_eq!(sum4, sum1);
}

#[test]
fn sharded_ephemeral_scan_agrees_with_single_core() {
    let rows = 5_000;
    let (mut sys, table) = build(4, rows);
    let var = sys
        .register_ephemeral(&table, ColumnGroup::new(vec![0, 2]).unwrap(), None)
        .unwrap();
    let src = ScanSource::Ephemeral { var: &var };

    sys.begin_measurement(AccessPath::RmeCold);
    let mut sharded_sum = 0u64;
    let run = sys.scan_sharded(&src, SimTime::ZERO, |_, _, values| {
        sharded_sum = sharded_sum.wrapping_add(values[0]).wrapping_add(values[1]);
        RowEffect::default()
    });
    assert_eq!(run.rows, rows);
    // Every core's L2 misses reached the engine.
    for (c, core) in run.per_core.iter().enumerate().take(4) {
        assert!(core.cache.backend_fills > 0, "core {c}: {:?}", core.cache);
    }

    // Reference: single-core scan of the same variable.
    let (mut solo, table2) = build(1, rows);
    let var2 = solo
        .register_ephemeral(&table2, ColumnGroup::new(vec![0, 2]).unwrap(), None)
        .unwrap();
    let src2 = ScanSource::Ephemeral { var: &var2 };
    solo.begin_measurement(AccessPath::RmeCold);
    let mut solo_sum = 0u64;
    solo.scan(&src2, SimTime::ZERO, |_, values| {
        solo_sum = solo_sum.wrapping_add(values[0]).wrapping_add(values[1]);
        RowEffect::default()
    });
    assert_eq!(sharded_sum, solo_sum);
}
