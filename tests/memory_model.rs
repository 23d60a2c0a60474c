//! System-level tests of the DRAM model selector: the cycle-accurate
//! model plugs in behind `DramConfig::model` and every access path —
//! direct rows, columnar, ephemeral (RME), sharded, workload — produces
//! the same *data* on either model, while only the timing fidelity
//! differs. Command-level timing itself is unit- and property-tested in
//! `crates/dram/src/controller_ca.rs`; the golden fixture
//! `tests/golden/scan_rows_1core_ca.golden` locks the counters.

use relational_memory::core::system::{RowEffect, ScanSource, SystemConfig};
use relational_memory::prelude::*;
use relmem_sim::{MemoryModel, SimTime};

fn build(model: MemoryModel, cores: usize, rows: u64) -> (System, RowTable) {
    let mut config = SystemConfig {
        cores,
        mem_bytes: 32 << 20,
        ..SystemConfig::default()
    };
    config.platform.dram.model = model;
    let mut sys = System::with_config(config);
    let schema = Schema::benchmark(4, 4, 64);
    let mut table = sys
        .create_table(schema, rows, MvccConfig::Disabled)
        .unwrap();
    DataGen::new(5)
        .fill_table(sys.mem_mut(), &mut table, rows)
        .unwrap();
    (sys, table)
}

/// Scans one column through `path` and returns `(checksum, end)`.
fn scan_checksum(model: MemoryModel, rows: u64, path: AccessPath) -> (u64, SimTime) {
    let (mut sys, table) = build(model, 1, rows);
    assert_eq!(sys.memory_model(), model);
    let columns = [0usize, 2];
    let columnar;
    let var;
    let source = match path {
        AccessPath::DirectColumnar => {
            columnar = sys.materialize_columnar(&table).unwrap();
            ScanSource::Columnar {
                table: &columnar,
                columns: &columns,
            }
        }
        AccessPath::RmeCold => {
            var = sys
                .register_ephemeral(&table, ColumnGroup::new(vec![0, 2]).unwrap(), None)
                .unwrap();
            ScanSource::Ephemeral { var: &var }
        }
        _ => ScanSource::Rows {
            table: &table,
            columns: &columns,
            snapshot: None,
        },
    };
    sys.begin_measurement(path);
    let mut sum = 0u64;
    let (end, _, scanned) = sys.scan(&source, SimTime::ZERO, |_, values| {
        sum = sum
            .wrapping_add(values[0])
            .wrapping_add(values[1].rotate_left(7));
        RowEffect::default()
    });
    assert_eq!(scanned, rows);
    (sum, end)
}

#[test]
fn both_models_scan_identical_data_on_every_path() {
    for path in [
        AccessPath::DirectRowWise,
        AccessPath::DirectColumnar,
        AccessPath::RmeCold,
    ] {
        let (occ_sum, occ_end) = scan_checksum(MemoryModel::Occupancy, 3_000, path);
        let (ca_sum, ca_end) = scan_checksum(MemoryModel::CycleAccurate, 3_000, path);
        assert_eq!(
            occ_sum, ca_sum,
            "{path:?}: the timing model changed the data"
        );
        assert!(occ_end > SimTime::ZERO && ca_end > SimTime::ZERO);
    }
}

#[test]
fn cycle_accurate_runs_are_deterministic_at_system_level() {
    let a = scan_checksum(MemoryModel::CycleAccurate, 2_000, AccessPath::DirectRowWise);
    let b = scan_checksum(MemoryModel::CycleAccurate, 2_000, AccessPath::DirectRowWise);
    assert_eq!(a, b);
}

#[test]
fn cycle_accurate_counters_reach_the_measurement() {
    let (mut sys, table) = build(MemoryModel::CycleAccurate, 1, 5_000);
    let columns = [0usize];
    let source = ScanSource::Rows {
        table: &table,
        columns: &columns,
        snapshot: None,
    };
    sys.begin_measurement(AccessPath::DirectRowWise);
    let (end, cpu, _) = sys.scan(&source, SimTime::ZERO, |_, _| RowEffect::default());
    let m = sys.finish_measurement(end, cpu, AccessPath::DirectRowWise);
    // A multi-hundred-microsecond scan crosses many tREFI windows.
    assert!(
        m.dram.refreshes > 0,
        "a long cycle-accurate scan must observe refreshes"
    );
    assert!(
        m.dram.queue_occupancy_sum > 0,
        "prefetches overlap in the queue"
    );
    // And begin_measurement resets the command-level state too.
    sys.begin_measurement(AccessPath::DirectRowWise);
    assert_eq!(sys.dram_stats().refreshes, 0);
}

#[test]
fn sharded_scans_run_on_the_cycle_accurate_model() {
    let (mut sys, table) = build(MemoryModel::CycleAccurate, 4, 10_000);
    let columns = [0usize, 1, 2, 3];
    let source = ScanSource::Rows {
        table: &table,
        columns: &columns,
        snapshot: None,
    };
    sys.begin_measurement(AccessPath::DirectRowWise);
    let mut sum = 0u64;
    let run = sys.scan_sharded(&source, SimTime::ZERO, |_, _, values| {
        sum = sum.wrapping_add(values.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
        RowEffect::default()
    });
    assert_eq!(run.rows, 10_000);

    // Same world, occupancy model: identical data.
    let (mut occ, table2) = build(MemoryModel::Occupancy, 4, 10_000);
    let source2 = ScanSource::Rows {
        table: &table2,
        columns: &columns,
        snapshot: None,
    };
    occ.begin_measurement(AccessPath::DirectRowWise);
    let mut occ_sum = 0u64;
    let occ_run = occ.scan_sharded(&source2, SimTime::ZERO, |_, _, values| {
        occ_sum = occ_sum.wrapping_add(values.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
        RowEffect::default()
    });
    assert_eq!(sum, occ_sum);
    assert_eq!(run.rows, occ_run.rows);
}
