//! HTAP with MVCC: transactional updates on the row store while analytical
//! queries read consistent snapshots through ephemeral variables.
//!
//! This exercises Section 4 of the paper: the base data stays row-major and
//! writable (appends, in-place updates, deletes via begin/end timestamps);
//! every ephemeral variable carries a snapshot and the engine filters row
//! versions while packing, so analytics always see exactly the rows valid at
//! their snapshot — without maintaining a second copy of the data.
//!
//! Run with: `cargo run --release --example htap_mvcc`

use relational_memory::core::system::{RowEffect, ScanSource};
use relational_memory::prelude::*;
use relmem_sim::SimTime;

fn main() {
    let mut system = System::with_revision(HwRevision::Mlp, 64 << 20);

    // An orders table: (order_id, customer, amount, status), versioned.
    let schema = Schema::new(vec![
        relational_memory::storage::ColumnDef::new("order_id", ColumnType::UInt(8)),
        relational_memory::storage::ColumnDef::new("customer", ColumnType::UInt(4)),
        relational_memory::storage::ColumnDef::new("amount", ColumnType::UInt(8)),
        relational_memory::storage::ColumnDef::new("status", ColumnType::UInt(4)),
    ])
    .unwrap();
    let orders = system
        .create_table(schema, 80_000, MvccConfig::Enabled)
        .expect("table fits");

    // OLTP phase 1 (ts 1..=10): ingest 20 000 orders.
    for i in 0..20_000u64 {
        let row = Row::from_u64s(&[i, i % 500, 10 + (i * 7) % 990, 0]);
        orders.append(system.mem_mut(), &row, 1 + i % 10).unwrap();
    }
    // OLAP snapshot A taken now, at ts 10.
    let snapshot_a = Snapshot::at(10);

    // OLTP phase 2 (ts 11..=20): cancel every 10th order (delete), ship every
    // 3rd (update status -> 2), and ingest 5 000 more orders.
    for i in (0..20_000u64).step_by(10) {
        orders.mark_deleted(system.mem_mut(), i, 11).unwrap();
    }
    for i in (0..20_000u64).step_by(3) {
        if i % 10 != 0 {
            let amount = orders.read_field(system.mem(), i, 2).unwrap().as_u64();
            let new = Row::from_u64s(&[i, i % 500, amount, 2]);
            orders.update(system.mem_mut(), i, &new, 15).unwrap();
        }
    }
    for i in 20_000..25_000u64 {
        let row = Row::from_u64s(&[i, i % 500, 10 + (i * 7) % 990, 0]);
        orders.append(system.mem_mut(), &row, 18).unwrap();
    }
    let snapshot_b = Snapshot::at(20);

    // OLAP: SELECT SUM(amount) over each snapshot, through ephemeral
    // variables projecting only (amount). The engine filters versions by the
    // snapshot while packing.
    let amount_col = orders.schema().index_of("amount").unwrap();
    let mut revenue_at = |snap: Snapshot| {
        let var = system
            .register_ephemeral(
                &orders,
                ColumnGroup::new(vec![amount_col]).unwrap(),
                Some(snap),
            )
            .expect("registration succeeds");
        system.begin_measurement(AccessPath::RmeCold);
        let agg = system.cost_model().aggregate();
        let mut sum = 0u64;
        let src = ScanSource::Ephemeral { var: &var };
        let (end, cpu, rows) = system.scan(&src, SimTime::ZERO, |_, v| {
            sum = sum.wrapping_add(v[0]);
            RowEffect {
                cpu: agg,
                touch: None,
            }
        });
        let m = system.finish_measurement(end, cpu, AccessPath::RmeCold);
        (sum, rows, m)
    };

    let (rev_a, rows_a, m_a) = revenue_at(snapshot_a);
    let (rev_b, rows_b, m_b) = revenue_at(snapshot_b);

    println!("snapshot A (ts=10): {rows_a} live orders, total amount {rev_a}");
    println!(
        "    analytical scan: {:.1} us, {} rows filtered out by the engine",
        m_a.elapsed_us(),
        m_a.rme.rows_filtered
    );
    println!("snapshot B (ts=20): {rows_b} live orders, total amount {rev_b}");
    println!(
        "    analytical scan: {:.1} us, {} rows filtered out by the engine",
        m_b.elapsed_us(),
        m_b.rme.rows_filtered
    );

    // Sanity: snapshot A must be completely unaffected by phase-2 activity.
    assert_eq!(rows_a, 20_000);
    assert!(rows_b > 20_000, "phase-2 inserts are visible at snapshot B");
    assert!(
        m_b.rme.rows_filtered > 0,
        "old versions are filtered while packing"
    );
    println!("\nsnapshot isolation holds: the ts=10 snapshot is unaffected by later updates.");
}
