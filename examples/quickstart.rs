//! Quickstart: register an ephemeral variable and run the paper's motivating
//! query (Listing 3) through it.
//!
//! ```text
//! SELECT sum(num_fld1 * num_fld4) FROM the_table WHERE num_fld3 > 10;
//! ```
//!
//! The table is stored row-major (Listing 1's ten-column schema); the query
//! only needs three of the ten columns, so an ephemeral variable projecting
//! `num_fld1, num_fld3, num_fld4` is registered with the Relational Memory
//! Engine and the query loop reads the packed projection — exactly the code
//! shape of Listing 4.
//!
//! Run with: `cargo run --release --example quickstart`

use relational_memory::core::system::{RowEffect, ScanSource};
use relational_memory::prelude::*;
use relmem_sim::SimTime;

fn main() {
    // 1. A platform with the MLP revision of the engine and 64 MiB of
    //    simulated physical memory.
    let mut system = System::with_revision(HwRevision::Mlp, 64 << 20);

    // 2. Load `the_table`: Listing 1's schema, 50 000 rows of synthetic data.
    let rows = 50_000u64;
    let schema = Schema::listing1();
    let mut table = system
        .create_table(schema, rows, MvccConfig::Disabled)
        .expect("table fits in memory");
    DataGen::new(7)
        .fill_table(system.mem_mut(), &mut table, rows)
        .expect("data generation succeeds");

    // 3. register_var(the_table, num_fld1, num_fld3, num_fld4)
    let num_fld1 = table.schema().index_of("num_fld1").unwrap();
    let num_fld3 = table.schema().index_of("num_fld3").unwrap();
    let num_fld4 = table.schema().index_of("num_fld4").unwrap();
    let group = ColumnGroup::new(vec![num_fld1, num_fld3, num_fld4]).unwrap();
    let cg = system
        .register_ephemeral(&table, group, None)
        .expect("ephemeral registration succeeds");
    println!(
        "registered ephemeral variable: {} rows x {} packed bytes ({} KiB projected from {} KiB of base data)",
        cg.rows(),
        cg.packed_row_bytes(),
        cg.total_bytes() / 1024,
        rows * table.schema().row_bytes() as u64 / 1024,
    );

    // 4. The query loop of Listing 4, measured on the simulated platform.
    let run_query = |system: &mut System, source: &ScanSource<'_>, path: AccessPath| {
        system.begin_measurement(path);
        let agg = system.cost_model().aggregate();
        let pred = system.cost_model().predicate();
        let mut sum: u64 = 0;
        let (end, cpu, _) = system.scan(source, SimTime::ZERO, |_, v| {
            // v = [num_fld1, num_fld3, num_fld4]
            let mut extra = pred;
            if v[1] > 10 {
                sum = sum.wrapping_add(v[0].wrapping_mul(v[2]));
                extra += agg;
            }
            RowEffect {
                cpu: extra,
                touch: None,
            }
        });
        let m = system.finish_measurement(end, cpu, path);
        (sum, m)
    };

    // Through the ephemeral variable (cold Reorganization Buffer)...
    let eph = ScanSource::Ephemeral { var: &cg };
    let (sum_rme, m_rme) = run_query(&mut system, &eph, AccessPath::RmeCold);

    // ...and directly over the row-major base data.
    let columns = [num_fld1, num_fld3, num_fld4];
    let rows_src = ScanSource::Rows {
        table: &table,
        columns: &columns,
        snapshot: None,
    };
    let (sum_direct, m_direct) = run_query(&mut system, &rows_src, AccessPath::DirectRowWise);

    assert_eq!(
        sum_rme, sum_direct,
        "both paths must compute the same result"
    );
    println!("\nSELECT sum(num_fld1 * num_fld4) WHERE num_fld3 > 10  =  {sum_rme}");
    println!(
        "  direct row-wise : {:>10.1} us   ({} L1 misses, {} DRAM bytes)",
        m_direct.elapsed_us(),
        m_direct.cache.l1.misses,
        m_direct.dram.bytes_transferred,
    );
    println!(
        "  relational mem. : {:>10.1} us   ({} L1 misses, {} DRAM bytes, {} useful bytes packed)",
        m_rme.elapsed_us(),
        m_rme.cache.l1.misses,
        m_rme.dram.bytes_transferred,
        m_rme.rme.useful_bytes,
    );
    println!(
        "  speedup         : {:>10.2}x",
        m_direct.elapsed_us() / m_rme.elapsed_us()
    );
}
