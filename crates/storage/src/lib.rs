//! Relational storage substrate.
//!
//! The Relational Memory design keeps base data in plain row-major form in
//! physical memory and never materialises any other layout; everything else
//! (column groups, snapshots) is produced on the fly by the RME. This crate
//! provides that base layer plus the software-side baselines the paper
//! compares against:
//!
//! * typed [`Schema`]s and fixed-width row layouts (Listing 1 of the paper),
//! * [`RowTable`] — a row-major table resident in simulated
//!   [`PhysicalMemory`](relmem_dram::PhysicalMemory),
//! * [`ColumnarTable`] — a materialised column-store copy used by the
//!   "Direct Columnar" baseline,
//! * [`ColumnGroup`] — the description of a projection (the geometry the
//!   RME's configuration port receives),
//! * seeded synthetic [`datagen`] for the Relational Memory Benchmark,
//! * [`mvcc`] — the two-timestamp row versioning scheme of Section 4.

mod chunks;
pub mod column_table;
pub mod datagen;
pub mod error;
pub mod mvcc;
pub mod projection;
pub mod row;
pub mod schema;
pub mod table;
pub mod types;

pub use column_table::ColumnarTable;
pub use datagen::DataGen;
pub use error::StorageError;
pub use mvcc::{MvccConfig, Snapshot, Timestamp};
pub use projection::ColumnGroup;
pub use row::Row;
pub use schema::{ColumnDef, Schema};
pub use table::RowTable;
pub use types::{ColumnType, Value};
