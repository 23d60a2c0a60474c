//! Ephemeral variables and the Relational Memory query engine.
//!
//! This crate is the software half of the paper's co-design: it wires the
//! simulated platform together (physical memory, DRAM controller, cache
//! hierarchy, Relational Memory Engine), exposes the *ephemeral variable*
//! abstraction (`register_var` in the paper's Listing 4), and implements the
//! Relational Memory Benchmark — queries Q0–Q5 of Listing 5 — over four
//! access paths:
//!
//! * [`AccessPath::DirectRowWise`] — read the needed fields straight from
//!   the row-major table (the paper's "Direct Row-wise" baseline),
//! * [`AccessPath::DirectColumnar`] — read them from a materialised
//!   column-store copy ("Direct Columnar"),
//! * [`AccessPath::RmeCold`] — read them through an ephemeral variable with
//!   an empty Reorganization Buffer ("RME Cold"),
//! * [`AccessPath::RmeHot`] — the same with the buffer pre-packed
//!   ("RME Hot").
//!
//! Every query returns both its (bit-exact, cross-path-validated) result and
//! a [`measure::QueryMeasurement`] with simulated time and hardware
//! counters, which the `relmem-bench` crate turns into the paper's figures.

pub mod access_path;
pub mod benchmark;
pub mod cost;
pub mod ephemeral;
pub mod hashtbl;
mod interleave;
pub mod measure;
pub mod openloop;
mod periodic;
pub mod queries;
mod stepper;
pub mod system;
pub mod txn;
pub mod workload;

pub use access_path::AccessPath;
pub use benchmark::{Benchmark, BenchmarkParams};
pub use cost::CpuCostModel;
pub use ephemeral::EphemeralVariable;
pub use measure::{QueryMeasurement, QueryOutput};
pub use openloop::{
    AdmissionConfig, ArrivalProcess, DegradePolicy, OpenLoopOp, OpenLoopOutcome, OpenLoopRun,
    OpenLoopStream, OpenLoopStreamReport, OpenLoopWorkload,
};
pub use queries::Query;
pub use system::{CoreScan, ShardedScan, System, SystemConfig};
pub use txn::{TxnAbort, TxnOp, TxnSpec, TXN_TS_BASE};
pub use workload::{
    OpKind, OpOutcome, QueryStream, StreamReport, Workload, WorkloadError, WorkloadOp, WorkloadRun,
};
