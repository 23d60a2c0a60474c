//! Byte-accurate physical memory and a DRAM controller timing model.
//!
//! The Relational Memory paper's entire argument is about *what* crosses the
//! memory system and *how well* its latency can be overlapped, so this crate
//! models the two things that matter:
//!
//! * [`PhysicalMemory`] — the actual bytes of main memory. Row-major tables
//!   live here, and the RME really reads these bytes when it packs column
//!   groups, so functional correctness is testable end to end.
//! * [`DramController`] — a transaction-level timing model with per-bank
//!   open-row state, activate/CAS/precharge latencies, a shared data bus,
//!   and bank-level parallelism. Requests carry a `ready` time, so callers
//!   that issue multiple outstanding transactions (the MLP revision of the
//!   RME, the CPU's stream prefetcher) naturally overlap latency until the
//!   bus or the banks saturate.
//! * [`CycleAccurateDram`] — a command-level model (per-bank ACT/PRE/RD/WR
//!   state machines, tFAW activate throttling, periodic refresh, a bounded
//!   transaction queue) for experiments that need command-level effects the
//!   occupancy model folds into constants.
//!
//! Both timing models sit behind the [`DramModel`] dispatcher, selected per
//! run by `DramConfig::model`; they share the address mapping, the request
//! and completion types and the [`DramStats`] counters.

pub mod address;
pub mod controller;
pub mod controller_ca;
pub mod model;
pub mod phys;
pub mod request;

pub use address::{AddressMapping, DramCoord};
pub use controller::{DramController, DramStats};
pub use controller_ca::CycleAccurateDram;
pub use model::DramModel;
pub use phys::PhysicalMemory;
pub use request::{Completion, MemRequest, ReqKind, Requestor};
