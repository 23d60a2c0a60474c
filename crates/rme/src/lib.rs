//! The Relational Memory Engine (RME).
//!
//! This crate is the paper's primary contribution rebuilt in simulation: a
//! data-reorganization engine that sits between the CPU caches and main
//! memory, intercepts cache-line requests aimed at *ephemeral* addresses,
//! and answers them by fetching only the useful bytes of a row-major table
//! and packing them into dense cache lines — an on-the-fly projection.
//!
//! The module decomposition follows Figure 5 of the paper:
//!
//! * [`config_port`] — the runtime-configuration register file (Table 1),
//! * [`geometry`] — the table geometry derived from those registers,
//! * [`requestor`] + [`descriptor`] — descriptor generation, equations
//!   (1)–(6),
//! * [`fetch_unit`] + [`extractor`] — the Reader / Column Extractor /
//!   Writer pipeline,
//! * [`reorg_buffer`] — the Data and Metadata scratch-pad memories with
//!   epoch-based invalidation,
//! * [`monitor`] — the Monitor Bypass (stall tracking and wake-ups),
//! * [`trapper`] — the AXI-facing side (outstanding transaction IDs),
//! * [`axi`] — AXI/CDC cost model for the PS↔PL boundary,
//! * [`revision`] — the BSL / PCK / MLP hardware revisions of Section 5.2,
//! * [`engine`] — the composed [`RmeEngine`],
//! * [`resources`] — the FPGA area model behind Table 2.

pub mod axi;
pub mod config_port;
pub mod descriptor;
pub mod engine;
pub mod extractor;
pub mod fetch_unit;
pub mod geometry;
pub mod monitor;
pub mod reorg_buffer;
pub mod requestor;
pub mod resources;
pub mod revision;
pub mod stats;
pub mod trapper;

pub use config_port::ConfigPort;
pub use descriptor::Descriptor;
pub use engine::RmeEngine;
pub use geometry::{ColumnSpec, TableGeometry};
pub use resources::{estimate_area, AreaReport};
pub use revision::HwRevision;
pub use stats::RmeStats;
