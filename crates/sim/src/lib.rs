//! Simulation substrate for the Relational Memory reproduction.
//!
//! This crate provides the building blocks shared by every hardware model in
//! the workspace:
//!
//! * a picosecond-resolution [`SimTime`] timebase and [`ClockDomain`]s
//!   (CPU, programmable logic, DRAM),
//! * occupancy-tracked [`resource::Resource`]s used to model busses, ports,
//!   DRAM banks and fetch units,
//! * a [`config::PlatformConfig`] describing a ZCU102-like PS–PL platform,
//! * lightweight statistics helpers ([`stats`]),
//! * plain-text / CSV rendering of experiment output ([`report`]),
//! * simulated-time tracing with Perfetto/Chrome-trace export ([`trace`])
//!   and trace-derived time-bucketed metrics ([`timeseries`]).
//!
//! Everything is deterministic: the simulator never consults wall-clock time
//! or OS randomness, so identical inputs always produce identical results —
//! including recorded traces.

pub mod clock;
pub mod config;
pub mod report;
pub mod resource;
pub mod shift;
pub mod stats;
pub mod time;
pub mod timeseries;
pub mod trace;

pub use clock::ClockDomain;
pub use config::{
    CacheLevelConfig, CdcConfig, CpuConfig, DramConfig, MemoryModel, PlatformConfig, RmeHwConfig,
};
pub use resource::{MultiResource, PriorityResource, Resource};
pub use shift::Shift;
pub use stats::{DegradeTransition, LatencyProfile, OverloadStats, TxnStats};
pub use time::SimTime;
pub use timeseries::{default_bucket, series_from_trace};
pub use trace::{
    validate_chrome_trace, Trace, TraceEvent, TraceEventKind, TraceSummary, Tracer, Track,
};
