//! Set-associative cache hierarchy model (per-core L1Ds + a shared, banked
//! L2) with a stream prefetcher and a pluggable memory backend.
//!
//! The paper's performance story is largely a cache story: direct row-wise
//! accesses pollute the caches with unwanted fields, direct columnar
//! accesses create one sequential stream per projected column (of which the
//! A53's prefetcher can track only four), and the RME feeds the caches a
//! dense buffer that contains nothing but useful bytes. This crate models
//! exactly those effects:
//!
//! * [`Cache`] — a tag-only set-associative cache with LRU replacement and
//!   dirty bits. It keeps no counters: the frontend counts each level's
//!   requests, hits and misses in [`HierarchyStats`], which Figure 8 reads.
//! * [`StreamPrefetcher`] — detects sequential line streams and issues
//!   prefetches for a configurable number of concurrent streams.
//! * [`CoreFrontend`] — one core's private side: L1, prefetcher,
//!   miss-status registers and per-core counters.
//! * [`SharedL2`] — the L2 all cores share: tag store, pending fills and a
//!   banked occupancy model that makes concurrent lookups *contend* (only
//!   engaged for multi-core clusters; a single core bypasses it and stays
//!   bit-identical to the original single-hierarchy model).
//! * [`CacheHierarchy`] — one frontend packaged with its own `SharedL2`,
//!   the single-core composition, over a [`MemoryBackend`] — either the
//!   DRAM controller (normal route) or the Relational Memory Engine
//!   (ephemeral route).
//!
//! # One access, end to end
//!
//! ```
//! use relmem_cache::{CacheHierarchy, FixedLatencyBackend, HitLevel};
//! use relmem_sim::{PlatformConfig, SimTime};
//!
//! let mut caches = CacheHierarchy::new(&PlatformConfig::zcu102());
//! let mut memory = FixedLatencyBackend::new(SimTime::from_nanos(100));
//!
//! // Cold: the line is fetched from the backend.
//! let first = caches.access(0x1000, 8, SimTime::ZERO, &mut memory);
//! assert_eq!(first.level, HitLevel::Memory);
//! // Warm: the next field of the same 64-byte line hits in L1.
//! let second = caches.access(0x1008, 8, first.completion, &mut memory);
//! assert_eq!(second.level, HitLevel::L1);
//! assert_eq!(caches.stats().l1.hits, 1);
//! ```

pub mod cache;
pub mod hierarchy;
pub mod prefetch;
pub mod shared_l2;
pub mod stats;

pub use cache::Cache;
pub use hierarchy::{
    AccessOutcome, CacheHierarchy, CoreFrontend, FixedLatencyBackend, HitLevel, MemoryBackend,
};
pub use prefetch::StreamPrefetcher;
pub use shared_l2::{CoreL2Share, SharedL2, SharedL2Stats};
pub use stats::{CacheLevelStats, HierarchyStats};
