//! Faithful reconstruction of the *pre-optimization* simulation hot path,
//! kept as the comparison target of the `scan_throughput` micro-benchmark.
//!
//! The optimized hot path replaced, layer by layer:
//!
//! * `Vec<Vec<u64>>` per-set cache tags with `position()` + `remove`/
//!   `insert` MRU shifting → flat set-major tag array with per-way byte
//!   recency ranks,
//! * `HashMap<u64, SimTime>` pending-prefetch map (SipHash, threshold
//!   `retain` purge) → a [`relmem_cache`] slot-indexed arrival array
//!   addressed by the locating set walk itself,
//! * `Vec<SimTime>` in-flight MSHRs with `retain` + `min_by_key` → the
//!   fixed-capacity `MissSlots` pool,
//! * a heap-allocated `Vec<u64>` of prefetch targets per L1 miss → an
//!   inline line range,
//! * a heap-allocated `Vec` of per-DRAM-row chunks per fill → a lazy
//!   iterator,
//! * per-field `field_addr()` / `schema().width()` lookups and per-access
//!   backend construction in `System::scan` → per-scan column cursors.
//!
//! This module reimplements the *old* shape of all of the above (including
//! its allocation behaviour), so the benchmark's "baseline" row is the
//! seed implementation in everything but name. On workloads that never
//! revisit an evicted line — such as the benchmark's sequential scan — its
//! simulated timing and counters are identical to the optimized engine,
//! which the benchmark asserts.

use std::collections::HashMap;

use relmem_core::cost::CpuCostModel;
use relmem_core::system::RowEffect;
use relmem_dram::PhysicalMemory;
use relmem_sim::{MultiResource, PlatformConfig, Resource, SimTime};
use relmem_storage::RowTable;

/// The seed's set-associative cache: one MRU-ordered `Vec<u64>` per set.
struct BaselineCache {
    line_bytes: u64,
    sets: usize,
    assoc: usize,
    ways: Vec<Vec<u64>>,
    requests: u64,
    hits: u64,
    misses: u64,
}

impl BaselineCache {
    fn new(size_bytes: usize, assoc: usize, line_bytes: usize) -> Self {
        let sets = size_bytes / (assoc * line_bytes);
        BaselineCache {
            line_bytes: line_bytes as u64,
            sets,
            assoc,
            ways: vec![Vec::with_capacity(assoc); sets],
            requests: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_index(&self, line: u64) -> usize {
        ((line / self.line_bytes) % self.sets as u64) as usize
    }

    fn access(&mut self, line: u64) -> bool {
        self.requests += 1;
        let set = self.set_index(line);
        let ways = &mut self.ways[set];
        if let Some(pos) = ways.iter().position(|&l| l == line) {
            let hit = ways.remove(pos);
            ways.insert(0, hit);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    fn fill(&mut self, line: u64) -> Option<u64> {
        let assoc = self.assoc;
        let set = self.set_index(line);
        let ways = &mut self.ways[set];
        if let Some(pos) = ways.iter().position(|&l| l == line) {
            let l = ways.remove(pos);
            ways.insert(0, l);
            return None;
        }
        let evicted = if ways.len() == assoc {
            ways.pop()
        } else {
            None
        };
        ways.insert(0, line);
        evicted
    }
}

/// The seed's DRAM controller: identical timing maths, but with the
/// original allocating per-row chunk split.
struct BaselineDram {
    cfg: relmem_sim::DramConfig,
    open_rows: Vec<Option<u64>>,
    banks: MultiResource,
    bus: Resource,
    accesses: u64,
    row_hits: u64,
    row_misses: u64,
    beats: u64,
    bytes_transferred: u64,
}

impl BaselineDram {
    fn new(cfg: relmem_sim::DramConfig) -> Self {
        BaselineDram {
            open_rows: vec![None; cfg.banks],
            banks: MultiResource::new("banks", cfg.banks),
            bus: Resource::new("bus"),
            accesses: 0,
            row_hits: 0,
            row_misses: 0,
            beats: 0,
            bytes_transferred: 0,
            cfg,
        }
    }

    /// The seed's address decode: plain divisions by runtime geometry.
    fn decode_seed(&self, addr: u64) -> (usize, u64) {
        let row_global = addr / self.cfg.row_bytes as u64;
        let bank = (row_global % self.cfg.banks as u64) as usize;
        let row = row_global / self.cfg.banks as u64;
        (bank, row)
    }

    fn access(&mut self, addr: u64, bytes: usize, ready: SimTime) -> SimTime {
        // The seed materialised the chunk list per access, splitting with
        // per-chunk division.
        let mut chunks: Vec<(u64, usize)> = Vec::new();
        let mut cur = addr;
        let end = addr + bytes.max(1) as u64;
        while cur < end {
            let row_end = (cur / self.cfg.row_bytes as u64 + 1) * self.cfg.row_bytes as u64;
            let chunk_end = row_end.min(end);
            chunks.push((cur, (chunk_end - cur) as usize));
            cur = chunk_end;
        }
        let mut finish = ready;
        let mut start = SimTime::from_picos(u64::MAX);
        for (addr, len) in chunks {
            let (bank, row) = self.decode_seed(addr);
            let row_hit = self.open_rows[bank] == Some(row);
            let (occupancy, latency) = if row_hit {
                self.row_hits += 1;
                (self.cfg.t_ccd, self.cfg.row_hit_latency())
            } else {
                self.row_misses += 1;
                self.open_rows[bank] = Some(row);
                (
                    self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_ccd,
                    self.cfg.row_miss_latency(),
                )
            };
            let (bank_start, _) = self.banks.acquire_server(bank, ready, occupancy);
            let data_ready = bank_start + latency;
            let beats = len.div_ceil(self.cfg.bus_bytes) as u64;
            let transfer = self.cfg.beat_time * beats;
            let (_, bus_end) = self.bus.acquire(data_ready, transfer);
            self.accesses += 1;
            self.beats += beats;
            self.bytes_transferred += beats * self.cfg.bus_bytes as u64;
            start = start.min(bank_start);
            finish = finish.max(bus_end);
        }
        let _ = start;
        finish
    }
}

/// The seed's stream-prefetcher bookkeeping (identical decisions; the old
/// implementation materialised every decision as a `Vec<u64>`, reproduced
/// here).
struct BaselineStream {
    last_demand: u64,
    last_prefetched: u64,
    touched: u64,
}

struct BaselinePrefetcher {
    line_bytes: u64,
    max_streams: usize,
    degree: usize,
    streams: Vec<BaselineStream>,
    recent: std::collections::VecDeque<u64>,
    tick: u64,
    issued: u64,
    stream_hits: u64,
}

impl BaselinePrefetcher {
    fn new(line_bytes: usize, max_streams: usize, degree: usize) -> Self {
        BaselinePrefetcher {
            line_bytes: line_bytes as u64,
            max_streams,
            degree,
            streams: Vec::new(),
            recent: std::collections::VecDeque::with_capacity(16),
            tick: 0,
            issued: 0,
            stream_hits: 0,
        }
    }

    fn train(&mut self, addr: u64) -> Vec<u64> {
        if self.max_streams == 0 || self.degree == 0 {
            return Vec::new();
        }
        self.tick += 1;
        let line = addr / self.line_bytes;
        if let Some(idx) = self
            .streams
            .iter()
            .position(|s| line > s.last_demand && line <= s.last_prefetched + 1)
        {
            let degree = self.degree as u64;
            let stream = &mut self.streams[idx];
            stream.last_demand = line;
            stream.touched = self.tick;
            let target = line + degree;
            let from = stream.last_prefetched + 1;
            let mut lines = Vec::new();
            if target >= from {
                for l in from..=target {
                    lines.push(l * self.line_bytes);
                }
                stream.last_prefetched = target;
            }
            self.issued += lines.len() as u64;
            self.stream_hits += 1;
            return lines;
        }
        let detected = line
            .checked_sub(1)
            .is_some_and(|p| self.recent.contains(&p));
        if self.recent.len() == 16 {
            self.recent.pop_front();
        }
        self.recent.push_back(line);
        if !detected {
            return Vec::new();
        }
        if self.streams.len() == self.max_streams {
            if let Some(lru) = self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.touched)
                .map(|(i, _)| i)
            {
                self.streams.swap_remove(lru);
            }
        }
        let degree = self.degree as u64;
        let last_prefetched = line + degree;
        let lines: Vec<u64> = (line + 1..=last_prefetched)
            .map(|l| l * self.line_bytes)
            .collect();
        self.issued += lines.len() as u64;
        self.streams.push(BaselineStream {
            last_demand: line,
            last_prefetched,
            touched: self.tick,
        });
        lines
    }
}

/// The seed's cache hierarchy: `HashMap` pending map with threshold purge,
/// `Vec` MSHRs with `retain` + `min_by_key`, per-set `Vec` tag stores.
pub struct BaselineHierarchy {
    l1: BaselineCache,
    l2: BaselineCache,
    stats_l1_requests: u64,
    stats_l1_hits: u64,
    stats_l1_misses: u64,
    stats_l2_requests: u64,
    stats_l2_hits: u64,
    stats_l2_misses: u64,
    backend_fills: u64,
    prefetches_issued: u64,
    prefetch_hits: u64,
    prefetcher: BaselinePrefetcher,
    pending: HashMap<u64, SimTime>,
    inflight: Vec<SimTime>,
    max_outstanding: usize,
    l1_hit: SimTime,
    l2_hit: SimTime,
    line_bytes: u64,
    dram: BaselineDram,
}

impl BaselineHierarchy {
    /// Builds the baseline engine for a platform.
    pub fn new(cfg: &PlatformConfig) -> Self {
        let cpu = cfg.cpu_clock();
        BaselineHierarchy {
            stats_l1_requests: 0,
            stats_l1_hits: 0,
            stats_l1_misses: 0,
            stats_l2_requests: 0,
            stats_l2_hits: 0,
            stats_l2_misses: 0,
            backend_fills: 0,
            prefetches_issued: 0,
            prefetch_hits: 0,
            l1: BaselineCache::new(cfg.l1.size_bytes, cfg.l1.associativity, cfg.l1.line_bytes),
            l2: BaselineCache::new(cfg.l2.size_bytes, cfg.l2.associativity, cfg.l2.line_bytes),
            prefetcher: BaselinePrefetcher::new(
                cfg.line_bytes(),
                cfg.prefetch_streams,
                cfg.prefetch_degree,
            ),
            pending: HashMap::new(),
            inflight: Vec::new(),
            max_outstanding: cfg.cpu.max_outstanding_misses.max(1),
            l1_hit: cpu.cycles(cfg.l1.hit_latency_cycles),
            l2_hit: cpu.cycles(cfg.l2.hit_latency_cycles),
            line_bytes: cfg.line_bytes() as u64,
            dram: BaselineDram::new(cfg.dram),
        }
    }

    fn book_miss_slot(&mut self, ready: SimTime, now: SimTime) -> SimTime {
        self.inflight.retain(|&t| t > now);
        if self.inflight.len() < self.max_outstanding {
            return ready;
        }
        let (idx, &earliest) = self
            .inflight
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("inflight is non-empty");
        self.inflight.swap_remove(idx);
        ready.max(earliest)
    }

    /// One CPU access, reproducing the seed's `access_line` structure.
    pub fn access(&mut self, addr: u64, bytes: usize, now: SimTime) -> SimTime {
        let first_line = addr & !(self.line_bytes - 1);
        let last_line = (addr + bytes.max(1) as u64 - 1) & !(self.line_bytes - 1);
        let mut completion = now;
        let mut line = first_line;
        loop {
            completion = completion.max(self.access_line(line, now));
            if line == last_line {
                break;
            }
            line += self.line_bytes;
        }
        completion
    }

    fn access_line(&mut self, line: u64, now: SimTime) -> SimTime {
        self.stats_l1_requests += 1;
        if self.l1.access(line) {
            self.stats_l1_hits += 1;
            return now + self.l1_hit;
        }
        self.stats_l1_misses += 1;
        let prefetch_lines = self.prefetcher.train(line);
        for pline in prefetch_lines {
            self.issue_prefetch(pline, now);
        }
        if self.pending.len() > 4096 {
            self.pending.retain(|_, arrival| *arrival > now);
        }
        self.stats_l2_requests += 1;
        let l2_lookup_done = now + self.l1_hit + self.l2_hit;
        if self.l2.access(line) {
            self.stats_l2_hits += 1;
            let arrival = self.pending.remove(&line).unwrap_or(SimTime::ZERO);
            if !arrival.is_zero() {
                self.prefetch_hits += 1;
            }
            self.l1.fill(line);
            return l2_lookup_done.max(arrival);
        }
        self.stats_l2_misses += 1;
        self.backend_fills += 1;
        let issue = self.book_miss_slot(now + self.l1_hit + self.l2_hit, now);
        let arrival = self.dram.access(line, 64, issue);
        self.inflight.push(arrival);
        self.l2.fill(line);
        self.l1.fill(line);
        arrival.max(l2_lookup_done)
    }

    fn issue_prefetch(&mut self, line: u64, now: SimTime) {
        self.stats_l2_requests += 1;
        if self.l2.access(line) {
            self.stats_l2_hits += 1;
            return;
        }
        self.stats_l2_misses += 1;
        self.prefetches_issued += 1;
        self.backend_fills += 1;
        let issue = self.book_miss_slot(now, now);
        let arrival = self.dram.access(line, 64, issue);
        self.inflight.push(arrival);
        self.l2.fill(line);
        self.pending.insert(line, arrival);
    }

    /// Hierarchy counters in the engine's shape (used by the benchmark's
    /// equivalence assertion).
    pub fn stats(&self) -> relmem_cache::HierarchyStats {
        let mut s = relmem_cache::HierarchyStats::default();
        s.l1.requests = self.stats_l1_requests;
        s.l1.hits = self.stats_l1_hits;
        s.l1.misses = self.stats_l1_misses;
        s.l2.requests = self.stats_l2_requests;
        s.l2.hits = self.stats_l2_hits;
        s.l2.misses = self.stats_l2_misses;
        s.backend_fills = self.backend_fills;
        s.prefetches_issued = self.prefetches_issued;
        s.prefetch_hits = self.prefetch_hits;
        s
    }
}

/// The seed's `read_uint`: slice + byte-wise copy into a padded buffer.
fn read_uint_seed(mem: &PhysicalMemory, addr: u64, width: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf[..width].copy_from_slice(mem.read(addr, width));
    u64::from_le_bytes(buf)
}

/// The seed's `System::scan` over a row table (no MVCC): per-field
/// `field_addr()` / `width()` lookups through their `Result` chains, and
/// the whole cache walk per access. Returns `(end, cpu, rows)`.
pub fn scan_rows_baseline<F>(
    hierarchy: &mut BaselineHierarchy,
    mem: &PhysicalMemory,
    table: &RowTable,
    columns: &[usize],
    start: SimTime,
    mut per_row: F,
) -> (SimTime, SimTime, u64)
where
    F: FnMut(u64, &[u64]) -> RowEffect,
{
    let cost = CpuCostModel::default();
    let mut now = start;
    let mut cpu_total = SimTime::ZERO;
    let mut values: Vec<u64> = vec![0; columns.len()];
    let mut rows_scanned = 0u64;
    let rows = table.num_rows();
    for row in 0..rows {
        for (slot, &col) in columns.iter().enumerate() {
            let addr = table.field_addr(row, col).expect("valid column");
            let width = table.schema().width(col).expect("valid column");
            now = hierarchy.access(addr, width, now);
            values[slot] = read_uint_seed(mem, addr, width.min(8));
        }
        let effect = per_row(row, &values);
        let cpu = cost.row_loop() + cost.fields(columns.len()) + effect.cpu;
        now += cpu;
        cpu_total += cpu;
        if let Some((addr, bytes)) = effect.touch {
            now = hierarchy.access(addr, bytes, now);
        }
        rows_scanned += 1;
    }
    (now, cpu_total, rows_scanned)
}
