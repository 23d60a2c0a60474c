//! A tag-only set-associative cache with true-LRU replacement.
//!
//! The model tracks which line addresses are resident; data always comes
//! from the functional layer (`relmem_dram::PhysicalMemory` or the RME's
//! reorganization buffer), so the cache only needs tags. This keeps the
//! model fast enough to sweep gigabyte tables. A level keeps no counters:
//! the hierarchy counts its requests, hits and misses once, in
//! [`HierarchyStats`](crate::stats::HierarchyStats), which Figure 8 reads.
//!
//! # Layout
//!
//! Tags live in one flat, set-major `Vec<u32>` (`tags[set * assoc + way]`)
//! with a parallel packed array of per-way recency ranks (`ranks`). A
//! lookup touches one contiguous `assoc`-sized slice — no per-set `Vec`
//! allocations, no `remove`/`insert` element shifting — which is what lets
//! `System::scan` simulate millions of field accesses per wall-second.
//!
//! Tags are stored *set-relative*: `tag = line_number / sets`, so a 16-way
//! set is one 64-byte cache line of `u32`s and the branchless set walk
//! vectorises twice as wide as the previous full-`u64`-address layout. The
//! stored tag uniquely identifies the line within its set
//! (`line_number = tag * sets + set`), so evicted line addresses are
//! reconstructed exactly. Set-relative tags fit `u32` for every real
//! geometry including the ephemeral region (base `1 << 40`, line number
//! `2^34`, over ≥ 64 sets a tag of at most `2^28`); the walk asserts the
//! bound so an address outside it can never silently alias.
//!
//! Recency is a per-set permutation of byte *ranks* (`ranks[set * assoc +
//! way]`, higher = more recent): "promote to MRU" rewrites the set's
//! `assoc` rank bytes (a single SIMD compare/decrement for the real
//! geometries), and the eviction victim is the lowest-index empty way if
//! one exists, else the rank-0 (least-recent) way. An earlier revision
//! kept a `u64` recency stamp per way instead; ranks hold the exact same
//! ordering in one-eighth the bytes (a 16-way set is 16 rank bytes, not
//! two cache lines of stamps), which is what the host's cache sees on
//! every set walk of a multi-megabyte simulated scan. Rank order *is* the
//! recency order the seed's `Vec<Vec<u64>>` representation kept
//! positionally — replacement decisions (and therefore all downstream
//! timing and statistics) are bit-identical, which
//! `flat_tags_match_vec_of_vecs_reference` below asserts against a
//! faithful reimplementation of the old structure.

use relmem_sim::{CacheLevelConfig, Shift};

/// Sentinel marking an unoccupied way. The tag walk asserts every real
/// set-relative tag stays below it, so it can never collide.
const EMPTY: u32 = u32::MAX;

/// Entries in the walk memo (see [`Cache::probe_else_fill_dirty_slot`]):
/// enough that a prefetcher running its degree (4) ahead of the demand
/// stream — per tracked stream — still finds its install slot memoized
/// when the demand catches up.
const MEMO_WAYS: usize = 16;

/// A set-associative, true-LRU, tag-only cache.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    assoc: usize,
    /// `log2(line_bytes)` — the line size is asserted to be a power of two.
    line_shift: u32,
    /// `sets - 1` when the set count is a power of two (the common case);
    /// lets the set index be a mask instead of a modulo.
    set_mask: Option<u64>,
    /// `log2(sets)`; only meaningful when `set_mask` is `Some`.
    set_shift: u32,
    /// Flat set-major array of set-relative tags (`line_number / sets`):
    /// `tags[set * assoc + way]`.
    tags: Vec<u32>,
    /// Per-set recency permutation parallel to `tags`:
    /// `ranks[set * assoc + way]` is the way's recency rank within its
    /// set (0 = least recent, `assoc - 1` = MRU). Every set's ranks are
    /// a permutation of `0..assoc` at all times; ranks of empty ways are
    /// placeholders that keep the permutation closed (victim selection
    /// prefers empty ways by tag, never by rank).
    ranks: Vec<u8>,
    /// Dirty bits parallel to `tags`: set by [`mark_dirty`](Self::mark_dirty)
    /// (a CPU write touched the line), cleared on install. Dirty state never
    /// influences lookup or replacement — it only reports whether an evicted
    /// line owes the backend a writeback — so tracking it is unobservable to
    /// every caller that never asks.
    dirty: Vec<bool>,
    /// Direct-mapped memo of recent
    /// [`probe_else_fill_dirty_slot`](Self::probe_else_fill_dirty_slot)
    /// results: line number → flat way slot, indexed by the line number's
    /// low bits. Entries are *hints*, verified against the tag store
    /// before use, so they never need invalidating — a stale slot simply
    /// fails the tag check and the full set walk runs. The payoff is the
    /// prefetch-then-demand pattern: the demand lookup lands on exactly
    /// the slot the prefetch installed a few lines earlier and skips the
    /// set scan for a single tag compare.
    memo_lines: [u64; MEMO_WAYS],
    memo_slots: [u32; MEMO_WAYS],
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero sets or ways, or a
    /// non-power-of-two line size).
    pub fn new(cfg: CacheLevelConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets >= 1, "cache must have at least one set");
        assert!(cfg.associativity >= 1, "cache must have at least one way");
        assert!(
            cfg.associativity <= 256,
            "byte recency ranks support at most 256 ways"
        );
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Cache {
            sets,
            assoc: cfg.associativity,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            set_shift: sets.trailing_zeros(),
            tags: vec![EMPTY; sets * cfg.associativity],
            ranks: Self::identity_ranks(sets, cfg.associativity),
            dirty: vec![false; sets * cfg.associativity],
            // `u64::MAX` is not a reachable line number (line numbers are
            // addresses shifted right), so fresh entries can never verify.
            memo_lines: [u64::MAX; MEMO_WAYS],
            memo_slots: [0; MEMO_WAYS],
        }
    }

    /// The initial rank permutation: `ranks[way] = way` in every set, so
    /// an empty cache fills ways in index order (matching both the old
    /// stamp scheme's all-zero tie-break and the seed's `Vec` push order).
    fn identity_ranks(sets: usize, assoc: usize) -> Vec<u8> {
        (0..sets * assoc).map(|i| (i % assoc) as u8).collect()
    }

    /// Line-aligns an address.
    #[inline(always)]
    fn line_addr(&self, addr: u64) -> u64 {
        addr & !((1u64 << self.line_shift) - 1)
    }

    /// Splits a line address into its set's base index and its
    /// set-relative tag. The tag uniquely identifies the line within the
    /// set (`line_number = tag * sets + set`), so nothing is lost by not
    /// storing the full address.
    ///
    /// # Panics
    /// Panics if the set-relative tag does not fit below the `u32` empty
    /// sentinel — truncation could silently alias two distant lines, so
    /// the bound is a hard assert (one predictable branch per walk).
    #[inline(always)]
    fn locate(&self, line_addr: u64) -> (usize, u32) {
        let line_number = line_addr >> self.line_shift;
        let (set, tag) = match self.set_mask {
            Some(mask) => (line_number & mask, line_number >> self.set_shift),
            None => (
                line_number % self.sets as u64,
                line_number / self.sets as u64,
            ),
        };
        assert!(
            tag < EMPTY as u64,
            "line address {line_addr:#x} exceeds the u32 set-relative tag range"
        );
        (set as usize * self.assoc, tag as u32)
    }

    /// Reconstructs the line address stored as `tag` in the set whose base
    /// index is `base` (the exact inverse of [`locate`](Self::locate)).
    #[inline(always)]
    fn line_of(&self, base: usize, tag: u32) -> u64 {
        let set = (base / self.assoc) as u64;
        (tag as u64 * self.sets as u64 + set) << self.line_shift
    }

    /// Index of the way holding `tag` in the set starting at `base`.
    /// Branchless full-set scan: no early exit, so the compiler can unroll
    /// and vectorise it (a 16-way set of `u32` tags is exactly one cache
    /// line). The two associativities real configurations use (4-way L1,
    /// 16-way L2) get fixed-trip-count instantiations of the single shared
    /// body, which LLVM turns into SIMD.
    #[inline(always)]
    fn find_way(&self, base: usize, tag: u32) -> Option<usize> {
        // One body for every arm: a literal slice scan.
        macro_rules! scan {
            ($set:expr) => {{
                let mut found = usize::MAX;
                for (way, &t) in $set.iter().enumerate() {
                    if t == tag {
                        found = way;
                    }
                }
                (found != usize::MAX).then_some(found)
            }};
        }
        let set = &self.tags[base..base + self.assoc];
        match self.assoc {
            16 => scan!(<&[u32; 16]>::try_from(set).expect("16-way set")),
            4 => scan!(<&[u32; 4]>::try_from(set).expect("4-way set")),
            _ => scan!(set),
        }
    }

    /// One pass over a set's tags reporting both the way holding `tag`
    /// and the lowest-index empty way (each if any) — the fused form of
    /// `find_way` plus the empty half of victim selection, so a miss+fill
    /// walk scans the tag line exactly once. The fixed-associativity arms
    /// reduce to two branchless lane masks decoded with `trailing_zeros`,
    /// which naturally picks the lowest index, matching the old stamp
    /// scheme's "smallest stamp, lowest index on ties" rule (empty ways
    /// held stamp 0 there, below every real stamp). On x86-64 the 16-way
    /// arm is explicit SSE2 (baseline on that architecture): four
    /// compare/movemask rounds against each needle instead of a 16-step
    /// scalar reduction.
    #[inline(always)]
    fn scan_set(&self, base: usize, tag: u32) -> (Option<usize>, Option<usize>) {
        let set = &self.tags[base..base + self.assoc];
        let (match_mask, empty_mask) = match self.assoc {
            16 => Self::scan16(<&[u32; 16]>::try_from(set).expect("16-way set"), tag),
            4 => Self::scan4(<&[u32; 4]>::try_from(set).expect("4-way set"), tag),
            // Arbitrary associativities (tests go up to 256 ways, past the
            // mask width) take plain first-index scans.
            _ => {
                return (
                    set.iter().position(|&t| t == tag),
                    set.iter().position(|&t| t == EMPTY),
                )
            }
        };
        (
            (match_mask != 0).then(|| match_mask.trailing_zeros() as usize),
            (empty_mask != 0).then(|| empty_mask.trailing_zeros() as usize),
        )
    }

    /// Lane masks of `tag` matches and empty ways over a 16-way set.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn scan16(set: &[u32; 16], tag: u32) -> (u32, u32) {
        // SAFETY: SSE2 is part of the x86-64 baseline ABI, and the four
        // 16-byte loads cover exactly the 64-byte tag array.
        unsafe {
            use std::arch::x86_64::*;
            let needle = _mm_set1_epi32(tag as i32);
            let empty = _mm_set1_epi32(EMPTY as i32);
            let p = set.as_ptr() as *const __m128i;
            let mut match_mask = 0u32;
            let mut empty_mask = 0u32;
            for i in 0..4 {
                let v = _mm_loadu_si128(p.add(i));
                let m = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, needle)));
                let e = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, empty)));
                match_mask |= (m as u32) << (4 * i);
                empty_mask |= (e as u32) << (4 * i);
            }
            (match_mask, empty_mask)
        }
    }

    /// Portable fallback for [`scan16`](Self::scan16).
    #[cfg(not(target_arch = "x86_64"))]
    #[inline(always)]
    fn scan16(set: &[u32; 16], tag: u32) -> (u32, u32) {
        let mut match_mask = 0u32;
        let mut empty_mask = 0u32;
        for (way, &t) in set.iter().enumerate() {
            match_mask |= u32::from(t == tag) << way;
            empty_mask |= u32::from(t == EMPTY) << way;
        }
        (match_mask, empty_mask)
    }

    /// Lane masks of `tag` matches and empty ways over a 4-way set — the
    /// whole set is exactly one SSE register.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn scan4(set: &[u32; 4], tag: u32) -> (u32, u32) {
        // SAFETY: SSE2 is part of the x86-64 baseline ABI; the single
        // 16-byte load covers exactly the 16-byte tag array.
        unsafe {
            use std::arch::x86_64::*;
            let v = _mm_loadu_si128(set.as_ptr() as *const __m128i);
            let m = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(
                v,
                _mm_set1_epi32(tag as i32),
            )));
            let e = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(
                v,
                _mm_set1_epi32(EMPTY as i32),
            )));
            (m as u32, e as u32)
        }
    }

    /// Portable fallback for [`scan4`](Self::scan4).
    #[cfg(not(target_arch = "x86_64"))]
    #[inline(always)]
    fn scan4(set: &[u32; 4], tag: u32) -> (u32, u32) {
        let mut match_mask = 0u32;
        let mut empty_mask = 0u32;
        for (way, &t) in set.iter().enumerate() {
            match_mask |= u32::from(t == tag) << way;
            empty_mask |= u32::from(t == EMPTY) << way;
        }
        (match_mask, empty_mask)
    }

    /// Fused victim selection + MRU promotion for a *full* set: the
    /// permutation rotates — every rank slides down one and the rank-0
    /// (least-recent) way wraps to the top — and the way that held rank 0
    /// is returned as the victim. One compare/decrement pass, no separate
    /// "find the LRU way" scan.
    #[inline(always)]
    fn rotate_lru(&mut self, base: usize) -> usize {
        macro_rules! rotate {
            ($set:expr) => {{
                let set = $set;
                let top = (self.assoc - 1) as u8;
                let mut victim = 0usize;
                for (way, r) in set.iter_mut().enumerate() {
                    if *r == 0 {
                        victim = way;
                        *r = top;
                    } else {
                        *r -= 1;
                    }
                }
                victim
            }};
        }
        let set = &mut self.ranks[base..base + self.assoc];
        match self.assoc {
            16 => Self::rotate16(<&mut [u8; 16]>::try_from(set).expect("16-way set")),
            4 => rotate!(<&mut [u8; 4]>::try_from(set).expect("4-way set")),
            _ => rotate!(set),
        }
    }

    /// [`rotate_lru`](Self::rotate_lru) for a 16-way set: one SSE2 round —
    /// find the zero lane with compare/movemask, decrement everything, and
    /// blend the top rank into the zero lane.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn rotate16(set: &mut [u8; 16]) -> usize {
        // SAFETY: SSE2 is part of the x86-64 baseline ABI; the load and
        // store cover exactly the 16-byte rank array.
        unsafe {
            use std::arch::x86_64::*;
            let p = set.as_mut_ptr() as *mut __m128i;
            let v = _mm_loadu_si128(p);
            let is_zero = _mm_cmpeq_epi8(v, _mm_setzero_si128());
            let victim = (_mm_movemask_epi8(is_zero) as u32).trailing_zeros() as usize;
            let dec = _mm_sub_epi8(v, _mm_set1_epi8(1));
            let top = _mm_set1_epi8(15);
            let rotated = _mm_or_si128(_mm_andnot_si128(is_zero, dec), _mm_and_si128(is_zero, top));
            _mm_storeu_si128(p, rotated);
            victim
        }
    }

    /// Portable fallback for [`rotate16`](Self::rotate16).
    #[cfg(not(target_arch = "x86_64"))]
    #[inline(always)]
    fn rotate16(set: &mut [u8; 16]) -> usize {
        let mut victim = 0usize;
        for (way, r) in set.iter_mut().enumerate() {
            if *r == 0 {
                victim = way;
                *r = 15;
            } else {
                *r -= 1;
            }
        }
        victim
    }

    /// The way a fill should install into: the lowest-index empty way
    /// (already promoted to MRU here) if the tag scan found one, else the
    /// LRU way via the rotation. Callers overwrite the returned way's tag.
    #[inline(always)]
    fn claim_victim(&mut self, base: usize, first_empty: Option<usize>) -> usize {
        match first_empty {
            Some(way) => {
                self.touch(base, way);
                way
            }
            None => self.rotate_lru(base),
        }
    }

    /// Promotes `way` to MRU within its set: every way ranked above it
    /// slides down one, and it takes the top rank — the permutation
    /// analogue of the seed's `Vec::remove` + `insert(0)`. One compare/
    /// decrement pass over `assoc` bytes, which LLVM vectorises for the
    /// fixed 4- and 16-way instantiations below.
    #[inline(always)]
    fn touch(&mut self, base: usize, way: usize) {
        macro_rules! promote {
            ($set:expr) => {{
                let set = $set;
                let r = set[way];
                for rank in set.iter_mut() {
                    if *rank > r {
                        *rank -= 1;
                    }
                }
                set[way] = (self.assoc - 1) as u8;
            }};
        }
        let set = &mut self.ranks[base..base + self.assoc];
        match self.assoc {
            16 => Self::promote16(<&mut [u8; 16]>::try_from(set).expect("16-way set"), way),
            4 => promote!(<&mut [u8; 4]>::try_from(set).expect("4-way set")),
            _ => promote!(set),
        }
    }

    /// [`touch`](Self::touch) for a 16-way set: SSE2 compare-greater gives
    /// a −1 mask on the lanes ranked above the touched way, so adding the
    /// mask decrements exactly those lanes in one round. Rank values stay
    /// below 16, far inside `i8` range, so the signed compare is exact.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn promote16(set: &mut [u8; 16], way: usize) {
        // SAFETY: SSE2 is part of the x86-64 baseline ABI; the load and
        // store cover exactly the 16-byte rank array.
        unsafe {
            use std::arch::x86_64::*;
            let r = set[way];
            let p = set.as_mut_ptr() as *mut __m128i;
            let v = _mm_loadu_si128(p);
            let above = _mm_cmpgt_epi8(v, _mm_set1_epi8(r as i8));
            _mm_storeu_si128(p, _mm_add_epi8(v, above));
            set[way] = 15;
        }
    }

    /// Portable fallback for [`promote16`](Self::promote16).
    #[cfg(not(target_arch = "x86_64"))]
    #[inline(always)]
    fn promote16(set: &mut [u8; 16], way: usize) {
        let r = set[way];
        for rank in set.iter_mut() {
            if *rank > r {
                *rank -= 1;
            }
        }
        set[way] = 15;
    }

    /// Looks up the line containing `addr` and fills it on a miss, in one
    /// set walk: refreshes recency and reports `None` if the line is
    /// resident, otherwise installs it as MRU and reports `Some(evicted)`.
    /// This is the L1's entry point; the hierarchy counts the lookup.
    #[inline(always)]
    pub fn probe_else_fill(&mut self, addr: u64) -> Option<Option<u64>> {
        let (base, tag) = self.locate(self.line_addr(addr));
        // One tag-line scan answers both residency and (on a miss) where
        // to install.
        let (found, first_empty) = self.scan_set(base, tag);
        if let Some(way) = found {
            self.touch(base, way);
            return None;
        }
        let victim = self.claim_victim(base, first_empty);
        let old = self.tags[base + victim];
        self.tags[base + victim] = tag;
        self.dirty[base + victim] = false;
        Some((old != EMPTY).then(|| self.line_of(base, old)))
    }

    /// [`probe_else_fill`](Self::probe_else_fill) reporting the evicted
    /// line's dirty status alongside its address, and the touched way's
    /// flat slot index (`set * assoc + way` — the hit way on a hit, the
    /// filled way on a miss). This is the L2's entry point: it owes the
    /// backend writebacks of dirty victims, and it keys parallel per-way
    /// metadata off the slot — pending-fill arrival times live in a
    /// slot-indexed array, so the metadata of a line is found by the set
    /// walk that just located it instead of a second, hashed lookup.
    #[inline(always)]
    pub(crate) fn probe_else_fill_dirty_slot(
        &mut self,
        addr: u64,
    ) -> (usize, Option<(Option<u64>, bool)>) {
        let line = self.line_addr(addr);
        let ln = line >> self.line_shift;
        let idx = ln as usize & (MEMO_WAYS - 1);
        let (base, tag) = self.locate(line);
        // Memoized hit: the memo slot was this exact line's walk result
        // once, so it lies in this line's set; if the tag still matches,
        // the line is resident there (a set holds each line at most once)
        // and the full walk would find the same way. Promote and return —
        // state and result identical to the scan below.
        if self.memo_lines[idx] == ln {
            let slot = self.memo_slots[idx] as usize;
            if self.tags[slot] == tag {
                self.touch(base, slot - base);
                return (slot, None);
            }
        }
        let (found, first_empty) = self.scan_set(base, tag);
        if let Some(way) = found {
            self.touch(base, way);
            self.memo_lines[idx] = ln;
            self.memo_slots[idx] = (base + way) as u32;
            return (base + way, None);
        }
        let victim = self.claim_victim(base, first_empty);
        let old = self.tags[base + victim];
        let was_dirty = self.dirty[base + victim];
        self.tags[base + victim] = tag;
        self.dirty[base + victim] = false;
        self.memo_lines[idx] = ln;
        self.memo_slots[idx] = (base + victim) as u32;
        (
            base + victim,
            Some((
                (old != EMPTY).then(|| self.line_of(base, old)),
                was_dirty && old != EMPTY,
            )),
        )
    }

    /// Total way slots (`sets * associativity`): the index space of the
    /// slot indices reported by
    /// [`probe_else_fill_dirty_slot`](Self::probe_else_fill_dirty_slot).
    #[inline]
    pub(crate) fn slots(&self) -> usize {
        self.tags.len()
    }

    /// Marks the line containing `addr` dirty if resident, without touching
    /// LRU order (so the mark is unobservable to replacement and timing).
    /// Returns whether the line was resident.
    #[inline]
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let (base, tag) = self.locate(self.line_addr(addr));
        match self.find_way(base, tag) {
            Some(way) => {
                self.dirty[base + way] = true;
                true
            }
            None => false,
        }
    }

    /// Empties the cache.
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
        self.ranks = Self::identity_ranks(self.sets, self.assoc);
        self.dirty.fill(false);
    }

    /// The set-relative tag of the line stored as `tag` in the set at
    /// `base` after moving it by `periods` periods, or `None` if the move
    /// changes the line's set (the shift is not a multiple of the set span)
    /// or leaves the tag range.
    fn moved_tag(&self, base: usize, tag: u32, shift: &Shift, periods: u64) -> Option<u32> {
        let moved = shift.addr(self.line_of(base, tag), periods) >> self.line_shift;
        let sets = self.sets as u64;
        (moved % sets == (base / self.assoc) as u64 && moved / sets < EMPTY as u64)
            .then(|| (moved / sets) as u32)
    }

    /// Whether this tag store holds `earlier`'s lines moved by one period
    /// (see [`relmem_sim::shift`]), with the same recency order and dirty
    /// bits. The walk memo is a verified hint, so it is not compared.
    ///
    /// Which way of a *full* set holds a line is unobservable: lookups
    /// match tags, replacement picks by rank, and a full set stays full
    /// until a flush. Full sets therefore compare way by way in recency
    /// order, so a stream that advances a set by a fraction of its
    /// associativity per period still matches; sets with an empty way
    /// compare way for way, because the lowest empty way is filled next.
    pub fn same_up_to_shift(&self, earlier: &Cache, shift: &Shift) -> bool {
        self.same_up_to_shift_with(earlier, shift, |_, _| true)
    }

    /// [`same_up_to_shift`](Self::same_up_to_shift), also requiring
    /// `same_slot(now_slot, earlier_slot)` of every matched pair of way
    /// slots — for owners that keep per-way metadata in slot-indexed
    /// arrays.
    pub(crate) fn same_up_to_shift_with(
        &self,
        earlier: &Cache,
        shift: &Shift,
        mut same_slot: impl FnMut(usize, usize) -> bool,
    ) -> bool {
        if self.tags.len() != earlier.tags.len() {
            return false;
        }
        let assoc = self.assoc;
        let (mut by_rank, mut earlier_by_rank) = (vec![0; assoc], vec![0; assoc]);
        (0..self.tags.len()).step_by(assoc).all(|base| {
            let set = base..base + assoc;
            let full = !self.tags[set.clone()].contains(&EMPTY)
                && !earlier.tags[set.clone()].contains(&EMPTY);
            if full {
                for way in 0..assoc {
                    by_rank[self.ranks[base + way] as usize] = way;
                    earlier_by_rank[earlier.ranks[base + way] as usize] = way;
                }
            } else if self.ranks[set.clone()] != earlier.ranks[set] {
                return false;
            }
            (0..assoc).all(|i| {
                let (now, was) = if full {
                    (base + by_rank[i], base + earlier_by_rank[i])
                } else {
                    (base + i, base + i)
                };
                let (t, e) = (self.tags[now], earlier.tags[was]);
                let same_line = if t == EMPTY || e == EMPTY {
                    t == e
                } else {
                    self.moved_tag(base, e, shift, 1) == Some(t)
                };
                same_line && self.dirty[now] == earlier.dirty[was] && same_slot(now, was)
            })
        })
    }

    /// Moves every resident line forward by `periods` periods (each stays
    /// in its set and way) and forgets the walk memo.
    ///
    /// # Panics
    /// Panics if a line would change sets — callers check
    /// [`same_up_to_shift`](Self::same_up_to_shift) first.
    pub fn shift(&mut self, shift: &Shift, periods: u64) {
        for slot in 0..self.tags.len() {
            let tag = self.tags[slot];
            if tag != EMPTY {
                let base = slot - slot % self.assoc;
                self.tags[slot] = self
                    .moved_tag(base, tag, shift, periods)
                    .expect("a shifted line stays in its set");
            }
        }
        self.memo_lines = [u64::MAX; MEMO_WAYS];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relmem_sim::SimTime;
    use std::collections::HashSet;

    impl Cache {
        /// Set base index of a line address (the tag-free half of
        /// [`locate`](Cache::locate)).
        fn set_base(&self, line_addr: u64) -> usize {
            let line_number = line_addr >> self.line_shift;
            let set = match self.set_mask {
                Some(mask) => line_number & mask,
                None => line_number % self.sets as u64,
            };
            set as usize * self.assoc
        }

        /// The flat slot holding the line containing `addr`, if resident;
        /// reads the tag store without touching recency.
        fn slot_of(&self, addr: u64) -> Option<usize> {
            let (base, tag) = self.locate(self.line_addr(addr));
            self.find_way(base, tag).map(|way| base + way)
        }

        fn resident(&self, addr: u64) -> bool {
            self.slot_of(addr).is_some()
        }

        fn is_dirty(&self, addr: u64) -> bool {
            self.slot_of(addr).is_some_and(|slot| self.dirty[slot])
        }

        fn resident_lines(&self) -> usize {
            self.tags.iter().filter(|&&t| t != EMPTY).count()
        }

        /// The L2 entry point without its slot.
        fn fill_dirty(&mut self, addr: u64) -> Option<(Option<u64>, bool)> {
            self.probe_else_fill_dirty_slot(addr).1
        }
    }

    fn small_cache(assoc: usize, sets: usize) -> Cache {
        Cache::new(CacheLevelConfig {
            size_bytes: assoc * sets * 64,
            associativity: assoc,
            line_bytes: 64,
            hit_latency_cycles: 2,
        })
    }

    /// A translation of physical addresses by `bytes` per period.
    fn shift_by(bytes: u64) -> Shift {
        Shift {
            time: SimTime::from_nanos(100),
            start: SimTime::from_nanos(100),
            source: bytes,
            ephemeral: 0,
            ephemeral_base: u64::MAX,
        }
    }

    #[test]
    fn miss_fills_and_the_line_then_hits() {
        let mut c = small_cache(2, 4);
        assert_eq!(c.probe_else_fill(100), Some(None), "cold miss, no victim");
        assert_eq!(c.probe_else_fill(100), None);
        assert_eq!(c.probe_else_fill(127), None, "same line");
        assert_eq!(c.probe_else_fill(128), Some(None), "next line");
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache(2, 1);
        c.probe_else_fill(0);
        c.probe_else_fill(64); // the set is now full
        assert_eq!(c.probe_else_fill(0), None); // line 1 becomes LRU
        assert_eq!(c.probe_else_fill(128), Some(Some(64)));
        assert!(c.resident(0));
        assert!(!c.resident(64));
        assert!(c.resident(128));
    }

    #[test]
    fn both_entry_points_evict_alike() {
        let mut l1 = small_cache(2, 1);
        let mut l2 = small_cache(2, 1);
        for addr in [0u64, 64, 0, 128, 192, 64, 0] {
            let evicted = l1.probe_else_fill(addr);
            assert_eq!(l2.fill_dirty(addr).map(|(e, _)| e), evicted);
        }
    }

    #[test]
    fn flush_empties_the_cache_and_restarts_its_fill_order() {
        let mut used = small_cache(4, 2);
        for addr in [0u64, 64, 128, 192, 256] {
            used.probe_else_fill(addr);
        }
        used.mark_dirty(0);
        used.flush();
        assert_eq!(used.resident_lines(), 0);
        let mut fresh = small_cache(4, 2);
        for addr in [512u64, 640, 768, 896, 1024, 512, 1152] {
            assert_eq!(
                used.probe_else_fill_dirty_slot(addr),
                fresh.probe_else_fill_dirty_slot(addr)
            );
        }
    }

    #[test]
    fn dirty_bits_track_writes_and_clear_on_install() {
        let mut c = small_cache(2, 1);
        assert!(!c.mark_dirty(0), "marking an absent line is a no-op");
        c.fill_dirty(0);
        assert!(!c.is_dirty(0));
        assert!(c.mark_dirty(0));
        assert!(c.is_dirty(0));
        c.fill_dirty(64);
        assert_eq!(c.fill_dirty(64), None, "a hit; 0 is now LRU");
        assert_eq!(c.fill_dirty(128), Some((Some(0), true)), "dirty victim");
        assert!(!c.is_dirty(128), "the recycled way starts clean");
        assert_eq!(c.fill_dirty(192), Some((Some(64), false)), "clean victim");
        // A flush clears dirty state.
        c.mark_dirty(128);
        c.flush();
        c.fill_dirty(128);
        assert!(!c.is_dirty(128));
    }

    #[test]
    fn mark_dirty_does_not_touch_lru_order() {
        let mut a = small_cache(2, 1);
        let mut b = small_cache(2, 1);
        for c in [&mut a, &mut b] {
            c.probe_else_fill(0);
            c.probe_else_fill(64); // order (MRU→LRU): 64, 0
        }
        a.mark_dirty(0); // must NOT promote line 0
        let (ea, eb) = (a.probe_else_fill(128), b.probe_else_fill(128));
        assert_eq!(ea, eb, "replacement diverged");
        assert_eq!(ea, Some(Some(0)));
    }

    /// The slot is the way holding the line, on a memoized hit, a walked
    /// hit and a fill into a recycled way alike.
    #[test]
    fn the_slot_is_the_way_holding_the_line() {
        let mut c = small_cache(2, 4);
        let (slot, filled) = c.probe_else_fill_dirty_slot(0);
        assert_eq!((Some(slot), filled), (c.slot_of(0), Some((None, false))));
        assert_eq!(
            c.probe_else_fill_dirty_slot(0),
            (slot, None),
            "memoized hit"
        );
        // Lines 16 sets apart share the memo entry, so the next hit on 0
        // walks the set.
        c.probe_else_fill_dirty_slot(16 * 64);
        assert_eq!(c.probe_else_fill_dirty_slot(0), (slot, None), "walked hit");
        // Lines 256 and 512 share line 0's set too: the first evicts line
        // 16, the second the LRU line 0, into its way.
        c.probe_else_fill_dirty_slot(256);
        let (recycled, filled) = c.probe_else_fill_dirty_slot(512);
        assert_eq!(filled, Some((Some(0), false)));
        assert_eq!(recycled, slot);
        assert_eq!(c.slot_of(512), Some(slot));
        assert_eq!(c.slots(), 8);
    }

    #[test]
    fn addresses_map_to_distinct_sets() {
        let c = small_cache(1, 8);
        // Lines 0..8 should map to 8 distinct sets.
        let sets: HashSet<usize> = (0..8u64).map(|i| c.set_base(i * 64)).collect();
        assert_eq!(sets.len(), 8);
    }

    /// Builds a 2-way, 4-set cache (a 256 B set span) from the same
    /// accesses and dirty mark, every address moved by `offset`: lines 0
    /// and 512 fill set 0 (256 is evicted), 64 (dirty) and 128 one way of
    /// sets 1 and 2.
    fn filled_at(offset: u64) -> Cache {
        let mut c = small_cache(2, 4);
        for addr in [0u64, 64, 256, 128, 0, 512] {
            c.probe_else_fill(offset + addr);
        }
        c.mark_dirty(offset + 64);
        c
    }

    #[test]
    fn same_up_to_shift_needs_moved_lines_recency_and_dirty_bits() {
        let earlier = filled_at(0);
        let now = filled_at(1024);
        assert!(now.same_up_to_shift(&earlier, &shift_by(1024)));
        assert!(
            !now.same_up_to_shift(&earlier, &shift_by(2048)),
            "wrong move"
        );
        assert!(
            !filled_at(64).same_up_to_shift(&earlier, &shift_by(64)),
            "a move that changes sets"
        );
        let mut dirtier = now.clone();
        dirtier.mark_dirty(1024);
        assert!(!dirtier.same_up_to_shift(&earlier, &shift_by(1024)));
        let mut reordered = now.clone();
        reordered.probe_else_fill(1024); // promote the LRU line of a full set
        assert!(!reordered.same_up_to_shift(&earlier, &shift_by(1024)));
    }

    #[test]
    fn shift_moves_every_line_by_whole_periods() {
        let mut c = filled_at(0);
        c.shift(&shift_by(1024), 3);
        let expected = filled_at(3 * 1024);
        assert!(c.same_up_to_shift(&expected, &shift_by(0)));
        assert!(c.is_dirty(3 * 1024 + 64));
        assert!(!c.resident(0));
        // The walk memo was forgotten: every hit still finds its own way.
        for addr in [0u64, 64, 128, 512] {
            let addr = 3 * 1024 + addr;
            let slot = c.slot_of(addr).expect("moved line is resident");
            assert_eq!(c.probe_else_fill_dirty_slot(addr), (slot, None));
        }
    }

    /// Reference model: the seed's `Vec<Vec<u64>>` MRU-ordered cache, with
    /// a set of dirty lines. The flat-array implementation must match it
    /// decision for decision.
    struct VecCache {
        sets: usize,
        assoc: usize,
        ways: Vec<Vec<u64>>,
        dirty: HashSet<u64>,
    }

    impl VecCache {
        fn new(assoc: usize, sets: usize) -> Self {
            VecCache {
                sets,
                assoc,
                ways: vec![Vec::new(); sets],
                dirty: HashSet::new(),
            }
        }

        fn set(&mut self, line: u64) -> &mut Vec<u64> {
            let s = ((line / 64) % self.sets as u64) as usize;
            &mut self.ways[s]
        }

        /// `None` on a hit (promoted to MRU), else the evicted line and
        /// whether it was dirty.
        fn probe_else_fill(&mut self, addr: u64) -> Option<(Option<u64>, bool)> {
            let line = addr & !63;
            let assoc = self.assoc;
            let ways = self.set(line);
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
            let was_dirty = evicted.is_some_and(|e| self.dirty.remove(&e));
            Some((evicted, was_dirty))
        }

        fn mark_dirty(&mut self, addr: u64) -> bool {
            let line = addr & !63;
            let resident = self.set(line).contains(&line);
            if resident {
                self.dirty.insert(line);
            }
            resident
        }

        fn flush(&mut self) {
            self.ways.iter_mut().for_each(Vec::clear);
            self.dirty.clear();
        }
    }

    proptest! {
        #[test]
        fn residency_never_exceeds_capacity(addrs in proptest::collection::vec(0u64..100_000, 1..500)) {
            let mut c = small_cache(4, 8);
            for a in addrs {
                c.probe_else_fill(a);
                prop_assert!(c.resident(a));
                prop_assert!(c.resident_lines() <= 4 * 8);
            }
        }

        /// Bit-identical replacement and dirty victims vs. the seed's
        /// `Vec<Vec<u64>>` model under an arbitrary interleaving of both
        /// lookup entry points, dirty marks and flushes.
        #[test]
        fn flat_tags_match_vec_of_vecs_reference(
            ops in proptest::collection::vec((0u64..4_096, 0u8..16), 1..600),
        ) {
            let mut flat = small_cache(4, 4);
            let mut reference = VecCache::new(4, 4);
            for (addr, op) in ops {
                match op {
                    0..=6 => {
                        let expected = reference.probe_else_fill(addr);
                        prop_assert_eq!(flat.fill_dirty(addr), expected);
                    }
                    7..=11 => {
                        let expected = reference.probe_else_fill(addr).map(|(e, _)| e);
                        prop_assert_eq!(flat.probe_else_fill(addr), expected);
                    }
                    12..=14 => prop_assert_eq!(flat.mark_dirty(addr), reference.mark_dirty(addr)),
                    _ => {
                        flat.flush();
                        reference.flush();
                    }
                }
            }
        }
    }
}
