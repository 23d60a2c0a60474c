//! The byte contents of main memory.
//!
//! A [`PhysicalMemory`] is a flat, zero-initialised byte array plus a bump
//! allocator for carving out regions (tables, columnar copies, ephemeral
//! address ranges). Addresses are plain `u64` byte offsets; the simulated
//! platform has no virtual memory because the paper's prototype also works
//! on physically contiguous buffers.

/// Byte-addressable simulated main memory.
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    bytes: Vec<u8>,
    next_alloc: u64,
}

impl PhysicalMemory {
    /// Creates a memory of `capacity` zeroed bytes.
    pub fn new(capacity: usize) -> Self {
        PhysicalMemory {
            bytes: vec![0u8; capacity],
            next_alloc: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }

    /// Bytes handed out by [`alloc`](Self::alloc) so far.
    pub fn allocated(&self) -> u64 {
        self.next_alloc
    }

    /// Allocates a region of `size` bytes aligned to `align` (must be a
    /// power of two). Returns the region's base address.
    ///
    /// # Panics
    /// Panics if the region does not fit or `align` is not a power of two.
    pub fn alloc(&mut self, size: usize, align: u64) -> u64 {
        self.try_alloc(size, align).unwrap_or_else(|| {
            panic!(
                "physical memory exhausted: need {size} bytes aligned to {align} after {}, have {}",
                self.next_alloc,
                self.bytes.len()
            )
        })
    }

    /// Like [`alloc`](Self::alloc), but returns `None`, allocating nothing,
    /// when the region does not fit once the cursor is padded up to
    /// `align`.
    ///
    /// # Panics
    /// Panics if `align` is not a power of two.
    pub fn try_alloc(&mut self, size: usize, align: u64) -> Option<u64> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next_alloc + align - 1) & !(align - 1);
        let end = base.checked_add(size as u64)?;
        if end > self.bytes.len() as u64 {
            return None;
        }
        self.next_alloc = end;
        Some(base)
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn read(&self, addr: u64, len: usize) -> &[u8] {
        let start = addr as usize;
        &self.bytes[start..start + len]
    }

    /// Mutable view of `len` bytes starting at `addr`, for encoding values
    /// in place.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        let start = addr as usize;
        &mut self.bytes[start..start + len]
    }

    /// Splits memory at `addr`: every byte below it shared, every byte
    /// from it on mutable, so one region can be copied into a region
    /// allocated after it without an intermediate buffer.
    ///
    /// # Panics
    /// Panics if `addr` is past the end of memory.
    pub fn split_at_mut(&mut self, addr: u64) -> (&[u8], &mut [u8]) {
        let (below, above) = self.bytes.split_at_mut(addr as usize);
        (below, above)
    }

    /// Copies `len` bytes starting at `addr` into `dst` (which must be at
    /// least `len` long).
    pub fn read_into(&self, addr: u64, dst: &mut [u8]) {
        let start = addr as usize;
        dst.copy_from_slice(&self.bytes[start..start + dst.len()]);
    }

    /// Reads a little-endian unsigned integer of `width` ∈ 1..=8 bytes.
    ///
    /// Hot path of every simulated field read: when eight bytes are in
    /// bounds this is a single unaligned load + mask; the byte-wise copy
    /// only survives for reads at the very end of memory.
    #[inline]
    pub fn read_uint(&self, addr: u64, width: usize) -> u64 {
        debug_assert!(width <= 8);
        let start = addr as usize;
        if let Some(chunk) = self.bytes.get(start..start + 8) {
            let value = u64::from_le_bytes(chunk.try_into().expect("8-byte slice"));
            if width >= 8 {
                value
            } else {
                value & ((1u64 << (8 * width)) - 1)
            }
        } else {
            let mut buf = [0u8; 8];
            buf[..width].copy_from_slice(self.read(addr, width));
            u64::from_le_bytes(buf)
        }
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let start = addr as usize;
        self.bytes[start..start + data.len()].copy_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment_and_bounds() {
        let mut mem = PhysicalMemory::new(4096);
        let a = mem.alloc(10, 1);
        assert_eq!(a, 0);
        let b = mem.alloc(16, 64);
        assert_eq!(b % 64, 0);
        assert!(b >= 10);
        assert_eq!(mem.allocated(), b + 16);
    }

    #[test]
    fn try_alloc_counts_the_alignment_padding() {
        let mut mem = PhysicalMemory::new(128);
        mem.alloc(12, 1);
        // 116 bytes are free, but a 64-aligned region starts at 64.
        assert_eq!(mem.try_alloc(65, 64), None);
        assert_eq!(mem.allocated(), 12);
        assert_eq!(mem.try_alloc(usize::MAX, 64), None);
        assert_eq!(mem.try_alloc(64, 64), Some(64));
        assert_eq!(mem.allocated(), 128);
    }

    #[test]
    fn split_at_mut_shares_below_and_lends_above() {
        let mut mem = PhysicalMemory::new(16);
        mem.write(2, &[5]);
        let (below, above) = mem.split_at_mut(8);
        above[1] = below[2];
        assert_eq!((below.len(), above.len()), (8, 8));
        assert_eq!(mem.read(9, 1), &[5]);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_over_capacity_panics() {
        let mut mem = PhysicalMemory::new(128);
        let _ = mem.alloc(256, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn alloc_bad_alignment_panics() {
        let mut mem = PhysicalMemory::new(128);
        let _ = mem.alloc(8, 3);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut mem = PhysicalMemory::new(1024);
        mem.write(100, &[1, 2, 3, 4]);
        assert_eq!(mem.read(100, 4), &[1, 2, 3, 4]);
        let mut buf = [0u8; 2];
        mem.read_into(101, &mut buf);
        assert_eq!(buf, [2, 3]);
        mem.slice_mut(102, 2).copy_from_slice(&[7, 8]);
        assert_eq!(mem.read(100, 4), &[1, 2, 7, 8]);
    }
}
