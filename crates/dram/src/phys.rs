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
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next_alloc + align - 1) & !(align - 1);
        let end = base + size as u64;
        assert!(
            end <= self.bytes.len() as u64,
            "physical memory exhausted: need {end} bytes, have {}",
            self.bytes.len()
        );
        self.next_alloc = end;
        base
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

    /// Writes a little-endian unsigned integer of `width` ∈ {1,2,4,8} bytes.
    pub fn write_uint(&mut self, addr: u64, width: usize, value: u64) {
        let bytes = value.to_le_bytes();
        self.write(addr, &bytes[..width]);
    }

    /// Fills a region with a byte value.
    pub fn fill(&mut self, addr: u64, len: usize, value: u8) {
        let start = addr as usize;
        self.bytes[start..start + len].fill(value);
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

    #[test]
    fn uint_roundtrip_all_widths() {
        let mut mem = PhysicalMemory::new(1024);
        for (width, value) in [
            (1usize, 0xAAu64),
            (2, 0xBEEF),
            (4, 0xDEADBEEF),
            (8, u64::MAX - 5),
        ] {
            mem.write_uint(64, width, value);
            let mask = if width == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * width)) - 1
            };
            assert_eq!(mem.read_uint(64, width), value & mask);
        }
    }

    #[test]
    fn fill_fills() {
        let mut mem = PhysicalMemory::new(256);
        mem.fill(10, 5, 0x7f);
        assert_eq!(mem.read(10, 5), &[0x7f; 5]);
        assert_eq!(mem.read(15, 1), &[0]);
    }
}
