//! The RME configuration port.
//!
//! The DBMS programs the engine at runtime by writing a small register file;
//! Table 1 of the paper gives the exact address map, reproduced here:
//!
//! | Parameter            | Symbol | Address             |
//! |----------------------|--------|---------------------|
//! | Row size             | `R`    | `base + 0x00`       |
//! | Row count            | `N`    | `base + 0x04`       |
//! | Software reset       | `SW`   | `base + 0x08`       |
//! | Enabled column count | `Q`    | `base + 0x0c`       |
//! | Column width         | `CA_j` | `base + 0x10 + 2·j` |
//! | Column offset        | `OA_j` | `base + 0x26 + 2·j` |
//! | Frame number         | `F`    | `base + 0x3c`       |
//!
//! `R`, `N`, `Q` and `F` are 32-bit registers; `CA_j` and `OA_j` are 16-bit
//! registers, eleven of each (`j ∈ [0, 11)`). As an implementation extension
//! (the paper passes them out of band) the prototype also exposes the source
//! base address at `0x40`/`0x44` and the ephemeral base address at
//! `0x48`/`0x4c` as 32-bit halves of 64-bit values.

use crate::geometry::{ColumnSpec, TableGeometry};

/// Register offsets of the configuration port (Table 1).
pub mod regs {
    /// Row size `R`.
    pub const ROW_SIZE: u64 = 0x00;
    /// Row count `N`.
    pub const ROW_COUNT: u64 = 0x04;
    /// Software reset `SW`.
    pub const SW_RESET: u64 = 0x08;
    /// Enabled columns `Q`.
    pub const ENABLED_COLUMNS: u64 = 0x0c;
    /// First column width register `CA_0` (16-bit, stride 2).
    pub const COLUMN_WIDTH_BASE: u64 = 0x10;
    /// First column offset register `OA_0` (16-bit, stride 2).
    pub const COLUMN_OFFSET_BASE: u64 = 0x26;
    /// Frame number `F`.
    pub const FRAME_NUMBER: u64 = 0x3c;
    /// Source table base address, low half (extension).
    pub const SOURCE_BASE_LO: u64 = 0x40;
    /// Source table base address, high half (extension).
    pub const SOURCE_BASE_HI: u64 = 0x44;
    /// Ephemeral range base address, low half (extension).
    pub const EPHEMERAL_BASE_LO: u64 = 0x48;
    /// Ephemeral range base address, high half (extension).
    pub const EPHEMERAL_BASE_HI: u64 = 0x4c;
    /// Maximum number of columns of interest.
    pub const MAX_COLUMNS: usize = 11;
}

/// The memory-mapped register file of the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigPort {
    row_size: u32,
    row_count: u32,
    enabled_columns: u32,
    column_widths: [u16; regs::MAX_COLUMNS],
    column_offsets: [u16; regs::MAX_COLUMNS],
    frame_number: u32,
    source_base: u64,
    ephemeral_base: u64,
    /// Set by a write to `SW_RESET`; cleared when the engine consumes it.
    reset_requested: bool,
    writes: u64,
}

impl Default for ConfigPort {
    fn default() -> Self {
        ConfigPort {
            row_size: 0,
            row_count: 0,
            enabled_columns: 0,
            column_widths: [0; regs::MAX_COLUMNS],
            column_offsets: [0; regs::MAX_COLUMNS],
            frame_number: 0,
            source_base: 0,
            ephemeral_base: 0,
            reset_requested: false,
            writes: 0,
        }
    }
}

impl ConfigPort {
    /// Creates an all-zero register file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a register at `offset` (relative to the port base).
    ///
    /// # Panics
    /// Panics on an unmapped offset — the hardware would raise a bus error.
    pub fn write(&mut self, offset: u64, value: u32) {
        self.writes += 1;
        match offset {
            regs::ROW_SIZE => self.row_size = value,
            regs::ROW_COUNT => self.row_count = value,
            regs::SW_RESET => self.reset_requested = true,
            regs::ENABLED_COLUMNS => self.enabled_columns = value,
            regs::FRAME_NUMBER => self.frame_number = value,
            regs::SOURCE_BASE_LO => {
                self.source_base = (self.source_base & !0xFFFF_FFFF) | value as u64
            }
            regs::SOURCE_BASE_HI => {
                self.source_base = (self.source_base & 0xFFFF_FFFF) | ((value as u64) << 32)
            }
            regs::EPHEMERAL_BASE_LO => {
                self.ephemeral_base = (self.ephemeral_base & !0xFFFF_FFFF) | value as u64
            }
            regs::EPHEMERAL_BASE_HI => {
                self.ephemeral_base = (self.ephemeral_base & 0xFFFF_FFFF) | ((value as u64) << 32)
            }
            o if (regs::COLUMN_WIDTH_BASE
                ..regs::COLUMN_WIDTH_BASE + 2 * regs::MAX_COLUMNS as u64)
                .contains(&o)
                && (o - regs::COLUMN_WIDTH_BASE).is_multiple_of(2) =>
            {
                let j = ((o - regs::COLUMN_WIDTH_BASE) / 2) as usize;
                self.column_widths[j] = value as u16;
            }
            o if (regs::COLUMN_OFFSET_BASE
                ..regs::COLUMN_OFFSET_BASE + 2 * regs::MAX_COLUMNS as u64)
                .contains(&o)
                && (o - regs::COLUMN_OFFSET_BASE).is_multiple_of(2) =>
            {
                let j = ((o - regs::COLUMN_OFFSET_BASE) / 2) as usize;
                self.column_offsets[j] = value as u16;
            }
            _ => panic!("write to unmapped RME configuration register 0x{offset:x}"),
        }
    }

    /// Reads a register back.
    ///
    /// # Panics
    /// Panics on an unmapped offset.
    pub fn read(&self, offset: u64) -> u32 {
        match offset {
            regs::ROW_SIZE => self.row_size,
            regs::ROW_COUNT => self.row_count,
            regs::SW_RESET => self.reset_requested as u32,
            regs::ENABLED_COLUMNS => self.enabled_columns,
            regs::FRAME_NUMBER => self.frame_number,
            regs::SOURCE_BASE_LO => self.source_base as u32,
            regs::SOURCE_BASE_HI => (self.source_base >> 32) as u32,
            regs::EPHEMERAL_BASE_LO => self.ephemeral_base as u32,
            regs::EPHEMERAL_BASE_HI => (self.ephemeral_base >> 32) as u32,
            o if (regs::COLUMN_WIDTH_BASE
                ..regs::COLUMN_WIDTH_BASE + 2 * regs::MAX_COLUMNS as u64)
                .contains(&o)
                && (o - regs::COLUMN_WIDTH_BASE).is_multiple_of(2) =>
            {
                self.column_widths[((o - regs::COLUMN_WIDTH_BASE) / 2) as usize] as u32
            }
            o if (regs::COLUMN_OFFSET_BASE
                ..regs::COLUMN_OFFSET_BASE + 2 * regs::MAX_COLUMNS as u64)
                .contains(&o)
                && (o - regs::COLUMN_OFFSET_BASE).is_multiple_of(2) =>
            {
                self.column_offsets[((o - regs::COLUMN_OFFSET_BASE) / 2) as usize] as u32
            }
            _ => panic!("read of unmapped RME configuration register 0x{offset:x}"),
        }
    }

    /// Total number of register writes performed (configuration cost).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Consumes a pending software reset request, returning whether one was
    /// pending.
    pub fn take_reset(&mut self) -> bool {
        std::mem::take(&mut self.reset_requested)
    }

    /// Current frame number register.
    pub fn frame_number(&self) -> u32 {
        self.frame_number
    }

    /// Programs the whole register file from a [`TableGeometry`] the way the
    /// software layer (an ephemeral-variable registration) would: one write
    /// per Table 1 register.
    pub fn program(&mut self, geometry: &TableGeometry) {
        self.write(regs::ROW_SIZE, geometry.row_bytes as u32);
        self.write(regs::ROW_COUNT, geometry.row_count as u32);
        self.write(regs::ENABLED_COLUMNS, geometry.num_columns() as u32);
        for (j, col) in geometry.columns.iter().enumerate() {
            self.write(regs::COLUMN_WIDTH_BASE + 2 * j as u64, col.width as u32);
            self.write(regs::COLUMN_OFFSET_BASE + 2 * j as u64, col.oa_delta as u32);
        }
        self.write(regs::FRAME_NUMBER, 0);
        self.write(regs::SOURCE_BASE_LO, geometry.source_base as u32);
        self.write(regs::SOURCE_BASE_HI, (geometry.source_base >> 32) as u32);
        self.write(regs::EPHEMERAL_BASE_LO, geometry.ephemeral_base as u32);
        self.write(
            regs::EPHEMERAL_BASE_HI,
            (geometry.ephemeral_base >> 32) as u32,
        );
    }

    /// Decodes the registers back into a geometry (the engine-side view).
    /// MVCC information travels out of band (it is part of the row layout
    /// the software programmed), so the decoded geometry has no snapshot.
    pub fn decode(&self) -> TableGeometry {
        let columns = (0..self.enabled_columns as usize)
            .map(|j| ColumnSpec {
                width: self.column_widths[j] as usize,
                oa_delta: self.column_offsets[j] as usize,
            })
            .collect();
        TableGeometry {
            row_bytes: self.row_size as usize,
            row_count: self.row_count as u64,
            columns,
            source_base: self.source_base,
            ephemeral_base: self.ephemeral_base,
            mvcc_header_bytes: 0,
            snapshot: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmem_storage::{ColumnGroup, MvccConfig, Schema};

    fn geometry() -> TableGeometry {
        let schema = Schema::listing1();
        let group = ColumnGroup::new(vec![5, 7, 8]).unwrap();
        TableGeometry::from_schema(
            &schema,
            &group,
            0x8000_1000,
            0x1_2000_0000,
            44_000,
            MvccConfig::Disabled,
            None,
        )
        .unwrap()
    }

    #[test]
    fn register_map_matches_table_1() {
        assert_eq!(regs::ROW_SIZE, 0x00);
        assert_eq!(regs::ROW_COUNT, 0x04);
        assert_eq!(regs::SW_RESET, 0x08);
        assert_eq!(regs::ENABLED_COLUMNS, 0x0c);
        assert_eq!(regs::COLUMN_WIDTH_BASE, 0x10);
        assert_eq!(regs::COLUMN_OFFSET_BASE, 0x26);
        assert_eq!(regs::FRAME_NUMBER, 0x3c);
        assert_eq!(regs::MAX_COLUMNS, 11);
        // j-th width register address is base + 0x10 + j*0x2.
        let mut port = ConfigPort::new();
        port.write(regs::COLUMN_WIDTH_BASE + 2 * 10, 64);
        assert_eq!(port.read(0x10 + 0x14), 64);
    }

    #[test]
    fn program_decode_roundtrip() {
        let g = geometry();
        let mut port = ConfigPort::new();
        port.program(&g);
        let decoded = port.decode();
        assert_eq!(decoded.row_bytes, g.row_bytes);
        assert_eq!(decoded.row_count, g.row_count);
        assert_eq!(decoded.columns, g.columns);
        assert_eq!(decoded.source_base, g.source_base);
        assert_eq!(decoded.ephemeral_base, g.ephemeral_base);
        // Programming Q columns costs 4 + 2Q + 1 + 4 register writes.
        assert_eq!(port.writes(), 4 + 2 * 3 + 4);
    }

    #[test]
    fn reset_is_edge_triggered() {
        let mut port = ConfigPort::new();
        assert!(!port.take_reset());
        port.write(regs::SW_RESET, 1);
        assert_eq!(port.read(regs::SW_RESET), 1);
        assert!(port.take_reset());
        assert!(!port.take_reset());
    }

    #[test]
    fn sixty_four_bit_bases_split_across_two_registers() {
        let mut port = ConfigPort::new();
        port.write(regs::SOURCE_BASE_LO, 0xDEAD_BEEF);
        port.write(regs::SOURCE_BASE_HI, 0x1);
        assert_eq!(port.decode().source_base, 0x1_DEAD_BEEF);
        assert_eq!(port.read(regs::SOURCE_BASE_LO), 0xDEAD_BEEF);
        assert_eq!(port.read(regs::SOURCE_BASE_HI), 0x1);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn unmapped_write_panics() {
        ConfigPort::new().write(0x9999, 1);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn misaligned_column_register_panics() {
        // Odd offset inside the CA_j range is not a register.
        ConfigPort::new().write(regs::COLUMN_WIDTH_BASE + 1, 1);
    }
}
