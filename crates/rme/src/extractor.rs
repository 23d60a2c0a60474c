//! The Column Extractor.
//!
//! Inside each Fetch Unit, the Column Extractor receives the raw bus beats
//! returned by the Reader and cuts out the bytes that belong to the column
//! of interest, shifting them so they can be packed contiguously (Section 5,
//! "Fetch Unit"). The bytes it cuts out of a burst are the field's bytes at
//! its source address, so the simulation packs straight from the row in
//! physical memory: [`pack_row`] is the extractor and packer of one source
//! row, and the burst's beats are charged by the timing model
//! ([`crate::fetch_unit::FetchUnit::book`]). It is property-tested against
//! cutting each field out of its burst.

use crate::requestor::ColumnPlan;

/// Packs `columns` of one source row: copies each column's bytes from
/// `source_row` (the row's bytes from its first, at offset 0) to the
/// column's packed offset in `packed_row` (the packed row's bytes from its
/// first).
///
/// # Panics
/// Panics if a column lies outside either row.
#[inline]
pub fn pack_row(columns: &[ColumnPlan], source_row: &[u8], packed_row: &mut [u8]) {
    for c in columns {
        let from = c.source_offset as usize;
        let src = &source_row[from..from + c.width];
        let dst = &mut packed_row[c.packed_offset..c.packed_offset + c.width];
        // Fixed-size copies of the common widths compile to one load and
        // one store instead of a call to `memcpy`.
        match c.width {
            4 => dst[..4].copy_from_slice(&src[..4]),
            8 => dst[..8].copy_from_slice(&src[..8]),
            _ => dst.copy_from_slice(src),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::descriptor::{descriptor_for, Descriptor};
    use crate::geometry::{ColumnSpec, TableGeometry};
    use crate::requestor::ProjectionPlan;
    use proptest::prelude::*;

    /// Cuts the useful bytes described by `descriptor` out of the raw burst
    /// `payload` returned by main memory (`rburst × bus_bytes` bytes from
    /// the descriptor's aligned `raddr`): what the hardware extractor does
    /// per descriptor, and the reference [`pack_row`] is held to.
    ///
    /// # Panics
    /// Panics if the payload is shorter than the burst.
    pub(crate) fn extract<'p>(
        descriptor: &Descriptor,
        payload: &'p [u8],
        bus_bytes: usize,
    ) -> &'p [u8] {
        let burst = descriptor.burst_bytes(bus_bytes);
        assert!(
            payload.len() >= burst,
            "payload of {} bytes is shorter than the {}-byte burst",
            payload.len(),
            burst
        );
        &payload[descriptor.es..descriptor.es + descriptor.len]
    }

    #[test]
    fn extracts_the_middle_of_a_beat() {
        let d = Descriptor {
            row: 0,
            column: 0,
            raddr: 0,
            rburst: 1,
            waddr: 0,
            es: 5,
            len: 4,
        };
        let payload: Vec<u8> = (0..16).collect();
        assert_eq!(extract(&d, &payload, 16), &[5, 6, 7, 8]);
    }

    #[test]
    fn packs_columns_across_a_beat_boundary() {
        let plan = ProjectionPlan::new(
            &TableGeometry {
                row_bytes: 32,
                row_count: 1,
                columns: vec![
                    ColumnSpec {
                        width: 6,
                        oa_delta: 14,
                    },
                    ColumnSpec {
                        width: 2,
                        oa_delta: 10,
                    },
                ],
                source_base: 0,
                ephemeral_base: 0,
                mvcc_header_bytes: 0,
                snapshot: None,
            },
            16,
        );
        let row: Vec<u8> = (0..32).collect();
        let mut packed = [0u8; 8];
        pack_row(plan.columns(), &row, &mut packed);
        assert_eq!(packed, [14, 15, 16, 17, 18, 19, 24, 25]);
        // A run that starts at the second column packs only that one.
        let mut packed = [0u8; 8];
        pack_row(&plan.columns()[1..], &row, &mut packed);
        assert_eq!(packed, [0, 0, 0, 0, 0, 0, 24, 25]);
    }

    proptest! {
        /// Packing a row equals cutting every field out of its burst over a
        /// synthetic "memory" — the hardware and software views of
        /// projection agree byte for byte.
        #[test]
        fn packing_matches_extraction_from_bursts(
            specs in proptest::collection::vec((1usize..=16, 0usize..20), 1..6),
            i in 0u64..200,
            bus_pow in 2u32..6,
        ) {
            let columns: Vec<ColumnSpec> = specs
                .iter()
                .map(|&(width, oa_delta)| ColumnSpec { width, oa_delta })
                .collect();
            let g = TableGeometry {
                row_bytes: 256,
                row_count: 500,
                columns,
                source_base: 0,
                ephemeral_base: 0,
                mvcc_header_bytes: 0,
                snapshot: None,
            };
            let bus = 1usize << bus_pow;
            // Synthetic memory where byte at address a has value a & 0xff.
            let mem: Vec<u8> = (0..256 * 501).map(|a| (a & 0xff) as u8).collect();
            let plan = ProjectionPlan::new(&g, bus);
            let base = (i * 256) as usize;
            let mut packed = vec![0u8; g.packed_row_bytes()];
            pack_row(plan.columns(), &mem[base..base + 256], &mut packed);
            let mut want = Vec::new();
            for j in 0..g.num_columns() {
                let d = descriptor_for(&g, i, 0, j, bus);
                let payload = &mem[d.raddr as usize..d.raddr as usize + d.burst_bytes(bus)];
                want.extend_from_slice(extract(&d, payload, bus));
            }
            prop_assert_eq!(packed, want);
        }
    }
}
