//! The Column Extractor.
//!
//! Inside each Fetch Unit, the Column Extractor receives the raw bus beats
//! returned by the Reader and cuts out the bytes that belong to the column
//! of interest, shifting them so they can be packed contiguously (Section 5,
//! "Fetch Unit"). Functionally this is a slice-and-shift; the value of
//! modelling it explicitly is that it can be property-tested against the
//! software reference projection and that its per-beat cost shows up in the
//! timing model.

use crate::descriptor::Descriptor;

/// Extracts the useful bytes described by `descriptor` from the raw burst
/// payload returned by main memory, as a slice of that payload.
///
/// `payload` must contain exactly the burst (`rburst × bus_bytes` bytes)
/// starting at the descriptor's aligned `raddr`.
///
/// # Panics
/// Panics if the payload is shorter than the burst the descriptor describes.
pub fn extract<'p>(descriptor: &Descriptor, payload: &'p [u8], bus_bytes: usize) -> &'p [u8] {
    let burst = descriptor.burst_bytes(bus_bytes);
    assert!(
        payload.len() >= burst,
        "payload of {} bytes is shorter than the {}-byte burst",
        payload.len(),
        burst
    );
    &payload[descriptor.es..descriptor.es + descriptor.len]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::descriptor_for;
    use crate::geometry::{ColumnSpec, TableGeometry};
    use proptest::prelude::*;

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
    fn extracts_across_a_beat_boundary() {
        let d = Descriptor {
            row: 0,
            column: 0,
            raddr: 0,
            rburst: 2,
            waddr: 0,
            es: 14,
            len: 6,
        };
        let payload: Vec<u8> = (0..32).collect();
        assert_eq!(extract(&d, &payload, 16), &[14, 15, 16, 17, 18, 19]);
    }

    #[test]
    #[should_panic(expected = "shorter than")]
    fn short_payload_panics() {
        let d = Descriptor {
            row: 0,
            column: 0,
            raddr: 0,
            rburst: 2,
            waddr: 0,
            es: 0,
            len: 20,
        };
        let _ = extract(&d, &[0u8; 16], 16);
    }

    proptest! {
        /// Extraction over a synthetic "memory" equals reading the field
        /// directly at its absolute address — the hardware and software
        /// views of projection agree byte for byte.
        #[test]
        fn extraction_matches_direct_read(
            offset in 0usize..60,
            width in 1usize..=16,
            i in 0u64..200,
        ) {
            prop_assume!(offset + width <= 64);
            let g = TableGeometry {
                row_bytes: 64,
                row_count: 500,
                columns: vec![ColumnSpec { width, oa_delta: offset }],
                source_base: 0,
                ephemeral_base: 0,
                mvcc_header_bytes: 0,
                snapshot: None,
            };
            // Synthetic memory where byte at address a has value a & 0xff.
            let mem: Vec<u8> = (0..64 * 500).map(|a| (a & 0xff) as u8).collect();
            let d = descriptor_for(&g, i, i, 0, 16);
            let payload = &mem[d.raddr as usize..d.raddr as usize + d.burst_bytes(16)];
            let extracted = extract(&d, payload, 16);
            let p = g.p(i, 0) as usize;
            prop_assert_eq!(extracted, &mem[p..p + width]);
        }
    }
}
