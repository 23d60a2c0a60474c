//! Request descriptors and the equations that generate them.
//!
//! For every (row `i`, column-of-interest `j`) pair the Requestor emits one
//! descriptor telling a Fetch Unit where to read in main memory, how long a
//! burst to request, which bytes of the response are useful, and where the
//! extracted bytes land in the Reorganization Buffer. The fields follow
//! equations (2)–(6) of the paper, with `P_{i,j}` from equation (1):
//!
//! ```text
//! P_{i,j}      = R·i + Σ_{k=0..=j} OA_k                  (1)
//! Raddr_{i,j}  = (P_{i,j} // B_w) · B_w                   (2)
//! Rburst_{i,j} = ⌈((P_{i,j} % B_w) + CA_j) / B_w⌉         (3)
//! Waddr_{i,j}  = i · Σ CA_k + Σ_{k<j} CA_k                (4)
//! Es_{i,j}     = P_{i,j} % B_w                            (5)
//! Ee_{i,j}     = (P_{i,j} + CA_j) % B_w                   (6)
//! ```
//!
//! Equation (4) is printed in the paper with an `(i − 1)` factor; with
//! zero-based row indices the factor is `i`, which is what the prototype
//! uses (and what makes row 0 land at packed offset 0).

use crate::geometry::TableGeometry;

/// One fetch descriptor, the unit of work handed to a Fetch Unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Source row index `i`.
    pub row: u64,
    /// Column-of-interest index `j`.
    pub column: usize,
    /// Bus-aligned main-memory read address (`Raddr`).
    pub raddr: u64,
    /// Burst length in bus beats (`Rburst`).
    pub rburst: usize,
    /// Destination offset in the packed projection (`Waddr`), relative to
    /// the start of the projection (not of the frame).
    pub waddr: u64,
    /// Leading bytes of the burst to discard (`Es`).
    pub es: usize,
    /// Useful payload length in bytes (`CA_j`).
    pub len: usize,
}

impl Descriptor {
    /// Trailing byte boundary within the last beat (`Ee` of equation (6)).
    pub fn ee(&self, bus_bytes: usize) -> usize {
        (self.es + self.len) % bus_bytes
    }

    /// Number of bytes the burst moves over the bus.
    pub fn burst_bytes(&self, bus_bytes: usize) -> usize {
        self.rburst * bus_bytes
    }
}

/// Computes the descriptor for row `i`, column `j` of a geometry.
///
/// `packed_row_index` is the row's index within the packed output, which
/// differs from `i` when MVCC filtering skips invisible rows.
pub fn descriptor_for(
    geometry: &TableGeometry,
    i: u64,
    packed_row_index: u64,
    j: usize,
    bus_bytes: usize,
) -> Descriptor {
    let p = geometry.p(i, j);
    let ca = geometry.column_width(j);
    let offset_in_beat = (p % bus_bytes as u64) as usize;
    let raddr = p - offset_in_beat as u64;
    let rburst = (offset_in_beat + ca).div_ceil(bus_bytes);
    let waddr = packed_row_index * geometry.packed_row_bytes() as u64
        + geometry.packed_column_offset(j) as u64;
    Descriptor {
        row: i,
        column: j,
        raddr,
        rburst,
        waddr,
        es: offset_in_beat,
        len: ca,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::ColumnSpec;
    use proptest::prelude::*;

    /// A bare geometry used by the equation tests: 64-byte rows, one 4-byte
    /// column at a configurable offset — the setup of Figure 6.
    fn single_column_geometry(offset: usize) -> TableGeometry {
        TableGeometry {
            row_bytes: 64,
            row_count: 1_000,
            columns: vec![ColumnSpec {
                width: 4,
                oa_delta: offset,
            }],
            source_base: 0,
            ephemeral_base: 0x4000_0000,
            mvcc_header_bytes: 0,
            snapshot: None,
        }
    }

    #[test]
    fn figure6_burst_lengths_spike_when_field_straddles_a_beat() {
        // With a 16-byte bus and a 4-byte column, offsets 13, 14, 15 (and
        // their 16-byte-periodic repeats 29..31, 45..47) straddle two beats
        // and need a burst of 2 — the spikes of Figure 6.
        for offset in 0..61usize {
            let g = single_column_geometry(offset);
            let d = descriptor_for(&g, 0, 0, 0, 16);
            let expected = if offset % 16 > 12 { 2 } else { 1 };
            assert_eq!(d.rburst, expected, "offset {offset}");
        }
    }

    #[test]
    fn equations_worked_example() {
        // Row 3, column at absolute offset 24, width 8, bus 16 B, rows 64 B.
        let g = TableGeometry {
            row_bytes: 64,
            row_count: 10,
            columns: vec![
                ColumnSpec {
                    width: 4,
                    oa_delta: 0,
                },
                ColumnSpec {
                    width: 8,
                    oa_delta: 24,
                },
            ],
            source_base: 0x1000,
            ephemeral_base: 0,
            mvcc_header_bytes: 0,
            snapshot: None,
        };
        let d = descriptor_for(&g, 3, 3, 1, 16);
        // P = 0x1000 + 3*64 + 24 = 0x1000 + 216.
        assert_eq!(d.raddr, 0x1000 + 208); // aligned down to a 16 B beat
        assert_eq!(d.es, 8);
        assert_eq!(d.rburst, 1); // 8 + 8 = 16 fits one beat
        assert_eq!(d.ee(16), 0);
        // Waddr = i * (4+8) + 4.
        assert_eq!(d.waddr, 3 * 12 + 4);
        assert_eq!(d.burst_bytes(16), 16);
    }

    #[test]
    fn row_zero_lands_at_packed_offset_zero() {
        let g = single_column_geometry(12);
        let d = descriptor_for(&g, 0, 0, 0, 16);
        assert_eq!(d.waddr, 0);
    }

    #[test]
    fn mvcc_filtering_uses_packed_row_index_for_waddr() {
        let g = single_column_geometry(0);
        // Source row 10 is the 4th visible row: it must land at packed row 3.
        let d = descriptor_for(&g, 10, 3, 0, 16);
        assert_eq!(d.raddr, 10 * 64);
        assert_eq!(d.waddr, 3 * 4);
    }

    proptest! {
        /// The descriptor must cover the useful bytes: the burst starts at or
        /// before P and ends at or after P + CA.
        #[test]
        fn burst_covers_useful_bytes(
            row_bytes in 16usize..=256,
            offset in 0usize..200,
            width in 1usize..=64,
            i in 0u64..10_000,
        ) {
            prop_assume!(offset + width <= row_bytes);
            let g = TableGeometry {
                row_bytes,
                row_count: 20_000,
                columns: vec![ColumnSpec { width, oa_delta: offset }],
                source_base: 4096,
                ephemeral_base: 0,
                mvcc_header_bytes: 0,
                snapshot: None,
            };
            let bus = 16usize;
            let d = descriptor_for(&g, i, i, 0, bus);
            let p = g.p(i, 0);
            prop_assert!(d.raddr <= p);
            prop_assert_eq!(d.raddr % bus as u64, 0);
            prop_assert!(d.raddr + d.burst_bytes(bus) as u64 >= p + width as u64);
            prop_assert_eq!(d.es as u64, p - d.raddr);
            // Burst is minimal: one fewer beat would not cover the field.
            prop_assert!((d.rburst - 1) * bus < d.es + width);
        }

        /// Waddr tiles the packed projection without gaps or overlaps when
        /// iterating rows and columns in order.
        #[test]
        fn waddr_tiles_packed_space(widths in proptest::collection::vec(1usize..16, 1..6), rows in 1u64..50) {
            let columns: Vec<ColumnSpec> = widths
                .iter()
                .scan(0usize, |acc, &w| {
                    let spec = ColumnSpec { width: w, oa_delta: if *acc == 0 { 0 } else { 4 } };
                    *acc += 1;
                    Some(spec)
                })
                .collect();
            let row_bytes = widths.iter().sum::<usize>() + 4 * widths.len() + 8;
            let g = TableGeometry {
                row_bytes,
                row_count: rows,
                columns,
                source_base: 0,
                ephemeral_base: 0,
                mvcc_header_bytes: 0,
                snapshot: None,
            };
            let mut covered = vec![false; (g.packed_row_bytes() as u64 * rows) as usize];
            for i in 0..rows {
                for j in 0..g.num_columns() {
                    let d = descriptor_for(&g, i, i, j, 16);
                    for b in 0..d.len {
                        let idx = (d.waddr + b as u64) as usize;
                        prop_assert!(!covered[idx], "packed byte {idx} written twice");
                        covered[idx] = true;
                    }
                }
            }
            prop_assert!(covered.into_iter().all(|c| c));
        }
    }
}
