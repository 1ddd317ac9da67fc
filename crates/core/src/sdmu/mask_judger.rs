//! The mask judger (§III-C, Fig. 6): the SDMU stage that reads the K²
//! column mask bits of the incoming z-slice and judges whether the
//! current sparse receptive field (SRF) is *active* — i.e. whether its
//! centre mask bit is set, which is the submanifold condition for
//! performing a convolution at this site.
//!
//! The judger also exposes the slice bits to the state-index generator
//! (they are the `mask_in` inputs of the per-column accumulators), so one
//! mask-buffer read per cycle feeds both consumers — matching the paper's
//! single "read masks" step.
//!
//! The simulator's scan stage reads the same bits from its line register
//! (see [`crate::sdmu`]); debug builds run this judger beside it at every
//! site and assert that both reach the same verdict.

use esca_tensor::{Coord3, KernelOffsets, OccupancyMask};

/// The mask judger: stateless combinational logic over the mask buffer,
/// parameterized by the kernel geometry.
#[derive(Debug, Clone)]
pub struct MaskJudger {
    offsets: KernelOffsets,
}

impl MaskJudger {
    /// Creates a judger for kernel size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even or zero.
    pub fn new(k: u32) -> Self {
        MaskJudger {
            offsets: KernelOffsets::new(k),
        }
    }

    /// Columns examined per cycle (K²) — the decoder parallelism.
    pub fn columns(&self) -> usize {
        self.offsets.columns()
    }

    /// Judges the SRF centred at `centre`: writes, per column, the bit
    /// entering the window at the trailing edge `z + r` and the bit
    /// leaving past the leading edge `z − r − 1` into `column_bits` —
    /// exactly the state-index generator's step inputs — and returns the
    /// judge-state verdict (whether the centre is active). Out-of-grid
    /// reads are 0 (the zero halo).
    ///
    /// # Panics
    ///
    /// Panics if `column_bits.len() != columns()`.
    pub fn judge(
        &self,
        mask: &OccupancyMask,
        centre: Coord3,
        column_bits: &mut [(bool, bool)],
    ) -> bool {
        assert_eq!(column_bits.len(), self.columns(), "one bit pair per column");
        let r = self.offsets.radius();
        for (col, bits) in column_bits.iter_mut().enumerate() {
            let (dx, dy) = self.offsets.column_offset(col);
            let (x, y) = (centre.x + dx, centre.y + dy);
            *bits = (
                mask.get_or_empty(Coord3::new(x, y, centre.z + r)),
                mask.get_or_empty(Coord3::new(x, y, centre.z - r - 1)),
            );
        }
        mask.get_or_empty(centre)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esca_tensor::Extent3;

    /// One judged SRF slice, as the tests inspect it.
    struct Judged {
        column_bits: Vec<(bool, bool)>,
        centre_active: bool,
    }

    fn judge(j: &MaskJudger, mask: &OccupancyMask, centre: Coord3) -> Judged {
        let mut column_bits = vec![(false, false); j.columns()];
        let centre_active = j.judge(mask, centre, &mut column_bits);
        Judged {
            column_bits,
            centre_active,
        }
    }

    fn mask_with(coords: &[(i32, i32, i32)]) -> OccupancyMask {
        let mut m = OccupancyMask::new(Extent3::cube(8));
        for &(x, y, z) in coords {
            m.set(Coord3::new(x, y, z), true).unwrap();
        }
        m
    }

    #[test]
    fn centre_verdict_follows_the_mask() {
        let m = mask_with(&[(3, 3, 3)]);
        let j = MaskJudger::new(3);
        assert!(judge(&j, &m, Coord3::new(3, 3, 3)).centre_active);
        assert!(!judge(&j, &m, Coord3::new(3, 3, 4)).centre_active);
        assert_eq!(j.columns(), 9);
    }

    #[test]
    fn incoming_bit_sees_the_trailing_edge() {
        // Neighbor at (3, 3, 4): when the window centre is at z = 3, the
        // trailing edge z + 1 = 4 reads it through the centre column.
        let m = mask_with(&[(3, 3, 4)]);
        let j = MaskJudger::new(3);
        let s = judge(&j, &m, Coord3::new(3, 3, 3));
        let centre_col = 4; // (dx, dy) = (0, 0) for K = 3
        assert!(s.column_bits[centre_col].0);
        assert!(!s.column_bits[centre_col].1);
    }

    #[test]
    fn outgoing_bit_sees_past_the_leading_edge() {
        // Entry at z = 1 leaves the window when the centre reaches z = 3
        // (leading edge covers z − 1 = 2; z = 1 is one behind).
        let m = mask_with(&[(3, 3, 1)]);
        let j = MaskJudger::new(3);
        let s = judge(&j, &m, Coord3::new(3, 3, 3));
        assert!(s.column_bits[4].1);
        assert!(!s.column_bits[4].0);
    }

    #[test]
    fn halo_reads_are_zero() {
        let m = mask_with(&[]);
        let j = MaskJudger::new(3);
        let s = judge(&j, &m, Coord3::new(0, 0, 0));
        assert!(!s.centre_active);
        assert!(s.column_bits.iter().all(|&(a, b)| !a && !b));
    }

    #[test]
    fn off_centre_columns_map_to_their_lines() {
        let m = mask_with(&[(2, 4, 4)]); // dx = -1, dy = +1 from centre (3,3,3)
        let j = MaskJudger::new(3);
        let s = judge(&j, &m, Coord3::new(3, 3, 3));
        let col = KernelOffsets::new(3)
            .column_index(Coord3::new(-1, 1, 0))
            .unwrap();
        assert!(s.column_bits[col].0);
        // Every other column is silent.
        for (i, &(a, b)) in s.column_bits.iter().enumerate() {
            if i != col {
                assert!(!a && !b, "column {i} spuriously active");
            }
        }
    }

    #[test]
    fn k5_judger_has_25_columns() {
        let j = MaskJudger::new(5);
        assert_eq!(j.columns(), 25);
        let m = mask_with(&[(3, 3, 5)]); // within radius-2 trailing edge of z=3
        let s = judge(&j, &m, Coord3::new(3, 3, 3));
        assert!(s.column_bits[12].0); // centre column of a 5×5 cross-section
    }
}
