//! Bit-packed 3-D occupancy masks — the bulk form of the paper's
//! *index mask* (§III-B).
//!
//! The paper encodes a feature map as one-bit masks ("the activation is
//! zero or not") plus valid data. [`OccupancyMask`] is that mask over the
//! whole grid, stored 64 sites per word in raster order.

use crate::coord::{Coord3, Extent3};
use crate::Result;
use serde::{Deserialize, Serialize};

/// A bit-per-site occupancy grid.
///
/// # Example
///
/// ```
/// use esca_tensor::{Coord3, Extent3, OccupancyMask};
///
/// let mut m = OccupancyMask::new(Extent3::cube(4));
/// m.set(Coord3::new(1, 2, 3), true)?;
/// assert!(m.get(Coord3::new(1, 2, 3))?);
/// assert_eq!(m.count_ones(), 1);
/// # Ok::<(), esca_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OccupancyMask {
    extent: Extent3,
    words: Vec<u64>,
}

impl OccupancyMask {
    /// Creates an all-zero mask.
    pub fn new(extent: Extent3) -> Self {
        let sites = extent.volume() as usize;
        OccupancyMask {
            extent,
            words: vec![0; sites.div_ceil(64)],
        }
    }

    /// Grid extent.
    #[inline]
    pub fn extent(&self) -> Extent3 {
        self.extent
    }

    /// Reads the bit at `c`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::OutOfBounds`] when `c` is outside the extent.
    #[inline]
    pub fn get(&self, c: Coord3) -> Result<bool> {
        let i = self.extent.linear(c)?;
        Ok(self.get_linear(i))
    }

    /// Reads the bit at `c`, treating out-of-grid sites as empty. This is
    /// the semantics the mask judger needs at tile borders: beyond the grid
    /// there are never activations.
    #[inline]
    pub fn get_or_empty(&self, c: Coord3) -> bool {
        if self.extent.contains(c) {
            self.get_linear(self.extent.linear_unchecked(c))
        } else {
            false
        }
    }

    #[inline]
    fn get_linear(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Reads `len` bits of the line `(x, y)` starting at `z0` into `out`:
    /// bit `i` (word `i / 64`, bit `i % 64`) is
    /// [`OccupancyMask::get_or_empty`] at `(x, y, z0 + i)`, so sites off
    /// the grid (any axis, negative `z0` included) read 0. Every word of
    /// `out` is written; bits at or past `len` are 0. This is the SDMU's
    /// line register load: one word-wide copy instead of a bounds-checked
    /// read per site.
    ///
    /// # Panics
    ///
    /// Panics if `out` holds fewer than `len.div_ceil(64)` words.
    pub fn line_bits(&self, x: i32, y: i32, z0: i32, len: usize, out: &mut [u64]) {
        assert!(out.len() * 64 >= len, "line register too short");
        out.fill(0);
        let e = self.extent;
        if x < 0 || y < 0 || x as u32 >= e.x || y as u32 >= e.y {
            return;
        }
        // Output positions whose z lies on the grid.
        let first = (-(z0 as i64)).clamp(0, len as i64) as usize;
        let end = (e.z as i64 - z0 as i64).clamp(first as i64, len as i64) as usize;
        let line = self.extent.linear_unchecked(Coord3::new(x, y, 0));
        let mut p = first;
        while p < end {
            let n = (64 - p % 64).min(end - p);
            let site = line + (z0 as i64 + p as i64) as usize;
            out[p / 64] |= self.bits_at(site, n) << (p % 64);
            p += n;
        }
    }

    /// The `n ≤ 64` bits at linear sites `[start, start + n)`, low bit
    /// first; every site must lie on the grid.
    #[inline]
    fn bits_at(&self, start: usize, n: usize) -> u64 {
        let (w, b) = (start / 64, start % 64);
        let mut bits = self.words[w] >> b;
        if b + n > 64 {
            bits |= self.words[w + 1] << (64 - b);
        }
        if n < 64 {
            bits &= (1u64 << n) - 1;
        }
        bits
    }

    /// Writes the bit at `c`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::OutOfBounds`] when `c` is outside the extent.
    pub fn set(&mut self, c: Coord3, value: bool) -> Result<()> {
        let i = self.extent.linear(c)?;
        let (w, b) = (i / 64, i % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
        Ok(())
    }

    /// Number of set bits (active sites).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of unset sites.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.count_ones() as f64 / self.extent.volume() as f64
    }

    /// Iterates the coordinates of all set bits in raster order.
    pub fn iter_active(&self) -> impl Iterator<Item = Coord3> + '_ {
        let e = self.extent;
        let total = e.volume() as usize;
        self.words
            .iter()
            .enumerate()
            .flat_map(move |(wi, &w)| {
                let mut bits = w;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        None
                    } else {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        Some(wi * 64 + b)
                    }
                })
            })
            .filter(move |&i| i < total)
            .map(move |i| e.delinear(i))
    }

    /// Whether any site inside the axis-aligned box `[lo, hi]` (inclusive,
    /// clamped to the grid) is active. This is the primitive the tile
    /// classifier uses.
    pub fn any_in_box(&self, lo: Coord3, hi: Coord3) -> bool {
        let x0 = lo.x.max(0);
        let y0 = lo.y.max(0);
        let z0 = lo.z.max(0);
        let x1 = hi.x.min(self.extent.x as i32 - 1);
        let y1 = hi.y.min(self.extent.y as i32 - 1);
        let z1 = hi.z.min(self.extent.z as i32 - 1);
        for x in x0..=x1 {
            for y in y0..=y1 {
                for z in z0..=z1 {
                    if self.get_linear(self.extent.linear_unchecked(Coord3::new(x, y, z))) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Counts active sites inside the inclusive, clamped box `[lo, hi]`.
    pub fn count_in_box(&self, lo: Coord3, hi: Coord3) -> usize {
        let x0 = lo.x.max(0);
        let y0 = lo.y.max(0);
        let z0 = lo.z.max(0);
        let x1 = hi.x.min(self.extent.x as i32 - 1);
        let y1 = hi.y.min(self.extent.y as i32 - 1);
        let z1 = hi.z.min(self.extent.z as i32 - 1);
        let mut n = 0;
        for x in x0..=x1 {
            for y in y0..=y1 {
                for z in z0..=z1 {
                    if self.get_linear(self.extent.linear_unchecked(Coord3::new(x, y, z))) {
                        n += 1;
                    }
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut m = OccupancyMask::new(Extent3::cube(3));
        let c = Coord3::new(2, 1, 0);
        assert!(!m.get(c).unwrap());
        m.set(c, true).unwrap();
        assert!(m.get(c).unwrap());
        m.set(c, false).unwrap();
        assert!(!m.get(c).unwrap());
    }

    #[test]
    fn out_of_bounds_is_error_or_empty() {
        let m = OccupancyMask::new(Extent3::cube(2));
        assert!(m.get(Coord3::new(2, 0, 0)).is_err());
        assert!(!m.get_or_empty(Coord3::new(-1, -1, -1)));
    }

    #[test]
    fn count_ones_and_sparsity() {
        let mut m = OccupancyMask::new(Extent3::new(4, 4, 4));
        for i in 0..5 {
            m.set(Coord3::new(i % 4, (i / 4) % 4, 0), true).unwrap();
        }
        assert_eq!(m.count_ones(), 5);
        assert!((m.sparsity() - (1.0 - 5.0 / 64.0)).abs() < 1e-12);
    }

    #[test]
    fn iter_active_matches_sets_in_raster_order() {
        let mut m = OccupancyMask::new(Extent3::new(3, 3, 3));
        let coords = [
            Coord3::new(2, 2, 2),
            Coord3::new(0, 0, 1),
            Coord3::new(1, 0, 0),
        ];
        for &c in &coords {
            m.set(c, true).unwrap();
        }
        let active: Vec<_> = m.iter_active().collect();
        assert_eq!(active.len(), 3);
        let mut expect = coords.to_vec();
        expect.sort_by_key(|c| m.extent().linear_unchecked(*c));
        assert_eq!(active, expect);
    }

    #[test]
    fn iter_active_over_word_boundary() {
        // 5x5x5 = 125 sites spans two u64 words.
        let mut m = OccupancyMask::new(Extent3::cube(5));
        let c = Coord3::new(4, 4, 4); // index 124, in word 1
        m.set(c, true).unwrap();
        assert_eq!(m.iter_active().collect::<Vec<_>>(), vec![c]);
    }

    /// A seeded mask with each site set with probability `p`.
    fn random_mask(extent: Extent3, p: f64, seed: u64) -> OccupancyMask {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
        let mut m = OccupancyMask::new(extent);
        for c in extent.iter() {
            if rng.gen_bool(p) {
                m.set(c, true).unwrap();
            }
        }
        m
    }

    /// Checks `line_bits` against per-site `get_or_empty` reads, including
    /// that no bit at or past `len` is set.
    fn check_line(m: &OccupancyMask, x: i32, y: i32, z0: i32, len: usize) {
        let mut out = vec![u64::MAX; len.div_ceil(64) + 1];
        m.line_bits(x, y, z0, len, &mut out);
        for i in 0..out.len() * 64 {
            let got = (out[i / 64] >> (i % 64)) & 1 == 1;
            let want = i < len && m.get_or_empty(Coord3::new(x, y, z0 + i as i32));
            assert_eq!(got, want, "line ({x}, {y}) z0 {z0} len {len} bit {i}");
        }
    }

    #[test]
    fn line_bits_match_per_site_reads() {
        // z = 37 makes consecutive lines start at every word offset, so
        // windows straddle word boundaries in every alignment.
        for (seed, p) in [(1, 0.5), (2, 0.1), (3, 0.9)] {
            let m = random_mask(Extent3::new(5, 4, 37), p, seed);
            for x in -1..=5 {
                for y in -1..=4 {
                    for (z0, len) in [(0, 37), (-3, 12), (30, 12), (-5, 50), (10, 1), (36, 9)] {
                        check_line(&m, x, y, z0, len);
                    }
                }
            }
        }
    }

    #[test]
    fn line_bits_full_word_and_multi_word() {
        let m = random_mask(Extent3::new(3, 3, 150), 0.4, 4);
        for (x, y) in [(0, 0), (1, 2), (2, 2), (3, 0), (0, -1)] {
            // Exactly one full word, aligned and unaligned.
            check_line(&m, x, y, 0, 64);
            check_line(&m, x, y, 7, 64);
            check_line(&m, x, y, -9, 64);
            // Several words, running off both ends of the line.
            check_line(&m, x, y, -20, 200);
            check_line(&m, x, y, 1, 128);
            check_line(&m, x, y, 90, 70);
        }
        // A window wholly past either end of the line reads empty.
        check_line(&m, 1, 1, 150, 64);
        check_line(&m, 1, 1, -80, 70);
    }

    #[test]
    fn box_queries_clamp() {
        let mut m = OccupancyMask::new(Extent3::cube(4));
        m.set(Coord3::new(0, 0, 0), true).unwrap();
        m.set(Coord3::new(3, 3, 3), true).unwrap();
        assert!(m.any_in_box(Coord3::new(-5, -5, -5), Coord3::new(0, 0, 0)));
        assert_eq!(
            m.count_in_box(Coord3::new(0, 0, 0), Coord3::new(10, 10, 10)),
            2
        );
        assert!(!m.any_in_box(Coord3::new(1, 1, 1), Coord3::new(2, 2, 2)));
    }
}
