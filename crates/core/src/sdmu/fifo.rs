//! The FIFO group: K² identical match FIFOs, one per kernel column
//! (§III-C: "The FIFO group consists of K² identical FIFOs, and each FIFO
//! stores the matches belonging to one column").

use super::MatchEntry;

/// One bounded match FIFO: a ring of `depth` entry slots.
///
/// Besides its entries the FIFO integrates its own occupancy over time:
/// every push or pop first credits the current length for the cycles
/// since the previous change, so `area` is the sum of the occupancy
/// sampled at the end of every cycle without a per-cycle sample.
#[derive(Debug, Clone)]
pub struct MatchFifo {
    slots: Vec<MatchEntry>,
    /// Slot of the head entry.
    head: usize,
    len: usize,
    pushes: u64,
    peak: usize,
    /// Occupancy × cycles credited up to `since`.
    area: u64,
    /// Cycle of the last length change (or of the last fold).
    since: u64,
}

impl MatchFifo {
    /// Creates a FIFO with the given depth.
    pub fn new(depth: usize) -> Self {
        let empty = MatchEntry {
            column: 0,
            tap: 0,
            entry: 0,
            group: 0,
        };
        MatchFifo {
            slots: vec![empty; depth],
            head: 0,
            len: 0,
            pushes: 0,
            peak: 0,
            area: 0,
            since: 0,
        }
    }

    /// Whether another entry fits.
    #[inline]
    pub fn has_room(&self) -> bool {
        self.len < self.slots.len()
    }

    /// Current occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Configured depth — the number of entry slots the fault model's
    /// per-entry parity protects (see [`crate::resilience`]).
    #[inline]
    pub fn depth(&self) -> usize {
        self.slots.len()
    }

    /// Whether the FIFO is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Credits the current occupancy for the cycles `[since, cycle)`.
    #[inline]
    fn integrate(&mut self, cycle: u64) {
        self.area += self.len as u64 * (cycle - self.since);
        self.since = cycle;
    }

    /// Pushes an entry at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics when full — callers must check [`MatchFifo::has_room`]
    /// (hardware would never issue the write; a panic here indicates a
    /// simulator bug, not a recoverable condition).
    pub fn push(&mut self, m: MatchEntry, cycle: u64) {
        assert!(self.has_room(), "match FIFO overflow (simulator bug)");
        self.integrate(cycle);
        let depth = self.slots.len();
        let tail = self.head + self.len;
        self.slots[if tail >= depth { tail - depth } else { tail }] = m;
        self.len += 1;
        self.pushes += 1;
        self.peak = self.peak.max(self.len);
    }

    /// The entry at the head, if any.
    #[inline]
    pub fn front(&self) -> Option<&MatchEntry> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    /// Pops the head entry at `cycle`.
    #[inline]
    pub fn pop(&mut self, cycle: u64) -> Option<MatchEntry> {
        if self.len == 0 {
            return None;
        }
        self.integrate(cycle);
        let m = self.slots[self.head];
        self.head += 1;
        if self.head == self.slots.len() {
            self.head = 0;
        }
        self.len -= 1;
        Some(m)
    }

    /// Lifetime push count.
    #[inline]
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Peak occupancy observed.
    #[inline]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Occupancy summed over the end of every cycle before the last
    /// change or [`FifoGroup::fold_occupancy`].
    #[inline]
    pub(crate) fn occupancy_area(&self) -> u64 {
        self.area
    }

    /// Empties the FIFO and zeroes its counters (a new tile).
    fn reset(&mut self) {
        self.head = 0;
        self.len = 0;
        self.pushes = 0;
        self.peak = 0;
        self.area = 0;
        self.since = 0;
    }
}

/// The group of K² FIFOs plus the MUX drain logic.
///
/// A bitset of the non-empty FIFOs (bit `col % 64` of word `col / 64`)
/// lets the MUX visit only FIFOs that hold entries, in the same column
/// order as a full sweep, and an entry count makes
/// [`FifoGroup::is_empty`] O(1).
#[derive(Debug, Clone)]
pub struct FifoGroup {
    fifos: Vec<MatchFifo>,
    non_empty: Vec<u64>,
    held: usize,
}

impl FifoGroup {
    /// Creates `columns` FIFOs of the given depth.
    pub fn new(columns: usize, depth: usize) -> Self {
        FifoGroup {
            fifos: (0..columns).map(|_| MatchFifo::new(depth)).collect(),
            non_empty: vec![0; columns.div_ceil(64)],
            held: 0,
        }
    }

    /// Number of FIFOs (K²).
    #[inline]
    pub fn columns(&self) -> usize {
        self.fifos.len()
    }

    /// Access one FIFO.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn fifo(&self, col: usize) -> &MatchFifo {
        &self.fifos[col]
    }

    /// Whether FIFO `col` has room for another entry.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    #[inline]
    pub fn has_room(&self, col: usize) -> bool {
        self.fifos[col].has_room()
    }

    /// Pushes `m` into FIFO `col` at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range or the FIFO is full (see
    /// [`MatchFifo::push`]).
    pub fn push(&mut self, col: usize, m: MatchEntry, cycle: u64) {
        self.fifos[col].push(m, cycle);
        self.non_empty[col / 64] |= 1 << (col % 64);
        self.held += 1;
    }

    /// The MUX: pops, at `cycle`, the next match of `group`, consuming
    /// columns in order (the "calculation order" of §III-C, which lines
    /// matches up with the column-ordered weight stream).
    pub fn pop_for_group(&mut self, group: usize, cycle: u64) -> Option<MatchEntry> {
        for wi in 0..self.non_empty.len() {
            let mut bits = self.non_empty[wi];
            while bits != 0 {
                let col = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let fifo = &mut self.fifos[col];
                if fifo.front().is_some_and(|m| m.group == group) {
                    let m = fifo.pop(cycle);
                    if fifo.is_empty() {
                        self.non_empty[wi] &= !(1 << (col % 64));
                    }
                    self.held -= 1;
                    return m;
                }
            }
        }
        None
    }

    /// Whether the whole group of FIFOs is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.held == 0
    }

    /// Credits every FIFO's occupancy up to `cycle` (the tile's end), so
    /// each [`MatchFifo::occupancy_area`] covers cycles `[0, cycle)`.
    pub(crate) fn fold_occupancy(&mut self, cycle: u64) {
        for f in &mut self.fifos {
            f.integrate(cycle);
        }
    }

    /// Empties every FIFO and zeroes the counters for a new tile.
    pub(crate) fn reset(&mut self) {
        for f in &mut self.fifos {
            f.reset();
        }
        self.non_empty.fill(0);
        self.held = 0;
    }

    /// Total pushes across the group.
    pub fn total_pushes(&self) -> u64 {
        self.fifos.iter().map(|f| f.pushes()).sum()
    }

    /// Peak occupancy across all FIFOs.
    pub fn peak_occupancy(&self) -> usize {
        self.fifos.iter().map(|f| f.peak()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(col: usize, group: usize) -> MatchEntry {
        MatchEntry {
            column: col,
            tap: 0,
            entry: 0,
            group,
        }
    }

    #[test]
    fn fifo_order_and_capacity() {
        let mut f = MatchFifo::new(2);
        assert!(f.has_room() && f.is_empty());
        f.push(entry(0, 0), 0);
        f.push(entry(0, 1), 0);
        assert!(!f.has_room());
        assert_eq!(f.pop(1).unwrap().group, 0);
        assert_eq!(f.pop(1).unwrap().group, 1);
        assert!(f.pop(1).is_none());
        assert_eq!(f.pushes(), 2);
        assert_eq!(f.peak(), 2);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut f = MatchFifo::new(1);
        f.push(entry(0, 0), 0);
        f.push(entry(0, 0), 0);
    }

    #[test]
    fn mux_pops_in_column_order_within_group() {
        let mut g = FifoGroup::new(3, 4);
        g.push(2, entry(2, 0), 0);
        g.push(0, entry(0, 0), 0);
        g.push(0, entry(0, 1), 0);
        // Group 0: column 0 first, then column 2.
        assert_eq!(g.pop_for_group(0, 0).unwrap().column, 0);
        assert_eq!(g.pop_for_group(0, 0).unwrap().column, 2);
        assert!(g.pop_for_group(0, 0).is_none());
        // Group 1 remains.
        assert!(!g.is_empty());
        assert_eq!(g.pop_for_group(1, 0).unwrap().group, 1);
        assert!(g.is_empty());
    }

    #[test]
    fn mux_does_not_pop_future_groups() {
        let mut g = FifoGroup::new(2, 4);
        g.push(0, entry(0, 5), 0);
        assert!(g.pop_for_group(4, 0).is_none());
        assert_eq!(g.pop_for_group(5, 0).unwrap().group, 5);
    }

    #[test]
    fn mux_walks_columns_past_one_word() {
        // K = 9: 81 columns span two bitset words.
        let mut g = FifoGroup::new(81, 2);
        for col in [80, 3, 64, 63] {
            g.push(col, entry(col, 0), 0);
        }
        let order: Vec<usize> = std::iter::from_fn(|| g.pop_for_group(0, 0))
            .map(|m| m.column)
            .collect();
        assert_eq!(order, vec![3, 63, 64, 80]);
        assert!(g.is_empty());
    }

    #[test]
    fn integrated_occupancy_equals_per_cycle_samples() {
        // A seeded push/pop schedule over 3 FIFOs: the integrated area
        // must equal the occupancy sampled at the end of every cycle.
        let mut g = FifoGroup::new(3, 4);
        let mut sampled = [0u64; 3];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let cycles = 500;
        for cycle in 0..cycles {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let col = (state % 3) as usize;
            if state & 8 == 0 && g.has_room(col) {
                g.push(col, entry(col, 0), cycle);
            }
            if state & 16 == 0 {
                g.pop_for_group(0, cycle);
            }
            for (c, s) in sampled.iter_mut().enumerate() {
                *s += g.fifo(c).len() as u64;
            }
        }
        g.fold_occupancy(cycles);
        let area: Vec<u64> = (0..3).map(|c| g.fifo(c).occupancy_area()).collect();
        assert_eq!(area, sampled.to_vec());
        assert!(sampled.iter().all(|&s| s > 0));
    }

    #[test]
    fn group_stats() {
        let mut g = FifoGroup::new(2, 4);
        g.push(0, entry(0, 0), 0);
        g.push(1, entry(1, 0), 0);
        g.push(1, entry(1, 0), 0);
        assert_eq!(g.total_pushes(), 3);
        assert_eq!(g.peak_occupancy(), 2);
        assert_eq!(g.columns(), 2);
        g.reset();
        assert!(g.is_empty());
        assert_eq!(g.total_pushes(), 0);
        assert!(g.pop_for_group(0, 0).is_none());
    }
}
