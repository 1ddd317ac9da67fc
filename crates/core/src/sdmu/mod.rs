//! The Sparse Data Matching Unit (§III-C, Fig. 6–7).
//!
//! For each active tile the SDMU traverses the tile's sites line by line
//! (z fastest), and for every site executes the paper's four matching
//! steps:
//!
//! 1. **Read masks** — the K² column mask bits of the new z-slice;
//! 2. **Judge state** — if the centre mask is 0, the SRF is skipped;
//! 3. **Generate state index** — per column, the `(A, B)` pair from the
//!    running accumulator;
//! 4. **Fetch activations** — read the address fragments `(A−B, A]` from
//!    the activation buffer into the K² match FIFOs.
//!
//! The MUX then drains the FIFOs in column order, one match per cycle,
//! toward the computing core. [`TileSdmu`] exposes exactly these steps to
//! the main controller's cycle loop.
//!
//! **The line register.** As in the paper's datapath, a scan line's mask
//! bits sit in a register: for a tile spanning z in `[z0, z1]`, each
//! line's fill loads, per column, the bits for z in `[z0 − r − 1, z1 + r]`
//! and the global CSR index of the line's first entry at or past
//! `z0 − r − 1`. Judging a site is one shift of the centre column's
//! register. The running accumulator `A` after the window's trailing edge
//! reaches `z + r` is the popcount of the register bits up to `z + r`, and
//! `A − B` the popcount up to `z − r − 1`, so the fragment `(A−B, A]`
//! comes from two popcounts per column at an active centre and nothing is
//! stepped per site. Debug builds also run the paper's per-site judger
//! and stepped `(A, B)` accumulators ([`mask_judger`], [`state_index`])
//! and assert that they agree with the register at every site, and with
//! [`esca_tensor::LineCsr::window`] at every active centre.

pub mod fifo;
pub mod mask_judger;
pub mod state_index;

use crate::encode::EncodedFeatureMap;
use crate::trace::{PipelineTrace, SpanDetail, Stage};
use esca_tensor::{Coord3, KernelOffsets, TileInfo};
use fifo::FifoGroup;
use mask_judger::MaskJudger;
use state_index::StateIndexGen;
use std::collections::VecDeque;
use std::ops::Range;

/// One match: an activation-buffer entry paired with its kernel tap,
/// tagged with the match group (active centre) it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchEntry {
    /// Kernel column (0..K²) — which FIFO carried it.
    pub column: usize,
    /// Kernel tap index (positional weight correspondence).
    pub tap: usize,
    /// Global activation-buffer entry index (into the line CSR).
    pub entry: usize,
    /// Match-group ordinal (centre id within the layer run).
    pub group: usize,
}

/// Descriptor of a match group: one active centre and its match count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchGroupDesc {
    /// Match-group ordinal.
    pub group: usize,
    /// The active centre site.
    pub centre: Coord3,
    /// The centre's own global activation-buffer entry (its index in
    /// the line CSR), where the group's output row is written.
    pub entry: usize,
    /// Total matches the group contains (≥ 1: the centre matches itself).
    pub total_matches: usize,
}

/// Outcome of one scan-stage cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOutcome {
    /// Pipeline fill at a line start consumed the cycle.
    LineFill,
    /// A site was scanned; `Some` when its centre was active.
    Scanned(Option<MatchGroupDesc>),
    /// The tile is fully scanned.
    Done,
}

/// Outcome of one fetch-stage cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// No job pending.
    Idle,
    /// Pushed `pushes` entries into the FIFO group this cycle.
    Progress {
        /// Entries pushed (≤ K², one per column bank).
        pushes: u32,
    },
    /// A job is pending but every remaining column's FIFO is full.
    Stalled,
}

/// Pending fetch jobs the scan stage may run ahead of the fetch stage —
/// the finite descriptor storage of the hardware. The main controller
/// stops scanning while this many jobs are pending, so the job storage is
/// sized once and never grows in the cycle loop.
pub const RUN_AHEAD_JOBS: usize = 4;

/// A pending fetch job: the address fragments of one active SRF.
#[derive(Debug, Clone, Copy)]
struct FetchJob {
    group: usize,
    centre: Coord3,
    /// Slot in [`TileSdmu::fragments`] and [`TileSdmu::live`].
    slot: usize,
    /// Entries still to push, over all columns.
    left: usize,
}

/// The paper's per-site datapath — the mask judger feeding the stepped
/// `(A, B)` accumulators — run beside the line register in debug builds
/// as an independent cross-check.
#[derive(Debug)]
struct StepModel {
    judger: MaskJudger,
    column_bits: Vec<(bool, bool)>,
    state_index: StateIndexGen,
}

/// Popcount of the register bits at positions `[0, n)`.
#[inline]
fn prefix_ones(reg: &[u64], n: usize) -> usize {
    let (full, rem) = (n / 64, n % 64);
    let mut ones: usize = reg[..full].iter().map(|w| w.count_ones() as usize).sum();
    if rem > 0 {
        ones += (reg[full] & ((1u64 << rem) - 1)).count_ones() as usize;
    }
    ones
}

/// The SDMU state machine. One instance serves every tile of a layer
/// run: [`TileSdmu::start_tile`] rewinds it, so its register, job and
/// FIFO storage is allocated once per layer, not once per tile.
#[derive(Debug)]
pub struct TileSdmu<'a> {
    enc: &'a EncodedFeatureMap,
    k: usize,
    r: i32,
    /// `(dx, dy)` of each kernel column.
    column_xy: Vec<(i32, i32)>,
    /// The `(0, 0)` column, whose register bits are the judge verdicts.
    centre_column: usize,
    /// The tile being scanned. Scan order: every site of the box
    /// `[tile.origin, hi]`, (x, y) line-major, z fastest; `pos` is the next
    /// site to scan (past `hi.x` when done).
    tile: TileInfo,
    hi: Coord3,
    pos: Coord3,
    fill_remaining: u64,
    pipeline_fill: u64,
    line_start: bool,
    /// The line register: per column, `reg_words` words holding the mask
    /// bits of z in `[z_base, hi.z + r]` (bit `z − z_base`).
    line_reg: Vec<u64>,
    reg_words: usize,
    /// `tile.origin.z − r − 1`: one site before the first window's
    /// leading edge.
    z_base: i32,
    /// Per column: global CSR index of the line's first entry at or past
    /// `z_base`.
    line_first: Vec<usize>,
    /// The `(x, y)` line the register holds, if any, in this tile.
    loaded: Option<(i32, i32)>,
    jobs: VecDeque<FetchJob>,
    /// Per job slot, per column: the remaining global entry range to
    /// push (slot-major, K² ranges per slot).
    fragments: Vec<Range<usize>>,
    /// Per job slot: bitset of the columns whose range is not yet
    /// exhausted (`live_words` words per slot).
    live: Vec<u64>,
    live_words: usize,
    free_slots: Vec<usize>,
    /// The K² match FIFOs.
    pub fifos: FifoGroup,
    next_group: usize,
    // counters
    act_reads: u64,
    scanned: u64,
    /// Present in debug builds only.
    check: Option<StepModel>,
}

impl<'a> TileSdmu<'a> {
    /// Creates the SDMU for one layer run over `enc`, sized for the
    /// encoding's tile shape; call [`TileSdmu::start_tile`] before
    /// scanning each tile.
    pub fn new(
        enc: &'a EncodedFeatureMap,
        kernel: u32,
        fifo_depth: usize,
        pipeline_fill: u64,
    ) -> Self {
        let offsets = KernelOffsets::new(kernel);
        let columns = offsets.columns();
        let grid = enc.tiles().grid();
        let r = offsets.radius();
        let reg_words = (grid.shape().l as usize + 2 * r as usize + 1).div_ceil(64);
        let live_words = columns.div_ceil(64);
        let check = cfg!(debug_assertions).then(|| StepModel {
            judger: MaskJudger::new(kernel),
            column_bits: vec![(false, false); columns],
            state_index: StateIndexGen::new(columns),
        });
        TileSdmu {
            enc,
            k: kernel as usize,
            r,
            column_xy: (0..columns).map(|c| offsets.column_offset(c)).collect(),
            centre_column: columns / 2,
            tile: TileInfo {
                index: 0,
                origin: Coord3::new(0, 0, 0),
                nnz: 0,
            },
            hi: Coord3::new(-1, -1, -1),
            pos: Coord3::new(0, 0, 0),
            fill_remaining: 0,
            pipeline_fill,
            line_start: true,
            line_reg: vec![0; columns * reg_words],
            reg_words,
            z_base: 0,
            line_first: vec![0; columns],
            loaded: None,
            jobs: VecDeque::with_capacity(RUN_AHEAD_JOBS),
            fragments: vec![0..0; RUN_AHEAD_JOBS * columns],
            live: vec![0; RUN_AHEAD_JOBS * live_words],
            live_words,
            free_slots: Vec::with_capacity(RUN_AHEAD_JOBS),
            fifos: FifoGroup::new(columns, fifo_depth),
            next_group: 0,
            act_reads: 0,
            scanned: 0,
            check,
        }
    }

    /// Rewinds the SDMU onto one active tile: scan position, job slots,
    /// FIFOs and counters start afresh.
    ///
    /// `first_group` is the match-group ordinal to assign to the tile's
    /// first active centre (groups number consecutively across tiles).
    pub fn start_tile(&mut self, tile: &TileInfo, first_group: usize) {
        self.tile = *tile;
        let grid = self.enc.tiles().grid();
        self.hi = tile.max_corner(grid.shape(), grid.extent());
        self.pos = tile.origin;
        self.z_base = tile.origin.z - self.r - 1;
        self.loaded = None;
        self.fill_remaining = 0;
        self.line_start = true;
        self.jobs.clear();
        self.free_slots.clear();
        self.free_slots
            .extend((0..self.fragments.len() / self.column_xy.len()).rev());
        self.fifos.reset();
        self.next_group = first_group;
        self.act_reads = 0;
        self.scanned = 0;
    }

    /// The tile the SDMU was last started on.
    pub(crate) fn tile(&self) -> &TileInfo {
        &self.tile
    }

    /// The encoded feature map the SDMU matches over.
    pub(crate) fn encoded(&self) -> &'a EncodedFeatureMap {
        self.enc
    }

    /// Whether every site of the tile has been scanned.
    pub fn scan_done(&self) -> bool {
        self.pos.x > self.hi.x
    }

    /// Pending fetch jobs.
    pub fn jobs_pending(&self) -> usize {
        self.jobs.len()
    }

    /// Index-mask bits read so far: the K² column bits of every scanned
    /// z-slice.
    pub fn mask_bits_read(&self) -> u64 {
        self.scanned * self.column_xy.len() as u64
    }

    /// Activation-buffer entry reads so far.
    pub fn act_reads(&self) -> u64 {
        self.act_reads
    }

    /// Sites scanned so far.
    pub fn scanned_sites(&self) -> u64 {
        self.scanned
    }

    /// The next group ordinal that would be assigned.
    pub fn next_group(&self) -> usize {
        self.next_group
    }

    /// One scan-stage cycle: read masks, judge, generate state index, and
    /// (for active centres) enqueue the fetch job.
    pub fn scan_step(&mut self, cycle: u64, trace: &mut PipelineTrace) -> ScanOutcome {
        if self.scan_done() {
            return ScanOutcome::Done;
        }
        let centre = self.pos;

        // New (x, y) line: load the line register (the hardware does this
        // during the pipeline-fill cycles).
        if self.line_start {
            if self.fill_remaining == 0 && self.pipeline_fill > 0 {
                self.fill_remaining = self.pipeline_fill;
                self.load_line(centre);
                // fall through to consume the first fill cycle below
            } else if self.pipeline_fill == 0 {
                self.load_line(centre);
                self.line_start = false;
            }
            if self.fill_remaining > 0 {
                self.fill_remaining -= 1;
                trace.record(
                    cycle,
                    Stage::ReadMasks,
                    SpanDetail::FillLine {
                        x: centre.x,
                        y: centre.y,
                    },
                );
                if self.fill_remaining == 0 {
                    self.line_start = false;
                }
                return ScanOutcome::LineFill;
            }
        }

        // Read masks + judge: the centre column's register bit at z.
        let p = (centre.z - self.z_base) as usize;
        let bit = self.centre_column * self.reg_words * 64 + p;
        let centre_active = (self.line_reg[bit / 64] >> (bit % 64)) & 1 == 1;
        self.scanned += 1;
        if let Some(check) = &mut self.check {
            let judged = check
                .judger
                .judge(self.enc.mask(), centre, &mut check.column_bits);
            assert_eq!(judged, centre_active, "line register judge at {centre}");
            check.state_index.step(&check.column_bits);
        }
        let srf = SpanDetail::Srf(centre);
        trace.record(cycle, Stage::ReadMasks, srf);
        trace.record(cycle, Stage::JudgeState, srf);

        let outcome = if centre_active {
            trace.record(cycle, Stage::GenStateIndex, srf);
            ScanOutcome::Scanned(Some(self.enqueue_job(centre, p)))
        } else {
            ScanOutcome::Scanned(None)
        };

        // Advance (z fastest, then y, then x); a wrapped z starts a line.
        self.pos.z += 1;
        if self.pos.z > self.hi.z {
            self.pos.z = self.tile.origin.z;
            self.pos.y += 1;
            if self.pos.y > self.hi.y {
                self.pos.y = self.tile.origin.y;
                self.pos.x += 1;
            }
            if !self.scan_done() {
                self.line_start = true;
            }
        }
        outcome
    }

    /// Generates the state index of the active centre at register
    /// position `p`: per column, the fragment `(A−B, A]` from two register
    /// popcounts, queued as one fetch job.
    fn enqueue_job(&mut self, centre: Coord3, p: usize) -> MatchGroupDesc {
        let columns = self.column_xy.len();
        let words = self.reg_words;
        let r = self.r as usize;
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            // Only a caller that ignores `RUN_AHEAD_JOBS` gets here.
            self.fragments.resize(self.fragments.len() + columns, 0..0);
            self.live.resize(self.live.len() + self.live_words, 0);
            self.fragments.len() / columns - 1
        });
        let fragments = &mut self.fragments[slot * columns..(slot + 1) * columns];
        let live = &mut self.live[slot * self.live_words..(slot + 1) * self.live_words];
        live.fill(0);
        let mut total = 0usize;
        for (col, fragment) in fragments.iter_mut().enumerate() {
            let reg = &self.line_reg[col * words..(col + 1) * words];
            let first = self.line_first[col];
            // Window [z − r, z + r] is register positions [p − r, p + r].
            let start = first + prefix_ones(reg, p - r);
            let end = first + prefix_ones(reg, p + r + 1);
            if end > start {
                live[col / 64] |= 1 << (col % 64);
                total += end - start;
            }
            *fragment = start..end;
        }
        // The centre's own entry: the line's entries before z.
        let c = self.centre_column;
        let centre_reg = &self.line_reg[c * words..(c + 1) * words];
        let entry = self.line_first[c] + prefix_ones(centre_reg, p);
        if let Some(check) = &self.check {
            let lines = self.enc.lines();
            assert_eq!(
                entry,
                lines.first_at_or_past(centre.x, centre.y, centre.z),
                "centre entry at {centre}"
            );
            let r = self.r;
            for (col, fragment) in fragments.iter().enumerate() {
                let (dx, dy) = self.column_xy[col];
                let (x, y) = (centre.x + dx, centre.y + dy);
                let w = lines.window(x, y, centre.z - r, centre.z + r + 1);
                assert_eq!(
                    *fragment,
                    w.global_range(),
                    "register fragment vs CSR window at {centre} col {col}"
                );
                // Hardware/functional cross-check: the stepped (A, B)
                // accumulator addresses exactly the same fragment.
                let state = check.state_index.column(col);
                assert_eq!(
                    state.b(),
                    fragment.len(),
                    "state index B at {centre} col {col}"
                );
                assert_eq!(
                    state.a(),
                    fragment.end - lines.line_range(x, y).start,
                    "state index A at {centre} col {col}"
                );
            }
        }
        let group = self.next_group;
        self.jobs.push_back(FetchJob {
            group,
            centre,
            slot,
            left: total,
        });
        self.next_group += 1;
        MatchGroupDesc {
            group,
            centre,
            entry,
            total_matches: total,
        }
    }

    /// Loads the line register for the line whose first site is `first`.
    /// The line after `(x, y − 1)` shares K(K − 1) column lines with it,
    /// so each `dx` block of columns shifts down by one `dy` and only the
    /// `dy = +r` column is read from the mask.
    fn load_line(&mut self, first: Coord3) {
        let (k, words) = (self.k, self.reg_words);
        let len = (self.hi.z - self.z_base + self.r + 1) as usize;
        let (mask, lines) = (self.enc.mask(), self.enc.lines());
        let shift = self.loaded == Some((first.x, first.y - 1));
        for block in (0..k).map(|bx| bx * k..(bx + 1) * k) {
            let read = if shift {
                self.line_first
                    .copy_within(block.start + 1..block.end, block.start);
                self.line_reg.copy_within(
                    (block.start + 1) * words..block.end * words,
                    block.start * words,
                );
                block.end - 1..block.end
            } else {
                block
            };
            for col in read {
                let (dx, dy) = self.column_xy[col];
                let (x, y) = (first.x + dx, first.y + dy);
                let reg = &mut self.line_reg[col * words..(col + 1) * words];
                mask.line_bits(x, y, self.z_base, len, reg);
                self.line_first[col] = lines.first_at_or_past(x, y, self.z_base);
            }
        }
        self.loaded = Some((first.x, first.y));
        if let Some(check) = &mut self.check {
            // Before the first step at z = first.z, the accumulators
            // reflect the window trailing edge at z + r − 1 and leading
            // edge past z − r − 2.
            let r = self.r;
            check.state_index.reset();
            for (col, &(dx, dy)) in self.column_xy.iter().enumerate() {
                let (x, y) = (first.x + dx, first.y + dy);
                let a = lines.prefix_count(x, y, first.z + r - 1);
                let a_lead = lines.prefix_count(x, y, first.z - r - 2);
                check.state_index.preload(col, a, a_lead);
            }
        }
    }

    /// One fetch-stage cycle: each column bank pushes at most one entry of
    /// the front job into its FIFO.
    pub fn fetch_step(&mut self, cycle: u64, trace: &mut PipelineTrace) -> FetchOutcome {
        let Some(job) = self.jobs.front_mut() else {
            return FetchOutcome::Idle;
        };
        let columns = self.column_xy.len();
        let fragments = &mut self.fragments[job.slot * columns..(job.slot + 1) * columns];
        let live = &mut self.live[job.slot * self.live_words..(job.slot + 1) * self.live_words];
        let zs = self.enc.lines().zs();
        let mut pushes = 0u32;
        let mut blocked = false;
        for (wi, word) in live.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let col = wi * 64 + b;
                if !self.fifos.has_room(col) {
                    blocked = true;
                    continue;
                }
                let range = &mut fragments[col];
                let entry = range.start;
                range.start += 1;
                if range.start == range.end {
                    *word &= !(1 << b);
                }
                let dz = zs[entry] - job.centre.z;
                assert!(
                    dz.abs() <= self.r,
                    "window entries lie within the kernel support"
                );
                self.fifos.push(
                    col,
                    MatchEntry {
                        column: col,
                        tap: col * self.k + (dz + self.r) as usize,
                        entry,
                        group: job.group,
                    },
                    cycle,
                );
                pushes += 1;
            }
        }
        self.act_reads += pushes as u64;
        job.left -= pushes as usize;
        if pushes > 0 {
            trace.record(cycle, Stage::FetchActivations, SpanDetail::Group(job.group));
        }
        if job.left == 0 {
            self.free_slots.push(job.slot);
            self.jobs.pop_front();
            return FetchOutcome::Progress { pushes };
        }
        if pushes == 0 && blocked {
            return FetchOutcome::Stalled;
        }
        FetchOutcome::Progress { pushes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esca_tensor::{Extent3, SparseTensor, TileShape, Q16};

    fn encoded(coords: &[(i32, i32, i32)]) -> EncodedFeatureMap {
        let mut t = SparseTensor::<Q16>::new(Extent3::cube(8), 1);
        for (i, &(x, y, z)) in coords.iter().enumerate() {
            t.insert(Coord3::new(x, y, z), &[Q16(i as i16 + 1)])
                .unwrap();
        }
        t.canonicalize();
        EncodedFeatureMap::encode(&t, TileShape::cube(4)).unwrap()
    }

    fn run_tile(
        enc: &EncodedFeatureMap,
        tile_idx: usize,
    ) -> (Vec<MatchGroupDesc>, Vec<MatchEntry>) {
        let info = enc
            .tiles()
            .active()
            .iter()
            .find(|t| t.index == tile_idx)
            .copied()
            .expect("tile is active");
        drive(&mut TileSdmu::new(enc, 3, 64, 2), &info)
    }

    /// Runs one tile to completion on `sdmu` (groups from 0).
    fn drive(sdmu: &mut TileSdmu<'_>, info: &TileInfo) -> (Vec<MatchGroupDesc>, Vec<MatchEntry>) {
        sdmu.start_tile(info, 0);
        let mut trace = PipelineTrace::new(false);
        let mut descs = Vec::new();
        let mut cycle = 0u64;
        // Scan everything first, then drain fetches (FIFOs are deep here).
        loop {
            match sdmu.scan_step(cycle, &mut trace) {
                ScanOutcome::Done => break,
                ScanOutcome::Scanned(Some(d)) => descs.push(d),
                _ => {}
            }
            // Interleave fetching so deep jobs drain.
            let _ = sdmu.fetch_step(cycle, &mut trace);
            cycle += 1;
        }
        while sdmu.jobs_pending() > 0 {
            let _ = sdmu.fetch_step(cycle, &mut trace);
            cycle += 1;
        }
        let mut matches = Vec::new();
        for d in &descs {
            while let Some(m) = sdmu.fifos.pop_for_group(d.group, cycle) {
                matches.push(m);
            }
        }
        assert!(sdmu.fifos.is_empty());
        (descs, matches)
    }

    #[test]
    fn one_sdmu_serves_every_tile_like_a_fresh_one() {
        let coords = [
            (0, 0, 0),
            (3, 3, 3),
            (4, 3, 3),
            (3, 4, 4),
            (3, 3, 4),
            (7, 7, 7),
            (4, 4, 4),
            (5, 2, 6),
        ];
        let enc = encoded(&coords);
        let mut shared = TileSdmu::new(&enc, 3, 64, 2);
        for info in enc.tiles().active() {
            let fresh = drive(&mut TileSdmu::new(&enc, 3, 64, 2), info);
            assert_eq!(drive(&mut shared, info), fresh, "tile {}", info.index);
        }
    }

    #[test]
    fn isolated_centre_matches_itself_only() {
        let enc = encoded(&[(1, 1, 1)]);
        let tile_idx = enc.tiles().active()[0].index;
        let (descs, matches) = run_tile(&enc, tile_idx);
        assert_eq!(descs.len(), 1);
        assert_eq!(descs[0].total_matches, 1);
        assert_eq!(matches.len(), 1);
        // Centre column of a 3³ kernel is column 4, centre tap 13.
        assert_eq!(matches[0].column, 4);
        assert_eq!(matches[0].tap, 13);
    }

    #[test]
    fn adjacent_pair_produces_two_groups_of_two() {
        let enc = encoded(&[(1, 1, 1), (1, 1, 2)]);
        let tile_idx = enc.tiles().active()[0].index;
        let (descs, matches) = run_tile(&enc, tile_idx);
        assert_eq!(descs.len(), 2);
        assert!(descs.iter().all(|d| d.total_matches == 2));
        assert_eq!(matches.len(), 4);
        // Every match's tap corresponds to the actual geometric offset.
        let offsets = KernelOffsets::new(3);
        for m in &matches {
            let d = &descs[m.group];
            let q = Coord3::new(1, 1, 1 + m.entry as i32); // entries: z=1, z=2 in line order
            let off = q - d.centre;
            assert_eq!(offsets.tap_index(off), Some(m.tap));
        }
    }

    #[test]
    fn matches_equal_golden_match_group() {
        // Random-ish cluster crossing a tile border (halo case).
        let coords = [(3, 3, 3), (4, 3, 3), (3, 4, 3), (3, 3, 4), (2, 3, 3)];
        let enc = encoded(&coords);
        let mut total_matches = 0;
        let mut total_groups = 0;
        for info in enc.tiles().active() {
            let (descs, matches) = run_tile(&enc, info.index);
            total_groups += descs.len();
            total_matches += matches.len();
        }
        assert_eq!(total_groups, coords.len());
        // Golden count via the reference op counter.
        let mut t = SparseTensor::<f32>::new(Extent3::cube(8), 1);
        for &(x, y, z) in &coords {
            t.insert(Coord3::new(x, y, z), &[1.0]).unwrap();
        }
        let golden = esca_sscn::ops::count_matches(&t, 3);
        assert_eq!(total_matches as u64, golden);
    }

    #[test]
    fn fifo_backpressure_stalls_fetch() {
        // A very dense line with tiny FIFOs must report a stall.
        let coords: Vec<(i32, i32, i32)> = (0..4).map(|z| (1, 1, z)).collect();
        let mut t = SparseTensor::<Q16>::new(Extent3::cube(8), 1);
        for &(x, y, z) in &coords {
            t.insert(Coord3::new(x, y, z), &[Q16(1)]).unwrap();
        }
        t.canonicalize();
        let enc = EncodedFeatureMap::encode(&t, TileShape::cube(4)).unwrap();
        let info = enc.tiles().active()[0];
        let mut sdmu = TileSdmu::new(&enc, 3, 1, 0);
        sdmu.start_tile(&info, 0);
        let mut trace = PipelineTrace::new(false);
        let mut stalled = false;
        let mut cycle = 0;
        while !sdmu.scan_done() {
            let _ = sdmu.scan_step(cycle, &mut trace);
            cycle += 1;
        }
        // Drain fetch without ever popping: must hit backpressure.
        for _ in 0..100 {
            if sdmu.fetch_step(cycle, &mut trace) == FetchOutcome::Stalled {
                stalled = true;
                break;
            }
            cycle += 1;
        }
        assert!(stalled, "expected FIFO backpressure with depth-1 FIFOs");
    }

    #[test]
    fn scan_counts_sites_and_mask_bits() {
        let enc = encoded(&[(0, 0, 0)]);
        let info = enc.tiles().active()[0];
        let mut sdmu = TileSdmu::new(&enc, 3, 8, 2);
        sdmu.start_tile(&info, 0);
        let mut trace = PipelineTrace::new(false);
        let mut cycle = 0;
        loop {
            if sdmu.scan_step(cycle, &mut trace) == ScanOutcome::Done {
                break;
            }
            let _ = sdmu.fetch_step(cycle, &mut trace);
            cycle += 1;
        }
        // 4³ tile = 64 sites scanned, 9 bits per site.
        assert_eq!(sdmu.scanned_sites(), 64);
        assert_eq!(sdmu.mask_bits_read(), 64 * 9);
    }
}
