//! The Computing Core (§III-D, Fig. 8): a computing array of `m+1 = 16`
//! computing units, each covering `n+1 = 16` input channels, plus the
//! accumulator.
//!
//! Each cycle, the array consumes one *match* (the activations of up to 16
//! ICs broadcast to all CUs, with the positionally-corresponding weights)
//! and produces 16 OC partial sums. Layers wider than the array iterate
//! the IC/OC group loops of Fig. 8(a); the accumulator collects the
//! partial sums of a match group and releases the SRF's output at group
//! end.
//!
//! The arithmetic is **bit-exact** with the golden model: i64 accumulation
//! and the shared [`esca_tensor::requantize_i64`] rounding.

use crate::sdmu::MatchEntry;
use crate::stats::CycleStats;
use crate::telemetry::LayerTelemetry;
use crate::trace::{PipelineTrace, SpanDetail, Stage};
use esca_sscn::quant::QuantizedWeights;
use esca_tensor::{requantize_i64, Q16, Q8};

/// The computing core for one layer run.
#[derive(Debug)]
pub struct ComputingCore<'w> {
    weights: &'w QuantizedWeights,
    /// Array cycles per match: `⌈IC/16⌉ × ⌈OC/16⌉`.
    match_cycles: u64,
    /// MAC lanes of the array (`ic_parallel × oc_parallel`).
    lanes: u64,
    /// `IC × OC`: the MACs (and weight reads) one match performs.
    macs: u64,
    /// Drain cycles per group: one per OC group, `⌈OC/16⌉`.
    drain_cycles: u64,
    relu: bool,
    /// Remaining array cycles for the match in flight.
    busy: u64,
    /// Accumulators of the match group in flight (one i64 per OC).
    acc: Vec<i64>,
    /// The requantized output of the last closed group.
    out: Vec<Q16>,
    current_group: Option<usize>,
}

impl<'w> ComputingCore<'w> {
    /// Creates the core bound to one layer's weights.
    pub fn new(
        weights: &'w QuantizedWeights,
        ic_parallel: usize,
        oc_parallel: usize,
        relu: bool,
    ) -> Self {
        ComputingCore {
            weights,
            match_cycles: (weights.in_ch().div_ceil(ic_parallel)
                * weights.out_ch().div_ceil(oc_parallel)) as u64,
            lanes: (ic_parallel * oc_parallel) as u64,
            macs: (weights.in_ch() * weights.out_ch()) as u64,
            drain_cycles: weights.out_ch().div_ceil(oc_parallel) as u64,
            relu,
            busy: 0,
            acc: vec![0; weights.out_ch()],
            out: vec![Q16(0); weights.out_ch()],
            current_group: None,
        }
    }

    /// Whether the array can accept a new match this cycle.
    #[inline]
    pub fn is_free(&self) -> bool {
        self.busy == 0
    }

    /// The match group currently accumulating, if any.
    #[inline]
    pub fn current_group(&self) -> Option<usize> {
        self.current_group
    }

    /// Array cycles one match occupies: `⌈IC/16⌉ × ⌈OC/16⌉`.
    #[inline]
    pub fn match_cycles(&self) -> u64 {
        self.match_cycles
    }

    /// Begins a match group (a new active centre). The bias is loaded into
    /// the accumulators, exactly as the golden model does.
    ///
    /// # Panics
    ///
    /// Panics if a previous group is still open (controller bug).
    pub fn open_group(&mut self, group: usize) {
        assert!(
            self.current_group.is_none(),
            "computing core: previous group still open"
        );
        self.current_group = Some(group);
        self.acc.copy_from_slice(self.weights.bias_acc());
    }

    /// Dispatches one match into the array: performs the actual MACs
    /// (functionally, all group iterations at once) and sets the busy
    /// counter to the group-iteration cycle count.
    ///
    /// `features` is the matched activation's IC vector (from the
    /// activation buffer at `m.entry`).
    ///
    /// # Panics
    ///
    /// Panics when the array is busy or the match belongs to a different
    /// group than the open one (controller bug).
    pub fn dispatch(
        &mut self,
        m: MatchEntry,
        features: &[Q16],
        cycle: u64,
        stats: &mut CycleStats,
        tele: &mut LayerTelemetry,
        trace: &mut PipelineTrace,
    ) {
        assert!(self.is_free(), "computing core: dispatch while busy");
        assert_eq!(
            self.current_group,
            Some(m.group),
            "computing core: match from a foreign group"
        );
        debug_assert_eq!(features.len(), self.weights.in_ch());
        let panel = self.weights.tap_slice(m.tap);
        let out_ch = self.weights.out_ch();
        let (blocks, tail) = self.acc.as_chunks_mut::<OC_BLOCK>();
        for (block, acc) in blocks.iter_mut().enumerate() {
            mac_block(acc, features, panel, out_ch, block * OC_BLOCK);
        }
        if !tail.is_empty() {
            mac_tail(tail, features, panel, out_ch, out_ch - tail.len());
        }
        // A zero activation adds zero above; the histogram counts only the
        // ICs that carried data (exactly as the golden model skips them).
        let nonzero_ics = features.iter().filter(|a| a.0 != 0).count() as u64;
        self.busy = self.match_cycles;
        stats.matches += 1;
        stats.effective_macs += self.macs;
        stats.lane_slots += self.busy * self.lanes;
        stats.weight_reads += self.macs;
        tele.match_effective_macs
            .observe(nonzero_ics * self.weights.out_ch() as u64);
        trace.record(
            cycle,
            Stage::Compute,
            SpanDetail::Match {
                group: m.group,
                tap: m.tap,
            },
        );
    }

    /// Advances the array by one cycle; returns true if it was busy.
    pub fn tick(&mut self) -> bool {
        if self.busy > 0 {
            self.busy -= 1;
            true
        } else {
            false
        }
    }

    /// Closes the open match group: requantizes the accumulators into the
    /// output activation vector and returns it together with the drain
    /// cycle count (one cycle per OC group through the requantize/write
    /// port). The vector is the core's output register, valid until the
    /// next close.
    ///
    /// # Panics
    ///
    /// Panics if no group is open or the array is still busy.
    pub fn close_group(
        &mut self,
        cycle: u64,
        stats: &mut CycleStats,
        trace: &mut PipelineTrace,
    ) -> (&[Q16], u64) {
        assert!(self.current_group.is_some(), "no group to close");
        assert!(self.is_free(), "closing a group while the array is busy");
        let q = self.weights.quant();
        for (dst, &v) in self.out.iter_mut().zip(&self.acc) {
            let v = if self.relu { v.max(0) } else { v };
            *dst = requantize_i64(v, q.act, q.weight, q.out);
        }
        let drain = self.drain_cycles;
        stats.out_writes += self.weights.out_ch() as u64;
        stats.match_groups += 1;
        trace.record(
            cycle,
            Stage::Drain,
            SpanDetail::Group(self.current_group.expect("checked above")),
        );
        self.current_group = None;
        (&self.out, drain)
    }
}

/// Output channels one blocked MAC pass keeps in registers: the width
/// of the computing array's OC dimension.
const OC_BLOCK: usize = 16;

/// Input channels summed in i32 before widening into the i64
/// accumulators. Each product is at most 2¹⁵ · 2⁷ = 2²² in magnitude, so
/// 256 of them stay below 2³⁰ and the i32 partial sums are exact.
const IC_CHUNK: usize = 256;

/// `acc[j] += Σ_ic features[ic] · panel[ic][oc0 + j]` for one full block
/// of [`OC_BLOCK`] output channels. `panel` is one tap's `in × out`
/// row-major weight panel. No branch on zero activations: a zero adds
/// zero, and the sum is the same integer either way.
#[inline]
fn mac_block(acc: &mut [i64; OC_BLOCK], features: &[Q16], panel: &[Q8], out_ch: usize, oc0: usize) {
    for (c, chunk) in features.chunks(IC_CHUNK).enumerate() {
        let mut part = [0i32; OC_BLOCK];
        mac_rows(&mut part, chunk, panel, c * IC_CHUNK * out_ch + oc0, out_ch);
        for (dst, p) in acc.iter_mut().zip(part) {
            *dst += p as i64;
        }
    }
}

/// The i32 inner loop of [`mac_block`]: one weight row per activation,
/// starting at `panel[base]` and `out_ch` apart. Kept out of line: inlined
/// into the block loop, the autovectorizer splits the 16-lane register
/// tile into four 128-bit quarters, which runs measurably slower than two
/// 256-bit halves.
#[inline(never)]
fn mac_rows(
    part: &mut [i32; OC_BLOCK],
    chunk: &[Q16],
    panel: &[Q8],
    mut base: usize,
    out_ch: usize,
) {
    for &a in chunk {
        let row: &[Q8; OC_BLOCK] = panel[base..base + OC_BLOCK]
            .try_into()
            .expect("a full OC block");
        let a = a.0 as i32;
        for (p, w) in part.iter_mut().zip(row) {
            *p += a * w.0 as i32;
        }
        base += out_ch;
    }
}

/// [`mac_block`] for the last, partial block when the layer's OC count is
/// not a multiple of [`OC_BLOCK`].
fn mac_tail(acc: &mut [i64], features: &[Q16], panel: &[Q8], out_ch: usize, oc0: usize) {
    let width = acc.len();
    for (c, chunk) in features.chunks(IC_CHUNK).enumerate() {
        let mut part = [0i32; OC_BLOCK];
        let mut base = c * IC_CHUNK * out_ch + oc0;
        for &a in chunk {
            let a = a.0 as i32;
            for (p, w) in part.iter_mut().zip(&panel[base..base + width]) {
                *p += a * w.0 as i32;
            }
            base += out_ch;
        }
        for (dst, p) in acc.iter_mut().zip(part) {
            *dst += p as i64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esca_sscn::quant::{LayerQuant, QuantizedWeights};
    use esca_sscn::weights::ConvWeights;

    fn qweights(in_ch: usize, out_ch: usize) -> QuantizedWeights {
        let mut w = ConvWeights::zeros(3, in_ch, out_ch);
        // Centre tap = identity-ish: w[13][ic][oc] = 1 if ic == oc % in_ch.
        for oc in 0..out_ch {
            w.set_w(13, oc % in_ch, oc, 1.0);
        }
        w.bias_mut().iter_mut().for_each(|b| *b = 0.5);
        QuantizedWeights::from_float(&w, LayerQuant::uniform(4, 2).unwrap())
    }

    fn mk_match(group: usize, tap: usize) -> MatchEntry {
        MatchEntry {
            column: 4,
            tap,
            entry: 0,
            group,
        }
    }

    #[test]
    fn single_match_group_computes_bias_plus_product() {
        let qw = qweights(2, 2);
        let mut cc = ComputingCore::new(&qw, 16, 16, false);
        let mut stats = CycleStats::default();
        let mut trace = PipelineTrace::new(false);
        let mut tele = LayerTelemetry::default();
        cc.open_group(0);
        // features: [1.0, -0.5] at 4 frac bits = [16, -8]
        cc.dispatch(
            mk_match(0, 13),
            &[Q16(16), Q16(-8)],
            0,
            &mut stats,
            &mut tele,
            &mut trace,
        );
        assert!(!cc.is_free());
        assert!(cc.tick());
        assert!(cc.is_free());
        let (out, drain) = cc.close_group(1, &mut stats, &mut trace);
        // acc frac = 6 bits; out frac = 4 => shift 2.
        // oc0: bias 0.5 (32 in acc scale) + 16 × 4 (w=1.0 at 2 frac) = 96 → 24 at out scale (1.5).
        assert_eq!(out[0], Q16(24));
        // oc1: 32 + (-8 × 4) = 0 → 0.
        assert_eq!(out[1], Q16(0));
        assert_eq!(drain, 1);
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.match_groups, 1);
        assert_eq!(stats.effective_macs, 4);
    }

    #[test]
    fn relu_clamps_at_close() {
        let qw = qweights(1, 1);
        let mut cc = ComputingCore::new(&qw, 16, 16, true);
        let mut stats = CycleStats::default();
        let mut trace = PipelineTrace::new(false);
        let mut tele = LayerTelemetry::default();
        cc.open_group(0);
        // -4.0 at 4 frac bits = -64; weight 1.0; bias 0.5 → acc = 32 - 256 < 0.
        cc.dispatch(
            mk_match(0, 13),
            &[Q16(-64)],
            0,
            &mut stats,
            &mut tele,
            &mut trace,
        );
        cc.tick();
        let (out, _) = cc.close_group(1, &mut stats, &mut trace);
        assert_eq!(out[0], Q16(0));
    }

    #[test]
    fn wide_layers_take_multiple_group_iterations() {
        let qw = qweights(32, 48);
        let cc = ComputingCore::new(&qw, 16, 16, false);
        assert_eq!(cc.match_cycles(), 2 * 3);
    }

    #[test]
    fn lane_slot_accounting_reflects_underfill() {
        // IC = 1 underfills the 16-lane CUs: effective MACs ≪ lane slots.
        let qw = qweights(1, 16);
        let mut cc = ComputingCore::new(&qw, 16, 16, false);
        let mut stats = CycleStats::default();
        let mut trace = PipelineTrace::new(false);
        let mut tele = LayerTelemetry::default();
        cc.open_group(0);
        cc.dispatch(
            mk_match(0, 13),
            &[Q16(16)],
            0,
            &mut stats,
            &mut tele,
            &mut trace,
        );
        assert_eq!(stats.effective_macs, 16);
        assert_eq!(stats.lane_slots, 256);
        cc.tick();
        let _ = cc.close_group(1, &mut stats, &mut trace);
    }

    #[test]
    #[should_panic(expected = "foreign group")]
    fn cross_group_dispatch_panics() {
        let qw = qweights(1, 1);
        let mut cc = ComputingCore::new(&qw, 16, 16, false);
        let mut stats = CycleStats::default();
        let mut trace = PipelineTrace::new(false);
        let mut tele = LayerTelemetry::default();
        cc.open_group(0);
        cc.dispatch(
            mk_match(1, 13),
            &[Q16(1)],
            0,
            &mut stats,
            &mut tele,
            &mut trace,
        );
    }

    #[test]
    fn matches_accumulate_across_dispatches() {
        let qw = qweights(1, 1);
        let mut cc = ComputingCore::new(&qw, 16, 16, false);
        let mut stats = CycleStats::default();
        let mut trace = PipelineTrace::new(false);
        let mut tele = LayerTelemetry::default();
        cc.open_group(7);
        cc.dispatch(
            mk_match(7, 13),
            &[Q16(16)],
            0,
            &mut stats,
            &mut tele,
            &mut trace,
        );
        cc.tick();
        cc.dispatch(
            mk_match(7, 13),
            &[Q16(16)],
            1,
            &mut stats,
            &mut tele,
            &mut trace,
        );
        cc.tick();
        let (out, _) = cc.close_group(2, &mut stats, &mut trace);
        // bias 0.5 + 1.0 + 1.0 = 2.5 → 40 at 4 frac bits.
        assert_eq!(out[0], Q16(40));
    }
}
