//! Accelerator-layer replay shared by the traced runs: one Sub-Conv layer
//! timed from outside as three public calls — `ZeroRemovingUnit::run`,
//! `EncodedFeatureMap::encode` and `Esca::run_layer_with` — plus the
//! per-layer metrics derived from the spans and the layer's `CycleStats`.

use crate::measure::ratio;
use crate::report::RunResult;
use crate::spans::Tracer;
use esca::accelerator::LayerOpts;
use esca::encode::EncodedFeatureMap;
use esca::zero_removing::ZeroRemovingUnit;
use esca::{CycleStats, Esca};
use esca_sscn::quant::QuantizedWeights;
use esca_tensor::{SparseTensor, Q16};

/// Span names of the accelerator replay.
pub const ZERO_REMOVING: &str = "zero_removing";
/// Encode span.
pub const ENCODE: &str = "encode";
/// Whole-layer span (`Esca::run_layer_with`, which repeats the two above
/// internally).
pub const ACCELERATOR: &str = "accelerator";

/// Sums over every replayed accelerator layer.
#[derive(Debug, Default)]
pub struct LayerAccum {
    layers: u64,
    stats: CycleStats,
    drain_cycles: u64,
    stall_fifo_full_cycles: u64,
    compression_sum: f64,
}

impl LayerAccum {
    /// Replays one layer under `tracer`: the two pre-passes as standalone
    /// calls (so their host time can be split out), then the layer itself.
    ///
    /// # Errors
    ///
    /// The accelerator's error, as text.
    pub fn run_layer(
        &mut self,
        tracer: &mut Tracer,
        esca: &Esca,
        x: &SparseTensor<Q16>,
        w: &QuantizedWeights,
        relu: bool,
        opts: LayerOpts,
    ) -> Result<SparseTensor<Q16>, String> {
        let tile = esca.config().tile;
        let zr = tracer.span(ZERO_REMOVING, |_| ZeroRemovingUnit::default().run(x, tile));
        std::hint::black_box(&zr);
        let enc = tracer
            .span(ENCODE, |_| EncodedFeatureMap::encode(x, tile))
            .map_err(|e| e.to_string())?;
        self.compression_sum += enc.compression_vs_dense();
        let run = tracer
            .span(ACCELERATOR, |_| esca.run_layer_with(x, w, relu, opts))
            .map_err(|e| e.to_string())?;
        self.layers += 1;
        self.stats += &run.stats;
        self.drain_cycles += run.telemetry.drain_cycles;
        self.stall_fifo_full_cycles += run.telemetry.stall_fifo_full_cycles;
        Ok(run.output)
    }

    /// Simulated cycles of every replayed layer.
    pub fn stats(&self) -> &CycleStats {
        &self.stats
    }

    /// Writes the accelerator-layer metrics (`zero_removing.*`,
    /// `encode.*`, `accelerator.*`, `sdmu.*`, `compute.*`, `buffers.*`).
    ///
    /// # Errors
    ///
    /// When the cycle breakdown does not sum to the total.
    pub fn write(
        &self,
        tracer: &Tracer,
        clock_mhz: f64,
        out: &mut RunResult,
    ) -> Result<(), String> {
        if self.layers == 0 {
            return Ok(());
        }
        let n = self.layers as f64;
        let s = &self.stats;
        let zr_ns = tracer.total_ns(ZERO_REMOVING) as f64;
        let enc_ns = tracer.total_ns(ENCODE) as f64;
        let acc_ns = tracer.total_ns(ACCELERATOR) as f64;
        out.set("zero_removing.ms_per_layer", zr_ns / n / 1e6);
        out.set(
            "zero_removing.active_tile_frac",
            ratio(s.active_tiles as f64, s.total_tiles as f64),
        );
        out.set("encode.ms_per_layer", enc_ns / n / 1e6);
        out.set("encode.compression_vs_dense", self.compression_sum / n);
        out.set("accelerator.ms_per_layer", acc_ns / n / 1e6);
        out.set(
            "accelerator.tile_loop_ms_per_layer",
            (acc_ns - zr_ns - enc_ns).max(0.0) / n / 1e6,
        );
        out.set(
            "accelerator.ns_per_pipeline_cycle",
            ratio(acc_ns, s.pipeline_cycles as f64),
        );
        out.set("accelerator.gops", s.effective_gops(clock_mhz));
        out.set("accelerator.array_utilization", s.compute_occupancy());
        let parts = cycle_breakdown(s);
        let sum: u64 = parts.iter().map(|(_, c)| c).sum();
        if sum != s.total_cycles() {
            return Err(format!(
                "cycle breakdown sums to {sum}, total_cycles is {}",
                s.total_cycles()
            ));
        }
        for (name, cycles) in parts {
            out.set(name, cycles as f64 / n);
        }
        out.set("accelerator.cycles.total", s.total_cycles() as f64 / n);
        out.set("sdmu.scanned_sites", s.scanned_sites as f64 / n);
        out.set("sdmu.mask_bits_read", s.mask_bits_read as f64 / n);
        out.set("sdmu.fifo_pushes", s.fifo_pushes as f64 / n);
        out.set(
            "sdmu.stall_fifo_full_cycles",
            self.stall_fifo_full_cycles as f64 / n,
        );
        out.set("sdmu.peak_fifo_occupancy", s.peak_fifo_occupancy as f64);
        out.set(
            "sdmu.matches_per_scanned_site",
            ratio(s.matches as f64, s.scanned_sites as f64),
        );
        out.set("compute.effective_macs", s.effective_macs as f64 / n);
        out.set("compute.lane_slot_utilization", s.array_utilization());
        out.set("compute.drain_cycles", self.drain_cycles as f64 / n);
        out.set("compute.mean_match_group", s.mean_match_group());
        out.set("buffers.dram_bytes_in", s.dram_bytes_in as f64 / n);
        out.set("buffers.dram_bytes_out", s.dram_bytes_out as f64 / n);
        out.set(
            "buffers.peak_act_buffer_bytes",
            s.peak_act_buffer_bytes as f64,
        );
        Ok(())
    }
}

/// Non-overlapping split of `total_cycles` by cause.
fn cycle_breakdown(s: &CycleStats) -> [(&'static str, u64); 6] {
    [
        ("accelerator.cycles.compute_busy", s.compute_busy_cycles),
        (
            "accelerator.cycles.pipeline_not_computing",
            s.pipeline_cycles - s.compute_busy_cycles,
        ),
        ("accelerator.cycles.zero_removing", s.zero_removing_cycles),
        ("accelerator.cycles.tile_overhead", s.tile_overhead_cycles),
        ("accelerator.cycles.layer_overhead", s.layer_overhead_cycles),
        ("accelerator.cycles.dram_stall", s.dram_stall_cycles),
    ]
}
