//! The four benchmark workloads and the measurement loop they share.
//!
//! Every workload follows the same shape:
//! 1. set-up, repeated [`Scale::setup_reps`] times (median reported as
//!    `setup_s`): input generation, voxelization, quantization, session
//!    and pool construction;
//! 2. reference outputs and the 1-worker digest, outside set-up and
//!    outside the timed region;
//! 3. timed batches through the public batch entry point until
//!    `--seconds` of batch time is measured, each batch's outputs checked
//!    against the reference after its timer stops, with the host's stretch
//!    ([`crate::calibrate`]) measured between batches;
//! 4. with `--trace 1`, a replay of the same inputs on the calling thread
//!    through the layers' public functions, with spans around each call.

mod golden;
mod ingest;
mod sim;
mod unet;

use crate::layers::{ACCELERATOR, ENCODE, ZERO_REMOVING};
use crate::measure::{beyond, median, ms, percentile, ratio};
use crate::report::RunResult;
use crate::spans::Tracer;
use esca::Esca;
use esca_sscn::engine::RulebookCache;
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::quant::QuantizedWeights;
use esca_tensor::{SparseTensor, Q16};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool workers of every workload's session (the reference host has two
/// cores).
pub const WORKERS: usize = 2;

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten of `n`
/// samples beyond it (the median when none has).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

/// Sets a tail metric at [`tail_percentile`] and notes the percentile and
/// sample count beside it.
fn set_tail(out: &mut RunResult, name: &'static str, samples: &[f64], what: &str) {
    let p = tail_percentile(samples.len());
    out.set(name, percentile(samples, p));
    out.note(format!(
        "{name} is p{p} of {} {what} ({} beyond it)",
        samples.len(),
        beyond(samples.len(), p)
    ));
}

/// The paper's effective throughput on SS U-Net (Table III), GOPS.
pub const PAPER_GOPS: f64 = 17.73;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `StreamingSession::run_batch` on rotating objects: the simulator
    /// path every streamed frame pays for.
    StreamSim,
    /// `StreamingSession::run_golden_batch` with budgeted rulebook and plan
    /// caches over a skewed pose sequence: the flat engine path.
    StreamGolden,
    /// `StreamingSession::run_batch_ingest` with two tenants, a bounded
    /// queue, a fault campaign and an observability hub.
    IngestChaos,
    /// `StreamingSession::run_unet_batch`: the full SS U-Net system path.
    UnetSystem,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::StreamSim,
        Workload::StreamGolden,
        Workload::IngestChaos,
        Workload::UnetSystem,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamSim => "stream-sim",
            Workload::StreamGolden => "stream-golden",
            Workload::IngestChaos => "ingest-chaos",
            Workload::UnetSystem => "unet-system",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Voxel grid side.
    pub grid: u32,
    /// Frames per batch (offered frames, for the ingest workload).
    pub frames: usize,
    /// Distinct poses in the golden workload's pose pool, a multiple of
    /// [`CLASSES`] (the same number of poses per object).
    pub poses: usize,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
}

impl Scale {
    /// The benchmark's sizes for `w`.
    pub fn full(w: Workload) -> Scale {
        let frames = match w {
            Workload::StreamSim => 15,
            Workload::StreamGolden => 192,
            Workload::IngestChaos => 48,
            Workload::UnetSystem => 20,
        };
        Scale {
            grid: esca_bench::workloads::GRID_SIDE,
            frames,
            poses: 25,
            setup_reps: 15,
        }
    }

    /// Tiny sizes for the benchmark's own tests.
    pub fn smoke() -> Scale {
        Scale {
            grid: 40,
            frames: 5,
            poses: 5,
            setup_reps: 1,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Batch time to measure, seconds.
    pub seconds: f64,
    /// Run the traced replay and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Flip one output bit before the correctness check (the gate's own
    /// test).
    pub corrupt_output: bool,
    /// Where the traced run writes its Chrome trace (`None`: not written).
    pub trace_dir: Option<PathBuf>,
}

/// Runs one workload end to end.
///
/// # Errors
///
/// Set-up failures, batch errors and a failed determinism check, as text.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut out = match cfg.workload {
        Workload::StreamSim => sim::run(cfg),
        Workload::StreamGolden => golden::run(cfg),
        Workload::IngestChaos => ingest::run(cfg),
        Workload::UnetSystem => unet::run(cfg),
    }?;
    out.set("peak_rss_mb", crate::measure::peak_rss_mb()?);
    Ok(out)
}

/// Median set-up time and the host stretch measured around the set-ups.
#[derive(Debug, Clone, Copy)]
struct SetupTime {
    /// Median host time of one set-up, seconds.
    raw_s: f64,
    /// Host stretch ([`crate::calibrate::stretch`]), the mean of the
    /// calibrations before and after the set-ups.
    stretch: f64,
}

impl SetupTime {
    /// Sets `setup_s`, corrected for the host stretch, and notes the raw
    /// figure.
    fn record(self, out: &mut RunResult) {
        out.set("setup_s", self.raw_s / self.stretch);
        out.note(format!(
            "setup_s is the median set-up time {:.4} s divided by the host stretch {:.3}",
            self.raw_s, self.stretch
        ));
    }
}

/// Runs `setup` `cfg.scale.setup_reps` times (dropping each result before
/// the next, so pools are joined outside the timer) and returns the last
/// result with the median set-up time.
fn timed_setup<T>(
    cfg: &RunConfig,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, SetupTime), String> {
    crate::calibrate::warm_up(WORKERS);
    let before = crate::calibrate::stretch(WORKERS);
    let reps = cfg.scale.setup_reps.max(1);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        let value = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    let after = crate::calibrate::stretch(WORKERS);
    let time = SetupTime {
        raw_s: median(&times),
        stretch: (before + after) / 2.0,
    };
    Ok((last.expect("at least one set-up ran"), time))
}

/// What one timed batch produced, for the shared end-to-end metrics.
#[derive(Debug, Default)]
struct BatchSample {
    /// Host time of the batch call.
    wall: Duration,
    /// Frames offered.
    offered: u64,
    /// Frames with a correct output.
    good: u64,
    /// Frames whose outcome broke the program's contract.
    failed: u64,
    /// Host time of each frame job, ms (empty when the entry point does
    /// not report it).
    frame_ms: Vec<f64>,
    /// Summed frame-job time per worker, ms (empty when unknown).
    busy_ms: Vec<f64>,
    /// Simulated pipeline cycles of the batch.
    pipeline_cycles: u64,
    /// Simulated total cycles per completed frame.
    frame_cycles: Vec<u64>,
    /// Host stretch beside the batch ([`crate::calibrate::stretch`]), the
    /// mean of the calibrations just before and just after it.
    stretch: f64,
}

/// Runs `batch` until its summed host time reaches `cfg.seconds` (at
/// least once), calibrating the host between batches. `batch` times its
/// own entry-point call and checks its outputs after the timer stops.
fn timed_batches(
    cfg: &RunConfig,
    mut batch: impl FnMut() -> Result<BatchSample, String>,
) -> Result<Vec<BatchSample>, String> {
    let mut samples: Vec<BatchSample> = Vec::new();
    let mut measured = 0.0;
    crate::calibrate::warm_up(WORKERS);
    let mut before = crate::calibrate::stretch(WORKERS);
    while samples.is_empty() || measured < cfg.seconds {
        let mut s = batch()?;
        let after = crate::calibrate::stretch(WORKERS);
        s.stretch = (before + after) / 2.0;
        before = after;
        measured += s.wall.as_secs_f64();
        samples.push(s);
    }
    Ok(samples)
}

/// Folds the timed batches into the shared end-to-end metrics and the
/// `streaming.*` layer metrics.
fn write_batches(samples: &[BatchSample], workers: usize, out: &mut RunResult) {
    let fps: Vec<f64> = samples
        .iter()
        .map(|s| s.good as f64 / s.wall.as_secs_f64())
        .collect();
    let corrected: Vec<f64> = samples
        .iter()
        .zip(&fps)
        .map(|(s, f)| f * s.stretch)
        .collect();
    out.set("frames_per_s", median(&corrected));
    let list = |v: &[f64]| -> String {
        v.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let stretches: Vec<f64> = samples.iter().map(|s| s.stretch).collect();
    out.note(format!(
        "frames_per_s is the median over {} batches of the raw rate times the host stretch",
        fps.len()
    ));
    out.note(format!(
        "  raw frames/s (median {:.3}): {}",
        median(&fps),
        list(&fps)
    ));
    out.note(format!(
        "  host stretch (median {:.3}): {}",
        median(&stretches),
        list(&stretches)
    ));
    out.attempted = samples.iter().map(|s| s.offered).sum();
    out.failed = samples.iter().map(|s| s.failed).sum();
    let good: u64 = samples.iter().map(|s| s.good).sum();
    out.set(
        "failed_frac",
        ratio((out.attempted - good) as f64, out.attempted as f64),
    );
    let walls: Vec<f64> = samples.iter().map(|s| ms(s.wall)).collect();
    out.set("streaming.batch_ms", median(&walls));

    let frame_ms: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.frame_ms.iter().copied())
        .collect();
    if !frame_ms.is_empty() {
        out.set("frame_ms_p50", median(&frame_ms));
        set_tail(out, "frame_ms_tail", &frame_ms, "frame jobs");
    }
    if samples.iter().all(|s| !s.busy_ms.is_empty()) {
        let busy_frac: Vec<f64> = samples
            .iter()
            .map(|s| s.busy_ms.iter().sum::<f64>() / (workers as f64 * ms(s.wall)))
            .collect();
        let collect: Vec<f64> = samples
            .iter()
            .map(|s| ms(s.wall) - s.busy_ms.iter().copied().fold(0.0, f64::max))
            .collect();
        let imbalance: Vec<f64> = samples
            .iter()
            .map(|s| {
                let max = s.busy_ms.iter().copied().fold(0.0, f64::max);
                let min = s.busy_ms.iter().copied().fold(f64::INFINITY, f64::min);
                ratio(
                    max - min,
                    s.busy_ms.iter().sum::<f64>() / s.busy_ms.len() as f64,
                )
            })
            .collect();
        out.set("streaming.worker_busy_frac", median(&busy_frac));
        out.set("streaming.collect_overhead_ms", median(&collect));
        out.set("streaming.worker_imbalance", median(&imbalance));
    }
    if samples.iter().any(|s| s.pipeline_cycles > 0) {
        let rate: Vec<f64> = samples
            .iter()
            .map(|s| s.pipeline_cycles as f64 / s.wall.as_secs_f64() / workers as f64 / 1e6)
            .collect();
        out.set("sim_mcycles_per_s", median(&rate));
        let cycles: Vec<f64> = samples
            .iter()
            .flat_map(|s| s.frame_cycles.iter().map(|&c| c as f64))
            .collect();
        out.set("sim_cycles_per_frame", crate::measure::mean(&cycles));
    }
}

/// ShapeNet-like object classes; `synthetic::shapenet_like` picks the
/// class as `seed % CLASSES`.
pub const CLASSES: usize = 5;

/// Seed of the `class`-th object of run seed `seed`: the seed varies the
/// object instances, while every run sees each class once, so runs with
/// different seeds carry comparable work.
pub fn object_seed(seed: u64, class: usize) -> u64 {
    seed.wrapping_mul(CLASSES as u64).wrapping_add(class as u64)
}

/// `n` frames of rotating objects, one object per class in turn, each
/// produced by `workloads::streaming_frames` (0.1 rad per frame).
fn object_frames(
    seed: u64,
    n: usize,
    grid: u32,
    stack: &[(QuantizedWeights, bool)],
) -> Vec<SparseTensor<Q16>> {
    let per_object = n.div_ceil(CLASSES);
    let mut frames: Vec<SparseTensor<Q16>> = (0..CLASSES)
        .flat_map(|c| {
            esca_bench::workloads::streaming_frames(object_seed(seed, c), per_object, grid, stack)
        })
        .collect();
    frames.truncate(n);
    frames
}

/// Per-worker summed frame time, ms, from `(worker, frame time)` pairs.
fn busy_by_worker(jobs: impl Iterator<Item = (usize, Duration)>, workers: usize) -> Vec<f64> {
    let mut busy = vec![0.0; workers];
    for (w, d) in jobs {
        if let Some(b) = busy.get_mut(w) {
            *b += ms(d);
        }
    }
    busy
}

/// Bit-exact reference outputs of a quantized stack: the host golden
/// engine on the scalar reference GEMM, one fresh cache per frame.
fn golden_reference(
    esca: &Esca,
    stack: &[(QuantizedWeights, bool)],
    frames: &[SparseTensor<Q16>],
) -> Result<Vec<SparseTensor<Q16>>, String> {
    frames
        .iter()
        .map(|f| {
            esca.run_network_golden_with(
                f,
                stack,
                &Arc::new(RulebookCache::new()),
                GemmBackendKind::ScalarRef,
            )
            .map_err(|e| format!("reference run: {e}"))
        })
        .collect()
}

/// Records the 1-worker vs 2-worker digest check.
fn check_digest(out: &mut RunResult, what: &str, one: &str, two: &str) -> Result<(), String> {
    out.note(format!("digest ({what}): {two}  [1 worker: {one}]"));
    if one == two {
        Ok(())
    } else {
        Err(format!(
            "{what} digest differs between 1 worker ({one}) and {WORKERS} workers ({two})"
        ))
    }
}

/// Finishes a traced run: coverage, overhead, the self-time table and the
/// Chrome trace file.
fn finish_trace(
    cfg: &RunConfig,
    tracer: &Tracer,
    untraced_s: f64,
    frames: usize,
    sim_cycles: &[(&'static str, u64, u64)],
    out: &mut RunResult,
) -> Result<(), String> {
    let traced_s = tracer.frame_ns() as f64 / 1e9;
    out.set("trace.coverage", tracer.frame_coverage());
    out.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
    out.note(format!(
        "traced replay {:.3} frames/s vs untraced {:.3} frames/s on the calling thread \
         ({:.1}% of traced frame time in named layer spans)",
        frames as f64 / traced_s,
        frames as f64 / untraced_s,
        tracer.frame_coverage() * 100.0
    ));
    out.note(format!(
        "  {:<26} {:>7} {:>12} {:>10} {:>7} {:>14} {:>9}",
        "layer span", "calls", "self us", "us/call", "share", "sim cycles", "ns/pcyc"
    ));
    let frame_ns = tracer.frame_ns().max(1) as f64;
    for (name, st) in tracer.self_times() {
        let (cycles, pcycles) = sim_cycles
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or((0, 0), |(_, c, p)| (*c, *p));
        let cyc = if cycles > 0 {
            cycles.to_string()
        } else {
            "-".into()
        };
        let ns_per = if pcycles > 0 {
            format!("{:.1}", st.total_ns as f64 / pcycles as f64)
        } else {
            "-".into()
        };
        out.note(format!(
            "  {:<26} {:>7} {:>12.1} {:>10.1} {:>6.1}% {:>14} {:>9}",
            name,
            st.calls,
            st.self_ns as f64 / 1e3,
            st.total_ns as f64 / 1e3 / st.calls as f64,
            st.self_ns as f64 / frame_ns * 100.0,
            cyc,
            ns_per
        ));
    }
    if let Some(&(_, cycles, pcycles)) = sim_cycles.iter().find(|(n, _, _)| *n == ACCELERATOR) {
        let tile_loop_ns = tracer.total_ns(ACCELERATOR) as f64
            - tracer.total_ns(ZERO_REMOVING) as f64
            - tracer.total_ns(ENCODE) as f64;
        out.note(format!(
            "  {:<26} {:>7} {:>12.1} {:>10} {:>6.1}% {:>14} {:>9.1}",
            "tile loop (derived)",
            "-",
            tile_loop_ns / 1e3,
            "-",
            tile_loop_ns / frame_ns * 100.0,
            cycles,
            ratio(tile_loop_ns, pcycles as f64)
        ));
        out.note(
            "  (the accelerator span is Esca::run_layer_with, which repeats zero removing and \
             encode inside; tile loop = accelerator - zero_removing - encode)",
        );
    }
    if let Some(dir) = &cfg.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", cfg.workload.name()));
        let json = tracer
            .to_chrome_trace()
            .to_json()
            .map_err(|e| format!("serializing trace: {e}"))?;
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        out.note(format!("span trace written to {}", path.display()));
    }
    Ok(())
}
