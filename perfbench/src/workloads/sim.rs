//! `stream-sim`: a closed batch of rotating ShapeNet-like objects (one per
//! class) through the 3-layer quantized stack on the cycle simulator
//! (`StreamingSession::run_batch`, 2 workers, no plan cache, no hub).

use super::{
    busy_by_worker, check_digest, finish_trace, golden_reference, timed_batches, timed_setup,
    write_batches, BatchSample, RunConfig, WORKERS,
};
use crate::layers::{LayerAccum, ACCELERATOR};
use crate::measure::{corrupt_q16, same_q16, Digest};
use crate::report::RunResult;
use crate::spans::Tracer;
use esca::accelerator::LayerOpts;
use esca::streaming::{StreamReport, StreamingSession};
use esca::{Esca, EscaConfig};
use esca_bench::workloads;
use esca_pointcloud::{synthetic, transform, voxelize};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::quant::QuantizedWeights;
use esca_tensor::{Extent3, SparseTensor, Q16};
use std::time::Instant;

/// Layers of the streaming stack.
pub const LAYERS: usize = 3;

struct Setup {
    stack: Vec<(QuantizedWeights, bool)>,
    frames: Vec<SparseTensor<Q16>>,
    esca: Esca,
    session: StreamingSession,
}

fn new_session(
    esca: &Esca,
    stack: &[(QuantizedWeights, bool)],
    workers: usize,
) -> StreamingSession {
    StreamingSession::new(esca.clone(), stack.to_vec(), workers)
        .with_plan_cache(None)
        .with_gemm_backend(GemmBackendKind::Blocked)
}

/// Digest of everything simulated in a batch: per-frame `CycleStats`, the
/// steady-state probe and the cycle-domain telemetry snapshot.
fn digest(rep: &StreamReport) -> String {
    let mut d = Digest::default();
    d.json(&rep.per_frame);
    d.json(&rep.steady_frame0);
    d.json(&rep.telemetry.cycle);
    d.hex()
}

pub(super) fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let scale = cfg.scale;
    let (setup, setup_time) = timed_setup(cfg, || {
        let stack = workloads::streaming_stack(LAYERS);
        let frames = super::object_frames(cfg.seed, scale.frames, scale.grid, &stack);
        let esca = Esca::new(EscaConfig::default()).map_err(|e| e.to_string())?;
        let session = new_session(&esca, &stack, WORKERS);
        Ok(Setup {
            stack,
            frames,
            esca,
            session,
        })
    })?;
    let mut out = RunResult {
        correct: true,
        ..RunResult::default()
    };
    setup_time.record(&mut out);
    let Setup {
        stack,
        frames,
        esca,
        session,
    } = setup;
    let active: usize = frames.iter().map(SparseTensor::nnz).sum();
    out.note(format!(
        "stream-sim: {} frames at {}^3, {:.0} active sites per frame, {} workers, closed batch",
        frames.len(),
        scale.grid,
        active as f64 / frames.len() as f64,
        WORKERS
    ));

    let reference = golden_reference(&esca, &stack, &frames)?;
    let one = session_digest(&new_session(&esca, &stack, 1), &frames)?;

    let mut first_digest = None;
    let mut last_report = None;
    let samples = timed_batches(cfg, || {
        let t0 = Instant::now();
        let rep = session.run_batch(&frames);
        let wall = t0.elapsed();
        let rep = rep.map_err(|e| format!("run_batch: {e}"))?;
        let mut s = BatchSample {
            wall,
            offered: frames.len() as u64,
            ..BatchSample::default()
        };
        for (i, (got, want)) in rep.outputs.iter().zip(&reference).enumerate() {
            let ok = if cfg.corrupt_output && i == 0 {
                same_q16(&corrupt_q16(got), want)
            } else {
                same_q16(got, want)
            };
            if ok {
                s.good += 1;
            } else {
                s.failed += 1;
            }
        }
        s.failed += (frames.len() - rep.outputs.len()) as u64;
        s.frame_ms = rep
            .frame_wall
            .iter()
            .map(|d| crate::measure::ms(*d))
            .collect();
        s.busy_ms = busy_by_worker(
            rep.frame_spans
                .iter()
                .map(|f| (f.ctx.worker as usize, rep.frame_wall[f.ctx.frame as usize])),
            WORKERS,
        );
        s.pipeline_cycles = rep.per_frame.iter().map(|c| c.pipeline_cycles).sum::<u64>()
            + rep.steady_frame0.as_ref().map_or(0, |c| c.pipeline_cycles);
        s.frame_cycles = rep.per_frame.iter().map(|c| c.total_cycles()).collect();
        first_digest.get_or_insert_with(|| digest(&rep));
        last_report = Some(rep);
        Ok(s)
    })?;
    check_digest(
        &mut out,
        "CycleStats + cycle telemetry",
        &one,
        first_digest.as_deref().unwrap_or(""),
    )?;
    write_batches(&samples, WORKERS, &mut out);
    out.correct = out.failed == 0;

    if cfg.trace {
        let last = last_report.expect("at least one batch ran");
        traced(cfg, &esca, &stack, &frames, &reference, &last, &mut out)?;
    }
    Ok(out)
}

fn session_digest(s: &StreamingSession, frames: &[SparseTensor<Q16>]) -> Result<String, String> {
    let rep = s.run_batch(frames).map_err(|e| format!("run_batch: {e}"))?;
    Ok(digest(&rep))
}

/// Runs one frame through the stack with plain `Esca::run_layer_with`
/// calls and returns its host time, seconds.
pub(super) fn untraced_frame(
    esca: &Esca,
    stack: &[(QuantizedWeights, bool)],
    frame: &SparseTensor<Q16>,
    opts: LayerOpts,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut x = frame.clone();
    for (w, relu) in stack {
        x = esca
            .run_layer_with(&x, w, *relu, opts)
            .map_err(|e| e.to_string())?
            .output;
    }
    std::hint::black_box(&x);
    Ok(t0.elapsed().as_secs_f64())
}

/// Opts of frame `i` in a batch: frame 0 pays the weight load.
fn opts(i: usize) -> LayerOpts {
    LayerOpts {
        load_weights: i == 0,
        matching_resident: false,
    }
}

fn traced(
    cfg: &RunConfig,
    esca: &Esca,
    stack: &[(QuantizedWeights, bool)],
    frames: &[SparseTensor<Q16>],
    reference: &[SparseTensor<Q16>],
    last: &StreamReport,
    out: &mut RunResult,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    voxelize_spans(cfg, &mut tracer, frames.len());
    let mut acc = LayerAccum::default();
    let mut untraced_s = 0.0;
    for (i, f) in frames.iter().enumerate() {
        // Untraced baseline, interleaved frame by frame with the traced
        // replay so host drift hits both alike.
        untraced_s += untraced_frame(esca, stack, f, opts(i))?;
        let got = tracer.frame(i as u64, |t| -> Result<_, String> {
            let mut x = f.clone();
            for (w, relu) in stack {
                x = acc.run_layer(t, esca, &x, w, *relu, opts(i))?;
            }
            Ok(x)
        })?;
        if !same_q16(&got, &reference[i]) {
            out.correct = false;
            out.failed += 1;
        }
    }
    let text = tracer.span("telemetry", |_| last.telemetry.to_prometheus_text());
    std::hint::black_box(text);
    out.set(
        "telemetry.render_ms",
        tracer.total_ns("telemetry") as f64 / 1e6,
    );
    out.set(
        "pointcloud.voxelize_ms_per_frame",
        tracer.total_ns("pointcloud.voxelize") as f64 / frames.len() as f64 / 1e6,
    );
    acc.write(&tracer, esca.config().clock_mhz, out)?;
    let s = acc.stats();
    finish_trace(
        cfg,
        &tracer,
        untraced_s,
        frames.len(),
        &[(ACCELERATOR, s.total_cycles(), s.pipeline_cycles)],
        out,
    )
}

/// Times the voxelization of each frame's rotated cloud (the same clouds
/// `object_frames` voxelizes) as root spans.
fn voxelize_spans(cfg: &RunConfig, tracer: &mut Tracer, n: usize) {
    let grid = cfg.scale.grid;
    let c = grid as f32 / 2.0;
    let per_object = n.div_ceil(super::CLASSES);
    for i in 0..n {
        let base = synthetic::shapenet_like(
            super::object_seed(cfg.seed, i / per_object),
            &synthetic::ShapeNetConfig::default(),
        );
        let base = if grid == workloads::GRID_SIDE {
            base
        } else {
            transform::scale(&base, grid as f32 / workloads::GRID_SIDE as f32, [0.0; 3])
        };
        let rotated = transform::rotate_z(&base, 0.1 * (i % per_object) as f32, [c, c, c]);
        let v = tracer.span("pointcloud.voxelize", |_| {
            voxelize::voxelize_occupancy(&rotated, Extent3::cube(grid))
        });
        std::hint::black_box(v);
    }
}
