//! `unet-system`: the full SS U-Net on ShapeNet-like samples through
//! `StreamingSession::run_unet_batch` — 11 Sub-Conv layers on the cycle
//! simulator, strided, transposed and pooling ops on the host model.

use super::{
    check_digest, finish_trace, timed_batches, timed_setup, write_batches, BatchSample, RunConfig,
    PAPER_GOPS, WORKERS,
};
use crate::layers::{LayerAccum, ACCELERATOR};
use crate::measure::{corrupt_f32, mean, same_f32, Digest};
use crate::report::RunResult;
use crate::spans::Tracer;
use esca::accelerator::LayerOpts;
use esca::streaming::StreamingSession;
use esca::system::{run_unet, HostModel, SystemRun};
use esca::{CycleStats, Esca, EscaConfig};
use esca_bench::workloads;
use esca_sscn::quant::{dequantize_tensor, quantize_tensor, QuantizedWeights};
use esca_sscn::unet::SsUNet;
use esca_sscn::SscnError;
use esca_telemetry::{Registry, TelemetrySnapshot};
use esca_tensor::SparseTensor;
use std::time::Instant;

/// Activation fractional bits of the offloaded layers (as the paper
/// benches run them).
pub const ACT_BITS: u8 = 8;

struct Setup {
    net: SsUNet,
    frames: Vec<SparseTensor<f32>>,
    esca: Esca,
    session: StreamingSession,
}

/// The samples: one ShapeNet-like object per frame, cycling through the
/// classes.
pub fn samples(seed: u64, n: usize, grid: u32) -> Vec<SparseTensor<f32>> {
    (0..n)
        .map(|i| {
            workloads::shapenet_voxelized_at(super::object_seed(seed, i % super::CLASSES), grid)
        })
        .collect()
}

/// Cycle-domain registry of a batch's accelerator statistics, in frame
/// order.
fn cycle_snapshot(runs: &[&SystemRun]) -> TelemetrySnapshot {
    let mut cycle = Registry::new();
    for r in runs {
        r.accel.record_into(&mut cycle);
        cycle.observe("esca_frame_cycles", &[], r.accel.total_cycles());
    }
    TelemetrySnapshot::from_registries(&cycle, &Registry::new())
}

fn digest(runs: &[&SystemRun]) -> String {
    let mut d = Digest::default();
    let stats: Vec<&CycleStats> = runs.iter().map(|r| &r.accel).collect();
    d.json(&stats);
    d.json(&cycle_snapshot(runs).cycle);
    d.hex()
}

pub(super) fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let scale = cfg.scale;
    let host = HostModel::default();
    let (setup, setup_time) = timed_setup(cfg, || {
        let net = workloads::unet();
        let frames = samples(cfg.seed, scale.frames, scale.grid);
        let esca = Esca::new(EscaConfig::default()).map_err(|e| e.to_string())?;
        let session =
            StreamingSession::new(esca.clone(), Vec::new(), WORKERS).with_plan_cache(None);
        Ok(Setup {
            net,
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
        net,
        frames,
        esca,
        session,
    } = setup;
    let active: usize = frames.iter().map(SparseTensor::nnz).sum();
    out.note(format!(
        "unet-system: {} ShapeNet-like samples at {}^3, {:.0} active sites per sample, {} Sub-Conv \
         layers on the simulator, {} workers",
        frames.len(),
        scale.grid,
        active as f64 / frames.len() as f64,
        net.subconv_layers().len(),
        WORKERS
    ));

    // Reference: a sequential run_unet loop over the distinct samples (the
    // batch repeats them), laid out in batch order it is also the
    // 1-worker digest.
    let distinct = frames.len().min(super::CLASSES);
    let reference: Vec<SystemRun> = frames[..distinct]
        .iter()
        .map(|f| run_unet(&net, &esca, &host, f, ACT_BITS).map_err(|e| format!("run_unet: {e}")))
        .collect::<Result<_, _>>()?;
    let expected: Vec<&SystemRun> = (0..frames.len())
        .map(|i| &reference[i % distinct])
        .collect();
    let one = digest(&expected);

    let mut first_digest = None;
    let samples = timed_batches(cfg, || {
        let t0 = Instant::now();
        let runs = session.run_unet_batch(&net, &host, &frames, ACT_BITS);
        let wall = t0.elapsed();
        let runs = runs.map_err(|e| format!("run_unet_batch: {e}"))?;
        let mut s = BatchSample {
            wall,
            offered: frames.len() as u64,
            ..BatchSample::default()
        };
        for (i, (got, want)) in runs.iter().zip(&expected).enumerate() {
            let same = if cfg.corrupt_output && i == 0 {
                same_f32(&corrupt_f32(&got.logits), &want.logits)
            } else {
                same_f32(&got.logits, &want.logits)
            };
            if same && got.accel == want.accel {
                s.good += 1;
            } else {
                s.failed += 1;
            }
        }
        s.failed += (frames.len() - runs.len()) as u64;
        s.pipeline_cycles = runs.iter().map(|r| r.accel.pipeline_cycles).sum();
        s.frame_cycles = runs.iter().map(|r| r.accel.total_cycles()).collect();
        first_digest.get_or_insert_with(|| digest(&runs.iter().collect::<Vec<_>>()));
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

    let mut total = CycleStats::default();
    for r in &reference {
        total += &r.accel;
    }
    let gops = total.effective_gops(esca.config().clock_mhz);
    out.set(
        "sim_gops_err_pct",
        (gops - PAPER_GOPS).abs() / PAPER_GOPS * 100.0,
    );
    out.note(format!(
        "accuracy: simulated {gops:.2} GOPS vs the paper's {PAPER_GOPS} GOPS (Table III), \
         {:+.1}%. Inputs are synthetic ShapeNet-like samples, not the paper's ShapeNet; the \
         model is otherwise unvalidated against hardware.",
        (gops - PAPER_GOPS) / PAPER_GOPS * 100.0
    ));

    if cfg.trace {
        out.set(
            "system.modelled_host_s",
            mean(
                &reference
                    .iter()
                    .map(|r| r.host_compute_s + r.host_marshal_s)
                    .collect::<Vec<_>>(),
            ),
        );
        out.set(
            "system.accel_share",
            mean(
                &reference
                    .iter()
                    .map(SystemRun::accel_fraction)
                    .collect::<Vec<_>>(),
            ),
        );
        traced(
            cfg,
            &net,
            &esca,
            &host,
            &frames[..distinct],
            &reference,
            &mut out,
        )?;
    }
    Ok(out)
}

fn traced(
    cfg: &RunConfig,
    net: &SsUNet,
    esca: &Esca,
    host: &HostModel,
    frames: &[SparseTensor<f32>],
    reference: &[SystemRun],
    out: &mut RunResult,
) -> Result<(), String> {
    // Replays run_unet's Sub-Conv callback with spans around each call;
    // the gaps between callbacks are the network's host-side ops. Each
    // traced frame follows an untraced run_unet of the same frame.
    let mut tracer = Tracer::new();
    let mut acc = LayerAccum::default();
    let opts = LayerOpts::default();
    let mut untraced_s = 0.0;
    for (i, f) in frames.iter().enumerate() {
        let t0 = Instant::now();
        let r = run_unet(net, esca, host, f, ACT_BITS).map_err(|e| e.to_string())?;
        std::hint::black_box(r);
        untraced_s += t0.elapsed().as_secs_f64();
        let logits = tracer.frame(i as u64, |t| {
            let mut last = Instant::now();
            let logits = net.forward_with(f, |_, _, w, x| {
                t.record("system.host_ops", last, Instant::now());
                let (qw, qin) = t.span("system.marshal", |_| {
                    let qw = QuantizedWeights::auto(w, ACT_BITS, 12)?;
                    let qin = quantize_tensor(x, qw.quant().act);
                    Ok::<_, SscnError>((qw, qin))
                })?;
                let y = acc
                    .run_layer(t, esca, &qin, &qw, true, opts)
                    .map_err(|reason| SscnError::InvalidConfig { reason })?;
                let y = t.span("system.marshal", |_| dequantize_tensor(&y, qw.quant().out));
                last = Instant::now();
                Ok(y)
            });
            t.record("system.host_ops", last, Instant::now());
            logits
        });
        let logits = logits.map_err(|e| e.to_string())?;
        if !same_f32(&logits, &reference[i].logits) {
            out.correct = false;
            out.failed += 1;
        }
    }
    let text = tracer.span("telemetry", |_| {
        cycle_snapshot(&reference.iter().collect::<Vec<_>>()).to_prometheus_text()
    });
    std::hint::black_box(text);
    out.set(
        "telemetry.render_ms",
        tracer.total_ns("telemetry") as f64 / 1e6,
    );
    out.set(
        "system.host_ops_ms_per_frame",
        tracer.total_ns("system.host_ops") as f64 / frames.len() as f64 / 1e6,
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
