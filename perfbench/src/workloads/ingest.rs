//! `ingest-chaos`: an NYU-like indoor scene stream from two tenants through
//! `StreamingSession::run_batch_ingest` — bounded queue with the degrade
//! rung, token-bucket quotas and priorities, the seeded fault campaign and
//! an attached `ObservabilityHub`. Arrivals follow a fixed cycle-domain
//! schedule faster than the modelled drain (an open loop in the cycle
//! domain); host-side the batch is closed.

use super::{
    busy_by_worker, check_digest, finish_trace, golden_reference, timed_batches, timed_setup,
    write_batches, BatchSample, RunConfig, WORKERS,
};
use crate::layers::{LayerAccum, ACCELERATOR};
use crate::measure::{corrupt_q16, same_q16, Digest};
use crate::report::RunResult;
use crate::spans::Tracer;
use esca::accelerator::LayerOpts;
use esca::resilience::BackpressurePolicy;
use esca::streaming::StreamingSession;
use esca::{
    AdmissionConfig, AdmissionVerdict, Arrival, Esca, EscaConfig, FaultConfig, IngestQueue,
    ResilientReport, TenantQuota,
};
use esca_bench::workloads;
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_telemetry::ObservabilityHub;
use esca_tensor::{SparseTensor, Q16};
use std::sync::Arc;
use std::time::Instant;

/// Modelled service time per frame, cycles (about one NYU-like frame
/// through the 3-layer stack at 192³).
pub const DRAIN_CYCLES: u64 = 625_000;
/// Cycles between arrivals: 1.56× faster than the drain.
pub const ARRIVAL_PERIOD: u64 = 400_000;
/// Seed of the fault campaign. The campaign is part of the workload's
/// definition, like the arrival schedule: `--seed` varies the scenes, so
/// runs with different seeds face the same kind of chaos.
pub const CAMPAIGN_SEED: u64 = 11;
/// Ingest queue bound (in service + waiting).
pub const QUEUE_DEPTH: usize = 4;
/// Occupancy at which admissions run degraded (matching-resident).
pub const DEGRADE_PCT: u32 = 50;

/// The two tenants: a high-priority one with a generous bucket and a
/// low-priority one with a tight bucket.
pub fn tenants() -> Vec<TenantQuota> {
    vec![
        TenantQuota {
            tenant: 1,
            cycles_per_token: 700_000,
            burst: 3,
            priority: 2,
        },
        TenantQuota {
            tenant: 2,
            cycles_per_token: 1_100_000,
            burst: 2,
            priority: 1,
        },
    ]
}

/// The queue configuration.
pub fn admission() -> AdmissionConfig {
    AdmissionConfig {
        queue_depth: QUEUE_DEPTH,
        drain_cycles: DRAIN_CYCLES,
        degrade_occupancy_pct: DEGRADE_PCT,
        tenants: tenants(),
        backpressure: BackpressurePolicy::RejectNew,
    }
}

/// Arrivals alternate between the tenants every [`ARRIVAL_PERIOD`] cycles.
pub fn arrivals(n: usize) -> Vec<Arrival> {
    (0..n)
        .map(|i| Arrival {
            frame: i,
            tenant: 1 + (i % 2) as u32,
            at_cycle: i as u64 * ARRIVAL_PERIOD,
        })
        .collect()
}

/// The scene stream: one distinct NYU-like scene per frame.
pub fn scenes(seed: u64, n: usize, stack: &[(QuantizedWeights, bool)]) -> Vec<SparseTensor<Q16>> {
    let act = stack[0].0.quant().act;
    (0..n)
        .map(|i| {
            let scene = workloads::nyu_voxelized(seed.wrapping_mul(1000).wrapping_add(i as u64));
            quantize_tensor(&scene, act)
        })
        .collect()
}

struct Setup {
    stack: Vec<(QuantizedWeights, bool)>,
    frames: Vec<SparseTensor<Q16>>,
    arrivals: Vec<Arrival>,
    admission: AdmissionConfig,
    faults: FaultConfig,
    esca: Esca,
    hub: Arc<ObservabilityHub>,
    session: StreamingSession,
}

fn new_session(
    esca: &Esca,
    stack: &[(QuantizedWeights, bool)],
    hub: Arc<ObservabilityHub>,
    workers: usize,
) -> StreamingSession {
    StreamingSession::new(esca.clone(), stack.to_vec(), workers)
        .with_hub(hub)
        .with_plan_cache(None)
        .with_gemm_backend(GemmBackendKind::Blocked)
}

/// Digest of everything simulated or decided in cycle time: per-frame
/// `CycleStats`, the cycle-domain telemetry, fault counters and the
/// admission records.
fn digest(rep: &ResilientReport) -> String {
    let mut d = Digest::default();
    d.json(&rep.per_frame);
    d.json(&rep.telemetry.cycle);
    d.json(&rep.counters);
    d.json(&rep.admissions);
    d.hex()
}

/// Result-line name of each verdict class.
const VERDICTS: [(&str, &str); 6] = [
    ("admitted", "admission.verdict.admitted"),
    ("degraded", "admission.verdict.degraded"),
    ("shed", "admission.verdict.shed"),
    ("evicted", "admission.verdict.evicted"),
    ("rejected", "admission.verdict.rejected"),
    ("over_quota", "admission.verdict.over_quota"),
];

pub(super) fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let scale = cfg.scale;
    let (setup, setup_time) = timed_setup(cfg, || {
        let stack = workloads::streaming_stack(super::sim::LAYERS);
        let frames = scenes(cfg.seed, scale.frames, &stack);
        let esca = Esca::new(EscaConfig::default()).map_err(|e| e.to_string())?;
        let hub = Arc::new(ObservabilityHub::new());
        let session = new_session(&esca, &stack, Arc::clone(&hub), WORKERS);
        Ok(Setup {
            arrivals: arrivals(frames.len()),
            admission: admission(),
            faults: FaultConfig::campaign(CAMPAIGN_SEED),
            stack,
            frames,
            esca,
            hub,
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
        arrivals,
        admission,
        faults,
        esca,
        hub,
        session,
    } = setup;
    let active: usize = frames.iter().map(SparseTensor::nnz).sum();
    out.note(format!(
        "ingest-chaos: {} scenes offered, {:.0} active sites per scene, 2 tenants, queue depth \
         {QUEUE_DEPTH}, arrivals every {ARRIVAL_PERIOD} cycles against a {DRAIN_CYCLES}-cycle \
         drain, fault campaign seed {CAMPAIGN_SEED}",
        frames.len(),
        active as f64 / frames.len() as f64,
    ));

    let reference = golden_reference(&esca, &stack, &frames)?;
    let one = new_session(&esca, &stack, Arc::new(ObservabilityHub::new()), 1)
        .run_batch_ingest(&frames, &arrivals, &faults, &admission)
        .map_err(|e| format!("run_batch_ingest: {e}"))?;
    let one = digest(&one);

    let mut first_digest = None;
    let mut last_report = None;
    let mut queue_waits = Vec::new();
    let samples = timed_batches(cfg, || {
        let t0 = Instant::now();
        let rep = session.run_batch_ingest(&frames, &arrivals, &faults, &admission);
        let wall = t0.elapsed();
        let rep = rep.map_err(|e| format!("run_batch_ingest: {e}"))?;
        let mut s = BatchSample {
            wall,
            offered: frames.len() as u64,
            ..BatchSample::default()
        };
        // Exactly one terminal outcome per offered frame.
        if rep.frames.len() != frames.len()
            || rep.frames.iter().enumerate().any(|(i, f)| f.frame != i)
        {
            s.failed += frames.len() as u64;
        }
        let mut corrupt_next = cfg.corrupt_output;
        for fr in rep.frames.iter().filter(|f| f.healthy()) {
            let ok = match &rep.outputs[fr.frame] {
                Some(got) if corrupt_next => {
                    corrupt_next = false;
                    same_q16(&corrupt_q16(got), &reference[fr.frame])
                }
                Some(got) => same_q16(got, &reference[fr.frame]),
                None => false,
            };
            // A healthy frame must match the fault-free reference; any
            // other fate (shed, rejected, faulted) is expected under the
            // campaign and only counts against goodput.
            if ok {
                s.good += 1;
            } else {
                s.failed += 1;
            }
        }
        let completed: Vec<usize> = rep
            .frames
            .iter()
            .filter(|f| f.outcome.completed())
            .map(|f| f.frame)
            .collect();
        s.frame_ms = completed
            .iter()
            .map(|&i| crate::measure::ms(rep.frame_wall[i]))
            .collect();
        s.busy_ms = busy_by_worker(
            rep.frame_spans
                .iter()
                .map(|f| (f.ctx.worker as usize, rep.frame_wall[f.ctx.frame as usize])),
            WORKERS,
        );
        s.pipeline_cycles = rep
            .per_frame
            .iter()
            .flatten()
            .map(|c| c.pipeline_cycles)
            .sum();
        s.frame_cycles = rep
            .per_frame
            .iter()
            .flatten()
            .map(|c| c.total_cycles())
            .collect();
        queue_waits.extend(
            rep.admissions
                .iter()
                .filter(|r| r.verdict.runs())
                .map(|r| r.queue_wait_cycles() as f64),
        );
        first_digest.get_or_insert_with(|| digest(&rep));
        last_report = Some(rep);
        Ok(s)
    })?;
    check_digest(
        &mut out,
        "CycleStats + cycle telemetry + fault counters + admission records",
        &one,
        first_digest.as_deref().unwrap_or(""),
    )?;
    write_batches(&samples, WORKERS, &mut out);
    out.correct = out.failed == 0;
    super::set_tail(
        &mut out,
        "queue_wait_cycles_tail",
        &queue_waits,
        "admitted-frame queue waits",
    );
    let last = last_report.expect("at least one batch ran");
    let c = &last.counters;
    out.note(format!(
        "outcomes per batch: {} ok, {} retried, {} failed, {} dropped ({} degraded); \
         {} faults injected",
        c.ok_frames,
        c.retried_frames,
        c.failed_frames,
        c.dropped_frames,
        c.degraded_frames,
        c.total_injected()
    ));

    if cfg.trace {
        let admitted = last.frames.iter().filter(|f| f.attempts > 0).count().max(1);
        let attempts: u32 = last.frames.iter().map(|f| f.attempts).sum();
        out.set(
            "resilience.attempts_per_frame",
            f64::from(attempts) / admitted as f64,
        );
        out.set("resilience.retries_total", c.retries_total as f64);
        out.set("resilience.fallbacks", c.fallbacks as f64);
        out.set("resilience.injected_total", c.total_injected() as f64);
        out.set(
            "telemetry.flight_events",
            hub.flight().recorded() as f64 / samples.len() as f64,
        );
        traced(
            cfg, &esca, &stack, &frames, &arrivals, &admission, &reference, &last, &mut out,
        )?;
    }
    Ok(out)
}

/// Layer opts of an admitted frame: the first admitted frame pays the
/// weight load; degraded frames run matching-resident.
fn opts(frame: usize, first: Option<usize>, verdict: AdmissionVerdict) -> LayerOpts {
    LayerOpts {
        load_weights: Some(frame) == first,
        matching_resident: verdict == AdmissionVerdict::Degraded,
    }
}

#[allow(clippy::too_many_arguments)]
fn traced(
    cfg: &RunConfig,
    esca: &Esca,
    stack: &[(QuantizedWeights, bool)],
    frames: &[SparseTensor<Q16>],
    arrivals: &[Arrival],
    admission: &AdmissionConfig,
    reference: &[SparseTensor<Q16>],
    last: &ResilientReport,
    out: &mut RunResult,
) -> Result<(), String> {
    // Fault-free replay of the admitted frames.
    let mut tracer = Tracer::new();
    let outcome = tracer.span("admission", |_| IngestQueue::evaluate(admission, arrivals));
    let runs: Vec<(usize, AdmissionVerdict)> = outcome
        .records
        .iter()
        .filter(|r| r.verdict.runs())
        .map(|r| (r.frame, r.verdict))
        .collect();
    let first = runs.first().map(|r| r.0);
    out.set(
        "admission.evaluate_us",
        tracer.total_ns("admission") as f64 / 1e3,
    );
    out.set("admission.queue_peak", outcome.peak_in_system as f64);
    for (class, name) in VERDICTS {
        let n = outcome
            .records
            .iter()
            .filter(|r| r.verdict.class_label() == class)
            .count();
        out.set(name, n as f64);
    }
    let mut acc = LayerAccum::default();
    let mut untraced_s = 0.0;
    for &(i, v) in &runs {
        untraced_s += super::sim::untraced_frame(esca, stack, &frames[i], opts(i, first, v))?;
        let got = tracer.frame(i as u64, |t| -> Result<_, String> {
            let mut x = frames[i].clone();
            for (w, relu) in stack {
                x = acc.run_layer(t, esca, &x, w, *relu, opts(i, first, v))?;
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
    acc.write(&tracer, esca.config().clock_mhz, out)?;
    let s = acc.stats();
    finish_trace(
        cfg,
        &tracer,
        untraced_s,
        runs.len(),
        &[(ACCELERATOR, s.total_cycles(), s.pipeline_cycles)],
        out,
    )
}
