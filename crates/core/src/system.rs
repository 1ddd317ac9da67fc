//! System-level pipeline: the full accelerated deployment of an SS U-Net
//! on the ZCU102 — Sub-Conv layers on the ESCA fabric, everything else
//! (strided down/upsampling, concatenation, the classification head,
//! per-layer quantize/dequantize marshalling) on the host PS, with a
//! simple host cost model. This composes the paper's per-layer results
//! into a true end-to-end inference latency.

use crate::accelerator::Esca;
use crate::stats::CycleStats;
use crate::Result;
use esca_sscn::engine::{FlatEngine, RulebookCache};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::plan::PlanCache;
use esca_sscn::quant::{dequantize_tensor, quantize_tensor, QuantizedWeights};
use esca_sscn::unet::SsUNet;
use esca_telemetry::{MetricsSnapshot, Registry};
use esca_tensor::SparseTensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Host (PS-side) cost model: a quad-A53 running NEON-ish scalar code.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostModel {
    /// Sustained host throughput on the sparse ops, GFLOP/s.
    pub gflops: f64,
    /// Per-point marshalling cost (quantize/dequantize/copy), nanoseconds
    /// per feature element.
    pub marshal_ns_per_elem: f64,
}

impl Default for HostModel {
    fn default() -> Self {
        HostModel {
            gflops: 2.0,
            marshal_ns_per_elem: 1.5,
        }
    }
}

/// Result of an end-to-end pipeline run.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// The network logits.
    pub logits: SparseTensor<f32>,
    /// Aggregate accelerator statistics over all Sub-Conv layers.
    pub accel: CycleStats,
    /// Modelled host compute time (strided convs, concat, head), seconds.
    pub host_compute_s: f64,
    /// Modelled host marshalling time (quantize/dequantize), seconds.
    pub host_marshal_s: f64,
    /// Accelerator time, seconds.
    pub accel_s: f64,
}

impl SystemRun {
    /// End-to-end latency (host and accelerator serialized, as in an
    /// interrupt-driven deployment).
    pub fn end_to_end_s(&self) -> f64 {
        self.accel_s + self.host_compute_s + self.host_marshal_s
    }

    /// Fraction of end-to-end time spent on the accelerator.
    pub fn accel_fraction(&self) -> f64 {
        if self.end_to_end_s() > 0.0 {
            self.accel_s / self.end_to_end_s()
        } else {
            0.0
        }
    }
}

/// Runs a full SS U-Net with Sub-Conv layers offloaded to `esca` (each
/// layer quantized at `act_bits` activation fractional bits) and host
/// layers costed by `host`.
///
/// The float output differs from [`SsUNet::forward`] only by the
/// quantization error of the offloaded layers.
///
/// # Errors
///
/// Propagates accelerator errors (capacity/config) and network errors.
pub fn run_unet(
    net: &SsUNet,
    esca: &Esca,
    host: &HostModel,
    input: &SparseTensor<f32>,
    act_bits: u8,
) -> Result<SystemRun> {
    let mut accel = CycleStats::default();
    let mut marshal_elems = 0u64;
    let mut exec_err: Option<crate::EscaError> = None;
    let logits = net.forward_with(input, |_, _, w, x| {
        let qw = QuantizedWeights::auto(w, act_bits, 12).map_err(|e| {
            esca_sscn::SscnError::InvalidConfig {
                reason: format!("quantization failed: {e}"),
            }
        })?;
        let qin = quantize_tensor(x, qw.quant().act);
        match esca.run_layer(&qin, &qw, true) {
            Ok(run) => {
                accel += &run.stats;
                marshal_elems += (x.nnz() * (w.in_ch() + w.out_ch())) as u64;
                Ok(dequantize_tensor(&run.output, qw.quant().out))
            }
            Err(e) => {
                let msg = e.to_string();
                exec_err = Some(e);
                Err(esca_sscn::SscnError::InvalidConfig { reason: msg })
            }
        }
    });
    let logits = match logits {
        Ok(l) => l,
        Err(net_err) => {
            return Err(exec_err.unwrap_or_else(|| net_err.into()));
        }
    };

    // Host op counts: strided convs (2 ops per (input site, ic, oc)),
    // transpose convs (per target site), the head.
    let cfg = net.config();
    let mut host_flops = 0f64;
    // Downsampling inputs shrink level by level; approximate with the
    // actual active counts by re-deriving them from the input chain would
    // require a second pass, so cost with the finest nnz as upper bound
    // per level (documented conservative choice).
    let mut level_nnz = input.nnz() as f64;
    for l in 0..cfg.levels - 1 {
        let ic = cfg.channels_at(l) as f64;
        let oc = cfg.channels_at(l + 1) as f64;
        host_flops += 2.0 * level_nnz * ic * oc; // downsample
        host_flops += 2.0 * level_nnz * oc * ic; // upsample (same magnitude)
        level_nnz /= 4.0; // empirical shrink of surface-like sets under 2× downsampling
    }
    host_flops += 2.0 * input.nnz() as f64 * cfg.channels_at(0) as f64 * cfg.classes as f64;

    let clock = esca.config().clock_mhz;
    Ok(SystemRun {
        logits,
        accel_s: accel.time_s(clock),
        host_compute_s: host_flops / (host.gflops * 1e9),
        host_marshal_s: marshal_elems as f64 * host.marshal_ns_per_elem * 1e-9,
        accel,
    })
}

/// Result of a host-golden full-U-Net replay ([`run_unet_golden`]).
#[derive(Debug, Clone)]
pub struct GoldenUnetRun {
    /// The network logits — bit-identical to [`SsUNet::forward`] when the
    /// replay ran the scalar reference GEMM tier, epsilon-bounded under
    /// the blocked throughput tier.
    pub logits: SparseTensor<f32>,
    /// Host-domain snapshot of the rulebook cache after the replay
    /// (hits/misses/evictions, resident bytes/entries) plus the engine's
    /// backend-labeled GEMM work counters.
    pub cache_metrics: MetricsSnapshot,
}

/// Runs a full SS U-Net **on the host golden path** with every Sub-Conv
/// layer delegated to the matching-reuse engine
/// ([`SsUNet::forward_engine`]) on an explicit GEMM backend tier, sharing
/// rulebooks through `cache` across levels, repeated replays and other
/// sessions. Same-level encoder and decoder layers share one rulebook, so
/// even a cold cache sees hits within a single pass; a warm cache (e.g.
/// from an earlier
/// [`crate::streaming::StreamingSession::run_golden_batch`]) skips
/// matching entirely.
///
/// "Golden" means the bit-exact float replay of [`SsUNet::forward`]: the
/// logits are bit-identical under [`GemmBackendKind::ScalarRef`]; the
/// blocked tier trades that for throughput within the documented epsilon
/// bound, still fully deterministic.
///
/// With a whole-network geometry [`PlanCache`] in `plans`, the engine
/// records the U-Net's full geometry plan (every level's rulebooks,
/// strided/transpose maps) under the frame fingerprint on the first pass
/// and replays it — zero per-layer cache probes — on every later frame
/// with the same active set; the plan cache's counters join the returned
/// metrics snapshot.
///
/// No cycle model runs — this is the reference replay of what
/// [`run_unet`] offloads, plus the cache telemetry for it.
///
/// # Errors
///
/// Propagates network errors (shape/channel mismatches).
pub fn run_unet_golden(
    net: &SsUNet,
    input: &SparseTensor<f32>,
    cache: &Arc<RulebookCache>,
    backend: GemmBackendKind,
    plans: Option<Arc<PlanCache>>,
) -> Result<GoldenUnetRun> {
    let mut engine =
        FlatEngine::with_cache_and_backend(Arc::clone(cache), backend).with_plan_cache(plans);
    let logits = net.forward_engine(input, &mut engine)?;
    let mut reg = Registry::new();
    cache.record_metrics(&mut reg);
    engine.record_gemm_metrics(&mut reg);
    if let Some(plans) = engine.plan_cache() {
        plans.record_metrics(&mut reg);
    }
    Ok(GoldenUnetRun {
        logits,
        cache_metrics: reg.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EscaConfig;
    use esca_sscn::unet::UNetConfig;
    use esca_tensor::{Coord3, Extent3};

    fn small_net() -> SsUNet {
        SsUNet::new(UNetConfig {
            input_channels: 1,
            levels: 2,
            base_channels: 8,
            blocks_per_level: 1,
            classes: 4,
            kernel: 3,
            seed: 5,
        })
        .unwrap()
    }

    fn blob() -> SparseTensor<f32> {
        let mut t = SparseTensor::new(Extent3::cube(24), 1);
        for i in 0..60i32 {
            t.insert(
                Coord3::new((i * 7) % 20, (i * 3) % 20, (i * 5) % 20),
                &[0.1 + 0.01 * i as f32],
            )
            .unwrap();
        }
        t.canonicalize();
        t
    }

    #[test]
    fn end_to_end_runs_and_accounts_time() {
        let net = small_net();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let run = run_unet(&net, &esca, &HostModel::default(), &blob(), 8).unwrap();
        assert!(run.logits.same_active_set(&blob()));
        assert_eq!(run.logits.channels(), 4);
        assert!(run.accel_s > 0.0);
        assert!(run.host_compute_s > 0.0);
        assert!(run.host_marshal_s > 0.0);
        assert!((0.0..=1.0).contains(&run.accel_fraction()));
        assert!(
            (run.end_to_end_s() - (run.accel_s + run.host_compute_s + run.host_marshal_s)).abs()
                < 1e-15
        );
        // All four Sub-Conv layers ran on the accelerator.
        assert!(run.accel.match_groups > 0);
    }

    #[test]
    fn pipeline_output_close_to_pure_float_forward() {
        let net = small_net();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let input = blob();
        let run = run_unet(&net, &esca, &HostModel::default(), &input, 12).unwrap();
        let float_logits = net.forward(&input).unwrap();
        let err = run.logits.max_abs_diff(&float_logits).unwrap();
        assert!(err < 0.05, "quantized pipeline drifted: {err}");
    }

    #[test]
    fn golden_unet_replay_reuses_rulebooks_and_reports_cache_metrics() {
        let net = small_net();
        let input = blob();
        let cache = Arc::new(RulebookCache::new());
        let run = run_unet_golden(&net, &input, &cache, GemmBackendKind::ScalarRef, None).unwrap();
        // Bit-identical to the pure float forward.
        let float_logits = net.forward(&input).unwrap();
        assert_eq!(run.logits.coords(), float_logits.coords());
        assert_eq!(run.logits.features(), float_logits.features());
        // One rulebook build per distinct geometry (level); same-level
        // encoder/decoder layers hit within the first pass already.
        let cold_misses = cache.misses();
        assert!(cold_misses >= 1);
        assert!(cache.hits() > 0, "encoder/decoder should share rulebooks");
        // A second replay is fully served from the cache.
        let run2 = run_unet_golden(&net, &input, &cache, GemmBackendKind::ScalarRef, None).unwrap();
        assert_eq!(
            cache.misses(),
            cold_misses,
            "warm replay rebuilt a rulebook"
        );
        assert_eq!(run2.logits.features(), run.logits.features());
        // The snapshot mirrors the live counters.
        let counter = |name: &str| {
            run2.cache_metrics
                .counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
        };
        assert_eq!(
            counter("esca_rulebook_cache_hits_total"),
            Some(cache.hits())
        );
        assert_eq!(
            counter("esca_rulebook_cache_misses_total"),
            Some(cache.misses())
        );
        assert!(run2
            .cache_metrics
            .gauges
            .iter()
            .any(|g| g.name == "esca_rulebook_cache_resident_bytes" && g.value > 0));
        // The engine's GEMM work counters carry the backend label (the
        // golden replay pins the bit-exact scalar reference tier).
        let gemm_macs = run2
            .cache_metrics
            .counters
            .iter()
            .find(|c| c.name == "esca_flat_gemm_macs_total")
            .expect("golden replay records GEMM work");
        assert!(gemm_macs.value > 0);
        assert_eq!(
            gemm_macs.labels,
            vec![("backend".to_string(), "scalar-ref".to_string())]
        );
    }

    #[test]
    fn golden_unet_replay_with_blocked_backend_is_epsilon_bounded() {
        let net = small_net();
        let input = blob();
        let cache = Arc::new(RulebookCache::new());
        let reference =
            run_unet_golden(&net, &input, &cache, GemmBackendKind::ScalarRef, None).unwrap();
        let blocked =
            run_unet_golden(&net, &input, &cache, GemmBackendKind::Blocked, None).unwrap();
        assert_eq!(blocked.logits.coords(), reference.logits.coords());
        for (x, y) in blocked
            .logits
            .features()
            .iter()
            .zip(reference.logits.features())
        {
            assert!((x - y).abs() <= 1e-4 * y.abs().max(1.0), "{x} vs {y}");
        }
        // Identical deterministic work totals, distinct backend labels.
        let macs = |run: &GoldenUnetRun, backend: &str| {
            run.cache_metrics
                .counters
                .iter()
                .find(|c| {
                    c.name == "esca_flat_gemm_macs_total"
                        && c.labels.iter().any(|(k, v)| k == "backend" && v == backend)
                })
                .map(|c| c.value)
        };
        assert_eq!(
            macs(&reference, "scalar-ref"),
            macs(&blocked, "blocked"),
            "GEMM work totals must not depend on the backend"
        );
    }

    #[test]
    fn planned_golden_unet_replays_and_reports_plan_metrics() {
        let net = small_net();
        let input = blob();
        let cache = Arc::new(RulebookCache::new());
        let baseline =
            run_unet_golden(&net, &input, &cache, GemmBackendKind::ScalarRef, None).unwrap();
        let plan_cache = Arc::new(RulebookCache::new());
        let plans = Arc::new(PlanCache::new());
        let first = run_unet_golden(
            &net,
            &input,
            &plan_cache,
            GemmBackendKind::ScalarRef,
            Some(Arc::clone(&plans)),
        )
        .unwrap();
        assert_eq!(first.logits.features(), baseline.logits.features());
        assert_eq!((plans.misses(), plans.hits()), (1, 0));
        let probes = (plan_cache.hits(), plan_cache.misses());
        let second = run_unet_golden(
            &net,
            &input,
            &plan_cache,
            GemmBackendKind::ScalarRef,
            Some(Arc::clone(&plans)),
        )
        .unwrap();
        assert_eq!(second.logits.features(), baseline.logits.features());
        assert_eq!(plans.hits(), 1);
        // The replay never probed the per-layer geometry cache.
        assert_eq!((plan_cache.hits(), plan_cache.misses()), probes);
        // Plan-cache counters travel with the snapshot.
        let counter = |name: &str| {
            second
                .cache_metrics
                .counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
        };
        assert_eq!(counter("esca_plan_cache_hits_total"), Some(1));
        assert_eq!(counter("esca_plan_cache_misses_total"), Some(1));
        assert!(second
            .cache_metrics
            .gauges
            .iter()
            .any(|g| g.name == "esca_plan_cache_resident_bytes" && g.value > 0));
    }

    #[test]
    fn accelerator_errors_surface() {
        let net = small_net();
        let mut cfg = EscaConfig::default();
        cfg.weight_buffer_bytes = 16;
        let esca = Esca::new(cfg).unwrap();
        let err = run_unet(&net, &esca, &HostModel::default(), &blob(), 8).unwrap_err();
        assert!(matches!(err, crate::EscaError::CapacityExceeded { .. }));
    }
}
