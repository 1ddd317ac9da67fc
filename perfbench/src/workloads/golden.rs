//! `stream-golden`: a skewed (Zipf-like) sequence over a pool of distinct
//! poses of five objects through `StreamingSession::run_golden_batch` on the
//! blocked GEMM backend, with a shared `RulebookCache` and `PlanCache`
//! whose byte budgets hold only part of the working set. Both caches are
//! emptied before every batch.

use super::{
    check_digest, finish_trace, golden_reference, timed_batches, timed_setup, write_batches,
    BatchSample, RunConfig, WORKERS,
};
use crate::measure::{corrupt_q16, ratio, same_q16, Digest};
use crate::report::RunResult;
use crate::spans::Tracer;
use esca::streaming::StreamingSession;
use esca::{Esca, EscaConfig};
use esca_bench::workloads;
use esca_sscn::engine::{stack_network_digest, FlatEngine, RulebookCache};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::plan::{GeometryPlan, PlanCache, PlanKey, PlanStep};
use esca_sscn::quant::QuantizedWeights;
use esca_sscn::rulebook::Rulebook;
use esca_telemetry::{Registry, TelemetrySnapshot};
use esca_tensor::{SparseTensor, Q16};
use std::sync::Arc;
use std::time::Instant;

/// Rulebooks the rulebook cache's byte budget holds (of one per pose).
pub const RULEBOOK_SLOTS: usize = 6;
/// Whole-stack plans the plan cache's byte budget holds.
pub const PLAN_SLOTS: usize = 6;
/// Zipf exponent of the pose sequence.
pub const ZIPF_S: f64 = 1.1;

struct Setup {
    stack: Vec<(QuantizedWeights, bool)>,
    pool: Vec<SparseTensor<Q16>>,
    order: Vec<usize>,
    frames: Vec<SparseTensor<Q16>>,
    esca: Esca,
    budgets: (usize, usize),
    session: StreamingSession,
}

/// SplitMix64: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seed of the popularity-rank sequence, fixed so that every run has the
/// same reuse pattern (and so the same cache behaviour).
const RANK_SEED: u64 = 0x5a17_f00d;

/// A sequence of `len` indices into a pool of `objects` objects with
/// `per_object` poses each, stored object by object. Rank `r` is drawn with
/// weight `1 / (r + 1)^s` from a fixed rank sequence and names object
/// `r % objects`; which of that object's poses it names is a permutation
/// seeded by `seed`. So the seed changes which poses are hot, while the
/// reuse pattern and the mix of objects among the hot poses stay the same.
pub fn zipf_order(seed: u64, objects: usize, per_object: usize, len: usize, s: f64) -> Vec<usize> {
    let mut rng = SplitMix::new(seed);
    let perms: Vec<Vec<usize>> = (0..objects)
        .map(|_| {
            let mut perm: Vec<usize> = (0..per_object).collect();
            for i in (1..per_object).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
            perm
        })
        .collect();
    let pool = objects * per_object;
    let weights: Vec<f64> = (0..pool).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut ranks = SplitMix::new(RANK_SEED);
    (0..len)
        .map(|_| {
            let mut u = ranks.unit() * total;
            let mut rank = pool - 1;
            for (r, w) in weights.iter().enumerate() {
                if u < *w {
                    rank = r;
                    break;
                }
                u -= w;
            }
            let object = rank % objects;
            object * per_object + perms[object][rank / objects]
        })
        .collect()
}

fn caches(budgets: (usize, usize)) -> (Arc<RulebookCache>, Arc<PlanCache>) {
    (
        Arc::new(RulebookCache::with_capacity_bytes(budgets.0)),
        Arc::new(PlanCache::with_capacity_bytes(budgets.1)),
    )
}

fn new_session(
    esca: &Esca,
    stack: &[(QuantizedWeights, bool)],
    budgets: (usize, usize),
    workers: usize,
) -> StreamingSession {
    let (rb, plans) = caches(budgets);
    StreamingSession::new(esca.clone(), stack.to_vec(), workers)
        .with_rulebook_cache(rb)
        .with_plan_cache(Some(plans))
        .with_gemm_backend(GemmBackendKind::Blocked)
}

fn digest(outputs: &[SparseTensor<Q16>]) -> String {
    let mut d = Digest::default();
    for o in outputs {
        d.tensor(o);
    }
    d.hex()
}

/// Empties both session caches (outside the timed region).
fn clear(s: &StreamingSession) {
    s.rulebook_cache().clear();
    if let Some(p) = s.plan_cache() {
        p.clear();
    }
}

pub(super) fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let scale = cfg.scale;
    let (setup, setup_time) = timed_setup(cfg, || {
        let stack = workloads::streaming_stack(super::sim::LAYERS);
        let pool = super::object_frames(cfg.seed, scale.poses, scale.grid, &stack);
        let per_object = scale.poses / super::CLASSES;
        let order = zipf_order(cfg.seed, super::CLASSES, per_object, scale.frames, ZIPF_S);
        let frames: Vec<_> = order.iter().map(|&i| pool[i].clone()).collect();
        let esca = Esca::new(EscaConfig::default()).map_err(|e| e.to_string())?;
        // One slot is the mean rulebook of the objects' first poses.
        let book = (0..super::CLASSES)
            .map(|c| {
                let mut canon = pool[c * per_object].clone();
                canon.canonicalize();
                Rulebook::build(&canon, stack[0].0.k()).heap_bytes()
            })
            .sum::<usize>()
            / super::CLASSES;
        let budgets = (RULEBOOK_SLOTS * book, PLAN_SLOTS * stack.len() * book);
        let session = new_session(&esca, &stack, budgets, WORKERS);
        Ok(Setup {
            stack,
            pool,
            order,
            frames,
            esca,
            budgets,
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
        pool,
        order,
        frames,
        esca,
        budgets,
        session,
    } = setup;
    let distinct = {
        let mut seen = order.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    };
    out.note(format!(
        "stream-golden: {} frames over {} poses ({} distinct in the sequence), budgets hold \
         {RULEBOOK_SLOTS} rulebooks ({} B) and {PLAN_SLOTS} plans ({} B); caches emptied per batch",
        frames.len(),
        pool.len(),
        distinct,
        budgets.0,
        budgets.1
    ));

    let pose_reference = golden_reference(&esca, &stack, &pool)?;
    let reference: Vec<&SparseTensor<Q16>> = order.iter().map(|&i| &pose_reference[i]).collect();
    let one = new_session(&esca, &stack, budgets, 1)
        .run_golden_batch(&frames)
        .map_err(|e| format!("run_golden_batch: {e}"))?;
    let one = digest(&one);

    let mut first_digest = None;
    let samples = timed_batches(cfg, || {
        clear(&session);
        let t0 = Instant::now();
        let outputs = session.run_golden_batch(&frames);
        let wall = t0.elapsed();
        let outputs = outputs.map_err(|e| format!("run_golden_batch: {e}"))?;
        let mut s = BatchSample {
            wall,
            offered: frames.len() as u64,
            ..BatchSample::default()
        };
        for (i, (got, want)) in outputs.iter().zip(&reference).enumerate() {
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
        s.failed += (frames.len() - outputs.len()) as u64;
        first_digest.get_or_insert_with(|| digest(&outputs));
        Ok(s)
    })?;
    check_digest(
        &mut out,
        "outputs; this path simulates nothing",
        &one,
        first_digest.as_deref().unwrap_or(""),
    )?;
    write_batches(&samples, WORKERS, &mut out);
    out.correct = out.failed == 0;

    if cfg.trace {
        traced(cfg, &esca, &stack, &frames, &reference, budgets, &mut out)?;
    }
    Ok(out)
}

fn traced(
    cfg: &RunConfig,
    esca: &Esca,
    stack: &[(QuantizedWeights, bool)],
    frames: &[SparseTensor<Q16>],
    reference: &[&SparseTensor<Q16>],
    budgets: (usize, usize),
    out: &mut RunResult,
) -> Result<(), String> {
    // Untraced baseline: the program's own per-frame golden entry point
    // over caches of its own with the same budgets, interleaved frame by
    // frame with the traced replay.
    let (base_rb, base_plans) = caches(budgets);
    let mut untraced_s = 0.0;
    let (rb, plans) = caches(budgets);
    let mut engine = FlatEngine::with_cache_and_backend(rb.clone(), GemmBackendKind::Blocked);
    let network = stack_network_digest(stack);
    let mut tracer = Tracer::new();
    let mut pairs_per_site = Vec::new();
    for (j, f) in frames.iter().enumerate() {
        let t0 = Instant::now();
        let x = esca
            .run_network_golden_planned(
                f,
                stack,
                &base_rb,
                GemmBackendKind::Blocked,
                Some(Arc::clone(&base_plans)),
            )
            .map_err(|e| e.to_string())?;
        std::hint::black_box(x);
        untraced_s += t0.elapsed().as_secs_f64();
        let got = tracer.frame(j as u64, |t| -> Result<_, String> {
            let mut x = t.span("engine.canonicalize", |_| {
                let mut x = f.clone();
                x.canonicalize();
                x
            });
            let (key, plan) = t.span("plan", |_| {
                let key = PlanKey {
                    network,
                    frame: x.active_fingerprint(),
                };
                (key, plans.get(&key))
            });
            let mut steps = Vec::new();
            for (l, (w, relu)) in stack.iter().enumerate() {
                let book = match &plan {
                    Some(p) => match p.steps().get(l) {
                        Some(PlanStep::SubConv(b)) => Arc::clone(b),
                        _ => return Err("cached plan step is not a rulebook".to_string()),
                    },
                    None => {
                        let misses = rb.misses();
                        let start = Instant::now();
                        let b = rb.get_or_build(&x, w.k());
                        let end = Instant::now();
                        if rb.misses() > misses {
                            t.record("rulebook", start, end);
                            pairs_per_site.push(ratio(b.total_matches() as f64, b.sites() as f64));
                        } else {
                            t.record("rulebook_cache", start, end);
                        }
                        steps.push(PlanStep::SubConv(Arc::clone(&b)));
                        b
                    }
                };
                let (y, _fell_back) = t
                    .span("engine", |_| {
                        engine.subconv_q_with_book(&x, w, *relu, &book)
                    })
                    .map_err(|e| e.to_string())?;
                x = y;
            }
            if plan.is_none() {
                t.span("plan", |_| plans.insert(key, GeometryPlan::new(steps)));
            }
            Ok(x)
        })?;
        if !same_q16(&got, reference[j]) {
            out.correct = false;
            out.failed += 1;
        }
    }
    let text = tracer.span("telemetry", |_| {
        let mut cycle = Registry::new();
        let mut host = Registry::new();
        engine.record_gemm_metrics(&mut cycle);
        rb.record_metrics(&mut host);
        plans.record_metrics(&mut host);
        TelemetrySnapshot::from_registries(&cycle, &host).to_prometheus_text()
    });
    std::hint::black_box(text);

    let n = frames.len() as f64;
    let st = tracer.self_times();
    let engine_ns = tracer.total_ns("engine") as f64;
    out.set(
        "telemetry.render_ms",
        tracer.total_ns("telemetry") as f64 / 1e6,
    );
    out.set(
        "rulebook.build_ms_per_frame",
        tracer.total_ns("rulebook") as f64 / n / 1e6,
    );
    out.set(
        "rulebook.pairs_per_site",
        crate::measure::mean(&pairs_per_site),
    );
    out.set(
        "engine.subconv_ms_per_layer",
        engine_ns / (n * stack.len() as f64) / 1e6,
    );
    out.set(
        "engine.gmacs_per_s",
        ratio(engine.gemm_macs() as f64, engine_ns),
    );
    out.set("engine.gemm_rows", engine.gemm_rows() as f64 / n);
    out.set("rulebook_cache.hit_rate", rb.hit_rate());
    out.set("rulebook_cache.evictions", rb.evictions() as f64);
    out.set("rulebook_cache.bytes", rb.bytes() as f64);
    out.set(
        "rulebook_cache.probe_us",
        st.get("rulebook_cache")
            .map_or(0.0, |s| s.total_ns as f64 / s.calls as f64 / 1e3),
    );
    out.set("plan_cache.hit_rate", plans.hit_rate());
    out.set("plan_cache.evictions", plans.evictions() as f64);
    out.set("plan_cache.bytes", plans.bytes() as f64);
    finish_trace(cfg, &tracer, untraced_s, frames.len(), &[], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_order_is_seeded_and_skewed() {
        let a = zipf_order(7, 4, 6, 2000, ZIPF_S);
        assert_eq!(a, zipf_order(7, 4, 6, 2000, ZIPF_S));
        assert_ne!(a, zipf_order(8, 4, 6, 2000, ZIPF_S));
        let mut counts = [0usize; 24];
        for i in &a {
            counts[*i] += 1;
        }
        // The hottest pose of each object is drawn the same number of
        // times whatever the seed.
        let hottest = |order: &[usize]| -> Vec<usize> {
            (0..4)
                .map(|o| {
                    (0..6)
                        .map(|p| order.iter().filter(|&&i| i == o * 6 + p).count())
                        .max()
                        .unwrap()
                })
                .collect()
        };
        assert_eq!(hottest(&a), hottest(&zipf_order(8, 4, 6, 2000, ZIPF_S)));
        counts.sort_unstable();
        assert!(counts[23] > 4 * counts[0].max(1));
        assert!(a.iter().all(|&i| i < 24));
    }
}
