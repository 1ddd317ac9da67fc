//! Multi-frame streaming engine: concurrent inference over a queue of
//! voxelized frames (the AR/VR and autonomous-driving deployments the
//! paper's introduction motivates), on a persistent worker pool.
//!
//! The simulated timing model is **unchanged** by concurrency: every
//! frame's [`CycleStats`] is bit-identical to what the sequential
//! [`Esca::run_network_stream`] path produces (weight load charged on
//! frame 0 only, steady-state weights-resident frames afterwards), and
//! batch results are returned in frame order regardless of completion
//! order. What concurrency buys is host wall-clock — plus a deterministic
//! *modeled* multi-engine deployment throughput derived purely from the
//! per-frame cycle counts (see [`StreamReport::modeled`]), which is the
//! number an FPGA with several ESCA instances would actually sustain.

use crate::accelerator::{Esca, LayerOpts};
use crate::stats::CycleStats;
use crate::system::{run_unet, HostModel, SystemRun};
use crate::telemetry::{LayerSpan, LayerTelemetry};
use crate::Result;
use crossbeam::channel;
use esca_sscn::engine::{stack_network_digest, RulebookCache};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::plan::{PlanCache, PlanKey};
use esca_sscn::quant::QuantizedWeights;
use esca_sscn::unet::SsUNet;
use esca_telemetry::serve::{HealthReport, ObservabilityHub, OperatingPoint};
use esca_telemetry::{host, ChromeTrace, FlightEvent, FrameSpanCtx, Registry, TelemetrySnapshot};
use esca_tensor::{SparseTensor, Q16};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs receive the index of the worker thread that runs them, so batch
/// collectors can attribute host-domain work (frames per worker) without
/// any thread-local state.
type Job = Box<dyn FnOnce(usize) + Send + 'static>;

/// A persistent pool of worker threads consuming boxed jobs from an
/// unbounded channel. Threads live for the lifetime of the pool (they are
/// joined on drop), so repeated batches reuse them — the "persistent
/// worker pool" half of the streaming engine. Batches go through
/// [`WorkerPool::map`], the one frame driver.
///
/// Workers survive panicking jobs: each job runs under `catch_unwind`, so
/// a panic is counted ([`WorkerPool::panicked_jobs`]) and the thread goes
/// back to the queue instead of dying and silently shrinking the pool.
pub struct WorkerPool {
    sender: Option<channel::Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    panicked: Arc<AtomicU64>,
    rejected: AtomicU64,
    undelivered: Arc<AtomicU64>,
    /// Jobs the workers have finished, counted once a job and everything
    /// it captured are dropped and the worker heads back to the queue.
    finished: Arc<AtomicU64>,
}

/// How long [`WorkerPool::map`] sleeps between checks while the last
/// workers of a batch finish up.
const SETTLE_POLL: Duration = Duration::from_micros(20);

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("panicked_jobs", &self.panicked_jobs())
            .field("rejected_jobs", &self.rejected_jobs())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = channel::unbounded::<Job>();
        let panicked = Arc::new(AtomicU64::new(0));
        let finished = Arc::new(AtomicU64::new(0));
        let handles = (0..workers)
            .map(|worker| {
                let rx = rx.clone();
                let panicked = Arc::clone(&panicked);
                let finished = Arc::clone(&finished);
                std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // The closure owns the boxed job and any state it
                        // captured; on panic that state is discarded
                        // whole, never observed half-mutated, so the
                        // unwind-safety assertion holds.
                        let run = std::panic::AssertUnwindSafe(move || job(worker));
                        if std::panic::catch_unwind(run).is_err() {
                            panicked.fetch_add(1, Ordering::Relaxed);
                        }
                        finished.fetch_add(1, Ordering::Release);
                    }
                })
            })
            .collect();
        WorkerPool {
            sender: Some(tx),
            handles,
            panicked,
            rejected: AtomicU64::new(0),
            undelivered: Arc::new(AtomicU64::new(0)),
            finished,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Jobs that panicked while running (caught; the worker survived).
    pub fn panicked_jobs(&self) -> u64 {
        self.panicked.load(Ordering::Relaxed)
    }

    /// Jobs rejected by [`WorkerPool::execute`] because the queue channel
    /// was disconnected.
    pub fn rejected_jobs(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Jobs the workers have finished, panicked ones included: a job
    /// counts once it and everything it captured are dropped.
    pub fn finished_jobs(&self) -> u64 {
        self.finished.load(Ordering::Acquire)
    }

    /// Enqueues a job; it runs on the first free worker, which passes its
    /// own index (in `0..workers`) to the closure.
    ///
    /// # Errors
    ///
    /// Returns [`crate::EscaError::PoolClosed`] (and counts the rejection)
    /// when the queue channel is disconnected — the job was *not*
    /// enqueued and will never run. This cannot happen through the public
    /// API before the pool is dropped, but a silently discarded job is
    /// exactly the failure mode that loses frames, so the send result is
    /// surfaced instead of swallowed.
    pub fn execute(&self, job: impl FnOnce(usize) + Send + 'static) -> crate::Result<()> {
        let sent = match self.sender.as_ref() {
            Some(tx) => tx.send(Box::new(job)).map_err(|_| ()),
            None => Err(()),
        };
        sent.map_err(|()| {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            crate::EscaError::PoolClosed
        })
    }

    /// Runs `job` over `items` on the pool — the one frame driver every
    /// batch entry point calls. Returns one result per item **in item
    /// order**, plus the host wall time of the whole map.
    ///
    /// Each job runs under `catch_unwind`: a job that panics on item `k`
    /// yields `Err(EscaError::WorkerPanic { frame: k })` (and counts in
    /// [`WorkerPool::panicked_jobs`]) while the other items complete, and
    /// an item the pool could not run yields `Err(EscaError::PoolClosed)`.
    /// Neither panics the caller. `on_arrival(idx, worker, wall, &result)`
    /// sees every result on the calling thread in completion order — the
    /// hook for live exposition; anything that must be deterministic folds
    /// the returned, index-ordered results instead.
    ///
    /// `map` returns only once every worker that ran one of its jobs is
    /// back at the queue. A worker that delivers the last result wakes
    /// this thread, which often pre-empts it on the same core; without
    /// the wait that worker would still be runnable after `map` returned,
    /// competing with the caller's next work and skewing where the
    /// scheduler places the caller's next threads. The returned wall time
    /// ends at the last arrival and excludes this wait.
    ///
    /// This is the one audited host-timing site of the batch drivers
    /// (L1-wall-clock in `analyze/allowlist.tsv`): the per-job and batch
    /// wall times feed host-domain fields only, never [`CycleStats`].
    pub fn map<I, T, F>(
        &self,
        items: Vec<I>,
        job: F,
        mut on_arrival: impl FnMut(usize, usize, Duration, &Result<T>),
    ) -> (Vec<Result<T>>, Duration)
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(I) -> Result<T> + Send + Sync + 'static,
    {
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let job = Arc::new(job);
        let (tx, rx) = channel::unbounded();
        let mut slots: Vec<Option<Result<T>>> = Vec::with_capacity(items.len());
        // Jobs finished before this batch plus the batch's submitted jobs;
        // other callers' jobs can only bring the count up sooner.
        let mut settled = self.finished_jobs();
        for (idx, item) in items.into_iter().enumerate() {
            let (job, tx) = (Arc::clone(&job), tx.clone());
            let panicked = Arc::clone(&self.panicked);
            let undelivered = Arc::clone(&self.undelivered);
            let submitted = self.execute(move |worker| {
                let began = start.elapsed();
                // The job owns its item; on panic the item is discarded
                // whole, so the unwind-safety assertion holds.
                let run = std::panic::AssertUnwindSafe(|| job(item));
                let result = std::panic::catch_unwind(run).unwrap_or_else(|_| {
                    panicked.fetch_add(1, Ordering::Relaxed);
                    Err(crate::EscaError::WorkerPanic { frame: idx })
                });
                let wall = start.elapsed().saturating_sub(began);
                // Fails only if the collector below unwound mid-batch;
                // counted so a lost result never passes silently.
                if tx.send((idx, worker, wall, result)).is_err() {
                    undelivered.fetch_add(1, Ordering::Relaxed);
                }
            });
            // A rejected item is settled now; a submitted one on arrival.
            settled += u64::from(submitted.is_ok());
            slots.push(submitted.err().map(Err));
        }
        drop(tx);
        // Every submitted job sends exactly once, panic or not, so this
        // ends after the last arrival.
        for (idx, worker, wall, result) in rx.iter() {
            on_arrival(idx, worker, wall, &result);
            slots[idx] = Some(result);
        }
        let wall = start.elapsed();
        // Sleeping, not spinning or yielding, hands this core to a worker
        // this thread pre-empted, so it can finish and park.
        while self.finished_jobs() < settled {
            std::thread::sleep(SETTLE_POLL);
        }
        let results = slots
            .into_iter()
            .map(|slot| slot.unwrap_or(Err(crate::EscaError::PoolClosed)))
            .collect();
        (results, wall)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the channel so workers drain and exit, then join.
        drop(self.sender.take());
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A streaming inference session: an accelerator plus a quantized layer
/// stack bound to a persistent [`WorkerPool`], accepting batches of
/// voxelized frames.
#[derive(Debug)]
pub struct StreamingSession {
    pub(crate) esca: Arc<Esca>,
    pub(crate) layers: Arc<Vec<(QuantizedWeights, bool)>>,
    pub(crate) pool: WorkerPool,
    pub(crate) layer_shards: usize,
    pub(crate) rulebook_cache: Arc<RulebookCache>,
    pub(crate) gemm_backend: GemmBackendKind,
    pub(crate) plan_cache: Option<Arc<PlanCache>>,
    pub(crate) hub: Option<Arc<ObservabilityHub>>,
    pub(crate) operating_point: Option<OperatingPoint>,
}

/// One frame through the cycle model: its output, stats and telemetry.
pub(crate) type FrameOut = (SparseTensor<Q16>, CycleStats, LayerTelemetry);

pub(crate) fn run_frame(
    esca: &Esca,
    layers: &[(QuantizedWeights, bool)],
    frame: &SparseTensor<Q16>,
    opts: LayerOpts,
    layer_shards: usize,
) -> Result<FrameOut> {
    let mut x = frame.clone();
    let mut total = CycleStats::default();
    let mut tele = LayerTelemetry::new();
    for (layer, (w, relu)) in layers.iter().enumerate() {
        let run = esca.run_layer_sharded_with(&x, w, *relu, opts, layer_shards)?;
        // The layer's frame-relative cycle interval, recorded here (after
        // the shard merge) so shard count cannot show in the spans.
        let start_cycle = total.total_cycles();
        total += &run.stats;
        tele.merge(&run.telemetry);
        tele.push_layer_span(LayerSpan {
            layer: layer as u32,
            start_cycle,
            end_cycle: total.total_cycles(),
            matching_resident: run.stats.matching_resident,
        });
        x = run.output;
    }
    Ok((x, total, tele))
}

/// The frame-order fold both cycle-model batch drivers share: a completed
/// frame's stats and telemetry into the cycle registry, its wall time and
/// worker into the host registry, and its span trace. The final report
/// folds on the calling thread in frame order, so its cycle half is
/// byte-identical for any `(workers, shards)` split. The live view (hub
/// attached only) folds the same data in completion order — legal
/// because every merge is commutative — so each published snapshot is a
/// monotone prefix of the final one.
pub(crate) struct FrameFold {
    pub(crate) cycle: Registry,
    pub(crate) host: Registry,
    pub(crate) spans: Vec<FrameSpanTrace>,
    shards: u64,
}

impl FrameFold {
    pub(crate) fn new(shards: usize) -> Self {
        FrameFold {
            cycle: Registry::new(),
            host: Registry::new(),
            spans: Vec::new(),
            shards: shards as u64,
        }
    }

    pub(crate) fn push(
        &mut self,
        frame: usize,
        attempt: u32,
        worker: usize,
        wall: Duration,
        run: &FrameOut,
    ) {
        let (_, stats, tele) = run;
        stats.record_into(&mut self.cycle);
        tele.record_into(&mut self.cycle);
        self.cycle
            .observe("esca_frame_cycles", &[], stats.total_cycles());
        host::observe_wall(&mut self.host, "esca_frame_wall_micros", &[], wall);
        let worker_label = worker.to_string();
        self.host.counter_add(
            "esca_worker_frames_total",
            &[("worker", worker_label.as_str())],
            1,
        );
        self.spans.push(FrameSpanTrace {
            ctx: FrameSpanCtx {
                frame: frame as u64,
                attempt: u64::from(attempt),
                worker: worker as u64,
                shards: self.shards,
            },
            total_cycles: stats.total_cycles(),
            spans: tele.layer_spans.clone(),
        });
    }

    pub(crate) fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::from_registries(&self.cycle, &self.host)
    }
}

impl StreamingSession {
    /// Creates a session over `workers` pool threads. `layers` is the
    /// resident network: `(weights, relu)` per Sub-Conv layer, applied in
    /// order to every frame.
    pub fn new(esca: Esca, layers: Vec<(QuantizedWeights, bool)>, workers: usize) -> Self {
        StreamingSession {
            esca: Arc::new(esca),
            layers: Arc::new(layers),
            pool: WorkerPool::new(workers),
            layer_shards: 1,
            rulebook_cache: Arc::new(RulebookCache::new()),
            gemm_backend: GemmBackendKind::from_env(),
            plan_cache: PlanCache::from_env(),
            hub: None,
            operating_point: None,
        }
    }

    /// Attaches an [`ObservabilityHub`]: batch runs publish live
    /// snapshots and health reports through it (one `Arc` swap per frame
    /// arrival) and append one terminal [`FlightEvent`] per frame to its
    /// flight ring. Without a hub the batch paths skip all of this —
    /// observability is strictly opt-in on the hot path.
    pub fn with_hub(mut self, hub: Arc<ObservabilityHub>) -> Self {
        self.hub = Some(hub);
        self
    }

    /// The attached observability hub, if any.
    pub fn hub(&self) -> Option<&Arc<ObservabilityHub>> {
        self.hub.as_ref()
    }

    /// Pins the SLO operating point the session runs under (the
    /// `slo_front` selector's choice from the availability/latency
    /// Pareto front); `/healthz` publishes it so an external controller
    /// can see which policy the service believes it is running.
    pub fn with_operating_point(mut self, op: OperatingPoint) -> Self {
        self.operating_point = Some(op);
        self
    }

    /// The pinned SLO operating point, if any.
    pub fn operating_point(&self) -> Option<&OperatingPoint> {
        self.operating_point.as_ref()
    }

    /// A point-in-time health report from the pool counters
    /// (unbounded-admission paths).
    pub(crate) fn health_report(
        &self,
        phase: &str,
        submitted: u64,
        completed: u64,
        dropped: u64,
    ) -> HealthReport {
        self.health_report_admission(phase, submitted, completed, dropped, "unbounded", 0)
    }

    /// A point-in-time health report carrying the live admission state
    /// (ingest-queue policy label + depth) and the pinned operating
    /// point.
    pub(crate) fn health_report_admission(
        &self,
        phase: &str,
        submitted: u64,
        completed: u64,
        dropped: u64,
        admission_policy: &str,
        admission_depth: u64,
    ) -> HealthReport {
        let panicked = self.pool.panicked_jobs();
        let rejected = self.pool.rejected_jobs();
        HealthReport {
            healthy: rejected == 0,
            phase: phase.to_string(),
            workers: self.pool.workers() as u64,
            panicked_jobs: panicked,
            rejected_jobs: rejected,
            frames_submitted: submitted,
            frames_completed: completed,
            frames_dropped: dropped,
            admission_policy: admission_policy.to_string(),
            admission_depth,
            operating_point: self.operating_point,
        }
    }

    /// Additionally shards tile-level compute *within* each layer across
    /// `shards` threads (see [`Esca::run_layer_sharded_with`]); results stay
    /// bit-identical. Useful when frames are few but large.
    pub fn with_layer_shards(mut self, shards: usize) -> Self {
        self.layer_shards = shards.max(1);
        self
    }

    /// Replaces the session's rulebook cache with a shared one, so
    /// matching work done by other sessions (or earlier host-side runs)
    /// carries over into [`StreamingSession::run_golden_batch`]. The cache
    /// only serves the golden path; simulated [`CycleStats`] never depend
    /// on it.
    pub fn with_rulebook_cache(mut self, cache: Arc<RulebookCache>) -> Self {
        self.rulebook_cache = cache;
        self
    }

    /// The session's rulebook cache (hit/miss counters included).
    pub fn rulebook_cache(&self) -> &Arc<RulebookCache> {
        &self.rulebook_cache
    }

    /// Attaches (or detaches, with `None`) a whole-network geometry
    /// [`PlanCache`]. With a plan cache, the golden path
    /// ([`StreamingSession::run_golden_batch`]) records each distinct
    /// frame geometry's whole-stack plan once and replays it with zero
    /// per-layer cache probes afterwards, and the cycle-model path
    /// ([`StreamingSession::run_batch`]) runs repeated geometries
    /// **matching-resident** (see
    /// [`crate::config::EscaConfig::matching_resident`]). Defaults to
    /// [`PlanCache::from_env`] (`ESCA_PLAN_CACHE=1` enables an unbounded
    /// cache).
    pub fn with_plan_cache(mut self, plans: Option<Arc<PlanCache>>) -> Self {
        self.plan_cache = plans;
        self
    }

    /// The session's whole-network plan cache, if enabled.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
    }

    /// Deterministic per-frame matching-residency hints for a batch: a
    /// frame runs matching-resident exactly when its whole-network
    /// geometry plan already exists — because an earlier frame in this
    /// batch has the same active-set fingerprint, or a previous batch
    /// left the plan resident in the session's [`PlanCache`]. Pure
    /// function of the frame sequence and the cache's pre-batch contents
    /// (probed without touching hit/miss counters), so the hints — and
    /// every cycle statistic derived from them — are byte-identical
    /// across worker and shard counts. Without a plan cache every hint
    /// is `false`.
    fn residency_hints(&self, frames: &[SparseTensor<Q16>]) -> Vec<bool> {
        let Some(plans) = &self.plan_cache else {
            return vec![false; frames.len()];
        };
        let network = stack_network_digest(&self.layers);
        let mut seen = std::collections::HashSet::new();
        frames
            .iter()
            .map(|f| {
                let frame = f.active_fingerprint();
                !seen.insert(frame) || plans.contains(&PlanKey { network, frame })
            })
            .collect()
    }

    /// Selects the GEMM backend for the golden path
    /// ([`StreamingSession::run_golden_batch`]). Quantized accumulation is
    /// integer-exact, so outputs stay bit-identical across backends; this
    /// only trades speed. Defaults to [`GemmBackendKind::from_env`].
    pub fn with_gemm_backend(mut self, backend: GemmBackendKind) -> Self {
        self.gemm_backend = backend;
        self
    }

    /// The GEMM backend used by the golden path.
    pub fn gemm_backend(&self) -> GemmBackendKind {
        self.gemm_backend
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The accelerator configuration clock, MHz.
    pub fn clock_mhz(&self) -> f64 {
        self.esca.config().clock_mhz
    }

    /// Runs a batch of frames through the resident layer stack.
    ///
    /// Frame 0 is charged the DRAM weight load, later frames run with
    /// weights resident — exactly the accounting of
    /// [`Esca::run_network_stream`] — and frames execute concurrently on
    /// the pool. Results are ordered by frame index; per-frame
    /// [`CycleStats`] are bit-identical to the sequential path for any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Propagates the accelerator error of the lowest-indexed failing
    /// frame (deterministic across worker counts).
    pub fn run_batch(&self, frames: &[SparseTensor<Q16>]) -> Result<StreamReport> {
        let n = frames.len();
        // Residency hints are derived sequentially on the calling thread,
        // before any job is submitted, so they cannot depend on worker
        // scheduling.
        let hints = self.residency_hints(frames);
        let mut items: Vec<(usize, LayerOpts)> = (0..n)
            .map(|idx| {
                let opts = LayerOpts {
                    load_weights: idx == 0,
                    matching_resident: hints[idx],
                };
                (idx, opts)
            })
            .collect();
        // Steady-state probe, submitted last: frame 0 re-run with weights
        // resident, so the deployment model knows the pure weight-load
        // overhead (the probe differs from frame 0 only by the weight
        // load). Purely cycle-model work; does not contribute to outputs
        // or wall stats.
        if n > 0 {
            let opts = LayerOpts {
                load_weights: false,
                matching_resident: hints[0],
            };
            items.push((0, opts));
        }
        let queued = items.len();
        let (esca, layers) = (Arc::clone(&self.esca), Arc::clone(&self.layers));
        let shared: Arc<[SparseTensor<Q16>]> = frames.into();
        let shards = self.layer_shards;
        let backend = self.gemm_backend.label();
        let mut live = self.hub.as_deref().map(|hub| (hub, FrameFold::new(shards)));
        let mut frame_wall = vec![Duration::ZERO; n];
        let mut frame_worker = vec![0usize; n];
        let mut completed = 0u64;
        let (results, wall) = self.pool.map(
            items,
            move |(idx, opts)| run_frame(&esca, &layers, &shared[idx], opts, shards),
            |idx, worker, wall, result| {
                if idx >= n {
                    return;
                }
                frame_wall[idx] = wall;
                frame_worker[idx] = worker;
                let Some((hub, live)) = &mut live else { return };
                let mut event = FlightEvent {
                    worker: worker as u64,
                    outcome: if result.is_ok() { "ok" } else { "failed" }.to_string(),
                    backend: backend.to_string(),
                    wall_micros: wall.as_micros() as u64,
                    ..FlightEvent::for_frame(idx as u64)
                };
                if let Ok(run) = result {
                    completed += 1;
                    live.push(idx, 0, worker, wall, run);
                    event.plan_resident = hints[idx];
                    event.cycles = run.1.total_cycles();
                }
                hub.record_flight(event);
                hub.publish_snapshot(live.snapshot());
                hub.publish_health(self.health_report("streaming", n as u64, completed, 0));
            },
        );
        // Index order, so the reported error is the lowest-indexed
        // failing frame's whatever the completion order; the probe sits
        // last.
        let mut runs = results.into_iter().collect::<Result<Vec<_>>>()?;
        let steady_frame0 = if n > 0 {
            runs.pop().map(|(_, stats, _)| stats)
        } else {
            None
        };

        // Two strictly separated registries (DESIGN.md: Observability):
        // the cycle registry folds per-frame simulated telemetry in frame
        // order; the host registry takes wall-clock and scheduling facts
        // and is the only place they may land.
        let mut fold = FrameFold::new(shards);
        // Residency hints are deterministic, so this count is part of the
        // cycle domain; the plan cache's own hit/miss counters are host
        // scheduling facts and stay in the host registry.
        fold.cycle.counter_add(
            "esca_stream_resident_frames_total",
            &[],
            hints.iter().filter(|&&h| h).count() as u64,
        );
        if let Some(plans) = &self.plan_cache {
            plans.record_metrics(&mut fold.host);
        }
        self.record_pool_metrics(&mut fold.host, queued);
        for (idx, run) in runs.iter().enumerate() {
            fold.push(idx, 0, frame_worker[idx], frame_wall[idx], run);
        }
        host::record_wall(&mut fold.host, "esca_batch_wall_micros_total", &[], wall);
        let telemetry = fold.snapshot();
        if let Some(hub) = &self.hub {
            hub.publish_snapshot(telemetry.clone());
            hub.publish_health(self.health_report("done", n as u64, n as u64, 0));
        }
        let (outputs, per_frame) = runs.into_iter().map(|(out, stats, _)| (out, stats)).unzip();
        Ok(StreamReport {
            outputs,
            per_frame,
            frame_wall,
            wall,
            steady_frame0,
            clock_mhz: self.esca.config().clock_mhz,
            workers: self.pool.workers(),
            telemetry,
            frame_spans: fold.spans,
        })
    }

    /// Host facts about the pool every cycle-model batch report carries:
    /// worker count, jobs queued and results the pool could not deliver.
    pub(crate) fn record_pool_metrics(&self, host: &mut Registry, queued: usize) {
        host.gauge_max("esca_stream_workers", &[], self.pool.workers() as u64);
        host.gauge_max("esca_stream_queue_depth", &[], queued as u64);
        // Always zero unless a collector unwound mid-batch; surfaced so a
        // dropped result can never pass silently.
        host.counter_add(
            "esca_results_undelivered_total",
            &[],
            self.pool.undelivered.load(Ordering::Relaxed),
        );
    }

    /// Runs a batch of frames through the resident stack on the
    /// **host-side golden path** ([`Esca::run_network_golden_planned`]): flat
    /// gather → per-tap GEMM → scatter with rulebooks served from the
    /// session's shared [`RulebookCache`] across frames *and* workers.
    /// Static-geometry streams (the paper's AR/VR deployment re-infers the
    /// same voxelized scene as weights or late fusion inputs change) pay
    /// for coordinate matching exactly once for the whole batch — and with
    /// a session [`PlanCache`] attached, repeated geometries replay one
    /// whole-network plan with zero per-layer cache probes. Outputs are
    /// bit-identical to [`StreamingSession::run_batch`]'s, in frame
    /// order; no cycle model runs.
    ///
    /// # Errors
    ///
    /// Propagates the error of the lowest-indexed failing frame
    /// (deterministic across worker counts).
    pub fn run_golden_batch(&self, frames: &[SparseTensor<Q16>]) -> Result<Vec<SparseTensor<Q16>>> {
        let (esca, layers) = (Arc::clone(&self.esca), Arc::clone(&self.layers));
        let cache = Arc::clone(&self.rulebook_cache);
        let (backend, plans) = (self.gemm_backend, self.plan_cache.clone());
        let job = move |frame: SparseTensor<Q16>| {
            esca.run_network_golden_planned(&frame, &layers, &cache, backend, plans.clone())
        };
        let (results, _) = self.pool.map(frames.to_vec(), job, |_, _, _, _| {});
        results.into_iter().collect()
    }

    /// Runs a batch of float frames through a full SS U-Net system
    /// pipeline ([`run_unet`]: Sub-Conv layers on the accelerator, the
    /// rest on the host model), one frame per pool job, largest frames
    /// (by active sites) first. Results are in frame order and identical
    /// to a sequential [`run_unet`] loop.
    ///
    /// # Errors
    ///
    /// Propagates the error of the lowest-indexed failing frame.
    pub fn run_unet_batch(
        &self,
        net: &SsUNet,
        host: &HostModel,
        frames: &[SparseTensor<f32>],
        act_bits: u8,
    ) -> Result<Vec<SystemRun>> {
        let (net, host, esca) = (Arc::new(net.clone()), *host, Arc::clone(&self.esca));
        let job = move |(_, frame): (usize, SparseTensor<f32>)| {
            run_unet(&net, &esca, &host, &frame, act_bits)
        };
        // Largest frames first (active sites stand in for cost): the batch
        // then ends on small frames and the workers finish close together,
        // instead of one idling while the other runs a large last frame.
        let mut items: Vec<(usize, SparseTensor<f32>)> =
            frames.iter().cloned().enumerate().collect();
        items.sort_by_key(|(_, frame)| std::cmp::Reverse(frame.nnz()));
        let order: Vec<usize> = items.iter().map(|&(i, _)| i).collect();
        let (results, _) = self.pool.map(items, job, |_, _, _, _| {});
        let mut runs: Vec<(usize, Result<SystemRun>)> = order.into_iter().zip(results).collect();
        runs.sort_by_key(|&(i, _)| i);
        runs.into_iter().map(|(_, run)| run).collect()
    }
}

/// One frame's slot in a modeled multi-engine schedule (see
/// [`StreamReport::modeled_schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeledSlot {
    /// Frame index within the batch.
    pub frame: usize,
    /// Engine the frame was assigned to.
    pub engine: usize,
    /// Cycle the engine starts the frame.
    pub start_cycle: u64,
    /// Cycles the frame occupies the engine (weight load included for an
    /// engine's first frame).
    pub cycles: u64,
}

/// A modeled multi-engine deployment of a batch: what `engines` ESCA
/// instances on one FPGA would sustain, derived deterministically from
/// the per-frame simulated cycle counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeledDeployment {
    /// Number of accelerator engines modeled.
    pub engines: usize,
    /// Batch makespan in cycles under greedy earliest-finish scheduling.
    pub makespan_cycles: u64,
    /// Sustained throughput at the configured clock, frames per second.
    pub frames_per_s: f64,
    /// Speedup over the single-engine makespan.
    pub speedup: f64,
}

/// Results of one [`StreamingSession::run_batch`] call.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Final layer outputs, in frame order.
    pub outputs: Vec<SparseTensor<Q16>>,
    /// Per-frame cycle statistics, in frame order — bit-identical to
    /// [`Esca::run_network_stream`] on the same batch.
    pub per_frame: Vec<CycleStats>,
    /// Host wall-clock each frame's job took.
    pub frame_wall: Vec<Duration>,
    /// Host wall-clock for the whole batch.
    pub wall: Duration,
    /// Frame 0's stats re-simulated with weights resident (the
    /// steady-state probe); `None` for an empty batch.
    pub steady_frame0: Option<CycleStats>,
    /// The accelerator clock the cycle counts are timed at, MHz.
    pub clock_mhz: f64,
    /// Pool worker count the batch ran with.
    pub workers: usize,
    /// Two-domain metrics snapshot: `cycle` is byte-identical across
    /// worker and shard counts; `host` carries wall latencies and
    /// worker/queue facts.
    pub telemetry: TelemetrySnapshot,
    /// Span-context traces, one per frame in frame order — the source of
    /// the nested frame → attempt → layer Perfetto export
    /// ([`StreamReport::to_span_trace`]).
    pub frame_spans: Vec<FrameSpanTrace>,
}

/// One frame's span-context trace: the [`FrameSpanCtx`] that produced a
/// set of frame-relative per-layer cycle intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSpanTrace {
    /// Which frame, attempt, worker and shard split produced the spans.
    pub ctx: FrameSpanCtx,
    /// Total simulated cycles of the frame (the enclosing span).
    pub total_cycles: u64,
    /// Per-layer intervals, frame-relative simulated cycles.
    pub spans: Vec<LayerSpan>,
}

/// Builds the nested frame → attempt → layer Perfetto export from
/// span-context traces: one process (`pid`) per frame, a single lane
/// (`tid` 0) whose slices nest by containment — the frame span encloses
/// the attempt span, which encloses the layer spans. Every `ts`/`dur`
/// derives from simulated cycles, so the export's cycle half is
/// byte-identical across `(workers, shards)` splits; host facts (worker
/// index, shard count) ride only in `args.detail`.
pub fn span_chrome_trace(frames: &[FrameSpanTrace]) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    for f in frames {
        let pid = f.ctx.frame as u32;
        let detail = format!("worker {} shards {}", f.ctx.worker, f.ctx.shards);
        trace.push_complete(
            "frame",
            &format!("frame {}", f.ctx.frame),
            0,
            f.total_cycles,
            pid,
            0,
            &detail,
        );
        trace.push_complete(
            "attempt",
            &format!("attempt {}", f.ctx.attempt),
            0,
            f.total_cycles,
            pid,
            0,
            &detail,
        );
        for s in &f.spans {
            trace.push_complete(
                "layer",
                &format!("layer {}", s.layer),
                s.start_cycle,
                s.end_cycle.saturating_sub(s.start_cycle),
                pid,
                0,
                if s.matching_resident {
                    "matching_resident"
                } else {
                    "matching"
                },
            );
        }
    }
    trace
}

impl StreamReport {
    /// Number of frames in the batch.
    pub fn frames(&self) -> usize {
        self.per_frame.len()
    }

    /// Host frames per second (wall-clock; varies with worker count and
    /// machine — the simulated numbers below do not).
    pub fn wall_fps(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.frames() as f64 / s
        } else {
            0.0
        }
    }

    /// Nearest-rank percentile of the per-frame host wall times.
    ///
    /// `p` is a percent and is clamped to `[0, 100]`; a non-finite `p`
    /// (NaN, ±∞) is treated as 0. Returns [`Duration::ZERO`] for an
    /// empty batch. The rank is additionally clamped to the last sample,
    /// so the call is total for every `(p, batch)` combination.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        if self.frame_wall.is_empty() {
            return Duration::ZERO;
        }
        let p = if p.is_finite() {
            p.clamp(0.0, 100.0)
        } else {
            0.0
        };
        let mut sorted = self.frame_wall.clone();
        sorted.sort();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        let rank = rank.min(sorted.len() - 1);
        sorted[rank]
    }

    /// Total simulated cycles of the sequential single-engine timeline
    /// (the sum of per-frame totals — what `run_network_stream` models).
    pub fn sequential_cycles(&self) -> u64 {
        self.per_frame.iter().map(|s| s.total_cycles()).sum()
    }

    /// Weight-load overhead cycles charged to frame 0 (frame 0 total
    /// minus its steady-state probe total).
    pub fn weight_load_cycles(&self) -> u64 {
        match (self.per_frame.first(), &self.steady_frame0) {
            (Some(f0), Some(steady)) => f0.total_cycles().saturating_sub(steady.total_cycles()),
            _ => 0,
        }
    }

    /// Per-frame steady-state cycles (weights resident): the probe total
    /// for frame 0, the measured totals for the rest.
    pub fn steady_frame_cycles(&self) -> Vec<u64> {
        self.per_frame
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == 0 {
                    self.steady_frame0
                        .as_ref()
                        .map_or_else(|| s.total_cycles(), CycleStats::total_cycles)
                } else {
                    s.total_cycles()
                }
            })
            .collect()
    }

    /// Exports the span-context traces as a nested Perfetto trace:
    /// frame → attempt → layer slices (see [`span_chrome_trace`]'s
    /// nesting and determinism contract).
    pub fn to_span_trace(&self) -> ChromeTrace {
        span_chrome_trace(&self.frame_spans)
    }

    /// Aggregate effective GOPS over the batch on the simulated timeline
    /// (total effective ops over total cycles at the configured clock).
    pub fn aggregate_gops(&self) -> f64 {
        let ops: u64 = self.per_frame.iter().map(CycleStats::effective_ops).sum();
        let cycles = self.sequential_cycles();
        if cycles == 0 {
            return 0.0;
        }
        let t = cycles as f64 / (self.clock_mhz * 1e6);
        ops as f64 / t / 1e9
    }

    /// Models deploying the batch on `engines` parallel accelerator
    /// instances: frames are assigned in order to the earliest-finishing
    /// engine, each engine pays the weight-load overhead once (its first
    /// frame), and the makespan is the latest engine finish. Pure u64
    /// arithmetic over the simulated per-frame cycles, so the result is
    /// byte-identical across runs and pool worker counts.
    pub fn modeled(&self, engines: usize) -> ModeledDeployment {
        let engines = engines.max(1);
        let makespan = |n: usize| -> u64 {
            self.modeled_schedule(n)
                .iter()
                .map(|s| s.start_cycle + s.cycles)
                .max()
                .unwrap_or(0)
        };
        let span = makespan(engines);
        let single = makespan(1);
        let frames_per_s = if span > 0 {
            self.frames() as f64 / (span as f64 / (self.clock_mhz * 1e6))
        } else {
            0.0
        };
        ModeledDeployment {
            engines,
            makespan_cycles: span,
            frames_per_s,
            speedup: if span > 0 {
                single as f64 / span as f64
            } else {
                1.0
            },
        }
    }

    /// The full frame-to-engine schedule behind [`StreamReport::modeled`]:
    /// frames are assigned in order to the earliest-finishing of `engines`
    /// engines (ties break to the lowest index), each engine paying the
    /// weight-load overhead on its first frame. Pure u64 arithmetic over
    /// simulated per-frame cycles — byte-identical across runs and pool
    /// worker counts.
    pub fn modeled_schedule(&self, engines: usize) -> Vec<ModeledSlot> {
        let engines = engines.max(1);
        let steady = self.steady_frame_cycles();
        let overhead = self.weight_load_cycles();
        let mut finish = vec![0u64; engines];
        let mut used = vec![false; engines];
        let mut slots = Vec::with_capacity(steady.len());
        for (frame, &c) in steady.iter().enumerate() {
            // Earliest-finishing engine; ties break to the lowest index,
            // keeping the schedule deterministic.
            let e = (0..engines)
                .min_by_key(|&i| finish[i])
                .expect("engines >= 1");
            let dur = c + if used[e] { 0 } else { overhead };
            slots.push(ModeledSlot {
                frame,
                engine: e,
                start_cycle: finish[e],
                cycles: dur,
            });
            finish[e] += dur;
            used[e] = true;
        }
        slots
    }

    /// Exports the modeled `engines`-engine deployment as a Chrome
    /// trace-event / Perfetto trace: one thread lane per engine, one
    /// complete (`"X"`) event per frame, timestamps in simulated cycles.
    /// Deterministic for any worker count (it is derived purely from
    /// [`StreamReport::modeled_schedule`]).
    pub fn to_chrome_trace(&self, engines: usize) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        for slot in self.modeled_schedule(engines) {
            trace.push_complete(
                "engine",
                &format!("frame {}", slot.frame),
                slot.start_cycle,
                slot.cycles,
                0,
                slot.engine as u32,
                &format!("engine {}", slot.engine),
            );
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EscaConfig;
    use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
    use esca_sscn::weights::ConvWeights;
    use esca_tensor::{Coord3, Extent3, QuantParams};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn frame(seed: u64) -> SparseTensor<Q16> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut t = SparseTensor::<f32>::new(Extent3::cube(16), 2);
        for _ in 0..40 {
            let c = Coord3::new(
                rng.gen_range(0..16),
                rng.gen_range(0..16),
                rng.gen_range(0..16),
            );
            let f: Vec<f32> = (0..2).map(|_| rng.gen_range(-2.0..2.0)).collect();
            t.insert(c, &f).unwrap();
        }
        t.canonicalize();
        quantize_tensor(&t, QuantParams::new(8).unwrap())
    }

    fn layers() -> Vec<(QuantizedWeights, bool)> {
        vec![
            (
                QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 8, 21), 8, 10).unwrap(),
                true,
            ),
            (
                QuantizedWeights::auto(&ConvWeights::seeded(3, 8, 4, 22), 8, 10).unwrap(),
                false,
            ),
        ]
    }

    #[test]
    fn pool_runs_jobs_and_joins_on_drop() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        let (tx, rx) = channel::unbounded();
        for i in 0..20usize {
            let tx = tx.clone();
            pool.execute(move |worker| {
                assert!(worker < 3, "worker index out of range");
                tx.send(i * i).expect("collector alive");
            })
            .expect("pool accepts jobs before drop");
        }
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(pool.panicked_jobs(), 0);
        assert_eq!(pool.rejected_jobs(), 0);
        drop(pool); // joins without hanging
    }

    #[test]
    fn panicked_jobs_do_not_shrink_the_pool() {
        // Regression: before jobs ran under catch_unwind, one panicking
        // job killed its worker thread for the life of the pool. With two
        // workers and two panics, every later job would hang forever and
        // the batch would silently lose frames. Now the workers survive,
        // the panics are counted, and all later jobs still complete.
        crate::resilience::quiet_injected_panics();
        let pool = WorkerPool::new(2);
        for frame in 0..2usize {
            pool.execute(move |_| crate::resilience::injected_panic(frame))
                .expect("pool accepts jobs before drop");
        }
        let (tx, rx) = channel::unbounded();
        for i in 0..10usize {
            let tx = tx.clone();
            pool.execute(move |_| tx.send(i).expect("collector alive"))
                .expect("pool accepts jobs before drop");
        }
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>(), "pool lost jobs");
        assert_eq!(pool.panicked_jobs(), 2);
    }

    #[test]
    fn map_returns_results_in_index_order_for_any_worker_count() {
        for workers in [1usize, 2, 5] {
            let pool = WorkerPool::new(workers);
            let mut arrivals = Vec::new();
            let (results, _) = pool.map(
                (0..23u64).collect(),
                |i| Ok(i * i),
                |idx, worker, _, result| {
                    assert!(worker < workers, "worker index out of range");
                    assert_eq!(result.as_ref().ok(), Some(&(idx as u64 * idx as u64)));
                    arrivals.push(idx);
                },
            );
            let got: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, (0..23u64).map(|i| i * i).collect::<Vec<_>>());
            arrivals.sort_unstable();
            assert_eq!(arrivals, (0..23).collect::<Vec<_>>(), "one arrival each");
        }
    }

    #[test]
    fn map_returns_only_after_its_workers_are_back_at_the_queue() {
        // The worker that delivers a batch's last result is often
        // pre-empted by the caller it wakes; map must still not return
        // before that worker has finished its job.
        let pool = WorkerPool::new(2);
        let mut submitted = 0;
        for round in 0..200u64 {
            let (results, _) =
                pool.map((0..3u64).collect(), move |i| Ok(i + round), |_, _, _, _| {});
            submitted += results.len() as u64;
            assert_eq!(pool.finished_jobs(), submitted, "round {round}");
        }
    }

    fn unet_frame(sites: i32, channels: usize) -> SparseTensor<f32> {
        let mut t = SparseTensor::new(Extent3::cube(24), channels);
        for i in 0..sites {
            let f: Vec<f32> = (0..channels)
                .map(|c| 0.1 + 0.01 * (i + c as i32) as f32)
                .collect();
            t.insert(Coord3::new((i * 7) % 20, (i * 3) % 20, (i * 5) % 20), &f)
                .unwrap();
        }
        t.canonicalize();
        t
    }

    #[test]
    fn unet_batch_runs_frames_out_of_order_but_reports_in_frame_order() {
        // Frame sizes out of order, so the largest-first schedule runs
        // them in a different order than they are returned.
        let net = SsUNet::new(esca_sscn::unet::UNetConfig {
            input_channels: 1,
            levels: 2,
            base_channels: 8,
            blocks_per_level: 1,
            classes: 4,
            kernel: 3,
            seed: 5,
        })
        .unwrap();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let host = HostModel::default();
        let session = StreamingSession::new(esca.clone(), Vec::new(), 2);
        let frames: Vec<SparseTensor<f32>> = [20, 60, 35, 80, 10]
            .iter()
            .map(|&n| unet_frame(n, 1))
            .collect();
        let runs = session.run_unet_batch(&net, &host, &frames, 8).unwrap();
        assert_eq!(runs.len(), frames.len());
        for (i, (frame, got)) in frames.iter().zip(&runs).enumerate() {
            let want = run_unet(&net, &esca, &host, frame, 8).unwrap();
            assert_eq!(got.logits.coords(), want.logits.coords(), "frame {i}");
            let bits = |t: &SparseTensor<f32>| -> Vec<u32> {
                t.features().iter().map(|f| f.to_bits()).collect()
            };
            assert_eq!(bits(&got.logits), bits(&want.logits), "frame {i}");
            assert_eq!(got.accel, want.accel, "frame {i}");
        }

        // The error reported is the lowest-indexed failing frame's, even
        // though the larger failing frame 3 runs first.
        let mut bad = frames;
        bad[1] = unet_frame(10, 3);
        bad[3] = unet_frame(80, 2);
        let want = run_unet(&net, &esca, &host, &bad[1], 8).unwrap_err();
        let other = run_unet(&net, &esca, &host, &bad[3], 8).unwrap_err();
        assert_ne!(want, other, "the two failures must be distinguishable");
        assert_eq!(
            session.run_unet_batch(&net, &host, &bad, 8).unwrap_err(),
            want
        );
    }

    #[test]
    fn map_turns_a_panicking_job_into_a_typed_error_for_its_item_only() {
        // A panicking job must cost only its own item: the item gets a
        // typed error, the caller does not panic, the other items
        // complete and the pool keeps serving later batches.
        crate::resilience::quiet_injected_panics();
        let pool = WorkerPool::new(2);
        for k in [0usize, 3, 6] {
            let (results, _) = pool.map(
                (0..7usize).collect(),
                move |i| {
                    if i == k {
                        crate::resilience::injected_panic(i);
                    }
                    Ok(i + 100)
                },
                |_, _, _, _| {},
            );
            for (i, r) in results.iter().enumerate() {
                if i == k {
                    assert_eq!(r, &Err(crate::EscaError::WorkerPanic { frame: k }));
                } else {
                    assert_eq!(r, &Ok(i + 100));
                }
            }
        }
        assert_eq!(pool.panicked_jobs(), 3);
        let (later, _) = pool.map(vec![1, 2, 3], |i: i32| Ok(-i), |_, _, _, _| {});
        assert_eq!(later, vec![Ok(-1), Ok(-2), Ok(-3)]);
    }

    #[test]
    fn batch_matches_sequential_stream_accounting() {
        let frames: Vec<_> = (0..4).map(frame).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let seq = esca.run_network_stream(&frames, &layers()).unwrap();
        let session = StreamingSession::new(esca, layers(), 3);
        let report = session.run_batch(&frames).unwrap();
        assert_eq!(report.per_frame, seq);
        assert_eq!(report.frames(), 4);
        // Frame 0 carries the weight load; the probe shows it.
        assert!(report.weight_load_cycles() > 0);
    }

    #[test]
    fn batch_outputs_match_per_frame_network_runs() {
        let frames: Vec<_> = (0..3).map(|i| frame(i + 50)).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca.clone(), layers(), 2);
        let report = session.run_batch(&frames).unwrap();
        for (f, out) in frames.iter().zip(&report.outputs) {
            let net = esca.run_network(f, &layers()).unwrap();
            assert!(net.output.same_content(out));
        }
    }

    #[test]
    fn golden_batch_matches_cycle_batch_outputs() {
        let frames: Vec<_> = (0..3).map(|i| frame(i + 90)).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 2);
        let report = session.run_batch(&frames).unwrap();
        let golden = session.run_golden_batch(&frames).unwrap();
        assert_eq!(golden.len(), 3);
        for (g, o) in golden.iter().zip(&report.outputs) {
            assert_eq!(g.coords(), o.coords(), "storage order differs");
            assert_eq!(g.features(), o.features(), "values not bitwise equal");
        }
    }

    #[test]
    fn golden_batch_shares_matching_across_frames_and_sessions() {
        // Static geometry: every frame carries the same active set, so the
        // whole batch costs one rulebook build. One worker keeps the
        // hit/miss split deterministic (concurrent first lookups may race
        // to build). Plan cache explicitly detached: this test pins the
        // per-layer probe counts, which a plan replay would (by design)
        // freeze after the first frame.
        let frames: Vec<_> = (0..4).map(|_| frame(123)).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 1).with_plan_cache(None);
        let out = session.run_golden_batch(&frames).unwrap();
        assert_eq!(out.len(), 4);
        let cache = session.rulebook_cache();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
        // A pre-warmed shared cache carries over into another session.
        let esca2 = Esca::new(EscaConfig::default()).unwrap();
        let session2 = StreamingSession::new(esca2, layers(), 2)
            .with_rulebook_cache(Arc::clone(cache))
            .with_plan_cache(None);
        let out2 = session2.run_golden_batch(&frames[..1]).unwrap();
        assert_eq!(out2[0].features(), out[0].features());
        assert_eq!(session2.rulebook_cache().misses(), 1, "no new builds");
    }

    #[test]
    fn static_scene_batch_goes_matching_resident_after_frame_zero() {
        // 6 frames of identical geometry: with a plan cache attached,
        // frame 0 pays the matching pass and every later frame runs
        // matching-resident — zero match cycles, zero scan work.
        let frames: Vec<_> = (0..6).map(|_| frame(321)).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let baseline = StreamingSession::new(esca.clone(), layers(), 2)
            .with_plan_cache(None)
            .run_batch(&frames)
            .unwrap();
        let session = StreamingSession::new(esca, layers(), 2)
            .with_plan_cache(Some(Arc::new(PlanCache::new())));
        let report = session.run_batch(&frames).unwrap();
        // Outputs are bit-identical with and without residency.
        for (a, b) in report.outputs.iter().zip(&baseline.outputs) {
            assert_eq!(a.coords(), b.coords());
            assert_eq!(a.features(), b.features());
        }
        assert!(!report.per_frame[0].matching_resident);
        assert!(report.per_frame[0].match_cycles > 0);
        for f in &report.per_frame[1..] {
            assert!(f.matching_resident);
            assert_eq!(f.match_cycles, 0);
            assert_eq!(f.scanned_sites, 0);
            assert_eq!(f.mask_bits_read, 0);
            assert_eq!(f.fifo_pushes, 0);
            assert_eq!(f.zero_removing_cycles, 0);
            assert!(f.total_cycles() < report.per_frame[0].total_cycles());
        }
        // The resident-frame count lands in the cycle-domain registry.
        assert!(report
            .telemetry
            .cycle
            .counters
            .iter()
            .any(|c| c.name == "esca_stream_resident_frames_total" && c.value == 5));
        // A fresh batch over the same session starts resident immediately:
        // the hint probe sees the plans left by run_golden_batch.
        let golden = session.run_golden_batch(&frames[..1]).unwrap();
        assert_eq!(golden[0].features(), report.outputs[0].features());
        let warm = session.run_batch(&frames[..2]).unwrap();
        assert!(warm.per_frame[0].matching_resident, "warm plan not probed");
        assert!(warm.per_frame[1].matching_resident);
    }

    #[test]
    fn resident_cycle_telemetry_is_identical_across_worker_and_shard_splits() {
        // The plan-cache residency hints are derived before scheduling, so
        // the cycle-domain snapshot stays byte-identical for every
        // (workers, layer_shards) split even though resident frames take a
        // different accounting path.
        let frames: Vec<_> = (0..4).map(|_| frame(77)).collect();
        let mut snapshots = Vec::new();
        for (workers, shards) in [(1usize, 1usize), (3, 1), (2, 2)] {
            let esca = Esca::new(EscaConfig::default()).unwrap();
            let session = StreamingSession::new(esca, layers(), workers)
                .with_layer_shards(shards)
                .with_plan_cache(Some(Arc::new(PlanCache::new())));
            let report = session.run_batch(&frames).unwrap();
            snapshots.push(report.telemetry.cycle);
        }
        assert_eq!(snapshots[0], snapshots[1]);
        assert_eq!(snapshots[0], snapshots[2]);
    }

    #[test]
    fn golden_batch_replays_whole_network_plans() {
        // Static scene, one worker: frame 0 records the whole-network
        // plan, frames 1..N replay it with zero per-layer cache probes.
        let frames: Vec<_> = (0..4).map(|_| frame(123)).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let plans = Arc::new(PlanCache::new());
        let session =
            StreamingSession::new(esca, layers(), 1).with_plan_cache(Some(Arc::clone(&plans)));
        let out = session.run_golden_batch(&frames).unwrap();
        assert_eq!((plans.misses(), plans.hits()), (1, 3));
        assert!((plans.hit_rate() - 0.75).abs() < 1e-12);
        // Recording frame 0 probed the per-layer cache once per layer;
        // the three replays added nothing.
        let cache = session.rulebook_cache();
        assert_eq!(cache.misses() + cache.hits(), 2, "replays probed the cache");
        // Replayed outputs are bit-identical to the recorded frame's.
        for o in &out[1..] {
            assert_eq!(o.features(), out[0].features());
        }
    }

    #[test]
    fn modeled_deployment_scales_and_is_deterministic() {
        let frames: Vec<_> = (0..8).map(|i| frame(i + 7)).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 4);
        let report = session.run_batch(&frames).unwrap();
        let m1 = report.modeled(1);
        let m4 = report.modeled(4);
        assert_eq!(m1.makespan_cycles, report.modeled(1).makespan_cycles);
        assert!(m4.makespan_cycles < m1.makespan_cycles);
        assert!(m4.speedup > 1.0);
        assert!(m4.frames_per_s > m1.frames_per_s);
        // Single-engine modeled makespan equals the steady timeline plus
        // one weight load.
        let expected: u64 =
            report.steady_frame_cycles().iter().sum::<u64>() + report.weight_load_cycles();
        assert_eq!(m1.makespan_cycles, expected);
    }

    #[test]
    fn latency_percentile_is_total_over_p() {
        let frames: Vec<_> = (0..4).map(frame).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 2);
        let report = session.run_batch(&frames).unwrap();
        let min = *report.frame_wall.iter().min().unwrap();
        let max = *report.frame_wall.iter().max().unwrap();
        // In-range percentiles bracket between min and max.
        let p50 = report.latency_percentile(50.0);
        assert!(min <= p50 && p50 <= max);
        // Out-of-range and non-finite p clamp instead of panicking.
        assert_eq!(report.latency_percentile(-10.0), min);
        assert_eq!(report.latency_percentile(250.0), max);
        assert_eq!(report.latency_percentile(f64::INFINITY), min);
        assert_eq!(report.latency_percentile(f64::NEG_INFINITY), min);
        assert_eq!(report.latency_percentile(f64::NAN), min);
        assert_eq!(report.latency_percentile(0.0), min);
        assert_eq!(report.latency_percentile(100.0), max);
    }

    #[test]
    fn cycle_telemetry_is_identical_across_worker_counts() {
        let frames: Vec<_> = (0..4).map(|i| frame(i + 300)).collect();
        let mut snapshots = Vec::new();
        for workers in [1usize, 3] {
            let esca = Esca::new(EscaConfig::default()).unwrap();
            let session = StreamingSession::new(esca, layers(), workers);
            let report = session.run_batch(&frames).unwrap();
            // Cycle-domain series must exist...
            assert!(report
                .telemetry
                .cycle
                .counters
                .iter()
                .any(|c| c.name == "esca_cycles_total"));
            assert!(report
                .telemetry
                .cycle
                .histograms
                .iter()
                .any(|h| h.name == "esca_frame_cycles" && h.count == 4));
            // ...and wall-clock only in the host domain.
            assert!(!report
                .telemetry
                .cycle
                .histograms
                .iter()
                .any(|h| h.name.contains("wall")));
            assert!(report
                .telemetry
                .host
                .histograms
                .iter()
                .any(|h| h.name == "esca_frame_wall_micros" && h.count == 4));
            let per_worker: u64 = report
                .telemetry
                .host
                .counters
                .iter()
                .filter(|c| c.name == "esca_worker_frames_total")
                .map(|c| c.value)
                .sum();
            assert_eq!(per_worker, 4, "every frame attributed to a worker");
            snapshots.push(report.telemetry.cycle);
        }
        assert_eq!(snapshots[0], snapshots[1]);
    }

    #[test]
    fn modeled_schedule_backs_the_deployment_and_trace() {
        let frames: Vec<_> = (0..6).map(|i| frame(i + 11)).collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 2);
        let report = session.run_batch(&frames).unwrap();
        let schedule = report.modeled_schedule(3);
        assert_eq!(schedule.len(), 6);
        // The schedule's makespan is exactly what modeled() reports.
        let span = schedule.iter().map(|s| s.start_cycle + s.cycles).max();
        assert_eq!(span, Some(report.modeled(3).makespan_cycles));
        // Slots on one engine never overlap.
        for a in &schedule {
            for b in &schedule {
                if a.frame != b.frame && a.engine == b.engine {
                    let disjoint = a.start_cycle + a.cycles <= b.start_cycle
                        || b.start_cycle + b.cycles <= a.start_cycle;
                    assert!(disjoint, "overlap on engine {}", a.engine);
                }
            }
        }
        // The trace mirrors the schedule one event per frame.
        let trace = report.to_chrome_trace(3);
        assert_eq!(trace.len(), 6);
        for (ev, slot) in trace.traceEvents.iter().zip(&schedule) {
            assert_eq!(ev.ph, "X");
            assert_eq!(ev.ts, slot.start_cycle);
            assert_eq!(ev.dur, slot.cycles);
            assert_eq!(ev.tid, slot.engine as u32);
        }
    }

    #[test]
    fn empty_batch_is_trivial() {
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 2);
        let report = session.run_batch(&[]).unwrap();
        assert_eq!(report.frames(), 0);
        assert_eq!(report.wall_fps(), 0.0);
        assert_eq!(report.latency_percentile(50.0), Duration::ZERO);
        assert_eq!(report.modeled(4).makespan_cycles, 0);
    }

    #[test]
    fn frame_errors_surface_deterministically() {
        // Channel mismatch on every frame: the reported error must be
        // frame 0's regardless of completion order.
        let bad: Vec<_> = (0..3)
            .map(|s| {
                let mut rng = ChaCha12Rng::seed_from_u64(s);
                let mut t = SparseTensor::<f32>::new(Extent3::cube(8), 3);
                t.insert(Coord3::new(rng.gen_range(0..8), 1, 1), &[1.0, 2.0, 3.0])
                    .unwrap();
                t.canonicalize();
                quantize_tensor(&t, QuantParams::new(8).unwrap())
            })
            .collect();
        let esca = Esca::new(EscaConfig::default()).unwrap();
        let session = StreamingSession::new(esca, layers(), 2);
        assert!(matches!(
            session.run_batch(&bad),
            Err(crate::EscaError::ChannelMismatch { .. })
        ));
        // The golden path surfaces the mismatch too (wrapped golden-model
        // error rather than the accelerator's own variant).
        assert!(session.run_golden_batch(&bad).is_err());
    }
}
