//! Committed byte-identity oracle for the batch frame drivers.
//!
//! The split-equivalence suites compare worker/shard splits *within one
//! build*; they cannot catch a change to a frame driver that alters every
//! split the same way. This fixture pins, as data committed to the
//! repository, everything a seeded 2-worker batch produces on the
//! deterministic side of the driver:
//!
//! * `run_batch`: outputs, per-frame `CycleStats`, the steady-state
//!   probe, the cycle-domain telemetry snapshot and the nested span trace;
//! * `run_golden_batch`: outputs;
//! * a `FaultConfig::campaign` `run_batch_ingest` run with a hub: the
//!   campaign summary (one line per frame report), the cycle-domain
//!   telemetry snapshot and the flight ring, one terminal event per frame.
//!
//! Host facts (worker index, wall time) are scrubbed; everything else must
//! match byte for byte.
//!
//! Regenerate (after an *intentional* change to driver output) with:
//! `cargo test -p esca --test stream_digest -- --ignored regenerate`
//! and commit the rewritten file.

use esca::admission::{AdmissionConfig, Arrival, TenantQuota};
use esca::resilience::{CampaignSummary, FaultClass, FaultConfig};
use esca::streaming::StreamingSession;
use esca::{CycleStats, Esca, EscaConfig};
use esca_sscn::gemm::GemmBackendKind;
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_sscn::weights::ConvWeights;
use esca_telemetry::serve::ObservabilityHub;
use esca_telemetry::{ChromeTrace, FlightEvent, MetricsSnapshot};
use esca_tensor::{Coord3, Extent3, QuantParams, SparseTensor, Q16};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

type Entries = Vec<((i32, i32, i32), Vec<i16>)>;

#[derive(Serialize)]
struct StreamDigest {
    batch_outputs: Vec<Entries>,
    batch_per_frame: Vec<CycleStats>,
    batch_steady_frame0: Option<CycleStats>,
    batch_cycle_telemetry: MetricsSnapshot,
    batch_span_trace: ChromeTrace,
    golden_outputs: Vec<Entries>,
    ingest_summary: CampaignSummary,
    ingest_cycle_telemetry: MetricsSnapshot,
    ingest_flight: Vec<FlightEvent>,
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/stream_digest.json")
}

fn frame(seed: u64) -> SparseTensor<Q16> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut t = SparseTensor::<f32>::new(Extent3::cube(14), 2);
    let n = rng.gen_range(30..90);
    for _ in 0..n {
        let c = Coord3::new(
            rng.gen_range(0..14),
            rng.gen_range(0..14),
            rng.gen_range(0..14),
        );
        let f: Vec<f32> = (0..2).map(|_| rng.gen_range(-2.0..2.0)).collect();
        t.insert(c, &f).unwrap();
    }
    t.canonicalize();
    quantize_tensor(&t, QuantParams::new(8).unwrap())
}

fn stack() -> Vec<(QuantizedWeights, bool)> {
    vec![
        (
            QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 8, 0xD1), 8, 10).unwrap(),
            true,
        ),
        (
            QuantizedWeights::auto(&ConvWeights::seeded(3, 8, 4, 0xD2), 8, 10).unwrap(),
            false,
        ),
    ]
}

fn entries(t: &SparseTensor<Q16>) -> Entries {
    t.iter()
        .map(|(c, f)| ((c.x, c.y, c.z), f.iter().map(|q| q.0).collect()))
        .collect()
}

/// A 2-worker session with every env-driven default pinned, so the digest
/// is the same under any `ESCA_GEMM_BACKEND` / `ESCA_PLAN_CACHE`.
fn session() -> StreamingSession {
    StreamingSession::new(Esca::new(EscaConfig::default()).unwrap(), stack(), 2)
        .with_gemm_backend(GemmBackendKind::ScalarRef)
        .with_plan_cache(None)
}

/// Drops the worker index from the span trace's host-only detail field.
fn scrub_trace(mut trace: ChromeTrace) -> ChromeTrace {
    for ev in &mut trace.traceEvents {
        if let Some(at) = ev.args.detail.find("shards") {
            ev.args.detail = ev.args.detail[at..].to_string();
        }
    }
    trace
}

fn digest() -> String {
    // Repeated geometry (frames 0 and 3) keeps the steady-state and
    // golden-cache paths honest.
    let frames: Vec<_> = [11u64, 12, 13, 11, 14, 15]
        .iter()
        .map(|&s| frame(s))
        .collect();
    let s = session();
    let batch = s.run_batch(&frames).unwrap();
    let golden = s.run_golden_batch(&frames).unwrap();

    // Ingest: a 10-frame two-tenant burst through a depth-6 queue under
    // the full fault campaign — admitted, degraded, shed/rejected frames
    // and injected worker panics all land in one run.
    let ingest_frames: Vec<_> = (0..10).map(|i| frame(0x5EED + i)).collect();
    let arrivals: Vec<Arrival> = (0..ingest_frames.len())
        .map(|i| Arrival {
            frame: i,
            tenant: (i % 2) as u32,
            at_cycle: 0,
        })
        .collect();
    let admission = AdmissionConfig {
        queue_depth: 6,
        drain_cycles: u64::MAX,
        degrade_occupancy_pct: 50,
        tenants: vec![
            TenantQuota {
                tenant: 0,
                cycles_per_token: 0,
                burst: 0,
                priority: 1,
            },
            TenantQuota {
                tenant: 1,
                cycles_per_token: 0,
                burst: 0,
                priority: 0,
            },
        ],
        ..AdmissionConfig::default()
    };
    let cfg = FaultConfig::campaign(0xC4A05);
    let hub = Arc::new(ObservabilityHub::new());
    let ingest = session()
        .with_hub(Arc::clone(&hub))
        .run_batch_ingest(&ingest_frames, &arrivals, &cfg, &admission)
        .unwrap();
    assert!(
        ingest.counters.injected[FaultClass::WorkerPanic as usize] > 0,
        "campaign must inject at least one worker panic"
    );
    assert!(ingest.counters.dropped_frames > 0, "admission must drop");
    assert!(
        ingest.counters.degraded_frames > 0,
        "admission must degrade"
    );
    let mut flight = hub.flight_dump().events;
    flight.sort_by_key(|e| e.frame);
    for ev in &mut flight {
        ev.worker = 0;
        ev.wall_micros = 0;
    }

    let digest = StreamDigest {
        batch_outputs: batch.outputs.iter().map(entries).collect(),
        batch_per_frame: batch.per_frame.clone(),
        batch_steady_frame0: batch.steady_frame0.clone(),
        batch_cycle_telemetry: batch.telemetry.cycle.clone(),
        batch_span_trace: scrub_trace(batch.to_span_trace()),
        golden_outputs: golden.iter().map(entries).collect(),
        ingest_summary: ingest.summary(),
        ingest_cycle_telemetry: ingest.telemetry.cycle.clone(),
        ingest_flight: flight,
    };
    serde_json::to_string_pretty(&digest).unwrap()
}

#[test]
fn stream_drivers_match_committed_digest() {
    let got = digest();
    let expected = std::fs::read_to_string(fixture_path())
        .expect("fixture missing — run the ignored `regenerate` test once and commit the file");
    if got != expected {
        let first = got
            .lines()
            .zip(expected.lines())
            .position(|(g, e)| g != e)
            .unwrap_or_else(|| got.lines().count().min(expected.lines().count()));
        panic!(
            "stream digest drifted from the committed fixture at line {}: got {:?}, expected {:?}",
            first + 1,
            got.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}

#[test]
#[ignore = "writes the fixture; run once after an intentional driver change"]
fn regenerate() {
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), digest()).unwrap();
}
