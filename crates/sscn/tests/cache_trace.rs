//! Committed request trace for the two byte-budgeted geometry caches.
//!
//! The eviction and interleaving suites check LRU properties *within one
//! build*; they cannot catch a change that shifts which entry is evicted
//! when, or how a counter moves, as long as the outputs stay correct. This
//! fixture pins, as data committed to the repository, the full observable
//! behaviour of [`RulebookCache`] and [`PlanCache`] over one seeded request
//! sequence across eight geometries — once under a budget that holds about
//! two entries and once unbounded:
//!
//! * per request: whether it hit, plus `hits`, `misses`, `evictions`,
//!   `len` and `bytes` after it;
//! * for the plan cache, a redundant insert of an already resident key on
//!   some hits, which must hand back the resident plan;
//! * the final `record_metrics` Prometheus text.
//!
//! Regenerate (after an *intentional* change to cache behaviour) with:
//! `cargo test -p esca-sscn --test cache_trace -- --ignored regenerate`
//! and commit the rewritten file.

use esca_sscn::engine::RulebookCache;
use esca_sscn::plan::{GeometryPlan, PlanCache, PlanKey, PlanStep};
use esca_sscn::rulebook::Rulebook;
use esca_telemetry::Registry;
use esca_tensor::{Coord3, Extent3, SparseTensor};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;

const GEOMETRIES: u64 = 8;
const REQUESTS: usize = 64;
const NETWORK: u64 = 0x7472_6163_6530_3031;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cache_trace.json")
}

/// Geometry `seed`: a distinct active set per seed, sized by the seed so
/// entries differ in bytes.
fn geometry(seed: u64) -> SparseTensor<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xCAC4E + seed);
    let mut t = SparseTensor::new(Extent3::cube(12), 1);
    for _ in 0..(30 + 6 * seed) {
        let c = Coord3::new(
            rng.gen_range(0..12),
            rng.gen_range(0..12),
            rng.gen_range(0..12),
        );
        let _ = t.insert(c, &[1.0]);
    }
    t.canonicalize();
    t
}

/// The seeded request sequence: geometry indices skewed towards the low
/// seeds, so the trace mixes hot re-requests with cold misses.
fn requests() -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    (0..REQUESTS)
        .map(|_| {
            let a = rng.gen_range(0..GEOMETRIES as usize);
            let b = rng.gen_range(0..GEOMETRIES as usize);
            a.min(b)
        })
        .collect()
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Step {
    geometry: usize,
    hit: bool,
    hits: u64,
    misses: u64,
    evictions: u64,
    len: usize,
    bytes: usize,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Run {
    capacity_bytes: Option<usize>,
    steps: Vec<Step>,
    /// Per redundant plan insert: whether it returned the resident plan.
    resident_on_reinsert: Vec<bool>,
    prometheus: String,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Trace {
    rulebook_bounded: Run,
    rulebook_unbounded: Run,
    plan_bounded: Run,
    plan_unbounded: Run,
}

fn prometheus(record: impl FnOnce(&mut Registry)) -> String {
    let mut reg = Registry::new();
    record(&mut reg);
    reg.snapshot().to_prometheus_text()
}

fn rulebook_run(geos: &[SparseTensor<f32>], cache: RulebookCache) -> Run {
    let mut steps = Vec::new();
    for g in requests() {
        let hits = cache.hits();
        let _ = cache.get_or_build(&geos[g], 3);
        steps.push(Step {
            geometry: g,
            hit: cache.hits() > hits,
            hits: cache.hits(),
            misses: cache.misses(),
            evictions: cache.evictions(),
            len: cache.len(),
            bytes: cache.bytes(),
        });
    }
    Run {
        capacity_bytes: cache.capacity_bytes(),
        steps,
        resident_on_reinsert: Vec::new(),
        prometheus: prometheus(|r| cache.record_metrics(r)),
    }
}

fn plan_of(g: &SparseTensor<f32>) -> GeometryPlan {
    GeometryPlan::new(vec![PlanStep::SubConv(Arc::new(Rulebook::build(g, 3)))])
}

fn plan_run(geos: &[SparseTensor<f32>], cache: PlanCache) -> Run {
    let mut steps = Vec::new();
    let mut resident_on_reinsert = Vec::new();
    for (i, g) in requests().into_iter().enumerate() {
        let key = PlanKey {
            network: NETWORK,
            frame: geos[g].active_fingerprint(),
        };
        let hit = match cache.get(&key) {
            Some(resident) => {
                // A racing second builder: its insert must get the
                // resident plan back (and refreshes its recency).
                if i % 3 == 0 {
                    let back = cache.insert(key, plan_of(&geos[g]));
                    resident_on_reinsert.push(Arc::ptr_eq(&back, &resident));
                }
                true
            }
            None => {
                cache.insert(key, plan_of(&geos[g]));
                false
            }
        };
        steps.push(Step {
            geometry: g,
            hit,
            hits: cache.hits(),
            misses: cache.misses(),
            evictions: cache.evictions(),
            len: cache.len(),
            bytes: cache.bytes(),
        });
    }
    Run {
        capacity_bytes: cache.capacity_bytes(),
        steps,
        resident_on_reinsert,
        prometheus: prometheus(|r| cache.record_metrics(r)),
    }
}

fn trace() -> Trace {
    let geos: Vec<SparseTensor<f32>> = (0..GEOMETRIES).map(geometry).collect();
    let total: usize = geos.iter().map(|g| plan_of(g).heap_bytes()).sum();
    // About two of the eight entries fit.
    let two = total / 4;
    Trace {
        rulebook_bounded: rulebook_run(&geos, RulebookCache::with_capacity_bytes(two)),
        rulebook_unbounded: rulebook_run(&geos, RulebookCache::new()),
        plan_bounded: plan_run(&geos, PlanCache::with_capacity_bytes(two)),
        plan_unbounded: plan_run(&geos, PlanCache::new()),
    }
}

#[test]
fn caches_replay_the_committed_trace() {
    let want: Trace = serde_json::from_str(
        &std::fs::read_to_string(fixture_path())
            .expect("fixture missing — run the ignored `regenerate` test once and commit the file"),
    )
    .expect("fixture parses");
    let got = trace();
    for (name, got, want) in [
        (
            "rulebook_bounded",
            &got.rulebook_bounded,
            &want.rulebook_bounded,
        ),
        (
            "rulebook_unbounded",
            &got.rulebook_unbounded,
            &want.rulebook_unbounded,
        ),
        ("plan_bounded", &got.plan_bounded, &want.plan_bounded),
        ("plan_unbounded", &got.plan_unbounded, &want.plan_unbounded),
    ] {
        assert_eq!(got.capacity_bytes, want.capacity_bytes, "{name}: budget");
        for (i, (g, w)) in got.steps.iter().zip(&want.steps).enumerate() {
            assert_eq!(g, w, "{name}: request {i} drifted");
        }
        assert_eq!(got.steps.len(), want.steps.len(), "{name}: request count");
        assert_eq!(
            got.resident_on_reinsert, want.resident_on_reinsert,
            "{name}: racing inserts"
        );
        assert_eq!(got.prometheus, want.prometheus, "{name}: metrics text");
    }
    // The trace exercises what it claims to: evictions under the budget,
    // none without it, and racing inserts that keep the resident value.
    assert!(want.rulebook_bounded.steps.last().unwrap().evictions > 0);
    assert!(want.plan_bounded.steps.last().unwrap().evictions > 0);
    assert_eq!(want.rulebook_unbounded.steps.last().unwrap().evictions, 0);
    assert!(!want.plan_bounded.resident_on_reinsert.is_empty());
    assert!(want.plan_bounded.resident_on_reinsert.iter().all(|&r| r));
}

#[test]
#[ignore = "writes the fixture; run once after an intentional change to cache behaviour"]
fn regenerate() {
    let json = serde_json::to_string_pretty(&trace()).unwrap();
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), json + "\n").unwrap();
}
