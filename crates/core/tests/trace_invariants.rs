//! Invariants of the recorded pipeline trace: the Fig. 7(b) structure must
//! hold for every traced run — stages appear in causal order, compute
//! spans match the dispatched match count, and every match group drains
//! exactly once. Per-work-item details (one per match, group or SRF) keep
//! span counts 1:1 with the work items even though contiguous same-detail
//! cycles coalesce.

use esca::trace::{SpanDetail, Stage};
use esca::{Esca, EscaConfig};
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_sscn::weights::ConvWeights;
use esca_tensor::{Coord3, Extent3, QuantParams, SparseTensor, TileShape};

fn traced_run() -> esca::LayerRun {
    let mut t = SparseTensor::<f32>::new(Extent3::cube(8), 1);
    for (i, c) in [
        Coord3::new(1, 1, 1),
        Coord3::new(1, 1, 2),
        Coord3::new(2, 2, 2),
        Coord3::new(5, 5, 5),
        Coord3::new(6, 5, 5),
    ]
    .into_iter()
    .enumerate()
    {
        t.insert(c, &[0.2 * (i as f32 + 1.0)]).unwrap();
    }
    let qin = quantize_tensor(&t, QuantParams::new(8).unwrap());
    let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, 1, 8, 5), 8, 10).unwrap();
    let mut cfg = EscaConfig::default();
    cfg.tile = TileShape::cube(4);
    cfg.record_trace = true;
    Esca::new(cfg).unwrap().run_layer(&qin, &qw, false).unwrap()
}

#[test]
fn compute_spans_equal_matches() {
    let run = traced_run();
    let computes = run
        .trace
        .spans()
        .iter()
        .filter(|s| s.stage == Stage::Compute)
        .count() as u64;
    assert_eq!(computes, run.stats.matches);
}

#[test]
fn one_drain_per_match_group() {
    let run = traced_run();
    let drains = run
        .trace
        .spans()
        .iter()
        .filter(|s| s.stage == Stage::Drain)
        .count() as u64;
    assert_eq!(drains, run.stats.match_groups);
}

#[test]
fn state_index_only_for_active_srfs() {
    let run = traced_run();
    let gens = run
        .trace
        .spans()
        .iter()
        .filter(|s| s.stage == Stage::GenStateIndex)
        .count() as u64;
    assert_eq!(gens, run.stats.match_groups);
}

#[test]
fn causal_ordering_within_each_group() {
    // For every match group g: its first fetch is not before its state
    // index, its first compute not before its first fetch, and its drain
    // not before its last compute (per-tile cycle counters restart at 0,
    // so compare within the same group's spans only). Groups are numbered
    // in scan order, so the N-th state-index span belongs to group N.
    let run = traced_run();
    let spans = run.trace.spans();
    let state_index: Vec<u64> = spans
        .iter()
        .filter(|s| s.stage == Stage::GenStateIndex)
        .map(|s| s.cycle_start)
        .collect();
    assert_eq!(state_index.len() as u64, run.stats.match_groups);
    for (g, &indexed) in state_index.iter().enumerate() {
        let of_group = |stage: Stage| {
            spans.iter().filter(move |s| {
                s.stage == stage
                    && match s.detail {
                        SpanDetail::Group(d) | SpanDetail::Match { group: d, .. } => d == g,
                        SpanDetail::FillLine { .. } | SpanDetail::Srf(_) => false,
                    }
            })
        };
        let first_fetch = of_group(Stage::FetchActivations)
            .map(|s| s.cycle_start)
            .min();
        let first_compute = of_group(Stage::Compute).map(|s| s.cycle_start).min();
        let last_compute = of_group(Stage::Compute).map(|s| s.cycle_start).max();
        let drain: Vec<u64> = of_group(Stage::Drain).map(|s| s.cycle_start).collect();
        let (Some(fetch), Some(first_compute), Some(last_compute), &[drain]) =
            (first_fetch, first_compute, last_compute, drain.as_slice())
        else {
            panic!("group {g}: missing fetch, compute or a single drain span");
        };
        assert!(indexed <= fetch, "group {g}: fetch before its state index");
        assert!(fetch <= first_compute, "group {g}: compute before fetch");
        assert!(fetch <= drain, "group {g}: fetch after drain");
        assert!(last_compute <= drain, "group {g}: compute after drain");
    }
}

#[test]
fn trace_off_by_default_costs_nothing() {
    let mut t = SparseTensor::<f32>::new(Extent3::cube(8), 1);
    t.insert(Coord3::new(1, 1, 1), &[1.0]).unwrap();
    let qin = quantize_tensor(&t, QuantParams::new(8).unwrap());
    let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, 1, 4, 6), 8, 10).unwrap();
    let run = Esca::new(EscaConfig::default())
        .unwrap()
        .run_layer(&qin, &qw, false)
        .unwrap();
    assert!(run.trace.spans().is_empty());
    assert!(!run.trace.enabled());
}
