//! Committed byte-identity oracle for the enabled pipeline trace.
//!
//! Pins, as data committed to the repository, everything a seeded
//! multi-tile traced layer emits: the Chrome trace-event export, the
//! text chart, the layer's `CycleStats` and its `LayerTelemetry`. A
//! change to how spans are recorded, coalesced or formatted must leave
//! this file byte-identical.
//!
//! Regenerate (after an *intentional* change to trace output) with:
//! `cargo test -p esca --test pipeline_trace -- --ignored regenerate`
//! and commit the rewritten file.

use esca::{Esca, EscaConfig};
use esca_pointcloud::{synthetic, voxelize};
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_sscn::weights::ConvWeights;
use esca_tensor::{Extent3, QuantParams, SparseTensor, TileShape};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::fmt::Write;
use std::path::PathBuf;

const IN_CH: usize = 16;
const OUT_CH: usize = 32;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pipeline_trace.json")
}

/// A 32³ ShapeNet-like object spanning several 8³ tiles, with seeded
/// 16-channel features.
fn input() -> SparseTensor<f32> {
    let cfg = synthetic::ShapeNetConfig {
        extent_voxels: 10.0,
        center: [16.0, 16.0, 16.0],
        ..Default::default()
    };
    let occ = voxelize::voxelize_occupancy(&synthetic::shapenet_like(5, &cfg), Extent3::cube(32));
    let mut rng = ChaCha12Rng::seed_from_u64(0x7ACE);
    let mut t = SparseTensor::<f32>::new(occ.extent(), IN_CH);
    for (c, _) in occ.iter() {
        let f: Vec<f32> = (0..IN_CH).map(|_| rng.gen_range(-2.0..2.0)).collect();
        t.insert(c, &f).unwrap();
    }
    t.canonicalize();
    t
}

fn json_line<T: serde::Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

/// The fixture text: one JSON object, one Chrome trace event, chart row
/// or telemetry line per text line so drift shows up as a line diff.
fn digest() -> String {
    let x = input();
    let qin = quantize_tensor(&x, QuantParams::new(8).unwrap());
    let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, IN_CH, OUT_CH, 0x7AC3), 8, 10).unwrap();
    let mut cfg = EscaConfig::default();
    cfg.tile = TileShape::cube(8);
    cfg.record_trace = true;
    let run = Esca::new(cfg).unwrap().run_layer(&qin, &qw, true).unwrap();
    assert!(
        run.stats.active_tiles > 1,
        "fixture must span several tiles"
    );
    assert!(
        run.stats.stall_cycles > 0,
        "fixture must exercise backpressure"
    );

    let lines = |items: Vec<String>| items.join(",\n    ");
    let chrome = run.trace.to_chrome_trace(1);
    let mut out = String::new();
    writeln!(out, "{{").unwrap();
    writeln!(
        out,
        "  \"chrome_trace\": [\n    {}\n  ],",
        lines(chrome.traceEvents.iter().map(json_line).collect())
    )
    .unwrap();
    writeln!(
        out,
        "  \"render\": [\n    {}\n  ],",
        lines(run.trace.render(200).lines().map(json_line).collect())
    )
    .unwrap();
    writeln!(
        out,
        "  \"cycle_stats\": {},",
        serde_json::to_string_pretty(&run.stats)
            .unwrap()
            .replace('\n', "\n  ")
    )
    .unwrap();
    writeln!(
        out,
        "  \"layer_telemetry\": [\n    {}\n  ]",
        lines(
            format!("{:#?}", run.telemetry)
                .lines()
                .map(json_line)
                .collect()
        )
    )
    .unwrap();
    writeln!(out, "}}").unwrap();
    out
}

#[test]
fn traced_layer_matches_committed_fixture() {
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
            "pipeline trace drifted from the committed fixture at line {}: got {:?}, expected {:?}",
            first + 1,
            got.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}

#[test]
#[ignore = "writes the fixture; run once after an intentional trace change"]
fn regenerate() {
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), digest()).unwrap();
}
