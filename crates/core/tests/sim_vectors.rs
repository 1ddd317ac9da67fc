//! Committed byte-identity oracle for the cycle simulator across its
//! configuration space.
//!
//! `pipeline_trace.rs` pins one traced layer (K = 3, 8³ tiles, 16→32
//! channels). This fixture pins, as data committed to the repository, a
//! sweep of seeded untraced layers on small grids that together cover
//! every kernel size from 1 to 9 (K = 9 has 81 columns, more than one
//! 64-bit word), cubic and anisotropic tiles including one whose z side
//! exceeds 60, FIFO depths 1 and 16, channel shapes 1→16, 16→32 and
//! 24→40 (an output-channel tail past the 16-wide array), partial tiles
//! at the grid edge, and matching-resident execution on and off. Each
//! case records the layer's `CycleStats`, its `LayerTelemetry` (per-FIFO
//! occupancy sums, sampled cycles, histograms) and a digest of the
//! output tensor.
//!
//! Regenerate (after an *intentional* change to simulated behaviour) with:
//! `cargo test -p esca --test sim_vectors -- --ignored regenerate`
//! and commit the rewritten file.

use esca::accelerator::LayerOpts;
use esca::{Esca, EscaConfig};
use esca_sscn::quant::QuantizedWeights;
use esca_sscn::weights::ConvWeights;
use esca_tensor::{Coord3, Extent3, SparseTensor, TileShape, Q16};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::fmt::Write;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sim_vectors.json")
}

/// One seeded layer.
struct Case {
    name: &'static str,
    grid: (u32, u32, u32),
    /// Probability that a site is active.
    density: f64,
    kernel: u32,
    tile: TileShape,
    fifo_depth: usize,
    in_ch: usize,
    out_ch: usize,
    resident: bool,
    seed: u64,
}

#[allow(clippy::too_many_arguments)] // one row of the case table
const fn case(
    name: &'static str,
    grid: (u32, u32, u32),
    density: f64,
    kernel: u32,
    tile: TileShape,
    fifo_depth: usize,
    (in_ch, out_ch): (usize, usize),
    resident: bool,
    seed: u64,
) -> Case {
    Case {
        name,
        grid,
        density,
        kernel,
        tile,
        fifo_depth,
        in_ch,
        out_ch,
        resident,
        seed,
    }
}

fn cases() -> Vec<Case> {
    let t = TileShape::new;
    let c = TileShape::cube;
    vec![
        case(
            "k1_tile4_c1x16",
            (10, 10, 10),
            0.3,
            1,
            c(4),
            16,
            (1, 16),
            false,
            1,
        ),
        case(
            "k1_tile8_resident",
            (13, 9, 11),
            0.3,
            1,
            c(8),
            1,
            (16, 32),
            true,
            2,
        ),
        case(
            "k3_tile4x8x2_fifo1",
            (11, 13, 9),
            0.2,
            3,
            t(4, 8, 2),
            1,
            (16, 32),
            false,
            3,
        ),
        case(
            "k3_tile4_c24x40",
            (10, 10, 10),
            0.25,
            3,
            c(4),
            16,
            (24, 40),
            false,
            4,
        ),
        case(
            "k3_tile8_c24x40",
            (20, 20, 20),
            0.15,
            3,
            c(8),
            16,
            (24, 40),
            false,
            5,
        ),
        case(
            "k3_tile8_fifo1",
            (18, 18, 18),
            0.2,
            3,
            c(8),
            1,
            (16, 32),
            false,
            6,
        ),
        case(
            "k3_tile8_resident",
            (18, 18, 18),
            0.2,
            3,
            c(8),
            16,
            (16, 32),
            true,
            7,
        ),
        case(
            "k3_tile16_c1x16",
            (20, 20, 20),
            0.15,
            3,
            c(16),
            16,
            (1, 16),
            false,
            8,
        ),
        case(
            "k3_tall_tile",
            (9, 9, 70),
            0.15,
            3,
            t(4, 4, 66),
            16,
            (16, 32),
            false,
            9,
        ),
        case(
            "k5_tile4x8x2",
            (12, 12, 12),
            0.1,
            5,
            t(4, 8, 2),
            16,
            (16, 32),
            false,
            10,
        ),
        case(
            "k5_tile16_fifo1",
            (20, 20, 20),
            0.08,
            5,
            c(16),
            1,
            (1, 16),
            false,
            11,
        ),
        case(
            "k5_tall_tile_resident",
            (8, 8, 80),
            0.1,
            5,
            t(8, 8, 64),
            1,
            (1, 16),
            true,
            12,
        ),
        case(
            "k7_tile8",
            (14, 14, 14),
            0.06,
            7,
            c(8),
            16,
            (16, 32),
            false,
            13,
        ),
        case(
            "k7_tall_tile_fifo1",
            (6, 6, 75),
            0.08,
            7,
            t(4, 4, 62),
            1,
            (24, 40),
            false,
            14,
        ),
        case(
            "k9_tile4_fifo1",
            (12, 12, 12),
            0.05,
            9,
            c(4),
            1,
            (24, 40),
            false,
            15,
        ),
        case(
            "k9_tile16",
            (17, 17, 17),
            0.04,
            9,
            c(16),
            16,
            (1, 16),
            false,
            16,
        ),
        case(
            "k9_tile8_resident",
            (12, 12, 12),
            0.05,
            9,
            c(8),
            16,
            (16, 32),
            true,
            17,
        ),
    ]
}

/// Seeded sparse input: each site active with `density`; about a quarter
/// of the feature values are zero so zero activations reach the array.
fn input(case: &Case) -> SparseTensor<Q16> {
    let (x, y, z) = case.grid;
    let mut rng = ChaCha12Rng::seed_from_u64(0x5117_0000 + case.seed);
    let mut t = SparseTensor::<Q16>::new(Extent3::new(x, y, z), case.in_ch);
    let mut feats = vec![Q16(0); case.in_ch];
    for c in Extent3::new(x, y, z).iter() {
        if rng.gen_bool(case.density) {
            for f in &mut feats {
                *f = if rng.gen_bool(0.25) {
                    Q16(0)
                } else {
                    Q16(rng.gen_range(-400..400))
                };
            }
            t.insert(Coord3::new(c.x, c.y, c.z), &feats).unwrap();
        }
    }
    t.canonicalize();
    t
}

/// FNV-1a over the output's coordinates and features in canonical order.
fn output_digest(out: &SparseTensor<Q16>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (c, f) in out.iter() {
        for v in [c.x, c.y, c.z] {
            eat(&v.to_le_bytes());
        }
        for q in f {
            eat(&q.0.to_le_bytes());
        }
    }
    format!("{h:016x}")
}

fn json_line<T: serde::Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

/// The fixture text: one JSON object per case, one telemetry line per
/// text line so drift shows up as a line diff.
fn digest() -> String {
    let mut out = String::from("[\n");
    let all = cases();
    for (i, case) in all.iter().enumerate() {
        let x = input(case);
        let qw = QuantizedWeights::auto(
            &ConvWeights::seeded(case.kernel, case.in_ch, case.out_ch, 0x5EC7 + case.seed),
            8,
            10,
        )
        .unwrap();
        let cfg = EscaConfig {
            kernel: case.kernel,
            tile: case.tile,
            fifo_depth: case.fifo_depth,
            // Room for the K = 9 weight panels (729 taps).
            weight_buffer_bytes: 1 << 22,
            ..EscaConfig::default()
        };
        let opts = LayerOpts {
            matching_resident: case.resident,
            ..LayerOpts::default()
        };
        let run = Esca::new(cfg)
            .unwrap()
            .run_layer_with(&x, &qw, case.seed % 2 == 0, opts)
            .unwrap();
        assert!(
            run.stats.match_groups > 0,
            "{}: no active centre",
            case.name
        );
        let telemetry: Vec<String> = format!("{:#?}", run.telemetry)
            .lines()
            .map(json_line)
            .collect();
        writeln!(out, "  {{").unwrap();
        writeln!(out, "    \"name\": {},", json_line(case.name)).unwrap();
        writeln!(
            out,
            "    \"output_digest\": \"{}\",",
            output_digest(&run.output)
        )
        .unwrap();
        writeln!(
            out,
            "    \"cycle_stats\": {},",
            serde_json::to_string_pretty(&run.stats)
                .unwrap()
                .replace('\n', "\n    ")
        )
        .unwrap();
        writeln!(
            out,
            "    \"layer_telemetry\": [\n      {}\n    ]",
            telemetry.join(",\n      ")
        )
        .unwrap();
        let sep = if i + 1 < all.len() { "," } else { "" };
        writeln!(out, "  }}{sep}").unwrap();
    }
    out.push_str("]\n");
    out
}

#[test]
fn simulated_layers_match_committed_vectors() {
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
            "simulator drifted from the committed vectors at line {}: got {:?}, expected {:?}",
            first + 1,
            got.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}

#[test]
#[ignore = "writes the fixture; run once after an intentional simulator change"]
fn regenerate() {
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), digest()).unwrap();
}
