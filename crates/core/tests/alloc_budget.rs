//! Allocation budget of the untraced cycle simulator.
//!
//! The per-cycle path (scan, fetch, dispatch, drain) must not touch the
//! heap, and neither may a new tile: the SDMU's registers, job slots and
//! FIFOs are allocated once per layer and rewound between tiles, and
//! match groups drain into an output buffer sized once for the layer. A
//! layer run allocates a constant for its set-up — never per active
//! tile, per match group, per scanned site, per match or per cycle. A
//! counting global allocator measures one untraced `run_layer`.

use esca::{Esca, EscaConfig};
use esca_pointcloud::{synthetic, voxelize};
use esca_sscn::quant::{quantize_tensor, QuantizedWeights};
use esca_sscn::weights::ConvWeights;
use esca_tensor::{Extent3, QuantParams, SparseTensor, TileShape};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every call to `System` unchanged; the counter is a
// const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations a layer may make per active tile: none, since the SDMU
/// scratch is reused across tiles.
const PER_TILE: u64 = 0;
/// The layer's set-up: encoding, buffer models, telemetry, the output
/// buffer and the SDMU scratch (its K² FIFOs and fixed state, K = 3).
const PER_LAYER: u64 = 96;

#[test]
fn untraced_layer_allocates_per_tile_and_group_not_per_cycle() {
    let cfg = synthetic::ShapeNetConfig {
        extent_voxels: 14.0,
        center: [16.0, 16.0, 16.0],
        ..Default::default()
    };
    let x = voxelize::voxelize_occupancy(&synthetic::shapenet_like(3, &cfg), Extent3::cube(32));
    let x: SparseTensor<_> = quantize_tensor(&x, QuantParams::new(8).unwrap());
    let qw = QuantizedWeights::auto(&ConvWeights::seeded(3, 1, 16, 0xA110C), 8, 10).unwrap();
    let mut esca_cfg = EscaConfig::default();
    esca_cfg.tile = TileShape::cube(8);
    let esca = Esca::new(esca_cfg).unwrap();

    let before = allocs();
    let run = esca.run_layer(&x, &qw, true).unwrap();
    let used = allocs() - before;

    let (tiles, groups) = (run.stats.active_tiles, run.stats.match_groups);
    assert!(
        tiles > 1 && groups > 100,
        "workload too small to mean anything"
    );
    assert!(!run.trace.enabled());
    let budget = PER_TILE * tiles + PER_LAYER;
    assert!(
        used <= budget,
        "{used} allocations for {tiles} active tiles, {groups} match groups and \
         {} scanned sites over {} cycles; budget {budget}",
        run.stats.scanned_sites,
        run.stats.pipeline_cycles
    );
}
