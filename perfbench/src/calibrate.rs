//! Host-speed calibration.
//!
//! On a shared host, load from other tenants on the same cores slows the
//! same code by up to about 1.8× for seconds to minutes at a time, which
//! no run length averages away. So the benchmark times a fixed integer
//! loop, independent of the program, on every worker core beside each
//! timed batch and around the set-ups. The loop's time over a fixed
//! reference time is the host's stretch at that moment ([`stretch`]), and
//! the end-to-end host times are divided by it: they read as on the
//! reference host at one fixed load. The raw figures are printed beside
//! the corrected ones.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of one calibration loop.
pub const LOOP_ITERS: u64 = 8_000_000;

/// The loop time that counts as a stretch of 1, seconds: about the time
/// of one calibration loop on each of two cores at once on the reference
/// host (a 2-vCPU Xeon guest) under moderate co-tenant load. Runs there
/// measured from 14 ms to 36 ms.
pub const REFERENCE_S: f64 = 0.020;

/// The calibration loop: eight independent integer chains, limited by
/// execution throughput, the resource a co-tenant on the same core takes.
fn spin(n: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let (mut e, mut f, mut g, mut h) = (5u64, 6u64, 7u64, 8u64);
    for i in 0..n {
        a = a.wrapping_mul(3).wrapping_add(i);
        b = b.wrapping_mul(5) ^ i;
        c = c.wrapping_add(i << 1) ^ (c >> 3);
        d = d.rotate_left(7).wrapping_add(i);
        e = e.wrapping_mul(7).wrapping_add(a);
        f ^= (b >> 5).wrapping_add(i);
        g = g.wrapping_add(c ^ d);
        h = h.wrapping_mul(11) ^ e;
    }
    a ^ b ^ c ^ d ^ e ^ f ^ g ^ h
}

/// Mean time of one calibration loop run on each of `threads` threads at
/// once, seconds.
fn loop_time(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let t0 = Instant::now();
                    black_box(spin(black_box(LOOP_ITERS)));
                    t0.elapsed().as_secs_f64()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the calibration loop does not panic"))
            .collect()
    });
    crate::measure::mean(&times)
}

/// Runs the calibration loop a few times on each of `threads` threads and
/// discards the times: the first loops after a core has been idle run
/// slow while the host brings it up to speed.
pub fn warm_up(threads: usize) {
    for _ in 0..5 {
        loop_time(threads);
    }
}

/// The factor by which co-tenant load stretches host times now: one
/// calibration loop on each of `threads` threads, over [`REFERENCE_S`].
/// It is above 1 under heavier load and below 1 under lighter. Across
/// runs on the reference host, the workloads' batch rates fell about in
/// proportion to it (see the benchmark's README).
pub fn stretch(threads: usize) -> f64 {
    loop_time(threads) / REFERENCE_S
}
