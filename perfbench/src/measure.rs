//! Measurement helpers: order statistics, a stable digest, bit-exact
//! tensor comparison and the process's peak resident memory.

use esca_tensor::{SparseTensor, Q16};
use std::time::Duration;

/// Median of `v` (mean of the two middle values for an even count; 0 for
/// an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100] of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), p)]
}

/// Number of samples strictly beyond the nearest-rank `p` percentile of
/// `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// 64-bit FNV-1a: a stable, dependency-free digest of simulated results.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, data: &[u8]) {
        for b in data {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a value's JSON serialization into the digest.
    pub fn json<T: serde::Serialize>(&mut self, value: &T) {
        let text = serde_json::to_string(value).expect("simulated results serialize to JSON");
        self.bytes(text.as_bytes());
    }

    /// Folds a quantized tensor (coordinates and raw feature words, in
    /// storage order) into the digest.
    pub fn tensor(&mut self, t: &SparseTensor<Q16>) {
        for c in t.coords() {
            for v in [c.x, c.y, c.z] {
                self.bytes(&v.to_le_bytes());
            }
        }
        for f in t.features() {
            self.bytes(&f.0.to_le_bytes());
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Whether two quantized tensors are byte-for-byte identical: same extent,
/// channels, coordinates and feature words, in the same storage order.
pub fn same_q16(a: &SparseTensor<Q16>, b: &SparseTensor<Q16>) -> bool {
    a.extent() == b.extent()
        && a.channels() == b.channels()
        && a.coords() == b.coords()
        && a.features() == b.features()
}

/// Whether two float tensors are bit-for-bit identical, in storage order.
pub fn same_f32(a: &SparseTensor<f32>, b: &SparseTensor<f32>) -> bool {
    a.extent() == b.extent()
        && a.channels() == b.channels()
        && a.coords() == b.coords()
        && a.features().len() == b.features().len()
        && a.features()
            .iter()
            .zip(b.features())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Returns a copy of `t` with one bit of its first feature word flipped:
/// the corruption the correctness gate must catch.
pub fn corrupt_q16(t: &SparseTensor<Q16>) -> SparseTensor<Q16> {
    let mut feats = t.features().to_vec();
    if let Some(f) = feats.first_mut() {
        f.0 ^= 1;
    }
    SparseTensor::from_template(t, t.channels(), feats).expect("same shape as the template")
}

/// Returns a copy of `t` with the lowest mantissa bit of its first feature
/// flipped.
pub fn corrupt_f32(t: &SparseTensor<f32>) -> SparseTensor<f32> {
    let mut feats = t.features().to_vec();
    if let Some(f) = feats.first_mut() {
        *f = f32::from_bits(f.to_bits() ^ 1);
    }
    SparseTensor::from_template(t, t.channels(), feats).expect("same shape as the template")
}

/// Peak resident set size of this process (`VmHWM`), MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[]), 0.0);
    }
}
