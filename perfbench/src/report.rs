//! Metric vocabulary, the run result and its printed forms.
//!
//! The names here are the benchmark's vocabulary: `BENCHMARK.json` lists
//! [`END_TO_END`] and [`per_layer`] verbatim (a test keeps them in step).

use std::collections::BTreeMap;

/// End-to-end metrics every workload reports with tracing off: the
/// result line carries exactly these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("frames_per_s", "frames/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics that exist only on some workloads. They are printed
/// in the table of every untraced run that has them, and carried in the
/// traced run's result line (0 where the workload does not exercise them).
pub const WORKLOAD_END_TO_END: &[(&str, &str)] = &[
    ("frame_ms_p50", "ms"),
    ("frame_ms_tail", "ms"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("sim_cycles_per_frame", "cycles"),
    ("sim_gops_err_pct", "%"),
    ("queue_wait_cycles_tail", "cycles"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics of the traced run, by repository module.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("pointcloud.voxelize_ms_per_frame", "ms"),
    ("zero_removing.ms_per_layer", "ms"),
    ("zero_removing.active_tile_frac", "ratio"),
    ("encode.ms_per_layer", "ms"),
    ("encode.compression_vs_dense", "ratio"),
    ("accelerator.ms_per_layer", "ms"),
    ("accelerator.tile_loop_ms_per_layer", "ms"),
    ("accelerator.ns_per_pipeline_cycle", "ns"),
    ("accelerator.gops", "GOPS"),
    ("accelerator.array_utilization", "ratio"),
    ("accelerator.cycles.compute_busy", "cycles"),
    ("accelerator.cycles.pipeline_not_computing", "cycles"),
    ("accelerator.cycles.zero_removing", "cycles"),
    ("accelerator.cycles.tile_overhead", "cycles"),
    ("accelerator.cycles.layer_overhead", "cycles"),
    ("accelerator.cycles.dram_stall", "cycles"),
    ("accelerator.cycles.total", "cycles"),
    ("sdmu.scanned_sites", "count"),
    ("sdmu.mask_bits_read", "count"),
    ("sdmu.fifo_pushes", "count"),
    ("sdmu.stall_fifo_full_cycles", "cycles"),
    ("sdmu.peak_fifo_occupancy", "count"),
    ("sdmu.matches_per_scanned_site", "ratio"),
    ("compute.effective_macs", "count"),
    ("compute.lane_slot_utilization", "ratio"),
    ("compute.drain_cycles", "cycles"),
    ("compute.mean_match_group", "count"),
    ("buffers.dram_bytes_in", "bytes"),
    ("buffers.dram_bytes_out", "bytes"),
    ("buffers.peak_act_buffer_bytes", "bytes"),
    ("streaming.batch_ms", "ms"),
    ("streaming.worker_busy_frac", "ratio"),
    ("streaming.collect_overhead_ms", "ms"),
    ("streaming.worker_imbalance", "ratio"),
    ("rulebook.build_ms_per_frame", "ms"),
    ("rulebook.pairs_per_site", "ratio"),
    ("engine.subconv_ms_per_layer", "ms"),
    ("engine.gmacs_per_s", "GMAC/s"),
    ("engine.gemm_rows", "count"),
    ("rulebook_cache.hit_rate", "ratio"),
    ("rulebook_cache.evictions", "count"),
    ("rulebook_cache.bytes", "bytes"),
    ("rulebook_cache.probe_us", "us"),
    ("plan_cache.hit_rate", "ratio"),
    ("plan_cache.evictions", "count"),
    ("plan_cache.bytes", "bytes"),
    ("admission.evaluate_us", "us"),
    ("admission.queue_peak", "count"),
    ("admission.verdict.admitted", "count"),
    ("admission.verdict.degraded", "count"),
    ("admission.verdict.shed", "count"),
    ("admission.verdict.evicted", "count"),
    ("admission.verdict.rejected", "count"),
    ("admission.verdict.over_quota", "count"),
    ("resilience.attempts_per_frame", "ratio"),
    ("resilience.retries_total", "count"),
    ("resilience.fallbacks", "count"),
    ("resilience.injected_total", "count"),
    ("telemetry.render_ms", "ms"),
    ("telemetry.flight_events", "count"),
    ("system.host_ops_ms_per_frame", "ms"),
    ("system.modelled_host_s", "s"),
    ("system.accel_share", "ratio"),
];

/// The traced run's result-line metrics: the workload-specific end-to-end
/// figures followed by every layer metric.
pub fn per_layer() -> impl Iterator<Item = (&'static str, &'static str)> {
    WORKLOAD_END_TO_END.iter().chain(LAYER_METRICS).copied()
}

/// Unit of a metric name from any of the lists.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .copied()
        .chain(per_layer())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Everything one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output matched its reference.
    pub correct: bool,
    /// Frames offered.
    pub attempted: u64,
    /// Frames whose outcome broke the program's contract (a wrong output,
    /// a batch error, a frame without exactly one terminal outcome).
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Explanatory lines printed above the metric table (digest, tail
    /// percentile, accuracy statement, self-time table).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(!unit_of(name).is_empty(), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// Appends an explanatory line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The human-readable report: notes, then one `name value unit` row
    /// per measured metric in list order.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        for (name, unit) in END_TO_END.iter().copied().chain(per_layer()) {
            if let Some(v) = self.values.get(name) {
                out.push_str(&format!("  {name:<44} {:>16} {unit}\n", fmt_value(*v)));
            }
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the metric
    /// set of the run mode, each metric with its unit. Metrics a workload
    /// does not exercise read 0.
    pub fn json_line(&self, traced: bool) -> String {
        let names: Vec<(&str, &str)> = if traced {
            per_layer().collect()
        } else {
            END_TO_END.to_vec()
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number with every digit the f64 holds (shortest round-trip
/// form; `1e-7` style exponents are valid JSON).
fn json_num(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .chain(per_layer().map(|(n, _)| n))
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
        assert!(all.len() <= 128 + END_TO_END.len());
        for n in all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
    }

    #[test]
    fn json_line_lists_every_metric_of_the_mode() {
        let mut r = RunResult {
            correct: true,
            attempted: 3,
            ..RunResult::default()
        };
        r.set("frames_per_s", 1.25);
        let line = r.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"frames_per_s\": {\"value\": 1.25, \"unit\": \"frames/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        let v: serde_json::Value = serde_json::from_str(&r.json_line(true)).unwrap();
        let metrics = v.field("metrics").as_map().unwrap();
        assert_eq!(metrics.len(), per_layer().count());
        let v: serde_json::Value = serde_json::from_str(&format!("[{}]", json_num(1e-7))).unwrap();
        assert_eq!(v.as_seq().unwrap()[0].kind(), "float");
    }
}
