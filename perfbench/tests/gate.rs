//! The benchmark's own tests: the correctness gate catches a corrupted
//! output on every workload, the traced run writes a Chrome trace in the
//! subset the repository's `validate_trace` accepts, and `BENCHMARK.json`
//! lists exactly the metric vocabulary the program prints.

use esca_perfbench::report::{per_layer, END_TO_END};
use esca_perfbench::workloads::{run, RunConfig, Scale, Workload};
use serde_json::Value;
use std::collections::HashMap;
use std::path::PathBuf;

fn smoke(workload: Workload) -> RunConfig {
    RunConfig {
        workload,
        seed: 3,
        seconds: 1e-3,
        trace: false,
        scale: Scale::smoke(),
        corrupt_output: false,
        trace_dir: None,
    }
}

#[test]
fn clean_runs_pass_and_corrupted_outputs_are_caught() {
    for w in Workload::ALL {
        let clean = run(&smoke(w)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(clean.correct, "{}: clean run flagged", w.name());
        assert_eq!(clean.failed, 0, "{}", w.name());
        assert!(clean.attempted > 0);
        assert!(clean.values["frames_per_s"] > 0.0, "{}", w.name());

        let corrupted = run(&RunConfig {
            corrupt_output: true,
            ..smoke(w)
        })
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(!corrupted.correct, "{}: corrupted output passed", w.name());
        assert!(corrupted.failed >= 1, "{}", w.name());
    }
}

fn u64_field(ev: &Value, key: &str) -> u64 {
    match ev.field(key) {
        Value::U64(n) => *n,
        other => panic!("`{key}` is not an unsigned number: {other:?}"),
    }
}

#[test]
fn traced_runs_cover_frames_and_write_valid_traces() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-traces");
    for w in Workload::ALL {
        let r = run(&RunConfig {
            trace: true,
            trace_dir: Some(dir.clone()),
            ..smoke(w)
        })
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(r.correct, "{}", w.name());
        assert!(
            r.values["trace.coverage"] >= 0.9,
            "{}: {:?}",
            w.name(),
            r.values
        );
        assert!(r.values.contains_key("trace.overhead_pct"));

        let path = dir.join(format!("trace-{}.json", w.name()));
        let text = std::fs::read_to_string(&path).unwrap();
        let value: Value = serde_json::from_str(&text).unwrap();
        let events = value.field("traceEvents").as_seq().unwrap();
        assert!(!events.is_empty());
        let mut last_ts: HashMap<(u64, u64), u64> = HashMap::new();
        for ev in events {
            assert_eq!(ev.field("ph").as_str(), Some("X"));
            assert!(ev.field("name").as_str().is_some());
            assert!(ev.field("cat").as_str().is_some());
            let _ = u64_field(ev, "dur");
            let (pid, tid, ts) = (
                u64_field(ev, "pid"),
                u64_field(ev, "tid"),
                u64_field(ev, "ts"),
            );
            if let Some(prev) = last_ts.insert((pid, tid), ts) {
                assert!(ts >= prev, "{}: ts decreases within a track", w.name());
            }
            let detail = ev.field("args").field("detail").as_str().unwrap();
            assert!(
                detail.starts_with("span=")
                    && detail.contains(" parent=")
                    && detail.contains(" frame=")
            );
        }
    }
}

#[test]
fn accelerator_cycle_breakdown_sums_to_total() {
    let r = run(&RunConfig {
        trace: true,
        ..smoke(Workload::StreamSim)
    })
    .unwrap();
    let parts: f64 = [
        "compute_busy",
        "pipeline_not_computing",
        "zero_removing",
        "tile_overhead",
        "layer_overhead",
        "dram_stall",
    ]
    .iter()
    .map(|p| r.values[format!("accelerator.cycles.{p}").as_str()])
    .sum();
    let total = r.values["accelerator.cycles.total"];
    assert!((parts - total).abs() <= 1e-6 * total, "{parts} vs {total}");
}

fn metric_list(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.field(key)
        .as_seq()
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.field("name").as_str().unwrap().to_string(),
                m.field("unit").as_str().unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_printed_vocabulary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(metric_list(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(
        metric_list(&doc, "per_layer"),
        owned(&per_layer().collect::<Vec<_>>())
    );
    let names: Vec<&str> = doc
        .field("workloads")
        .as_seq()
        .unwrap()
        .iter()
        .map(|w| w.field("name").as_str().unwrap())
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
}
