//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's notes and metric table, then one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`); for a single workload
//! that object is the last line of standard output. `--workload all` runs
//! the four workloads in turn. Exits 1 when an output mismatched its
//! reference or a run failed, 2 on a usage error.

use esca_perfbench::workloads::{self, RunConfig, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

/// One run per selected workload, in `BENCHMARK.json` order.
fn parse(args: &[String]) -> Result<Vec<RunConfig>, String> {
    let mut selected = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                selected = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value:?}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let selected = selected.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    let seconds = seconds.ok_or("missing --seconds")?;
    let trace = trace.ok_or("missing --trace")?;
    Ok(selected
        .into_iter()
        .map(|workload| RunConfig {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::full(workload),
            corrupt_output: false,
            trace_dir: Some(PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))),
        })
        .collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let runs = match parse(&args) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for cfg in &runs {
        let result = match workloads::run(cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {} (seed {}): {e}", cfg.workload.name(), cfg.seed);
                ok = false;
                continue;
            }
        };
        print!("{}", result.table());
        if !result.correct {
            eprintln!(
                "error: {}: {} output mismatches against the reference",
                cfg.workload.name(),
                result.failed
            );
            ok = false;
        }
        println!("{}", result.json_line(cfg.trace));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
