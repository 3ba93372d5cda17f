//! End-to-end and per-layer benchmark of the CROSS workspace.
//!
//! One process runs one workload for one seed:
//!
//! ```text
//! perfbench --workload <serve_zipf|argmax_sched|rotate_fanout> \
//!           --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! With `--trace 0` the last stdout line is the end-to-end result
//! (throughput, latency, set-up time, peak memory, precision); with
//! `--trace 1` it is the per-layer result of a separate traced run,
//! whose spans are written to `--out-dir`. Every workload checks its
//! outputs and exits non-zero when a check fails. See `README.md`.

mod common;
mod fanout;
mod kern;
mod metrics;
mod serve;
mod sgn_argmax;
mod trace;

use common::{Outcome, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: &[&str] = &["serve_zipf", "argmax_sched", "rotate_fanout"];

fn parse_args() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench-out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(cfg.trace);
    let outcome: Outcome = match cfg.workload.as_str() {
        "serve_zipf" => serve::run(&cfg, &tracer),
        "argmax_sched" => sgn_argmax::run(&cfg, &tracer),
        "rotate_fanout" => fanout::run(&cfg, &tracer),
        _ => unreachable!("workload validated in parse_args"),
    };
    if cfg.trace {
        let path = cfg
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
        match tracer.write_jsonl(&path) {
            Ok(n) => eprintln!("perfbench: wrote {n} spans to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
                return ExitCode::from(3);
            }
        }
    }
    for note in &outcome.notes {
        eprintln!("perfbench: {note}");
    }
    let (line, correct) = metrics::result_line(&outcome, cfg.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: correctness gate failed ({} of {} ops failed)",
            outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}
