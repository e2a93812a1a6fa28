//! Command-line entry point of the benchmark; `perfbench/run.py` builds and
//! runs it.
//!
//! ```text
//! perfbench --workload <twitter_udp|cdn_tcp|cluster_rw> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <file>] [--tiny]
//! ```
//!
//! Prints a table of the metrics and, as the last line, the result JSON.
//! With `--trace 1` the retained spans are written to `--trace-out`. An
//! untraced run first runs its extra set-ups in child processes
//! (`--setup-only`) and reports the median of all set-up times.

use std::process::{Command, ExitCode};

use cf_telemetry::CountingAlloc;
use perfbench::{median, run, setup_seconds, Config, Scale, SETUP_REPS};

// Counts heap acquisitions for `mem.allocs_per_op`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Prefix of the one line a `--setup-only` child prints.
const SETUP_LINE: &str = "setup_s=";

/// Runs the extra set-ups of an untraced run, one child process each, so
/// every set-up starts from a fresh process as the timed one does.
fn extra_setups(args: &[String]) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (1..SETUP_REPS)
        .map(|_| {
            let out = Command::new(&exe)
                .args(args)
                .arg("--setup-only")
                .output()
                .map_err(|e| format!("spawning a set-up: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout
                .lines()
                .find_map(|l| l.strip_prefix(SETUP_LINE))
                .and_then(|v| v.parse().ok())
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "set-up process failed: {}",
                        String::from_utf8_lossy(&out.stderr).trim()
                    )
                })
        })
        .collect()
}

fn parse(args: &[String]) -> Result<(Config, Option<String>, bool), String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Full,
        corrupt_op: None,
    };
    let mut trace_out = None;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            cfg.scale = Scale::Tiny;
            continue;
        }
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--trace-out" => trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.workload.is_empty() || cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--workload and a positive --seconds are required".to_string());
    }
    Ok((cfg, trace_out, setup_only))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fail = |e: String| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    };
    let (cfg, trace_out, setup_only) = match parse(&args) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    if setup_only {
        return match setup_seconds(&cfg) {
            Ok(s) => {
                println!("{SETUP_LINE}{s}");
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        };
    }
    let mut setups = if cfg.trace {
        Vec::new()
    } else {
        match extra_setups(&args) {
            Ok(s) => s,
            Err(e) => return fail(e),
        }
    };
    let mut report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    if let Some(m) = report.metrics.iter_mut().find(|m| m.0 == "setup_s") {
        setups.push(m.1);
        m.1 = median(&mut setups);
    }
    println!(
        "workload {} seed {} trace {}: {} ops, {} failed",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        report.attempted,
        report.failed
    );
    if let Some(f) = &report.first_failure {
        println!("first failure: {f}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    if let (Some(path), Some(spans)) = (trace_out, &report.spans_json) {
        if let Err(e) = std::fs::write(&path, spans) {
            return fail(format!("writing spans to {path}: {e}"));
        }
        println!("spans: {path}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
