//! End-to-end and per-layer benchmark of the EV-Matching pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-seq|dense-2t|lookup|serve-day|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a run header, every metric by name and unit with its spread,
//! the per-layer ledger of a traced run, and as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when
//! a correctness check fails, 2 on a usage error. See `README.md` beside
//! this package for the workloads and what each metric should move.

mod ledger;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Params, RunOutput, Workload};

const USAGE: &str = "usage: perfbench --workload <batch-seq|dense-2t|lookup|serve-day|all> \
                     --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let resolved = resolved.trim();
    if resolved.is_empty() {
        "unknown (not a git work tree)".into()
    } else {
        resolved.to_string()
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_run(params: &Params, run: &RunOutput) {
    let host = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "== perfbench {} ({})",
        params.workload.name(),
        if params.trace { "traced" } else { "untraced" }
    );
    println!("host_parallelism: {host}");
    println!("commit: {}", commit());
    for (k, v) in &run.header {
        println!("{k}: {v}");
    }
    if let Some(ledger) = &run.ledger {
        ledger.print();
    }
    println!("{:<36} {:>16} {:<6} note", "metric", "value", "unit");
    for m in &run.metrics {
        println!("{:<36} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for m in &run.printed_only {
        println!(
            "{:<36} {:>16.4} {:<6} {} (printed only, not gated)",
            m.name, m.value, m.unit, m.note
        );
    }
    let c = &run.checks;
    println!(
        "error_rate: {:.6} ({} failed of {} attempted ops and checks)",
        c.failed as f64 / c.attempted.max(1) as f64,
        c.failed,
        c.attempted
    );
    for f in &c.failures {
        println!("FAILED: {f}");
    }
}

fn result_line(run: &RunOutput) -> String {
    let c = &run.checks;
    let mut metrics = String::new();
    for (i, m) in run.metrics.iter().enumerate() {
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        c.failed == 0,
        c.attempted.max(1),
        c.failed
    )
}

/// Runs every workload, each in its own process so that set-up and
/// peak memory stay per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate itself: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let params = Params {
        workload,
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        scratch: PathBuf::from(".perfbench"),
    };
    let run = match workloads::run(&params) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    print_run(&params, &run);
    println!("{}", result_line(&run));
    if run.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
