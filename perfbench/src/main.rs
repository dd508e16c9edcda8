//! Command-line entry of the benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a line of run facts, then as the last line the result object
//! (`correct`, `attempted`, `failed`, `metrics`).  A failed correctness
//! check prints the reason to stderr and exits non-zero with no result.

use perfbench::{run, RunConfig, Workload, SCRATCH_ROOT};
use std::process::ExitCode;
use std::time::Duration;

fn parse() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value:?}; one of: {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tiny: false,
    })
}

/// Ends a run that cannot finish — a deadlocked scan never returns to its
/// driver — with an error instead of a hang, removing this process's
/// scratch directory first.  The thread is never joined: either it ends
/// the process or the process ends without it.
fn watchdog(cfg: &RunConfig) {
    let limit = Duration::try_from_secs_f64(2.0 * cfg.windows() as f64 * cfg.seconds + 120.0)
        .unwrap_or(Duration::MAX);
    let tag = format!("{}-{}-", cfg.workload.name(), std::process::id());
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: no result after {limit:?}: a scan or driver is stuck");
        if let Ok(entries) = std::fs::read_dir(SCRATCH_ROOT) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().starts_with(&tag) {
                    let _ = std::fs::remove_dir_all(entry.path());
                }
            }
            let _ = std::fs::remove_dir(SCRATCH_ROOT);
        }
        std::process::exit(3);
    });
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    watchdog(&cfg);
    match run(&cfg) {
        Ok(outcome) => {
            println!("{}", outcome.info_json());
            println!("{}", outcome.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: check failed: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}
