//! Benchmark of the mfa workspace: four workloads driven through the crates'
//! public APIs, each checked for correctness, with a separate traced run for
//! the per-layer metrics. METRICS.md lists every metric, its unit, its layer
//! and the end-to-end metric it should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dse-exact|dse-gpa|serve-open|store-sweep \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs from the repository root (the `dse-exact` goldens are read from
//! `crates/integration/tests/golden/`). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`).

mod dse;
mod report;
mod rng;
mod serve;
mod store;
mod trace;
mod worker;

use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

/// Command-line settings of one benchmark run.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Executor threads, daemon workers and sweep-worker processes: what the
    /// machine reports as available parallelism.
    pub threads: usize,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad seed {v}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {v}"))?;
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let threads = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
        threads,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The store-sweep workload re-executes this binary as its sweep-worker
    // processes, so the benchmark needs no other binary built.
    if args.first().map(String::as_str) == Some(worker::WORKER_FLAG) {
        return worker::main();
    }
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {:.1} trace {} threads {}",
        config.workload,
        config.seed,
        config.seconds.as_secs_f64(),
        u8::from(config.trace),
        config.threads
    );
    let result: Result<Outcome, String> = match config.workload.as_str() {
        "dse-exact" => dse::run_exact(&config),
        "dse-gpa" => dse::run_gpa(&config),
        "serve-open" => serve::run(&config),
        "store-sweep" => store::run(&config),
        other => Err(format!(
            "unknown workload {other} (dse-exact, dse-gpa, serve-open, store-sweep)"
        )),
    };
    match result {
        Ok(outcome) => {
            outcome.print();
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
