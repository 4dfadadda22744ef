//! `perfbench` — the end-to-end benchmark runner behind `perfbench/run.py`.
//!
//! ```sh
//! perfbench --workload warm_service --seed 1 --seconds 30 --trace 0 \
//!     --epocd target/release/epocd --workdir .bench_build/perfbench-work
//! ```
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run replays the workload's circuits through each layer's public entry
//! points under in-memory spans and reports the per-layer metrics.
//! Human-readable lines (run record, layer-share table) precede it.

mod cold;
mod service;
mod trace;

use epoc_rt::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub epocd: PathBuf,
    pub workdir: PathBuf,
    pub commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut epocd = None;
    let mut workdir = None;
    let mut commit = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--epocd" => epocd = Some(PathBuf::from(value)),
            "--workdir" => workdir = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        epocd: epocd.ok_or("--epocd is required")?,
        workdir: workdir.ok_or("--workdir is required")?,
        commit,
    })
}

/// What one workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Compiles or jobs attempted in the measured section.
    pub attempted: u64,
    /// Of those, the ones that errored, were rejected, or failed a check.
    pub failed: u64,
    /// Every failed check, job-level or not (agreement, consistency).
    pub problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records a failed job (counted in `failed`) with its reason.
    pub fn fail_job(&mut self, why: String) {
        self.failed += 1;
        self.problem(why);
    }

    /// Records a failed check that is not one job's.
    pub fn problem(&mut self, why: String) {
        if self.problems.len() < 20 {
            eprintln!("perfbench: check failed: {why}");
        }
        self.problems.push(why);
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, value, unit) in &self.metrics {
            metrics = metrics.push(name, Json::obj().push("value", *value).push("unit", *unit));
        }
        Json::obj()
            .push("correct", self.problems.is_empty())
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push("metrics", metrics)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# run {}",
        Json::obj()
            .push("workload", args.workload.as_str())
            .push("seed", args.seed)
            .push("seconds", args.seconds)
            .push("trace", args.trace)
            .push("nproc", nproc)
            .push("simd_active", epoc::linalg::simd_active())
            .push("commit", args.commit.as_str())
            .to_string_compact()
    );
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", args.workdir.display());
        return ExitCode::FAILURE;
    }
    let result = match (args.workload.as_str(), args.trace) {
        ("cold_suite", false) => cold::run(&args),
        ("cold_suite", true) => trace::cold_suite(&args),
        ("warm_service", trace) => service::run(&args, false, trace),
        ("service_mix", trace) => service::run(&args, true, trace),
        (other, _) => Err(format!(
            "unknown workload '{other}' (cold_suite, warm_service, service_mix)"
        )),
    };
    match result {
        Ok(outcome) => {
            if outcome.attempted > 0 {
                println!(
                    "# failed_ratio {} ({} of {} attempted)",
                    outcome.failed as f64 / outcome.attempted as f64,
                    outcome.failed,
                    outcome.attempted
                );
            }
            println!("{}", outcome.to_json().to_string_compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
