//! `cold_suite`: the default hybrid-GRAPE compile of a fixed suite, each
//! circuit with a fresh compiler and an empty pulse library — exactly
//! what `epocc bench:X` runs. Closed loop, one caller.

use crate::{Args, Outcome};
use epoc::{CompilationReport, EpocCompiler, EpocConfig};
use epoc_perfbench::{
    builtin, geomean, median, peak_rss_mb, percentile, replay_fidelity, COLD_SUITE,
    SIM_FIDELITY_MIN, SIM_MAX_QUBITS,
};
use epoc_rt::rng::{Rng, StdRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 5;

/// The compile every workload and the traced run use: `epocc`'s default.
pub fn default_config() -> EpocConfig {
    EpocConfig::with_grape(2)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: build the suite's circuits and a default compiler.
    let mut setup = Vec::new();
    let mut circuits = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        circuits = COLD_SUITE
            .iter()
            .map(|&name| (name, builtin(name)))
            .collect();
        std::hint::black_box(EpocCompiler::new(default_config()));
        setup.push(t.elapsed().as_secs_f64());
    }

    // Measured section: whole passes over the suite in a seeded order
    // until the time is up (at least one pass).
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut latencies_ms = Vec::new();
    let mut first: BTreeMap<&str, CompilationReport> = BTreeMap::new();
    let t0 = Instant::now();
    while latencies_ms.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let mut order: Vec<usize> = (0..circuits.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        for i in order {
            let (name, circuit) = &circuits[i];
            out.attempted += 1;
            let t = Instant::now();
            let result = EpocCompiler::new(default_config()).compile(circuit);
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match result {
                Err(e) => out.fail_job(format!("{name}: {e}")),
                Ok(r) if !r.verified => out.fail_job(format!("{name}: report not verified")),
                Ok(r) => match first.get(name) {
                    Some(f) if (f.latency(), f.esp()) != (r.latency(), r.esp()) => {
                        out.fail_job(format!("{name}: schedule differs between passes"))
                    }
                    Some(_) => {}
                    None => {
                        first.insert(name, r);
                    }
                },
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    // Output checks outside the timed section: pulse-level replay of the
    // narrow schedules.
    for (name, circuit) in &circuits {
        let Some(report) = first.get(name) else {
            continue;
        };
        if circuit.n_qubits() <= SIM_MAX_QUBITS {
            match replay_fidelity(circuit, report) {
                Ok(f) if f >= SIM_FIDELITY_MIN => {}
                Ok(f) => out.fail_job(format!(
                    "{name}: simulated fidelity {f} < {SIM_FIDELITY_MIN}"
                )),
                Err(e) => out.fail_job(format!("{name}: simulation failed: {e}")),
            }
        }
    }
    if first.len() != circuits.len() {
        return Ok(out);
    }

    out.metric("setup_s", median(&setup), "s");
    out.metric("throughput_per_s", latencies_ms.len() as f64 / wall, "1/s");
    // Percentiles need ten samples beyond them; a four-circuit suite
    // only reaches that with long runs, so they are printed when earned.
    for (name, p) in [("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)] {
        match percentile(&latencies_ms, p) {
            Some(v) => out.metric(name, v, "ms"),
            None => println!(
                "# {name}: withheld, {} compiles leave fewer than 10 beyond it",
                latencies_ms.len()
            ),
        }
    }
    out.metric(
        "peak_rss_mb",
        peak_rss_mb(std::process::id()).unwrap_or(0.0),
        "MiB",
    );
    out.metric(
        "schedule_latency_ns",
        first.values().map(CompilationReport::latency).sum(),
        "pulse_ns",
    );
    let esps: Vec<f64> = first.values().map(CompilationReport::esp).collect();
    out.metric("esp", geomean(&esps), "ratio");
    Ok(out)
}
