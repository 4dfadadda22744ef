//! Shared pieces of the EPOC end-to-end benchmark: the workload
//! definitions, the seeded job-stream generator for the `epocd`
//! workloads, and the sample statistics the metrics are reported with.
//!
//! Everything here is deterministic: the same seed yields a
//! byte-identical job stream, so two runs of a workload differ only in
//! what the machine does with it.

use epoc::circuit::{generators, parse_qasm, to_qasm, Circuit, Gate};
use epoc_rt::json::Json;
use epoc_rt::rng::{Rng, StdRng};
use std::f64::consts::PI;
use std::sync::OnceLock;

/// Circuits `cold_suite` compiles, each with a fresh compiler and an
/// empty library (exactly `epocc bench:X`).
pub const COLD_SUITE: [&str; 4] = ["wstate_n3", "bb84_n8", "ising_n6", "qaoa_n6"];

/// The repeating-job pool of the service workloads.
pub const POOL: [&str; 5] = ["wstate_n3", "bell_n4", "bb84_n8", "ising_n6", "ham7_n7"];

/// In `service_mix`, one job in every `NOVEL_PERIOD` is a novel circuit.
pub const NOVEL_PERIOD: u64 = 8;

/// A builtin benchmark circuit by name.
///
/// # Panics
///
/// Panics on a name outside the builtin suite (workload tables only
/// name builtin circuits).
pub fn builtin(name: &str) -> Circuit {
    generators::benchmark_suite()
        .into_iter()
        .find(|b| b.name == name)
        .map(|b| b.circuit)
        .unwrap_or_else(|| panic!("unknown builtin benchmark '{name}'"))
}

/// The novel 2-qubit circuit of `service_mix` with circuit seed `seed`:
/// seeded random single-qubit rotations on both sides of one CX. The
/// angles make every novel block a library miss, while the fixed
/// entangling content gives every one the same duration-search shape
/// (a fully random circuit's GRAPE cost swings with its two-qubit gate
/// count, which would make the work of a run depend on the seed).
pub fn novel_circuit(seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(2);
    let mut layer = |c: &mut Circuit| {
        for q in 0..2 {
            c.push(Gate::RZ(rng.gen_f64() * PI), &[q]);
            c.push(Gate::RX(rng.gen_f64() * PI), &[q]);
        }
    };
    layer(&mut c);
    c.push(Gate::CX, &[0, 1]);
    layer(&mut c);
    c
}

/// What one generated job asks the daemon to compile.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// A pool circuit, sent as a `"bench"` name or as inline `"qasm"`.
    Pool { name: &'static str, qasm: bool },
    /// A novel circuit (always inline QASM), keyed by its circuit seed.
    Novel { seed: u64 },
}

impl JobKind {
    /// The circuit exactly as the daemon receives it: inline-QASM jobs
    /// go through the `to_qasm` / `parse_qasm` round trip.
    pub fn circuit(&self) -> Circuit {
        match self {
            JobKind::Pool { name, qasm: false } => builtin(name),
            _ => parse_qasm(&self.qasm()).expect("to_qasm output parses"),
        }
    }

    /// The QASM text of the job's circuit.
    pub fn qasm(&self) -> String {
        // Pool texts are built once: request lines are built inside the
        // measured loop, between a reply and the next job.
        static POOL_QASM: OnceLock<Vec<String>> = OnceLock::new();
        match self {
            JobKind::Pool { name, .. } => {
                let texts =
                    POOL_QASM.get_or_init(|| POOL.iter().map(|n| to_qasm(&builtin(n))).collect());
                let i = POOL.iter().position(|n| n == name).expect("a pool circuit");
                texts[i].clone()
            }
            JobKind::Novel { seed } => to_qasm(&novel_circuit(*seed)),
        }
    }

    /// A stable label: the pool name, or `novel` for novel circuits.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Pool { name, .. } => name,
            JobKind::Novel { .. } => "novel",
        }
    }

    /// The request line (without trailing newline) for job `id`.
    pub fn request_line(&self, id: u64) -> String {
        let req = Json::obj().push("id", id);
        match self {
            JobKind::Pool { name, qasm: false } => req.push("bench", *name),
            _ => req.push("qasm", self.qasm()),
        }
        .to_string_compact()
    }
}

/// Every pool job kind: each [`POOL`] circuit by name and as QASM.
pub fn pool_kinds() -> Vec<JobKind> {
    POOL.iter()
        .flat_map(|&name| [false, true].map(|qasm| JobKind::Pool { name, qasm }))
        .collect()
}

/// The seeded job stream of a service workload.
///
/// Pool jobs are drawn uniformly from [`POOL`] × {bench, qasm} as
/// seeded shuffles of the full deck, so every kind's share is exact
/// rather than merely expected. With `novel` on, exactly one job in
/// every [`NOVEL_PERIOD`] (at a seeded position inside each period) is a
/// fresh novel circuit instead. Exact shares keep the work of a run
/// independent of the seed; only the order and the novel angles vary.
pub struct JobStream {
    rng: StdRng,
    novel: bool,
    next_index: u64,
    novel_slot: u64,
    deck: Vec<JobKind>,
}

impl JobStream {
    /// A stream for `seed`; `novel` selects the `service_mix` shape.
    pub fn new(seed: u64, novel: bool) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_F00D),
            novel,
            next_index: 0,
            novel_slot: 0,
            deck: Vec::new(),
        }
    }

    /// The next job of the stream.
    pub fn next_job(&mut self) -> JobKind {
        let index = self.next_index;
        self.next_index += 1;
        if self.novel {
            if index.is_multiple_of(NOVEL_PERIOD) {
                self.novel_slot = self.rng.gen_range(0..NOVEL_PERIOD);
            }
            if index % NOVEL_PERIOD == self.novel_slot {
                return JobKind::Novel {
                    seed: self.rng.next_u64(),
                };
            }
        }
        if self.deck.is_empty() {
            self.deck = pool_kinds();
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..i + 1);
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().expect("refilled above")
    }

    /// The first `n` request lines (ids 1..=n), newline-terminated — the
    /// exact bytes a client would write for them.
    pub fn request_bytes(seed: u64, novel: bool, n: usize) -> String {
        let mut stream = Self::new(seed, novel);
        let mut out = String::new();
        for id in 1..=n as u64 {
            out.push_str(&stream.next_job().request_line(id));
            out.push('\n');
        }
        out
    }
}

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-quantile (0 < p < 1) of `samples` by the nearest-rank rule.
///
/// Refuses (returns `None`) when fewer than [`MIN_BEYOND`] samples lie
/// beyond the rank: a tail read off a handful of points is noise, not a
/// measurement.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The plain median of a non-empty sample (used for repeated set-up
/// times and kernel timings, where every sample measures the same work).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB, from
/// `/proc` (Linux only).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Widest schedule replayed through `epoc-sim` by the output checks.
pub const SIM_MAX_QUBITS: usize = 4;

/// Noiseless process fidelity a replayed schedule must reach (the
/// threshold of `ci.sh sim-smoke`).
pub const SIM_FIDELITY_MIN: f64 = 0.99;

/// Replays a compiled schedule through `epoc-sim` against the circuit's
/// unitary and returns the noiseless process fidelity.
pub fn replay_fidelity(circuit: &Circuit, report: &epoc::CompilationReport) -> Result<f64, String> {
    epoc::simulate_schedule(circuit, &report.schedule, &epoc::sim::SimOptions::default())
        .map(|s| s.outcome.process_fidelity)
        .map_err(|e| e.to_string())
}

/// Geometric mean of positive values (the suite ESP of Fig. 10).
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
