//! The traced run: replays each workload circuit through the layers'
//! public entry points, in pipeline order, with an in-memory span around
//! every call —
//!
//! 1. `lower_to_basis`, 2. `zx_optimize`, 3. `greedy_partition`,
//! 4. `synthesize` on each distinct block, 5. `regroup`, 6. a library
//!    `lookup` per pulse block, with the duration search
//!    (`minimize_duration`) on a miss, 7. `circuits_equivalent`
//!
//! — and derives the per-layer metrics, the layer-share table, and the
//! agreement check against an untraced `EpocCompiler::compile` of the
//! same circuit under the same configuration and library state. Spans
//! are written to the working directory when the run ends.

use crate::cold::default_config;
use crate::service::DaemonLayers;
use crate::{Args, Outcome};
use epoc::circuit::{circuits_equivalent, lower_to_basis, parse_qasm, Circuit};
use epoc::linalg::{eigh, expm_ih, random_hermitian, UnitaryKey};
use epoc::partition::{greedy_partition, regroup, Block, PartitionConfig};
use epoc::qoc::{
    load_library_file, minimize_duration, save_library_file, DeviceModel, DurationError,
    DurationSearchConfig, GrapeRecoveryPolicy, HybridSynthesizer, PulseEntry, PulseLibrary,
    PulseRequest, PulseSynthesizer, PulseWaveform,
};
use epoc::synth::{lower_to_vug_form, synthesize};
use epoc::zx::zx_optimize;
use epoc::{Backend, CompilationReport, EpocCompiler, EpocConfig};
use epoc_perfbench::{builtin, median, JobKind, COLD_SUITE, POOL};
use epoc_rt::json::Json;
use epoc_rt::rng::StdRng;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Pipeline constants mirrored from `epoc::pipeline`: the register width
/// above which verification is skipped, and the block width above which
/// no dense unitary is materialized.
const VERIFY_LIMIT: usize = 10;
const DENSE_LIMIT: usize = 8;

/// One closed span.
struct Span {
    name: &'static str,
    circuit: String,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. A disabled tracer runs the calls untimed
/// (warm-up passes).
struct Tracer {
    t0: Instant,
    enabled: bool,
    circuit: String,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            enabled: true,
            circuit: String::new(),
            spans: Vec::new(),
        }
    }

    fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.t0.elapsed().as_nanos() as u64;
        let r = f();
        let end = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            circuit: self.circuit.clone(),
            start_ns: start,
            end_ns: end,
        });
        r
    }

    /// Total milliseconds of the spans named `name`.
    fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    /// Self milliseconds per layer (the span-name prefix). Layer spans
    /// never nest, so a span's self time is its duration.
    fn layer_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        out
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .push("name", s.name)
                    .push("circuit", s.circuit.as_str())
                    .push("start_ns", s.start_ns)
                    .push("end_ns", s.end_ns)
            })
            .collect();
        std::fs::write(path, Json::Arr(spans).to_string_pretty()).map_err(|e| e.to_string())
    }
}

/// Work counted by one replay — the same quantities `StageStats` reports.
#[derive(Default, Clone, Copy, PartialEq, Debug)]
struct Counts {
    synth_blocks: usize,
    qsearch_nodes: usize,
    grape_probes: usize,
    grape_iterations: usize,
    cache_hits: usize,
    cache_misses: usize,
}

impl Counts {
    fn of(report: &CompilationReport) -> Self {
        let s = &report.stages;
        Self {
            synth_blocks: s.synth_blocks,
            qsearch_nodes: s.qsearch_nodes,
            grape_probes: s.grape_probes,
            grape_iterations: s.grape_iterations,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
        }
    }

    fn add(&mut self, o: &Counts) {
        self.synth_blocks += o.synth_blocks;
        self.qsearch_nodes += o.qsearch_nodes;
        self.grape_probes += o.grape_probes;
        self.grape_iterations += o.grape_iterations;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
    }
}

/// Everything else one replay observed.
#[derive(Default)]
struct Extra {
    zx_rewrites: usize,
    synth_converged: usize,
    regroup_blocks: usize,
    lookups: usize,
    kept_iterations: usize,
    /// A recovery rung was climbed (synth escalation or GRAPE ladder);
    /// such circuits are listed, not compared.
    recovered: bool,
    verified: bool,
}

/// Per-block synthesis outcome, memoized by unitary as the compiler does.
type SynthOutcome = (Circuit, bool, usize, bool);

/// A step-by-step re-implementation of `EpocCompiler::compile` over the
/// layers' public functions, holding the same long-lived state the
/// compiler holds (pulse backend and synthesis memo).
struct Replayer {
    config: EpocConfig,
    backend: HybridSynthesizer,
    search: DurationSearchConfig,
    devices: HashMap<usize, DeviceModel>,
    memo: HashMap<UnitaryKey, SynthOutcome>,
}

impl Replayer {
    fn new() -> Self {
        let config = default_config();
        let Backend::Hybrid { grape_limit } = config.backend else {
            unreachable!("the default benchmark config is hybrid")
        };
        // The same duration-search settings the pipeline derives.
        let mut search = DurationSearchConfig::default();
        search.grape.workers = config
            .workers
            .unwrap_or_else(epoc_rt::pool::default_workers);
        search.grape.hw = config.hw.clone();
        search.recovery = GrapeRecoveryPolicy {
            restart_escalations: config.recovery.grape_restart_escalations,
            slot_escalations: config.recovery.grape_slot_escalations,
            strict: config.recovery.strict,
        };
        let backend = HybridSynthesizer::with_search_store(
            config.key_policy,
            search.clone(),
            grape_limit,
            config.duration_model,
            &config.store,
        );
        Self {
            config,
            backend,
            search,
            devices: HashMap::new(),
            memo: HashMap::new(),
        }
    }

    fn sections(&self) -> [(&'static str, &PulseLibrary); 2] {
        [
            ("grape", self.backend.grape().library()),
            ("model", self.backend.modeled().library()),
        ]
    }

    fn synth_block(&mut self, block: &Block, tr: &mut Tracer) -> Result<SynthOutcome, String> {
        let cfg = &self.config;
        if block.n_qubits() > cfg.synth_qubit_limit {
            let local = tr
                .span("synth.select", || lower_to_vug_form(block.circuit()))
                .map_err(|e| e.to_string())?;
            return Ok((local, false, 0, false));
        }
        let (unitary, key) = tr.span("synth.memo", || {
            let u = block.unitary();
            let key = UnitaryKey::new(&u);
            (u, key)
        });
        if let Some(hit) = self.memo.get(&key) {
            return Ok(hit.clone());
        }
        let mut synth_cfg = cfg.synth.clone();
        let mut r = tr
            .span("synth.qsearch", || synthesize(&unitary, &synth_cfg))
            .map_err(|e| e.to_string())?;
        let mut nodes = r.nodes_evaluated;
        let mut escalated = false;
        for _ in 0..cfg.recovery.synth_budget_escalations {
            if r.converged {
                break;
            }
            escalated = true;
            synth_cfg.max_nodes = synth_cfg
                .max_nodes
                .saturating_mul(cfg.recovery.synth_budget_factor);
            r = tr
                .span("synth.qsearch", || synthesize(&unitary, &synth_cfg))
                .map_err(|e| e.to_string())?;
            nodes += r.nodes_evaluated;
        }
        let table = &cfg.duration_model.gate_table;
        let outcome = tr.span("synth.select", || {
            let original = lower_to_vug_form(block.circuit()).map_err(|e| e.to_string())?;
            Ok::<_, String>(
                if r.converged && table.critical_path(&r.circuit) <= table.critical_path(&original)
                {
                    (r.circuit, true, nodes, escalated)
                } else {
                    (original, false, nodes, escalated)
                },
            )
        })?;
        self.memo.insert(key, outcome.clone());
        Ok(outcome)
    }

    /// The duration search for one missing block, inserted into the
    /// library exactly as the pipeline inserts it.
    fn compute(
        &mut self,
        n: usize,
        u: &epoc::linalg::Matrix,
        tr: &mut Tracer,
        c: &mut Counts,
        x: &mut Extra,
    ) -> Result<(), String> {
        let device = match self.devices.get(&n) {
            Some(d) => d.clone(),
            None => {
                let d = DeviceModel::transmon_line(n).map_err(|e| e.to_string())?;
                self.devices.insert(n, d.clone());
                d
            }
        };
        let grape = self.backend.grape();
        let entry = match tr.span("qoc.duration_search", || {
            minimize_duration(&device, u, &self.search)
        }) {
            Ok(sol) => {
                c.grape_probes += sol.probes;
                c.grape_iterations += sol.total_iterations;
                x.kept_iterations += sol.result.iterations;
                PulseEntry {
                    duration: sol.result.duration,
                    fidelity: sol.result.fidelity,
                    n_slots: sol.n_slots,
                    waveform: Some(Arc::new(PulseWaveform::new(
                        device.dt(),
                        sol.result.controls,
                    ))),
                }
            }
            Err(DurationError::Unconverged(err)) => {
                // The synthesizer's recovery ladder takes over (it repeats
                // the base attempt, so these counts are not comparable).
                c.grape_probes += err.probes;
                c.grape_iterations += err.total_iterations;
                x.recovered = true;
                let (i0, p0) = (grape.total_iterations(), grape.total_probes());
                let r = tr
                    .span("qoc.duration_search", || grape.compute_uncached(n, u))
                    .map_err(|e| e.to_string())?;
                c.grape_iterations += grape.total_iterations() - i0;
                c.grape_probes += grape.total_probes() - p0;
                r.entry
            }
            Err(DurationError::Grape(e)) => return Err(e.to_string()),
        };
        tr.span("qoc.library_insert", || grape.library().insert(u, entry));
        Ok(())
    }

    /// Replays one compile of `job`; inline-QASM jobs are parsed under a
    /// span.
    fn replay(&mut self, job: &JobKind, tr: &mut Tracer) -> Result<(Counts, Extra), String> {
        let mut c = Counts::default();
        let mut x = Extra::default();
        let (h0, m0) = (self.backend.cache_hits(), self.backend.cache_misses());
        let circuit = match job {
            JobKind::Pool { name, qasm: false } => builtin(name),
            _ => {
                let src = job.qasm();
                tr.span("circuit.parse", || parse_qasm(&src))
                    .map_err(|e| e.to_string())?
            }
        };
        let basis = tr.span("circuit.lower", || lower_to_basis(&circuit));
        let optimized = if self.config.zx && basis.len() <= self.config.zx_gate_limit {
            let r = tr.span("zx.optimize", || zx_optimize(&basis));
            x.zx_rewrites = r.rewrites;
            r.circuit
        } else {
            basis
        };
        let partition = tr.span("partition.greedy", || {
            greedy_partition(&optimized, self.config.partition)
        });
        c.synth_blocks = partition.len();
        let mut vug = Circuit::new(optimized.n_qubits());
        for block in partition.blocks() {
            let (local, converged, nodes, escalated) = self.synth_block(block, tr)?;
            x.synth_converged += usize::from(converged);
            x.recovered |= escalated;
            c.qsearch_nodes += nodes;
            vug.extend_mapped(&local, block.qubits());
        }
        let regrouped = tr.span("partition.regroup", || match self.config.regroup {
            Some(cfg) => regroup(&vug, cfg),
            None => greedy_partition(
                &vug,
                PartitionConfig {
                    max_qubits: 2,
                    max_gates: 1,
                },
            ),
        });
        x.regroup_blocks = regrouped.len();
        for block in regrouped.blocks().iter().filter(|b| !b.is_empty()) {
            let n = block.n_qubits();
            let u = tr.span("partition.unitary", || {
                (n <= DENSE_LIMIT).then(|| block.unitary())
            });
            x.lookups += 1;
            match &u {
                Some(u) if n <= self.backend.grape().max_qubits() => {
                    let grape = self.backend.grape();
                    if tr
                        .span("qoc.library_lookup", || grape.library().lookup(u))
                        .is_none()
                    {
                        self.compute(n, u, tr, &mut c, &mut x)?;
                    }
                }
                _ => {
                    let req = PulseRequest {
                        n_qubits: n,
                        unitary: u.as_ref(),
                        local_circuit: Some(block.circuit()),
                    };
                    tr.span("qoc.library_lookup", || self.backend.pulse(&req))
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        c.cache_hits = self.backend.cache_hits() - h0;
        c.cache_misses = self.backend.cache_misses() - m0;
        x.verified = circuit.n_qubits() > VERIFY_LIMIT
            || tr.span("circuit.verify", || {
                circuits_equivalent(&circuit, &vug, 1e-3)
            });
        Ok((c, x))
    }
}

/// What a traced workload accumulates across its circuits.
#[derive(Default)]
struct Totals {
    counts: Counts,
    zx_rewrites: usize,
    synth_converged: usize,
    regroup_blocks: usize,
    lookups: usize,
    kept_iterations: usize,
    untraced_ms: f64,
    traced_ms: f64,
    library_load_ms: f64,
    library_save_ms: f64,
    library_bytes: f64,
}

/// Replays `job` traced and compiles it untraced, checks the two agree,
/// and accumulates the totals.
fn measure(
    job: &JobKind,
    compiler: &EpocCompiler,
    replayer: &mut Replayer,
    tr: &mut Tracer,
    totals: &mut Totals,
    out: &mut Outcome,
) -> Result<(), String> {
    let name = job.label();
    let circuit = job.circuit();
    out.attempted += 1;
    let t = Instant::now();
    let report = compiler
        .compile(&circuit)
        .map_err(|e| format!("{name}: {e}"))?;
    totals.untraced_ms += t.elapsed().as_secs_f64() * 1e3;
    tr.circuit = name.to_string();
    let t = Instant::now();
    let (counts, extra) = replayer.replay(job, tr)?;
    totals.traced_ms += t.elapsed().as_secs_f64() * 1e3;
    if !report.verified || !extra.verified {
        out.fail_job(format!(
            "{name}: not verified (report {}, replay {})",
            report.verified, extra.verified
        ));
    }
    if extra.recovered || !report.stages.recoveries.is_empty() {
        println!("# agreement: {name} climbed a recovery rung; listed, not compared");
    } else if counts != Counts::of(&report) {
        out.problem(format!(
            "{name}: traced counts {counts:?} != report {:?}",
            Counts::of(&report)
        ));
    }
    totals.counts.add(&counts);
    totals.zx_rewrites += extra.zx_rewrites;
    totals.synth_converged += extra.synth_converged;
    totals.regroup_blocks += extra.regroup_blocks;
    totals.lookups += extra.lookups;
    totals.kept_iterations += extra.kept_iterations;
    Ok(())
}

/// Median per-call microseconds of the 4×4 kernels 2-qubit GRAPE runs.
fn kernel_us() -> Result<(f64, f64), String> {
    const BATCHES: usize = 41;
    const CALLS: usize = 100;
    let mut rng = StdRng::seed_from_u64(4);
    let hs: Vec<_> = (0..CALLS).map(|_| random_hermitian(4, &mut rng)).collect();
    let time = |f: &dyn Fn(&epoc::linalg::Matrix) -> Result<(), String>| -> Result<f64, String> {
        let mut per_call = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let t = Instant::now();
            for h in &hs {
                f(h)?;
            }
            per_call.push(t.elapsed().as_secs_f64() * 1e6 / CALLS as f64);
        }
        Ok(median(&per_call))
    };
    let eigh_us = time(&|h| {
        eigh(h)
            .map(|e| drop(std::hint::black_box(e)))
            .map_err(|e| e.to_string())
    })?;
    let expm_us = time(&|h| {
        expm_ih(h, 0.7)
            .map(|m| drop(std::hint::black_box(m)))
            .map_err(|e| e.to_string())
    })?;
    Ok((eigh_us, expm_us))
}

/// Emits the per-layer metrics, the layer-share table and the tracing
/// overhead, and writes the spans.
fn report(
    args: &Args,
    tr: &Tracer,
    t: &Totals,
    daemon: Option<&DaemonLayers>,
    out: &mut Outcome,
) -> Result<(), String> {
    let (eigh_us, expm_us) = kernel_us()?;
    let c = &t.counts;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let layers = tr.layer_ms();
    let layer_total: f64 = layers.values().sum();
    let replay_ms = |name| tr.total_ms(name);
    out.metric(
        "qoc.duration_search_ms",
        replay_ms("qoc.duration_search"),
        "ms",
    );
    out.metric("qoc.grape_probes", c.grape_probes as f64, "count");
    out.metric("qoc.grape_iterations", c.grape_iterations as f64, "count");
    out.metric(
        "qoc.kept_iteration_ratio",
        ratio(t.kept_iterations, c.grape_iterations),
        "ratio",
    );
    out.metric("linalg.eigh_4_us", eigh_us, "us");
    out.metric("linalg.expm_ih_4_us", expm_us, "us");
    out.metric("circuit.lower_ms", replay_ms("circuit.lower"), "ms");
    out.metric("circuit.parse_ms", replay_ms("circuit.parse"), "ms");
    out.metric("circuit.verify_ms", replay_ms("circuit.verify"), "ms");
    out.metric("zx.optimize_ms", replay_ms("zx.optimize"), "ms");
    out.metric("zx.rewrites", t.zx_rewrites as f64, "count");
    out.metric("partition.greedy_ms", replay_ms("partition.greedy"), "ms");
    out.metric("partition.blocks", c.synth_blocks as f64, "count");
    out.metric("partition.regroup_ms", replay_ms("partition.regroup"), "ms");
    out.metric("partition.regroup_blocks", t.regroup_blocks as f64, "count");
    out.metric("synth.qsearch_ms", replay_ms("synth.qsearch"), "ms");
    out.metric("synth.nodes", c.qsearch_nodes as f64, "count");
    out.metric(
        "synth.converged_ratio",
        ratio(t.synth_converged, c.synth_blocks),
        "ratio",
    );
    out.metric(
        "qoc.library_lookup_us",
        if t.lookups == 0 {
            0.0
        } else {
            replay_ms("qoc.library_lookup") * 1e3 / t.lookups as f64
        },
        "us",
    );
    out.metric(
        "qoc.library_hit_ratio",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        "ratio",
    );
    out.metric("qoc.library_load_ms", t.library_load_ms, "ms");
    out.metric("qoc.library_save_ms", t.library_save_ms, "ms");
    out.metric("qoc.library_bytes", t.library_bytes, "bytes");
    out.metric("core.other_ms", t.untraced_ms - layer_total, "ms");
    let d = daemon.map_or((0.0, 0.0, 0.0), |d| (d.wait_ms, d.io_ms, d.checkpoint_ms));
    out.metric("epocd.wait_ms", d.0, "ms");
    out.metric("epocd.io_ms", d.1, "ms");
    out.metric("epocd.checkpoint_ms", d.2, "ms");

    // The layer-share table (markdown), over the traced replay.
    println!(
        "\n### `{}` layer shares (traced replay, seed {})\n",
        args.workload, args.seed
    );
    println!("| layer | self ms | share | counts |");
    println!("|---|---:|---:|---|");
    let counts_of = |layer: &str| -> String {
        match layer {
            "circuit" => format!("verify {:.3} ms", replay_ms("circuit.verify")),
            "zx" => format!("rewrites {}", t.zx_rewrites),
            "partition" => format!("blocks {}, regrouped {}", c.synth_blocks, t.regroup_blocks),
            "synth" => format!(
                "nodes {}, converged {}/{}",
                c.qsearch_nodes, t.synth_converged, c.synth_blocks
            ),
            "qoc" => format!(
                "probes {}, iterations {}, hits {}, misses {}",
                c.grape_probes, c.grape_iterations, c.cache_hits, c.cache_misses
            ),
            _ => String::new(),
        }
    };
    for (layer, ms) in &layers {
        let share = if layer_total > 0.0 {
            100.0 * ms / layer_total
        } else {
            0.0
        };
        println!("| {layer} | {ms:.3} | {share:.1}% | {} |", counts_of(layer));
    }
    println!(
        "\nTracing overhead: traced replay {:.3} ms vs untraced compile {:.3} ms, difference {:.3} ms",
        t.traced_ms,
        t.untraced_ms,
        t.traced_ms - t.untraced_ms
    );
    tr.write(&args.workdir.join(format!("spans-{}.json", args.workload)))
}

/// Traced `cold_suite`: each suite circuit compiled untraced with a fresh
/// compiler and replayed traced with a fresh replayer.
pub fn cold_suite(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let mut totals = Totals::default();
    for name in COLD_SUITE {
        let compiler = EpocCompiler::new(default_config());
        let mut replayer = Replayer::new();
        measure(
            &JobKind::Pool { name, qasm: false },
            &compiler,
            &mut replayer,
            &mut tr,
            &mut totals,
            &mut out,
        )?;
        save_library(args, &replayer, &mut totals)?;
    }
    report(args, &tr, &totals, None, &mut out)?;
    Ok(out)
}

/// Persists the replayer's libraries (timed) and adds their resident size.
fn save_library(args: &Args, r: &Replayer, totals: &mut Totals) -> Result<(), String> {
    let t = Instant::now();
    save_library_file(&args.workdir.join("trace-library.json"), &r.sections())
        .map_err(|e| e.to_string())?;
    totals.library_save_ms += t.elapsed().as_secs_f64() * 1e3;
    totals.library_bytes += r
        .sections()
        .iter()
        .map(|(_, lib)| lib.approx_bytes() as f64)
        .sum::<f64>();
    Ok(())
}

/// Traced service workload: the pool circuits (as their QASM jobs) warm
/// from the set-up library after one warm-up pass — the daemon's steady
/// state — then the given novel circuits cold.
pub fn service(
    args: &Args,
    library: &Path,
    novel: &[u64],
    daemon: &DaemonLayers,
    out: &mut Outcome,
) -> Result<(), String> {
    let compiler = EpocCompiler::new(default_config());
    compiler.load_library(library).map_err(|e| e.to_string())?;
    let mut replayer = Replayer::new();
    let mut totals = Totals::default();
    let t = Instant::now();
    load_library_file(library, &replayer.sections()).map_err(|e| e.to_string())?;
    totals.library_load_ms = t.elapsed().as_secs_f64() * 1e3;
    let pool: Vec<JobKind> = POOL
        .iter()
        .map(|&name| JobKind::Pool { name, qasm: true })
        .collect();
    for job in &pool {
        compiler
            .compile(&job.circuit())
            .map_err(|e| format!("{}: {e}", job.label()))?;
        replayer.replay(job, &mut Tracer::disabled())?;
    }
    let mut tr = Tracer::new();
    let novel = novel.iter().map(|&seed| JobKind::Novel { seed });
    for job in pool.iter().cloned().chain(novel) {
        measure(&job, &compiler, &mut replayer, &mut tr, &mut totals, out)?;
    }
    save_library(args, &replayer, &mut totals)?;
    report(args, &tr, &totals, Some(daemon), out)
}
