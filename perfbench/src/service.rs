//! The `epocd` workloads: a warm-restarted daemon answering a seeded
//! stream of jobs over stdin, driven closed-loop by [`CALLERS`] callers
//! that each wait for their reply before sending the next job.
//!
//! * `warm_service` — repeating jobs from [`POOL`], half by `"bench"`
//!   name and half as inline `"qasm"`; every block is a library hit.
//! * `service_mix` — the same, plus `--journal` and a periodic
//!   checkpoint, with one job in [`NOVEL_PERIOD`] a novel circuit whose
//!   blocks need GRAPE, a library insert and a journal append.

use crate::cold::default_config;
use crate::{trace, Args, Outcome};
use epoc::EpocCompiler;
use epoc_perfbench::{
    geomean, median, peak_rss_mb, percentile, pool_kinds, replay_fidelity, JobKind, JobStream,
    NOVEL_PERIOD, POOL, SIM_FIDELITY_MIN, SIM_MAX_QUBITS,
};
use epoc_rt::json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Concurrent callers of the closed loop (requests in flight).
const CALLERS: usize = 2;
/// Warm daemon starts per set-up; their median enters `setup_s`.
const WARM_STARTS: usize = 3;
/// `--checkpoint-every` of the `service_mix` daemon.
const CHECKPOINT_EVERY: usize = 16;
/// Explicit `checkpoint` round trips timed by the traced run.
const CHECKPOINT_PROBES: usize = 3;

/// A running `epocd` speaking the line protocol over its stdin/stdout.
/// Dropping it kills and reaps the process if it has not exited.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    exited: bool,
}

impl Daemon {
    fn spawn(epocd: &Path, flags: &[String], stderr: &Path) -> Result<Self, String> {
        let log = std::fs::File::create(stderr).map_err(|e| e.to_string())?;
        let mut child = Command::new(epocd)
            .args(flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", epocd.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Self {
            child,
            stdin,
            stdout,
            exited: false,
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("daemon stdin closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write to epocd: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("epocd closed its stdout".into()),
            Ok(_) => Json::parse(line.trim_end()).map_err(|e| format!("bad reply: {e}")),
            Err(e) => Err(format!("read from epocd: {e}")),
        }
    }

    fn request(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        self.recv()
    }

    /// Graceful `shutdown` (the daemon checkpoints), then waits for exit.
    fn shutdown(&mut self) -> Result<(), String> {
        let reply = self.request(r#"{"cmd":"shutdown"}"#)?;
        self.stdin = None;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        self.exited = true;
        if !status.success() || !is_ok(&reply) {
            return Err(format!(
                "epocd shutdown failed: {status}, {}",
                reply.to_string_compact()
            ));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn is_ok(reply: &Json) -> bool {
    matches!(reply.get("ok"), Some(Json::Bool(true))) && reply.get("rejected").is_none()
}

fn num(v: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_f64()
}

/// Schedule latency (ns) and ESP recomputed from a report's JSON pulses,
/// exactly as `PulseSchedule::latency` / `esp` define them.
fn schedule_quality(report: &Json) -> Option<(f64, f64)> {
    let Some(Json::Arr(pulses)) = report.get("schedule").and_then(|s| s.get("pulses")) else {
        return None;
    };
    let mut latency = 0.0f64;
    let mut esp = 1.0f64;
    for p in pulses {
        latency = latency.max(num(p, &["start"])? + num(p, &["duration"])?);
        esp *= num(p, &["fidelity"])?;
    }
    Some((latency, esp))
}

/// Per-run bookkeeping of what the replies showed.
#[derive(Default)]
struct Replies {
    latency_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    io_ms: Vec<f64>,
    /// One `kind,latency_ms,wait_ms,compile_ms` row per job, written to
    /// the working directory after the run.
    csv: String,
    hits: f64,
    misses: f64,
    /// First (latency, esp) seen per distinct request body.
    quality: BTreeMap<String, (f64, f64)>,
    /// Novel jobs answered, in order (their pulse-level replay runs
    /// after the daemon has persisted them).
    novel: Vec<JobKind>,
}

impl Replies {
    /// Checks one reply and records its samples.
    fn record(
        &mut self,
        out: &mut Outcome,
        kind: &JobKind,
        reply: &Json,
        latency_ms: f64,
        wait_ms: f64,
    ) {
        out.attempted += 1;
        self.latency_ms.push(latency_ms);
        let what = kind.label();
        if !is_ok(reply) {
            return out.fail_job(format!("{what}: {}", reply.to_string_compact()));
        }
        let Some(report) = reply.get("report") else {
            return out.fail_job(format!("{what}: reply has no report"));
        };
        if !matches!(report.get("verified"), Some(Json::Bool(true))) {
            return out.fail_job(format!("{what}: report not verified"));
        }
        let hits = num(report, &["stages", "cache_hits"]).unwrap_or(f64::NAN);
        let misses = num(report, &["stages", "cache_misses"]).unwrap_or(f64::NAN);
        let iters = num(report, &["stages", "grape_iterations"]).unwrap_or(f64::NAN);
        self.hits += hits;
        self.misses += misses;
        let compile_ms = num(report, &["compile_time", "secs"]).unwrap_or(0.0) * 1e3
            + num(report, &["compile_time", "nanos"]).unwrap_or(0.0) / 1e6;
        self.wait_ms.push(wait_ms);
        self.io_ms.push(latency_ms - wait_ms - compile_ms);
        self.csv += &format!("{what},{latency_ms},{wait_ms},{compile_ms}\n");
        let novel = matches!(kind, JobKind::Novel { .. });
        if !novel && (misses != 0.0 || iters != 0.0) {
            return out.fail_job(format!(
                "{what}: warm job missed ({misses} misses, {iters} GRAPE iterations)"
            ));
        }
        if novel && misses < 1.0 {
            return out.fail_job(format!("{what}: novel job hit the library"));
        }
        let Some(q) = schedule_quality(report) else {
            return out.fail_job(format!("{what}: report has no readable schedule"));
        };
        let key = kind.request_line(0);
        match self.quality.get(&key) {
            Some(&seen) if seen != q => {
                out.fail_job(format!("{what}: schedule changed between jobs"))
            }
            Some(_) => {}
            None => {
                self.quality.insert(key, q);
                if novel {
                    self.novel.push(kind.clone());
                }
            }
        }
    }
}

/// Builds the pool's library cold through a daemon (every pool circuit in
/// both request forms), returning the set-up seconds.
fn build_library(args: &Args, lib: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let mut cold = Daemon::spawn(
        &args.epocd,
        &lib_flags(lib),
        &args.workdir.join("epocd-cold.log"),
    )?;
    let kinds = pool_kinds();
    for (i, kind) in kinds.iter().enumerate() {
        cold.send(&kind.request_line(i as u64 + 1))?;
    }
    for kind in &kinds {
        let reply = cold.recv()?;
        if !is_ok(&reply) {
            return Err(format!(
                "set-up compile of {} failed: {}",
                kind.label(),
                reply.to_string_compact()
            ));
        }
    }
    cold.shutdown()?;
    Ok(t.elapsed().as_secs_f64())
}

fn lib_flags(lib: &Path) -> Vec<String> {
    vec!["--library".into(), lib.display().to_string()]
}

/// Starts the measured daemon warm from `lib`, timed until it answers a
/// `stats` request.
fn warm_start(args: &Args, flags: &[String]) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let mut d = Daemon::spawn(&args.epocd, flags, &args.workdir.join("epocd.log"))?;
    let stats = d.request(r#"{"cmd":"stats"}"#)?;
    let secs = t.elapsed().as_secs_f64();
    if num(&stats, &["stats", "library_entries"]).unwrap_or(0.0) < 1.0 {
        return Err("warm daemon started with an empty library".into());
    }
    Ok((d, secs))
}

/// Per-layer figures only the daemon loop can see.
pub struct DaemonLayers {
    pub wait_ms: f64,
    pub io_ms: f64,
    pub checkpoint_ms: f64,
}

pub fn run(args: &Args, mix: bool, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let lib = args.workdir.join("pulses.json");
    let journal = args.workdir.join("pulses.journal");
    let snapshot = args.workdir.join("pulses-setup.json");
    for f in [&lib, &journal, &snapshot] {
        let _ = std::fs::remove_file(f);
    }

    // Set-up: the cold library build, then warm restarts.
    let cold_s = build_library(args, &lib)?;
    std::fs::copy(&lib, &snapshot).map_err(|e| e.to_string())?;
    let mut flags = lib_flags(&lib);
    if mix {
        flags.extend([
            "--journal".into(),
            journal.display().to_string(),
            "--checkpoint-every".into(),
            CHECKPOINT_EVERY.to_string(),
        ]);
    }
    let mut starts = Vec::new();
    let mut daemon = None;
    for i in 0..WARM_STARTS {
        let (mut d, secs) = warm_start(args, &flags)?;
        starts.push(secs);
        if i + 1 < WARM_STARTS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one warm start");
    let setup_s = cold_s + median(&starts);

    // Measured section: the closed loop.
    let mut stream = JobStream::new(args.seed, mix);
    let mut replies = Replies::default();
    let mut inflight: VecDeque<(u64, JobKind, Instant)> = VecDeque::new();
    let mut next_id = 1u64;
    let mut send_next = |d: &mut Daemon, inflight: &mut VecDeque<_>| -> Result<(), String> {
        let kind = stream.next_job();
        let line = kind.request_line(next_id);
        let sent = Instant::now();
        d.send(&line)?;
        inflight.push_back((next_id, kind, sent));
        next_id += 1;
        Ok(())
    };
    let t0 = Instant::now();
    for _ in 0..CALLERS {
        send_next(&mut daemon, &mut inflight)?;
    }
    let mut prev_reply = t0;
    while let Some((id, kind, sent)) = inflight.pop_front() {
        let reply = daemon.recv()?;
        let now = Instant::now();
        // Replies come back in arrival order, so a job waited for the
        // reply before its own from the moment it was written.
        let wait = prev_reply.saturating_duration_since(sent);
        prev_reply = now;
        if num(&reply, &["id"]) != Some(id as f64) {
            return Err(format!(
                "reply out of order: expected id {id}, got {}",
                reply.to_string_compact()
            ));
        }
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        replies.record(&mut out, &kind, &reply, ms(now - sent), ms(wait));
        if t0.elapsed().as_secs_f64() < args.seconds {
            send_next(&mut daemon, &mut inflight)?;
        }
    }
    let wall = prev_reply.duration_since(t0).as_secs_f64();
    let csv = format!("kind,latency_ms,wait_ms,compile_ms\n{}", replies.csv);
    std::fs::write(args.workdir.join("jobs.csv"), csv).map_err(|e| e.to_string())?;

    // Counter agreement: the daemon's cumulative stats must equal the
    // sums over its replies.
    let stats = daemon.request(r#"{"cmd":"stats"}"#)?;
    let daemon_counts = (
        num(&stats, &["stats", "cache_hits"]).unwrap_or(f64::NAN),
        num(&stats, &["stats", "cache_misses"]).unwrap_or(f64::NAN),
    );
    if daemon_counts != (replies.hits, replies.misses) {
        out.problem(format!(
            "epocd stats hits/misses {daemon_counts:?} != reply sums ({}, {})",
            replies.hits, replies.misses
        ));
    }
    let mut checkpoint_ms = Vec::new();
    if traced {
        for _ in 0..CHECKPOINT_PROBES {
            let t = Instant::now();
            let reply = daemon.request(r#"{"cmd":"checkpoint"}"#)?;
            checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if !is_ok(&reply) {
                out.problem(format!("checkpoint failed: {}", reply.to_string_compact()));
            }
        }
    }
    let rss = peak_rss_mb(daemon.pid());
    daemon.shutdown()?;

    // Output checks outside the timed section, each failure counted as a
    // failed job: replay every narrow schedule through epoc-sim. The
    // shut-down daemon persisted every pulse it made, so an in-process
    // compile warm from its library reproduces its schedules without
    // GRAPE; each must match the daemon's reply before it is simulated.
    let compiler = EpocCompiler::new(default_config());
    compiler.load_library(&lib).map_err(|e| e.to_string())?;
    let narrow = POOL
        .iter()
        .map(|&name| JobKind::Pool { name, qasm: false })
        .chain(replies.novel.iter().cloned());
    for kind in narrow {
        let circuit = kind.circuit();
        if circuit.n_qubits() > SIM_MAX_QUBITS {
            continue;
        }
        let what = kind.label();
        let Some(&seen) = replies.quality.get(&kind.request_line(0)) else {
            continue;
        };
        let report = match compiler.compile(&circuit) {
            Ok(r) => r,
            Err(e) => {
                out.fail_job(format!("{what}: replay compile failed: {e}"));
                continue;
            }
        };
        if report.stages.cache_misses != 0 || (report.latency(), report.esp()) != seen {
            out.fail_job(format!(
                "{what}: in-process schedule differs from the daemon's"
            ));
            continue;
        }
        match replay_fidelity(&circuit, &report) {
            Ok(f) if f >= SIM_FIDELITY_MIN => {}
            Ok(f) => out.fail_job(format!(
                "{what}: simulated fidelity {f} < {SIM_FIDELITY_MIN} for {}",
                kind.request_line(0)
            )),
            Err(e) => out.fail_job(format!("{what}: simulation failed: {e}")),
        }
    }

    if traced {
        let daemon_layers = DaemonLayers {
            wait_ms: mean(&replies.wait_ms),
            io_ms: mean(&replies.io_ms),
            checkpoint_ms: median(&checkpoint_ms),
        };
        let novel_seeds = novel_seeds(args.seed, mix);
        trace::service(args, &snapshot, &novel_seeds, &daemon_layers, &mut out)?;
        return Ok(out);
    }

    // End-to-end metrics. Quality is summed over the pool circuits (the
    // circuits every run compiles), so it is a pure function of the code.
    let pool_quality: Vec<(f64, f64)> = POOL
        .iter()
        .filter_map(|&name| {
            replies
                .quality
                .get(&JobKind::Pool { name, qasm: false }.request_line(0))
                .copied()
        })
        .collect();
    if pool_quality.len() != POOL.len() {
        out.problem("some pool circuit was never compiled in the measured section".into());
        return Ok(out);
    }
    out.metric("setup_s", setup_s, "s");
    out.metric(
        "throughput_per_s",
        replies.latency_ms.len() as f64 / wall,
        "1/s",
    );
    for (name, p) in [("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)] {
        match percentile(&replies.latency_ms, p) {
            Some(v) => out.metric(name, v, "ms"),
            None => out.problem(format!(
                "{name}: {} jobs leave fewer than 10 samples beyond it",
                replies.latency_ms.len()
            )),
        }
    }
    out.metric("peak_rss_mb", rss.ok_or("cannot read epocd VmHWM")?, "MiB");
    out.metric(
        "schedule_latency_ns",
        pool_quality.iter().map(|q| q.0).sum(),
        "pulse_ns",
    );
    let esps: Vec<f64> = pool_quality.iter().map(|q| q.1).collect();
    out.metric("esp", geomean(&esps), "ratio");
    println!(
        "# {} jobs in {wall:.3} s ({} novel), set-up {cold_s:.3} s cold + {:.3} s warm start",
        replies.latency_ms.len(),
        replies.novel.len(),
        median(&starts)
    );
    Ok(out)
}

/// The circuit seeds of the first novel jobs of a stream — the ones the
/// traced run replays (none for `warm_service`).
fn novel_seeds(seed: u64, mix: bool) -> Vec<u64> {
    if !mix {
        return Vec::new();
    }
    let mut stream = JobStream::new(seed, true);
    (0..2 * NOVEL_PERIOD)
        .filter_map(|_| match stream.next_job() {
            JobKind::Novel { seed } => Some(seed),
            JobKind::Pool { .. } => None,
        })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
