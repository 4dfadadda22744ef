//! The parallel QSearch frontier must not change results: the claim /
//! compute / replay scheme keeps every search decision in a serial phase,
//! so compilation reports — and the `qsearch.nodes` telemetry counter —
//! are byte-identical at any synthesis worker count. The same holds for
//! the linalg SIMD dispatch: the vector kernels are bit-identical to the
//! scalar path, so forcing either side must not move a single byte of the
//! report.

use epoc::{EpocCompiler, EpocConfig, StageTimings};
use epoc_circuit::generators;
use epoc_linalg::random_unitary;
use epoc_rt::rng::StdRng;
use epoc_rt::telemetry::{self, TelemetryScope};
use epoc_synth::{synthesize, SynthConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Telemetry job ids, unique across the test binary. Sibling tests compile
/// concurrently and add to the process-global `qsearch.nodes` counter, so
/// each compile reads only the counter attributed to its own job.
static NEXT_JOB: AtomicU64 = AtomicU64::new(1);

/// Compiles `circuit` with the given QSearch worker count and returns the
/// report JSON (wall-clock fields zeroed — observability data, not part of
/// the deterministic surface) plus how many search nodes the compile
/// instantiated, as counted by job-scoped telemetry.
fn compile_json(circuit: &epoc_circuit::Circuit, synth_workers: usize) -> (String, u64) {
    telemetry::enable();
    let mut config = EpocConfig::fast();
    config.synth.workers = synth_workers;
    let compiler = EpocCompiler::new(config);
    let job = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
    let mut report = {
        let _scope = TelemetryScope::enter(job);
        compiler.compile(circuit).unwrap()
    };
    let nodes = telemetry::job_counters_snapshot()
        .into_iter()
        .find(|(j, name, _)| *j == job && name == "qsearch.nodes")
        .map_or(0, |(_, _, v)| v);
    assert_eq!(
        nodes, report.stages.qsearch_nodes as u64,
        "job-scoped qsearch.nodes disagrees with the report"
    );
    assert!(
        report.verified,
        "compilation with {synth_workers} synthesis workers failed verification"
    );
    report.compile_time = Duration::ZERO;
    report.stages.timings = StageTimings::default();
    (report.to_json(), nodes)
}

#[test]
fn qsearch_report_and_node_count_identical_across_worker_counts() {
    // qaoa(4, 2, 5) partitions into enough 2-qubit blocks that the
    // synthesis stage genuinely runs multi-node searches.
    let circuit = generators::qaoa(4, 2, 5);
    let (base_json, base_nodes) = compile_json(&circuit, 1);
    assert!(base_nodes > 0, "compile ran no QSearch nodes at all");
    for workers in [2, 4] {
        let (json, nodes) = compile_json(&circuit, workers);
        assert_eq!(
            json, base_json,
            "report differs between synth workers=1 and workers={workers}"
        );
        assert_eq!(
            nodes, base_nodes,
            "qsearch.nodes counter differs between synth workers=1 and workers={workers}"
        );
    }
}

#[test]
fn direct_synthesis_identical_across_worker_counts() {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let target = random_unitary(4, &mut rng);
    let run = |workers: usize| {
        synthesize(
            &target,
            &SynthConfig {
                workers,
                ..SynthConfig::default()
            },
        )
        .unwrap()
    };
    let base = run(1);
    for workers in [2, 4] {
        let r = run(workers);
        assert_eq!(r.circuit, base.circuit, "workers = {workers}");
        assert_eq!(
            r.distance.to_bits(),
            base.distance.to_bits(),
            "workers = {workers}"
        );
        assert_eq!(r.nodes_evaluated, base.nodes_evaluated, "workers = {workers}");
        assert_eq!(r.converged, base.converged, "workers = {workers}");
    }
}

#[test]
fn report_identical_across_simd_dispatch_paths() {
    // The AVX2 kernels mirror the scalar arithmetic operation-for-
    // operation, so the whole pipeline — including a parallel QSearch —
    // produces the same bytes whichever path the dispatcher picks. (On
    // hardware without AVX2 the force is refused and both runs take the
    // scalar path, which compares trivially equal.)
    let circuit = generators::qaoa(4, 2, 5);
    let compile_forced = |simd: bool| {
        epoc_linalg::force_simd(Some(simd));
        let out = compile_json(&circuit, 2);
        epoc_linalg::force_simd(None);
        out
    };
    let (scalar_json, scalar_nodes) = compile_forced(false);
    let (simd_json, simd_nodes) = compile_forced(true);
    assert_eq!(
        scalar_json, simd_json,
        "report differs between scalar and SIMD dispatch"
    );
    assert_eq!(scalar_nodes, simd_nodes, "node counts differ across dispatch paths");
}
