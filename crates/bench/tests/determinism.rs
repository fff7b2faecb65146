//! Worker-count invariance: sweep results must be a pure function of the
//! master seed and the grid, never of scheduling. These are the repo's
//! reproducibility guarantees — a figure regenerated on a 2-core laptop
//! and a 64-core server must be byte-identical.

use qnlg_bench::report::canonical_json;
use rand::Rng;

/// The canonical Figure-4-shaped grid (6 strategies × 10 loads) swept at
/// 1, 2, and `available_parallelism()` workers must give bit-identical
/// results, including every per-point RNG stream.
#[test]
fn par_sweep_6x10_grid_is_worker_count_invariant() {
    let grid = runtime::grid2(6, 10);
    let sweep = |threads: usize| {
        runtime::par_sweep_threads(threads, 0xab5_eed, &grid, |_, &(r, c), rng| {
            // Draw a few values so stream identity (not just seeding) is
            // checked, and fold in the coordinates.
            let x: f64 = rng.gen();
            let y: u64 = rng.gen();
            (r, c, x, y, rng.gen::<bool>())
        })
    };
    let reference = sweep(1);
    let auto = std::thread::available_parallelism().map_or(4, |n| n.get());
    for threads in [2, auto] {
        assert_eq!(sweep(threads), reference, "{threads} workers diverged");
    }
}

/// FNV-1a digests of every experiment's quick canonical payload
/// ([`canonical_json`]; fig4-scale's with per-point perf off). They pin
/// each result across commits: a refactor leaves them unchanged, and a
/// change that means to alter results updates the entry from the failure
/// message and says so in its notes.
const QUICK_DIGESTS: [(&str, u64); 16] = [
    ("chsh", 0x9eaf_3817_c25d_5a64),
    ("fig3", 0xd15b_e2d6_8752_3e9e),
    ("fig3-vertices", 0x31ac_5fb6_bb64_223b),
    ("fig4", 0x7b5f_89ee_b361_abc0),
    ("fig4-scaling", 0x5b1d_398f_ef48_4070),
    ("fig4-disciplines", 0x2548_5650_eeab_e736),
    ("fig4-faults", 0xe1dc_bff5_1de3_bd7f),
    ("fig4-scale", 0xacf8_42ee_59c9_2bbf),
    ("ecmp", 0x52d2_217d_c6ba_3394),
    ("timing", 0xd95e_2f22_528e_590d),
    ("noise", 0x02de_328c_6fa9_59f8),
    ("hybrid", 0xabd1_b48d_aef7_8e4b),
    ("pipeline", 0xdb90_a8ce_bccc_25b5),
    ("ghz", 0xb658_f037_3168_8d23),
    ("topology", 0x6a6a_86e0_b630_7a33),
    ("serve", 0xc0ba_bdaa_168c_450d),
];

/// The digest drift of one canonical payload, or `None` when it matches
/// its [`QUICK_DIGESTS`] entry. The fold is the one
/// `serve/tests/replay_digest.rs` uses.
fn digest_drift(experiment: &str, canonical: &str) -> Option<String> {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let h = canonical.bytes().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    });
    let (_, want) = QUICK_DIGESTS
        .iter()
        .find(|(name, _)| *name == experiment)
        .expect("every experiment has a pinned digest");
    (h != *want).then(|| format!("{experiment} quick payload digest drifted: {h:#018x}"))
}

fn assert_quick_digest(experiment: &str, canonical: &str) {
    if let Some(drift) = digest_drift(experiment, canonical) {
        panic!("{drift}");
    }
}

/// The eight experiments no other test here renders: each quick payload
/// matches its pinned digest. Every drifted digest is reported, not only
/// the first.
#[test]
fn remaining_quick_payloads_match_their_digests() {
    let drifts: Vec<String> = [
        "chsh",
        "fig3-vertices",
        "fig4-scaling",
        "fig4-disciplines",
        "ecmp",
        "timing",
        "noise",
        "hybrid",
    ]
    .into_iter()
    .filter_map(|name| {
        let report = qnlg_bench::experiments::run(name, true).expect("known experiment");
        digest_drift(name, &canonical_json(&report))
    })
    .collect();
    assert!(drifts.is_empty(), "{}", drifts.join("\n"));
}

/// End-to-end: the rendered E2 (Figure 4) quick report is identical no
/// matter how many workers computed it.
#[test]
fn fig4_quick_report_is_identical_at_any_thread_count() {
    let sequential = qnlg_bench::experiments::fig4::run_with_threads(1, true);
    let reference_text = format!("{sequential}");
    let reference_json = canonical_json(&sequential);
    assert_quick_digest("fig4", &reference_json);
    for threads in [2, runtime::thread_count()] {
        let report = qnlg_bench::experiments::fig4::run_with_threads(threads, true);
        assert_eq!(
            format!("{report}"),
            reference_text,
            "{threads} workers changed the text report"
        );
        assert_eq!(
            canonical_json(&report),
            reference_json,
            "{threads} workers changed the JSON artifact"
        );
    }
}

/// End-to-end: the rendered E1 (Figure 3) quick report is identical no
/// matter how many workers computed it. This is the hard exercise for
/// the canonicalizing value cache: different worker counts populate the
/// shared cache in different orders, and cached values must still be
/// identical because they are a pure function of each game's canonical
/// form (solver RNG derived from the canonical key).
#[test]
fn fig3_quick_report_is_identical_at_any_thread_count() {
    let sequential = qnlg_bench::experiments::fig3::run_with_threads(1, true);
    let reference_text = format!("{sequential}");
    let reference_json = canonical_json(&sequential);
    assert_quick_digest("fig3", &reference_json);
    for threads in [2, runtime::thread_count()] {
        let report = qnlg_bench::experiments::fig3::run_with_threads(threads, true);
        assert_eq!(
            format!("{report}"),
            reference_text,
            "{threads} workers changed the text report"
        );
        assert_eq!(
            canonical_json(&report),
            reference_json,
            "{threads} workers changed the JSON artifact"
        );
    }
}

/// Chaos determinism: the fault-injection experiment — fault-window
/// edges interleaved with emissions, clamp evictions, governor
/// transitions and all — must be byte-identical at 1 and 4 workers, and
/// independent of whether the obs layer is recording. Obs toggling
/// happens inside this one test (the registry is process-global, but
/// the counters only feed the artifact's pruned `obs` section, which
/// `canonical_json` pins to `None` — so no other test here can observe
/// the toggle).
#[test]
fn fig4_faults_chaos_run_is_deterministic() {
    let sequential = qnlg_bench::experiments::faults_exp::run_with_threads(1, true);
    let reference_text = format!("{sequential}");
    let reference_json = canonical_json(&sequential);
    assert_quick_digest("fig4-faults", &reference_json);
    for threads in [2, 4] {
        let report = qnlg_bench::experiments::faults_exp::run_with_threads(threads, true);
        assert_eq!(
            format!("{report}"),
            reference_text,
            "{threads} workers changed the text report"
        );
        assert_eq!(
            canonical_json(&report),
            reference_json,
            "{threads} workers changed the JSON artifact"
        );
    }
    // Metrics must observe, never perturb: an instrumented run is
    // byte-identical to the unobserved reference.
    obs::reset();
    obs::set_enabled(true);
    let observed = qnlg_bench::experiments::faults_exp::run_with_threads(4, true);
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(
        canonical_json(&observed),
        reference_json,
        "enabling obs changed the report"
    );
    assert!(
        snap.counter("qnlg.fallback.transitions").unwrap_or(0) > 0,
        "instrumented chaos run must record fallback transitions"
    );
}

/// Tracing must observe, never perturb: the chaos artifact — the run
/// with the most trace coverage (per-pair lifecycle, clamp evictions,
/// governor transitions) — is byte-identical with the event timeline
/// recording, at a deliberately tiny ring (constant drop-oldest
/// wrapping), a roomy one and the default `repro --trace` records with.
/// At the default, the log keeps every pair stage and the governor's
/// evaluations, and each consumed pair whose emission is still in the
/// log was consumed after it was emitted. Trace toggling happens inside
/// this one test; events never feed the canonical payload, so parallel
/// tests cannot observe it.
#[test]
fn trace_on_off_and_ring_capacity_leave_artifacts_identical() {
    let reference = canonical_json(&qnlg_bench::experiments::faults_exp::run_with_threads(
        2, true,
    ));
    for capacity in [256, 4096, trace::DEFAULT_CAPACITY] {
        trace::reset();
        trace::set_capacity(capacity);
        trace::set_enabled(true);
        let report = qnlg_bench::experiments::faults_exp::run_with_threads(2, true);
        trace::set_enabled(false);
        let log = trace::drain();
        trace::set_capacity(trace::DEFAULT_CAPACITY);
        assert_eq!(
            canonical_json(&report),
            reference,
            "tracing at ring capacity {capacity} changed the artifact"
        );
        assert!(
            !log.events.is_empty(),
            "traced chaos run must record events at capacity {capacity}"
        );
        if capacity == trace::DEFAULT_CAPACITY {
            assert_pair_lifecycle(&log);
        }
    }
}

/// The chaos trace's pair lifecycle: emitted, stored and consumed pairs
/// and governor evaluations are all recorded, and at least one consumed
/// pair is matched to its emission by (lane, pair id), every match with
/// a positive emitted → consumed latency.
fn assert_pair_lifecycle(log: &trace::TraceLog) {
    use trace::{EventKind, PairStage, Track};
    let lane = |track: Track| match track {
        Track::Source(l) | Track::Qnic { lane: l, .. } => Some(l),
        _ => None,
    };
    let pairs = || {
        log.events.iter().filter_map(|e| match e.kind {
            EventKind::Pair { stage, id } => Some((stage, (lane(e.track), id), e.t_ns)),
            _ => None,
        })
    };
    for stage in [PairStage::Emitted, PairStage::Stored, PairStage::Consumed] {
        assert!(
            pairs().any(|(s, _, _)| s == stage),
            "chaos trace has no pair.{} events",
            stage.name()
        );
    }
    assert!(
        log.events
            .iter()
            .any(|e| e.kind == EventKind::Instant("governor.eval")),
        "chaos trace has no governor.eval events"
    );
    let emitted: std::collections::HashMap<_, u64> = pairs()
        .filter(|&(s, _, _)| s == PairStage::Emitted)
        .map(|(_, key, t)| (key, t))
        .collect();
    let latencies: Vec<i128> = pairs()
        .filter(|&(s, _, _)| s == PairStage::Consumed)
        .filter_map(|(_, key, t)| Some(i128::from(t) - i128::from(*emitted.get(&key)?)))
        .collect();
    assert!(
        !latencies.is_empty() && latencies.iter().all(|&l| l > 0),
        "no positive delivery latencies among {} consumed pairs matched to their emission",
        latencies.len()
    );
}

/// The batched entanglement data plane end-to-end: the E8
/// hardware-in-the-loop experiment (per-pair distributors running the
/// survivor-process fast path, in-flight FIFO, and Werner kernel) must be
/// byte-identical across thread counts and obs on/off. This is the
/// determinism guarantee for the dedicated emission/loss sub-streams:
/// replay depends only on the construction seed, never on polling or
/// scheduling.
#[test]
fn pipeline_batched_plane_is_deterministic() {
    let reference = canonical_json(&qnlg_bench::experiments::pipeline_exp::run(true));
    assert_quick_digest("pipeline", &reference);
    for _ in 0..2 {
        let report = qnlg_bench::experiments::pipeline_exp::run(true);
        assert_eq!(canonical_json(&report), reference, "rerun diverged");
    }
    obs::reset();
    obs::set_enabled(true);
    let observed = qnlg_bench::experiments::pipeline_exp::run(true);
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(
        canonical_json(&observed),
        reference,
        "enabling obs changed the pipeline report"
    );
    assert!(
        snap.counter("qnet.epr.emitted").unwrap_or(0) > 0,
        "instrumented run must record emissions"
    );
}

/// The sharded SoA engine end-to-end: the fig4-scale quick artifact
/// (per-point perf pinned to null) must be byte-identical across worker
/// counts, and a raw engine run must be byte-identical across shard
/// counts and obs on/off. This is the determinism guarantee for the
/// per-pair sub-stream design: partition and scheduling decide who
/// computes a draw, never its value.
#[test]
fn fig4_scale_quick_artifact_is_shard_thread_and_obs_invariant() {
    let sequential = qnlg_bench::experiments::scale_exp::run_full(1, true, false);
    let reference_text = format!("{sequential}");
    let reference_json = canonical_json(&sequential);
    assert_quick_digest("fig4-scale", &reference_json);
    for threads in [2, 4] {
        let report = qnlg_bench::experiments::scale_exp::run_full(threads, true, false);
        assert_eq!(
            format!("{report}"),
            reference_text,
            "{threads} workers changed the text report"
        );
        assert_eq!(
            canonical_json(&report),
            reference_json,
            "{threads} workers changed the JSON artifact"
        );
    }

    // Raw engine: shard-count sweep at several worker counts, plus obs
    // toggling, all compared against the single-shard sequential run.
    use loadbalance::server::Discipline;
    use loadbalance::shard::{run_scaled, ScaleConfig};
    use loadbalance::sim::SimConfig;
    use loadbalance::strategy::Strategy;
    use loadbalance::task::ArrivalModel;
    let mut cfg = ScaleConfig::new(
        SimConfig {
            n_balancers: 120,
            n_servers: 100,
            timesteps: 300,
            warmup: 75,
            discipline: Discipline::PaperPairedC,
        },
        ArrivalModel::paper(),
    );
    cfg.shards = 1;
    cfg.threads = 1;
    let reference = format!(
        "{:?}",
        run_scaled(&cfg, Strategy::quantum_ideal(), 0xfa57).unwrap()
    );
    for shards in [1, 4, 16] {
        for threads in [1, 2, 4] {
            cfg.shards = shards;
            cfg.threads = threads;
            let r = format!(
                "{:?}",
                run_scaled(&cfg, Strategy::quantum_ideal(), 0xfa57).unwrap()
            );
            assert_eq!(r, reference, "shards={shards} threads={threads} diverged");
        }
    }
    obs::reset();
    obs::set_enabled(true);
    cfg.shards = 4;
    cfg.threads = 2;
    let observed = format!(
        "{:?}",
        run_scaled(&cfg, Strategy::quantum_ideal(), 0xfa57).unwrap()
    );
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(observed, reference, "enabling obs changed the result");
    assert!(
        snap.counter("lb.tasks.assigned").unwrap_or(0) > 0,
        "instrumented scale run must record assigned tasks"
    );
}

/// The closed-form GHZ kernel end-to-end: the ghz quick artifact
/// (Mermin N × visibility sweep + Magic Square, all through the
/// one-draw-per-round kernel) must be byte-identical across worker
/// counts, with obs recording on, and with the event timeline recording
/// — the CI determinism arm for `BENCH_ghz.json`.
#[test]
fn ghz_kernel_artifact_is_thread_obs_and_trace_invariant() {
    let sequential = qnlg_bench::experiments::ghz_exp::run_with_threads(1, true);
    let reference_text = format!("{sequential}");
    let reference_json = canonical_json(&sequential);
    assert_quick_digest("ghz", &reference_json);
    for threads in [2, 4] {
        let report = qnlg_bench::experiments::ghz_exp::run_with_threads(threads, true);
        assert_eq!(
            format!("{report}"),
            reference_text,
            "{threads} workers changed the text report"
        );
        assert_eq!(
            canonical_json(&report),
            reference_json,
            "{threads} workers changed the JSON artifact"
        );
    }
    // Metrics must observe, never perturb — and the instrumented run
    // must feed the rounds counter behind the rounds_per_sec perf metric.
    obs::reset();
    obs::set_enabled(true);
    let observed = qnlg_bench::experiments::ghz_exp::run_with_threads(2, true);
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(
        canonical_json(&observed),
        reference_json,
        "enabling obs changed the ghz report"
    );
    assert!(
        snap.counter("games.ghz.rounds").unwrap_or(0) > 0,
        "instrumented ghz run must count kernel rounds"
    );
    // Tracing must observe, never perturb.
    trace::reset();
    trace::set_enabled(true);
    let traced = qnlg_bench::experiments::ghz_exp::run_with_threads(2, true);
    trace::set_enabled(false);
    let _ = trace::drain();
    assert_eq!(
        canonical_json(&traced),
        reference_json,
        "enabling trace changed the ghz report"
    );
}

/// The metro-topology plane end-to-end: the E10 quick artifact (chain
/// closed forms + oracle pins, contention scheduling, edge-cut blast
/// radius, per-pair governors) must be byte-identical across worker
/// counts, with obs recording on, and with the event timeline recording
/// — the CI determinism arm for `BENCH_topology.json`. The sequential
/// parts (star epochs, tree timeline) are seeded per part, and the
/// par_sweep CHSH arm is seeded per point, so thread count must never
/// leak into the artifact.
#[test]
fn topology_artifact_is_thread_obs_and_trace_invariant() {
    let sequential = qnlg_bench::experiments::topology_exp::run_with_threads(1, true);
    let reference_text = format!("{sequential}");
    let reference_json = canonical_json(&sequential);
    assert_quick_digest("topology", &reference_json);
    for threads in [2, 4] {
        let report = qnlg_bench::experiments::topology_exp::run_with_threads(threads, true);
        assert_eq!(
            format!("{report}"),
            reference_text,
            "{threads} workers changed the text report"
        );
        assert_eq!(
            canonical_json(&report),
            reference_json,
            "{threads} workers changed the JSON artifact"
        );
    }
    // Metrics must observe, never perturb — and the instrumented run
    // must feed the chain counters plus the shared emission counter
    // behind the pairs_per_sec perf metric.
    obs::reset();
    obs::set_enabled(true);
    let observed = qnlg_bench::experiments::topology_exp::run_with_threads(2, true);
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(
        canonical_json(&observed),
        reference_json,
        "enabling obs changed the topology report"
    );
    for counter in [
        "qnet.topology.routes",
        "qnet.topology.delivered",
        "qnet.topology.starved",
        "qnet.topology.budget_spent",
        "qnet.epr.emitted",
    ] {
        assert!(
            snap.counter(counter).unwrap_or(0) > 0,
            "instrumented topology run must bump {counter}"
        );
    }
    // Tracing must observe, never perturb — and the chain lifecycle
    // must actually land on the timeline.
    trace::reset();
    trace::set_enabled(true);
    let traced = qnlg_bench::experiments::topology_exp::run_with_threads(2, true);
    trace::set_enabled(false);
    let log = trace::drain();
    assert_eq!(
        canonical_json(&traced),
        reference_json,
        "enabling trace changed the topology report"
    );
    assert!(
        log.events
            .iter()
            .any(|e| matches!(e.track, trace::Track::Chain(_))),
        "traced topology run must record chain-track events"
    );
}

/// The served decision path end-to-end: the E11 quick artifact (control,
/// fault, and starvation soaks over pre-drawn SPSC decision lanes) must
/// be byte-identical across reruns, across ambient worker counts, with
/// obs recording on, and with the event timeline recording — the CI
/// determinism arm for `BENCH_serve.json`. Slot purity is the load-
/// bearing property: every ring slot is a function of (master seed,
/// endpoint, sequence), with slot sim-time derived from the sequence
/// number, so *when* the refill pump runs can never change *what* it
/// draws. The wall-clock measurement arms report to obs and stderr only,
/// so they never enter the canonical payload this test pins.
#[test]
fn serve_artifact_is_rerun_obs_and_trace_invariant() {
    let sequential = qnlg_bench::experiments::serve_exp::run(true);
    let reference_text = format!("{sequential}");
    let reference_json = canonical_json(&sequential);
    assert_quick_digest("serve", &reference_json);
    // The service core is single-threaded by construction; ambient
    // worker counts (QNLG_THREADS) must not leak into the artifact.
    // Reruns under the test harness's parallel scheduling stand in for
    // the 1/2/4-worker sweep the par_sweep experiments do explicitly.
    for run in 0..2 {
        let report = qnlg_bench::experiments::serve_exp::run(true);
        assert_eq!(
            format!("{report}"),
            reference_text,
            "rerun {run} changed the text report"
        );
        assert_eq!(
            canonical_json(&report),
            reference_json,
            "rerun {run} changed the JSON artifact"
        );
    }
    // Metrics must observe, never perturb — and the instrumented run
    // must feed both the lane counters and the hot-path counters behind
    // the hot_decisions_per_sec and decision_p99_ns perf metrics.
    obs::reset();
    obs::set_enabled(true);
    let observed = qnlg_bench::experiments::serve_exp::run(true);
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(
        canonical_json(&observed),
        reference_json,
        "enabling obs changed the serve report"
    );
    for counter in [
        "qnlg.serve.decisions",
        "qnlg.serve.slots",
        "qnlg.serve.exhausted",
        "qnlg.serve.hot.decisions",
        "qnlg.serve.hot.ns",
    ] {
        assert!(
            snap.counter(counter).unwrap_or(0) > 0,
            "instrumented serve run must bump {counter}"
        );
    }
    assert!(
        snap.hist("qnlg.serve.decision_latency_ns")
            .is_some_and(|h| h.count > 0),
        "instrumented serve run must sample decision latency"
    );
    // Tracing must observe, never perturb — and the endpoint lanes must
    // land on the timeline (refill instants at minimum).
    trace::reset();
    trace::set_enabled(true);
    let traced = qnlg_bench::experiments::serve_exp::run(true);
    trace::set_enabled(false);
    let log = trace::drain();
    assert_eq!(
        canonical_json(&traced),
        reference_json,
        "enabling trace changed the serve report"
    );
    assert!(
        log.events
            .iter()
            .any(|e| matches!(e.track, trace::Track::Endpoint(_))),
        "traced serve run must record endpoint-track events"
    );
}

/// The JSON artifact line for fig4 must validate against the schema and
/// carry the fields the acceptance criteria promise: exactly the
/// required top-level keys in their order, seed, thread count, per-point
/// SimResult fields, and Wilson intervals.
#[test]
fn fig4_artifact_line_matches_schema() {
    let report = qnlg_bench::experiments::fig4::run_with_threads(2, true);
    let ctx = qnlg_bench::RunContext {
        quick: true,
        threads: 2,
        git: "test".into(),
        obs: None,
        perf: None,
    };
    let line = report.to_json(&ctx).render();
    let doc = qnlg_bench::report::validate_artifact_line(&line).expect("valid artifact line");
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        qnlg_bench::report::REQUIRED_FIELDS,
        "the artifact writer and the validator disagree on the top-level keys"
    );
    assert_eq!(doc.get("experiment").unwrap().as_str(), Some("fig4"));
    assert_eq!(doc.get("seed").unwrap().as_i64(), Some(40));
    assert_eq!(doc.get("threads").unwrap().as_i64(), Some(2));
    let points = doc.get("points").unwrap().as_arr().unwrap();
    assert!(!points.is_empty());
    for p in points {
        for field in ["strategy", "load", "avg_queue_len", "cc_colocation_rate"] {
            assert!(
                p.get(field).is_some(),
                "point missing {field}: {}",
                p.render()
            );
        }
    }
    let intervals = doc.get("intervals").unwrap().as_obj().unwrap();
    assert!(!intervals.is_empty(), "fig4 must report Wilson intervals");
    for (name, ci) in intervals {
        let lo = ci.get("lo").unwrap().as_f64().unwrap();
        let hi = ci.get("hi").unwrap().as_f64().unwrap();
        let est = ci.get("estimate").unwrap().as_f64().unwrap();
        assert!(lo <= est && est <= hi, "interval {name} out of order");
    }
}
