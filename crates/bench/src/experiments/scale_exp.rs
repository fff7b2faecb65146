//! Experiment E2d: `fig4-scale` — Figure 4 at production scale.
//!
//! The paper's Figure 4 runs 100 balancers; its §4.1 claim is about
//! *data centers*. This experiment drives the sharded structure-of-arrays
//! engine ([`loadbalance::shard`]) across three orders of magnitude —
//! 10³, 10⁵, and 10⁶ servers at the knee load N/M = 1.2 — for the
//! classical baseline and the quantum CHSH pairing, and reports measured
//! throughput (the `tasks_per_sec` metric of each point's `perf`
//! section) alongside the usual queue statistics. Two extra rows
//! exercise the non-i.i.d. arrival models (two-state MMPP bursts and a
//! diurnal cycle) at the middle scale.
//!
//! Determinism: every point's master seed is `point_seed(43, arm, i)`,
//! and the engine is byte-identical at any worker/shard count, so with
//! `with_perf = false` the whole artifact is reproducible bit-for-bit —
//! the determinism tests sweep `QNLG_THREADS` and shard counts over
//! exactly that configuration. Wall-clock throughput is measured per
//! point only when `with_perf = true` (the `repro` path).

use crate::report::{sim_result_to_json, Better, Metric, PerfStats, Report};
use crate::table::{f2, Table};
use loadbalance::metrics::SimResult;
use loadbalance::server::Discipline;
use loadbalance::shard::{default_shards, run_scaled, ScaleConfig};
use loadbalance::sim::SimConfig;
use loadbalance::strategy::Strategy;
use loadbalance::task::ArrivalModel;
use obs::json::Json;

/// The knee load from Figure 4: quantum clearly ahead, classical clearly
/// saturating.
const LOAD: f64 = 1.2;

/// One simulated point, its measured wall clock, and its grid identity.
struct Point {
    n_servers: usize,
    workload: ArrivalModel,
    result: SimResult,
    /// Wall clock and `tasks_per_sec` when timing was requested.
    perf: Option<PerfStats>,
}

fn scale_config(
    n_servers: usize,
    workload: ArrivalModel,
    steps: u64,
    threads: usize,
) -> ScaleConfig {
    let sim = SimConfig {
        n_balancers: (n_servers as f64 * LOAD).round() as usize,
        n_servers,
        timesteps: steps,
        warmup: steps / 4,
        discipline: Discipline::PaperPairedC,
    };
    let mut cfg = ScaleConfig::new(sim, workload);
    cfg.threads = threads;
    cfg
}

fn sim_point(
    n_servers: usize,
    workload: ArrivalModel,
    strategy: Strategy,
    steps: u64,
    threads: usize,
    seed: u64,
    with_perf: bool,
) -> Point {
    let cfg = scale_config(n_servers, workload, steps, threads);
    let start = std::time::Instant::now();
    let result = run_scaled(&cfg, strategy, seed).expect("valid scale configuration");
    let perf = with_perf.then(|| {
        let elapsed_ns = (start.elapsed().as_nanos() as u64).max(1);
        let tasks = cfg.sim.n_balancers as u64 * (cfg.sim.warmup + cfg.sim.timesteps);
        PerfStats {
            elapsed_ns,
            metrics: vec![Metric {
                name: "tasks_per_sec".into(),
                unit: "1/s".into(),
                better: Better::Higher,
                value: tasks as f64 / (elapsed_ns as f64 / 1e9),
            }],
        }
    });
    Point {
        n_servers,
        workload,
        result,
        perf,
    }
}

fn point_json(p: &Point) -> Json {
    let mut point = sim_result_to_json(&p.result);
    if let Json::Obj(pairs) = &mut point {
        pairs.insert(0, ("workload".into(), Json::str(p.workload.label())));
        pairs.insert(
            0,
            (
                "shards".into(),
                Json::uint(default_shards(p.n_servers) as u64),
            ),
        );
        pairs.insert(0, ("n_servers".into(), Json::uint(p.n_servers as u64)));
        pairs.push((
            "perf".into(),
            p.perf.as_ref().map_or(Json::Null, PerfStats::to_json),
        ));
    }
    point
}

/// The `repro` entry point: current pool width, wall clock measured.
pub fn run(quick: bool) -> Report {
    run_full(runtime::thread_count(), quick, true)
}

/// Worker-count and timing seam for [`run`]. With `with_perf = false`
/// every byte of the report is a pure function of the seeds.
pub fn run_full(threads: usize, quick: bool, with_perf: bool) -> Report {
    let (sizes, steps): (&[usize], u64) = if quick {
        (&[1_000, 10_000], 240)
    } else {
        (&[1_000, 100_000, 1_000_000], 400)
    };
    let arms = [
        ("classical", Strategy::UniformRandom),
        ("quantum", Strategy::quantum_ideal()),
    ];

    let mut report = Report::new("fig4-scale", 43);
    let mut t = Table::new(vec![
        "servers",
        "classical q̄",
        "quantum q̄",
        "reduction",
        "classical Mtask/s",
        "quantum Mtask/s",
    ]);

    // The main sweep: sizes × {classical, quantum} under the paper's
    // i.i.d. Bernoulli arrivals. Points run sequentially — each one
    // parallelizes internally across shards — so per-point wall clock is
    // honest.
    let mut grid: Vec<Vec<Point>> = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let row: Vec<Point> = arms
            .iter()
            .enumerate()
            .map(|(a, &(_, strategy))| {
                sim_point(
                    n,
                    ArrivalModel::paper(),
                    strategy,
                    steps,
                    threads,
                    crate::point_seed(43, a as u64, i as u64),
                    with_perf,
                )
            })
            .collect();
        grid.push(row);
    }

    let mtask = |p: &Point| -> String {
        p.perf
            .as_ref()
            .and_then(|perf| perf.metric("tasks_per_sec"))
            .map_or_else(|| "-".into(), |m| format!("{:.1}", m.value / 1e6))
    };
    for row in &grid {
        let (c, q) = (&row[0], &row[1]);
        let (cq, qq) = (c.result.avg_queue_len, q.result.avg_queue_len);
        t.row(vec![
            format!("{}", c.n_servers),
            f2(cq),
            f2(qq),
            if cq > 0.0 {
                format!("{:.0}%", 100.0 * (1.0 - qq / cq))
            } else {
                "-".into()
            },
            mtask(c),
            mtask(q),
        ]);
    }

    // Arrival-model rows: the quantum strategy at the middle scale under
    // bursty (MMPP) and diurnal arrivals. The advantage must survive
    // non-i.i.d. traffic.
    let mid = sizes[sizes.len() / 2];
    let models = [
        ArrivalModel::Mmpp {
            p_c_hot: 0.9,
            p_c_cold: 0.1,
            switch_prob: 0.02,
        },
        ArrivalModel::Diurnal {
            mean: 0.5,
            amplitude: 0.3,
            period: 200,
        },
    ];
    let mut model_points: Vec<Vec<Point>> = Vec::new();
    for (mi, &model) in models.iter().enumerate() {
        let row: Vec<Point> = arms
            .iter()
            .enumerate()
            .map(|(a, &(_, strategy))| {
                sim_point(
                    mid,
                    model,
                    strategy,
                    steps,
                    threads,
                    crate::point_seed(43, 2 + mi as u64, a as u64),
                    with_perf,
                )
            })
            .collect();
        model_points.push(row);
    }

    let mut model_table = Table::new(vec!["workload @ servers", "classical q̄", "quantum q̄"]);
    for row in &model_points {
        model_table.row(vec![
            format!("{} @ {}", row[0].workload.label(), row[0].n_servers),
            f2(row[0].result.avg_queue_len),
            f2(row[1].result.avg_queue_len),
        ]);
    }

    // Per-point payloads and scalars.
    for row in grid.iter().chain(&model_points) {
        for p in row {
            report.point(point_json(p));
        }
    }
    // Scalars stay deterministic: wall-clock throughput lives only in the
    // per-point `perf` objects, which the canonical-digest rules strip,
    // so the artifact keeps the repo-wide byte-identity contract.
    for row in &grid {
        report.scalar(
            format!("reduction.{}", row[0].n_servers),
            1.0 - row[1].result.avg_queue_len / row[0].result.avg_queue_len,
        );
    }

    // Acceptance: the quantum advantage must hold at every scale (the
    // ratio N/M drives Figure 4, so scaling M cannot erase it), and the
    // largest point must actually complete with work done.
    for row in &grid {
        let (c, q) = (&row[0], &row[1]);
        report.check(
            format!("quantum-shorter-at-{}", c.n_servers),
            q.result.avg_queue_len < c.result.avg_queue_len,
            format!(
                "quantum {:.2} < classical {:.2} at {} servers",
                q.result.avg_queue_len, c.result.avg_queue_len, c.n_servers
            ),
        );
    }
    let top = &grid[grid.len() - 1][1];
    report.check(
        "scale-point-completes",
        top.result.served > 0 && top.result.avg_queue_len.is_finite(),
        format!(
            "{} servers: served {} tasks, q̄ {:.2}",
            top.n_servers, top.result.served, top.result.avg_queue_len
        ),
    );
    for row in &model_points {
        report.check(
            format!("advantage-under-{}", row[0].workload.label()),
            row[1].result.avg_queue_len < row[0].result.avg_queue_len,
            format!(
                "{}: quantum {:.2} < classical {:.2}",
                row[0].workload.label(),
                row[1].result.avg_queue_len,
                row[0].result.avg_queue_len
            ),
        );
    }

    report.text = format!(
        "E2d — fig4-scale: Figure 4 at production scale (load N/M = {LOAD}, {steps} steps, \
         sharded SoA engine)\n\n{}\nArrival models at {mid} servers (quantum vs classical):\n\n{}",
        t.render(),
        model_table.render()
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_thread_invariant_without_perf() {
        let a = run_full(1, true, false);
        let b = run_full(3, true, false);
        assert_eq!(a.text, b.text);
        assert_eq!(format!("{:?}", a.scalars), format!("{:?}", b.scalars));
        assert_eq!(a.points.len(), b.points.len());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.render(), pb.render());
        }
    }

    #[test]
    fn quick_report_passes_its_own_checks() {
        let r = run_full(2, true, false);
        assert!(r.passed(), "{}", r.check_summary());
    }
}
