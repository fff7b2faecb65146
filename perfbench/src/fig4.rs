//! `fig4`: the paper's Figure 4 sweep — N = 100 balancers, loads 0.6 to
//! 1.5, the six E2 strategies, the paper's server discipline, 3 000
//! measured + 750 warm-up steps — through `loadbalance::sim` on
//! `runtime::par_map_threads`, one worker per available core.
//!
//! The untraced pass runs `run_simulation`, the entry point every
//! Figure 4 family experiment calls, with one clock read per simulated
//! step. The traced pass runs `run_simulation_with` behind wrappers that
//! time the task draw and the strategy's `assign_all`; the rest of a
//! point is the server and simulator self time.
//!
//! Each point reads the host's pace on its worker before and after it
//! runs (`crate::host`); the end-to-end time metrics are at nominal host
//! pace.

use crate::clock::{self, median, percentile, secs_since};
use crate::host::{Kernel, Pace};
use crate::outcome::Outcome;
use crate::tracer::Tracer;
use crate::Args;
use loadbalance::metrics::{knee_load, SimResult};
use loadbalance::sim::{run_simulation, run_simulation_with, SimConfig};
use loadbalance::task::BernoulliWorkload;
use loadbalance::{AssignmentStrategy, Discipline, Server, Strategy, TaskType, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use runtime::stream_seed;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// The six E2 strategies, in E2's order (uniform-random first — the
/// paper's baseline — and paired-quantum last).
fn strategies() -> [(&'static str, Strategy); 6] {
    [
        ("uniform-random", Strategy::UniformRandom),
        ("round-robin", Strategy::RoundRobin),
        ("power-of-two", Strategy::PowerOfTwoChoices),
        ("paired-split", Strategy::PairedAlwaysSplit),
        ("paired-match", Strategy::PairedMatchTypes),
        ("paired-quantum", Strategy::quantum_ideal()),
    ]
}
const UNIFORM: usize = 0;
const QUANTUM: usize = 5;

/// Set-up timings before each untraced sweep, after one untimed set-up
/// that brings the allocator back from the sweep; `setup_s` is the median
/// of all of them. A single set-up varies by up to 4× from call to call.
const SETUP_PER_SWEEP: usize = 15;

/// A strategy × load grid.
struct Sweep {
    n_balancers: usize,
    timesteps: u64,
    loads: Vec<f64>,
}

impl Sweep {
    fn paper() -> Self {
        Sweep {
            n_balancers: 100,
            timesteps: 3_000,
            loads: (6..=15).map(|i| i as f64 / 10.0).collect(),
        }
    }

    fn points(&self) -> Vec<(usize, usize)> {
        runtime::grid2(strategies().len(), self.loads.len())
    }

    fn config(&self, li: usize) -> SimConfig {
        SimConfig {
            n_balancers: self.n_balancers,
            n_servers: (self.n_balancers as f64 / self.loads[li]).round() as usize,
            timesteps: self.timesteps,
            warmup: self.timesteps / 4,
            discipline: Discipline::PaperPairedC,
        }
    }

    /// Tasks one point simulates, warm-up included.
    fn tasks_per_point(&self) -> u64 {
        self.n_balancers as u64 * (self.timesteps + self.timesteps / 4)
    }
}

/// Records the wall time of every simulated step: one clock read per
/// step, at `on_step`.
struct StepClock<W> {
    inner: W,
    last: Option<Instant>,
    step_ns: Vec<u32>,
}

impl<W: Workload> Workload for StepClock<W> {
    fn next_task<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TaskType {
        self.inner.next_task(rng)
    }

    fn on_step(&mut self, t: u64) {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.step_ns
                .push(u32::try_from((now - last).as_nanos()).unwrap_or(u32::MAX));
        }
        self.last = Some(now);
        self.inner.on_step(t);
    }
}

/// Times the task draw as one `task.draw` span per step. The simulator
/// draws every balancer's task back to back at the start of a step, so
/// drawing them as one batch consumes the generator in the same order.
struct TracedDraw<'t, W> {
    inner: W,
    n: usize,
    buf: Vec<TaskType>,
    pos: usize,
    tracer: &'t RefCell<Tracer>,
}

impl<W: Workload> Workload for TracedDraw<'_, W> {
    fn next_task<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TaskType {
        if self.pos == self.buf.len() {
            let mut tracer = self.tracer.borrow_mut();
            tracer.begin("task.draw");
            self.buf.clear();
            for _ in 0..self.n {
                self.buf.push(self.inner.next_task(rng));
            }
            tracer.end();
            self.pos = 0;
        }
        self.pos += 1;
        self.buf[self.pos - 1]
    }

    fn on_step(&mut self, t: u64) {
        self.inner.on_step(t);
    }
}

/// Times each `assign_all` as a `strategy.assign` span.
struct TracedAssign<'t> {
    inner: Box<dyn AssignmentStrategy>,
    tracer: &'t RefCell<Tracer>,
}

impl AssignmentStrategy for TracedAssign<'_> {
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        queue_lens: &[usize],
        rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        self.tracer.borrow_mut().begin("strategy.assign");
        let out = self.inner.assign_all(tasks, queue_lens, rng);
        self.tracer.borrow_mut().end();
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One simulated point.
struct PointRun {
    strategy: usize,
    result: SimResult,
    busy_s: f64,
    /// The host's slowdown over the point, from its worker's readings.
    slowdown: f64,
    step_ns: Vec<u32>,
    tracer: Tracer,
}

fn run_point(sweep: &Sweep, si: usize, li: usize, seed: u64, traced: bool) -> PointRun {
    let config = sweep.config(li);
    let strategy = strategies()[si].1;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pace = Pace::new(Kernel::Compute);
    let t = Instant::now();
    if !traced {
        let mut workload = StepClock {
            inner: BernoulliWorkload::paper(),
            last: None,
            step_ns: Vec::with_capacity((config.timesteps + config.warmup) as usize),
        };
        let result = run_simulation(config, strategy, &mut workload, &mut rng);
        let busy_s = secs_since(t);
        return PointRun {
            strategy: si,
            result,
            busy_s,
            slowdown: pace.window(),
            step_ns: workload.step_ns,
            tracer: Tracer::default(),
        };
    }
    let tracer = RefCell::new(Tracer::default());
    tracer.borrow_mut().begin("sim.point");
    let mut assign = TracedAssign {
        inner: strategy.build(config.n_servers),
        tracer: &tracer,
    };
    let mut draw = TracedDraw {
        inner: BernoulliWorkload::paper(),
        n: config.n_balancers,
        buf: Vec::with_capacity(config.n_balancers),
        pos: 0,
        tracer: &tracer,
    };
    let result = run_simulation_with(config, &mut assign, &mut draw, &mut rng);
    tracer.borrow_mut().end();
    let busy_s = secs_since(t);
    PointRun {
        strategy: si,
        result,
        busy_s,
        slowdown: pace.window(),
        step_ns: Vec::new(),
        tracer: tracer.into_inner(),
    }
}

struct SweepRun {
    points: Vec<PointRun>,
    wall_s: f64,
}

impl SweepRun {
    /// Wall time at nominal host pace: divided by the points' slowdown,
    /// weighted by their busy time.
    fn host_s(&self) -> f64 {
        let busy: f64 = self.points.iter().map(|p| p.busy_s).sum();
        let host: f64 = self.points.iter().map(|p| p.busy_s / p.slowdown).sum();
        self.wall_s * host / busy
    }
}

fn run_sweep(sweep: &Sweep, master: u64, workers: usize, traced: bool) -> SweepRun {
    let points = sweep.points();
    let t = Instant::now();
    let runs = runtime::par_map_threads(workers, &points, |i, &(si, li)| {
        run_point(sweep, si, li, stream_seed(master, i as u64), traced)
    });
    SweepRun {
        points: runs,
        wall_s: secs_since(t),
    }
}

/// Whole sweeps, each on its own seed stream, while another one fits in
/// `seconds` (at least one). `first` numbers the seed streams. Before
/// each untraced sweep, set-up is timed `SETUP_PER_SWEEP` times into
/// `setups`, so that its timings sample the whole run, each at nominal
/// host pace by the reading before it.
fn sweeps_for(
    sweep: &Sweep,
    seed: u64,
    first: u64,
    workers: usize,
    seconds: f64,
    traced: bool,
    setups: &mut Vec<f64>,
) -> Vec<SweepRun> {
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut pace = Pace::new(Kernel::Compute);
    loop {
        if !traced {
            setup_once(sweep);
            setups.extend((0..SETUP_PER_SWEEP).map(|_| {
                let slowdown = pace.read();
                setup_once(sweep) / slowdown
            }));
        }
        let master = stream_seed(seed, first + runs.len() as u64);
        runs.push(run_sweep(sweep, master, workers, traced));
        let elapsed = secs_since(start);
        if elapsed + 0.5 * elapsed / runs.len() as f64 > seconds {
            return runs;
        }
    }
}

/// Every point's construction — config check, strategy state, server
/// array — on the calling thread: what the sweep's points pay before
/// their first simulated step. (The pool's own spin-up is in the sweep's
/// wall time.)
fn setup_once(sweep: &Sweep) -> f64 {
    let t = Instant::now();
    for (si, li) in sweep.points() {
        let config = sweep.config(li);
        config
            .validate()
            .expect("the Figure 4 grid is a valid configuration");
        let strategy = strategies()[si].1.build(config.n_servers);
        let servers: Vec<Server> = (0..config.n_servers)
            .map(|i| Server::with_id(config.discipline, i as u64))
            .collect();
        black_box((strategy, servers));
    }
    secs_since(t)
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Average queue length of strategy `si` at load index `li`.
fn q(sweep: &Sweep, run: &SweepRun, si: usize, li: usize) -> f64 {
    run.points[si * sweep.loads.len() + li].result.avg_queue_len
}

pub fn run(args: &Args) -> Outcome {
    let sweep = Sweep::paper();
    let workers = workers();
    let mut out = Outcome::default();
    let mut setups = Vec::new();

    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = sweeps_for(
        &sweep,
        args.seed,
        0,
        workers,
        untraced_s,
        false,
        &mut setups,
    );
    let traced = if args.trace {
        sweeps_for(
            &sweep,
            args.seed,
            1 << 32,
            workers,
            args.seconds / 2.0,
            true,
            &mut setups,
        )
    } else {
        Vec::new()
    };

    // E2's acceptance checks, on every sweep of the run.
    let li12 = sweep
        .loads
        .iter()
        .position(|&l| (l - 1.2).abs() < 1e-9)
        .expect("load 1.2 is on the grid");
    let knee = |run: &SweepRun, si: usize| {
        let pts: Vec<(f64, f64)> = (0..sweep.loads.len())
            .map(|li| (sweep.loads[li], q(&sweep, run, si, li)))
            .collect();
        knee_load(&pts, 10.0).unwrap_or(f64::INFINITY)
    };
    let all: Vec<&SweepRun> = untraced.iter().chain(&traced).collect();
    out.attempted = (all.len() * sweep.points().len()) as u64;
    let knee_fails = all
        .iter()
        .filter(|r| knee(r, UNIFORM) > knee(r, QUANTUM))
        .count();
    out.check(
        "knee-order",
        knee_fails == 0,
        format!(
            "classical knee ≤ quantum knee in {} of {} sweeps",
            all.len() - knee_fails,
            all.len()
        ),
    );
    let shorter_fails = all
        .iter()
        .filter(|r| q(&sweep, r, QUANTUM, li12) >= q(&sweep, r, UNIFORM, li12))
        .count();
    out.check(
        "quantum-shorter-at-1.2",
        shorter_fails == 0,
        format!(
            "quantum q̄ < uniform-random q̄ at load 1.2 in {} of {} sweeps",
            all.len() - shorter_fails,
            all.len()
        ),
    );

    let tasks = (untraced.len() * sweep.points().len()) as u64 * sweep.tasks_per_point();
    let wall_s: f64 = untraced.iter().map(|r| r.wall_s).sum();
    let host_s: f64 = untraced.iter().map(SweepRun::host_s).sum();
    eprintln!(
        "fig4: {} sweeps × {} points on {workers} workers, {tasks} tasks in {wall_s:.3} s \
         ({host_s:.3} s at nominal host pace), timer {:.1} ns",
        untraced.len(),
        sweep.points().len(),
        clock::timer_overhead_ns(),
    );

    if !args.trace {
        let tasks_per_s = tasks as f64 / host_s;
        let n = sweep.n_balancers as f64;
        let mut per_decision_us: Vec<f64> = untraced
            .iter()
            .flat_map(|r| &r.points)
            .flat_map(|p| {
                p.step_ns
                    .iter()
                    .map(|&ns| f64::from(ns) / 1e3 / n / p.slowdown)
            })
            .collect();
        let (mut won, mut rounds) = (0u64, 0u64);
        for p in untraced
            .iter()
            .flat_map(|r| &r.points)
            .filter(|p| p.strategy == QUANTUM)
        {
            won += p.result.cc_colocated + p.result.other_split;
            rounds += p.result.cc_rounds + p.result.other_rounds;
        }
        let q_quantum: f64 = untraced.iter().map(|r| q(&sweep, r, QUANTUM, li12)).sum();
        let q_uniform: f64 = untraced.iter().map(|r| q(&sweep, r, UNIFORM, li12)).sum();
        eprintln!(
            "fig4: {} step latencies (batch-timed over {n} decisions each)",
            per_decision_us.len()
        );
        out.metric("setup_s", median(&mut setups), "s");
        // Every simulated task is one balancer's placement decision.
        out.metric("decisions_per_s", tasks_per_s, "1/s");
        out.metric("tasks_per_s", tasks_per_s, "1/s");
        out.metric(
            "decision_p50_us",
            percentile(&mut per_decision_us, 0.5),
            "us",
        );
        out.metric(
            "decision_p99_us",
            percentile(&mut per_decision_us, 0.99),
            "us",
        );
        out.metric("win_rate", won as f64 / rounds as f64, "fraction");
        out.metric("queue_reduction", 1.0 - q_quantum / q_uniform, "fraction");
        return out;
    }

    let overhead = clock::timer_overhead_ns();
    let attributed_ns_per_task = layer_metrics(&sweep, &untraced, &traced, overhead, &mut out);
    let busy_s: f64 = untraced
        .iter()
        .flat_map(|r| &r.points)
        .map(|p| p.busy_s)
        .sum();
    let traced_tasks = (traced.len() * sweep.points().len()) as u64 * sweep.tasks_per_point();
    let traced_wall_s: f64 = traced.iter().map(|r| r.wall_s).sum();
    out.metric("clock.timer_overhead_ns", overhead, "ns");
    out.metric(
        "trace.overhead_frac",
        (traced_wall_s / traced_tasks as f64) / (wall_s / tasks as f64) - 1.0,
        "fraction",
    );
    out.metric(
        "attribution.residual_frac",
        1.0 - attributed_ns_per_task * tasks as f64 / (busy_s * 1e9),
        "fraction",
    );
    out
}

/// The fig4-family layer metrics: task draw, strategy assign (overall
/// and per strategy) and server service from the traced sweeps, in ns
/// per task; pool figures from the untraced ones. Returns the traced
/// layers' net time per task.
fn layer_metrics(
    sweep: &Sweep,
    untraced: &[SweepRun],
    traced: &[SweepRun],
    overhead: f64,
    out: &mut Outcome,
) -> f64 {
    let names = strategies();
    let mut all = Tracer::default();
    let mut assign_by_strategy = vec![(0.0f64, 0u64); names.len()];
    for p in traced.iter().flat_map(|r| &r.points) {
        all.merge(&p.tracer);
        let slot = &mut assign_by_strategy[p.strategy];
        slot.0 += p.tracer.get("strategy.assign").self_ns_net(overhead);
        slot.1 += sweep.tasks_per_point();
    }
    let tasks = (traced.len() * sweep.points().len()) as f64 * sweep.tasks_per_point() as f64;
    let draw = all.get("task.draw").self_ns_net(overhead) / tasks;
    let assign = all.get("strategy.assign").self_ns_net(overhead) / tasks;
    let service = all.get("sim.point").self_ns_net(overhead) / tasks;
    out.metric("task.draw_ns", draw, "ns");
    out.metric("strategy.assign_ns", assign, "ns");
    for ((name, _), (ns, n)) in names.iter().zip(&assign_by_strategy) {
        out.metric(format!("strategy.assign_ns.{name}"), ns / *n as f64, "ns");
    }
    out.metric("server.service_ns", service, "ns");

    let workers = workers() as f64;
    let mut busy: Vec<f64> = untraced
        .iter()
        .flat_map(|r| &r.points)
        .map(|p| p.busy_s)
        .collect();
    let wall: f64 = untraced.iter().map(|r| r.wall_s).sum();
    out.metric(
        "pool.efficiency",
        busy.iter().sum::<f64>() / (wall * workers),
        "fraction",
    );
    out.metric(
        "pool.point_s_max",
        busy.iter().cloned().fold(0.0, f64::max),
        "s",
    );
    out.metric("pool.point_s_p50", median(&mut busy), "s");
    draw + assign + service
}

/// The fig4-family layer metrics from a small sweep (loads 0.6 and 1.2,
/// 200 steps), for traced runs of workloads that bypass these layers.
pub fn layer_probe(seed: u64, out: &mut Outcome) {
    let sweep = Sweep {
        n_balancers: 100,
        timesteps: 200,
        loads: vec![0.6, 1.2],
    };
    let workers = workers();
    let untraced = [run_sweep(&sweep, stream_seed(seed, 40), workers, false)];
    let traced = [run_sweep(&sweep, stream_seed(seed, 41), workers, true)];
    layer_metrics(&sweep, &untraced, &traced, clock::timer_overhead_ns(), out);
}
