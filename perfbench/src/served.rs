//! The served-path workloads: `serve-socket`, `serve-plane` and
//! `serve-faulted`.
//!
//! All three run `ServeConfig::typical` (4 endpoints × 64 servers,
//! 4096-slot rings) with the task inputs `(x, y)` drawn i.i.d.
//! Bernoulli(½) from the seed and endpoints chosen round-robin. Every
//! answered placement goes through [`Tally::record`], which applies the
//! per-decision output checks and scores the flipped-CHSH game. After the
//! timed window, a queue check feeds the service's placements into the
//! Figure 4 queue model (`loadbalance::sim`) to get `queue_reduction`.
//!
//! Set-up is re-timed at intervals through the load, outside the timed
//! blocks, so that `setup_s` samples the whole run like the other
//! metrics do: other tenants of the host slow whole stretches of a run.

use crate::clock::{self, median, percentile, secs_since};
use crate::host::{self, Kernel, Pace};
use crate::layers;
use crate::outcome::Outcome;
use crate::tracer::Tracer;
use crate::{Args, Workload};
use loadbalance::sim::{run_simulation, run_simulation_with, SimConfig};
use loadbalance::task::BernoulliWorkload;
use loadbalance::{AssignmentStrategy, Discipline, Strategy, TaskType};
use qmath::stats::wilson;
use qnet::{FaultKind, FaultPlan, LinkSide, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use runtime::{stream_seed, SplitMix64};
use serve::socket::{Client, SocketServer};
use serve::{
    Placement, ServeConfig, Service, ServiceCore, ServiceSummary, TIER_CLASSICAL, TIER_INDEPENDENT,
    TIER_QUANTUM,
};
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Loop iterations (one decision per endpoint, then one `pump_all`) per
/// timed block on the in-process workloads. A block of 256 decisions
/// takes microseconds, far above the timer's cost.
const BLOCK_ITERS: usize = 64;
/// Blocks between two host pace readings on the in-process workloads
/// (32 768 decisions, tens of milliseconds).
const WINDOW_BLOCKS: usize = 128;
/// Blocks between two set-up timings on the in-process workloads (about
/// a million decisions); a whole number of windows.
const SETUP_EVERY_BLOCKS: usize = 4_096;
/// Requests per client session on `serve-socket`: a fresh connection,
/// then `SESSION_LEN − 1` round trips.
const SESSION_LEN: u64 = 4_096;
/// Sessions between two set-up timings on `serve-socket`.
const SETUP_EVERY_SESSIONS: usize = 8;
/// Queue check: 76 balancers (38 pairs) over the service's 64 servers,
/// load 76/64 ≈ 1.19, next to Figure 4's load-1.2 point.
const QUEUE_BALANCERS: usize = 76;
/// Measured steps of the queue check (plus a quarter as warm-up).
const QUEUE_STEPS: u64 = 3_000;
/// Simulated seconds the faulted plan covers. Fixed, so set-up cost does
/// not depend on run length; the `fault-plan-covers-run` check flags a
/// run that outlives it.
const FAULT_HORIZON_S: u64 = 600;

/// The service configuration of a serve workload: typical, plus E11b's
/// periodic both-link outage (8 ms every 40 ms from 2 ms) when faulted.
pub fn config(seed: u64, faulted: bool) -> ServeConfig {
    let mut cfg = ServeConfig::typical(stream_seed(seed, 1));
    if faulted {
        cfg.distributor.faults = FaultPlan::periodic(
            FaultKind::LinkOutage(LinkSide::Both),
            SimTime::from_micros(2_000),
            Duration::from_micros(40_000),
            Duration::from_micros(8_000),
            SimTime::from_nanos(FAULT_HORIZON_S * 1_000_000_000),
        );
    }
    cfg
}

/// The task-input stream: i.i.d. Bernoulli(½) bits `(x, y)`, two per
/// 64-bit draw of a seeded SplitMix64 (32 pairs per draw).
pub struct Inputs {
    rng: SplitMix64,
    bits: u64,
    left: u32,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        Inputs {
            rng: SplitMix64::new(seed),
            bits: 0,
            left: 0,
        }
    }

    #[inline]
    pub fn next(&mut self) -> (bool, bool) {
        if self.left == 0 {
            self.bits = self.rng.next_u64();
            self.left = 32;
        }
        let xy = (self.bits & 1 != 0, self.bits & 2 != 0);
        self.bits >>= 2;
        self.left -= 1;
        xy
    }
}

/// Per-decision output checks and the game score of one service.
#[derive(Debug, Clone)]
pub struct Tally {
    n_servers: u32,
    last_seq: Vec<Option<u64>>,
    pub decisions: u64,
    /// Decisions that won the flipped CHSH game: co-located iff both
    /// tasks are type-C.
    pub wins: u64,
    pub by_tier: [u64; 3],
    /// Decisions that failed a check.
    pub bad: u64,
    pub first_bad: Option<String>,
}

impl Tally {
    pub fn new(cfg: &ServeConfig) -> Self {
        Tally {
            n_servers: cfg.n_servers,
            last_seq: vec![None; cfg.n_endpoints as usize],
            decisions: 0,
            wins: 0,
            by_tier: [0; 3],
            bad: 0,
            first_bad: None,
        }
    }

    /// Checks one placement answered on endpoint `e` for inputs `(x, y)`:
    /// both servers in range, a known tier, classical-tier placements
    /// split, and slot `seq` increasing per endpoint (the inline fallback
    /// answers with `u64::MAX`). Returns whether it passed.
    #[inline]
    pub fn record(&mut self, e: usize, x: bool, y: bool, p: &Placement) -> bool {
        self.decisions += 1;
        if let Some(t) = self.by_tier.get_mut(p.tier as usize) {
            *t += 1;
        }
        let problem = if p.first >= self.n_servers || p.second >= self.n_servers {
            Some("placement out of range")
        } else if p.tier > TIER_INDEPENDENT {
            Some("unknown tier")
        } else if p.tier == TIER_CLASSICAL && p.first == p.second {
            Some("classical-tier placement not split")
        } else if p.seq != u64::MAX && self.last_seq[e].is_some_and(|last| p.seq <= last) {
            Some("slot seq not increasing")
        } else {
            None
        };
        if p.seq != u64::MAX {
            self.last_seq[e] = Some(p.seq);
        }
        if let Some(why) = problem {
            self.bad += 1;
            self.first_bad
                .get_or_insert_with(|| format!("{why}: endpoint {e}, inputs ({x}, {y}), {p:?}"));
            return false;
        }
        self.wins += u64::from((p.first == p.second) == (x && y));
        true
    }
}

/// Answers one pair's placement: `(endpoint, x, y)` to a placement, or
/// `None` when the request failed.
type Decide<'a> = dyn FnMut(usize, bool, bool) -> Option<Placement> + 'a;

/// A paired assignment strategy whose decisions come from the service
/// under test: balancers `2i` and `2i + 1` send their task types as one
/// query and place their tasks where the answer says.
struct ServedPairs<'a, 'b> {
    decide: &'a mut Decide<'b>,
    tally: &'a mut Tally,
    n_endpoints: usize,
    next: usize,
    errors: u64,
}

impl AssignmentStrategy for ServedPairs<'_, '_> {
    fn assign_all(
        &mut self,
        tasks: &[TaskType],
        _queue_lens: &[usize],
        _rng: &mut dyn rand::RngCore,
    ) -> Vec<usize> {
        let mut out = Vec::with_capacity(tasks.len());
        for pair in tasks.chunks(2) {
            let x = pair[0].is_colocate();
            let y = pair.get(1).is_some_and(|t| t.is_colocate());
            let e = self.next % self.n_endpoints;
            self.next += 1;
            let placed = match (self.decide)(e, x, y) {
                Some(p) if self.tally.record(e, x, y, &p) => (p.first as usize, p.second as usize),
                Some(_) => (0, 1),
                None => {
                    self.errors += 1;
                    (0, 1)
                }
            };
            out.push(placed.0);
            if pair.len() == 2 {
                out.push(placed.1);
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        // The `paired` prefix makes the simulator score pair rounds.
        "paired-served"
    }
}

/// Runs the Figure 4 queue model twice at load ≈ 1.19 — uniform-random
/// placement, then the service's placements — and returns `1 − q̄(served)
/// / q̄(uniform)` with the number of failed requests.
fn queue_check(
    seed: u64,
    cfg: &ServeConfig,
    decide: &mut Decide<'_>,
    tally: &mut Tally,
) -> (f64, u64) {
    let config = SimConfig {
        n_balancers: QUEUE_BALANCERS,
        n_servers: cfg.n_servers as usize,
        timesteps: QUEUE_STEPS,
        warmup: QUEUE_STEPS / 4,
        discipline: Discipline::PaperPairedC,
    };
    let base = run_simulation(
        config,
        Strategy::UniformRandom,
        &mut BernoulliWorkload::paper(),
        &mut StdRng::seed_from_u64(stream_seed(seed, 3)),
    );
    let mut served = ServedPairs {
        decide,
        tally,
        n_endpoints: cfg.n_endpoints as usize,
        next: 0,
        errors: 0,
    };
    let q = run_simulation_with(
        config,
        &mut served,
        &mut BernoulliWorkload::paper(),
        &mut StdRng::seed_from_u64(stream_seed(seed, 4)),
    );
    (1.0 - q.avg_queue_len / base.avg_queue_len, served.errors)
}

/// Latency figures of one timed pass, as measured (`wall`) or divided by
/// the host's slowdown over their window (`host`, see [`crate::host`]).
#[derive(Debug, Default)]
struct Latencies {
    /// Samples in µs: block time per decision on the in-process
    /// workloads (empty on `serve-socket`).
    samples_us: Vec<f64>,
    /// Per-session `(p50, p99)` of the round trips on `serve-socket`.
    sessions: Vec<(f64, f64)>,
}

impl Latencies {
    /// Median and 99th percentile, in µs: the median over sessions of
    /// each session's percentile. A session's 4095 round trips, or a
    /// segment of `SETUP_EVERY_BLOCKS` block samples on the in-process
    /// workloads, leave 40 beyond its p99, and a burst of interference in
    /// a few of them does not set the run's tail.
    fn p50_p99_us(&self) -> (f64, f64) {
        let segments: Vec<(f64, f64)> = self
            .samples_us
            .chunks(SETUP_EVERY_BLOCKS)
            .map(|segment| {
                let mut v = segment.to_vec();
                (percentile(&mut v, 0.5), percentile(&mut v, 0.99))
            })
            .collect();
        let (mut p50, mut p99): (Vec<f64>, Vec<f64>) =
            self.sessions.iter().chain(&segments).copied().unzip();
        (median(&mut p50), median(&mut p99))
    }
}

/// What one timed pass did.
#[derive(Debug, Default)]
struct Drive {
    decisions: u64,
    /// Time inside the timed blocks or sessions; set-up timings and host
    /// pace readings between them are left out.
    wall_s: f64,
    /// `wall_s` with each window divided by the host's slowdown over it.
    host_s: f64,
    /// Slots published by `pump_all` (in-process workloads only).
    slots: u64,
    wall: Latencies,
    host: Latencies,
    /// Pace readings taken.
    windows: u64,
}

impl Drive {
    fn decisions_per_s(&self) -> f64 {
        self.decisions as f64 / self.wall_s
    }

    fn host_decisions_per_s(&self) -> f64 {
        self.decisions as f64 / self.host_s
    }

    /// Closes a window of `wall_s` seconds whose latency samples start at
    /// `first_sample`: reads the host's pace and books the window at it.
    fn close_window(&mut self, pace: &mut Pace, wall_s: f64, first_sample: usize) -> f64 {
        let slowdown = pace.window();
        self.windows += 1;
        self.host_s += wall_s / slowdown;
        let tail = &self.wall.samples_us[first_sample..];
        self.host
            .samples_us
            .extend(tail.iter().map(|l| l / slowdown));
        slowdown
    }

    fn summary(&self, name: &str) -> String {
        let (p50, p99) = self.wall.p50_p99_us();
        let (host_p50, host_p99) = self.host.p50_p99_us();
        format!(
            "{name}: {} decisions in {:.3} s ({:.0}/s; {:.0}/s at nominal host pace, mean slowdown {:.3} over {} windows), \
             latency p50 {p50:.3} us, p99 {p99:.3} us (nominal pace {host_p50:.3}, {host_p99:.3})",
            self.decisions,
            self.wall_s,
            self.decisions_per_s(),
            self.host_decisions_per_s(),
            self.wall_s / self.host_s,
            self.windows,
        )
    }
}

/// The in-process loop: one decision per endpoint, then `pump_all`,
/// timed in blocks of `BLOCK_ITERS` iterations, with a host pace reading
/// after every `WINDOW_BLOCKS` blocks, until `seconds` of blocks pass.
/// `between` runs after every `SETUP_EVERY_BLOCKS` blocks, outside them,
/// with the last slowdown read. With a tracer, each `pump_all` is a span.
fn drive_plane(
    core: &mut ServiceCore,
    inputs: &mut Inputs,
    tally: &mut Tally,
    seconds: f64,
    pace: &mut Pace,
    mut tracer: Option<&mut Tracer>,
    between: &mut dyn FnMut(f64),
) -> Drive {
    let n = core.n_endpoints();
    let block = (BLOCK_ITERS * n) as u64;
    let mut d = Drive::default();
    let mut window_first = 0;
    let mut window_s = 0.0;
    let mut block_start = Instant::now();
    loop {
        for _ in 0..BLOCK_ITERS {
            for e in 0..n {
                let (x, y) = inputs.next();
                let p = core.decide(e, x, y);
                tally.record(e, x, y, &p);
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.begin("service.pump_all");
            }
            d.slots += core.pump_all() as u64;
            if let Some(t) = tracer.as_deref_mut() {
                t.end();
            }
        }
        let now = Instant::now();
        let secs = (now - block_start).as_secs_f64();
        d.decisions += block;
        d.wall_s += secs;
        window_s += secs;
        d.wall.samples_us.push(secs * 1e6 / block as f64);
        block_start = now;
        let blocks = d.wall.samples_us.len();
        let done = d.wall_s >= seconds;
        if done || blocks - window_first == WINDOW_BLOCKS {
            d.close_window(pace, window_s, window_first);
            if done {
                return d;
            }
            (window_first, window_s) = (blocks, 0.0);
            if blocks % SETUP_EVERY_BLOCKS == 0 {
                between(pace.last());
            }
            block_start = Instant::now();
        }
    }
}

/// `ServiceCore::new` + `fill_all`: config to the first decision-ready
/// state. Returns the core and the seconds it took.
fn build_core(cfg: &ServeConfig) -> (ServiceCore, f64) {
    let t = Instant::now();
    let mut core = ServiceCore::new(cfg);
    core.fill_all();
    (core, secs_since(t))
}

/// `serve-plane` and `serve-faulted`: a single-threaded `ServiceCore`.
pub fn plane(args: &Args) -> Outcome {
    let faulted = args.workload == Workload::ServeFaulted;
    let cfg = config(args.seed, faulted);
    let mut out = Outcome::default();

    let mut pace = Pace::new(Kernel::Compute);
    let (mut core, first_setup) = build_core(&cfg);
    // Set-up times at nominal host pace, each by the reading before it.
    let mut setups = vec![first_setup / pace.last()];
    let mut time_setup = |slowdown: f64| setups.push(build_core(&cfg).1 / slowdown);
    let mut inputs = Inputs::new(stream_seed(args.seed, 2));
    let mut tally = Tally::new(&cfg);
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let run = drive_plane(
        &mut core,
        &mut inputs,
        &mut tally,
        untraced_s,
        &mut pace,
        None,
        &mut time_setup,
    );
    let mut tracer = Tracer::default();
    let traced = args.trace.then(|| {
        drive_plane(
            &mut core,
            &mut inputs,
            &mut tally,
            args.seconds / 2.0,
            &mut pace,
            Some(&mut tracer),
            &mut |_| {},
        )
    });
    let timed = tally.clone();

    let (queue_reduction, _) = queue_check(
        args.seed,
        &cfg,
        &mut |e, x, y| {
            let p = core.decide(e, x, y);
            core.pump_all();
            Some(p)
        },
        &mut tally,
    );
    let summary = core.finish();

    serve_checks(&mut out, &[(Some(summary), tally)]);
    if args.workload == Workload::ServePlane {
        let ci = wilson(timed.wins, timed.decisions);
        out.check(
            "win-rate-beats-classical",
            ci.lo > 0.75,
            format!(
                "win rate {:.4}, 95% Wilson interval [{:.4}, {:.4}] over {} decisions; classical ceiling 0.75",
                ci.estimate, ci.lo, ci.hi, timed.decisions
            ),
        );
    }
    if faulted {
        let per_endpoint = summary.feeds.produced / u64::from(cfg.n_endpoints);
        let sim_s = per_endpoint as f64 * cfg.decision_period.as_secs_f64();
        out.check(
            "fault-plan-covers-run",
            sim_s < FAULT_HORIZON_S as f64,
            format!("run reached {sim_s:.1} s of sim time; outages are scheduled to {FAULT_HORIZON_S} s"),
        );
    }
    let overhead = clock::timer_overhead_ns();
    eprintln!(
        "{} (latency batch-timed over {} decisions per block; timer {overhead:.1} ns)",
        run.summary(&format!("{:?}", args.workload)),
        BLOCK_ITERS * cfg.n_endpoints as usize,
    );

    if !args.trace {
        report_e2e(&mut out, &mut setups, &run, &timed, queue_reduction);
        return out;
    }

    // Per-layer metrics.
    let traced = traced.expect("traced pass ran");
    let costs = layers::plane_layers(&cfg, args.seed, &mut out);
    let pump = tracer.get("service.pump_all");
    out.metric("clock.timer_overhead_ns", overhead, "ns");
    out.metric(
        "feed.pump_ns_per_slot",
        pump.self_ns_net(overhead) / traced.slots.max(1) as f64,
        "ns",
    );
    feed_metrics(&mut out, &summary);
    let untraced_ns = 1e9 / run.decisions_per_s();
    out.metric(
        "trace.overhead_frac",
        run.decisions_per_s() / traced.decisions_per_s() - 1.0,
        "fraction",
    );
    // Attribution: standalone layer costs × operation counts of the
    // untraced pass, against its time per decision.
    let slots_per_decision = run.slots as f64 / run.decisions as f64;
    let q = timed.by_tier[TIER_QUANTUM as usize] as f64 / timed.decisions as f64;
    let per_slot = costs.distributor_ns_per_slot
        + costs.governor_observe_ns
        + q * costs.draw_quantum_ns
        + (1.0 - q) * costs.draw_classical_ns;
    let attributed = costs.endpoint_decide_ns + slots_per_decision * per_slot;
    out.metric(
        "attribution.residual_frac",
        1.0 - attributed / untraced_ns,
        "fraction",
    );
    out
}

/// The end-to-end metrics every serve workload reports; times at nominal
/// host pace.
fn report_e2e(
    out: &mut Outcome,
    setups: &mut [f64],
    run: &Drive,
    timed: &Tally,
    queue_reduction: f64,
) {
    let (p50, p99) = run.host.p50_p99_us();
    out.metric("setup_s", median(setups), "s");
    out.metric("decisions_per_s", run.host_decisions_per_s(), "1/s");
    // Each decision places a pair of tasks.
    out.metric("tasks_per_s", 2.0 * run.host_decisions_per_s(), "1/s");
    out.metric("decision_p50_us", p50, "us");
    out.metric("decision_p99_us", p99, "us");
    out.metric(
        "win_rate",
        timed.wins as f64 / timed.decisions as f64,
        "fraction",
    );
    out.metric("queue_reduction", queue_reduction, "fraction");
    eprintln!(
        "setup: median of {} timings spread over the run",
        setups.len()
    );
}

/// Per-decision and accounting checks over every service a run started:
/// each service's summary must count every decision its client saw, in
/// exactly one tier. Adds the decisions to `attempted`.
fn serve_checks(out: &mut Outcome, services: &[(Option<ServiceSummary>, Tally)]) {
    let decisions: u64 = services.iter().map(|(_, t)| t.decisions).sum();
    let bad: u64 = services.iter().map(|(_, t)| t.bad).sum();
    out.attempted += decisions;
    out.failed += bad;
    let first_bad = services.iter().find_map(|(_, t)| t.first_bad.clone());
    out.check(
        "placements-valid",
        bad == 0,
        first_bad.unwrap_or_else(|| {
            format!("{decisions} placements in range, split where classical, seq increasing")
        }),
    );
    let unaccounted: Vec<String> = services
        .iter()
        .filter(|(s, t)| {
            !s.is_some_and(|s| {
                s.endpoints.by_tier.iter().sum::<u64>() == s.endpoints.decisions
                    && s.endpoints.decisions == t.decisions
                    && s.endpoints.by_tier == t.by_tier
            })
        })
        .map(|(s, t)| {
            format!(
                "service counted {:?}, client saw {} by tier {:?}",
                s.map(|s| (s.endpoints.decisions, s.endpoints.by_tier)),
                t.decisions,
                t.by_tier
            )
        })
        .collect();
    out.check(
        "tier-accounting",
        unaccounted.is_empty(),
        unaccounted.first().cloned().unwrap_or_else(|| {
            format!(
                "{} services counted every decision in one tier",
                services.len()
            )
        }),
    );
}

/// Feed, tier and governor counters from a service summary.
pub fn feed_metrics(out: &mut Outcome, s: &ServiceSummary) {
    let decisions = s.endpoints.decisions.max(1) as f64;
    out.metric("feed.refills", s.feeds.refills as f64, "count");
    out.metric(
        "feed.misses_frac",
        s.feeds.misses as f64 / s.feeds.produced.max(1) as f64,
        "fraction",
    );
    for (name, tier) in [
        ("tier.quantum_frac", TIER_QUANTUM),
        ("tier.classical_frac", TIER_CLASSICAL),
        ("tier.independent_frac", TIER_INDEPENDENT),
    ] {
        out.metric(
            name,
            s.endpoints.by_tier[tier as usize] as f64 / decisions,
            "fraction",
        );
    }
    out.metric("governor.transitions", s.feeds.transitions as f64, "count");
    out.metric(
        "endpoint.exhausted_frac",
        s.endpoints.exhausted as f64 / decisions,
        "fraction",
    );
}

/// A threaded service behind a socket server, with one connected client.
pub struct Live {
    svc: Arc<Service>,
    server: SocketServer,
    client: Client,
    pub tally: Tally,
    next_request: u64,
}

impl Live {
    /// Starts the service (synchronous ring fill), binds the socket,
    /// connects and answers one decision. Returns the live service and
    /// the connect + first-decision time in seconds.
    ///
    /// The service's pump thread starts on the second CPU, the socket
    /// server's threads on the caller's.
    pub fn open(cfg: &ServeConfig, path: &Path, inputs: &mut Inputs) -> io::Result<(Live, f64)> {
        let svc = {
            let _pump_cpu = host::pin_to_cpu(1);
            Arc::new(Service::start(cfg))
        };
        let server = SocketServer::start(path, Arc::clone(&svc))?;
        let t = Instant::now();
        let mut client = Client::connect(path)?;
        let (x, y) = inputs.next();
        let p = client.decide(0, x, y)?;
        let connect_s = secs_since(t);
        let mut tally = Tally::new(cfg);
        tally.record(0, x, y, &p);
        let live = Live {
            svc,
            server,
            client,
            tally,
            next_request: 1,
        };
        Ok((live, connect_s))
    }

    /// Closes the client, stops the server (joining its threads) and
    /// shuts the service down. The summary is `None` if the service is
    /// still referenced elsewhere, which the accounting check reports.
    pub fn close(self) -> (Option<ServiceSummary>, Tally) {
        let Live {
            svc,
            mut server,
            client,
            tally,
            ..
        } = self;
        drop(client);
        server.stop();
        drop(server);
        let summary = Arc::try_unwrap(svc).ok().map(|mut s| s.shutdown());
        (summary, tally)
    }

    fn endpoint(&mut self) -> usize {
        let e = (self.next_request % self.svc.n_endpoints() as u64) as usize;
        self.next_request += 1;
        e
    }

    /// Closed-loop load: one request at a time, endpoints round-robin,
    /// in client sessions of `SESSION_LEN` requests (connect + first
    /// decision, then round trips), until `seconds` of sessions pass.
    /// Each session is a window with a host pace reading after it. Round
    /// trips go to the session's percentiles, connect + first-decision
    /// times to `connects_us`. `between` runs after every
    /// `SETUP_EVERY_SESSIONS` sessions, outside them, with the last
    /// slowdown read. With a tracer, each request and each connect is a
    /// span.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &mut self,
        path: &Path,
        inputs: &mut Inputs,
        seconds: f64,
        pace: &mut Pace,
        mut tracer: Option<&mut Tracer>,
        connects_us: &mut Vec<f64>,
        between: &mut dyn FnMut(f64),
    ) -> io::Result<(Drive, u64)> {
        let mut d = Drive::default();
        let mut errors = 0u64;
        let mut rtts = Vec::with_capacity(SESSION_LEN as usize);
        for session in 1.. {
            rtts.clear();
            let session_start = Instant::now();
            let (x, y) = inputs.next();
            let e = self.endpoint();
            if let Some(t) = tracer.as_deref_mut() {
                t.begin("client.connect");
            }
            self.client = Client::connect(path)?;
            let p = self.client.decide(e as u32, x, y)?;
            if let Some(t) = tracer.as_deref_mut() {
                t.end();
            }
            connects_us.push(session_start.elapsed().as_nanos() as f64 / 1e3);
            self.tally.record(e, x, y, &p);
            let mut answered = 1;
            while answered < SESSION_LEN {
                let (x, y) = inputs.next();
                let e = self.endpoint();
                if let Some(t) = tracer.as_deref_mut() {
                    t.begin("client.decide");
                }
                let t0 = Instant::now();
                let r = self.client.decide(e as u32, x, y);
                let rtt = t0.elapsed();
                if let Some(t) = tracer.as_deref_mut() {
                    t.end();
                }
                match r {
                    Ok(p) => {
                        self.tally.record(e, x, y, &p);
                        rtts.push(rtt.as_nanos() as f64 / 1e3);
                        answered += 1;
                    }
                    Err(err) => {
                        errors += 1;
                        eprintln!("serve-socket: request failed ({err}); reconnecting");
                        break;
                    }
                }
            }
            let session_s = secs_since(session_start);
            d.decisions += answered;
            d.wall_s += session_s;
            // No per-request samples are kept: the session's percentiles
            // carry its latency.
            let no_samples = d.wall.samples_us.len();
            let slowdown = d.close_window(pace, session_s, no_samples);
            if !rtts.is_empty() {
                let (p50, p99) = (percentile(&mut rtts, 0.5), percentile(&mut rtts, 0.99));
                d.wall.sessions.push((p50, p99));
                d.host.sessions.push((p50 / slowdown, p99 / slowdown));
            }
            if d.wall_s >= seconds {
                break;
            }
            if session % SETUP_EVERY_SESSIONS == 0 {
                between(pace.last());
            }
        }
        Ok((d, errors))
    }

    /// Batch-timed in-process `Service::decide` on this service, ns per
    /// call. Each batch of 256 calls follows a pause that lets the pump
    /// thread top the rings up, so no call meets an empty ring.
    pub fn service_decide_ns(&mut self, inputs: &mut Inputs) -> f64 {
        const BATCH: usize = 256;
        let mut answered = Vec::with_capacity(BATCH);
        let mut per_call: Vec<f64> = (0..clock::BATCHES)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(2));
                answered.clear();
                let t = Instant::now();
                for _ in 0..BATCH {
                    let e = self.endpoint();
                    let (x, y) = inputs.next();
                    answered.push((e, x, y, black_box(self.svc.decide(e, x, y))));
                }
                let ns = t.elapsed().as_nanos() as f64 / BATCH as f64;
                for (e, x, y, p) in &answered {
                    self.tally.record(*e, *x, *y, p);
                }
                ns
            })
            .collect();
        median(&mut per_call)
    }
}

/// The feed's pump cost, tier mix and governor counters from a short
/// `serve-plane` loop, for traced runs of workloads that do not pump in
/// the foreground.
pub fn plane_probe(seed: u64, out: &mut Outcome) {
    let cfg = config(seed, false);
    let (mut core, _) = build_core(&cfg);
    let mut tally = Tally::new(&cfg);
    let mut tracer = Tracer::default();
    let mut inputs = Inputs::new(stream_seed(seed, 9));
    let d = drive_plane(
        &mut core,
        &mut inputs,
        &mut tally,
        0.3,
        &mut Pace::new(Kernel::Compute),
        Some(&mut tracer),
        &mut |_| {},
    );
    let net = tracer
        .get("service.pump_all")
        .self_ns_net(clock::timer_overhead_ns());
    out.metric("feed.pump_ns_per_slot", net / d.slots.max(1) as f64, "ns");
    feed_metrics(out, &core.finish());
}

/// The socket layer from a short `serve-socket` session, for traced runs
/// of workloads that bypass the socket.
pub fn socket_probe(seed: u64, out: &mut Outcome) {
    let cfg = config(seed, false);
    let path = socket_path("probe");
    let mut inputs = Inputs::new(stream_seed(seed, 10));
    let mut connects_us = Vec::new();
    let pinned = host::pin_to_cpu(0);
    let probe = Live::open(&cfg, &path, &mut inputs).and_then(|(mut live, connect_s)| {
        connects_us.push(connect_s * 1e6);
        let r = live.drive(
            &path,
            &mut inputs,
            0.3,
            &mut Pace::new(Kernel::Socket),
            None,
            &mut connects_us,
            &mut |_| {},
        );
        let decide_ns = live.service_decide_ns(&mut inputs);
        let (summary, _) = live.close();
        let (d, errors) = r?;
        Ok((d.wall.p50_p99_us().0, decide_ns, summary, errors))
    });
    drop(pinned);
    match probe {
        Ok((rtt_p50_us, decide_ns, summary, errors)) => {
            out.check(
                "socket-probe",
                errors == 0,
                format!("{errors} probe requests failed"),
            );
            out.metric("socket.self_us", rtt_p50_us - decide_ns / 1e3, "us");
            out.metric("socket.connect_us", median(&mut connects_us), "us");
            out.metric("service.decide_ns", decide_ns, "ns");
            if let Some(s) = summary {
                feed_metrics(out, &s);
            }
        }
        Err(e) => out.check("socket-probe", false, e.to_string()),
    }
}

/// Socket path for this process, relative to the working directory (the
/// checkout root), which keeps it inside the checkout and short enough
/// for `sockaddr_un`.
pub fn socket_path(role: &str) -> PathBuf {
    PathBuf::from(format!(".perfbench-{}-{role}.sock", std::process::id()))
}

/// `serve-socket`: out-of-process placement over the Unix-socket
/// protocol, one client thread in a closed loop.
///
/// The client and the socket server's threads share the first CPU; the
/// service's pump thread refills the rings from the second. Spread over
/// the vCPUs of a virtual machine by the scheduler, round trips would
/// wake an idle vCPU or not depending on where the threads landed, and
/// differ run to run by a factor of two.
pub fn socket(args: &Args) -> Outcome {
    let _pinned = host::pin_to_cpu(0);
    let cfg = config(args.seed, false);
    let path = socket_path("load");
    let mut out = Outcome::default();
    let mut inputs = Inputs::new(stream_seed(args.seed, 2));
    let mut pace = Pace::new(Kernel::Socket);

    // Set-up: service start with synchronous ring fill, bind, connect and
    // the first decision; timed once for the service that carries the
    // load, then again between sessions on a second socket. Each timing
    // is at nominal host pace, by the reading before it.
    let t = Instant::now();
    let (mut live, connect_s) = match Live::open(&cfg, &path, &mut inputs) {
        Ok(l) => l,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.check("socket-setup", false, e.to_string());
            return out;
        }
    };
    let mut setups = vec![secs_since(t) / pace.last()];
    let mut connects_us = vec![connect_s * 1e6];
    let mut closed = Vec::new();
    let mut setup_errors = Vec::new();
    let setup_path = socket_path("setup");
    let mut setup_inputs = Inputs::new(stream_seed(args.seed, 11));
    let mut time_setup = |slowdown: f64| {
        let t = Instant::now();
        match Live::open(&cfg, &setup_path, &mut setup_inputs) {
            Ok((extra, _)) => {
                setups.push(secs_since(t) / slowdown);
                closed.push(extra.close());
            }
            Err(e) => setup_errors.push(e.to_string()),
        }
    };

    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut tracer = Tracer::default();
    let mut errors = 0;
    let passes = live
        .drive(
            &path,
            &mut inputs,
            untraced_s,
            &mut pace,
            None,
            &mut connects_us,
            &mut time_setup,
        )
        .and_then(|(run, e1)| {
            errors += e1;
            if !args.trace {
                return Ok((run, None));
            }
            let (traced, e2) = live.drive(
                &path,
                &mut inputs,
                args.seconds / 2.0,
                &mut pace,
                Some(&mut tracer),
                &mut connects_us,
                &mut |_| {},
            )?;
            errors += e2;
            Ok((run, Some(traced)))
        });
    let (run, traced) = match passes {
        Ok(p) => p,
        Err(e) => {
            closed.push(live.close());
            serve_checks(&mut out, &closed);
            out.attempted += 1;
            out.failed += 1;
            out.check("socket-load", false, format!("reconnect failed: {e}"));
            return out;
        }
    };
    let timed = live.tally.clone();
    let service_decide_ns = args.trace.then(|| live.service_decide_ns(&mut inputs));

    let (queue_reduction, queue_errors) = {
        let client = &mut live.client;
        queue_check(
            args.seed,
            &cfg,
            &mut |e, x, y| client.decide(e as u32, x, y).ok(),
            &mut live.tally,
        )
    };
    errors += queue_errors;
    closed.push(live.close());
    let summary = closed.last().and_then(|(s, _)| *s);

    out.attempted += errors;
    out.failed += errors;
    serve_checks(&mut out, &closed);
    out.check(
        "no-failed-requests",
        errors == 0,
        format!("{errors} requests errored or went unanswered"),
    );
    out.check(
        "setups-succeed",
        setup_errors.is_empty(),
        setup_errors
            .first()
            .cloned()
            .unwrap_or_else(|| format!("{} set-ups", setups.len())),
    );
    let overhead = clock::timer_overhead_ns();
    eprintln!(
        "{} ({} connects; timer {overhead:.1} ns)",
        run.summary("serve-socket"),
        connects_us.len()
    );

    if !args.trace {
        report_e2e(&mut out, &mut setups, &run, &timed, queue_reduction);
        return out;
    }

    let traced = traced.expect("traced pass ran");
    let service_decide_ns = service_decide_ns.expect("measured when tracing");
    let socket_self_us = run.wall.p50_p99_us().0 - service_decide_ns / 1e3;
    out.metric("clock.timer_overhead_ns", overhead, "ns");
    out.metric("socket.self_us", socket_self_us, "us");
    out.metric("socket.connect_us", median(&mut connects_us), "us");
    out.metric("service.decide_ns", service_decide_ns, "ns");
    if let Some(s) = &summary {
        feed_metrics(&mut out, s);
    }
    let untraced_ns = 1e9 / run.decisions_per_s();
    out.metric(
        "trace.overhead_frac",
        run.decisions_per_s() / traced.decisions_per_s() - 1.0,
        "fraction",
    );
    out.metric(
        "attribution.residual_frac",
        1.0 - (socket_self_us * 1e3 + service_decide_ns) / untraced_ns,
        "fraction",
    );
    out
}
