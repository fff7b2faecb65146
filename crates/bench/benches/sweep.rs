//! Bench: sweep executor and sampling-kernel ablations.
//!
//! 1. `sweep_executor` — a Figure-4-quick-sized grid (6 strategies × 10
//!    loads, N = 40, 600 steps) run with the old spawn-one-thread-per-
//!    point pattern vs the pooled shared-chunk-claim executor. Per-point
//!    spawns oversubscribe the machine with 60 threads of wildly uneven
//!    lifetime, while the pool keeps exactly `thread_count()` workers
//!    busy claiming chunks; how much that gains depends on the host's
//!    cores.
//! 2. `correlation_sample` — the hot `CorrelationBox::sample` kernel
//!    (cached CDF, one uniform draw, branchless inversion) vs the seed
//!    formulation that recomputed the agreement probability and drew
//!    twice per call, with a branch. Timed in batches of 1024 calls so
//!    harness overhead doesn't mask the ~ns-scale kernels. The cached
//!    kernel read ≥ 2× faster on one host (DESIGN.md §5).
//! 3. `obs_overhead` — the same pooled fig4-quick grid with metric
//!    collection off (the default) vs on. Recording is a handful of
//!    relaxed atomic ops per simulated round against ~µs of simulation
//!    work, so the two arms should read close (DESIGN.md §5).
//!
//! Nothing checks a ratio between arms; each reading depends on the
//! host.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use games::correlation::CorrelationBox;
use loadbalance::server::Discipline;
use loadbalance::sim::{run_simulation, SimConfig};
use loadbalance::strategy::Strategy;
use loadbalance::task::BernoulliWorkload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Mutex;

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::UniformRandom,
        Strategy::RoundRobin,
        Strategy::PowerOfTwoChoices,
        Strategy::PairedAlwaysSplit,
        Strategy::PairedMatchTypes,
        Strategy::quantum_ideal(),
    ]
}

/// One Figure 4 cell at the quick budget (mirrors `fig4::sim_point`).
fn cell(strategy: Strategy, load: f64, seed: u64) -> f64 {
    let config = SimConfig {
        n_balancers: 40,
        n_servers: (40.0 / load).round() as usize,
        timesteps: 600,
        warmup: 150,
        discipline: Discipline::PaperPairedC,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut workload = BernoulliWorkload::paper();
    run_simulation(config, strategy, &mut workload, &mut rng).avg_queue_len
}

fn bench_sweep_executor(c: &mut Criterion) {
    let strategies = strategies();
    let loads: Vec<f64> = (6..=15).map(|i| i as f64 / 10.0).collect();
    let grid = runtime::grid2(strategies.len(), loads.len());

    let mut group = c.benchmark_group("sweep_executor_fig4_quick");
    group.sample_size(5);

    // The pre-runtime pattern: one OS thread per grid point, results
    // funneled through a mutex.
    group.bench_function(BenchmarkId::new("spawn_per_point", grid.len()), |b| {
        b.iter(|| {
            let lock = Mutex::new(Vec::with_capacity(grid.len()));
            std::thread::scope(|scope| {
                for &(si, li) in &grid {
                    let lock = &lock;
                    let strategy = strategies[si];
                    let load = loads[li];
                    scope.spawn(move || {
                        let q = cell(
                            strategy,
                            load,
                            runtime::point_seed(40, si as u64, li as u64),
                        );
                        lock.lock().expect("sweep lock").push((si, li, q));
                    });
                }
            });
            black_box(lock.into_inner().expect("sweep lock"))
        })
    });

    group.bench_function(BenchmarkId::new("pooled_executor", grid.len()), |b| {
        b.iter(|| {
            black_box(runtime::par_map(&grid, |_, &(si, li)| {
                cell(
                    strategies[si],
                    loads[li],
                    runtime::point_seed(40, si as u64, li as u64),
                )
            }))
        })
    });

    group.finish();
}

/// The seed-version sampling kernel, verbatim: recompute the agreement
/// probability from the correlation entry and invert it with two uniform
/// draws (one for `a`, one branchy draw for `b | a`).
fn sample_two_draw<R: Rng>(boxx: &CorrelationBox, x: usize, y: usize, rng: &mut R) -> (bool, bool) {
    let c = boxx.correlation(x, y);
    // a is uniform; b agrees with a w.p. (1 + c)/2.
    let a: bool = rng.gen();
    let agree = rng.gen::<f64>() < (1.0 + c) / 2.0;
    let b = if agree { a } else { !a };
    (a, b)
}

/// Samples per bench iteration: a single call is ~2 ns, far below the
/// harness's per-iteration overhead, so time a batch and compare ratios.
const BATCH: usize = 1024;

fn bench_correlation_sample(c: &mut Criterion) {
    let boxx = CorrelationBox::chsh_optimal();
    let mut group = c.benchmark_group("correlation_sample");

    group.bench_function(BenchmarkId::new("cached_cdf", BATCH), |b| {
        let mut rng = StdRng::seed_from_u64(11);
        b.iter(|| {
            let mut acc = 0u32;
            for i in 0..BATCH {
                let (a, bb) = boxx.sample(i & 1, (i >> 1) & 1, &mut rng);
                acc += (a as u32) ^ (bb as u32);
            }
            black_box(acc)
        })
    });

    group.bench_function(BenchmarkId::new("two_draw_branch", BATCH), |b| {
        let mut rng = StdRng::seed_from_u64(11);
        b.iter(|| {
            let mut acc = 0u32;
            for i in 0..BATCH {
                let (a, bb) = sample_two_draw(&boxx, i & 1, (i >> 1) & 1, &mut rng);
                acc += (a as u32) ^ (bb as u32);
            }
            black_box(acc)
        })
    });

    group.finish();
}

fn bench_obs_overhead(c: &mut Criterion) {
    let strategies = strategies();
    let loads: Vec<f64> = (6..=15).map(|i| i as f64 / 10.0).collect();
    let grid = runtime::grid2(strategies.len(), loads.len());
    let sweep = |grid: &[(usize, usize)]| {
        runtime::par_map(grid, |_, &(si, li)| {
            cell(
                strategies[si],
                loads[li],
                runtime::point_seed(40, si as u64, li as u64),
            )
        })
    };

    let mut group = c.benchmark_group("obs_overhead_fig4_quick");
    group.sample_size(5);

    group.bench_function(BenchmarkId::new("obs_off", grid.len()), |b| {
        obs::set_enabled(false);
        b.iter(|| black_box(sweep(&grid)))
    });

    group.bench_function(BenchmarkId::new("obs_on", grid.len()), |b| {
        obs::reset();
        obs::set_enabled(true);
        b.iter(|| black_box(sweep(&grid)));
        obs::set_enabled(false);
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_sweep_executor,
    bench_correlation_sample,
    bench_obs_overhead
);
criterion_main!(benches);
