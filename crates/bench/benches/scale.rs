//! Bench: the sharded SoA engine ablation (DESIGN.md §5).
//!
//! Four arms at 83, 10⁴ and 10⁵ servers, load 1.2, quantum strategy.
//! 83 servers is the Figure 4 knee: 100 balancers, inside the 67–167
//! servers of the Figure 4 grid, which runs on `compat`.
//!
//! - `aos`: the frozen pre-shard array-of-structs loop
//!   (`aos::run_simulation_aos`) — the seed implementation's shape,
//!   queue-scanning servers with a wait reservoir each.
//! - `compat`: the compatibility path every Figure 4 family experiment
//!   runs (`sim::run_simulation`): the same loop over servers with
//!   per-class FIFO lanes and one run-wide wait reservoir.
//! - `soa_single`: the sharded engine pinned to one shard, one worker —
//!   isolates the data-layout win (SoA lanes, closed-form kernels,
//!   per-pair streams) from parallelism.
//! - `soa_sharded`: the sharded engine at its default shard count,
//!   one worker — adds the epoch/mailbox machinery, not parallelism
//!   (multi-core scaling is unmeasured).
//!
//! Nothing checks a ratio between arms; each reading depends on the
//! host. `soa_single` against `aos` at 10⁵ servers has read from 2.4× to
//! 5.2× on different hosts, and `compat` against `soa_single` at 83
//! servers is what porting the Figure 4 experiments onto the sharded
//! engine would gain. DESIGN.md §5 records both, unchecked. A last pair
//! of arms measures the obs overhead of the hoisted per-run flushes.
//!
//! Run with `make bench-scale`. Every arm takes 10 samples, so the 10⁵
//! AoS point keeps the run to a few minutes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use loadbalance::aos::run_simulation_aos;
use loadbalance::server::Discipline;
use loadbalance::shard::{default_shards, run_scaled, ScaleConfig};
use loadbalance::sim::{run_simulation, SimConfig};
use loadbalance::strategy::Strategy;
use loadbalance::task::{ArrivalModel, BernoulliWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const LOAD: f64 = 1.2;
const STEPS: u64 = 100;

fn sim_config(n_servers: usize) -> SimConfig {
    SimConfig {
        n_balancers: (n_servers as f64 * LOAD).round() as usize,
        n_servers,
        timesteps: STEPS,
        warmup: STEPS / 4,
        discipline: Discipline::PaperPairedC,
    }
}

fn scale_config(n_servers: usize, shards: usize) -> ScaleConfig {
    let mut cfg = ScaleConfig::new(sim_config(n_servers), ArrivalModel::paper());
    cfg.shards = shards;
    cfg.threads = 1;
    cfg
}

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("lb_scale_100_steps");
    group.sample_size(10);

    for n in [83usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("aos", n), &n, |b, &n| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                let mut w = BernoulliWorkload::paper();
                black_box(
                    run_simulation_aos(sim_config(n), Strategy::quantum_ideal(), &mut w, &mut rng)
                        .unwrap(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("compat", n), &n, |b, &n| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                let mut w = BernoulliWorkload::paper();
                black_box(run_simulation(
                    sim_config(n),
                    Strategy::quantum_ideal(),
                    &mut w,
                    &mut rng,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("soa_single", n), &n, |b, &n| {
            let cfg = scale_config(n, 1);
            b.iter(|| black_box(run_scaled(&cfg, Strategy::quantum_ideal(), 1).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("soa_sharded", n), &n, |b, &n| {
            let cfg = scale_config(n, default_shards(n).max(4));
            b.iter(|| black_box(run_scaled(&cfg, Strategy::quantum_ideal(), 1).unwrap()))
        });
    }

    // Obs overhead: the sharded engine with the global obs registry
    // enabled vs disabled. Flushes are per-run, so the gap should be
    // noise; like the ratios above, nothing checks it.
    let cfg = scale_config(100_000, default_shards(100_000));
    group.bench_function("soa_obs_on", |b| {
        obs::set_enabled(true);
        b.iter(|| black_box(run_scaled(&cfg, Strategy::quantum_ideal(), 2).unwrap()));
    });
    group.bench_function("soa_obs_off", |b| {
        obs::set_enabled(false);
        b.iter(|| black_box(run_scaled(&cfg, Strategy::quantum_ideal(), 2).unwrap()));
        obs::set_enabled(true);
    });

    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
