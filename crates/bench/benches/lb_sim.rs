//! Bench: load-balancing simulation throughput (DESIGN.md design-choice
//! #4) — cost of one Figure 4 simulation cell vs N, and the relative cost
//! of the strategies (the quantum fast path should be within ~2× of
//! uniform random, keeping full sweeps tractable).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use loadbalance::server::Discipline;
use loadbalance::sim::{run_simulation, SimConfig};
use loadbalance::strategy::Strategy;
use loadbalance::task::BernoulliWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn config(n: usize) -> SimConfig {
    SimConfig {
        n_balancers: n,
        n_servers: n, // load 1.0
        timesteps: 200,
        warmup: 50,
        discipline: Discipline::PaperPairedC,
    }
}

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("lb_sim_200_steps");
    group.sample_size(20);

    for n in [20usize, 100, 400] {
        group.bench_with_input(BenchmarkId::new("uniform_random", n), &n, |b, &n| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                let mut w = BernoulliWorkload::paper();
                black_box(run_simulation(config(n), Strategy::UniformRandom, &mut w, &mut rng))
            })
        });
        group.bench_with_input(BenchmarkId::new("quantum_fast", n), &n, |b, &n| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| {
                let mut w = BernoulliWorkload::paper();
                black_box(run_simulation(
                    config(n),
                    Strategy::quantum_ideal(),
                    &mut w,
                    &mut rng,
                ))
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
