//! Ablation bench for the entanglement data plane's measurement path
//! (DESIGN.md §5): the closed-form `WernerPair::sample` kernel (one RNG
//! draw against a 4-entry CDF) vs the density-matrix oracle
//! (`take_pair` → Kraus decay → rotate-measure-rotate per half).
//!
//! Run with `make bench-plane`.

use criterion::{criterion_group, criterion_main, Criterion};
use games::chsh::{alice_angle, bob_angle};
use qnet::{
    ConsumePolicy, DistributorConfig, EntanglementDistributor, EprSource, FaultPlan, FiberLink,
    SimTime,
};
use qsim::Party;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn plane_config() -> DistributorConfig {
    DistributorConfig {
        source: EprSource::new(1e6, 0.95),
        link_a: FiberLink::new(10.0),
        link_b: FiberLink::new(1.0),
        qnic_capacity: 32,
        memory_lifetime: Duration::from_micros(100),
        max_age: Duration::from_micros(160),
        consume_policy: ConsumePolicy::FreshestFirst,
        faults: FaultPlan::none(),
    }
}

/// One consumption round: advance 10 µs of plane time and take a pair.
/// `step_kernel` takes the closed-form path, `step_oracle` the exact one.
struct PlaneDriver {
    dist: EntanglementDistributor,
    now: SimTime,
    rng: StdRng,
}

impl PlaneDriver {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = EntanglementDistributor::new(plane_config(), &mut rng);
        PlaneDriver {
            dist,
            now: SimTime::ZERO,
            rng,
        }
    }

    fn step_kernel(&mut self) -> (u8, u8) {
        self.now += Duration::from_micros(10);
        match self.dist.take_werner(self.now) {
            Some(pair) => pair.sample(alice_angle(1), bob_angle(0), &mut self.rng),
            None => (0, 0),
        }
    }

    fn step_oracle(&mut self) -> (u8, u8) {
        self.now += Duration::from_micros(10);
        match self.dist.take_pair(self.now) {
            Some(mut pair) => {
                let a = pair
                    .measure_angle(Party::A, alice_angle(1), &mut self.rng)
                    .expect("fresh pair");
                let b = pair
                    .measure_angle(Party::B, bob_angle(0), &mut self.rng)
                    .expect("fresh pair");
                (a, b)
            }
            None => (0, 0),
        }
    }
}

fn bench_measurement_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("plane_measurement");

    group.bench_function("werner_kernel", |b| {
        let mut d = PlaneDriver::new(1);
        b.iter(|| black_box(d.step_kernel()))
    });

    group.bench_function("exact_oracle", |b| {
        let mut d = PlaneDriver::new(2);
        b.iter(|| black_box(d.step_oracle()))
    });

    group.finish();
}

criterion_group!(benches, bench_measurement_path);
criterion_main!(benches);
