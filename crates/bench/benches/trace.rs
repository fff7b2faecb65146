//! Trace-overhead bench (DESIGN.md §5): the event timeline's contract is
//! "one relaxed bool load when off", so instrumentation can stay compiled
//! into the hot paths of the data plane year-round.
//!
//! Three measurements:
//!
//! - **gate off vs pure work** — `trace::instant_sim` with the recorder
//!   disabled against the same loop without the call. Any visible gap is
//!   gate overhead leaking into production runs.
//! - **gate on** — the full push path (thread-local ring lookup, slot
//!   write, head bump), the budget for `--trace` runs.
//! - **plane end-to-end** — the batched-plane consumption step traced vs
//!   untraced: the price of `--trace` runs (DESIGN.md §5).
//!
//! Nothing checks a ratio between arms; each reading depends on the
//! host.
//!
//! Run with `make bench-trace`.

use criterion::{criterion_group, criterion_main, Criterion};
use qnet::{
    ConsumePolicy, DistributorConfig, EntanglementDistributor, EprSource, FaultPlan, FiberLink,
    SimTime,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn plane_driver(seed: u64) -> (EntanglementDistributor, SimTime) {
    let cfg = DistributorConfig {
        source: EprSource::new(1e6, 0.95),
        link_a: FiberLink::new(10.0),
        link_b: FiberLink::new(1.0),
        qnic_capacity: 32,
        memory_lifetime: Duration::from_micros(100),
        max_age: Duration::from_micros(160),
        consume_policy: ConsumePolicy::FreshestFirst,
        faults: FaultPlan::none(),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    (EntanglementDistributor::new(cfg, &mut rng), SimTime::ZERO)
}

fn bench_gate(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_gate");
    let track = trace::Track::Source(0);

    trace::set_enabled(false);
    group.bench_function("baseline_no_call", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t = t.wrapping_add(1);
            black_box(t)
        })
    });
    group.bench_function("disabled_instant", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t = t.wrapping_add(1);
            trace::instant_sim(track, "bench.tick", t);
            black_box(t)
        })
    });
    group.bench_function("disabled_pair", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t = t.wrapping_add(1);
            trace::pair(track, trace::PairStage::Emitted, t, t);
            black_box(t)
        })
    });

    trace::reset();
    trace::set_enabled(true);
    group.bench_function("enabled_instant", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t = t.wrapping_add(1);
            trace::instant_sim(track, "bench.tick", t);
            black_box(t)
        })
    });
    trace::set_enabled(false);
    trace::reset();

    group.finish();
}

fn bench_plane_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_plane");
    let step = Duration::from_micros(10);

    trace::set_enabled(false);
    group.bench_function("untraced_step", |b| {
        let (mut dist, mut now) = plane_driver(1);
        b.iter(|| {
            now += step;
            black_box(dist.take_werner(now))
        })
    });

    trace::reset();
    trace::set_enabled(true);
    group.bench_function("traced_step", |b| {
        let (mut dist, mut now) = plane_driver(1);
        b.iter(|| {
            now += step;
            black_box(dist.take_werner(now))
        })
    });
    trace::set_enabled(false);
    trace::reset();

    group.finish();
}

criterion_group!(benches, bench_gate, bench_plane_overhead);
criterion_main!(benches);
