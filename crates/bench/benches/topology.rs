//! Ablation bench: one end-to-end chain evaluation, closed form vs
//! hop-by-hop density-matrix oracle, plus a routed contention epoch.
//!
//! DESIGN.md §5: `qnet::topology` reduces an h-hop repeater chain to the
//! closed forms `v = ∏ v_hop · ideality^(h−1)` and
//! `p = ∏ survival · success^(h−1)` — O(h) multiplies — where the
//! oracle literally builds every elementary Werner pair and fuses them
//! with `entanglement_swap` (O(h) 4×4/16×16 matrix algebra). Nothing
//! checks a ratio between arms; each reading depends on the host. The
//! closed form read ~12 000× faster than the oracle at h = 4 on one host,
//! growing with depth (DESIGN.md §5). The `route_epoch` group tracks the
//! full routing + scheduling + sampling path the E10 star sweep sits on.

use criterion::{criterion_group, criterion_main, Criterion};
use qnet::{route_epoch, star, ChainSpec, PairDemand, Policy, SwapModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_chain_visibility(c: &mut Criterion) {
    let swap = SwapModel::new(0.9, 0.97).expect("valid model");
    for hops in [4usize, 8] {
        let mut group = c.benchmark_group(format!("chain_visibility_h{hops}"));
        let spec = ChainSpec::uniform(hops, 0.98, 0.9, swap).expect("valid chain");

        group.bench_function("closed_form", |b| {
            b.iter(|| black_box(black_box(&spec).end_to_end_visibility()))
        });

        group.bench_function("density_matrix_oracle", |b| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| black_box(spec.oracle_visibility(&mut rng).expect("valid spec")))
        });

        group.finish();
    }
}

fn bench_route_epoch(c: &mut Criterion) {
    let swap = SwapModel::new(0.9, 0.97).expect("valid model");
    let mut group = c.benchmark_group("route_epoch_star8");
    let (g, pairs) = star(8, 5.0, 0.98, swap, 4_000).expect("valid star");
    let demands: Vec<PairDemand> = pairs
        .iter()
        .map(|&(from, to)| PairDemand {
            from,
            to,
            demand: 4_000,
        })
        .collect();
    group.bench_function("round_robin", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let mut epoch = 0u64;
        b.iter(|| {
            epoch += 1;
            black_box(route_epoch(
                &g,
                &demands,
                &[],
                Policy::RoundRobin,
                epoch,
                &mut rng,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_chain_visibility, bench_route_epoch);
criterion_main!(benches);
