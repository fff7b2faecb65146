//! Ablation bench: XOR-game value pipeline.
//!
//! DESIGN.md design-choice #1 (alternating half-steps vs projected
//! gradient) plus the §5 solver-pipeline ablation: naive vs Gray-code
//! classical enumeration, the warm-started solver with eight starts vs
//! one, and the end-to-end fig3-quick workload through the fast stack
//! with and without the value cache. Accuracy agreement is tested in
//! `games::xor`; this file measures only speed.

use criterion::{criterion_group, criterion_main, Criterion};
use games::cache::ValueCache;
use games::graph::sample_games;
use games::{AffinityGraph, SolverOpts, XorGame};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn random_5v_game(seed: u64) -> XorGame {
    let mut rng = StdRng::seed_from_u64(seed);
    AffinityGraph::random(5, 0.5, &mut rng).to_xor_game(true)
}

/// The fig3 quick workload: 11 sweep points × 40 graphs on 5 vertices,
/// drawn exactly like `experiments::fig3::run(quick = true)` does.
fn fig3_quick_games() -> Vec<XorGame> {
    let mut games = Vec::with_capacity(11 * 40);
    for i in 0..11u64 {
        let p = i as f64 / 10.0;
        let mut rng = StdRng::seed_from_u64(runtime::stream_seed(10, i));
        games.extend(sample_games(5, p, 40, &mut rng));
    }
    games
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("xor_quantum_value");

    group.bench_function("alternating_chsh", |b| {
        let game = XorGame::chsh();
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(game.quantum_solution(8, &mut rng).value))
    });

    group.bench_function("pgd_chsh", |b| {
        let game = XorGame::chsh();
        b.iter(|| black_box(game.quantum_bias_pgd(300)))
    });

    group.bench_function("alternating_5v_graph", |b| {
        let game = random_5v_game(7);
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(game.quantum_solution(8, &mut rng).value))
    });

    group.bench_function("pgd_5v_graph", |b| {
        let game = random_5v_game(7);
        b.iter(|| black_box(game.quantum_bias_pgd(300)))
    });

    group.finish();
}

/// Classical enumeration: naive full-rescan oracle vs Gray-code walk,
/// on the 5-vertex fig3 shape and on a larger 10-input game where the
/// asymptotic gap (O(n_a·n_b) vs O(n_b) per pattern) shows clearly.
fn bench_classical(c: &mut Criterion) {
    let mut group = c.benchmark_group("xor_classical_bias");

    group.bench_function("naive_5v", |b| {
        let game = random_5v_game(7);
        b.iter(|| black_box(game.classical_bias_naive().unwrap()))
    });

    group.bench_function("gray_5v", |b| {
        let game = random_5v_game(7);
        b.iter(|| black_box(game.classical_bias().unwrap()))
    });

    let big = {
        let mut rng = StdRng::seed_from_u64(9);
        AffinityGraph::random(10, 0.5, &mut rng).to_xor_game(true)
    };
    group.bench_function("naive_10v", |b| {
        b.iter(|| black_box(big.classical_bias_naive().unwrap()))
    });
    group.bench_function("gray_10v", |b| {
        b.iter(|| black_box(big.classical_bias().unwrap()))
    });

    group.finish();
}

/// Solver-option ablation on a single 5-vertex game: the default eight
/// starts vs the spectral warm start alone.
fn bench_solver_opts(c: &mut Criterion) {
    let mut group = c.benchmark_group("xor_solver_opts");
    let game = random_5v_game(7);

    group.bench_function("converge_warm", |b| {
        let opts = SolverOpts::default();
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(game.quantum_solution_with(&opts, &mut rng).value))
    });

    group.bench_function("converge_warm_single_start", |b| {
        let opts = SolverOpts {
            restarts: 1,
            ..SolverOpts::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(game.quantum_solution_with(&opts, &mut rng).value))
    });

    group.finish();
}

/// End-to-end fig3 quick workload (440 games, 1 worker): the fast stack
/// (Gray + warm start + convergence exit) through a fresh cache per pass
/// vs uncached.
fn bench_fig3_stack(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_quick_stack");
    group.sample_size(10);
    let games = fig3_quick_games();
    const TOL: f64 = 1e-4;

    group.bench_function("fast_stack_cached", |b| {
        b.iter(|| {
            // A fresh private cache per pass: the measured win includes
            // canonicalization cost and first-solve misses, exactly like
            // one cold fig3 run.
            let cache = ValueCache::new();
            let mut advantaged = 0usize;
            for game in &games {
                let v = cache.solve(game).unwrap();
                advantaged += usize::from(v.has_advantage(TOL));
            }
            black_box(advantaged)
        })
    });

    group.bench_function("fast_stack_uncached", |b| {
        let opts = SolverOpts::default();
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| {
            let mut advantaged = 0usize;
            for game in &games {
                let cl = game.classical_bias().unwrap();
                let q = game.quantum_solution_with(&opts, &mut rng).bias;
                advantaged += usize::from((1.0 + q) / 2.0 > (1.0 + cl) / 2.0 + TOL);
            }
            black_box(advantaged)
        })
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_solvers,
    bench_classical,
    bench_solver_opts,
    bench_fig3_stack
);
criterion_main!(benches);
