//! Cache-transparency guarantee: a memo hit returns the bits a cold
//! solve computes, so fig3 reports are identical whether the value cache
//! starts cold or warm.
//!
//! This lives in its own integration-test binary (its own process) so
//! clearing the process-global cache, and counting its hits in the
//! process-global obs registry, cannot race other tests.

use games::cache::ValueCache;
use games::graph::sample_games;
use games::XorGame;
use qnlg_bench::report::canonical_json;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// fig3's quick game list: 11 exclusivity points × 40 five-vertex games,
/// each point drawn from the stream `fig3::advantage_counts` seeds.
fn fig3_quick_games() -> Vec<XorGame> {
    (0..=10u64)
        .flat_map(|i| {
            let mut rng = StdRng::seed_from_u64(qnlg_bench::point_seed(10, i, 0));
            sample_games(5, i as f64 / 10.0, 40, &mut rng)
        })
        .collect()
}

#[test]
fn memo_hits_return_the_bits_a_cold_solve_computes() {
    let games = fig3_quick_games();
    let shared = ValueCache::new();
    for (i, game) in games.iter().enumerate() {
        let memo = shared.solve(game).unwrap();
        // A fresh cache can never hit: this is the cold computation.
        let cold = ValueCache::new().solve(game).unwrap();
        assert_eq!(
            memo.classical_bias.to_bits(),
            cold.classical_bias.to_bits(),
            "game {i}: classical bias"
        );
        assert_eq!(
            memo.quantum_bias.to_bits(),
            cold.quantum_bias.to_bits(),
            "game {i}: quantum bias"
        );
    }
    assert!(
        shared.len() < games.len(),
        "{} orbits for {} games: the shared cache never hit",
        shared.len(),
        games.len()
    );
}

#[test]
fn fig3_quick_is_identical_on_a_cold_and_a_warm_cache() {
    games::cache::global().clear();
    obs::reset();
    obs::set_enabled(true);
    let cold = qnlg_bench::experiments::fig3::run_with_threads(2, true);
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert!(
        !games::cache::global().is_empty(),
        "the run must populate the global cache"
    );
    // fig3's games repeat orbits, so even a cold cache must hit: zero
    // hits means the lookup was wired out of the solve path.
    let hits = snap.counter("games.xor.cache.hits").unwrap_or(0);
    assert!(hits > 0, "expected games.xor.cache.hits > 0, got {hits}");
    let warm = qnlg_bench::experiments::fig3::run_with_threads(2, true);

    assert_eq!(
        format!("{cold}"),
        format!("{warm}"),
        "a warm cache changed the text report"
    );
    assert_eq!(
        canonical_json(&cold),
        canonical_json(&warm),
        "a warm cache changed the JSON artifact"
    );
}
