//! Property-based invariants of the games layer.

use games::{AffinityGraph, CorrelationBox, XorGame};
use proptest::prelude::*;
use qmath::RMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a random XOR game from proptest-supplied raw weights/targets.
fn build_game(weights: &[f64], targets: &[bool], n: usize) -> XorGame {
    let total: f64 = weights.iter().sum();
    let prob = RMatrix::from_fn(n, n, |x, y| weights[x * n + y] / total);
    let target = (0..n)
        .map(|x| (0..n).map(|y| targets[x * n + y]).collect())
        .collect();
    XorGame::new(prob, target)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Quantum value ≥ classical value for arbitrary games (vectors can
    /// always embed a deterministic sign strategy).
    #[test]
    fn quantum_dominates_classical(
        weights in proptest::collection::vec(0.01f64..1.0, 9),
        targets in proptest::collection::vec(any::<bool>(), 9),
        seed in 0u64..512)
    {
        let game = build_game(&weights, &targets, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let q = game.quantum_solution(6, &mut rng).value;
        let c = game.classical_value().unwrap();
        prop_assert!(q >= c - 1e-6, "quantum {} < classical {}", q, c);
    }

    /// Game values always lie in [1/2, 1]: random answers win half the
    /// weight of any XOR condition, and nothing exceeds certainty.
    #[test]
    fn values_are_bounded(
        weights in proptest::collection::vec(0.01f64..1.0, 9),
        targets in proptest::collection::vec(any::<bool>(), 9),
        seed in 0u64..512)
    {
        let game = build_game(&weights, &targets, 3);
        let c = game.classical_value().unwrap();
        prop_assert!((0.5..=1.0 + 1e-9).contains(&c), "classical {}", c);
        let mut rng = StdRng::seed_from_u64(seed);
        let q = game.quantum_value(&mut rng);
        prop_assert!(q <= 1.0 + 1e-6, "quantum {}", q);
    }

    /// Correlation boxes built from solver output always satisfy
    /// normalization and no-signaling structure.
    #[test]
    fn solver_boxes_are_proper_distributions(
        weights in proptest::collection::vec(0.01f64..1.0, 4),
        targets in proptest::collection::vec(any::<bool>(), 4),
        seed in 0u64..512)
    {
        let game = build_game(&weights, &targets, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let sol = game.quantum_solution(6, &mut rng);
        let boxx = CorrelationBox::new(sol.correlation_matrix());
        for x in 0..2 {
            for y in 0..2 {
                let mut total = 0.0;
                for a in [false, true] {
                    for b in [false, true] {
                        let p = boxx.probability(x, y, a, b);
                        prop_assert!((0.0..=1.0).contains(&p));
                        total += p;
                    }
                }
                prop_assert!((total - 1.0).abs() < 1e-9);
                // Uniform marginals by construction.
                let pa1 = boxx.probability(x, y, true, false)
                    + boxx.probability(x, y, true, true);
                prop_assert!((pa1 - 0.5).abs() < 1e-9);
            }
        }
        prop_assert!(boxx.satisfies_tsirelson());
    }

    /// Random affinity graphs: the game value equals 1 exactly when the
    /// labeling is classically satisfiable, and the quantum value then
    /// offers no advantage.
    #[test]
    fn satisfiable_graphs_have_no_advantage(seed in 0u64..256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = AffinityGraph::random(4, 0.3, &mut rng);
        let game = g.to_xor_game(true);
        let c = game.classical_value().unwrap();
        if (c - 1.0).abs() < 1e-12 {
            prop_assert!(!game.has_quantum_advantage(1e-4, &mut rng).unwrap());
        }
    }

    /// Gray-code classical enumeration agrees with the naive
    /// full-rescan oracle on random games up to n = 12 inputs per side.
    /// (Incremental column-sum updates accumulate rounding over 2^n
    /// steps; 1e-9 absolute leaves ~4 orders of magnitude of headroom.)
    #[test]
    fn gray_code_matches_naive_oracle(
        n in 2usize..13,
        seed in 0u64..1024)
    {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let mut weights = vec![0.0; n * n];
        for w in weights.iter_mut() {
            *w = rng.gen::<f64>() + 0.01;
        }
        let targets: Vec<bool> = (0..n * n).map(|_| rng.gen()).collect();
        let game = build_game(&weights, &targets, n);
        let gray = game.classical_bias().unwrap();
        let naive = game.classical_bias_naive().unwrap();
        prop_assert!(
            (gray - naive).abs() < 1e-9,
            "n = {}: gray {} vs naive {}", n, gray, naive
        );
    }

    /// Canonical cache keys are invariant under vertex relabelings of
    /// the same affinity graph (the cache's hit-rate guarantee for the
    /// Figure 3 sweeps).
    #[test]
    fn canonical_key_relabeling_invariance(
        n in 3usize..8,
        seed in 0u64..1024)
    {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = AffinityGraph::random(n, 0.5, &mut rng);
        // Fisher-Yates permutation of the vertices.
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..i + 1);
            perm.swap(i, j);
        }
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((perm[i], perm[j], g.is_exclusive(i, j)));
            }
        }
        let relabeled = AffinityGraph::from_edges(n, &edges);
        prop_assert_eq!(
            games::cache::canonical_key(&g.to_xor_game(true)),
            games::cache::canonical_key(&relabeled.to_xor_game(true))
        );
    }

    /// The empirical win rate of the solved strategy matches the solved
    /// value (referee-level self-consistency).
    #[test]
    fn solution_value_is_achievable(seed in 0u64..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = AffinityGraph::random(3, 0.5, &mut rng);
        let game = g.to_xor_game(true);
        let sol = game.quantum_solution(8, &mut rng);
        let boxx = CorrelationBox::new(sol.correlation_matrix());
        let rounds = 30_000;
        let mut wins = 0usize;
        for _ in 0..rounds {
            let (x, y) = game.sample_inputs(&mut rng);
            let (a, b) = boxx.sample(x, y, &mut rng);
            wins += usize::from(game.wins(x, y, a, b));
        }
        let rate = wins as f64 / rounds as f64;
        prop_assert!(
            (rate - sol.value).abs() < 0.02,
            "empirical {} vs solved {}", rate, sol.value
        );
    }
}
