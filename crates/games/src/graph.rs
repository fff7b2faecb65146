//! Affinity graphs and their XOR games (the Figure 3 experiment).
//!
//! §4.1: "task types are represented as vertices, and their affinity or
//! disaffinity is captured by labeled edges that indicate whether tasks
//! should be colocated." An edge labeled *exclusive* means the two parties
//! should output **different** bits when they receive those vertices as
//! inputs; an *affinity* edge means the same bit.
//!
//! Figure 3 draws random labelings of the complete graph on 5 vertices
//! (each edge exclusive with probability `p`) and asks how often the
//! resulting XOR game has a quantum advantage.

use crate::xor::XorGame;
use qmath::RMatrix;
use rand::Rng;

/// A complete graph on `n` task-type vertices with boolean edge labels:
/// `true` = exclusive (outputs must differ), `false` = affinity (outputs
/// must match). Self-pairs `(v, v)` are always affinity — identical task
/// types want co-location.
#[derive(Debug, Clone)]
pub struct AffinityGraph {
    n: usize,
    /// Upper-triangular storage: label of edge (i, j), i < j.
    exclusive: Vec<bool>,
}

impl AffinityGraph {
    /// Builds a graph from explicit edge labels given as `(i, j, exclusive)`
    /// triples; unspecified edges default to affinity.
    ///
    /// # Panics
    /// Panics on out-of-range or self-loop edges.
    pub fn from_edges(n: usize, edges: &[(usize, usize, bool)]) -> Self {
        let mut g = AffinityGraph {
            n,
            exclusive: vec![false; n * (n - 1) / 2],
        };
        for &(i, j, label) in edges {
            assert!(i < n && j < n && i != j, "bad edge ({i},{j})");
            let idx = g.edge_index(i.min(j), i.max(j));
            g.exclusive[idx] = label;
        }
        g
    }

    /// Draws a random labeling: each of the `n(n−1)/2` edges is exclusive
    /// independently with probability `p_exclusive`.
    ///
    /// # Panics
    /// Panics if `n < 2` or `p_exclusive ∉ [0, 1]`.
    pub fn random<R: Rng + ?Sized>(n: usize, p_exclusive: f64, rng: &mut R) -> Self {
        assert!(n >= 2, "need at least two vertices");
        assert!((0.0..=1.0).contains(&p_exclusive), "bad probability");
        let exclusive = (0..n * (n - 1) / 2)
            .map(|_| rng.gen::<f64>() < p_exclusive)
            .collect();
        AffinityGraph { n, exclusive }
    }

    /// Number of vertices (task types).
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    fn edge_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j);
        // Row-major upper triangle.
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Whether the pair `(i, j)` is exclusive (outputs should differ).
    /// Self-pairs are affinity.
    pub fn is_exclusive(&self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        self.exclusive[self.edge_index(i.min(j), i.max(j))]
    }

    /// Number of exclusive edges.
    pub fn n_exclusive(&self) -> usize {
        self.exclusive.iter().filter(|&&e| e).count()
    }

    /// Converts the graph to an XOR game.
    ///
    /// Inputs to both players are vertices. The input distribution is
    /// uniform over ordered pairs — including the diagonal if
    /// `include_diagonal` (two load balancers can receive the same task
    /// type; those should co-locate). The target parity is the edge label.
    pub fn to_xor_game(&self, include_diagonal: bool) -> XorGame {
        let n = self.n;
        let n_pairs = if include_diagonal { n * n } else { n * n - n };
        let p = 1.0 / n_pairs as f64;
        let prob = RMatrix::from_fn(
            n,
            n,
            |x, y| {
                if !include_diagonal && x == y {
                    0.0
                } else {
                    p
                }
            },
        );
        let target = (0..n)
            .map(|x| (0..n).map(|y| self.is_exclusive(x, y)).collect())
            .collect();
        XorGame::new(prob, target)
    }
}

/// Draws `samples` random graph labelings and returns their XOR games.
///
/// All graphs are drawn up front (consuming `rng` for the graph draws
/// only), so the solver — whose restart RNG is derived from each game's
/// canonical form by [`crate::cache`] — never perturbs the graph stream.
pub fn sample_games<R: Rng + ?Sized>(
    n_vertices: usize,
    p_exclusive: f64,
    samples: usize,
    rng: &mut R,
) -> Vec<XorGame> {
    (0..samples)
        .map(|_| AffinityGraph::random(n_vertices, p_exclusive, rng).to_xor_game(true))
        .collect()
}

/// Counts the quantum-advantaged games in a batch (quantum value
/// exceeding classical by > `tol`), solving through the canonicalizing
/// value cache.
///
/// # Panics
/// Panics if a game exceeds the classical enumeration limit — graph
/// games are capped at [`crate::xor::ENUM_LIMIT`] vertices by
/// construction, so this is unreachable for callers of [`sample_games`].
pub fn advantage_count_of(games: &[XorGame], tol: f64) -> usize {
    games
        .iter()
        .map(|g| {
            crate::cache::solve_values(g).expect("graph games stay below the enumeration limit")
        })
        .filter(|v| v.has_advantage(tol))
        .count()
}

/// One data point of the Figure 3 sweep: draws `samples` random graphs at
/// the given edge-exclusivity probability and counts those with a quantum
/// advantage (quantum value exceeding classical by > `tol`).
pub fn advantage_count<R: Rng + ?Sized>(
    n_vertices: usize,
    p_exclusive: f64,
    samples: usize,
    tol: f64,
    rng: &mut R,
) -> usize {
    advantage_count_of(&sample_games(n_vertices, p_exclusive, samples, rng), tol)
}

/// [`advantage_count`] as a fraction.
pub fn advantage_probability<R: Rng + ?Sized>(
    n_vertices: usize,
    p_exclusive: f64,
    samples: usize,
    tol: f64,
    rng: &mut R,
) -> f64 {
    advantage_count(n_vertices, p_exclusive, samples, tol, rng) as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn edge_index_roundtrip() {
        let g = AffinityGraph::from_edges(5, &[(0, 1, true), (2, 4, true), (1, 3, false)]);
        assert!(g.is_exclusive(0, 1));
        assert!(g.is_exclusive(1, 0), "labels are symmetric");
        assert!(g.is_exclusive(2, 4));
        assert!(!g.is_exclusive(1, 3));
        assert!(!g.is_exclusive(3, 3), "diagonal is affinity");
        assert_eq!(g.n_exclusive(), 2);
    }

    #[test]
    fn all_affinity_graph_has_no_advantage() {
        // Everything co-locates: trivially winnable classically.
        let g = AffinityGraph::from_edges(4, &[]);
        let game = g.to_xor_game(true);
        assert!((game.classical_value().unwrap() - 1.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!game.has_quantum_advantage(1e-4, &mut rng).unwrap());
    }

    #[test]
    fn all_exclusive_pair_graph_no_advantage() {
        // Two vertices, one exclusive edge: winnable classically
        // (a = x, b = ¬y ... actually a=0 for both x, b = y works: f(x,y)
        // = [x≠y] needs a⊕b = x⊕y, satisfiable by a = x, b = y).
        let g = AffinityGraph::from_edges(2, &[(0, 1, true)]);
        let game = g.to_xor_game(true);
        assert!((game.classical_value().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_graph_respects_probability() {
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 400;
        let mut total_excl = 0usize;
        for _ in 0..trials {
            let g = AffinityGraph::random(5, 0.3, &mut rng);
            total_excl += g.n_exclusive();
        }
        let f = total_excl as f64 / (trials * 10) as f64;
        assert!((f - 0.3).abs() < 0.05, "edge rate {f}");
    }

    #[test]
    fn frustrated_triangle_has_quantum_advantage() {
        // Odd frustration: a triangle with exactly one exclusive edge
        // cannot be 2-colored consistently with the diagonal constraint.
        // This is the canonical advantage-bearing instance.
        let g = AffinityGraph::from_edges(3, &[(0, 1, true)]);
        let game = g.to_xor_game(true);
        let c = game.classical_value().unwrap();
        assert!(c < 1.0 - 1e-9, "classical cannot satisfy all constraints");
        let mut rng = StdRng::seed_from_u64(3);
        let q = game.quantum_value(&mut rng);
        assert!(q > c + 1e-4, "quantum {q} vs classical {c}");
    }

    #[test]
    fn xor_game_distribution_sums_to_one() {
        for diag in [true, false] {
            let g = AffinityGraph::from_edges(4, &[(0, 1, true)]);
            let game = g.to_xor_game(diag);
            let m = game.bias_matrix();
            let total: f64 = (0..4)
                .flat_map(|x| (0..4).map(move |y| (x, y)))
                .map(|(x, y)| m[(x, y)].abs())
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "diag={diag}: {total}");
        }
    }

    #[test]
    fn advantage_probability_extremes() {
        let mut rng = StdRng::seed_from_u64(4);
        // p = 0: all-affinity graphs, never an advantage.
        let p0 = advantage_probability(4, 0.0, 10, 1e-4, &mut rng);
        assert_eq!(p0, 0.0);
    }

    #[test]
    fn advantage_probability_midrange_positive() {
        // Paper Fig. 3: "most graphs with randomly labeled edges exhibit a
        // quantum advantage" at moderate p for 5 vertices.
        let mut rng = StdRng::seed_from_u64(5);
        let p = advantage_probability(5, 0.5, 20, 1e-4, &mut rng);
        assert!(p > 0.5, "advantage probability {p} too low at p_excl=0.5");
    }
}
