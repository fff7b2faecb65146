//! ECMP routing: demonstrating the paper's NEGATIVE result (§4.2).
//!
//! 3 switches, 2 equal-cost paths, 2 switches active per round (nobody
//! knows which). Can entanglement reduce collisions below classical
//! randomization? The paper proves N-way entanglement reduces to M-way
//! (no-signaling), and conjectures no advantage at all. This example
//! verifies both numerically.
//!
//! Run with: `cargo run --release --example ecmp_probe`

use qnlg::ecmp::model::run_rounds;
use qnlg::ecmp::search::{exhaustive_quantum_search, pigeonhole_lower_bound};
use qnlg::ecmp::strategy::{EntangledStateKind, GlobalEntangled, IidRandom, SharedPermutation};
use qnlg::ecmp::{reduction_deviation, EcmpScenario};
use qnlg::qsim::bell;
use qnlg::qsim::measure::Basis1;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let scenario = EcmpScenario::minimal();
    let rounds = 60_000;

    println!("== Part 1: the no-signaling reduction =======================");
    println!("GHZ(3): does switch C's measurement disturb the A-B joint");
    println!("outcome distribution? (paper: provably NO)\n");
    let state = bell::ghz(3);
    let mut worst: f64 = 0.0;
    for ta in [0.0, 0.6, 1.2] {
        for tb in [0.3, 0.9] {
            for tc in [0.0, 0.7, 1.5] {
                let dev = reduction_deviation(
                    &state,
                    &Basis1::angle(ta),
                    &Basis1::angle(tb),
                    &Basis1::angle(tc),
                )
                .expect("3-qubit state");
                worst = worst.max(dev);
            }
        }
    }
    println!("  max deviation over 18 basis combinations: {worst:.2e}");
    assert!(worst < 1e-10);
    println!("  ✓ invariant to machine precision — global entanglement");
    println!("    reduces to pairwise + shared randomness\n");

    println!("== Part 2: collision probabilities ==========================");
    println!("scenario: N=3 switches, M=2 paths, K=2 active (unknown)\n");

    let mut iid = IidRandom;
    let s1 = run_rounds(scenario, &mut iid, rounds, &mut rng);
    let mut perm = SharedPermutation::new(3, 2, &mut rng);
    let s2 = run_rounds(scenario, &mut perm, rounds, &mut rng);
    let mut ghz_spread = GlobalEntangled::new(EntangledStateKind::Ghz, vec![0.0, 2.094, 4.189]);
    let s3 = run_rounds(scenario, &mut ghz_spread, rounds, &mut rng);

    println!("  {:<24}{:>12}", "strategy", "P(collision)");
    println!("  {:<24}{:>12.4}", "iid-random", s1.collision_probability);
    println!(
        "  {:<24}{:>12.4}",
        "shared-permutation", s2.collision_probability
    );
    println!(
        "  {:<24}{:>12.4}",
        "ghz-entangled (spread)", s3.collision_probability
    );
    println!(
        "  {:<24}{:>12.4}  ← provable floor for ANY strategy",
        "pigeonhole bound",
        pigeonhole_lower_bound(3)
    );

    println!("\n== Part 3: strategy search ==================================");
    let result = exhaustive_quantum_search(60, 4_000, &mut rng);
    println!(
        "  searched {} quantum strategies (GHZ/W × angle grids + random)",
        result.evaluated
    );
    println!("  best quantum found : {:.4}", result.best_quantum);
    println!("  classical optimum  : {:.4}", result.classical);
    assert!(result.best_quantum >= result.classical - 0.02);
    println!("\n✓ no quantum strategy beat classical randomization — the");
    println!("  paper's conjecture holds on every instance searched");
}
