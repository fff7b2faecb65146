//! GPU streaming-multiprocessor (SM) work placement with multi-class
//! affinity.
//!
//! The paper's intro motivates exactly this: "GPUs aim to map requests
//! referencing the same texture or memory region to the same SM to
//! maximize data locality, while distributing unrelated requests across
//! SMs." With more than two request classes, the two-party CHSH game
//! generalizes to an XOR game on an affinity graph (§4.1, "XOR games").
//!
//! Here: five request classes — three texture-draw streams and two
//! kernels. Draws referencing the same texture co-locate; the two kernels
//! must not share an SM, the bandwidth kernel contends with the heaviest
//! draw stream, and the latency-critical kernel contends with stream A.
//! This particular affinity graph is *frustrated*: no classical
//! assignment satisfies it everywhere (classical value 0.76), but the
//! optimal quantum strategy reaches ≈ 0.824. The graph's XOR game is
//! solved once at startup, then two work distributors coordinate
//! placements with zero communication.
//!
//! Part two scales past two front-ends: a whole rack of N GPU servers
//! shares a noisy GHZ state (the closed-form `qsim::ghz` kernel) and
//! coordinates a global SM placement-mode flip through the n-player
//! Mermin parity game — perfectly at unit visibility, and still above
//! every classical scheme down to visibility `2^{1−⌈n/2⌉}`.
//!
//! Run with: `cargo run --release --example gpu_sm_scheduling`

use qnlg::games::multiparty::{
    mermin_classical_bound, mermin_crossover_visibility, play_mermin_batch,
};
use qnlg::games::AffinityGraph;
use qnlg::qnlg_core::CoordinatorBuilder;
use qnlg::qsim::ghz::NoisyGhz;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // Vertices: 0..=2 texture-draw streams A, B, C;
    //           3 = bandwidth-hungry kernel, 4 = latency-critical kernel.
    // Exclusive (keep-apart) edges; everything else co-locates fine.
    let graph = AffinityGraph::from_edges(
        5,
        &[
            (0, 4, true), // stream A thrashes the latency kernel's cache
            (2, 3, true), // stream C and the bandwidth kernel contend
            (3, 4, true), // the two kernels must never share an SM
        ],
    );

    let coordinator = CoordinatorBuilder::new().seed(3).build_affinity(&graph);
    println!("XOR game for the SM-affinity graph (5 request classes):");
    println!("  classical value: {:.4}", coordinator.classical_value);
    println!("  quantum value  : {:.4}", coordinator.quantum_value);
    println!(
        "  quantum advantage: {}\n",
        if coordinator.has_quantum_advantage() {
            "YES"
        } else {
            "no"
        }
    );
    assert!(coordinator.has_quantum_advantage());

    let (front_end_0, front_end_1) = coordinator.endpoints();
    let mut rng = StdRng::seed_from_u64(77);

    // Stream random request pairs through the two front-ends and score
    // placement quality: "correct" = same SM for affine pairs, different
    // SMs for exclusive pairs.
    let rounds = 200_000;
    let mut correct_quantum = 0usize;
    for _ in 0..rounds {
        let x = rng.gen_range(0..5);
        let y = rng.gen_range(0..5);
        let a = front_end_0.decide(x).expect("valid class");
        let b = front_end_1.decide(y).expect("valid class");
        let want_differ = graph.is_exclusive(x, y);
        correct_quantum += usize::from((a != b) == want_differ);
    }
    let q_rate = correct_quantum as f64 / rounds as f64;

    println!("placement quality over {rounds} request pairs:");
    println!("  quantum coordination : {q_rate:.4}");
    println!(
        "  classical ceiling    : {:.4} (exact, by enumeration of all\n                           deterministic strategies)",
        coordinator.classical_value
    );
    assert!(
        q_rate > coordinator.classical_value + 0.01,
        "quantum placements must clearly beat the exact classical ceiling"
    );
    println!("\n✓ SM placements beat the classical ceiling with zero coordination traffic");

    // Part two: a rack of N GPU servers coordinating a global placement
    // decision. Each server sees one local congestion bit (its input);
    // when an even number of servers are congested, the XOR of their
    // one-bit placement decisions must track (congested mod 4)/2 — the
    // Mermin promise, which GHZ-sharing servers satisfy with certainty
    // and classical racks can only hit with probability 1/2 + 2^{−⌈n/2⌉}.
    println!("\nrack-scale: N servers flipping SM placement mode in lockstep");
    println!("  (noisy-GHZ kernel, 100k game rounds per cell)\n");
    println!("  n   visibility  win rate  classical ceiling  crossover v*");
    let rounds = 100_000;
    for n in [3usize, 6, 10] {
        let ceiling = mermin_classical_bound(n);
        let crossover = mermin_crossover_visibility(n);
        for v in [1.0, 0.8, crossover] {
            let kernel = NoisyGhz::new(n, v).expect("valid visibility");
            let batch = play_mermin_batch(&kernel, rounds, &mut rng);
            println!(
                "  {n:<3} {v:<11.4} {:<9.4} {ceiling:<18.4} {crossover:.4}",
                batch.win_rate()
            );
            if v == 1.0 {
                assert_eq!(
                    batch.wins, batch.rounds,
                    "ideal GHZ coordination is perfect"
                );
            }
            if v > crossover + 0.05 {
                assert!(
                    batch.win_rate() > ceiling,
                    "n = {n}, v = {v}: must beat the classical rack"
                );
            }
        }
    }
    println!(
        "\n✓ the advantage window widens with the rack: v*(3) = {:.3} but v*(10) = {:.3}",
        mermin_crossover_visibility(3),
        mermin_crossover_visibility(10)
    );
}
