//! Quickstart: coordination without communication.
//!
//! Two load balancers, far apart, each receive a request and must decide —
//! immediately, without talking to each other — which of two servers to
//! use. Requests that co-locate well (type-C) should land together;
//! requests that want isolation (type-E) should land apart.
//!
//! Run with: `cargo run --example quickstart`

use qnlg::qnlg_core::{CoordinatorBuilder, TaskClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(2025);

    // The entanglement source distributes correlated decision capability
    // ahead of time (paper Fig. 1). One endpoint per balancer.
    let coordinator = CoordinatorBuilder::new().seed(7).build_colocation();
    let (alice, bob) = coordinator.endpoints();

    println!("Playing 100,000 coordination rounds (quantum, CHSH-optimal)…\n");

    let rounds = 100_000;
    let mut correct = 0usize;
    let mut per_case = [[0usize; 2]; 4]; // [case][correct?]

    for _ in 0..rounds {
        // Inputs arrive independently at each balancer.
        let task_a = if rng.gen() {
            TaskClass::Colocate
        } else {
            TaskClass::Exclusive
        };
        let task_b = if rng.gen() {
            TaskClass::Colocate
        } else {
            TaskClass::Exclusive
        };

        // Each endpoint decides LOCALLY — zero network latency, no
        // knowledge of the peer's input.
        let a = alice.decide(task_a);
        let b = bob.decide(task_b);

        // Goal: same decision iff both tasks are type-C.
        let want_same = task_a == TaskClass::Colocate && task_b == TaskClass::Colocate;
        let ok = (a == b) == want_same;
        correct += usize::from(ok);
        let case =
            (task_a == TaskClass::Colocate) as usize * 2 + (task_b == TaskClass::Colocate) as usize;
        per_case[case][usize::from(ok)] += 1;
    }

    let rate = correct as f64 / rounds as f64;
    println!("  overall success rate: {rate:.4}");
    println!(
        "  quantum optimum     : {:.4}  (cos²(π/8))",
        qnlg::games::chsh_quantum_value()
    );
    println!(
        "  classical optimum   : {:.4}  (provable ceiling without communication)\n",
        0.75
    );

    let labels = ["E,E", "E,C", "C,E", "C,C"];
    println!("  per-case success (goal: C,C → same server; otherwise different):");
    for (i, label) in labels.iter().enumerate() {
        let total = per_case[i][0] + per_case[i][1];
        if total > 0 {
            println!("    {label}: {:.4}", per_case[i][1] as f64 / total as f64);
        }
    }

    assert!(
        rate > 0.8,
        "quantum coordination should beat the classical 0.75"
    );
    println!("\n✓ beat the classical ceiling without exchanging a single message");
}
