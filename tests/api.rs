//! Public-API integration tests: the library as a downstream user would
//! hold it — concurrent endpoints, graph-driven coordinators, error
//! surfaces.

use qnlg::games::AffinityGraph;
use qnlg::qnlg_core::{CoordinatorBuilder, CoreError, TaskClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::thread;

#[test]
fn endpoints_work_across_threads() {
    // Each endpoint lives on its own thread — the deployment shape (one
    // load balancer per machine). Decisions happen concurrently.
    let pair = CoordinatorBuilder::new().seed(9).build_colocation();
    let (alice, bob) = pair.endpoints();
    // Stay below MAX_ROUND_AHEAD so a fast thread can fully outrun a slow
    // one without tripping the overrun guard.
    let rounds = 3_000;

    let handle_a = thread::spawn(move || {
        (0..rounds)
            .map(|_| alice.decide(TaskClass::Colocate))
            .collect::<Vec<bool>>()
    });
    let handle_b = thread::spawn(move || {
        (0..rounds)
            .map(|_| bob.decide(TaskClass::Colocate))
            .collect::<Vec<bool>>()
    });
    let a = handle_a.join().expect("alice thread");
    let b = handle_b.join().expect("bob thread");

    let agree = a.iter().zip(&b).filter(|(x, y)| x == y).count();
    let f = agree as f64 / rounds as f64;
    let expect = qnlg::games::chsh_quantum_value();
    assert!(
        (f - expect).abs() < 0.03,
        "cross-thread CC agreement {f} vs {expect}"
    );
}

#[test]
fn coordinator_is_deterministic_given_seed() {
    let run = || {
        let pair = CoordinatorBuilder::new().seed(1234).build_colocation();
        let (a, b) = pair.endpoints();
        (0..200)
            .map(|i| {
                let class = if i % 3 == 0 {
                    TaskClass::Colocate
                } else {
                    TaskClass::Exclusive
                };
                (a.decide(class), b.decide(class))
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn affinity_coordinator_on_random_graphs() {
    // Build coordinators for assorted random graphs; whenever the solver
    // reports an advantage, the empirical win rate must beat classical.
    let mut rng = StdRng::seed_from_u64(21);
    let mut advantaged = 0;
    for trial in 0..4 {
        let graph = AffinityGraph::random(4, 0.4, &mut rng);
        let coord = CoordinatorBuilder::new().seed(trial).build_affinity(&graph);
        let (a, b) = coord.endpoints();
        let rounds = 20_000;
        let mut wins = 0usize;
        for _ in 0..rounds {
            let x = rng.gen_range(0..4);
            let y = rng.gen_range(0..4);
            let da = a.decide(x).expect("in range");
            let db = b.decide(y).expect("in range");
            wins += usize::from((da != db) == graph.is_exclusive(x, y));
        }
        let f = wins as f64 / rounds as f64;
        assert!(
            (f - coord.quantum_value).abs() < 0.02,
            "trial {trial}: rate {f} vs solved {}",
            coord.quantum_value
        );
        if coord.has_quantum_advantage() {
            advantaged += 1;
            assert!(f > coord.classical_value, "trial {trial}");
        }
    }
    let _ = advantaged; // advantage presence depends on the draw; rate check above is the contract
}

#[test]
fn error_paths_are_reported() {
    let graph = AffinityGraph::from_edges(3, &[(0, 1, true)]);
    let coord = CoordinatorBuilder::new().build_affinity(&graph);
    let (a, _b) = coord.endpoints();
    assert!(matches!(
        a.decide(7),
        Err(CoreError::UnknownTaskClass {
            vertex: 7,
            n_classes: 3
        })
    ));
}

#[test]
fn umbrella_reexports_compose() {
    // Spot-check that the umbrella crate exposes each layer.
    let _ = qnlg::qsim::bell::phi_plus();
    let _ = qnlg::games::XorGame::chsh();
    let _ = qnlg::qnet::EprSource::typical_room_temperature();
    let _ = qnlg::ecmp::pigeonhole_lower_bound(4);
    let _ = qnlg::qmath::C64::I;
    assert!(!qnlg::VERSION.is_empty());
}
