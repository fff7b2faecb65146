//! Serverless-function load balancing (the paper's Figure 4 scenario).
//!
//! 100 load balancers forward serverless-function invocations to backend
//! workers every timestep. Warm-start invocations (type-C) run two-at-a-
//! time on a worker that already has the runtime image; cold/exclusive
//! invocations (type-E) need a worker to themselves. Compare queue growth
//! under classical and quantum-assisted balancing as load rises.
//!
//! Run with: `cargo run --release --example serverless_colocation`

use qnlg::loadbalance::task::BernoulliWorkload;
use qnlg::loadbalance::{run_simulation, SimConfig, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let loads = [0.8, 1.0, 1.1, 1.2, 1.3, 1.4];
    let strategies = [
        ("uniform-random   ", Strategy::UniformRandom),
        ("round-robin      ", Strategy::RoundRobin),
        ("paired-split     ", Strategy::PairedAlwaysSplit),
        ("paired-quantum   ", Strategy::quantum_ideal()),
    ];

    println!("Average queue length per worker vs load (N = 100 balancers)\n");
    print!("{:<18}", "strategy \\ N/M");
    for load in loads {
        print!("{load:>9.2}");
    }
    println!();

    let mut rows: Vec<(&str, Vec<f64>)> = Vec::new();
    for (label, strategy) in strategies {
        let mut row = Vec::new();
        for &load in &loads {
            let config = SimConfig::paper(load);
            let mut workload = BernoulliWorkload::paper();
            let result = run_simulation(config, strategy, &mut workload, &mut rng);
            row.push(result.avg_queue_len);
        }
        rows.push((label, row));
    }
    for (label, row) in &rows {
        print!("{label:<18}");
        for v in row {
            print!("{v:>9.3}");
        }
        println!();
    }

    // The headline: at loads past the classical knee, quantum queues are
    // strictly shorter.
    let classical = &rows[0].1;
    let quantum = &rows[3].1;
    let idx = loads.iter().position(|&l| l == 1.2).expect("load in sweep");
    println!(
        "\nAt N/M = 1.2: classical queue {:.2}, quantum queue {:.2} ({:.0}% shorter)",
        classical[idx],
        quantum[idx],
        100.0 * (1.0 - quantum[idx] / classical[idx])
    );
    assert!(quantum[idx] < classical[idx]);
}
