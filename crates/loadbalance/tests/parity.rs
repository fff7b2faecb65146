//! Parity line between the production compatibility path
//! (`sim::run_simulation`) and the frozen pre-shard AoS loop
//! (`aos::run_simulation_aos`).
//!
//! `run_simulation` stayed API-compatible through the SoA refactor, but
//! its internals changed (bounded wait reservoir, hoisted obs flushes).
//! These tests hold the determinism contract: for any `(config,
//! strategy, workload, seed)` the production path must produce a
//! `SimResult` equal field-for-field to the frozen loop — same RNG
//! consumption order, same reservoir survivors, same percentiles, same
//! windowed series.

use loadbalance::aos::run_simulation_aos;
use loadbalance::metrics::WAIT_RESERVOIR_CAP;
use loadbalance::task::{BernoulliWorkload, BurstyWorkload};
use loadbalance::{run_simulation, Discipline, SimConfig, Strategy, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// NaN-tolerant equality: `SimResult` holds NaN rates for unpaired
/// strategies, and NaN != NaN under `PartialEq`.
fn assert_same(a: &loadbalance::SimResult, b: &loadbalance::SimResult, label: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "parity broken: {label}");
}

fn strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("uniform", Strategy::UniformRandom),
        ("round-robin", Strategy::RoundRobin),
        ("p2c", Strategy::PowerOfTwoChoices),
        ("always-split", Strategy::PairedAlwaysSplit),
        ("match-types", Strategy::PairedMatchTypes),
        ("quantum-fast", Strategy::quantum_ideal()),
        (
            "quantum-noisy",
            Strategy::PairedQuantum {
                availability: 0.9,
                visibility: 0.95,
            },
        ),
        (
            "dedicated",
            Strategy::DedicatedServers {
                dedicated_fraction: 0.3,
            },
        ),
    ]
}

#[test]
fn every_strategy_matches_the_frozen_loop_on_a_quick_config() {
    let config = SimConfig {
        n_balancers: 24,
        n_servers: 20,
        timesteps: 300,
        warmup: 100,
        discipline: Discipline::PaperPairedC,
    };
    for (label, strategy) in strategies() {
        let mut rng_a = StdRng::seed_from_u64(0x9a11);
        let mut rng_b = StdRng::seed_from_u64(0x9a11);
        let a = run_simulation(
            config,
            strategy,
            &mut BernoulliWorkload::paper(),
            &mut rng_a,
        );
        let b = run_simulation_aos(
            config,
            strategy,
            &mut BernoulliWorkload::paper(),
            &mut rng_b,
        )
        .unwrap();
        assert_same(&a, &b, label);
    }
}

#[test]
fn the_paper_config_matches_at_the_knee() {
    let config = SimConfig::paper(1.2);
    for (label, strategy) in [
        ("classical", Strategy::UniformRandom),
        ("quantum", Strategy::quantum_ideal()),
    ] {
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let a = run_simulation(
            config,
            strategy,
            &mut BernoulliWorkload::paper(),
            &mut rng_a,
        );
        let b = run_simulation_aos(
            config,
            strategy,
            &mut BernoulliWorkload::paper(),
            &mut rng_b,
        )
        .unwrap();
        assert_same(&a, &b, label);
    }
}

#[test]
fn every_discipline_matches_under_a_bursty_workload() {
    for discipline in [
        Discipline::PaperPairedC,
        Discipline::FifoPairedC,
        Discipline::ExclusiveFirst,
        Discipline::CPrioritySingle,
        Discipline::SingleSlot,
    ] {
        let config = SimConfig {
            n_balancers: 16,
            n_servers: 14,
            timesteps: 250,
            warmup: 50,
            discipline,
        };
        let mut wl_a = BurstyWorkload::new(0.9, 0.1, 0.05);
        let mut wl_b = BurstyWorkload::new(0.9, 0.1, 0.05);
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let a = run_simulation(config, Strategy::quantum_ideal(), &mut wl_a, &mut rng_a);
        let b =
            run_simulation_aos(config, Strategy::quantum_ideal(), &mut wl_b, &mut rng_b).unwrap();
        assert_same(&a, &b, discipline.label());
    }
}

#[test]
fn every_discipline_matches_under_multi_subtype_workloads() {
    // One type-C lane per subtype on the production path: which lane's
    // head is oldest, and which entry pairs with it, must reproduce the
    // oracle's scan of one mixed queue.
    for (p_colocate, subtypes) in [(0.5, 4), (0.9, 8)] {
        for discipline in [
            Discipline::PaperPairedC,
            Discipline::FifoPairedC,
            Discipline::ExclusiveFirst,
            Discipline::CPrioritySingle,
            Discipline::SingleSlot,
        ] {
            let config = SimConfig {
                n_balancers: 16,
                n_servers: 14,
                timesteps: 250,
                warmup: 50,
                discipline,
            };
            let label = format!("{} with {subtypes} subtypes", discipline.label());
            let mut rng_a = StdRng::seed_from_u64(11);
            let mut rng_b = StdRng::seed_from_u64(11);
            let mut wl_a = BernoulliWorkload::new(p_colocate, subtypes);
            let mut wl_b = BernoulliWorkload::new(p_colocate, subtypes);
            let a = run_simulation(config, Strategy::quantum_ideal(), &mut wl_a, &mut rng_a);
            let b = run_simulation_aos(config, Strategy::quantum_ideal(), &mut wl_b, &mut rng_b)
                .unwrap();
            assert_same(&a, &b, &label);
        }
    }
}

#[test]
fn one_run_wide_reservoir_matches_per_server_eviction() {
    // Two servers share 4 balancers' traffic for 8 000 measured steps, so
    // at least one completes more than the reservoir capacity inside the
    // window: the oracle's per-server reservoirs evict before their
    // merge, the production path's single reservoir evicts as it goes.
    let config = SimConfig {
        n_balancers: 4,
        n_servers: 2,
        timesteps: 8_000,
        warmup: 500,
        discipline: Discipline::PaperPairedC,
    };
    for (label, strategy) in [
        ("uniform", Strategy::UniformRandom),
        ("quantum", Strategy::quantum_ideal()),
    ] {
        let mut rng_a = StdRng::seed_from_u64(8192);
        let mut rng_b = StdRng::seed_from_u64(8192);
        let mut wl_a = BernoulliWorkload::paper();
        let mut wl_b = BernoulliWorkload::paper();
        let a = run_simulation(config, strategy, &mut wl_a, &mut rng_a);
        let b = run_simulation_aos(config, strategy, &mut wl_b, &mut rng_b).unwrap();
        assert!(
            a.served > 2 * WAIT_RESERVOIR_CAP as u64,
            "{label}: {} served, so neither server need exceed the capacity",
            a.served
        );
        assert_same(&a, &b, label);
    }
}

#[test]
fn the_workload_rng_stream_is_untouched_by_the_refactor() {
    // After a run, both engines must leave the caller's generator in the
    // same state: drawing more values yields the same sequence. This
    // pins "no extra draws were added" (the reservoir is seeded by a
    // constant, not the simulation stream).
    let config = SimConfig {
        n_balancers: 10,
        n_servers: 9,
        timesteps: 120,
        warmup: 30,
        discipline: Discipline::PaperPairedC,
    };
    let mut rng_a = StdRng::seed_from_u64(1234);
    let mut rng_b = StdRng::seed_from_u64(1234);
    let _ = run_simulation(
        config,
        Strategy::quantum_ideal(),
        &mut BernoulliWorkload::paper(),
        &mut rng_a,
    );
    let _ = run_simulation_aos(
        config,
        Strategy::quantum_ideal(),
        &mut BernoulliWorkload::paper(),
        &mut rng_b,
    )
    .unwrap();
    let tail_a: Vec<u64> = (0..8).map(|_| rand::Rng::gen::<u64>(&mut rng_a)).collect();
    let tail_b: Vec<u64> = (0..8).map(|_| rand::Rng::gen::<u64>(&mut rng_b)).collect();
    assert_eq!(tail_a, tail_b, "engines consumed different draw counts");
}

#[test]
fn reservoir_percentiles_are_exact_on_small_runs() {
    // Below the reservoir capacity (8192 samples) the bounded reservoir
    // keeps every wait, so percentiles are exactly the full-population
    // percentiles the unbounded seed implementation reported.
    let config = SimConfig {
        n_balancers: 8,
        n_servers: 7,
        timesteps: 400,
        warmup: 100,
        discipline: Discipline::PaperPairedC,
    };
    // 8 balancers x 400 steps = 3200 window tasks at most: under cap.
    let mut rng = StdRng::seed_from_u64(99);
    let r = run_simulation(
        config,
        Strategy::quantum_ideal(),
        &mut BernoulliWorkload::paper(),
        &mut rng,
    );
    assert!(r.served <= 8192, "test must stay below reservoir capacity");
    assert!(r.p50_wait <= r.p99_wait);
    assert!(r.p99_wait <= r.max_queue_len as f64 * config.warmup as f64 + r.served as f64);
}

#[test]
fn on_step_hook_draws_nothing() {
    // A workload that uses on_step (diurnal) must still leave the rng
    // stream identical to an equivalent stateless workload making the
    // same number of draws.
    use loadbalance::task::DiurnalWorkload;
    let config = SimConfig {
        n_balancers: 6,
        n_servers: 6,
        timesteps: 100,
        warmup: 20,
        discipline: Discipline::PaperPairedC,
    };
    // At zero amplitude the period is irrelevant — two generators with
    // different periods must produce identical trajectories, which they
    // only can if `on_step` consumes no randomness and the phase clock
    // never leaks into the draw sequence.
    let mut flat_a = DiurnalWorkload::new(0.5, 0.0, 50);
    let mut flat_b = DiurnalWorkload::new(0.5, 0.0, 13);
    let mut rng_a = StdRng::seed_from_u64(5);
    let mut rng_b = StdRng::seed_from_u64(5);
    let a = run_simulation(config, Strategy::quantum_ideal(), &mut flat_a, &mut rng_a);
    let b = run_simulation(config, Strategy::quantum_ideal(), &mut flat_b, &mut rng_b);
    assert_same(&a, &b, "diurnal(amp=0) period independence");
    let _ = Workload::name(&flat_a);
}
