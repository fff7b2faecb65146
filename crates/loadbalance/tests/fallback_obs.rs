//! The governor's own transition counters must agree with what it emits
//! through the `qnlg.fallback.*` obs counters.
//!
//! This lives in its own integration-test binary (single `#[test]`): the
//! obs registry is process-global, so sharing a process with tests that
//! toggle `obs::set_enabled` or drive other governors would corrupt the
//! counts.

use loadbalance::degrade::{CoordinationMode, FallbackGovernor, HysteresisConfig};

#[test]
fn transition_counts_match_obs_counters() {
    obs::reset();
    obs::set_enabled(true);

    let mut g = FallbackGovernor::new(HysteresisConfig::default());
    // A full excursion: healthy → degraded → blackout → recovered, with
    // some dead-band dwell in between.
    let trace: &[(f64, usize)] = &[
        (1.0, 30),  // healthy
        (0.65, 20), // dead band: no transitions
        (0.1, 30),  // trip to classical
        (0.0, 30),  // blackout: down to independent
        (0.3, 30),  // partial recovery: back to classical
        (1.0, 40),  // full recovery: quantum
    ];
    let mut rounds = 0u64;
    for &(rate, n) in trace {
        for _ in 0..n {
            g.observe((rate * 100.0).round() as u64, 100);
            rounds += 1;
        }
    }
    assert_eq!(g.mode(), CoordinationMode::Quantum);
    assert!(
        g.transitions() >= 4,
        "expected a full excursion, got {}",
        g.transitions()
    );

    let snap = obs::snapshot();
    obs::set_enabled(false);
    let counter = |name: &str| snap.counter(name).unwrap_or(0);

    assert_eq!(counter("qnlg.fallback.transitions"), g.transitions());
    let entries = g.entries();
    assert_eq!(counter("qnlg.fallback.to_quantum"), entries[0]);
    assert_eq!(counter("qnlg.fallback.to_classical"), entries[1]);
    assert_eq!(counter("qnlg.fallback.to_independent"), entries[2]);
    let per_mode = g.rounds();
    assert_eq!(counter("qnlg.fallback.rounds.quantum"), per_mode[0]);
    assert_eq!(counter("qnlg.fallback.rounds.classical"), per_mode[1]);
    assert_eq!(counter("qnlg.fallback.rounds.independent"), per_mode[2]);
    assert_eq!(per_mode.iter().sum::<u64>(), rounds);
}
