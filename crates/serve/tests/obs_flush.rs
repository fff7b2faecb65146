//! Exactly-once obs flush on service shutdown.
//!
//! The test turns on process-global obs collection and asserts an exact
//! counter delta, so it owns its test binary: any other test that shuts a
//! service down in the same process would flush into that delta.

use serve::{ServeConfig, Service, ServiceCore};

fn base_config(seed: u64) -> ServeConfig {
    ServeConfig {
        n_servers: 32,
        n_endpoints: 2,
        ring_capacity: 512,
        low_water: 128,
        refill_batch: 256,
        ..ServeConfig::typical(seed)
    }
}

#[test]
fn shutdown_flushes_obs_exactly_once() {
    obs::set_enabled(true);
    let before = obs::snapshot().counter("qnlg.serve.decisions").unwrap_or(0);
    let mut svc = Service::start(&base_config(77));
    for i in 0..500 {
        svc.decide(i % 2, i % 3 == 0, i % 7 == 0);
    }
    let s1 = svc.shutdown();
    let s2 = svc.shutdown(); // idempotent: must not double-flush
    assert_eq!(s1, s2);
    drop(svc); // Drop after shutdown: also must not double-flush
    let after = obs::snapshot().counter("qnlg.serve.decisions").unwrap_or(0);
    assert_eq!(
        after - before,
        500,
        "decision counter must reflect exactly one flush of 500 decisions"
    );
    // Sim-time decision cadence is wall-clock-free, so a second service
    // with the same seed reproduces the same slot stream.
    let mut svc2 = Service::start(&base_config(77));
    let p = svc2.decide(0, true, true);
    let mut core = ServiceCore::new(&base_config(77));
    core.fill_all();
    assert_eq!(p, core.decide(0, true, true));
    svc2.shutdown();
}
