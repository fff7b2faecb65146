//! Standalone layer probes for the traced run.
//!
//! Layers too fast to time one call at a time are batch-timed here
//! through their public functions: the endpoint's `decide`, the slot
//! draws, the Werner kernel, the fallback governor and the entanglement
//! distributor driven at the decision period. Every traced run reports
//! every per-layer metric: a workload measures the layers it loads from
//! its own run, and [`fill_missing`] fills the rest from short probes of
//! the workloads that load them.

use crate::clock::{ns_per_op, BATCHES};
use crate::outcome::Outcome;
use crate::served::{self, Inputs};
use crate::{fig4, Args};
use loadbalance::FallbackGovernor;
use qnet::{EntanglementDistributor, SimTime};
use qsim::werner::WernerPair;
use rand::rngs::StdRng;
use rand::SeedableRng;
use runtime::{stream_seed, SplitMix64};
use serve::{ServeConfig, ServiceCore};
use std::hint::black_box;

/// Slots the standalone distributor is driven for: 4 s of sim time at
/// the 20 µs decision period, a hundred outage periods when faulted.
const DISTRIBUTOR_SLOTS: u64 = 200_000;
/// Calls per batch for the nanosecond-scale kernels.
const KERNEL_ITERS: u64 = 100_000;

/// Batch-timed per-operation costs of the plane's layers, in ns.
pub struct PlaneCosts {
    pub endpoint_decide_ns: f64,
    pub draw_quantum_ns: f64,
    pub draw_classical_ns: f64,
    pub governor_observe_ns: f64,
    pub distributor_ns_per_slot: f64,
}

/// Measures the plane's layers standalone under `cfg` and records them.
pub fn plane_layers(cfg: &ServeConfig, seed: u64, out: &mut Outcome) -> PlaneCosts {
    // `DecisionEndpoint::decide` on a full ring: each batch drains one
    // ring that an untimed `fill_all` filled.
    let mut core = ServiceCore::new(cfg);
    let mut inputs = Inputs::new(stream_seed(seed, 5));
    let ring = cfg.ring_capacity;
    let xy: Vec<(bool, bool)> = (0..ring).map(|_| inputs.next()).collect();
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            core.fill_all();
            let endpoint = core.endpoint_mut(0);
            let t = std::time::Instant::now();
            for &(x, y) in &xy {
                black_box(endpoint.decide(x, y));
            }
            t.elapsed().as_nanos() as f64 / ring as f64
        })
        .collect();
    let endpoint_decide_ns = crate::clock::median(&mut per_call);

    let pair = WernerPair::new(cfg.distributor.source.visibility())
        .expect("source visibility is a probability");
    let mut rng = SplitMix64::new(stream_seed(seed, 6));
    let draw_quantum_ns = ns_per_op(KERNEL_ITERS, |i| {
        black_box(serve::decision::draw_quantum(
            i,
            cfg.n_servers,
            &pair,
            &mut rng,
        ));
    });
    let draw_classical_ns = ns_per_op(KERNEL_ITERS, |i| {
        black_box(serve::decision::draw_classical_shared(
            i,
            cfg.n_servers,
            &mut rng,
        ));
    });
    let (theta_a, theta_b) = (games::chsh::alice_angle(1), games::chsh::bob_angle(1));
    let mut std_rng = StdRng::seed_from_u64(stream_seed(seed, 7));
    let werner_ns = ns_per_op(KERNEL_ITERS, |_| {
        black_box(pair.sample(theta_a, theta_b, &mut std_rng));
    });

    // The governor fed a healthy delivery trace: 1 in 8 polls misses.
    let mut governor = FallbackGovernor::new(cfg.hysteresis);
    let deliveries: Vec<u64> = (0..4096)
        .map(|_| u64::from(rng.gen_range(8) != 0))
        .collect();
    let governor_observe_ns = ns_per_op(KERNEL_ITERS, |i| {
        black_box(governor.observe(deliveries[i as usize % deliveries.len()], 1));
    });

    // The distributor as a feed drives it: advance to each slot's
    // consumption time, then try to take a pair.
    let mut distributor =
        EntanglementDistributor::new(cfg.distributor.clone(), &mut runtime::stream_rng(seed, 8));
    let period_ns = cfg.decision_period.as_nanos() as u64;
    let mut seq = 0u64;
    let distributor_ns_per_slot = ns_per_op(DISTRIBUTOR_SLOTS / BATCHES as u64, |_| {
        seq += 1;
        let now = SimTime::from_nanos(seq * period_ns);
        distributor.advance_to(now);
        black_box(distributor.take_werner(now));
    });
    let s = distributor.stats();
    let emitted = s.emitted.max(1) as f64;

    out.metric("endpoint.decide_ns", endpoint_decide_ns, "ns");
    out.metric("decision.draw_quantum_ns", draw_quantum_ns, "ns");
    out.metric("decision.draw_classical_ns", draw_classical_ns, "ns");
    out.metric("werner.sample_ns", werner_ns, "ns");
    out.metric("governor.observe_ns", governor_observe_ns, "ns");
    out.metric("distributor.ns_per_slot", distributor_ns_per_slot, "ns");
    out.metric(
        "distributor.emitted_per_slot",
        s.emitted as f64 / seq as f64,
        "ratio",
    );
    out.metric(
        "distributor.consumed_per_emitted",
        s.consumed as f64 / emitted,
        "fraction",
    );
    out.metric(
        "distributor.expired_per_emitted",
        s.expired as f64 / emitted,
        "fraction",
    );
    out.metric(
        "distributor.lost_per_emitted",
        s.lost_in_fiber as f64 / emitted,
        "fraction",
    );
    out.metric(
        "distributor.dropped_full_per_emitted",
        s.dropped_full as f64 / emitted,
        "fraction",
    );
    out.metric(
        "distributor.lost_outage_per_emitted",
        s.lost_outage as f64 / emitted,
        "fraction",
    );
    out.metric(
        "distributor.fault_transitions",
        distributor.fault_transitions() as f64,
        "count",
    );
    PlaneCosts {
        endpoint_decide_ns,
        draw_quantum_ns,
        draw_classical_ns,
        governor_observe_ns,
        distributor_ns_per_slot,
    }
}

/// Fills every per-layer metric the workload's own traced run left out,
/// from short probes of the workloads that load those layers.
pub fn fill_missing(args: &Args, out: &mut Outcome) {
    let mut probe = Outcome::default();
    if !out.has("distributor.ns_per_slot") {
        plane_layers(&served::config(args.seed, false), args.seed, &mut probe);
    }
    if !out.has("feed.pump_ns_per_slot") {
        served::plane_probe(args.seed, &mut probe);
    }
    if !out.has("socket.self_us") {
        served::socket_probe(args.seed, &mut probe);
    }
    if !out.has("strategy.assign_ns") {
        fig4::layer_probe(args.seed, &mut probe);
    }
    out.absorb_missing(probe);
}
