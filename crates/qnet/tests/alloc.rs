//! Steady-state allocation audit for the batched entanglement data
//! plane.
//!
//! The claim: once the distributor is warm (in-flight FIFO and QNIC
//! deques at their working size, obs counters registered), driving it —
//! emission sampling, geometric loss skipping, the in-flight FIFO, QNIC
//! store/evict, and kernel-path consumption — performs **zero** heap
//! allocation. Pair records are `Copy` and live in the FIFO's ring
//! buffer, pre-sized at construction; `WernerPair` is a three-float
//! value.
//!
//! A counting `#[global_allocator]` makes the claim checkable: this
//! integration test owns its process, and the harness runs the single
//! test on one thread, so the counter delta over the measured window is
//! exactly the plane's own allocation activity.

use qnet::{
    ConsumePolicy, DistributorConfig, EntanglementDistributor, EprSource, FaultPlan, FiberLink,
    SimTime,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_distributor_loop_allocates_nothing() {
    // Lossy enough to exercise the geometric skip on most survivors,
    // fast enough that the FIFO and NICs see steady traffic.
    let config = DistributorConfig {
        source: EprSource::new(1e6, 0.95),
        link_a: FiberLink::new(10.0), // ~63% survival
        link_b: FiberLink::new(1.0),
        qnic_capacity: 32,
        memory_lifetime: Duration::from_micros(100),
        max_age: Duration::from_micros(160),
        consume_policy: ConsumePolicy::FreshestFirst,
        faults: FaultPlan::none(),
    };
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let mut d = EntanglementDistributor::new(config, &mut rng);

    // Warmup: grow every slab to its working set — in-flight FIFO, QNIC
    // deques, and the lazily-registered obs counters.
    let step = Duration::from_micros(10);
    let mut now = SimTime::ZERO;
    let mut consumed = 0u64;
    for _ in 0..500 {
        now += step;
        consumed += u64::from(d.take_werner(now).is_some());
    }
    assert!(consumed > 0, "warmup must deliver pairs");

    // Measured window: 500 more steps of the same traffic.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..500 {
        now += step;
        consumed += u64::from(d.take_werner(now).is_some());
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let stats = d.stats();
    assert!(stats.emitted > 1_000, "plane must be under real load");
    assert!(consumed > 100, "kernel path must be consuming pairs");
    assert_eq!(
        delta, 0,
        "steady-state distributor loop performed {delta} heap allocations"
    );
}
