//! Allocation audit for the Figure 4 loop (`sim::run_simulation`).
//!
//! The claims: building a server allocates nothing (its lanes grow on
//! first arrival), and a whole run at the Figure 4 configuration makes
//! at most two allocations per simulated step. What remains is the
//! `Vec` each `assign_all` returns, amortised lane growth as queues
//! deepen, and a constant per run (the strategy, the server array, the
//! one wait reservoir, the result).
//!
//! A counting `#[global_allocator]` makes the claims checkable, as in
//! `qnet/tests/alloc.rs`. It counts per thread, so the two tests of this
//! binary may run concurrently without reading each other's
//! allocations.

use loadbalance::task::BernoulliWorkload;
use loadbalance::{run_simulation, Discipline, Server, SimConfig, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far on the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn building_a_server_allocates_nothing() {
    let before = allocations();
    for id in 0..1_000 {
        black_box(Server::with_id(Discipline::PaperPairedC, id));
    }
    assert_eq!(allocations() - before, 0, "Server::with_id allocated");
}

#[test]
fn the_figure_4_loop_makes_at_most_two_allocations_per_step() {
    for load in [0.6f64, 1.2, 1.5] {
        let config = SimConfig {
            n_balancers: 100,
            n_servers: (100.0 / load).round() as usize,
            timesteps: 3_000,
            warmup: 750,
            discipline: Discipline::PaperPairedC,
        };
        let steps = config.warmup + config.timesteps;
        let mut rng = StdRng::seed_from_u64(4);
        let mut workload = BernoulliWorkload::paper();
        let before = allocations();
        let r = run_simulation(config, Strategy::quantum_ideal(), &mut workload, &mut rng);
        let per_step = (allocations() - before) as f64 / steps as f64;
        black_box(r);
        assert!(
            per_step <= 2.0,
            "load {load}: {per_step:.2} allocations per simulated step"
        );
    }
}
