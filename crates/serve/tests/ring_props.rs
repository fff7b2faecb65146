//! Property battery for the SPSC decision ring: random interleavings of
//! stage / publish / pop checked slot-for-slot against a queue model.
//!
//! The model is the ring's specification: staged values are invisible
//! until a publish, published values come out in FIFO order, a full ring
//! rejects stages, and an empty ring returns `None`. Running the same
//! random op tape against both and comparing every return value covers
//! wraparound (tiny capacities, long tapes), the capacity-1 edge, and
//! full/empty boundary transitions — the cases a hand-written test
//! enumerates one at a time.

use proptest::prelude::*;
use serve::ring::spsc;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Longest the consumer waits for the next value. A healthy producer
/// publishes within microseconds, even in a debug build on a loaded
/// two-core host.
const STALL: Duration = Duration::from_secs(20);

/// One scripted operation on the ring (values are assigned by the
/// driver so every staged value is unique and order is checkable).
#[derive(Debug, Clone, Copy)]
enum Op {
    Stage,
    Publish,
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4).prop_map(|k| match k {
        // Bias toward stage/pop so tapes exercise full and empty states.
        0 | 3 => Op::Stage,
        1 => Op::Publish,
        _ => Op::Pop,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ring_matches_queue_model_under_random_interleavings(
        capacity_exp in 0u32..7,
        ops in proptest::collection::vec(op_strategy(), 0..600),
    ) {
        let capacity = 1usize << capacity_exp;
        let (mut tx, mut rx) = spsc::<u64>(capacity);
        // Model state: published FIFO plus the invisible staged tail.
        let mut published: VecDeque<u64> = VecDeque::new();
        let mut staged: VecDeque<u64> = VecDeque::new();
        let mut next_value = 0u64;
        for op in ops {
            match op {
                Op::Stage => {
                    let expect_ok = published.len() + staged.len() < capacity;
                    let ok = tx.stage(next_value);
                    prop_assert_eq!(ok, expect_ok, "stage at occupancy {}/{}",
                        published.len() + staged.len(), capacity);
                    if ok {
                        staged.push_back(next_value);
                        next_value += 1;
                    }
                }
                Op::Publish => {
                    tx.publish();
                    published.append(&mut staged);
                }
                Op::Pop => {
                    let got = rx.pop();
                    let expect = published.pop_front();
                    prop_assert_eq!(got, expect, "pop with {} published", published.len() + 1);
                }
            }
        }
        // Drain: everything published must come out, staged never leaks.
        tx.publish();
        published.append(&mut staged);
        while let Some(expect) = published.pop_front() {
            prop_assert_eq!(rx.pop(), Some(expect));
        }
        prop_assert_eq!(rx.pop(), None, "ring must be empty after full drain");
    }

    #[test]
    fn occupancy_accounting_stays_consistent(
        capacity_exp in 0u32..7,
        ops in proptest::collection::vec(op_strategy(), 0..300),
    ) {
        let capacity = 1usize << capacity_exp;
        let (mut tx, mut rx) = spsc::<u64>(capacity);
        let mut in_ring = 0usize; // staged + published
        let mut popped_available = 0usize; // published only
        let mut next = 0u64;
        for op in ops {
            match op {
                Op::Stage => {
                    if tx.stage(next) {
                        next += 1;
                        in_ring += 1;
                    } else {
                        prop_assert_eq!(in_ring, capacity, "stage rejected while not full");
                    }
                }
                Op::Publish => {
                    tx.publish();
                    popped_available = in_ring;
                }
                Op::Pop => {
                    if rx.pop().is_some() {
                        in_ring -= 1;
                        popped_available -= 1;
                    } else {
                        prop_assert_eq!(popped_available, 0, "pop failed with published slots");
                    }
                }
            }
            // `occupied` reads the consumer position fresh, so with both
            // halves on one thread it is exact; consumer-side length is
            // a lower bound (its tail cache refreshes only on apparent
            // emptiness).
            prop_assert_eq!(tx.occupied(), in_ring);
            prop_assert_eq!(tx.free(), capacity - in_ring);
            prop_assert!(rx.len() <= in_ring);
        }
    }
}

/// Cross-thread stress with randomized batch sizes: every value arrives
/// exactly once, in order, across many wraparounds — the batched-publish
/// visibility guarantee under a real memory model rather than the
/// single-threaded model above. A progress watchdog turns a lost publish
/// or a dead producer into a failure instead of an endless spin.
#[test]
fn concurrent_randomized_batches_preserve_order() {
    for (capacity, total) in [(1usize, 5_000u64), (8, 50_000), (64, 100_000)] {
        let (mut tx, mut rx) = spsc::<u64>(capacity);
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            // Deterministic but irregular batch schedule.
            let mut batch_seed = runtime::SplitMix64::new(0xBA7C4 ^ total);
            while next < total {
                let want = 1 + (batch_seed.gen_range(31) as u64);
                let mut staged = 0;
                while staged < want && next < total && tx.stage(next) {
                    next += 1;
                    staged += 1;
                }
                tx.publish();
                if staged == 0 {
                    // Yield, don't spin: CI runners may have one core,
                    // where a spin wait serializes against preemption.
                    std::thread::yield_now();
                }
            }
        });
        let mut expect = 0u64;
        let mut last_progress = Instant::now();
        while expect < total {
            match rx.pop() {
                Some(v) => {
                    assert_eq!(v, expect, "capacity {capacity}: out of order");
                    expect += 1;
                    last_progress = Instant::now();
                }
                None if last_progress.elapsed() > STALL => {
                    if producer.is_finished() {
                        if let Err(panic) = producer.join() {
                            std::panic::resume_unwind(panic);
                        }
                    }
                    panic!(
                        "capacity {capacity}: no value for {STALL:?} after {expect} of \
                         {total}: publish lost"
                    );
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.pop(), None);
    }
}
