//! Ablation bench for the served decision hot path (DESIGN.md §5).
//!
//! Two independent knobs, three arms (`make bench-serve`):
//!
//! - **`predrawn_spsc`** — the shipped hand-off: slots pre-drawn into a
//!   lock-free SPSC ring, decide = `pop` + outcome-table lookup. Each
//!   consumed slot is recycled back through the producer handle, so the
//!   measured loop pays exactly one hand-off in and one out per
//!   decision — the steady-state cost with the distributor keeping the
//!   ring stocked from its own thread.
//! - **`predrawn_mutex`** — the identical recycle loop through a
//!   `Mutex<VecDeque>`: isolates the ring-vs-lock knob. Every decision
//!   pays an uncontended lock; under real cross-thread traffic the gap
//!   widens further.
//! - **`draw_on_demand`** — no buffering: every decision runs the full
//!   slot production (distributor advance, governor observation, CHSH
//!   CDF walks) before answering, via a capacity-1 ring pumped per
//!   decision. Isolates the pre-drawn-vs-on-demand knob.
//!
//! Nothing checks a ratio between arms; each reading depends on the
//! host. One host read the shipped path 3.0× faster than the mutex
//! hand-off and 49× faster than drawing on demand (DESIGN.md §5).

use criterion::{criterion_group, criterion_main, Criterion};
use serve::decision::{self, DecisionSlot};
use serve::ring;
use serve::{ServeConfig, ServiceCore};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Mutex;

const N_SERVERS: u32 = 64;
const PREDRAWN: u64 = 4096;

/// The slot stream the shipped service would buffer: one pre-drawn
/// `DecisionSlot` per sequence number, pure in `(endpoint_seed, seq)`.
fn predrawn_cycle(master_seed: u64) -> Vec<DecisionSlot> {
    let endpoint_seed = runtime::stream_seed(master_seed, 0);
    (0..PREDRAWN)
        .map(|seq| {
            let mut rng = decision::slot_rng(endpoint_seed, seq);
            decision::draw_classical_shared(seq, N_SERVERS, &mut rng)
        })
        .collect()
}

fn bench_decide(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_decide");

    group.bench_function("predrawn_spsc", |b| {
        let (mut tx, mut rx) = ring::spsc::<DecisionSlot>(PREDRAWN as usize);
        for slot in predrawn_cycle(0xB0) {
            if !tx.push(slot) {
                break;
            }
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let slot = rx.pop().expect("recycled ring never runs dry");
            let placement = black_box(slot.place(i & 1 == 0, i & 2 == 0));
            tx.push(slot);
            placement
        })
    });

    group.bench_function("predrawn_mutex", |b| {
        let queue: Mutex<VecDeque<DecisionSlot>> =
            Mutex::new(predrawn_cycle(0xB0).into_iter().collect());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            // One critical section per decision (the charitable version:
            // take and recycle under a single lock acquisition).
            let slot = {
                let mut q = queue.lock().expect("bench queue");
                let slot = q.pop_front().expect("recycled queue never runs dry");
                q.push_back(slot);
                slot
            };
            black_box(slot.place(i & 1 == 0, i & 2 == 0))
        })
    });

    group.bench_function("draw_on_demand", |b| {
        // Ring capacity 1 with an immediate pump per decision: the full
        // production-side draw (distributor advance, governor, CHSH CDF
        // walks) lands on the decision path.
        let config = ServeConfig {
            n_servers: N_SERVERS,
            n_endpoints: 1,
            ring_capacity: 1,
            low_water: 0,
            refill_batch: 1,
            ..ServeConfig::typical(0xB1)
        };
        let mut core = ServiceCore::new(&config);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            core.pump_all();
            black_box(core.decide(0, i & 1 == 0, i & 2 == 0))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_decide);
criterion_main!(benches);
