//! Ablation bench: one n-party Mermin round, statevector vs closed-form
//! GHZ kernel vs batched kernel play.
//!
//! DESIGN.md §5: `games::multiparty` historically simulated every round
//! through a full `SharedState::ghz(n)` statevector — O(2ⁿ) amplitudes
//! and n basis measurements per round. The `qsim::ghz` kernel samples
//! the exact joint distribution with one f64 draw plus one word of bulk
//! bits (O(n)), and the batched path additionally hoists the per-input
//! correlation out of the loop. Nothing checks a ratio between arms;
//! each reading depends on the host. Kernel against statevector read
//! 54× at n = 3 on one host, growing with n (DESIGN.md §5).

use criterion::{criterion_group, criterion_main, Criterion};
use games::multiparty::{mermin_input_masks, play_mermin_batch, play_mermin_quantum};
use qsim::ghz::NoisyGhz;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_mermin_round(c: &mut Criterion) {
    for n in [3usize, 6, 10] {
        let mut group = c.benchmark_group(format!("mermin_round_n{n}"));
        let masks = mermin_input_masks(n);

        group.bench_function("exact_statevector", |b| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % masks.len();
                black_box(play_mermin_quantum(n, masks[i], &mut rng))
            })
        });

        group.bench_function("kernel_single", |b| {
            let mut rng = StdRng::seed_from_u64(2);
            let kernel = NoisyGhz::new(n, 0.95).expect("valid visibility");
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % masks.len();
                black_box(kernel.sample_xy(masks[i], &mut rng))
            })
        });

        group.bench_function("kernel_batched_1024", |b| {
            let mut rng = StdRng::seed_from_u64(3);
            let kernel = NoisyGhz::new(n, 0.95).expect("valid visibility");
            b.iter(|| black_box(play_mermin_batch(&kernel, 1024, &mut rng)))
        });

        group.finish();
    }
}

criterion_group!(benches, bench_mermin_round);
criterion_main!(benches);
