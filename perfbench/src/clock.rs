//! Wall-clock helpers: the calibrated cost of an empty timer, batch
//! timing for operations too short to time one by one, and order
//! statistics.

use std::hint::black_box;
use std::time::Instant;

/// Batches per batch-timed measurement; the reported figure is their
/// median, so one preempted batch cannot move it.
pub const BATCHES: usize = 9;

/// Nanoseconds between two `Instant` reads with nothing in between:
/// the floor under every single-shot latency this benchmark reports.
/// Median over `BATCHES` batches of 20 000 empty timers.
pub fn timer_overhead_ns() -> f64 {
    ns_per_op(20_000, |_| {
        black_box(Instant::now().elapsed());
    })
}

/// Batch-timed cost of `op`, in ns per call: the median over `BATCHES`
/// batches of `iters` calls each. `op` receives the call index.
pub fn ns_per_op(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                op(black_box(i));
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut per_op)
}

/// Median of `v` (sorts it in place). NaN for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile `q ∈ [0, 1]` of `v` (sorts it in place). NaN
/// for an empty slice.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
