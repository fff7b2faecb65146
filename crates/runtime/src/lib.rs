//! # qnlg-runtime — deterministic parallel sweep executor
//!
//! Every figure in the paper is a Monte-Carlo sweep over a parameter
//! grid. This crate gives the workspace one way to run those sweeps:
//!
//! - [`par_map`] / [`par_map_threads`] — a fixed-size scoped worker pool
//!   over one shared chunk claim (no dependency beyond `std`),
//!   replacing the old spawn-one-thread-per-point pattern.
//! - [`par_sweep`] / [`par_sweep_threads`] — the same pool plus
//!   *deterministic RNG stream splitting*: each point's generator is
//!   seeded from `(master_seed, point_index)` via SplitMix64
//!   ([`seed::stream_seed`]), so sweep output is **bit-identical for any
//!   worker count or scheduling order**. Reproducibility by construction.
//! - [`grid2`] — row-major cartesian product helper for 2-D sweeps.
//!
//! Worker count comes from the `QNLG_THREADS` environment variable when
//! set, else from [`std::thread::available_parallelism`].
//!
//! ```
//! let squares = runtime::par_map(&[1, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Same master seed + same grid => same results, on any machine,
//! // at any parallelism.
//! let a = runtime::par_sweep_threads(1, 7, &[0.1, 0.2], |_, &p, rng| {
//!     use rand::Rng;
//!     (p, rng.gen::<f64>())
//! });
//! let b = runtime::par_sweep_threads(8, 7, &[0.1, 0.2], |_, &p, rng| {
//!     use rand::Rng;
//!     (p, rng.gen::<f64>())
//! });
//! assert_eq!(a, b);
//! ```

pub mod pool;
pub mod seed;

pub use pool::{par_map, par_map_mut_threads, par_map_threads, thread_count};
pub use seed::{mix64, point_seed, stream_seed, SplitMix64};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parallel sweep with per-point deterministic RNG streams and an
/// explicit worker count.
///
/// `f` receives `(index, &point, &mut rng)` where the generator is
/// seeded by [`seed::stream_seed`]`(master_seed, index)` — a pure
/// function of the call's arguments, never of scheduling.
pub fn par_sweep_threads<T, R, F>(threads: usize, master_seed: u64, points: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &mut StdRng) -> R + Sync,
{
    par_map_threads(threads, points, |i, p| {
        let mut rng = StdRng::seed_from_u64(stream_seed(master_seed, i as u64));
        f(i, p, &mut rng)
    })
}

/// Parallel sweep with per-point deterministic RNG streams, using the
/// configured worker count ([`thread_count`]).
pub fn par_sweep<T, R, F>(master_seed: u64, points: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &mut StdRng) -> R + Sync,
{
    par_sweep_threads(thread_count(), master_seed, points, f)
}

/// Row-major index grid for a `rows × cols` sweep: `(r, c)` pairs with
/// `index = r * cols + c`, the common shape for table sweeps that index
/// into their own axis arrays.
pub fn grid2(rows: usize, cols: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            out.push((r, c));
        }
    }
    out
}

/// The generator for stream `index` of `master_seed` — the same stream
/// [`par_sweep`] hands to point `index`. Useful for follow-up draws that
/// must not perturb (or depend on) any sweep point's stream: derive them
/// from an index past the end of the grid.
pub fn stream_rng(master_seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(master_seed, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn sweep_results_are_worker_count_invariant() {
        let points: Vec<u32> = (0..40).collect();
        let run = |threads| {
            par_sweep_threads(threads, 0xfeed, &points, |_, &p, rng| {
                (p, rng.gen::<u64>(), rng.gen::<f64>())
            })
        };
        let reference = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), reference);
        }
    }

    #[test]
    fn different_master_seeds_give_different_streams() {
        let points = [(); 4];
        let a = par_sweep_threads(2, 1, &points, |_, _, rng| rng.gen::<u64>());
        let b = par_sweep_threads(2, 2, &points, |_, _, rng| rng.gen::<u64>());
        assert_ne!(a, b);
    }

    #[test]
    fn grid2_is_row_major() {
        assert_eq!(
            grid2(2, 3),
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        );
        assert_eq!(grid2(2, 3)[3 + 2], (1, 2));
        assert_eq!(grid2(2, 3).len(), 6);
    }

    #[test]
    fn stream_rng_matches_sweep_streams() {
        let points = [(); 3];
        let swept = par_sweep_threads(2, 99, &points, |_, _, rng| rng.gen::<u64>());
        for (i, &v) in swept.iter().enumerate() {
            assert_eq!(stream_rng(99, i as u64).gen::<u64>(), v);
        }
    }
}
