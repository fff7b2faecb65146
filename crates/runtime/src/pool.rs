//! The sweep executor: a fixed-size scoped worker pool over one shared
//! chunk claim.
//!
//! Replaces the bench harness's historical spawn-one-OS-thread-per-point
//! pattern (60+ threads for a Figure-4 sweep). Work is split into
//! contiguous index chunks behind a single mutex-guarded iterator; each
//! worker claims the next chunk, releases the lock, maps the chunk, and
//! claims again until none are left, so a slow chunk delays only the
//! worker running it. Chunks are guided: each claim takes a fixed share
//! of what is left, so they shrink as the sweep drains and it ends on
//! single items. No thread ever holds the lock while it maps, or waits
//! on one lock while holding another. Outputs carry their chunk's start
//! index, so output order — and therefore every downstream table — is
//! independent of scheduling.

use std::ops::Range;
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

/// Items mapped (inline or pooled) — deterministic for a given workload.
static ITEMS_EXECUTED: obs::LazyCounter = obs::LazyCounter::new("pool.items.executed");
/// Chunks claimed by pooled workers.
static CHUNKS: obs::LazyCounter = obs::LazyCounter::new("pool.chunks");
/// Workers spawned across all pooled calls.
static WORKERS_SPAWNED: obs::LazyCounter = obs::LazyCounter::new("pool.workers.spawned");
/// Chunk sizes in items, sharded per worker.
static CHUNK_ITEMS: obs::LazyHist = obs::LazyHist::new("pool.chunk.items");
/// Per-worker wall-clock spent inside `f` (one sample per worker).
static WORKER_BUSY_NS: obs::LazyHist = obs::LazyHist::new("time.pool.worker.busy.ns");
/// Per-worker wall-clock spent claiming or waiting (lifetime − busy).
static WORKER_IDLE_NS: obs::LazyHist = obs::LazyHist::new("time.pool.worker.idle.ns");

/// Number of worker threads a parallel call will use: the `QNLG_THREADS`
/// environment variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`]. A set-but-invalid value (not a
/// number, or zero) is reported once to stderr and then ignored.
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var("QNLG_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => {
                static WARNED: Once = Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: QNLG_THREADS={v:?} is not a positive integer; \
                         falling back to available parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The guided claim plan over `len` items for `workers` workers: each
/// claim takes `max(1, remaining / (2 · workers))` contiguous items.
/// Early claims are large, which keeps claim traffic low; the last
/// `2 · workers` items go one at a time, so workers run dry within one
/// item of each other.
fn guided(len: usize, workers: usize) -> impl Iterator<Item = Range<usize>> {
    let mut start = 0;
    std::iter::from_fn(move || {
        let remaining = len - start;
        (remaining > 0).then(|| {
            let chunk = start..start + (remaining / (2 * workers)).max(1);
            start = chunk.end;
            chunk
        })
    })
}

/// Parallel indexed map over a slice with an explicit worker count.
///
/// `f` receives `(index, &item)` and results are returned in item order.
/// `threads == 1` runs inline with no thread machinery at all, which is
/// also the reference path for determinism tests.
pub fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let len = items.len();
    ITEMS_EXECUTED.add(len as u64);
    if threads <= 1 || len <= 1 {
        // The inline path is its own span on the main track, so a
        // single-core trace still shows where map time went.
        trace::span_begin(trace::Track::Main, "pool.map.inline");
        let out = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        trace::span_end(trace::Track::Main, "pool.map.inline");
        return out;
    }
    let workers = threads.min(len);
    let chunks = guided(len, workers).map(|r| (r.start, &items[r]));
    claim_loop(workers, chunks, |start, part| {
        (start..).zip(part).map(|(i, t)| f(i, t)).collect()
    })
}

/// Parallel indexed map over a *mutable* slice with an explicit worker
/// count: the slice is cut into one contiguous `chunks_mut` sub-slice
/// per worker, so each worker holds `&mut` state with no lock while it
/// maps.
///
/// Built for advancing sharded simulator state, where the items are a
/// handful of equal-cost shard structs rather than thousands of skewed
/// sweep points, so finer chunks would only add claims.
/// Results are returned in item order; `threads <= 1` runs inline and is
/// the reference path for determinism tests.
pub fn par_map_mut_threads<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let len = items.len();
    ITEMS_EXECUTED.add(len as u64);
    if threads <= 1 || len <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = len.div_ceil(threads.min(len));
    let parts = items.chunks_mut(chunk).enumerate();
    claim_loop(len.div_ceil(chunk), parts, |k, part| {
        (k * chunk..).zip(part).map(|(i, t)| f(i, t)).collect()
    })
}

/// Parallel indexed map using the configured worker count
/// ([`thread_count`]).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_threads(thread_count(), items, f)
}

/// Runs `map(k, chunk)` for every `(k, chunk)` that `chunks` yields on
/// `workers` scoped threads, and returns the outputs ordered by `k` (a
/// chunk's index or its first item's). `map` returns one output per item
/// of its chunk.
fn claim_loop<I, C, R, M>(workers: usize, chunks: I, map: M) -> Vec<R>
where
    I: Iterator<Item = (usize, C)> + Send,
    C: Send,
    R: Send,
    M: Fn(usize, C) -> Vec<R> + Sync,
{
    let claim = Mutex::new(chunks);
    let mut parts: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (claim, map) = (&claim, &map);
                scope.spawn(move || {
                    WORKERS_SPAWNED.inc();
                    // Clocks are read only while obs collection is on; with
                    // it off the accounting is one relaxed bool load per
                    // chunk.
                    let timing = obs::enabled();
                    let spawned = timing.then(Instant::now);
                    let mut busy = Duration::ZERO;
                    let track = trace::Track::Worker(w as u32);
                    let mut done = Vec::new();
                    loop {
                        // The claim is a statement of its own, so the guard
                        // is dropped before `map` runs. Kept alive through
                        // the body, it would run the workers one at a time.
                        let next = claim.lock().expect("chunk claim lock").next();
                        let Some((k, chunk)) = next else { break };
                        CHUNKS.inc();
                        let t0 = timing.then(Instant::now);
                        trace::span_begin(track, "pool.chunk");
                        let out = map(k, chunk);
                        trace::span_end(track, "pool.chunk");
                        if let Some(t0) = t0 {
                            busy += t0.elapsed();
                        }
                        CHUNK_ITEMS.record_shard(w, out.len() as u64);
                        done.push((k, out));
                    }
                    if let Some(spawned) = spawned {
                        let total = spawned.elapsed();
                        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                        WORKER_BUSY_NS.record_shard(w, ns(busy));
                        WORKER_IDLE_NS.record_shard(w, ns(total.saturating_sub(busy)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    parts.sort_unstable_by_key(|&(k, _)| k);
    parts.into_iter().flat_map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map_threads(4, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..257).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let items: Vec<u64> = (0..100).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9e37_79b9).rotate_left(7);
        let one = par_map_threads(1, &items, f);
        let two = par_map_threads(2, &items, f);
        let many = par_map_threads(16, &items, f);
        assert_eq!(one, two);
        assert_eq!(one, many);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_threads(8, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map_threads(8, &[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = par_map_threads(32, &[1, 2, 3], |_, &x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_returns_in_order() {
        let mut items: Vec<u64> = (0..97).collect();
        let out = par_map_mut_threads(4, &mut items, |i, x| {
            assert_eq!(i as u64, *x);
            *x += 100;
            *x
        });
        assert_eq!(out, (100..197).collect::<Vec<_>>());
        assert_eq!(items, (100..197).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_mut_is_worker_count_invariant() {
        let run = |threads| {
            let mut items: Vec<u64> = (0..31).collect();
            let out = par_map_mut_threads(threads, &mut items, |i, x| {
                *x = x.wrapping_mul(0x9e37_79b9).rotate_left(i as u32 % 13);
                *x
            });
            (items, out)
        };
        let reference = run(1);
        for threads in [2, 3, 16] {
            assert_eq!(run(threads), reference);
        }
    }

    #[test]
    fn par_map_mut_handles_empty_and_singleton() {
        let mut empty: Vec<u32> = vec![];
        assert!(par_map_mut_threads(8, &mut empty, |_, x| *x).is_empty());
        let mut one = vec![5u32];
        assert_eq!(par_map_mut_threads(8, &mut one, |_, x| *x + 1), vec![6]);
    }

    #[test]
    fn pool_metrics_record_when_enabled() {
        obs::set_enabled(true);
        let items: Vec<u64> = (0..100).collect();
        let _ = par_map_threads(4, &items, |_, &x| x + 1);
        obs::set_enabled(false);
        let snap = obs::snapshot();
        assert!(snap.counter("pool.items.executed").unwrap_or(0) >= 100);
        let chunks = snap.counter("pool.chunks").unwrap_or(0);
        assert!(chunks >= 1, "no chunks accounted");
        assert!(snap.hist("pool.chunk.items").is_some_and(|h| h.count >= 1));
    }

    #[test]
    fn guided_plan_covers_every_item_once_in_shrinking_chunks() {
        for len in [0, 1, 7, 60, 10_000] {
            for workers in [2, 3, 8] {
                let plan: Vec<Range<usize>> = guided(len, workers).collect();
                let at = format!("len {len}, {workers} workers");
                let mut next = 0;
                for chunk in &plan {
                    assert_eq!(chunk.start, next, "{at}: gap or overlap");
                    assert!(!chunk.is_empty(), "{at}: empty chunk");
                    next = chunk.end;
                }
                assert_eq!(next, len, "{at}: items left over");
                assert!(
                    plan.windows(2).all(|w| w[1].len() <= w[0].len()),
                    "{at}: a chunk grew"
                );
                let tail = plan.len() - len.min(2 * workers);
                assert!(
                    plan[tail..].iter().all(|c| c.len() == 1),
                    "{at}: the last items are not claimed one at a time"
                );
            }
        }
        // The 60-point Figure 4 grid on two workers.
        let sizes: Vec<usize> = guided(60, 2).map(|r| r.len()).collect();
        assert_eq!(sizes, [15, 11, 8, 6, 5, 3, 3, 2, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn skewed_work_is_shared() {
        // One pathologically slow item at index 0; the rest must still
        // complete promptly and in order. (Correctness check — the
        // benchmark's fig4 `pool.efficiency` measures the sharing.)
        let items: Vec<usize> = (0..64).collect();
        let out = par_map_threads(4, &items, |_, &x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }
}
