//! Stress battery for the sweep pool: ten thousand small maps across
//! thread counts, with a yield in every item so that workers run dry
//! together as often as the scheduler allows. A progress watchdog turns
//! a hang into a failure instead of a wedged test run.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

const CALLS: usize = 10_000;
const THREADS: [usize; 5] = [2, 3, 4, 8, 16];
/// Longest wait for one call to finish. A healthy call takes well
/// under a millisecond, even in a debug build on a loaded two-core host.
const STALL: Duration = Duration::from_secs(20);

#[test]
fn ten_thousand_maps_never_hang() {
    let (progress, calls) = mpsc::channel();
    let stress = std::thread::spawn(move || {
        let items: Vec<u64> = (0..64).collect();
        let expect: Vec<u64> = items.iter().map(|x| 3 * x + 1).collect();
        for (call, &threads) in THREADS.iter().cycle().take(CALLS).enumerate() {
            let out = runtime::par_map_threads(threads, &items, |i, &x| {
                std::thread::yield_now();
                assert_eq!(i as u64, x);
                3 * x + 1
            });
            assert_eq!(out, expect, "call {call}, {threads} threads");
            if call % 4 == 0 {
                let mut shards = items.clone();
                let out = runtime::par_map_mut_threads(threads, &mut shards, |i, x| {
                    std::thread::yield_now();
                    assert_eq!(i as u64, *x);
                    *x = 3 * *x + 1;
                    *x
                });
                assert_eq!(out, expect, "mut call {call}, {threads} threads");
                assert_eq!(shards, expect, "mut call {call} items");
            }
            progress.send(()).expect("watchdog alive");
        }
    });
    let mut completed = 0;
    loop {
        match calls.recv_timeout(STALL) {
            Ok(()) => completed += 1,
            // The loop ended, by finishing or by a failed assertion.
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                panic!("no pool call finished within {STALL:?} after {completed} calls: hung")
            }
        }
    }
    if let Err(panic) = stress.join() {
        std::panic::resume_unwind(panic);
    }
    assert_eq!(completed, CALLS);
}
