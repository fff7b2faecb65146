//! Connect latency of the socket server. The accept loop blocks in
//! `accept`, so a client that connects after a pause is served at once
//! rather than at the loop's next poll. The test times wall-clock
//! latency, so it is the only test in its binary: no other test loads
//! the CPU while it measures.

#![cfg(target_os = "linux")]

use serve::socket::{Client, SocketServer};
use serve::{ServeConfig, Service};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds of `CONNECTS` timed connects.
const ROUNDS: usize = 3;
/// Connects timed per round, each after `PAUSE`.
const CONNECTS: usize = 31;
/// Idle time before each connect: long enough for a polling accept loop
/// to be asleep when the client arrives.
const PAUSE: Duration = Duration::from_millis(2);
/// Bound on a round's median connect + first decision. A debug build
/// reads about 0.3–0.4 ms on a 2-vCPU host; an accept loop that sleeps
/// 1 ms between polls reads about 1.3 ms in every round. The best of the
/// rounds is checked, so one round slowed by a busy host does not fail
/// the test.
const BOUND: Duration = Duration::from_micros(600);

#[test]
fn a_connection_after_a_pause_is_accepted_at_once() {
    let config = ServeConfig {
        n_servers: 32,
        n_endpoints: 2,
        ring_capacity: 512,
        low_water: 128,
        refill_batch: 256,
        ..ServeConfig::typical(17)
    };
    let service = Arc::new(Service::start(&config));
    let path = std::env::temp_dir().join(format!("qnlg-serve-connect-{}.sock", std::process::id()));
    let mut server = SocketServer::start(&path, service).expect("bind socket");

    let medians: Vec<Duration> = (0..ROUNDS)
        .map(|_| {
            let mut took: Vec<Duration> = (0..CONNECTS)
                .map(|i| {
                    std::thread::sleep(PAUSE);
                    let start = Instant::now();
                    let mut client = Client::connect(&path).expect("connect");
                    let p = client.decide((i % 2) as u32, i % 3 == 0, i % 5 == 0);
                    assert!(p.expect("socket decision").first < 32);
                    start.elapsed()
                })
                .collect();
            took.sort_unstable();
            took[CONNECTS / 2]
        })
        .collect();
    server.stop();
    let best = *medians.iter().min().expect("at least one round");
    assert!(
        best < BOUND,
        "median connect + first decision per round {medians:?} (bound {BOUND:?})"
    );
}
