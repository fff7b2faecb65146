//! Client churn against the Unix-socket server: connections that come
//! and go must not leak descriptors, and `stop()` must return while a
//! client keeps opening connections. The test counts this process's open
//! descriptors, so it is the only test in its binary.

#![cfg(target_os = "linux")]

use serve::socket::{Client, SocketServer};
use serve::{ServeConfig, Service};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Connect/decide/disconnect cycles in the churn phase.
const CYCLES: u64 = 500;
/// Cap on the idle connections the second phase's client holds open.
const MAX_IDLE: usize = 512;
/// Whole-test deadline: a hung `stop()` fails here instead of wedging
/// the run. A healthy run takes a second or two.
const DEADLINE: Duration = Duration::from_secs(60);

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

fn churn_then_stop_mid_flight() {
    let config = ServeConfig {
        n_servers: 32,
        n_endpoints: 2,
        ring_capacity: 512,
        low_water: 128,
        refill_batch: 256,
        ..ServeConfig::typical(91)
    };
    let service = Arc::new(Service::start(&config));
    let path = std::env::temp_dir().join(format!("qnlg-serve-churn-{}.sock", std::process::id()));
    let mut server = SocketServer::start(&path, service).expect("bind socket");

    let start = open_fds();
    for i in 0..CYCLES {
        let mut client = Client::connect(&path).expect("connect");
        let p = client.decide((i % 2) as u32, i % 3 == 0, i % 5 == 0);
        assert!(p.expect("socket decision").first < 32);
    }
    let churned = open_fds();
    assert!(
        churned <= start + 4,
        "open fds grew from {start} to {churned} over {CYCLES} closed connections"
    );

    // Stop while a client keeps opening connections that never send a
    // request, so their handlers sit blocked in a read.
    let churning = Arc::new(AtomicBool::new(true));
    let (opened, connects) = mpsc::channel();
    let client = {
        let (churning, path) = (Arc::clone(&churning), path.clone());
        std::thread::spawn(move || {
            let mut idle = Vec::new();
            while churning.load(Ordering::Acquire) {
                match UnixStream::connect(&path) {
                    Ok(stream) if idle.len() < MAX_IDLE => {
                        idle.push(stream);
                        let _ = opened.send(());
                    }
                    _ => std::thread::yield_now(),
                }
            }
        })
    };
    for _ in 0..16 {
        connects.recv().expect("client opens connections");
    }
    server.stop();
    churning.store(false, Ordering::Release);
    client.join().expect("client thread");
    assert!(!path.exists(), "socket file must be removed on stop");
    let stopped = open_fds();
    assert!(
        stopped <= start,
        "stop left {stopped} fds open, {start} before the first connection"
    );
}

#[test]
fn churn_leaks_no_fds_and_stop_returns_mid_flight() {
    let (done, finished) = mpsc::channel();
    let run = std::thread::spawn(move || {
        churn_then_stop_mid_flight();
        let _ = done.send(());
    });
    match finished.recv_timeout(DEADLINE) {
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("socket churn did not finish within {DEADLINE:?}: hung")
        }
        _ => {
            if let Err(panic) = run.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}
