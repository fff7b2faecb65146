//! End-to-end service tests: governor behaviour under faults, and the
//! Unix-socket protocol round trip.

use qnet::{FaultKind, FaultPlan, LinkSide, SimTime};
use serve::{ServeConfig, Service, ServiceCore, TIER_QUANTUM};
use std::sync::Arc;
use std::time::Duration;

fn base_config(seed: u64) -> ServeConfig {
    ServeConfig {
        n_servers: 32,
        n_endpoints: 2,
        ring_capacity: 512,
        low_water: 128,
        refill_batch: 256,
        ..ServeConfig::typical(seed)
    }
}

#[test]
fn fault_soak_trips_the_governor_and_recovers() {
    // A long outage on both links starves the plane: produced slots must
    // degrade to the classical tier, then return to quantum after the
    // fault clears.
    let mut config = base_config(21);
    config.distributor.faults = FaultPlan::periodic(
        FaultKind::LinkOutage(LinkSide::Both),
        SimTime::from_micros(2_000),
        Duration::from_micros(40_000),
        Duration::from_micros(8_000),
        SimTime::from_micros(120_000),
    );
    let mut core = ServiceCore::new(&config);
    let mut tiers_seen = [false; 3];
    // 6000 decisions × 20 µs sim period = 120 ms of sim time, spanning
    // three outage windows.
    for i in 0..6_000u64 {
        core.pump_all();
        let p = core.decide(0, i % 2 == 0, i % 3 == 0);
        tiers_seen[(p.tier as usize).min(2)] = true;
    }
    let summary = core.finish();
    assert!(
        summary.feeds.transitions > 0,
        "outages must trip the governor"
    );
    assert!(tiers_seen[0], "healthy windows must serve quantum");
    assert!(
        tiers_seen[1] || tiers_seen[2],
        "outage windows must serve degraded tiers"
    );
    assert!(summary.feeds.misses > 0, "outages must cause misses");
}

#[cfg(unix)]
#[test]
fn socket_round_trip_matches_in_process_decisions() {
    use serve::socket::{Client, SocketServer};

    let config = base_config(33);
    // Reference: the same seed through the single-threaded core.
    let mut reference = ServiceCore::new(&config);
    reference.fill_all();

    let service = Arc::new(Service::start(&config));
    let path = std::env::temp_dir().join(format!("qnlg-serve-test-{}.sock", std::process::id()));
    let mut server = SocketServer::start(&path, Arc::clone(&service)).expect("bind socket");

    let mut client = Client::connect(&path).expect("connect");
    for i in 0..200u64 {
        let (x, y) = (i % 2 == 0, i % 3 == 0);
        let got = client.decide(0, x, y).expect("socket decision");
        let want = reference.decide(0, x, y);
        assert_eq!(got, want, "socket decision {i} diverged from in-process");
        assert!(got.first < 32 && got.second < 32);
    }

    // Out-of-range endpoints close the connection with an error, not a
    // bogus decision.
    let mut bad = Client::connect(&path).expect("connect");
    assert!(bad.decide(99, false, false).is_err());

    // Concurrent clients on distinct endpoints don't interfere.
    let path2 = path.clone();
    let other = std::thread::spawn(move || {
        let mut c = Client::connect(&path2).expect("connect");
        for i in 0..200u64 {
            let p = c.decide(1, i % 2 == 0, false).expect("socket decision");
            assert!(p.first < 32 && p.second < 32);
        }
    });
    for i in 0..100u64 {
        let p = client
            .decide(0, false, i % 2 == 0)
            .expect("socket decision");
        assert!(p.first < 32 && p.second < 32);
    }
    other.join().unwrap();

    // Graceful stop: drains handlers and removes the socket file.
    server.stop();
    assert!(!path.exists(), "socket file must be removed on stop");
    drop(client);
}

#[cfg(unix)]
#[test]
fn stop_returns_while_a_client_has_stopped_reading() {
    use serve::socket::SocketServer;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc;

    let service = Arc::new(Service::start(&base_config(44)));
    let path = std::env::temp_dir().join(format!("qnlg-serve-stall-{}.sock", std::process::id()));
    let mut server = SocketServer::start(&path, service).expect("bind socket");

    // Pipeline well-formed requests and never read a response, until a
    // write makes no progress for 200 ms: the replies have filled the
    // socket buffers, so the handler is blocked writing and has stopped
    // reading.
    let mut client = UnixStream::connect(&path).expect("connect");
    client
        .set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut request = [0u8; 10];
    request[..4].copy_from_slice(&6u32.to_le_bytes());
    while client.write_all(&request).is_ok() {}

    let (stopped, done) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.stop();
        let _ = stopped.send(());
    });
    let waited = done.recv_timeout(Duration::from_secs(20));
    // Closing the client unblocks a hung handler, so a failure here
    // does not leave the stopper running.
    drop(client);
    assert!(
        waited.is_ok(),
        "stop() hung on a client that stopped reading"
    );
    stopper.join().unwrap();
    assert!(!path.exists(), "socket file must be removed on stop");
}

#[cfg(unix)]
#[test]
fn torn_requests_are_answered_and_a_lone_bad_prefix_closes_at_once() {
    use serve::socket::SocketServer;
    use std::io::{Read, Write};
    use std::net::Shutdown;
    use std::os::unix::net::UnixStream;

    let service = Arc::new(Service::start(&base_config(66)));
    let path = std::env::temp_dir().join(format!("qnlg-serve-torn-{}.sock", std::process::id()));
    let mut server = SocketServer::start(&path, service).expect("bind socket");
    // A healthy exchange takes well under a millisecond.
    let connect = || {
        let conn = UnixStream::connect(&path).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn
    };
    let mut request = [0u8; 10];
    request[..4].copy_from_slice(&6u32.to_le_bytes());
    request[4..8].copy_from_slice(&1u32.to_le_bytes());
    request[8] = 1;

    // The prefix, then the payload; and the prefix itself split 2 + 2.
    // Each piece is written 20 ms after the last, so the server reads
    // it on its own.
    for cuts in [&[4, 10][..], &[2, 4, 10]] {
        let mut conn = connect();
        let mut start = 0;
        for &end in cuts {
            std::thread::sleep(Duration::from_millis(20));
            conn.write_all(&request[start..end]).unwrap();
            start = end;
        }
        conn.shutdown(Shutdown::Write).unwrap();
        let mut answers = Vec::new();
        conn.read_to_end(&mut answers)
            .expect("an answer and a close within the deadline");
        assert_eq!(answers.len(), 21, "one answer to {cuts:?}");
        assert_eq!(answers[..4], 17u32.to_le_bytes());
        let word = |i: usize| u32::from_le_bytes(answers[i..i + 4].try_into().unwrap());
        assert!(word(4) < 32 && word(8) < 32, "servers out of range");
        assert!(answers[20] <= 2, "tier byte {}", answers[20]);
    }

    // A bad prefix alone, with the write side left open: the server
    // must close on the prefix, not wait for a whole request's bytes.
    let mut conn = connect();
    conn.write_all(&7u32.to_le_bytes()).unwrap();
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest)
        .expect("a close within the deadline");
    assert!(rest.is_empty(), "no answer to a bad prefix");
    server.stop();
}

#[cfg(unix)]
#[test]
fn start_replaces_a_stale_socket_but_no_other_file() {
    use serve::socket::{Client, SocketServer};
    use std::os::unix::net::UnixListener;

    let service = Arc::new(Service::start(&base_config(45)));
    let pid = std::process::id();
    let file = std::env::temp_dir().join(format!("qnlg-serve-regular-{pid}.sock"));
    std::fs::write(&file, b"not a socket").unwrap();
    assert!(
        SocketServer::start(&file, Arc::clone(&service)).is_err(),
        "binding over a regular file must fail"
    );
    let kept = std::fs::read(&file).expect("the regular file is still there");
    std::fs::remove_file(&file).unwrap();
    assert_eq!(kept, b"not a socket", "the regular file was changed");

    // A listener dropped without unlinking leaves its socket file behind.
    let stale = std::env::temp_dir().join(format!("qnlg-serve-stale-{pid}.sock"));
    let _ = std::fs::remove_file(&stale);
    drop(UnixListener::bind(&stale).expect("bind the stale listener"));
    assert!(stale.exists(), "the stale socket file is left behind");
    let mut server = SocketServer::start(&stale, service).expect("replace the stale socket");
    let mut client = Client::connect(&stale).expect("connect");
    assert!(client.decide(1, true, true).expect("decide").first < 32);
    server.stop();
    assert!(!stale.exists(), "socket file must be removed on stop");
}

#[test]
fn healthy_plane_serves_quantum_overwhelmingly() {
    let mut core = ServiceCore::new(&base_config(55));
    core.fill_all();
    let mut quantum = 0u64;
    let n = 400u64;
    for i in 0..n {
        let p = core.decide(1, i % 2 == 0, i % 5 == 0);
        quantum += u64::from(p.tier == TIER_QUANTUM);
    }
    assert!(
        quantum as f64 / n as f64 > 0.9,
        "healthy plane served only {quantum}/{n} quantum decisions"
    );
}

#[test]
fn soak_interrupted_midway_still_yields_complete_summary() {
    // The SIGINT path in `repro serve --soak` reduces to this: stop
    // consuming at an arbitrary point, shut down, and the summary must
    // still be internally consistent (counters balanced, flush done).
    let mut svc = Service::start(&base_config(88));
    for i in 0..137 {
        svc.decide(i % 2, false, true);
    }
    let s = svc.shutdown();
    assert_eq!(s.endpoints.decisions, 137);
    let consumed: u64 = s.endpoints.by_tier.iter().sum();
    assert_eq!(consumed, 137, "every decision must be tier-accounted");
}
