//! The socket server's connection bound: with `MAX_CONNECTIONS`
//! connections open, the next one is closed unserved, an admitted one is
//! still answered, and once an admitted one closes a new one is admitted
//! again. The test holds the bound's worth of connections open, so it is
//! the only test in its binary.

#![cfg(target_os = "linux")]

use serve::socket::{Client, SocketServer, MAX_CONNECTIONS};
use serve::{ServeConfig, Service};
use std::io::{ErrorKind, Read};
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Whole-test deadline: a hung accept loop or `stop()` fails here instead
/// of wedging the run. A healthy run takes well under a second.
const DEADLINE: Duration = Duration::from_secs(60);

fn refuse_past_the_bound_then_admit_again() {
    let config = ServeConfig {
        n_servers: 32,
        n_endpoints: 2,
        ring_capacity: 512,
        low_water: 128,
        refill_batch: 256,
        ..ServeConfig::typical(23)
    };
    let service = Arc::new(Service::start(&config));
    let path = std::env::temp_dir().join(format!("qnlg-serve-bound-{}.sock", std::process::id()));
    let mut server = SocketServer::start(&path, service).expect("bind socket");

    // The bound's worth of open connections: one that decides, the rest
    // idle, their handlers blocked in a read.
    let mut admitted = Client::connect(&path).expect("connect");
    assert!(admitted.decide(0, true, false).expect("admitted").first < 32);
    let mut idle: Vec<UnixStream> = (1..MAX_CONNECTIONS)
        .map(|_| UnixStream::connect(&path).expect("connect"))
        .collect();

    // One more is closed unserved: it reads EOF, and a decision on such
    // a connection fails as a server that closed before responding.
    let mut refused = UnixStream::connect(&path).expect("connect");
    let mut byte = [0u8; 1];
    assert_eq!(refused.read(&mut byte).expect("EOF, not an error"), 0);
    let mut client = Client::connect(&path).expect("connect");
    let err = client.decide(1, false, true).expect_err("refused");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");

    // The admitted connection is still answered.
    assert!(admitted.decide(1, true, true).expect("still served").first < 32);

    // Once one admitted connection closes, its slot admits a new one; the
    // accept loop releases it when the next connection arrives, so poll.
    drop(idle.pop());
    let start = Instant::now();
    loop {
        let mut client = Client::connect(&path).expect("connect");
        if let Ok(p) = client.decide(0, false, false) {
            assert!(p.first < 32);
            break;
        }
        assert!(
            start.elapsed() < DEADLINE,
            "no slot freed within {DEADLINE:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    server.stop();
}

#[test]
fn past_the_bound_a_connection_is_closed_unserved() {
    let (done, finished) = mpsc::channel();
    let run = std::thread::spawn(move || {
        refuse_past_the_bound_then_admit_again();
        let _ = done.send(());
    });
    match finished.recv_timeout(DEADLINE) {
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("connection bound test did not finish within {DEADLINE:?}: hung")
        }
        _ => {
            if let Err(panic) = run.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}
