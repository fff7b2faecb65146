//! Framing property test for the Unix-socket protocol: arbitrary byte
//! streams and truncated valid frames, each written on a connection of
//! its own and followed by a write-side shutdown. The server must answer
//! exactly the leading well-formed, in-range requests and then close
//! that connection — never panic, never hang — while a well-formed
//! client on the same server keeps getting answers between cases.

#![cfg(unix)]

use proptest::prelude::*;
use serve::socket::SocketServer;
use serve::{ServeConfig, Service};
use std::io::{ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const N_ENDPOINTS: u32 = 2;
const N_SERVERS: u32 = 32;
const FRAME: usize = 10;
const ANSWER: usize = 21;
/// Longest wait for an answer or a close. A healthy exchange takes well
/// under a millisecond, even in a debug build on a loaded host.
const DEADLINE: Duration = Duration::from_secs(10);

/// Panics on any thread of this binary, server handlers included.
static PANICS: AtomicUsize = AtomicUsize::new(0);

/// One server for every case, and the well-formed client that must keep
/// getting answers. Dropped (server stopped, socket file removed) when
/// the test thread exits.
struct Fixture {
    path: PathBuf,
    steady: UnixStream,
    _server: SocketServer,
}

impl Fixture {
    fn start() -> Self {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            hook(info);
        }));
        let config = ServeConfig {
            n_servers: N_SERVERS,
            n_endpoints: N_ENDPOINTS,
            ring_capacity: 512,
            low_water: 128,
            refill_batch: 256,
            ..ServeConfig::typical(61)
        };
        let path =
            std::env::temp_dir().join(format!("qnlg-serve-framing-{}.sock", std::process::id()));
        let server =
            SocketServer::start(&path, Arc::new(Service::start(&config))).expect("bind socket");
        let steady = connect(&path);
        Fixture {
            path,
            steady,
            _server: server,
        }
    }
}

thread_local! {
    static FIXTURE: Fixture = Fixture::start();
}

fn connect(path: &PathBuf) -> UnixStream {
    let stream = UnixStream::connect(path).expect("connect");
    stream.set_read_timeout(Some(DEADLINE)).unwrap();
    stream
}

/// A request frame with length prefix `len` (6 is the only valid one).
fn frame(len: u32, endpoint: u32, x: bool, y: bool) -> [u8; FRAME] {
    let mut frame = [0u8; FRAME];
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..8].copy_from_slice(&endpoint.to_le_bytes());
    frame[8] = x as u8;
    frame[9] = y as u8;
    frame
}

/// Requests the server must answer: the leading complete frames whose
/// length prefix is 6 and whose endpoint is in range.
fn expected_answers(bytes: &[u8]) -> usize {
    bytes
        .chunks(FRAME)
        .take_while(|f| {
            f.len() == FRAME
                && f[..4] == 6u32.to_le_bytes()
                && u32::from_le_bytes([f[4], f[5], f[6], f[7]]) < N_ENDPOINTS
        })
        .count()
}

fn assert_well_formed(answer: &[u8]) {
    let word =
        |i: usize| u32::from_le_bytes([answer[i], answer[i + 1], answer[i + 2], answer[i + 3]]);
    assert_eq!(word(0), 17, "response length prefix");
    assert!(
        word(4) < N_SERVERS && word(8) < N_SERVERS,
        "servers out of range"
    );
    assert!(answer[20] <= 2, "tier byte {}", answer[20]);
}

/// Arbitrary bytes, or one to four frames cut at an arbitrary point. A
/// frame's length prefix is 6 three times in four and otherwise
/// anything below 16; endpoint 2 is out of range.
fn streams() -> impl Strategy<Value = Vec<u8>> {
    let len = prop_oneof![Just(6u32), Just(6u32), Just(6u32), 0u32..16];
    let frames = proptest::collection::vec((len, 0u32..3, any::<bool>(), any::<bool>()), 1..5);
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64),
        (frames, 0usize..64).prop_map(|(frames, cut)| {
            let mut bytes: Vec<u8> = frames
                .iter()
                .flat_map(|&(len, e, x, y)| frame(len, e, x, y))
                .collect();
            bytes.truncate(cut % (bytes.len() + 1));
            bytes
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn each_stream_gets_its_leading_answers_then_a_close(bytes in streams()) {
        FIXTURE.with(|fixture| {
            let mut conn = connect(&fixture.path);
            conn.write_all(&bytes).expect("a short stream fits the socket buffer");
            conn.shutdown(Shutdown::Write).unwrap();
            let mut answers = Vec::new();
            match conn.read_to_end(&mut answers) {
                Ok(_) => {}
                // Closed with the rest of the stream unread.
                Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
                Err(e) => panic!("no answer or close within {DEADLINE:?}: {e}"),
            }
            prop_assert_eq!(answers.len(), ANSWER * expected_answers(&bytes), "{:?}", bytes);
            answers.chunks(ANSWER).for_each(assert_well_formed);

            let mut steady = &fixture.steady;
            steady.write_all(&frame(6, 1, true, false)).unwrap();
            let mut answer = [0u8; ANSWER];
            steady.read_exact(&mut answer).expect("the well-formed client is still served");
            assert_well_formed(&answer);
            prop_assert_eq!(PANICS.load(Ordering::SeqCst), 0, "a thread panicked");
        });
    }
}
