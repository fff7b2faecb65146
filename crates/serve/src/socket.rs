//! Length-prefixed Unix-socket protocol for out-of-process decision
//! queries.
//!
//! The wire format is deliberately tiny and version-free (the socket
//! path is the version boundary):
//!
//! ```text
//! request  := len:u32le  endpoint:u32le  x:u8  y:u8          (len = 6)
//! response := len:u32le  first:u32le  second:u32le
//!             seq:u64le  tier:u8                             (len = 17)
//! ```
//!
//! One connection carries any number of request/response exchanges in
//! order. `x`/`y` are the CHSH inputs (nonzero = type-C task); `tier`
//! and `seq` echo the consumed slot's provenance so a client can audit
//! which coordination tier answered.
//!
//! Both ends read a frame the same way: one `read` asks for the whole
//! frame, so a frame its peer wrote whole costs one receive, and a
//! round trip is one send and one receive on each side. A frame that
//! arrives torn is read piece by piece, the length prefix is checked as
//! soon as its four bytes are in, and no read asks for a byte past the
//! current frame.
//!
//! The server is a thin shell over [`Service`]: an accept loop plus one
//! handler thread per connection, at most [`MAX_CONNECTIONS`] at once,
//! each pinned to the endpoint named in its requests. The accept loop
//! blocks in `accept`, so a connection is taken the moment it arrives;
//! it owns its open connections and releases each one once its handler
//! exits. Shutdown drains gracefully.
//! The accept loop closes first: [`SocketServer::stop`] shuts down the
//! listening socket through a clone of it, and on Linux the blocked
//! `accept` then fails, a connection already queued is still accepted
//! once, and later connects are refused. Then each open connection's
//! *read* side is shut down, so a response in flight is still written
//! before the handler exits. A response write that makes no progress for
//! one second (a client that stopped reading) fails and closes that
//! connection, so shutdown never waits on such a client longer than that.

#![cfg(unix)]

use crate::decision::Placement;
use crate::service::Service;
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::fd::OwnedFd;
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Request payload length.
const REQ_LEN: u32 = 6;
/// Response payload length.
const RESP_LEN: u32 = 17;
/// Longest a response write may block before its connection is closed.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);
/// Most connections open at once. Each costs a handler thread and two
/// descriptors; the accept loop closes a connection past this bound at
/// once, without a handler, so a client storm cannot exhaust either.
pub const MAX_CONNECTIONS: usize = 256;

/// Reads one frame into `frame`, which is sized to the whole frame: the
/// `u32le` length prefix, which must equal `frame.len() - 4`, then the
/// payload. Each `read` asks for all of the frame still missing, and an
/// `Interrupted` one is retried. Returns `Ok(false)` on EOF before the
/// prefix is complete (the peer closed between frames) and
/// `UnexpectedEof` on EOF inside the payload.
fn read_frame(r: &mut impl Read, frame: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < frame.len() {
        match r.read(&mut frame[filled..]) {
            Ok(0) if filled < 4 => return Ok(false),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                if filled < 4 && filled + n >= 4 {
                    check_len(frame)?;
                }
                filled += n;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Fails unless `frame`'s length prefix names the rest of `frame`.
fn check_len(frame: &[u8]) -> io::Result<()> {
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
    let expect_len = (frame.len() - 4) as u32;
    if len != expect_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}, expected {expect_len}"),
        ));
    }
    Ok(())
}

fn write_response(stream: &mut UnixStream, p: Placement) -> io::Result<()> {
    let mut frame = [0u8; 4 + RESP_LEN as usize];
    frame[..4].copy_from_slice(&RESP_LEN.to_le_bytes());
    frame[4..8].copy_from_slice(&p.first.to_le_bytes());
    frame[8..12].copy_from_slice(&p.second.to_le_bytes());
    frame[12..20].copy_from_slice(&p.seq.to_le_bytes());
    frame[20] = p.tier;
    stream.write_all(&frame)
}

fn handle_connection(service: &Service, stream: &mut UnixStream) -> io::Result<()> {
    let n_endpoints = service.n_endpoints() as u32;
    let mut request = [0u8; 4 + REQ_LEN as usize];
    while read_frame(stream, &mut request)? {
        let endpoint = u32::from_le_bytes([request[4], request[5], request[6], request[7]]);
        if endpoint >= n_endpoints {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("endpoint {endpoint} out of range (< {n_endpoints})"),
            ));
        }
        let p = service.decide(endpoint as usize, request[8] != 0, request[9] != 0);
        write_response(stream, p)?;
    }
    Ok(())
}

/// A handler's stream, shut down when dropped: the peer sees the close
/// whether the handler returns or unwinds, although the accept loop
/// still holds a clone of the stream.
struct ShutdownOnDrop(UnixStream);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// An accepted connection: the accept loop's clone of its stream, kept
/// to shut the read side down at stop, and the thread serving it.
type Connection = (UnixStream, std::thread::JoinHandle<()>);

/// A serving Unix socket bound to a [`Service`].
pub struct SocketServer {
    path: PathBuf,
    /// The listening socket, cloned: shutting it down wakes the accept
    /// loop.
    listener: UnixStream,
    /// The accept loop; it returns the connections still open when it
    /// exits.
    accept: Option<std::thread::JoinHandle<Vec<Connection>>>,
}

impl SocketServer {
    /// Binds `path` and starts the accept loop over `service`. A stale
    /// socket file at `path` is replaced; any other file there is left
    /// alone, and the bind fails on it.
    pub fn start(path: impl AsRef<Path>, service: Arc<Service>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if std::fs::symlink_metadata(&path).is_ok_and(|m| m.file_type().is_socket()) {
            let _ = std::fs::remove_file(&path);
        }
        let listener = UnixListener::bind(&path)?;
        let clone = UnixStream::from(OwnedFd::from(listener.try_clone()?));
        let accept = std::thread::Builder::new()
            .name("qnlg-serve-accept".into())
            .spawn(move || accept_loop(&listener, &service))?;
        Ok(SocketServer {
            path,
            listener: clone,
            accept: Some(accept),
        })
    }

    /// The bound socket path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Graceful stop: close the accept loop, shut down the read side of
    /// every open connection (in-flight responses still get written),
    /// join all handler threads, and remove the socket file. A handler
    /// stuck writing to a client that stopped reading exits within
    /// `WRITE_TIMEOUT`. Idempotent.
    pub fn stop(&mut self) {
        let _ = self.listener.shutdown(Shutdown::Both);
        // Joined first, the accept loop can take no connection after the
        // ones it hands back here.
        if let Some(accept) = self.accept.take() {
            let open = accept.join().unwrap_or_default();
            for (stream, _) in &open {
                let _ = stream.shutdown(Shutdown::Read);
            }
            for (_, handler) in open {
                let _ = handler.join();
            }
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Accepts connections until `accept` fails, as it does once
/// [`SocketServer::stop`] shuts the listening socket down, serving each
/// on a handler thread of its own, and returns the connections still
/// open. Past [`MAX_CONNECTIONS`] open ones, a new connection is closed
/// unserved: its client reads EOF.
fn accept_loop(listener: &UnixListener, service: &Arc<Service>) -> Vec<Connection> {
    let mut open: Vec<Connection> = Vec::new();
    while let Ok((stream, _)) = listener.accept() {
        // Release the connections whose handlers have exited, so a long
        // run holds one fd per open connection, not per connection ever
        // accepted.
        for (_, handler) in open.extract_if(.., |(_, h)| h.is_finished()) {
            let _ = handler.join();
        }
        if open.len() >= MAX_CONNECTIONS {
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        // A connection that stop could not shut down would hang it, so
        // refuse it instead.
        let Ok(tracked) = stream.try_clone() else {
            continue;
        };
        let service = Arc::clone(service);
        let handler = std::thread::spawn(move || {
            // A protocol error, client disconnect or panic ends this
            // connection only, and the guard shuts it down: the accept
            // loop's clone would otherwise hold it open until the loop
            // next prunes.
            let mut stream = ShutdownOnDrop(stream);
            let _ = handle_connection(&service, &mut stream.0);
        });
        open.push((tracked, handler));
    }
    open
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A blocking client for the socket protocol.
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to a server socket.
    pub fn connect(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Client {
            stream: UnixStream::connect(path)?,
        })
    }

    /// Sends one placement query and waits for the decision. A server
    /// that closed the connection before responding (at stop, or past
    /// [`MAX_CONNECTIONS`]) fails it with `UnexpectedEof`.
    pub fn decide(&mut self, endpoint: u32, x: bool, y: bool) -> io::Result<Placement> {
        let mut frame = [0u8; 4 + REQ_LEN as usize];
        frame[..4].copy_from_slice(&REQ_LEN.to_le_bytes());
        frame[4..8].copy_from_slice(&endpoint.to_le_bytes());
        frame[8] = x as u8;
        frame[9] = y as u8;
        let mut response = [0u8; 4 + RESP_LEN as usize];
        let answered = self
            .stream
            .write_all(&frame)
            .and_then(|()| read_frame(&mut self.stream, &mut response));
        // A closed server fails the write, resets the read (the request
        // was left unread) or ends it, depending only on when it closed.
        let answered = answered.or_else(|e| match e.kind() {
            io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset => Ok(false),
            _ => Err(e),
        });
        if !answered? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before responding",
            ));
        }
        Ok(Placement {
            first: u32::from_le_bytes([response[4], response[5], response[6], response[7]]),
            second: u32::from_le_bytes([response[8], response[9], response[10], response[11]]),
            seq: u64::from_le_bytes(response[12..20].try_into().expect("seq bytes")),
            tier: response[20],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader over `data` that records the length of every buffer it
    /// is handed. Each `read` returns at most `chunk` bytes, and EOF once
    /// `data` is spent; the first `interrupts` calls fail with
    /// `Interrupted` instead.
    struct Scripted {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        interrupts: usize,
        asked: Vec<usize>,
    }

    impl Scripted {
        fn new(data: Vec<u8>, chunk: usize) -> Self {
            Scripted {
                data,
                pos: 0,
                chunk,
                interrupts: 0,
                asked: Vec::new(),
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.asked.push(buf.len());
            if self.interrupts > 0 {
                self.interrupts -= 1;
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A frame with length prefix `len` and the payload `fill`,
    /// `fill + 1`, … of `payload_len` bytes.
    fn frame(len: u32, payload_len: u32, fill: u8) -> Vec<u8> {
        let mut frame = len.to_le_bytes().to_vec();
        frame.extend((0..payload_len as u8).map(|i| fill + i));
        frame
    }

    fn request(fill: u8) -> Vec<u8> {
        frame(REQ_LEN, REQ_LEN, fill)
    }

    /// One `read_frame` call for a request, and the frame buffer after it.
    fn read_request(r: &mut Scripted) -> io::Result<(bool, Vec<u8>)> {
        let mut buf = [0u8; 4 + REQ_LEN as usize];
        read_frame(r, &mut buf).map(|more| (more, buf.to_vec()))
    }

    #[test]
    fn a_whole_frame_costs_one_read() {
        for len in [REQ_LEN, RESP_LEN] {
            let whole = frame(len, len, 1);
            let mut r = Scripted::new(whole.clone(), usize::MAX);
            let mut buf = vec![0u8; whole.len()];
            assert!(read_frame(&mut r, &mut buf).unwrap());
            assert_eq!(buf, whole);
            assert_eq!(r.asked, [whole.len()], "{len}-byte payload");
        }
    }

    #[test]
    fn a_frame_torn_into_single_bytes_parses_the_same() {
        let mut r = Scripted::new(request(1), 1);
        r.interrupts = 2;
        assert_eq!(read_request(&mut r).unwrap(), (true, request(1)));
        assert_eq!(r.asked.len(), 2 + request(1).len());
    }

    #[test]
    fn back_to_back_frames_are_read_one_per_call_and_never_past_the_frame() {
        let both = [request(1), request(100)].concat();
        for (chunk, asked) in [
            (usize::MAX, vec![10, 10]),
            (3, vec![10, 7, 4, 1, 10, 7, 4, 1]),
        ] {
            let mut r = Scripted::new(both.clone(), chunk);
            assert_eq!(read_request(&mut r).unwrap(), (true, request(1)));
            assert_eq!(read_request(&mut r).unwrap(), (true, request(100)));
            assert_eq!(r.asked, asked, "chunk {chunk}");
            assert!(!read_request(&mut r).unwrap().0, "EOF between frames");
        }
    }

    #[test]
    fn a_bad_prefix_fails_with_no_read_after_its_fourth_byte() {
        for (chunk, reads) in [(1, 4), (usize::MAX, 1)] {
            let mut r = Scripted::new(frame(REQ_LEN + 1, REQ_LEN, 1), chunk);
            let err = read_request(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(r.asked.len(), reads, "chunk {chunk}");
        }
    }

    #[test]
    fn eof_inside_the_prefix_ends_cleanly_and_inside_the_payload_fails() {
        let whole = request(1);
        for cut in 0..whole.len() {
            let mut r = Scripted::new(whole[..cut].to_vec(), 1);
            match read_request(&mut r) {
                Ok((more, _)) => assert!(cut < 4 && !more, "cut {cut}"),
                Err(e) => assert!(
                    cut >= 4 && e.kind() == io::ErrorKind::UnexpectedEof,
                    "cut {cut}: {e}"
                ),
            }
        }
    }

    #[test]
    fn a_handler_that_unwinds_closes_its_connection() {
        let (stream, mut peer) = UnixStream::pair().unwrap();
        // Stands in for the accept loop's clone, which outlives the handler.
        let tracked = stream.try_clone().unwrap();
        let unwound = std::panic::catch_unwind(move || {
            let _stream = ShutdownOnDrop(stream);
            panic!("handler panicked");
        });
        assert!(unwound.is_err());
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut byte = [0u8; 1];
        let read = peer.read(&mut byte);
        assert_eq!(read.expect("EOF within the deadline"), 0);
        drop(tracked);
    }
}
