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
//! The server is a thin shell over [`Service`]: an accept loop plus one
//! handler thread per connection, each pinned to the endpoint named in
//! its requests. The accept loop owns its open connections and releases
//! each one once its handler exits. Shutdown drains gracefully — the
//! accept loop closes first, then each open connection's *read* side is
//! shut down, so a response in flight is still written before the
//! handler exits. A response write that makes no progress for one
//! second (a client that stopped reading) fails and closes that
//! connection, so shutdown never waits on such a client longer than that.

#![cfg(unix)]

use crate::decision::Placement;
use crate::service::Service;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Request payload length.
const REQ_LEN: u32 = 6;
/// Response payload length.
const RESP_LEN: u32 = 17;
/// Longest a response write may block before its connection is closed.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

fn read_frame(stream: &mut UnixStream, expect_len: u32, buf: &mut [u8]) -> io::Result<bool> {
    let mut len_bytes = [0u8; 4];
    match stream.read_exact(&mut len_bytes) {
        Ok(()) => {}
        // Clean EOF between frames ends the connection.
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len != expect_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}, expected {expect_len}"),
        ));
    }
    stream.read_exact(&mut buf[..len as usize])?;
    Ok(true)
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
    let mut payload = [0u8; REQ_LEN as usize];
    while read_frame(stream, REQ_LEN, &mut payload)? {
        let endpoint = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
        if endpoint >= n_endpoints {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("endpoint {endpoint} out of range (< {n_endpoints})"),
            ));
        }
        let p = service.decide(endpoint as usize, payload[4] != 0, payload[5] != 0);
        write_response(stream, p)?;
    }
    Ok(())
}

/// An accepted connection: the accept loop's clone of its stream, kept
/// to shut the read side down at stop, and the thread serving it.
type Connection = (UnixStream, std::thread::JoinHandle<()>);

/// A serving Unix socket bound to a [`Service`].
pub struct SocketServer {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    /// The accept loop; it returns the connections still open when it
    /// exits.
    accept: Option<std::thread::JoinHandle<Vec<Connection>>>,
}

impl SocketServer {
    /// Binds `path` (replacing any stale socket file) and starts the
    /// accept loop over `service`.
    pub fn start(path: impl AsRef<Path>, service: Arc<Service>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("qnlg-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_stop, &service))?;
        Ok(SocketServer {
            path,
            stop,
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
        self.stop.store(true, Ordering::Release);
        // Joined first, the accept loop can take no connection after the
        // ones it hands back here.
        if let Some(accept) = self.accept.take() {
            let open = accept.join().unwrap_or_default();
            for (stream, _) in &open {
                let _ = stream.shutdown(std::net::Shutdown::Read);
            }
            for (_, handler) in open {
                let _ = handler.join();
            }
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Accepts connections until `stop` is set, serving each on a handler
/// thread of its own, and returns the connections still open.
fn accept_loop(
    listener: &UnixListener,
    stop: &AtomicBool,
    service: &Arc<Service>,
) -> Vec<Connection> {
    let mut open: Vec<Connection> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Release the connections whose handlers have exited, so
                // a long run holds one fd per open connection, not per
                // connection ever accepted.
                for (_, handler) in open.extract_if(.., |(_, h)| h.is_finished()) {
                    let _ = handler.join();
                }
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                // A connection that stop could not shut down would hang
                // it, so refuse it instead.
                let Ok(tracked) = stream.try_clone() else {
                    continue;
                };
                let service = Arc::clone(service);
                let handler = std::thread::spawn(move || {
                    let mut stream = stream;
                    // A protocol error or client disconnect ends this
                    // connection only. Shut the socket down explicitly:
                    // the accept loop's clone would otherwise hold it
                    // open until the loop next prunes.
                    let _ = handle_connection(&service, &mut stream);
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                });
                open.push((tracked, handler));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
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

    /// Sends one placement query and waits for the decision.
    pub fn decide(&mut self, endpoint: u32, x: bool, y: bool) -> io::Result<Placement> {
        let mut frame = [0u8; 4 + REQ_LEN as usize];
        frame[..4].copy_from_slice(&REQ_LEN.to_le_bytes());
        frame[4..8].copy_from_slice(&endpoint.to_le_bytes());
        frame[8] = x as u8;
        frame[9] = y as u8;
        self.stream.write_all(&frame)?;
        let mut payload = [0u8; RESP_LEN as usize];
        if !read_frame(&mut self.stream, RESP_LEN, &mut payload)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before responding",
            ));
        }
        Ok(Placement {
            first: u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]),
            second: u32::from_le_bytes([payload[4], payload[5], payload[6], payload[7]]),
            seq: u64::from_le_bytes(payload[8..16].try_into().expect("seq bytes")),
            tier: payload[16],
        })
    }
}
