//! The host's pace: how fast this machine runs right now, read from a
//! fixed reference kernel, so that time metrics can be stated at a
//! nominal host speed.
//!
//! On a shared host, other tenants slow this benchmark by 30–60 % for
//! stretches of seconds to minutes, mostly by contending for the caches
//! the served path and the simulator live in. A run that falls in such a
//! stretch measures the neighbours, not the program. A reference kernel
//! that is slowed by the same contention, and by nothing the program
//! under test does, gives
//!
//! ```text
//! slowdown = reference kernel time now / its nominal time
//! ```
//!
//! a reading of the host alone. There are two kernels ([`Kernel`]):
//! compute over a cache-resident table, which paces the in-process
//! workloads, and Unix-socket system calls, which with the first paces
//! the socket workload: its round trips are system calls around the
//! service's compute. The workloads read
//! the slowdown between their timed windows (a window is tens of
//! milliseconds; a reading under a millisecond) and divide each window's
//! wall time by the mean of the readings on either side of it. The
//! end-to-end time metrics are built from these host-normalised times;
//! the per-layer metrics stay raw wall clock.
//!
//! Also here: pinning threads to CPUs, for the socket workload.

use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// Table entries of the memory kernel: 256 KiB, L2-resident when the
/// host is quiet.
const TABLE_LEN: usize = 1 << 15;
/// Untimed memory-kernel iterations that bring the table back into cache
/// after the workload's window.
const WARM_ITERS: u64 = 16_384;
/// Timed memory-kernel iterations per reading (about 0.3 ms).
const TIMED_ITERS: u64 = 100_000;
/// Timed system-call round trips per reading (about 0.3 ms).
const SYSCALL_ITERS: u64 = 256;
/// Bytes per system-call round trip: a request frame of the socket
/// protocol.
const FRAME: usize = 10;

/// Time of one timed memory-kernel pass on the reference host (2-vCPU
/// KVM guest on a Xeon Sapphire Rapids) when no other tenant contends:
/// about the 5th percentile of its readings over several minutes.
const MEMORY_NOMINAL_NS: f64 = 270_000.0;
/// The same for one timed system-call pass.
const SYSCALL_NOMINAL_NS: f64 = 256_000.0;

/// What the host's pace is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The memory kernel: random read-modify-writes over a 256 KiB
    /// table, with SplitMix64 and a floating-point chain between them.
    Compute,
    /// The geometric mean of the memory kernel's slowdown and the
    /// system-call kernel's: request-sized writes into one end of a Unix
    /// socket pair, each read back from the other end on the same thread.
    Socket,
}

/// Reads the host's pace.
pub struct Pace {
    table: Vec<u64>,
    state: u64,
    /// The socket pair of the system-call kernel, when it is used.
    pair: Option<(UnixStream, UnixStream)>,
    /// The last reading, for the window that follows it.
    last: f64,
}

impl Pace {
    /// A pace reader with its first reading taken.
    pub fn new(kernel: Kernel) -> Self {
        let pair = (kernel == Kernel::Socket)
            .then(|| UnixStream::pair().expect("a Unix socket pair can be opened"));
        let mut pace = Pace {
            table: vec![0; TABLE_LEN],
            state: 0x5EED,
            pair,
            last: 1.0,
        };
        pace.read();
        pace
    }

    /// The host's slowdown now: reference kernel time over its nominal
    /// time (about 1 on a quiet reference host, larger when contended).
    pub fn read(&mut self) -> f64 {
        self.memory(WARM_ITERS);
        let t = Instant::now();
        self.memory(TIMED_ITERS);
        let memory = t.elapsed().as_nanos() as f64 / MEMORY_NOMINAL_NS;
        self.last = if self.pair.is_some() {
            self.syscalls(SYSCALL_ITERS / 8);
            let t = Instant::now();
            self.syscalls(SYSCALL_ITERS);
            let syscall = t.elapsed().as_nanos() as f64 / SYSCALL_NOMINAL_NS;
            (memory * syscall).sqrt()
        } else {
            memory
        };
        self.last
    }

    /// The last reading.
    pub fn last(&self) -> f64 {
        self.last
    }

    /// Takes a reading and returns the slowdown over the window since the
    /// previous one: the mean of the two.
    pub fn window(&mut self) -> f64 {
        let before = self.last;
        (before + self.read()) / 2.0
    }

    fn syscalls(&mut self, iters: u64) {
        let (a, b) = self
            .pair
            .as_mut()
            .expect("the system-call kernel has its pair");
        let mut frame = [0u8; FRAME];
        for i in 0..iters {
            frame[0] = i as u8;
            a.write_all(&frame).expect("write to a local socket pair");
            b.read_exact(&mut frame)
                .expect("read from a local socket pair");
        }
        black_box(frame);
    }

    fn memory(&mut self, iters: u64) {
        let mask = self.table.len() - 1;
        let mut acc = 0u64;
        let mut f = 1.0f64;
        for _ in 0..iters {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let i = z as usize & mask;
            self.table[i] = self.table[i].wrapping_add(z);
            acc ^= self.table[(z >> 20) as usize & mask];
            f = f * 0.999_999 + (z >> 11) as f64 * 1e-19;
        }
        black_box((acc, f));
    }
}

/// A set of CPUs, as `sched_{get,set}affinity` take it (up to 1024).
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread pinned to one CPU; dropping it gives the thread
/// the CPUs it had back. Threads started while it lives stay on that CPU.
pub struct Pinned(Option<CpuSet>);

/// Pins the calling thread, and every thread it starts from now on, to
/// the `k`-th CPU it may run on (counting round the allowed set). Where
/// affinity cannot be read or set, nothing is pinned.
#[cfg(target_os = "linux")]
pub fn pin_to_cpu(k: usize) -> Pinned {
    let mut had = CpuSet([0; 16]);
    let size = std::mem::size_of_val(&had.0);
    // SAFETY: both calls read or write exactly `size` bytes of a local
    // array; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, had.0.as_mut_ptr()) } != 0 {
        return Pinned(None);
    }
    let allowed: Vec<usize> = (0..had.0.len() * 64)
        .filter(|&cpu| had.0[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect();
    if allowed.is_empty() {
        return Pinned(None);
    }
    let cpu = allowed[k % allowed.len()];
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    let pinned = unsafe { sched_setaffinity(0, size, one.0.as_ptr()) } == 0;
    Pinned(pinned.then_some(had))
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_cpu(_k: usize) -> Pinned {
    Pinned(None)
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(set) = self.0 {
            // SAFETY: reads exactly the array's bytes; pid 0 is this
            // thread.
            unsafe {
                sched_setaffinity(0, std::mem::size_of_val(&set.0), set.0.as_ptr());
            }
        }
    }
}
