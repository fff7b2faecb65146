//! Lock-free single-producer single-consumer ring for decision hand-off.
//!
//! The service's hot path is `pop` on the consumer side of one of these
//! rings; the background distributor thread is the producer. Everything
//! about the layout serves that asymmetry:
//!
//! - **Power-of-two capacity**, so slot lookup is one `&` with a mask and
//!   the head/tail counters can be free-running `u64`s that never wrap in
//!   practice (2⁶⁴ decisions is ~100k years at 5 M/s).
//! - **Cache-line-padded head and tail** (`#[repr(align(64))]`), so the
//!   producer publishing `tail` never invalidates the line the consumer
//!   spins on for `head`, and vice versa.
//! - **Batched publish**: the producer stages a whole refill batch with
//!   plain stores and makes it visible with a *single* release store of
//!   `tail`. The consumer acquires `tail` once per empty check, not per
//!   slot. One fence per batch instead of one per element is where the
//!   hand-off beats a mutex by an order of magnitude.
//! - **Position caching**: each side keeps a local copy of the *other*
//!   side's index and only re-reads the shared atomic when the cached
//!   value says the ring looks full/empty. In steady state a `pop` touches
//!   one shared cache line (the slot) and its own head counter.
//!
//! Elements must be `Copy`: a slot hand-off is a plain load/store, there
//! is nothing to drop, and a ring never owns heap memory beyond its own
//! preallocated slab — which is what makes the decision path provably
//! allocation-free (see `tests/alloc.rs`).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A `u64` alone on its cache line, so producer- and consumer-owned
/// counters never false-share.
#[repr(align(64))]
struct PaddedAtomicU64(AtomicU64);

struct Shared<T> {
    /// Slot storage; length is a power of two.
    buf: Box<[UnsafeCell<T>]>,
    /// `capacity - 1`, for index masking.
    mask: u64,
    /// Next slot to consume. Written by the consumer, read by the
    /// producer (to compute free space).
    head: PaddedAtomicU64,
    /// One past the last published slot. Written by the producer (release,
    /// once per batch), read by the consumer (acquire).
    tail: PaddedAtomicU64,
}

// The ring hands `T` by value between exactly two threads; interior
// mutability is disciplined by the head/tail protocol (a slot is written
// only while unpublished, read only after the release-store of `tail`).
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

/// Producer half of a ring: staged writes plus batched publish.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Published tail (mirror of `shared.tail`; this side owns it).
    tail: u64,
    /// Slots written past `tail` but not yet published.
    staged: u64,
    /// Last observed consumer head; refreshed only when the ring looks
    /// full.
    head_cache: u64,
}

/// Consumer half of a ring: the hot-path `pop`.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Consume position (mirror of `shared.head`; this side owns it).
    head: u64,
    /// Last observed published tail; refreshed only when the ring looks
    /// empty.
    tail_cache: u64,
}

/// Creates a ring of the given power-of-two capacity and splits it into
/// its two single-owner halves.
///
/// # Panics
/// Panics if `capacity` is zero or not a power of two.
pub fn spsc<T: Copy + Default>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be positive");
    assert!(
        capacity.is_power_of_two(),
        "ring capacity must be a power of two, got {capacity}"
    );
    let buf: Box<[UnsafeCell<T>]> = (0..capacity)
        .map(|_| UnsafeCell::new(T::default()))
        .collect();
    let shared = Arc::new(Shared {
        buf,
        mask: capacity as u64 - 1,
        head: PaddedAtomicU64(AtomicU64::new(0)),
        tail: PaddedAtomicU64(AtomicU64::new(0)),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            staged: 0,
            head_cache: 0,
        },
        Consumer {
            shared,
            head: 0,
            tail_cache: 0,
        },
    )
}

impl<T: Copy> Producer<T> {
    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.shared.buf.len()
    }

    /// Free slots available for staging, refreshing the cached consumer
    /// position only when the cached view says the ring is full.
    pub fn free(&mut self) -> usize {
        let used = self.tail + self.staged - self.head_cache;
        if used as usize >= self.capacity() {
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
        }
        self.capacity() - (self.tail + self.staged - self.head_cache) as usize
    }

    /// Slots currently occupied (published or staged), with a *fresh*
    /// read of the consumer position. `free`'s lazy cache only refreshes
    /// on apparent-full, which is right for `stage` but would let a
    /// low-water check stall forever on a partially-filled ring the
    /// consumer has been draining; the refill pump is off the hot path,
    /// so it pays for an acquire load every call. (The consumer may
    /// drain concurrently, so the result is still an upper bound by the
    /// time the caller acts on it — the safe direction for refill.)
    pub fn occupied(&mut self) -> usize {
        self.head_cache = self.shared.head.0.load(Ordering::Acquire);
        (self.tail + self.staged - self.head_cache) as usize
    }

    /// Stages one slot without publishing it. Returns `false` (and stages
    /// nothing) when the ring is full.
    #[inline]
    pub fn stage(&mut self, value: T) -> bool {
        if self.free() == 0 {
            return false;
        }
        let idx = ((self.tail + self.staged) & self.shared.mask) as usize;
        // The slot is past the published tail and before the consumer's
        // head, so this side holds exclusive access.
        unsafe { *self.shared.buf[idx].get() = value };
        self.staged += 1;
        true
    }

    /// Publishes every staged slot with one release store. A no-op when
    /// nothing is staged.
    #[inline]
    pub fn publish(&mut self) {
        if self.staged == 0 {
            return;
        }
        self.tail += self.staged;
        self.staged = 0;
        self.shared.tail.0.store(self.tail, Ordering::Release);
    }

    /// Stage-and-publish in one call, for unbatched use.
    #[inline]
    pub fn push(&mut self, value: T) -> bool {
        if !self.stage(value) {
            return false;
        }
        self.publish();
        true
    }
}

impl<T: Copy> Consumer<T> {
    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.shared.buf.len()
    }

    /// Published-but-unconsumed slots, from the consumer's view (the
    /// producer may concurrently publish more, so this is a lower bound).
    pub fn len(&mut self) -> usize {
        if self.tail_cache == self.head {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
        }
        (self.tail_cache - self.head) as usize
    }

    /// True when no published slot is visible.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Pops the oldest published slot, or `None` when the ring is empty.
    ///
    /// The hot path: one load of the cached tail (re-read via acquire
    /// only on apparent emptiness), one slot load, one release store of
    /// the consumer head.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if self.tail_cache == self.head {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
            if self.tail_cache == self.head {
                return None;
            }
        }
        let idx = (self.head & self.shared.mask) as usize;
        // The slot is published (head < tail) and the producer will not
        // reuse it until `head` advances past it.
        let value = unsafe { *self.shared.buf[idx].get() };
        self.head += 1;
        self.shared.head.0.store(self.head, Ordering::Release);
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_and_across_batches() {
        let (mut tx, mut rx) = spsc::<u64>(8);
        for v in 0..5 {
            assert!(tx.stage(v));
        }
        // Nothing visible until publish.
        assert_eq!(rx.pop(), None);
        tx.publish();
        for v in 0..5 {
            assert_eq!(rx.pop(), Some(v));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn full_ring_rejects_and_recovers() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        for v in 0..4 {
            assert!(tx.push(v));
        }
        assert!(!tx.push(99), "full ring must reject");
        assert_eq!(rx.pop(), Some(0));
        assert!(tx.push(4), "freed slot must be reusable");
        for expect in [1, 2, 3, 4] {
            assert_eq!(rx.pop(), Some(expect));
        }
    }

    #[test]
    fn capacity_one_alternates() {
        let (mut tx, mut rx) = spsc::<u8>(1);
        for round in 0..10u8 {
            assert!(tx.push(round));
            assert!(!tx.push(round), "capacity-1 ring holds one slot");
            assert_eq!(rx.pop(), Some(round));
            assert_eq!(rx.pop(), None);
        }
    }

    #[test]
    fn wraparound_preserves_values() {
        let (mut tx, mut rx) = spsc::<u64>(4);
        // Push/pop far past the capacity so indices wrap many times.
        for v in 0..1000u64 {
            assert!(tx.push(v));
            assert_eq!(rx.pop(), Some(v));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_panics() {
        let _ = spsc::<u8>(3);
    }

    #[test]
    fn cross_thread_batched_handoff_delivers_everything_in_order() {
        let (mut tx, mut rx) = spsc::<u64>(256);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < N {
                // Irregular batch sizes exercise partial publishes.
                let batch = 1 + (next % 37);
                let mut staged = 0;
                while staged < batch && next < N {
                    if tx.stage(next) {
                        next += 1;
                        staged += 1;
                    } else {
                        break;
                    }
                }
                tx.publish();
                if staged == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut expect = 0u64;
        while expect < N {
            if let Some(v) = rx.pop() {
                assert_eq!(v, expect, "out-of-order delivery");
                expect += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.pop(), None, "no phantom slots after the drain");
    }
}
