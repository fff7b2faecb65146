//! The per-thread event ring: fixed capacity, drop-oldest, lock-free on
//! the write path.
//!
//! Each recording thread owns exactly one [`Ring`] (enforced by the
//! thread-local registration in `lib.rs`), so the write path is
//! single-producer: one relaxed head load, one slot store, one release
//! head store — no CAS, no lock, no allocation. When the ring is full the
//! writer overwrites the oldest slot; nothing ever blocks or fails, and
//! the head counter keeps the exact number of events ever written, so the
//! dropped count is `written − capacity` with no extra bookkeeping.
//!
//! Draining is **not** concurrent with writing: [`Ring::drain_events`]
//! requires the producer thread to have quiesced (the same contract as
//! `obs::reset` — the harness drains between experiment runs, never
//! during one). The release store on `head` paired with the drainer's
//! acquire load makes every slot written before the producer's last push
//! visible to the drainer.

use crate::event::Event;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-capacity drop-oldest event buffer with a single designated
/// producer thread.
pub struct Ring {
    slots: Box<[UnsafeCell<Event>]>,
    /// Events ever written (monotonic). Slot `h % capacity` holds write
    /// number `h`.
    head: AtomicU64,
}

// SAFETY: `slots` is only written through `push`, whose caller contract
// is "one designated producer thread", and only read through
// `drain_events`, whose contract is "producer quiesced"; the
// release/acquire pair on `head` orders the slot stores before the reads.
unsafe impl Sync for Ring {}

impl Ring {
    /// A ring with `capacity` slots.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring needs at least one slot");
        Ring {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(Event::default()))
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Appends `ev`, overwriting the oldest event when full.
    ///
    /// Must only be called from the ring's designated producer thread
    /// (the thread-local registry in `lib.rs` guarantees this for rings
    /// it hands out).
    #[inline]
    pub fn push(&self, ev: Event) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        // SAFETY: single producer (caller contract) ⇒ no concurrent
        // writer; drains require quiescence ⇒ no concurrent reader.
        unsafe { *slot.get() = ev };
        self.head.store(h + 1, Ordering::Release);
    }

    /// Events ever pushed (retained + dropped).
    pub fn written(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events overwritten before they could be drained.
    pub fn dropped(&self) -> u64 {
        self.written().saturating_sub(self.slots.len() as u64)
    }

    /// Copies out the retained events, oldest first.
    ///
    /// The producer thread must have quiesced (no concurrent `push`);
    /// the harness drains only between runs.
    pub fn drain_events(&self) -> Vec<Event> {
        let h = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let n = h.min(cap);
        (h - n..h)
            .map(|i| {
                // SAFETY: producer quiesced (caller contract); the
                // acquire load above synchronizes with its last release.
                unsafe { *self.slots[(i % cap) as usize].get() }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Track};

    fn ev(n: u64) -> Event {
        Event {
            t_ns: n,
            wall: false,
            track: Track::Main,
            kind: EventKind::Pair {
                stage: crate::event::PairStage::Emitted,
                id: n,
            },
        }
    }

    #[test]
    fn under_capacity_keeps_everything_in_order() {
        let r = Ring::new(8);
        for n in 0..5 {
            r.push(ev(n));
        }
        assert_eq!(r.written(), 5);
        assert_eq!(r.dropped(), 0);
        let got: Vec<u64> = r.drain_events().iter().map(|e| e.t_ns).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_drops_oldest_and_counts_exactly() {
        let r = Ring::new(4);
        for n in 0..11 {
            r.push(ev(n));
        }
        assert_eq!(r.written(), 11);
        assert_eq!(r.dropped(), 7);
        let got: Vec<u64> = r.drain_events().iter().map(|e| e.t_ns).collect();
        assert_eq!(got, vec![7, 8, 9, 10], "newest `capacity` events survive");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_panics() {
        Ring::new(0);
    }
}
