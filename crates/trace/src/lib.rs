//! # qnlg-trace — low-overhead structured event tracing
//!
//! The timeline layer of the workspace: where `qnlg-obs` answers "how
//! much happened", this crate answers "*when* did each thing happen" —
//! per-worker chunk spans, per-pair entanglement lifecycles, governor
//! mode flips — as a stream of typed events drained into Chrome
//! `trace_event` JSON (Perfetto / `chrome://tracing`). Design rules,
//! inherited from `obs` (DESIGN.md §3):
//!
//! 1. **std-only.** Atomics, `UnsafeCell` rings, `Instant` — no deps
//!    beyond `obs` (whose JSON codec the exporter reuses).
//! 2. **Off by default, negligible when off.** Every recording call is
//!    gated on one relaxed atomic-bool load; the wall-clock is not read
//!    while disabled. Every perfbench workload runs with the gate
//!    compiled in and off, so its cost is inside their end-to-end
//!    numbers; nothing times it apart.
//! 3. **Observe, never perturb.** Recording draws no randomness and
//!    never blocks the simulation: writes go to a per-thread lock-free
//!    [`ring::Ring`] (fixed capacity, drop-oldest, exact dropped count).
//!    The determinism suite proves canonical artifacts are byte-identical
//!    with tracing on or off at any ring capacity.
//!
//! Draining ([`drain`]) happens between runs, when recording threads have
//! quiesced — the same scoping contract as `obs::reset`. Each drain
//! bumps a generation counter so threads re-register fresh rings on
//! their next event, making `enable → run → drain` repeatable.
//!
//! ```
//! trace::set_enabled(true);
//! trace::instant_sim(trace::Track::Main, "demo", 1_000);
//! trace::set_enabled(false);
//! let log = trace::drain();
//! assert_eq!(log.events.len(), 1);
//! assert_eq!(log.dropped, 0);
//! ```

pub mod event;
pub mod export;
pub mod ring;

pub use event::{Event, EventKind, PairStage, Side, Track};
pub use ring::Ring;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The one recording gate: a relaxed load per call site, like
/// `obs::enabled()`.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Capacity for rings created after the last [`set_capacity`] call.
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

/// Bumped by [`drain`]; threads holding a ring from an older generation
/// re-register before their next event.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Distributor-lane allocator: pair ids are sequential *per distributor*,
/// so every distributor claims a process-unique lane to make
/// `(lane, pair_id)` globally unambiguous in one trace.
static LANES: AtomicU32 = AtomicU32::new(0);

/// Wall-clock epoch, fixed at the first enable so `t_ns` fits a `u64`.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Every live ring, for the drainer. Rings are only ever *written* by
/// their owning thread; this registry just keeps them alive and findable.
static REGISTRY: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

/// Default ring capacity (events per recording thread).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

thread_local! {
    /// This thread's ring and the generation it was registered under.
    static LOCAL: RefCell<Option<(u64, Arc<Ring>)>> = const { RefCell::new(None) };
}

/// True while event recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns event recording on or off. The first enable pins the wall-clock
/// epoch.
pub fn set_enabled(on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Sets the capacity used for rings created from now on (existing rings
/// keep theirs; call [`drain`] first to retire them).
///
/// # Panics
/// Panics if `capacity == 0`.
pub fn set_capacity(capacity: usize) {
    assert!(capacity > 0, "ring capacity must be positive");
    CAPACITY.store(capacity, Ordering::Relaxed);
}

/// Capacity rings are currently created with.
pub fn capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Claims a process-unique distributor lane (trace metadata only — lanes
/// are allocated even while disabled so an enable mid-run still sees
/// distinct tracks).
pub fn next_lane() -> u32 {
    LANES.fetch_add(1, Ordering::Relaxed)
}

/// Nanoseconds since the trace epoch (pinned at first enable).
fn wall_now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Appends `ev` to this thread's ring, registering one on first use (or
/// after a drain retired the previous generation).
fn record(ev: Event) {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let gen = GENERATION.load(Ordering::Acquire);
        let stale = !matches!(&*slot, Some((g, _)) if *g == gen);
        if stale {
            let ring = Arc::new(Ring::new(capacity()));
            REGISTRY
                .lock()
                .expect("trace registry")
                .push(Arc::clone(&ring));
            *slot = Some((gen, ring));
        }
        let (_, ring) = slot.as_ref().expect("registered above");
        ring.push(ev);
    });
}

/// Records a sim-clock instant event at `t_ns` simulation nanoseconds.
#[inline]
pub fn instant_sim(track: Track, name: &'static str, t_ns: u64) {
    if !enabled() {
        return;
    }
    record(Event {
        t_ns,
        wall: false,
        track,
        kind: EventKind::Instant(name),
    });
}

/// Opens a wall-clock span (pair with [`span_end`] on the same track).
#[inline]
pub fn span_begin(track: Track, name: &'static str) {
    if !enabled() {
        return;
    }
    record(Event {
        t_ns: wall_now_ns(),
        wall: true,
        track,
        kind: EventKind::Begin(name),
    });
}

/// Closes the innermost wall-clock span named `name` on `track`.
#[inline]
pub fn span_end(track: Track, name: &'static str) {
    if !enabled() {
        return;
    }
    record(Event {
        t_ns: wall_now_ns(),
        wall: true,
        track,
        kind: EventKind::End(name),
    });
}

/// Records a pair-lifecycle event at `t_ns` simulation nanoseconds.
#[inline]
pub fn pair(track: Track, stage: PairStage, id: u64, t_ns: u64) {
    if !enabled() {
        return;
    }
    record(Event {
        t_ns,
        wall: false,
        track,
        kind: EventKind::Pair { stage, id },
    });
}

/// Everything one drain recovered: retained events (unordered across
/// threads; exporters sort) and the exact count of overwritten ones.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Retained events from every thread's ring.
    pub events: Vec<Event>,
    /// Events overwritten before the drain (sum over rings).
    pub dropped: u64,
}

/// Collects and retires every ring. Recording threads must have
/// quiesced (between runs — the `obs::reset` scoping contract); their
/// next event after this call registers a fresh ring.
pub fn drain() -> TraceLog {
    // Bump first with release ordering: a registered producer that
    // observes the old generation finished its pushes before we take the
    // registry lock below only if it has quiesced — which is the caller's
    // contract; the ordering just keeps re-registration prompt.
    GENERATION.fetch_add(1, Ordering::Release);
    let rings: Vec<Arc<Ring>> = std::mem::take(&mut *REGISTRY.lock().expect("trace registry"));
    let mut log = TraceLog::default();
    for ring in &rings {
        log.dropped += ring.dropped();
        log.events.extend(ring.drain_events());
    }
    log
}

/// Discards all buffered events (a drain whose result is dropped).
pub fn reset() {
    let _ = drain();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests must not interleave (same pattern as
    /// `obs::registry::test_lock`).
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = test_lock();
        reset();
        set_enabled(false);
        instant_sim(Track::Main, "nope", 5);
        pair(Track::Source(0), PairStage::Emitted, 1, 10);
        assert!(drain().events.is_empty());
    }

    #[test]
    fn enable_record_drain_roundtrip() {
        let _guard = test_lock();
        reset();
        set_enabled(true);
        instant_sim(Track::Main, "a", 1);
        pair(
            Track::Qnic {
                lane: 3,
                side: Side::B,
            },
            PairStage::Stored,
            42,
            7,
        );
        set_enabled(false);
        let log = drain();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.dropped, 0);
        assert!(log.events.iter().any(|e| matches!(
            e.kind,
            EventKind::Pair {
                stage: PairStage::Stored,
                id: 42
            }
        )));
        // Retired generation: a fresh drain finds nothing.
        assert!(drain().events.is_empty());
    }

    #[test]
    fn capacity_applies_to_new_rings() {
        let _guard = test_lock();
        reset();
        set_capacity(8);
        set_enabled(true);
        for n in 0..20 {
            instant_sim(Track::Main, "spin", n);
        }
        set_enabled(false);
        let log = drain();
        set_capacity(DEFAULT_CAPACITY);
        assert_eq!(log.events.len(), 8);
        assert_eq!(log.dropped, 12);
        let times: Vec<u64> = log.events.iter().map(|e| e.t_ns).collect();
        assert_eq!(times, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn lanes_are_unique() {
        let a = next_lane();
        let b = next_lane();
        assert_ne!(a, b);
    }

    #[test]
    fn threads_get_their_own_rings() {
        let _guard = test_lock();
        reset();
        set_enabled(true);
        let handles: Vec<_> = (0..4u32)
            .map(|w| {
                std::thread::spawn(move || {
                    for n in 0..50 {
                        instant_sim(Track::Worker(w), "work", n);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        set_enabled(false);
        let log = drain();
        assert_eq!(log.events.len(), 200);
        for w in 0..4u32 {
            assert_eq!(
                log.events
                    .iter()
                    .filter(|e| e.track == Track::Worker(w))
                    .count(),
                50
            );
        }
    }
}
