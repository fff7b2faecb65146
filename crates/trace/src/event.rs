//! Typed trace events.
//!
//! Events are `Copy` and fixed-size so a ring-buffer slot is one plain
//! store: names are `&'static str` interned by the call site, payloads
//! are at most a `u64`. Two clock domains coexist in one trace —
//! wall-clock events (runtime workers doing real work) and sim-clock
//! events (the entanglement plane's nanosecond timeline) — distinguished
//! by [`Event::wall`] and exported as separate Chrome-trace processes so
//! Perfetto never conflates the two time axes.

/// Which timeline lane an event belongs to. Lanes map to Chrome-trace
/// threads: one per runtime worker, one per QNIC side, one per source,
/// one per fallback governor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// The driving thread (experiment harness, exporters).
    Main,
    /// Runtime pool worker `w` (wall clock).
    Worker(u32),
    /// Entangled-pair source of distributor lane `l` (sim clock).
    Source(u32),
    /// QNIC of distributor lane `l`, endpoint A or B (sim clock).
    Qnic { lane: u32, side: Side },
    /// Fallback governor of degrading strategy `g` (sim clock).
    Governor(u32),
    /// Repeater chain serving routed server pair `c` in a metro
    /// topology run (sim clock).
    Chain(u32),
    /// Decision endpoint `e` of a long-lived `qnlg-serve` service
    /// (sim clock: refill batches and governor transitions on the
    /// endpoint's decision timeline).
    Endpoint(u32),
}

/// Which endpoint of a two-QNIC distributor lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Side {
    /// Endpoint A.
    A,
    /// Endpoint B.
    B,
}

impl Side {
    /// Stable lowercase name (`"a"` / `"b"`).
    pub fn name(self) -> &'static str {
        match self {
            Side::A => "a",
            Side::B => "b",
        }
    }
}

/// Lifecycle stage of one entangled pair, from emission to its fate.
/// `Consumed`, `Expired`, and `Dropped` are terminal; delivery latency is
/// the `Emitted → Consumed` span for a given pair id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairStage {
    /// The source emitted the pair (survivor-process paths emit only the
    /// surviving pairs individually; batch-counted fiber losses never
    /// go in flight and carry no events).
    Emitted,
    /// A half-pair finished traversing its fiber.
    FiberArrival,
    /// A half-pair was written into QNIC memory.
    Stored,
    /// The pair was consumed by a coordination decision.
    Consumed,
    /// A half-pair aged out of QNIC memory.
    Expired,
    /// A half-pair was evicted (memory-full overwrite or capacity clamp).
    Dropped,
}

impl PairStage {
    /// Stable kebab-case name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            PairStage::Emitted => "emitted",
            PairStage::FiberArrival => "fiber-arrival",
            PairStage::Stored => "stored",
            PairStage::Consumed => "consumed",
            PairStage::Expired => "expired",
            PairStage::Dropped => "dropped",
        }
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A named span opened (matched by a later `End` on the same track).
    Begin(&'static str),
    /// A named span closed.
    End(&'static str),
    /// A point event.
    Instant(&'static str),
    /// A pair-lifecycle point event carrying the pair id.
    Pair {
        /// Lifecycle stage.
        stage: PairStage,
        /// Per-distributor-lane sequential pair id (the lane in
        /// [`Track`] disambiguates across distributors).
        id: u64,
    },
}

/// One trace event: a timestamp in its clock domain, the track it
/// belongs to, and the payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Nanoseconds since the trace epoch (wall) or simulation start (sim).
    pub t_ns: u64,
    /// `true` for wall-clock events, `false` for sim-clock events.
    pub wall: bool,
    /// Timeline lane.
    pub track: Track,
    /// Payload.
    pub kind: EventKind,
}

impl Default for Event {
    fn default() -> Self {
        Event {
            t_ns: 0,
            wall: true,
            track: Track::Main,
            kind: EventKind::Instant(""),
        }
    }
}
