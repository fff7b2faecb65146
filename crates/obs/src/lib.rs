//! # qnlg-obs — std-only metrics
//!
//! The observability layer of the workspace: every simulation and sweep
//! can record *how* it behaved (events processed, pairs dropped, chunk
//! balance, worker busy and idle wall-clock) without changing *what* it
//! computes. Three design rules:
//!
//! 1. **std-only.** Atomics and one `Mutex<BTreeMap>` — nothing else
//!    (the workspace dependency policy, DESIGN.md §3).
//! 2. **Off by default, negligible when off.** Recording is gated on one
//!    relaxed atomic-bool load. `repro` enables collection for its runs;
//!    unit tests and library users pay nothing.
//! 3. **Deterministic values, explicit time.** Counters/gauges/histograms
//!    record simulation quantities that are worker-count-invariant;
//!    anything wall-clock lives under the reserved `time.` name prefix so
//!    machine-readable output can exempt it from byte-identity checks.
//!
//! ```
//! let c = obs::counter("demo.events");
//! obs::set_enabled(true);
//! c.inc();
//! c.add(2);
//! assert_eq!(c.get(), 3);
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("demo.events"), Some(3));
//! obs::set_enabled(false);
//! ```

pub mod hist;
pub mod json;
pub mod registry;

pub use hist::{bucket_bounds, bucket_index, HistSnapshot, HIST_BUCKETS};
pub use registry::{
    counter, enabled, gauge, hist, reset, set_enabled, snapshot, Counter, Gauge, GaugeSnapshot,
    LazyCounter, LazyGauge, LazyHist, Snapshot,
};
