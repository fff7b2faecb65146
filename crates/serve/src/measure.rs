//! Obs hooks for *wall-clock* measurement of the served hot path.
//!
//! Everything in `endpoint`/`service` is deterministic and never reads a
//! clock; wall-clock numbers come from a measurement harness (the E11
//! experiment) that times its own loops and reports here. Keeping the
//! metric names in one place ties the artifact's `perf` metrics to their
//! definitions:
//!
//! - `qnlg.serve.hot.decisions` / `qnlg.serve.hot.ns` — decisions served
//!   and nanoseconds spent inside *measured drain windows only* (ring
//!   pre-filled, timer around the decide loop). Their quotient is the
//!   artifact's `hot_decisions_per_sec`: a drain rate over slots already
//!   drawn, not diluted by refills or open-loop pacing — unlike the
//!   benchmark's serve-plane `decisions_per_s`, where every decision pays
//!   for drawing its slot.
//! - `qnlg.serve.decision_latency_ns` — per-decision latency samples
//!   (one `Instant` pair around a single `decide`), behind the
//!   `decision_p50_ns` / `decision_p99_ns` / `decision_p999_ns` metrics.
//!   Percentile estimates are log-bucket upper bounds (`2^k − 1` ns), so
//!   a reported p99 of 511 means "the 99th-percentile decision took at
//!   most 511 ns".
//!
//! All hooks are no-ops while obs collection is disabled, so calling
//! them cannot perturb determinism arms.

use obs::{LazyCounter, LazyHist};

/// Decisions served inside measured hot windows.
static HOT_DECISIONS: LazyCounter = LazyCounter::new("qnlg.serve.hot.decisions");
/// Wall-clock nanoseconds spent inside measured hot windows.
static HOT_NS: LazyCounter = LazyCounter::new("qnlg.serve.hot.ns");
/// Per-decision latency samples, in nanoseconds.
static DECISION_LATENCY: LazyHist = LazyHist::new("qnlg.serve.decision_latency_ns");

/// Records one measured drain window: `decisions` answered in
/// `elapsed_ns` of wall clock.
pub fn record_hot_window(decisions: u64, elapsed_ns: u64) {
    HOT_DECISIONS.add(decisions);
    HOT_NS.add(elapsed_ns);
}

/// Records one per-decision latency sample.
#[inline]
pub fn record_decision_latency(ns: u64) {
    DECISION_LATENCY.record(ns);
}
