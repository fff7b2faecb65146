//! Scope timers: measure labelled regions and aggregate per-label
//! wall-clock into `time.<label>.ns` histograms.
//!
//! Use through the [`crate::span!`] macro, which allocates the static
//! [`crate::LazyHist`] per call site. The guard reads the clock only
//! while collection is enabled — when disabled the construction cost is
//! one relaxed bool load and the drop is a `None` check.

use crate::registry::{enabled, LazyHist};
use std::time::Instant;

/// Times from construction to drop and records the elapsed nanoseconds.
pub struct SpanGuard {
    start: Option<Instant>,
    hist: &'static LazyHist,
}

impl SpanGuard {
    /// Starts timing (inert if collection is disabled).
    pub fn new(hist: &'static LazyHist) -> Self {
        SpanGuard {
            start: if enabled() {
                Some(Instant::now())
            } else {
                None
            },
            hist,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos();
            self.hist.record(u64::try_from(ns).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::{set_enabled, snapshot};

    #[test]
    fn span_records_only_when_enabled() {
        let _guard = crate::registry::test_lock();
        set_enabled(false);
        {
            let _g = crate::span!("test.span.off");
        }
        assert!(snapshot().hist("time.test.span.off.ns").is_none());

        set_enabled(true);
        {
            let _g = crate::span!("test.span.on");
            std::hint::black_box(0u64);
        }
        set_enabled(false);
        let snap = snapshot();
        let h = snap.hist("time.test.span.on.ns").expect("span recorded");
        assert_eq!(h.count, 1);
    }
}
