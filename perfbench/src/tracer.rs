//! In-memory span tracer for the traced pass.
//!
//! Spans are opened and closed in the benchmark's own code around calls
//! into each layer; nothing inside the program under test is
//! instrumented. Each span name keeps an aggregate (count, total time,
//! self time, spans nested directly inside it). A span's self time is its
//! duration minus the durations of the spans opened inside it. Nothing
//! is written out until the run ends.

use std::time::Instant;

/// Aggregate of every closed span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Spans closed directly inside spans of this name.
    pub children: u64,
}

impl Agg {
    /// Self time with the tracer's own cost taken out: each span pays
    /// about one empty timer inside its own interval, and each child
    /// span's opening and closing reads land in the parent's self time.
    pub fn self_ns_net(&self, timer_overhead_ns: f64) -> f64 {
        (self.self_ns as f64 - (self.count + self.children) as f64 * timer_overhead_ns).max(0.0)
    }
}

struct Open {
    slot: usize,
    start: Instant,
    child_ns: u64,
}

/// A single-threaded span recorder. Threads each keep their own and
/// [`Tracer::merge`] them at the end.
#[derive(Default)]
pub struct Tracer {
    names: Vec<&'static str>,
    aggs: Vec<Agg>,
    stack: Vec<Open>,
}

impl Tracer {
    fn slot(&mut self, name: &'static str) -> usize {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.aggs.push(Agg::default());
                self.names.len() - 1
            }
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let slot = self.slot(name);
        self.stack.push(Open {
            slot,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let open = self.stack.pop().expect("end() without a matching begin()");
        let ns = open.start.elapsed().as_nanos() as u64;
        let agg = &mut self.aggs[open.slot];
        agg.count += 1;
        agg.total_ns += ns;
        agg.self_ns += ns.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
            self.aggs[parent.slot].children += 1;
        }
    }

    /// The aggregate for `name` (all zero if no such span closed).
    pub fn get(&self, name: &str) -> Agg {
        self.names
            .iter()
            .position(|n| *n == name)
            .map_or(Agg::default(), |i| self.aggs[i])
    }

    /// Adds another tracer's closed spans into this one.
    pub fn merge(&mut self, other: &Tracer) {
        assert!(other.stack.is_empty(), "merging a tracer with open spans");
        for (name, a) in other.names.iter().zip(&other.aggs) {
            let slot = self.slot(name);
            let agg = &mut self.aggs[slot];
            agg.count += a.count;
            agg.total_ns += a.total_ns;
            agg.self_ns += a.self_ns;
            agg.children += a.children;
        }
    }
}
