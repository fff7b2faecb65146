//! The metric registry.
//!
//! Metrics are named by dotted paths (`"qnet.epr.emitted"`); names under
//! the reserved `time.` prefix are wall-clock measurements and are
//! treated as non-deterministic by downstream tooling. The registry is
//! one `Mutex<BTreeMap>` from name to metric, so [`snapshot`] lists
//! metrics in name order as it walks the map. The lock is taken to
//! register a name ([`counter`], [`gauge`], [`hist`]; hot paths cache
//! the handle in a [`LazyCounter`]/[`LazyGauge`]/[`LazyHist`] static,
//! which registers on first use) and by [`reset`] and [`snapshot`];
//! recording through a handle never takes it.
//!
//! Recording is gated on a single relaxed [`enabled`] load. [`reset`]
//! clears all registered metrics (the `repro` harness isolates each
//! experiment's snapshot this way); handles survive a reset because they
//! share the underlying atomics with the registry.

use crate::hist::{HistInner, HistSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True while metric collection is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric collection on or off (process-global).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<GaugeInner>),
    Hist(Arc<HistInner>),
}

static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

fn registry() -> MutexGuard<'static, BTreeMap<String, Metric>> {
    // A panic while holding the lock (e.g. a type-conflict panic in a
    // test) never leaves the map inconsistent, so poison is recoverable.
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// A monotonically-increasing event count.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op while collection is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

pub(crate) struct GaugeInner {
    value: AtomicI64,
    max: AtomicI64,
}

/// A last-value gauge that also tracks its high-water mark.
#[derive(Clone)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    /// Sets the current value, updating the high-water mark.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.0.value.store(v, Ordering::Relaxed);
            self.0.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Raises the high-water mark without touching the current value.
    #[inline]
    pub fn set_max(&self, v: i64) {
        if enabled() {
            self.0.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current (last-set) value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// High-water mark.
    pub fn high_water(&self) -> i64 {
        self.0.max.load(Ordering::Relaxed)
    }
}

/// A log-bucketed histogram handle (see [`mod@crate::hist`]).
#[derive(Clone)]
pub struct Hist(Arc<HistInner>);

impl Hist {
    /// Records a sample (no-op while collection is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.0.record(v);
        }
    }

    /// Records a sample into an explicit shard — recorders with a stable
    /// worker index use this to stay off each other's cache lines.
    #[inline]
    pub fn record_shard(&self, shard: usize, v: u64) {
        if enabled() {
            self.0.record_shard(shard, v);
        }
    }

    /// Merged view of all shards.
    pub fn snapshot(&self) -> HistSnapshot {
        self.0.snapshot()
    }
}

/// Registers (or fetches) the counter `name`.
pub fn counter(name: &str) -> Counter {
    match registry()
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))))
    {
        Metric::Counter(c) => Counter(c.clone()),
        _ => panic!("metric '{name}' already registered with a different type"),
    }
}

/// Registers (or fetches) the gauge `name`.
pub fn gauge(name: &str) -> Gauge {
    match registry().entry(name.to_string()).or_insert_with(|| {
        Metric::Gauge(Arc::new(GaugeInner {
            value: AtomicI64::new(0),
            max: AtomicI64::new(i64::MIN),
        }))
    }) {
        Metric::Gauge(g) => Gauge(g.clone()),
        _ => panic!("metric '{name}' already registered with a different type"),
    }
}

/// Registers (or fetches) the histogram `name`.
pub fn hist(name: &str) -> Hist {
    match registry()
        .entry(name.to_string())
        .or_insert_with(|| Metric::Hist(Arc::new(HistInner::new())))
    {
        Metric::Hist(h) => Hist(h.clone()),
        _ => panic!("metric '{name}' already registered with a different type"),
    }
}

/// Zeroes every registered metric in place: counters to 0, gauges to
/// unset, histograms cleared. Cached handles (including `Lazy*` statics)
/// stay live across a reset because they share the underlying atomics —
/// the `repro` harness calls this between experiments so each snapshot
/// covers exactly one run. Not linearizable against concurrent
/// recorders; call it while no instrumented work is in flight.
pub fn reset() {
    for metric in registry().values() {
        match metric {
            Metric::Counter(c) => c.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => {
                g.value.store(0, Ordering::Relaxed);
                g.max.store(i64::MIN, Ordering::Relaxed);
            }
            Metric::Hist(h) => h.clear(),
        }
    }
}

/// A gauge's exported state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Last value set.
    pub value: i64,
    /// High-water mark (`i64::MIN` if never set).
    pub high_water: i64,
}

/// A point-in-time export of every registered metric, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, GaugeSnapshot)>,
    /// Histogram summaries.
    pub hists: Vec<(String, HistSnapshot)>,
}

impl Snapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Gauge state by name.
    pub fn gauge(&self, name: &str) -> Option<GaugeSnapshot> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram summary by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// Exports every registered metric, sorted by name for stable output.
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    for (name, metric) in registry().iter() {
        match metric {
            Metric::Counter(c) => {
                snap.counters
                    .push((name.clone(), c.load(Ordering::Relaxed)));
            }
            Metric::Gauge(g) => snap.gauges.push((
                name.clone(),
                GaugeSnapshot {
                    value: g.value.load(Ordering::Relaxed),
                    high_water: g.max.load(Ordering::Relaxed),
                },
            )),
            Metric::Hist(h) => snap.hists.push((name.clone(), h.snapshot())),
        }
    }
    snap
}

/// A counter registered lazily on first use — the pattern for hot call
/// sites: `static EVENTS: LazyCounter = LazyCounter::new("x.events");`.
/// While collection is disabled the cost is one relaxed bool load.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl LazyCounter {
    /// Declares a counter named `name` without registering it yet.
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> &Counter {
        self.cell.get_or_init(|| counter(self.name))
    }

    /// Adds 1 (no-op while disabled).
    #[inline]
    pub fn inc(&self) {
        if enabled() {
            self.get().inc();
        }
    }

    /// Adds `n` (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.get().add(n);
        }
    }
}

/// A gauge registered lazily on first use.
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<Gauge>,
}

impl LazyGauge {
    /// Declares a gauge named `name` without registering it yet.
    pub const fn new(name: &'static str) -> Self {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> &Gauge {
        self.cell.get_or_init(|| gauge(self.name))
    }

    /// Sets the value (no-op while disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.get().set(v);
        }
    }

    /// Raises the high-water mark (no-op while disabled).
    #[inline]
    pub fn set_max(&self, v: i64) {
        if enabled() {
            self.get().set_max(v);
        }
    }
}

/// A histogram registered lazily on first use.
pub struct LazyHist {
    name: &'static str,
    cell: OnceLock<Hist>,
}

impl LazyHist {
    /// Declares a histogram named `name` without registering it yet.
    pub const fn new(name: &'static str) -> Self {
        LazyHist {
            name,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> &Hist {
        self.cell.get_or_init(|| hist(self.name))
    }

    /// Records a sample (no-op while disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.get().record(v);
        }
    }

    /// Records into an explicit shard (no-op while disabled).
    #[inline]
    pub fn record_shard(&self, shard: usize, v: u64) {
        if enabled() {
            self.get().record_shard(shard, v);
        }
    }
}

/// Serializes tests that toggle the process-global enabled flag.
#[cfg(test)]
fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share one process-global registry and enabled flag; each
    // test takes `test_lock` around its toggling section and uses unique
    // metric names.

    fn with_enabled<T>(f: impl FnOnce() -> T) -> T {
        set_enabled(true);
        let out = f();
        set_enabled(false);
        out
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = test_lock();
        let c = counter("test.disabled.counter");
        set_enabled(false);
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let _guard = test_lock();
        let c = counter("test.rt.counter");
        let g = gauge("test.rt.gauge");
        with_enabled(|| {
            c.add(3);
            g.set(7);
            g.set(2);
            g.set_max(11);
        });
        assert_eq!(c.get(), 3);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 11);
        let snap = snapshot();
        assert_eq!(snap.counter("test.rt.counter"), Some(3));
        let gs = snap.gauge("test.rt.gauge").unwrap();
        assert_eq!((gs.value, gs.high_water), (2, 11));
    }

    #[test]
    fn same_name_shares_storage() {
        let _guard = test_lock();
        let a = counter("test.shared.counter");
        let b = counter("test.shared.counter");
        with_enabled(|| a.add(5));
        assert_eq!(b.get(), 5);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_conflict_panics() {
        counter("test.conflict.metric");
        gauge("test.conflict.metric");
    }

    #[test]
    fn lazy_handles_register_on_first_use() {
        let _guard = test_lock();
        static C: LazyCounter = LazyCounter::new("test.lazy.counter");
        static H: LazyHist = LazyHist::new("test.lazy.hist");
        with_enabled(|| {
            C.inc();
            C.add(2);
            H.record(9);
        });
        let snap = snapshot();
        assert_eq!(snap.counter("test.lazy.counter"), Some(3));
        assert_eq!(snap.hist("test.lazy.hist").unwrap().count, 1);
    }

    #[test]
    fn snapshot_is_sorted() {
        counter("test.sort.b");
        counter("test.sort.a");
        let snap = snapshot();
        let names: Vec<&str> = snap
            .counters
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with("test.sort."))
            .collect();
        assert_eq!(names, vec!["test.sort.a", "test.sort.b"]);
    }

    #[test]
    fn reset_zeroes_in_place() {
        let _guard = test_lock();
        let c = counter("test.reset.counter");
        let h = hist("test.reset.hist");
        with_enabled(|| {
            c.add(4);
            h.record(1);
        });
        reset();
        assert_eq!(snapshot().counter("test.reset.counter"), Some(0));
        assert_eq!(snapshot().hist("test.reset.hist").unwrap().count, 0);
        // Handles stay live across reset.
        with_enabled(|| {
            c.inc();
            h.record(2);
        });
        assert_eq!(snapshot().counter("test.reset.counter"), Some(1));
        assert_eq!(snapshot().hist("test.reset.hist").unwrap().count, 1);
    }
}
