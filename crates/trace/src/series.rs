//! Windowed time series: obs-registry counter deltas captured every N
//! simulation nanoseconds.
//!
//! End-of-run `obs` snapshots say how much happened; this module says
//! *when* — pairs emitted, drops, fallback transitions per sim-time
//! window, cheap enough to leave on for every `repro` run. The recorder
//! is armed per experiment ([`start`] / [`finish`], the `obs::reset`
//! scoping), and simulation loops call [`tick`] with their current sim
//! time: one relaxed bool load when off, one thread-local window check
//! when no boundary was crossed, and one obs snapshot + delta merge per
//! crossing.
//!
//! Experiments sweep many points in parallel, each with its own sim
//! timeline, so deltas are attributed to the window of whichever
//! timeline crossed a boundary first — the totals are exact, the
//! per-window attribution is an operator diagnostic. The resulting
//! `series` artifact section is therefore stripped from the canonical
//! determinism digest, exactly like `perf`.

use obs::json::Json;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Recording gate (relaxed, like [`crate::enabled`]).
static SERIES_ON: AtomicBool = AtomicBool::new(false);
/// Active window width in sim ns (read on the tick fast path).
static WINDOW_NS: AtomicU64 = AtomicU64::new(u64::MAX);
/// Bumped by [`start`] so stale thread-local window caches miss.
static SERIES_GEN: AtomicU64 = AtomicU64::new(0);
/// Recorder state while armed.
static STATE: Mutex<Option<State>> = Mutex::new(None);

/// Hard cap on distinct windows kept per run; crossings beyond it fold
/// into the newest kept window and are counted in `dropped_windows`.
pub const MAX_WINDOWS: usize = 2048;

struct State {
    window_ns: u64,
    /// Counter values at the last capture (baseline for deltas).
    last: Vec<(String, u64)>,
    /// Window index → accumulated counter deltas.
    windows: BTreeMap<u64, BTreeMap<String, u64>>,
    dropped_windows: u64,
}

thread_local! {
    /// (generation, window index) this thread last captured for.
    static LAST_W: Cell<(u64, u64)> = const { Cell::new((u64::MAX, u64::MAX)) };
}

/// One captured window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesWindow {
    /// Window start, in sim ns (`index × window_ns`).
    pub t_ns: u64,
    /// Counter deltas accumulated while this window was current
    /// (zero-delta counters omitted), sorted by name.
    pub counters: Vec<(String, u64)>,
}

/// The finished time series for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Window width in sim ns (0 when the recorder never ran).
    pub window_ns: u64,
    /// Window crossings folded into a neighbor because [`MAX_WINDOWS`]
    /// was reached.
    pub dropped_windows: u64,
    /// Captured windows in time order.
    pub windows: Vec<SeriesWindow>,
}

impl SeriesSnapshot {
    /// Serializes as the `series` section of a `qnlg.bench.v1` artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("window_ns", Json::uint(self.window_ns)),
            ("dropped_windows", Json::uint(self.dropped_windows)),
            (
                "windows",
                Json::Arr(
                    self.windows
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("t_ns", Json::uint(w.t_ns)),
                                (
                                    "counters",
                                    Json::Obj(
                                        w.counters
                                            .iter()
                                            .map(|(n, v)| (n.clone(), Json::uint(*v)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Arms the recorder with `window_ns`-wide windows, baselining against
/// the current obs counters. Replaces any previous recording.
///
/// # Panics
/// Panics if `window_ns == 0`.
pub fn start(window_ns: u64) {
    assert!(window_ns > 0, "series window must be positive");
    let baseline = obs::snapshot().counters;
    SERIES_GEN.fetch_add(1, Ordering::Relaxed);
    WINDOW_NS.store(window_ns, Ordering::Relaxed);
    *STATE.lock().expect("series state") = Some(State {
        window_ns,
        last: baseline,
        windows: BTreeMap::new(),
        dropped_windows: 0,
    });
    SERIES_ON.store(true, Ordering::Relaxed);
}

/// Feeds the recorder the current sim time. Call from simulation
/// advance loops; no-op (one relaxed load) while disarmed, and cheap
/// (one thread-local compare) until a window boundary is crossed.
#[inline]
pub fn tick(now_ns: u64) {
    if !SERIES_ON.load(Ordering::Relaxed) {
        return;
    }
    tick_armed(now_ns);
}

fn tick_armed(now_ns: u64) {
    let gen = SERIES_GEN.load(Ordering::Relaxed);
    let w = now_ns / WINDOW_NS.load(Ordering::Relaxed);
    let repeat = LAST_W.with(|c| {
        if c.get() == (gen, w) {
            true
        } else {
            c.set((gen, w));
            false
        }
    });
    if !repeat {
        capture(w);
    }
}

/// Accumulates counter deltas since the last capture into window `w`.
fn capture(w: u64) {
    let mut guard = STATE.lock().expect("series state");
    let Some(state) = guard.as_mut() else {
        return;
    };
    let snap = obs::snapshot().counters;
    let deltas = delta(&state.last, &snap);
    state.last = snap;
    if deltas.is_empty() {
        return;
    }
    let key = if state.windows.contains_key(&w) || state.windows.len() < MAX_WINDOWS {
        w
    } else {
        // Full: fold into the newest kept window and count the loss —
        // totals stay exact, attribution degrades visibly.
        state.dropped_windows += 1;
        *state.windows.keys().next_back().expect("non-empty at cap")
    };
    let bucket = state.windows.entry(key).or_default();
    for (name, d) in deltas {
        *bucket.entry(name).or_insert(0) += d;
    }
}

/// Per-counter increase from `last` (sorted by name) to `now` (sorted by
/// name); zero deltas omitted. Counters never decrease, so a missing
/// baseline entry means the counter was born since.
fn delta(last: &[(String, u64)], now: &[(String, u64)]) -> Vec<(String, u64)> {
    now.iter()
        .filter_map(|(name, v)| {
            let base = match last.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => last[i].1,
                Err(_) => 0,
            };
            let d = v.saturating_sub(base);
            (d > 0).then(|| (name.clone(), d))
        })
        .collect()
}

/// Disarms the recorder and returns the finished series. The remainder
/// since the last boundary crossing is folded into the newest window
/// (or window 0 when no boundary was ever crossed).
pub fn finish() -> SeriesSnapshot {
    SERIES_ON.store(false, Ordering::Relaxed);
    let Some(mut state) = STATE.lock().expect("series state").take() else {
        return SeriesSnapshot::default();
    };
    let snap = obs::snapshot().counters;
    let tail = delta(&state.last, &snap);
    if !tail.is_empty() {
        let key = state.windows.keys().next_back().copied().unwrap_or(0);
        let bucket = state.windows.entry(key).or_default();
        for (name, d) in tail {
            *bucket.entry(name).or_insert(0) += d;
        }
    }
    SeriesSnapshot {
        window_ns: state.window_ns,
        dropped_windows: state.dropped_windows,
        windows: state
            .windows
            .into_iter()
            .map(|(w, counters)| SeriesWindow {
                t_ns: w * state.window_ns,
                counters: counters.into_iter().collect(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Series tests toggle the process-global obs registry and recorder.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn windows_carry_counter_deltas() {
        let _guard = test_lock();
        obs::reset();
        obs::set_enabled(true);
        start(1_000);
        let c = obs::counter("series.test.pairs");
        tick(10); // window 0 baseline capture
        c.add(5);
        tick(1_500); // crosses into window 1: delta 5 → window 1
        c.add(2);
        obs::set_enabled(false);
        let snap = finish(); // tail delta 2 → newest window
        assert_eq!(snap.window_ns, 1_000);
        assert_eq!(snap.dropped_windows, 0);
        let total: u64 = snap
            .windows
            .iter()
            .flat_map(|w| w.counters.iter())
            .filter(|(n, _)| n == "series.test.pairs")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total, 7, "window deltas must sum to the counter total");
        assert!(snap.windows.iter().any(|w| w.t_ns == 1_000));
    }

    #[test]
    fn disarmed_tick_is_a_no_op() {
        let _guard = test_lock();
        let _ = finish();
        tick(123); // must not panic or capture
        assert_eq!(finish(), SeriesSnapshot::default());
    }

    #[test]
    fn serializes_with_schema_fields() {
        let snap = SeriesSnapshot {
            window_ns: 500,
            dropped_windows: 1,
            windows: vec![SeriesWindow {
                t_ns: 1_000,
                counters: vec![("a.b".into(), 3)],
            }],
        };
        let doc = obs::json::Json::parse(&snap.to_json().render()).unwrap();
        assert_eq!(doc.get("window_ns").unwrap().as_i64(), Some(500));
        let windows = doc.get("windows").unwrap().as_arr().unwrap();
        assert_eq!(windows.len(), 1);
        assert_eq!(
            windows[0]
                .get("counters")
                .unwrap()
                .get("a.b")
                .unwrap()
                .as_i64(),
            Some(3)
        );
    }
}
