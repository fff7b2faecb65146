//! Simulation metrics.

use crate::sim::{SimConfig, QUEUE_SERIES_WINDOWS};
use runtime::mix64;

/// Simulation runs completed.
static SIM_RUNS: obs::LazyCounter = obs::LazyCounter::new("lb.sim.runs");
/// Timesteps simulated (warmup included).
static SIM_STEPS: obs::LazyCounter = obs::LazyCounter::new("lb.sim.steps");
/// Tasks routed to servers, across all runs — the numerator of the
/// artifact's `tasks_per_sec` perf metric.
static TASKS_ASSIGNED: obs::LazyCounter = obs::LazyCounter::new("lb.tasks.assigned");
/// Total queue length across servers, one sample per series window, so
/// the hot loop carries no obs traffic. The histogram *sum* is unchanged
/// from the historical per-step recording: total queue·steps.
static QUEUE_TOTAL: obs::LazyHist = obs::LazyHist::new("lb.queue.total");
/// CC pair-rounds that co-located / all CC pair-rounds.
static CC_COLOCATED: obs::LazyCounter = obs::LazyCounter::new("lb.pairs.cc_colocated");
static CC_ROUNDS: obs::LazyCounter = obs::LazyCounter::new("lb.pairs.cc_rounds");
/// Non-CC pair-rounds that split / all non-CC pair-rounds.
static OTHER_SPLIT: obs::LazyCounter = obs::LazyCounter::new("lb.pairs.other_split");
static OTHER_ROUNDS: obs::LazyCounter = obs::LazyCounter::new("lb.pairs.other_rounds");

/// Default capacity of [`WaitReservoir`]: enough for exact percentiles on
/// every unit-test-sized run, and a 512 KiB ceiling per simulation at
/// scale (a candidate buffer of at most `2 · cap` 32-byte entries, vs. the
/// old unbounded `wait_samples`, which was O(timesteps × servers) and made
/// 1e6-server runs impossible).
pub const WAIT_RESERVOIR_CAP: usize = 8192;

/// Seed used by the compatibility simulation path. It must be a constant
/// there — drawing it from the caller's generator would shift every
/// subsequent draw and break bit-compatibility with the historical
/// `run_simulation` trajectory. The sharded engine derives its reservoir
/// seed from the run's master stream instead.
pub const WAIT_RESERVOIR_SEED: u64 = 0x5eed_4a17_5a3b_1e55;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ResEntry {
    /// Hash priority; smallest `cap` entries are kept. Derived comparison
    /// order (pri, then server, then seq) is total, so survivorship never
    /// depends on insertion order.
    pri: u64,
    server: u64,
    seq: u64,
    wait: u64,
}

/// Deterministic fixed-size wait-sample reservoir.
///
/// Each sample is identified by `(server, seq)` — the serving server and
/// that server's completion counter — and given the hash priority
/// `mix64(seed ^ mix64(server · φ64 + seq))`. The reservoir keeps the
/// `cap` samples with the *smallest* priorities. Because priority is a
/// pure function of identity and seed, the surviving set is independent
/// of both insertion order and of how samples were partitioned first:
/// merging per-shard reservoirs and re-taking the bottom-`cap` yields
/// exactly the global reservoir, since the global bottom-`cap` of the
/// union is always contained in the union of the per-shard bottom-`cap`s.
/// That is what keeps p50/p99 byte-identical at any worker or shard count.
///
/// The survivors live in a flat candidate buffer, a superset of them. A
/// sample at or above the rejection bound is dropped after one compare;
/// any other is pushed. When the buffer reaches `2 · cap` candidates, one
/// selection cuts it to the bottom-`cap`, whose largest entry becomes the
/// bound. So each doubling of the samples seen costs about one linear
/// selection, and the buffer holds at most `2 · cap − 1` candidates
/// between calls.
///
/// When fewer than `cap` samples were offered the reservoir holds all of
/// them and percentiles are exact; a unit test pins this against the
/// exact computation.
#[derive(Debug, Clone)]
pub struct WaitReservoir {
    seed: u64,
    cap: usize,
    /// Candidates: every survivor, plus fewer than `cap` entries that a
    /// later cut drops.
    kept: Vec<ResEntry>,
    /// The largest survivor of the last cut; no entry at or above it can
    /// survive. `None` until the first cut.
    bound: Option<ResEntry>,
    /// Total samples offered (≥ `len()`).
    seen: u64,
}

impl WaitReservoir {
    /// Reservoir with the default capacity ([`WAIT_RESERVOIR_CAP`]).
    pub fn new(seed: u64) -> Self {
        Self::with_capacity(seed, WAIT_RESERVOIR_CAP)
    }

    /// Reservoir with an explicit capacity (tests use tiny ones). The
    /// buffer grows as samples arrive, so an unused reservoir allocates
    /// nothing.
    pub fn with_capacity(seed: u64, cap: usize) -> Self {
        assert!(cap > 0, "reservoir capacity must be positive");
        WaitReservoir {
            seed,
            cap,
            kept: Vec::new(),
            bound: None,
            seen: 0,
        }
    }

    #[inline]
    fn priority(&self, server: u64, seq: u64) -> u64 {
        mix64(self.seed ^ mix64(server.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seq)))
    }

    /// Offers the wait of completion number `seq` on `server`.
    #[inline]
    pub fn offer(&mut self, server: u64, seq: u64, wait: u64) {
        self.seen += 1;
        let entry = ResEntry {
            pri: self.priority(server, seq),
            server,
            seq,
            wait,
        };
        self.keep(entry);
    }

    /// Keeps `entry` as a candidate unless the bound rules it out, and
    /// cuts the buffer to the bottom-`cap` when it reaches `2 · cap`.
    #[inline]
    fn keep(&mut self, entry: ResEntry) {
        if self.bound.is_some_and(|bound| entry >= bound) {
            return;
        }
        self.kept.push(entry);
        if self.kept.len() == 2 * self.cap {
            self.bound = Some(bottom(&mut self.kept, self.cap));
        }
    }

    /// Merges another reservoir (same seed and capacity) into this one,
    /// re-taking the bottom-`cap` of the union.
    pub fn merge(&mut self, other: &WaitReservoir) {
        assert_eq!(self.seed, other.seed, "reservoir seeds must match");
        assert_eq!(self.cap, other.cap, "reservoir capacities must match");
        self.seen += other.seen;
        for &entry in &other.kept {
            self.keep(entry);
        }
    }

    /// Drops all samples (measurement-window reset). Seed and capacity
    /// are retained.
    pub fn clear(&mut self) {
        self.kept.clear();
        self.bound = None;
        self.seen = 0;
    }

    /// Samples currently held: `min(seen, cap)`. The buffer holds at
    /// least that many candidates, since identities are distinct.
    pub fn len(&self) -> usize {
        self.kept.len().min(self.cap)
    }

    /// True if no samples are held.
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Total samples offered since the last clear.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// True while every offered sample is still held (percentiles exact).
    pub fn is_exact(&self) -> bool {
        self.seen <= self.cap as u64
    }

    /// The surviving waits, sorted ascending — the input [`percentile`]
    /// expects.
    pub fn sorted_waits(&self) -> Vec<u64> {
        let mut kept = self.kept.clone();
        if kept.len() > self.cap {
            bottom(&mut kept, self.cap);
        }
        let mut waits: Vec<u64> = kept.iter().map(|e| e.wait).collect();
        waits.sort_unstable();
        waits
    }
}

/// Cuts `kept` (more than `cap` entries) to its `cap` smallest and
/// returns the largest of them.
fn bottom(kept: &mut Vec<ResEntry>, cap: usize) -> ResEntry {
    let (_, &mut largest, _) = kept.select_nth_unstable(cap - 1);
    kept.truncate(cap);
    largest
}

/// Aggregate result of one load-balancing simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Strategy label.
    pub strategy: &'static str,
    /// Load ratio N/M.
    pub load: f64,
    /// Mean queue length per server, time-averaged over the measurement
    /// window (the Figure 4 y-axis).
    pub avg_queue_len: f64,
    /// Mean queueing delay (timesteps) of tasks served in the window.
    pub avg_wait: f64,
    /// Median queueing delay (timesteps) in the window.
    pub p50_wait: f64,
    /// 99th-percentile queueing delay (timesteps) in the window.
    pub p99_wait: f64,
    /// Largest queue observed in the window.
    pub max_queue_len: usize,
    /// Tasks served in the window.
    pub served: u64,
    /// Tasks generated in the window.
    pub generated: u64,
    /// Fraction of CC pair-rounds that co-located (quantum ≈ 0.854,
    /// always-split = 0, match-types = 1). NaN for unpaired strategies.
    pub cc_colocation_rate: f64,
    /// Fraction of non-CC pair-rounds that split. NaN for unpaired
    /// strategies.
    pub split_rate: f64,
    /// CC pair-rounds observed (denominator of `cc_colocation_rate`;
    /// raw counts let reports attach binomial confidence intervals).
    pub cc_rounds: u64,
    /// CC pair-rounds that co-located (numerator of `cc_colocation_rate`).
    pub cc_colocated: u64,
    /// Non-CC pair-rounds observed (denominator of `split_rate`).
    pub other_rounds: u64,
    /// Non-CC pair-rounds that split (numerator of `split_rate`).
    pub other_split: u64,
    /// Mean queue length per server in consecutive windows of the
    /// measurement period (time series for stability diagnostics; up to
    /// [`crate::sim::QUEUE_SERIES_WINDOWS`] entries, fewer when the run
    /// has fewer timesteps than windows).
    pub queue_len_series: Vec<f64>,
}

impl SimResult {
    /// True if the system looks unstable (queues grew without bound
    /// relative to the serve rate). A coarse indicator used by knee
    /// detection.
    pub fn is_saturated(&self) -> bool {
        self.served + 2 * self.generated / 100 < self.generated
    }
}

/// The measured-window totals of one Figure 4 run, or of one shard of
/// it: the queue-length sums and their [`QUEUE_SERIES_WINDOWS`]-window
/// series, the tasks served and their waits, and the four pair-round
/// counters. `sim` fills one; `shard` fills one per pair shard and per
/// server shard and merges them in shard-index order. [`RunTally::finish`]
/// turns the total into the run's [`SimResult`].
#[derive(Debug, Clone)]
pub(crate) struct RunTally {
    /// Measured timesteps, which the series windows split.
    timesteps: u64,
    /// Σ over measured steps of the total queue length.
    queue_len_sum: u64,
    max_queue: usize,
    /// Tasks served in the window and the sum of their waits.
    pub(crate) served: u64,
    pub(crate) total_wait: u64,
    /// The waits of tasks served in the window.
    pub(crate) waits: WaitReservoir,
    /// Per series window: Σ total queue length, Σ servers sampled.
    win_queue_sum: Vec<u64>,
    win_samples: Vec<u64>,
    cc_rounds: u64,
    cc_colocated: u64,
    other_rounds: u64,
    other_split: u64,
}

impl RunTally {
    /// An empty tally for a run of `timesteps` measured steps whose wait
    /// reservoir is seeded with `resv_seed`.
    pub(crate) fn new(timesteps: u64, resv_seed: u64) -> Self {
        let windows = QUEUE_SERIES_WINDOWS.min(timesteps as usize);
        RunTally {
            timesteps,
            queue_len_sum: 0,
            max_queue: 0,
            served: 0,
            total_wait: 0,
            waits: WaitReservoir::new(resv_seed),
            win_queue_sum: vec![0; windows],
            win_samples: vec![0; windows],
            cc_rounds: 0,
            cc_colocated: 0,
            other_rounds: 0,
            other_split: 0,
        }
    }

    /// Records the queues of `servers` servers after measured step `k`
    /// (counted from the end of warmup): their `total` length and the
    /// `longest` one.
    #[inline]
    pub(crate) fn record_queues(&mut self, k: u64, total: u64, servers: usize, longest: usize) {
        self.queue_len_sum += total;
        self.max_queue = self.max_queue.max(longest);
        let w = (k as usize * self.win_queue_sum.len()) / self.timesteps as usize;
        self.win_queue_sum[w] += total;
        self.win_samples[w] += servers as u64;
    }

    /// Records one measured pair-round: whether both tasks were type-C,
    /// and whether the pair sent them to the same server.
    #[inline]
    pub(crate) fn record_pair(&mut self, both_c: bool, same: bool) {
        if both_c {
            self.cc_rounds += 1;
            self.cc_colocated += u64::from(same);
        } else {
            self.other_rounds += 1;
            self.other_split += u64::from(!same);
        }
    }

    /// Adds `other`'s totals to this tally's.
    pub(crate) fn merge(&mut self, other: &RunTally) {
        self.queue_len_sum += other.queue_len_sum;
        self.max_queue = self.max_queue.max(other.max_queue);
        self.served += other.served;
        self.total_wait += other.total_wait;
        self.waits.merge(&other.waits);
        for (acc, &v) in self.win_queue_sum.iter_mut().zip(&other.win_queue_sum) {
            *acc += v;
        }
        for (acc, &v) in self.win_samples.iter_mut().zip(&other.win_samples) {
            *acc += v;
        }
        self.cc_rounds += other.cc_rounds;
        self.cc_colocated += other.cc_colocated;
        self.other_rounds += other.other_rounds;
        self.other_split += other.other_split;
    }

    /// The run's result under `strategy` on `config`. Flushes the run's
    /// obs counters, once per run and never on the step path, and the
    /// queue histogram once per series window.
    pub(crate) fn finish(self, strategy: &'static str, config: &SimConfig) -> SimResult {
        let total_steps = config.warmup + config.timesteps;
        SIM_RUNS.inc();
        SIM_STEPS.add(total_steps);
        TASKS_ASSIGNED.add(config.n_balancers as u64 * total_steps);
        for &w in &self.win_queue_sum {
            QUEUE_TOTAL.record(w);
        }
        CC_ROUNDS.add(self.cc_rounds);
        CC_COLOCATED.add(self.cc_colocated);
        OTHER_ROUNDS.add(self.other_rounds);
        OTHER_SPLIT.add(self.other_split);

        let ratio = |num: u64, den: u64| {
            if den > 0 {
                num as f64 / den as f64
            } else {
                f64::NAN
            }
        };
        let wait_samples = self.waits.sorted_waits();
        SimResult {
            strategy,
            load: config.load(),
            avg_queue_len: ratio(
                self.queue_len_sum,
                config.timesteps * config.n_servers as u64,
            ),
            avg_wait: ratio(self.total_wait, self.served),
            p50_wait: percentile(&wait_samples, 0.5),
            p99_wait: percentile(&wait_samples, 0.99),
            max_queue_len: self.max_queue,
            served: self.served,
            generated: config.n_balancers as u64 * config.timesteps,
            cc_colocation_rate: ratio(self.cc_colocated, self.cc_rounds),
            split_rate: ratio(self.other_split, self.other_rounds),
            cc_rounds: self.cc_rounds,
            cc_colocated: self.cc_colocated,
            other_rounds: self.other_rounds,
            other_split: self.other_split,
            queue_len_series: self
                .win_queue_sum
                .iter()
                .zip(&self.win_samples)
                .filter(|(_, &n)| n > 0)
                .map(|(&s, &n)| s as f64 / n as f64)
                .collect(),
        }
    }
}

/// Percentile of a sample set (nearest-rank); NaN on empty input.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    debug_assert!((0.0..=1.0).contains(&q));
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Finds the knee of a (load, avg_queue_len) curve: the first load at
/// which the queue length exceeds `threshold`. Returns `None` if the curve
/// never crosses.
pub fn knee_load(points: &[(f64, f64)], threshold: f64) -> Option<f64> {
    points
        .iter()
        .find(|(_, q)| *q > threshold)
        .map(|(load, _)| *load)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knee_detection() {
        let curve = [(0.5, 0.1), (0.8, 0.4), (1.0, 1.5), (1.2, 9.0)];
        assert_eq!(knee_load(&curve, 1.0), Some(1.0));
        assert_eq!(knee_load(&curve, 100.0), None);
        assert_eq!(knee_load(&[], 1.0), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s = [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.99), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn reservoir_is_exact_below_capacity() {
        let mut r = WaitReservoir::with_capacity(7, 64);
        let waits: Vec<u64> = (0..50).map(|i| (i * 13) % 41).collect();
        for (i, &w) in waits.iter().enumerate() {
            r.offer(i as u64 % 5, i as u64, w);
        }
        assert!(r.is_exact());
        let mut exact = waits.clone();
        exact.sort_unstable();
        assert_eq!(r.sorted_waits(), exact);
        assert_eq!(percentile(&r.sorted_waits(), 0.5), percentile(&exact, 0.5));
    }

    #[test]
    fn reservoir_survivors_are_insertion_order_invariant() {
        let offers: Vec<(u64, u64, u64)> = (0..500).map(|i| (i % 17, i / 17, i * 3 % 97)).collect();
        let mut fwd = WaitReservoir::with_capacity(99, 32);
        for &(s, k, w) in &offers {
            fwd.offer(s, k, w);
        }
        let mut rev = WaitReservoir::with_capacity(99, 32);
        for &(s, k, w) in offers.iter().rev() {
            rev.offer(s, k, w);
        }
        assert!(!fwd.is_exact());
        assert_eq!(fwd.sorted_waits(), rev.sorted_waits());
        assert_eq!(fwd.seen(), rev.seen());
    }

    #[test]
    fn reservoir_merge_equals_global_reservoir() {
        // Partition the offers across 4 "shards", merge, and compare with
        // one global reservoir over the same offers: byte-identical.
        let offers: Vec<(u64, u64, u64)> =
            (0..1000).map(|i| (i % 23, i / 23, (i * 7) % 113)).collect();
        let mut global = WaitReservoir::with_capacity(3, 64);
        for &(s, k, w) in &offers {
            global.offer(s, k, w);
        }
        let mut shards: Vec<WaitReservoir> = (0..4)
            .map(|_| WaitReservoir::with_capacity(3, 64))
            .collect();
        for &(s, k, w) in &offers {
            shards[(s % 4) as usize].offer(s, k, w);
        }
        let mut merged = WaitReservoir::with_capacity(3, 64);
        for sh in &shards {
            merged.merge(sh);
        }
        assert_eq!(merged.sorted_waits(), global.sorted_waits());
        assert_eq!(merged.seen(), global.seen());
    }

    #[test]
    fn reservoir_keeps_exactly_the_cap_smallest_priorities() {
        // The oracle sorts every offer by (priority, server, seq) and
        // takes the first `CAP`. Each offer's wait is its index, so equal
        // waits mean equal survivors. Two shuffled offer orders, each
        // through `offer` and through a merge of four shards.
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        const CAP: usize = 64;
        let mut offers: Vec<(u64, u64, u64)> =
            (0..12_000u64).map(|i| (i % 37, i / 37, i)).collect();
        let key = WaitReservoir::with_capacity(11, CAP);
        let mut by_priority = offers.clone();
        by_priority.sort_unstable_by_key(|&(s, k, _)| (key.priority(s, k), s, k));
        let mut want: Vec<u64> = by_priority[..CAP].iter().map(|&(_, _, w)| w).collect();
        want.sort_unstable();
        let mut rng = StdRng::seed_from_u64(25);
        for order in 0..2 {
            offers.shuffle(&mut rng);
            let mut one = WaitReservoir::with_capacity(11, CAP);
            let mut shards: Vec<WaitReservoir> = (0..4)
                .map(|_| WaitReservoir::with_capacity(11, CAP))
                .collect();
            for (i, &(s, k, w)) in offers.iter().enumerate() {
                one.offer(s, k, w);
                shards[i % 4].offer(s, k, w);
            }
            let mut merged = WaitReservoir::with_capacity(11, CAP);
            for shard in &shards {
                merged.merge(shard);
            }
            assert_eq!(one.sorted_waits(), want, "offer, order {order}");
            assert_eq!(merged.sorted_waits(), want, "merge, order {order}");
            assert_eq!(merged.seen(), one.seen());
        }
    }

    /// What holds after every offer and merge: `len` and `is_exact`
    /// follow `seen`, the buffer stays under `2 · cap` candidates, and
    /// once set the bound is the largest candidate.
    fn check_reservoir(r: &WaitReservoir, ctx: &str) {
        let (seen, cap) = (r.seen(), r.cap as u64);
        assert_eq!(r.len() as u64, seen.min(cap), "{ctx}: len");
        assert_eq!(r.is_exact(), seen <= cap, "{ctx}: is_exact");
        let held = r.kept.len();
        assert!(held < 2 * r.cap, "{ctx}: {held} candidates");
        if r.bound.is_some() {
            assert_eq!(r.bound, r.kept.iter().max().copied(), "{ctx}: bound");
        }
    }

    #[test]
    fn reservoir_cuts_keep_the_bottom_cap_at_every_boundary() {
        // Offer counts on each side of a cut, against a full sort by
        // (priority, server, seq); each offer's wait is its index. The
        // same offers go through `offer`, and through merges of three
        // shards left in different states: short of `cap`, short of the
        // first cut, and cut (once the count reaches 5 000).
        const SEED: u64 = 13;
        for cap in [1usize, 2, 3, 64] {
            let near_cuts = [cap - 1, cap, cap + 1, 2 * cap - 1, 2 * cap, 2 * cap + 1];
            for n in [0, 1].into_iter().chain(near_cuts).chain([5_000]) {
                let ctx = format!("cap {cap}, {n} offers");
                let offers: Vec<(u64, u64, u64)> =
                    (0..n as u64).map(|i| (i % 7, i / 7, i)).collect();
                let mut one = WaitReservoir::with_capacity(SEED, cap);
                let mut shards = vec![WaitReservoir::with_capacity(SEED, cap); 3];
                for (i, &(s, k, w)) in offers.iter().enumerate() {
                    one.offer(s, k, w);
                    check_reservoir(&one, &format!("{ctx}: offer {i}"));
                    let shard = usize::from(i >= cap - 1) + usize::from(i >= 3 * cap - 2);
                    shards[shard].offer(s, k, w);
                }
                let mut by_priority = offers.clone();
                by_priority.sort_unstable_by_key(|&(s, k, _)| (one.priority(s, k), s, k));
                let mut want: Vec<u64> = by_priority.iter().take(cap).map(|e| e.2).collect();
                want.sort_unstable();
                assert_eq!(one.sorted_waits(), want, "{ctx}: offer");

                let mut fresh = WaitReservoir::with_capacity(SEED, cap);
                let mut into_last = shards[2].clone();
                for (i, shard) in shards.iter().enumerate() {
                    fresh.merge(shard);
                    check_reservoir(&fresh, &format!("{ctx}: merge {i} into an empty one"));
                }
                for (i, shard) in shards[..2].iter().enumerate().rev() {
                    into_last.merge(shard);
                    check_reservoir(&into_last, &format!("{ctx}: merge {i} into shard 2"));
                }
                for merged in [&fresh, &into_last] {
                    assert_eq!(merged.sorted_waits(), want, "{ctx}: merge");
                    assert_eq!(merged.seen(), n as u64, "{ctx}: merged seen");
                }
            }
        }
    }

    #[test]
    fn reservoir_percentiles_track_exact_under_subsampling() {
        // 20k uniform waits through a 2k reservoir: p50/p99 land within a
        // few percent of the exact values (hash-uniform subsample).
        let waits: Vec<u64> = (0..20_000u64)
            .map(|i| mix64(i.wrapping_mul(0x1234_5678_9abc_def1)) % 1000)
            .collect();
        let mut r = WaitReservoir::with_capacity(5, 2048);
        for (i, &w) in waits.iter().enumerate() {
            r.offer(i as u64 % 100, i as u64 / 100, w);
        }
        let mut exact = waits.clone();
        exact.sort_unstable();
        for q in [0.5, 0.99] {
            let est = percentile(&r.sorted_waits(), q);
            let truth = percentile(&exact, q);
            assert!(
                (est - truth).abs() <= 0.05 * 1000.0,
                "q={q}: est {est} vs exact {truth}"
            );
        }
    }

    #[test]
    fn saturation_heuristic() {
        let mut r = SimResult {
            strategy: "x",
            load: 1.0,
            avg_queue_len: 0.0,
            avg_wait: 0.0,
            p50_wait: 0.0,
            p99_wait: 0.0,
            max_queue_len: 0,
            served: 1000,
            generated: 1000,
            cc_colocation_rate: f64::NAN,
            split_rate: f64::NAN,
            cc_rounds: 0,
            cc_colocated: 0,
            other_rounds: 0,
            other_split: 0,
            queue_len_series: Vec::new(),
        };
        assert!(!r.is_saturated());
        r.served = 500;
        assert!(r.is_saturated());
    }
}
