//! The sharded, structure-of-arrays, batch-advanced Figure 4 engine.
//!
//! [`crate::sim::run_simulation`] advances a `Vec<Server>` one timestep
//! at a time with a caller-supplied generator — the right contract for
//! paper-sized runs (100 balancers) and for bit-stable history, but a
//! dead end at the ROADMAP's "millions of users" scale: array-of-structs
//! queues, per-step allocations, and a single global RNG that serializes
//! everything. This module is the scale path. Same model, different
//! shape:
//!
//! - **One model.** Both engines run the same decisions of the Figure 4
//!   model, written once: the placement of a balancer pair and of the
//!   odd balancer out (`strategy::Placement`, behind every strategy
//!   [`Strategy::build`] makes but round robin), the arrival law and its
//!   MMPP phase step ([`ArrivalModel`], which `BurstyWorkload` and
//!   `DiurnalWorkload` draw through), the serve rule (the two questions
//!   [`crate::server::Discipline`] answers, which
//!   [`crate::server::Server::step`] asks too) and the run tally in
//!   [`crate::metrics`] that becomes the [`SimResult`] and the obs
//!   counters. `tests/parity.rs` holds `sim`'s use of them to the frozen
//!   [`crate::aos`] loop, so what this engine runs alone is its data
//!   layout: the lanes, the packed mailboxes, the active list and the
//!   reservoir's sample sequence.
//! - **Structure of arrays.** A server is a row across flat arrays —
//!   queue counts (`q_len`), completion counters (`served_seq`), and two
//!   FIFO *lanes* of `u32` arrival steps (type-C and type-E). Lanes are
//!   exact for the disciplines whose serve choice depends only on the
//!   lane — the paper's rule, C-priority-single, and exclusive-first —
//!   because with a single C subtype "the first type-C and the next of
//!   the same subtype" is just the two oldest entries of the C lane.
//!   Order-sensitive disciplines (FIFO-paired-C, single-slot) compare the
//!   heads' arrival order, which the lanes do not keep, and stay on the
//!   compatibility path ([`SimError::UnsupportedDiscipline`]).
//! - **Sharding.** Servers are partitioned into contiguous shards, and
//!   balancer *pairs* into pair-shards, advanced by [`runtime`] workers.
//!   Each epoch runs two lock-free phases: pair-shards draw arrivals and
//!   assignments, appending packed `(step, server, lane)` entries to one
//!   outbox per server-shard (phase A); server-shards then drain their
//!   inboxes in pair-shard order and serve (phase B). Cross-shard
//!   handoff is only ever through these per-epoch mailboxes — the step
//!   path takes no locks.
//! - **Determinism at any shard/worker count.** The PR 1/PR 5 stream
//!   pattern, pushed one level deeper: one master seed, and each balancer
//!   pair owns the [`runtime::SplitMix64`] sub-stream
//!   `stream_seed(master, pair)` — a shard owns the streams of its pair
//!   range, so every draw is a pure function of `(master, pair, step)`
//!   and the partition only decides *who computes it*. Each pair shard
//!   and server shard keeps its own tally, and they merge in shard-index
//!   order; wait percentiles come from the
//!   order-invariant bottom-R reservoir ([`crate::metrics::WaitReservoir`]),
//!   seeded from the reserved stream index past the pair range. Results
//!   are byte-identical across `QNLG_THREADS` and shard counts.
//!
//! The one deliberate semantic difference from the step-at-a-time loop:
//! informed strategies (power-of-two) see queue lengths refreshed per
//! *epoch*, not per step — the staleness any real probe-based balancer
//! has at this scale. Epoch length 1 recovers per-step freshness.

use crate::error::SimError;
use crate::metrics::{RunTally, SimResult};
use crate::sim::SimConfig;
use crate::strategy::{Placement, Strategy};
use crate::task::ArrivalModel;
use runtime::{par_map_mut_threads, stream_seed, SplitMix64};
use std::collections::VecDeque;

/// Default steps per epoch: long enough to amortize the two phase
/// dispatches and the mailbox churn, short enough that informed
/// strategies' queue snapshot stays fresh.
pub const DEFAULT_EPOCH_LEN: u64 = 64;

/// Mailbox entries must address a step within the epoch in 16 bits.
const MAX_EPOCH_LEN: u64 = u16::MAX as u64;

/// Configuration of one sharded run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// The simulated system (balancers, servers, horizon, discipline).
    pub sim: SimConfig,
    /// Arrival model (the engine keeps per-balancer phase state itself).
    pub workload: ArrivalModel,
    /// Server/pair shard count. Results are byte-identical for any value;
    /// it only controls parallel grain. It must be at least 1:
    /// [`ScaleConfig::validate`] rejects 0 with [`SimError::NoShards`].
    pub shards: usize,
    /// Steps per epoch (mailbox batch size), capped at 65535.
    pub epoch_len: u64,
    /// Worker threads; 0 means the configured count
    /// ([`runtime::thread_count`]).
    pub threads: usize,
}

impl ScaleConfig {
    /// A sharded run of `sim` under `workload` with default epoch length
    /// and auto shard/worker counts.
    pub fn new(sim: SimConfig, workload: ArrivalModel) -> Self {
        ScaleConfig {
            sim,
            workload,
            shards: default_shards(sim.n_servers),
            epoch_len: DEFAULT_EPOCH_LEN,
            threads: 0,
        }
    }

    /// Checks the configuration, including the u32 step-counter bound the
    /// packed lane entries impose.
    pub fn validate(&self) -> Result<(), SimError> {
        self.sim.validate()?;
        if !self.workload.is_valid() {
            return Err(SimError::BadArrivalModel {
                model: self.workload.label(),
            });
        }
        if self.shards == 0 {
            return Err(SimError::NoShards);
        }
        if self.epoch_len == 0 {
            return Err(SimError::EmptyEpoch);
        }
        // Arrival steps live in u32 lanes and mailbox entries.
        let horizon = self.sim.warmup + self.sim.timesteps; // validated add
        if horizon > u32::MAX as u64 || self.sim.n_servers > u32::MAX as usize {
            return Err(SimError::HorizonOverflow {
                warmup: self.sim.warmup,
                timesteps: self.sim.timesteps,
            });
        }
        Ok(())
    }
}

/// A deterministic shard count for a given system size: one shard per
/// ~64k servers, between 1 and 16. Fixed by size (never by machine) so
/// artifacts stay machine-independent even though results are
/// shard-count invariant anyway.
pub fn default_shards(n_servers: usize) -> usize {
    (n_servers / 65_536).clamp(1, 16).max(1)
}

/// Contiguous partition range `i` of `n` items over `shards` parts.
#[inline]
fn part(i: usize, n: usize, shards: usize) -> (usize, usize) {
    (i * n / shards, (i + 1) * n / shards)
}

/// The shard whose [`part`] range contains item `s` — the exact inverse
/// of `part`'s floored boundaries: `ceil((s+1)·shards / n) - 1`, written
/// division-safe as `floor((s·shards + shards - 1) / n)`.
#[inline]
fn part_of(s: usize, n: usize, shards: usize) -> usize {
    (s * shards + shards - 1) / n
}

/// Packed mailbox entry: `step_off << 40 | server << 8 | lane`.
#[inline]
fn pack(step_off: u64, server: u32, colocate: bool) -> u64 {
    (step_off << 40) | (u64::from(server) << 8) | u64::from(colocate)
}

/// One shard of balancer pairs: the pair sub-streams it owns, the MMPP
/// phases of its balancers, and one outbox per server shard.
struct PairShard {
    g0: usize,
    g1: usize,
    /// Raw SplitMix64 state per owned pair (flat, resumable).
    rng: Vec<u64>,
    /// MMPP phase per owned pair, left balancer then right: hot or not.
    /// Both start hot, like [`crate::task::BurstyWorkload`].
    hot: Vec<[bool; 2]>,
    /// Packed task handoffs, one outbox per server shard, refilled each
    /// epoch (allocation-free at steady state).
    outbox: Vec<Vec<u64>>,
    /// The owned pairs' measured pair-rounds.
    tally: RunTally,
}

impl PairShard {
    /// Phase A for steps `[e0, e1)`: draw arrivals and assignments for
    /// every owned pair, appending handoffs in (step, pair) order — which
    /// is why server shards can drain inboxes sequentially per step with
    /// no sort.
    fn run_epoch(
        &mut self,
        e0: u64,
        e1: u64,
        cfg: &ScaleConfig,
        placement: &Placement,
        queue_lens: &[u32],
    ) -> u64 {
        for b in self.outbox.iter_mut() {
            b.clear();
        }
        let model = cfg.workload;
        let warmup = cfg.sim.warmup;
        let paired = placement.pairs();
        let (n_balancers, n_servers) = (cfg.sim.n_balancers, cfg.sim.n_servers);
        let mut assigned = 0u64;
        for t in e0..e1 {
            let off = t - e0;
            for g in self.g0..self.g1 {
                let li = g - self.g0;
                let mut rng = SplitMix64::from_raw(self.rng[li]);
                let full = 2 * g + 1 < n_balancers;

                // Arrival draws, left then right; then the assignment.
                let [hot_x, hot_y] = &mut self.hot[li];
                let x_c = model.step(t, hot_x, &mut rng).is_colocate();
                let y_c = full && model.step(t, hot_y, &mut rng).is_colocate();
                let (sl, sr) = if full {
                    let (l, r) = placement.pair(x_c, y_c, queue_lens, &mut rng);
                    (l, Some(r))
                } else {
                    (placement.one(x_c, queue_lens, &mut rng), None)
                };
                self.rng[li] = rng.raw();

                let shard_of = |s: usize| part_of(s, n_servers, cfg.shards);
                self.outbox[shard_of(sl)].push(pack(off, sl as u32, x_c));
                assigned += 1;
                if let Some(sr) = sr {
                    self.outbox[shard_of(sr)].push(pack(off, sr as u32, y_c));
                    assigned += 1;
                    if paired && t >= warmup {
                        self.tally.record_pair(x_c && y_c, sl == sr);
                    }
                }
            }
        }
        assigned
    }
}

/// One shard of servers in structure-of-arrays form.
struct ServerShard {
    s0: usize,
    s1: usize,
    /// FIFO lanes of arrival steps, per local server.
    c_lane: Vec<VecDeque<u32>>,
    e_lane: Vec<VecDeque<u32>>,
    /// Queue length per local server (`c + e`), the probe snapshot source.
    q_len: Vec<u32>,
    /// Per-server completion counter — the reservoir sample sequence.
    served_seq: Vec<u32>,
    /// Dense list of local indices with non-empty queues; only these are
    /// stepped, so an idle system costs arrivals, not O(servers)/step.
    active: Vec<u32>,
    in_active: Vec<bool>,
    /// Running total queue length of the shard (post-serve).
    q_total: u64,
    /// Inbox read cursors, one per pair shard, reset each epoch.
    cursor: Vec<usize>,
    /// The shard's measured queues and services.
    tally: RunTally,
}

impl ServerShard {
    fn new(s0: usize, s1: usize, pair_shards: usize, tally: RunTally) -> Self {
        let n = s1 - s0;
        ServerShard {
            s0,
            s1,
            c_lane: (0..n).map(|_| VecDeque::new()).collect(),
            e_lane: (0..n).map(|_| VecDeque::new()).collect(),
            q_len: vec![0; n],
            served_seq: vec![0; n],
            active: Vec::new(),
            in_active: vec![false; n],
            q_total: 0,
            cursor: vec![0; pair_shards],
            tally,
        }
    }

    /// Phase B for steps `[e0, e1)`: per step, drain every pair shard's
    /// handoffs for this step (in pair-shard order — global balancer
    /// order, matching the one-shard run exactly), then serve the active
    /// servers by the discipline's rule and tally the measured steps.
    fn run_epoch(&mut self, e0: u64, e1: u64, inboxes: &[&Vec<u64>], cfg: &ScaleConfig) {
        debug_assert_eq!(inboxes.len(), self.cursor.len());
        for c in self.cursor.iter_mut() {
            *c = 0;
        }
        let discipline = cfg.sim.discipline;
        let serves_e = discipline
            .serves_exclusive()
            .expect("run_scaled rejects order-sensitive disciplines");
        let pairs = discipline.pairs_colocate();
        let warmup = cfg.sim.warmup;
        for t in e0..e1 {
            let off = t - e0;
            // Deliver this step's arrivals.
            for (a, inbox) in inboxes.iter().enumerate() {
                let cur = &mut self.cursor[a];
                while *cur < inbox.len() {
                    let entry = inbox[*cur];
                    if entry >> 40 != off {
                        break;
                    }
                    *cur += 1;
                    let server = (entry >> 8) as u32;
                    let li = server as usize - self.s0;
                    if entry & 1 != 0 {
                        self.c_lane[li].push_back(t as u32);
                    } else {
                        self.e_lane[li].push_back(t as u32);
                    }
                    self.q_len[li] += 1;
                    self.q_total += 1;
                    if !self.in_active[li] {
                        self.in_active[li] = true;
                        self.active.push(li as u32);
                    }
                }
            }
            // Serve. Every non-empty server is active; empty servers have
            // nothing to do, so skipping them is exact.
            let measured = t >= warmup;
            let mut longest = 0u32;
            let mut i = 0;
            while i < self.active.len() {
                let li = self.active[i] as usize;
                let (c, e) = (&mut self.c_lane[li], &mut self.e_lane[li]);
                let (lane, takes_two) = if !e.is_empty() && (c.is_empty() || serves_e) {
                    (e, false)
                } else {
                    (c, pairs)
                };
                let first = lane.pop_front().expect("an active server has a task");
                let second = if takes_two { lane.pop_front() } else { None };
                let slots = 1 + u32::from(second.is_some());
                self.q_len[li] -= slots;
                self.q_total -= u64::from(slots);
                if measured {
                    let sid = (self.s0 + li) as u64;
                    let seq = &mut self.served_seq[li];
                    for at in std::iter::once(first).chain(second) {
                        let wait = t - u64::from(at);
                        self.tally.served += 1;
                        self.tally.total_wait += wait;
                        self.tally.waits.offer(sid, u64::from(*seq), wait);
                        *seq += 1;
                    }
                    longest = longest.max(self.q_len[li]);
                }
                if self.q_len[li] == 0 {
                    self.in_active[li] = false;
                    self.active.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if measured {
                let (servers, longest) = (self.s1 - self.s0, longest as usize);
                self.tally
                    .record_queues(t - warmup, self.q_total, servers, longest);
            }
        }
    }
}

/// Runs one sharded simulation with deterministic per-pair sub-streams
/// derived from `master_seed`.
///
/// The result is byte-identical for any `cfg.shards` and `cfg.threads`;
/// informed strategies additionally depend on `cfg.epoch_len` (snapshot
/// staleness), all others do not. Every strategy needs two servers
/// ([`SimError::TooFewServers`]); round robin, whose offsets are
/// per-balancer state, stays on the compatibility path
/// ([`SimError::UnsupportedStrategy`]).
pub fn run_scaled(
    cfg: &ScaleConfig,
    strategy: Strategy,
    master_seed: u64,
) -> Result<SimResult, SimError> {
    cfg.validate()?;
    if cfg.sim.discipline.serves_exclusive().is_none() {
        return Err(SimError::UnsupportedDiscipline {
            discipline: cfg.sim.discipline.label(),
        });
    }
    if cfg.sim.n_servers < 2 {
        return Err(SimError::TooFewServers {
            n_servers: cfg.sim.n_servers,
            min: 2,
        });
    }
    let Some(placement) = Placement::new(strategy, cfg.sim.n_servers) else {
        let strategy = strategy.name();
        return Err(SimError::UnsupportedStrategy { strategy });
    };

    let n_servers = cfg.sim.n_servers;
    let n_groups = cfg.sim.n_balancers.div_ceil(2);
    let shards = cfg.shards;
    let threads = if cfg.threads == 0 {
        runtime::thread_count()
    } else {
        cfg.threads
    };
    let epoch_len = cfg.epoch_len.min(MAX_EPOCH_LEN);
    let total_steps = cfg.sim.warmup + cfg.sim.timesteps;
    // Reserved stream index past the pair range: the reservoir seed is
    // drawn from the run's master stream without touching any pair's.
    let resv_seed = stream_seed(master_seed, n_groups as u64);
    let mut tally = RunTally::new(cfg.sim.timesteps, resv_seed);

    let mut pair_shards: Vec<PairShard> = (0..shards)
        .map(|a| {
            let (g0, g1) = part(a, n_groups, shards);
            PairShard {
                g0,
                g1,
                rng: (g0..g1)
                    .map(|g| stream_seed(master_seed, g as u64))
                    .collect(),
                hot: vec![[true; 2]; g1 - g0],
                outbox: (0..shards).map(|_| Vec::new()).collect(),
                tally: tally.clone(),
            }
        })
        .collect();
    let mut server_shards: Vec<ServerShard> = (0..shards)
        .map(|b| {
            let (s0, s1) = part(b, n_servers, shards);
            ServerShard::new(s0, s1, shards, tally.clone())
        })
        .collect();

    let needs_lens = strategy == Strategy::PowerOfTwoChoices;
    let mut queue_lens: Vec<u32> = vec![0; if needs_lens { n_servers } else { 0 }];

    let mut e0 = 0u64;
    while e0 < total_steps {
        let e1 = (e0 + epoch_len).min(total_steps);
        if needs_lens {
            // Epoch-start snapshot, assembled in shard order.
            for ss in &server_shards {
                queue_lens[ss.s0..ss.s1].copy_from_slice(&ss.q_len);
            }
        }
        par_map_mut_threads(threads, &mut pair_shards, |_, ps| {
            ps.run_epoch(e0, e1, cfg, &placement, &queue_lens)
        });
        let pair_ref: &[PairShard] = &pair_shards;
        par_map_mut_threads(threads, &mut server_shards, |b, ss| {
            let inboxes: Vec<&Vec<u64>> = pair_ref.iter().map(|ps| &ps.outbox[b]).collect();
            ss.run_epoch(e0, e1, &inboxes, cfg);
        });
        e0 = e1;
    }

    // Merge the shard tallies in shard-index order.
    let pair_tallies = pair_shards.iter().map(|ps| &ps.tally);
    for shard_tally in pair_tallies.chain(server_shards.iter().map(|ss| &ss.tally)) {
        tally.merge(shard_tally);
    }
    Ok(tally.finish(strategy.name(), &cfg.sim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Discipline;
    use crate::task::ArrivalModel;

    fn quick(load: f64, n_balancers: usize) -> ScaleConfig {
        let n_servers = (n_balancers as f64 / load).round() as usize;
        ScaleConfig {
            sim: SimConfig {
                n_balancers,
                n_servers,
                timesteps: 400,
                warmup: 100,
                discipline: Discipline::PaperPairedC,
            },
            workload: ArrivalModel::paper(),
            shards: 4,
            epoch_len: 32,
            threads: 1,
        }
    }

    /// NaN-tolerant result fingerprint (`cc` rates are NaN for unpaired
    /// strategies, and NaN != NaN under `PartialEq`).
    fn key(r: &SimResult) -> String {
        format!("{r:?}")
    }

    /// Type-C and type-E each load their servers to 3/4 at load 1.0:
    /// stable in both engines.
    const DEDICATED: Strategy = Strategy::DedicatedServers {
        dedicated_fraction: 1.0 / 3.0,
    };

    #[test]
    fn results_are_shard_and_thread_count_invariant() {
        for strategy in [
            Strategy::quantum_ideal(),
            Strategy::UniformRandom,
            Strategy::PowerOfTwoChoices,
            Strategy::PairedMatchTypes,
            DEDICATED,
        ] {
            let mut cfg = quick(1.2, 61); // odd: exercises the half pair
            let reference = {
                cfg.shards = 1;
                cfg.threads = 1;
                key(&run_scaled(&cfg, strategy, 0xc0ffee).unwrap())
            };
            for (shards, threads) in [(1, 2), (4, 1), (4, 3), (16, 4), (7, 2)] {
                cfg.shards = shards;
                cfg.threads = threads;
                let r = key(&run_scaled(&cfg, strategy, 0xc0ffee).unwrap());
                assert_eq!(
                    r,
                    reference,
                    "{}: shards={shards} threads={threads} diverged",
                    strategy.name()
                );
            }
        }
    }

    /// Pins the sharded engine's draws across commits for every strategy
    /// under every arrival model, as `QUICK_DIGESTS` pins the
    /// experiments': an FNV-1a digest per model of each strategy's
    /// `SimResult` text. 61 balancers leave one out of the pairs. A
    /// refactor leaves the digests unchanged; a change that means to
    /// alter the draws updates them from the failure message.
    #[test]
    fn every_strategy_and_arrival_model_matches_its_digest() {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let strategies = [
            Strategy::UniformRandom,
            Strategy::PowerOfTwoChoices,
            Strategy::PairedAlwaysSplit,
            Strategy::PairedMatchTypes,
            Strategy::PairedQuantum {
                availability: 0.8,
                visibility: 0.9,
            },
        ];
        let models = [
            ArrivalModel::paper(),
            ArrivalModel::Mmpp {
                p_c_hot: 0.9,
                p_c_cold: 0.1,
                switch_prob: 0.02,
            },
            ArrivalModel::Diurnal {
                mean: 0.5,
                amplitude: 0.3,
                period: 100,
            },
        ];
        let digests = models.map(|workload| {
            let mut cfg = quick(1.2, 61);
            cfg.sim.n_servers = 50;
            cfg.workload = workload;
            strategies.iter().fold(FNV_OFFSET, |h, &strategy| {
                let text = key(&run_scaled(&cfg, strategy, 0x5eed).unwrap());
                text.bytes()
                    .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
            })
        });
        assert_eq!(
            digests,
            [
                0x2c34_a815_d180_f5a9,
                0xeccf_16ba_fbb9_6b50,
                0xa5d4_5f5b_344c_8b0e
            ],
            "sharded result digests drifted (bernoulli, mmpp, diurnal): {digests:#018x?}"
        );
    }

    #[test]
    fn epoch_length_does_not_change_uninformed_results() {
        // Only informed strategies may see epoch boundaries (snapshot
        // staleness); everything else must be epoch-length invariant.
        let mut cfg = quick(1.2, 60);
        let reference = key(&run_scaled(&cfg, Strategy::quantum_ideal(), 9).unwrap());
        for epoch_len in [1, 7, 100, 10_000] {
            cfg.epoch_len = epoch_len;
            let r = key(&run_scaled(&cfg, Strategy::quantum_ideal(), 9).unwrap());
            assert_eq!(r, reference, "epoch_len={epoch_len} diverged");
        }
    }

    #[test]
    fn quantum_beats_classical_at_the_knee() {
        let cfg = quick(1.2, 200);
        let classical = run_scaled(&cfg, Strategy::UniformRandom, 7).unwrap();
        let quantum = run_scaled(&cfg, Strategy::quantum_ideal(), 7).unwrap();
        assert!(
            quantum.avg_queue_len < classical.avg_queue_len,
            "quantum {} vs classical {}",
            quantum.avg_queue_len,
            classical.avg_queue_len
        );
    }

    #[test]
    fn pair_stats_match_chsh_rates() {
        let mut cfg = quick(1.0, 400);
        cfg.sim.timesteps = 600;
        let r = run_scaled(&cfg, Strategy::quantum_ideal(), 11).unwrap();
        let expect = games::chsh_quantum_value();
        assert!(
            (r.cc_colocation_rate - expect).abs() < 0.02,
            "CC co-location {} vs {expect}",
            r.cc_colocation_rate
        );
        assert!(
            (r.split_rate - expect).abs() < 0.02,
            "split rate {} vs {expect}",
            r.split_rate
        );
    }

    #[test]
    fn agrees_with_the_compat_engine_statistically() {
        // Different generators, same model: the sharded engine and the
        // step-at-a-time loop must agree on the physics (mean queue
        // lengths within Monte-Carlo noise at a stable load).
        use crate::task::BernoulliWorkload;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let cfg = quick(1.0, 120);
        for strategy in [Strategy::quantum_ideal(), DEDICATED] {
            let scaled = run_scaled(&cfg, strategy, 5).unwrap();
            let mut rng = StdRng::seed_from_u64(5);
            let legacy = crate::sim::run_simulation(
                cfg.sim,
                strategy,
                &mut BernoulliWorkload::paper(),
                &mut rng,
            );
            let rel = (scaled.avg_queue_len - legacy.avg_queue_len).abs()
                / legacy.avg_queue_len.max(0.05);
            assert!(
                rel < 0.35,
                "{}: scaled {} vs legacy {} (rel {rel})",
                strategy.name(),
                scaled.avg_queue_len,
                legacy.avg_queue_len
            );
            // Serve accounting conserves: in a stable system nearly all
            // generated tasks are served within the window.
            assert!(scaled.served > 0 && scaled.generated > 0);
        }
    }

    #[test]
    fn disciplines_match_compat_semantics_statistically() {
        use crate::task::BernoulliWorkload;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for discipline in [
            Discipline::PaperPairedC,
            Discipline::CPrioritySingle,
            Discipline::ExclusiveFirst,
        ] {
            let mut cfg = quick(0.9, 120);
            cfg.sim.discipline = discipline;
            let scaled = run_scaled(&cfg, Strategy::UniformRandom, 3).unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            let legacy = crate::sim::run_simulation(
                cfg.sim,
                crate::strategy::Strategy::UniformRandom,
                &mut BernoulliWorkload::paper(),
                &mut rng,
            );
            let diff = (scaled.avg_wait - legacy.avg_wait).abs();
            assert!(
                diff < legacy.avg_wait.max(1.0) * 0.4,
                "{}: scaled wait {} vs legacy {}",
                discipline.label(),
                scaled.avg_wait,
                legacy.avg_wait
            );
        }
    }

    #[test]
    fn mmpp_and_diurnal_models_run_and_stay_sane() {
        for workload in [
            ArrivalModel::Mmpp {
                p_c_hot: 0.9,
                p_c_cold: 0.1,
                switch_prob: 0.02,
            },
            ArrivalModel::Diurnal {
                mean: 0.5,
                amplitude: 0.3,
                period: 100,
            },
        ] {
            let mut cfg = quick(0.8, 80);
            cfg.workload = workload;
            let r = run_scaled(&cfg, Strategy::quantum_ideal(), 13).unwrap();
            assert!(r.avg_queue_len.is_finite() && r.avg_queue_len >= 0.0);
            assert!(r.served > 0, "{}: no tasks served", workload.label());
            // Still byte-stable across shard counts with phase state.
            let mut cfg16 = cfg;
            cfg16.shards = 16;
            cfg16.threads = 3;
            let r16 = run_scaled(&cfg16, Strategy::quantum_ideal(), 13).unwrap();
            assert_eq!(key(&r), key(&r16), "{}", workload.label());
        }
    }

    #[test]
    fn unsupported_configs_are_typed_errors() {
        let mut cfg = quick(1.0, 40);
        cfg.sim.discipline = Discipline::SingleSlot;
        assert_eq!(
            run_scaled(&cfg, Strategy::UniformRandom, 1).unwrap_err(),
            SimError::UnsupportedDiscipline {
                discipline: "single-slot"
            }
        );
        let mut cfg = quick(1.0, 40);
        cfg.shards = 0;
        assert_eq!(
            run_scaled(&cfg, Strategy::UniformRandom, 1).unwrap_err(),
            SimError::NoShards
        );
        let mut cfg = quick(1.0, 40);
        cfg.epoch_len = 0;
        assert_eq!(
            run_scaled(&cfg, Strategy::UniformRandom, 1).unwrap_err(),
            SimError::EmptyEpoch
        );
        let mut cfg = quick(1.0, 40);
        cfg.workload = ArrivalModel::Bernoulli { p_c: 2.0 };
        assert_eq!(
            run_scaled(&cfg, Strategy::UniformRandom, 1).unwrap_err(),
            SimError::BadArrivalModel { model: "bernoulli" }
        );
        let cfg = quick(1.0, 40);
        assert_eq!(
            run_scaled(&cfg, Strategy::RoundRobin, 1).unwrap_err(),
            SimError::UnsupportedStrategy {
                strategy: "round-robin"
            }
        );
        let mut cfg = quick(1.0, 40);
        cfg.sim.n_servers = 1;
        for strategy in [Strategy::quantum_ideal(), Strategy::UniformRandom] {
            assert_eq!(
                run_scaled(&cfg, strategy, 1).unwrap_err(),
                SimError::TooFewServers {
                    n_servers: 1,
                    min: 2
                }
            );
        }
    }

    #[test]
    fn part_of_is_the_exact_inverse_of_part() {
        for &(n, shards) in &[
            (1usize, 1usize),
            (5, 4),
            (41, 4),
            (165, 4),
            (165, 16),
            (100, 7),
        ] {
            for s in 0..n {
                let b = part_of(s, n, shards);
                let (lo, hi) = part(b, n, shards);
                assert!(
                    (lo..hi).contains(&s),
                    "n={n} shards={shards}: item {s} routed to shard {b} = [{lo},{hi})"
                );
            }
        }
    }

    #[test]
    fn default_shards_scale_with_system_size() {
        assert_eq!(default_shards(100), 1);
        assert_eq!(default_shards(100_000), 1);
        assert_eq!(default_shards(1_000_000), 15);
        assert_eq!(default_shards(10_000_000), 16);
    }
}
