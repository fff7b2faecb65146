//! The frozen array-of-structs Figure 4 loop.
//!
//! This is the pre-shard simulation loop, kept verbatim as the
//! determinism oracle: [`crate::sim::run_simulation`] must stay
//! bit-identical to it for any `(config, strategy, workload, seed)`.
//! It advances a `Vec` of the seed's queue-scanning servers (the private
//! `Server` below) one timestep at a time, each with its own wait
//! reservoir and a fresh serve-index vector per step, exactly as the seed
//! implementation did. Holding the production per-class lanes of
//! [`crate::server`] to this server is what makes the parity tests
//! compare against the old semantics rather than against themselves.
//!
//! It records no obs metrics: it exists for tests, where counting its
//! work alongside the production path's would double-book every artifact
//! counter.

use crate::error::SimError;
use crate::metrics::{SimResult, WaitReservoir, WAIT_RESERVOIR_SEED};
use crate::server::Discipline;
use crate::sim::{validate_for_build, SimConfig, QUEUE_SERIES_WINDOWS};
use crate::strategy::Strategy;
use crate::task::{Task, TaskType, Workload};
use rand::Rng;
use std::collections::VecDeque;

/// Runs one simulation on the frozen AoS loop. Same contract as
/// [`crate::sim::try_run_simulation`]; the result must be equal, field
/// for field — `tests/parity.rs` holds that line.
pub fn run_simulation_aos<W, R>(
    config: SimConfig,
    strategy: Strategy,
    workload: &mut W,
    rng: &mut R,
) -> Result<SimResult, SimError>
where
    W: Workload + ?Sized,
    R: Rng,
{
    validate_for_build(&config)?;
    let mut strat = strategy.build(config.n_servers);
    let mut servers: Vec<Server> = (0..config.n_servers)
        .map(|i| Server::with_id(config.discipline, i as u64))
        .collect();
    let paired = strat.name().starts_with("paired");

    let total_steps = config.warmup + config.timesteps;
    let mut queue_len_sum = 0u64;
    let mut max_queue = 0usize;
    let mut generated = 0u64;
    let mut served_before_window = 0u64;
    let mut wait_before_window = 0u64;

    let mut cc_rounds = 0u64;
    let mut cc_colocated = 0u64;
    let mut other_rounds = 0u64;
    let mut other_split = 0u64;

    let mut tasks: Vec<TaskType> = Vec::with_capacity(config.n_balancers);
    let mut queue_lens: Vec<usize> = vec![0; config.n_servers];

    let windows = QUEUE_SERIES_WINDOWS.min(config.timesteps as usize);
    let mut win_queue_sum = vec![0u64; windows];
    let mut win_samples = vec![0u64; windows];

    for t in 0..total_steps {
        if t == config.warmup {
            served_before_window = servers.iter().map(|s| s.served).sum();
            wait_before_window = servers.iter().map(|s| s.total_wait).sum();
            for s in servers.iter_mut() {
                s.waits.clear();
            }
        }
        workload.on_step(t);
        tasks.clear();
        for _ in 0..config.n_balancers {
            tasks.push(workload.next_task(rng));
        }
        for (len, s) in queue_lens.iter_mut().zip(&servers) {
            *len = s.queue_len();
        }
        let assignment = strat.assign_all(&tasks, &queue_lens, rng);

        for (i, &srv) in assignment.iter().enumerate() {
            servers[srv].enqueue(Task {
                ty: tasks[i],
                enqueued_at: t,
            });
        }
        for s in servers.iter_mut() {
            s.step(t);
        }

        if t >= config.warmup {
            generated += config.n_balancers as u64;
            let mut step_total = 0u64;
            for s in &servers {
                let q = s.queue_len();
                queue_len_sum += q as u64;
                step_total += q as u64;
                max_queue = max_queue.max(q);
            }
            let w = ((t - config.warmup) as usize * windows) / config.timesteps as usize;
            win_queue_sum[w] += step_total;
            win_samples[w] += config.n_servers as u64;
            if paired {
                let mut i = 0;
                while i + 1 < tasks.len() {
                    let both_c = tasks[i].is_colocate() && tasks[i + 1].is_colocate();
                    let same = assignment[i] == assignment[i + 1];
                    if both_c {
                        cc_rounds += 1;
                        cc_colocated += u64::from(same);
                    } else {
                        other_rounds += 1;
                        other_split += u64::from(!same);
                    }
                    i += 2;
                }
            }
        }
    }

    let mut waits = WaitReservoir::new(WAIT_RESERVOIR_SEED);
    for s in &servers {
        waits.merge(&s.waits);
    }
    let wait_samples = waits.sorted_waits();
    let served: u64 = servers.iter().map(|s| s.served).sum::<u64>() - served_before_window;
    let total_wait: u64 = servers.iter().map(|s| s.total_wait).sum::<u64>() - wait_before_window;
    let samples = config.timesteps * config.n_servers as u64;

    let queue_len_series: Vec<f64> = win_queue_sum
        .iter()
        .zip(&win_samples)
        .filter(|(_, &n)| n > 0)
        .map(|(&s, &n)| s as f64 / n as f64)
        .collect();

    Ok(SimResult {
        strategy: strat.name(),
        load: config.load(),
        avg_queue_len: queue_len_sum as f64 / samples as f64,
        avg_wait: if served > 0 {
            total_wait as f64 / served as f64
        } else {
            f64::NAN
        },
        p50_wait: crate::metrics::percentile(&wait_samples, 0.5),
        p99_wait: crate::metrics::percentile(&wait_samples, 0.99),
        max_queue_len: max_queue,
        served,
        generated,
        cc_colocation_rate: if cc_rounds > 0 {
            cc_colocated as f64 / cc_rounds as f64
        } else {
            f64::NAN
        },
        split_rate: if other_rounds > 0 {
            other_split as f64 / other_rounds as f64
        } else {
            f64::NAN
        },
        cc_rounds,
        cc_colocated,
        other_rounds,
        other_split,
        queue_len_series,
    })
}

/// The seed implementation's server, kept unchanged as the oracle for
/// [`crate::server::Server`]'s per-class lanes: one FIFO queue that each
/// step scans for the first type-C task, a wait reservoir per server,
/// and a fresh serve-index vector per step.
#[derive(Debug, Clone)]
struct Server {
    queue: VecDeque<Task>,
    discipline: Discipline,
    /// Identity used to key reservoir sample priorities; distinct per
    /// server within a run so sample identities never collide.
    id: u64,
    /// Total tasks served.
    pub served: u64,
    /// Sum of queueing delays (in timesteps) of served tasks.
    pub total_wait: u64,
    /// Bounded reservoir of per-task queueing delays (for percentile
    /// statistics). Replaces the historical unbounded `wait_samples`
    /// vector, whose O(timesteps × servers) growth ruled out
    /// million-server runs. Callers may [`WaitReservoir::clear`] it at a
    /// measurement-window boundary; the exact `total_wait`/`served`
    /// counters are unaffected.
    pub waits: WaitReservoir,
}

impl Server {
    /// An empty server with the given discipline and reservoir identity.
    pub fn with_id(discipline: Discipline, id: u64) -> Self {
        Server {
            queue: VecDeque::new(),
            discipline,
            id,
            served: 0,
            total_wait: 0,
            waits: WaitReservoir::new(WAIT_RESERVOIR_SEED),
        }
    }

    /// Current queue length.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues an arriving task.
    pub fn enqueue(&mut self, task: Task) {
        self.queue.push_back(task);
    }

    /// Runs one service timestep at time `now`, removing the tasks served
    /// per the discipline. Returns how many tasks were served.
    pub fn step(&mut self, now: u64) -> usize {
        let indices = self.select_indices();
        // Remove back-to-front so indices stay valid.
        let mut served = 0;
        for &i in indices.iter().rev() {
            let task = self.queue.remove(i).expect("selected index in range");
            let wait = now.saturating_sub(task.enqueued_at);
            self.total_wait += wait;
            // `served` doubles as the per-server completion sequence: it
            // never resets, so sample identities stay unique even across
            // a measurement-window `waits.clear()`.
            self.waits.offer(self.id, self.served, wait);
            self.served += 1;
            served += 1;
        }
        served
    }

    /// Picks the queue indices to serve this step (ascending order).
    fn select_indices(&self) -> Vec<usize> {
        match self.discipline {
            Discipline::PaperPairedC => {
                if let Some(first_c) = self.first_colocate(0) {
                    self.pair_of_colocate(first_c)
                } else if self.queue.is_empty() {
                    vec![]
                } else {
                    // No type-C queued: serve the oldest (type-E) task.
                    vec![0]
                }
            }
            Discipline::FifoPairedC => match self.queue.front() {
                None => vec![],
                Some(t) if t.ty.is_colocate() => self.pair_of_colocate(0),
                Some(_) => vec![0],
            },
            Discipline::ExclusiveFirst => {
                if let Some(first_e) = self.queue.iter().position(|t| !t.ty.is_colocate()) {
                    vec![first_e]
                } else if let Some(first_c) = self.first_colocate(0) {
                    self.pair_of_colocate(first_c)
                } else {
                    vec![]
                }
            }
            Discipline::CPrioritySingle => {
                if let Some(first_c) = self.first_colocate(0) {
                    vec![first_c]
                } else if self.queue.is_empty() {
                    vec![]
                } else {
                    vec![0]
                }
            }
            Discipline::SingleSlot => {
                if self.queue.is_empty() {
                    vec![]
                } else {
                    vec![0]
                }
            }
        }
    }

    /// Index of the first type-C task at or after `from`.
    fn first_colocate(&self, from: usize) -> Option<usize> {
        self.queue
            .iter()
            .skip(from)
            .position(|t| t.ty.is_colocate())
            .map(|p| p + from)
    }

    /// The first type-C at `first`, plus the next type-C of the *same
    /// subtype*, if any.
    fn pair_of_colocate(&self, first: usize) -> Vec<usize> {
        let subtype = match self.queue[first].ty {
            TaskType::Colocate(s) => s,
            TaskType::Exclusive => unreachable!("caller guarantees type-C"),
        };
        let partner = self
            .queue
            .iter()
            .enumerate()
            .skip(first + 1)
            .find(|(_, t)| t.ty == TaskType::Colocate(subtype))
            .map(|(i, _)| i);
        match partner {
            Some(p) => vec![first, p],
            None => vec![first],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Run-level parity reports only p50/p99 of thousands of survivors,
    /// which cannot see two samples of one step trading identities. A
    /// 16-sample reservoir over a long run can: nearly every survivor's
    /// pair partner is evicted, so a swapped completion order changes
    /// the surviving waits.
    #[test]
    fn lanes_offer_the_same_samples_as_the_scanning_server() {
        for discipline in [
            Discipline::PaperPairedC,
            Discipline::FifoPairedC,
            Discipline::ExclusiveFirst,
            Discipline::CPrioritySingle,
            Discipline::SingleSlot,
        ] {
            let mut rng = StdRng::seed_from_u64(16);
            let mut lanes = crate::server::Server::with_id(discipline, 3);
            let mut lane_waits = WaitReservoir::with_capacity(WAIT_RESERVOIR_SEED, 16);
            let mut oracle = Server::with_id(discipline, 3);
            oracle.waits = WaitReservoir::with_capacity(WAIT_RESERVOIR_SEED, 16);
            let label = discipline.label();
            for t in 0..2_000 {
                for _ in 0..rng.gen_range(0..4) {
                    let ty = if rng.gen::<f64>() < 0.4 {
                        TaskType::Exclusive
                    } else {
                        TaskType::Colocate(rng.gen_range(0..3))
                    };
                    let task = Task { ty, enqueued_at: t };
                    lanes.enqueue(task);
                    oracle.enqueue(task);
                }
                let served = lanes.step(t, Some(&mut lane_waits));
                assert_eq!(served, oracle.step(t), "{label} at {t}");
                assert_eq!(lanes.queue_len(), oracle.queue_len(), "{label} at {t}");
            }
            assert_eq!(lanes.total_wait, oracle.total_wait, "{label}");
            assert!(lane_waits.seen() > 1_000, "{label}: must evict");
            let (got, want) = (lane_waits.sorted_waits(), oracle.waits.sorted_waits());
            assert_eq!(got, want, "{label}");
        }
    }
}
