//! Servers and their queue disciplines.
//!
//! The paper's discipline (§4.1): "Servers can simultaneously process two
//! type-C requests first, followed by type-E requests, which are executed
//! one at a time." Footnote 2 claims the observed advantage "is robust to
//! other server execution strategies"; the alternates here back that
//! ablation (experiment E2c).

use crate::metrics::WaitReservoir;
use crate::task::{Task, TaskType};
use std::collections::VecDeque;

/// How a server picks work each timestep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// The paper's rule: if any type-C is queued, serve up to two type-C
    /// (same subtype) this step; otherwise serve one type-E.
    PaperPairedC,
    /// Strict FIFO, but if the head task is type-C, the next queued
    /// type-C of the same subtype rides along, wherever it sits behind
    /// the head — past type-E tasks and other subtypes too.
    FifoPairedC,
    /// Type-E first (E tasks are latency-critical): serve one type-E if
    /// queued, else up to two same-subtype type-C.
    ExclusiveFirst,
    /// C-priority like the paper's rule, but serve only ONE type-C per
    /// step (no pairing). Isolates the two mechanisms behind the quantum
    /// advantage: if quantum still helps here, the benefit comes from
    /// relieving type-E starvation on other servers, not from C-pairing.
    CPrioritySingle,
    /// One task per step regardless of type — no co-location benefit at
    /// all (the control: quantum pairing should NOT help here).
    SingleSlot,
}

impl Discipline {
    /// Label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            Discipline::PaperPairedC => "paper-paired-c",
            Discipline::FifoPairedC => "fifo-paired-c",
            Discipline::ExclusiveFirst => "exclusive-first",
            Discipline::CPrioritySingle => "c-priority-single",
            Discipline::SingleSlot => "single-slot",
        }
    }

    /// When both kinds of task are queued, whether the server serves its
    /// type-E head: `Some` for a fixed priority, `None` when the older of
    /// the two heads goes first, which needs their arrival order.
    #[inline]
    pub(crate) fn serves_exclusive(self) -> Option<bool> {
        match self {
            Discipline::PaperPairedC | Discipline::CPrioritySingle => Some(false),
            Discipline::ExclusiveFirst => Some(true),
            Discipline::FifoPairedC | Discipline::SingleSlot => None,
        }
    }

    /// Whether a type-C service takes a second queued type-C task of the
    /// same subtype.
    #[inline]
    pub(crate) fn pairs_colocate(self) -> bool {
        matches!(
            self,
            Discipline::PaperPairedC | Discipline::FifoPairedC | Discipline::ExclusiveFirst
        )
    }
}

/// A queued task: its arrival order on this server, which orders the
/// heads of different lanes, and the timestep it arrived.
#[derive(Debug, Clone, Copy)]
struct Entry {
    order: u64,
    enqueued_at: u64,
}

/// A backend server with a task queue, kept as per-class FIFO lanes: one
/// for type-E tasks and one per type-C subtype. Every discipline is a
/// comparison of lane heads, so a step costs O(subtypes), not O(queue
/// length). The seed's single scanning queue is the oracle in
/// [`crate::aos`].
#[derive(Debug, Clone)]
pub struct Server {
    /// Type-E tasks, oldest first.
    exclusive: VecDeque<Entry>,
    /// Type-C tasks, one lane per subtype (indexed by subtype; a lane is
    /// created on its subtype's first arrival), oldest first.
    colocate: Vec<VecDeque<Entry>>,
    /// Tasks ever enqueued: the next arrival's `order`. Every arrival is
    /// either queued or served, so the queue holds `arrivals - served`.
    arrivals: u64,
    discipline: Discipline,
    /// Identity used to key reservoir sample priorities; distinct per
    /// server within a run so sample identities never collide.
    id: u64,
    /// Total tasks served.
    pub served: u64,
    /// Sum of queueing delays (in timesteps) of served tasks.
    pub total_wait: u64,
}

impl Server {
    /// An empty server with the given discipline (id 0 — fine for unit
    /// use; simulations give each server a distinct id via [`Server::with_id`]).
    pub fn new(discipline: Discipline) -> Self {
        Server::with_id(discipline, 0)
    }

    /// An empty server with the given discipline and reservoir identity.
    /// Allocates nothing: lanes grow on their first arrival.
    pub fn with_id(discipline: Discipline, id: u64) -> Self {
        Server {
            exclusive: VecDeque::new(),
            colocate: Vec::new(),
            arrivals: 0,
            discipline,
            id,
            served: 0,
            total_wait: 0,
        }
    }

    /// Current queue length.
    pub fn queue_len(&self) -> usize {
        (self.arrivals - self.served) as usize
    }

    /// Enqueues an arriving task.
    pub fn enqueue(&mut self, task: Task) {
        let entry = Entry {
            order: self.arrivals,
            enqueued_at: task.enqueued_at,
        };
        self.arrivals += 1;
        match task.ty {
            TaskType::Exclusive => self.exclusive.push_back(entry),
            TaskType::Colocate(subtype) => {
                let lane = usize::from(subtype);
                if lane >= self.colocate.len() {
                    self.colocate.resize_with(lane + 1, VecDeque::new);
                }
                self.colocate[lane].push_back(entry);
            }
        }
    }

    /// Runs one service timestep at time `now`, serving tasks per the
    /// discipline and offering each one's queueing delay to `waits`, if
    /// given (a run samples waits only in its measured window). Returns
    /// how many tasks were served; `served` and `total_wait` count every
    /// one either way.
    pub fn step(&mut self, now: u64, mut waits: Option<&mut WaitReservoir>) -> usize {
        let oldest_c = self.oldest_colocate();
        let serve_e = match (self.exclusive.front(), oldest_c) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(e), Some((_, c_order))) => self
                .discipline
                .serves_exclusive()
                .unwrap_or(e.order < c_order),
        };
        if serve_e {
            let e = self.exclusive.pop_front().expect("type-E head checked");
            self.complete(e, now, waits);
            return 1;
        }
        let Some((lane, _)) = oldest_c else {
            return 0;
        };
        let pairs = self.discipline.pairs_colocate();
        let lane = &mut self.colocate[lane];
        let first = lane.pop_front().expect("type-C head checked");
        let partner = if pairs { lane.pop_front() } else { None };
        if let Some(partner) = partner {
            // The partner completes first: the seed removed a pair back
            // to front, and the completion count is the sample's
            // reservoir identity.
            self.complete(partner, now, waits.as_deref_mut());
        }
        self.complete(first, now, waits);
        1 + usize::from(partner.is_some())
    }

    /// The lane and arrival order of the oldest queued type-C task.
    fn oldest_colocate(&self) -> Option<(usize, u64)> {
        self.colocate
            .iter()
            .enumerate()
            .filter_map(|(lane, q)| q.front().map(|t| (lane, t.order)))
            .min_by_key(|&(_, order)| order)
    }

    fn complete(&mut self, task: Entry, now: u64, waits: Option<&mut WaitReservoir>) {
        let wait = now.saturating_sub(task.enqueued_at);
        self.total_wait += wait;
        // `served` doubles as the per-server completion sequence: it
        // counts unsampled completions too, so a sample's identity does
        // not depend on when sampling began.
        if let Some(waits) = waits {
            waits.offer(self.id, self.served, wait);
        }
        self.served += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WAIT_RESERVOIR_SEED;

    fn c(sub: u8, at: u64) -> Task {
        Task {
            ty: TaskType::Colocate(sub),
            enqueued_at: at,
        }
    }
    fn e(at: u64) -> Task {
        Task {
            ty: TaskType::Exclusive,
            enqueued_at: at,
        }
    }

    /// Steps `s` at `now` and returns the waits it served, ascending.
    /// Tests enqueue each task at a distinct time, so a wait names the
    /// task that was served.
    fn served_waits(s: &mut Server, now: u64) -> Vec<u64> {
        let mut waits = WaitReservoir::new(WAIT_RESERVOIR_SEED);
        let n = s.step(now, Some(&mut waits));
        assert_eq!(n, waits.len(), "step's count matches the waits offered");
        waits.sorted_waits()
    }

    #[test]
    fn paper_discipline_pairs_two_c() {
        let mut s = Server::new(Discipline::PaperPairedC);
        s.enqueue(c(0, 0));
        s.enqueue(c(0, 0));
        s.enqueue(e(0));
        assert_eq!(served_waits(&mut s, 1).len(), 2, "both Cs served together");
        assert_eq!(s.queue_len(), 1);
        assert_eq!(served_waits(&mut s, 2).len(), 1, "then the E");
        assert_eq!(s.served, 3);
    }

    #[test]
    fn paper_discipline_c_priority_over_e() {
        let mut s = Server::new(Discipline::PaperPairedC);
        s.enqueue(e(0));
        s.enqueue(c(0, 1));
        assert_eq!(
            served_waits(&mut s, 2),
            [1],
            "the C is served first despite FIFO order"
        );
        assert_eq!(s.queue_len(), 1);
        assert_eq!(served_waits(&mut s, 3), [3], "the E is what remains");
    }

    #[test]
    fn paper_discipline_lone_c_costs_full_step() {
        let mut s = Server::new(Discipline::PaperPairedC);
        s.enqueue(c(0, 0));
        assert_eq!(
            served_waits(&mut s, 1).len(),
            1,
            "a lone C still consumes the step"
        );
    }

    #[test]
    fn subtypes_do_not_mix() {
        let mut s = Server::new(Discipline::PaperPairedC);
        s.enqueue(c(0, 0));
        s.enqueue(c(1, 1));
        s.enqueue(c(0, 2));
        // First step pairs the two subtype-0 Cs, skipping the subtype-1.
        assert_eq!(served_waits(&mut s, 3), [1, 3]);
        assert_eq!(s.queue_len(), 1);
        assert_eq!(served_waits(&mut s, 4), [3], "the subtype-1 C remains");
    }

    #[test]
    fn fifo_does_not_jump_past_e() {
        let mut s = Server::new(Discipline::FifoPairedC);
        s.enqueue(e(0));
        s.enqueue(c(0, 0));
        s.enqueue(c(0, 0));
        assert_eq!(
            served_waits(&mut s, 1).len(),
            1,
            "head E served first under FIFO"
        );
        assert_eq!(served_waits(&mut s, 2).len(), 2, "then the C pair");
    }

    #[test]
    fn fifo_pairs_past_e_and_other_subtypes() {
        let mut s = Server::new(Discipline::FifoPairedC);
        s.enqueue(c(0, 0));
        s.enqueue(e(1));
        s.enqueue(c(1, 2));
        s.enqueue(c(0, 3));
        assert_eq!(
            served_waits(&mut s, 4),
            [1, 4],
            "head C pairs with the C behind the E"
        );
        assert_eq!(served_waits(&mut s, 5), [4], "then the E, oldest again");
        assert_eq!(served_waits(&mut s, 6), [4], "then the subtype-1 C");
    }

    #[test]
    fn exclusive_first_prioritizes_e() {
        let mut s = Server::new(Discipline::ExclusiveFirst);
        s.enqueue(c(0, 0));
        s.enqueue(e(1));
        assert_eq!(served_waits(&mut s, 2), [1]);
        assert_eq!(served_waits(&mut s, 3), [3], "the C is what remains");
    }

    #[test]
    fn single_slot_serves_one() {
        let mut s = Server::new(Discipline::SingleSlot);
        s.enqueue(c(0, 0));
        s.enqueue(c(0, 0));
        assert_eq!(
            served_waits(&mut s, 1).len(),
            1,
            "no pairing under single-slot"
        );
    }

    #[test]
    fn wait_accounting() {
        let mut s = Server::new(Discipline::PaperPairedC);
        s.enqueue(e(0));
        s.enqueue(e(0));
        assert_eq!(served_waits(&mut s, 3), [3], "first E waited 3");
        assert_eq!(served_waits(&mut s, 5), [5], "second E waited 5");
        assert_eq!(s.total_wait, 8);
        assert_eq!(s.served, 2);
    }

    #[test]
    fn each_discipline_serves_a_mixed_queue_in_its_own_order() {
        // Arrivals 5 steps apart and steps 1 apart, so every wait names
        // the one task that produced it: E@0, C0@5, C1@10, C0@15, E@20.
        let expect: [(Discipline, [&[u64]; 5]); 5] = [
            (
                Discipline::PaperPairedC,
                [&[15, 25], &[21], &[32], &[13], &[]],
            ),
            (
                Discipline::FifoPairedC,
                [&[30], &[16, 26], &[22], &[13], &[]],
            ),
            (
                Discipline::ExclusiveFirst,
                [&[30], &[11], &[17, 27], &[23], &[]],
            ),
            (
                Discipline::CPrioritySingle,
                [&[25], &[21], &[17], &[33], &[14]],
            ),
            (Discipline::SingleSlot, [&[30], &[26], &[22], &[18], &[14]]),
        ];
        for (d, steps) in expect {
            let mut s = Server::new(d);
            for task in [e(0), c(0, 5), c(1, 10), c(0, 15), e(20)] {
                s.enqueue(task);
            }
            for (now, want) in (30..).zip(steps) {
                assert_eq!(served_waits(&mut s, now), want, "{} at {now}", d.label());
            }
            assert_eq!(s.queue_len(), 0, "{}", d.label());
        }
    }

    #[test]
    fn unsampled_steps_count_and_keep_sample_identities() {
        // A run offers no waits during warm-up. The counters must still
        // advance, so the window's samples keep the identities they had
        // when warm-up waits were offered and then cleared.
        let mut offered = Server::with_id(Discipline::PaperPairedC, 7);
        let mut unsampled = offered.clone();
        let mut all = WaitReservoir::with_capacity(WAIT_RESERVOIR_SEED, 2);
        let mut window = WaitReservoir::with_capacity(WAIT_RESERVOIR_SEED, 2);
        for t in 0..40u64 {
            let task = if t % 3 == 0 {
                e(t)
            } else {
                c((t % 2) as u8, t)
            };
            offered.enqueue(task);
            unsampled.enqueue(task);
            if t == 20 {
                all.clear();
            }
            offered.step(t, Some(&mut all));
            unsampled.step(t, (t >= 20).then_some(&mut window));
            assert_eq!(unsampled.served, offered.served, "at {t}");
            assert_eq!(unsampled.total_wait, offered.total_wait, "at {t}");
        }
        assert!(window.seen() > 2, "the window must evict");
        assert_eq!(window.seen(), all.seen());
        assert_eq!(window.sorted_waits(), all.sorted_waits());
    }

    #[test]
    fn empty_server_serves_nothing() {
        for d in [
            Discipline::PaperPairedC,
            Discipline::FifoPairedC,
            Discipline::ExclusiveFirst,
            Discipline::CPrioritySingle,
            Discipline::SingleSlot,
        ] {
            let mut s = Server::new(d);
            assert!(served_waits(&mut s, 1).is_empty(), "{}", d.label());
        }
    }
}

#[cfg(test)]
mod c_priority_single_tests {
    use super::*;

    #[test]
    fn serves_one_c_at_a_time_with_priority() {
        let mut s = Server::new(Discipline::CPrioritySingle);
        let (c, e) = (TaskType::Colocate(0), TaskType::Exclusive);
        // Distinct arrival times, so the wait a step offers names the
        // task it served.
        for (ty, enqueued_at) in [(e, 0), (c, 1), (c, 3)] {
            s.enqueue(Task { ty, enqueued_at });
        }
        let mut step = |now| {
            let mut waits = WaitReservoir::new(0);
            s.step(now, Some(&mut waits));
            waits.sorted_waits()
        };
        assert_eq!(step(4), [3], "the older C alone, with priority over the E");
        assert_eq!(step(5), [2], "then the second C");
        assert_eq!(step(6), [6], "then the E");
        assert_eq!(s.served, 3);
    }
}
