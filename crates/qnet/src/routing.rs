//! Pair routing and contention scheduling over a [`MetroGraph`].
//!
//! Two decisions per epoch:
//!
//! 1. **Which path?** [`best_path`] — deterministic Dijkstra maximizing
//!    end-to-end visibility (additive weight `−ln v_edge − ln ideality`,
//!    which orders paths identically to `∏ v · ideality^(h−1)` since the
//!    per-path constant `+ln ideality` cancels). Downed edges are
//!    excluded outright; server nodes never relay.
//! 2. **Who gets emissions?** [`allocate`] — the multiplexed sources'
//!    per-epoch budgets are shared by every chain routed over an edge
//!    they pump. The scheduler grants whole attempts (one attempt =
//!    one emission per hop, charged to each hop's source) under a
//!    [`Policy`], is exactly budget-conserving, and is work-conserving:
//!    it stops only when no pair with remaining demand can afford its
//!    chain.
//!
//! [`route_epoch`] composes both with the chain physics
//! ([`crate::topology::ChainSpec::sample_attempt`]) and instruments the result: per-chain
//! lifecycle trace events on [`trace::Track::Chain`] and
//! `qnet.topology.*` counters.

use crate::topology::{MetroGraph, NodeKind, TopologyError};
use rand::Rng;

/// Routes computed (one per served pair per epoch).
static ROUTES: obs::LazyCounter = obs::LazyCounter::new("qnet.topology.routes");
/// End-to-end delivery attempts granted by the scheduler.
static ATTEMPTS: obs::LazyCounter = obs::LazyCounter::new("qnet.topology.attempts");
/// Attempts that delivered an end-to-end pair.
static DELIVERED: obs::LazyCounter = obs::LazyCounter::new("qnet.topology.delivered");
/// Pair-epochs left with zero grants (no route, or budget exhausted).
static STARVED: obs::LazyCounter = obs::LazyCounter::new("qnet.topology.starved");
/// Elementary-pair emissions spent across all sources.
static BUDGET_SPENT: obs::LazyCounter = obs::LazyCounter::new("qnet.topology.budget_spent");
/// The plane-wide emission counter (shared with the distributor by
/// name): every granted attempt emits one elementary pair per hop, so
/// topology runs report a real `pairs_per_sec` in the perf gate.
static EPR_EMITTED: obs::LazyCounter = obs::LazyCounter::new("qnet.epr.emitted");

/// A routed path between two servers.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Edge ids, in order from `from` to `to`.
    pub edges: Vec<u32>,
    /// Node ids visited, `from` first, `to` last (`edges.len() + 1`).
    pub nodes: Vec<u32>,
    /// Closed-form end-to-end visibility of the chain over this path.
    pub visibility: f64,
}

/// Finds the maximum-visibility path from `from` to `to`, never
/// transiting a downed edge (`downed[edge_id]`; shorter slices mean the
/// rest are up) or relaying through a [`NodeKind::Server`]. Ties are
/// broken deterministically toward lower node ids, but callers should
/// rely only on the route's visibility and hop count being optimal —
/// equal-weight alternatives are legitimate.
///
/// # Errors
/// [`TopologyError::UnknownNode`] for bad endpoints,
/// [`TopologyError::NoRoute`] when every path is cut.
pub fn best_path(
    g: &MetroGraph,
    from: u32,
    to: u32,
    downed: &[bool],
) -> Result<Route, TopologyError> {
    let n = g.n_nodes();
    for node in [from, to] {
        if node as usize >= n {
            return Err(TopologyError::UnknownNode { node });
        }
    }
    if from == to {
        return Err(TopologyError::SelfLoop { node: from });
    }
    let ideality = g.swap_model().ideality;
    // Additive edge weight; −ln clamps v = 0 to +∞ (unusable edge).
    let weight =
        |v: f64| -> f64 { -(v.max(f64::MIN_POSITIVE).ln()) - ideality.max(f64::MIN_POSITIVE).ln() };

    let mut dist = vec![f64::INFINITY; n];
    let mut prev_edge: Vec<Option<u32>> = vec![None; n];
    let mut done = vec![false; n];
    dist[from as usize] = 0.0;
    loop {
        // O(V) extract-min with ascending-id tie-break: deterministic.
        let mut u = None;
        for (i, &d) in dist.iter().enumerate() {
            if !done[i] && d.is_finite() && u.is_none_or(|(_, best)| d < best) {
                u = Some((i, d));
            }
        }
        let Some((u, du)) = u else { break };
        if u as u32 == to {
            break;
        }
        done[u] = true;
        // Servers terminate chains; only the origin may fan out of one.
        if g.node_kind(u as u32) == NodeKind::Server && u as u32 != from {
            continue;
        }
        for &eid in g.adjacent(u as u32) {
            if downed.get(eid as usize).copied().unwrap_or(false) {
                continue;
            }
            let e = g.edges()[eid as usize];
            let Some(v) = e.other(u as u32) else { continue };
            let nd = du + weight(e.visibility);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                prev_edge[v as usize] = Some(eid);
            }
        }
    }
    if !dist[to as usize].is_finite() {
        return Err(TopologyError::NoRoute { from, to });
    }
    let mut edges = Vec::new();
    let mut nodes = vec![to];
    let mut cur = to;
    while cur != from {
        let eid = prev_edge[cur as usize].expect("finite dist has a predecessor");
        edges.push(eid);
        cur = g.edges()[eid as usize]
            .other(cur)
            .expect("predecessor edge touches node");
        nodes.push(cur);
    }
    edges.reverse();
    nodes.reverse();
    let visibility = g.chain_spec(&edges)?.end_to_end_visibility();
    ROUTES.inc();
    Ok(Route {
        edges,
        nodes,
        visibility,
    })
}

/// How the scheduler orders competing pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Cycle through pairs granting one attempt each — fair share.
    RoundRobin,
    /// Always serve the pair with the most remaining demand (ties to the
    /// lowest index) — throughput for the heaviest flows.
    HighestDemandFirst,
}

impl Policy {
    /// Stable kebab-case name for artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Policy::RoundRobin => "round-robin",
            Policy::HighestDemandFirst => "highest-demand-first",
        }
    }
}

/// Grants whole end-to-end attempts to pairs until no pair with
/// remaining demand can afford its per-attempt emissions.
///
/// * `budgets[s]` — source `s`'s emissions available this epoch.
/// * `usage[p]` — pair `p`'s per-attempt cost, as `(source, emissions)`
///   entries (from [`MetroGraph::emissions_per_attempt`]); a pair with
///   no route gets an empty slice *and* zero demand from the caller.
///   Entries naming the same source are charged cumulatively.
/// * `demand[p]` — attempts pair `p` wants this epoch.
///
/// Returns grants per pair. Guarantees (property-tested):
/// budget conservation (`spent_s ≤ budgets[s]` exactly, per source),
/// no over-service (`grants[p] ≤ demand[p]`), and work conservation
/// (on return, every pair with remaining demand is unaffordable).
pub fn allocate(
    budgets: &[u64],
    usage: &[Vec<(u32, u64)>],
    demand: &[u64],
    policy: Policy,
) -> Vec<u64> {
    assert_eq!(usage.len(), demand.len(), "one usage vector per pair");
    let mut remaining = budgets.to_vec();
    let mut grants = vec![0u64; demand.len()];
    let affordable = |remaining: &[u64], p: usize| -> bool {
        // Entries may repeat a source; affordability is against the
        // *running total* per source, matching what charge() subtracts.
        usage[p].iter().enumerate().all(|(i, &(s, n))| {
            let earlier: u64 = usage[p][..i]
                .iter()
                .filter(|&&(s2, _)| s2 == s)
                .map(|&(_, n2)| n2)
                .sum();
            remaining
                .get(s as usize)
                .copied()
                .unwrap_or(0)
                .checked_sub(earlier)
                .is_some_and(|left| left >= n)
        })
    };
    let charge = |remaining: &mut [u64], p: usize| {
        for &(s, n) in &usage[p] {
            remaining[s as usize] -= n;
            BUDGET_SPENT.add(n);
        }
    };
    match policy {
        Policy::RoundRobin => {
            let mut cursor = 0usize;
            let mut idle_scan = 0usize;
            while idle_scan < demand.len() {
                let p = cursor % demand.len();
                cursor += 1;
                if grants[p] < demand[p] && affordable(&remaining, p) {
                    charge(&mut remaining, p);
                    grants[p] += 1;
                    idle_scan = 0;
                } else {
                    idle_scan += 1;
                }
            }
        }
        Policy::HighestDemandFirst => loop {
            let mut pick = None;
            for p in 0..demand.len() {
                if grants[p] < demand[p] && affordable(&remaining, p) {
                    let left = demand[p] - grants[p];
                    if pick.is_none_or(|(_, best)| left > best) {
                        pick = Some((p, left));
                    }
                }
            }
            let Some((p, _)) = pick else { break };
            charge(&mut remaining, p);
            grants[p] += 1;
        },
    }
    grants
}

/// One server pair's demand for an epoch.
#[derive(Debug, Clone, Copy)]
pub struct PairDemand {
    /// Origin server.
    pub from: u32,
    /// Destination server.
    pub to: u32,
    /// End-to-end attempts wanted this epoch.
    pub demand: u64,
}

/// What one epoch produced for one pair.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// The route served (None when every path was cut).
    pub route: Option<Route>,
    /// Attempts granted by the scheduler.
    pub granted: u64,
    /// Attempts that delivered an end-to-end pair.
    pub delivered: u64,
    /// Delivered end-to-end visibility (0 when unrouted).
    pub visibility: f64,
}

/// Routes, schedules, and samples one epoch for a set of competing
/// pairs. `epoch` stamps the sim-clock (1 ms per epoch) for the
/// per-chain lifecycle trace: `chain.routed` / `chain.starved` instants
/// and a [`trace::PairStage`] `Emitted`/`Consumed` event per delivered
/// pair on [`trace::Track::Chain`].
pub fn route_epoch<R: Rng + ?Sized>(
    g: &MetroGraph,
    pairs: &[PairDemand],
    downed: &[bool],
    policy: Policy,
    epoch: u64,
    rng: &mut R,
) -> Vec<PairOutcome> {
    let t_ns = epoch * 1_000_000;
    let budgets: Vec<u64> = g.sources().iter().map(|s| s.budget_per_epoch).collect();
    let mut usage: Vec<Vec<(u32, u64)>> = Vec::with_capacity(pairs.len());
    let mut demand: Vec<u64> = Vec::with_capacity(pairs.len());
    let mut routes: Vec<Option<Route>> = Vec::with_capacity(pairs.len());
    for (i, p) in pairs.iter().enumerate() {
        match best_path(g, p.from, p.to, downed) {
            Ok(r) => {
                trace::instant_sim(trace::Track::Chain(i as u32), "chain.routed", t_ns);
                usage.push(g.emissions_per_attempt(&r.edges).expect("route is a path"));
                demand.push(p.demand);
                routes.push(Some(r));
            }
            Err(_) => {
                usage.push(Vec::new());
                demand.push(0);
                routes.push(None);
            }
        }
    }
    let grants = allocate(&budgets, &usage, &demand, policy);
    let mut out = Vec::with_capacity(pairs.len());
    for (i, route) in routes.into_iter().enumerate() {
        let granted = grants[i];
        let (delivered, visibility) = match &route {
            Some(r) => {
                let spec = g.chain_spec(&r.edges).expect("route is a path");
                ATTEMPTS.add(granted);
                EPR_EMITTED.add(granted * r.edges.len() as u64);
                let mut delivered = 0u64;
                for a in 0..granted {
                    // Every granted attempt emits; the draw decides
                    // whether the chain survives end to end.
                    trace::pair(
                        trace::Track::Chain(i as u32),
                        trace::PairStage::Emitted,
                        a,
                        t_ns + a,
                    );
                    if spec.sample_attempt(rng) {
                        delivered += 1;
                        trace::pair(
                            trace::Track::Chain(i as u32),
                            trace::PairStage::Consumed,
                            a,
                            t_ns + a + 1,
                        );
                    }
                }
                DELIVERED.add(delivered);
                (delivered, r.visibility)
            }
            None => (0, 0.0),
        };
        if granted == 0 && pairs[i].demand > 0 {
            STARVED.inc();
            trace::instant_sim(trace::Track::Chain(i as u32), "chain.starved", t_ns);
        }
        out.push(PairOutcome {
            route,
            granted,
            delivered,
            visibility,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{line_chain, metro_tree, star, MetroTreeParams, SwapModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn swap() -> SwapModel {
        SwapModel::new(0.9, 0.97).unwrap()
    }

    #[test]
    fn line_routes_end_to_end() {
        let (g, a, b) = line_chain(4, 10.0, 0.98, swap(), 100).unwrap();
        let r = best_path(&g, a, b, &[]).unwrap();
        assert_eq!(r.edges, vec![0, 1, 2, 3]);
        assert_eq!(r.nodes.first(), Some(&a));
        assert_eq!(r.nodes.last(), Some(&b));
        let expect = 0.98f64.powi(4) * 0.97f64.powi(3);
        assert!((r.visibility - expect).abs() < 1e-12);
    }

    #[test]
    fn downed_edge_is_never_used() {
        let (g, tree) = metro_tree(
            swap(),
            MetroTreeParams {
                leaf_km: 2.0,
                leaf_visibility: 0.98,
                trunk_km: 15.0,
                trunk_visibility: 0.99,
                backup_km: 25.0,
                backup_visibility: 0.85,
                leaf_budget: 100,
                trunk_budget: 100,
            },
        )
        .unwrap();
        let [s0, _, s2, _] = tree.servers;
        let mut downed = vec![false; g.edges().len()];
        // Pristine: cross-rack routes over the primary core.
        let r = best_path(&g, s0, s2, &downed).unwrap();
        assert!(r.nodes.contains(&tree.core_primary), "{:?}", r.nodes);
        // Cut one primary trunk: must re-route over the backup core.
        downed[tree.primary_trunks[0] as usize] = true;
        let r = best_path(&g, s0, s2, &downed).unwrap();
        assert!(!r.edges.contains(&tree.primary_trunks[0]));
        assert!(r.nodes.contains(&tree.core_backup), "{:?}", r.nodes);
        assert!(
            r.visibility < std::f64::consts::FRAC_1_SQRT_2,
            "backup visibility {}",
            r.visibility
        );
        // Cut both trunk planes: no route at all.
        for e in tree.primary_trunks.iter().chain(&tree.backup_trunks) {
            downed[*e as usize] = true;
        }
        assert!(matches!(
            best_path(&g, s0, s2, &downed).unwrap_err(),
            TopologyError::NoRoute { .. }
        ));
        // Intra-rack pair is untouched by trunk cuts.
        let r = best_path(&g, tree.servers[0], tree.servers[1], &downed).unwrap();
        assert_eq!(r.edges.len(), 2);
    }

    #[test]
    fn servers_never_relay() {
        // a — hub — b and a — hub — c: route a→b must not pass through c
        // even if it were shorter (all arms equal here; just assert the
        // path shape).
        let (g, pairs) = star(2, 5.0, 0.98, swap(), 100).unwrap();
        let (a, b) = pairs[0];
        let r = best_path(&g, a, b, &[]).unwrap();
        assert_eq!(r.edges.len(), 2);
        for &n in &r.nodes[1..r.nodes.len() - 1] {
            assert_eq!(g.node_kind(n), crate::topology::NodeKind::Repeater);
        }
    }

    #[test]
    fn round_robin_shares_budget() {
        // 2 pairs, each costing 2 emissions of source 0, budget 10:
        // 5 attempts total, split 3/2 by the cycle when demand allows.
        let budgets = [10u64];
        let usage = vec![vec![(0u32, 2u64)], vec![(0u32, 2u64)]];
        let grants = allocate(&budgets, &usage, &[100, 100], Policy::RoundRobin);
        assert_eq!(grants.iter().sum::<u64>(), 5);
        assert!(grants[0].abs_diff(grants[1]) <= 1, "{grants:?}");
    }

    #[test]
    fn highest_demand_first_prioritizes() {
        let budgets = [6u64];
        let usage = vec![vec![(0u32, 2u64)], vec![(0u32, 2u64)]];
        // The heavy flow's remaining demand never drops below the light
        // flow's, so it takes the whole budget (3 attempts × 2 emissions).
        let grants = allocate(&budgets, &usage, &[1, 100], Policy::HighestDemandFirst);
        assert_eq!(grants, vec![0, 3]);
        // Round-robin on the same input shares: light flow gets its 1.
        let grants = allocate(&budgets, &usage, &[1, 100], Policy::RoundRobin);
        assert_eq!(grants, vec![1, 2]);
    }

    #[test]
    fn allocation_stops_at_demand() {
        let budgets = [1000u64];
        let usage = vec![vec![(0u32, 1u64)]];
        for policy in [Policy::RoundRobin, Policy::HighestDemandFirst] {
            assert_eq!(allocate(&budgets, &usage, &[7], policy), vec![7]);
        }
    }

    #[test]
    fn route_epoch_contends_on_shared_source() {
        let mut rng = StdRng::seed_from_u64(3);
        let (g, pairs) = star(4, 5.0, 0.98, swap(), 40).unwrap();
        let demands: Vec<PairDemand> = pairs
            .iter()
            .map(|&(from, to)| PairDemand {
                from,
                to,
                demand: 1_000,
            })
            .collect();
        let out = route_epoch(&g, &demands, &[], Policy::RoundRobin, 0, &mut rng);
        let granted: u64 = out.iter().map(|o| o.granted).sum();
        // 40 emissions / 2 per attempt = 20 attempts, split 5 each.
        assert_eq!(granted, 20);
        for o in &out {
            assert_eq!(o.granted, 5);
            assert!(o.delivered <= o.granted);
        }
    }

    #[test]
    fn route_epoch_starves_cut_pairs() {
        let mut rng = StdRng::seed_from_u64(4);
        let (g, a, b) = line_chain(2, 5.0, 0.98, swap(), 100).unwrap();
        let downed = vec![true, false];
        let out = route_epoch(
            &g,
            &[PairDemand {
                from: a,
                to: b,
                demand: 10,
            }],
            &downed,
            Policy::RoundRobin,
            0,
            &mut rng,
        );
        assert!(out[0].route.is_none());
        assert_eq!(out[0].granted, 0);
        assert_eq!(out[0].delivered, 0);
    }
}
