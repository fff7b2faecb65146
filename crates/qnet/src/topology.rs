//! Metro-scale entanglement topology — repeater chains and multiplexed
//! sources over a fiber graph.
//!
//! The data plane so far is one SPDC source feeding two QNICs. A metro
//! deployment distributes entanglement over a *graph*: server nodes at
//! the edge, repeater stations in the middle, SPDC sources multiplexed
//! across the fiber edges they pump, and per-edge length/loss from the
//! standard attenuation law ([`crate::link::FiberLink`]).
//!
//! A route between two servers is a *repeater chain*: `h` elementary
//! pairs (one per fiber hop) fused by `h − 1` Bell-state measurements
//! ([`crate::swap`]). Each swap succeeds with probability
//! [`SwapModel::success`] (heralding) and, when it succeeds, mixes the
//! state toward white noise with weight `1 − ideality` (imperfect BSM
//! optics). The chain therefore has closed forms
//!
//! ```text
//! v_e2e = ∏ v_hop · ideality^(h−1)
//! p_e2e = ∏ survival_hop · success^(h−1)
//! ```
//!
//! pinned to 1e-12 against a hop-by-hop density-matrix oracle
//! ([`ChainSpec::oracle_visibility`]) that literally performs every swap
//! with [`crate::swap::entanglement_swap`] — the same kernel/oracle
//! pattern as `qsim::werner` and `qsim::ghz`.
//!
//! Grounding: da Silva & Wehner ("Entanglement improves coordination in
//! distributed systems") studies coordination over exactly these
//! distribution networks; Luo ("A nonlocal game for witnessing quantum
//! networks") supplies the acceptance criterion — a chain whose `v_e2e`
//! is at or below `1/√2` cannot witness CHSH advantage
//! ([`ChainSpec::witnesses_chsh`]).

use crate::link::FiberLink;
use crate::swap::{entanglement_swap, SwapError};
use qsim::{DensityMatrix, SimError};
use rand::Rng;

/// Chains composed (closed-form spec construction).
static CHAINS: obs::LazyCounter = obs::LazyCounter::new("qnet.topology.chains");

/// What a graph node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host: may originate/terminate chains, never relays them.
    Server,
    /// A repeater station: relays chains via entanglement swapping.
    Repeater,
}

/// An SPDC source pumping one or more fiber edges. Its per-epoch
/// emission budget is time-shared across every chain routed over an
/// edge it pumps — the contention the scheduler arbitrates.
#[derive(Debug, Clone, Copy)]
pub struct MultiplexedSource {
    /// Elementary-pair emissions available per scheduling epoch.
    pub budget_per_epoch: u64,
}

/// A fiber edge between two nodes, pumped by one source.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// One endpoint (node id).
    pub a: u32,
    /// The other endpoint (node id).
    pub b: u32,
    /// The fiber span (length → survival probability).
    pub fiber: FiberLink,
    /// Werner visibility of the elementary pair this edge delivers.
    pub visibility: f64,
    /// Index of the [`MultiplexedSource`] pumping this edge.
    pub source: u32,
}

impl Edge {
    /// The endpoint opposite `node`, if `node` is an endpoint at all.
    pub fn other(&self, node: u32) -> Option<u32> {
        if node == self.a {
            Some(self.b)
        } else if node == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Topology-layer input errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyError {
    /// A node id that was never added.
    UnknownNode {
        /// The offending id.
        node: u32,
    },
    /// A source id that was never added.
    UnknownSource {
        /// The offending id.
        source: u32,
    },
    /// An edge from a node to itself.
    SelfLoop {
        /// The node in question.
        node: u32,
    },
    /// A chain with no hops.
    EmptyChain,
    /// Hop lists of different lengths.
    HopMismatch {
        /// Visibility entries.
        visibilities: usize,
        /// Survival entries.
        survivals: usize,
    },
    /// An edge list that is not a connected path.
    BrokenPath {
        /// Index of the first edge that does not continue the path.
        at: usize,
    },
    /// No usable path between two nodes (every route cut or absent).
    NoRoute {
        /// Origin node.
        from: u32,
        /// Destination node.
        to: u32,
    },
    /// A bad visibility or probability (NaN included).
    Swap(SwapError),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownNode { node } => write!(f, "unknown node {node}"),
            TopologyError::UnknownSource { source } => write!(f, "unknown source {source}"),
            TopologyError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            TopologyError::EmptyChain => write!(f, "chain has no hops"),
            TopologyError::HopMismatch {
                visibilities,
                survivals,
            } => write!(
                f,
                "hop mismatch: {visibilities} visibilities vs {survivals} survivals"
            ),
            TopologyError::BrokenPath { at } => {
                write!(f, "edge list is not a path (breaks at edge index {at})")
            }
            TopologyError::NoRoute { from, to } => {
                write!(f, "no usable route from node {from} to node {to}")
            }
            TopologyError::Swap(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl From<SwapError> for TopologyError {
    fn from(e: SwapError) -> Self {
        TopologyError::Swap(e)
    }
}

/// The per-swap noise model shared by every repeater in a graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapModel {
    /// Probability a Bell-state measurement heralds success (linear-optics
    /// BSMs cap this at 1/2; boosted schemes do better).
    pub success: f64,
    /// Visibility retained by a *successful* swap: the output is mixed
    /// with white noise at weight `1 − ideality`.
    pub ideality: f64,
}

impl SwapModel {
    /// A validated swap model.
    ///
    /// # Errors
    /// [`SwapError::BadProbability`] for `success ∉ [0, 1]`,
    /// [`SwapError::BadVisibility`] for `ideality ∉ [0, 1]` (NaN
    /// included in both).
    pub fn new(success: f64, ideality: f64) -> Result<Self, SwapError> {
        if !(0.0..=1.0).contains(&success) {
            return Err(SwapError::BadProbability { value: success });
        }
        if !(0.0..=1.0).contains(&ideality) {
            return Err(SwapError::BadVisibility { value: ideality });
        }
        Ok(SwapModel { success, ideality })
    }

    /// The ideal repeater: every BSM heralds and loses nothing.
    pub fn perfect() -> Self {
        SwapModel {
            success: 1.0,
            ideality: 1.0,
        }
    }
}

/// A multi-hop repeater chain, reduced to what the physics needs: per-hop
/// elementary-pair visibilities, per-hop photon survivals, and the swap
/// model fusing them. Built directly or from a routed path via
/// [`MetroGraph::chain_spec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSpec {
    hop_visibilities: Vec<f64>,
    hop_survivals: Vec<f64>,
    swap: SwapModel,
}

impl ChainSpec {
    /// A validated chain over the given hops.
    ///
    /// # Errors
    /// [`TopologyError::EmptyChain`] for zero hops,
    /// [`TopologyError::HopMismatch`] for unequal lists, and
    /// [`TopologyError::Swap`] for any out-of-range visibility or
    /// survival probability.
    pub fn new(
        hop_visibilities: Vec<f64>,
        hop_survivals: Vec<f64>,
        swap: SwapModel,
    ) -> Result<Self, TopologyError> {
        if hop_visibilities.is_empty() {
            return Err(TopologyError::EmptyChain);
        }
        if hop_visibilities.len() != hop_survivals.len() {
            return Err(TopologyError::HopMismatch {
                visibilities: hop_visibilities.len(),
                survivals: hop_survivals.len(),
            });
        }
        for &v in &hop_visibilities {
            if !(0.0..=1.0).contains(&v) {
                return Err(SwapError::BadVisibility { value: v }.into());
            }
        }
        for &s in &hop_survivals {
            if !(0.0..=1.0).contains(&s) {
                return Err(SwapError::BadProbability { value: s }.into());
            }
        }
        SwapModel::new(swap.success, swap.ideality)?;
        CHAINS.inc();
        Ok(ChainSpec {
            hop_visibilities,
            hop_survivals,
            swap,
        })
    }

    /// A uniform chain: `hops` identical links.
    ///
    /// # Errors
    /// As [`ChainSpec::new`].
    pub fn uniform(
        hops: usize,
        hop_visibility: f64,
        hop_survival: f64,
        swap: SwapModel,
    ) -> Result<Self, TopologyError> {
        ChainSpec::new(vec![hop_visibility; hops], vec![hop_survival; hops], swap)
    }

    /// Number of fiber hops.
    pub fn hops(&self) -> usize {
        self.hop_visibilities.len()
    }

    /// Number of Bell-state measurements fusing the hops.
    pub fn swaps(&self) -> usize {
        self.hops() - 1
    }

    /// Per-hop elementary-pair visibilities.
    pub fn hop_visibilities(&self) -> &[f64] {
        &self.hop_visibilities
    }

    /// The swap model in force.
    pub fn swap_model(&self) -> SwapModel {
        self.swap
    }

    /// Closed-form end-to-end Werner visibility:
    /// `∏ v_hop · ideality^(h−1)`. Swapping Werner pairs multiplies
    /// visibilities, and each imperfect BSM mixes in white noise at
    /// weight `1 − ideality` — pinned to 1e-12 against
    /// [`Self::oracle_visibility`].
    pub fn end_to_end_visibility(&self) -> f64 {
        let product: f64 = self.hop_visibilities.iter().product();
        product * self.swap.ideality.powi(self.swaps() as i32)
    }

    /// Closed-form probability one attempt delivers the end-to-end pair:
    /// every hop's photons survive and every BSM heralds success.
    pub fn success_probability(&self) -> f64 {
        let survive: f64 = self.hop_survivals.iter().product();
        survive * self.swap.success.powi(self.swaps() as i32)
    }

    /// Whether the delivered pair can still witness CHSH advantage
    /// (Luo-style network certificate): `v_e2e` strictly above `1/√2`.
    pub fn witnesses_chsh(&self) -> bool {
        self.end_to_end_visibility() > qsim::noise::WERNER_CHSH_THRESHOLD
    }

    /// Samples one delivery attempt with a single uniform draw against
    /// the closed-form success probability. One draw per attempt keeps
    /// the RNG stream independent of hop count, so sweep points stay
    /// deterministic under grid changes.
    pub fn sample_attempt<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.success_probability()
    }

    /// Hop-by-hop density-matrix oracle for
    /// [`Self::end_to_end_visibility`]: builds each elementary Werner
    /// pair, fuses them left-to-right with real
    /// [`entanglement_swap`] BSMs, mixes each successful swap's output
    /// with white noise at weight `1 − ideality`, and reads the final
    /// visibility back out with state tomography. O(h) 4×4 — 16×16
    /// intermediate — matrix algebra versus the closed form's O(h)
    /// multiplies; tests pin the two to 1e-12.
    ///
    /// # Errors
    /// Propagates [`SimError`] from the underlying simulator (cannot
    /// occur for a validated spec).
    pub fn oracle_visibility<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<f64, SimError> {
        let mut pair = qsim::noise::werner(self.hop_visibilities[0])?;
        for &v in &self.hop_visibilities[1..] {
            let next = qsim::noise::werner(v)?;
            let fused = entanglement_swap(&pair, &next, rng)?.pair;
            pair = DensityMatrix::mixture(&[
                (self.swap.ideality, fused),
                (1.0 - self.swap.ideality, DensityMatrix::maximally_mixed(2)),
            ])?;
        }
        qsim::tomography::werner_visibility(&pair)
    }
}

/// A deterministic metro graph: nodes, fiber edges, and the multiplexed
/// sources pumping them. Construction is validating; node/edge/source
/// ids are dense indices in insertion order.
#[derive(Debug, Clone)]
pub struct MetroGraph {
    nodes: Vec<NodeKind>,
    edges: Vec<Edge>,
    sources: Vec<MultiplexedSource>,
    /// adj[node] = edge ids incident to the node, in insertion order.
    adj: Vec<Vec<u32>>,
    swap: SwapModel,
}

impl MetroGraph {
    /// An empty graph whose repeaters all share one swap model.
    pub fn new(swap: SwapModel) -> Self {
        MetroGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            sources: Vec::new(),
            adj: Vec::new(),
            swap,
        }
    }

    /// Adds a server node; returns its id.
    pub fn add_server(&mut self) -> u32 {
        self.add_node(NodeKind::Server)
    }

    /// Adds a repeater node; returns its id.
    pub fn add_repeater(&mut self) -> u32 {
        self.add_node(NodeKind::Repeater)
    }

    fn add_node(&mut self, kind: NodeKind) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(kind);
        self.adj.push(Vec::new());
        id
    }

    /// Adds a multiplexed source with the given per-epoch budget;
    /// returns its id.
    pub fn add_source(&mut self, budget_per_epoch: u64) -> u32 {
        let id = self.sources.len() as u32;
        self.sources.push(MultiplexedSource { budget_per_epoch });
        id
    }

    /// Connects two nodes with a fiber edge of the given length and
    /// elementary-pair visibility, pumped by `source`; returns the edge
    /// id.
    ///
    /// # Errors
    /// [`TopologyError`] for unknown endpoints or source, a self-loop,
    /// or an out-of-range visibility.
    pub fn connect(
        &mut self,
        a: u32,
        b: u32,
        length_km: f64,
        visibility: f64,
        source: u32,
    ) -> Result<u32, TopologyError> {
        for node in [a, b] {
            if node as usize >= self.nodes.len() {
                return Err(TopologyError::UnknownNode { node });
            }
        }
        if a == b {
            return Err(TopologyError::SelfLoop { node: a });
        }
        if source as usize >= self.sources.len() {
            return Err(TopologyError::UnknownSource { source });
        }
        if !(0.0..=1.0).contains(&visibility) {
            return Err(SwapError::BadVisibility { value: visibility }.into());
        }
        let id = self.edges.len() as u32;
        self.edges.push(Edge {
            a,
            b,
            fiber: FiberLink::new(length_km),
            visibility,
            source,
        });
        self.adj[a as usize].push(id);
        self.adj[b as usize].push(id);
        Ok(id)
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The kind of a node.
    pub fn node_kind(&self, node: u32) -> NodeKind {
        self.nodes[node as usize]
    }

    /// All edges, indexed by edge id.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// All sources, indexed by source id.
    pub fn sources(&self) -> &[MultiplexedSource] {
        &self.sources
    }

    /// Edge ids incident to a node.
    pub fn adjacent(&self, node: u32) -> &[u32] {
        &self.adj[node as usize]
    }

    /// The graph-wide swap model.
    pub fn swap_model(&self) -> SwapModel {
        self.swap
    }

    /// Reduces a routed path (a connected list of edge ids) to its
    /// [`ChainSpec`].
    ///
    /// # Errors
    /// [`TopologyError::EmptyChain`] for no edges,
    /// [`TopologyError::UnknownNode`] for a bad edge id (reported as the
    /// index), or [`TopologyError::BrokenPath`] when consecutive edges
    /// do not share an endpoint.
    pub fn chain_spec(&self, edge_ids: &[u32]) -> Result<ChainSpec, TopologyError> {
        let edges = self.path_edges(edge_ids)?;
        ChainSpec::new(
            edges.iter().map(|e| e.visibility).collect(),
            edges
                .iter()
                .map(|e| e.fiber.survival_probability())
                .collect(),
            self.swap,
        )
    }

    /// Per-source elementary-pair emissions one end-to-end attempt over
    /// the path consumes: one emission per edge, charged to that edge's
    /// source, aggregated by source id (ascending).
    ///
    /// # Errors
    /// As [`Self::chain_spec`].
    pub fn emissions_per_attempt(
        &self,
        edge_ids: &[u32],
    ) -> Result<Vec<(u32, u64)>, TopologyError> {
        let edges = self.path_edges(edge_ids)?;
        let mut by_source: Vec<(u32, u64)> = Vec::new();
        for e in &edges {
            match by_source.iter_mut().find(|(s, _)| *s == e.source) {
                Some((_, n)) => *n += 1,
                None => by_source.push((e.source, 1)),
            }
        }
        by_source.sort_unstable_by_key(|&(s, _)| s);
        Ok(by_source)
    }

    fn path_edges(&self, edge_ids: &[u32]) -> Result<Vec<Edge>, TopologyError> {
        if edge_ids.is_empty() {
            return Err(TopologyError::EmptyChain);
        }
        let mut edges = Vec::with_capacity(edge_ids.len());
        for (i, &id) in edge_ids.iter().enumerate() {
            let e = *self
                .edges
                .get(id as usize)
                .ok_or(TopologyError::UnknownNode { node: id })?;
            if i > 0 {
                let prev: Edge = edges[i - 1];
                let joined = [prev.a, prev.b].iter().any(|&n| e.other(n).is_some());
                if !joined {
                    return Err(TopologyError::BrokenPath { at: i });
                }
            }
            edges.push(e);
        }
        Ok(edges)
    }
}

/// Builds a line chain: `server — R₁ — … — R_{hops−1} — server`, every
/// hop `hop_km` long at `hop_visibility`, each pumped by its own
/// dedicated source of `budget_per_source`. Returns the graph and the
/// two server endpoints.
///
/// # Errors
/// [`TopologyError`] for zero hops or out-of-range parameters.
pub fn line_chain(
    hops: usize,
    hop_km: f64,
    hop_visibility: f64,
    swap: SwapModel,
    budget_per_source: u64,
) -> Result<(MetroGraph, u32, u32), TopologyError> {
    if hops == 0 {
        return Err(TopologyError::EmptyChain);
    }
    let mut g = MetroGraph::new(swap);
    let left = g.add_server();
    let mut prev = left;
    for h in 0..hops {
        let next = if h + 1 == hops {
            g.add_server()
        } else {
            g.add_repeater()
        };
        let src = g.add_source(budget_per_source);
        g.connect(prev, next, hop_km, hop_visibility, src)?;
        prev = next;
    }
    Ok((g, left, prev))
}

/// Builds a star: one hub repeater, `fanout` server pairs, every arm
/// `arm_km` long at `arm_visibility` — and ONE shared source pumping
/// every arm, so each 2-hop chain costs 2 emissions from the same
/// budget. This is the contention topology: per-pair delivered rate
/// falls as `1/fanout`. Returns the graph and the server pairs.
///
/// # Errors
/// [`TopologyError`] for zero fanout or out-of-range parameters.
pub fn star(
    fanout: usize,
    arm_km: f64,
    arm_visibility: f64,
    swap: SwapModel,
    shared_budget: u64,
) -> Result<(MetroGraph, Vec<(u32, u32)>), TopologyError> {
    if fanout == 0 {
        return Err(TopologyError::EmptyChain);
    }
    let mut g = MetroGraph::new(swap);
    let hub = g.add_repeater();
    let src = g.add_source(shared_budget);
    let mut pairs = Vec::with_capacity(fanout);
    for _ in 0..fanout {
        let a = g.add_server();
        let b = g.add_server();
        g.connect(a, hub, arm_km, arm_visibility, src)?;
        g.connect(b, hub, arm_km, arm_visibility, src)?;
        pairs.push((a, b));
    }
    Ok((g, pairs))
}

/// The named pieces of [`metro_tree`], so experiments can cut specific
/// trunks and watch the blast radius.
#[derive(Debug, Clone, Copy)]
pub struct MetroTree {
    /// Servers `[s0, s1]` in rack A, `[s2, s3]` in rack B.
    pub servers: [u32; 4],
    /// Aggregation repeaters `[rack A, rack B]`.
    pub agg: [u32; 2],
    /// Primary core repeater.
    pub core_primary: u32,
    /// Backup core repeater (longer, lossier trunks).
    pub core_backup: u32,
    /// Primary trunk edges `[A→core, core→B]`.
    pub primary_trunks: [u32; 2],
    /// Backup trunk edges `[A→backup, backup→B]`.
    pub backup_trunks: [u32; 2],
}

/// Parameters for [`metro_tree`].
#[derive(Debug, Clone, Copy)]
pub struct MetroTreeParams {
    /// Server → aggregation-repeater span, km.
    pub leaf_km: f64,
    /// Elementary visibility on leaf edges.
    pub leaf_visibility: f64,
    /// Aggregation → primary-core span, km.
    pub trunk_km: f64,
    /// Elementary visibility on primary trunks.
    pub trunk_visibility: f64,
    /// Aggregation → backup-core span, km (typically longer).
    pub backup_km: f64,
    /// Elementary visibility on backup trunks (typically worse).
    pub backup_visibility: f64,
    /// Per-epoch budget of each rack's leaf source.
    pub leaf_budget: u64,
    /// Per-epoch budget of each trunk source.
    pub trunk_budget: u64,
}

/// Builds the 2-tier metro tree: 2 racks × 2 servers behind per-rack
/// aggregation repeaters, joined through a primary core repeater, with a
/// backup core on longer/lossier trunks. Sources: one leaf source per
/// rack (shared by its 2 leaf edges), one source per trunk pair.
/// Cross-rack chains route `s — agg — core — agg' — s'` (4 hops);
/// intra-rack chains route `s — agg — s'` (2 hops).
///
/// # Errors
/// [`TopologyError`] for out-of-range parameters.
pub fn metro_tree(
    swap: SwapModel,
    p: MetroTreeParams,
) -> Result<(MetroGraph, MetroTree), TopologyError> {
    let mut g = MetroGraph::new(swap);
    let agg_a = g.add_repeater();
    let agg_b = g.add_repeater();
    let core = g.add_repeater();
    let backup = g.add_repeater();
    let leaf_src_a = g.add_source(p.leaf_budget);
    let leaf_src_b = g.add_source(p.leaf_budget);
    let trunk_src = g.add_source(p.trunk_budget);
    let backup_src = g.add_source(p.trunk_budget);

    let s0 = g.add_server();
    let s1 = g.add_server();
    let s2 = g.add_server();
    let s3 = g.add_server();
    for s in [s0, s1] {
        g.connect(s, agg_a, p.leaf_km, p.leaf_visibility, leaf_src_a)?;
    }
    for s in [s2, s3] {
        g.connect(s, agg_b, p.leaf_km, p.leaf_visibility, leaf_src_b)?;
    }
    let pt_a = g.connect(agg_a, core, p.trunk_km, p.trunk_visibility, trunk_src)?;
    let pt_b = g.connect(core, agg_b, p.trunk_km, p.trunk_visibility, trunk_src)?;
    let bt_a = g.connect(agg_a, backup, p.backup_km, p.backup_visibility, backup_src)?;
    let bt_b = g.connect(backup, agg_b, p.backup_km, p.backup_visibility, backup_src)?;

    let tree = MetroTree {
        servers: [s0, s1, s2, s3],
        agg: [agg_a, agg_b],
        core_primary: core,
        core_backup: backup,
        primary_trunks: [pt_a, pt_b],
        backup_trunks: [bt_a, bt_b],
    };
    Ok((g, tree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn swap() -> SwapModel {
        SwapModel::new(0.9, 0.97).unwrap()
    }

    #[test]
    fn chain_closed_forms() {
        let c = ChainSpec::new(vec![0.98, 0.96, 0.99], vec![0.9, 0.8, 0.7], swap()).unwrap();
        assert_eq!(c.hops(), 3);
        assert_eq!(c.swaps(), 2);
        let v = 0.98 * 0.96 * 0.99 * 0.97f64.powi(2);
        let p = 0.9 * 0.8 * 0.7 * 0.9f64.powi(2);
        assert!((c.end_to_end_visibility() - v).abs() < 1e-15);
        assert!((c.success_probability() - p).abs() < 1e-15);
    }

    #[test]
    fn single_hop_has_no_swap_penalty() {
        let c = ChainSpec::uniform(1, 0.95, 0.5, swap()).unwrap();
        assert_eq!(c.swaps(), 0);
        assert!((c.end_to_end_visibility() - 0.95).abs() < 1e-15);
        assert!((c.success_probability() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn oracle_pins_closed_form() {
        let mut rng = StdRng::seed_from_u64(7);
        let c = ChainSpec::new(vec![0.98, 0.92, 0.99, 0.95], vec![1.0; 4], swap()).unwrap();
        let oracle = c.oracle_visibility(&mut rng).unwrap();
        assert!(
            (oracle - c.end_to_end_visibility()).abs() < 1e-12,
            "oracle {oracle} vs closed form {}",
            c.end_to_end_visibility()
        );
    }

    #[test]
    fn chain_validation() {
        assert_eq!(
            ChainSpec::new(vec![], vec![], swap()).unwrap_err(),
            TopologyError::EmptyChain
        );
        assert!(matches!(
            ChainSpec::new(vec![0.9], vec![0.5, 0.5], swap()).unwrap_err(),
            TopologyError::HopMismatch { .. }
        ));
        assert!(matches!(
            ChainSpec::new(vec![1.1], vec![0.5], swap()).unwrap_err(),
            TopologyError::Swap(SwapError::BadVisibility { .. })
        ));
        assert!(matches!(
            ChainSpec::new(vec![0.9], vec![f64::NAN], swap()).unwrap_err(),
            TopologyError::Swap(SwapError::BadProbability { .. })
        ));
        assert!(matches!(
            SwapModel::new(1.5, 0.9).unwrap_err(),
            SwapError::BadProbability { .. }
        ));
        assert!(matches!(
            SwapModel::new(0.5, -0.1).unwrap_err(),
            SwapError::BadVisibility { .. }
        ));
    }

    #[test]
    fn graph_validation() {
        let mut g = MetroGraph::new(swap());
        let a = g.add_server();
        let b = g.add_server();
        let src = g.add_source(100);
        assert!(matches!(
            g.connect(a, 99, 1.0, 0.9, src).unwrap_err(),
            TopologyError::UnknownNode { node: 99 }
        ));
        assert!(matches!(
            g.connect(a, a, 1.0, 0.9, src).unwrap_err(),
            TopologyError::SelfLoop { .. }
        ));
        assert!(matches!(
            g.connect(a, b, 1.0, 0.9, 7).unwrap_err(),
            TopologyError::UnknownSource { source: 7 }
        ));
        assert!(matches!(
            g.connect(a, b, 1.0, 1.01, src).unwrap_err(),
            TopologyError::Swap(SwapError::BadVisibility { .. })
        ));
        let e = g.connect(a, b, 10.0, 0.98, src).unwrap();
        assert_eq!(g.adjacent(a), &[e]);
        assert_eq!(g.adjacent(b), &[e]);
    }

    #[test]
    fn line_chain_shape_and_spec() {
        let (g, left, right) = line_chain(4, 10.0, 0.98, swap(), 1000).unwrap();
        assert_eq!(g.n_nodes(), 5);
        assert_eq!(g.edges().len(), 4);
        assert_eq!(g.sources().len(), 4);
        assert_eq!(g.node_kind(left), NodeKind::Server);
        assert_eq!(g.node_kind(right), NodeKind::Server);
        let path: Vec<u32> = (0..4).collect();
        let spec = g.chain_spec(&path).unwrap();
        assert_eq!(spec.hops(), 4);
        let s = FiberLink::new(10.0).survival_probability();
        let expect_v = 0.98f64.powi(4) * 0.97f64.powi(3);
        let expect_p = s.powi(4) * 0.9f64.powi(3);
        assert!((spec.end_to_end_visibility() - expect_v).abs() < 1e-15);
        assert!((spec.success_probability() - expect_p).abs() < 1e-15);
    }

    #[test]
    fn star_shares_one_source() {
        let (g, pairs) = star(4, 5.0, 0.98, swap(), 10_000).unwrap();
        assert_eq!(pairs.len(), 4);
        assert_eq!(g.sources().len(), 1);
        // Every 2-hop chain costs 2 emissions from source 0.
        for &(a, b) in &pairs {
            let ea = g.adjacent(a)[0];
            let eb = g.adjacent(b)[0];
            let em = g.emissions_per_attempt(&[ea, eb]).unwrap();
            assert_eq!(em, vec![(0, 2)]);
        }
    }

    #[test]
    fn broken_path_rejected() {
        // Edges 0 and 2 of a 3-hop line share no endpoint.
        let (g, _, _) = line_chain(3, 1.0, 0.99, swap(), 100).unwrap();
        assert!(matches!(
            g.chain_spec(&[0, 2]).unwrap_err(),
            TopologyError::BrokenPath { at: 1 }
        ));
    }

    #[test]
    fn metro_tree_shape() {
        let (g, tree) = metro_tree(
            swap(),
            MetroTreeParams {
                leaf_km: 2.0,
                leaf_visibility: 0.98,
                trunk_km: 15.0,
                trunk_visibility: 0.99,
                backup_km: 25.0,
                backup_visibility: 0.85,
                leaf_budget: 1000,
                trunk_budget: 1000,
            },
        )
        .unwrap();
        assert_eq!(g.n_nodes(), 8);
        assert_eq!(g.edges().len(), 8);
        assert_eq!(g.sources().len(), 4);
        for s in tree.servers {
            assert_eq!(g.node_kind(s), NodeKind::Server);
        }
        for e in tree.primary_trunks.iter().chain(&tree.backup_trunks) {
            let edge = g.edges()[*e as usize];
            assert_eq!(g.node_kind(edge.a), NodeKind::Repeater);
            assert_eq!(g.node_kind(edge.b), NodeKind::Repeater);
        }
    }

    #[test]
    fn sample_attempt_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let c = ChainSpec::uniform(2, 0.98, 0.9, swap()).unwrap();
        let p = c.success_probability();
        let trials = 20_000;
        let hits = (0..trials).filter(|_| c.sample_attempt(&mut rng)).count();
        let f = hits as f64 / trials as f64;
        assert!((f - p).abs() < 0.02, "rate {f} vs p {p}");
    }
}
