//! `FindAny` — find *some* edge leaving a tree in an expected constant number
//! of broadcast-and-echoes (§4.1 of the paper).
//!
//! The procedure first confirms with `HP-TestOut` that the cut is non-empty
//! (so "no edge" answers are always correct), then repeatedly attempts the
//! isolation trick of Lemma 4:
//!
//! 1. broadcast a pairwise-independent hash `h : edge numbers → [r]` with
//!    `r` a power of two larger than the sum of tree degrees;
//! 2. every node XORs, per prefix level `ℓ`, the parity of its incident edges
//!    hashing below `2^ℓ`; the per-level parities of the *cut* survive the
//!    XOR up the tree (internal edges cancel), and the root picks the lowest
//!    level `min` with odd parity;
//! 3. every node XORs the edge keys of its incident edges hashing below
//!    `2^min`; if exactly one cut edge hashes that low — which happens with
//!    probability ≥ 1/16 — the XOR over the tree is that edge's key;
//! 4. the candidate key is broadcast back down and the number of tree
//!    endpoints incident to it is counted; the attempt succeeds iff that
//!    count is 1.
//!
//! `FindAny` retries attempts until success (expected 16 ≈ O(1) attempts,
//! capped at `16·ln ε(n)^{-1}`); `FindAny-C` performs a single attempt, so its
//! worst-case cost matches `FindAny`'s expected cost (Lemma 5).

use kkt_congest::broadcast_echo::{run_broadcast_echo, TreeAggregate};
use kkt_congest::{BitSized, Network, NodeView, Phase};
use kkt_graphs::{EdgeNumber, NodeId};
use kkt_hashing::PairwiseHash;
use rand::Rng;

use crate::config::KktConfig;
use crate::error::CoreError;
use crate::hp_test_out::hp_test_out;
use crate::weights::{edges_in, resolve_edge, FoundEdge, WeightInterval};

/// Broadcast payload of the prefix-parity step: the pairwise hash function.
/// Fields are crate-visible so the batched-repair pipeline can drive the same
/// aggregates step by step (see `crate::batch`).
#[derive(Debug, Clone, Copy)]
pub struct PrefixDown {
    pub(crate) a: u64,
    pub(crate) b: u64,
    pub(crate) range: u64,
    /// Restrict attention to edges inside this interval (used when `FindAny`
    /// is asked for *any* edge in a weight class; the repair algorithms use
    /// the full range).
    pub(crate) interval: WeightInterval,
}

impl BitSized for PrefixDown {
    fn bit_size(&self) -> usize {
        self.a.bit_size()
            + self.b.bit_size()
            + self.range.bit_size()
            + self.interval.lo.bit_size()
            + self.interval.hi.bit_size()
    }
}

impl PrefixDown {
    fn hash(&self) -> PairwiseHash {
        PairwiseHash::from_parts(self.a, self.b, self.range)
    }
}

/// Step 3a–3c: per-level parities of sampled incident edges, XOR-combined.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrefixParity {
    pub(crate) down: PrefixDown,
}

impl TreeAggregate for PrefixParity {
    type Down = PrefixDown;
    type Up = u64;
    type Output = u64;

    fn root_payload(&self, _root_view: &NodeView) -> PrefixDown {
        self.down
    }

    fn local(&self, view: &NodeView, down: &PrefixDown) -> u64 {
        let hash = down.hash();
        let mut word = 0u64;
        for (_, e) in edges_in(view, &down.interval) {
            let value = hash.eval(crate::weights::compact_key(e.edge_number, view.id_bits));
            // The edge contributes to every prefix level that contains its
            // hash value: levels ℓ with value < 2^ℓ, i.e. ℓ > log2(value).
            let first_level = 64 - value.leading_zeros();
            for level in first_level..=hash.levels() {
                if level < 64 {
                    word ^= 1u64 << level;
                }
            }
        }
        word
    }

    fn combine(&self, _view: &NodeView, acc: u64, child: u64) -> u64 {
        acc ^ child
    }

    fn finish(&self, _root_view: &NodeView, _down: &PrefixDown, total: u64) -> u64 {
        total
    }
}

/// Broadcast payload of the key-isolation step: the hash plus the chosen level.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IsolateDown {
    pub(crate) prefix: PrefixDown,
    pub(crate) level: u32,
}

impl BitSized for IsolateDown {
    fn bit_size(&self) -> usize {
        self.prefix.bit_size() + self.level.bit_size()
    }
}

/// Step 3d: XOR of the keys of incident edges hashing below `2^level`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IsolateKeys {
    pub(crate) down: IsolateDown,
}

impl TreeAggregate for IsolateKeys {
    type Down = IsolateDown;
    type Up = u64;
    type Output = u64;

    fn root_payload(&self, _root_view: &NodeView) -> IsolateDown {
        self.down
    }

    fn local(&self, view: &NodeView, down: &IsolateDown) -> u64 {
        let hash = down.prefix.hash();
        let mut acc = 0u64;
        for (_, e) in edges_in(view, &down.prefix.interval) {
            let key = crate::weights::compact_key(e.edge_number, view.id_bits);
            if hash.in_prefix(key, down.level) {
                acc ^= key;
            }
        }
        acc
    }

    fn combine(&self, _view: &NodeView, acc: u64, child: u64) -> u64 {
        acc ^ child
    }

    fn finish(&self, _root_view: &NodeView, _down: &IsolateDown, total: u64) -> u64 {
        total
    }
}

/// Broadcast payload of the verification step: the candidate edge key.
#[derive(Debug, Clone, Copy)]
pub struct VerifyDown {
    pub(crate) key: u64,
    pub(crate) interval: WeightInterval,
}

impl BitSized for VerifyDown {
    fn bit_size(&self) -> usize {
        self.key.bit_size() + self.interval.lo.bit_size() + self.interval.hi.bit_size()
    }
}

/// Echo of the verification step: how many tree endpoints recognise the key,
/// and the full edge identification supplied by a recognising endpoint.
#[derive(Debug, Clone, Copy)]
pub struct VerifyUp {
    endpoints: u64,
    edge_number: Option<u128>,
    weight: u64,
}

impl BitSized for VerifyUp {
    fn bit_size(&self) -> usize {
        self.endpoints.bit_size() + self.edge_number.bit_size() + self.weight.bit_size()
    }
}

/// The verification aggregate, shared by `FindAny` (step 4) and `FindMin`'s
/// final identification step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VerifyCandidate {
    down: VerifyDown,
}

impl VerifyCandidate {
    pub(crate) fn by_key(key: u64, interval: WeightInterval) -> Self {
        VerifyCandidate { down: VerifyDown { key, interval } }
    }

    pub(crate) fn from_down(down: VerifyDown) -> Self {
        VerifyCandidate { down }
    }
}

impl TreeAggregate for VerifyCandidate {
    type Down = VerifyDown;
    type Up = VerifyUp;
    type Output = Option<(EdgeNumber, u64, u64)>;

    fn root_payload(&self, _root_view: &NodeView) -> VerifyDown {
        self.down
    }

    fn local(&self, view: &NodeView, down: &VerifyDown) -> VerifyUp {
        let mut up = VerifyUp { endpoints: 0, edge_number: None, weight: 0 };
        for (_, e) in edges_in(view, &down.interval) {
            if crate::weights::compact_key(e.edge_number, view.id_bits) == down.key {
                up.endpoints += 1;
                up.edge_number = Some(e.edge_number.as_u128());
                up.weight = e.weight;
            }
        }
        up
    }

    fn combine(&self, _view: &NodeView, acc: VerifyUp, child: VerifyUp) -> VerifyUp {
        VerifyUp {
            endpoints: acc.endpoints + child.endpoints,
            edge_number: acc.edge_number.or(child.edge_number),
            weight: if acc.edge_number.is_some() { acc.weight } else { child.weight },
        }
    }

    fn finish(
        &self,
        _root_view: &NodeView,
        _down: &VerifyDown,
        total: VerifyUp,
    ) -> Option<(EdgeNumber, u64, u64)> {
        total.edge_number.map(|packed| {
            let number = EdgeNumber::from_ids((packed >> 64) as u64, packed as u64);
            (number, total.weight, total.endpoints)
        })
    }
}

/// One isolation attempt (steps 3–5 of the paper). Returns the found edge, or
/// `None` if the attempt failed (no level isolated a single cut edge).
fn attempt<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    interval: WeightInterval,
    degree_bound: u64,
    rng: &mut R,
) -> Result<Option<FoundEdge>, CoreError> {
    let range = (2 * degree_bound.max(2)).next_power_of_two();
    let hash = PairwiseHash::random(range, rng);
    let down = PrefixDown { a: rng.gen::<u64>() | 1, b: rng.gen(), range, interval };
    // Re-derive the hash actually broadcast (from_parts normalises `a`).
    let down = PrefixDown { a: down.a, b: down.b, range: hash.range().max(down.range), ..down };
    let word = run_broadcast_echo(net, root, PrefixParity { down })?;
    if word == 0 {
        return Ok(None);
    }
    let min_level = word.trailing_zeros();
    let isolate = IsolateDown { prefix: down, level: min_level };
    let candidate = run_broadcast_echo(net, root, IsolateKeys { down: isolate })?;
    if candidate == 0 {
        return Ok(None);
    }
    let verify = VerifyCandidate::by_key(candidate, interval);
    match run_broadcast_echo(net, root, verify)? {
        Some((number, _weight, 1)) => Ok(Some(resolve_edge(net, number)?)),
        _ => Ok(None),
    }
}

/// Shared implementation of `FindAny` / `FindAny-C`. The emptiness check and
/// every isolation attempt bill to [`Phase::FindAnySample`] (attribution
/// only; costs and coin flips are unchanged).
fn find_any_impl<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    interval: WeightInterval,
    attempts: u32,
    rng: &mut R,
) -> Result<Option<FoundEdge>, CoreError> {
    net.span(Phase::FindAnySample, |net| {
        // Step 2: w.h.p. emptiness check; "∅" answers are then always correct.
        if !hp_test_out(net, root, interval, rng)? {
            return Ok(None);
        }
        // The pairwise hash range must exceed the sum of tree degrees; that
        // sum is below n², which every node knows (KT1), so no extra
        // broadcast-and-echo is needed to size the hash.
        let n = net.node_count() as u64;
        let degree_bound = n.saturating_mul(n.saturating_sub(1)).max(2);
        for _ in 0..attempts.max(1) {
            if let Some(found) = attempt(net, root, interval, degree_bound, rng)? {
                return Ok(Some(found));
            }
        }
        Ok(None)
    })
}

/// `FindAny(x)`: returns an edge leaving the marked tree containing `root`
/// w.h.p. (retrying internally), or `None` if no edge leaves the tree.
/// Expected cost: O(1) broadcast-and-echoes, i.e. O(|T|) messages.
pub fn find_any<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    config: &KktConfig,
    rng: &mut R,
) -> Result<Option<FoundEdge>, CoreError> {
    let attempts = config.findany_budget(net.node_count());
    find_any_impl(net, root, WeightInterval::everything(), attempts, rng)
}

/// `FindAny-C(x)`: a single isolation attempt; succeeds with probability
/// ≥ 1/16 when a leaving edge exists, never returns a wrong edge, and always
/// returns `None` when no edge leaves. Worst-case cost O(|T|) messages.
pub fn find_any_c<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    _config: &KktConfig,
    rng: &mut R,
) -> Result<Option<FoundEdge>, CoreError> {
    find_any_impl(net, root, WeightInterval::everything(), 1, rng)
}

/// `FindAny` restricted to a weight interval (used by tests and by the
/// benchmark harness to probe specific weight classes).
pub fn find_any_in_interval<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    interval: WeightInterval,
    config: &KktConfig,
    rng: &mut R,
) -> Result<Option<FoundEdge>, CoreError> {
    let attempts = config.findany_budget(net.node_count());
    find_any_impl(net, root, interval, attempts, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::{generators, kruskal, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> KktConfig {
        KktConfig::default()
    }

    /// Marks the first `marked` MST edges of a connected random graph.
    fn partial_network(n: usize, p: f64, marked: usize, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_gnp(n, p, 100, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges[..marked.min(mst.edges.len())]);
        net
    }

    fn crosses_cut(net: &Network, root: NodeId, found: &FoundEdge) -> bool {
        let side = net.forest().tree_membership(net.graph(), root);
        let (u, v) = found.endpoints;
        side[u] != side[v]
    }

    #[test]
    fn spanning_tree_returns_none() {
        let mut net = partial_network(30, 0.2, usize::MAX, 1);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(find_any(&mut net, 0, &cfg(), &mut rng).unwrap(), None);
        assert_eq!(find_any_c(&mut net, 0, &cfg(), &mut rng).unwrap(), None);
    }

    #[test]
    fn finds_a_cut_edge_whp() {
        for seed in 0..8 {
            let mut net = partial_network(30, 0.2, 14, seed);
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let found = find_any(&mut net, 0, &cfg(), &mut rng)
                .unwrap()
                .expect("a partial fragment has leaving edges");
            assert!(crosses_cut(&net, 0, &found), "seed {seed}: returned edge must cross the cut");
        }
    }

    #[test]
    fn found_edge_is_live_and_resolvable() {
        let mut net = partial_network(25, 0.3, 10, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let found = find_any(&mut net, 0, &cfg(), &mut rng).unwrap().unwrap();
        assert!(net.graph().is_live(found.edge));
        assert_eq!(net.graph().edge_number(found.edge), found.edge_number);
        assert_eq!(net.graph().edge(found.edge).weight, found.weight);
    }

    #[test]
    fn find_any_c_succeeds_with_constant_probability() {
        let mut net = partial_network(24, 0.25, 12, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 150;
        let mut successes = 0;
        for _ in 0..trials {
            if let Some(found) = find_any_c(&mut net, 0, &cfg(), &mut rng).unwrap() {
                assert!(crosses_cut(&net, 0, &found));
                successes += 1;
            }
        }
        let rate = successes as f64 / trials as f64;
        assert!(rate >= 1.0 / 16.0, "FindAny-C success rate {rate} below 1/16");
    }

    #[test]
    fn single_replacement_edge_is_found() {
        // A ring: deleting any tree edge leaves exactly one replacement.
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::ring(12, 50, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges);
        // Unmark one tree edge: the cut it opens has exactly one non-tree edge.
        let removed = mst.edges[3];
        net.unmark(removed);
        let found = find_any(&mut net, 0, &cfg(), &mut rng).unwrap().unwrap();
        assert!(crosses_cut(&net, 0, &found));
    }

    #[test]
    fn interval_restricted_search_respects_bounds() {
        // Two 3-node paths joined by a weight-5 and a weight-9 edge.
        let mut g = Graph::new(6);
        let marked = vec![
            g.add_edge(0, 1, 1).unwrap(),
            g.add_edge(1, 2, 1).unwrap(),
            g.add_edge(3, 4, 1).unwrap(),
            g.add_edge(4, 5, 1).unwrap(),
        ];
        g.add_edge(2, 3, 5).unwrap();
        g.add_edge(0, 5, 9).unwrap();
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&marked);
        let id_bits = net.id_bits();
        let mut rng = StdRng::seed_from_u64(8);
        let heavy = WeightInterval::new(
            crate::weights::pack_weight(6, kkt_graphs::EdgeNumber::from_ids(1, 2), id_bits),
            u128::MAX,
        );
        let found = find_any_in_interval(&mut net, 0, heavy, &cfg(), &mut rng).unwrap().unwrap();
        assert_eq!(found.weight, 9, "only the weight-9 edge lies in the interval");
        let light = WeightInterval::up_to_raw(4, id_bits);
        assert_eq!(find_any_in_interval(&mut net, 0, light, &cfg(), &mut rng).unwrap(), None);
    }

    #[test]
    fn cost_is_linear_in_fragment_size_not_graph_size() {
        // A dense graph, but the marked fragment containing the root is tiny.
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::connected_gnp(60, 0.4, 100, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        // Mark a 4-node subtree around node MST edge 0.
        net.mark_all(&mst.edges[..3]);
        let root = {
            let e = net.graph().edge(mst.edges[0]);
            e.u
        };
        let before = net.cost();
        find_any(&mut net, root, &cfg(), &mut rng).unwrap().unwrap();
        let delta = net.cost() - before;
        let fragment = net.forest().tree_of(net.graph(), root).len() as u64;
        // Every broadcast-and-echo touches only the fragment, so the message
        // count is (number of broadcast-and-echoes) × 2(|T|-1), independent of
        // the 60-node, dense surrounding graph.
        assert_eq!(delta.messages, delta.broadcast_echoes * 2 * (fragment - 1));
        assert!(delta.broadcast_echoes <= 60);
    }

    #[test]
    fn expected_broadcast_echo_count_is_constant() {
        // Lemma 5: expected O(1) broadcast-and-echoes. Average over many runs
        // and insist on a generous constant bound.
        let mut net = partial_network(20, 0.3, 9, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let runs = 60;
        let before = net.cost();
        for _ in 0..runs {
            find_any(&mut net, 0, &cfg(), &mut rng).unwrap().unwrap();
        }
        let delta = net.cost() - before;
        let per_run = delta.broadcast_echoes as f64 / runs as f64;
        assert!(per_run <= 25.0, "average {per_run} broadcast-and-echoes per FindAny");
    }
}
