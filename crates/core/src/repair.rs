//! Impromptu repair of a maintained MST / ST under dynamic edge updates
//! (§3.2 and §4.3 of the paper, Theorem 1.2).
//!
//! "Impromptu" means that between updates every node stores only its incident
//! edges, their weights and which of them are marked — nothing else. All of
//! that is exactly what the simulator's [`kkt_congest::NodeView`] exposes, so
//! these routines work purely from the maintained marking plus the messages
//! they send while processing the update.
//!
//! * **Delete / weight increase of a tree edge** — the initiating endpoint
//!   runs `FindMin` (MST) or `FindAny` (ST) on its half of the split tree and
//!   announces the replacement, for `O(n log n / log log n)` resp. `O(n)`
//!   expected messages. Deleting a non-tree edge costs nothing.
//! * **Insert / weight decrease** — the initiating endpoint checks, with one
//!   broadcast-and-echo, whether the other endpoint lies in its tree and (for
//!   the MST) which tree-path edge is heaviest; it then swaps edges if the new
//!   edge improves the tree. Deterministic, `O(n)` messages.
//!
//! These routines run unchanged under the asynchronous scheduler — they are
//! sequences of broadcast-and-echoes, which self-synchronise.

use kkt_congest::broadcast_echo::{run_broadcast_echo, TreeAggregate};
use kkt_congest::{BitSized, Network, NodeView, Phase};
use kkt_graphs::{EdgeId, NodeId, Weight};
use rand::Rng;

use crate::config::KktConfig;
use crate::error::CoreError;
use crate::find_any::find_any;
use crate::find_min::find_min;
use crate::weights::{augmented_weight, FoundEdge};

/// Outcome of processing an edge deletion (or a weight increase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// The deleted edge was not a tree edge: the forest is untouched.
    NotATreeEdge,
    /// The deleted tree edge was a bridge: no replacement exists and the
    /// forest now has one more tree.
    Bridge,
    /// The tree was repaired by marking the returned replacement edge.
    Replaced(FoundEdge),
    /// The cut was mended by the batched repair pipeline
    /// ([`crate::MaintainedForest::apply_batch`]): the replacement edges and
    /// the announce broadcast are shared across the whole batch, so no single
    /// edge is attributable to this cut alone.
    BatchRepaired,
}

/// Outcome of processing an edge insertion (or a weight decrease).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The endpoints were in different trees: the new edge joins the forest.
    MergedFragments,
    /// The new edge displaced the heaviest edge on the tree path between its
    /// endpoints (MST only).
    Swapped {
        /// The tree edge that was unmarked.
        removed: EdgeId,
    },
    /// The tree is unchanged (the new edge is not useful).
    NotNeeded,
}

// ---------------------------------------------------------------------------
// Path queries (used by Insert)
// ---------------------------------------------------------------------------

/// Broadcast payload: the identifier of the node being looked for.
#[derive(Debug, Clone, Copy)]
struct PathQueryDown {
    target_id: u64,
}

impl BitSized for PathQueryDown {
    fn bit_size(&self) -> usize {
        self.target_id.bit_size()
    }
}

/// Echo: whether the target was found in the subtree, and the heaviest tree
/// edge on the path from the target up to (and including the edge into) the
/// echoing node.
#[derive(Debug, Clone, Copy)]
struct PathQueryUp {
    found: bool,
    max_weight: u128,
    max_edge: Option<u128>,
}

impl BitSized for PathQueryUp {
    fn bit_size(&self) -> usize {
        1 + self.max_weight.bit_size() + self.max_edge.bit_size()
    }
}

/// "Is node `target_id` in my tree, and if so what is the heaviest edge on
/// the tree path to it?" — one broadcast-and-echo from the initiator.
#[derive(Debug, Clone, Copy)]
struct PathQuery {
    down: PathQueryDown,
}

impl TreeAggregate for PathQuery {
    type Down = PathQueryDown;
    type Up = PathQueryUp;
    type Output = Option<Option<(u128, u128)>>;

    fn root_payload(&self, _root_view: &NodeView) -> PathQueryDown {
        self.down
    }

    fn local(&self, view: &NodeView, down: &PathQueryDown) -> PathQueryUp {
        PathQueryUp { found: view.id == down.target_id, max_weight: 0, max_edge: None }
    }

    fn combine(&self, _view: &NodeView, acc: PathQueryUp, child: PathQueryUp) -> PathQueryUp {
        if child.found {
            PathQueryUp {
                found: true,
                max_weight: acc.max_weight.max(child.max_weight),
                max_edge: if child.max_weight >= acc.max_weight {
                    child.max_edge
                } else {
                    acc.max_edge
                },
            }
        } else {
            acc
        }
    }

    fn finalize_up(&self, view: &NodeView, parent: NodeId, mut up: PathQueryUp) -> PathQueryUp {
        if up.found {
            // The edge to the parent lies on the path from the target to the
            // initiator; fold it into the running maximum.
            if let Some(edge) = view.edge_to(parent) {
                let aw = augmented_weight(view, edge);
                if aw >= up.max_weight {
                    up.max_weight = aw;
                    up.max_edge = Some(edge.edge_number.as_u128());
                }
            }
        }
        up
    }

    fn finish(
        &self,
        _root_view: &NodeView,
        _down: &PathQueryDown,
        total: PathQueryUp,
    ) -> Option<Option<(u128, u128)>> {
        // Outer Option: was the target found? Inner: heaviest path edge (its
        // augmented weight and edge number), `None` when target == root.
        if total.found {
            Some(total.max_edge.map(|e| (total.max_weight, e)))
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Announcements (tree-wide broadcast after a decision, charged honestly)
// ---------------------------------------------------------------------------

/// A broadcast-and-echo whose only purpose is to disseminate a decision (add
/// or drop an edge) through the repaired tree; carries the edge number and
/// echoes a single bit. Used to charge the "u broadcasts that {u', v'} should
/// be added" step of §3.2 at its true cost.
#[derive(Debug, Clone, Copy)]
struct Announce {
    payload: u128,
}

impl TreeAggregate for Announce {
    type Down = u128;
    type Up = bool;
    type Output = bool;

    fn root_payload(&self, _root_view: &NodeView) -> u128 {
        self.payload
    }

    fn local(&self, _view: &NodeView, _down: &u128) -> bool {
        true
    }

    fn combine(&self, _view: &NodeView, acc: bool, child: bool) -> bool {
        acc && child
    }

    fn finish(&self, _root_view: &NodeView, _down: &u128, total: bool) -> bool {
        total
    }
}

/// Which endpoint initiates an operation: the one with the smaller ID, as in
/// the paper ("if u < v then u initiates"). The batched pipeline
/// (`crate::batch`) applies the same smaller-ID rule per *fragment*
/// (smallest severed-endpoint ID), which this single-edge helper cannot
/// express — keep the two in sync if the rule ever changes.
fn initiator(net: &Network, u: NodeId, v: NodeId) -> NodeId {
    if net.graph().id_of(u) <= net.graph().id_of(v) {
        u
    } else {
        v
    }
}

/// One decision broadcast through the tree containing `root`, charged at its
/// true cost of `2(|T| − 1)` messages. The fragment-level entry point the
/// single-cut repairs below and the batched pipeline (`crate::batch`) share.
pub(crate) fn announce(net: &mut Network, root: NodeId, payload: u128) -> Result<(), CoreError> {
    net.span(Phase::Announce, |net| run_broadcast_echo(net, root, Announce { payload }))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// MST repairs
// ---------------------------------------------------------------------------

/// Processes the deletion of edge `{u, v}` in a maintained MST.
///
/// # Errors
///
/// Returns [`CoreError::NoSuchEdge`] if `{u, v}` is not a live edge.
pub fn delete_edge_mst<R: Rng + ?Sized>(
    net: &mut Network,
    u: NodeId,
    v: NodeId,
    config: &KktConfig,
    rng: &mut R,
) -> Result<DeleteOutcome, CoreError> {
    let (_, was_marked) = net.delete_edge(u, v).ok_or(CoreError::NoSuchEdge { u, v })?;
    if !was_marked {
        return Ok(DeleteOutcome::NotATreeEdge);
    }
    repair_cut_mst(net, initiator(net, u, v), config, rng)
}

/// Processes an increase of edge `{u, v}`'s weight to `new_weight` in a
/// maintained MST (treated as "re-justify the edge": the edge is unmarked and
/// the lightest edge across the resulting cut — possibly the same edge — is
/// marked).
pub fn increase_weight_mst<R: Rng + ?Sized>(
    net: &mut Network,
    u: NodeId,
    v: NodeId,
    new_weight: Weight,
    config: &KktConfig,
    rng: &mut R,
) -> Result<DeleteOutcome, CoreError> {
    let edge = net.graph().edge_between(u, v).ok_or(CoreError::NoSuchEdge { u, v })?;
    net.change_weight(u, v, new_weight);
    if !net.forest().is_marked(edge) {
        return Ok(DeleteOutcome::NotATreeEdge);
    }
    net.unmark(edge);
    repair_cut_mst(net, initiator(net, u, v), config, rng)
}

fn repair_cut_mst<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    config: &KktConfig,
    rng: &mut R,
) -> Result<DeleteOutcome, CoreError> {
    match find_min(net, root, config, rng)?.edge() {
        Some(found) => replace(net, root, found),
        None => Ok(DeleteOutcome::Bridge),
    }
}

/// Mends a cut with the replacement `found` that `root` learned: announce it
/// through the initiator's tree, forward it across the new edge (one extra
/// message), then mark it.
fn replace(net: &mut Network, root: NodeId, found: FoundEdge) -> Result<DeleteOutcome, CoreError> {
    let number = found.edge_number.as_u128();
    announce(net, root, number)?;
    net.cost_mut().record_message_in(Phase::Announce, number.bit_size() as u64);
    net.mark(found.edge);
    Ok(DeleteOutcome::Replaced(found))
}

/// Processes the insertion of edge `{u, v}` with weight `weight` into a
/// maintained MST. Deterministic, `O(|T_u|)` messages.
pub fn insert_edge_mst(
    net: &mut Network,
    u: NodeId,
    v: NodeId,
    weight: Weight,
    _config: &KktConfig,
) -> Result<InsertOutcome, CoreError> {
    let new_edge = net
        .insert_edge(u, v, weight)
        .ok_or(CoreError::Internal(format!("edge ({u},{v}) already exists or is invalid")))?;
    let root = initiator(net, u, v);
    let other = if root == u { v } else { u };
    let target_id = net.graph().id_of(other);
    let query = PathQuery { down: PathQueryDown { target_id } };
    match net.span(Phase::BroadcastEcho, |net| run_broadcast_echo(net, root, query))? {
        // Other endpoint is in a different tree: the new edge joins the forest.
        None => {
            net.cost_mut().record_message_in(Phase::Announce, 1);
            net.mark(new_edge);
            Ok(InsertOutcome::MergedFragments)
        }
        // Same tree: swap with the heaviest path edge if the new edge is lighter.
        Some(heaviest) => {
            let new_aug = crate::weights::pack_weight(
                weight,
                net.graph().edge_number(new_edge),
                net.id_bits(),
            );
            match heaviest {
                Some((max_aug, max_edge_number)) if max_aug > new_aug => {
                    let number = kkt_graphs::EdgeNumber::from_ids(
                        (max_edge_number >> 64) as u64,
                        max_edge_number as u64,
                    );
                    let removed = crate::weights::resolve_edge(net, number)?.edge;
                    announce(net, root, max_edge_number)?;
                    net.unmark(removed);
                    net.mark(new_edge);
                    Ok(InsertOutcome::Swapped { removed })
                }
                _ => Ok(InsertOutcome::NotNeeded),
            }
        }
    }
}

/// Processes a decrease of edge `{u, v}`'s weight to `new_weight` in a
/// maintained MST.
pub fn decrease_weight_mst(
    net: &mut Network,
    u: NodeId,
    v: NodeId,
    new_weight: Weight,
    config: &KktConfig,
) -> Result<InsertOutcome, CoreError> {
    let edge = net.graph().edge_between(u, v).ok_or(CoreError::NoSuchEdge { u, v })?;
    net.change_weight(u, v, new_weight);
    if net.forest().is_marked(edge) {
        // A tree edge that gets lighter stays in the MST.
        return Ok(InsertOutcome::NotNeeded);
    }
    // A non-tree edge that gets lighter is handled exactly like an insertion,
    // except the edge already exists in the graph.
    let root = initiator(net, u, v);
    let other = if root == u { v } else { u };
    let target_id = net.graph().id_of(other);
    let query = PathQuery { down: PathQueryDown { target_id } };
    let _ = config;
    match net.span(Phase::BroadcastEcho, |net| run_broadcast_echo(net, root, query))? {
        None => {
            net.cost_mut().record_message_in(Phase::Announce, 1);
            net.mark(edge);
            Ok(InsertOutcome::MergedFragments)
        }
        Some(heaviest) => {
            let new_aug = crate::weights::pack_weight(
                new_weight,
                net.graph().edge_number(edge),
                net.id_bits(),
            );
            match heaviest {
                Some((max_aug, max_edge_number)) if max_aug > new_aug => {
                    let number = kkt_graphs::EdgeNumber::from_ids(
                        (max_edge_number >> 64) as u64,
                        max_edge_number as u64,
                    );
                    let removed = crate::weights::resolve_edge(net, number)?.edge;
                    announce(net, root, max_edge_number)?;
                    net.unmark(removed);
                    net.mark(edge);
                    Ok(InsertOutcome::Swapped { removed })
                }
                _ => Ok(InsertOutcome::NotNeeded),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ST repairs
// ---------------------------------------------------------------------------

/// Processes the deletion of edge `{u, v}` in a maintained spanning forest:
/// like [`delete_edge_mst`] but with `FindAny`, saving a
/// `log n / log log n` factor (expected `O(n)` messages).
pub fn delete_edge_st<R: Rng + ?Sized>(
    net: &mut Network,
    u: NodeId,
    v: NodeId,
    config: &KktConfig,
    rng: &mut R,
) -> Result<DeleteOutcome, CoreError> {
    let (_, was_marked) = net.delete_edge(u, v).ok_or(CoreError::NoSuchEdge { u, v })?;
    if !was_marked {
        return Ok(DeleteOutcome::NotATreeEdge);
    }
    let root = initiator(net, u, v);
    match find_any(net, root, config, rng)? {
        Some(found) => replace(net, root, found),
        None => Ok(DeleteOutcome::Bridge),
    }
}

/// Processes the insertion of edge `{u, v}` into a maintained spanning
/// forest: the edge is marked iff its endpoints were in different trees.
pub fn insert_edge_st(
    net: &mut Network,
    u: NodeId,
    v: NodeId,
    weight: Weight,
    _config: &KktConfig,
) -> Result<InsertOutcome, CoreError> {
    let new_edge = net
        .insert_edge(u, v, weight)
        .ok_or(CoreError::Internal(format!("edge ({u},{v}) already exists or is invalid")))?;
    let root = initiator(net, u, v);
    let other = if root == u { v } else { u };
    let target_id = net.graph().id_of(other);
    let query = PathQuery { down: PathQueryDown { target_id } };
    match net.span(Phase::BroadcastEcho, |net| run_broadcast_echo(net, root, query))? {
        None => {
            net.cost_mut().record_message_in(Phase::Announce, 1);
            net.mark(new_edge);
            Ok(InsertOutcome::MergedFragments)
        }
        Some(_) => Ok(InsertOutcome::NotNeeded),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::{generators, kruskal, verify_mst, verify_spanning_forest};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> KktConfig {
        KktConfig::default()
    }

    fn mst_network(n: usize, p: f64, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_gnp(n, p, 500, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges);
        net
    }

    #[test]
    fn delete_non_tree_edge_is_free() {
        let mut net = mst_network(30, 0.3, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let non_tree = net
            .graph()
            .live_edges()
            .find(|&e| !net.forest().is_marked(e))
            .expect("a dense graph has non-tree edges");
        let edge = *net.graph().edge(non_tree);
        let before = net.cost();
        let outcome = delete_edge_mst(&mut net, edge.u, edge.v, &cfg(), &mut rng).unwrap();
        assert_eq!(outcome, DeleteOutcome::NotATreeEdge);
        assert_eq!(net.cost().messages, before.messages, "non-tree deletions cost nothing");
        verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
    }

    #[test]
    fn delete_tree_edge_restores_the_mst() {
        for seed in 0..6 {
            let mut net = mst_network(26, 0.25, seed);
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let tree_edge = net.forest().edges()[(seed as usize * 3) % net.forest().len()];
            let edge = *net.graph().edge(tree_edge);
            let outcome = delete_edge_mst(&mut net, edge.u, edge.v, &cfg(), &mut rng).unwrap();
            assert!(matches!(outcome, DeleteOutcome::Replaced(_)), "seed {seed}");
            verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
        }
    }

    #[test]
    fn delete_bridge_reports_bridge() {
        // A tree has only bridges.
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::random_tree(12, 50, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges);
        let edge = *net.graph().edge(mst.edges[4]);
        let outcome = delete_edge_mst(&mut net, edge.u, edge.v, &cfg(), &mut rng).unwrap();
        assert_eq!(outcome, DeleteOutcome::Bridge);
        assert_eq!(net.graph().component_count(), 2);
        verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
    }

    #[test]
    fn delete_missing_edge_errors() {
        let mut net = mst_network(10, 0.2, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let missing = (0..10)
            .flat_map(|a| (0..10).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && net.graph().edge_between(a, b).is_none())
            .unwrap();
        assert!(matches!(
            delete_edge_mst(&mut net, missing.0, missing.1, &cfg(), &mut rng),
            Err(CoreError::NoSuchEdge { .. })
        ));
    }

    #[test]
    fn insert_useless_edge_changes_nothing() {
        let mut net = mst_network(20, 0.15, 6);
        let mut rng = StdRng::seed_from_u64(7);
        // Find a pair of nodes with no edge; give the new edge a huge weight.
        let (a, b) = (0..20)
            .flat_map(|a| (0..20).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && net.graph().edge_between(a, b).is_none())
            .unwrap();
        let outcome = insert_edge_mst(&mut net, a, b, 100_000, &cfg()).unwrap();
        assert_eq!(outcome, InsertOutcome::NotNeeded);
        verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
        let _ = &mut rng;
    }

    #[test]
    fn insert_light_edge_swaps_out_the_heaviest_path_edge() {
        let mut net = mst_network(20, 0.15, 8);
        // Weight 0 edges beat everything, so the insertion must enter the MST.
        let (a, b) = (0..20)
            .flat_map(|a| (0..20).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && net.graph().edge_between(a, b).is_none())
            .unwrap();
        let outcome = insert_edge_mst(&mut net, a, b, 1, &cfg()).unwrap();
        assert!(matches!(outcome, InsertOutcome::Swapped { .. } | InsertOutcome::NotNeeded));
        verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
    }

    #[test]
    fn insert_between_components_merges_them() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut g = kkt_graphs::Graph::new(8);
        // Two components: 0-1-2-3 and 4-5-6-7.
        for i in 0..3 {
            g.add_edge(i, i + 1, 10 + i as u64);
            g.add_edge(4 + i, 5 + i, 20 + i as u64);
        }
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges);
        let outcome = insert_edge_mst(&mut net, 2, 5, 7, &cfg()).unwrap();
        assert_eq!(outcome, InsertOutcome::MergedFragments);
        verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
        assert_eq!(net.graph().component_count(), 1);
        let _ = &mut rng;
    }

    #[test]
    fn weight_changes_preserve_the_mst() {
        for seed in 0..5 {
            let mut net = mst_network(22, 0.3, 20 + seed);
            let mut rng = StdRng::seed_from_u64(30 + seed);
            // Increase a tree edge's weight dramatically.
            let tree_edge = net.forest().edges()[seed as usize % net.forest().len()];
            let e = *net.graph().edge(tree_edge);
            increase_weight_mst(&mut net, e.u, e.v, 400_000, &cfg(), &mut rng).unwrap();
            verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
            // Decrease a non-tree edge's weight to (almost) nothing.
            let non_tree: Vec<kkt_graphs::EdgeId> =
                net.graph().live_edges().filter(|&x| !net.forest().is_marked(x)).collect();
            if let Some(&non_tree) = non_tree.first() {
                let e = *net.graph().edge(non_tree);
                decrease_weight_mst(&mut net, e.u, e.v, 1, &cfg()).unwrap();
                verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
            }
        }
    }

    #[test]
    fn st_delete_repairs_with_any_replacement() {
        for seed in 0..5 {
            let mut net = mst_network(24, 0.3, 40 + seed);
            let mut rng = StdRng::seed_from_u64(50 + seed);
            let tree_edge = net.forest().edges()[(2 * seed as usize) % net.forest().len()];
            let edge = *net.graph().edge(tree_edge);
            let outcome = delete_edge_st(&mut net, edge.u, edge.v, &cfg(), &mut rng).unwrap();
            assert!(matches!(outcome, DeleteOutcome::Replaced(_)));
            verify_spanning_forest(net.graph(), &net.marked_forest_snapshot()).unwrap();
        }
    }

    #[test]
    fn st_insert_only_merges_fragments() {
        let mut net = mst_network(18, 0.2, 60);
        let (a, b) = (0..18)
            .flat_map(|a| (0..18).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && net.graph().edge_between(a, b).is_none())
            .unwrap();
        // Same tree: never marked, regardless of weight.
        assert_eq!(insert_edge_st(&mut net, a, b, 1, &cfg()).unwrap(), InsertOutcome::NotNeeded);
        verify_spanning_forest(net.graph(), &net.marked_forest_snapshot()).unwrap();
    }

    #[test]
    fn repairs_work_under_asynchronous_delivery() {
        let mut net = mst_network(24, 0.25, 70);
        net.set_config(NetworkConfig::asynchronous(5, 12));
        let mut rng = StdRng::seed_from_u64(71);
        let tree_edge = net.forest().edges()[3];
        let edge = *net.graph().edge(tree_edge);
        let outcome = delete_edge_mst(&mut net, edge.u, edge.v, &cfg(), &mut rng).unwrap();
        assert!(matches!(outcome, DeleteOutcome::Replaced(_)));
        verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
    }

    #[test]
    fn delete_repair_cost_is_fragment_times_broadcast_echoes() {
        // Every message of a tree-edge repair belongs to a broadcast-and-echo
        // on the initiator's half of the split tree, except the single
        // forwarding message across the replacement edge. The graph density
        // (here p = 0.9) never enters the count.
        let mut net = mst_network(40, 0.9, 80);
        let mut rng = StdRng::seed_from_u64(81);
        let tree_edge = net.forest().edges()[10];
        let edge = *net.graph().edge(tree_edge);
        let root = initiator(&net, edge.u, edge.v);
        let before = net.cost();
        let outcome = delete_edge_mst(&mut net, edge.u, edge.v, &cfg(), &mut rng).unwrap();
        assert!(matches!(outcome, DeleteOutcome::Replaced(_)));
        let delta = net.cost() - before;
        // After the repair the initiator's fragment has been re-joined; the
        // searches ran on the pre-repair half, whose size we recover by
        // removing the replacement edge mark temporarily.
        let replacement = match outcome {
            DeleteOutcome::Replaced(f) => f.edge,
            _ => unreachable!(),
        };
        net.unmark(replacement);
        let side = net.forest().tree_of(net.graph(), root).len() as u64;
        net.mark(replacement);
        assert_eq!(delta.messages, delta.broadcast_echoes * 2 * (side - 1) + 1);
    }
}
