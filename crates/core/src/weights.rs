//! Augmented weights and edge identification shared by the search primitives.
//!
//! `FindMin` performs an interval search over *distinct* edge weights. The
//! paper obtains distinct weights by concatenating the raw weight with the
//! edge number (§2 "Definitions"); we realise that concatenation literally:
//! with an identifier space of `id_bits` bits (the `c·log n` of the KT1
//! model, shared knowledge carried in every [`NodeView`]), the *compact key*
//! of an edge is `min_id · 2^id_bits + max_id`, and its *augmented weight* is
//!
//! ```text
//! augmented = raw_weight · 2^(2·id_bits)  +  compact_key
//! ```
//!
//! Augmented weights are therefore distinct, ordered primarily by raw weight
//! with ties broken by edge number — exactly the order the sequential oracle
//! ([`kkt_graphs::UniqueWeight`]) uses — and only `log u + 2c·log n` bits
//! long, which is what keeps `FindMin`'s narrowing count at
//! `O(log n / log log n)`.

pub use kkt_congest::{compact_key, pack_weight, AugmentedWeight};
use kkt_congest::{IncidentEdge, Network, NodeView};
use kkt_graphs::{EdgeId, EdgeNumber, NodeId, Weight};
use serde::{Deserialize, Serialize};

use crate::error::CoreError;

/// Inverts [`compact_key`].
pub fn key_to_edge_number(key: u64, id_bits: u32) -> EdgeNumber {
    let bits = id_bits.clamp(1, 32);
    EdgeNumber::from_ids(key >> bits, key & ((1u64 << bits) - 1))
}

/// Builds the augmented weight of an incident edge from a node's local view.
pub fn augmented_weight(view: &NodeView, edge: &IncidentEdge) -> AugmentedWeight {
    pack_weight(edge.weight, edge.edge_number, view.id_bits)
}

/// The incident edges of `view` whose augmented weight lies in `interval`,
/// in ascending augmented weight, each with that weight. One binary search
/// on [`NodeView::by_weight`] plus a walk over the edges in range:
/// O(log deg + edges in range), however many edges lie outside.
pub fn edges_in<'v>(
    view: &'v NodeView,
    interval: &WeightInterval,
) -> impl Iterator<Item = (AugmentedWeight, &'v IncidentEdge)> + 'v {
    let order = view.by_weight();
    let weight_at = move |i: u32| {
        let edge = &view.incident[i as usize];
        (augmented_weight(view, edge), edge)
    };
    let start = order.partition_point(|&i| weight_at(i).0 < interval.lo);
    let hi = interval.hi;
    order[start..].iter().map(move |&i| weight_at(i)).take_while(move |&(aw, _)| aw <= hi)
}

/// An inclusive interval of augmented weights (the `[j, k]` of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WeightInterval {
    /// Lower bound, inclusive.
    pub lo: AugmentedWeight,
    /// Upper bound, inclusive.
    pub hi: AugmentedWeight,
}

impl WeightInterval {
    /// The full range of augmented weights.
    pub fn everything() -> Self {
        WeightInterval { lo: 0, hi: u128::MAX }
    }

    /// All augmented weights whose raw weight is at most `max_weight`, for an
    /// identifier space of `id_bits` bits.
    pub fn up_to_raw(max_weight: Weight, id_bits: u32) -> Self {
        let bits = id_bits.clamp(1, 32);
        WeightInterval {
            lo: 0,
            hi: ((max_weight as u128) << (2 * bits)) | ((1u128 << (2 * bits)) - 1),
        }
    }

    /// An interval from explicit bounds (swapping if necessary).
    pub fn new(lo: AugmentedWeight, hi: AugmentedWeight) -> Self {
        if lo <= hi {
            WeightInterval { lo, hi }
        } else {
            WeightInterval { lo: hi, hi: lo }
        }
    }

    /// Membership test.
    pub fn contains(&self, w: AugmentedWeight) -> bool {
        self.lo <= w && w <= self.hi
    }

    /// True if the interval is a single value.
    pub fn is_singleton(&self) -> bool {
        self.lo == self.hi
    }

    /// Number of values in the interval (saturating).
    pub fn width(&self) -> u128 {
        (self.hi - self.lo).saturating_add(1)
    }

    /// Splits the interval into (at most) `parts` consecutive sub-intervals
    /// covering it exactly. Every node computes the same split from the same
    /// broadcast `(lo, hi, parts)`, which is what lets one echo word answer
    /// all sub-interval TestOuts at once.
    pub fn split(&self, parts: u32) -> Vec<WeightInterval> {
        self.parts(parts).collect()
    }

    /// The pieces of [`WeightInterval::split`], in order, without
    /// allocating.
    pub fn parts(&self, parts: u32) -> Parts {
        let parts = parts.max(1) as u128;
        let width = self.width();
        // Ceiling division without overflowing near u128::MAX.
        let chunk = (width / parts + if width.is_multiple_of(parts) { 0 } else { 1 }).max(1);
        Parts { next_lo: (self.lo <= self.hi).then_some(self.lo), hi: self.hi, chunk, left: parts }
    }
}

/// Iterator over the pieces of a split interval (see
/// [`WeightInterval::parts`]).
#[derive(Debug, Clone)]
pub struct Parts {
    /// Lower bound of the next piece; `None` once the upper bound is reached.
    next_lo: Option<AugmentedWeight>,
    hi: AugmentedWeight,
    chunk: u128,
    left: u128,
}

impl Iterator for Parts {
    type Item = WeightInterval;

    fn next(&mut self) -> Option<WeightInterval> {
        let lo = self.next_lo?;
        self.left -= 1;
        // The last piece always extends to the upper bound, which also
        // absorbs the rounding slack of the saturated width computation.
        let hi =
            if self.left == 0 { self.hi } else { lo.saturating_add(self.chunk - 1).min(self.hi) };
        self.next_lo = if hi == self.hi { None } else { Some(hi + 1) };
        Some(WeightInterval { lo, hi })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Full chunks from `next_lo` cover the rest in ⌈span / chunk⌉ pieces,
        // unless the piece budget runs out first.
        let left = match self.next_lo {
            Some(lo) => ((self.hi - lo) / self.chunk + 1).min(self.left) as usize,
            None => 0,
        };
        (left, Some(left))
    }
}

impl ExactSizeIterator for Parts {}

/// An edge identified by a search primitive, described purely in terms of
/// knowledge the endpoints hold (edge number + raw weight), plus the
/// simulation handle resolved for the caller's convenience.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoundEdge {
    /// The edge number (identifies both endpoints by their IDs).
    pub edge_number: EdgeNumber,
    /// The raw weight of the edge.
    pub weight: Weight,
    /// The simulation handle of the edge.
    pub edge: EdgeId,
    /// Dense handles of the endpoints `(u, v)` with `id(u) < id(v)`.
    pub endpoints: (NodeId, NodeId),
}

/// Resolves an edge number (knowledge the endpoints hold) to the simulation
/// handle, by looking up the two endpoint IDs.
pub fn resolve_edge(net: &Network, number: EdgeNumber) -> Result<FoundEdge, CoreError> {
    let g = net.graph();
    let u = g
        .node_with_id(number.min_id())
        .ok_or_else(|| CoreError::Internal(format!("no node with ID {}", number.min_id())))?;
    let v = g
        .node_with_id(number.max_id())
        .ok_or_else(|| CoreError::Internal(format!("no node with ID {}", number.max_id())))?;
    let edge = g.edge_between(u, v).ok_or(CoreError::NoSuchEdge { u, v })?;
    Ok(FoundEdge { edge_number: number, weight: g.edge(edge).weight, edge, endpoints: (u, v) })
}

/// Seeded random views and interval families for the differential tests of
/// the interval-restricted aggregates.
#[cfg(test)]
pub(crate) mod test_views {
    use super::*;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::Graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Views of a few nodes of random graphs: small IDs, spread IDs, and
    /// IDs just below the 32-bit `id_bits` cap; narrow weight ranges (ties
    /// broken by edge number) and wide ones.
    pub(crate) fn seeded_views(seed: u64) -> Vec<NodeView> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut views = Vec::new();
        for case in 0..6u64 {
            let n = rng.gen_range(8..40);
            let ids: Vec<u64> = match case % 3 {
                0 => (1..=n as u64).collect(),
                1 => (0..n as u64).map(|i| 1 + i * 7919 + (i * i) % 13).collect(),
                _ => (0..n as u64).map(|i| u32::MAX as u64 - 5 * i).collect(),
            };
            let max_weight = if case < 3 { 6 } else { 1 << 40 };
            let mut g = Graph::with_ids(ids);
            for _ in 0..n * 5 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                g.add_edge(u, v, rng.gen_range(1..=max_weight));
            }
            let net = Network::new(g, NetworkConfig::default());
            for _ in 0..4 {
                views.push(net.view(rng.gen_range(0..n)));
            }
        }
        views
    }

    /// Intervals exercising a view: everything, raw-weight prefixes, narrow
    /// ranges and singletons around its edges, and ranges holding none of
    /// them (below, between and above its edges' augmented weights).
    pub(crate) fn intervals_for(view: &NodeView, rng: &mut StdRng) -> Vec<WeightInterval> {
        let mut aws: Vec<AugmentedWeight> =
            view.incident.iter().map(|e| augmented_weight(view, e)).collect();
        aws.sort_unstable();
        let mut out = vec![WeightInterval::everything()];
        let max_raw = view.incident.iter().map(|e| e.weight).max().unwrap_or(1);
        out.push(WeightInterval::up_to_raw(rng.gen_range(0..=max_raw), view.id_bits));
        out.push(WeightInterval::up_to_raw(max_raw, view.id_bits));
        if let (Some(&first), Some(&last)) = (aws.first(), aws.last()) {
            let pick = aws[rng.gen_range(0..aws.len())];
            out.push(WeightInterval::new(pick, pick));
            out.push(WeightInterval::new(
                pick.saturating_sub(3),
                pick + rng.gen_range(0..1u128 << 20),
            ));
            out.push(WeightInterval::new(first, last));
            out.push(WeightInterval::new(last + 1, u128::MAX));
            if first > 0 {
                out.push(WeightInterval::new(0, first - 1));
            }
            if let Some(gap) = aws.windows(2).find(|w| w[1] > w[0] + 1) {
                out.push(WeightInterval::new(gap[0] + 1, gap[1] - 1));
                out.push(WeightInterval::new(gap[0] + 1, gap[0] + 1));
            }
            let (a, b) = (rng.gen_range(first..=last), rng.gen_range(first..=last));
            out.push(WeightInterval::new(a, b));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::Graph;

    #[test]
    fn compact_key_round_trips() {
        for id_bits in [4u32, 10, 20, 32] {
            let max = (1u64 << id_bits) - 1;
            for (a, b) in [(1u64, 2u64), (3, max), (max - 1, max)] {
                let n = EdgeNumber::from_ids(a, b);
                let key = compact_key(n, id_bits);
                assert_eq!(key_to_edge_number(key, id_bits), n);
            }
        }
    }

    #[test]
    fn compact_key_order_matches_edge_number_order() {
        let ids = [1u64, 2, 5, 9, 14];
        let mut numbers = Vec::new();
        for &a in &ids {
            for &b in &ids {
                if a < b {
                    numbers.push(EdgeNumber::from_ids(a, b));
                }
            }
        }
        let mut by_number = numbers.clone();
        by_number.sort();
        let mut by_key = numbers.clone();
        by_key.sort_by_key(|n| compact_key(*n, 8));
        assert_eq!(by_number, by_key);
    }

    #[test]
    fn augmented_weight_orders_by_raw_weight_first() {
        let light = pack_weight(2, EdgeNumber::from_ids(1000, 2000), 12);
        let heavy = pack_weight(3, EdgeNumber::from_ids(1, 2), 12);
        assert!(light < heavy);
    }

    #[test]
    fn augmented_weight_matches_unique_weight_order() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 7);
        g.add_edge(2, 3, 7);
        g.add_edge(4, 5, 3);
        g.add_edge(1, 2, 9);
        let net = Network::new(g, NetworkConfig::default());
        let g = net.graph();
        let mut by_unique: Vec<_> = g.live_edges().collect();
        by_unique.sort_by_key(|&e| g.unique_weight(e));
        let mut by_aug: Vec<_> = g.live_edges().collect();
        by_aug.sort_by_key(|&e| pack_weight(g.edge(e).weight, g.edge_number(e), net.id_bits()));
        assert_eq!(by_unique, by_aug);
    }

    #[test]
    fn interval_constructors() {
        assert_eq!(WeightInterval::new(9, 3), WeightInterval { lo: 3, hi: 9 });
        let all = WeightInterval::everything();
        assert!(all.contains(0) && all.contains(u128::MAX));
        let bounded = WeightInterval::up_to_raw(7, 10);
        assert!(bounded.contains(pack_weight(7, EdgeNumber::from_ids(1, 2), 10)));
        assert!(!bounded.contains(pack_weight(8, EdgeNumber::from_ids(1, 2), 10)));
    }

    #[test]
    fn edges_in_matches_a_filtered_sorted_scan() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0xED6E);
        let mut nonempty = 0;
        for view in test_views::seeded_views(0xED6E) {
            for iv in test_views::intervals_for(&view, &mut rng) {
                let mut scan: Vec<_> = view
                    .incident
                    .iter()
                    .map(|e| (augmented_weight(&view, e), e.edge))
                    .filter(|&(aw, _)| iv.contains(aw))
                    .collect();
                scan.sort_unstable();
                let ranged: Vec<_> = edges_in(&view, &iv).map(|(aw, e)| (aw, e.edge)).collect();
                assert_eq!(ranged, scan, "interval {iv:?}");
                nonempty += usize::from(!ranged.is_empty());
            }
        }
        assert!(nonempty > 50, "the families must hit edges ({nonempty})");
    }

    #[test]
    fn parts_yields_the_pieces_of_split() {
        for iv in [
            WeightInterval::new(10, 109),
            WeightInterval::new(5, 5),
            WeightInterval::new(0, 6),
            WeightInterval::everything(),
            WeightInterval::new(u128::MAX - 10, u128::MAX),
        ] {
            for parts in [1u32, 2, 3, 7, 16, 64, 200] {
                let pieces: Vec<_> = iv.parts(parts).collect();
                assert_eq!(pieces, iv.split(parts));
                let mut it = iv.parts(parts);
                for left in (0..=pieces.len()).rev() {
                    assert_eq!(it.len(), left, "exact size");
                    it.next();
                }
                assert!(pieces.len() <= parts as usize);
                assert_eq!((pieces[0].lo, pieces.last().unwrap().hi), (iv.lo, iv.hi));
            }
        }
    }

    #[test]
    fn split_covers_exactly_without_overlap() {
        let iv = WeightInterval::new(10, 109);
        for parts in [1u32, 2, 3, 7, 10, 50, 200] {
            let pieces = iv.split(parts);
            assert!(!pieces.is_empty());
            assert_eq!(pieces[0].lo, 10);
            assert_eq!(pieces.last().unwrap().hi, 109);
            for w in pieces.windows(2) {
                assert_eq!(w[0].hi + 1, w[1].lo, "consecutive, no gap/overlap");
            }
            let total: u128 = pieces.iter().map(|p| p.width()).sum();
            assert_eq!(total, 100);
        }
    }

    #[test]
    fn split_singleton_and_tiny() {
        let iv = WeightInterval::new(5, 5);
        assert!(iv.is_singleton());
        let pieces = iv.split(8);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0], iv);
        let iv2 = WeightInterval::new(5, 6);
        assert_eq!(iv2.split(8).len(), 2);
    }

    #[test]
    fn split_huge_interval_has_requested_parts() {
        let pieces = WeightInterval::everything().split(32);
        assert_eq!(pieces.len(), 32);
        assert_eq!(pieces.last().unwrap().hi, u128::MAX);
    }

    #[test]
    fn resolve_edge_finds_endpoints_by_id() {
        let mut g = Graph::with_ids(vec![10, 20, 30]);
        let e = g.add_edge(0, 2, 5).unwrap();
        let number = g.edge_number(e);
        let net = Network::new(g, NetworkConfig::default());
        let found = resolve_edge(&net, number).unwrap();
        assert_eq!(found.edge, e);
        assert_eq!(found.weight, 5);
        assert_eq!(found.endpoints, (0, 2));
        let missing = resolve_edge(&net, EdgeNumber::from_ids(10, 20));
        assert!(matches!(missing, Err(CoreError::NoSuchEdge { .. })));
        let unknown = resolve_edge(&net, EdgeNumber::from_ids(10, 99));
        assert!(matches!(unknown, Err(CoreError::Internal(_))));
    }
}
