//! `FindMin` — find the minimum-weight edge leaving a tree in
//! `O(log n / log log n)` expected broadcast-and-echoes (§3.1 of the paper).
//!
//! The search narrows an interval of (distinct, augmented) edge weights. One
//! word-parallel `TestOut` tests `w = Θ(log n)` sub-intervals at once: the
//! same odd hash function serves every sub-interval and the `w` one-bit
//! echoes come back packed in a single word. The lowest sub-interval that
//! reports odd parity certainly contains a cut edge (TestOut has no false
//! positives); before narrowing to it, two `HP-TestOut`s verify w.h.p. that
//! (a) no cut edge lies below it and (b) it really contains a cut edge.
//! Each narrowing divides the interval length by `w`, so
//! `log(maxWt)/log w = O(log n / log log n)` successful narrowings suffice,
//! and each succeeds with constant probability `q = 1/8`.
//!
//! `FindMin` retries until the w.h.p. budget is exhausted; `FindMin-C` uses a
//! budget of twice the expectation, so its *worst case* matches `FindMin`'s
//! expected cost at the price of a constant failure probability (Lemma 2).
//!
//! This module holds the entry points and their outcome types. After the
//! statistics wave, the search itself is the `MinSearch` state machine of
//! `crate::search`, the same one the batched repair pipeline drives
//! concurrently over many fragments; the entry points here drive it over one
//! tree with their own budget.

use kkt_congest::broadcast_echo::{run_broadcast_echo, TreeStats};
use kkt_congest::{Histogram, Network, Phase};
use kkt_graphs::NodeId;
use rand::Rng;

use crate::config::KktConfig;
use crate::error::CoreError;
use crate::search::{MinSearch, Search, SearchVerdict};
use crate::weights::{resolve_edge, FoundEdge};

/// Outcome of a [`find_min`] / [`find_min_c`] call, distinguishing "there is
/// certainly no leaving edge" from "the bounded variant gave up".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindMinOutcome {
    /// The lightest edge leaving the tree.
    Found(FoundEdge),
    /// No edge leaves the tree (verified w.h.p. by HP-TestOut).
    NoLeavingEdge,
    /// The retry budget ran out before the search converged (possible for
    /// `FindMin-C` with constant probability; possible for `FindMin` only
    /// with probability `n^{-c}`).
    BudgetExhausted,
}

impl FindMinOutcome {
    /// The found edge, if any.
    pub fn edge(&self) -> Option<FoundEdge> {
        match self {
            FindMinOutcome::Found(e) => Some(*e),
            _ => None,
        }
    }
}

/// Number of search iterations (word-parallel TestOut rounds) used, exposed
/// for the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FindMinTrace {
    /// Iterations of the narrow loop.
    pub iterations: u32,
    /// Successful narrowings.
    pub narrowings: u32,
}

/// The statistics wave, then the stepping [`MinSearch`] with at most `budget`
/// iterations. Only this sequential path observes the
/// `findmin_narrowing_iterations` histogram.
fn find_min_impl<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    budget: u32,
    config: &KktConfig,
    rng: &mut R,
) -> Result<(FindMinOutcome, FindMinTrace), CoreError> {
    // The whole narrowing search — statistics wave, TestOut iterations,
    // identification — bills to one phase; attribution only, costs unchanged.
    net.span(Phase::FindMinNarrow, |net| {
        // Step 2: learn maxWt(T) (and the degree sum) in one broadcast-and-echo.
        let stats = run_broadcast_echo(net, root, TreeStats)?;
        let (n, id_bits) = (net.node_count(), net.id_bits());
        let mut search = MinSearch::new(&stats, n, id_bits, budget, config);
        let outcome = match search.run(net, root, rng)? {
            SearchVerdict::Found(number) => FindMinOutcome::Found(resolve_edge(net, number)?),
            SearchVerdict::NoLeavingEdge => FindMinOutcome::NoLeavingEdge,
            SearchVerdict::GaveUp => FindMinOutcome::BudgetExhausted,
        };
        let trace = search.trace();
        if let Some(metrics) = net.metrics_mut() {
            let bounds = Histogram::pow2_bounds(10);
            metrics.observe("findmin_narrowing_iterations", &bounds, u64::from(trace.iterations));
        }
        Ok((outcome, trace))
    })
}

/// `FindMin(x)`: the lightest edge leaving the marked tree containing `root`,
/// w.h.p., in `O(log n / log log n)` expected broadcast-and-echoes
/// (`O(|T|·log n / log log n)` expected messages).
pub fn find_min<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    config: &KktConfig,
    rng: &mut R,
) -> Result<FindMinOutcome, CoreError> {
    let bits = weight_bits(net);
    let budget = config.findmin_budget(net.node_count(), bits);
    find_min_impl(net, root, budget, config, rng).map(|(o, _)| o)
}

/// `FindMin-C(x)`: like `FindMin` but with the loop capped at twice its
/// expected length, so the worst-case message count is
/// `O(|T|·log n / log log n)`. Returns the lightest edge with constant
/// probability; with probability `1 - n^{-c}` it returns either the lightest
/// edge or gives up (never a wrong edge).
pub fn find_min_c<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    config: &KktConfig,
    rng: &mut R,
) -> Result<FindMinOutcome, CoreError> {
    let bits = weight_bits(net);
    let budget = config.findmin_c_budget(net.node_count(), bits);
    find_min_impl(net, root, budget, config, rng).map(|(o, _)| o)
}

/// Like [`find_min`], additionally reporting how many search iterations were
/// used (consumed by experiment E6).
pub fn find_min_traced<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    config: &KktConfig,
    rng: &mut R,
) -> Result<(FindMinOutcome, FindMinTrace), CoreError> {
    let bits = weight_bits(net);
    let budget = config.findmin_budget(net.node_count(), bits);
    find_min_impl(net, root, budget, config, rng)
}

/// Number of bits of the augmented-weight universe for this network (raw
/// weight bits + 64 tie-break bits), used to size retry budgets.
pub(crate) fn weight_bits(net: &Network) -> u32 {
    let raw_bits = 64 - net.graph().max_weight().leading_zeros();
    raw_bits + 2 * net.id_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::{generators, kruskal, mst, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> KktConfig {
        KktConfig::default()
    }

    /// Oracle: the true minimum-unique-weight edge leaving the fragment of `root`.
    fn oracle_min(net: &Network, root: NodeId) -> Option<kkt_graphs::EdgeId> {
        let side = net.forest().tree_membership(net.graph(), root);
        mst::min_cut_edge(net.graph(), &side)
    }

    fn partial_network(n: usize, p: f64, marked: usize, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_gnp(n, p, 100, &mut rng);
        let t = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&t.edges[..marked.min(t.edges.len())]);
        net
    }

    #[test]
    fn finds_the_true_minimum_cut_edge() {
        for seed in 0..10 {
            let mut net = partial_network(24, 0.25, 11, seed);
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let expected = oracle_min(&net, 0).expect("partial fragment has leaving edges");
            let outcome = find_min(&mut net, 0, &cfg(), &mut rng).unwrap();
            let found = outcome.edge().expect("FindMin must find the edge w.h.p.");
            assert_eq!(found.edge, expected, "seed {seed}");
        }
    }

    #[test]
    fn spanning_tree_reports_no_leaving_edge() {
        let mut net = partial_network(20, 0.2, usize::MAX, 3);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(find_min(&mut net, 0, &cfg(), &mut rng).unwrap(), FindMinOutcome::NoLeavingEdge);
        assert_eq!(
            find_min_c(&mut net, 0, &cfg(), &mut rng).unwrap(),
            FindMinOutcome::NoLeavingEdge
        );
    }

    #[test]
    fn isolated_node_reports_no_leaving_edge() {
        let mut g = Graph::new(4);
        g.add_edge(1, 2, 5);
        g.add_edge(2, 3, 6);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(find_min(&mut net, 0, &cfg(), &mut rng).unwrap(), FindMinOutcome::NoLeavingEdge);
    }

    #[test]
    fn singleton_fragment_picks_its_lightest_incident_edge() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 9);
        g.add_edge(0, 2, 3);
        g.add_edge(0, 3, 7);
        g.add_edge(3, 4, 1);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let found = find_min(&mut net, 0, &cfg(), &mut rng).unwrap().edge().unwrap();
        assert_eq!(found.weight, 3);
        assert_eq!(found.endpoints, (0, 2));
    }

    #[test]
    fn tie_broken_consistently_with_oracle() {
        // All edges share the same raw weight; the tie-break (edge key) must
        // agree with the sequential oracle's unique-weight order.
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(16, 0.3, 1, &mut rng);
            let t = kruskal(&g);
            let mut net = Network::new(g, NetworkConfig::default());
            net.mark_all(&t.edges[..6]);
            let expected = oracle_min(&net, 0).unwrap();
            let found = find_min(&mut net, 0, &cfg(), &mut rng).unwrap().edge().unwrap();
            assert_eq!(found.edge, expected, "seed {seed}");
        }
    }

    #[test]
    fn find_min_c_never_returns_a_wrong_edge() {
        let mut net = partial_network(20, 0.3, 9, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let expected = oracle_min(&net, 0).unwrap();
        let mut found_count = 0;
        for _ in 0..40 {
            match find_min_c(&mut net, 0, &cfg(), &mut rng).unwrap() {
                FindMinOutcome::Found(f) => {
                    assert_eq!(f.edge, expected);
                    found_count += 1;
                }
                FindMinOutcome::BudgetExhausted => {}
                FindMinOutcome::NoLeavingEdge => {
                    panic!("the fragment certainly has leaving edges")
                }
            }
        }
        assert!(found_count > 10, "FindMin-C should usually succeed, got {found_count}/40");
    }

    #[test]
    fn broadcast_echo_count_scales_like_log_over_loglog() {
        // The iteration count (and hence broadcast-and-echo count) should stay
        // around lg(maxWt)/lg w plus constant retries — far below lg(maxWt).
        let mut net = partial_network(64, 0.1, 30, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let (outcome, trace) = find_min_traced(&mut net, 0, &cfg(), &mut rng).unwrap();
        assert!(outcome.edge().is_some());
        let w = cfg().effective_word_width(64) as f64;
        let expected_narrowings = (weight_bits(&net) as f64 / w.log2()).ceil();
        assert!(
            (trace.narrowings as f64) <= expected_narrowings + 2.0,
            "narrowings {} vs expected ~{}",
            trace.narrowings,
            expected_narrowings
        );
        assert!(trace.iterations <= 8 * trace.narrowings.max(1));
    }

    #[test]
    fn an_exhausted_budget_reports_exactly_the_budget() {
        // The fragment needs several narrowings, so budgets of 1 and 2 run out.
        let mut net = partial_network(64, 0.1, 30, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let (_, full) = find_min_traced(&mut net, 0, &cfg(), &mut rng).unwrap();
        assert!(full.narrowings > 2, "{full:?}");
        for budget in [1, 2] {
            net.enable_metrics();
            let (outcome, trace) = find_min_impl(&mut net, 0, budget, &cfg(), &mut rng).unwrap();
            assert_eq!(outcome, FindMinOutcome::BudgetExhausted);
            assert_eq!(trace.iterations, budget);
            let metrics = net.take_metrics().unwrap();
            let iterations = metrics.histogram("findmin_narrowing_iterations").unwrap();
            assert_eq!((iterations.count(), iterations.sum()), (1, u64::from(budget)));
        }
    }

    #[test]
    fn messages_are_proportional_to_fragment_size() {
        let mut net = partial_network(50, 0.3, 6, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let root = net.graph().edge(net.forest().edges()[0]).u;
        let fragment = net.forest().tree_of(net.graph(), root).len() as u64;
        let before = net.cost();
        find_min(&mut net, root, &cfg(), &mut rng).unwrap();
        let delta = net.cost() - before;
        assert_eq!(delta.messages, delta.broadcast_echoes * 2 * (fragment - 1));
    }

    #[test]
    fn works_under_asynchronous_delivery() {
        let mut net = partial_network(24, 0.25, 11, 13);
        net.set_config(NetworkConfig::asynchronous(3, 9));
        let mut rng = StdRng::seed_from_u64(14);
        let expected = oracle_min(&net, 0).unwrap();
        let found = find_min(&mut net, 0, &cfg(), &mut rng).unwrap().edge().unwrap();
        assert_eq!(found.edge, expected);
    }
}
