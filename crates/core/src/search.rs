//! The stepping `FindMin` (§3.1) and `FindAny` (§4.1) searches — the one
//! definition every caller runs.
//!
//! A search is a state machine over broadcast-and-echo *probes*:
//! [`Search::start`] yields its first probe and [`Search::absorb`] consumes
//! each reply and yields the next probe, until the search breaks with a
//! [`SearchVerdict`]. Each step draws its coins from the `rng` it is handed,
//! so the coin stream is a function of the search alone, not of the driver.
//! Two drivers exist:
//!
//! * [`Search::run`] drives one search over one tree, each probe through its
//!   own aggregate. `find_min` / `find_min_c` (hence `build_mst`), `find_any`
//!   / `find_any_c` (hence `build_st`) and the sequential impromptu repairs
//!   run this.
//! * [`run_concurrently`] drives many searches over vertex-disjoint fragments,
//!   one wave at a time: every unfinished search's next probe shares one
//!   engine pass through [`ProbeAggregate`], so fragments at *different*
//!   steps advance together. The batched repair pipeline (`crate::batch`)
//!   runs this.
//!
//! Both drivers issue the same probes with the same payloads; the concurrent
//! wire format only adds a [`PROBE_TAG_BITS`]-bit tag to every message so a
//! node knows which step a payload belongs to.

use std::ops::ControlFlow;

use rand::rngs::StdRng;
use rand::Rng;

use kkt_congest::broadcast_echo::{
    run_broadcast_echo, run_broadcast_echoes, TreeAggregate, TreeStatsOutput,
};
use kkt_congest::{BitSized, Network, NodeView};
use kkt_graphs::{EdgeNumber, NodeId};
use kkt_hashing::PairwiseHash;

use crate::config::KktConfig;
use crate::error::CoreError;
use crate::find_any::{
    IsolateDown, IsolateKeys, PrefixDown, PrefixParity, VerifyCandidate, VerifyDown, VerifyUp,
};
use crate::find_min::FindMinTrace;
use crate::hp_test_out::{HpAggregate, HpDown, HpUp, HP_PRIME};
use crate::test_out::{TestOutAggregate, TestOutDown, WideTestOut};
use crate::weights::WeightInterval;

// ---------------------------------------------------------------------------
// Probes: one wire type for every search step
// ---------------------------------------------------------------------------

/// A search step broadcast by a tree root. One enum covers every
/// broadcast-and-echo the `FindMin` / `FindAny` searches issue.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ProbeDown {
    /// Word-parallel TestOut over sub-intervals (`FindMin` narrowing).
    Wide(TestOutDown),
    /// HP-TestOut emptiness / verification probe.
    Hp(HpDown),
    /// `FindAny` prefix-parity sampling.
    Prefix(PrefixDown),
    /// `FindAny` key isolation at a chosen level.
    Isolate(IsolateDown),
    /// Candidate-edge verification (the final step of both searches).
    Verify(VerifyDown),
}

/// Bits of the step tag [`ProbeAggregate`] adds to every message.
const PROBE_TAG_BITS: usize = 3;

impl BitSized for ProbeDown {
    fn bit_size(&self) -> usize {
        PROBE_TAG_BITS
            + match self {
                ProbeDown::Wide(d) => d.bit_size(),
                ProbeDown::Hp(d) => d.bit_size(),
                ProbeDown::Prefix(d) => d.bit_size(),
                ProbeDown::Isolate(d) => d.bit_size(),
                ProbeDown::Verify(d) => d.bit_size(),
            }
    }
}

/// The echo of a [`ProbeDown`]. Wide/prefix/isolate probes all echo one
/// XOR-combined word.
#[derive(Debug, Clone, Copy)]
enum ProbeUp {
    Word(u64),
    Hp(HpUp),
    Verify(VerifyUp),
}

impl BitSized for ProbeUp {
    fn bit_size(&self) -> usize {
        PROBE_TAG_BITS
            + match self {
                ProbeUp::Word(w) => w.bit_size(),
                ProbeUp::Hp(u) => u.bit_size(),
                ProbeUp::Verify(u) => u.bit_size(),
            }
    }
}

/// The root's decoded result of one probe.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ProbeOutput {
    Word(u64),
    Flag(bool),
    Candidate(Option<(EdgeNumber, u64, u64)>),
}

impl ProbeDown {
    /// Runs this probe as one broadcast-and-echo of its own aggregate (no
    /// step tag on the wire).
    fn run(self, net: &mut Network, root: NodeId) -> Result<ProbeOutput, CoreError> {
        Ok(match self {
            ProbeDown::Wide(down) => {
                ProbeOutput::Word(run_broadcast_echo(net, root, TestOutAggregate { down })?)
            }
            ProbeDown::Hp(down) => {
                ProbeOutput::Flag(run_broadcast_echo(net, root, HpAggregate { down })?)
            }
            ProbeDown::Prefix(down) => {
                ProbeOutput::Word(run_broadcast_echo(net, root, PrefixParity { down })?)
            }
            ProbeDown::Isolate(down) => {
                ProbeOutput::Word(run_broadcast_echo(net, root, IsolateKeys { down })?)
            }
            ProbeDown::Verify(down) => {
                ProbeOutput::Candidate(run_broadcast_echo(net, root, VerifyCandidate { down })?)
            }
        })
    }
}

/// The aggregate driving one tagged probe. Each root carries its *own*
/// request; every other node acts purely on the broadcast payload (the
/// accounting-honesty contract of [`TreeAggregate`]), which is what lets
/// fragments with different requests share one engine pass.
#[derive(Debug, Clone, Copy)]
struct ProbeAggregate {
    request: ProbeDown,
}

impl TreeAggregate for ProbeAggregate {
    type Down = ProbeDown;
    type Up = ProbeUp;
    type Output = ProbeOutput;

    fn root_payload(&self, _root_view: &NodeView) -> ProbeDown {
        self.request
    }

    fn local(&self, view: &NodeView, down: &ProbeDown) -> ProbeUp {
        match *down {
            ProbeDown::Wide(d) => ProbeUp::Word(TestOutAggregate { down: d }.local(view, &d)),
            ProbeDown::Hp(d) => ProbeUp::Hp(HpAggregate { down: d }.local(view, &d)),
            ProbeDown::Prefix(d) => ProbeUp::Word(PrefixParity { down: d }.local(view, &d)),
            ProbeDown::Isolate(d) => ProbeUp::Word(IsolateKeys { down: d }.local(view, &d)),
            ProbeDown::Verify(d) => ProbeUp::Verify(VerifyCandidate { down: d }.local(view, &d)),
        }
    }

    fn combine(&self, view: &NodeView, acc: ProbeUp, child: ProbeUp) -> ProbeUp {
        // The combines read no payload, so any instance of each aggregate
        // serves.
        let any = WeightInterval::everything();
        match (acc, child) {
            (ProbeUp::Word(a), ProbeUp::Word(b)) => ProbeUp::Word(a ^ b),
            (ProbeUp::Hp(a), ProbeUp::Hp(b)) => {
                let hp = HpAggregate { down: HpDown { alpha: 0, interval: any } };
                ProbeUp::Hp(hp.combine(view, a, b))
            }
            (ProbeUp::Verify(a), ProbeUp::Verify(b)) => {
                let verify = VerifyCandidate { down: VerifyDown { key: 0, interval: any } };
                ProbeUp::Verify(verify.combine(view, a, b))
            }
            // Echo kinds cannot mix inside one tree: each fragment runs
            // exactly one probe per wave and fragments are vertex-disjoint.
            _ => unreachable!("mismatched probe echoes within one fragment"),
        }
    }

    fn finish(&self, root_view: &NodeView, down: &ProbeDown, total: ProbeUp) -> ProbeOutput {
        match (*down, total) {
            (
                ProbeDown::Wide(_) | ProbeDown::Prefix(_) | ProbeDown::Isolate(_),
                ProbeUp::Word(w),
            ) => ProbeOutput::Word(w),
            (ProbeDown::Hp(d), ProbeUp::Hp(u)) => {
                ProbeOutput::Flag(HpAggregate { down: d }.finish(root_view, &d, u))
            }
            (ProbeDown::Verify(d), ProbeUp::Verify(u)) => {
                ProbeOutput::Candidate(VerifyCandidate { down: d }.finish(root_view, &d, u))
            }
            _ => unreachable!("probe echo kind does not match its request"),
        }
    }
}

// ---------------------------------------------------------------------------
// The searches
// ---------------------------------------------------------------------------

/// What a finished search concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SearchVerdict {
    /// No edge leaves the tree (verified w.h.p. by HP-TestOut).
    NoLeavingEdge,
    /// The retry budget ran out.
    GaveUp,
    /// A leaving edge was identified by its edge number.
    Found(EdgeNumber),
}

/// The next probe to run, or the verdict.
pub(crate) type Step = ControlFlow<SearchVerdict, ProbeDown>;

/// A search as a state machine over probes.
pub(crate) trait Search {
    /// The first probe (or an immediate verdict).
    fn start<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Step;

    /// Consumes the reply to the last probe and yields the next step.
    fn absorb<R: Rng + ?Sized>(&mut self, reply: ProbeOutput, rng: &mut R) -> Step;

    /// Drives the search to its verdict over the tree containing `root`,
    /// one broadcast-and-echo per probe.
    fn run<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        root: NodeId,
        rng: &mut R,
    ) -> Result<SearchVerdict, CoreError> {
        let mut step = self.start(rng);
        loop {
            match step {
                ControlFlow::Continue(probe) => step = self.absorb(probe.run(net, root)?, rng),
                ControlFlow::Break(verdict) => return Ok(verdict),
            }
        }
    }
}

/// Drives searches over vertex-disjoint trees to their verdicts (in input
/// order). Each wave runs the next probe of every unfinished search in one
/// concurrent engine pass, so the makespan is the slowest search's, not the
/// sum; each search draws its coins from its own generator.
pub(crate) fn run_concurrently<S: Search>(
    net: &mut Network,
    mut searches: Vec<(NodeId, S, StdRng)>,
) -> Result<Vec<SearchVerdict>, CoreError> {
    let mut steps: Vec<Step> = searches.iter_mut().map(|(_, s, rng)| s.start(rng)).collect();
    loop {
        let wave: Vec<(usize, ProbeDown)> = steps
            .iter()
            .enumerate()
            .filter_map(|(i, step)| step.continue_value().map(|probe| (i, probe)))
            .collect();
        if wave.is_empty() {
            break;
        }
        let runs =
            wave.iter().map(|&(i, request)| (searches[i].0, ProbeAggregate { request })).collect();
        let replies = run_broadcast_echoes(net, runs)?;
        for ((i, _), reply) in wave.into_iter().zip(replies) {
            let (_, search, rng) = &mut searches[i];
            steps[i] = search.absorb(reply, rng);
        }
    }
    Ok(steps.into_iter().filter_map(ControlFlow::break_value).collect())
}

/// `FindMin` from step 3 on: narrow the weight interval with word-parallel
/// TestOut, verify each narrowing with HP-TestOut, identify the singleton.
#[derive(Debug)]
pub(crate) struct MinSearch {
    has_edges: bool,
    interval: WeightInterval,
    buckets: u32,
    repeats: u32,
    id_bits: u32,
    budget: u32,
    trace: FindMinTrace,
    awaiting: MinStep,
}

/// The probe a [`MinSearch`] is waiting on.
#[derive(Debug, Clone, Copy)]
enum MinStep {
    /// The word-parallel TestOut of an iteration.
    Wide,
    /// HP-TestOut: does any cut edge lie in the interval at all?
    Empty,
    /// HP-TestOut: does a cut edge lie below the flagged sub-interval?
    Lighter(WeightInterval),
    /// HP-TestOut: does the flagged sub-interval really hold a cut edge?
    Holds(WeightInterval),
    /// Retrieval of the singleton's full edge number.
    Identify,
}

impl MinSearch {
    /// Seeds a search from the tree's [`TreeStatsOutput`] (step 2: `maxWt`
    /// and the degree sum), allowing at most `budget` narrowing iterations.
    pub(crate) fn new(
        stats: &TreeStatsOutput,
        n: usize,
        id_bits: u32,
        budget: u32,
        config: &KktConfig,
    ) -> MinSearch {
        let repeats = config.testout_repeats.clamp(1, 64);
        MinSearch {
            has_edges: stats.degree_sum > 0,
            interval: WeightInterval::up_to_raw(stats.max_weight, id_bits),
            buckets: config.effective_word_width(n).clamp(1, 64 / repeats),
            repeats,
            id_bits,
            budget: budget.max(1),
            trace: FindMinTrace::default(),
            awaiting: MinStep::Wide,
        }
    }

    /// Iterations and successful narrowings so far.
    pub(crate) fn trace(&self) -> FindMinTrace {
        self.trace
    }

    /// Opens the next iteration, unless the budget is spent.
    fn narrow<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Step {
        if self.trace.iterations == self.budget {
            return ControlFlow::Break(SearchVerdict::GaveUp);
        }
        self.trace.iterations += 1;
        self.awaiting = MinStep::Wide;
        ControlFlow::Continue(ProbeDown::Wide(TestOutDown {
            seed: rng.gen(),
            interval: self.interval,
            buckets: self.buckets,
            repeats: self.repeats,
        }))
    }

    /// An HP-TestOut over `interval`, awaited as `awaiting`.
    fn hp<R: Rng + ?Sized>(
        &mut self,
        awaiting: MinStep,
        interval: WeightInterval,
        rng: &mut R,
    ) -> Step {
        self.awaiting = awaiting;
        ControlFlow::Continue(ProbeDown::Hp(HpDown { alpha: rng.gen_range(0..HP_PRIME), interval }))
    }
}

impl Search for MinSearch {
    fn start<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Step {
        if !self.has_edges {
            // No incident edges at all: certainly nothing leaves the tree.
            return ControlFlow::Break(SearchVerdict::NoLeavingEdge);
        }
        self.narrow(rng)
    }

    fn absorb<R: Rng + ?Sized>(&mut self, reply: ProbeOutput, rng: &mut R) -> Step {
        match (self.awaiting, reply) {
            (MinStep::Wide, ProbeOutput::Word(word)) => {
                let wide = WideTestOut {
                    word,
                    repeats: self.repeats,
                    subintervals: self.interval.split(self.buckets),
                };
                match wide.min_positive() {
                    // Nothing detected: either the cut (within the interval)
                    // is empty, or TestOut missed. Resolve w.h.p.
                    None => self.hp(MinStep::Empty, self.interval, rng),
                    Some(i) => {
                        let sub = wide.subintervals[i];
                        if sub.lo > self.interval.lo {
                            // TestOut may have missed a lighter cut edge.
                            let below = WeightInterval::new(self.interval.lo, sub.lo - 1);
                            self.hp(MinStep::Lighter(sub), below, rng)
                        } else {
                            self.hp(MinStep::Holds(sub), sub, rng)
                        }
                    }
                }
            }
            (MinStep::Empty, ProbeOutput::Flag(false)) => {
                ControlFlow::Break(SearchVerdict::NoLeavingEdge)
            }
            (MinStep::Lighter(sub), ProbeOutput::Flag(false)) => {
                self.hp(MinStep::Holds(sub), sub, rng)
            }
            (MinStep::Holds(sub), ProbeOutput::Flag(true)) => {
                self.interval = sub;
                self.trace.narrowings += 1;
                if !sub.is_singleton() {
                    return self.narrow(rng);
                }
                // The interval is a single augmented weight: one more wave
                // retrieves the full edge number from the endpoint owning it.
                let key = (sub.lo & ((1u128 << (2 * self.id_bits.clamp(1, 32))) - 1)) as u64;
                self.awaiting = MinStep::Identify;
                ControlFlow::Continue(ProbeDown::Verify(VerifyDown { key, interval: sub }))
            }
            (MinStep::Empty | MinStep::Lighter(_) | MinStep::Holds(_), ProbeOutput::Flag(_)) => {
                self.narrow(rng)
            }
            (MinStep::Identify, ProbeOutput::Candidate(candidate)) => {
                ControlFlow::Break(match candidate {
                    Some((number, _weight, 1)) => SearchVerdict::Found(number),
                    _ => SearchVerdict::GaveUp,
                })
            }
            _ => unreachable!("probe reply does not match the awaited step"),
        }
    }
}

/// `FindAny`: an HP-TestOut emptiness check, then up to `attempts`
/// isolation attempts (prefix parities, key isolation, verification).
#[derive(Debug)]
pub(crate) struct AnySearch {
    interval: WeightInterval,
    range: u64,
    attempts: u32,
    attempt: u32,
    awaiting: AnyStep,
}

/// The probe an [`AnySearch`] is waiting on.
#[derive(Debug, Clone, Copy)]
enum AnyStep {
    Empty,
    Prefix(PrefixDown),
    Isolate,
    Verify,
}

impl AnySearch {
    /// A search for an edge leaving the tree with augmented weight in
    /// `interval`, in a network of `n` nodes.
    pub(crate) fn new(n: usize, interval: WeightInterval, attempts: u32) -> AnySearch {
        // The pairwise hash range must exceed the sum of tree degrees; that
        // sum is below n², which every node knows (KT1), so no extra
        // broadcast-and-echo is needed to size the hash.
        let n = n as u64;
        let degree_bound = n.saturating_mul(n.saturating_sub(1)).max(2);
        AnySearch {
            interval,
            range: (2 * degree_bound).next_power_of_two(),
            attempts: attempts.max(1),
            attempt: 0,
            awaiting: AnyStep::Empty,
        }
    }

    /// Opens the next isolation attempt, unless the budget is spent.
    fn attempt<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Step {
        if self.attempt == self.attempts {
            return ControlFlow::Break(SearchVerdict::GaveUp);
        }
        self.attempt += 1;
        // Each attempt spends its first two coins on a `PairwiseHash` whose
        // coefficients the payload does not use; the coin stream (and with
        // it every pinned cost) depends on those draws.
        let _ = PairwiseHash::random(self.range, rng);
        let down = PrefixDown {
            a: rng.gen::<u64>() | 1,
            b: rng.gen(),
            range: self.range,
            interval: self.interval,
        };
        self.awaiting = AnyStep::Prefix(down);
        ControlFlow::Continue(ProbeDown::Prefix(down))
    }
}

impl Search for AnySearch {
    fn start<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Step {
        // Step 2: w.h.p. emptiness check; "∅" answers are then always correct.
        let alpha = rng.gen_range(0..HP_PRIME);
        ControlFlow::Continue(ProbeDown::Hp(HpDown { alpha, interval: self.interval }))
    }

    fn absorb<R: Rng + ?Sized>(&mut self, reply: ProbeOutput, rng: &mut R) -> Step {
        match (self.awaiting, reply) {
            (AnyStep::Empty, ProbeOutput::Flag(false)) => {
                ControlFlow::Break(SearchVerdict::NoLeavingEdge)
            }
            // The lowest level with odd parity; isolate the keys below it.
            (AnyStep::Prefix(prefix), ProbeOutput::Word(word)) if word != 0 => {
                self.awaiting = AnyStep::Isolate;
                let level = word.trailing_zeros();
                ControlFlow::Continue(ProbeDown::Isolate(IsolateDown { prefix, level }))
            }
            // A candidate key; count the tree endpoints that recognise it.
            (AnyStep::Isolate, ProbeOutput::Word(key)) if key != 0 => {
                self.awaiting = AnyStep::Verify;
                ControlFlow::Continue(ProbeDown::Verify(VerifyDown {
                    key,
                    interval: self.interval,
                }))
            }
            (AnyStep::Verify, ProbeOutput::Candidate(Some((number, _weight, 1)))) => {
                ControlFlow::Break(SearchVerdict::Found(number))
            }
            // A non-empty cut, or a failed attempt: try (again).
            (AnyStep::Empty, ProbeOutput::Flag(true))
            | (AnyStep::Prefix(_) | AnyStep::Isolate, ProbeOutput::Word(_))
            | (AnyStep::Verify, ProbeOutput::Candidate(_)) => self.attempt(rng),
            _ => unreachable!("probe reply does not match the awaited step"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_min::weight_bits;
    use kkt_congest::broadcast_echo::TreeStats;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::{generators, kruskal};
    use rand::SeedableRng;

    /// A network with most of its MST marked, so node 0's fragment has many
    /// leaving edges.
    fn fragment_network(config: NetworkConfig) -> Network {
        let mut rng = StdRng::seed_from_u64(31);
        let g = generators::connected_gnp(40, 0.2, 1000, &mut rng);
        let t = kruskal(&g);
        let mut net = Network::new(g, config);
        net.mark_all(&t.edges[..30]);
        net
    }

    /// Drives the search `make` builds through [`Search::run`] and through
    /// [`run_concurrently`] on fresh copies of the same fragment, under both
    /// schedulers and several coin seeds: the verdict, the probe count, the
    /// messages and the time agree, and the tagged wire format costs exactly
    /// [`PROBE_TAG_BITS`] more per message.
    fn assert_drivers_agree<S: Search>(make: impl Fn(&mut Network) -> S) {
        for config in [NetworkConfig::synchronous(5), NetworkConfig::asynchronous(5, 9)] {
            for seed in 0..4 {
                let mut runs = Vec::new();
                for concurrent in [false, true] {
                    let mut net = fragment_network(config);
                    let mut search = make(&mut net);
                    let before = net.cost();
                    let mut coins = StdRng::seed_from_u64(seed);
                    let verdict = if concurrent {
                        run_concurrently(&mut net, vec![(0, search, coins)]).unwrap()[0]
                    } else {
                        search.run(&mut net, 0, &mut coins).unwrap()
                    };
                    runs.push((verdict, net.cost() - before));
                }
                let ((verdict, single), (tagged_verdict, tagged)) = (runs[0], runs[1]);
                assert!(matches!(verdict, SearchVerdict::Found(_)), "seed {seed}: {verdict:?}");
                assert_eq!(verdict, tagged_verdict, "seed {seed}");
                assert!(single.messages > 0);
                assert_eq!(single.broadcast_echoes, tagged.broadcast_echoes, "probe count");
                assert_eq!(single.messages, tagged.messages, "seed {seed}");
                assert_eq!(single.time, tagged.time, "seed {seed}");
                assert_eq!(tagged.bits - single.bits, PROBE_TAG_BITS as u64 * single.messages);
            }
        }
    }

    #[test]
    fn min_search_drivers_agree() {
        let config = KktConfig::default();
        assert_drivers_agree(|net| {
            let stats = run_broadcast_echo(net, 0, TreeStats).unwrap();
            let n = net.node_count();
            let budget = config.findmin_budget(n, weight_bits(net));
            MinSearch::new(&stats, n, net.id_bits(), budget, &config)
        });
    }

    #[test]
    fn any_search_drivers_agree() {
        let config = KktConfig::default();
        assert_drivers_agree(|net| {
            let n = net.node_count();
            AnySearch::new(n, WeightInterval::everything(), config.findany_budget(n))
        });
    }
}
