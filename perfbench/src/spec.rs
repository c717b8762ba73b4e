//! The named workloads: what each one generates from its seed and how it is
//! replayed. Every input is a pure function of `(workload, seed)`; the
//! library only ever sees the generated graph and trace.

use std::time::Instant;

use kkt_congest::Scheduler;
use kkt_core::{KktConfig, MaintainOptions, TreeKind};
use kkt_graphs::{Graph, ShadowOracle};
use kkt_workloads::{
    AdversarialTreeCut, MaintenancePolicy, PartitionHeal, PoissonChurn, ReplayConfig,
    ReplayHarness, Scenario, SuiteParams, Workload,
};

/// Maximum raw edge weight of every generated graph and trace.
pub const MAX_WEIGHT: u64 = 1_000;

/// Asynchronous delivery of every repair: each message is delayed by a
/// seeded random amount of at most 8 time units.
pub const SCHEDULER: Scheduler = Scheduler::RandomAsync { max_delay: 8 };

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Many small updates on a sparse network, one impromptu repair each.
    ChurnSparse,
    /// Tree-edge cuts on a dense network: every cut forces a `FindMin`.
    CutsDense,
    /// Partition and heal bursts repaired by the batched pipeline.
    BurstBatched,
    /// The quick seed fleet: 512 small replays over every MST policy.
    FleetQuick,
}

impl WorkloadKind {
    /// Every workload, in report order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::ChurnSparse,
        WorkloadKind::CutsDense,
        WorkloadKind::BurstBatched,
        WorkloadKind::FleetQuick,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ChurnSparse => "churn-sparse",
            WorkloadKind::CutsDense => "cuts-dense",
            WorkloadKind::BurstBatched => "burst-batched",
            WorkloadKind::FleetQuick => "fleet-quick",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The single-replay shape of the workload; `None` for the fleet, whose
    /// shape is `kkt_bench::fleet::FleetParams::quick`.
    pub fn replay_spec(self) -> Option<ReplaySpec> {
        match self {
            WorkloadKind::ChurnSparse => Some(ReplaySpec {
                n: 2048,
                edges_per_node: 4,
                events: 2000,
                scenario: ScenarioKind::PoissonChurn,
                policy: MaintenancePolicy::Impromptu,
            }),
            WorkloadKind::CutsDense => Some(ReplaySpec {
                n: 256,
                edges_per_node: 32,
                events: 1000,
                scenario: ScenarioKind::AdversarialTreeCut,
                policy: MaintenancePolicy::Impromptu,
            }),
            WorkloadKind::BurstBatched => Some(ReplaySpec {
                n: 1024,
                edges_per_node: 4,
                events: 4,
                scenario: ScenarioKind::PartitionHeal,
                policy: MaintenancePolicy::BatchedRepair,
            }),
            WorkloadKind::FleetQuick => None,
        }
    }
}

/// The trace generator of a replay workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// `PoissonChurn(0.5)`: half deletions of random non-bridge edges.
    PoissonChurn,
    /// `AdversarialTreeCut`: two tree-edge cuts, then one insertion.
    AdversarialTreeCut,
    /// `PartitionHeal`: cut a quarter of the network off, then heal it.
    PartitionHeal,
}

impl ScenarioKind {
    /// The generator, with the benchmark's weight range.
    pub fn generator(self) -> Box<dyn Scenario> {
        match self {
            ScenarioKind::PoissonChurn => {
                Box::new(PoissonChurn { delete_fraction: 0.5, max_weight: MAX_WEIGHT })
            }
            ScenarioKind::AdversarialTreeCut => {
                Box::new(AdversarialTreeCut { max_weight: MAX_WEIGHT })
            }
            ScenarioKind::PartitionHeal => Box::new(PartitionHeal { max_weight: MAX_WEIGHT }),
        }
    }
}

/// One replay: a base graph of `n` nodes and `edges_per_node · n` edges, a
/// trace of `events` top-level events, and the policy that repairs it.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySpec {
    /// Nodes of the base graph.
    pub n: usize,
    /// Target `m / n` of the base graph.
    pub edges_per_node: usize,
    /// Top-level events of the trace.
    pub events: usize,
    /// Trace generator.
    pub scenario: ScenarioKind,
    /// Maintenance policy.
    pub policy: MaintenancePolicy,
}

/// The options `ReplayHarness` builds its `MaintainedForest` with, so a
/// forest built with them costs exactly what the replay's build costs.
pub fn options_of(harness: &ReplayHarness) -> MaintainOptions {
    MaintainOptions {
        config: KktConfig::default(),
        build_scheduler: Scheduler::Synchronous,
        repair_scheduler: harness.config.scheduler,
        seed: harness.config.seed,
        queue: harness.config.queue,
    }
}

/// Generated inputs of one replay, with the host time of each setup step
/// (the shadow oracle the set-up opens is timed, then dropped).
pub struct Setup {
    /// The base graph.
    pub base: Graph,
    /// The trace.
    pub workload: Workload,
    /// Seconds spent generating the base graph.
    pub base_graph_s: f64,
    /// Seconds spent generating the trace.
    pub generate_s: f64,
    /// Seconds spent in `ShadowOracle::new`.
    pub oracle_new_s: f64,
}

impl Setup {
    /// Total setup seconds.
    pub fn total_s(&self) -> f64 {
        self.base_graph_s + self.generate_s + self.oracle_new_s
    }
}

impl ReplaySpec {
    /// The suite parameters whose base-graph generator this workload uses.
    pub fn suite(&self, seed: u64) -> SuiteParams {
        SuiteParams {
            n: self.n,
            m: self.edges_per_node * self.n,
            max_weight: MAX_WEIGHT,
            events: self.events,
            seed,
            kind: TreeKind::Mst,
            scheduler: SCHEDULER,
            verify_every: 1,
        }
    }

    /// The replay harness: MST, async repairs, a checkpoint after every event.
    pub fn harness(&self, seed: u64) -> ReplayHarness {
        ReplayHarness::new(ReplayConfig {
            kind: TreeKind::Mst,
            scheduler: SCHEDULER,
            verify_every: 1,
            seed,
            ..ReplayConfig::default()
        })
    }

    /// The options of the replay's `MaintainedForest`.
    pub fn maintain_options(&self, seed: u64) -> MaintainOptions {
        options_of(&self.harness(seed))
    }

    /// Generates the base graph and trace and opens a shadow oracle, timing
    /// each step.
    pub fn setup(&self, seed: u64) -> Setup {
        let t = Instant::now();
        let base = self.suite(seed).base_graph();
        let base_graph_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let workload = self.scenario.generator().generate(&base, self.events, seed);
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(ShadowOracle::new(&base));
        let oracle_new_s = t.elapsed().as_secs_f64();
        Setup { base, workload, base_graph_s, generate_s, oracle_new_s }
    }
}
