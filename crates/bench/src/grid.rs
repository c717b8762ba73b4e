//! The grid runner: one (rung × scenario × policy × seed) replay per cell,
//! for every replay experiment.
//!
//! A [`GridSpec`] names the grid; [`run_grid`] shards its cells across
//! [`run_fleet`] workers and merges them in grid order into one sealed
//! [`GridReport`], byte-identical for any thread count. The exp9–exp14
//! experiments are presets over this runner, and the exp16 seed fleet lowers
//! its grid onto [`run_cells`] before aggregating distributions.
//!
//! Every cell is replayed with the phase-attributing observer installed, and
//! the runner asserts that each cell's phase ledger conserves — its sum
//! equals the replay's totals bit-for-bit — so every record carries a cost
//! anatomy that reconciles exactly with its per-event costs.

use serde::{Deserialize, Serialize};

use kkt_congest::{CostReport, PhaseCost, PhaseLedger};
use kkt_core::TreeKind;
use kkt_workloads::report::scheduler_label;
use kkt_workloads::{
    fingerprint_hex, MaintenancePolicy, PhaseAccumulator, ReplayConfig, ReplayHarness, Scenario,
    SuiteParams,
};

use crate::fleet::run_fleet;

/// A replay grid. Cells are ordered rung-major, then scenario, then policy,
/// with seeds innermost; every (rung, scenario, seed) triple is replayed under
/// each policy from the same base graph and trace.
pub struct GridSpec {
    /// Size/density rungs; each cell re-seeds its rung with the cell's seed.
    pub rungs: Vec<SuiteParams>,
    /// Trace generators.
    pub scenarios: Vec<Box<dyn Scenario>>,
    /// Maintenance policies.
    pub policies: Vec<MaintenancePolicy>,
    /// Master seeds (graph, trace, protocol coins, delivery delays).
    pub seeds: Vec<u64>,
}

impl GridSpec {
    /// Number of replay cells.
    pub(crate) fn len(&self) -> usize {
        self.rungs.len() * self.scenarios.len() * self.policies.len() * self.seeds.len()
    }

    /// The (rung, scenario, policy, seed) indices of flat cell `i`.
    fn coords(&self, i: usize) -> (usize, usize, usize, usize) {
        let k = i % self.seeds.len();
        let rest = i / self.seeds.len();
        let p = rest % self.policies.len();
        let rest = rest / self.policies.len();
        (rest / self.scenarios.len(), rest % self.scenarios.len(), p, k)
    }

    /// Cell identity for panics.
    fn label(&self, i: usize) -> String {
        let (r, s, p, k) = self.coords(i);
        format!(
            "policy={} n={} m={} scenario={} seed_ordinal={k} seed={:#018x}",
            self.policies[p].label(),
            self.rungs[r].n,
            self.rungs[r].m,
            self.scenarios[s].id(),
            self.seeds[k]
        )
    }

    /// Replays flat cell `i`. Pure function of the spec and `i` — the unit
    /// the runner shards across workers.
    fn replay(&self, i: usize) -> CellRecord {
        let (r, s, p, k) = self.coords(i);
        let seed = self.seeds[k];
        let rung = self.rungs[r].with_seed(seed);
        let base = rung.base_graph();
        let workload = self.scenarios[s].generate(&base, rung.events, seed);
        workload.validate(&base).expect("generated trace is applicable");
        let harness = ReplayHarness::new(ReplayConfig {
            kind: rung.kind,
            scheduler: rung.scheduler,
            verify_every: rung.verify_every,
            seed,
            ..ReplayConfig::default()
        });
        let mut acc = PhaseAccumulator::new();
        let report = harness
            .replay_observed(&base, &workload, self.policies[p], &mut acc)
            .expect("every checkpoint verifies against the shadow oracle");
        // The tracing layer's contract, re-checked at the report boundary:
        // attribution never loses (or invents) a bit.
        let total = acc.ledger.total();
        assert!(
            total.messages == report.total.messages
                && total.bits == report.total.bits
                && total.time == report.total.time
                && total.broadcast_echoes == report.total.broadcast_echoes,
            "phase ledger does not conserve for {}: {total:?} vs {:?}",
            self.label(i),
            report.total,
        );
        CellRecord {
            n: report.n,
            m: report.m_initial,
            scenario: report.scenario,
            policy: report.policy,
            seed,
            workload_fingerprint: report.workload_fingerprint,
            checkpoints_verified: report.checkpoints_verified,
            build: SimCost::of(&report.build),
            events: report
                .per_event
                .iter()
                .map(|e| SimCost { bits: e.bits, messages: e.messages, time: e.time })
                .collect(),
            phases: acc.ledger,
        }
    }
}

/// The simulated cost of one event (or of the initial build).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimCost {
    /// Bits sent.
    pub bits: u64,
    /// Messages sent.
    pub messages: u64,
    /// Simulated time (rounds / makespan).
    pub time: u64,
}

impl SimCost {
    fn of(cost: &CostReport) -> Self {
        SimCost { bits: cost.bits, messages: cost.messages, time: cost.time }
    }
}

/// One replayed cell: its identity, per-event costs and phase ledger.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Nodes of the base graph.
    pub n: usize,
    /// Live edges of the base graph (the achieved count; the sparse builder
    /// may undershoot its rung's target).
    pub m: usize,
    /// Scenario identifier.
    pub scenario: String,
    /// Maintenance policy label.
    pub policy: String,
    /// Master seed of the replay.
    pub seed: u64,
    /// Fingerprint of the replayed trace.
    pub workload_fingerprint: String,
    /// Oracle checkpoints that verified.
    pub checkpoints_verified: usize,
    /// Cost of the initial construction (not part of the event costs).
    pub build: SimCost,
    /// Per-event costs, in trace order.
    pub events: Vec<SimCost>,
    /// Per-phase cost over all events; its total equals the event sums.
    pub phases: PhaseLedger,
}

impl CellRecord {
    /// Totals over all events (messages, bits, time, broadcast-echoes).
    pub fn total(&self) -> PhaseCost {
        self.phases.total()
    }

    /// Whether `other` replayed the same base graph and trace.
    fn same_input(&self, other: &CellRecord) -> bool {
        self.n == other.n
            && self.m == other.m
            && self.seed == other.seed
            && self.workload_fingerprint == other.workload_fingerprint
    }
}

/// The sealed output of [`run_grid`]. Every field is an integer or a label;
/// ratios and means are derived by the views that print them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridReport {
    /// `mst` or `st`.
    pub tree_kind: String,
    /// Scheduler label.
    pub scheduler: String,
    /// The grid's seeds, by ordinal.
    pub seeds: Vec<u64>,
    /// One record per cell, in grid order.
    pub cells: Vec<CellRecord>,
    /// FNV-1a fingerprint over the whole serialised document (with this
    /// field emptied).
    pub fingerprint: String,
}

impl GridReport {
    /// Recomputes the fingerprint over the serialised report with the
    /// fingerprint field emptied, so sealing is idempotent and covers every
    /// cell's identity as well as its costs.
    pub fn seal(&mut self) {
        self.fingerprint = String::new();
        self.fingerprint =
            fingerprint_hex(&serde_json::to_string(self).expect("report serialises"));
    }

    /// The cell that replayed `cell`'s inputs under `policy`, if any.
    pub fn peer(&self, cell: &CellRecord, policy: &str) -> Option<&CellRecord> {
        self.cells.iter().find(|c| c.policy == policy && c.same_input(cell))
    }
}

/// Replays every cell of `spec` across `threads` workers and returns the
/// records in grid order — byte-identical for any thread count. The seed
/// fleet aggregates these records into its own report, so it calls this
/// directly and never pays for serialising the raw cells.
///
/// # Panics
///
/// Re-raises a failing cell (oracle mismatch, broken conservation) as a
/// panic carrying the cell's identity.
pub fn run_cells(spec: &GridSpec, threads: usize) -> Vec<CellRecord> {
    run_fleet(spec.len(), threads, |i| spec.label(i), |i| spec.replay(i))
        .unwrap_or_else(|poisoned| panic!("{poisoned}"))
}

/// Runs the whole grid and seals its report.
///
/// # Panics
///
/// When the grid has no rung, when its rungs disagree on the maintained
/// structure or the scheduler (the report names one of each), or when a cell
/// fails (see [`run_cells`]).
pub fn run_grid(spec: &GridSpec, threads: usize) -> GridReport {
    let first = spec.rungs.first().expect("a grid has at least one rung");
    assert!(
        spec.rungs.iter().all(|r| r.kind == first.kind && r.scheduler == first.scheduler),
        "every rung of a grid maintains the same structure under the same scheduler"
    );
    let mut report = GridReport {
        tree_kind: match first.kind {
            TreeKind::Mst => "mst".to_string(),
            TreeKind::St => "st".to_string(),
        },
        scheduler: scheduler_label(first.scheduler),
        seeds: spec.seeds.clone(),
        cells: run_cells(spec, threads),
        fingerprint: String::new(),
    };
    report.seal();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_workloads::{standard_suite, Density};

    fn tiny() -> SuiteParams {
        SuiteParams { n: 16, m: 40, events: 4, verify_every: 2, ..SuiteParams::default() }
    }

    fn battery(rung: SuiteParams, seed: u64) -> GridSpec {
        GridSpec {
            rungs: vec![rung],
            scenarios: standard_suite(rung.max_weight),
            policies: MaintenancePolicy::all_for(rung.kind),
            seeds: vec![seed],
        }
    }

    #[test]
    fn battery_runs_and_seals() {
        let report = run_grid(&battery(tiny(), 0xC0DE), 2);
        // 5 scenarios × 4 MST policies, scenario-major.
        assert_eq!(report.cells.len(), 20);
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.policy, MaintenancePolicy::all_for(TreeKind::Mst)[i % 4].label());
            assert!(cell.checkpoints_verified > 0, "{}/{}", cell.scenario, cell.policy);
            assert!((1..=4).contains(&cell.events.len()), "generators emit about 4 events");
            let bits: u64 = cell.events.iter().map(|e| e.bits).sum();
            assert_eq!(cell.total().bits, bits, "the ledger reconciles with the events");
            assert!(cell.build.messages > 0);
        }
        assert_eq!((report.tree_kind.as_str(), report.seeds.as_slice()), ("mst", &[0xC0DE][..]));
        assert_eq!(report.fingerprint.len(), 16);
    }

    #[test]
    fn battery_runs_on_the_complete_graph() {
        // The whole battery replays and verifies on the densest rung.
        let rung = SuiteParams {
            events: 4,
            verify_every: 2,
            ..SuiteParams::density_preset(16, Density::NOver2)
        };
        let report = run_grid(&battery(rung, 0xC0DE), 2);
        assert_eq!(report.cells.len(), 20);
        for cell in &report.cells {
            assert_eq!(cell.m, 16 * 15 / 2, "the n/2 rung is the complete graph");
            assert!(cell.checkpoints_verified > 0, "{}/{}", cell.scenario, cell.policy);
        }
    }

    #[test]
    fn spanning_tree_grids_run_their_own_policies() {
        let rung = SuiteParams { kind: TreeKind::St, max_weight: 1, ..tiny() };
        let report = run_grid(&battery(rung, 3), 1);
        assert_eq!(report.tree_kind, "st");
        assert_eq!(report.cells.len(), 5 * MaintenancePolicy::all_for(TreeKind::St).len());
    }

    #[test]
    fn report_is_byte_identical_across_runs_and_thread_counts() {
        let spec = battery(tiny(), 0xC0DE);
        let json = serde_json::to_string(&run_grid(&spec, 1)).unwrap();
        for threads in [1, 2, 8] {
            assert_eq!(serde_json::to_string(&run_grid(&spec, threads)).unwrap(), json);
        }
        let other = run_grid(&battery(tiny(), 99), 2);
        assert_ne!(serde_json::to_string(&other).unwrap(), json);
    }

    #[test]
    fn seeds_are_innermost_and_peers_share_inputs() {
        let spec = GridSpec { seeds: vec![5, 6], ..battery(tiny(), 0) };
        let report = run_grid(&spec, 2);
        assert_eq!(report.cells.len(), 40);
        assert_eq!((report.cells[0].seed, report.cells[1].seed), (5, 6));
        assert_ne!(report.cells[0].workload_fingerprint, report.cells[1].workload_fingerprint);
        let cell = &report.cells[1];
        let peer = report.peer(cell, "rebuild_kkt").unwrap();
        assert_eq!((peer.seed, &peer.scenario), (6, &cell.scenario));
        assert_eq!(peer.workload_fingerprint, cell.workload_fingerprint);
        assert!(report.peer(cell, "no_such_policy").is_none());
    }

    /// A hand-built one-cell report (sealing needs no replay).
    fn sample_report() -> GridReport {
        GridReport {
            tree_kind: "mst".into(),
            scheduler: "synchronous".into(),
            seeds: vec![7],
            cells: vec![CellRecord {
                n: 16,
                m: 120,
                scenario: "poisson_churn(0.50)".into(),
                policy: "impromptu_repair".into(),
                seed: 7,
                workload_fingerprint: "abcd".into(),
                checkpoints_verified: 2,
                build: SimCost { bits: 900, messages: 30, time: 12 },
                events: vec![SimCost { bits: 40, messages: 4, time: 3 }],
                phases: PhaseLedger::new(),
            }],
            fingerprint: String::new(),
        }
    }

    #[test]
    fn report_seals_deterministically_and_idempotently() {
        let mut a = sample_report();
        let mut b = a.clone();
        a.seal();
        b.seal();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.fingerprint.len(), 16);
        // Resealing empties the field before hashing, so it lands on the
        // same fingerprint.
        let sealed = a.fingerprint.clone();
        a.seal();
        assert_eq!(a.fingerprint, sealed);
    }

    #[test]
    fn report_round_trips_and_its_fingerprint_covers_cell_identity() {
        let mut report = sample_report();
        report.seal();
        let text = serde_json::to_string(&report).unwrap();
        let back: GridReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        // Identity, not just cost: a different edge count alone moves it.
        let mut other = report.clone();
        other.cells[0].m = 28;
        other.seal();
        assert_ne!(other.fingerprint, report.fingerprint);
    }

    #[test]
    fn a_failing_cell_reports_its_identity() {
        // Flooding builds a spanning tree, not an MST, so an MST rung under
        // it fails every cell; the panic must name the first one.
        let spec =
            GridSpec { policies: vec![MaintenancePolicy::RebuildFlood], ..battery(tiny(), 7) };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_grid(&spec, 2)))
            .unwrap_err();
        let text = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("policy=rebuild_flood") && text.contains("n=16"), "{text}");
    }
}
