//! The `fleet-quick` workload: `kkt_bench::fleet::run_replay_fleet` over
//! `FleetParams::quick`, plus observed passes that replay the same cells
//! through `ReplayHarness` to time every event; the first pass also checks the
//! fleet's report against independently computed per-cell statistics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use kkt_bench::fleet::{
    run_fleet, run_replay_fleet, AggregateCell, FleetParams, FleetReport, FleetScenario,
};
use kkt_bench::stats::SloSummary;
use kkt_core::{MaintainedForest, TreeKind};
use kkt_graphs::{Graph, ShadowOracle};
use kkt_workloads::{
    AdversarialTreeCut, MaintenancePolicy, Observer, PoissonChurn, ReplayConfig, ReplayHarness,
    Scenario, SuiteParams, Workload,
};

use crate::host;
use crate::measure::{event_latencies_ms, interleave, push_end_to_end, Stamps};
use crate::pins::{check_pinned, pinned, SimTotals};
use crate::spec::{options_of, WorkloadKind};
use crate::stats::RunResult;

/// Worker threads: two, or fewer on a smaller machine.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// The fleet of a seed.
pub fn params(seed: u64) -> FleetParams {
    FleetParams::quick(seed)
}

/// The trace generator of a fleet scenario, tuned as the fleet tunes it.
fn generator(scenario: FleetScenario, max_weight: u64) -> Box<dyn Scenario> {
    match scenario {
        FleetScenario::PoissonChurn => Box::new(PoissonChurn { delete_fraction: 0.5, max_weight }),
        FleetScenario::AdversarialTreeCut => Box::new(AdversarialTreeCut { max_weight }),
    }
}

/// The inputs and harness of one (aggregate cell, seed) replay, built
/// exactly as the fleet builds them.
pub struct CellInput {
    /// Base graph.
    pub base: Graph,
    /// Trace.
    pub workload: Workload,
    /// Harness.
    pub harness: ReplayHarness,
    /// Policy.
    pub policy: MaintenancePolicy,
}

/// Generates one cell's inputs.
pub fn cell_input(cell: &AggregateCell, seed: u64) -> CellInput {
    let suite = SuiteParams::density_preset(cell.n, cell.density).with_seed(seed);
    let base = suite.base_graph();
    let workload = generator(cell.scenario, suite.max_weight).generate(&base, suite.events, seed);
    let harness = ReplayHarness::new(ReplayConfig {
        kind: suite.kind,
        scheduler: suite.scheduler,
        verify_every: suite.verify_every,
        seed,
        ..ReplayConfig::default()
    });
    CellInput { base, workload, harness, policy: cell.policy }
}

/// One replay of the observed pass.
pub struct CellRun<O> {
    /// Aggregate cell index.
    pub cell: usize,
    /// Per-event (rounds, bits, messages) of the replay.
    pub per_event: Vec<(u64, u64, u64)>,
    /// Simulated totals of the replay.
    pub totals: SimTotals,
    /// The replay's observer.
    pub observer: O,
    /// When the replay (including its input generation) started and ended.
    pub span: (Instant, Instant),
}

/// Replays every (aggregate cell, seed) work item of `params` on `threads`
/// workers, in the fleet's own order, with an observer from `make`.
///
/// # Errors
///
/// The first failing replay, or a panic inside one.
pub fn observed_pass<O: Observer + Send>(
    params: &FleetParams,
    threads: usize,
    make: impl Fn(usize) -> O + Sync,
) -> Result<Vec<CellRun<O>>, String> {
    let cells = params.aggregate_cells();
    let seeds = params.mixed_seeds();
    let per_cell = seeds.len();
    let runs = run_fleet(
        cells.len() * per_cell,
        threads,
        |i| format!("cell {} seed ordinal {}", i / per_cell, i % per_cell),
        |i| -> Result<CellRun<O>, String> {
            let start = Instant::now();
            let input = cell_input(&cells[i / per_cell], seeds[i % per_cell]);
            let mut observer = make(input.workload.len());
            let report = input
                .harness
                .replay_observed(&input.base, &input.workload, input.policy, &mut observer)
                .map_err(|e| format!("fleet replay {i} failed: {e}"))?;
            Ok(CellRun {
                cell: i / per_cell,
                per_event: report.per_event.iter().map(|e| (e.time, e.bits, e.messages)).collect(),
                totals: SimTotals::of_report(&report),
                observer,
                span: (start, Instant::now()),
            })
        },
    )
    .map_err(|panic| panic.to_string())?;
    runs.into_iter().collect()
}

/// Event latencies in ms of a pass, replay by replay in grid order.
fn pass_latencies_ms(runs: &[CellRun<Stamps>]) -> Vec<f64> {
    runs.iter().flat_map(|run| run.observer.latencies_ms()).collect()
}

/// Simulated totals of a pass, summed over every replay.
pub fn pass_totals<O>(runs: &[CellRun<O>]) -> SimTotals {
    let mut sum = SimTotals::default();
    for run in runs {
        sum.add(&run.totals);
    }
    sum
}

/// Checks the fleet report cell by cell against statistics recomputed from
/// an observed pass; `Some(reason)` on the first difference.
pub fn check_report<O>(report: &FleetReport, runs: &[CellRun<O>]) -> Option<String> {
    for (a, cell) in report.cells.iter().enumerate() {
        let group: Vec<&CellRun<O>> = runs.iter().filter(|r| r.cell == a).collect();
        let column = |pick: fn(&(u64, u64, u64)) -> u64| -> SloSummary {
            let groups: Vec<Vec<u64>> =
                group.iter().map(|r| r.per_event.iter().map(pick).collect()).collect();
            SloSummary::of_groups(&groups)
        };
        let checkpoints: u64 = group.iter().map(|r| r.totals.checkpoints).sum();
        if cell.rounds != column(|e| e.0)
            || cell.bits != column(|e| e.1)
            || cell.messages != column(|e| e.2)
            || cell.checkpoints_verified != checkpoints
        {
            return Some(format!(
                "fleet cell {a} ({} {} {}) differs from its observed replays",
                cell.policy, cell.density, cell.scenario
            ));
        }
    }
    None
}

/// Runs the whole fleet, turning a panic into an error.
pub fn run_whole(params: &FleetParams, threads: usize) -> Result<FleetReport, String> {
    catch_unwind(AssertUnwindSafe(|| run_replay_fleet(params, threads))).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "run_replay_fleet panicked".to_string())
    })
}

/// The distinct (density, seed) base graphs of a fleet and, per scenario, the
/// traces the fleet replays on them, each with a fresh shadow oracle; the
/// policies of a cell share its inputs. Returns the inputs and the host
/// seconds spent on (base graphs, traces, oracles).
pub fn generate_inputs(params: &FleetParams) -> (Vec<(u64, Graph)>, [f64; 3]) {
    let mut times = [0.0; 3];
    let mut graphs = Vec::new();
    for rung in &params.rungs {
        for &density in &rung.densities {
            for seed in params.mixed_seeds() {
                let suite = SuiteParams::density_preset(rung.n, density).with_seed(seed);
                for scenario in FleetScenario::ALL {
                    let t = Instant::now();
                    let base = suite.base_graph();
                    times[0] += t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    let workload =
                        generator(scenario, suite.max_weight).generate(&base, suite.events, seed);
                    times[1] += t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    let oracle = ShadowOracle::new(&base);
                    times[2] += t.elapsed().as_secs_f64();
                    std::hint::black_box((&workload, &oracle));
                    if scenario == FleetScenario::ALL[0] {
                        graphs.push((seed, base));
                    }
                }
            }
        }
    }
    (graphs, times)
}

/// Builds the MST of every base graph with the options the fleet's replays
/// use; returns the summed build messages.
pub fn build_all(params: &FleetParams, graphs: &[(u64, Graph)]) -> Result<u64, String> {
    let suite = SuiteParams::density_preset(params.rungs[0].n, params.rungs[0].densities[0]);
    let mut messages = 0;
    for (seed, graph) in graphs {
        let harness = ReplayHarness::new(ReplayConfig {
            scheduler: suite.scheduler,
            seed: *seed,
            ..ReplayConfig::default()
        });
        let forest = MaintainedForest::build(graph.clone(), TreeKind::Mst, options_of(&harness))
            .map_err(|e| format!("fleet build failed: {e}"))?;
        messages += forest.build_cost().messages;
    }
    Ok(messages)
}

/// The end-to-end metrics of the fleet workload.
pub fn run(seed: u64, seconds: f64) -> RunResult {
    let kind = WorkloadKind::FleetQuick;
    let mut result = RunResult::default();
    let started = Instant::now();
    let params = params(seed);
    let threads = threads();

    // One observed pass first: event latencies and the reference statistics
    // every whole-fleet run is checked against.
    let before = host::reference_s();
    let pass = observed_pass(&params, threads, Stamps::with_capacity);
    let mut scales = vec![host::scale(before, host::reference_s())];
    let mut passes = Vec::new();
    let mut totals = None;
    let runs = match pass {
        Err(e) => {
            result.check(Some(e));
            passes.push(Vec::new());
            Vec::new()
        }
        Ok(runs) => {
            passes.push(pass_latencies_ms(&runs));
            let t = pass_totals(&runs);
            totals = Some(t);
            result.check(check_pinned(kind, seed, &t));
            runs
        }
    };

    let (graphs, _) = generate_inputs(&params);
    let mut build_messages = None;
    let mut fingerprint: Option<String> = None;
    let mut is_pass = Vec::new();
    let mut samples = interleave(
        seconds - started.elapsed().as_secs_f64(),
        &mut result,
        || (generate_inputs(&params).1.iter().sum(), None),
        || {
            let t = Instant::now();
            let built = build_all(&params, &graphs);
            let elapsed = t.elapsed().as_secs_f64();
            let failure = match built {
                Err(e) => Some(e),
                Ok(msgs) => match build_messages.replace(msgs) {
                    Some(prev) if prev != msgs => {
                        Some("two fleet builds cost differently".to_string())
                    }
                    _ => None,
                },
            };
            (elapsed, failure)
        },
        || {
            // Replay samples alternate between whole-fleet runs, timed for
            // replay_s, and further observed passes for the event latencies.
            let pass_turn = is_pass.last() == Some(&false);
            is_pass.push(pass_turn);
            if pass_turn {
                let t = Instant::now();
                let pass = observed_pass(&params, threads, Stamps::with_capacity);
                let elapsed = t.elapsed().as_secs_f64();
                let failure = match pass {
                    Err(e) => {
                        passes.push(Vec::new());
                        Some(e)
                    }
                    Ok(again) => {
                        passes.push(pass_latencies_ms(&again));
                        (Some(pass_totals(&again)) != totals)
                            .then(|| "two observed passes cost differently".to_string())
                    }
                };
                return (elapsed, failure);
            }
            let t = Instant::now();
            let report = run_whole(&params, threads);
            let elapsed = t.elapsed().as_secs_f64();
            let failure = match report {
                Err(e) => Some(e),
                Ok(report) => {
                    if fingerprint.as_ref().is_some_and(|f| *f != report.fingerprint) {
                        Some("two fleet runs sealed different reports".to_string())
                    } else {
                        fingerprint = Some(report.fingerprint.clone());
                        check_report(&report, &runs)
                    }
                }
            };
            (elapsed, failure)
        },
    );
    eprintln!(
        "{} seed {seed}: {} replays on {threads} threads, pinned={}",
        kind.name(),
        runs.len(),
        pinned(kind, seed).is_some()
    );
    let (mut whole, mut whole_scales) = (Vec::new(), Vec::new());
    for ((&seconds, &scale), &pass) in
        samples.replay.iter().zip(&samples.replay_scale).zip(&is_pass)
    {
        if pass {
            scales.push(scale);
        } else {
            whole.push(seconds);
            whole_scales.push(scale);
        }
    }
    (samples.replay, samples.replay_scale) = (whole, whole_scales);
    let latencies = event_latencies_ms(&passes, &scales);
    eprintln!("  event latencies: each event's median over {} observed passes", passes.len());
    push_end_to_end(&mut result, &samples, &latencies, &totals.unwrap_or_default());
    result
}
