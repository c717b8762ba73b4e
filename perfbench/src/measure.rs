//! The untraced run: end-to-end metrics of one replay workload, measured
//! through the library's public entry points only.

use std::cell::Cell;
use std::time::Instant;

use kkt_congest::CostReport;
use kkt_core::{MaintainedForest, TreeKind};
use kkt_graphs::Graph;
use kkt_workloads::{Observer, TraceRecord};

use crate::host;
use crate::pins::{check_pinned, pinned, SimTotals};
use crate::spec::{ReplaySpec, WorkloadKind};
use crate::stats::{median, peak_rss_mib, quantile, ratio, spread, RunResult};

/// Replay observer that records one timestamp per top-level event and
/// nothing else.
pub struct Stamps {
    /// When each top-level event's record arrived.
    pub at: Vec<Instant>,
}

impl Stamps {
    /// An observer with room for `events` stamps.
    pub fn with_capacity(events: usize) -> Self {
        Stamps { at: Vec::with_capacity(events) }
    }

    /// Host latencies in ms of events `1..`; event 0 has no observable start
    /// because the observer is first called when it ends.
    pub fn latencies_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.at.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
    }
}

impl Observer for Stamps {
    fn on_event(&mut self, _record: &TraceRecord) {
        self.at.push(Instant::now());
    }
}

/// Runs `f` at least `min` times, then again while fewer than `max` runs
/// were made and `budget_s` seconds have not passed.
pub fn repeat<T>(min: usize, max: usize, budget_s: f64, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && start.elapsed().as_secs_f64() < budget_s) {
        out.push(f());
    }
    out
}

/// Median over replays of each event's latency in ms, at the nominal host
/// speed: `replays` holds each replay's event latencies as measured (empty
/// for a failed replay), `scales` the factor that puts each replay on the
/// nominal host.
pub fn event_latencies_ms(replays: &[Vec<f64>], scales: &[f64]) -> Vec<f64> {
    let ok: Vec<_> = replays.iter().zip(scales).filter(|(lat, _)| !lat.is_empty()).collect();
    let events = ok.iter().map(|(lat, _)| lat.len()).min().unwrap_or(0);
    (0..events)
        .map(|i| {
            let scaled: Vec<f64> = ok.iter().map(|(lat, scale)| lat[i] * *scale).collect();
            median(&scaled)
        })
        .collect()
}

/// One timed operation: its seconds and, if it failed, why.
pub type Sample = (f64, Option<String>);

/// Timed samples of the three end-to-end operations of a run, each in
/// seconds at the nominal host speed (see [`host`]).
#[derive(Default)]
pub struct Samples {
    /// Set-up seconds.
    pub setup: Vec<f64>,
    /// Build seconds.
    pub build: Vec<f64>,
    /// Replay seconds.
    pub replay: Vec<f64>,
    /// Per replay, in call order, the factor that put it on the nominal host.
    pub replay_scale: Vec<f64>,
    /// Every reference-kernel time of the run, in seconds.
    pub reference: Vec<f64>,
}

/// Times operations between runs of the reference kernel; the run after one
/// operation is the run before the next.
struct Bracketed {
    last: Option<f64>,
    reference: Vec<f64>,
}

impl Bracketed {
    fn reference(&mut self) -> f64 {
        let seconds = host::reference_s();
        self.reference.push(seconds);
        seconds
    }

    /// Runs `op` `times` times; returns the summed seconds and the factor
    /// that puts them on the nominal host.
    fn run(
        &mut self,
        op: &mut dyn FnMut() -> Sample,
        times: usize,
        result: &mut RunResult,
    ) -> (f64, f64) {
        let before = match self.last.take() {
            Some(seconds) => seconds,
            None => self.reference(),
        };
        let mut total = 0.0;
        for _ in 0..times {
            let (seconds, failure) = op();
            total += seconds;
            result.check(failure);
        }
        let after = self.reference();
        self.last = Some(after);
        (total, host::scale(before, after))
    }
}

/// Shortest set-up or build sample: quicker operations are repeated within
/// one sample so that the reference runs around it do not dwarf it, while the
/// sample stays well inside one of the host's phases.
const MIN_SAMPLE_S: f64 = 0.2;

/// Shares of a run's host time given to set-up and build samples; replays
/// get the rest.
const SHARES: [f64; 2] = [0.10, 0.15];

/// Interleaves set-ups, builds and replays in cycles for at most `seconds`
/// (but at least two replays), so that all three sample the same stretch of
/// the run: before each replay, set-up and build samples (up to twenty of
/// each) are taken until each kind has had its share ([`SHARES`]) of the run
/// so far. Every kind gets at least three samples. Every sample is bracketed
/// by runs of the reference kernel and reported at the nominal host speed.
/// Failures are recorded in `result`.
///
/// An operation quicker than [`MIN_SAMPLE_S`] (set-up, build) is repeated
/// back to back within one sample, which then reports the mean time per
/// operation, so that the kernel runs do not dwarf it.
pub fn interleave(
    seconds: f64,
    result: &mut RunResult,
    mut setup: impl FnMut() -> Sample,
    mut build: impl FnMut() -> Sample,
    mut replay: impl FnMut() -> Sample,
) -> Samples {
    let start = Instant::now();
    let mut out = Samples::default();
    let mut timer = Bracketed { last: None, reference: Vec::new() };
    // Operations per sample, calibrated by the first sample of each kind.
    let mut per_sample = [1usize; 2];
    let mut take = |kind: usize,
                    op: &mut dyn FnMut() -> Sample,
                    into: &mut Vec<f64>,
                    timer: &mut Bracketed,
                    result: &mut RunResult| {
        let times = per_sample[kind];
        let (total, scale) = timer.run(op, times, result);
        into.push(total * scale / times as f64);
        if into.len() == 1 && total > 0.0 {
            per_sample[kind] = ((MIN_SAMPLE_S / total).ceil() as usize).clamp(1, 1000);
        }
        total
    };
    // Host seconds spent on set-ups and builds so far.
    let mut spent = [0.0; 2];
    loop {
        for (kind, share) in SHARES.into_iter().enumerate() {
            let (op, into): (&mut dyn FnMut() -> Sample, _) =
                if kind == 0 { (&mut setup, &mut out.setup) } else { (&mut build, &mut out.build) };
            for _ in 0..20 {
                if !into.is_empty() && spent[kind] >= share * start.elapsed().as_secs_f64() {
                    break;
                }
                spent[kind] += take(kind, op, into, &mut timer, result);
            }
        }
        let (replay_s, scale) = timer.run(&mut replay, 1, result);
        out.replay.push(replay_s * scale);
        out.replay_scale.push(scale);
        // Stop once another cycle of the mean length would overshoot the run.
        let elapsed = start.elapsed().as_secs_f64();
        let mean_cycle = elapsed / out.replay.len() as f64;
        if out.replay.len() >= 2 && elapsed + mean_cycle >= seconds {
            break;
        }
    }
    while out.setup.len() < 3 {
        take(0, &mut setup, &mut out.setup, &mut timer, result);
    }
    while out.build.len() < 3 {
        take(1, &mut build, &mut out.build, &mut timer, result);
    }
    out.reference = timer.reference;
    out
}

/// Prints one metric's median with its within-run spread and sample count.
pub fn describe(name: &str, values: &[f64], unit: &str) {
    eprintln!(
        "  {name:<20} median {:>12.6} {unit:<8} spread {:>6.2}%  n={}",
        median(values),
        100.0 * spread(values),
        values.len()
    );
}

/// Prints the run's samples and records every end-to-end metric: the host
/// times are medians at the nominal host speed.
pub fn push_end_to_end(
    result: &mut RunResult,
    samples: &Samples,
    latencies_ms: &[f64],
    totals: &SimTotals,
) {
    describe("reference kernel", &samples.reference, "s");
    describe("setup_s", &samples.setup, "s");
    describe("build_s", &samples.build, "s");
    describe("replay_s", &samples.replay, "s");
    let raw: Vec<f64> =
        samples.replay.iter().zip(&samples.replay_scale).map(|(s, k)| s / k).collect();
    describe("replay_s as measured", &raw, "s");
    eprintln!("  event latency: {} events", latencies_ms.len());
    eprintln!("  simulated totals: {totals:?}");
    let replay_s = median(&samples.replay);
    let msgs = (totals.build_messages + totals.messages) as f64;
    let events = totals.events.max(1) as f64;
    result.push("setup_s", median(&samples.setup), "s");
    result.push("build_s", median(&samples.build), "s");
    result.push("replay_s", replay_s, "s");
    result.push("sim_msgs_per_s", ratio(msgs, replay_s), "msgs/s");
    result.push("event_p50_ms", quantile(latencies_ms, 0.50), "ms");
    result.push("event_p99_ms", quantile(latencies_ms, 0.99), "ms");
    result.push("sim_msgs_per_event", totals.messages as f64 / events, "msgs");
    result.push("sim_bits_per_event", totals.bits as f64 / events, "bits");
    result.push("peak_rss_mib", peak_rss_mib(), "MiB");
}

/// Graphs whose builds make up one build sample: a graph's build cost hangs
/// on its structure (on churn-sparse the build messages of seeds 1 to 10 span
/// 366k to 647k), so `build_s` averages the base graph with three more graphs
/// of its shape.
const BUILD_GRAPHS: u64 = 4;

/// The seed of build graph `i` (graph 0 is the base graph, of `seed` itself).
fn build_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The end-to-end metrics of a replay workload. Host times are medians over
/// the run's samples at the nominal host speed; each event's latency is its
/// median over the run's replays of the one trace.
pub fn run(kind: WorkloadKind, spec: ReplaySpec, seed: u64, seconds: f64) -> RunResult {
    let started = Instant::now();
    let mut result = RunResult::default();
    let harness = spec.harness(seed);

    // The first set-up provides the inputs; later ones must reproduce them.
    let first_setup = spec.setup(seed);
    let fingerprint = first_setup.workload.fingerprint();
    let mut pending_setup = Some(first_setup.total_s());
    let (base, workload) = (first_setup.base, first_setup.workload);

    // Builds cover the base graph and `BUILD_GRAPHS - 1` more graphs of its
    // shape; the first must cost what the replay's build costs.
    let graphs: Vec<Graph> = std::iter::once(base.clone())
        .chain((1..BUILD_GRAPHS).map(|i| spec.suite(build_seed(seed, i)).base_graph()))
        .collect();
    let build_costs: Vec<Cell<Option<CostReport>>> =
        graphs.iter().map(|_| Cell::new(None)).collect();
    let mut first: Option<SimTotals> = None;
    let mut per_replay: Vec<Vec<f64>> = Vec::new();
    let mut samples = interleave(
        seconds - started.elapsed().as_secs_f64(),
        &mut result,
        || match pending_setup.take() {
            Some(seconds) => (seconds, None),
            None => {
                let again = spec.setup(seed);
                let failure = (again.workload.fingerprint() != fingerprint)
                    .then(|| "trace generation is not deterministic".to_string());
                (again.total_s(), failure)
            }
        },
        || {
            // Every build of one graph must cost the same.
            let mut elapsed = 0.0;
            let mut failure = None;
            for (graph, cost) in graphs.iter().zip(&build_costs) {
                let graph = graph.clone();
                let t = Instant::now();
                let built =
                    MaintainedForest::build(graph, TreeKind::Mst, spec.maintain_options(seed));
                elapsed += t.elapsed().as_secs_f64();
                let problem = match built {
                    Err(e) => Some(format!("build failed: {e}")),
                    Ok(forest) => match cost.replace(Some(forest.build_cost())) {
                        Some(prev) if prev != forest.build_cost() => {
                            Some("two builds of one graph cost differently".to_string())
                        }
                        _ => None,
                    },
                };
                failure = failure.or(problem);
            }
            (elapsed, failure)
        },
        || {
            let mut stamps = Stamps::with_capacity(workload.len());
            let t = Instant::now();
            let replayed = harness.replay_observed(&base, &workload, spec.policy, &mut stamps);
            let elapsed = t.elapsed().as_secs_f64();
            per_replay.push(if replayed.is_ok() {
                stamps.latencies_ms().collect()
            } else {
                vec![]
            });
            let failure = match replayed {
                Err(e) => Some(format!("replay failed: {e}")),
                Ok(report) => {
                    let totals = SimTotals::of_report(&report);
                    if totals.checkpoints != workload.len() as u64 {
                        Some(format!(
                            "{} of {} checkpoints verified",
                            totals.checkpoints,
                            workload.len()
                        ))
                    } else if build_costs[0].get().is_some_and(|b| b != report.build) {
                        Some("the replay's build cost differs from MaintainedForest::build".into())
                    } else if first.is_some_and(|f| f != totals) {
                        Some("two replays of one trace cost differently".to_string())
                    } else {
                        first = Some(totals);
                        check_pinned(kind, seed, &totals)
                    }
                }
            };
            (elapsed, failure)
        },
    );
    eprintln!(
        "{} seed {seed}: n={} m={} events={} primitives={} policy={} pinned={}",
        kind.name(),
        base.node_count(),
        base.edge_count(),
        workload.len(),
        workload.primitive_count(),
        spec.policy.label(),
        pinned(kind, seed).is_some()
    );
    // A build sample built every graph once; build_s is per graph.
    for sample in &mut samples.build {
        *sample /= graphs.len() as f64;
    }
    let latencies = event_latencies_ms(&per_replay, &samples.replay_scale);
    push_end_to_end(&mut result, &samples, &latencies, &first.unwrap_or_default());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_latencies_are_per_event_medians_of_scaled_replays() {
        let replays = vec![vec![1.0, 10.0], vec![], vec![3.0, 30.0], vec![2.0, 20.0]];
        let scales = [1.0, 7.0, 1.0, 2.0];
        assert_eq!(event_latencies_ms(&replays, &scales), vec![3.0, 30.0]);
        assert!(event_latencies_ms(&[vec![]], &[1.0]).is_empty());
    }
}
