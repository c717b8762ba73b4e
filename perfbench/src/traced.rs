//! The traced run: the workload's trace driven through the library's public
//! calls with a span around each call into a layer, followed by probes of
//! single layers on the final forest.
//!
//! Spans are kept in memory and written to `perfbench/out/` as JSON lines
//! when the run ends. The loop reproduces `ReplayHarness::replay` call for
//! call, so its simulated totals must equal the replay's exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kkt_baselines::build_mst_ghs;
use kkt_congest::broadcast_echo::{run_broadcast_echo, TreeStats};
use kkt_congest::{CostReport, Network, NetworkConfig, Phase, PhaseLedger, Scheduler};
use kkt_core::weights::WeightInterval;
use kkt_core::{
    build_mst, find_min_traced, wide_test_out, DeleteOutcome, InsertOutcome, KktConfig,
    MaintainOptions, MaintainedForest, TreeKind, UpdateOutcome,
};
use kkt_graphs::{Graph, ShadowOracle};
use kkt_hashing::OddHash;
use kkt_workloads::{MaintenancePolicy, Observer, ReplayReport, TraceRecord, Workload};

use crate::fleet;
use crate::measure::{repeat, Stamps};
use crate::pins::{check_pinned, SimTotals};
use crate::spec::{options_of, ReplaySpec, WorkloadKind};
use crate::stats::{median, ratio, RunResult};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Top-level event (or fleet replay) the span belongs to.
    event: Option<usize>,
    /// Worker thread, for fleet spans.
    thread: usize,
    start: Instant,
    end: Instant,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// In-memory span store.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span now; returns its id.
    fn open(&mut self, name: &'static str, parent: Option<usize>, event: Option<usize>) -> usize {
        let now = Instant::now();
        self.spans.push(Span { name, parent, event, thread: 0, start: now, end: now });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Records an already measured span; returns its id.
    fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Seconds spent in spans named `name`.
    fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).fold(0.0, |a, b| a + b)
    }

    /// Self time per span name: each span's duration minus the part of it
    /// that its children cover (their union, since fleet replays overlap).
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        let mut out = BTreeMap::new();
        for (span, mut covered) in self.spans.iter().zip(children) {
            covered.sort();
            let mut busy = 0.0;
            let mut reach = span.start;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    busy += (end - start).as_secs_f64();
                    reach = end;
                }
            }
            *out.entry(span.name).or_insert(0.0) += span.seconds() - busy;
        }
        out
    }

    /// Writes every span as one JSON line to `perfbench/out/<file>`.
    fn write(&self, file: &str) -> Result<(), String> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let ns = |t: Instant| (t - self.origin).as_nanos();
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"parent\": {}, \"event\": {}, \"thread\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                opt(s.parent),
                opt(s.event),
                s.thread,
                s.name,
                ns(s.start),
                ns(s.end)
            );
        }
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path:?}: {e}"))
    }
}

// ---------------------------------------------------------------------------
// The traced replay loop
// ---------------------------------------------------------------------------

/// Span names of the traced loop, one per layer boundary.
const REPLAY: &str = "workloads.replay";
const EVENT: &str = "workloads.replay.event";
const BUILD: &str = "core.maintained.build";
const ORACLE_NEW: &str = "graphs.oracle.new";
const ORACLE_APPLY: &str = "graphs.oracle.apply";
const ORACLE_VERIFY: &str = "graphs.oracle.verify_msf";
const APPLY_UPDATE: &str = "core.maintained.apply_update";
const APPLY_BATCH: &str = "core.batch.apply_batch_detailed";

/// Outcome labels, as `ReplayHarness` names them.
const OUTCOMES: [&str; 7] =
    ["replaced", "bridge", "non_tree_delete", "merged", "swapped", "not_needed", "batch_repaired"];

fn outcome_label(outcome: &UpdateOutcome) -> &'static str {
    match outcome {
        UpdateOutcome::Deleted(DeleteOutcome::Replaced(_)) => "replaced",
        UpdateOutcome::Deleted(DeleteOutcome::Bridge) => "bridge",
        UpdateOutcome::Deleted(DeleteOutcome::NotATreeEdge) => "non_tree_delete",
        UpdateOutcome::Deleted(DeleteOutcome::BatchRepaired) => "batch_repaired",
        UpdateOutcome::Inserted(InsertOutcome::MergedFragments) => "merged",
        UpdateOutcome::Inserted(InsertOutcome::Swapped { .. }) => "swapped",
        UpdateOutcome::Inserted(InsertOutcome::NotNeeded) => "not_needed",
        UpdateOutcome::Reweighted => "reweighted",
    }
}

/// What the traced loop measured besides its spans.
struct TracedReplay {
    forest: MaintainedForest,
    build: CostReport,
    per_event: Vec<CostReport>,
    checkpoints: usize,
    primitives: usize,
    /// Repair-time phase ledger (build excluded).
    phases: PhaseLedger,
    /// Per outcome label: applied updates and their `apply_update` seconds.
    outcomes: BTreeMap<&'static str, (u64, Vec<f64>)>,
    /// Summed batch pipeline counters and batch messages.
    batch: (u64, u64, u64, u64),
}

/// Replays `workload` over `base` like `ReplayHarness::replay` with an MST,
/// verifying after every event, with a span around every call.
fn traced_replay(
    tr: &mut Tracer,
    base: &Graph,
    workload: &Workload,
    options: MaintainOptions,
    policy: MaintenancePolicy,
) -> Result<TracedReplay, String> {
    let graph = base.clone();
    let root = tr.open(REPLAY, None, None);
    let span = tr.open(BUILD, Some(root), None);
    let mut forest = MaintainedForest::build(graph, TreeKind::Mst, options)
        .map_err(|e| format!("build failed: {e}"))?;
    tr.close(span);
    forest.enable_metrics();
    let span = tr.open(ORACLE_NEW, Some(root), None);
    let mut oracle = ShadowOracle::new(base);
    tr.close(span);

    let mut out = TracedReplay {
        build: forest.build_cost(),
        phases: PhaseLedger::default(),
        per_event: Vec::with_capacity(workload.len()),
        checkpoints: 0,
        primitives: 0,
        outcomes: BTreeMap::new(),
        batch: (0, 0, 0, 0),
        forest,
    };
    let forest = &mut out.forest;
    let ledger_after_build = forest.phase_ledger();
    for (i, event) in workload.events.iter().enumerate() {
        let ev = tr.open(EVENT, Some(root), Some(i));
        let mut updates = Vec::new();
        for primitive in event.primitives() {
            let update = primitive
                .as_update(oracle.graph())
                .ok_or_else(|| format!("inapplicable event {primitive:?}"))?;
            let span = tr.open(ORACLE_APPLY, Some(ev), Some(i));
            oracle.apply(&update)?;
            tr.close(span);
            updates.push(update);
        }
        out.primitives += updates.len();
        let before = forest.cost();
        if policy == MaintenancePolicy::BatchedRepair {
            let span = tr.open(APPLY_BATCH, Some(ev), Some(i));
            let (outcomes, stats) =
                forest.apply_batch_detailed(&updates).map_err(|e| format!("batch failed: {e}"))?;
            tr.close(span);
            for outcome in &outcomes {
                out.outcomes.entry(outcome_label(outcome)).or_default().0 += 1;
            }
            out.batch.0 += u64::from(stats.rounds);
            out.batch.1 += u64::from(stats.searches);
            out.batch.2 += stats.severed as u64;
            out.batch.3 += (forest.cost() - before).messages;
        } else {
            for update in &updates {
                let span = tr.open(APPLY_UPDATE, Some(ev), Some(i));
                let outcome =
                    forest.apply_update(update).map_err(|e| format!("repair failed: {e}"))?;
                tr.close(span);
                let entry = out.outcomes.entry(outcome_label(&outcome)).or_default();
                entry.0 += 1;
                entry.1.push(tr.spans[span].seconds());
            }
        }
        out.per_event.push(forest.cost() - before);
        let snapshot = forest.snapshot();
        let span = tr.open(ORACLE_VERIFY, Some(ev), Some(i));
        oracle.verify_msf(&snapshot).map_err(|e| format!("checkpoint {i} failed: {e}"))?;
        tr.close(span);
        out.checkpoints += 1;
        tr.close(ev);
    }
    tr.close(root);
    out.phases = forest.phase_ledger() - ledger_after_build;
    Ok(out)
}

/// `Some(reason)` when the traced loop's simulated costs differ from the
/// replay report's in any event.
fn compare(traced: &TracedReplay, report: &ReplayReport) -> Option<String> {
    if traced.build != report.build {
        return Some("traced build cost differs from the replay's".to_string());
    }
    if traced.checkpoints != report.checkpoints_verified {
        return Some("traced checkpoint count differs from the replay's".to_string());
    }
    if traced.per_event.len() != report.per_event.len() {
        return Some("traced event count differs from the replay's".to_string());
    }
    for (i, (t, r)) in traced.per_event.iter().zip(&report.per_event).enumerate() {
        if (t.messages, t.bits, t.time) != (r.messages, r.bits, r.time) {
            return Some(format!("event {i}: traced cost {t:?} differs from the replay's {r:?}"));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Layer probes on the final forest
// ---------------------------------------------------------------------------

/// Per-layer figures measured by calling one layer's public function at a time.
#[derive(Default)]
struct Probes {
    find_min_iterations: f64,
    find_min_narrowings: f64,
    find_min_msgs: f64,
    find_min_s: f64,
    test_out_s: Vec<f64>,
    test_out_keys: f64,
    odd_hash_ns_per_key: f64,
    wave_ns_per_msg: f64,
    run_fixed_s: f64,
    network_new_s: f64,
    build_mst_s: f64,
    build_mst_msgs: f64,
    ghs_s: f64,
}

fn repair_config(seed: u64) -> NetworkConfig {
    NetworkConfig { scheduler: crate::spec::SCHEDULER, seed, ..NetworkConfig::default() }
}

/// Probes each layer on the final graph and forest (and `build_mst` / GHS on
/// the base graph), spending about `budget_s` seconds.
fn probe(base: &Graph, forest: &MaintainedForest, seed: u64, budget_s: f64) -> Probes {
    let mut p = Probes::default();
    let config = KktConfig::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x009E_0BE5);
    let graph = forest.network().graph().clone();
    let tree = forest.tree_edges();
    let share = budget_s / 6.0;

    // congest.model: Network::new on the final graph.
    let news = repeat(3, 50, share / 4.0, || {
        let g = graph.clone();
        let t = Instant::now();
        std::hint::black_box(Network::new(g, repair_config(seed)));
        t.elapsed().as_secs_f64()
    });
    p.network_new_s = median(&news);

    let mut net = Network::new(graph.clone(), repair_config(seed));
    net.mark_all(&tree);
    let Some(&first) = tree.first() else { return p };
    let (u0, _) = forest.endpoints(first);

    // congest.broadcast_echo: one TreeStats wave over the whole tree of u0.
    let mut wave_msgs = 0;
    let waves = repeat(3, 200, share, || {
        let before = net.cost().messages;
        let t = Instant::now();
        std::hint::black_box(run_broadcast_echo(&mut net, u0, TreeStats).expect("wave"));
        let elapsed = t.elapsed().as_secs_f64();
        wave_msgs = net.cost().messages - before;
        elapsed
    });
    p.wave_ns_per_msg = ratio(median(&waves) * 1e9, wave_msgs as f64);

    // congest.engine: the fixed cost of one engine run, a wave over one edge.
    let mut one = Network::new(graph.clone(), repair_config(seed));
    one.mark(first);
    let runs = repeat(50, 20_000, share / 2.0, || {
        let t = Instant::now();
        std::hint::black_box(run_broadcast_echo(&mut one, u0, TreeStats).expect("wave"));
        t.elapsed().as_secs_f64()
    });
    p.run_fixed_s = median(&runs);

    // core.find_min and core.test_out: cut a random tree edge, search the
    // fragment of one endpoint, restore the edge.
    let start = Instant::now();
    let mut cuts = 0;
    while cuts < 4 || (cuts < 256 && start.elapsed().as_secs_f64() < 2.0 * share) {
        cuts += 1;
        let e = tree[rng.gen_range(0..tree.len())];
        let (u, _) = forest.endpoints(e);
        net.unmark(e);
        let before = net.cost().messages;
        let t = Instant::now();
        let (_, trace) = find_min_traced(&mut net, u, &config, &mut rng).expect("find_min");
        p.find_min_s += t.elapsed().as_secs_f64();
        p.find_min_msgs += (net.cost().messages - before) as f64;
        p.find_min_iterations += f64::from(trace.iterations);
        p.find_min_narrowings += f64::from(trace.narrowings);

        let stats = run_broadcast_echo(&mut net, u, TreeStats).expect("wave");
        let interval = WeightInterval::up_to_raw(stats.max_weight, net.id_bits());
        let w = config.effective_word_width(net.node_count());
        let t = Instant::now();
        std::hint::black_box(
            wide_test_out(&mut net, u, interval, w, config.testout_repeats, &mut rng)
                .expect("test_out"),
        );
        p.test_out_s.push(t.elapsed().as_secs_f64());
        p.test_out_keys += stats.degree_sum as f64;
        net.mark(e);
    }
    p.test_out_keys /= cuts as f64;

    // hashing.odd_hash: parity over every incident key of the final graph.
    let keys: Vec<u64> = (0..net.node_count())
        .flat_map(|x| net.view(x).incident_keys().collect::<Vec<_>>())
        .collect();
    let hash = OddHash::random(&mut rng);
    let parities = repeat(3, 10_000, share / 2.0, || {
        let t = Instant::now();
        std::hint::black_box(hash.parity(std::hint::black_box(&keys).iter().copied()));
        t.elapsed().as_secs_f64()
    });
    p.odd_hash_ns_per_key = ratio(median(&parities) * 1e9, keys.len() as f64);

    // core.build_mst and baselines.ghs_sync on the base graph.
    let sync =
        NetworkConfig { scheduler: Scheduler::Synchronous, seed, ..NetworkConfig::default() };
    let builds = repeat(1, 5, share / 2.0, || {
        let mut net = Network::new(base.clone(), sync);
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Instant::now();
        build_mst(&mut net, &config, &mut rng).expect("build_mst");
        let elapsed = t.elapsed().as_secs_f64();
        p.build_mst_msgs = net.cost().messages as f64;
        elapsed
    });
    p.build_mst_s = median(&builds);
    let ghs = repeat(1, 5, share / 2.0, || {
        let mut net = Network::new(base.clone(), sync);
        let t = Instant::now();
        std::hint::black_box(build_mst_ghs(&mut net));
        t.elapsed().as_secs_f64()
    });
    p.ghs_s = median(&ghs);
    p
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

/// Fleet-level figures of the traced fleet pass.
#[derive(Default)]
struct FleetFigures {
    cell_ms: Vec<f64>,
    busy_ratio: f64,
}

/// Emits every per-layer metric, in `BENCHMARK.json` order.
#[allow(clippy::too_many_arguments)]
fn push_layer_metrics(
    result: &mut RunResult,
    setup: [f64; 2],
    tr: &Tracer,
    traced: &TracedReplay,
    probes: &Probes,
    phases: &PhaseLedger,
    fleet: &FleetFigures,
    traced_s: f64,
    untraced_s: f64,
) {
    let self_s = tr.self_times();
    let self_of = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let (rounds, searches, severed, batch_msgs) = traced.batch;
    let metrics = traced.forest.metrics();
    let hist = metrics.and_then(|m| m.histogram("findmin_narrowing_iterations"));
    let calls = hist.map_or(0, |h| h.count()) as f64;
    let iterations = hist.map_or(0, |h| h.sum()) as f64;
    let find_min_msgs = traced.phases.get(Phase::FindMinNarrow).messages as f64;
    let checkpoints = traced.checkpoints as f64;

    result.push("workloads.scenarios.generate_s", setup[1], "s");
    result.push("graphs.generators.base_graph_s", setup[0], "s");
    result.push(
        "graphs.oracle.apply_ns_per_primitive",
        ratio(tr.total(ORACLE_APPLY) * 1e9, traced.primitives as f64),
        "ns",
    );
    result.push(
        "graphs.oracle.verify_ms_per_checkpoint",
        ratio(tr.total(ORACLE_VERIFY) * 1e3, checkpoints),
        "ms",
    );
    for label in OUTCOMES {
        let count = traced.outcomes.get(label).map_or(0, |o| o.0);
        result.push(format!("core.maintained.updates.{label}"), count as f64, "count");
    }
    for label in OUTCOMES {
        let p50 = traced.outcomes.get(label).map_or(0.0, |o| median(&o.1));
        result.push(format!("core.maintained.update_p50_us.{label}"), p50 * 1e6, "us");
    }
    result.push("core.find_min.calls", calls, "count");
    result.push("core.find_min.iterations_per_call", ratio(iterations, calls), "count");
    result.push(
        "core.find_min.narrowing_ratio",
        ratio(probes.find_min_narrowings, probes.find_min_iterations),
        "ratio",
    );
    result.push("core.find_min.msgs_per_call", ratio(find_min_msgs, calls), "msgs");
    result.push(
        "core.find_min.ns_per_iteration",
        ratio(probes.find_min_s * 1e9, probes.find_min_iterations),
        "ns",
    );
    result.push(
        "core.find_min.ns_per_msg",
        ratio(probes.find_min_s * 1e9, probes.find_min_msgs),
        "ns",
    );
    result.push("core.test_out.us_per_call", median(&probes.test_out_s) * 1e6, "us");
    result.push("core.test_out.keys_per_call", probes.test_out_keys, "count");
    result.push("hashing.odd_hash.ns_per_key", probes.odd_hash_ns_per_key, "ns");
    result.push("congest.broadcast_echo.ns_per_msg", probes.wave_ns_per_msg, "ns");
    result.push("congest.engine.run_fixed_us", probes.run_fixed_s * 1e6, "us");
    result.push("congest.model.network_new_ms", probes.network_new_s * 1e3, "ms");
    result.push("core.batch.flush_s", tr.total(APPLY_BATCH), "s");
    result.push("core.batch.rounds", rounds as f64, "count");
    result.push("core.batch.searches", searches as f64, "count");
    result.push("core.batch.severed", severed as f64, "count");
    result.push("core.batch.msgs_per_search", ratio(batch_msgs as f64, searches as f64), "msgs");
    result.push("core.build_mst.s", probes.build_mst_s, "s");
    result.push("core.build_mst.msgs", probes.build_mst_msgs, "msgs");
    result.push("baselines.ghs_sync.ms_per_rebuild", probes.ghs_s * 1e3, "ms");
    for phase in [
        Phase::FindMinNarrow,
        Phase::FindAnySample,
        Phase::BroadcastEcho,
        Phase::Announce,
        Phase::LeaderElection,
        Phase::RebuildSweep,
        Phase::Delivery,
    ] {
        let msgs = phases.get(phase).messages as f64;
        result.push(format!("obs.phase.{}.msgs", phase.label()), msgs, "msgs");
    }
    result.push("bench.fleet.cell_p50_ms", median(&fleet.cell_ms), "ms");
    result.push("bench.fleet.cell_max_ms", fleet.cell_ms.iter().copied().fold(0.0, f64::max), "ms");
    result.push("bench.fleet.busy_ratio", fleet.busy_ratio, "ratio");
    // Self time of each layer below the replay loop; with the residual they
    // add up to the traced replay's duration.
    result.push("core.maintained.build_self_s", self_of(BUILD), "s");
    result.push("graphs.oracle.new_self_s", self_of(ORACLE_NEW), "s");
    result.push("graphs.oracle.apply_self_s", self_of(ORACLE_APPLY), "s");
    result.push("core.maintained.apply_self_s", self_of(APPLY_UPDATE) + self_of(APPLY_BATCH), "s");
    result.push("graphs.oracle.verify_self_s", self_of(ORACLE_VERIFY), "s");
    result.push("workloads.replay.residual_s", self_of(REPLAY) + self_of(EVENT), "s");
    result.push("workloads.replay.traced_s", tr.total(REPLAY), "s");
    result.push("trace.overhead_ratio", ratio(traced_s, untraced_s), "ratio");
}

/// Prints how the time of the root span `root` splits over the layers.
fn print_accounting(tr: &Tracer, root: &str) {
    let total = tr.total(root);
    eprintln!("  {root}: {total:.6} s; self time per span name:");
    let mut sum = 0.0;
    for (name, s) in tr.self_times() {
        sum += s;
        eprintln!("    {name:<36} {s:>12.6} s  {:>6.2}%", 100.0 * ratio(s, total));
    }
    eprintln!("    {:<36} {sum:>12.6} s (sum of self times)", "");
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// The per-layer metrics of a workload.
pub fn run(kind: WorkloadKind, seed: u64, seconds: f64) -> RunResult {
    match kind.replay_spec() {
        Some(spec) => run_replay(kind, spec, seed, seconds),
        None => run_fleet(seed, seconds),
    }
}

fn run_replay(kind: WorkloadKind, spec: ReplaySpec, seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let started = Instant::now();
    let setup = spec.setup(seed);
    let harness = spec.harness(seed);

    // Untraced reference replay.
    let t = Instant::now();
    let reference = harness.replay(&setup.base, &setup.workload, spec.policy);
    let untraced_s = t.elapsed().as_secs_f64();
    let reference = match reference {
        Ok(report) => {
            result.check(check_pinned(kind, seed, &SimTotals::of_report(&report)));
            report
        }
        Err(e) => {
            result.check(Some(format!("replay failed: {e}")));
            return result;
        }
    };

    let mut tr = Tracer::new();
    let options = options_of(&harness);
    let traced = match traced_replay(&mut tr, &setup.base, &setup.workload, options, spec.policy) {
        Ok(traced) => traced,
        Err(e) => {
            result.check(Some(e));
            return result;
        }
    };
    result.check(compare(&traced, &reference));
    let traced_s = tr.total(REPLAY);

    let budget = (seconds - started.elapsed().as_secs_f64()).max(1.0);
    let probes = probe(&setup.base, &traced.forest, seed, budget);
    result.check(tr.write(&format!("spans-{}-{seed}.jsonl", kind.name())).err());

    eprintln!("{} seed {seed} (traced): untraced replay {untraced_s:.6} s", kind.name());
    print_accounting(&tr, REPLAY);
    push_layer_metrics(
        &mut result,
        [setup.base_graph_s, setup.generate_s],
        &tr,
        &traced,
        &probes,
        &traced.phases,
        &FleetFigures::default(),
        traced_s,
        untraced_s,
    );
    result
}

/// Fleet observer for the traced pass: timestamps plus the phase ledger.
struct FleetObserver {
    stamps: Stamps,
    phases: PhaseLedger,
}

impl Observer for FleetObserver {
    fn on_event(&mut self, record: &TraceRecord) {
        self.stamps.on_event(record);
        self.phases += record.phases;
    }
}

fn run_fleet(seed: u64, seconds: f64) -> RunResult {
    let kind = WorkloadKind::FleetQuick;
    let mut result = RunResult::default();
    let started = Instant::now();
    let params = fleet::params(seed);
    let threads = fleet::threads();
    let (_, setup) = fleet::generate_inputs(&params);

    let t = Instant::now();
    let report = fleet::run_whole(&params, threads);
    let untraced_s = t.elapsed().as_secs_f64();
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            result.check(Some(e));
            return result;
        }
    };

    // Traced pass: one span per replay, one per observed event.
    let mut tr = Tracer::new();
    let t = Instant::now();
    let pass = fleet::observed_pass(&params, threads, |events| FleetObserver {
        stamps: Stamps::with_capacity(events),
        phases: PhaseLedger::default(),
    });
    let pass_s = t.elapsed().as_secs_f64();
    let runs = match pass {
        Ok(runs) => runs,
        Err(e) => {
            result.check(Some(e));
            return result;
        }
    };
    result.check(fleet::check_report(&report, &runs));
    result.check(check_pinned(kind, seed, &fleet::pass_totals(&runs)));

    let pass_span = tr.record(Span {
        name: "bench.fleet.pass",
        parent: None,
        event: None,
        thread: 0,
        start: t,
        end: t + std::time::Duration::from_secs_f64(pass_s),
    });
    let mut phases = PhaseLedger::default();
    let mut figures = FleetFigures::default();
    for (i, run) in runs.iter().enumerate() {
        let thread = i % threads;
        let cell = tr.record(Span {
            name: "bench.fleet.replay",
            parent: Some(pass_span),
            event: Some(i),
            thread,
            start: run.span.0,
            end: run.span.1,
        });
        for pair in run.observer.stamps.at.windows(2) {
            tr.record(Span {
                name: "bench.fleet.event",
                parent: Some(cell),
                event: Some(i),
                thread,
                start: pair[0],
                end: pair[1],
            });
        }
        figures.cell_ms.push((run.span.1 - run.span.0).as_secs_f64() * 1e3);
        phases += run.observer.phases;
    }
    let busy = figures.cell_ms.iter().fold(0.0, |a, b| a + b) / 1e3;
    figures.busy_ratio = ratio(busy, threads as f64 * pass_s);
    result.check(tr.write(&format!("spans-{}-{seed}.jsonl", kind.name())).err());

    // The layers below the fleet, traced on one representative replay: the
    // densest rung under the adversary, repaired impromptu, first seed.
    let cells = params.aggregate_cells();
    let cell = cells
        .iter()
        .rposition(|c| {
            c.policy == MaintenancePolicy::Impromptu
                && c.scenario == kkt_bench::fleet::FleetScenario::AdversarialTreeCut
        })
        .expect("the fleet has an impromptu adversarial cell");
    let input = fleet::cell_input(&cells[cell], params.mixed_seeds()[0]);
    let mut cell_tr = Tracer::new();
    let options = options_of(&input.harness);
    let traced =
        match traced_replay(&mut cell_tr, &input.base, &input.workload, options, input.policy) {
            Ok(traced) => traced,
            Err(e) => {
                result.check(Some(e));
                return result;
            }
        };
    let budget = (seconds - started.elapsed().as_secs_f64()).max(1.0);
    let probes = probe(&input.base, &traced.forest, seed, budget);

    eprintln!(
        "{} seed {seed} (traced): fleet {untraced_s:.6} s untraced, observed pass {pass_s:.6} s \
         on {threads} threads, busy ratio {:.3}",
        kind.name(),
        figures.busy_ratio
    );
    print_accounting(&tr, "bench.fleet.pass");
    print_accounting(&cell_tr, REPLAY);
    push_layer_metrics(
        &mut result,
        [setup[0], setup[1]],
        &cell_tr,
        &traced,
        &probes,
        &phases,
        &figures,
        pass_s,
        untraced_s,
    );
    result
}

/// The exact simulated totals of `workload` at `seed`, for `pins.json`.
///
/// # Errors
///
/// A failing replay.
pub fn pin_totals(workload: WorkloadKind, seed: u64) -> Result<SimTotals, String> {
    match workload.replay_spec() {
        Some(spec) => {
            let setup = spec.setup(seed);
            spec.harness(seed)
                .replay(&setup.base, &setup.workload, spec.policy)
                .map(|report| SimTotals::of_report(&report))
                .map_err(|e| e.to_string())
        }
        None => fleet::observed_pass(&fleet::params(seed), fleet::threads(), Stamps::with_capacity)
            .map(|runs| fleet::pass_totals(&runs)),
    }
}
