//! The experiment suite: one function per quantitative claim of the paper.
//!
//! Every function is deterministic given its seed, prints nothing, and
//! returns a [`Table`] whose rows are exactly what the corresponding `exp*`
//! binary writes to stdout (and what `EXPERIMENTS.md` records).

use rand::rngs::StdRng;
use rand::SeedableRng;

use kkt_baselines::{build_mst_ghs, build_st_by_flooding, flood_repair_delete};
use kkt_congest::{Network, NetworkConfig, Phase};
use kkt_core::{
    build_mst, build_st, delete_edge_mst, delete_edge_st, find_any_c, find_min_traced, hp_test_out,
    insert_edge_mst, test_out, DeleteOutcome, KktConfig, TreeKind, WeightInterval,
};
use kkt_graphs::{generators, kruskal, Graph};
use kkt_workloads::{
    standard_suite, Density, MaintenancePolicy, MultiEdgeCuts, Scenario, SuiteParams,
};

use crate::fleet::{run_replay_fleet, FleetParams, FleetReport, FleetScenario};
use crate::grid::{run_grid, GridReport, GridSpec};
use crate::stats::ExactSummary;
use crate::table::Table;
use crate::Scale;

/// Mean of an integer sample for table display (0 when empty).
fn mean(values: &[u64]) -> f64 {
    let s = ExactSummary::of_u64(values);
    s.sum as f64 / s.count.max(1) as f64
}

fn fresh_net(g: Graph, seed: u64) -> Network {
    Network::new(g, NetworkConfig { seed, ..NetworkConfig::default() })
}

/// A two-cluster complete graph whose weights force GHS into its Θ(m)
/// rejection-heavy regime (light intra-cluster edges, heavy inter-cluster
/// edges).
pub fn clustered_complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    let mut next = 1u64;
    for u in 0..n {
        for v in (u + 1)..n {
            let same = (u < n / 2) == (v < n / 2);
            let w = if same { next } else { 10_000_000 + next };
            next += 1;
            g.add_edge(u, v, w);
        }
    }
    g
}

/// E1 — MST construction messages: KKT vs GHS vs the edge count `m`
/// (Theorem 1.1 / Lemma 3). Two density regimes per `n`, plus the
/// GHS-adversarial clustered instance.
pub fn exp1_mst_construction(scale: Scale, seed: u64) -> Table {
    let config = KktConfig::default();
    let mut table = Table::new(
        "E1: MST construction messages (KKT O(n log^2 n / log log n) vs GHS O(m + n log n))",
        &["n", "workload", "m", "kkt_msgs", "ghs_msgs", "kkt/n", "ghs/m"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for n in scale.construction_sizes() {
        let workloads: Vec<(&str, Graph)> = vec![
            ("sparse m≈4n", generators::connected_with_edges(n, 4 * n, 1_000, &mut rng)),
            (
                "dense m≈n^1.5",
                generators::connected_with_edges(n, (n as f64).powf(1.5) as usize, 1_000, &mut rng),
            ),
            ("clustered K_n", clustered_complete(n.min(512))),
        ];
        for (name, g) in workloads {
            let n_actual = g.node_count();
            let m = g.edge_count() as u64;
            let mut kkt_net = fresh_net(g.clone(), seed ^ 1);
            let mut r = StdRng::seed_from_u64(seed ^ 2);
            build_mst(&mut kkt_net, &config, &mut r).expect("construction converges");
            kkt_graphs::verify_mst(kkt_net.graph(), &kkt_net.marked_forest_snapshot()).unwrap();
            let kkt_msgs = kkt_net.cost().messages;

            let mut ghs_net = fresh_net(g, seed ^ 3);
            build_mst_ghs(&mut ghs_net);
            kkt_graphs::verify_mst(ghs_net.graph(), &ghs_net.marked_forest_snapshot()).unwrap();
            let ghs_msgs = ghs_net.cost().messages;

            table.push_row(vec![
                n_actual.to_string(),
                name.to_string(),
                m.to_string(),
                kkt_msgs.to_string(),
                ghs_msgs.to_string(),
                format!("{:.1}", kkt_msgs as f64 / n_actual as f64),
                format!("{:.2}", ghs_msgs as f64 / m as f64),
            ]);
        }
    }
    table
}

/// E2 — ST construction messages: KKT `Build ST` vs flooding (Theorem 1.1 /
/// Lemma 6 vs the Ω(m) folk theorem).
pub fn exp2_st_construction(scale: Scale, seed: u64) -> Table {
    let config = KktConfig::default();
    let mut table = Table::new(
        "E2: ST construction messages (KKT O(n log n) vs flooding Θ(m))",
        &["n", "m", "kkt_msgs", "flood_msgs", "kkt/(n lg n)", "flood/m"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for n in scale.construction_sizes() {
        let m_target = ((n as f64).powf(1.5) as usize).max(4 * n);
        let g = generators::connected_with_edges(n, m_target, 1, &mut rng);
        let m = g.edge_count() as u64;

        let mut kkt_net = fresh_net(g.clone(), seed ^ 11);
        let mut r = StdRng::seed_from_u64(seed ^ 12);
        build_st(&mut kkt_net, &config, &mut r).expect("construction converges");
        kkt_graphs::verify_spanning_forest(kkt_net.graph(), &kkt_net.marked_forest_snapshot())
            .unwrap();
        let kkt_msgs = kkt_net.cost().messages;

        let mut flood_net = fresh_net(g, seed ^ 13);
        build_st_by_flooding(&mut flood_net, 0).unwrap();
        let flood_msgs = flood_net.cost().messages;

        let nlogn = n as f64 * (n as f64).log2();
        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            kkt_msgs.to_string(),
            flood_msgs.to_string(),
            format!("{:.2}", kkt_msgs as f64 / nlogn),
            format!("{:.2}", flood_msgs as f64 / m as f64),
        ]);
    }
    table
}

/// E3 — impromptu MST repair: expected messages per tree-edge deletion and
/// per insertion vs the flood-repair baseline (Theorem 1.2 / Lemma 2).
pub fn exp3_mst_repair(scale: Scale, seed: u64) -> Table {
    let config = KktConfig::default();
    let mut table = Table::new(
        "E3: MST repair messages per update (impromptu O(n log n / log log n) vs flooding Θ(m))",
        &["n", "m", "delete_kkt(mean)", "delete_flood(mean)", "insert_kkt(mean)", "kkt/n"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for n in scale.repair_sizes() {
        let m_target = ((n as f64).powf(1.5) as usize).max(4 * n);
        let g = generators::connected_with_edges(n, m_target, 1_000, &mut rng);
        let m = g.edge_count() as u64;
        let mst = kruskal(&g);
        let trials = scale.trials().max(3);

        let mut kkt_deletes = Vec::new();
        let mut flood_deletes = Vec::new();
        let mut kkt_inserts = Vec::new();
        for t in 0..trials {
            // KKT delete + re-insert cycle, asynchronous delivery.
            let mut net = Network::new(g.clone(), NetworkConfig::asynchronous(seed ^ t as u64, 8));
            net.mark_all(&mst.edges);
            let mut r = StdRng::seed_from_u64(seed ^ (100 + t as u64));
            let victim = mst.edges[(t * 7919) % mst.edges.len()];
            let edge = *net.graph().edge(victim);
            let before = net.cost();
            let outcome = delete_edge_mst(&mut net, edge.u, edge.v, &config, &mut r).unwrap();
            assert!(!matches!(outcome, DeleteOutcome::NotATreeEdge));
            kkt_deletes.push((net.cost() - before).messages);

            let before = net.cost();
            insert_edge_mst(&mut net, edge.u, edge.v, edge.weight, &config).unwrap();
            kkt_inserts.push((net.cost() - before).messages);
            kkt_graphs::verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();

            // Flood-repair baseline on the same deletion.
            let mut base = Network::new(g.clone(), NetworkConfig::synchronous(seed ^ t as u64));
            base.mark_all(&mst.edges);
            let outcome = flood_repair_delete(&mut base, edge.u, edge.v).unwrap();
            flood_deletes.push(outcome.messages);
        }
        let kd = mean(&kkt_deletes);
        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            format!("{kd:.0}"),
            format!("{:.0}", mean(&flood_deletes)),
            format!("{:.0}", mean(&kkt_inserts)),
            format!("{:.1}", kd / n as f64),
        ]);
    }
    table
}

/// E4 — impromptu ST repair: expected messages per tree-edge deletion
/// (Theorem 1.2 / Lemma 5: O(n)).
pub fn exp4_st_repair(scale: Scale, seed: u64) -> Table {
    let config = KktConfig::default();
    let mut table = Table::new(
        "E4: ST repair messages per deleted tree edge (expected O(n))",
        &["n", "m", "delete_st(mean)", "delete_st(max)", "mean/n"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for n in scale.repair_sizes() {
        let g = generators::connected_with_edges(n, 6 * n, 1, &mut rng);
        let m = g.edge_count() as u64;
        let st = kruskal(&g);
        let trials = scale.trials().max(3);
        let mut costs = Vec::new();
        for t in 0..trials {
            let mut net = Network::new(g.clone(), NetworkConfig::asynchronous(seed ^ t as u64, 8));
            net.mark_all(&st.edges);
            let mut r = StdRng::seed_from_u64(seed ^ (200 + t as u64));
            let victim = st.edges[(t * 104729) % st.edges.len()];
            let edge = *net.graph().edge(victim);
            let before = net.cost();
            delete_edge_st(&mut net, edge.u, edge.v, &config, &mut r).unwrap();
            costs.push((net.cost() - before).messages);
            kkt_graphs::verify_spanning_forest(net.graph(), &net.marked_forest_snapshot()).unwrap();
        }
        let s = mean(&costs);
        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            format!("{s:.0}"),
            ExactSummary::of_u64(&costs).max.to_string(),
            format!("{:.2}", s / n as f64),
        ]);
    }
    table
}

/// E5 — primitive success probabilities: TestOut detection rate per cut size
/// (claim: ≥ 1/8, one-sided) and HP-TestOut miss rate (claim: ≤ ε(n) ≈ 0).
pub fn exp5_testout_probability(scale: Scale, seed: u64) -> Table {
    let mut table = Table::new(
        "E5: TestOut / HP-TestOut detection rates (Lemma 1, §2)",
        &["cut_size", "trials", "testout_rate", "hp_rate", "false_positives"],
    );
    let trials = scale.probability_trials();
    let mut rng = StdRng::seed_from_u64(seed);
    for cut_size in [0usize, 1, 2, 4, 16, 64] {
        // Two 8-node paths with `cut_size` extra edges between them.
        let mut g = Graph::new(16);
        let mut marked = Vec::new();
        for i in 0..7 {
            marked.push(g.add_edge(i, i + 1, 1).unwrap());
            marked.push(g.add_edge(8 + i, 8 + i + 1, 1).unwrap());
        }
        let mut added = 0;
        'outer: for a in 0..8usize {
            for b in 8..16usize {
                if added >= cut_size {
                    break 'outer;
                }
                if g.add_edge(a, b, 10 + (a * 16 + b) as u64).is_some() {
                    added += 1;
                }
            }
        }
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&marked);
        let mut testout_hits = 0u64;
        let mut hp_hits = 0u64;
        let mut false_positives = 0u64;
        for _ in 0..trials {
            let t = test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap();
            let h = hp_test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap();
            if t {
                testout_hits += 1;
                if cut_size == 0 {
                    false_positives += 1;
                }
            }
            if h {
                hp_hits += 1;
                if cut_size == 0 {
                    false_positives += 1;
                }
            }
        }
        table.push_row(vec![
            cut_size.to_string(),
            trials.to_string(),
            format!("{:.3}", testout_hits as f64 / trials as f64),
            format!("{:.3}", hp_hits as f64 / trials as f64),
            false_positives.to_string(),
        ]);
    }
    table
}

/// E6 — FindAny-C success rate (claim: ≥ 1/16 per attempt) and FindMin
/// broadcast-and-echo count scaling (claim: `O(log n / log log n)`).
pub fn exp6_find_primitives(scale: Scale, seed: u64) -> Table {
    let config = KktConfig::default();
    let mut table = Table::new(
        "E6: FindAny-C success rate and FindMin search iterations",
        &["n", "findany_c_rate", "findmin_iters(mean)", "findmin_be(mean)", "lg(n)/lglg(n)"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for n in scale.construction_sizes() {
        let g = generators::connected_with_edges(n, 4 * n, 1_000, &mut rng);
        let mst = kruskal(&g);
        let trials = (scale.trials() * 10).max(20);
        let mut successes = 0u64;
        let mut iterations = Vec::new();
        let mut broadcast_echoes = Vec::new();
        for t in 0..trials {
            let mut net = Network::new(g.clone(), NetworkConfig::synchronous(seed ^ t as u64));
            // Mark half the MST so the fragment of node 0 has outgoing edges.
            net.mark_all(&mst.edges[..mst.edges.len() / 2]);
            let mut r = StdRng::seed_from_u64(seed ^ (300 + t as u64));
            if find_any_c(&mut net, 0, &config, &mut r).unwrap().is_some() {
                successes += 1;
            }
            let before = net.cost();
            let (outcome, trace) = find_min_traced(&mut net, 0, &config, &mut r).unwrap();
            assert!(outcome.edge().is_some());
            iterations.push(trace.iterations as u64);
            broadcast_echoes.push((net.cost() - before).broadcast_echoes);
        }
        let lg = (n as f64).log2();
        table.push_row(vec![
            n.to_string(),
            format!("{:.2}", successes as f64 / trials as f64),
            format!("{:.1}", mean(&iterations)),
            format!("{:.1}", mean(&broadcast_echoes)),
            format!("{:.1}", lg / lg.log2()),
        ]);
    }
    table
}

/// E7 — superpolynomial edge weights (Appendix A / Theorem A.1): FindMin with
/// weights drawn from ever larger universes; the iteration count grows like
/// `log(maxWt)/log w`, not like `log(maxWt)`.
pub fn exp7_superpoly_weights(scale: Scale, seed: u64) -> Table {
    let config = KktConfig::default();
    let mut table = Table::new(
        "E7: FindMin under growing weight universes (Appendix A)",
        &["n", "weight_bits", "iters(mean)", "narrowings(mean)", "lg(maxWt)/lg(w)"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let n = *scale.construction_sizes().last().unwrap_or(&256);
    for weight_bits in [8u32, 16, 32, 48, 63] {
        let max_weight = if weight_bits >= 63 { u64::MAX / 2 } else { (1u64 << weight_bits) - 1 };
        let g = generators::connected_with_edges(n, 4 * n, max_weight, &mut rng);
        let mst = kruskal(&g);
        let trials = scale.trials().max(3);
        let mut iters = Vec::new();
        let mut narrowings = Vec::new();
        for t in 0..trials {
            let mut net = Network::new(g.clone(), NetworkConfig::synchronous(seed ^ t as u64));
            net.mark_all(&mst.edges[..mst.edges.len() / 2]);
            let mut r = StdRng::seed_from_u64(seed ^ (400 + t as u64));
            let (outcome, trace) = find_min_traced(&mut net, 0, &config, &mut r).unwrap();
            assert!(outcome.edge().is_some());
            iters.push(trace.iterations as u64);
            narrowings.push(trace.narrowings as u64);
        }
        let w = config.effective_word_width(n) as f64;
        let total_bits = weight_bits as f64 + 2.0 * (n as f64).log2().ceil();
        table.push_row(vec![
            n.to_string(),
            weight_bits.to_string(),
            format!("{:.1}", mean(&iters)),
            format!("{:.1}", mean(&narrowings)),
            format!("{:.1}", total_bits / w.log2()),
        ]);
    }
    table
}

/// E8 — density crossover at fixed `n`: messages of KKT construction vs the
/// baselines as `m/n` grows (the "o(m)" headline).
pub fn exp8_density_crossover(scale: Scale, seed: u64) -> Table {
    let config = KktConfig::default();
    let n = match scale {
        Scale::Quick => 192,
        Scale::Large => 1024,
    };
    let mut table = Table::new(
        "E8: density sweep at fixed n — messages vs m (who wins where)",
        &["n", "m", "kkt_mst", "ghs(clustered)", "kkt_st", "flooding"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let densities: Vec<usize> = match scale {
        Scale::Quick => vec![2, 8, 32, usize::MAX],
        Scale::Large => vec![2, 4, 8, 16, 32, 64, 128, usize::MAX],
    };
    for avg_degree in densities {
        let m_target = if avg_degree == usize::MAX {
            n * (n - 1) / 2
        } else {
            (n * avg_degree / 2).min(n * (n - 1) / 2)
        };
        let weighted = generators::connected_with_edges(n, m_target, 1_000, &mut rng);
        let m = weighted.edge_count() as u64;

        let mut kkt_net = fresh_net(weighted.clone(), seed ^ 21);
        let mut r = StdRng::seed_from_u64(seed ^ 22);
        build_mst(&mut kkt_net, &config, &mut r).unwrap();
        let kkt_mst = kkt_net.cost().messages;

        // GHS on a rejection-heavy instance with the same m (clustered
        // weights laid over the same topology).
        let mut clustered = weighted.clone();
        for e in clustered.live_edges().collect::<Vec<_>>() {
            let edge = *clustered.edge(e);
            let same = (edge.u < n / 2) == (edge.v < n / 2);
            let w = if same { 1 + e.0 as u64 } else { 10_000_000 + e.0 as u64 };
            clustered.set_weight(edge.u, edge.v, w);
        }
        let mut ghs_net = fresh_net(clustered, seed ^ 23);
        build_mst_ghs(&mut ghs_net);
        let ghs = ghs_net.cost().messages;

        let mut st_net = fresh_net(weighted.clone(), seed ^ 24);
        let mut r = StdRng::seed_from_u64(seed ^ 25);
        build_st(&mut st_net, &config, &mut r).unwrap();
        let kkt_st = st_net.cost().messages;

        let mut flood_net = fresh_net(weighted, seed ^ 26);
        build_st_by_flooding(&mut flood_net, 0).unwrap();
        let flooding = flood_net.cost().messages;

        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            kkt_mst.to_string(),
            ghs.to_string(),
            kkt_st.to_string(),
            flooding.to_string(),
        ]);
    }
    table
}

/// Keeps the rungs of size `only_n` (every rung for `None`) — the one
/// restriction guard of the `KKT_EXP*_N` variables. An unmatched restriction
/// must fail loudly: an empty grid would exit 0 with an empty report, and the
/// CI byte-compare would green-light two trivially identical files.
fn restrict<T>(rungs: Vec<T>, only_n: Option<usize>, n_of: impl Fn(&T) -> usize) -> Vec<T> {
    let sizes: Vec<usize> = rungs.iter().map(&n_of).collect();
    let kept: Vec<T> = rungs.into_iter().filter(|r| only_n.is_none_or(|n| n == n_of(r))).collect();
    assert!(!kept.is_empty(), "restriction to n = {only_n:?} matches no rung of {sizes:?}");
    kept
}

/// The shared view of a [`GridReport`] as a cost table: one row per cell,
/// with its bits compared against the `baseline` policy on the same inputs.
fn cost_table(title: &str, report: &GridReport, baseline: &str) -> Table {
    let vs = format!("vs_{baseline}(bits)");
    let mut table = Table::new(
        title,
        &[
            "n",
            "m",
            "m/n",
            "scenario",
            "policy",
            "events",
            "msgs_total",
            "bits_total",
            "time_total",
            "bits/event",
            "msgs/event",
            &vs,
            "checkpoints",
        ],
    );
    for cell in &report.cells {
        let total = cell.total();
        let events = cell.events.len().max(1) as f64;
        let base_bits = report.peer(cell, baseline).map_or(0, |b| b.total().bits).max(1);
        table.push_row(vec![
            cell.n.to_string(),
            cell.m.to_string(),
            format!("{:.1}", cell.m as f64 / cell.n as f64),
            cell.scenario.clone(),
            cell.policy.clone(),
            cell.events.len().to_string(),
            total.messages.to_string(),
            total.bits.to_string(),
            total.time.to_string(),
            format!("{:.0}", total.bits as f64 / events),
            format!("{:.0}", total.messages as f64 / events),
            format!("{:.3}x", total.bits as f64 / base_bits as f64),
            cell.checkpoints_verified.to_string(),
        ]);
    }
    table
}

/// The churn regimes of the scale and density grids: steady Poisson churn
/// (how often does churn hit the tree?) and the adversary that severs a tree
/// edge on every deletion (what does a forced repair cost?).
fn churn_regimes() -> Vec<Box<dyn Scenario>> {
    FleetScenario::generators(SuiteParams::default().max_weight)
}

/// E9 — churn policies: the standard scenario battery (Poisson churn,
/// adversarial tree-cut, partition-and-heal, weight drift, mixed lifecycle)
/// replayed under impromptu repair vs rebuild-from-scratch policies. The
/// amortised version of the repair theorems: over a long trace, repairing
/// beats rebuilding by roughly the ratio of `Õ(n)` to the construction cost.
///
/// Returns the printable table *and* the sealed report (the
/// `exp9_churn_policies` binary prints the former to stderr and the latter
/// to stdout).
pub fn exp9_churn_policies(scale: Scale, seed: u64, threads: usize) -> (Table, GridReport) {
    let rung = match scale {
        Scale::Quick => SuiteParams { events: 12, ..SuiteParams::default() },
        // The large tier runs the whole battery at n = 1024 through the
        // `scale_preset` ladder.
        Scale::Large => SuiteParams::scale_preset(1024),
    };
    let spec = GridSpec {
        rungs: vec![rung],
        scenarios: standard_suite(rung.max_weight),
        policies: MaintenancePolicy::all_for(rung.kind),
        seeds: vec![seed],
    };
    let report = run_grid(&spec, threads);
    let title = "E9: churn policies — impromptu repair vs rebuild, total cost over the whole trace";
    (cost_table(title, &report, "rebuild_kkt"), report)
}

/// E10 — batched repair: `multi_edge_cuts` bursts severing `k` independent
/// tree edges at once, replayed under sequential impromptu repair, the
/// batched repair pipeline, and rebuild-from-scratch, for `k ∈ {1..16}`.
/// This is the crossover the ROADMAP flagged after exp9: sequential repairs
/// lose to one rebuild on bursts, so batching is where o(m) maintenance
/// either wins or dies under churn.
///
/// Returns the printable table *and* the sealed report (CI asserts the JSON
/// is byte-identical across runs and thread counts).
pub fn exp10_batched_repair(scale: Scale, seed: u64, threads: usize) -> (Table, GridReport) {
    let (n, m, events, burst_sizes): (usize, usize, usize, Vec<usize>) = match scale {
        Scale::Quick => (48, 4 * 48, 6, vec![1, 2, 4, 8]),
        Scale::Large => (128, 8 * 128, 10, vec![1, 2, 4, 8, 16]),
    };
    let rung = SuiteParams { n, m, events, verify_every: 2, ..SuiteParams::default() };
    let spec = GridSpec {
        rungs: vec![rung],
        scenarios: burst_sizes
            .into_iter()
            .map(|k| {
                Box::new(MultiEdgeCuts { burst_size: k, max_weight: rung.max_weight })
                    as Box<dyn Scenario>
            })
            .collect(),
        policies: vec![
            MaintenancePolicy::Impromptu,
            MaintenancePolicy::BatchedRepair,
            MaintenancePolicy::RebuildKkt,
        ],
        seeds: vec![seed],
    };
    let report = run_grid(&spec, threads);
    let title = "E10: batched repair — sequential vs batched vs rebuild on k simultaneous cuts";
    (cost_table(title, &report, "impromptu_repair"), report)
}

/// E11 — the scale sweep: Poisson churn and adversarial tree cuts
/// instantiated at a ladder of network sizes (the `SuiteParams::scale_preset`
/// rungs), replayed under all four MST policies, pricing **bits per event
/// vs n**. This is the regime where the paper's asymptotics either show up
/// or don't: at n ≤ 200 constant factors drown the
/// `O(n log²n / log log n)`-vs-`Θ(m)` separation, at n ≥ 1024 the per-event
/// repair bill has to grow visibly slower than the rebuild baselines'.
///
/// `only_n` restricts the sweep to a single rung (the `KKT_EXP11_N`
/// environment variable in the binary) — CI uses it to run the large rungs
/// twice inside a wall-clock budget and assert byte-identical reports.
pub fn exp11_scale_sweep(
    scale: Scale,
    seed: u64,
    only_n: Option<usize>,
    threads: usize,
) -> (Table, GridReport) {
    let spec = GridSpec {
        rungs: restrict(scale.scale_sweep_sizes(), only_n, |&n| n)
            .into_iter()
            .map(SuiteParams::scale_preset)
            .collect(),
        scenarios: churn_regimes(),
        policies: MaintenancePolicy::all_for(TreeKind::Mst),
        seeds: vec![seed],
    };
    let report = run_grid(&spec, threads);
    let title = "E11: scale sweep — bits per event vs n, repair policies vs rebuild baselines";
    (cost_table(title, &report, "rebuild_kkt"), report)
}

/// The E13/E14 grid: both churn regimes under every MST policy at every
/// rung of the `m/n ∈ {2, 4, 8, 16, n/8, n/2}` ladder ([`Density::LADDER`])
/// for each grid size `n`, optionally restricted to one size.
fn density_grid(scale: Scale, seed: u64, only_n: Option<usize>) -> GridSpec {
    GridSpec {
        rungs: restrict(scale.density_grid_sizes(), only_n, |&n| n)
            .into_iter()
            .flat_map(|n| Density::LADDER.map(|d| SuiteParams::density_preset(n, d)))
            .collect(),
        scenarios: churn_regimes(),
        policies: MaintenancePolicy::all_for(TreeKind::Mst),
        seeds: vec![seed],
    }
}

/// E13 — the dynamic density sweep: where does rebuild-from-scratch stop
/// being competitive *under churn*? E8 located the static construction
/// crossover (messages vs `m` for one build); E13 replays churn across the
/// whole `n × m/n` grid. Repair policies price `Õ(n)` per event independent
/// of density; `rebuild_ghs` is `O(m + n log n)` per event, so its bits grow
/// linearly along the ladder — the per-family crossover (tabulated in
/// `EXPERIMENTS.md` §E13) is where those curves cross.
///
/// `only_n` restricts the sweep to one grid size (the `KKT_EXP13_N`
/// environment variable in the binary) — CI runs the n = 256 column (whose
/// densest rung is the complete graph `K_256`) twice inside a wall-clock
/// budget and asserts byte-identical reports.
pub fn exp13_dynamic_density(
    scale: Scale,
    seed: u64,
    only_n: Option<usize>,
    threads: usize,
) -> (Table, GridReport) {
    let report = run_grid(&density_grid(scale, seed, only_n), threads);
    let title = "E13: dynamic density sweep — bits per event vs m/n, repair vs rebuild under churn";
    (cost_table(title, &report, "rebuild_kkt"), report)
}

/// E14 — the cost anatomy: *where do the bits go?* The E13 grid viewed
/// through each cell's phase ledger, decomposing every policy's bits per
/// event into the paper's phases (delivery, broadcast-echo, leader election,
/// `FindMin` narrowing, `FindAny` sampling, announce, rebuild sweep). The
/// runner asserts each ledger conserves against the replay's totals, so
/// E14's rows reconcile exactly with E13's. Repair policies should be
/// dominated by `FindMin`/`FindAny` searches with a density-independent
/// announce tail, while the rebuild baselines concentrate in the rebuild
/// sweep whose bits track `m`.
///
/// `only_n` restricts the sweep to one grid size (the `KKT_EXP14_N`
/// environment variable in the binary).
pub fn exp14_cost_anatomy(
    scale: Scale,
    seed: u64,
    only_n: Option<usize>,
    threads: usize,
) -> (Table, GridReport) {
    let report = run_grid(&density_grid(scale, seed, only_n), threads);
    let shares: Vec<String> = Phase::ALL.iter().map(|p| format!("{}%", p.label())).collect();
    let mut header = vec!["n", "m/n", "scenario", "policy", "bits/event"];
    header.extend(shares.iter().map(String::as_str));
    header.push("dominant");
    let mut table = Table::new(
        "E14: cost anatomy — bits per event by phase, every policy across the density grid",
        &header,
    );
    for cell in &report.cells {
        let total_bits = cell.total().bits;
        let mut row = vec![
            cell.n.to_string(),
            format!("{:.1}", cell.m as f64 / cell.n as f64),
            cell.scenario.clone(),
            cell.policy.clone(),
            format!("{:.0}", total_bits as f64 / cell.events.len().max(1) as f64),
        ];
        row.extend(cell.phases.entries().map(|(_, cost)| {
            format!("{:.1}", 100.0 * cost.bits as f64 / total_bits.max(1) as f64)
        }));
        // The phase with the most bits; ties break toward ledger order.
        let dominant = cell.phases.entries().max_by_key(|&(p, c)| (c.bits, std::cmp::Reverse(p)));
        row.push(dominant.map_or_else(String::new, |(p, _)| p.label().to_string()));
        table.push_row(row);
    }
    (table, report)
}

/// E16 — the seed fleet: every headline number re-priced as a
/// *distribution*. The (policy × rung × density × scenario) grid of the E13
/// crossover and the E11/E15 scaling regime is replayed under ≥ 32 mixed
/// seeds per cell ([`crate::fleet::mix_seed`] over the seed ordinal, so the
/// seed set is stable under grid reordering), sharded across `threads`
/// scoped workers, and merged in deterministic grid order — the sealed
/// report is byte-identical for any thread count. Each cell carries the
/// production framing: integer-exact mean ± 95% CI (micro-unit fixed
/// point) plus p50/p99/max tails of repair *rounds*, bits and messages per
/// event, reported like an SLO; no float reaches a fingerprinted field.
///
/// `only_n` restricts the sweep to one size rung (the `KKT_EXP16_N`
/// environment variable in the binary) — CI runs the quick preset twice at
/// 2 threads inside a wall-clock budget and asserts byte-identical reports
/// against a 1-thread run.
///
/// Returns the printable table *and* the sealed deterministic JSON report.
pub fn exp16_seed_fleet(
    scale: Scale,
    seed: u64,
    only_n: Option<usize>,
    threads: usize,
) -> (Table, FleetReport) {
    let mut params = match scale {
        Scale::Quick => FleetParams::quick(seed),
        Scale::Large => FleetParams::large(seed),
    };
    params.rungs = restrict(params.rungs, only_n, |r| r.n);
    let report = run_replay_fleet(&params, threads);

    let mut table = Table::new(
        "E16: seed fleet — per-event distributions across ≥ 32 seeds, mean±CI95 and tail SLOs",
        &[
            "n",
            "m/n",
            "scenario",
            "policy",
            "seeds",
            "rounds(mean±ci)",
            "rounds p99",
            "bits/ev(mean±ci)",
            "bits p50",
            "bits p99",
            "bits max",
            "checkpoints",
        ],
    );
    for cell in &report.cells {
        table.push_row(vec![
            cell.n.to_string(),
            cell.density.clone(),
            cell.scenario.clone(),
            cell.policy.clone(),
            cell.rounds.seeds.to_string(),
            cell.rounds.mean_ci_display(),
            cell.rounds.p99.to_string(),
            cell.bits.mean_ci_display(),
            cell.bits.p50.to_string(),
            cell.bits.p99.to_string(),
            cell.bits.max.to_string(),
            cell.checkpoints_verified.to_string(),
        ]);
    }
    (table, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_workloads::AdversarialTreeCut;

    #[test]
    fn clustered_complete_is_complete() {
        let g = clustered_complete(10);
        assert_eq!(g.edge_count(), 45);
        assert!(g.is_connected());
    }

    #[test]
    fn exp5_smoke_runs_and_reports_no_false_positives() {
        // Tiny trial count: the point is exercising the pipeline end-to-end.
        let table = exp5_testout_probability(Scale::Quick, 1);
        assert_eq!(table.len(), 6);
        for row in table.rows() {
            assert_eq!(row[4], "0", "TestOut/HP-TestOut must never report a phantom edge");
        }
    }

    #[test]
    fn exp9_repair_beats_rebuild_on_poisson_churn() {
        let (table, report) = exp9_churn_policies(Scale::Quick, 7, 2);
        // 5 scenarios × 4 MST policies (sequential, batched, KKT/GHS rebuild).
        assert_eq!(table.len(), 20);
        assert_eq!(report.cells.len(), 20);
        let repair = report
            .cells
            .iter()
            .find(|c| c.scenario.starts_with("poisson_churn") && c.policy == "impromptu_repair")
            .expect("the battery includes Poisson churn");
        let rebuild = report.peer(repair, "rebuild_kkt").unwrap();
        assert!(
            repair.total().bits < rebuild.total().bits,
            "impromptu repair ({} bits) must beat rebuild ({} bits)",
            repair.total().bits,
            rebuild.total().bits
        );
        assert_eq!(report.seeds, [7]);
        assert!(!report.fingerprint.is_empty());
    }

    #[test]
    fn exp10_batched_repair_beats_sequential_on_large_bursts() {
        let (table, report) = exp10_batched_repair(Scale::Quick, 0xFEED, 2);
        // 4 burst sizes × 3 policies.
        assert_eq!(table.len(), 12);
        assert!(!report.fingerprint.is_empty());
        for sequential in report.cells.iter().filter(|c| c.policy == "impromptu_repair") {
            let k: usize = sequential
                .scenario
                .trim_start_matches("multi_edge_cuts(k=")
                .trim_end_matches(')')
                .parse()
                .unwrap();
            let batched = report.peer(sequential, "batched_repair").unwrap();
            assert!(sequential.checkpoints_verified > 0);
            assert!(batched.checkpoints_verified > 0);
            if k >= 4 {
                assert!(
                    batched.total().bits < sequential.total().bits,
                    "k={k}: batched {} bits must beat sequential {}",
                    batched.total().bits,
                    sequential.total().bits
                );
            }
        }
    }

    #[test]
    fn exp10_report_is_deterministic() {
        let a = exp10_batched_repair(Scale::Quick, 42, 1).1;
        let b = exp10_batched_repair(Scale::Quick, 42, 8).1;
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed must give byte-identical JSON"
        );
    }

    #[test]
    fn exp11_quick_sweep_prices_all_four_policies() {
        let (table, report) = exp11_scale_sweep(Scale::Quick, 0xFEED, None, 2);
        // Two rungs (n = 64, 256) × two scenarios × four policies.
        assert_eq!(report.cells.len(), 16);
        assert_eq!(table.len(), 16);
        assert_eq!(report.fingerprint.len(), 16);
        for cell in &report.cells {
            assert!(cell.checkpoints_verified > 0, "n={} {}", cell.n, cell.policy);
        }
        for repair in report.cells.iter().filter(|c| c.policy == "impromptu_repair") {
            let rebuild = report.peer(repair, "rebuild_kkt").unwrap();
            assert!(
                repair.total().bits < rebuild.total().bits,
                "n={} {}: repair ({} bits) must undercut rebuild ({} bits)",
                repair.n,
                repair.scenario,
                repair.total().bits,
                rebuild.total().bits
            );
        }
        // The adversarial regime really forces repairs: every deletion of
        // the trace the grid replayed is a current-tree edge.
        let rung = SuiteParams::scale_preset(64).with_seed(0xFEED);
        let base = rung.base_graph();
        let workload =
            AdversarialTreeCut { max_weight: rung.max_weight }.generate(&base, rung.events, 0xFEED);
        let stats = workload.validate(&base).unwrap();
        assert_eq!(stats.tree_edge_deletions, stats.deletions);
        assert!(stats.deletions > 0);
        assert!(report.cells.iter().any(|c| c.workload_fingerprint == workload.fingerprint()));
    }

    #[test]
    fn exp11_only_n_restricts_the_sweep() {
        let (table, report) = exp11_scale_sweep(Scale::Quick, 7, Some(64), 2);
        assert_eq!(report.cells.len(), 2 * 4);
        assert!(report.cells.iter().all(|c| c.n == 64));
        assert_eq!(table.len(), 2 * 4);
        // The restricted run prices its rung identically to the full sweep.
        let (_, full) = exp11_scale_sweep(Scale::Quick, 7, None, 2);
        assert_eq!(report.cells[..], full.cells[..8]);
    }

    #[test]
    fn exp11_report_is_deterministic() {
        let a = exp11_scale_sweep(Scale::Quick, 42, Some(64), 1).1;
        let b = exp11_scale_sweep(Scale::Quick, 42, Some(64), 2).1;
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed must give byte-identical JSON at any thread count"
        );
    }

    #[test]
    fn exp13_density_sweep_prices_the_whole_ladder() {
        // One grid column (n = 48) of the quick sweep: 6 density rungs × 2
        // scenarios, each under all four MST policies, every checkpoint
        // verified.
        let (table, report) = exp13_dynamic_density(Scale::Quick, 0xFEED, Some(48), 2);
        assert_eq!(report.cells.len(), 6 * 2 * 4, "six rungs x two scenarios x four policies");
        assert_eq!(table.len(), 6 * 2 * 4);
        assert_eq!(report.fingerprint.len(), 16);
        let n = 48;
        for cell in &report.cells {
            assert_eq!(cell.n, n);
            assert!(cell.checkpoints_verified > 0, "m={} {}", cell.m, cell.policy);
        }
        // Cells run rung-major along the ladder; the densest rung is K_n.
        let rung_of = |i: usize| i / (2 * 4);
        for (i, cell) in report.cells.iter().enumerate() {
            if rung_of(i) == Density::LADDER.len() - 1 {
                assert_eq!(cell.m, n * (n - 1) / 2, "the densest rung is K_n");
            }
        }
        // Density is the sweep axis: the achieved m must rise from the "2"
        // rung to the "n/2" rung.
        assert!(report.cells[0].m < report.cells.last().unwrap().m);
        // Both repair policies undercut rebuild_kkt at every grid cell (the
        // paper's own construction re-run pays its large constants per
        // event at every density).
        for cell in report.cells.iter().filter(|c| c.policy.ends_with("_repair")) {
            let rebuild = report.peer(cell, "rebuild_kkt").unwrap();
            assert!(
                cell.total().bits < rebuild.total().bits,
                "m={} {} {}: repair must undercut rebuild_kkt",
                cell.m,
                cell.scenario,
                cell.policy
            );
        }
        // Under steady Poisson churn at the densest rung, churn almost never
        // severs the tree (a random deletion hits the MST with probability
        // ≈ n/m), so repair beats even the cheap GHS rebuild outright.
        let dense_poisson = report
            .cells
            .iter()
            .find(|c| {
                c.m == n * (n - 1) / 2
                    && c.scenario.starts_with("poisson")
                    && c.policy == "impromptu_repair"
            })
            .unwrap();
        let ghs = report.peer(dense_poisson, "rebuild_ghs").unwrap();
        assert!(
            dense_poisson.total().bits < ghs.total().bits,
            "K_n poisson: repair ({} bits) must undercut GHS rebuild ({} bits)",
            dense_poisson.total().bits,
            ghs.total().bits
        );

        // E14 is the same grid viewed by phase: the identical report, one
        // anatomy row per cell.
        let (anatomy, same) = exp14_cost_anatomy(Scale::Quick, 0xFEED, Some(48), 1);
        assert_eq!(same, report);
        assert_eq!(anatomy.len(), report.cells.len());
    }

    #[test]
    fn restrict_keeps_exactly_the_matching_rungs() {
        assert_eq!(restrict(vec![48, 96], None, |&n| n), [48, 96]);
        assert_eq!(restrict(vec![48, 96], Some(96), |&n| n), [96]);
        let fleet = restrict(FleetParams::large(1).rungs, Some(256), |r| r.n);
        assert_eq!((fleet.len(), fleet[0].densities.len()), (1, Density::LADDER.len()));
    }

    #[test]
    fn exp13_only_n_restriction_must_match_a_rung() {
        let result = std::panic::catch_unwind(|| {
            exp13_dynamic_density(Scale::Quick, 1, Some(1234), 1);
        });
        assert!(result.is_err(), "an unmatched KKT_EXP13_N must fail loudly");
    }

    #[test]
    fn exp2_smoke_shows_flooding_scaling_with_m() {
        let table = exp2_st_construction(Scale::Quick, 2);
        assert_eq!(table.len(), Scale::Quick.construction_sizes().len());
        // Flooding messages grow at least linearly in m; the last row's m is
        // the largest, so its flooding count must be the largest too.
        let flood: Vec<f64> = table.rows().iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(flood.windows(2).all(|w| w[0] < w[1]));
    }
}
