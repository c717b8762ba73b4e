//! Churn stress: the whole scenario battery against every maintenance
//! policy, with oracle verification at every checkpoint.
//!
//! This is the `kkt-workloads` subsystem end-to-end: five scenario
//! generators (memoryless churn, adversarial tree-cutting, partition bursts,
//! weight drift, a mixed lifecycle) replayed under impromptu repair and
//! under rebuild-from-scratch baselines, on both an MST and a plain spanning
//! tree. Everything is seeded — run it twice and the output (including the
//! suite fingerprints) is byte-identical.
//!
//! ```bash
//! cargo run --release --example churn_stress
//! ```

use kkt::core::TreeKind;
use kkt::workloads::{
    standard_suite, MaintenancePolicy, MixedPhases, PhaseAccumulator, ReplayConfig, ReplayHarness,
    Scenario, SuiteParams,
};
use kkt_bench::{run_grid, threads_from_env, GridReport, GridSpec};

/// The whole battery under every policy applicable to the rung's structure.
fn battery(rung: SuiteParams) -> GridReport {
    let spec = GridSpec {
        rungs: vec![rung],
        scenarios: standard_suite(rung.max_weight),
        policies: MaintenancePolicy::all_for(rung.kind),
        seeds: vec![rung.seed],
    };
    run_grid(&spec, threads_from_env())
}

fn summarise(rung: &SuiteParams, report: &GridReport) {
    println!(
        "== {} maintenance, {} (n = {}, {} events/scenario, fingerprint {})",
        report.tree_kind, report.scheduler, rung.n, rung.events, report.fingerprint
    );
    for cell in &report.cells {
        let impromptu_bits = report.peer(cell, "impromptu_repair").map_or(0, |r| r.total().bits);
        let ratio = if impromptu_bits > 0 {
            format!("{:.2}x impromptu", cell.total().bits as f64 / impromptu_bits as f64)
        } else {
            "-".to_string()
        };
        println!(
            "  {:<60} {:<16} {:>9} msgs {:>12} bits ({} checkpoints ok, {})",
            cell.scenario,
            cell.policy,
            cell.total().messages,
            cell.total().bits,
            cell.checkpoints_verified,
            ratio
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mst = SuiteParams { n: 48, m: 192, events: 12, verify_every: 3, ..SuiteParams::default() };
    summarise(&mst, &battery(mst));

    // The same battery on an unweighted spanning tree: repairs use FindAny
    // (expected O(n)) and the rebuild baseline is Θ(m) flooding.
    let st = SuiteParams { kind: TreeKind::St, max_weight: 1, ..mst };
    summarise(&st, &battery(st));

    // KKT_TRACE=1: one extra observed replay of the mixed lifecycle per MST
    // policy, decomposing each policy's bits by phase. Attribution is pure —
    // the batteries above print the same numbers with or without the flag.
    if std::env::var("KKT_TRACE").is_ok_and(|v| v == "1") {
        let base = mst.base_graph();
        let workload = MixedPhases::standard(mst.max_weight).generate(&base, mst.events, mst.seed);
        let harness = ReplayHarness::new(ReplayConfig {
            kind: mst.kind,
            scheduler: mst.scheduler,
            verify_every: mst.verify_every,
            seed: mst.seed,
            ..ReplayConfig::default()
        });
        println!("\n== phase anatomy of {} (KKT_TRACE=1)", workload.scenario);
        for policy in MaintenancePolicy::all_for(mst.kind) {
            let mut phases = PhaseAccumulator::new();
            let report = harness.replay_observed(&base, &workload, policy, &mut phases)?;
            println!("-- {}", report.policy);
            println!("{}", report.total.phase_table(&phases.ledger));
        }
    }
    Ok(())
}
