//! Golden cost digests: the simulated cost of every replay cell of the
//! exp9/exp10/exp11/exp13/exp14 quick presets and of a quick spanning-tree
//! grid (`st`), plus the stdout of the exp1–exp8 quick tables, pinned in
//! `tests/golden/cost_digests.txt`.
//!
//! A cell line is `exp policy n m scenario seed digest`, where `digest`
//! is the 64-bit FNV-1a of the cell's canonical cost line:
//!
//! * replay cells (exp9–exp13, st):
//!   `"{policy} {n} {m} {scenario} {seed} build={bits},{messages},{time} events={bits},{messages},{time};…\n"`
//! * anatomy cells (exp14):
//!   `"{policy} {n} {m} {scenario} {seed} delivery={bits},{messages},{time},{broadcast_echoes} broadcast_echo=… …\n"`
//!   with one `label=…` group per phase, in ledger order.
//!
//! The digest does not depend on report layout, so a refactor that moves
//! fields around leaves the manifest alone; a change to any simulated cost
//! (bits, messages or time of any event, or of the initial build) breaks it.
//! Each experiment's aggregate — FNV-1a over its canonical lines, sorted and
//! concatenated — is pinned here as well.
//!
//! A table line is `exp quick_stdout seed digest`: the FNV-1a of exactly
//! what the exp1–exp8 binary prints to stdout at the quick scale. Those
//! tables report construction and repair costs, FindMin iteration counts
//! and TestOut/FindAny success rates, so they pin the sequential searches
//! outside the replay harness too.

use kkt::workloads::{fnv1a64, standard_suite, MaintenancePolicy, SuiteParams};
use kkt::TreeKind;
use kkt_bench::{
    experiments, run_grid, CellRecord, GridReport, GridSpec, Scale, Table, DEFAULT_SEED,
};

const MANIFEST: &str = include_str!("golden/cost_digests.txt");

/// `(exp, cells, aggregate digest)` of the quick presets at [`DEFAULT_SEED`].
const AGGREGATES: [(&str, usize, &str); 6] = [
    ("exp9", 20, "ea094b65f4f9c386"),
    ("exp10", 12, "5beb2856473d77db"),
    ("exp11", 16, "ebaa78a4f46e78c4"),
    ("exp13", 96, "18d5bd3e45b20a29"),
    ("exp14", 96, "39cd3f1c3fb26639"),
    ("st", 20, "b60d949cd8c68ac5"),
];

/// An exp1–exp8 table preset.
type TablePreset = fn(Scale, u64) -> Table;

/// The exp1–exp8 quick tables, in manifest order.
const TABLES: [(&str, TablePreset); 8] = [
    ("exp1", experiments::exp1_mst_construction),
    ("exp2", experiments::exp2_st_construction),
    ("exp3", experiments::exp3_mst_repair),
    ("exp4", experiments::exp4_st_repair),
    ("exp5", experiments::exp5_testout_probability),
    ("exp6", experiments::exp6_find_primitives),
    ("exp7", experiments::exp7_superpoly_weights),
    ("exp8", experiments::exp8_density_crossover),
];

/// One replay cell's canonical cost line.
fn replay_line(c: &CellRecord) -> String {
    let events: Vec<String> =
        c.events.iter().map(|e| format!("{},{},{}", e.bits, e.messages, e.time)).collect();
    format!(
        "{} {} {} {} {} build={},{},{} events={}\n",
        c.policy,
        c.n,
        c.m,
        c.scenario,
        c.seed,
        c.build.bits,
        c.build.messages,
        c.build.time,
        events.join(";")
    )
}

/// One anatomy cell's canonical cost line.
fn anatomy_line(c: &CellRecord) -> String {
    let phases: Vec<String> = c
        .phases
        .entries()
        .map(|(phase, p)| {
            format!("{}={},{},{},{}", phase.label(), p.bits, p.messages, p.time, p.broadcast_echoes)
        })
        .collect();
    format!("{} {} {} {} {} {}\n", c.policy, c.n, c.m, c.scenario, c.seed, phases.join(" "))
}

/// Every cell's canonical line, in grid order.
fn lines(report: &GridReport, line: fn(&CellRecord) -> String) -> Vec<String> {
    report.cells.iter().map(line).collect()
}

/// Checks an experiment's canonical lines against its manifest entries (in
/// order) and its pinned aggregate.
fn check(exp: &str, lines: &[String]) {
    let expected: Vec<&str> =
        MANIFEST.lines().filter(|l| l.split(' ').next() == Some(exp)).collect();
    let got: Vec<String> = lines
        .iter()
        .map(|line| {
            let key: Vec<&str> = line.split(' ').take(5).collect();
            format!("{exp} {} {:016x}", key.join(" "), fnv1a64(line.as_bytes()))
        })
        .collect();
    assert_eq!(got.len(), expected.len(), "{exp}: cell count differs from the manifest");
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g, e, "{exp}: simulated cost of a replay cell moved");
    }

    let (_, cells, aggregate) =
        AGGREGATES.iter().find(|(e, _, _)| *e == exp).expect("every experiment is pinned");
    let mut sorted = lines.to_vec();
    sorted.sort();
    assert_eq!(lines.len(), *cells, "{exp}: cell count");
    assert_eq!(
        format!("{:016x}", fnv1a64(sorted.concat().as_bytes())),
        *aggregate,
        "{exp}: aggregate cost digest"
    );
}

#[test]
fn manifest_covers_exactly_the_pinned_experiments() {
    for line in MANIFEST.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let known = match fields.len() {
            7 => AGGREGATES.iter().any(|(exp, _, _)| *exp == fields[0]),
            4 => fields[1] == "quick_stdout" && TABLES.iter().any(|(exp, _)| *exp == fields[0]),
            _ => false,
        };
        assert!(known, "malformed manifest line: {line}");
    }
    let total: usize = AGGREGATES.iter().map(|(_, cells, _)| cells).sum();
    assert_eq!(MANIFEST.lines().count(), total + TABLES.len());
}

#[test]
fn exp9_costs_match_the_manifest() {
    let (_, report) = experiments::exp9_churn_policies(Scale::Quick, DEFAULT_SEED, 2);
    check("exp9", &lines(&report, replay_line));
}

#[test]
fn exp10_costs_match_the_manifest() {
    let (_, report) = experiments::exp10_batched_repair(Scale::Quick, DEFAULT_SEED, 2);
    check("exp10", &lines(&report, replay_line));
}

#[test]
fn exp11_costs_match_the_manifest() {
    let (_, report) = experiments::exp11_scale_sweep(Scale::Quick, DEFAULT_SEED, None, 2);
    check("exp11", &lines(&report, replay_line));
}

#[test]
fn exp13_costs_match_the_manifest() {
    let (_, report) = experiments::exp13_dynamic_density(Scale::Quick, DEFAULT_SEED, None, 2);
    check("exp13", &lines(&report, replay_line));
}

#[test]
fn exp14_costs_match_the_manifest() {
    let (_, report) = experiments::exp14_cost_anatomy(Scale::Quick, DEFAULT_SEED, None, 2);
    check("exp14", &lines(&report, anatomy_line));
}

/// Every spanning-tree policy on the standard scenarios at the exp9 quick
/// rung: impromptu repair runs `find_any`, batched repair the stepping
/// `FindAny`, `rebuild_kkt` runs `build_st` (FindAny-C), plus the flooding
/// rebuild. No exp9–exp14 preset maintains a spanning tree.
#[test]
fn st_costs_match_the_manifest() {
    let rung = SuiteParams { events: 12, kind: TreeKind::St, ..SuiteParams::default() };
    let spec = GridSpec {
        rungs: vec![rung],
        scenarios: standard_suite(rung.max_weight),
        policies: MaintenancePolicy::all_for(TreeKind::St),
        seeds: vec![DEFAULT_SEED],
    };
    check("st", &lines(&run_grid(&spec, 2), replay_line));
}

#[test]
fn exp1_to_exp8_stdout_matches_the_manifest() {
    for (exp, table) in TABLES {
        // What the binary prints: `println!("{table}")`.
        let stdout = format!("{}\n", table(Scale::Quick, DEFAULT_SEED));
        let got = format!("{exp} quick_stdout {DEFAULT_SEED} {:016x}", fnv1a64(stdout.as_bytes()));
        let expected = MANIFEST
            .lines()
            .find(|l| l.split(' ').next() == Some(exp))
            .unwrap_or_else(|| panic!("{exp}: no manifest entry"));
        assert_eq!(got, expected, "{exp}: quick table output moved");
    }
}
