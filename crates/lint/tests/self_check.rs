//! The lint pass applied to the workspace that ships it:
//!  1. the shipped tree is clean,
//!  2. every allowlist entry is load-bearing (deleting any one fails the lint),
//!  3. an injected violation fixture fails the lint (negative self-test),
//!  4. a stale allowlist entry is itself an error.

use kkt_lint::config::{AllowEntry, Config};
use kkt_lint::rules::{self, ExportMap};
use kkt_lint::scanner::SourceFile;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn workspace_config() -> Config {
    let text = std::fs::read_to_string(workspace_root().join("lint.toml")).unwrap();
    Config::from_toml(&text).unwrap()
}

#[test]
fn shipped_workspace_is_lint_clean() {
    let outcome = kkt_lint::run_from_root(&workspace_root()).unwrap();
    assert!(outcome.is_clean(), "\n{}", outcome.render());
    assert!(outcome.files_scanned > 50, "the walk should cover the workspace");
    assert!(outcome.suppressed > 0, "the allowlist should be exercised");
}

#[test]
fn deleting_any_allowlist_entry_fails_the_lint() {
    let root = workspace_root();
    let full = workspace_config();
    for removed in 0..full.allow.len() {
        let mut cfg = full.clone();
        let entry = cfg.allow.remove(removed);
        let outcome = kkt_lint::run(&root, &cfg).unwrap();
        assert!(
            !outcome.violations.is_empty(),
            "allow entry {}/{} ({} in {}) suppresses nothing — it should be deleted \
             from lint.toml instead of shipped",
            removed + 1,
            full.allow.len(),
            entry.rule,
            entry.path,
        );
        assert!(
            outcome.violations.iter().any(|v| v.rule == entry.rule && v.path == entry.path),
            "removing the {} entry for {} should re-expose that exact site, got: {:?}",
            entry.rule,
            entry.path,
            outcome.violations,
        );
    }
}

#[test]
fn injected_violation_fixture_fails_the_lint() {
    // Scan the R4 fail fixture as if it had been dropped into a product
    // crate — the file-copy variant of this check runs in CI.
    let root = workspace_root();
    let cfg = workspace_config();
    let exports = ExportMap::from_compat(&root.join(&cfg.compat_root), &cfg.shims).unwrap();
    let text = std::fs::read_to_string(
        root.join("crates/lint/tests/fixtures/fail/r4_unspanned_charge.rs"),
    )
    .unwrap();
    let file = SourceFile::scan("crates/congest/src/injected_fixture.rs", text);
    let violations = rules::check_file(&file, &cfg, &exports);
    assert!(violations.iter().any(|v| v.rule == "R4"), "{violations:?}");

    let hash =
        std::fs::read_to_string(root.join("crates/lint/tests/fixtures/fail/r1_hash_iteration.rs"))
            .unwrap();
    let file = SourceFile::scan("crates/core/src/injected_fixture.rs", hash);
    let violations = rules::check_file(&file, &cfg, &exports);
    assert!(violations.iter().any(|v| v.rule == "R1"), "{violations:?}");
}

#[test]
fn stale_allowlist_entries_are_errors() {
    let root = workspace_root();
    let mut cfg = workspace_config();
    cfg.allow.push(AllowEntry {
        rule: "R1".into(),
        path: "crates/core/src/build_st.rs".into(),
        contains: "this-matches-no-line-anywhere".into(),
        reason: "deliberately stale entry for the self-check".into(),
    });
    let outcome = kkt_lint::run(&root, &cfg).unwrap();
    assert!(!outcome.is_clean());
    assert_eq!(outcome.unused_allows.len(), 1, "{:?}", outcome.unused_allows);
    assert!(outcome.unused_allows[0].contains("this-matches-no-line-anywhere"));
}

#[test]
fn real_compat_export_map_knows_the_shimmed_surface() {
    let root = workspace_root();
    let cfg = workspace_config();
    let exports = ExportMap::from_compat(&root.join(&cfg.compat_root), &cfg.shims).unwrap();
    let ok = |path: &[&str]| {
        let segs: Vec<String> = path.iter().map(|s| s.to_string()).collect();
        assert!(exports.validate(&segs).is_ok(), "{path:?} should be shimmed");
    };
    ok(&["rand", "Rng"]);
    ok(&["rand", "SeedableRng"]);
    ok(&["serde", "Serialize"]);
    ok(&["serde_json", "to_string"]);
    let bogus: Vec<String> =
        ["rand", "not_a_real_export_zzz"].iter().map(|s| s.to_string()).collect();
    assert!(exports.validate(&bogus).is_err(), "unknown names must be rejected");
}
