//! Integration coverage of the exp16 seed fleet: the experiment entry point
//! itself (preset shapes, the `KKT_EXP16_N` guard, the sealed report) and a
//! cross-thread determinism sweep over the quick grid at a debug-affordable
//! seed count. The *full* quick preset — 512 release-mode replays — is
//! byte-compared across `KKT_THREADS` ∈ {1, 2, 8} and across back-to-back
//! runs by the CI `fleet-smoke` job against the real binary; this file pins
//! the same invariants where `cargo test` can afford them.

use kkt_bench::experiments::exp16_seed_fleet;
use kkt_bench::fleet::{run_replay_fleet, FleetParams};
use kkt_bench::{Scale, DEFAULT_SEED};

/// The exp16 quick grid at a seed count the debug test budget can afford:
/// same rungs, same densities, same scenarios and policies — only the seed
/// set is shortened (which [`FleetParams::mixed_seeds`] guarantees is a
/// prefix of the full quick seed set).
fn quick_grid_short(seeds_per_cell: usize) -> FleetParams {
    FleetParams { seeds_per_cell, ..FleetParams::quick(DEFAULT_SEED) }
}

#[test]
fn quick_grid_report_is_byte_identical_across_thread_counts() {
    let params = quick_grid_short(2);
    let baseline = run_replay_fleet(&params, 1);
    let json = serde_json::to_string(&baseline).unwrap();
    for threads in [2, 8] {
        let report = run_replay_fleet(&params, threads);
        assert_eq!(serde_json::to_string(&report).unwrap(), json, "threads={threads}");
    }
    // The short seed set is a prefix of the full quick seed set, so this
    // sweep replays the leading slice of exactly the cells CI prices.
    let full = FleetParams::quick(DEFAULT_SEED);
    assert_eq!(params.mixed_seeds(), full.mixed_seeds()[..2].to_vec());
    assert_eq!(baseline.cells.len(), 16, "the full quick grid shape");
    for cell in &baseline.cells {
        assert!(cell.checkpoints_verified > 0, "{}/{}", cell.scenario, cell.policy);
        assert!(cell.bits.max >= cell.bits.p99, "{}/{}", cell.scenario, cell.policy);
        assert!(cell.rounds.max >= cell.rounds.p50);
    }
}

#[test]
fn exp16_presets_have_the_contracted_shape() {
    // Quick: one rung (n = 48) × 2 densities × 2 scenarios × 4 MST
    // policies, ≥ 32 seeds per cell (the ISSUE floor).
    let quick = FleetParams::quick(DEFAULT_SEED);
    assert!(quick.seeds_per_cell >= 32);
    assert_eq!(quick.aggregate_cells().len(), 16);
    // Large: the full density ladder at 256 plus the default rung at 1024.
    let large = FleetParams::large(DEFAULT_SEED);
    assert!(large.seeds_per_cell >= 32);
    assert_eq!(large.aggregate_cells().len(), (6 + 1) * 2 * 4);
    // The seed set is independent of the grid: every preset mixes the same
    // seeds from the same base.
    assert_eq!(quick.mixed_seeds(), large.mixed_seeds());
}

#[test]
fn exp16_unmatched_rung_restriction_fails_loudly() {
    let result = std::panic::catch_unwind(|| {
        exp16_seed_fleet(Scale::Quick, 1, Some(4242), 1);
    });
    assert!(result.is_err(), "an unmatched KKT_EXP16_N must fail loudly");
}
