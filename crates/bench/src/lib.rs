//! Experiment harness for the `kkt-spanning` workspace.
//!
//! The paper has no empirical tables or figures — its evaluation is a set of
//! theorems (see `DESIGN.md` §4 and `EXPERIMENTS.md`). Each function in
//! [`experiments`] regenerates the measurement that checks one of those
//! claims and returns a printable table; the `exp*` binaries are thin
//! wrappers. The replay experiments run on one [`grid`] runner: exp9–exp14
//! print its sealed [`GridReport`], and exp16 aggregates the same cells into
//! seed distributions. Machine cost (seconds) is measured by the separate
//! `perfbench` package, never here.
//!
//! Scale is controlled by [`Scale`]: the default keeps every binary under a
//! few seconds; `KKT_SCALE=large` (environment variable) runs the sweeps the
//! numbers in `EXPERIMENTS.md` were recorded with.

pub mod experiments;
pub mod fleet;
pub mod grid;
pub mod stats;
pub mod table;

pub use fleet::{mix_seed, run_fleet, threads_from_env, FleetPanic};
pub use grid::{run_grid, CellRecord, GridReport, GridSpec, SimCost};
pub use stats::{ExactSummary, Percentiles, SloSummary};
pub use table::Table;

/// The workspace-wide base seed every experiment falls back to when
/// `KKT_SEED` is unset. Hoisted here so the fleet's base seed cannot
/// silently diverge across binaries (each bin used to re-parse the variable
/// with its own hard-coded fallback).
pub const DEFAULT_SEED: u64 = 0xFEED;

/// Reads the base seed from `KKT_SEED`, falling back to [`DEFAULT_SEED`].
/// Every `exp*` binary and the fleet runner resolve their seed through this
/// one helper.
pub fn seed_from_env() -> u64 {
    std::env::var("KKT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SEED)
}

/// Sweep sizes for the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Quick sweeps (seconds) — used by default and in CI.
    Quick,
    /// The full sweeps reported in `EXPERIMENTS.md` (minutes).
    Large,
}

impl Scale {
    /// Reads the scale from the `KKT_SCALE` environment variable
    /// (`large`/`full` → [`Scale::Large`], anything else → [`Scale::Quick`]).
    pub fn from_env() -> Self {
        match std::env::var("KKT_SCALE").unwrap_or_default().to_lowercase().as_str() {
            "large" | "full" => Scale::Large,
            _ => Scale::Quick,
        }
    }

    /// Node counts for construction sweeps.
    pub fn construction_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![64, 128, 256],
            Scale::Large => vec![64, 128, 256, 512, 1024, 2048],
        }
    }

    /// Node counts for repair sweeps.
    pub fn repair_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![64, 128, 256],
            Scale::Large => vec![128, 256, 512, 1024, 2048],
        }
    }

    /// Node counts for the dynamic-scenario scale sweep (E11): the sizes the
    /// `SuiteParams::scale_preset` ladder is tuned for. The quick tier stays
    /// CI-cheap; the large tier is the n ≥ 1024 regime the asymptotic claims
    /// need, extended to the n ∈ {16384, 65536} rungs the calendar-queue
    /// engine unlocked (`KKT_EXP11_N` restricts a run to one rung, which is
    /// how CI prices the big rungs under a wall-clock budget).
    pub fn scale_sweep_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![64, 256],
            Scale::Large => vec![256, 1024, 4096, 16384, 65536],
        }
    }

    /// Node counts for the dynamic density sweep (E13): the `n` axis of the
    /// `n × m/n` grid. Kept below the scale-sweep rungs because the dense
    /// end of the ladder is `m = Θ(n²)` — the n = 256 large rung already
    /// replays the complete graph `K_256` (`KKT_EXP13_N` restricts a run to
    /// one rung, which is how CI prices it twice under a wall-clock budget).
    pub fn density_grid_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![48, 96],
            Scale::Large => vec![128, 256],
        }
    }

    /// Trials per configuration.
    pub fn trials(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Large => 10,
        }
    }

    /// Trials for probability-estimation experiments.
    pub fn probability_trials(self) -> usize {
        match self {
            Scale::Quick => 2_000,
            Scale::Large => 20_000,
        }
    }
}
