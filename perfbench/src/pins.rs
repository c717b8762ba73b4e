//! Exact simulated totals: what a replay must cost, pinned per seed in
//! `perfbench/pins.json`.

use kkt_workloads::ReplayReport;

use crate::spec::WorkloadKind;

/// The simulated (never host-time) totals of one workload replay; for the
/// fleet, summed over all of its replays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTotals {
    /// Messages of the initial build.
    pub build_messages: u64,
    /// Bits of the initial build.
    pub build_bits: u64,
    /// Messages of all top-level events.
    pub messages: u64,
    /// Bits of all top-level events.
    pub bits: u64,
    /// Simulated time of all top-level events.
    pub time: u64,
    /// Top-level events replayed.
    pub events: u64,
    /// Oracle checkpoints that verified.
    pub checkpoints: u64,
}

impl SimTotals {
    /// The totals of one replay report.
    pub fn of_report(report: &ReplayReport) -> Self {
        SimTotals {
            build_messages: report.build.messages,
            build_bits: report.build.bits,
            messages: report.total.messages,
            bits: report.total.bits,
            time: report.total.time,
            events: report.per_event.len() as u64,
            checkpoints: report.checkpoints_verified as u64,
        }
    }

    /// Componentwise sum (for fleets).
    pub fn add(&mut self, other: &SimTotals) {
        self.build_messages += other.build_messages;
        self.build_bits += other.build_bits;
        self.messages += other.messages;
        self.bits += other.bits;
        self.time += other.time;
        self.events += other.events;
        self.checkpoints += other.checkpoints;
    }

    /// The totals as a `pins.json` entry.
    pub fn to_json(self, workload: WorkloadKind, seed: u64) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"build_messages\": {}, \"build_bits\": {}, \
             \"messages\": {}, \"bits\": {}, \"time\": {}, \"events\": {}, \"checkpoints\": {}}}",
            workload.name(),
            self.build_messages,
            self.build_bits,
            self.messages,
            self.bits,
            self.time,
            self.events,
            self.checkpoints
        )
    }
}

const PINS: &str = include_str!("../pins.json");

/// The pinned totals of `workload` at `seed`, if that seed is pinned.
///
/// # Panics
///
/// If `pins.json` is malformed — it is compiled in, so that is a bug in this
/// package, not an input error.
pub fn pinned(workload: WorkloadKind, seed: u64) -> Option<SimTotals> {
    let doc: serde_json::Value = serde_json::from_str(PINS).expect("pins.json is valid JSON");
    let entries = match doc.get("pins") {
        Some(serde_json::Value::Array(entries)) => entries.clone(),
        _ => panic!("pins.json has a `pins` array"),
    };
    let field = |entry: &serde_json::Value, key: &str| -> u64 {
        match entry.get(key) {
            Some(serde_json::Value::UInt(v)) => u64::try_from(*v).expect("pin fits in u64"),
            _ => panic!("pins.json entry lacks `{key}`"),
        }
    };
    entries
        .iter()
        .find(|e| {
            e.get("workload") == Some(&serde_json::Value::String(workload.name().to_string()))
                && field(e, "seed") == seed
        })
        .map(|e| SimTotals {
            build_messages: field(e, "build_messages"),
            build_bits: field(e, "build_bits"),
            messages: field(e, "messages"),
            bits: field(e, "bits"),
            time: field(e, "time"),
            events: field(e, "events"),
            checkpoints: field(e, "checkpoints"),
        })
}

/// Compares measured totals with the pin (if any); `Some(reason)` on a
/// mismatch.
pub fn check_pinned(workload: WorkloadKind, seed: u64, got: &SimTotals) -> Option<String> {
    match pinned(workload, seed) {
        Some(want) if want != *got => Some(format!(
            "{} seed {seed}: simulated totals {got:?} differ from the pinned {want:?}",
            workload.name()
        )),
        _ => None,
    }
}
