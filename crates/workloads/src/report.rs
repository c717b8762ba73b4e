//! Cost reports: per-event records and per-run reports.

use serde::{Deserialize, Serialize};

use kkt_congest::{CostReport, Scheduler};

use crate::fingerprint::fingerprint_hex;

/// Stable text label of a scheduler, used in reports.
pub fn scheduler_label(scheduler: Scheduler) -> String {
    match scheduler {
        Scheduler::Synchronous => "synchronous".to_string(),
        Scheduler::RandomAsync { max_delay } => format!("random_async(max_delay={max_delay})"),
    }
}

/// Adds two cost snapshots field-wise (`max_message_bits` takes the max).
pub fn add_costs(a: CostReport, b: CostReport) -> CostReport {
    CostReport {
        messages: a.messages + b.messages,
        bits: a.bits + b.bits,
        time: a.time + b.time,
        broadcast_echoes: a.broadcast_echoes + b.broadcast_echoes,
        max_message_bits: a.max_message_bits.max(b.max_message_bits),
    }
}

/// The communication cost of one top-level event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCost {
    /// Index of the event in the trace.
    pub index: usize,
    /// Event kind label (`delete`, `insert`, `change_weight`, `burst(k)`).
    pub kind: String,
    /// Messages spent processing the event.
    pub messages: u64,
    /// Bits spent.
    pub bits: u64,
    /// Simulated time spent (rounds / makespan).
    pub time: u64,
}

impl EventCost {
    /// Builds a record from a cost delta.
    pub fn new(index: usize, kind: String, delta: CostReport) -> Self {
        EventCost { index, kind, messages: delta.messages, bits: delta.bits, time: delta.time }
    }
}

/// The full cost accounting of one (workload, policy, scheduler) replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Scenario identifier of the generating workload.
    pub scenario: String,
    /// Workload name.
    pub workload_name: String,
    /// Fingerprint of the replayed trace.
    pub workload_fingerprint: String,
    /// Maintenance policy label.
    pub policy: String,
    /// `mst` or `st`.
    pub tree_kind: String,
    /// Scheduler label.
    pub scheduler: String,
    /// Nodes.
    pub n: usize,
    /// Live edges of the base graph.
    pub m_initial: usize,
    /// Top-level events replayed.
    pub top_level_events: usize,
    /// Primitive events replayed (bursts flattened).
    pub primitive_events: usize,
    /// Cost of the initial construction (not counted in `total`).
    pub build: CostReport,
    /// Per-event costs, in trace order.
    pub per_event: Vec<EventCost>,
    /// Sum of the per-event costs.
    pub total: CostReport,
    /// `total.messages / top_level_events`.
    pub mean_messages_per_event: f64,
    /// Largest single-event message count.
    pub max_messages_per_event: u64,
    /// Oracle checkpoints passed.
    pub checkpoints_verified: usize,
}

impl ReplayReport {
    /// Records one event's cost. The full [`CostReport`] delta feeds the
    /// totals (so `broadcast_echoes` and `max_message_bits` are preserved);
    /// the per-event record keeps the compact three-field form.
    pub fn push_event(&mut self, index: usize, kind: String, delta: CostReport) {
        self.total = add_costs(self.total, delta);
        self.max_messages_per_event = self.max_messages_per_event.max(delta.messages);
        self.per_event.push(EventCost::new(index, kind, delta));
    }

    /// Computes the derived summary fields; call once after the last event.
    pub fn finalize(&mut self) {
        let events = self.per_event.len().max(1);
        self.mean_messages_per_event = self.total.messages as f64 / events as f64;
    }

    /// Fingerprint of the whole report (stable across runs for the same
    /// seed: scheduling, costs and verification results are deterministic).
    pub fn fingerprint(&self) -> String {
        fingerprint_hex(&serde_json::to_string(self).expect("report serialises"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(messages: u64, bits: u64, time: u64) -> CostReport {
        CostReport { messages, bits, time, broadcast_echoes: 0, max_message_bits: 0 }
    }

    #[test]
    fn add_costs_is_fieldwise() {
        let a =
            CostReport { messages: 1, bits: 10, time: 3, broadcast_echoes: 2, max_message_bits: 7 };
        let b =
            CostReport { messages: 2, bits: 20, time: 4, broadcast_echoes: 1, max_message_bits: 5 };
        let c = add_costs(a, b);
        assert_eq!(c.messages, 3);
        assert_eq!(c.bits, 30);
        assert_eq!(c.time, 7);
        assert_eq!(c.broadcast_echoes, 3);
        assert_eq!(c.max_message_bits, 7);
    }

    #[test]
    fn report_accumulates_and_finalizes() {
        let mut r = ReplayReport {
            scenario: "s".into(),
            workload_name: "w".into(),
            workload_fingerprint: "f".into(),
            policy: "p".into(),
            tree_kind: "mst".into(),
            scheduler: "synchronous".into(),
            n: 4,
            m_initial: 5,
            top_level_events: 2,
            primitive_events: 2,
            build: CostReport::default(),
            per_event: Vec::new(),
            total: CostReport::default(),
            mean_messages_per_event: 0.0,
            max_messages_per_event: 0,
            checkpoints_verified: 0,
        };
        r.push_event(
            0,
            "delete".into(),
            CostReport {
                messages: 10,
                bits: 100,
                time: 2,
                broadcast_echoes: 3,
                max_message_bits: 9,
            },
        );
        r.push_event(1, "insert".into(), cost(4, 40, 1));
        r.finalize();
        assert_eq!(r.total.messages, 14);
        assert_eq!(r.max_messages_per_event, 10);
        // The full delta reaches the totals, not just the three-field record.
        assert_eq!(r.total.broadcast_echoes, 3);
        assert_eq!(r.total.max_message_bits, 9);
        assert!((r.mean_messages_per_event - 7.0).abs() < 1e-9);
        // JSON round-trip preserves the report exactly.
        let text = serde_json::to_string(&r).unwrap();
        let back: ReplayReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.fingerprint(), r.fingerprint());
    }

    #[test]
    fn scheduler_labels_are_stable() {
        assert_eq!(scheduler_label(Scheduler::Synchronous), "synchronous");
        assert_eq!(
            scheduler_label(Scheduler::RandomAsync { max_delay: 8 }),
            "random_async(max_delay=8)"
        );
    }
}
