//! Typed metrics registry: atomic counters/gauges over a fixed catalog,
//! snapshotted per epoch into cluster reports.

use std::sync::atomic::{AtomicU64, Ordering};

/// The metric catalog. Every metric exists once per *slot* (a node in
/// the cluster, or slot 0 for engine-/cluster-global values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricId {
    /// Gauge: virtual queue depth (backlog ahead of `now`, µs).
    QueueDepthUs,
    /// Counter: batches whose scatter targeted this slot.
    BatchesDispatched,
    /// Counter: static encoder-tier cache hits.
    StaticTierHits,
    /// Counter: dynamic-tier cache hits.
    DynamicTierHits,
    /// Counter: disk-tier cache hits.
    DiskTierHits,
    /// Counter: lookups served by no tier.
    TierMisses,
    /// Gauge: virtual FLOPs occupancy over the epoch, in permille
    /// (busy-µs * 1000 / epoch-span-µs).
    FlopsOccupancyPermille,
    /// Gauge: p50 of the SLA slack distribution this epoch (µs).
    SlaSlackP50Us,
    /// Gauge: p95 of the SLA slack distribution this epoch (µs).
    SlaSlackP95Us,
    /// Gauge: p99 of the SLA slack distribution this epoch (µs).
    SlaSlackP99Us,
    /// Counter: queries whose virtual latency exceeded the SLA.
    SlaViolations,
    /// Counter: trace events lost to ring spill (drop-oldest).
    DroppedTraceEvents,
    /// Counter: scatter legs that missed their per-leg virtual-time
    /// deadline on this node.
    LegTimeouts,
    /// Counter: hedge legs issued *to* this node (the hedge target).
    HedgedLegs,
    /// Counter: backoff retries of timed-out legs on this node.
    LegRetries,
    /// Counter: low-priority queries shed by the brownout controller
    /// (slot 0; shedding happens before scatter).
    ShedQueries,
    /// Counter: batches routed with a brownout-narrowed candidate set
    /// (slot 0).
    BrownoutBatches,
}

impl MetricId {
    /// Every catalog entry, in storage order.
    pub const ALL: [MetricId; 17] = [
        MetricId::QueueDepthUs,
        MetricId::BatchesDispatched,
        MetricId::StaticTierHits,
        MetricId::DynamicTierHits,
        MetricId::DiskTierHits,
        MetricId::TierMisses,
        MetricId::FlopsOccupancyPermille,
        MetricId::SlaSlackP50Us,
        MetricId::SlaSlackP95Us,
        MetricId::SlaSlackP99Us,
        MetricId::SlaViolations,
        MetricId::DroppedTraceEvents,
        MetricId::LegTimeouts,
        MetricId::HedgedLegs,
        MetricId::LegRetries,
        MetricId::ShedQueries,
        MetricId::BrownoutBatches,
    ];

    /// Stable snake_case name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            MetricId::QueueDepthUs => "queue_depth_us",
            MetricId::BatchesDispatched => "batches_dispatched",
            MetricId::StaticTierHits => "static_tier_hits",
            MetricId::DynamicTierHits => "dynamic_tier_hits",
            MetricId::DiskTierHits => "disk_tier_hits",
            MetricId::TierMisses => "tier_misses",
            MetricId::FlopsOccupancyPermille => "flops_occupancy_permille",
            MetricId::SlaSlackP50Us => "sla_slack_p50_us",
            MetricId::SlaSlackP95Us => "sla_slack_p95_us",
            MetricId::SlaSlackP99Us => "sla_slack_p99_us",
            MetricId::SlaViolations => "sla_violations",
            MetricId::DroppedTraceEvents => "dropped_trace_events",
            MetricId::LegTimeouts => "leg_timeouts",
            MetricId::HedgedLegs => "hedged_legs",
            MetricId::LegRetries => "leg_retries",
            MetricId::ShedQueries => "shed_queries",
            MetricId::BrownoutBatches => "brownout_batches",
        }
    }

    /// Gauges are point-in-time values (reset/overwritten per epoch);
    /// counters are cumulative.
    pub fn is_gauge(self) -> bool {
        matches!(
            self,
            MetricId::QueueDepthUs
                | MetricId::FlopsOccupancyPermille
                | MetricId::SlaSlackP50Us
                | MetricId::SlaSlackP95Us
                | MetricId::SlaSlackP99Us
        )
    }

    fn index(self) -> usize {
        match self {
            MetricId::QueueDepthUs => 0,
            MetricId::BatchesDispatched => 1,
            MetricId::StaticTierHits => 2,
            MetricId::DynamicTierHits => 3,
            MetricId::DiskTierHits => 4,
            MetricId::TierMisses => 5,
            MetricId::FlopsOccupancyPermille => 6,
            MetricId::SlaSlackP50Us => 7,
            MetricId::SlaSlackP95Us => 8,
            MetricId::SlaSlackP99Us => 9,
            MetricId::SlaViolations => 10,
            MetricId::DroppedTraceEvents => 11,
            MetricId::LegTimeouts => 12,
            MetricId::HedgedLegs => 13,
            MetricId::LegRetries => 14,
            MetricId::ShedQueries => 15,
            MetricId::BrownoutBatches => 16,
        }
    }
}

/// Lock-free metric storage: one `AtomicU64` cell per `(slot, metric)`.
///
/// Slots are preallocated at construction, so updates on the hot path
/// are a single relaxed atomic op with no allocation.
#[derive(Debug)]
pub struct MetricsRegistry {
    slots: usize,
    cells: Vec<AtomicU64>,
}

impl MetricsRegistry {
    /// Registry with `slots` instances of every catalog metric
    /// (`slots >= 1`; slot 0 doubles as the global slot).
    pub fn new(slots: usize) -> Self {
        let slots = slots.max(1);
        let mut cells = Vec::with_capacity(slots * MetricId::ALL.len());
        cells.resize_with(slots * MetricId::ALL.len(), || AtomicU64::new(0));
        MetricsRegistry { slots, cells }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    fn cell(&self, m: MetricId, slot: usize) -> &AtomicU64 {
        &self.cells[slot * MetricId::ALL.len() + m.index()]
    }

    /// Add `delta` to a counter (relaxed).
    pub fn add(&self, m: MetricId, slot: usize, delta: u64) {
        self.cell(m, slot).fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrite a gauge (relaxed).
    pub fn set(&self, m: MetricId, slot: usize, value: u64) {
        self.cell(m, slot).store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self, m: MetricId, slot: usize) -> u64 {
        self.cell(m, slot).load(Ordering::Relaxed)
    }

    /// Sum of `m` over every slot (a per-node counter's cluster total).
    pub fn total(&self, m: MetricId) -> u64 {
        (0..self.slots).map(|slot| self.get(m, slot)).sum()
    }

    /// Consistent point-in-time copy of every cell.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            slots: self.slots,
            values: self.cells.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// Immutable copy of a [`MetricsRegistry`] at one instant (e.g. an
/// epoch quiescence barrier). Comparable, clonable, report-friendly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    slots: usize,
    values: Vec<u64>,
}

impl MetricsSnapshot {
    /// Number of slots captured (0 for the empty snapshot).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Value of `m` at `slot` (0 when the snapshot is empty or the
    /// slot is out of range — absent metrics read as zero).
    pub fn get(&self, m: MetricId, slot: usize) -> u64 {
        self.values.get(slot * MetricId::ALL.len() + m.index()).copied().unwrap_or(0)
    }

    /// Render every nonzero cell as `name[slot]=value` lines (debug /
    /// report aid).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for slot in 0..self.slots {
            for m in MetricId::ALL {
                let v = self.get(m, slot);
                if v != 0 {
                    out.push_str(&format!("{}[{}]={}\n", m.name(), slot, v));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_indices_are_dense_and_consistent() {
        for (i, m) in MetricId::ALL.iter().enumerate() {
            assert_eq!(m.index(), i, "{}", m.name());
        }
    }

    #[test]
    fn add_set_snapshot_roundtrip() {
        let reg = MetricsRegistry::new(2);
        reg.add(MetricId::BatchesDispatched, 0, 3);
        reg.add(MetricId::BatchesDispatched, 1, 5);
        reg.set(MetricId::QueueDepthUs, 1, 420);
        let snap = reg.snapshot();
        assert_eq!(snap.get(MetricId::BatchesDispatched, 0), 3);
        assert_eq!(snap.get(MetricId::BatchesDispatched, 1), 5);
        assert_eq!(snap.get(MetricId::QueueDepthUs, 1), 420);
        assert_eq!(snap.get(MetricId::QueueDepthUs, 0), 0);
        assert_eq!(reg.total(MetricId::BatchesDispatched), 8);
        // Later mutations don't retroactively change a snapshot.
        reg.add(MetricId::BatchesDispatched, 0, 1);
        assert_eq!(snap.get(MetricId::BatchesDispatched, 0), 3);
        // Out-of-range slots read as zero instead of panicking.
        assert_eq!(snap.get(MetricId::BatchesDispatched, 9), 0);
        assert!(snap.render().contains("batches_dispatched[1]=5"));
    }

    #[test]
    fn empty_snapshot_reads_zero() {
        let snap = MetricsSnapshot::default();
        assert_eq!(snap.slots(), 0);
        assert_eq!(snap.get(MetricId::SlaViolations, 0), 0);
    }
}
