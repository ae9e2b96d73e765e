//! The metric catalogue: every name the runner prints, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json`
//! lists the same rows; a unit test keeps the two in step.

use crate::json::Json;
use crate::stats::{Better, Spread};

use Better::{Higher, Lower};

/// How one value is read from a run's repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Median over the repetitions.
    Median,
    /// The quartile on the metric's good side: first for "lower", third
    /// for "higher". For timings of the serve itself, which a neighbour
    /// on this shared 2-core host can only slow down (README, "Noise").
    BestQuartile,
    /// One reading: virtual time or a count, a pure function of
    /// configuration and seed that must repeat bit for bit.
    Exact,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub pick: Pick,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    pick: Pick,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        pick,
    }
}

/// Eleven user-visible metrics, printed for every workload. Fractions
/// that are 0 at baseline are carried as their complements (`*_met_frac`,
/// `completed_frac`): a bound that is a share of the parent's value needs
/// a value that is never 0.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Lower, 0.25, Pick::Median),
    e2e(
        "samples_per_s",
        "samples/s",
        Higher,
        0.25,
        Pick::BestQuartile,
    ),
    e2e(
        "correct_samples_per_s",
        "samples/s",
        Higher,
        0.25,
        Pick::BestQuartile,
    ),
    e2e("lat_p50_us", "us", Lower, 0.25, Pick::BestQuartile),
    e2e("lat_p95_us", "us", Lower, 0.25, Pick::BestQuartile),
    e2e("sla_met_frac", "frac", Higher, 0.02, Pick::Median),
    e2e("completed_frac", "frac", Higher, 0.001, Pick::Exact),
    e2e("served_accuracy", "frac", Higher, 0.001, Pick::Exact),
    e2e("v_sla_met_frac", "frac", Higher, 0.05, Pick::Exact),
    e2e("v_lat_p99_us", "us", Lower, 0.25, Pick::Exact),
    e2e("peak_rss_mb", "MB", Lower, 0.05, Pick::Median),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics of the traced run; layer = crate/module name. A
/// layer a workload does not run reports 0.
pub const PER_LAYER: [PerLayer; 56] = [
    layer("data.trace_gen_s", "s", Lower),
    layer("data.trace_gen_ns_per_query", "ns", Lower),
    layer("runtime.model.draw_ids_frac", "frac", Lower),
    layer("runtime.model.draw_ids_ns_per_id", "ns", Lower),
    layer("embed.table.gather_frac", "frac", Lower),
    layer("embed.table.gather_ns_per_id", "ns", Lower),
    layer("embed.table.gather_gbps", "GB/s", Higher),
    layer("core.mpcache.embed_frac", "frac", Lower),
    layer("core.mpcache.embed_ns_per_id", "ns", Lower),
    layer("core.mpcache.static_hit_frac", "frac", Higher),
    layer("core.mpcache.dynamic_hit_frac", "frac", Higher),
    layer("core.mpcache.disk_hit_frac", "frac", Higher),
    layer("core.mpcache.miss_frac", "frac", Lower),
    layer("core.mpcache.evictions_per_lookup", "1/lookup", Lower),
    layer("core.mpcache.decoder_lookup_frac", "frac", Higher),
    layer("embed.dhe.encode_ns_per_id", "ns", Lower),
    layer("embed.dhe.infer_ns_per_id", "ns", Lower),
    layer("tensor.gemm_decoder_gflops", "GFLOP/s", Higher),
    layer("tensor.gemm_256_gflops", "GFLOP/s", Higher),
    layer("nn.top_mlp_frac", "frac", Lower),
    layer("nn.top_mlp_ns_per_sample", "ns", Lower),
    layer("core.scheduler.route_ns_per_batch", "ns", Lower),
    layer("runtime.queue.handoff_ns", "ns", Lower),
    layer("runtime.histogram.record_ns", "ns", Lower),
    layer("runtime.engine.serve_s", "s", Lower),
    layer("runtime.engine.batches", "count", Lower),
    layer("runtime.engine.mean_batch_samples", "samples", Higher),
    layer("runtime.engine.path_frac_table", "frac", Lower),
    layer("runtime.engine.path_frac_dhe", "frac", Higher),
    layer("runtime.engine.path_frac_hybrid", "frac", Higher),
    layer("runtime.engine.sync_exec_frac", "frac", Lower),
    layer("runtime.engine.unattributed_frac", "frac", Lower),
    layer("runtime.engine.drain_lag_s", "s", Lower),
    layer("runtime.engine.tenant0_v_miss_frac", "frac", Lower),
    layer("runtime.engine.tenant1_v_miss_frac", "frac", Lower),
    layer("runtime.engine.tenant1_shed_frac", "frac", Lower),
    layer("runtime.model.exec_us_per_sample_table", "us", Lower),
    layer("runtime.model.exec_us_per_sample_dhe", "us", Lower),
    layer("runtime.model.exec_us_per_sample_hybrid", "us", Lower),
    layer("runtime.model.virtual_over_measured_table", "ratio", Lower),
    layer("runtime.model.virtual_over_measured_dhe", "ratio", Lower),
    layer("runtime.model.virtual_over_measured_hybrid", "ratio", Lower),
    layer("runtime.cluster.sync_exec_s", "s", Lower),
    layer("runtime.cluster.unattributed_frac", "frac", Lower),
    layer("runtime.cluster.legs_per_batch", "legs", Lower),
    layer("runtime.cluster.node_batch_imbalance", "ratio", Lower),
    layer("runtime.cluster.epochs", "count", Lower),
    layer("runtime.cluster.migration_steps", "count", Lower),
    layer("runtime.cluster.adaptive_replans", "count", Lower),
    layer("runtime.cluster.retried_batches", "count", Lower),
    layer("core.persist.export_mb_per_s", "MB/s", Higher),
    layer("core.persist.load_records_per_s", "1/s", Higher),
    layer("trace.recorder_overhead_frac", "frac", Lower),
    layer("trace.events", "count", Lower),
    layer("trace.dropped_events", "count", Lower),
    layer("host.stream_gbps", "GB/s", Higher),
];

/// One measured value; `spread` for wall-clock metrics taken over
/// several repetitions.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    pub spread: Option<Spread>,
}

/// The result of one run of one workload: what the last stdout line and
/// the detail file are rendered from.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// Printed and kept in the detail file, but no part of the result
    /// line: readings too noisy on this host to hold a change against.
    pub info: Vec<Measured>,
}

impl Outcome {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`; each metric exactly `value` and `unit`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// The same with quartiles and repetition counts, for the detail
    /// files under `out/` and the committed baseline.
    pub fn detail(&self) -> Json {
        let rows = |rows: &[Measured]| {
            Json::obj(rows.iter().map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::str(m.unit)),
                ];
                if let Some(s) = m.spread {
                    let stats = [
                        ("min", s.min),
                        ("q1", s.q1),
                        ("median", s.median),
                        ("q3", s.q3),
                        ("max", s.max),
                    ];
                    fields.extend(stats.map(|(k, v)| (k.to_string(), Json::Num(v))));
                    fields.push(("n".into(), Json::Num(s.n as f64)));
                }
                (m.name, Json::Obj(fields))
            }))
        };
        Json::obj([
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", rows(&self.metrics)),
            ("info", rows(&self.info)),
        ])
    }

    /// A table of every metric by name, with unit, direction and spread.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.info) {
            let spread = m.spread.map_or(String::new(), |s| {
                format!(
                    "  [min {:.6}  q1 {:.6}  median {:.6}  q3 {:.6}  max {:.6}  n {}]",
                    s.min, s.q1, s.median, s.q3, s.max, s.n
                )
            });
            out.push_str(&format!(
                "  {:<44} {:>16.6} {:<10} {:<6}{}\n",
                m.name,
                m.value,
                m.unit,
                m.better.label(),
                spread
            ));
        }
        out
    }
}
