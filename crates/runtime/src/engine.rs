//! The single-node serving engine: the `nodes = 1` case of the elastic
//! [`Cluster`].
//!
//! One box and many boxes are points on one continuum, so there is one
//! dispatcher: [`Engine`] maps its [`RuntimeConfig`] field for field onto
//! a one-node [`ClusterConfig`] (no churn, faults, chaos or rebalancing)
//! and projects the [`ClusterReport`](crate::ClusterReport) back into a
//! [`RuntimeReport`]. A one-node plan is colocated — every path's
//! scatter has the single target node 0 and charges zero network hops —
//! so open-loop ingress, SLA-aware micro-batching, Algorithm 2 in
//! deterministic virtual time, and the worker pool behave exactly as
//! described in the [`cluster`](crate::cluster) module docs.
//!
//! ## Determinism contract
//!
//! Admission, batching, routing, SLA accounting, and the math of every
//! query are all functions of `(config, seed)` only — they run on the
//! dispatcher thread against the trace's *virtual* arrival clock, or are
//! derived per query id. Worker threads only decide *when* wall-clock
//! work happens, never *what* work happens, so aggregate
//! [`ServingOutcome`] counts (completed / samples / correct / virtual
//! SLA violations / per-path usage) are identical for any worker count.
//! Measured wall-clock latencies (the histogram percentiles, span,
//! throughput) are the part reality decides. `tests/engine_golden.rs`
//! pins the whole deterministic surface against constants recorded from
//! the engine's former stand-alone dispatcher.

use mprec_core::candidates::{CandidateRep, RepRole};
use mprec_core::mpcache::CacheStats;
use mprec_core::planner::{Mapping, MappingSet};
use mprec_core::profile::LatencyProfile;
use mprec_data::query::QueryTraceConfig;
use mprec_data::scenario::LoadScenario;
use mprec_data::traffic::TrafficConfig;
use mprec_embed::{DheConfig, RepresentationConfig};
use mprec_hwsim::{Platform, WorkloadBuilder};
use mprec_serving::ServingOutcome;
use mprec_trace::{TraceConfig, TraceRecording};

use crate::cluster::{Cluster, ClusterConfig};
use crate::histogram::LatencyHistogram;
use crate::model::{PathKind, RuntimeModel, RuntimeModelConfig};
use crate::Result;

/// Effective model accuracy per path (the runtime's Table-2 book; the
/// synthetic model here does not measure accuracy online).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathAccuracy {
    /// Table-path accuracy.
    pub table: f32,
    /// DHE-path accuracy.
    pub dhe: f32,
    /// Hybrid-path accuracy (highest).
    pub hybrid: f32,
}

impl Default for PathAccuracy {
    fn default() -> Self {
        // The Kaggle-shaped accuracy book measured by table2_accuracy.
        PathAccuracy {
            table: 0.7879,
            dhe: 0.7894,
            hybrid: 0.7898,
        }
    }
}

impl PathAccuracy {
    /// Accuracy of `path` under this book.
    pub fn of(&self, path: PathKind) -> f32 {
        match path {
            PathKind::Table => self.table,
            PathKind::Dhe => self.dhe,
            PathKind::Hybrid => self.hybrid,
        }
    }
}

/// How the dispatcher picks a path per micro-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Algorithm 2: most accurate path whose expected completion fits the
    /// remaining SLA budget, table fallback otherwise.
    MpRec,
    /// Every batch runs one fixed path (static-deployment baseline).
    Fixed(PathKind),
}

impl std::fmt::Display for RoutePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutePolicy::MpRec => write!(f, "mp-rec"),
            RoutePolicy::Fixed(p) => write!(f, "fixed:{p}"),
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Worker threads executing batches; the bounded work queue holds
    /// four batches per worker before a full queue blocks the dispatcher
    /// (backpressure).
    pub workers: usize,
    /// MP-Cache shard count.
    pub cache_shards: usize,
    /// Query trace shape (sizes, arrivals, QPS).
    pub trace: QueryTraceConfig,
    /// Load scenario reshaping the trace's arrivals / hot-key set
    /// ([`LoadScenario::SteadyPoisson`] reproduces the legacy trace
    /// bit-for-bit).
    pub scenario: LoadScenario,
    /// Multi-tenant open-loop traffic mix. When enabled it *replaces*
    /// `trace`/`scenario` as the load source: arrivals come from
    /// [`TrafficConfig::generate`], each tenant batches separately,
    /// routes under its own [`SlaClass`](mprec_data::traffic::SlaClass),
    /// and is accounted in [`RuntimeReport::tenants`]. Empty (the
    /// default) keeps the legacy single-tenant path bit-for-bit.
    pub tenants: TrafficConfig,
    /// Seed for the trace, the model weights, and per-query ID draws.
    pub seed: u64,
    /// SLA latency target in microseconds.
    pub sla_us: f64,
    /// Micro-batch sample budget: a pending batch flushes at this size.
    pub max_batch_samples: usize,
    /// Micro-batch deadline: a pending batch flushes `max_batch_wait_us`
    /// after its oldest query arrived.
    pub max_batch_wait_us: f64,
    /// Pace ingress to the trace's real arrival times (open-loop load
    /// generator); `false` feeds the trace as fast as workers drain it
    /// (throughput mode).
    pub pace_ingress: bool,
    /// Path-selection policy.
    pub route: RoutePolicy,
    /// Virtual compute rate converting model FLOPs into the router's
    /// virtual-time latency profiles (GFLOP/s).
    pub virtual_gflops: f64,
    /// Fixed virtual per-batch dispatch overhead (µs).
    pub dispatch_overhead_us: f64,
    /// Per-path accuracy book.
    pub accuracy: PathAccuracy,
    /// Flight-recorder gate: when enabled, the dispatcher, every worker
    /// and the merger record virtual-time lifecycle events into
    /// preallocated rings, returned via [`RuntimeReport::trace`]. Off by
    /// default (the `trace` field name was already taken by the
    /// query-trace shape, so the recorder gate lives here).
    pub recorder: TraceConfig,
    /// Model shape.
    pub model: RuntimeModelConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            cache_shards: 16,
            trace: QueryTraceConfig {
                num_queries: 10_000,
                mean_size: 32.0,
                sigma: 1.0,
                max_size: 512,
                qps: 1000.0,
                poisson_arrivals: true,
            },
            scenario: LoadScenario::SteadyPoisson,
            tenants: TrafficConfig::default(),
            seed: 42,
            sla_us: 10_000.0,
            max_batch_samples: 256,
            max_batch_wait_us: 2_000.0,
            pace_ingress: false,
            route: RoutePolicy::MpRec,
            virtual_gflops: 2.0,
            dispatch_overhead_us: 30.0,
            accuracy: PathAccuracy::default(),
            recorder: TraceConfig::default(),
            model: RuntimeModelConfig::default(),
        }
    }
}

/// Per-tenant virtual-time accounting for one run: deterministic
/// dispatcher-side tallies (identical across worker counts, pinned
/// against the replay twin). Legacy single-tenant traces produce one
/// row, tenant 0.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant index (the query id's tenant field).
    pub tenant: u32,
    /// The SLA target (µs) this tenant's violations are counted
    /// against.
    pub sla_us: f64,
    /// Queries routed and executed for this tenant.
    pub completed: u64,
    /// Samples across this tenant's completed queries.
    pub samples: u64,
    /// Queries shed by the tenant's SLA-class ladder (explicit
    /// outcome; never executed).
    pub shed_queries: u64,
    /// Completed queries whose virtual latency exceeded `sla_us`.
    pub virtual_sla_violations: u64,
    /// Sum of virtual latencies (µs) over completed queries.
    pub latency_sum_us: f64,
    /// Virtual-latency histogram over completed queries (per-tenant
    /// p50/p95/p99 for the benchmark and isolation metrics).
    pub virtual_histogram: LatencyHistogram,
}

impl TenantReport {
    /// Violation rate over this tenant's *offered* load (completed +
    /// shed; a shed query counts as a violation of intent even though
    /// it never accrues latency).
    pub fn violation_rate(&self) -> f64 {
        let offered = self.completed + self.shed_queries;
        if offered == 0 {
            return 0.0;
        }
        (self.virtual_sla_violations + self.shed_queries) as f64 / offered as f64
    }
}

/// Everything one serve produced: the simulator-shaped outcome plus the
/// runtime-only telemetry.
#[derive(Debug)]
pub struct RuntimeReport {
    /// Aggregate results in the same shape the simulator emits.
    pub outcome: ServingOutcome,
    /// Merged MP-Cache stats for the run.
    pub cache: CacheStats,
    /// Merged measured-latency histogram.
    pub histogram: LatencyHistogram,
    /// Queries whose *virtual-time* completion exceeded the SLA.
    pub virtual_sla_violations: u64,
    /// Queries whose *measured* latency exceeded the SLA.
    pub measured_sla_violations: u64,
    /// Queries routed by the dispatcher (must equal `outcome.completed`).
    pub routed_queries: u64,
    /// Queries shed by the SLA-class ladder before execution
    /// (`routed_queries + shed_queries` == trace length).
    pub shed_queries: u64,
    /// Per-tenant accounting, indexed by tenant id (one row — tenant
    /// 0 — for legacy traces).
    pub tenants: Vec<TenantReport>,
    /// Path chosen per dispatched micro-batch, in dispatch order — the
    /// deterministic decision trail the differential sim-vs-runtime
    /// tests compare against the replay simulator.
    pub path_decisions: Vec<PathKind>,
    /// Sum of all top-MLP scores (output checksum).
    pub checksum: f64,
    /// Worker count the run used.
    pub workers: usize,
    /// Flight-recorder tracks (`dispatcher`, `node-0-worker-{w}`,
    /// `merger`) when [`RuntimeConfig::recorder`] was enabled, `None`
    /// otherwise.
    pub trace: Option<TraceRecording>,
}

/// The single-node serving engine: build once, serve a trace.
#[derive(Debug)]
pub struct Engine {
    cfg: RuntimeConfig,
    cluster: Cluster,
}

impl Engine {
    /// Builds the one-node cluster behind the engine: the model and the
    /// virtual-time mapping set.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`](crate::RuntimeError::BadConfig)
    /// on degenerate configuration and propagates model-construction
    /// errors.
    pub fn new(cfg: RuntimeConfig) -> Result<Self> {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 1,
            workers_per_node: cfg.workers,
            cache_shards: cfg.cache_shards,
            trace: cfg.trace,
            scenario: cfg.scenario,
            tenants: cfg.tenants.clone(),
            seed: cfg.seed,
            sla_us: cfg.sla_us,
            max_batch_samples: cfg.max_batch_samples,
            max_batch_wait_us: cfg.max_batch_wait_us,
            pace_ingress: cfg.pace_ingress,
            route: cfg.route,
            virtual_gflops: cfg.virtual_gflops,
            dispatch_overhead_us: cfg.dispatch_overhead_us,
            accuracy: cfg.accuracy,
            recorder: cfg.recorder,
            model: cfg.model.clone(),
            // Everything elastic stays at its inert default: no churn,
            // faults, chaos or rebalancing. A never-churned one-node
            // plan is colocated, so `net_overhead_us` is charged zero
            // times and its value is irrelevant.
            ..ClusterConfig::default()
        })?;
        // The cluster normalizes the model config (per-tenant ID skews
        // default off the traffic spec); report the normalized shape.
        let cfg = RuntimeConfig {
            model: cluster.config().model.clone(),
            ..cfg
        };
        Ok(Engine { cfg, cluster })
    }

    /// The engine configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// The serving model.
    pub fn model(&self) -> &RuntimeModel {
        self.cluster.boot_model()
    }

    /// The virtual-time mapping set the dispatcher routes on — shared
    /// with the replay simulator so sim-vs-runtime differential tests
    /// route over identical latency profiles.
    pub fn mapping_set(&self) -> &MappingSet {
        self.cluster.mapping_set()
    }

    /// Execution path per mapping index (parallel to
    /// [`Engine::mapping_set`]).
    pub fn paths(&self) -> &[PathKind] {
        self.cluster.paths()
    }

    /// Serves the configured trace on the worker pool.
    ///
    /// # Errors
    ///
    /// Surfaces any worker-side execution error.
    pub fn serve(&self) -> Result<RuntimeReport> {
        let r = self.cluster.serve()?;
        Ok(RuntimeReport {
            outcome: ServingOutcome {
                policy: format!("runtime:{}@{}w", self.cfg.route, self.cfg.workers),
                ..r.outcome
            },
            cache: r.cache,
            histogram: r.histogram,
            virtual_sla_violations: r.virtual_sla_violations,
            measured_sla_violations: r.measured_sla_violations,
            routed_queries: r.routed_queries,
            shed_queries: r.shed_queries,
            tenants: r.tenants,
            path_decisions: r.path_decisions,
            checksum: r.checksum,
            workers: self.cfg.workers,
            trace: r.trace,
        })
    }
}

/// The SLA-class degrade rank of a path: the order the class-pressure
/// ladder turns candidates off under backlog (hybrid first, then DHE;
/// the table path is never masked). The dispatcher derives the same
/// ranks from each mapping's `RepRole`
/// (`mprec_serving::replay::degrade_rank_of`); this is the path-kind
/// view of that table for callers that hold `PathKind`s.
pub fn degrade_rank(path: PathKind) -> u32 {
    match path {
        PathKind::Hybrid => 2,
        PathKind::Dhe => 1,
        PathKind::Table => 0,
    }
}

/// Convenience: build an engine and serve once.
///
/// # Errors
///
/// Propagates [`Engine::new`] and [`Engine::serve`] errors.
pub fn serve(cfg: RuntimeConfig) -> Result<RuntimeReport> {
    Engine::new(cfg)?.serve()
}

/// Builds the single-platform mapping set the virtual-time router runs
/// on: one mapping per selected path, ordered `[hybrid, dhe, table]`,
/// each with an analytic latency profile from caller-supplied per-sample
/// virtual latency and per-batch overhead (the cluster front-end passes
/// its slowest-shard critical-path cost, and an overhead that charges
/// fewer network hops to paths whose pruned scatter reaches a single
/// node).
pub(crate) fn build_path_mappings(
    m: &RuntimeModelConfig,
    route: RoutePolicy,
    accuracy: PathAccuracy,
    overhead_us_of: impl Fn(PathKind) -> f64,
    per_sample_us_of: impl Fn(PathKind) -> f64,
) -> Result<(MappingSet, Vec<PathKind>)> {
    let builder = WorkloadBuilder::new(
        "runtime",
        vec![m.rows_per_feature; m.sparse_features],
        8,
    );
    let dhe_cfg = DheConfig {
        k: m.dhe_k,
        dnn: m.dhe_dnn,
        h: m.dhe_h,
        out_dim: m.emb_dim,
    };
    let all: [(PathKind, RepRole); 3] = [
        (PathKind::Hybrid, RepRole::Hybrid),
        (PathKind::Dhe, RepRole::Dhe),
        (PathKind::Table, RepRole::Table),
    ];
    let selected: Vec<(PathKind, RepRole)> = match route {
        RoutePolicy::MpRec => all.to_vec(),
        RoutePolicy::Fixed(p) => all.iter().copied().filter(|&(k, _)| k == p).collect(),
    };
    let mut mappings = Vec::with_capacity(selected.len());
    let mut paths = Vec::with_capacity(selected.len());
    for (path, role) in selected {
        let (config, workload) = match path {
            PathKind::Table => (
                RepresentationConfig::table(m.emb_dim),
                builder.table(m.emb_dim)?,
            ),
            PathKind::Dhe => (
                RepresentationConfig::dhe(dhe_cfg),
                builder.dhe(m.dhe_k, m.dhe_dnn, m.dhe_h, m.emb_dim)?,
            ),
            PathKind::Hybrid => (
                RepresentationConfig::hybrid(m.emb_dim, dhe_cfg),
                builder.hybrid(m.emb_dim, m.dhe_k, m.dhe_dnn, m.dhe_h, m.emb_dim)?,
            ),
        };
        let per_sample_us = per_sample_us_of(path);
        let overhead_us = overhead_us_of(path);
        let sizes: Vec<u64> = vec![1, 16, 64, 256, 1024, 4096];
        let lats: Vec<f64> = sizes
            .iter()
            .map(|&n| overhead_us + n as f64 * per_sample_us)
            .collect();
        mappings.push(Mapping {
            rep: CandidateRep {
                name: path.to_string(),
                role,
                config,
                workload,
                accuracy: accuracy.of(path),
            },
            platform_idx: 0,
            profile: LatencyProfile::from_points(sizes, lats),
        });
        paths.push(path);
    }
    Ok((
        MappingSet {
            platforms: vec![Platform::cpu()],
            mappings,
        },
        paths,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeError;

    fn quick_cfg() -> RuntimeConfig {
        RuntimeConfig {
            workers: 2,
            cache_shards: 4,
            trace: QueryTraceConfig {
                num_queries: 300,
                mean_size: 4.0,
                sigma: 1.0,
                max_size: 16,
                qps: 5000.0,
                poisson_arrivals: true,
            },
            model: RuntimeModelConfig {
                sparse_features: 2,
                rows_per_feature: 500,
                emb_dim: 4,
                dhe_k: 8,
                dhe_dnn: 8,
                dhe_h: 1,
                top_hidden: vec![8],
                encoder_cache_bytes: 1024,
                decoder_centroids: 8,
                dynamic_cache_entries: 64,
                profile_accesses: 2_000,
                ..RuntimeModelConfig::default()
            },
            max_batch_samples: 32,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn rejects_zero_workers() {
        let cfg = RuntimeConfig {
            workers: 0,
            ..quick_cfg()
        };
        assert!(matches!(Engine::new(cfg), Err(RuntimeError::BadConfig(_))));
    }

    #[test]
    fn serves_every_query_exactly_once() {
        let report = serve(quick_cfg()).unwrap();
        assert_eq!(report.outcome.completed, 300);
        assert_eq!(report.routed_queries, 300);
        let usage_total: u64 = report.outcome.usage.queries.values().sum();
        assert_eq!(usage_total, 300);
        assert!(report.outcome.samples > 0);
        assert!(report.outcome.span_s > 0.0);
        assert!(report.checksum.is_finite());
        assert_eq!(
            report.histogram.count(),
            300,
            "one latency sample per query"
        );
    }

    #[test]
    fn repeated_serves_on_one_engine_report_identical_cache_stats() {
        // Single worker: with the dynamic tier cleared between runs, the
        // access sequence (and thus the stats) replays exactly. Multiple
        // workers would race dynamic-tier admission order.
        let engine = Engine::new(RuntimeConfig {
            workers: 1,
            ..quick_cfg()
        })
        .unwrap();
        let a = engine.serve().unwrap();
        let b = engine.serve().unwrap();
        assert_eq!(
            a.cache, b.cache,
            "dynamic tier must be cleared between runs"
        );
        assert_eq!(a.outcome.completed, b.outcome.completed);
    }

    #[test]
    fn fixed_route_uses_one_path_only() {
        let cfg = RuntimeConfig {
            route: RoutePolicy::Fixed(PathKind::Table),
            ..quick_cfg()
        };
        let report = serve(cfg).unwrap();
        assert_eq!(report.outcome.usage.queries.len(), 1);
        assert!(report
            .outcome
            .usage
            .queries
            .keys()
            .next()
            .unwrap()
            .starts_with("table@"));
    }

    #[test]
    fn mp_rec_beats_fixed_table_on_correct_samples() {
        let mp = serve(quick_cfg()).unwrap();
        let fixed = serve(RuntimeConfig {
            route: RoutePolicy::Fixed(PathKind::Table),
            ..quick_cfg()
        })
        .unwrap();
        assert!(
            mp.outcome.correct_samples > fixed.outcome.correct_samples,
            "multi-path must serve more correct samples: {} vs {}",
            mp.outcome.correct_samples,
            fixed.outcome.correct_samples
        );
    }

    #[test]
    fn tight_virtual_sla_pushes_load_to_the_table_path() {
        let cfg = RuntimeConfig {
            sla_us: 100.0,
            ..quick_cfg()
        };
        let report = serve(cfg).unwrap();
        let table_fraction: f64 = report
            .outcome
            .usage
            .queries
            .iter()
            .filter(|(k, _)| k.starts_with("table@"))
            .map(|(_, &v)| v as f64)
            .sum::<f64>()
            / report.outcome.completed as f64;
        assert!(
            table_fraction > 0.5,
            "tight SLA should fall back to table, got {table_fraction}"
        );
    }

    #[test]
    fn virtual_accounting_is_worker_count_invariant() {
        let base = quick_cfg();
        let runs: Vec<_> = [1usize, 3]
            .iter()
            .map(|&w| {
                serve(RuntimeConfig {
                    workers: w,
                    ..base.clone()
                })
                .unwrap()
            })
            .collect();
        assert_eq!(runs[0].outcome.completed, runs[1].outcome.completed);
        assert_eq!(
            runs[0].virtual_sla_violations,
            runs[1].virtual_sla_violations
        );
        assert_eq!(runs[0].outcome.usage, runs[1].outcome.usage);
    }
}
