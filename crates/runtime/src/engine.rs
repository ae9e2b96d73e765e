//! The single-node names: [`RuntimeConfig`] is the one-node shape of a
//! [`ClusterConfig`], and [`Engine`] is [`Cluster`] itself.
//!
//! One box and many boxes are points on one continuum, so there is one
//! dispatcher: a `RuntimeConfig` converts field for field into a
//! one-node `ClusterConfig` (no churn, faults, chaos or rebalancing). A
//! one-node plan is colocated — every path's scatter has the single
//! target node 0 and charges zero network hops — so open-loop ingress,
//! SLA-aware micro-batching, Algorithm 2 in deterministic virtual time,
//! and the worker pool behave exactly as described in the
//! [`cluster`](crate::cluster) module docs.
//!
//! ## Determinism contract
//!
//! Admission, batching, routing, SLA accounting, and the math of every
//! query are all functions of `(config, seed)` only — they run on the
//! dispatcher thread against the trace's *virtual* arrival clock, or are
//! derived per query id. Worker threads only decide *when* wall-clock
//! work happens, never *what* work happens, so aggregate
//! [`ServingOutcome`](crate::ServingOutcome) counts (completed / samples
//! / correct / virtual SLA violations / per-path usage) are identical
//! for any worker count. Measured wall-clock latencies (the histogram
//! percentiles, span, throughput) are the part reality decides.
//! `tests/engine_golden.rs` pins the whole deterministic surface against
//! constants recorded from the engine's former stand-alone dispatcher.

use mprec_core::candidates::{default_accuracy_book, CandidateRep};
use mprec_core::planner::{Mapping, MappingSet};
use mprec_core::profile::LatencyProfile;
use mprec_data::query::QueryTraceConfig;
use mprec_data::scenario::LoadScenario;
use mprec_data::traffic::TrafficConfig;
use mprec_data::DatasetSpec;
use mprec_embed::{DheConfig, RepresentationConfig};
use mprec_hwsim::{Platform, WorkloadBuilder};
use mprec_serving::replay::degrade_rank_of;
use mprec_trace::TraceConfig;

use crate::cluster::{Cluster, ClusterConfig, ClusterReport};
use crate::histogram::LatencyHistogram;
use crate::model::{PathKind, RuntimeModelConfig};
use crate::Result;

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

/// The one-node configuration shape: converts into a [`ClusterConfig`]
/// with `nodes: 1` (see its `From` impl).
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
    /// and is accounted in [`ClusterReport::tenants`]. Empty (the
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
    /// Flight-recorder gate: when enabled, the dispatcher, every worker
    /// and the merger record virtual-time lifecycle events into
    /// preallocated rings, returned via [`ClusterReport::trace`]. Off by
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
            recorder: TraceConfig::default(),
            model: RuntimeModelConfig::default(),
        }
    }
}

impl From<RuntimeConfig> for ClusterConfig {
    /// The one-node cluster: `workers` become node 0's pool, every
    /// shared field carries over, and everything elastic (churn, faults,
    /// chaos, rebalancing, per-node capacities) stays at its inert
    /// default.
    fn from(cfg: RuntimeConfig) -> Self {
        ClusterConfig {
            nodes: 1,
            workers_per_node: cfg.workers,
            cache_shards: cfg.cache_shards,
            trace: cfg.trace,
            scenario: cfg.scenario,
            tenants: cfg.tenants,
            seed: cfg.seed,
            sla_us: cfg.sla_us,
            max_batch_samples: cfg.max_batch_samples,
            max_batch_wait_us: cfg.max_batch_wait_us,
            pace_ingress: cfg.pace_ingress,
            route: cfg.route,
            virtual_gflops: cfg.virtual_gflops,
            recorder: cfg.recorder,
            model: cfg.model,
            ..ClusterConfig::default()
        }
    }
}

/// The single-node serving engine is a [`Cluster`] built from a
/// [`RuntimeConfig`]. The name exists only because the frozen benchmark
/// (`benchmark/`) names it; it goes when the benchmark moves to
/// `Cluster` (ROADMAP item 12).
pub type Engine = Cluster;

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

/// The SLA-class degrade rank of a path: the order the class-pressure
/// ladder turns candidates off under backlog (hybrid first, then DHE;
/// the table path is never masked) — the dispatcher's
/// [`degrade_rank_of`] over the path's [`PathKind::role`]. Only the
/// frozen benchmark names it.
pub fn degrade_rank(path: PathKind) -> u32 {
    degrade_rank_of(path.role())
}

/// Convenience: build a cluster and serve once (a [`RuntimeConfig`]
/// serves on one node).
///
/// # Errors
///
/// Propagates [`Cluster::new`] and [`Cluster::serve`] errors.
pub fn serve(cfg: impl Into<ClusterConfig>) -> Result<ClusterReport> {
    Cluster::new(cfg)?.serve()
}

/// Builds the single-platform mapping set the virtual-time router runs
/// on: one mapping per entry of `paths`, in that order, each with its
/// role's Kaggle-row accuracy from the Table-2 book and an analytic
/// latency profile from caller-supplied per-sample virtual latency and
/// per-batch overhead (the cluster front-end passes its slowest-shard
/// critical-path cost, and an overhead that charges fewer network hops
/// to paths whose pruned scatter reaches a single node).
pub(crate) fn build_path_mappings(
    m: &RuntimeModelConfig,
    paths: &[PathKind],
    overhead_us_of: impl Fn(PathKind) -> f64,
    per_sample_us_of: impl Fn(PathKind) -> f64,
) -> Result<MappingSet> {
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
    // The synthetic model does not measure accuracy online.
    let book = default_accuracy_book(&DatasetSpec::kaggle_sim(1));
    let mut mappings = Vec::with_capacity(paths.len());
    for &path in paths {
        let (config, workload, accuracy) = match path {
            PathKind::Table => (
                RepresentationConfig::table(m.emb_dim),
                builder.table(m.emb_dim)?,
                book.table,
            ),
            PathKind::Dhe => (
                RepresentationConfig::dhe(dhe_cfg),
                builder.dhe(m.dhe_k, m.dhe_dnn, m.dhe_h, m.emb_dim)?,
                book.dhe,
            ),
            PathKind::Hybrid => (
                RepresentationConfig::hybrid(m.emb_dim, dhe_cfg),
                builder.hybrid(m.emb_dim, m.dhe_k, m.dhe_dnn, m.dhe_h, m.emb_dim)?,
                book.hybrid,
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
                role: path.role(),
                config,
                workload,
                accuracy,
            },
            platform_idx: 0,
            profile: LatencyProfile::from_points(sizes, lats),
        });
    }
    Ok(MappingSet {
        platforms: vec![Platform::cpu()],
        mappings,
    })
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
    fn runtime_config_converts_to_the_one_node_cluster() {
        use mprec_data::traffic::TenantSpec;
        let rc = RuntimeConfig {
            workers: 3,
            cache_shards: 5,
            trace: QueryTraceConfig {
                num_queries: 123,
                ..quick_cfg().trace
            },
            scenario: LoadScenario::HotKeyDrift { epochs: 3 },
            tenants: TrafficConfig::new(vec![TenantSpec::ranking("t", 10, 100.0)]),
            seed: 7,
            sla_us: 1_234.0,
            max_batch_samples: 17,
            max_batch_wait_us: 321.0,
            pace_ingress: true,
            route: RoutePolicy::Fixed(PathKind::Dhe),
            virtual_gflops: 3.5,
            recorder: TraceConfig::enabled(),
            model: quick_cfg().model,
        };
        let c = ClusterConfig::from(rc.clone());
        let d = RuntimeConfig::default();
        assert_ne!(rc.workers, d.workers);
        assert_eq!((c.nodes, c.workers_per_node), (1, rc.workers));
        macro_rules! shared {
            ($($f:ident),*) => {$(
                assert_ne!(rc.$f, d.$f, "{} is set off its default", stringify!($f));
                assert_eq!(c.$f, rc.$f, "{} carries over", stringify!($f));
            )*};
        }
        shared!(
            cache_shards,
            trace,
            scenario,
            tenants,
            seed,
            sla_us,
            max_batch_samples,
            max_batch_wait_us,
            pace_ingress,
            route,
            virtual_gflops,
            recorder,
            model
        );
        let inert = ClusterConfig::default();
        assert_eq!(c.churn, inert.churn);
        assert_eq!(c.faults, inert.faults);
        assert_eq!(c.chaos, inert.chaos);
        assert_eq!(c.rebalance, inert.rebalance);
        assert_eq!(c.node_capacity_gflops, inert.node_capacity_gflops);
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
