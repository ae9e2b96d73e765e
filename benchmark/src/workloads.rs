//! The five benchmark workloads: frozen configurations of the public
//! `Engine` / `Cluster` API, and a common view ([`Run`]) of one serve.
//!
//! Every constant here is part of the benchmark definition. Changing one
//! re-bases every number, so it is its own change (README, "Rules").

use std::time::Instant;

use mprec::core::mpcache::CacheStats;
use mprec::data::query::{Query, QueryTraceConfig};
use mprec::data::scenario::{self, LoadScenario};
use mprec::data::traffic::{TenantSpec, TrafficConfig};
use mprec::runtime::{
    Cluster, ClusterConfig, Engine, LatencyHistogram, PathKind, PathUsage, RebalanceConfig,
    RoutePolicy, RuntimeConfig, RuntimeModelConfig, TenantReport, TraceConfig, TraceRecording,
};

/// Workload names, in reporting order (they are final: BENCHMARK.json,
/// the README and every later comparison key on them).
pub const NAMES: [&str; 5] = [
    "table_closed",
    "dhe_closed",
    "mprec_closed",
    "tenants_paced",
    "cluster_churn",
];

/// SLA (µs) of the paced workload, the one where users wait. The closed
/// loops keep the default 10 ms: their measured latency is queue depth
/// times batch time, so a wall-clock SLA says little there.
const PACED_SLA_US: f64 = 5_000.0;

/// Paced duration of one `tenants_paced` repetition (s).
const PACED_SECONDS: f64 = 1.25;
const INTERACTIVE_QPS: f64 = 6_000.0;
const BATCH_QPS: f64 = 3_000.0;

/// Model **B**: large enough that set-up is not timer noise (~0.25 s,
/// ~210 MB) and that all three MP-Cache tiers see traffic.
fn model_b() -> RuntimeModelConfig {
    RuntimeModelConfig {
        sparse_features: 16,
        rows_per_feature: 200_000,
        emb_dim: 16,
        dhe_k: 32,
        dhe_dnn: 64,
        dhe_h: 2,
        top_hidden: vec![64, 32],
        zipf_exponent: 1.05,
        encoder_cache_bytes: 1 << 20,
        decoder_centroids: 32,
        dynamic_cache_entries: 16_384,
        profile_accesses: 200_000,
        ..RuntimeModelConfig::default()
    }
}

fn closed_trace(num_queries: usize) -> QueryTraceConfig {
    QueryTraceConfig {
        num_queries,
        mean_size: 32.0,
        sigma: 1.0,
        max_size: 512,
        qps: 1000.0,
        poisson_arrivals: true,
    }
}

/// One workload, ready to build: the host has 2 cores, so every engine
/// runs dispatcher + 1 worker (2 workers swing ±15 % run to run here).
// A process holds two or three of these: the size difference is moot.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Plan {
    Engine(RuntimeConfig),
    Cluster(ClusterConfig),
}

/// The frozen configuration of workload `name`, with its trace cut to
/// `1 / len_div` of the full length (1 for end-to-end runs, 4 for the
/// traced run, 20 for `--smoke`). `None` for an unknown name.
pub fn plan(name: &str, seed: u64, len_div: usize, recorder: bool) -> Option<Plan> {
    let len_div = len_div.max(1);
    let n = |full: usize| (full / len_div).max(64);
    let engine = |cfg: RuntimeConfig| {
        let queries = if cfg.tenants.is_enabled() {
            cfg.tenants.total_queries()
        } else {
            cfg.trace.num_queries
        };
        Plan::Engine(RuntimeConfig {
            workers: 1,
            seed,
            recorder: recorder_for(recorder, queries),
            ..cfg
        })
    };
    Some(match name {
        // Memory-bound path: 8 x 500 000 x 32 f32 = 512 MB of tables, a
        // flat-ish Zipf so gathers miss the CPU caches, no MP-Cache.
        "table_closed" => engine(RuntimeConfig {
            route: RoutePolicy::Fixed(PathKind::Table),
            trace: closed_trace(n(24_000)),
            model: RuntimeModelConfig {
                sparse_features: 8,
                rows_per_feature: 500_000,
                emb_dim: 32,
                zipf_exponent: 0.6,
                encoder_cache_bytes: 0,
                decoder_centroids: 0,
                dynamic_cache_entries: 0,
                ..RuntimeModelConfig::default()
            },
            ..RuntimeConfig::default()
        }),
        // Compute-bound path: every lookup runs the DHE encoder + decoder
        // MLP, every cache tier off so nothing short-circuits the GEMMs.
        "dhe_closed" => engine(RuntimeConfig {
            route: RoutePolicy::Fixed(PathKind::Dhe),
            trace: closed_trace(n(6_000)),
            virtual_gflops: DHE_VIRTUAL_GFLOPS,
            model: RuntimeModelConfig {
                encoder_cache_bytes: 0,
                decoder_centroids: 0,
                dynamic_cache_entries: 0,
                ..model_b()
            },
            ..RuntimeConfig::default()
        }),
        // The paper's headline: Algorithm 2 mixes the three paths; hot-key
        // drift makes the static tier go stale, so the dynamic tier admits
        // and evicts (the write-heavy use of the cache).
        "mprec_closed" => engine(RuntimeConfig {
            route: RoutePolicy::MpRec,
            trace: closed_trace(n(9_000)),
            scenario: LoadScenario::HotKeyDrift { epochs: 8 },
            virtual_gflops: MPREC_VIRTUAL_GFLOPS,
            model: model_b(),
            ..RuntimeConfig::default()
        }),
        // The only workload where users wait: open loop, paced, ~65 % of
        // the closed-loop capacity of this mix, small queries and batches
        // so per-batch work has its largest share (read-mostly cache use).
        "tenants_paced" => {
            let secs = PACED_SECONDS / len_div as f64;
            let count = |qps: f64| ((qps * secs) as usize).max(64);
            engine(RuntimeConfig {
                route: RoutePolicy::MpRec,
                pace_ingress: true,
                sla_us: PACED_SLA_US,
                max_batch_wait_us: 500.0,
                max_batch_samples: 128,
                virtual_gflops: TENANTS_VIRTUAL_GFLOPS,
                tenants: TrafficConfig::new(vec![
                    TenantSpec::ranking("interactive", count(INTERACTIVE_QPS), INTERACTIVE_QPS),
                    TenantSpec::batch("batch-score", count(BATCH_QPS), BATCH_QPS),
                ]),
                model: model_b(),
                ..RuntimeConfig::default()
            })
        }
        // Scatter/merge, per-node queues, epoch barriers, shard shipping
        // and the disk tier only run here. More threads than cores by
        // construction (dispatcher + 2-3 node workers + merger).
        "cluster_churn" => {
            let trace = closed_trace(n(10_000));
            let span = scenario::nominal_span_us(trace.num_queries, trace.qps);
            Plan::Cluster(ClusterConfig {
                nodes: 2,
                workers_per_node: 1,
                seed,
                route: RoutePolicy::MpRec,
                trace,
                scenario: LoadScenario::HotKeyDrift { epochs: 8 },
                churn: scenario::node_churn(2, span),
                rebalance: RebalanceConfig {
                    streaming_chunks: 3,
                    drain_us: 2000.0,
                    adaptive: true,
                    ..RebalanceConfig::default()
                },
                virtual_gflops: CLUSTER_VIRTUAL_GFLOPS,
                recorder: recorder_for(recorder, trace.num_queries),
                model: model_b(),
                ..ClusterConfig::default()
            })
        }
        _ => return None,
    })
}

/// Virtual compute rates, picked so that at baseline all three paths
/// carry >= 5 % of batches and the virtual SLA-miss fraction sits in
/// 0.01-0.10: a routing change then shows in both directions.
const DHE_VIRTUAL_GFLOPS: f64 = 32.0;
const MPREC_VIRTUAL_GFLOPS: f64 = 0.5;
const TENANTS_VIRTUAL_GFLOPS: f64 = 6.0;
const CLUSTER_VIRTUAL_GFLOPS: f64 = 2.0;

/// Ring sized so that no event of one serve is dropped: per query an
/// Enqueue and a Complete (or Shed), per batch at most BatchFormed,
/// RouteDecision, Execute and one Scatter per leg, and batches <= queries.
fn recorder_for(enabled: bool, queries: usize) -> TraceConfig {
    TraceConfig {
        enabled,
        ring_capacity: 8 * queries + 1024,
        sample_every_n: 1,
    }
}

impl Plan {
    /// Queries the trace offers.
    pub fn offered(&self) -> u64 {
        match self {
            Plan::Engine(c) if c.tenants.is_enabled() => c.tenants.total_queries() as u64,
            Plan::Engine(c) => c.trace.num_queries as u64,
            Plan::Cluster(c) => c.trace.num_queries as u64,
        }
    }

    /// Whether ingress is paced to the trace's arrival times (open loop).
    pub fn paced(&self) -> bool {
        matches!(self, Plan::Engine(c) if c.pace_ingress)
    }

    pub fn is_cluster(&self) -> bool {
        matches!(self, Plan::Cluster(_))
    }

    /// The same workload fed as fast as the workers drain it.
    pub fn unpaced(self) -> Plan {
        match self {
            Plan::Engine(c) => Plan::Engine(RuntimeConfig {
                pace_ingress: false,
                ..c
            }),
            cluster => cluster,
        }
    }

    /// Generates the trace exactly as `serve()` does internally.
    pub fn generate_trace(&self) -> Vec<Query> {
        match self {
            Plan::Engine(c) if c.tenants.is_enabled() => c.tenants.generate(c.seed),
            Plan::Engine(c) => scenario::generate(c.trace, c.scenario, c.seed),
            Plan::Cluster(c) => scenario::generate(c.trace, c.scenario, c.seed),
        }
    }

    pub fn model(&self) -> &RuntimeModelConfig {
        match self {
            Plan::Engine(c) => &c.model,
            Plan::Cluster(c) => &c.model,
        }
    }

    pub fn build(&self) -> Result<Built, String> {
        match self {
            Plan::Engine(c) => Engine::new(c.clone())
                .map(Built::Engine)
                .map_err(|e| format!("engine build: {e}")),
            Plan::Cluster(c) => Cluster::new(c.clone())
                .map(Built::Cluster)
                .map_err(|e| format!("cluster build: {e}")),
        }
    }
}

/// A built system under test.
#[allow(clippy::large_enum_variant)]
pub enum Built {
    Engine(Engine),
    Cluster(Cluster),
}

/// Cluster-only report fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterExtras {
    pub epochs: u64,
    pub migration_steps: u64,
    pub adaptive_replans: u64,
    pub retried_batches: u64,
    pub per_node_batches: Vec<u64>,
}

/// What the benchmark reads from one `serve()`, engine or cluster.
pub struct Run {
    /// Wall time of the `serve()` call, trace generation included.
    pub wall_s: f64,
    pub completed: u64,
    pub shed: u64,
    pub routed: u64,
    pub samples: u64,
    pub correct_samples: f64,
    pub cache: CacheStats,
    /// Measured latencies (from scheduled arrival when paced).
    pub hist: LatencyHistogram,
    /// Virtual latencies, merged over tenants.
    pub vhist: LatencyHistogram,
    pub v_violations: u64,
    pub measured_violations: u64,
    pub path_decisions: Vec<PathKind>,
    /// Samples served per path: table, DHE, hybrid.
    pub path_samples: [u64; 3],
    pub checksum: f64,
    pub tenants: Vec<TenantReport>,
    pub trace: Option<TraceRecording>,
    pub cluster: Option<ClusterExtras>,
}

/// Index of a path in per-path arrays: table, DHE, hybrid.
pub fn path_index(path: PathKind) -> usize {
    match path {
        PathKind::Table => 0,
        PathKind::Dhe => 1,
        PathKind::Hybrid => 2,
    }
}

pub const PATHS: [PathKind; 3] = [PathKind::Table, PathKind::Dhe, PathKind::Hybrid];

/// Usage labels are `<path>@<platform>`.
fn path_samples(usage: &PathUsage) -> [u64; 3] {
    let mut out = [0u64; 3];
    for (label, &samples) in &usage.samples {
        for path in PATHS {
            if label.starts_with(&format!("{path}@")) {
                out[path_index(path)] += samples;
            }
        }
    }
    out
}

impl Built {
    pub fn serve(&self) -> Result<Run, String> {
        let t0 = Instant::now();
        match self {
            Built::Engine(e) => {
                let r = e.serve().map_err(|e| format!("engine serve: {e}"))?;
                let wall_s = t0.elapsed().as_secs_f64();
                let mut vhist = LatencyHistogram::new();
                for t in &r.tenants {
                    vhist.merge(&t.virtual_histogram);
                }
                Ok(Run {
                    wall_s,
                    completed: r.outcome.completed,
                    shed: r.shed_queries,
                    routed: r.routed_queries,
                    samples: r.outcome.samples,
                    correct_samples: r.outcome.correct_samples,
                    cache: r.cache,
                    hist: r.histogram,
                    vhist,
                    v_violations: r.virtual_sla_violations,
                    measured_violations: r.measured_sla_violations,
                    path_decisions: r.path_decisions,
                    path_samples: path_samples(&r.outcome.usage),
                    checksum: r.checksum,
                    tenants: r.tenants,
                    trace: r.trace,
                    cluster: None,
                })
            }
            Built::Cluster(c) => {
                let r = c.serve().map_err(|e| format!("cluster serve: {e}"))?;
                let wall_s = t0.elapsed().as_secs_f64();
                Ok(Run {
                    wall_s,
                    completed: r.outcome.completed,
                    shed: r.shed_queries,
                    routed: r.routed_queries,
                    samples: r.outcome.samples,
                    correct_samples: r.outcome.correct_samples,
                    cache: r.cache,
                    hist: r.histogram,
                    vhist: r.virtual_histogram,
                    v_violations: r.virtual_sla_violations,
                    measured_violations: r.measured_sla_violations,
                    path_decisions: r.path_decisions,
                    path_samples: path_samples(&r.outcome.usage),
                    checksum: r.checksum,
                    tenants: r.tenants,
                    trace: r.trace,
                    cluster: Some(ClusterExtras {
                        epochs: r.epochs.len() as u64,
                        migration_steps: r.migration_steps,
                        adaptive_replans: r.adaptive_replans,
                        retried_batches: r.retried_batches,
                        per_node_batches: r.per_node_batches,
                    }),
                })
            }
        }
    }
}
