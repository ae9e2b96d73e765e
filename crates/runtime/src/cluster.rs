//! Elastic scale-out cluster serving: a feature-sharded multi-node
//! runtime that survives node failures, rebalances live, and prunes its
//! scatter to the nodes a batch actually needs.
//!
//! One machine's worker pool and one MP-Cache only go so far. This
//! module serves a trace across a *changing* set of simulated nodes —
//! and it is the runtime's only dispatcher: a single-node
//! [`RuntimeConfig`](crate::RuntimeConfig) converts into its `nodes = 1`
//! case.
//!
//! * a **consistent-hash feature-shard router**
//!   ([`FeatureShardPlan`] over [`mprec_core::ring::HashRing`])
//!   partitions the sparse-feature space — each node owns the embedding
//!   tables, DHE stacks, and `ShardedMpCache` state of its features
//!   only. Node churn ([`ClusterConfig::churn`]) re-owns only the ~K/N
//!   remapped features, computed incrementally
//!   through the ring's remap-diff API ([`HashRing::diff`] +
//!   [`FeatureShardPlan::apply`]);
//! * a **front-end** micro-batches queries per tenant and routes each
//!   batch by Algorithm 2 in deterministic virtual time — all of it the
//!   sans-IO dispatcher core [`mprec_serving::dispatch`], which this
//!   module drives with threads — then **scatters** each batch to the
//!   *pruned* target set of the routed path — only the nodes whose
//!   per-node cache state the path touches, plus one designated
//!   executor for replicated table-only work;
//! * a **merger** gathers the partial pools, sums them, runs the top
//!   MLP, and records measured latencies into a mergeable histogram.
//!
//! # Virtual-time accounting
//!
//! Routing runs on the trace's virtual clock and is a pure function of
//! `(config, seed)`:
//!
//! * each path's **execution latency** comes from a per-epoch profile
//!   charging the *slowest shard* — the max over the path's scatter
//!   targets of that node's per-sample embedding FLOPs scaled by its
//!   capacity budget ([`ClusterConfig::node_capacity_gflops`]) — plus
//!   the shared top-MLP merge cost, a fixed 30 µs dispatch overhead
//!   per batch, and 0, 1, or 2 network hops of 150 µs each for
//!   colocated, single-target (pruned), and fan-out scatters
//!   respectively;
//! * each node carries a **virtual backlog**: a dispatched batch
//!   occupies every scatter target until the batch's merge completes,
//!   so an overloaded shard back-pressures Algorithm 2 toward cheaper
//!   paths (table/cache) instead of queueing unboundedly;
//! * a **churn event** takes effect at the first batch flush at or
//!   after its timestamp. A batch in flight to a node that fails is
//!   **retried**: it re-executes under the post-failure plan starting
//!   at the failure instant, and its queries are charged the *full*
//!   latency — original attempt plus retry leg — in the virtual
//!   histogram and SLA accounting.
//!
//! `mprec_serving::replay::replay_cluster` drives the same core with no
//! IO over [`Cluster::replay_spec`]; `tests/sim_vs_runtime.rs` uses it
//! to check that this module *executed* what the core decided, and
//! `tests/cluster_golden.rs` pins the decisions themselves.
//!
//! # Examples
//!
//! A 3-node cluster that loses a node mid-trace and admits a fresh one:
//!
//! ```
//! use mprec_runtime::{Cluster, ClusterConfig, RuntimeModelConfig};
//! use mprec_data::query::QueryTraceConfig;
//! use mprec_data::scenario::{ChurnAction, ChurnEvent};
//!
//! let cluster = Cluster::new(ClusterConfig {
//!     nodes: 3,
//!     churn: vec![
//!         // node 2 dies 10ms in, a cold node joins at 20ms
//!         ChurnEvent { at_us: 10_000.0, node: 2, action: ChurnAction::Fail },
//!         ChurnEvent { at_us: 20_000.0, node: 3, action: ChurnAction::Join },
//!     ],
//!     trace: QueryTraceConfig {
//!         num_queries: 150,
//!         mean_size: 4.0,
//!         max_size: 16,
//!         qps: 5_000.0,
//!         ..QueryTraceConfig::default()
//!     },
//!     model: RuntimeModelConfig {
//!         sparse_features: 4,
//!         rows_per_feature: 300,
//!         emb_dim: 4,
//!         dhe_k: 8,
//!         dhe_dnn: 8,
//!         dhe_h: 1,
//!         top_hidden: vec![8],
//!         decoder_centroids: 0,
//!         profile_accesses: 500,
//!         ..RuntimeModelConfig::default()
//!     },
//!     ..ClusterConfig::default()
//! })?;
//! assert_eq!(cluster.epochs().len(), 3);
//!
//! let report = cluster.serve()?;
//! assert_eq!(report.outcome.completed, 150);
//! // The failed node owns nothing in the final epoch.
//! assert!(cluster.epochs()[2].plan.features_of(2).is_empty());
//! # Ok::<(), mprec_runtime::RuntimeError>(())
//! ```

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mprec_core::mpcache::CacheStats;
use mprec_core::planner::MappingSet;
use mprec_core::ring::{HashRing, DEFAULT_VNODES};
use mprec_data::query::{Query, QueryTraceConfig};
use mprec_data::scenario::{self, ChaosConfig, ChurnAction, ChurnEvent, FaultPlan, LoadScenario};
use mprec_data::traffic::TrafficConfig;
use mprec_nn::MlpScratch;
use mprec_serving::dispatch::{
    dispatch, AdaptiveTrigger, ClusterChurnSpec, ClusterEpochSpec, ClusterReplaySpec,
    DispatchSpec, DispatchTally, Executor, Flight,
};
use mprec_serving::replay::ReplayConfig;
use mprec_serving::ServingOutcome;
use mprec_tensor::Matrix;
use mprec_trace::{EventRing, TraceConfig, TraceEvent, TraceRecording};
use parking_lot::{Condvar, Mutex};

pub use mprec_core::ring::FeatureShardPlan;

use crate::engine::{build_path_mappings, RoutePolicy, TenantReport};
use crate::histogram::LatencyHistogram;
use crate::model::{BatchResult, PathKind, RuntimeModel, RuntimeModelConfig, ScratchSpace};
use crate::queue::BoundedQueue;
use crate::{Result, RuntimeError};

/// Full cluster configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of initial nodes (ids `0..nodes`), each with its own
    /// worker pool and cache state over the one shared set of weights.
    pub nodes: usize,
    /// Worker threads per node; each node's work queue holds four jobs
    /// per worker before a push blocks the front-end.
    pub workers_per_node: usize,
    /// MP-Cache shard count *inside* each node.
    pub cache_shards: usize,
    /// Query trace shape (sizes, arrivals, QPS).
    pub trace: QueryTraceConfig,
    /// Load scenario reshaping arrivals / the hot-key set.
    pub scenario: LoadScenario,
    /// Node-churn schedule on the virtual-time axis: failures and joins
    /// in strictly increasing time order (see
    /// [`mprec_data::scenario::node_churn`] for the canonical one).
    /// Each event starts a new [`ClusterEpoch`].
    pub churn: Vec<ChurnEvent>,
    /// Per-node-id virtual compute budgets (GFLOP/s) enforced by the
    /// router's backlog accounting; indexed by node id, missing entries
    /// defaulting to [`ClusterConfig::virtual_gflops`], non-finite or
    /// non-positive ones rejected. An undersized node inflates
    /// every path profile whose scatter targets it, back-pressuring
    /// routing toward cheaper paths.
    pub node_capacity_gflops: Vec<f64>,
    /// Seed for the trace, the model weights, and per-query ID draws.
    pub seed: u64,
    /// SLA latency target in microseconds.
    pub sla_us: f64,
    /// Micro-batch sample budget.
    pub max_batch_samples: usize,
    /// Micro-batch deadline (µs after the oldest pending arrival).
    pub max_batch_wait_us: f64,
    /// Pace ingress to the trace's arrival times (open-loop) instead of
    /// feeding as fast as the cluster drains (throughput mode).
    pub pace_ingress: bool,
    /// Path-selection policy.
    pub route: RoutePolicy,
    /// Default virtual compute rate per node (GFLOP/s) for the
    /// critical-path latency profiles.
    pub virtual_gflops: f64,
    /// Virtual per-sample penalty (µs) charged to a path whose scatter
    /// targets a node serving DHE features with cold RAM tiers — i.e. in
    /// the epoch right after that node joined, when its lookups are
    /// served by the warm-started persistent disk tier instead of RAM.
    /// The penalty is folded into the epoch's latency profiles, so
    /// Algorithm 2 routes around the cold tier. 0 disables the charge.
    pub disk_hit_us: f64,
    /// Flight-recorder config: when enabled, the dispatcher, every node
    /// worker, and the merger each record the query lifecycle into a
    /// preallocated per-track [`EventRing`], assembled into
    /// [`ClusterReport::trace`]. Off by default (zero overhead beyond
    /// one branch per would-be event).
    pub recorder: TraceConfig,
    /// Deterministic fault schedule on the virtual-time axis: straggler
    /// windows, scatter-leg losses, and unannounced stalls, injected
    /// into leg resolution without the epoch machinery knowing. Empty
    /// (no faults) by default.
    pub faults: FaultPlan,
    /// Lifecycle-hardening knobs: per-leg virtual timeouts, bounded
    /// backoff retries, hedged scatter, and the brownout ladder. The
    /// default is fully inert — `timeout_mult == 0` preserves the
    /// legacy single-attempt leg accounting bit for bit.
    pub chaos: ChaosConfig,
    /// Shard-migration strategy: stop-the-world barrier swaps (the
    /// fully inert default) versus incremental streaming handoff,
    /// cold-tier penalty drain, and the adaptive partial-migration
    /// planner.
    pub rebalance: RebalanceConfig,
    /// Multi-tenant open-loop traffic engine. When enabled (at least
    /// one tenant), the cluster serves the tenanted trace it generates
    /// instead of `trace`/`scenario`; each tenant batches on its own
    /// deadline axis, routes under its own `SlaClass`, and is
    /// accounted in [`ClusterReport::tenants`]. Empty (the default)
    /// keeps the legacy single-stream trace bit for bit.
    pub tenants: TrafficConfig,
    /// Model shape (shared weights, sharded execution).
    pub model: RuntimeModelConfig,
}

/// How the cluster moves shards when membership (or load) changes.
///
/// The default reproduces the legacy stop-the-world behaviour bit for
/// bit: every churn event is a single quiescence-barrier epoch swap and
/// a joiner's [`ClusterConfig::disk_hit_us`] penalty is never lifted.
/// Turning the knobs on replaces join rebalances with an incremental
/// dual-ownership handoff ([`FeatureShardPlan::begin_handoff`]) whose
/// chunks flip one at a time while traffic flows, drains the cold-tier
/// penalty once the shipped disk records have promoted, and arms a
/// dispatcher-side planner that migrates hot features off the most
/// backlogged node under load skew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Number of incremental chunks a join's remap diff is streamed in
    /// (`0` = legacy single barrier swap). Each chunk is one plan flip:
    /// the old owners ship the chunk's warm entries — dynamic *and*
    /// disk tier — then ownership flips, so reads before the flip keep
    /// hitting the old owner's warm cache and the joiner never serves a
    /// feature it has no state for. Flips are 500 µs of virtual time
    /// apart, closer when the next churn event leaves less room.
    pub streaming_chunks: usize,
    /// Virtual time after a join's last plan flip at which the joiner's
    /// [`ClusterConfig::disk_hit_us`] penalty is lifted — by then its
    /// warm-started disk tier has drained into RAM. `0` keeps the
    /// legacy behaviour of charging the penalty for the rest of the
    /// run, long after the cold tier stopped being cold.
    pub drain_us: f64,
    /// Enables the adaptive planner: once the static churn schedule is
    /// exhausted, the dispatcher watches the live nodes' virtual queue
    /// depth at every flush and triggers a partial migration when the
    /// backlog imbalance crosses the threshold (hot-key drift parks the
    /// hot features' owner at the back of every queue).
    pub adaptive: bool,
    /// Backlog imbalance — max minus min live-node virtual queue depth
    /// (µs) at a flush instant — that arms an adaptive migration.
    pub adaptive_threshold_us: f64,
    /// Minimum virtual time between adaptive migrations (µs).
    pub adaptive_cooldown_us: f64,
    /// Features moved off the busiest node per adaptive migration.
    pub adaptive_max_moves: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            streaming_chunks: 0,
            drain_us: 0.0,
            adaptive: false,
            adaptive_threshold_us: 2_000.0,
            adaptive_cooldown_us: 5_000.0,
            adaptive_max_moves: 2,
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            workers_per_node: 1,
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
            churn: Vec::new(),
            node_capacity_gflops: Vec::new(),
            seed: 42,
            sla_us: 10_000.0,
            max_batch_samples: 256,
            max_batch_wait_us: 2_000.0,
            pace_ingress: false,
            route: RoutePolicy::MpRec,
            virtual_gflops: 2.0,
            disk_hit_us: 2.0,
            recorder: TraceConfig::default(),
            faults: FaultPlan::default(),
            chaos: ChaosConfig::default(),
            rebalance: RebalanceConfig::default(),
            tenants: TrafficConfig::default(),
            model: RuntimeModelConfig::default(),
        }
    }
}

/// One simulated node: its own MP-Cache over the weights all nodes share
/// (so any feature can execute anywhere); [`capacity_of`] has its budget.
#[derive(Debug, Clone)]
struct ClusterNode {
    id: u32,
    model: Arc<RuntimeModel>,
}

/// One interval of cluster membership between churn events. What the
/// dispatcher routes on — the live node set, the shard plan, the
/// capacity-aware slowest-shard routing profiles, the pruned target
/// ids and hedge successors — is the embedded [`ClusterEpochSpec`]
/// (reachable as plain fields through `Deref`: `epoch.live`,
/// `epoch.plan`, `epoch.mappings`, `epoch.hedge_next`); what only
/// execution needs rides next to it.
#[derive(Debug)]
pub struct ClusterEpoch {
    /// Virtual start time of the epoch (0 for the boot epoch, the churn
    /// event's timestamp afterwards).
    pub start_us: f64,
    /// Per mapping index: the pruned scatter assignment — `(node id,
    /// features that node pools for a batch on this path)`. DHE-cached
    /// features always execute on their shard owner; replicated
    /// table-only features fold onto the first target.
    pub assignments: Vec<Vec<(u32, Arc<Vec<usize>>)>>,
    /// The epoch as the dispatcher core (and a replay of it) sees it.
    pub spec: ClusterEpochSpec,
}

impl Deref for ClusterEpoch {
    type Target = ClusterEpochSpec;

    fn deref(&self) -> &ClusterEpochSpec {
        &self.spec
    }
}

impl ClusterEpoch {
    /// The scatter target node ids of mapping `idx`, ascending.
    pub fn targets(&self, idx: usize) -> Vec<u32> {
        self.spec.targets[idx].clone()
    }
}

/// Reusable buffers for the synchronous scatter/gather path
/// ([`Cluster::execute_with`]): one [`ScratchSpace`] and one partial
/// matrix per scatter slot, the gathered pool, and the top-MLP scratch.
/// With a warm `ClusterScratch`, an executed batch performs zero heap
/// allocations (extended guard in `tests/zero_alloc.rs`).
#[derive(Debug, Default)]
pub struct ClusterScratch {
    per_node: Vec<ScratchSpace>,
    partials: Vec<Matrix>,
    pooled: Matrix,
    top: MlpScratch,
}

/// Per-epoch slice of a cluster serve: what this membership interval
/// dispatched and how each node's cache fared during it.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Virtual start time of the epoch (µs).
    pub start_us: f64,
    /// Live node ids during the epoch, ascending.
    pub live: Vec<u32>,
    /// Micro-batches dispatched while this epoch was current.
    pub batches: u64,
    /// Cache-counter delta per replica over this epoch, parallel to
    /// [`ClusterReport::node_ids`]. A rebalanced shard's new owner
    /// starts cold here — the post-failure hit-rate dip and its
    /// recovery are read off consecutive epochs.
    pub per_node_cache: Vec<CacheStats>,
}

impl EpochReport {
    /// Merged encoder hit rate across all replicas for this epoch.
    pub fn hit_rate(&self) -> f64 {
        self.per_node_cache
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.merged(s))
            .encoder_hit_rate()
    }
}

/// Everything one cluster serve produced.
#[derive(Debug)]
pub struct ClusterReport {
    /// Aggregate results in the simulator's outcome shape.
    pub outcome: ServingOutcome,
    /// Merged MP-Cache stats across all replicas.
    pub cache: CacheStats,
    /// Replica node ids, in construction order (initial nodes, then
    /// joiners); every `per_node_*` vector below is parallel to this.
    pub node_ids: Vec<u32>,
    /// Per-replica MP-Cache stats (the per-shard hit-rate view).
    pub per_node_cache: Vec<CacheStats>,
    /// Features owned per replica under the final epoch's plan (0 for
    /// failed nodes).
    pub per_node_features: Vec<usize>,
    /// Scatter jobs executed per replica (summed over its workers).
    pub per_node_batches: Vec<u64>,
    /// Merged measured-latency histogram.
    pub histogram: LatencyHistogram,
    /// Deterministic virtual-time latency histogram: per query,
    /// completion minus arrival — for retried batches the *full*
    /// latency including the failed attempt, not just the retry leg.
    pub virtual_histogram: LatencyHistogram,
    /// Queries whose virtual-time completion exceeded the SLA.
    pub virtual_sla_violations: u64,
    /// Queries whose measured latency exceeded the SLA.
    pub measured_sla_violations: u64,
    /// Queries routed by the front-end (must equal
    /// `outcome.completed`).
    pub routed_queries: u64,
    /// Path chosen per micro-batch, in dispatch order.
    pub path_decisions: Vec<PathKind>,
    /// Batches whose in-flight node failed and were re-executed on the
    /// remapped owners (each failure of one batch counts once).
    pub retried_batches: u64,
    /// Queries inside retried batches.
    pub retried_queries: u64,
    /// Low-priority queries dropped by the brownout controller's last
    /// rung before routing (each carries an explicit `Shed` outcome in
    /// the trace; they never reach a node).
    pub shed_queries: u64,
    /// Scatter legs that missed their per-leg virtual-time deadline
    /// (`chaos.timeout_mult ×` the scored execution cost).
    pub leg_timeouts: u64,
    /// Hedge legs issued: after a slow leg passed the hedge fraction of
    /// its timeout budget, the batch was re-issued to the node's ring
    /// successor, first result winning.
    pub hedged_legs: u64,
    /// Backoff retries of timed-out legs (both legs' time is charged to
    /// the virtual histogram, extending the churn-retry contract).
    pub leg_retries: u64,
    /// Incremental shard-migration steps executed: streaming chunk
    /// flips plus adaptive partial migrations (0 under the legacy
    /// barrier default).
    pub migration_steps: u64,
    /// Overlay epochs the adaptive planner opened, each one partial
    /// migration triggered by live backlog imbalance (0 with the
    /// planner off).
    pub adaptive_replans: u64,
    /// Per-tenant accounting rows, indexed by tenant id (row 0 covers
    /// legacy untenanted traffic). Offered load partitions exactly:
    /// Σ (completed + shed) over rows equals the trace length, and each
    /// row's histogram/violation counters cover only that tenant's
    /// queries.
    pub tenants: Vec<TenantReport>,
    /// Per-epoch slices: membership, dispatch counts, cache deltas.
    pub epochs: Vec<EpochReport>,
    /// Sum of all top-MLP scores.
    pub checksum: f64,
    /// Initial node count the run was configured with.
    pub nodes: usize,
    /// Flight-recorder tracks (`dispatcher`, `node-{id}-worker-{w}`,
    /// `merger`) when [`ClusterConfig::recorder`] was enabled. The
    /// dispatcher track is deterministic in `(config, seed)`
    /// (`tests/cluster_golden.rs` pins it).
    pub trace: Option<TraceRecording>,
}

/// One query inside a dispatched batch (front-end bookkeeping).
#[derive(Debug, Clone, Copy)]
struct WorkQuery {
    size: u64,
    real_arrival: Instant,
}

/// A scattered micro-batch, shared by its target nodes and the merger.
#[derive(Debug)]
struct BatchShared {
    path: PathKind,
    specs: Vec<(u64, u64)>,
    queries: Vec<WorkQuery>,
    total: usize,
    /// Dispatch-order batch id (the flight recorder's correlation key).
    batch: u64,
    /// Virtual execution window (final leg), carried so node workers
    /// and the merger can stamp their events in virtual time.
    vstart_us: f64,
    vdone_us: f64,
    /// One partial-pool slot per scatter target, filled by that node's
    /// worker.
    partials: Vec<Mutex<Option<Matrix>>>,
    /// Targets still computing; the worker that drops this to zero
    /// hands the batch to the merger.
    pending: AtomicUsize,
}

/// One unit of scatter work on a node's queue: which slot of which
/// batch, pooling which features.
#[derive(Debug)]
struct ScatterJob {
    shared: Arc<BatchShared>,
    slot: usize,
    features: Arc<Vec<usize>>,
}

#[derive(Debug)]
struct NodeWorkerReport {
    batches: u64,
    error: Option<String>,
    /// This worker's flight-recorder track (None when tracing is off).
    ring: Option<EventRing>,
}

#[derive(Debug)]
struct MergerReport {
    histogram: LatencyHistogram,
    completed: u64,
    samples: u64,
    measured_violations: u64,
    checksum: f64,
    last_done: Instant,
    error: Option<String>,
    /// The merger's flight-recorder track (None when tracing is off).
    ring: Option<EventRing>,
}

impl MergerReport {
    /// An empty report; the ring (if any) preallocates here, before the
    /// first batch, so steady-state recording never allocates.
    fn new(start: Instant, recorder: TraceConfig) -> Self {
        MergerReport {
            histogram: LatencyHistogram::new(),
            completed: 0,
            samples: 0,
            measured_violations: 0,
            checksum: 0.0,
            last_done: start,
            error: None,
            ring: recorder.ring(),
        }
    }
}

/// Cross-thread progress ledger: how many batches the merger has fully
/// gathered, plus a failure flag. The front-end blocks on it at epoch
/// boundaries (quiescence barrier) so cache snapshots and queue
/// teardown happen with no batch in flight.
#[derive(Debug)]
struct Progress {
    state: Mutex<(u64, bool)>,
    cv: Condvar,
}

impl Progress {
    fn new() -> Self {
        Progress {
            state: Mutex::new((0, false)),
            cv: Condvar::new(),
        }
    }

    fn batch_done(&self) {
        self.state.lock().0 += 1;
        self.cv.notify_all();
    }

    fn fail(&self) {
        self.state.lock().1 = true;
        self.cv.notify_all();
    }

    fn failed(&self) -> bool {
        self.state.lock().1
    }

    /// Blocks until `target` batches completed; returns `false` if a
    /// worker or the merger failed first.
    fn wait_for_batches(&self, target: u64) -> bool {
        let mut guard = self.state.lock();
        loop {
            if guard.1 {
                return false;
            }
            if guard.0 >= target {
                return true;
            }
            self.cv.wait_for(&mut guard, Duration::from_millis(25));
        }
    }
}

/// Marks the run failed if the owning thread unwinds, so the
/// front-end's quiescence barrier can never hang on a panicked worker.
struct FailOnPanic<'a>(&'a Progress);

impl Drop for FailOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.fail();
        }
    }
}

/// One internal rebalance step on the virtual-time axis. The configured
/// [`ChurnEvent`]s expand into these at build time: a failure or a
/// legacy barrier join stays a single step, a streaming join becomes a
/// window-open plus one flip per chunk, and a configured drain appends
/// a penalty lift. Step `i` opens epoch `i + 1`; the dispatcher core
/// sees step `i` as `Cluster::events[i]`.
#[derive(Debug, Clone)]
enum RebalanceAction {
    /// Stop-the-world removal of a failed node (always a barrier: a
    /// dead node cannot co-serve a dual-ownership window).
    Fail(u32),
    /// Legacy barrier join: the whole remap diff flips at once behind
    /// the quiescence barrier, warm-starting the joiner.
    Join(u32),
    /// A streaming join's window open: the joiner is live but owns
    /// nothing yet; all its incoming features are pending, still
    /// read-served (and written) by their old owners.
    WindowOpen {
        /// The joining node.
        node: u32,
        /// Features registered in the dual-ownership window.
        moves: u64,
    },
    /// One chunk flip of an open window: ship the chunk's warm entries
    /// (dynamic and disk tier) from the old owners, then flip
    /// ownership of exactly these features.
    ChunkFlip {
        /// The receiving (joined) node.
        node: u32,
        /// The features flipping in this chunk.
        feats: Vec<usize>,
    },
    /// The joiner's warm-started disk tier has drained into RAM: swap
    /// the penalized routing profiles back out. Carries no payload —
    /// the lift has no cache or queue side effects, it only advances
    /// the epoch index to the unpenalized profiles.
    PenaltyLift,
}

/// The elastic feature-sharded multi-node serving runtime: build once,
/// serve a trace.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<ClusterNode>,
    epochs: Vec<ClusterEpoch>,
    paths: Vec<PathKind>,
    /// The churn schedule expanded into internal rebalance steps, one
    /// per epoch transition (parallel to `epochs[1..]`): when each one
    /// takes effect and whether it fails a node, as the dispatcher core
    /// sees it, and what this module does at its barrier.
    events: Vec<ClusterChurnSpec>,
    actions: Vec<RebalanceAction>,
    /// Ring state after the whole churn schedule — adaptive overlay
    /// epochs read their hedge successors off it.
    ring: HashRing,
    /// Overlay epochs the adaptive planner opened during the most
    /// recent serve, in trigger order: merged epoch indices continue
    /// after the static schedule, and each one's `start_us` is the
    /// flush instant that triggered it.
    adaptive: Mutex<Vec<ClusterEpoch>>,
}

impl Cluster {
    /// Builds the replicas, the per-epoch shard plans (walking the churn
    /// schedule through the ring's remap-diff API), and the
    /// capacity-aware slowest-shard mapping set of every epoch. Takes a
    /// [`ClusterConfig`] or a one-node
    /// [`RuntimeConfig`](crate::RuntimeConfig).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] on degenerate configuration —
    /// zero nodes/workers/batch budget, a NaN, a non-positive SLA or rate,
    /// a negative wait or disk penalty, an unsorted churn schedule, failing
    /// an unknown or last-remaining node, joining a live node, or reusing a
    /// node id — and propagates model-construction errors.
    pub fn new(cfg: impl Into<ClusterConfig>) -> Result<Self> {
        // One non-generic body: the build code is compiled once,
        // whatever config type the caller passes.
        Self::build(cfg.into())
    }

    fn build(mut cfg: ClusterConfig) -> Result<Self> {
        if cfg.tenants.is_enabled() {
            cfg.tenants.validate().map_err(RuntimeError::BadConfig)?;
            // Default the per-tenant ID skews off the traffic spec so a
            // tenanted cluster gets distinct hot sets without repeating
            // the exponents in the model config.
            if cfg.model.tenant_zipf.is_empty() {
                cfg.model.tenant_zipf = cfg.tenants.tenants.iter().map(|t| t.id_zipf).collect();
            }
        }
        let counts = [
            ("nodes", cfg.nodes),
            ("workers_per_node", cfg.workers_per_node),
            ("max_batch_samples", cfg.max_batch_samples),
        ];
        if let Some((name, _)) = counts.into_iter().find(|&(_, n)| n == 0) {
            return Err(RuntimeError::BadConfig(format!("{name} must be >= 1")));
        }
        cfg.chaos.validate().map_err(RuntimeError::BadConfig)?;
        // What the virtual clock divides by and adds. NaN fails every
        // comparison; `sla_us: +inf` is a legal "no SLA".
        let rate_ok = |r: &f64| r.is_finite() && *r > 0.0;
        let spans = [cfg.max_batch_wait_us, cfg.disk_hit_us];
        let floats_ok = cfg.sla_us > 0.0
            && rate_ok(&cfg.virtual_gflops)
            && cfg.node_capacity_gflops.iter().all(rate_ok)
            && spans.iter().all(|&v| v >= 0.0);
        if !floats_ok {
            return Err(RuntimeError::BadConfig(
                "sla_us > 0, gflops rates finite and > 0, max_batch_wait_us and disk_hit_us >= 0".into(),
            ));
        }
        // The single-stream trace's shape (a tenanted cluster serves the
        // mix `tenants.validate` checked instead): sizes clamp to
        // `1..=max_size`, arrivals step by `1e6 / qps` µs.
        if !cfg.tenants.is_enabled() && (cfg.trace.max_size == 0 || !rate_ok(&cfg.trace.qps)) {
            return Err(RuntimeError::BadConfig(
                "trace.max_size >= 1 and trace.qps finite and > 0".into(),
            ));
        }
        let mut ids: Vec<u32> = (0..cfg.nodes as u32).collect();
        for ev in &cfg.churn {
            if ev.action == ChurnAction::Join {
                if ids.contains(&ev.node) {
                    return Err(RuntimeError::BadConfig(format!(
                        "node id {} reused by a join (ids are never recycled)",
                        ev.node
                    )));
                }
                ids.push(ev.node);
            }
        }
        // One set of weights, so feature f computes the same wherever a
        // rebalance lands it; only the cache (dynamic tier, disk tier,
        // counters) is a node's own.
        let mut nodes: Vec<ClusterNode> = Vec::with_capacity(ids.len());
        for id in ids {
            let model = match nodes.first() {
                None => RuntimeModel::build(&cfg.model, cfg.cache_shards, cfg.seed)?,
                Some(boot) => boot.model.replica()?,
            };
            nodes.push(ClusterNode {
                id,
                model: Arc::new(model),
            });
        }

        let features = cfg.model.sparse_features;
        let rb = cfg.rebalance;
        let mut ring = HashRing::with_nodes(DEFAULT_VNODES, 0..cfg.nodes as u32);
        let mut plan = FeatureShardPlan::new(&ring, features);
        let mut epochs = Vec::with_capacity(cfg.churn.len() + 1);
        let mut events: Vec<ClusterChurnSpec> = Vec::new();
        let mut actions: Vec<RebalanceAction> = Vec::new();
        // Only a failure retries the batches in flight to its node.
        let mut schedule = |at_us: f64, action: RebalanceAction| {
            let failed = match action {
                RebalanceAction::Fail(node) => Some(node),
                _ => None,
            };
            events.push(ClusterChurnSpec { at_us, failed });
            actions.push(action);
        };
        epochs.push(build_epoch(&cfg, &nodes, 0.0, &ring, &plan, None)?);
        let mut last_at = 0.0f64;
        for (i, ev) in cfg.churn.iter().enumerate() {
            if ev.at_us <= last_at {
                return Err(RuntimeError::BadConfig(format!(
                    "churn events must have strictly increasing positive times, got {} after {}",
                    ev.at_us, last_at
                )));
            }
            last_at = ev.at_us;
            // Virtual-time room before the next configured event: every
            // streamed sub-step of this event (chunk flips, the penalty
            // lift) must land strictly inside it.
            let budget = cfg
                .churn
                .get(i + 1)
                .map_or(f64::INFINITY, |n| n.at_us - ev.at_us);
            let old = ring.clone();
            match ev.action {
                ChurnAction::Fail => {
                    if !ring.contains(ev.node) {
                        return Err(RuntimeError::BadConfig(format!(
                            "cannot fail node {}: not live at t={}us",
                            ev.node, ev.at_us
                        )));
                    }
                    if ring.len() == 1 {
                        return Err(RuntimeError::BadConfig(
                            "cannot fail the last live node".into(),
                        ));
                    }
                    ring.remove_node(ev.node);
                    // A failure is always a barrier swap: the dead node
                    // cannot co-serve a dual-ownership window, so its
                    // features remap to the survivors in one step.
                    plan.apply(&ring.diff(&old, features as u64));
                    debug_assert_eq!(plan, FeatureShardPlan::new(&ring, features));
                    schedule(ev.at_us, RebalanceAction::Fail(ev.node));
                    epochs.push(build_epoch(&cfg, &nodes, ev.at_us, &ring, &plan, None)?);
                }
                ChurnAction::Join => {
                    if ring.contains(ev.node) {
                        return Err(RuntimeError::BadConfig(format!(
                            "cannot join node {}: already live at t={}us",
                            ev.node, ev.at_us
                        )));
                    }
                    ring.add_node(ev.node);
                    // Incremental rebalance: only the ~K/N remapped
                    // features change owner (the diff), everything else
                    // keeps its shard.
                    let diff = ring.diff(&old, features as u64);
                    let mut lift_from = ev.at_us;
                    if rb.streaming_chunks > 0 && !diff.moves().is_empty() {
                        // Streaming handoff: open the dual-ownership
                        // window (the joiner is live but owns nothing —
                        // no cold-tier penalty yet), then flip the diff
                        // chunk by chunk, each flip preceded by the old
                        // owners shipping that chunk's warm entries.
                        let chunks = diff.chunked(rb.streaming_chunks);
                        // Flip spacing, compressed so every flip (and the
                        // drain, if any) lands strictly before the next event.
                        const CHUNK_INTERVAL_US: f64 = 500.0;
                        let step = CHUNK_INTERVAL_US.min(budget / (chunks.len() + 2) as f64);
                        let moves = diff.moves().len() as u64;
                        schedule(ev.at_us, RebalanceAction::WindowOpen { node: ev.node, moves });
                        plan.begin_handoff(&diff);
                        epochs.push(build_epoch(&cfg, &nodes, ev.at_us, &ring, &plan, None)?);
                        for (k, chunk) in chunks.iter().enumerate() {
                            let at = ev.at_us + (k + 1) as f64 * step;
                            let feats: Vec<usize> =
                                chunk.moves().iter().map(|m| m.key as usize).collect();
                            plan.commit_handoff(&feats);
                            schedule(at, RebalanceAction::ChunkFlip { node: ev.node, feats });
                            epochs.push(build_epoch(
                                &cfg,
                                &nodes,
                                at,
                                &ring,
                                &plan,
                                Some(ev.node),
                            )?);
                            lift_from = at;
                        }
                        debug_assert!(plan.pending_handoffs().is_empty());
                        debug_assert_eq!(plan, FeatureShardPlan::new(&ring, features));
                    } else {
                        plan.apply(&diff);
                        debug_assert_eq!(plan, FeatureShardPlan::new(&ring, features));
                        // A barrier join opens an epoch where the new
                        // node's RAM tiers are cold (its lookups come
                        // from the warm-started disk tier): charge its
                        // paths the disk-hit penalty.
                        schedule(ev.at_us, RebalanceAction::Join(ev.node));
                        epochs.push(build_epoch(
                            &cfg,
                            &nodes,
                            ev.at_us,
                            &ring,
                            &plan,
                            Some(ev.node),
                        )?);
                    }
                    if rb.drain_us > 0.0 && cfg.disk_hit_us > 0.0 {
                        // Penalty drain: once the joiner's shipped disk
                        // records have promoted into RAM, re-open the
                        // epoch with unpenalized profiles. (The legacy
                        // `drain_us == 0` charged the penalty for the
                        // rest of the run — long after the disk tier
                        // stopped being cold.)
                        let headroom = if budget.is_finite() {
                            (budget - (lift_from - ev.at_us)) / 2.0
                        } else {
                            f64::INFINITY
                        };
                        let at = lift_from + rb.drain_us.min(headroom);
                        schedule(at, RebalanceAction::PenaltyLift);
                        epochs.push(build_epoch(&cfg, &nodes, at, &ring, &plan, None)?);
                    }
                }
            }
        }
        Ok(Cluster {
            paths: path_order(cfg.route),
            cfg,
            nodes,
            epochs,
            events,
            actions,
            ring,
            adaptive: Mutex::new(Vec::new()),
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The boot epoch's feature-shard assignment.
    pub fn plan(&self) -> &FeatureShardPlan {
        &self.epochs[0].plan
    }

    /// The static epoch sequence: boot membership plus one epoch per
    /// internal rebalance step (a streaming join contributes several —
    /// window open, one per chunk flip, and the penalty lift), each
    /// with its plan, pruned scatter assignments, and routing profiles.
    /// Overlay epochs opened by the adaptive planner during a serve are
    /// not included here; [`Cluster::replay_spec`] merges them in.
    pub fn epochs(&self) -> &[ClusterEpoch] {
        &self.epochs
    }

    /// The boot epoch's virtual-time mapping set (per-epoch sets live
    /// in [`Cluster::epochs`]).
    pub fn mapping_set(&self) -> &MappingSet {
        &self.epochs[0].mappings
    }

    /// Execution path per mapping index (identical across epochs).
    pub fn paths(&self) -> &[PathKind] {
        &self.paths
    }

    /// The first replica's model (a one-node cluster's only one).
    pub fn model(&self) -> &RuntimeModel {
        &self.nodes[0].model
    }

    /// Replica node ids in construction order (initial nodes, then
    /// joiners) — the axis of every per-node report vector.
    pub fn node_ids(&self) -> Vec<u32> {
        self.nodes.iter().map(|n| n.id).collect()
    }

    /// What the dispatcher core ran on, as a replay consumes it: the
    /// epoch specs and the rebalance steps separating them. Overlay
    /// epochs the adaptive planner opened during the most recent
    /// [`Cluster::serve`] are appended after the static schedule as
    /// recorded events, so call this *after* serving when the planner
    /// is on. [`mprec_serving::replay::replay_cluster`] over this spec
    /// and the same trace reproduces the serve's decision trail.
    pub fn replay_spec(&self) -> ClusterReplaySpec {
        let adaptive = self.adaptive.lock();
        let overlay_events = adaptive.iter().map(|e| ClusterChurnSpec {
            at_us: e.start_us,
            failed: None,
        });
        ClusterReplaySpec {
            epochs: self
                .epochs
                .iter()
                .chain(adaptive.iter())
                .map(|e| e.spec.clone())
                .collect(),
            events: self.events.iter().copied().chain(overlay_events).collect(),
            faults: self.cfg.faults.clone(),
            chaos: self.cfg.chaos,
        }
    }

    fn slot_of(&self, id: u32) -> usize {
        self.nodes
            .iter()
            .position(|n| n.id == id)
            .expect("assignments only reference built replicas")
    }

    /// Creates a [`ClusterScratch`] sized for this cluster.
    pub fn make_scratch(&self) -> ClusterScratch {
        ClusterScratch {
            per_node: self.nodes.iter().map(|n| n.model.make_scratch()).collect(),
            partials: self.nodes.iter().map(|_| Matrix::default()).collect(),
            pooled: Matrix::default(),
            top: MlpScratch::default(),
        }
    }

    /// Synchronous scatter/gather execution of one micro-batch under
    /// the boot epoch's pruned assignment: every target node pools its
    /// assigned features into its partial matrix, the partials are
    /// summed, and the top MLP scores the gathered pool. Zero
    /// steady-state heap allocations with a warm scratch; the threaded
    /// [`Cluster::serve`] runs the same math with the scatter fanned
    /// out across node worker pools.
    ///
    /// # Errors
    ///
    /// Propagates node execution errors.
    pub fn execute_with(
        &self,
        path: PathKind,
        queries: &[(u64, u64)],
        scratch: &mut ClusterScratch,
    ) -> Result<BatchResult> {
        let idx = self
            .paths
            .iter()
            .position(|&p| p == path)
            .ok_or_else(|| RuntimeError::BadConfig(format!("path {path} not routed")))?;
        let assignment = &self.epochs[0].assignments[idx];
        let mut total = 0u64;
        for (slot, (node_id, feats)) in assignment.iter().enumerate() {
            let node = &self.nodes[self.slot_of(*node_id)];
            total = node.model.pool_features_into(
                path,
                queries,
                feats,
                &mut scratch.per_node[slot],
                &mut scratch.partials[slot],
            )?;
        }
        if total == 0 {
            return Ok(BatchResult {
                samples: 0,
                checksum: 0.0,
            });
        }
        scratch
            .pooled
            .resize_zeroed(total as usize, self.cfg.model.emb_dim);
        for partial in scratch.partials.iter().take(assignment.len()) {
            scratch.pooled.add_assign(partial)?;
        }
        let checksum = self.nodes[0]
            .model
            .score_pooled(&scratch.pooled, &mut scratch.top)?;
        Ok(BatchResult {
            samples: total,
            checksum,
        })
    }

    /// Serves the configured trace across the node pools, applying the
    /// churn schedule as virtual time passes.
    ///
    /// # Errors
    ///
    /// Surfaces any node- or merger-side execution error.
    pub fn serve(&self) -> Result<ClusterReport> {
        for node in &self.nodes {
            node.model.cache().reset_stats();
            node.model.cache().clear_dynamic();
            // Warm-start segments are loaded mid-run (at join barriers);
            // drop them so repeated serves start identical.
            node.model.cache().clear_disk();
        }
        let trace = if self.cfg.tenants.is_enabled() {
            self.cfg.tenants.generate(self.cfg.seed)
        } else {
            scenario::generate(self.cfg.trace, self.cfg.scenario, self.cfg.seed)
        };
        let depth = self.cfg.workers_per_node * 4;
        let node_queues: Vec<Arc<BoundedQueue<ScatterJob>>> = (0..self.nodes.len())
            .map(|_| Arc::new(BoundedQueue::with_capacity(depth)))
            .collect();
        let merge_queue: Arc<BoundedQueue<Arc<BatchShared>>> =
            Arc::new(BoundedQueue::with_capacity((self.nodes.len() * 4).max(8)));
        let progress = Arc::new(Progress::new());
        let start = Instant::now();

        let recorder = self.cfg.recorder;
        let mut workers = Vec::with_capacity(self.nodes.len() * self.cfg.workers_per_node);
        for (n, node) in self.nodes.iter().enumerate() {
            for _ in 0..self.cfg.workers_per_node {
                let queue = Arc::clone(&node_queues[n]);
                let merge = Arc::clone(&merge_queue);
                let model = Arc::clone(&node.model);
                let progress = Arc::clone(&progress);
                let id = node.id;
                workers.push(std::thread::spawn(move || {
                    node_worker_loop(&queue, &merge, &model, &progress, id, recorder)
                }));
            }
        }
        let merger = {
            let merge = Arc::clone(&merge_queue);
            let model = Arc::clone(&self.nodes[0].model);
            let progress = Arc::clone(&progress);
            let sla_us = self.cfg.sla_us;
            let report = MergerReport::new(start, recorder);
            std::thread::spawn(move || merger_loop(&merge, &model, &progress, sla_us, report))
        };

        let mut exec = Threaded {
            cluster: self,
            node_queues: &node_queues,
            progress: &progress,
            start,
            dispatched: 0,
            dyn_epochs: Vec::new(),
            chunk_flips: 0,
            epoch_snapshots: Vec::new(),
            virtual_histogram: LatencyHistogram::new(),
            tenant_vhist: vec![LatencyHistogram::default(); self.cfg.tenants.tenant_count()],
        };
        let tally = self.dispatch(&trace, &mut exec);
        for q in &node_queues {
            q.close();
        }
        let mut node_batches = vec![0u64; self.nodes.len()];
        let mut worker_rings: Vec<(String, EventRing)> = Vec::new();
        let mut worker_error: Option<String> = None;
        // Every thread is joined before any error returns; a panicked
        // one (its guards already closed its queues and failed the
        // progress ledger, so nobody is left blocked) ends the serve in
        // `Err`, never in a caller panic.
        for (i, w) in workers.into_iter().enumerate() {
            let node_slot = i / self.cfg.workers_per_node;
            let node = self.nodes[node_slot].id;
            let Ok(mut report) = w.join() else {
                worker_error.get_or_insert_with(|| format!("node {node} worker thread panicked"));
                continue;
            };
            node_batches[node_slot] += report.batches;
            if let Some(ring) = report.ring.take() {
                let worker = i % self.cfg.workers_per_node;
                worker_rings.push((format!("node-{node}-worker-{worker}"), ring));
            }
            if worker_error.is_none() {
                worker_error = report.error;
            }
        }
        merge_queue.close();
        let merged = merger.join();
        if let Some(msg) = worker_error {
            return Err(RuntimeError::Worker(msg));
        }
        let merged = merged.map_err(|_| RuntimeError::Worker("merger thread panicked".into()))?;
        if let Some(msg) = merged.error {
            return Err(RuntimeError::Worker(msg));
        }
        if tally.aborted {
            return Err(RuntimeError::Worker(
                "cluster run aborted at an epoch barrier".into(),
            ));
        }
        Ok(self.assemble(tally, exec, merged, node_batches, worker_rings, start))
    }

    /// Ships `feats`' warm cache entries — dynamic *and* disk tier —
    /// from their owners under `old_plan` into `receiver`'s disk tier.
    /// Shipping the disk tier too is what lets warm state survive a
    /// *second* migration: records an earlier hand-off had parked in
    /// the old owner's disk segment (or that never got promoted) used
    /// to be silently dropped by the dynamic-only export. Owners are
    /// visited in ascending id order so the hand-off is deterministic;
    /// features already owned by the receiver are skipped.
    ///
    /// Must be called at a quiescence barrier (no in-flight batches).
    /// Returns the number of records loaded (the flight recorder's
    /// `WarmStart` / `MigrationDone` payload).
    fn ship_features(&self, receiver: u32, old_plan: &FeatureShardPlan, feats: &[usize]) -> u64 {
        let mut by_owner: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for &f in feats {
            let owner = old_plan.node_of(f);
            if owner != receiver {
                by_owner.entry(owner).or_default().push(f);
            }
        }
        let dst = self.nodes[self.slot_of(receiver)].model.cache();
        let mut loaded = 0u64;
        for (owner, feats) in by_owner {
            let src = self.nodes[self.slot_of(owner)].model.cache();
            // Disk first, dynamic second: the dynamic tier holds the
            // live (most recently admitted) values, and the receiver's
            // append-only log is last-write-wins.
            let disk = src.export_disk_segment(|f| feats.contains(&f));
            let dynamic = src.export_dynamic_segment(|f| feats.contains(&f));
            for seg in [disk, dynamic] {
                loaded += dst
                    .load_disk_segment(&seg)
                    .expect("own export is always a valid segment")
                    as u64;
            }
        }
        loaded
    }

    /// The epoch at merged index `e`: the static schedule first, then
    /// any overlay epochs the adaptive planner opened this serve.
    fn epoch_at<'a>(&'a self, dyn_epochs: &'a [ClusterEpoch], e: usize) -> &'a ClusterEpoch {
        if e < self.epochs.len() {
            &self.epochs[e]
        } else {
            &dyn_epochs[e - self.epochs.len()]
        }
    }

    /// Every replica's cumulative cache counters, in replica order.
    /// Exact only at a quiescence barrier (no batch in flight).
    fn cache_snapshot(&self) -> Vec<CacheStats> {
        self.nodes.iter().map(|n| n.model.cache().stats()).collect()
    }

    /// The front-end: the sans-IO dispatcher core over this cluster's
    /// epochs and events, driven by the threaded executor. Everything
    /// virtual — batching, routing, ledgers, accounting, the dispatcher
    /// trace track — happens in [`mprec_serving::dispatch`]; `exec`
    /// paces, quiesces, ships cache state and scatters.
    fn dispatch(&self, trace: &[Query], exec: &mut Threaded<'_>) -> DispatchTally {
        let cfg = &self.cfg;
        let rb = cfg.rebalance;
        let node_ids = self.node_ids();
        let batching = ReplayConfig {
            sla_us: cfg.sla_us,
            max_batch_samples: cfg.max_batch_samples,
            max_batch_wait_us: cfg.max_batch_wait_us,
            classes: cfg.tenants.tenants.iter().map(|t| t.sla).collect(),
        };
        let spec = DispatchSpec {
            epochs: self.epochs.iter().map(|e| &e.spec).collect(),
            events: &self.events,
            faults: &cfg.faults,
            chaos: cfg.chaos,
            node_ids: &node_ids,
            batching: &batching,
            adaptive: rb.adaptive.then_some(AdaptiveTrigger {
                threshold_us: rb.adaptive_threshold_us,
                cooldown_us: rb.adaptive_cooldown_us,
                max_moves: rb.adaptive_max_moves,
            }),
            recorder: cfg.recorder,
        };
        let tally = dispatch(spec, trace, exec);
        // Publish the planner's overlay epochs so `replay_spec` and
        // `assemble` see the merged schedule this serve actually ran.
        *self.adaptive.lock() = std::mem::take(&mut exec.dyn_epochs);
        tally
    }

    fn assemble(
        &self,
        mut tally: DispatchTally,
        mut exec: Threaded<'_>,
        mut merged: MergerReport,
        per_node_batches: Vec<u64>,
        worker_rings: Vec<(String, EventRing)>,
        start: Instant,
    ) -> ClusterReport {
        let trace = self.cfg.recorder.enabled.then(|| {
            let mut rec = TraceRecording::new(tally.labels.clone());
            if let Some(ring) = tally.ring.take() {
                rec.push_ring("dispatcher", ring);
            }
            for (name, ring) in worker_rings {
                rec.push_ring(name, ring);
            }
            if let Some(ring) = merged.ring.take() {
                rec.push_ring("merger", ring);
            }
            rec
        });
        let per_node_cache = self.cache_snapshot();
        // Final epoch closes at end-of-serve: its delta runs from the
        // last boundary snapshot to the final counters. The epoch index
        // space merges the static schedule with any overlay epochs the
        // adaptive planner opened during this serve.
        let adaptive = self.adaptive.lock();
        let total_epochs = self.epochs.len() + adaptive.len();
        exec.epoch_snapshots.push(per_node_cache.clone());
        let mut epochs = Vec::with_capacity(total_epochs);
        let mut prev: Vec<CacheStats> = self.nodes.iter().map(|_| CacheStats::default()).collect();
        for (e, snapshot) in exec.epoch_snapshots.iter().enumerate() {
            let deltas = snapshot
                .iter()
                .zip(prev.iter())
                .map(|(now, before)| stats_delta(now, before))
                .collect();
            let ep = self.epoch_at(&adaptive, e);
            epochs.push(EpochReport {
                start_us: ep.start_us,
                live: ep.live.clone(),
                batches: tally.epoch_batches[e],
                per_node_cache: deltas,
            });
            prev = snapshot.clone();
        }
        let cache = per_node_cache
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.merged(s));
        let tenants = tally
            .tenants
            .iter()
            .zip(exec.tenant_vhist)
            .enumerate()
            .map(|(t, (row, virtual_histogram))| TenantReport {
                tenant: t as u32,
                sla_us: self.cfg.tenants.class_of(t as u32, self.cfg.sla_us).sla_us,
                completed: row.completed,
                samples: row.samples,
                shed_queries: row.shed_queries,
                virtual_sla_violations: row.sla_violations,
                latency_sum_us: row.latency_sum_us,
                virtual_histogram,
            })
            .collect();
        let final_plan = &self.epoch_at(&adaptive, total_epochs - 1).plan;
        let (virtual_sla_violations, shed_queries) = (tally.sla_violations(), tally.shed_queries());
        let outcome = ServingOutcome {
            policy: format!(
                "cluster:{}@{}n/{}w",
                self.cfg.route, self.cfg.nodes, self.cfg.workers_per_node
            ),
            completed: merged.completed,
            samples: merged.samples,
            correct_samples: tally.correct_samples,
            span_s: merged.last_done.duration_since(start).as_secs_f64(),
            sla_violations: virtual_sla_violations,
            mean_latency_us: merged.histogram.mean_us(),
            p95_latency_us: merged.histogram.quantile_us(0.95),
            p99_latency_us: merged.histogram.quantile_us(0.99),
            usage: tally.usage,
        };
        ClusterReport {
            outcome,
            cache,
            node_ids: self.node_ids(),
            per_node_cache,
            per_node_features: self
                .nodes
                .iter()
                .map(|n| final_plan.features_of(n.id).len())
                .collect(),
            per_node_batches,
            histogram: merged.histogram,
            virtual_histogram: exec.virtual_histogram,
            virtual_sla_violations,
            measured_sla_violations: merged.measured_violations,
            routed_queries: tally.tenants.iter().map(|t| t.completed).sum(),
            path_decisions: tally.decisions.iter().map(|&idx| self.paths[idx]).collect(),
            retried_batches: tally.retried_batches,
            retried_queries: tally.retried_queries,
            shed_queries,
            leg_timeouts: tally.leg_timeouts,
            hedged_legs: tally.hedged_legs,
            leg_retries: tally.leg_retries,
            migration_steps: exec.chunk_flips + adaptive.len() as u64,
            adaptive_replans: adaptive.len() as u64,
            tenants,
            epochs,
            checksum: merged.checksum,
            nodes: self.cfg.nodes,
            trace,
        }
    }
}

/// The threaded executor: the dispatcher core's four IO points over
/// this cluster's node queues, progress ledger and wall clock, plus the
/// telemetry only a real serve has (histograms, cache snapshots).
struct Threaded<'a> {
    cluster: &'a Cluster,
    node_queues: &'a [Arc<BoundedQueue<ScatterJob>>],
    progress: &'a Progress,
    start: Instant,
    /// Batches scattered so far (the quiescence barrier's target).
    dispatched: u64,
    /// Overlay epochs the adaptive planner opened this serve, indexed
    /// after the static schedule.
    dyn_epochs: Vec<ClusterEpoch>,
    /// Streaming chunk flips executed.
    chunk_flips: u64,
    /// Per-replica cache snapshots taken at each processed epoch
    /// boundary (quiescent), in epoch order.
    epoch_snapshots: Vec<Vec<CacheStats>>,
    /// Virtual latency per completed query: all tenants, and per
    /// tenant (a served trace only carries configured tenants).
    virtual_histogram: LatencyHistogram,
    tenant_vhist: Vec<LatencyHistogram>,
}

impl Threaded<'_> {
    /// Wall-clock quiescence (zero virtual cost): every scattered batch
    /// is merged before the boundary's cache snapshot, so per-epoch
    /// cache deltas and shipped segments are exact and a failed node's
    /// queue is provably drained. `false` if the run failed first.
    fn quiesce_and_snapshot(&mut self) -> bool {
        if !self.progress.wait_for_batches(self.dispatched) {
            return false;
        }
        self.epoch_snapshots.push(self.cluster.cache_snapshot());
        true
    }
}

impl Executor for Threaded<'_> {
    fn pace(&mut self, t_us: f64) {
        if self.cluster.cfg.pace_ingress {
            sleep_until(self.start, t_us);
        }
    }

    /// One rebalance step. A streaming step differs from the legacy
    /// barrier in *virtual* time only: it flips one chunk of ownership
    /// instead of the whole plan, so routing never pays a
    /// stop-the-world profile shock.
    fn barrier(&mut self, event: usize, at_us: f64, tally: &mut DispatchTally) -> bool {
        let cluster = self.cluster;
        if !self.quiesce_and_snapshot() {
            return false;
        }
        let new_epoch = (event + 1) as u64;
        let old_plan = &cluster.epochs[event].plan;
        match &cluster.actions[event] {
            RebalanceAction::Fail(node) => {
                tally.trace(|| TraceEvent::epoch_barrier(at_us, *node, new_epoch, false));
                self.node_queues[cluster.slot_of(*node)].close();
            }
            RebalanceAction::Join(node) => {
                tally.trace(|| TraceEvent::epoch_barrier(at_us, *node, new_epoch, true));
                // Warm-start: every feature the new plan assigns the
                // joiner moved off some old owner, so ship it their
                // warm cache entries instead of rewarming from traffic
                // — first lookups then hit its disk tier (charged
                // `disk_hit_us` via the epoch profiles) and promote
                // into RAM.
                let feats = cluster.epochs[event + 1].plan.features_of(*node);
                let entries = cluster.ship_features(*node, old_plan, feats);
                tally.trace(|| TraceEvent::warm_start(at_us, *node, entries, new_epoch));
            }
            RebalanceAction::WindowOpen { node, moves } => {
                tally.trace(|| TraceEvent::migration_start(at_us, *node, *moves, new_epoch));
            }
            RebalanceAction::ChunkFlip { node, feats } => {
                // Dual-write realization: everything the old owners
                // hold for this chunk — including entries admitted
                // *during* the window, which went to the old owners
                // because reads did — ships right before the flip.
                let entries = cluster.ship_features(*node, old_plan, feats);
                self.chunk_flips += 1;
                let flipped = feats.len() as u64;
                tally.trace(|| {
                    TraceEvent::migration_done(at_us, *node, entries, new_epoch, flipped)
                });
            }
            // The lift only swaps penalized routing profiles for clean
            // ones; no cache or queue side effects.
            RebalanceAction::PenaltyLift => {}
        }
        true
    }

    /// A partial migration off the most backlogged node: ship `moved`'s
    /// warm entries to `idlest` and open an overlay epoch at the flush
    /// instant that triggered it.
    fn build_overlay(
        &mut self,
        idlest: u32,
        moved: &[usize],
        at_us: f64,
        tally: &mut DispatchTally,
    ) -> Option<ClusterEpochSpec> {
        let cluster = self.cluster;
        if !self.quiesce_and_snapshot() {
            return None;
        }
        let cur_epoch = cluster.epochs.len() + self.dyn_epochs.len() - 1;
        let cur = cluster.epoch_at(&self.dyn_epochs, cur_epoch);
        let entries = cluster.ship_features(idlest, &cur.plan, moved);
        let mut plan = cur.plan.clone();
        plan.reassign(moved, idlest);
        let epoch = build_epoch(&cluster.cfg, &cluster.nodes, at_us, &cluster.ring, &plan, None)
            .expect("overlay epoch shares the boot epoch's validated shape");
        let (new_epoch, moves) = ((cur_epoch + 1) as u64, moved.len() as u64);
        tally.trace(|| TraceEvent::migration_start(at_us, idlest, moves, new_epoch));
        tally.trace(|| TraceEvent::migration_done(at_us, idlest, entries, new_epoch, moves));
        let spec = epoch.spec.clone();
        self.dyn_epochs.push(epoch);
        Some(spec)
    }

    /// The real scatter to the node queues, with the runtime-only
    /// per-query telemetry: virtual-latency histograms and the
    /// wall-clock arrival anchors measured latency counts from.
    fn scatter(&mut self, flight: &Flight, pending: &[&Query]) -> bool {
        let cluster = self.cluster;
        let cfg = &cluster.cfg;
        let now = Instant::now();
        let mut specs = Vec::with_capacity(pending.len());
        let mut queries = Vec::with_capacity(pending.len());
        let mut total = 0usize;
        for q in pending {
            let virtual_latency = flight.done_us - q.arrival_us as f64;
            self.virtual_histogram.record(virtual_latency);
            self.tenant_vhist[flight.tenant].record(virtual_latency);
            specs.push((q.id, q.size as u64));
            total += q.size;
            queries.push(WorkQuery {
                size: q.size as u64,
                real_arrival: if cfg.pace_ingress {
                    self.start + Duration::from_micros(q.arrival_us)
                } else {
                    now
                },
            });
        }
        // Real execution happens once, under the final (post-retry)
        // epoch's pruned assignment — the wasted attempt exists only
        // in virtual time, so sharded math and cache state stay
        // deterministic.
        let assignment = &cluster
            .epoch_at(&self.dyn_epochs, flight.exec_epoch)
            .assignments[flight.idx];
        let shared = Arc::new(BatchShared {
            path: cluster.paths[flight.idx],
            specs,
            queries,
            total,
            batch: flight.batch,
            vstart_us: flight.done_us - flight.final_exec_us,
            vdone_us: flight.done_us,
            partials: (0..assignment.len()).map(|_| Mutex::new(None)).collect(),
            pending: AtomicUsize::new(assignment.len()),
        });
        for (slot, (node_id, feats)) in assignment.iter().enumerate() {
            // push only fails when a panicking worker closed its
            // queue; the join in serve() surfaces that panic.
            let _ = self.node_queues[cluster.slot_of(*node_id)].push(ScatterJob {
                shared: Arc::clone(&shared),
                slot,
                features: Arc::clone(feats),
            });
        }
        self.dispatched += 1;
        !self.progress.failed()
    }
}

/// A node's virtual compute budget (GFLOP/s): its entry by node id,
/// falling back to the uniform `virtual_gflops`.
fn capacity_of(cfg: &ClusterConfig, id: u32) -> f64 {
    cfg.node_capacity_gflops
        .get(id as usize)
        .copied()
        .unwrap_or(cfg.virtual_gflops)
}

/// Per-tier counter delta for a `NodeExecute` event, ordered
/// `[static, dynamic, disk, miss]`. The sharded cache is shared by the
/// node's whole worker pool, so a concurrent worker can inflate (never
/// deflate) the counters between the two reads; saturate rather than
/// panic.
fn tier_delta(after: &CacheStats, before: &CacheStats) -> [u32; 4] {
    let d = |a: u64, b: u64| u32::try_from(a.saturating_sub(b)).unwrap_or(u32::MAX);
    [
        d(after.encoder_hits, before.encoder_hits),
        d(after.dynamic_hits, before.dynamic_hits),
        d(after.disk_hits, before.disk_hits),
        d(after.encoder_misses, before.encoder_misses),
    ]
}

/// Field-wise difference of two cumulative counter snapshots.
fn stats_delta(now: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        encoder_hits: now.encoder_hits - before.encoder_hits,
        encoder_misses: now.encoder_misses - before.encoder_misses,
        decoder_lookups: now.decoder_lookups - before.decoder_lookups,
        dynamic_hits: now.dynamic_hits - before.dynamic_hits,
        disk_hits: now.disk_hits - before.disk_hits,
        evictions: now.evictions - before.evictions,
    }
}

/// Path order the mapping builder emits for a policy.
fn path_order(route: RoutePolicy) -> Vec<PathKind> {
    match route {
        RoutePolicy::MpRec => vec![PathKind::Hybrid, PathKind::Dhe, PathKind::Table],
        RoutePolicy::Fixed(p) => vec![p],
    }
}

/// The pruned scatter assignment of one path under one plan: DHE-cached
/// features go to their shard owner (that node's cache holds their warm
/// state); the target set is exactly those owners. A path touching no
/// per-node cache state (table-only) folds onto a single designated
/// executor — the owner of feature 0 — because every node serves from
/// the same table weights. Table features whose owner is already a
/// target stay with it; the rest fold onto the first target.
fn path_assignment(
    model: &RuntimeModel,
    plan: &FeatureShardPlan,
    path: PathKind,
) -> Vec<(u32, Arc<Vec<usize>>)> {
    let features = plan.num_features();
    let mut targets: Vec<u32> = (0..features)
        .filter(|&f| model.path_uses_dhe(path, f))
        .map(|f| plan.node_of(f))
        .collect();
    targets.sort_unstable();
    targets.dedup();
    if targets.is_empty() {
        targets.push(plan.node_of(0));
    }
    let mut groups: Vec<(u32, Vec<usize>)> =
        targets.iter().map(|&t| (t, Vec::new())).collect();
    for f in 0..features {
        // A miss means a replicated table feature whose owner is not a
        // target: fold it onto the first (smallest-id) target.
        let slot = targets.binary_search(&plan.node_of(f)).unwrap_or_default();
        groups[slot].1.push(f);
    }
    groups
        .into_iter()
        .map(|(id, feats)| (id, Arc::new(feats)))
        .collect()
}

/// Fixed virtual per-batch dispatch overhead (µs).
const DISPATCH_OVERHEAD_US: f64 = 30.0;
/// Virtual network overhead per hop (µs): a fan-out scatter/gather
/// charges two hops per batch, a shard-pruned single-target batch one,
/// a colocated never-churned single-node cluster zero.
const NET_OVERHEAD_US: f64 = 150.0;

/// Builds one epoch: the pruned per-path assignments and the
/// capacity-aware slowest-shard mapping set. Per path, the per-sample
/// cost is the max over its scatter targets of the target's embedding
/// FLOPs scaled by `virtual_gflops / capacity`, plus the shared top-MLP
/// merge; the per-batch overhead adds one network hop for a pruned
/// single-target scatter and two for a fan-out (zero on a colocated
/// never-churned single-node cluster).
///
/// When the epoch was opened by a node join (`joined`), every path that
/// scatters DHE-cached features to the joiner gets
/// [`ClusterConfig::disk_hit_us`] added per sample: the joiner's RAM
/// tiers are cold and its warm-started lookups are served from the
/// persistent disk tier until traffic promotes them.
fn build_epoch(
    cfg: &ClusterConfig,
    nodes: &[ClusterNode],
    start_us: f64,
    ring: &HashRing,
    plan: &FeatureShardPlan,
    joined: Option<u32>,
) -> Result<ClusterEpoch> {
    let model = &nodes[0].model;
    let rate = cfg.virtual_gflops.max(1e-6) * 1e3;
    let distributed = cfg.nodes > 1 || !cfg.churn.is_empty();
    let order = path_order(cfg.route);
    let assignments: Vec<Vec<(u32, Arc<Vec<usize>>)>> = order
        .iter()
        .map(|&p| path_assignment(model, plan, p))
        .collect();
    let assignment_of = |path: PathKind| {
        &assignments[order
            .iter()
            .position(|&p| p == path)
            .expect("builder only asks for routed paths")]
    };
    let mut mappings = build_path_mappings(
        &cfg.model,
        &order,
        |path| {
            let targets = assignment_of(path).len();
            let hops = if !distributed {
                0.0
            } else if targets == 1 {
                1.0
            } else {
                2.0
            };
            DISPATCH_OVERHEAD_US + hops * NET_OVERHEAD_US
        },
        |path| {
            let slowest = assignment_of(path)
                .iter()
                .map(|(id, feats)| {
                    model.flops_per_sample_features(path, feats)
                        * (cfg.virtual_gflops / capacity_of(cfg, *id))
                })
                .fold(0.0f64, f64::max);
            (slowest + model.top_flops_per_sample()) / rate
        },
    )?;
    if let Some(j) = joined {
        if cfg.disk_hit_us > 0.0 {
            for (i, &path) in order.iter().enumerate() {
                let cold = assignments[i].iter().any(|(id, feats)| {
                    *id == j && feats.iter().any(|&f| model.path_uses_dhe(path, f))
                });
                if cold {
                    mappings.mappings[i].profile =
                        mappings.mappings[i].profile.plus_per_sample(cfg.disk_hit_us);
                }
            }
        }
    }
    // Hedge targets are a pure ring property: each live node's next
    // distinct ring neighbour, frozen per epoch so the dispatcher core
    // needs no ring logic of its own.
    let hedge_next = plan
        .nodes()
        .iter()
        .filter_map(|&n| ring.successor(n).map(|s| (n, s)))
        .collect();
    let targets = assignments
        .iter()
        .map(|a| a.iter().map(|&(id, _)| id).collect())
        .collect();
    Ok(ClusterEpoch {
        start_us,
        assignments,
        spec: ClusterEpochSpec {
            mappings,
            targets,
            live: plan.nodes().to_vec(),
            hedge_next,
            plan: plan.clone(),
        },
    })
}

/// Closes a queue if the owning thread unwinds, so a panicking node
/// worker (or merger) can never leave the front-end (or a node worker)
/// blocked on a bounded `push` with no consumer.
struct CloseOnPanic<'a, T>(&'a BoundedQueue<T>);

impl<T> Drop for CloseOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

fn node_worker_loop(
    queue: &BoundedQueue<ScatterJob>,
    merge: &BoundedQueue<Arc<BatchShared>>,
    model: &RuntimeModel,
    progress: &Progress,
    node_id: u32,
    recorder: TraceConfig,
) -> NodeWorkerReport {
    let _close_guard = CloseOnPanic(queue);
    let _close_merge_guard = CloseOnPanic(merge);
    let _fail_guard = FailOnPanic(progress);
    let mut report = NodeWorkerReport {
        batches: 0,
        error: None,
        // Preallocated before the first batch so steady-state recording
        // never allocates.
        ring: recorder.ring(),
    };
    let mut scratch = model.make_scratch();
    while let Some(job) = queue.pop() {
        let tiers_before = if report.ring.is_some() {
            model.cache().stats()
        } else {
            CacheStats::default()
        };
        let mut partial = Matrix::default();
        match model.pool_features_into(
            job.shared.path,
            &job.shared.specs,
            &job.features,
            &mut scratch,
            &mut partial,
        ) {
            Ok(_) => {
                *job.shared.partials[job.slot].lock() = Some(partial);
                if let Some(ring) = report.ring.as_mut() {
                    let tiers = tier_delta(&model.cache().stats(), &tiers_before);
                    ring.record(TraceEvent::node_execute(
                        job.shared.vstart_us,
                        job.shared.batch,
                        node_id,
                        job.shared.total as u64,
                        job.shared.vdone_us,
                        tiers,
                    ));
                }
                report.batches += 1;
                if job.shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Last shard done: hand the batch to the merger
                    // (push only fails if the merger died; its join
                    // surfaces that).
                    let _ = merge.push(Arc::clone(&job.shared));
                }
            }
            Err(e) => {
                report.error = Some(format!(
                    "node {node_id} batch on path {}: {e}",
                    job.shared.path
                ));
                progress.fail();
                // Keep draining so the front-end's bounded pushes always
                // make progress; the error surfaces after join.
                while queue.pop().is_some() {}
                break;
            }
        }
    }
    report
}

fn merger_loop(
    queue: &BoundedQueue<Arc<BatchShared>>,
    model: &RuntimeModel,
    progress: &Progress,
    sla_us: f64,
    mut report: MergerReport,
) -> MergerReport {
    let _close_guard = CloseOnPanic(queue);
    let _fail_guard = FailOnPanic(progress);
    let emb_dim = model.config().emb_dim;
    let mut pooled = Matrix::default();
    let mut top = MlpScratch::default();
    while let Some(batch) = queue.pop() {
        pooled.resize_zeroed(batch.total, emb_dim);
        let mut failed = None;
        for slot in &batch.partials {
            let guard = slot.lock();
            let partial = guard
                .as_ref()
                .expect("pending hit zero, all partials present");
            if let Err(e) = pooled.add_assign(partial) {
                failed = Some(format!("gather add: {e}"));
                break;
            }
        }
        let checksum = match failed {
            None => match model.score_pooled(&pooled, &mut top) {
                Ok(c) => c,
                Err(e) => {
                    report.error = Some(format!("merge top-mlp: {e}"));
                    progress.fail();
                    while queue.pop().is_some() {}
                    break;
                }
            },
            Some(msg) => {
                report.error = Some(msg);
                progress.fail();
                while queue.pop().is_some() {}
                break;
            }
        };
        let now = Instant::now();
        for q in &batch.queries {
            let latency_us = now.saturating_duration_since(q.real_arrival).as_secs_f64() * 1e6;
            report.histogram.record(latency_us);
            if latency_us > sla_us {
                report.measured_violations += 1;
            }
            report.completed += 1;
            report.samples += q.size;
        }
        report.checksum += checksum;
        report.last_done = now;
        if let Some(ring) = report.ring.as_mut() {
            ring.record(TraceEvent::merge(batch.vdone_us, batch.batch, batch.total as u64));
        }
        progress.batch_done();
    }
    report
}

fn sleep_until(start: Instant, virtual_us: f64) {
    let target = start + Duration::from_secs_f64(virtual_us / 1e6);
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve;

    fn quick_cfg(nodes: usize) -> ClusterConfig {
        ClusterConfig {
            nodes,
            workers_per_node: 1,
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
                sparse_features: 4,
                rows_per_feature: 500,
                emb_dim: 4,
                dhe_k: 8,
                dhe_dnn: 8,
                dhe_h: 1,
                top_hidden: vec![8],
                encoder_cache_bytes: 1024,
                decoder_centroids: 8,
                dynamic_cache_entries: 256,
                profile_accesses: 2_000,
                ..RuntimeModelConfig::default()
            },
            max_batch_samples: 32,
            ..ClusterConfig::default()
        }
    }

    /// The canonical fail-at-40% / join-at-70% schedule for `cfg`.
    fn with_churn(mut cfg: ClusterConfig) -> ClusterConfig {
        let span =
            scenario::nominal_span_us(cfg.trace.num_queries, cfg.trace.qps);
        cfg.churn = scenario::node_churn(cfg.nodes, span);
        cfg
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(matches!(
            Cluster::new(ClusterConfig {
                nodes: 0,
                ..quick_cfg(1)
            }),
            Err(RuntimeError::BadConfig(_))
        ));
        assert!(matches!(
            Cluster::new(ClusterConfig {
                workers_per_node: 0,
                ..quick_cfg(2)
            }),
            Err(RuntimeError::BadConfig(_))
        ));
        // A `ChaosConfig` the ladder's arithmetic cannot take: 100
        // retries used to shift `1u64 << 64` on the dispatching thread
        // under a long stall (`ChaosConfig::validate` has the full list).
        let hardened = ChaosConfig::hardened;
        for (what, chaos) in [
            ("retry count past the backoff shift", ChaosConfig { max_retries: 100, ..hardened() }),
            ("NaN timeout", ChaosConfig { timeout_mult: f64::NAN, ..hardened() }),
            ("negative backoff", ChaosConfig { backoff_base_us: -200.0, ..hardened() }),
            ("hedge past the deadline", ChaosConfig { hedge_frac: 1.5, ..hardened() }),
            ("descending brownout rungs", ChaosConfig { brownout_table_only_us: 1.0, ..hardened() }),
        ] {
            let built = Cluster::new(ClusterConfig { chaos, ..quick_cfg(2) });
            assert!(matches!(built, Err(RuntimeError::BadConfig(_))), "{what}");
        }
        let at_the_cap = ChaosConfig { max_retries: ChaosConfig::MAX_RETRIES, ..hardened() };
        assert!(Cluster::new(ClusterConfig { chaos: at_the_cap, ..quick_cfg(2) }).is_ok());
        // A NaN batch deadline used to panic the dispatching thread in
        // `serve`; a NaN SLA violated nothing, a zero rate everything.
        let base = || quick_cfg(2);
        let zipf_model = |zipf_exponent, tenant_zipf| RuntimeModelConfig {
            zipf_exponent,
            tenant_zipf,
            ..base().model
        };
        for (what, cfg) in [
            ("NaN batch wait", ClusterConfig { max_batch_wait_us: f64::NAN, ..base() }),
            ("negative batch wait", ClusterConfig { max_batch_wait_us: -1.0, ..base() }),
            ("NaN sla", ClusterConfig { sla_us: f64::NAN, ..base() }),
            ("zero sla", ClusterConfig { sla_us: 0.0, ..base() }),
            ("zero rate", ClusterConfig { virtual_gflops: 0.0, ..base() }),
            ("negative rate", ClusterConfig { virtual_gflops: -1.0, ..base() }),
            ("infinite rate", ClusterConfig { virtual_gflops: f64::INFINITY, ..base() }),
            ("NaN disk penalty", ClusterConfig { disk_hit_us: f64::NAN, ..base() }),
            ("NaN capacity", ClusterConfig { node_capacity_gflops: vec![0.5, f64::NAN], ..base() }),
            ("zero capacity", ClusterConfig { node_capacity_gflops: vec![0.0], ..base() }),
            // A NaN CDF panicked the profiling draw in `RuntimeModel::build`.
            ("NaN zipf", ClusterConfig { model: zipf_model(f64::NAN, vec![]), ..base() }),
            ("negative zipf", ClusterConfig { model: zipf_model(-1.0, vec![]), ..base() }),
            ("infinite zipf", ClusterConfig { model: zipf_model(f64::INFINITY, vec![]), ..base() }),
            ("NaN tenant zipf", ClusterConfig { model: zipf_model(1.05, vec![f64::NAN]), ..base() }),
        ] {
            assert!(matches!(Cluster::new(cfg), Err(RuntimeError::BadConfig(_))), "{what}");
        }
        // A zero size cap panicked `serve` in `clamp(1, 0)`; a zero
        // rate put the first arrival at `u64::MAX` µs.
        for (what, max_size, qps) in [
            ("zero max_size", 0, 5000.0),
            ("zero qps", 16, 0.0),
            ("NaN qps", 16, f64::NAN),
            ("negative qps", 16, -1.0),
        ] {
            let mut cfg = base();
            (cfg.trace.max_size, cfg.trace.qps) = (max_size, qps);
            assert!(matches!(Cluster::new(cfg), Err(RuntimeError::BadConfig(_))), "{what}");
        }
        assert!(Cluster::new(ClusterConfig { sla_us: f64::INFINITY, ..base() }).is_ok(), "no SLA");
    }

    #[test]
    fn rejects_inconsistent_churn_schedules() {
        let bad = |churn: Vec<ChurnEvent>| {
            assert!(matches!(
                Cluster::new(ClusterConfig {
                    churn,
                    ..quick_cfg(2)
                }),
                Err(RuntimeError::BadConfig(_))
            ));
        };
        // Failing a node that is not live.
        bad(vec![ChurnEvent {
            at_us: 100.0,
            node: 9,
            action: ChurnAction::Fail,
        }]);
        // Joining a node that is already live.
        bad(vec![ChurnEvent {
            at_us: 100.0,
            node: 1,
            action: ChurnAction::Join,
        }]);
        // Failing every node.
        bad(vec![
            ChurnEvent {
                at_us: 100.0,
                node: 0,
                action: ChurnAction::Fail,
            },
            ChurnEvent {
                at_us: 200.0,
                node: 1,
                action: ChurnAction::Fail,
            },
        ]);
        // Out-of-order events.
        bad(vec![
            ChurnEvent {
                at_us: 200.0,
                node: 1,
                action: ChurnAction::Fail,
            },
            ChurnEvent {
                at_us: 100.0,
                node: 2,
                action: ChurnAction::Join,
            },
        ]);
        // Recycling a failed node's id.
        bad(vec![
            ChurnEvent {
                at_us: 100.0,
                node: 1,
                action: ChurnAction::Fail,
            },
            ChurnEvent {
                at_us: 200.0,
                node: 1,
                action: ChurnAction::Join,
            },
        ]);
    }

    #[test]
    fn nodes_share_the_weights_and_own_their_caches() {
        let cfg = quick_cfg(2);
        let cluster = Cluster::new(cfg.clone()).unwrap();
        let (boot, replica) = (&cluster.nodes[0].model, &cluster.nodes[1].model);
        assert!(boot.shares_weights_with(replica), "one weight allocation");
        // Each node is a fresh build in everything observable — checksums
        // and every cache counter, bit for bit, over all three paths —
        // and lookups on one node never reach the other's cache.
        let fresh = RuntimeModel::build(&cfg.model, cfg.cache_shards, cfg.seed).unwrap();
        let batches = [
            (PathKind::Hybrid, [(0u64, 9u64), (1, 4)]),
            (PathKind::Dhe, [(2, 7), (0, 3)]),
            (PathKind::Table, [(3, 5), (4, 6)]),
        ];
        let mut want = Vec::new();
        for (path, queries) in &batches {
            let result = fresh.execute(*path, queries).unwrap();
            assert_eq!(boot.execute(*path, queries).unwrap(), result, "{path}");
            assert_eq!(boot.cache().stats(), fresh.cache().stats(), "{path}");
            assert_eq!(replica.cache().stats(), CacheStats::default());
            want.push((result, fresh.cache().stats()));
        }
        let served = boot.cache().stats();
        assert!(served.lookups() > 0, "test premise: the cache was used");
        for ((path, queries), (result, stats)) in batches.iter().zip(&want) {
            assert_eq!(replica.execute(*path, queries).unwrap(), *result, "{path}");
            assert_eq!(replica.cache().stats(), *stats, "{path}");
        }
        assert_eq!(boot.cache().stats(), served, "node 1's lookups reached node 0");
    }

    #[test]
    fn shard_plan_covers_every_feature_exactly_once() {
        let plan = FeatureShardPlan::for_cluster(4, 64, 26);
        let mut seen = [false; 26];
        for &n in plan.nodes() {
            for &f in plan.features_of(n) {
                assert!(!seen[f], "feature {f} owned twice");
                seen[f] = true;
                assert_eq!(plan.node_of(f), n);
            }
        }
        assert!(seen.iter().all(|&s| s), "every feature owned");
        assert_eq!(plan.shard_sizes().iter().sum::<usize>(), 26);
    }

    #[test]
    fn rebalance_epochs_track_the_ring() {
        let cluster = Cluster::new(with_churn(quick_cfg(3))).unwrap();
        let features = cluster.config().model.sparse_features;
        let e = cluster.epochs();
        assert_eq!(e.len(), 3);
        assert_eq!(e[0].live, vec![0, 1, 2]);
        assert_eq!(e[1].live, vec![0, 1], "node 2 failed");
        assert_eq!(e[2].live, vec![0, 1, 3], "node 3 joined");
        for ep in e {
            assert_eq!(
                ep.plan.shard_sizes().iter().sum::<usize>(),
                features,
                "every epoch covers the feature space"
            );
        }
        assert!(e[1].plan.features_of(2).is_empty());
        // Features that never belonged to the churned nodes never move
        // (consistent hashing's minimal-remap guarantee, end to end).
        for f in 0..features {
            let (o0, o1) = (e[0].plan.node_of(f), e[1].plan.node_of(f));
            if o0 != 2 {
                assert_eq!(o0, o1, "feature {f} moved off a survivor");
            }
            let o2 = e[2].plan.node_of(f);
            if o2 != 3 {
                assert_eq!(o1, o2, "feature {f} moved between survivors");
            }
        }
    }

    #[test]
    fn table_scatter_is_pruned_to_one_node() {
        let cluster = Cluster::new(quick_cfg(4)).unwrap();
        let e0 = &cluster.epochs()[0];
        let idx_of = |p: PathKind| cluster.paths().iter().position(|&q| q == p).unwrap();
        // Table weights are replicated: one designated executor.
        assert_eq!(e0.targets(idx_of(PathKind::Table)).len(), 1);
        // DHE paths scatter to every owner of a DHE feature.
        let dhe_targets = e0.targets(idx_of(PathKind::Dhe));
        assert!(dhe_targets.len() > 1, "4 features over 4 nodes fan out");
        // Hybrid only fans out to owners of the DHE half.
        let hybrid_targets = e0.targets(idx_of(PathKind::Hybrid));
        assert!(hybrid_targets.len() <= dhe_targets.len());
        // Every assignment covers the whole feature space exactly once.
        for (i, _) in cluster.paths().iter().enumerate() {
            let mut seen = [false; 4];
            for (_, feats) in &e0.assignments[i] {
                for &f in feats.iter() {
                    assert!(!seen[f]);
                    seen[f] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn cluster_serves_every_query_exactly_once() {
        let cluster = Cluster::new(quick_cfg(3)).unwrap();
        let report = cluster.serve().unwrap();
        assert_eq!(report.outcome.completed, 300);
        assert_eq!(report.routed_queries, 300);
        assert_eq!(report.histogram.count(), 300);
        assert_eq!(report.virtual_histogram.count(), 300);
        assert_eq!(report.outcome.usage.queries.values().sum::<u64>(), 300);
        assert!(report.outcome.samples > 0);
        assert!(report.checksum.is_finite());
        assert_eq!(report.per_node_cache.len(), 3);
        assert_eq!(report.per_node_features.iter().sum::<usize>(), 4);
        // Pruned scatter: each batch reaches exactly its path's target
        // set, so total jobs = sum of target-set sizes per decision.
        let e0 = &cluster.epochs()[0];
        let expected_jobs: u64 = report
            .path_decisions
            .iter()
            .map(|&p| {
                let idx = cluster.paths().iter().position(|&q| q == p).unwrap();
                e0.assignments[idx].len() as u64
            })
            .sum();
        assert_eq!(
            report.per_node_batches.iter().sum::<u64>(),
            expected_jobs,
            "jobs match the pruned scatter plan"
        );
        assert!(
            expected_jobs < report.path_decisions.len() as u64 * 3,
            "pruning must beat scatter-to-everyone"
        );
    }

    #[test]
    fn scatter_gather_matches_engine_math_across_node_counts() {
        // The synchronous scatter/gather path: partial pools summed
        // across the pruned target set equal full execution, for every
        // path and any node count.
        let single = RuntimeModel::build(&quick_cfg(1).model, 4, 42).unwrap();
        let queries = [(0u64, 6u64), (1, 3), (2, 8)];
        for nodes in [2usize, 3, 4] {
            let cluster = Cluster::new(quick_cfg(nodes)).unwrap();
            let mut scratch = cluster.make_scratch();
            for path in [PathKind::Table, PathKind::Dhe, PathKind::Hybrid] {
                let got = cluster.execute_with(path, &queries, &mut scratch).unwrap();
                let want = single.execute(path, &queries).unwrap();
                assert_eq!(got.samples, want.samples);
                assert!(
                    (got.checksum - want.checksum).abs()
                        <= 1e-5 * (1.0 + want.checksum.abs()),
                    "{nodes} nodes, path {path}: {} vs {}",
                    got.checksum,
                    want.checksum
                );
            }
        }
    }

    #[test]
    fn outcome_counts_are_worker_count_invariant_even_under_churn() {
        let base = with_churn(quick_cfg(3));
        let a = serve(ClusterConfig {
            workers_per_node: 1,
            ..base.clone()
        })
        .unwrap();
        let b = serve(ClusterConfig {
            workers_per_node: 3,
            ..base
        })
        .unwrap();
        assert_eq!(a.outcome.completed, b.outcome.completed);
        assert_eq!(a.outcome.samples, b.outcome.samples);
        assert_eq!(a.virtual_sla_violations, b.virtual_sla_violations);
        assert_eq!(a.outcome.usage, b.outcome.usage);
        assert_eq!(a.path_decisions, b.path_decisions);
        assert_eq!(a.outcome.correct_samples, b.outcome.correct_samples);
        assert_eq!(a.retried_batches, b.retried_batches);
    }

    #[test]
    fn completion_counts_are_node_count_invariant() {
        // Routing profiles legitimately change with the node count (the
        // critical path shrinks), but no query may ever be lost or
        // double-counted, and with the dynamic tier disabled the merged
        // cache counters are a pure per-key function — identical across
        // topologies even though pruned scatter changes who executes
        // the replicated table features.
        let mk = |nodes| {
            serve(ClusterConfig {
                nodes,
                model: RuntimeModelConfig {
                    dynamic_cache_entries: 0,
                    ..quick_cfg(1).model
                },
                ..quick_cfg(nodes)
            })
            .unwrap()
        };
        let reports: Vec<ClusterReport> = [1usize, 2, 4].iter().map(|&n| mk(n)).collect();
        for r in &reports {
            assert_eq!(r.outcome.completed, 300, "{} nodes", r.nodes);
            assert_eq!(r.routed_queries, 300);
        }
        assert_eq!(reports[0].outcome.samples, reports[1].outcome.samples);
        assert_eq!(reports[0].outcome.samples, reports[2].outcome.samples);
        assert_eq!(
            reports[0].cache, reports[1].cache,
            "merged cache counters are topology-invariant (static tier)"
        );
        assert_eq!(reports[0].cache, reports[2].cache);
    }

    #[test]
    fn more_nodes_shrink_the_virtual_critical_path() {
        // The slowest-shard per-sample cost must fall as the feature
        // space spreads: compare the DHE profile at a large batch.
        let lat = |nodes| {
            let c = Cluster::new(ClusterConfig {
                nodes,
                model: RuntimeModelConfig {
                    sparse_features: 8,
                    ..quick_cfg(1).model
                },
                ..quick_cfg(nodes)
            })
            .unwrap();
            let idx = c.paths().iter().position(|&p| p == PathKind::Dhe).unwrap();
            c.mapping_set().mappings[idx].profile.latency_us(4096)
        };
        let one = lat(1);
        let eight = lat(8);
        assert!(eight < one, "8-node critical path {eight} !< 1-node {one}");
    }

    #[test]
    fn undersized_node_capacity_back_pressures_toward_the_table_path() {
        // Cripple one node's FLOPs budget: every DHE/hybrid profile that
        // scatters to it inflates, and its queue drains slower, so
        // Algorithm 2 sheds load to the (pruned, replicated) table
        // path. The capacity split is now *enforced* by routing, not
        // just reported.
        let base = ClusterConfig {
            sla_us: 2_000.0,
            ..quick_cfg(3)
        };
        // Cripple whichever node owns a hybrid-half DHE feature, so the
        // accuracy-preferred paths actually route through it.
        let probe = Cluster::new(base.clone()).unwrap();
        let victim = probe.plan().node_of(base.model.sparse_features - 1);
        let mut capacities = vec![base.virtual_gflops; 3];
        capacities[victim as usize] = 0.002;
        let table_fraction = |capacities: Vec<f64>| {
            let report = serve(ClusterConfig {
                node_capacity_gflops: capacities,
                ..base.clone()
            })
            .unwrap();
            report
                .outcome
                .usage
                .queries
                .iter()
                .filter(|(k, _)| k.starts_with("table@"))
                .map(|(_, &v)| v as f64)
                .sum::<f64>()
                / report.outcome.completed as f64
        };
        let uniform = table_fraction(vec![]);
        let skewed = table_fraction(capacities);
        assert!(
            skewed > uniform,
            "crippled node {victim} must push load to table: {skewed} !> {uniform}"
        );
    }

    #[test]
    fn failover_dips_the_hit_rate_and_the_rebalanced_shards_rewarm() {
        // Dynamic-tier-only cache: rebalanced shards start cold on
        // their new owners, so churn costs hit rate vs an identical
        // steady run — but the post-rebalance epochs re-warm (the run
        // stays well above a cold cache).
        let base = ClusterConfig {
            workers_per_node: 1,
            model: RuntimeModelConfig {
                encoder_cache_bytes: 0,
                decoder_centroids: 0,
                dynamic_cache_entries: 4096,
                ..quick_cfg(3).model
            },
            ..quick_cfg(3)
        };
        let steady = serve(base.clone()).unwrap();
        let churned = serve(with_churn(base)).unwrap();
        assert_eq!(churned.outcome.completed, 300);
        let s = steady.cache.encoder_hit_rate();
        let c = churned.cache.encoder_hit_rate();
        assert!(c < s, "rebalancing must cost hit rate: {c:.3} !< {s:.3}");
        assert!(
            c > 0.5 * s,
            "rebalanced shards must re-warm, not stay cold: {c:.3} vs {s:.3}"
        );
        assert_eq!(churned.epochs.len(), 3);
        // The failed node stops serving at its epoch boundary...
        let failed_slot = churned
            .node_ids
            .iter()
            .position(|&id| id == 2)
            .unwrap();
        assert_eq!(
            churned.epochs[1].per_node_cache[failed_slot].lookups()
                + churned.epochs[2].per_node_cache[failed_slot].lookups(),
            0,
            "failed node sees no post-failure lookups"
        );
        // ...and the joiner starts cold but serves (and hits) by the end.
        let join_slot = churned.node_ids.iter().position(|&id| id == 3).unwrap();
        assert_eq!(
            churned.epochs[0].per_node_cache[join_slot].lookups()
                + churned.epochs[1].per_node_cache[join_slot].lookups(),
            0,
            "joiner is idle before its epoch"
        );
        let joiner_final = &churned.epochs[2].per_node_cache[join_slot];
        assert!(joiner_final.lookups() > 0, "joiner serves after joining");
        assert!(
            joiner_final.encoder_hit_rate() > 0.0,
            "joiner's cold cache warms up"
        );
    }

    #[test]
    fn streaming_join_opens_a_dual_ownership_window() {
        // A streaming join must expand into window-open + one epoch per
        // chunk flip + the penalty lift, converging on exactly the plan
        // a barrier swap would have produced in one step.
        let barrier = Cluster::new(with_churn(quick_cfg(3))).unwrap();
        assert_eq!(barrier.epochs().len(), 3, "barrier baseline: boot/fail/join");
        let streaming = Cluster::new(ClusterConfig {
            rebalance: RebalanceConfig {
                streaming_chunks: 2,
                drain_us: 300.0,
                ..RebalanceConfig::default()
            },
            ..with_churn(quick_cfg(3))
        })
        .unwrap();
        let joiner = 3u32;
        let moves = barrier.epochs()[2].plan.features_of(joiner).len();
        assert!(moves >= 1, "test premise: the joiner takes features");
        let chunks = moves.min(2);
        // boot + fail + window + one per chunk + lift.
        let e = streaming.epochs();
        assert_eq!(e.len(), 4 + chunks);
        // The window epoch: joiner is live (it can receive warm state)
        // but owns nothing yet — reads keep going to the old owners.
        let window = &e[2];
        assert!(window.live.contains(&joiner), "joiner live in the window");
        assert!(
            window.plan.features_of(joiner).is_empty(),
            "dual-ownership window: reads stay on the old owners"
        );
        // Each flip epoch grows the joiner's shard monotonically...
        let mut owned = 0;
        for ep in &e[3..3 + chunks] {
            let now = ep.plan.features_of(joiner).len();
            assert!(now > owned, "each chunk flip moves features");
            owned = now;
        }
        // ...and the final plan is exactly the barrier plan.
        assert_eq!(e[e.len() - 1].plan, barrier.epochs()[2].plan);
        assert_eq!(e[2 + chunks].plan, barrier.epochs()[2].plan);
        // The replay contract holds with the expanded schedule, and
        // only the failure carries a retry-triggering node.
        let spec = streaming.replay_spec();
        assert_eq!(spec.events.len() + 1, spec.epochs.len());
        let failed: Vec<_> = spec.events.iter().filter_map(|ev| ev.failed).collect();
        assert_eq!(failed, vec![2], "only the failure retries in-flight work");
    }

    #[test]
    fn penalty_drain_lifts_the_disk_hit_surcharge() {
        // Satellite regression: the joiner's disk-hit surcharge used to
        // stick to its routing profiles for the rest of the run. With a
        // drain window configured, the lift epoch must route on
        // unpenalized profiles again — same plan, cheaper paths.
        let cluster = Cluster::new(ClusterConfig {
            rebalance: RebalanceConfig {
                streaming_chunks: 2,
                drain_us: 300.0,
                ..RebalanceConfig::default()
            },
            ..with_churn(quick_cfg(3))
        })
        .unwrap();
        let e = cluster.epochs();
        let (penalized, lifted) = (&e[e.len() - 2], &e[e.len() - 1]);
        assert_eq!(penalized.plan, lifted.plan, "the lift changes no shards");
        let mut strictly_cheaper = 0;
        for (p, l) in penalized
            .mappings
            .mappings
            .iter()
            .zip(lifted.mappings.mappings.iter())
        {
            let (pc, lc) = (p.profile.latency_us(1024), l.profile.latency_us(1024));
            assert!(lc <= pc, "lift never makes a path slower: {lc} > {pc}");
            if lc < pc {
                strictly_cheaper += 1;
            }
        }
        assert!(
            strictly_cheaper >= 1,
            "at least one path scattered to the joiner and sheds the surcharge"
        );
    }

    #[test]
    fn warm_start_ships_disk_tier_records_too() {
        // Satellite regression: the join warm-start used to export only
        // the old owners' *dynamic* tiers, silently dropping records
        // that lived in their disk segments (e.g. parked there by an
        // earlier hand-off and never promoted). A disk-resident feature
        // must survive a fail -> join cycle.
        let cluster = Cluster::new(with_churn(quick_cfg(3))).unwrap();
        let joiner = 3u32;
        let feats = cluster.epochs()[2].plan.features_of(joiner);
        assert!(!feats.is_empty(), "test premise: the joiner takes features");
        let f = feats[0];
        let owner = cluster.epochs()[1].plan.node_of(f);
        assert_ne!(owner, joiner);
        // Park records for the migrating feature in the old owner's
        // disk tier only — its dynamic tier never sees them.
        let mut seg = mprec_core::Segment::new();
        for id in 0..12u64 {
            seg.append(f, id, &[id as f32, 1.0, 2.0, 3.0]);
        }
        let owner_cache = cluster.nodes[cluster.slot_of(owner)].model.cache();
        assert_eq!(owner_cache.load_disk_segment(&seg.to_bytes()).unwrap(), 12);
        let shipped = cluster.ship_features(joiner, &cluster.epochs()[1].plan, feats);
        assert!(
            shipped >= 12,
            "disk-tier records must ship on warm start, got {shipped}"
        );
        let joiner_cache = cluster.nodes[cluster.slot_of(joiner)].model.cache();
        assert!(joiner_cache.disk_len() >= 12, "records landed on the joiner");
    }

    #[test]
    fn adaptive_planner_rebalances_a_hot_table_executor() {
        // Pin every batch to the table path: pruned scatter folds it
        // onto one designated executor, so that node's virtual queue
        // grows while the others idle — exactly the hot-key imbalance
        // the planner watches. It must fire at least one partial
        // migration, every query must still complete exactly once, and
        // the overlay epochs must keep the replay contract intact.
        // Cripple the designated executor's capacity so its virtual
        // queue actually backs up between flushes.
        let mut base = ClusterConfig {
            route: RoutePolicy::Fixed(PathKind::Table),
            ..quick_cfg(3)
        };
        base.trace.qps = 20_000.0;
        let probe = Cluster::new(base.clone()).unwrap();
        let table_idx = probe
            .paths()
            .iter()
            .position(|&p| p == PathKind::Table)
            .unwrap();
        let executor = probe.epochs()[0].assignments[table_idx][0].0;
        let mut capacities = vec![base.virtual_gflops; 3];
        capacities[executor as usize] = base.virtual_gflops / 200.0;
        let cluster = Cluster::new(ClusterConfig {
            node_capacity_gflops: capacities,
            rebalance: RebalanceConfig {
                adaptive: true,
                adaptive_threshold_us: 50.0,
                adaptive_cooldown_us: 5_000.0,
                adaptive_max_moves: 1,
                ..RebalanceConfig::default()
            },
            ..base
        })
        .unwrap();
        assert_eq!(cluster.epochs().len(), 1, "no configured churn");
        let report = cluster.serve().unwrap();
        assert_eq!(report.outcome.completed, 300, "no query lost to a re-plan");
        assert_eq!(report.routed_queries, 300);
        assert!(
            report.adaptive_replans >= 1,
            "the imbalance must trigger the planner"
        );
        assert_eq!(report.migration_steps, report.adaptive_replans);
        let spec = cluster.replay_spec();
        assert_eq!(spec.events.len() + 1, spec.epochs.len());
        assert!(
            spec.epochs.len() > cluster.epochs().len(),
            "overlay epochs are appended to the replay spec"
        );
        assert!(
            spec.events.iter().all(|ev| ev.failed.is_none()),
            "re-plans never retry in-flight batches"
        );
        assert_eq!(report.epochs.len(), spec.epochs.len());
    }

    #[test]
    fn panicking_node_worker_closes_its_queues_and_fails_the_barrier() {
        // A scatter job naming a feature the model does not have makes
        // `pool_features_into` index out of range and the worker
        // unwind. Its guards must then close both queues (no producer
        // blocks on a dead consumer) and fail the progress ledger (the
        // front-end's quiescence barrier returns instead of hanging).
        let cfg = quick_cfg(1);
        let model = RuntimeModel::build(&cfg.model, cfg.cache_shards, cfg.seed).unwrap();
        let queue = Arc::new(BoundedQueue::with_capacity(4));
        let merge = Arc::new(BoundedQueue::with_capacity(4));
        let progress = Arc::new(Progress::new());
        let batch = |feature: usize| ScatterJob {
            shared: Arc::new(BatchShared {
                path: PathKind::Table,
                specs: vec![(0, 4)],
                queries: Vec::new(),
                total: 4,
                batch: 0,
                vstart_us: 0.0,
                vdone_us: 0.0,
                partials: vec![Mutex::new(None)],
                pending: AtomicUsize::new(1),
            }),
            slot: 0,
            features: Arc::new(vec![feature]),
        };
        assert!(queue.push(batch(cfg.model.sparse_features + 7)));
        let worker = {
            let (queue, merge, progress) =
                (Arc::clone(&queue), Arc::clone(&merge), Arc::clone(&progress));
            std::thread::spawn(move || {
                node_worker_loop(&queue, &merge, &model, &progress, 0, TraceConfig::default())
            })
        };
        // The barrier waits for a batch that will never merge; only the
        // panic guard can release it.
        let (tx, rx) = std::sync::mpsc::channel();
        let barrier = Arc::clone(&progress);
        let waiter = std::thread::spawn(move || tx.send(barrier.wait_for_batches(1)));
        let released = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("quiescence barrier hung on a panicked worker");
        assert!(!released, "wait_for_batches must report the failure");
        waiter.join().unwrap().unwrap();
        assert!(worker.join().is_err(), "the worker thread panicked");
        assert!(progress.failed(), "FailOnPanic marked the progress ledger");
        assert!(!queue.push(batch(0)), "CloseOnPanic closed the node queue");
        assert!(!merge.push(batch(0).shared), "CloseOnPanic closed the merge queue");
    }

    #[test]
    fn hot_key_drift_degrades_the_cache_hit_rate() {
        // The MP-Cache static tier is profiled on the epoch-0 hot set;
        // drifting the hot keys must cut the hit rate (the scenario's
        // entire point).
        let steady = serve(quick_cfg(2)).unwrap();
        let drift = serve(ClusterConfig {
            scenario: LoadScenario::HotKeyDrift { epochs: 8 },
            ..quick_cfg(2)
        })
        .unwrap();
        let s = steady.cache.encoder_hit_rate();
        let d = drift.cache.encoder_hit_rate();
        assert!(d < s, "drifted hit rate {d:.3} !< steady hit rate {s:.3}");
    }
}
