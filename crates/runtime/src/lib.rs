//! Multi-threaded query-serving runtime for MP-Rec.
//!
//! Where `mprec-serving` *simulates* a serve (discrete events over
//! profiled latency curves), this crate *executes* one: queries from the
//! same `mprec-data` traces are admitted open-loop, micro-batched under
//! an SLA-aware deadline/size policy, routed per batch by the paper's
//! Algorithm 2 (reused verbatim from `mprec-core::scheduler`, running in
//! deterministic virtual time), and then actually computed — embedding
//! table gathers, DHE encoder hashes + decoder MLPs through the sharded
//! [`mprec_core::mpcache::ShardedMpCache`], and the top MLP — on a pool
//! of `std::thread` workers behind a bounded backpressure queue.
//!
//! Results come back in the same [`ServingOutcome`] shape the simulator
//! emits, so simulated and real runs are directly comparable; measured
//! latency percentiles stream through a mergeable log-bucketed
//! [`LatencyHistogram`].
//!
//! # Examples
//!
//! ```
//! use mprec_runtime::{serve, RuntimeConfig, RuntimeModelConfig};
//! use mprec_data::query::QueryTraceConfig;
//!
//! let cfg = RuntimeConfig {
//!     workers: 2,
//!     trace: QueryTraceConfig {
//!         num_queries: 200,
//!         mean_size: 4.0,
//!         max_size: 16,
//!         ..QueryTraceConfig::default()
//!     },
//!     model: RuntimeModelConfig {
//!         sparse_features: 2,
//!         rows_per_feature: 500,
//!         emb_dim: 4,
//!         dhe_k: 8,
//!         dhe_dnn: 8,
//!         dhe_h: 1,
//!         top_hidden: vec![8],
//!         profile_accesses: 1_000,
//!         ..RuntimeModelConfig::default()
//!     },
//!     ..RuntimeConfig::default()
//! };
//! let report = serve(cfg)?;
//! assert_eq!(report.outcome.completed, 200);
//! # Ok::<(), mprec_runtime::RuntimeError>(())
//! ```

#![warn(missing_docs)]

pub mod cluster;
mod engine;
mod histogram;
mod model;
mod queue;

pub use cluster::{
    serve_cluster, Cluster, ClusterConfig, ClusterEpoch, ClusterReport, ClusterScratch,
    EpochReport, FeatureShardPlan, RebalanceConfig,
};
pub use engine::{
    degrade_rank, serve, Engine, PathAccuracy, RoutePolicy, RuntimeConfig, RuntimeReport,
    TenantReport,
};
pub use histogram::LatencyHistogram;
pub use model::{BatchResult, PathKind, RuntimeModel, RuntimeModelConfig, ScratchSpace};
pub use queue::BoundedQueue;
// Re-exported so runtime and simulator callers share one outcome type
// (and its aggregation code) instead of duplicating it.
pub use mprec_serving::{PathUsage, ServingOutcome};
// Re-exported so report consumers reach the flight-recorder types
// (config and recordings) without a separate dep.
pub use mprec_trace::{TraceConfig, TraceRecording};

use std::error::Error;
use std::fmt;

/// Error raised by engine construction or serving.
#[derive(Debug)]
pub enum RuntimeError {
    /// Planner/scheduler/cache error.
    Core(mprec_core::CoreError),
    /// Embedding execution error.
    Embed(mprec_embed::EmbedError),
    /// Neural-network execution error.
    Nn(mprec_nn::NnError),
    /// Tensor shape error.
    Tensor(mprec_tensor::TensorError),
    /// A worker thread failed while executing a batch.
    Worker(String),
    /// Inconsistent configuration.
    BadConfig(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Core(e) => write!(f, "core error: {e}"),
            RuntimeError::Embed(e) => write!(f, "embedding error: {e}"),
            RuntimeError::Nn(e) => write!(f, "nn error: {e}"),
            RuntimeError::Tensor(e) => write!(f, "tensor error: {e}"),
            RuntimeError::Worker(msg) => write!(f, "worker failed: {msg}"),
            RuntimeError::BadConfig(msg) => write!(f, "bad runtime config: {msg}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Core(e) => Some(e),
            RuntimeError::Embed(e) => Some(e),
            RuntimeError::Nn(e) => Some(e),
            RuntimeError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mprec_core::CoreError> for RuntimeError {
    fn from(e: mprec_core::CoreError) -> Self {
        RuntimeError::Core(e)
    }
}

impl From<mprec_embed::EmbedError> for RuntimeError {
    fn from(e: mprec_embed::EmbedError) -> Self {
        RuntimeError::Embed(e)
    }
}

impl From<mprec_nn::NnError> for RuntimeError {
    fn from(e: mprec_nn::NnError) -> Self {
        RuntimeError::Nn(e)
    }
}

impl From<mprec_tensor::TensorError> for RuntimeError {
    fn from(e: mprec_tensor::TensorError) -> Self {
        RuntimeError::Tensor(e)
    }
}

impl From<mprec_hwsim::HwError> for RuntimeError {
    fn from(e: mprec_hwsim::HwError) -> Self {
        RuntimeError::Core(mprec_core::CoreError::Hw(e))
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;
