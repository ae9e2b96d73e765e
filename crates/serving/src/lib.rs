//! Query-serving simulator for the MP-Rec evaluation (paper §5-6).
//!
//! Replays a query trace (lognormal sizes, Poisson arrivals) against a
//! serving **policy** — a static representation-hardware deployment,
//! table-only CPU-GPU switching, even query splitting, or full MP-Rec —
//! and reports the paper's metrics: throughput of correct predictions
//! (Fig. 10/11), path-activation breakdown (Fig. 15), latency percentiles
//! and SLA-violation rates (Fig. 17).
//!
//! The simulation is the runtime's dispatcher core, driven with no IO
//! ([`replay_cluster()`]) over a cluster whose nodes are the mapping
//! set's platforms ([`platforms_as_nodes`]), with batching off: each
//! query is its own batch, each platform executes FIFO, and execution
//! times come from the profiled latency curves produced by the offline
//! stage (optionally MP-Cache-adjusted). Only Fig. 14's even query split
//! has its own loop.
//!
//! [`mod@dispatch`] is that sans-IO core, which `mprec-runtime` drives
//! with threads; [`mod@replay`] holds its IO-free driver and the
//! independent `Scheduler`-based reference [`replay()`] it is held to.
//!
//! # Examples
//!
//! ```
//! use mprec_core::candidates::{default_accuracy_book, paper_candidates};
//! use mprec_core::planner::plan;
//! use mprec_data::query::QueryTraceConfig;
//! use mprec_data::DatasetSpec;
//! use mprec_hwsim::Platform;
//! use mprec_serving::{simulate, Policy, ServingConfig};
//!
//! let spec = DatasetSpec::kaggle_sim(100);
//! let candidates = paper_candidates(&spec, &default_accuracy_book(&spec));
//! let mappings = plan(&candidates, &[Platform::cpu(), Platform::gpu()])?;
//! let cfg = ServingConfig {
//!     trace: QueryTraceConfig { num_queries: 200, ..QueryTraceConfig::default() },
//!     ..ServingConfig::default()
//! };
//! let outcome = simulate(&mappings, Policy::MpRec, &cfg);
//! assert_eq!(outcome.completed, 200);
//! # Ok::<(), mprec_core::CoreError>(())
//! ```

pub mod dispatch;
mod outcome;
mod policy;
pub mod replay;
mod sim;

pub use outcome::{PathUsage, ServingOutcome};
pub use policy::Policy;
pub use replay::{
    platforms_as_nodes, replay, replay_cluster, ClusterChurnSpec, ClusterEpochSpec,
    ClusterReplayBatch, ClusterReplayResult, ClusterReplaySpec, ReplayBatch, ReplayConfig,
    ReplayResult, TenantOutcome,
};
pub use sim::{simulate, simulate_trace, MpCacheEffect, ServingConfig};
