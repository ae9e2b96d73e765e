//! MP-Rec: dynamic representation-hardware co-design for recommendation
//! inference (the paper's primary contribution, §4).
//!
//! MP-Rec maximizes *throughput of correct predictions* under tail-latency
//! targets by keeping several embedding execution paths alive at once:
//!
//! * **Offline stage** ([`planner`], Algorithm 1): given the candidate
//!   representation space and the memory capacities of the available
//!   hardware platforms, select per-platform representation sets —
//!   an accuracy-optimal hybrid when it fits, an embedding-table path for
//!   latency-critical queries, a mid-range DHE, and a compact DHE on
//!   memory-constrained devices. Each selected mapping is profiled across
//!   query sizes ([`profile::LatencyProfile`]).
//! * **Online stage** ([`scheduler`], Algorithm 2): per query, activate the
//!   most accurate representation-hardware path that can finish under the
//!   SLA latency target given current device backlogs, falling back to the
//!   table path so throughput and latency floors always hold.
//! * **MP-Cache** ([`mpcache`], §4.3): a tiered cache that makes the
//!   compute-heavy paths viable — `MP-Cache_encoder` pins final embeddings
//!   of hot IDs (power-law access), `MP-Cache_decoder` replaces decoder
//!   MLP runs with a nearest-centroid lookup over profiled intermediate
//!   vectors, and a persistent disk tier ([`persist`]) survives process
//!   restarts and warm-starts joining cluster nodes.
//!
//! # Examples
//!
//! Plan mappings for a CPU-GPU node and route one query:
//!
//! ```
//! use mprec_core::candidates::{default_accuracy_book, paper_candidates};
//! use mprec_core::planner::plan;
//! use mprec_core::scheduler::{Scheduler, SchedulerConfig};
//! use mprec_data::DatasetSpec;
//! use mprec_hwsim::Platform;
//!
//! let spec = DatasetSpec::kaggle_sim(100);
//! let candidates = paper_candidates(&spec, &default_accuracy_book(&spec));
//! let platforms = vec![Platform::cpu(), Platform::gpu()];
//! let mappings = plan(&candidates, &platforms)?;
//! let mut sched = Scheduler::new(mappings, SchedulerConfig::default());
//! let decision = sched.route(128, 10_000.0);
//! assert!(decision.is_some());
//! # Ok::<(), mprec_core::CoreError>(())
//! ```

#![warn(missing_docs)]

pub mod candidates;
pub mod metrics;
pub mod mpcache;
pub mod persist;
pub mod planner;
pub mod profile;
pub mod ring;
pub mod scheduler;

pub use candidates::{AccuracyBook, CandidateRep, RepRole};
pub use metrics::CorrectPredictionThroughput;
pub use mpcache::{CacheStats, DecoderCache, EncoderCache, ShardedCacheConfig, ShardedMpCache};
pub use persist::{Segment, SegmentError};
pub use planner::{plan, Mapping, MappingSet};
pub use profile::LatencyProfile;
pub use ring::{FeatureShardPlan, HashRing, KeyMove, RemapDiff};
pub use scheduler::{select_mapping, RouteDecision, Scheduler, SchedulerConfig};

use std::error::Error;
use std::fmt;

/// Error raised by planning, caching or scheduling.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The hardware model rejected a workload/platform pairing.
    Hw(mprec_hwsim::HwError),
    /// An embedding operation failed.
    Embed(mprec_embed::EmbedError),
    /// Planning produced no feasible mapping at all.
    NoFeasibleMapping,
    /// Inconsistent configuration.
    BadConfig(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Hw(e) => write!(f, "hardware model error: {e}"),
            CoreError::Embed(e) => write!(f, "embedding error: {e}"),
            CoreError::NoFeasibleMapping => {
                write!(f, "no representation fits any available platform")
            }
            CoreError::BadConfig(msg) => write!(f, "bad mp-rec config: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Hw(e) => Some(e),
            CoreError::Embed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mprec_hwsim::HwError> for CoreError {
    fn from(e: mprec_hwsim::HwError) -> Self {
        CoreError::Hw(e)
    }
}

impl From<mprec_embed::EmbedError> for CoreError {
    fn from(e: mprec_embed::EmbedError) -> Self {
        CoreError::Embed(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
