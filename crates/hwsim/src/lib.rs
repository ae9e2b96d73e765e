//! Hardware performance model for the MP-Rec reproduction (paper §3, §5.1).
//!
//! The paper characterizes embedding representations on real silicon:
//! Broadwell Xeon CPUs, NVIDIA V100 GPUs, Google TPUv3 (core/chip/board)
//! and Graphcore GC200 IPUs (chip/board/pod). None of that hardware is
//! available to a reproduction, so this crate models it analytically:
//!
//! * [`DeviceSpec`] carries the Table 1 parameters (cores, frequency, DRAM
//!   bandwidth/capacity, on-chip SRAM, TDP) plus per-platform mechanism
//!   constants (gather efficiency, host-offload overhead, kernel launch
//!   cost, GEMM utilization ramp);
//! * [`Op`] describes the operators a representation executes (gathers,
//!   GEMMs, hashing, interactions) and [`cost::op_cost`] prices
//!   each with a roofline rule `max(compute, memory) + overhead`;
//! * platform mechanisms from the paper's observations O1–O4 are modeled
//!   explicitly: TPUEmbedding's sharded, pipelined lookups (O1), the IPU's
//!   fits-in-SRAM cliff vs. streaming DRAM (O2), GPU/TPU host-offload
//!   overheads that favor CPUs on small queries (Insight 3), and
//!   energy = TDP x busy time (O3);
//! * [`Platform`] composes chips into boards/pods with data or pipeline
//!   parallelism.
//!
//! Constants are calibrated against the paper's reported ratios (Fig. 5,
//! Fig. 7): `mprec-bench`'s `calibrate_hw` bin prints paper-vs-model
//! numbers and `tests/paper_claims.rs` pins the shapes.

mod cost;
mod device;
mod platform;
mod workload;

pub mod energy;

pub use cost::{op_cost, Op, OpCost};
pub use device::{DeviceKind, DeviceSpec};
pub use platform::{ParallelMode, Platform};
pub use workload::{ModelWorkload, OpClass, RepKindDesc, WorkloadBuilder};

use std::error::Error;
use std::fmt;

/// Error raised by the hardware model.
#[derive(Debug, Clone, PartialEq)]
pub enum HwError {
    /// A workload or platform was configured inconsistently.
    BadConfig(String),
    /// The model does not fit on the platform at all (no DRAM spill path).
    DoesNotFit {
        /// Required bytes.
        required: u64,
        /// Available bytes.
        available: u64,
    },
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::BadConfig(msg) => write!(f, "bad hw config: {msg}"),
            HwError::DoesNotFit {
                required,
                available,
            } => write!(
                f,
                "model of {required} bytes does not fit in {available} bytes"
            ),
        }
    }
}

impl Error for HwError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HwError>;
