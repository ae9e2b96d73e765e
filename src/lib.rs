//! # MP-Rec: Multi-Path Recommendation (ASPLOS 2023) — Rust reproduction
//!
//! A from-scratch reproduction of *"MP-Rec: Hardware-Software Co-Design to
//! Enable Multi-Path Recommendation"* (Hsia et al., ASPLOS 2023): dynamic
//! selection of embedding **representations** (table / DHE / select /
//! hybrid) and **hardware platforms** (CPU / GPU / TPU / IPU) to maximize
//! the throughput of correct recommendations under tail-latency targets.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `mprec-tensor` | matrices, GEMM, vector kernels |
//! | [`nn`] | `mprec-nn` | MLPs, losses, optimizers |
//! | [`data`] | `mprec-data` | synthetic Criteo-shaped datasets, query traces |
//! | [`embed`] | `mprec-embed` | Table / DHE / Select / Hybrid representations |
//! | [`dlrm`] | `mprec-dlrm` | the DLRM model and trainer |
//! | [`hwsim`] | `mprec-hwsim` | the Table-1 hardware performance model |
//! | [`core`] | `mprec-core` | MP-Rec: offline planner, online scheduler, MP-Cache |
//! | [`serving`] | `mprec-serving` | the query-serving simulator and policies |
//! | [`runtime`] | `mprec-runtime` | the real multi-threaded serving runtime (worker pool, sharded MP-Cache, SLA-aware batching) |
//! | [`trace`] | `mprec-trace` | virtual-time flight recorder, Chrome-trace export, routing explain |
//! | [`scaling`] | `mprec-scaling` | the §6.9 multi-node scaling analysis |
//!
//! # Quickstart
//!
//! Plan representation-hardware mappings for a CPU-GPU node and serve a
//! query trace with MP-Rec:
//!
//! ```
//! use mprec::core::candidates::{default_accuracy_book, paper_candidates};
//! use mprec::core::planner::plan;
//! use mprec::data::query::QueryTraceConfig;
//! use mprec::data::DatasetSpec;
//! use mprec::hwsim::Platform;
//! use mprec::serving::{simulate, Policy, ServingConfig};
//!
//! let spec = DatasetSpec::kaggle_sim(100);
//! let candidates = paper_candidates(&spec, &default_accuracy_book(&spec));
//! let mappings = plan(&candidates, &[Platform::cpu(), Platform::gpu()])?;
//! let cfg = ServingConfig {
//!     trace: QueryTraceConfig { num_queries: 100, ..QueryTraceConfig::default() },
//!     ..ServingConfig::default()
//! };
//! let outcome = simulate(&mappings, Policy::MpRec, &cfg);
//! println!("correct predictions/s: {:.0}", outcome.correct_sps());
//! # Ok::<(), mprec::core::CoreError>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/` for the binaries regenerating every table and
//! figure of the paper.

pub use mprec_core as core;
pub use mprec_data as data;
pub use mprec_dlrm as dlrm;
pub use mprec_embed as embed;
pub use mprec_hwsim as hwsim;
pub use mprec_nn as nn;
pub use mprec_runtime as runtime;
pub use mprec_scaling as scaling;
pub use mprec_serving as serving;
pub use mprec_tensor as tensor;
pub use mprec_trace as trace;
