//! The candidate representation space MP-Rec's offline stage explores.
//!
//! Algorithm 1 distinguishes representation *roles*: the accuracy-optimal
//! hybrid (`r*_hybrid`: large `k`, small decoder), the latency-critical
//! table (`r_table`), a mid-range DHE (`r*_DHE`) and a compact DHE for
//! memory-constrained devices (`r_DHE(compact)`). This module defines the
//! paper-shaped candidate set with both training-scale configs (for
//! accuracy) and paper-scale workloads (for the hardware model).

use mprec_data::DatasetSpec;
use mprec_embed::{DheConfig, RepresentationConfig, RepresentationKind};
use mprec_hwsim::{ModelWorkload, WorkloadBuilder};

/// The role a candidate plays in Algorithm 1's selection order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepRole {
    /// Accuracy-optimal hybrid (`r*_hybrid`).
    Hybrid,
    /// Latency-critical table path (`r_table`).
    Table,
    /// Mid-range DHE (`r*_DHE`).
    Dhe,
    /// Compact DHE for constrained devices (`r_DHE(compact)`).
    DheCompact,
    /// Per-feature select (characterization only; Algorithm 1 does not
    /// place it, but Fig. 3/5 study it).
    Select,
}

impl std::fmt::Display for RepRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepRole::Hybrid => write!(f, "hybrid"),
            RepRole::Table => write!(f, "table"),
            RepRole::Dhe => write!(f, "dhe"),
            RepRole::DheCompact => write!(f, "dhe-compact"),
            RepRole::Select => write!(f, "select"),
        }
    }
}

/// One candidate representation: training-scale config, paper-scale
/// workload, and its achievable model accuracy.
#[derive(Debug, Clone)]
pub struct CandidateRep {
    /// Display name, e.g. `"hybrid"`.
    pub name: String,
    /// Role in Algorithm 1.
    pub role: RepRole,
    /// Training-scale representation config (for real model execution).
    pub config: RepresentationConfig,
    /// Paper-scale workload for the hardware model.
    pub workload: ModelWorkload,
    /// Achievable model accuracy (from Table 2-style training runs).
    pub accuracy: f32,
}

impl CandidateRep {
    /// Paper-scale parameter bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.workload.total_bytes()
    }
}

/// Measured achievable accuracies per role (the reproduction's Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyBook {
    /// Table baseline accuracy.
    pub table: f32,
    /// Mid/large DHE accuracy.
    pub dhe: f32,
    /// Compact DHE accuracy.
    pub dhe_compact: f32,
    /// Select accuracy.
    pub select: f32,
    /// Hybrid accuracy (highest).
    pub hybrid: f32,
}

/// Default accuracy book: the values measured by
/// `cargo run -p mprec-bench --bin table2_accuracy` on the synthetic
/// datasets, falling back to the paper's Table 2 deltas applied to the
/// measured baselines.
pub fn default_accuracy_book(spec: &DatasetSpec) -> AccuracyBook {
    if spec.name.starts_with("terabyte") {
        AccuracyBook {
            table: 0.8081,
            dhe: 0.8099,
            dhe_compact: 0.8088,
            select: 0.8090,
            hybrid: 0.8103,
        }
    } else {
        AccuracyBook {
            table: 0.7879,
            dhe: 0.7894,
            dhe_compact: 0.7885,
            select: 0.7888,
            hybrid: 0.7898,
        }
    }
}

/// DHE hyperparameters by role, at paper scale (capacity-relevant) —
/// `k` large for accuracy, decoder sized per role (§3.1, Algorithm 1).
pub fn paper_dhe_config(role: RepRole, out_dim: usize) -> DheConfig {
    match role {
        // Accuracy-optimal: large k, full decoder (Table 3's 126 MB DHE).
        RepRole::Dhe | RepRole::Hybrid => DheConfig {
            k: 2048,
            dnn: 512,
            h: 2,
            out_dim,
        },
        // Compact: small stack for HW-2-class devices.
        RepRole::DheCompact => DheConfig {
            k: 256,
            dnn: 64,
            h: 2,
            out_dim,
        },
        // Mid-range stack used in the latency characterization (Fig. 5).
        RepRole::Select => DheConfig {
            k: 512,
            dnn: 256,
            h: 2,
            out_dim,
        },
        RepRole::Table => DheConfig {
            k: 1,
            dnn: 1,
            h: 0,
            out_dim,
        },
    }
}

/// Training-scale DHE hyperparameters (scaled decoders that train in
/// seconds while preserving `k >=` the trait count).
pub fn sim_dhe_config(role: RepRole, out_dim: usize) -> DheConfig {
    match role {
        RepRole::Dhe | RepRole::Hybrid => DheConfig {
            k: 32,
            dnn: 48,
            h: 2,
            out_dim,
        },
        RepRole::DheCompact => DheConfig {
            k: 16,
            dnn: 24,
            h: 2,
            out_dim,
        },
        RepRole::Select | RepRole::Table => DheConfig {
            k: 32,
            dnn: 48,
            h: 2,
            out_dim,
        },
    }
}

fn workload_builder(spec: &DatasetSpec) -> WorkloadBuilder {
    WorkloadBuilder::new(
        spec.name.clone(),
        spec.cardinalities.clone(),
        spec.num_dense_features,
    )
}

/// Builds the paper-shaped candidate set for a dataset: table, mid DHE,
/// compact DHE, and hybrid (plus select for characterization).
///
/// # Panics
///
/// Panics only if internal workload construction fails, which would be a
/// bug in the fixed configurations.
pub fn paper_candidates(spec: &DatasetSpec, acc: &AccuracyBook) -> Vec<CandidateRep> {
    let dim = spec.baseline_emb_dim;
    let b = workload_builder(spec);

    let table = CandidateRep {
        name: "table".into(),
        role: RepRole::Table,
        config: RepresentationConfig::table(dim),
        workload: b.table(dim).expect("table workload"),
        accuracy: acc.table,
    };
    let dhe_cfg = paper_dhe_config(RepRole::Dhe, dim);
    let dhe = CandidateRep {
        name: "dhe".into(),
        role: RepRole::Dhe,
        config: RepresentationConfig {
            kind: RepresentationKind::Dhe,
            table_dim: 0,
            dhe: Some(sim_dhe_config(RepRole::Dhe, dim)),
            select_top_k: 0,
        },
        workload: b
            .dhe(dhe_cfg.k, dhe_cfg.dnn, dhe_cfg.h, dhe_cfg.out_dim)
            .expect("dhe workload"),
        accuracy: acc.dhe,
    };
    let compact_cfg = paper_dhe_config(RepRole::DheCompact, dim);
    let dhe_compact = CandidateRep {
        name: "dhe-compact".into(),
        role: RepRole::DheCompact,
        config: RepresentationConfig {
            kind: RepresentationKind::Dhe,
            table_dim: 0,
            dhe: Some(sim_dhe_config(RepRole::DheCompact, dim)),
            select_top_k: 0,
        },
        workload: b
            .dhe(
                compact_cfg.k,
                compact_cfg.dnn,
                compact_cfg.h,
                compact_cfg.out_dim,
            )
            .expect("compact dhe workload"),
        accuracy: acc.dhe_compact,
    };
    let hybrid_cfg = paper_dhe_config(RepRole::Hybrid, dim);
    let hybrid = CandidateRep {
        name: "hybrid".into(),
        role: RepRole::Hybrid,
        config: RepresentationConfig::hybrid(dim, sim_dhe_config(RepRole::Hybrid, dim)),
        workload: b
            .hybrid(dim, hybrid_cfg.k, hybrid_cfg.dnn, hybrid_cfg.h, hybrid_cfg.out_dim)
            .expect("hybrid workload"),
        accuracy: acc.hybrid,
    };
    vec![hybrid, table, dhe, dhe_compact]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaggle_candidate_capacities_match_table3() {
        let spec = DatasetSpec::kaggle_sim(100);
        let acc = default_accuracy_book(&spec);
        let cands = paper_candidates(&spec, &acc);
        let by_role = |r: RepRole| {
            cands
                .iter()
                .find(|c| c.role == r)
                .expect("role present")
                .capacity_bytes() as f64
        };
        // Paper Table 3 (Kaggle): table 2.16 GB, DHE 126 MB, hybrid 2.29 GB.
        // Workload capacities additionally include the dense MLP params
        // (~2 MB), so compare with a loose band.
        assert!((by_role(RepRole::Table) / 1e9 - 2.16).abs() < 0.05);
        assert!((by_role(RepRole::Dhe) / 1e6 - 126.0).abs() < 20.0);
        assert!((by_role(RepRole::Hybrid) / 1e9 - 2.29).abs() < 0.06);
        assert!(by_role(RepRole::DheCompact) < by_role(RepRole::Dhe) / 5.0);
    }

    #[test]
    fn terabyte_candidate_capacities_match_table3() {
        let spec = DatasetSpec::terabyte_sim(100);
        let acc = default_accuracy_book(&spec);
        let cands = paper_candidates(&spec, &acc);
        let table = cands.iter().find(|c| c.role == RepRole::Table).unwrap();
        let hybrid = cands.iter().find(|c| c.role == RepRole::Hybrid).unwrap();
        assert!((table.capacity_bytes() as f64 / 1e9 - 12.58).abs() < 0.3);
        assert!((hybrid.capacity_bytes() as f64 / 1e9 - 12.70).abs() < 0.4);
    }

    #[test]
    fn accuracy_ordering_is_paper_shaped() {
        let spec = DatasetSpec::kaggle_sim(100);
        let acc = default_accuracy_book(&spec);
        assert!(acc.hybrid > acc.dhe);
        assert!(acc.dhe > acc.table);
        assert!(acc.select > acc.table);
    }

    #[test]
    fn candidates_sorted_hybrid_first() {
        let spec = DatasetSpec::kaggle_sim(100);
        let cands = paper_candidates(&spec, &default_accuracy_book(&spec));
        assert_eq!(cands[0].role, RepRole::Hybrid);
        assert_eq!(cands[1].role, RepRole::Table);
    }

    #[test]
    fn sim_configs_keep_trait_coverage() {
        // The training-scale encoder must cover the teacher's 8 traits.
        for role in [RepRole::Dhe, RepRole::DheCompact, RepRole::Hybrid] {
            assert!(sim_dhe_config(role, 16).k >= 8, "role {role} too small");
        }
    }
}
