//! Representation configurations and the capacity/FLOPs accounting used by
//! Table 3, Fig. 3 and Fig. 4.

use crate::{EmbedError, Result};

/// Which embedding representation a model uses (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepresentationKind {
    /// Learned embedding tables (storage path).
    Table,
    /// Deep Hash Embedding encoder-decoder stacks (generation path).
    Dhe,
    /// Per-feature mix: DHE on the largest tables, tables elsewhere.
    Select,
    /// Table and DHE concatenated per feature (highest accuracy).
    Hybrid,
}

impl std::fmt::Display for RepresentationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepresentationKind::Table => write!(f, "table"),
            RepresentationKind::Dhe => write!(f, "dhe"),
            RepresentationKind::Select => write!(f, "select"),
            RepresentationKind::Hybrid => write!(f, "hybrid"),
        }
    }
}

/// Hyperparameters of one DHE encoder-decoder stack (paper §3.1: `k`
/// parallel hash functions, decoder MLP width `d_NN` and height `h`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DheConfig {
    /// Number of parallel encoder hash functions (paper sweeps 2..2048).
    pub k: usize,
    /// Decoder MLP hidden width `d_NN`.
    pub dnn: usize,
    /// Decoder MLP hidden depth `h` (number of hidden layers).
    pub h: usize,
    /// Output embedding dimension.
    pub out_dim: usize,
}

impl DheConfig {
    /// Decoder layer-size vector `[k, dnn, ..., out_dim]`.
    pub fn decoder_sizes(&self) -> Vec<usize> {
        let mut sizes = Vec::with_capacity(self.h + 2);
        sizes.push(self.k);
        sizes.extend(std::iter::repeat_n(self.dnn, self.h));
        sizes.push(self.out_dim);
        sizes
    }

    /// Trainable parameters of one stack (weights + biases).
    pub fn param_count(&self) -> u64 {
        let sizes = self.decoder_sizes();
        sizes
            .windows(2)
            .map(|w| (w[0] * w[1] + w[1]) as u64)
            .sum()
    }

    /// FLOPs to generate one embedding vector for one sample: the encoder's
    /// `k` hashes + normalizations plus the decoder GEMMs.
    pub fn flops_per_sample(&self) -> u64 {
        // ~6 integer/float ops per hash+normalize per function.
        let encoder = 6 * self.k as u64;
        let decoder: u64 = self
            .decoder_sizes()
            .windows(2)
            .map(|w| 2 * (w[0] * w[1]) as u64 + w[1] as u64)
            .sum();
        encoder + decoder
    }
}

/// Full representation configuration for a model's embedding layer.
#[derive(Debug, Clone, PartialEq)]
pub struct RepresentationConfig {
    /// The representation family.
    pub kind: RepresentationKind,
    /// Embedding-table dimension (used by Table / Select / Hybrid).
    pub table_dim: usize,
    /// DHE stack hyperparameters (used by Dhe / Select / Hybrid).
    pub dhe: Option<DheConfig>,
    /// For `Select`: how many of the largest tables are replaced by DHE
    /// stacks (paper §3.3 replaces the 3 largest).
    pub select_top_k: usize,
}

impl RepresentationConfig {
    /// A pure table representation at the given dimension.
    pub fn table(table_dim: usize) -> Self {
        RepresentationConfig {
            kind: RepresentationKind::Table,
            table_dim,
            dhe: None,
            select_top_k: 0,
        }
    }

    /// A pure DHE representation.
    pub fn dhe(cfg: DheConfig) -> Self {
        RepresentationConfig {
            kind: RepresentationKind::Dhe,
            table_dim: 0,
            dhe: Some(cfg),
            select_top_k: 0,
        }
    }

    /// A select representation: DHE on the `top_k` largest tables,
    /// `table_dim` tables elsewhere. DHE output dim must equal `table_dim`
    /// so downstream interactions see a uniform width.
    pub fn select(table_dim: usize, dhe: DheConfig, top_k: usize) -> Self {
        RepresentationConfig {
            kind: RepresentationKind::Select,
            table_dim,
            dhe: Some(dhe),
            select_top_k: top_k,
        }
    }

    /// A hybrid representation: every feature runs both a `table_dim` table
    /// and a DHE stack; their outputs are concatenated (per-feature width
    /// `table_dim + dhe.out_dim`).
    pub fn hybrid(table_dim: usize, dhe: DheConfig) -> Self {
        RepresentationConfig {
            kind: RepresentationKind::Hybrid,
            table_dim,
            dhe: Some(dhe),
            select_top_k: 0,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::BadConfig`] when dims are zero where required,
    /// the DHE config is missing for a compute-based kind, or a select
    /// config mixes unequal widths.
    pub fn validate(&self) -> Result<()> {
        match self.kind {
            RepresentationKind::Table => {
                if self.table_dim == 0 {
                    return Err(EmbedError::BadConfig("table_dim must be > 0".into()));
                }
            }
            RepresentationKind::Dhe => {
                let d = self
                    .dhe
                    .ok_or_else(|| EmbedError::BadConfig("dhe kind needs a DheConfig".into()))?;
                if d.k == 0 || d.out_dim == 0 || d.dnn == 0 {
                    return Err(EmbedError::BadConfig(format!(
                        "dhe dims must be positive, got {d:?}"
                    )));
                }
            }
            RepresentationKind::Select => {
                let d = self
                    .dhe
                    .ok_or_else(|| EmbedError::BadConfig("select kind needs a DheConfig".into()))?;
                if self.table_dim == 0 {
                    return Err(EmbedError::BadConfig("table_dim must be > 0".into()));
                }
                if d.out_dim != self.table_dim {
                    return Err(EmbedError::BadConfig(format!(
                        "select requires dhe.out_dim ({}) == table_dim ({})",
                        d.out_dim, self.table_dim
                    )));
                }
                if self.select_top_k == 0 {
                    return Err(EmbedError::BadConfig(
                        "select_top_k must be > 0 for select".into(),
                    ));
                }
            }
            RepresentationKind::Hybrid => {
                if self.table_dim == 0 {
                    return Err(EmbedError::BadConfig("table_dim must be > 0".into()));
                }
                let d = self
                    .dhe
                    .ok_or_else(|| EmbedError::BadConfig("hybrid kind needs a DheConfig".into()))?;
                if d.out_dim == 0 {
                    return Err(EmbedError::BadConfig("dhe.out_dim must be > 0".into()));
                }
            }
        }
        Ok(())
    }

    /// Per-feature output width seen by the downstream model.
    pub fn feature_dim(&self) -> usize {
        match self.kind {
            RepresentationKind::Table => self.table_dim,
            RepresentationKind::Dhe => self.dhe.map(|d| d.out_dim).unwrap_or(0),
            RepresentationKind::Select => self.table_dim,
            RepresentationKind::Hybrid => {
                self.table_dim + self.dhe.map(|d| d.out_dim).unwrap_or(0)
            }
        }
    }

    /// Which features use a DHE stack, given per-table cardinalities.
    pub fn dhe_features(&self, cardinalities: &[u64]) -> Vec<bool> {
        match self.kind {
            RepresentationKind::Table => vec![false; cardinalities.len()],
            RepresentationKind::Dhe | RepresentationKind::Hybrid => {
                vec![true; cardinalities.len()]
            }
            RepresentationKind::Select => {
                let mut idx: Vec<usize> = (0..cardinalities.len()).collect();
                idx.sort_by_key(|&i| std::cmp::Reverse(cardinalities[i]));
                let mut mask = vec![false; cardinalities.len()];
                for &i in idx.iter().take(self.select_top_k) {
                    mask[i] = true;
                }
                mask
            }
        }
    }

    /// Total parameter bytes at the given (paper-scale) cardinalities.
    ///
    /// This is the quantity reported in Table 3 and on the x-axis of
    /// Fig. 3(a) / Fig. 4.
    pub fn capacity_bytes(&self, cardinalities: &[u64]) -> u64 {
        let dhe_mask = self.dhe_features(cardinalities);
        let mut bytes = 0u64;
        for (f, &card) in cardinalities.iter().enumerate() {
            let uses_dhe = dhe_mask[f];
            let uses_table = match self.kind {
                RepresentationKind::Table => true,
                RepresentationKind::Dhe => false,
                RepresentationKind::Select => !uses_dhe,
                RepresentationKind::Hybrid => true,
            };
            if uses_table {
                bytes += card * self.table_dim as u64 * 4;
            }
            if uses_dhe {
                bytes += self.dhe.expect("validated").param_count() * 4;
            }
        }
        bytes
    }

    /// Embedding-access FLOPs per sample across all features. Table gathers
    /// count one accumulate per element; DHE stacks run their encoder +
    /// decoder. This feeds Fig. 3(b) and the hardware model.
    pub fn flops_per_sample(&self, cardinalities: &[u64]) -> u64 {
        let dhe_mask = self.dhe_features(cardinalities);
        let mut flops = 0u64;
        for (f, _) in cardinalities.iter().enumerate() {
            let uses_dhe = dhe_mask[f];
            let uses_table = match self.kind {
                RepresentationKind::Table => true,
                RepresentationKind::Dhe => false,
                RepresentationKind::Select => !uses_dhe,
                RepresentationKind::Hybrid => true,
            };
            if uses_table {
                flops += self.table_dim as u64; // gather + pool accumulate
            }
            if uses_dhe {
                flops += self.dhe.expect("validated").flops_per_sample();
            }
        }
        flops
    }

    /// The paper-scale DHE configuration used for capacity reporting:
    /// `k = 2048`, `d_NN = 512`, `h = 2`. At 26 Kaggle features and
    /// out_dim 16 this lands on the paper's ~126 MB DHE footprint.
    pub fn paper_scale_dhe(out_dim: usize) -> DheConfig {
        DheConfig {
            k: 2048,
            dnn: 512,
            h: 2,
            out_dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mprec_data::KAGGLE_CARDINALITIES;

    #[test]
    fn decoder_sizes_shape() {
        let d = DheConfig {
            k: 32,
            dnn: 64,
            h: 2,
            out_dim: 16,
        };
        assert_eq!(d.decoder_sizes(), vec![32, 64, 64, 16]);
        assert_eq!(
            d.param_count(),
            (32 * 64 + 64 + 64 * 64 + 64 + 64 * 16 + 16) as u64
        );
    }

    #[test]
    fn kaggle_table_capacity_matches_paper() {
        let cfg = RepresentationConfig::table(16);
        let gb = cfg.capacity_bytes(&KAGGLE_CARDINALITIES) as f64 / 1e9;
        assert!((gb - 2.16).abs() < 0.01, "{gb} GB");
    }

    #[test]
    fn kaggle_dhe_capacity_matches_paper() {
        // Paper Table 3: DHE footprint for Kaggle is 126 MB.
        let cfg = RepresentationConfig::dhe(RepresentationConfig::paper_scale_dhe(16));
        let mb = cfg.capacity_bytes(&KAGGLE_CARDINALITIES) as f64 / 1e6;
        assert!((mb - 126.0).abs() < 15.0, "{mb} MB vs paper 126 MB");
    }

    #[test]
    fn kaggle_hybrid_capacity_is_table_plus_dhe() {
        let table = RepresentationConfig::table(16);
        let dhe = RepresentationConfig::dhe(RepresentationConfig::paper_scale_dhe(16));
        let hybrid =
            RepresentationConfig::hybrid(16, RepresentationConfig::paper_scale_dhe(16));
        assert_eq!(
            hybrid.capacity_bytes(&KAGGLE_CARDINALITIES),
            table.capacity_bytes(&KAGGLE_CARDINALITIES)
                + dhe.capacity_bytes(&KAGGLE_CARDINALITIES)
        );
    }

    #[test]
    fn dhe_has_orders_of_magnitude_more_flops_than_table() {
        // Paper Fig. 3(b): DHE/hybrid have 10-100x the FLOPs of tables.
        let table = RepresentationConfig::table(16);
        let dhe = RepresentationConfig::dhe(RepresentationConfig::paper_scale_dhe(16));
        let ratio = dhe.flops_per_sample(&KAGGLE_CARDINALITIES) as f64
            / table.flops_per_sample(&KAGGLE_CARDINALITIES) as f64;
        assert!(ratio > 100.0, "flops ratio {ratio}");
    }

    #[test]
    fn select_masks_exactly_top_k() {
        let dhe = DheConfig {
            k: 16,
            dnn: 32,
            h: 1,
            out_dim: 16,
        };
        let cfg = RepresentationConfig::select(16, dhe, 3);
        let mask = cfg.dhe_features(&KAGGLE_CARDINALITIES);
        assert_eq!(mask.iter().filter(|&&b| b).count(), 3);
        // The three largest Kaggle tables are features 2, 11, 20.
        assert!(mask[2] && mask[11] && mask[20]);
    }

    #[test]
    fn select_capacity_below_table_baseline() {
        let dhe = DheConfig {
            k: 256,
            dnn: 128,
            h: 2,
            out_dim: 16,
        };
        let select = RepresentationConfig::select(16, dhe, 3);
        let table = RepresentationConfig::table(16);
        assert!(
            select.capacity_bytes(&KAGGLE_CARDINALITIES)
                < table.capacity_bytes(&KAGGLE_CARDINALITIES)
        );
    }

    #[test]
    fn validation_catches_mistakes() {
        assert!(RepresentationConfig::table(0).validate().is_err());
        let bad_select = RepresentationConfig::select(
            16,
            DheConfig {
                k: 8,
                dnn: 8,
                h: 1,
                out_dim: 8, // != table_dim
            },
            3,
        );
        assert!(bad_select.validate().is_err());
        let mut no_dhe = RepresentationConfig::table(16);
        no_dhe.kind = RepresentationKind::Dhe;
        assert!(no_dhe.validate().is_err());
    }

    #[test]
    fn feature_dims_per_kind() {
        let d = DheConfig {
            k: 8,
            dnn: 8,
            h: 1,
            out_dim: 16,
        };
        assert_eq!(RepresentationConfig::table(16).feature_dim(), 16);
        assert_eq!(RepresentationConfig::dhe(d).feature_dim(), 16);
        assert_eq!(RepresentationConfig::select(16, d, 3).feature_dim(), 16);
        assert_eq!(RepresentationConfig::hybrid(16, d).feature_dim(), 32);
    }
}
