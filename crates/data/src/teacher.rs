//! The planted ground-truth click model.
//!
//! Labels are Bernoulli draws from `sigmoid(logit)` with
//!
//! ```text
//! logit = bias + w · dense
//!       + Σ_f σ_idio   · idio(f, id_f)          (per-ID random effect)
//!       + Σ_f σ_shared · g_f(τ(id_f))           (smooth shared structure)
//! ```
//!
//! * `idio(f, id)` is a hash-derived standard normal unique to `(f, id)`.
//!   Embedding tables can memorize it for IDs seen in training; shared
//!   DHE parameters cannot express 30M independent values.
//! * `τ(id) ∈ [-1,1]^J` are *trait features* from `J` fixed hash seeds
//!   (`trait_seed(j)`), and `g_f` is a smooth (linear) random form of the
//!   traits. A DHE encoder that includes the same hash seeds (see
//!   [`trait_seed`]) exposes exactly these coordinates to its decoder MLP,
//!   which therefore generalizes the shared structure to *tail* IDs that
//!   tables never saw during training — the mechanism behind the paper's
//!   accuracy ordering table < DHE < hybrid (§3.1, Table 2).
//!
//! Both effect families are derived from hashes, so the teacher needs no
//! storage and works at paper-scale cardinalities.

use serde::{Deserialize, Serialize};

use crate::hashutil::{gaussian_hash_f32, splitmix64, uniform_hash_f32};
use mprec_tensor::ops::sigmoid;

/// Number of trait features `J` shared between teacher and DHE encoders.
pub const NUM_TRAIT_FEATURES: usize = 8;

/// The hash seed of trait feature `j`; DHE encoders reuse these seeds for
/// their first `J` hash functions so the planted shared structure is
/// expressible (the DHE side is `mprec_embed::dhe`'s module docs).
pub fn trait_seed(j: usize) -> u64 {
    splitmix64(0x1234_5678_9abc_def0u64.wrapping_add(j as u64))
}

/// Calibration knobs of the planted model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TeacherConfig {
    /// Global intercept (sets the base CTR).
    pub bias: f32,
    /// Scale of the dense-feature contribution.
    pub sigma_dense: f32,
    /// Scale of per-ID idiosyncratic effects (summed over features).
    pub sigma_idio: f32,
    /// Scale of the shared trait structure (summed over features).
    pub sigma_shared: f32,
}

impl Default for TeacherConfig {
    fn default() -> Self {
        // Calibrated so a full-information predictor sits slightly above
        // 79% accuracy and the dense-only floor is in the low 70s, matching
        // the paper's Criteo bands (Table 2).
        TeacherConfig {
            bias: -1.1,
            sigma_dense: 0.9,
            sigma_idio: 0.45,
            sigma_shared: 0.65,
        }
    }
}

/// The planted ground-truth model. See the module docs for the generative
/// story.
#[derive(Debug, Clone)]
pub struct Teacher {
    cfg: TeacherConfig,
    dense_weights: Vec<f32>,
    seed: u64,
}

impl Teacher {
    /// Creates a teacher with hash-derived dense weights.
    pub fn new(cfg: TeacherConfig, num_dense: usize, seed: u64) -> Self {
        let dense_weights = (0..num_dense)
            .map(|i| gaussian_hash_f32(splitmix64(seed ^ 0xd35e), i as u64))
            .collect();
        Teacher {
            cfg,
            dense_weights,
            seed,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TeacherConfig {
        &self.cfg
    }

    /// Trait vector `τ(id) ∈ [-1,1]^J` of an ID (feature-salted so traits
    /// are independent across sparse features).
    pub fn traits(&self, feature: usize, id: u64) -> [f32; NUM_TRAIT_FEATURES] {
        let mut t = [0.0f32; NUM_TRAIT_FEATURES];
        let salted = trait_input(feature, id);
        for (j, v) in t.iter_mut().enumerate() {
            *v = uniform_hash_f32(trait_seed(j), salted);
        }
        t
    }

    /// Per-ID idiosyncratic effect for `(feature, id)`.
    pub fn idiosyncratic(&self, feature: usize, id: u64) -> f32 {
        gaussian_hash_f32(
            splitmix64(self.seed ^ 0x1d10 ^ (feature as u64) << 32),
            id,
        )
    }

    /// Smooth shared effect `g_f(τ(id))`: a feature-specific linear form
    /// of the trait vector. Linearity is the smoothest structure a shared
    /// decoder can exploit — DHE stacks whose encoders expose the trait
    /// coordinates learn it quickly and generalize it to tail IDs, while
    /// per-ID table rows cannot transfer it to IDs unseen in training.
    pub fn shared_effect(&self, feature: usize, id: u64) -> f32 {
        let t = self.traits(feature, id);
        let mut acc = 0.0f32;
        for (j, &tau) in t.iter().enumerate() {
            let a = gaussian_hash_f32(
                splitmix64(self.seed ^ 0x5a_ed ^ ((feature * NUM_TRAIT_FEATURES + j) as u64)),
                1,
            );
            acc += a * tau;
        }
        // Traits are U(-1,1) (variance 1/3); normalize so the per-feature
        // effect has roughly unit variance regardless of J.
        acc * (3.0 / NUM_TRAIT_FEATURES as f32).sqrt()
    }

    /// The full logit for a sample.
    pub fn logit(&self, dense: &[f32], sparse_ids: &[u64]) -> f32 {
        let nf = sparse_ids.len() as f32;
        let mut z = self.cfg.bias;
        let mut d = 0.0f32;
        for (x, w) in dense.iter().zip(self.dense_weights.iter()) {
            d += x * w;
        }
        z += self.cfg.sigma_dense * d / (self.dense_weights.len() as f32).sqrt();
        let mut idio = 0.0f32;
        let mut shared = 0.0f32;
        for (f, &id) in sparse_ids.iter().enumerate() {
            idio += self.idiosyncratic(f, id);
            shared += self.shared_effect(f, id);
        }
        z += self.cfg.sigma_idio * idio / nf.sqrt();
        z += self.cfg.sigma_shared * shared / nf.sqrt();
        z
    }

    /// `P(click = 1)` for a sample.
    pub fn click_probability(&self, dense: &[f32], sparse_ids: &[u64]) -> f32 {
        sigmoid(self.logit(dense, sparse_ids))
    }

    /// The Bayes-optimal accuracy estimate over `n` Monte-Carlo samples of
    /// the *logit distribution*: `E[max(p, 1-p)]`. Useful to sanity-check
    /// that trained accuracies approach a sensible ceiling.
    pub fn bayes_accuracy_estimate(&self, logits: &[f32]) -> f32 {
        if logits.is_empty() {
            return 0.0;
        }
        logits
            .iter()
            .map(|&z| {
                let p = sigmoid(z);
                p.max(1.0 - p)
            })
            .sum::<f32>()
            / logits.len() as f32
    }
}

/// The feature-salted hash input used for trait features. DHE encoders
/// must apply the same salt so their first `J` coordinates reproduce the
/// teacher's traits exactly (see the crate-level calibration notes).
pub fn trait_input(feature: usize, id: u64) -> u64 {
    splitmix64((feature as u64) << 40).wrapping_add(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn teacher() -> Teacher {
        Teacher::new(TeacherConfig::default(), 13, 99)
    }

    #[test]
    fn traits_are_deterministic_and_bounded() {
        let t = teacher();
        let a = t.traits(0, 42);
        let b = t.traits(0, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| (-1.0..=1.0).contains(&v)));
        assert_ne!(t.traits(0, 42), t.traits(1, 42), "feature salt missing");
    }

    #[test]
    fn idiosyncratic_varies_by_feature_and_id() {
        let t = teacher();
        assert_ne!(t.idiosyncratic(0, 1), t.idiosyncratic(0, 2));
        assert_ne!(t.idiosyncratic(0, 1), t.idiosyncratic(1, 1));
        assert_eq!(t.idiosyncratic(3, 9), t.idiosyncratic(3, 9));
    }

    #[test]
    fn shared_effect_has_unit_scale() {
        let t = teacher();
        let n = 5000;
        let vals: Vec<f32> = (0..n).map(|id| t.shared_effect(2, id)).collect();
        let mean = vals.iter().sum::<f32>() / n as f32;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!(var > 0.1 && var < 2.0, "var {var}");
    }

    #[test]
    fn click_probability_in_unit_interval() {
        let t = teacher();
        let dense = vec![0.5; 13];
        let ids = vec![1u64; 26];
        let p = t.click_probability(&dense, &ids);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn logit_responds_to_each_component() {
        let t = teacher();
        let dense_a = vec![0.0; 13];
        let dense_b = vec![1.0; 13];
        let ids_a = vec![1u64; 26];
        let ids_b = vec![2u64; 26];
        assert_ne!(t.logit(&dense_a, &ids_a), t.logit(&dense_b, &ids_a));
        assert_ne!(t.logit(&dense_a, &ids_a), t.logit(&dense_a, &ids_b));
    }

    #[test]
    fn bayes_accuracy_above_half() {
        let t = teacher();
        let logits: Vec<f32> = (0..1000)
            .map(|i| t.logit(&[(i % 7) as f32 * 0.3 - 1.0; 13], &vec![i as u64; 26]))
            .collect();
        let acc = t.bayes_accuracy_estimate(&logits);
        assert!(acc > 0.5 && acc <= 1.0, "bayes accuracy {acc}");
    }

    #[test]
    fn trait_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..NUM_TRAIT_FEATURES).map(trait_seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(seeds.len(), dedup.len());
    }
}
