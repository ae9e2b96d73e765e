//! Synthetic Criteo-shaped data for the MP-Rec reproduction.
//!
//! The paper evaluates on the Criteo Kaggle and Terabyte click logs, which
//! are not redistributable. Like the paper's own artifact, which ships a
//! synthetic generator for characterization, this crate synthesizes
//! datasets with the same shape:
//!
//! * 13 dense features + 26 sparse features with the **real public
//!   per-table cardinalities** of Criteo Kaggle (33.76M rows total, 2.16 GB
//!   at embedding dim 16 — exactly the paper's baseline capacity) and a
//!   Terabyte-like configuration calibrated to the paper's 12.58 GB;
//! * Zipf/power-law sparse-ID popularity (the property MP-Cache's encoder
//!   stage exploits, Fig. 16a);
//! * a planted [`teacher::Teacher`] model whose label structure decomposes
//!   into per-ID *idiosyncratic* effects (learnable by embedding tables)
//!   and smooth *shared* structure over hashed ID traits (learnable by
//!   DHE's shared encoder-decoder parameters, including on tail IDs) — the
//!   mechanism behind the paper's accuracy ordering table < DHE < hybrid.
//!
//! [`query::QueryGenerator`] produces the lognormal query-size / Poisson
//! arrival traces used by the serving experiments (§5.3).

mod batch;
mod criteo;
mod hashutil;

pub mod query;
pub mod scenario;
pub mod teacher;
pub mod traffic;
pub mod zipf;

pub use batch::Batch;
pub use criteo::{DatasetSpec, KAGGLE_CARDINALITIES, TERABYTE_CARDINALITIES};
pub use hashutil::{
    gaussian_hash_f32, splitmix64, uniform_hash_f32, SplitMixBuildHasher, SplitMixHasher,
};
pub use scenario::LoadScenario;
pub use zipf::Zipf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed salt separating the teacher's parameters from the sample stream.
const TEACHER_SEED_SALT: u64 = 0x7eac_5eed_0bad_cafe;

/// Derives the teacher seed from the dataset *spec* alone, so every
/// generator over the same spec shares one ground truth regardless of its
/// sample-stream seed (train and eval streams must agree on the teacher).
fn teacher_seed_for(spec: &DatasetSpec) -> u64 {
    let mut h = TEACHER_SEED_SALT;
    for b in spec.name.bytes() {
        h = splitmix64(h ^ b as u64);
    }
    for &c in &spec.cardinalities {
        h = splitmix64(h ^ c);
    }
    h
}

/// A reproducible synthetic click-log generator: dataset spec + teacher +
/// per-feature Zipf samplers.
///
/// # Examples
///
/// ```
/// use mprec_data::{DatasetSpec, SyntheticDataset};
///
/// let spec = DatasetSpec::kaggle_sim(100);
/// let mut ds = SyntheticDataset::new(spec, 42);
/// let batch = ds.sample_batch(64);
/// assert_eq!(batch.len(), 64);
/// assert_eq!(batch.sparse.len(), ds.spec().num_sparse_features());
/// ```
#[derive(Debug)]
pub struct SyntheticDataset {
    spec: DatasetSpec,
    teacher: teacher::Teacher,
    samplers: Vec<Zipf>,
    rng: StdRng,
}

impl SyntheticDataset {
    /// Creates a generator; the teacher calibration comes from
    /// `spec.teacher` and the teacher seed from the spec itself, so all
    /// generators over one spec share a single planted ground truth.
    pub fn new(spec: DatasetSpec, seed: u64) -> Self {
        let samplers = spec
            .scaled_cardinalities()
            .iter()
            .map(|&n| Zipf::new(n, spec.zipf_exponent))
            .collect();
        let teacher = teacher::Teacher::new(
            spec.teacher,
            spec.num_dense_features,
            teacher_seed_for(&spec),
        );
        SyntheticDataset {
            spec,
            teacher,
            samplers,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The dataset specification.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// The planted teacher.
    pub fn teacher(&self) -> &teacher::Teacher {
        &self.teacher
    }

    /// Draws one batch of `n` labelled samples.
    pub fn sample_batch(&mut self, n: usize) -> Batch {
        let nd = self.spec.num_dense_features;
        let nf = self.samplers.len();
        let mut dense = Vec::with_capacity(n * nd);
        let mut sparse: Vec<Vec<u64>> = vec![Vec::with_capacity(n); nf];
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let mut d = Vec::with_capacity(nd);
            for _ in 0..nd {
                // Criteo dense features are heavy-tailed counts; after the
                // standard log(1+x) transform they are roughly unit normal,
                // which is what we emit directly.
                d.push(standard_normal(&mut self.rng));
            }
            let mut ids = Vec::with_capacity(nf);
            for (f, s) in self.samplers.iter().enumerate() {
                let id = s.sample(&mut self.rng);
                ids.push(id);
                sparse[f].push(id);
            }
            let p = self.teacher.click_probability(&d, &ids);
            let y = if self.rng.gen::<f32>() < p { 1.0 } else { 0.0 };
            labels.push(y);
            dense.extend_from_slice(&d);
        }
        Batch::new(n, nd, dense, sparse, labels)
    }

    /// Draws `n` sparse-ID accesses for a single feature (used by the
    /// access-frequency analysis of Fig. 16a and MP-Cache profiling).
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of range.
    pub fn sample_feature_accesses(&mut self, feature: usize, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| self.samplers[feature].sample(&mut self.rng))
            .collect()
    }
}

fn standard_normal(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_have_consistent_shapes() {
        let mut ds = SyntheticDataset::new(DatasetSpec::kaggle_sim(1000), 7);
        let b = ds.sample_batch(32);
        assert_eq!(b.len(), 32);
        assert_eq!(b.dense.shape(), (32, 13));
        assert_eq!(b.sparse.len(), 26);
        assert!(b.sparse.iter().all(|col| col.len() == 32));
        assert!(b.labels.iter().all(|&y| y == 0.0 || y == 1.0));
    }

    #[test]
    fn ids_respect_scaled_cardinalities() {
        let spec = DatasetSpec::kaggle_sim(1000);
        let cards = spec.scaled_cardinalities();
        let mut ds = SyntheticDataset::new(spec, 3);
        let b = ds.sample_batch(200);
        for (f, col) in b.sparse.iter().enumerate() {
            assert!(col.iter().all(|&id| id < cards[f]));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mk = || {
            let mut ds = SyntheticDataset::new(DatasetSpec::kaggle_sim(1000), 11);
            ds.sample_batch(16)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.sparse, b.sparse);
    }

    #[test]
    fn teacher_is_shared_across_stream_seeds() {
        // Train and eval streams use different seeds but must agree on the
        // planted ground truth.
        let a = SyntheticDataset::new(DatasetSpec::kaggle_sim(1000), 1);
        let b = SyntheticDataset::new(DatasetSpec::kaggle_sim(1000), 2);
        let dense = vec![0.3f32; 13];
        let ids = vec![17u64; 26];
        assert_eq!(
            a.teacher().click_probability(&dense, &ids),
            b.teacher().click_probability(&dense, &ids)
        );
    }

    #[test]
    fn positive_rate_is_plausible() {
        // Criteo's CTR is ~26%; the calibrated teacher should be in a band
        // around that, not degenerate.
        let mut ds = SyntheticDataset::new(DatasetSpec::kaggle_sim(1000), 5);
        let b = ds.sample_batch(4000);
        let rate = b.labels.iter().sum::<f32>() / b.labels.len() as f32;
        assert!(
            (0.1..0.5).contains(&rate),
            "positive rate {rate} out of plausible band"
        );
    }
}
