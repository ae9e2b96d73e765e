//! The generation representation: Deep Hash Embedding (paper §2.2).
//!
//! DHE replaces a learned table with two stages:
//!
//! 1. **Encoder**: `k` parallel universal hash functions map a sparse ID to
//!    `k` pseudo-random values, each normalized into `[-1, 1]`, producing a
//!    dense intermediate vector. The encoder has *no trainable parameters*.
//! 2. **Decoder**: an MLP maps the intermediate vector to the final
//!    embedding.
//!
//! The first [`mprec_data::teacher::NUM_TRAIT_FEATURES`] hash seeds are
//! the teacher's trait seeds ([`mprec_data::teacher::trait_seed`]), so the
//! planted shared structure of the synthetic data is expressible by the
//! decoder; remaining seeds are pseudo-random.

use mprec_data::teacher::{trait_input, trait_seed, NUM_TRAIT_FEATURES};
use mprec_data::{splitmix64, uniform_hash_f32};
use mprec_nn::{Activation, Mlp, MlpScratch, Optimizer};
use mprec_tensor::Matrix;
use rand::Rng;

use crate::{DheConfig, EmbedError, Result};

/// The parameter-free DHE encoder: `k` seeded hash functions with uniform
/// normalization into `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct DheEncoder {
    seeds: Vec<u64>,
    feature: usize,
}

impl DheEncoder {
    /// Creates an encoder with `k` hash functions for sparse feature
    /// `feature`.
    ///
    /// The first `min(k, NUM_TRAIT_FEATURES)` seeds follow the shared
    /// trait schedule and hash the *feature-salted* ID (exactly the
    /// teacher's trait inputs); the rest are derived from `base_seed`.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::BadConfig`] if `k == 0`.
    pub fn new(k: usize, feature: usize, base_seed: u64) -> Result<Self> {
        if k == 0 {
            return Err(EmbedError::BadConfig("encoder needs k >= 1".into()));
        }
        let mut seeds = Vec::with_capacity(k);
        for j in 0..k {
            if j < NUM_TRAIT_FEATURES {
                seeds.push(trait_seed(j));
            } else {
                seeds.push(splitmix64(base_seed.wrapping_add(j as u64)));
            }
        }
        Ok(DheEncoder { seeds, feature })
    }

    /// Number of hash functions `k`.
    pub fn k(&self) -> usize {
        self.seeds.len()
    }

    /// The sparse feature this encoder serves.
    pub fn feature(&self) -> usize {
        self.feature
    }

    /// Encodes one ID into its `k`-dimensional intermediate vector.
    pub fn encode_into(&self, id: u64, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.seeds.len());
        let salted = trait_input(self.feature, id);
        for (j, (v, &seed)) in out.iter_mut().zip(self.seeds.iter()).enumerate() {
            let x = if j < NUM_TRAIT_FEATURES { salted } else { id };
            *v = uniform_hash_f32(seed, x);
        }
    }

    /// Encodes a batch of IDs into a `batch x k` matrix.
    pub fn encode_batch(&self, ids: &[u64]) -> Matrix {
        let mut m = Matrix::zeros(ids.len(), self.k());
        self.encode_batch_into(ids, &mut m);
        m
    }

    /// Encodes a batch of IDs into a caller-provided matrix (resized to
    /// `batch x k`, reusing its allocation) so warm callers encode
    /// without touching the allocator.
    pub fn encode_batch_into(&self, ids: &[u64], out: &mut Matrix) {
        out.resize_zeroed(ids.len(), self.k());
        for (i, &id) in ids.iter().enumerate() {
            self.encode_into(id, out.row_mut(i));
        }
    }
}

/// A full DHE stack: encoder + trainable decoder MLP.
///
/// # Examples
///
/// ```
/// use mprec_embed::{DheConfig, DheStack};
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let cfg = DheConfig { k: 16, dnn: 32, h: 2, out_dim: 8 };
/// let mut rng = StdRng::seed_from_u64(0);
/// let stack = DheStack::new(cfg, 1, &mut rng)?;
/// let emb = stack.infer(&[3, 14, 159])?;
/// assert_eq!(emb.shape(), (3, 8));
/// # Ok::<(), mprec_embed::EmbedError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DheStack {
    cfg: DheConfig,
    encoder: DheEncoder,
    decoder: Mlp,
}

impl DheStack {
    /// Creates a stack for the given configuration, serving sparse
    /// feature `feature`.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::BadConfig`] on degenerate dimensions.
    pub fn new(cfg: DheConfig, feature: usize, rng: &mut impl Rng) -> Result<Self> {
        if cfg.out_dim == 0 || cfg.dnn == 0 {
            return Err(EmbedError::BadConfig(format!(
                "dhe stack needs positive dims, got {cfg:?}"
            )));
        }
        let encoder = DheEncoder::new(cfg.k, feature, 0x5eed_0000_u64 + feature as u64)?;
        let decoder = Mlp::new(
            &cfg.decoder_sizes(),
            Activation::Relu,
            Activation::Identity,
            rng,
        )?;
        Ok(DheStack {
            cfg,
            encoder,
            decoder,
        })
    }

    /// The stack's configuration.
    pub fn config(&self) -> &DheConfig {
        &self.cfg
    }

    /// The encoder half (used directly by MP-Cache's decoder stage).
    pub fn encoder(&self) -> &DheEncoder {
        &self.encoder
    }

    /// The decoder half.
    pub fn decoder(&self) -> &Mlp {
        &self.decoder
    }

    /// Output embedding dimension.
    pub fn out_dim(&self) -> usize {
        self.cfg.out_dim
    }

    /// Parameter bytes (decoder only; the encoder is parameter-free).
    pub fn capacity_bytes(&self) -> u64 {
        self.decoder.param_count() as u64 * 4
    }

    /// Training forward: encodes and decodes a batch of IDs, caching
    /// decoder activations.
    ///
    /// # Errors
    ///
    /// Propagates decoder shape errors.
    pub fn forward(&mut self, ids: &[u64]) -> Result<Matrix> {
        let codes = self.encoder.encode_batch(ids);
        Ok(self.decoder.forward(&codes)?)
    }

    /// Inference forward (no caches, immutable receiver).
    ///
    /// # Errors
    ///
    /// Propagates decoder shape errors.
    pub fn infer(&self, ids: &[u64]) -> Result<Matrix> {
        let codes = self.encoder.encode_batch(ids);
        Ok(self.decoder.infer(&codes)?)
    }

    /// Decodes pre-computed intermediate vectors (used by MP-Cache, which
    /// caches encoder outputs / centroids).
    ///
    /// # Errors
    ///
    /// Propagates decoder shape errors.
    pub fn decode(&self, codes: &Matrix) -> Result<Matrix> {
        Ok(self.decoder.infer(codes)?)
    }

    /// Decodes pre-computed intermediate vectors through reusable
    /// ping-pong buffers (see [`Mlp::infer_scratch`]): one batched GEMM
    /// per decoder layer, zero steady-state allocations. Returns a
    /// borrow of the scratch buffer holding the embeddings.
    ///
    /// # Errors
    ///
    /// Propagates decoder shape errors.
    pub fn decode_scratch<'a>(
        &self,
        codes: &Matrix,
        scratch: &'a mut MlpScratch,
    ) -> Result<&'a Matrix> {
        Ok(self.decoder.infer_scratch(codes, scratch)?)
    }

    /// Backward pass through the decoder (the encoder has no parameters,
    /// so the gradient stops there).
    ///
    /// # Errors
    ///
    /// Returns an error if `forward` was not called first.
    pub fn backward(&mut self, grad: &Matrix) -> Result<()> {
        self.decoder.backward(grad)?;
        Ok(())
    }

    /// Applies the optimizer to the decoder.
    pub fn step(&mut self, opt: &impl Optimizer) {
        self.decoder.step(opt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mprec_nn::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> DheConfig {
        DheConfig {
            k: 16,
            dnn: 32,
            h: 2,
            out_dim: 8,
        }
    }

    #[test]
    fn encoder_rejects_zero_k() {
        assert!(DheEncoder::new(0, 0, 1).is_err());
    }

    #[test]
    fn encoder_is_deterministic_and_bounded() {
        let e = DheEncoder::new(32, 0, 7).unwrap();
        let a = e.encode_batch(&[5, 6]);
        let b = e.encode_batch(&[5, 6]);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn encoder_uses_trait_seeds_first() {
        // Two encoders with different base seeds agree on the first
        // NUM_TRAIT_FEATURES coordinates and differ afterwards.
        let e1 = DheEncoder::new(NUM_TRAIT_FEATURES + 4, 0, 1).unwrap();
        let e2 = DheEncoder::new(NUM_TRAIT_FEATURES + 4, 0, 2).unwrap();
        let a = e1.encode_batch(&[42]);
        let b = e2.encode_batch(&[42]);
        for j in 0..NUM_TRAIT_FEATURES {
            assert_eq!(a[(0, j)], b[(0, j)], "trait coordinate {j} must agree");
        }
        assert_ne!(a, b, "non-trait coordinates should differ");
    }

    #[test]
    fn codes_distinguish_ids() {
        let e = DheEncoder::new(16, 0, 7).unwrap();
        let m = e.encode_batch(&[1, 2]);
        assert_ne!(m.row(0), m.row(1));
    }

    #[test]
    fn stack_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = DheStack::new(cfg(), 3, &mut rng).unwrap();
        let out = s.infer(&[10, 20, 30]).unwrap();
        assert_eq!(out.shape(), (3, 8));
        assert_eq!(s.capacity_bytes(), {
            let p = (16 * 32 + 32) + (32 * 32 + 32) + (32 * 8 + 8);
            p as u64 * 4
        });
    }

    #[test]
    fn same_id_same_embedding() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = DheStack::new(cfg(), 3, &mut rng).unwrap();
        let out = s.infer(&[99, 99]).unwrap();
        assert_eq!(out.row(0), out.row(1));
    }

    #[test]
    fn stack_learns_a_target_embedding() {
        // The decoder should be able to pull one ID's embedding toward a
        // target via gradient descent.
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = DheStack::new(cfg(), 3, &mut rng).unwrap();
        let target = [0.5f32; 8];
        let opt = Sgd { lr: 0.05 };
        let mut first_err = 0.0;
        let mut last_err = 0.0;
        for it in 0..200 {
            let out = s.forward(&[77]).unwrap();
            let mut grad = Matrix::zeros(1, 8);
            let mut err = 0.0;
            for j in 0..8 {
                let d = out[(0, j)] - target[j];
                grad[(0, j)] = d;
                err += d * d;
            }
            if it == 0 {
                first_err = err;
            }
            last_err = err;
            s.backward(&grad).unwrap();
            s.step(&opt);
        }
        assert!(
            last_err < first_err * 0.1,
            "err did not drop: {first_err} -> {last_err}"
        );
    }

    #[test]
    fn decode_matches_infer() {
        let mut rng = StdRng::seed_from_u64(8);
        let s = DheStack::new(cfg(), 3, &mut rng).unwrap();
        let ids = [1u64, 2, 3];
        let codes = s.encoder().encode_batch(&ids);
        assert_eq!(s.decode(&codes).unwrap(), s.infer(&ids).unwrap());
    }

    #[test]
    fn decode_scratch_matches_decode() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = DheStack::new(cfg(), 2, &mut rng).unwrap();
        let ids = [11u64, 22, 33, 22];
        let codes = s.encoder().encode_batch(&ids);
        let mut scratch = MlpScratch::new();
        let via_scratch = s.decode_scratch(&codes, &mut scratch).unwrap();
        assert_eq!(via_scratch, &s.decode(&codes).unwrap());
    }

    #[test]
    fn encode_batch_into_matches_encode_batch() {
        let e = DheEncoder::new(16, 1, 7).unwrap();
        let ids = [5u64, 6, 5, 1000];
        let owned = e.encode_batch(&ids);
        let mut out = Matrix::zeros(0, 0);
        e.encode_batch_into(&ids, &mut out);
        assert_eq!(out, owned);
        let ptr = out.as_slice().as_ptr();
        e.encode_batch_into(&ids, &mut out);
        assert_eq!(out.as_slice().as_ptr(), ptr, "encode arena reused");
    }
}
