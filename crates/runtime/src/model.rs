//! The real serving model the runtime executes: per-feature embedding
//! tables, per-feature DHE stacks behind the sharded MP-Cache, and a top
//! MLP — a scaled-down DLRM-shaped inference stack whose math actually
//! runs on the worker pool (unlike the simulator, which charges profiled
//! latencies).

use mprec_core::candidates::RepRole;
use mprec_core::mpcache::{
    BatchScratch, DecoderCache, EncoderCache, ShardedCacheConfig, ShardedMpCache,
};
use mprec_data::{splitmix64, Zipf};
use mprec_embed::{DheConfig, DheStack, EmbeddingTable, GatherScratch};
use mprec_nn::{Activation, Mlp, MlpScratch};
use mprec_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

use crate::{Result, RuntimeError};

/// Per-worker reusable execution buffers: the per-feature ID staging
/// vectors, the embedding gather/compute arena, the pooled-input matrix,
/// the table dedup index, the MP-Cache batch scratch, and the top-MLP
/// ping-pong buffers.
///
/// One `ScratchSpace` per worker thread makes steady-state
/// [`RuntimeModel::execute_with`] perform **zero heap allocations**: all
/// buffers grow to the high-water mark of the first few batches and are
/// recycled after that (asserted by the counting-allocator test in
/// `tests/zero_alloc.rs`).
#[derive(Debug, Default)]
pub struct ScratchSpace {
    per_feature: Vec<Vec<u64>>,
    emb: Matrix,
    pooled: Matrix,
    gather: GatherScratch,
    cache: BatchScratch,
    top: MlpScratch,
}

/// The embedding execution path a batch runs on (the runtime analogue of
/// the paper's representation roles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// All features gather from learned tables (latency-critical path).
    Table,
    /// All features run DHE through the sharded MP-Cache.
    Dhe,
    /// First half of the features gather tables, second half runs DHE
    /// (accuracy-optimal path).
    Hybrid,
}

impl std::fmt::Display for PathKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathKind::Table => write!(f, "table"),
            PathKind::Dhe => write!(f, "dhe"),
            PathKind::Hybrid => write!(f, "hybrid"),
        }
    }
}

impl PathKind {
    /// The representation role this path plays in Algorithm 1's
    /// candidate set — the one path-to-role table.
    pub fn role(self) -> RepRole {
        match self {
            PathKind::Table => RepRole::Table,
            PathKind::Dhe => RepRole::Dhe,
            PathKind::Hybrid => RepRole::Hybrid,
        }
    }
}

/// Shape of the runtime's serving model.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeModelConfig {
    /// Number of sparse features (one table + one DHE stack each).
    pub sparse_features: usize,
    /// Rows per embedding table.
    pub rows_per_feature: u64,
    /// Embedding dimension (table row width and DHE output width).
    pub emb_dim: usize,
    /// DHE hash count `k`.
    pub dhe_k: usize,
    /// DHE decoder hidden width.
    pub dhe_dnn: usize,
    /// DHE decoder hidden layers.
    pub dhe_h: usize,
    /// Top-MLP hidden sizes (input `emb_dim`, output 1 appended).
    pub top_hidden: Vec<usize>,
    /// Zipf exponent of the ID popularity distribution.
    pub zipf_exponent: f64,
    /// Static encoder-tier byte budget of the MP-Cache.
    pub encoder_cache_bytes: u64,
    /// Decoder-tier centroids per feature (0 disables the tier).
    pub decoder_centroids: usize,
    /// Dynamic (online warm-up) cache entries across all shards.
    pub dynamic_cache_entries: usize,
    /// Accesses sampled offline to profile ID popularity for the static
    /// encoder tier.
    pub profile_accesses: usize,
    /// Per-tenant Zipf exponents for multi-tenant traffic: a query whose
    /// id carries tenant `t > 0` samples with exponent
    /// `tenant_zipf[(t - 1) % len]`. Empty (the default) keeps every
    /// tenant on `zipf_exponent`; tenant 0 — every legacy trace — always
    /// uses `zipf_exponent`.
    pub tenant_zipf: Vec<f64>,
    /// Probability that a draw for a query carrying a nonzero user id
    /// comes from that user's small personal ID pool instead of the
    /// tenant's Zipf — sessions and repeat visits, so dynamic-tier cache
    /// hit rates become honest under million-user load. Ignored for
    /// user 0 (legacy traces).
    pub user_affinity: f64,
    /// IDs in each user's personal pool (≥ 1; only read when a query
    /// carries a nonzero user id).
    pub user_pool: u64,
}

impl Default for RuntimeModelConfig {
    fn default() -> Self {
        RuntimeModelConfig {
            sparse_features: 8,
            rows_per_feature: 50_000,
            emb_dim: 8,
            dhe_k: 16,
            dhe_dnn: 32,
            dhe_h: 2,
            top_hidden: vec![32, 16],
            zipf_exponent: 1.05,
            encoder_cache_bytes: 64 * 1024,
            decoder_centroids: 32,
            dynamic_cache_entries: 4096,
            profile_accesses: 40_000,
            tenant_zipf: Vec::new(),
            user_affinity: 0.75,
            user_pool: 32,
        }
    }
}

/// Result of executing one micro-batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchResult {
    /// Samples executed.
    pub samples: u64,
    /// Sum of the top-MLP scores (keeps the math observable end-to-end
    /// and defeats dead-code elimination in release benchmarks).
    pub checksum: f64,
}

/// Everything a model holds that no lookup ever changes: one allocation
/// shared by every replica of a cluster.
#[derive(Debug)]
struct Weights {
    tables: Vec<EmbeddingTable>,
    stacks: Vec<DheStack>,
    top: Mlp,
    zipf: Zipf,
    tenant_zipfs: Vec<Zipf>,
    /// `0..sparse_features`, the feature list of a full execution.
    all_features: Vec<usize>,
}

/// The serving model: immutable after build, shared by every worker via
/// `Arc` (interior mutability lives only inside the sharded cache).
#[derive(Debug)]
pub struct RuntimeModel {
    cfg: RuntimeModelConfig,
    weights: Arc<Weights>,
    cache: ShardedMpCache,
    seed: u64,
}

/// Seed salt separating per-user personal-pool IDs from the Zipf stream.
const USER_POOL_SALT: u64 = 0x05E5_510E_4B1D_F00D;

/// Seed salt for the per-tenant hot-set rotation.
const TENANT_ROT_SALT: u64 = 0x7E4A_4170_0000_0001;

impl RuntimeModel {
    /// Builds tables, DHE stacks, the sharded MP-Cache (profiled static
    /// tier + per-feature decoder tiers), and the top MLP.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] on degenerate shapes or a
    /// negative or non-finite Zipf exponent, and propagates
    /// embedding/NN construction errors.
    pub fn build(cfg: &RuntimeModelConfig, cache_shards: usize, seed: u64) -> Result<Self> {
        if cfg.sparse_features == 0 || cfg.rows_per_feature == 0 || cfg.emb_dim == 0 {
            return Err(RuntimeError::BadConfig(format!(
                "model needs features/rows/dim > 0, got {cfg:?}"
            )));
        }
        let exponents = std::iter::once(&cfg.zipf_exponent).chain(&cfg.tenant_zipf);
        if let Some(bad) = exponents.copied().find(|s| !(s.is_finite() && *s >= 0.0)) {
            return Err(RuntimeError::BadConfig(format!(
                "zipf exponents must be finite and >= 0, got {bad}"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tables = Vec::with_capacity(cfg.sparse_features);
        let mut stacks = Vec::with_capacity(cfg.sparse_features);
        let dhe_cfg = DheConfig {
            k: cfg.dhe_k,
            dnn: cfg.dhe_dnn,
            h: cfg.dhe_h,
            out_dim: cfg.emb_dim,
        };
        for f in 0..cfg.sparse_features {
            tables.push(EmbeddingTable::new(cfg.rows_per_feature, cfg.emb_dim, &mut rng)?);
            stacks.push(DheStack::new(dhe_cfg, f, &mut rng)?);
        }
        let zipf = Zipf::new(cfg.rows_per_feature, cfg.zipf_exponent);
        let tenant_zipfs = cfg
            .tenant_zipf
            .iter()
            .map(|&e| Zipf::new(cfg.rows_per_feature, e))
            .collect();

        // Allocated before the top MLP: the other order measured 3 % lower
        // `samples_per_s` on the benchmark's `mprec_closed`, every pair.
        let cache = Self::build_cache(cfg, &stacks, &zipf, cache_shards, seed)?;

        let mut top_sizes = Vec::with_capacity(cfg.top_hidden.len() + 2);
        top_sizes.push(cfg.emb_dim);
        top_sizes.extend_from_slice(&cfg.top_hidden);
        top_sizes.push(1);
        let top = Mlp::new(&top_sizes, Activation::Relu, Activation::Identity, &mut rng)?;

        let weights = Weights {
            tables,
            stacks,
            top,
            zipf,
            tenant_zipfs,
            all_features: (0..cfg.sparse_features).collect(),
        };
        Ok(RuntimeModel {
            cfg: cfg.clone(),
            weights: Arc::new(weights),
            cache,
            seed,
        })
    }

    /// A fresh MP-Cache for a model: the offline profiling pass, the
    /// static encoder tier it drives, and the per-feature decoder tiers —
    /// a pure function of its arguments, so every replica's cache starts
    /// identical.
    // Inlined: out of line, the table-fill loop in `build` runs 12-16 %
    // slower (`setup_s` on the benchmark's one-model workloads).
    #[inline(always)]
    fn build_cache(
        cfg: &RuntimeModelConfig,
        stacks: &[DheStack],
        zipf: &Zipf,
        cache_shards: usize,
        seed: u64,
    ) -> Result<ShardedMpCache> {
        // Offline profiling pass: Zipf access counts per feature drive the
        // static encoder tier (paper §4.3's frequency-based tier).
        let mut profile_rng = StdRng::seed_from_u64(splitmix64(seed ^ 0xCAFE));
        let per_feature = cfg.profile_accesses / cfg.sparse_features.max(1);
        let mut counts: Vec<HashMap<u64, u64>> = vec![HashMap::new(); cfg.sparse_features];
        for c in counts.iter_mut() {
            for _ in 0..per_feature {
                *c.entry(zipf.sample(&mut profile_rng)).or_insert(0) += 1;
            }
        }
        let encoder = if cfg.encoder_cache_bytes > 0 {
            Some(EncoderCache::build(
                &counts,
                cfg.emb_dim,
                cfg.encoder_cache_bytes,
                |f, id| {
                    Ok(stacks[f]
                        .infer(&[id])
                        .map_err(mprec_core::CoreError::from)?
                        .row(0)
                        .to_vec())
                },
            )?)
        } else {
            None
        };
        // Per-feature decoder tiers: centroids over the feature's hottest
        // IDs, outputs precomputed with that feature's own decoder.
        let decoders: Vec<Option<DecoderCache>> = if cfg.decoder_centroids > 0 {
            let mut out = Vec::with_capacity(cfg.sparse_features);
            for (f, stack) in stacks.iter().enumerate() {
                let mut hot: Vec<(u64, u64)> =
                    counts[f].iter().map(|(&id, &c)| (c, id)).collect();
                hot.sort_unstable_by_key(|&(c, id)| (std::cmp::Reverse(c), id));
                hot.truncate(256.max(cfg.decoder_centroids * 2));
                let ids: Vec<u64> = hot.iter().map(|&(_, id)| id).collect();
                if ids.is_empty() {
                    out.push(None);
                    continue;
                }
                let codes = stack.encoder().encode_batch(&ids);
                out.push(Some(DecoderCache::build(
                    stack,
                    &codes,
                    cfg.decoder_centroids,
                    4,
                )?));
            }
            out
        } else {
            (0..cfg.sparse_features).map(|_| None).collect()
        };
        Ok(ShardedMpCache::with_feature_decoders(
            encoder,
            decoders,
            ShardedCacheConfig {
                shards: cache_shards,
                dynamic_entries: cfg.dynamic_cache_entries,
            },
        ))
    }

    /// A cluster replica of this model: the same weight allocation
    /// behind a cache of its own, built exactly as [`RuntimeModel::build`]
    /// built this one's — the only per-node state a cluster has.
    ///
    /// # Errors
    ///
    /// Propagates cache construction errors.
    pub(crate) fn replica(&self) -> Result<Self> {
        let w = &self.weights;
        let shards = self.cache.num_shards();
        Ok(RuntimeModel {
            cfg: self.cfg.clone(),
            weights: Arc::clone(w),
            cache: Self::build_cache(&self.cfg, &w.stacks, &w.zipf, shards, self.seed)?,
            seed: self.seed,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &RuntimeModelConfig {
        &self.cfg
    }

    /// The sharded MP-Cache (stats, shard layout).
    pub fn cache(&self) -> &ShardedMpCache {
        &self.cache
    }

    /// Whether `feature` runs through DHE on `path` (hybrid splits the
    /// feature space in half by *global* feature index, so a sharded
    /// cluster node executing a feature subset agrees with the
    /// single-node path assignment).
    pub fn path_uses_dhe(&self, path: PathKind, feature: usize) -> bool {
        match path {
            PathKind::Table => false,
            PathKind::Dhe => true,
            PathKind::Hybrid => feature >= self.cfg.sparse_features / 2,
        }
    }

    /// Deterministically draws the sparse IDs of one query into
    /// `per_feature` (appending `size` IDs per feature): per-query RNG
    /// seeded from `(model seed, query id)`, so the same trace produces
    /// the same lookups no matter which worker — or which cluster node —
    /// executes the batch. [`RuntimeModel::pool_features_into`] is its one
    /// caller here; public for harnesses that time or inspect the stream.
    ///
    /// Hot-key-drift traces ([`mprec_data::scenario`]) carry an epoch in
    /// the query id's high bits; a nonzero epoch rotates every Zipf draw
    /// by a per-epoch offset, moving the hot ID set without touching the
    /// RNG stream (epoch 0 reproduces the legacy IDs bit-for-bit).
    ///
    /// Multi-tenant traffic ([`mprec_data::traffic`]) additionally packs
    /// tenant and user bits into the id. A nonzero tenant mixes into the
    /// per-query seed, samples from its own Zipf exponent
    /// ([`RuntimeModelConfig::tenant_zipf`]), and rotates its hot set to
    /// a tenant-private region; a nonzero user mixes into the seed too
    /// and draws from its small personal pool with probability
    /// [`RuntimeModelConfig::user_affinity`] (repeat visits — honest
    /// dynamic-tier hit rates). Queries with an all-zero high half —
    /// every pre-traffic trace — reproduce the historical ID streams
    /// bit-for-bit.
    pub fn draw_query_ids(&self, query_id: u64, size: u64, per_feature: &mut [Vec<u64>]) {
        // Seed from the sequence number only: the epoch bits select the
        // rotation below, so one query keeps one RNG stream across
        // epochs and the hot set moves as a pure rotation. Tenant/user
        // bits mix in ONLY when nonzero, keeping legacy traces bit-exact.
        let sequence = mprec_data::scenario::sequence_of(query_id);
        let tenant = mprec_data::scenario::tenant_of(query_id);
        let user = mprec_data::scenario::user_of(query_id);
        let mut seed = self.seed ^ sequence.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if tenant != 0 || user != 0 {
            seed ^= splitmix64(
                (tenant as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
                    ^ user.wrapping_mul(0x94D0_49BB_1331_11EB),
            );
        }
        let mut rng = StdRng::seed_from_u64(splitmix64(seed));
        let epoch = mprec_data::scenario::epoch_of(query_id);
        let rows = self.cfg.rows_per_feature;
        let mut rotation = if epoch == 0 { 0 } else { splitmix64(epoch) % rows };
        if tenant != 0 {
            // Tenants share the physical tables but not their hot sets.
            rotation = (rotation + splitmix64(TENANT_ROT_SALT ^ tenant as u64) % rows) % rows;
        }
        let tenant_zipfs = &self.weights.tenant_zipfs;
        let zipf = if tenant == 0 || tenant_zipfs.is_empty() {
            &self.weights.zipf
        } else {
            &tenant_zipfs[(tenant as usize - 1) % tenant_zipfs.len()]
        };
        let pool = self.cfg.user_pool.max(1);
        for _ in 0..size {
            for ids in per_feature.iter_mut() {
                let id = if user != 0 && rng.gen::<f64>() < self.cfg.user_affinity {
                    splitmix64(
                        USER_POOL_SALT
                            ^ user.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ (rng.gen::<u64>() % pool),
                    ) % rows
                } else {
                    zipf.sample(&mut rng)
                };
                let id = id + rotation; // both < rows: subtract, don't divide
                ids.push(if id >= rows { id - rows } else { id });
            }
        }
    }

    /// Creates a [`ScratchSpace`] sized for this model (buffers grow to
    /// their steady-state capacity during the first batches).
    pub fn make_scratch(&self) -> ScratchSpace {
        ScratchSpace {
            per_feature: vec![Vec::new(); self.cfg.sparse_features],
            ..ScratchSpace::default()
        }
    }

    /// Executes one micro-batch (`(query id, size)` pairs) on `path`:
    /// real embedding lookups (tables and/or cached DHE), sum pooling,
    /// and the top MLP.
    ///
    /// Allocates a fresh [`ScratchSpace`] per call; workers that execute
    /// many batches should hold one scratch and call
    /// [`RuntimeModel::execute_with`] instead.
    ///
    /// # Errors
    ///
    /// Propagates table/stack/MLP execution errors.
    pub fn execute(&self, path: PathKind, queries: &[(u64, u64)]) -> Result<BatchResult> {
        let mut scratch = self.make_scratch();
        self.execute_with(path, queries, &mut scratch)
    }

    /// [`RuntimeModel::execute`] against a persistent [`ScratchSpace`]:
    /// [`RuntimeModel::pool_features_into`] over every feature into the
    /// scratch's reusable pooled matrix, then
    /// [`RuntimeModel::score_pooled`] ping-ponging between the scratch
    /// pair — zero steady-state heap allocations.
    ///
    /// # Errors
    ///
    /// Propagates table/stack/MLP execution errors.
    pub fn execute_with(
        &self,
        path: PathKind,
        queries: &[(u64, u64)],
        scratch: &mut ScratchSpace,
    ) -> Result<BatchResult> {
        // Taken and put back: the pool borrows the rest of the scratch.
        let mut pooled = std::mem::take(&mut scratch.pooled);
        let all = &self.weights.all_features;
        let result = match self.pool_features_into(path, queries, all, scratch, &mut pooled) {
            Ok(0) => Ok(BatchResult { samples: 0, checksum: 0.0 }),
            Ok(samples) => self
                .score_pooled(&pooled, &mut scratch.top)
                .map(|checksum| BatchResult { samples, checksum }),
            Err(e) => Err(e),
        };
        scratch.pooled = pooled;
        result
    }

    /// The one embedding pass: a full execution is this over every
    /// feature, a cluster scatter leg this over the node's assignment.
    /// The batch's IDs are drawn query by query, *every* feature's stream
    /// each time (the per-query RNG is one sequential stream across
    /// features, so skipping draws would change sibling features' IDs).
    /// Then `features`, *global* indices, execute in list order, each
    /// feature's IDs as one batch: a DHE feature of `path` through the
    /// MP-Cache, a table feature as a deduplicated gather that touches no
    /// cache. Each result is added into `out` (resized to `total x
    /// emb_dim`, zeroed), so partials over disjoint lists sum to the pool
    /// [`RuntimeModel::score_pooled`] scores. Returns the sample count;
    /// zero steady-state allocations with a warm scratch.
    ///
    /// # Errors
    ///
    /// Propagates table/stack execution errors.
    pub fn pool_features_into(
        &self,
        path: PathKind,
        queries: &[(u64, u64)],
        features: &[usize],
        scratch: &mut ScratchSpace,
        out: &mut Matrix,
    ) -> Result<u64> {
        let total: u64 = queries.iter().map(|&(_, s)| s).sum();
        out.resize_zeroed(total as usize, self.cfg.emb_dim);
        if total == 0 {
            return Ok(0);
        }
        for ids in scratch.per_feature.iter_mut() {
            ids.clear();
        }
        for &(qid, size) in queries {
            self.draw_query_ids(qid, size, &mut scratch.per_feature);
        }
        for &feature in features {
            let ids = &scratch.per_feature[feature];
            if self.path_uses_dhe(path, feature) {
                self.cache.embed_batch_into(
                    &self.weights.stacks[feature],
                    feature,
                    ids,
                    &mut scratch.cache,
                    &mut scratch.emb,
                )?;
            } else {
                self.weights.tables[feature].forward_dedup_into(
                    ids,
                    &mut scratch.gather,
                    &mut scratch.emb,
                )?;
            }
            out.add_assign(&scratch.emb)?;
        }
        Ok(total)
    }

    /// Gather half of the cluster's scatter/gather execution: runs the
    /// top MLP over a pooled embedding matrix and returns the score
    /// checksum (zero steady-state allocations with a warm scratch).
    ///
    /// # Errors
    ///
    /// Propagates MLP execution errors.
    pub fn score_pooled(&self, pooled: &Matrix, top: &mut MlpScratch) -> Result<f64> {
        let scores = self.weights.top.infer_scratch(pooled, top)?;
        Ok(scores.as_slice().iter().map(|&v| v as f64).sum())
    }

    /// Analytic embedding FLOPs per sample for one feature on `path`:
    /// a table gather + pooling add, or the DHE encoder hashes + decoder
    /// GEMMs, depending on the path's feature assignment.
    fn feature_flops(&self, path: PathKind, feature: usize) -> f64 {
        let dim = self.cfg.emb_dim as f64;
        if self.path_uses_dhe(path, feature) {
            let k = self.cfg.dhe_k as f64;
            let dnn = self.cfg.dhe_dnn as f64;
            let h = self.cfg.dhe_h.max(1) as f64;
            k + 2.0 * (k * dnn + dnn * dnn * (h - 1.0) + dnn * dim) + dim
        } else {
            2.0 * dim
        }
    }

    /// Analytic top-MLP FLOPs per sample (the gather-side merge cost a
    /// cluster front-end pays once per sample regardless of sharding).
    pub fn top_flops_per_sample(&self) -> f64 {
        let mut top = 0.0;
        let mut prev = self.cfg.emb_dim as f64;
        for &hsz in &self.cfg.top_hidden {
            top += 2.0 * prev * hsz as f64;
            prev = hsz as f64;
        }
        top + 2.0 * prev
    }

    /// Analytic embedding FLOPs per sample on `path` restricted to a
    /// feature subset — the per-node scatter cost the cluster's
    /// slowest-shard critical-path latency profiles are built from
    /// (excludes the top MLP; see
    /// [`RuntimeModel::top_flops_per_sample`]).
    pub fn flops_per_sample_features(&self, path: PathKind, features: &[usize]) -> f64 {
        features
            .iter()
            .map(|&f| self.feature_flops(path, f))
            .sum()
    }

    /// Analytic FLOPs per sample on `path` (drives the deterministic
    /// virtual-time latency profiles the SLA-aware dispatcher routes on).
    pub fn flops_per_sample(&self, path: PathKind) -> f64 {
        (0..self.cfg.sparse_features)
            .map(|f| self.feature_flops(path, f))
            .sum::<f64>()
            + self.top_flops_per_sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> RuntimeModelConfig {
        RuntimeModelConfig {
            sparse_features: 2,
            rows_per_feature: 500,
            emb_dim: 4,
            dhe_k: 8,
            dhe_dnn: 8,
            dhe_h: 1,
            top_hidden: vec![8],
            encoder_cache_bytes: 1024,
            decoder_centroids: 8,
            dynamic_cache_entries: 64,
            profile_accesses: 2_000,
            ..RuntimeModelConfig::default()
        }
    }

    #[test]
    fn build_rejects_zero_features() {
        let cfg = RuntimeModelConfig {
            sparse_features: 0,
            ..tiny_cfg()
        };
        assert!(RuntimeModel::build(&cfg, 4, 1).is_err());
    }

    #[test]
    fn execute_counts_every_sample() {
        let m = RuntimeModel::build(&tiny_cfg(), 4, 1).unwrap();
        for path in [PathKind::Table, PathKind::Dhe, PathKind::Hybrid] {
            let r = m.execute(path, &[(0, 3), (1, 5)]).unwrap();
            assert_eq!(r.samples, 8, "path {path}");
            assert!(r.checksum.is_finite());
        }
    }

    #[test]
    fn execution_is_deterministic_per_query_id() {
        let m = RuntimeModel::build(&tiny_cfg(), 4, 9).unwrap();
        let a = m.execute(PathKind::Hybrid, &[(7, 16)]).unwrap();
        let b = m.execute(PathKind::Hybrid, &[(7, 16)]).unwrap();
        assert_eq!(a.checksum, b.checksum, "same query id, same math");
        let c = m.execute(PathKind::Hybrid, &[(8, 16)]).unwrap();
        assert_ne!(a.checksum, c.checksum, "different query id, different ids");
    }

    #[test]
    fn batch_split_does_not_change_results() {
        // Executing [q0, q1] together equals executing them separately:
        // queries never share per-query RNG state.
        let m = RuntimeModel::build(&tiny_cfg(), 4, 5).unwrap();
        let together = m.execute(PathKind::Table, &[(0, 4), (1, 6)]).unwrap();
        let a = m.execute(PathKind::Table, &[(0, 4)]).unwrap();
        let b = m.execute(PathKind::Table, &[(1, 6)]).unwrap();
        assert!((together.checksum - (a.checksum + b.checksum)).abs() < 1e-6);
    }

    impl RuntimeModel {
        /// Whether `self` and `other` serve from one weight allocation.
        pub(crate) fn shares_weights_with(&self, other: &RuntimeModel) -> bool {
            Arc::ptr_eq(&self.weights, &other.weights)
        }

        /// The allocating reference for `execute_with`: fresh buffers per
        /// batch, no gather dedup, allocating cache and MLP inference.
        fn execute_naive(&self, path: PathKind, queries: &[(u64, u64)]) -> Result<BatchResult> {
            let total: u64 = queries.iter().map(|&(_, s)| s).sum();
            let mut per_feature: Vec<Vec<u64>> = vec![Vec::new(); self.cfg.sparse_features];
            for &(qid, size) in queries {
                self.draw_query_ids(qid, size, &mut per_feature);
            }
            let mut pooled = Matrix::zeros(total as usize, self.cfg.emb_dim);
            for (feature, ids) in per_feature.iter().enumerate() {
                let emb = if self.path_uses_dhe(path, feature) {
                    self.cache.embed_batch(&self.weights.stacks[feature], feature, ids)?
                } else {
                    self.weights.tables[feature].forward(ids)?
                };
                pooled.add_assign(&emb)?;
            }
            let scores = self.weights.top.infer(&pooled)?;
            let checksum = scores.as_slice().iter().map(|&v| v as f64).sum();
            Ok(BatchResult { samples: total, checksum })
        }
    }

    #[test]
    fn execute_with_matches_execute_naive_on_every_path() {
        let m = RuntimeModel::build(&tiny_cfg(), 4, 7).unwrap();
        let mut scratch = m.make_scratch();
        let queries = [(0u64, 12u64), (1, 7), (2, 13)];
        for path in [PathKind::Table, PathKind::Dhe, PathKind::Hybrid] {
            let naive = m.execute_naive(path, &queries).unwrap();
            // Run the scratch path twice so the second call exercises the
            // fully warm (buffer-recycling) state.
            let _ = m.execute_with(path, &queries, &mut scratch).unwrap();
            let opt = m.execute_with(path, &queries, &mut scratch).unwrap();
            assert_eq!(naive.samples, opt.samples, "path {path}");
            assert!(
                (naive.checksum - opt.checksum).abs() <= 1e-6 * (1.0 + naive.checksum.abs()),
                "path {path}: naive {} vs scratch {}",
                naive.checksum,
                opt.checksum
            );
        }
    }

    #[test]
    fn partial_pools_sum_to_the_full_execution() {
        // Scatter/gather invariant: splitting the feature space across
        // "nodes" and summing the partial pools reproduces execute_with
        // exactly (same per-feature IDs, same math, same top MLP input).
        let m = RuntimeModel::build(&tiny_cfg(), 4, 11).unwrap();
        let queries = [(0u64, 5u64), (1, 9), (2, 2)];
        for path in [PathKind::Table, PathKind::Dhe, PathKind::Hybrid] {
            let mut s0 = m.make_scratch();
            let mut s1 = m.make_scratch();
            let mut p0 = Matrix::default();
            let mut p1 = Matrix::default();
            m.pool_features_into(path, &queries, &[0], &mut s0, &mut p0)
                .unwrap();
            m.pool_features_into(path, &queries, &[1], &mut s1, &mut p1)
                .unwrap();
            p0.add_assign(&p1).unwrap();
            let mut top = MlpScratch::default();
            let gathered = m.score_pooled(&p0, &mut top).unwrap();
            // Fresh model so cache stats/dynamic state match the partial
            // run's access pattern.
            let full_model = RuntimeModel::build(&tiny_cfg(), 4, 11).unwrap();
            let full = full_model.execute(path, &queries).unwrap();
            assert!(
                (gathered - full.checksum).abs() <= 1e-6 * (1.0 + full.checksum.abs()),
                "path {path}: gathered {gathered} vs full {}",
                full.checksum
            );
            // One leg holding every feature IS the full execution: same
            // feature order, same f32 adds, same bits.
            let one_leg = RuntimeModel::build(&tiny_cfg(), 4, 11).unwrap();
            one_leg
                .pool_features_into(path, &queries, &[0, 1], &mut s0, &mut p0)
                .unwrap();
            let scored = one_leg.score_pooled(&p0, &mut top).unwrap();
            assert_eq!(scored, full.checksum, "path {path}");
            assert_eq!(one_leg.cache().stats(), full_model.cache().stats(), "path {path}");
        }
    }

    #[test]
    fn hot_key_epochs_rotate_the_id_stream() {
        let m = RuntimeModel::build(&tiny_cfg(), 4, 3).unwrap();
        let mut base = vec![Vec::new(); 2];
        let mut drifted = vec![Vec::new(); 2];
        m.draw_query_ids(7, 64, &mut base);
        m.draw_query_ids(mprec_data::scenario::with_epoch(7, 3), 64, &mut drifted);
        // Same RNG stream, shifted hot set: ids differ by a constant
        // rotation mod rows.
        let rows = tiny_cfg().rows_per_feature;
        let delta = (drifted[0][0] + rows - base[0][0]) % rows;
        assert_ne!(delta, 0, "epoch must move the hot set");
        for (b, d) in base.iter().flatten().zip(drifted.iter().flatten()) {
            assert_eq!((d + rows - b) % rows, delta, "uniform rotation");
        }
        // Epoch 0 is the identity (legacy traces unchanged).
        let mut again = vec![Vec::new(); 2];
        m.draw_query_ids(7, 64, &mut again);
        assert_eq!(base, again);
    }

    #[test]
    fn tenant_bits_move_the_hot_set_per_tenant() {
        use mprec_data::scenario::pack_query_id;
        let cfg = RuntimeModelConfig {
            tenant_zipf: vec![1.4, 0.8],
            ..tiny_cfg()
        };
        let m = RuntimeModel::build(&cfg, 4, 3).unwrap();
        let draw = |tenant: u32, user: u64| {
            let mut v = vec![Vec::new(); 2];
            m.draw_query_ids(pack_query_id(0, tenant, user, 7), 64, &mut v);
            v
        };
        let t0 = draw(0, 0);
        let t1 = draw(1, 0);
        let t2 = draw(2, 0);
        assert_ne!(t0, t1, "tenant bits must reshape the stream");
        assert_ne!(t1, t2, "tenants must not share a stream");
        // Legacy bit-exactness: an all-zero high half is the plain
        // sequence id.
        let mut legacy = vec![Vec::new(); 2];
        m.draw_query_ids(7, 64, &mut legacy);
        assert_eq!(t0, legacy);
    }

    #[test]
    fn user_bits_concentrate_draws_on_a_personal_pool() {
        use mprec_data::scenario::pack_query_id;
        let cfg = RuntimeModelConfig {
            user_affinity: 0.9,
            user_pool: 8,
            ..tiny_cfg()
        };
        let m = RuntimeModel::build(&cfg, 4, 3).unwrap();
        let mut ids = vec![Vec::new(); 2];
        // Two queries from the same user share the personal pool even
        // though their sequence numbers (and so their RNG streams) differ.
        m.draw_query_ids(pack_query_id(0, 1, 42, 7), 128, &mut ids);
        m.draw_query_ids(pack_query_id(0, 1, 42, 8), 128, &mut ids);
        let mut uniq = ids[0].clone();
        uniq.sort_unstable();
        uniq.dedup();
        // 256 draws at 90% affinity over an 8-id pool: the distinct-id
        // count collapses far below the draw count.
        assert!(
            uniq.len() < 64,
            "personal pool must dominate: {} distinct ids",
            uniq.len()
        );
        // A different user in the same tenant draws a different pool.
        let mut other = vec![Vec::new(); 2];
        m.draw_query_ids(pack_query_id(0, 1, 43, 7), 128, &mut other);
        assert_ne!(ids[0][..128], other[0][..]);
    }

    #[test]
    fn subset_flops_recompose_the_full_estimate() {
        let m = RuntimeModel::build(&tiny_cfg(), 4, 1).unwrap();
        for path in [PathKind::Table, PathKind::Dhe, PathKind::Hybrid] {
            let split = m.flops_per_sample_features(path, &[0])
                + m.flops_per_sample_features(path, &[1])
                + m.top_flops_per_sample();
            let full = m.flops_per_sample(path);
            assert!(
                (split - full).abs() < 1e-9,
                "path {path}: {split} vs {full}"
            );
        }
    }

    #[test]
    fn dhe_costs_more_flops_than_table() {
        let m = RuntimeModel::build(&tiny_cfg(), 4, 1).unwrap();
        let t = m.flops_per_sample(PathKind::Table);
        let d = m.flops_per_sample(PathKind::Dhe);
        let h = m.flops_per_sample(PathKind::Hybrid);
        assert!(d > h && h > t, "table {t} < hybrid {h} < dhe {d}");
    }

    #[test]
    fn cache_serves_dhe_lookups() {
        let m = RuntimeModel::build(&tiny_cfg(), 4, 2).unwrap();
        let _ = m.execute(PathKind::Dhe, &[(0, 64)]).unwrap();
        let stats = m.cache().stats();
        assert_eq!(stats.lookups(), 64 * 2, "2 features x 64 samples");
        assert!(stats.encoder_hits > 0, "hot zipf ids must hit the static tier");
    }
}
