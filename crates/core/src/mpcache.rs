//! MP-Cache: the two-tier cache that makes compute-based embedding paths
//! viable (paper §4.3, Fig. 9, Fig. 16).
//!
//! * [`EncoderCache`] exploits **access frequency**: recommendation
//!   workloads follow power-law ID popularity, so pinning the
//!   pre-computed *final* embeddings of hot `(feature, id)` pairs lets
//!   hits skip the entire encoder-decoder stack. It is the static,
//!   profiled half of the encoder tier; [`DynamicTier`] is the online
//!   half, and the only online encoder cache in the crate.
//! * [`DecoderCache`] exploits **value similarity**: intermediate encoder
//!   outputs are profiled offline into `N` k-means centroids with
//!   pre-computed decoder outputs; at inference the nearest centroid
//!   (normalized dot product + argmax — cheap and parallel) replaces the
//!   decoder MLP run.
//!
//! Both tiers are functional (real data structures, measurable hit rates
//! and approximation error) and expose the cost parameters the hardware
//! model needs to price cached paths.
//!
//! For the multi-threaded serving runtime (`mprec-runtime`) the tiers sit
//! behind [`ShardedMpCache`]: the encoder tier is partitioned into N
//! shards keyed by a `(feature, id)` hash, each shard pairing an
//! immutable (lock-free) static map with a FIFO [`DynamicTier`] behind a
//! `parking_lot::RwLock` and an atomic hit/miss/eviction stats block.
//! One shard with no dynamic budget is the paper's plain static cache.
//!
//! Scalar [`ShardedMpCache::embed`] is the reference. The serving path,
//! [`ShardedMpCache::embed_batch_into`], works per batch, not per id: one
//! lock and one counter flush per shard, one encode of the unique misses,
//! and one `codes · centroidsᵀ` GEMM plus a row argmax for the decoder
//! tier ([`DecoderCache::nearest_batch_into`], which picks exactly what
//! [`DecoderCache::nearest`] picks).
//!
//! Each shard also carries a **persistent disk tier**
//! ([`crate::persist::Segment`]): an append-only record log with an
//! in-memory `(feature, id) → offset` index, consulted only after both RAM
//! tiers miss. Disk hits copy the embedding out, count as `disk_hits`, and
//! promote the entry into the dynamic tier. The tier is fed by
//! [`ShardedMpCache::load_disk_segment`] (cluster warm-start on node join)
//! and by [`ShardedMpCache::restore_dynamic`]'s segment files
//! (snapshot/restore across process restarts).

use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use mprec_data::SplitMixBuildHasher;
use mprec_embed::DheStack;
use mprec_nn::MlpScratch;
use mprec_tensor::{ops, Matrix};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::persist::Segment;
use crate::{CoreError, Result};

/// Hit/miss counters shared by both tiers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Encoder-tier (static, profiled top-K) hits.
    pub encoder_hits: u64,
    /// Encoder-tier misses (accesses served by neither encoder tier).
    pub encoder_misses: u64,
    /// Decoder-tier lookups (encoder misses that used centroids).
    pub decoder_lookups: u64,
    /// Dynamic-tier hits (online warm entries; 0 when the cache was
    /// built with `dynamic_entries: 0`).
    pub dynamic_hits: u64,
    /// Disk-tier hits (persistent segment entries promoted on access; 0
    /// until a segment is loaded).
    pub disk_hits: u64,
    /// Dynamic-tier evictions.
    pub evictions: u64,
}

impl CacheStats {
    /// Encoder hit rate in [0, 1]: hits of any encoder tier (static,
    /// dynamic, or disk) over all lookups.
    pub fn encoder_hit_rate(&self) -> f64 {
        let hits = self.encoder_hits + self.dynamic_hits + self.disk_hits;
        let total = hits + self.encoder_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Total lookups observed. Every access lands in exactly one of the
    /// four buckets, so
    /// `encoder_hits + dynamic_hits + disk_hits + encoder_misses` equals
    /// the number of accesses (property-tested in
    /// `crates/core/tests/sharded_mpcache.rs`).
    pub fn lookups(&self) -> u64 {
        self.encoder_hits + self.dynamic_hits + self.disk_hits + self.encoder_misses
    }

    /// Field-wise sum of two snapshots (merging per-shard stats).
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            encoder_hits: self.encoder_hits + other.encoder_hits,
            encoder_misses: self.encoder_misses + other.encoder_misses,
            decoder_lookups: self.decoder_lookups + other.decoder_lookups,
            dynamic_hits: self.dynamic_hits + other.dynamic_hits,
            disk_hits: self.disk_hits + other.disk_hits,
            evictions: self.evictions + other.evictions,
        }
    }
}

/// Frequency-based cache of pre-computed final embeddings for hot IDs.
///
/// The paper's design is a *static* cache: profiled access counts pick the
/// top-K hottest IDs per deployment, and their embeddings are precomputed
/// at mapping time (so a hit costs one small-table lookup).
#[derive(Debug)]
pub struct EncoderCache {
    entries: HashMap<(usize, u64), Vec<f32>>,
    entry_bytes: u64,
}

impl EncoderCache {
    /// Builds the cache from profiled access counts.
    ///
    /// `access_counts[f]` maps ID -> count for feature `f`; `embed` is
    /// called to pre-compute each cached embedding.
    ///
    /// # Errors
    ///
    /// Propagates embedding errors from `embed`.
    pub fn build(
        access_counts: &[HashMap<u64, u64>],
        emb_dim: usize,
        capacity_bytes: u64,
        mut embed: impl FnMut(usize, u64) -> Result<Vec<f32>>,
    ) -> Result<Self> {
        let entry_bytes = Self::entry_bytes(emb_dim);
        let max_entries = Self::entries_for_budget(emb_dim, capacity_bytes);
        // Global hottest (feature, id) pairs.
        let mut all: Vec<(u64, usize, u64)> = access_counts
            .iter()
            .enumerate()
            .flat_map(|(f, m)| m.iter().map(move |(&id, &c)| (c, f, id)))
            .collect();
        // Break count ties on (feature, id) so the truncation boundary does
        // not depend on HashMap iteration order — cache contents must be
        // identical across runs for the determinism guarantees tests rely on.
        all.sort_unstable_by_key(|&(c, f, id)| (std::cmp::Reverse(c), f, id));
        all.truncate(max_entries);
        let mut entries = HashMap::with_capacity(all.len());
        for (_, f, id) in all {
            entries.insert((f, id), embed(f, id)?);
        }
        Ok(EncoderCache {
            entries,
            entry_bytes,
        })
    }

    /// Bytes one cached entry is charged: id key (8) + feature (8) +
    /// vector.
    fn entry_bytes(emb_dim: usize) -> u64 {
        16 + emb_dim as u64 * 4
    }

    /// Whole entries a byte budget buys: it rounds *down*, so a sub-entry
    /// budget is a disabled tier, never one free entry. The ablation sizes
    /// its [`DynamicTier`]s with the same rule so every column compares
    /// equal budgets.
    pub fn entries_for_budget(emb_dim: usize, capacity_bytes: u64) -> usize {
        (capacity_bytes / Self::entry_bytes(emb_dim)) as usize
    }

    /// Number of cached embeddings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes used by the cached entries.
    pub fn used_bytes(&self) -> u64 {
        self.entries.len() as u64 * self.entry_bytes
    }

    /// Looks up a hot embedding.
    pub fn get(&self, feature: usize, id: u64) -> Option<&[f32]> {
        self.entries.get(&(feature, id)).map(Vec::as_slice)
    }

    /// Consumes the cache, yielding its `(feature, id) -> embedding` map
    /// (used by [`ShardedMpCache`] to partition entries across shards).
    pub fn into_entries(self) -> HashMap<(usize, u64), Vec<f32>> {
        self.entries
    }
}

/// Value-similarity cache: k-means centroids over encoder outputs with
/// pre-computed decoder results.
#[derive(Debug)]
pub struct DecoderCache {
    /// Unit-normalized centroids, `N x k`.
    centroids: Matrix,
    /// The same centroids transposed, `k x N`: the right-hand side of
    /// the batched search's GEMM.
    centroids_t: Matrix,
    /// Pre-computed decoder outputs, `N x out_dim`.
    outputs: Matrix,
}

/// [`DecoderCache::nearest`]'s pick over one code's dot products: start
/// at −∞ with a strict `>`, so the lowest index wins a tie and a NaN
/// never wins. (`ops::argmax` seeds with element 0 instead, which differs
/// when that element is NaN.)
fn pick(dots: impl Iterator<Item = f32>) -> usize {
    let mut best = (0, f32::NEG_INFINITY);
    for (c, d) in dots.enumerate() {
        if d > best.1 {
            best = (c, d);
        }
    }
    best.0
}

impl DecoderCache {
    /// Profiles `sample_codes` (rows are encoder outputs) into `n`
    /// centroids via Lloyd's k-means and pre-computes decoder outputs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] if there are no sample codes or
    /// `n == 0`; propagates decoder errors.
    pub fn build(
        stack: &DheStack,
        sample_codes: &Matrix,
        n: usize,
        kmeans_iters: usize,
    ) -> Result<Self> {
        if n == 0 || sample_codes.rows() == 0 {
            return Err(CoreError::BadConfig(
                "decoder cache needs samples and n > 0".into(),
            ));
        }
        let k = sample_codes.cols();
        let n = n.min(sample_codes.rows());
        // Init: spread over the sample set.
        let mut centroids = Matrix::zeros(n, k);
        let stride = sample_codes.rows() / n;
        for c in 0..n {
            centroids
                .row_mut(c)
                .copy_from_slice(sample_codes.row(c * stride));
        }
        let mut assignment = vec![0usize; sample_codes.rows()];
        for _ in 0..kmeans_iters {
            // Assign.
            for (i, a) in assignment.iter_mut().enumerate() {
                let row = sample_codes.row(i);
                let mut best = 0;
                let mut best_d = f32::INFINITY;
                for c in 0..n {
                    let d = ops::sq_dist(row, centroids.row(c));
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                *a = best;
            }
            // Update.
            let mut sums = Matrix::zeros(n, k);
            let mut counts = vec![0u64; n];
            for (i, &a) in assignment.iter().enumerate() {
                ops::axpy(1.0, sample_codes.row(i), sums.row_mut(a));
                counts[a] += 1;
            }
            for (c, &count) in counts.iter().enumerate() {
                if count > 0 {
                    let inv = 1.0 / count as f32;
                    for v in sums.row_mut(c).iter_mut() {
                        *v *= inv;
                    }
                    centroids.row_mut(c).copy_from_slice(sums.row(c));
                }
            }
        }
        let outputs = stack.decode(&centroids)?;
        // Normalize centroids so nearest-by-distance becomes
        // max-dot-product (the paper's parallelizable trick). We keep both
        // the normalized direction and rely on approximately equal norms
        // of hash codes (uniform in [-1,1]^k).
        let mut normalized = centroids.clone();
        for c in 0..normalized.rows() {
            ops::normalize(normalized.row_mut(c));
        }
        Ok(DecoderCache {
            centroids_t: normalized.transposed(),
            centroids: normalized,
            outputs,
        })
    }

    /// Number of centroids `N`.
    pub fn num_centroids(&self) -> usize {
        self.centroids.rows()
    }

    /// Nearest-centroid index for a code (dot product + argmax).
    ///
    /// The query is deliberately *not* normalized: dividing every dot
    /// product by the same positive `||code||` cannot change the argmax,
    /// so skipping it saves a copy + sqrt + divide per lookup and keeps
    /// the hot path allocation-free. (A zero-norm code yields all-zero
    /// dots either way.)
    pub fn nearest(&self, code: &[f32]) -> usize {
        pick((0..self.centroids.rows()).map(|c| ops::dot(code, self.centroids.row(c))))
    }

    /// [`Self::nearest`] for every row of `codes` (`m x k`) at once: one
    /// `codes · centroidsᵀ` GEMM into `dots` (`m x N`), then the same
    /// pick per row into `picks`. Picks equal the scalar scan's: both
    /// `gemm_nn` paths (tiled, and the naive one below 16 centroids)
    /// accumulate each output in `k` order from zero, as `ops::dot`'s
    /// sequential sum does, and Rust never contracts `a * b + c` into an
    /// FMA. So every dot product is the scalar one's, up to the sign of a
    /// zero (the naive path also skips zero code entries), which `>`
    /// does not see. `tests/decoder_search.rs` holds the two together.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] when `codes` is not `k` wide.
    pub fn nearest_batch_into(
        &self,
        codes: &Matrix,
        dots: &mut Matrix,
        picks: &mut Vec<usize>,
    ) -> Result<()> {
        codes
            .matmul_into(&self.centroids_t, dots)
            .map_err(|e| CoreError::BadConfig(format!("decoder search: {e}")))?;
        picks.clear();
        for row in dots.as_slice().chunks_exact(dots.cols()) {
            picks.push(pick(row.iter().copied()));
        }
        Ok(())
    }

    /// Approximate embedding for a code: the pre-computed decoder output
    /// of its nearest centroid.
    pub fn lookup(&self, code: &[f32]) -> &[f32] {
        self.outputs.row(self.nearest(code))
    }

    /// FLOPs per lookup (the kNN dot products), for the hardware model.
    pub fn flops_per_lookup(&self) -> u64 {
        (2 * self.centroids.rows() * self.centroids.cols()) as u64
    }
}

/// Configuration of the sharded, thread-safe MP-Cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedCacheConfig {
    /// Number of shards (rounded up to a power of two, min 1).
    pub shards: usize,
    /// Per-cache budget of *dynamic* (online warm-up) entries, split
    /// evenly across shards; 0 disables the dynamic tier entirely.
    pub dynamic_entries: usize,
}

impl Default for ShardedCacheConfig {
    fn default() -> Self {
        ShardedCacheConfig {
            shards: 16,
            dynamic_entries: 0,
        }
    }
}

/// Lock-free hit/miss/eviction counters (relaxed ordering; the counters
/// are statistics, not synchronization).
#[derive(Debug, Default)]
pub struct AtomicCacheStats {
    encoder_hits: AtomicU64,
    encoder_misses: AtomicU64,
    decoder_lookups: AtomicU64,
    dynamic_hits: AtomicU64,
    disk_hits: AtomicU64,
    evictions: AtomicU64,
}

impl AtomicCacheStats {
    /// Consistent-enough snapshot of the counters (each counter is read
    /// atomically; the set may straddle in-flight updates).
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            encoder_hits: self.encoder_hits.load(Ordering::Relaxed),
            encoder_misses: self.encoder_misses.load(Ordering::Relaxed),
            decoder_lookups: self.decoder_lookups.load(Ordering::Relaxed),
            dynamic_hits: self.dynamic_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Flushes a batch's local tally: one add per non-zero counter.
    fn add(&self, t: &CacheStats) {
        for (counter, n) in [
            (&self.encoder_hits, t.encoder_hits),
            (&self.encoder_misses, t.encoder_misses),
            (&self.decoder_lookups, t.decoder_lookups),
            (&self.dynamic_hits, t.dynamic_hits),
            (&self.disk_hits, t.disk_hits),
            (&self.evictions, t.evictions),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    fn reset(&self) {
        self.encoder_hits.store(0, Ordering::Relaxed);
        self.encoder_misses.store(0, Ordering::Relaxed);
        self.decoder_lookups.store(0, Ordering::Relaxed);
        self.dynamic_hits.store(0, Ordering::Relaxed);
        self.disk_hits.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

/// Which entry a full [`DynamicTier`] gives up, fixed at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Oldest admission first. What [`ShardedMpCache`] serves with: a hit
    /// needs no bookkeeping, so it stays a `&self` probe under the shard's
    /// read lock, and admission is O(1).
    Fifo,
    /// Least recently touched first.
    Lru,
    /// Segmented LRU: entries are admitted on *probation*; a probation
    /// hit promotes to a *protected* segment (4/5 of the budget) whose
    /// overflow demotes its least recent entry back. Victims come from
    /// probation first, so one-shot scan floods cannot flush reused IDs.
    SegmentedLru,
}

#[derive(Debug)]
struct Slot {
    row: Vec<f32>,
    /// Tier clock at the last touch ([`EvictionPolicy::Fifo`] never reads it).
    stamp: u64,
    protected: bool,
}

/// The online encoder tier: final embeddings admitted on a miss, up to an
/// entry budget, with the victim picked by an [`EvictionPolicy`]. Each
/// [`ShardedMpCache`] shard holds one (always `Fifo`); the cache-policy
/// ablation drives the same type with every policy. `Lru` and
/// `SegmentedLru` find their victim with an O(n) stamp scan — they are
/// ablation-only.
#[derive(Debug)]
pub struct DynamicTier {
    entries: HashMap<(usize, u64), Slot, SplitMixBuildHasher>,
    /// Resident keys in admission order: the FIFO victim queue, and the
    /// order snapshots and warm-start exports are written in.
    order: VecDeque<(usize, u64)>,
    policy: EvictionPolicy,
    max_entries: usize,
    clock: u64,
    protected_len: usize,
}

impl DynamicTier {
    /// An empty tier holding at most `max_entries` embeddings; 0 is a
    /// disabled tier that never stores.
    pub fn new(policy: EvictionPolicy, max_entries: usize) -> Self {
        DynamicTier {
            entries: HashMap::default(),
            order: VecDeque::new(),
            policy,
            max_entries,
            clock: 0,
            protected_len: 0,
        }
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends the resident entries whose feature satisfies `keep` to
    /// `seg` in admission order: the one writer behind snapshots and
    /// warm-start exports.
    fn append_to(&self, seg: &mut Segment, mut keep: impl FnMut(usize) -> bool) {
        for key in self.order.iter().filter(|k| keep(k.0)) {
            if let Some(slot) = self.entries.get(key) {
                seg.append(key.0, key.1, &slot.row);
            }
        }
    }

    /// Probes without touching policy state — the serving hit path.
    pub fn get(&self, feature: usize, id: u64) -> Option<&[f32]> {
        self.entries.get(&(feature, id)).map(|s| s.row.as_slice())
    }

    /// Probes and records the hit for the eviction policy. `Lru` is
    /// `SegmentedLru` with an empty protected segment, so one body
    /// serves both; `Fifo` keeps no hit state and is a plain [`Self::get`].
    pub fn touch(&mut self, feature: usize, id: u64) -> Option<&[f32]> {
        if self.policy != EvictionPolicy::Fifo {
            self.clock += 1;
            let segmented = self.policy == EvictionPolicy::SegmentedLru;
            let protected_cap = if segmented { self.max_entries * 4 / 5 } else { 0 };
            let slot = self.entries.get_mut(&(feature, id))?;
            slot.stamp = self.clock;
            if !slot.protected && protected_cap > 0 {
                slot.protected = true;
                self.protected_len += 1;
                if self.protected_len > protected_cap {
                    if let Some(slot) = self.oldest(true).and_then(|k| self.entries.get_mut(&k)) {
                        slot.protected = false;
                        self.protected_len -= 1;
                    }
                }
            }
        }
        self.get(feature, id)
    }

    /// Admits an embedding, first evicting the policy's victim when the
    /// tier is full, and returns whether it evicted. No-op when the tier
    /// is disabled or already holds the key. The victim's buffer is
    /// recycled for the incoming row, so admission into a full tier does
    /// not allocate: map and queue stay at constant size.
    pub fn admit(&mut self, feature: usize, id: u64, row: &[f32]) -> bool {
        let key = (feature, id);
        if self.max_entries == 0 || self.entries.contains_key(&key) {
            return false;
        }
        let recycled = (self.entries.len() >= self.max_entries).then(|| self.evict()).flatten();
        let evicted = recycled.is_some();
        let mut row_buf = recycled.unwrap_or_default();
        row_buf.clear();
        row_buf.extend_from_slice(row);
        self.clock += 1;
        let slot = Slot { row: row_buf, stamp: self.clock, protected: false };
        self.entries.insert(key, slot);
        self.order.push_back(key);
        evicted
    }

    /// Empties the tier, keeping its policy and budget.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.protected_len = 0;
    }

    /// Least recently touched key of one segment.
    fn oldest(&self, protected: bool) -> Option<(usize, u64)> {
        self.entries
            .iter()
            .filter(|(_, s)| s.protected == protected)
            .min_by_key(|(_, s)| s.stamp)
            .map(|(&k, _)| k)
    }

    /// Removes the policy's victim and returns its buffer.
    fn evict(&mut self) -> Option<Vec<f32>> {
        let victim = match self.policy {
            EvictionPolicy::Fifo => self.order.pop_front()?,
            // Probation first; protected only once probation is empty.
            _ => {
                let k = self.oldest(false).or_else(|| self.oldest(true))?;
                let at = self.order.iter().position(|o| *o == k)?;
                self.order.remove(at)?
            }
        };
        let slot = self.entries.remove(&victim)?;
        self.protected_len -= usize::from(slot.protected);
        Some(slot.row)
    }
}

/// One cache shard: an immutable slice of the static encoder tier (read
/// without any lock) plus a locked dynamic tier, a locked persistent disk
/// tier (consulted only on a RAM miss), and an atomic stats block.
#[derive(Debug)]
struct CacheShard {
    static_entries: HashMap<(usize, u64), Vec<f32>, SplitMixBuildHasher>,
    dynamic: RwLock<DynamicTier>,
    disk: RwLock<Segment>,
    stats: AtomicCacheStats,
}

/// The dynamic-tier guard one shard walk of a batch holds from its first
/// row to its last: the write guard when disk hits may promote into the
/// tier, the read guard otherwise. (A disabled tier is empty and never
/// admits.)
enum DynamicGuard<'a> {
    Read(RwLockReadGuard<'a, DynamicTier>),
    Write(RwLockWriteGuard<'a, DynamicTier>),
}

impl DynamicGuard<'_> {
    fn get(&self, feature: usize, id: u64) -> Option<&[f32]> {
        match self {
            DynamicGuard::Read(tier) => tier.get(feature, id),
            DynamicGuard::Write(tier) => tier.get(feature, id),
        }
    }
}

/// A cached row is only as good as the stack it was computed for: a
/// segment written under another `emb_dim` must fail the lookup, not
/// panic a worker or hand back a short row.
fn checked(row: &[f32], dim: usize) -> Result<&[f32]> {
    if row.len() == dim {
        Ok(row)
    } else {
        Err(CoreError::BadConfig(format!(
            "cached embedding has {} floats, the stack's out_dim is {dim}",
            row.len()
        )))
    }
}

/// Decoder-tier topology: none, one tier shared by every feature (valid
/// when all features share one decoder), or one tier per sparse feature
/// (each feature's centroids carry *its* decoder's precomputed outputs).
#[derive(Debug)]
enum DecoderTier {
    None,
    Shared(DecoderCache),
    PerFeature(Vec<Option<DecoderCache>>),
}

impl DecoderTier {
    fn for_feature(&self, feature: usize) -> Option<&DecoderCache> {
        match self {
            DecoderTier::None => None,
            DecoderTier::Shared(d) => Some(d),
            DecoderTier::PerFeature(v) => v.get(feature).and_then(Option::as_ref),
        }
    }
}

/// Reusable buffers for [`ShardedMpCache::embed_batch_into`], owned by
/// one worker and recycled across batches: the rows bucketed by shard
/// (a counting sort), the miss index, the batched encoder codes, the
/// decoder-tier search's dot products and picks, the decoder ping-pong
/// matrices, and the computed-row arena. After warm-up, a batch whose
/// misses fit the high-water marks performs no heap allocation outside
/// dynamic-tier admission (which itself recycles evicted entries once
/// the tier is full).
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Shard of each row, and where each shard's bucket starts in
    /// `rows_by_shard` (the row count last).
    shard_of: Vec<u32>,
    bucket_start: Vec<usize>,
    rows_by_shard: Vec<u32>,
    /// `(shard, end of its misses in miss_ids)` per walked shard.
    shard_misses: Vec<(usize, usize)>,
    miss_slot_of: HashMap<u64, u32, SplitMixBuildHasher>,
    miss_ids: Vec<u64>,
    cold_rows: Vec<(u32, u32)>,
    codes: Matrix,
    dots: Matrix,
    picks: Vec<usize>,
    computed: Matrix,
    mlp: MlpScratch,
    disk_row: Vec<f32>,
}

impl BatchScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Buckets a batch's rows by shard (a row's shard is its hash masked
    /// by `mask`) with a stable counting sort: count each bucket at its
    /// own index, turn the counts into bucket ends, then place rows back
    /// to front, moving each end down to its bucket's start. Shard `s`'s
    /// rows, in row order, are then
    /// `rows_by_shard[bucket_start[s]..bucket_start[s + 1]]`.
    fn bucket_by_shard(&mut self, mask: u64, hashes: impl Iterator<Item = u64>) {
        self.shard_of.clear();
        self.shard_of.extend(hashes.map(|h| (h & mask) as u32));
        self.bucket_start.clear();
        self.bucket_start.resize(mask as usize + 2, 0);
        for &s in &self.shard_of {
            self.bucket_start[s as usize] += 1;
        }
        let mut end = 0;
        for n in &mut self.bucket_start {
            end += *n;
            *n = end;
        }
        self.rows_by_shard.resize(self.shard_of.len(), 0);
        for (row, &s) in self.shard_of.iter().enumerate().rev() {
            self.bucket_start[s as usize] -= 1;
            self.rows_by_shard[self.bucket_start[s as usize]] = row as u32;
        }
    }
}

/// Thread-safe MP-Cache for the serving runtime: the encoder tier is
/// partitioned into `N` shards keyed by a `(feature, id)` hash, so
/// concurrent workers contend only on their own shard — and only when
/// they touch the *dynamic* tier, because the static (profiled top-K)
/// entries and the decoder centroids are immutable and read lock-free.
///
/// Sharding never changes hit/miss semantics: the static tier is a pure
/// function of the key, and the dynamic tier partitions its entry budget
/// by the same key hash, so under a sequential access pattern the merged
/// per-shard stats of an `N`-shard cache equal a 1-shard cache's stats
/// whenever the dynamic tier is disabled or unsaturated (property-tested
/// in `crates/core/tests/sharded_mpcache.rs`).
#[derive(Debug)]
pub struct ShardedMpCache {
    shards: Vec<CacheShard>,
    decoder: DecoderTier,
    mask: u64,
    dynamic_per_shard: usize,
}

impl ShardedMpCache {
    /// Builds the sharded cache from (optionally) a built static encoder
    /// tier and a decoder tier shared by every feature.
    pub fn new(
        encoder: Option<EncoderCache>,
        decoder: Option<DecoderCache>,
        cfg: ShardedCacheConfig,
    ) -> Self {
        Self::build(
            encoder,
            match decoder {
                Some(d) => DecoderTier::Shared(d),
                None => DecoderTier::None,
            },
            cfg,
        )
    }

    /// Builds the sharded cache with one decoder tier per sparse feature
    /// (index = feature): multi-feature deployments precompute each
    /// tier's outputs with that feature's own decoder.
    pub fn with_feature_decoders(
        encoder: Option<EncoderCache>,
        decoders: Vec<Option<DecoderCache>>,
        cfg: ShardedCacheConfig,
    ) -> Self {
        Self::build(encoder, DecoderTier::PerFeature(decoders), cfg)
    }

    fn build(encoder: Option<EncoderCache>, decoder: DecoderTier, cfg: ShardedCacheConfig) -> Self {
        let shards = cfg.shards.max(1).next_power_of_two();
        let mask = shards as u64 - 1;
        let mut maps: Vec<HashMap<(usize, u64), Vec<f32>, SplitMixBuildHasher>> =
            (0..shards).map(|_| HashMap::default()).collect();
        if let Some(enc) = encoder {
            for (key, v) in enc.into_entries() {
                maps[(shard_hash(key.0, key.1) & mask) as usize].insert(key, v);
            }
        }
        // A nonzero budget always yields a usable tier: round the
        // per-shard quota up to 1 rather than flooring a small budget
        // (e.g. 10 entries over 16 shards) down to "disabled".
        let dynamic_per_shard = if cfg.dynamic_entries == 0 {
            0
        } else {
            (cfg.dynamic_entries / shards).max(1)
        };
        ShardedMpCache {
            shards: maps
                .into_iter()
                .map(|static_entries| CacheShard {
                    static_entries,
                    dynamic: RwLock::new(DynamicTier::new(
                        EvictionPolicy::Fifo,
                        dynamic_per_shard,
                    )),
                    disk: RwLock::new(Segment::new()),
                    stats: AtomicCacheStats::default(),
                })
                .collect(),
            decoder,
            mask,
            dynamic_per_shard,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Entries in the static tier across all shards.
    pub fn static_len(&self) -> usize {
        self.shards.iter().map(|s| s.static_entries.len()).sum()
    }

    /// Entries currently in the dynamic tier across all shards.
    pub fn dynamic_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.dynamic.read().len())
            .sum()
    }

    fn shard(&self, feature: usize, id: u64) -> &CacheShard {
        &self.shards[(shard_hash(feature, id) & self.mask) as usize]
    }

    /// Stats of one shard.
    pub fn shard_stats(&self, idx: usize) -> CacheStats {
        self.shards[idx].stats.snapshot()
    }

    /// Merged stats across all shards.
    pub fn stats(&self) -> CacheStats {
        self.shards
            .iter()
            .fold(CacheStats::default(), |acc, s| {
                acc.merged(&s.stats.snapshot())
            })
    }

    /// Resets all shard counters.
    pub fn reset_stats(&self) {
        for s in &self.shards {
            s.stats.reset();
        }
    }

    /// Empties every shard's dynamic (online warm-up) tier; the static
    /// and decoder tiers are immutable and unaffected. Together with
    /// [`ShardedMpCache::reset_stats`] this restores a freshly-built
    /// cache's behaviour between runs.
    pub fn clear_dynamic(&self) {
        for s in &self.shards {
            s.dynamic.write().clear();
        }
    }

    /// Entries currently indexed by the disk tier across all shards.
    pub fn disk_len(&self) -> usize {
        self.shards.iter().map(|s| s.disk.read().len()).sum()
    }

    /// Empties every shard's persistent disk tier (e.g. between serving
    /// runs, so warm-start segments loaded mid-run do not leak into the
    /// next run). Preserves any capacity bound set via
    /// [`ShardedMpCache::set_disk_capacity`].
    pub fn clear_disk(&self) {
        for s in &self.shards {
            let cap = s.disk.read().max_records();
            *s.disk.write() = Segment::bounded(cap);
        }
    }

    /// Bounds every shard's disk tier to at most `per_shard_records` log
    /// records (`0` = unbounded, the default). Over-capacity appends first
    /// compact superseded records away; if the live set alone still
    /// exceeds the bound, the oldest live records are evicted. Applying a
    /// tighter bound to already-loaded tiers compacts/evicts immediately.
    pub fn set_disk_capacity(&self, per_shard_records: usize) {
        for s in &self.shards {
            s.disk.write().set_max_records(per_shard_records);
        }
    }

    /// Exports the dynamic-tier entries whose feature satisfies `keep` as
    /// one segment byte stream (shard index order, FIFO order within a
    /// shard — deterministic for a deterministically-warmed cache). This
    /// is the cluster warm-start hand-off: old owners export the moved
    /// features' warm entries for the joining node.
    pub fn export_dynamic_segment(&self, mut keep: impl FnMut(usize) -> bool) -> Vec<u8> {
        let mut seg = Segment::new();
        for shard in &self.shards {
            shard.dynamic.read().append_to(&mut seg, &mut keep);
        }
        seg.to_bytes()
    }

    /// Exports the *disk*-tier records whose feature satisfies `keep` as
    /// one segment byte stream (shard index order, log order within a
    /// shard — deterministic). Records are appended in their original
    /// log order, so last-write-wins semantics survive a re-load on the
    /// receiving node. This completes the warm-start hand-off: entries
    /// the old owner had demoted to its disk segment travel with the
    /// dynamic tier instead of being silently lost on migration.
    pub fn export_disk_segment(&self, mut keep: impl FnMut(usize) -> bool) -> Vec<u8> {
        let mut seg = Segment::new();
        for shard in &self.shards {
            let disk = shard.disk.read();
            for (feature, id, values) in disk.iter() {
                if keep(feature) {
                    seg.append(feature, id, &values);
                }
            }
        }
        seg.to_bytes()
    }

    /// Loads segment bytes into the per-shard disk tiers (each record is
    /// routed to its owning shard by key hash), returning the number of
    /// records loaded. Torn trailing records are tolerated and dropped.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when the bytes do not start with a
    /// valid segment header.
    pub fn load_disk_segment(&self, bytes: &[u8]) -> Result<usize> {
        let seg = Segment::from_bytes(bytes)
            .map_err(|e| CoreError::BadConfig(format!("disk segment: {e}")))?;
        let mut loaded = 0;
        for (feature, id, values) in seg.iter() {
            self.shard(feature, id)
                .disk
                .write()
                .append(feature, id, &values);
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Snapshots the dynamic tier to `dir` as one segment file per shard
    /// (`shard-NNNN.seg`), each written durably (tmp file + rename), so a
    /// crash mid-snapshot leaves every shard file at either the previous
    /// or the new snapshot — never a torn one.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn snapshot_dynamic(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (i, shard) in self.shards.iter().enumerate() {
            let mut seg = Segment::new();
            shard.dynamic.read().append_to(&mut seg, |_| true);
            seg.write_to(&dir.join(format!("shard-{i:04}.seg")))?;
        }
        Ok(())
    }

    /// Restores the dynamic tier from a [`ShardedMpCache::snapshot_dynamic`]
    /// directory, replacing current dynamic contents. Records are routed
    /// to shards by key hash (so a snapshot survives a shard-count
    /// change) and admitted in file order through the tier's own
    /// [`DynamicTier::admit`], so a snapshot larger than the per-shard
    /// budget keeps its newest records; the stats counters stay
    /// untouched. Returns the number of entries resident afterwards.
    /// Stray `.tmp` files from an interrupted snapshot are ignored, so
    /// recovery always lands on the last durable snapshot.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; a file that is not a valid segment
    /// surfaces as [`io::ErrorKind::InvalidData`].
    pub fn restore_dynamic(&self, dir: &Path) -> io::Result<usize> {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "seg"))
            .collect();
        files.sort();
        self.clear_dynamic();
        for path in files {
            let seg = Segment::read_from(&path)?;
            for (feature, id, values) in seg.iter() {
                self.shard(feature, id)
                    .dynamic
                    .write()
                    .admit(feature, id, &values);
            }
        }
        Ok(self.dynamic_len())
    }

    /// Serves one embedding through the sharded hierarchy: static tier
    /// (lock-free) -> dynamic tier (shared read lock) -> disk tier
    /// (persistent segment, RAM misses only) -> encode + decoder tier or
    /// full decoder, inserting the result into the dynamic tier. A disk
    /// hit copies the embedding out, counts `disk_hits`, and promotes the
    /// entry into the dynamic tier so repeats hit RAM.
    ///
    /// # Errors
    ///
    /// Propagates stack execution errors; a tier hit whose length is not
    /// `stack.out_dim()` (a segment written under another `emb_dim`) is
    /// [`CoreError::BadConfig`].
    pub fn embed(&self, stack: &DheStack, feature: usize, id: u64) -> Result<Vec<f32>> {
        let shard = self.shard(feature, id);
        let key = (feature, id);
        let dim = stack.out_dim();
        if let Some(hit) = shard.static_entries.get(&key) {
            shard.stats.encoder_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(checked(hit, dim)?.to_vec());
        }
        if self.dynamic_per_shard > 0 {
            if let Some(hit) = shard.dynamic.read().get(feature, id) {
                shard.stats.dynamic_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(checked(hit, dim)?.to_vec());
            }
        }
        let mut v = Vec::new();
        if shard.disk.read().get_into(feature, id, &mut v) {
            shard.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
            checked(&v, dim)?;
            self.admit(shard, key, &v);
            return Ok(v);
        }
        shard.stats.encoder_misses.fetch_add(1, Ordering::Relaxed);
        let mut code = Matrix::zeros(1, stack.encoder().k());
        stack.encoder().encode_into(id, code.row_mut(0));
        let v = match self.decoder.for_feature(feature) {
            Some(dec) => {
                shard.stats.decoder_lookups.fetch_add(1, Ordering::Relaxed);
                dec.lookup(code.row(0)).to_vec()
            }
            None => stack.decode(&code)?.row(0).to_vec(),
        };
        self.admit(shard, key, &v);
        Ok(v)
    }

    /// Batched lookup: one output row per ID, computing all misses with a
    /// single batched encode/decode so workers amortize the decoder GEMMs.
    /// Duplicate cold IDs within the batch are computed once; their stats
    /// follow sequential-[`ShardedMpCache::embed`] semantics (a repeat is
    /// a dynamic hit when the dynamic tier is enabled, another miss when
    /// it is disabled), matching the scalar path exactly whenever the
    /// dynamic tier does not evict mid-batch.
    ///
    /// # Errors
    ///
    /// As [`ShardedMpCache::embed`].
    pub fn embed_batch(&self, stack: &DheStack, feature: usize, ids: &[u64]) -> Result<Matrix> {
        let mut out = Matrix::zeros(ids.len(), stack.out_dim());
        let mut scratch = BatchScratch::new();
        self.embed_batch_into(stack, feature, ids, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`ShardedMpCache::embed_batch`] into caller-provided buffers: the
    /// output arena is resized (reusing its allocation) and every
    /// intermediate lives in `scratch`, so a warm worker serves batches
    /// with zero steady-state heap allocations. The work is per batch:
    ///
    /// 1. Bucket the rows by shard: one shard hash per id, then a stable
    ///    counting sort.
    /// 2. Walk each shard's rows in row order through the static tier, the
    ///    dynamic tier (one guard for the whole walk) and, only when it is
    ///    non-empty, the disk tier. A disk hit is promoted inline, before
    ///    the shard's later rows, so such a walk holds the dynamic *write*
    ///    guard. Counts go to a local tally, flushed with one atomic add
    ///    per non-zero counter.
    /// 3. Compute the unique misses once: one batched encode, then the
    ///    decoder tier's one-GEMM search or one batched decoder pass.
    /// 4. Admit each shard's misses, in first-occurrence order, under one
    ///    write lock.
    ///
    /// Within a shard, probes and admits keep the order of visiting the
    /// rows one by one, and tiers, FIFO queues and counters are all per
    /// shard; encode and GEMM rows are independent of their neighbours.
    /// So outputs, every shard's [`CacheStats`] and each dynamic tier's
    /// FIFO order are those of a row-order walk.
    ///
    /// # Errors
    ///
    /// As [`ShardedMpCache::embed`].
    pub fn embed_batch_into(
        &self,
        stack: &DheStack,
        feature: usize,
        ids: &[u64],
        scratch: &mut BatchScratch,
        out: &mut Matrix,
    ) -> Result<()> {
        let dim = stack.out_dim();
        out.resize_zeroed(ids.len(), dim);
        scratch.bucket_by_shard(self.mask, ids.iter().map(|&id| shard_hash(feature, id)));
        // Unique cold ids to compute (grouped by shard), and for every
        // output row of a cold id the slot its embedding comes from.
        scratch.shard_misses.clear();
        scratch.miss_slot_of.clear();
        scratch.miss_ids.clear();
        scratch.cold_rows.clear();
        let decoder = self.decoder.for_feature(feature);
        for (s, shard) in self.shards.iter().enumerate() {
            let rows = &scratch.rows_by_shard[scratch.bucket_start[s]..scratch.bucket_start[s + 1]];
            if rows.is_empty() {
                continue;
            }
            let mut tally = CacheStats::default();
            // A closure so that the tally is flushed even when a row fails.
            let walked = (|| -> Result<()> {
                // Lock order: disk, then dynamic; nothing takes them the
                // other way round.
                let disk_guard = shard.disk.read();
                let disk = (!disk_guard.is_empty()).then_some(&*disk_guard);
                let mut dynamic = match disk {
                    Some(_) => DynamicGuard::Write(shard.dynamic.write()),
                    None => DynamicGuard::Read(shard.dynamic.read()),
                };
                let disk_row = &mut scratch.disk_row;
                for &row in rows {
                    let (row, id) = (row as usize, ids[row as usize]);
                    if let Some(hit) = shard.static_entries.get(&(feature, id)) {
                        tally.encoder_hits += 1;
                        out.row_mut(row).copy_from_slice(checked(hit, dim)?);
                    } else if let Some(hit) = dynamic.get(feature, id) {
                        tally.dynamic_hits += 1;
                        out.row_mut(row).copy_from_slice(checked(hit, dim)?);
                    } else if disk.is_some_and(|d| d.get_into(feature, id, disk_row)) {
                        // Segments are immutable during a batch, so a disk
                        // id is never also a pending cold id. Promotion
                        // turns its repeats into dynamic hits, as in `embed`.
                        tally.disk_hits += 1;
                        out.row_mut(row).copy_from_slice(checked(disk_row, dim)?);
                        if let DynamicGuard::Write(tier) = &mut dynamic {
                            tally.evictions += u64::from(tier.admit(feature, id, disk_row));
                        }
                    } else {
                        // A miss. On a repeat of a pending cold id `embed`
                        // would have admitted it by now (a dynamic hit), or
                        // with the tier disabled recomputes it (a miss).
                        let pending = scratch.miss_slot_of.get(&id).copied();
                        if pending.is_some() && self.dynamic_per_shard > 0 {
                            tally.dynamic_hits += 1;
                        } else {
                            tally.encoder_misses += 1;
                            tally.decoder_lookups += u64::from(decoder.is_some());
                        }
                        let slot = pending.unwrap_or_else(|| {
                            let slot = scratch.miss_ids.len() as u32;
                            scratch.miss_slot_of.insert(id, slot);
                            scratch.miss_ids.push(id);
                            slot
                        });
                        scratch.cold_rows.push((row as u32, slot));
                    }
                }
                Ok(())
            })();
            shard.stats.add(&tally);
            walked?;
            scratch.shard_misses.push((s, scratch.miss_ids.len()));
        }
        if scratch.miss_ids.is_empty() {
            return Ok(());
        }

        stack
            .encoder()
            .encode_batch_into(&scratch.miss_ids, &mut scratch.codes);
        let computed: &Matrix = if let Some(dec) = decoder {
            dec.nearest_batch_into(&scratch.codes, &mut scratch.dots, &mut scratch.picks)?;
            let rows = &mut scratch.computed;
            rows.resize_zeroed(scratch.picks.len(), dim);
            for (i, &c) in scratch.picks.iter().enumerate() {
                rows.row_mut(i).copy_from_slice(dec.outputs.row(c));
            }
            rows
        } else {
            stack.decode_scratch(&scratch.codes, &mut scratch.mlp)?
        };
        for &(row, slot) in &scratch.cold_rows {
            out.row_mut(row as usize).copy_from_slice(computed.row(slot as usize));
        }
        if self.dynamic_per_shard > 0 {
            let mut first = 0;
            for &(s, end) in &scratch.shard_misses {
                if end > first {
                    let shard = &self.shards[s];
                    let mut tier = shard.dynamic.write();
                    let evictions = (first..end)
                        .filter(|&i| tier.admit(feature, scratch.miss_ids[i], computed.row(i)))
                        .count();
                    drop(tier);
                    if evictions > 0 {
                        shard
                            .stats
                            .evictions
                            .fetch_add(evictions as u64, Ordering::Relaxed);
                    }
                }
                first = end;
            }
        }
        Ok(())
    }

    /// Admits a computed embedding into the shard's dynamic tier and
    /// counts the eviction it may cause; a disabled tier is skipped
    /// without taking the lock.
    fn admit(&self, shard: &CacheShard, key: (usize, u64), v: &[f32]) {
        if self.dynamic_per_shard > 0 && shard.dynamic.write().admit(key.0, key.1, v) {
            shard.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Shard selector: a splitmix64-style mix of the feature-salted ID so
/// consecutive IDs of one feature spread across shards.
fn shard_hash(feature: usize, id: u64) -> u64 {
    mprec_data::splitmix64((feature as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mprec_embed::DheConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stack() -> DheStack {
        let mut rng = StdRng::seed_from_u64(0);
        DheStack::new(
            DheConfig {
                k: 16,
                dnn: 16,
                h: 1,
                out_dim: 8,
            },
            0,
            &mut rng,
        )
        .unwrap()
    }

    fn counts_single_feature(hot: u64) -> Vec<HashMap<u64, u64>> {
        let mut m = HashMap::new();
        for id in 0..100u64 {
            m.insert(id, if id == hot { 1000 } else { 1 });
        }
        vec![m]
    }

    #[test]
    fn encoder_cache_pins_hottest_ids() {
        let s = stack();
        let cache = EncoderCache::build(&counts_single_feature(42), 8, 200, |_, id| {
            Ok(s.infer(&[id]).unwrap().row(0).to_vec())
        })
        .unwrap();
        // 200 bytes / 48-byte entries = 4 entries; hottest id must be in.
        assert!(cache.len() <= 4);
        assert!(cache.get(0, 42).is_some());
        assert!(cache.used_bytes() <= 200);
    }

    #[test]
    fn encoder_cache_hit_matches_full_stack() {
        let s = stack();
        let cache = EncoderCache::build(&counts_single_feature(7), 8, 10_000, |_, id| {
            Ok(s.infer(&[id]).unwrap().row(0).to_vec())
        })
        .unwrap();
        let hit = cache.get(0, 7).unwrap();
        let full = s.infer(&[7]).unwrap();
        assert_eq!(hit, full.row(0));
    }

    #[test]
    fn decoder_cache_recovers_exact_centroid_points() {
        let s = stack();
        let ids: Vec<u64> = (0..64).collect();
        let codes = s.encoder().encode_batch(&ids);
        let cache = DecoderCache::build(&s, &codes, 64, 5).unwrap();
        // With as many centroids as points, each point is (close to) its
        // own centroid, so the approximation is near-exact.
        let code0 = codes.row(0);
        let approx = cache.lookup(code0);
        let exact = s.infer(&[0]).unwrap();
        let err: f32 = approx
            .iter()
            .zip(exact.row(0))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(err < 0.5, "approximation error {err}");
    }

    #[test]
    fn decoder_cache_flops_scale_with_n() {
        let s = stack();
        let ids: Vec<u64> = (0..128).collect();
        let codes = s.encoder().encode_batch(&ids);
        let small = DecoderCache::build(&s, &codes, 8, 3).unwrap();
        let large = DecoderCache::build(&s, &codes, 64, 3).unwrap();
        assert!(large.flops_per_lookup() > small.flops_per_lookup());
        assert_eq!(small.flops_per_lookup(), (2 * 8 * 16) as u64);
    }

    fn one_shard(encoder: Option<EncoderCache>) -> ShardedMpCache {
        let cfg = ShardedCacheConfig { shards: 1, dynamic_entries: 0 };
        ShardedMpCache::new(encoder, None, cfg)
    }

    #[test]
    fn mpcache_counts_hits_and_misses() {
        let s = stack();
        let enc = EncoderCache::build(&counts_single_feature(3), 8, 64, |_, id| {
            Ok(s.infer(&[id]).unwrap().row(0).to_vec())
        })
        .unwrap();
        let cache = one_shard(Some(enc));
        let _ = cache.embed(&s, 0, 3).unwrap(); // hit
        let _ = cache.embed(&s, 0, 99).unwrap(); // miss -> full stack
        let stats = cache.stats();
        assert_eq!(stats.encoder_hits, 1);
        assert_eq!(stats.encoder_misses, 1);
        assert_eq!(stats.encoder_hit_rate(), 0.5);
    }

    #[test]
    fn mpcache_miss_path_without_decoder_is_exact() {
        let s = stack();
        let via_cache = one_shard(None).embed(&s, 0, 55).unwrap();
        let exact = s.infer(&[55]).unwrap();
        assert_eq!(via_cache.as_slice(), exact.row(0));
    }

    use EvictionPolicy::{Fifo, Lru, SegmentedLru};

    /// Serves `id` (feature 0) from `tier` alone, the way
    /// `ablation_cache_policy` drives it: a hit is the policy's `touch`,
    /// a miss runs the full stack and admits. Returns the row, whether
    /// it hit, and whether admitting it evicted.
    fn serve(tier: &mut DynamicTier, s: &DheStack, id: u64) -> (Vec<f32>, bool, bool) {
        if let Some(hit) = tier.touch(0, id) {
            return (hit.to_vec(), true, false);
        }
        let row = s.infer(&[id]).unwrap().row(0).to_vec();
        let evicted = tier.admit(0, id, &row);
        (row, false, evicted)
    }

    #[test]
    fn every_policy_respects_capacity_and_returns_full_stack_rows() {
        let s = stack();
        for policy in [Fifo, Lru, SegmentedLru] {
            let mut tier = DynamicTier::new(policy, 4);
            for id in 0..6u64 {
                let (row, hit, _) = serve(&mut tier, &s, id);
                assert_eq!(row.as_slice(), s.infer(&[id]).unwrap().row(0), "{policy:?}");
                assert!(!hit && tier.len() <= 4, "{policy:?}");
            }
            // The most recent admission is resident and served unchanged.
            let (again, hit, _) = serve(&mut tier, &s, 5);
            assert!(hit, "{policy:?}: recent id should hit");
            assert_eq!(again.as_slice(), s.infer(&[5]).unwrap().row(0));
        }
    }

    #[test]
    fn decoder_cache_rejects_empty_input() {
        let s = stack();
        let empty = Matrix::zeros(0, 16);
        assert!(DecoderCache::build(&s, &empty, 8, 3).is_err());
    }

    fn sharded(shards: usize, dynamic_entries: usize) -> (DheStack, ShardedMpCache) {
        let s = stack();
        let enc = EncoderCache::build(&counts_single_feature(3), 8, 10 * 48, |_, id| {
            Ok(s.infer(&[id]).unwrap().row(0).to_vec())
        })
        .unwrap();
        let cache = ShardedMpCache::new(
            Some(enc),
            None,
            ShardedCacheConfig { shards, dynamic_entries },
        );
        (s, cache)
    }

    #[test]
    fn sharded_static_hits_match_full_stack() {
        let (s, cache) = sharded(4, 0);
        assert_eq!(cache.num_shards(), 4);
        assert_eq!(cache.static_len(), 10);
        let via = cache.embed(&s, 0, 3).unwrap();
        let exact = s.infer(&[3]).unwrap();
        assert_eq!(via.as_slice(), exact.row(0));
        let stats = cache.stats();
        assert_eq!(stats.encoder_hits, 1);
        assert_eq!(stats.encoder_misses, 0);
    }

    #[test]
    fn sharded_miss_path_is_exact_without_decoder() {
        let (s, cache) = sharded(8, 0);
        let via = cache.embed(&s, 0, 999).unwrap();
        let exact = s.infer(&[999]).unwrap();
        assert_eq!(via.as_slice(), exact.row(0));
        assert_eq!(cache.stats().encoder_misses, 1);
        assert_eq!(cache.dynamic_len(), 0, "dynamic tier disabled");
    }

    #[test]
    fn sharded_dynamic_tier_warms_up_and_evicts() {
        let (s, cache) = sharded(1, 2);
        // Two distinct cold IDs fill the 2-entry shard budget.
        let _ = cache.embed(&s, 0, 500).unwrap();
        let _ = cache.embed(&s, 0, 501).unwrap();
        // Re-access hits the dynamic tier.
        let _ = cache.embed(&s, 0, 500).unwrap();
        assert_eq!(cache.stats().dynamic_hits, 1);
        // A third cold ID evicts the FIFO-oldest (500).
        let _ = cache.embed(&s, 0, 502).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.dynamic_len(), 2);
        let _ = cache.embed(&s, 0, 500).unwrap();
        assert_eq!(cache.stats().dynamic_hits, 1, "500 was evicted");
    }

    #[test]
    fn sharded_batch_matches_scalar_path() {
        // Includes duplicate cold IDs (21 appears three times, 25 twice):
        // the batch path must compute each once yet report the same stats
        // as sequential scalar embeds.
        for dynamic_entries in [0usize, 64] {
            let (s, cache) = sharded(4, dynamic_entries);
            let mut ids: Vec<u64> = (0..32).collect();
            ids.extend([21, 25, 21]);
            let batch = cache.embed_batch(&s, 0, &ids).unwrap();
            let (s2, cache2) = sharded(4, dynamic_entries);
            assert_eq!(s.infer(&[0]).unwrap(), s2.infer(&[0]).unwrap());
            for (i, &id) in ids.iter().enumerate() {
                let scalar = cache2.embed(&s2, 0, id).unwrap();
                assert_eq!(batch.row(i), scalar.as_slice(), "id {id}");
            }
            assert_eq!(
                cache.stats(),
                cache2.stats(),
                "dynamic_entries = {dynamic_entries}"
            );
        }
    }

    #[test]
    fn embed_batch_into_matches_embed_batch_and_reuses_buffers() {
        for dynamic_entries in [0usize, 64] {
            let (s, cache) = sharded(4, dynamic_entries);
            let mut ids: Vec<u64> = (0..40).collect();
            ids.extend([7, 33, 7]);
            let (s2, cache2) = sharded(4, dynamic_entries);
            let owned = cache2.embed_batch(&s2, 0, &ids).unwrap();
            let mut scratch = BatchScratch::new();
            let mut out = Matrix::zeros(0, 0);
            cache.embed_batch_into(&s, 0, &ids, &mut scratch, &mut out).unwrap();
            assert_eq!(out, owned, "dynamic_entries = {dynamic_entries}");
            assert_eq!(cache.stats(), cache2.stats());
            // Steady state: a second identical batch reuses the arena.
            let ptr = out.as_slice().as_ptr();
            cache.embed_batch_into(&s, 0, &ids, &mut scratch, &mut out).unwrap();
            assert_eq!(out.as_slice().as_ptr(), ptr, "output arena reused");
        }
    }

    #[test]
    fn admit_recycles_evicted_buffers() {
        // A full dynamic tier keeps serving correct values while staying
        // at its budget (the recycled-allocation path).
        let (s, cache) = sharded(1, 2);
        for id in 500..510u64 {
            let via = cache.embed(&s, 0, id).unwrap();
            let exact = s.infer(&[id]).unwrap();
            assert_eq!(via.as_slice(), exact.row(0), "id {id}");
        }
        assert_eq!(cache.dynamic_len(), 2, "tier pinned at budget");
        assert_eq!(cache.stats().evictions, 8);
    }

    #[test]
    fn small_dynamic_budget_is_not_silently_disabled() {
        // 10 entries over 8 shards must still warm (>= 1 per shard), not
        // floor to zero.
        let (s, cache) = sharded(8, 10);
        let _ = cache.embed(&s, 0, 900).unwrap(); // cold -> admitted
        let _ = cache.embed(&s, 0, 900).unwrap(); // warm hit
        assert_eq!(cache.stats().dynamic_hits, 1);
    }

    #[test]
    fn online_cache_budgets_match_static_build_semantics() {
        // Regression for the ablation's budget parity: the rule that sizes
        // the online tiers rounds the byte budget *down* to whole entries
        // exactly like EncoderCache::build — a sub-entry budget disables
        // the tier instead of silently granting one entry.
        let s = stack();
        for (bytes, want) in [(0u64, 0usize), (47, 0), (144, 3), (192, 4)] {
            let built = EncoderCache::build(&counts_single_feature(1), 8, bytes, |_, id| {
                Ok(s.infer(&[id]).unwrap().row(0).to_vec())
            })
            .unwrap();
            assert_eq!(built.len(), want, "{bytes} B static");
            assert_eq!(EncoderCache::entries_for_budget(8, bytes), want, "{bytes} B online");
        }
    }

    #[test]
    fn zero_budget_online_caches_stay_empty_but_serve() {
        let s = stack();
        let exact = s.infer(&[42]).unwrap();
        for policy in [Fifo, Lru, SegmentedLru] {
            let mut tier = DynamicTier::new(policy, EncoderCache::entries_for_budget(8, 10));
            for _ in 0..2 {
                let (row, hit, _) = serve(&mut tier, &s, 42);
                assert_eq!(row.as_slice(), exact.row(0), "{policy:?}");
                assert!(!hit, "{policy:?}: repeats recompute, never hit");
            }
            assert!(tier.is_empty(), "{policy:?}: disabled tier never stores");
        }
    }

    #[test]
    fn fifo_cache_evicts_in_insertion_order() {
        // A reused id is still FIFO's next victim; the recency policies
        // evict the untouched one instead.
        let s = stack();
        for (policy, survives) in [(Fifo, false), (Lru, true), (SegmentedLru, true)] {
            let mut tier = DynamicTier::new(policy, 2);
            serve(&mut tier, &s, 1);
            serve(&mut tier, &s, 2);
            assert!(serve(&mut tier, &s, 1).1, "{policy:?}: resident id hits");
            assert!(serve(&mut tier, &s, 3).2, "{policy:?}: full tier evicts");
            assert_eq!(tier.len(), 2);
            assert_eq!(serve(&mut tier, &s, 1).1, survives, "{policy:?}");
        }
    }

    #[test]
    fn slru_protects_reused_ids_from_scan_floods() {
        let s = stack();
        for (policy, survives) in [(SegmentedLru, true), (Lru, false), (Fifo, false)] {
            let mut tier = DynamicTier::new(policy, 5);
            serve(&mut tier, &s, 0);
            serve(&mut tier, &s, 0); // probation hit -> protected
            for id in 1..=100u64 {
                serve(&mut tier, &s, id); // one-shot scan flood
            }
            assert!(tier.len() <= 5);
            assert_eq!(serve(&mut tier, &s, 0).1, survives, "{policy:?}");
        }
    }

    #[test]
    fn disk_tier_hits_promote_and_count() {
        let (sd, donor) = sharded(4, 64);
        for id in 200..210u64 {
            let _ = donor.embed(&sd, 0, id).unwrap();
        }
        let seg = donor.export_dynamic_segment(|_| true);
        let (s, cache) = sharded(4, 64);
        let loaded = cache.load_disk_segment(&seg).unwrap();
        assert_eq!(loaded, donor.dynamic_len());
        assert_eq!(cache.disk_len(), loaded);
        let via = cache.embed(&s, 0, 205).unwrap();
        let exact = s.infer(&[205]).unwrap();
        assert_eq!(via.as_slice(), exact.row(0), "disk hit is byte-exact");
        let stats = cache.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.encoder_misses, 0);
        // Promotion: the repeat hits the dynamic tier in RAM.
        let _ = cache.embed(&s, 0, 205).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.dynamic_hits, 1);
        assert_eq!(stats.lookups(), 2);
        cache.clear_disk();
        assert_eq!(cache.disk_len(), 0);
    }

    #[test]
    fn disk_tier_capacity_bounds_each_shard() {
        let (sd, donor) = sharded(1, 64);
        for id in 0..24u64 {
            let _ = donor.embed(&sd, 0, id).unwrap();
        }
        let seg = donor.export_dynamic_segment(|_| true);
        // Ids that hit the static encoder tier never reach the dynamic
        // tier, so derive the exported set from the segment itself.
        let exported: Vec<(usize, u64)> = Segment::from_bytes(&seg)
            .unwrap()
            .iter()
            .map(|(f, id, _)| (f, id))
            .collect();
        assert!(exported.len() > 8, "need enough records to overflow the bound");
        let (_, cache) = sharded(1, 64);
        cache.set_disk_capacity(6);
        cache.load_disk_segment(&seg).unwrap();
        // One shard, bounded to 6 records: only the 6 newest survive.
        assert_eq!(cache.disk_len(), 6);
        let mut buf = Vec::new();
        for &(f, id) in &exported[exported.len() - 6..] {
            assert!(cache.shard(f, id).disk.read().get_into(f, id, &mut buf));
        }
        let (f0, id0) = exported[0];
        assert!(!cache.shard(f0, id0).disk.read().get_into(f0, id0, &mut buf));
        // Tightening an already-loaded tier evicts immediately; clearing
        // keeps the bound for the next load.
        cache.set_disk_capacity(2);
        assert_eq!(cache.disk_len(), 2);
        cache.clear_disk();
        assert_eq!(cache.disk_len(), 0);
        cache.load_disk_segment(&seg).unwrap();
        assert_eq!(cache.disk_len(), 2);
        // Unbounding (0) restores unbounded loads.
        cache.set_disk_capacity(0);
        cache.clear_disk();
        cache.load_disk_segment(&seg).unwrap();
        assert_eq!(cache.disk_len(), exported.len());
    }

    #[test]
    fn sharded_batch_matches_scalar_with_disk_tier() {
        for dynamic_entries in [0usize, 64] {
            let (sd, donor) = sharded(4, 64);
            for id in 0..20u64 {
                let _ = donor.embed(&sd, 0, id).unwrap();
            }
            let seg = donor.export_dynamic_segment(|_| true);
            let (s, cache) = sharded(4, dynamic_entries);
            cache.load_disk_segment(&seg).unwrap();
            let (s2, cache2) = sharded(4, dynamic_entries);
            cache2.load_disk_segment(&seg).unwrap();
            let mut ids: Vec<u64> = (0..32).collect();
            ids.extend([21, 25, 21, 5, 5]);
            let batch = cache.embed_batch(&s, 0, &ids).unwrap();
            for (i, &id) in ids.iter().enumerate() {
                let scalar = cache2.embed(&s2, 0, id).unwrap();
                assert_eq!(batch.row(i), scalar.as_slice(), "id {id}");
            }
            assert_eq!(
                cache.stats(),
                cache2.stats(),
                "dynamic_entries = {dynamic_entries}"
            );
            assert!(cache.stats().disk_hits > 0, "disk tier served lookups");
        }
    }

    #[test]
    fn export_respects_the_feature_filter() {
        let s = stack();
        let enc = EncoderCache::build(&counts_single_feature(3), 8, 0, |_, id| {
            Ok(s.infer(&[id]).unwrap().row(0).to_vec())
        })
        .unwrap();
        let cache = ShardedMpCache::new(
            Some(enc),
            None,
            ShardedCacheConfig { shards: 2, dynamic_entries: 32 },
        );
        for id in 0..8u64 {
            let _ = cache.embed(&s, 0, id).unwrap();
            let _ = cache.embed(&s, 1, id).unwrap();
        }
        let seg = cache.export_dynamic_segment(|f| f == 1);
        let (_, fresh) = sharded(2, 32);
        assert_eq!(fresh.load_disk_segment(&seg).unwrap(), 8);
        let mut buf = Vec::new();
        // Only feature 1 entries were shipped.
        assert_eq!(fresh.disk_len(), 8);
        for id in 0..8u64 {
            let hit = fresh
                .shard(1, id)
                .disk
                .read()
                .get_into(1, id, &mut buf);
            assert!(hit, "feature 1 id {id} shipped");
            assert!(!fresh.shard(0, id).disk.read().get_into(0, id, &mut buf));
        }
    }

    #[test]
    fn sharded_concurrent_access_counts_every_lookup() {
        use std::sync::Arc;
        let (s, cache) = sharded(8, 32);
        let s = Arc::new(s);
        let cache = Arc::new(cache);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        let id = (t * 13 + i) % 40;
                        let _ = cache.embed(&s, 0, id).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cache.stats().lookups(), 1000, "no lost or double counts");
    }
}
