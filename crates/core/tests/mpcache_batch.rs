//! The batch path (`ShardedMpCache::embed_batch_into`) through a decoder
//! tier: against the scalar `embed` reference shard by shard, and pinned
//! on a cell where the dynamic tier evicts mid-batch.
//!
//! Batch and scalar agree only while the dynamic tier does not evict
//! mid-batch (the batch admits its misses after all probes), so the
//! evicting cell is held to constants instead. They were recorded from
//! the per-id batch loop (one shard hash, lock and atomic per id) before
//! it became a shard-by-shard walk; never re-record them for a refactor
//! of that loop.

use std::collections::HashMap;

use mprec_core::mpcache::{
    BatchScratch, DecoderCache, EncoderCache, ShardedCacheConfig, ShardedMpCache,
};
use mprec_core::{CacheStats, Segment};
use mprec_data::zipf::Zipf;
use mprec_embed::{DheConfig, DheStack};
use mprec_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn stack() -> DheStack {
    let mut rng = StdRng::seed_from_u64(31);
    DheStack::new(
        DheConfig {
            k: 16,
            dnn: 24,
            h: 1,
            out_dim: 8,
        },
        0,
        &mut rng,
    )
    .expect("valid dhe config")
}

/// 4 shards over `dynamic_entries`, ids 0..6 pinned in the static tier,
/// 24 centroids profiled from ids 0..256 when `decoder`, and every third
/// id of 60..150 on the disk tier.
fn cache(s: &DheStack, dynamic_entries: usize, decoder: bool) -> ShardedMpCache {
    let counts: HashMap<u64, u64> = (0..6u64).map(|id| (id, 100 - id)).collect();
    let enc = EncoderCache::build(&[counts], 8, 6 * (16 + 8 * 4), |_, id| {
        Ok(s.infer(&[id]).expect("infer").row(0).to_vec())
    })
    .expect("static tier");
    let dec = decoder.then(|| {
        let ids: Vec<u64> = (0..256).collect();
        DecoderCache::build(s, &s.encoder().encode_batch(&ids), 24, 4).expect("decoder tier")
    });
    let cache = ShardedMpCache::new(
        Some(enc),
        dec,
        ShardedCacheConfig {
            shards: 4,
            dynamic_entries,
        },
    );
    let mut seg = Segment::new();
    for id in (60..150u64).step_by(3) {
        seg.append(0, id, s.infer(&[id]).expect("infer").row(0));
    }
    cache
        .load_disk_segment(&seg.to_bytes())
        .expect("segment loads");
    cache
}

/// Four 48-id batches of Zipf(0.8) draws over 200 ids: static, disk and
/// repeated cold ids in every batch.
fn batches() -> Vec<Vec<u64>> {
    let z = Zipf::new(200, 0.8);
    let mut rng = StdRng::seed_from_u64(2031);
    (0..4)
        .map(|_| (0..48).map(|_| z.sample(&mut rng)).collect())
        .collect()
}

fn shard_stats(cache: &ShardedMpCache) -> Vec<CacheStats> {
    (0..cache.num_shards())
        .map(|i| cache.shard_stats(i))
        .collect()
}

#[test]
fn decoder_tier_batch_matches_scalar_shard_by_shard() {
    // 0 disables the dynamic tier; 4 * 256 never evicts on this trace.
    let s = stack();
    for dynamic_entries in [0usize, 1024] {
        let batch_cache = cache(&s, dynamic_entries, true);
        let scalar_cache = cache(&s, dynamic_entries, true);
        let (mut scratch, mut out) = (BatchScratch::new(), Matrix::zeros(0, 0));
        for ids in batches() {
            batch_cache
                .embed_batch_into(&s, 0, &ids, &mut scratch, &mut out)
                .expect("batch");
            for (row, &id) in ids.iter().enumerate() {
                let scalar = scalar_cache.embed(&s, 0, id).expect("scalar");
                assert_eq!(
                    out.row(row),
                    scalar.as_slice(),
                    "id {id}, dynamic_entries {dynamic_entries}"
                );
            }
        }
        let stats = shard_stats(&batch_cache);
        assert_eq!(
            stats,
            shard_stats(&scalar_cache),
            "dynamic_entries {dynamic_entries}"
        );
        assert_eq!(
            batch_cache.stats().evictions,
            0,
            "test premise: no evictions"
        );
        let total = batch_cache.stats();
        assert!(
            total.encoder_hits > 0 && total.disk_hits > 0 && total.decoder_lookups > 0,
            "{total:?}"
        );
    }
}

/// `(decoder tier, output rows FNV, per-shard stats, dynamic export FNV)`.
type Pin = (bool, u64, [CacheStats; 4], u64);

const fn stats(e: [u64; 6]) -> CacheStats {
    CacheStats {
        encoder_hits: e[0],
        encoder_misses: e[1],
        decoder_lookups: e[2],
        dynamic_hits: e[3],
        disk_hits: e[4],
        evictions: e[5],
    }
}

/// Debug and release builds agreed on every value.
const PINS: [Pin; 2] = [
    (
        true,
        9675874025762096595,
        [
            stats([0, 23, 23, 7, 2, 23]),
            stats([25, 21, 21, 1, 1, 20]),
            stats([20, 26, 26, 3, 3, 27]),
            stats([23, 26, 26, 6, 5, 29]),
        ],
        9843748973669543399,
    ),
    (
        false,
        13790056732796022629,
        [
            stats([0, 23, 0, 7, 2, 23]),
            stats([25, 21, 0, 1, 1, 20]),
            stats([20, 26, 0, 3, 3, 27]),
            stats([23, 26, 0, 6, 5, 29]),
        ],
        1285202044480242817,
    ),
];

#[test]
fn evicting_batches_match_their_pins() {
    // 2 dynamic entries per shard: admits evict mid-batch, disk hits
    // promote into full tiers, and repeats of a pending cold id count
    // as dynamic hits though the tier may have dropped them.
    let s = stack();
    for (decoder, rows_fnv, want_stats, export_fnv) in PINS {
        let cache = cache(&s, 8, decoder);
        let (mut scratch, mut out) = (BatchScratch::new(), Matrix::zeros(0, 0));
        let mut rows = Fnv::new();
        for ids in batches() {
            cache
                .embed_batch_into(&s, 0, &ids, &mut scratch, &mut out)
                .expect("batch");
            for v in out.as_slice() {
                rows.word(u64::from(v.to_bits()));
            }
        }
        let mut export = Fnv::new();
        for b in cache.export_dynamic_segment(|_| true) {
            export.word(u64::from(b));
        }
        assert!(cache.stats().evictions > 0, "test premise: the tier evicts");
        assert_eq!(
            (rows.0, shard_stats(&cache), export.0),
            (rows_fnv, want_stats.to_vec(), export_fnv),
            "decoder tier: {decoder}"
        );
    }
}
