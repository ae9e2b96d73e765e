//! The one online encoder tier against the three cache types it
//! replaced, and against the cache that serves with it.
//!
//! The pins below were recorded at the parent commit (`4618da3`) from
//! the per-policy FIFO, LRU and segmented-LRU encoder-cache structs on
//! exactly this access sequence (debug and release builds agreed),
//! before those types were deleted: hits as counted by each struct,
//! evictions as `misses - len()` (each of them evicted exactly one entry
//! per miss into a full cache).

use mprec_core::mpcache::{DynamicTier, EvictionPolicy, ShardedCacheConfig, ShardedMpCache};
use mprec_data::zipf::Zipf;
use mprec_embed::{DheConfig, DheStack};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 6000 Zipf(0.9) draws over 5000 ids, alternating between two features.
fn zipf_sequence() -> Vec<(usize, u64)> {
    let z = Zipf::new(5_000, 0.9);
    let mut rng = StdRng::seed_from_u64(2026);
    let seq: Vec<(usize, u64)> = (0..6_000).map(|i| (i % 2, z.sample(&mut rng))).collect();
    // The pins mean nothing on another sequence: fail here, not there.
    let fnv = seq.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &(f, id)| {
        (h ^ (id * 2 + f as u64)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(fnv, 0xb8dd_0300_2cf3_2d7d, "the seeded sequence moved");
    seq
}

/// `(entry budget, policy, hits, evictions)` at a tiny and a mid budget.
const PINS: [(usize, EvictionPolicy, u64, u64); 6] = [
    (4, EvictionPolicy::Fifo, 122, 5874),
    (4, EvictionPolicy::Lru, 126, 5870),
    (4, EvictionPolicy::SegmentedLru, 506, 5490),
    (64, EvictionPolicy::Fifo, 933, 5003),
    (64, EvictionPolicy::Lru, 1111, 4825),
    (64, EvictionPolicy::SegmentedLru, 1779, 4157),
];

/// Drives a tier alone, as `ablation_cache_policy` does: a hit is the
/// policy's `touch`, a miss admits. Returns `(hits, evictions)`.
fn drive(tier: &mut DynamicTier, seq: &[(usize, u64)]) -> (u64, u64) {
    let (mut hits, mut evictions) = (0, 0);
    for &(feature, id) in seq {
        if tier.touch(feature, id).is_some() {
            hits += 1;
        } else if tier.admit(feature, id, &[id as f32]) {
            evictions += 1;
        }
    }
    (hits, evictions)
}

#[test]
fn unified_tier_reproduces_the_deleted_caches_hit_and_eviction_counts() {
    let seq = zipf_sequence();
    for (entries, policy, hits, evictions) in PINS {
        let mut tier = DynamicTier::new(policy, entries);
        assert_eq!(drive(&mut tier, &seq), (hits, evictions), "{policy:?} at {entries} entries");
        assert_eq!(tier.len(), entries, "{policy:?}: a saturated tier sits at its budget");
    }
}

#[test]
fn fifo_tier_and_one_shard_cache_report_the_same_hits_and_evictions() {
    // The ablation's FIFO column *is* the serving tier: a 1-shard cache
    // with nothing but its dynamic tier counts what the bare tier counts.
    let stack = DheStack::new(
        DheConfig { k: 8, dnn: 16, h: 1, out_dim: 4 },
        0,
        &mut StdRng::seed_from_u64(7),
    )
    .expect("valid dhe config");
    let seq = zipf_sequence();
    for entries in [4, 64] {
        let cfg = ShardedCacheConfig { shards: 1, dynamic_entries: entries };
        let cache = ShardedMpCache::new(None, None, cfg);
        for &(feature, id) in &seq {
            cache.embed(&stack, feature, id).expect("embed");
        }
        let served = cache.stats();
        let alone = drive(&mut DynamicTier::new(EvictionPolicy::Fifo, entries), &seq);
        assert_eq!((served.dynamic_hits, served.evictions), alone, "{entries} entries");
        assert_eq!(served.lookups(), seq.len() as u64);
    }
}
