//! Ablation: hot-ID cache policy — the paper's static profiled top-K
//! cache vs online FIFO / LRU / segmented-LRU, at equal byte budgets on
//! the same power-law trace. All four columns share one round-down
//! budget rule (`EncoderCache::entries_for_budget`, zero entries below
//! one entry's cost), so cells compare equal budgets even at the
//! smallest capacities.
//!
//! Every column runs serving code: the static column is a 1-shard
//! `ShardedMpCache` with no dynamic tier, and the online columns drive
//! the `DynamicTier` each serving shard holds — `fifo` with the policy
//! serving uses, `lru` / `slru` with the two it could use instead.

use std::collections::HashMap;

use mprec_bench::SERVING_SCALE;
use mprec_core::mpcache::{
    DynamicTier, EncoderCache, EvictionPolicy, ShardedCacheConfig, ShardedMpCache,
};
use mprec_data::{DatasetSpec, SyntheticDataset};
use mprec_embed::{DheConfig, DheStack};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    mprec_bench::header(
        "ablation_cache_policy",
        "the paper's static top-K cache vs online FIFO/LRU/segmented-LRU on the same trace",
    );
    let samples = mprec_bench::arg_or(1, 15_000usize);
    let spec = DatasetSpec::kaggle_sim(SERVING_SCALE);
    let mut ds = SyntheticDataset::new(spec.clone(), 17);
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = DheConfig { k: 32, dnn: 48, h: 2, out_dim: 16 };
    let stacks: Vec<DheStack> = (0..spec.num_sparse_features())
        .map(|f| DheStack::new(cfg, f, &mut rng).expect("stack"))
        .collect();

    // Profile pass (for the static cache) and evaluation pass.
    let profile = ds.sample_batch(samples);
    let mut counts: Vec<HashMap<u64, u64>> =
        vec![HashMap::new(); spec.num_sparse_features()];
    for (f, col) in profile.sparse.iter().enumerate() {
        for &id in col {
            *counts[f].entry(id).or_insert(0) += 1;
        }
    }
    let eval = ds.sample_batch(samples);

    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>10}",
        "budget", "static", "fifo", "lru", "slru"
    );
    for (label, bytes) in [
        ("2 KB", 2_000u64),
        ("16 KB", 16_000),
        ("64 KB", 64_000),
        ("256 KB", 256_000),
        ("2 MB", 2_000_000),
    ] {
        let static_cache = EncoderCache::build(&counts, 16, bytes, |f, id| {
            Ok(stacks[f].infer(&[id]).expect("infer").row(0).to_vec())
        })
        .expect("build");
        let cfg = ShardedCacheConfig { shards: 1, dynamic_entries: 0 };
        let mp = ShardedMpCache::new(Some(static_cache), None, cfg);
        let entries = EncoderCache::entries_for_budget(16, bytes);
        let mut online = [EvictionPolicy::Fifo, EvictionPolicy::Lru, EvictionPolicy::SegmentedLru]
            .map(|policy| (DynamicTier::new(policy, entries), 0u64));
        let mut accesses = 0u64;
        for (f, col) in eval.sparse.iter().enumerate() {
            for &id in col {
                accesses += 1;
                let row = mp.embed(&stacks[f], f, id).expect("static");
                for (tier, hits) in &mut online {
                    if tier.touch(f, id).is_some() {
                        *hits += 1;
                    } else {
                        tier.admit(f, id, &row);
                    }
                }
            }
        }
        let [fifo, lru, slru] = online.map(|(_, hits)| hits as f64 / accesses as f64 * 100.0);
        println!(
            "{:>10} {:>11.1}% {:>9.1}% {:>9.1}% {:>9.1}%",
            label,
            mp.stats().encoder_hit_rate() * 100.0,
            fifo,
            lru,
            slru
        );
    }
    println!("\n(observed: the online policies' recency bias beats a frequency");
    println!(" snapshot at small budgets — with segmented-LRU shielding reused");
    println!(" IDs from scan floods — while the static cache catches up once");
    println!(" the budget covers the head; the paper's static design also buys");
    println!(" zero eviction work on the serving path)");
}
