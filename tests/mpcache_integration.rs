//! MP-Cache integration: the functional cache must agree with the full
//! DHE stack on hits, approximate sensibly via centroids on misses, and
//! show the power-law hit rates the serving model assumes.

use std::collections::HashMap;

use mprec::core::mpcache::{
    DecoderCache, DynamicTier, EncoderCache, EvictionPolicy, ShardedCacheConfig, ShardedMpCache,
};
use mprec::data::zipf::Zipf;
use mprec::data::{DatasetSpec, SyntheticDataset};
use mprec::embed::{DheConfig, DheStack};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn stack(feature: usize) -> DheStack {
    let mut rng = StdRng::seed_from_u64(42);
    DheStack::new(
        DheConfig {
            k: 16,
            dnn: 24,
            h: 2,
            out_dim: 8,
        },
        feature,
        &mut rng,
    )
    .expect("stack")
}

/// The serving cache as the paper's static configuration: one shard, no
/// dynamic tier.
fn static_only(encoder: EncoderCache, decoder: Option<DecoderCache>) -> ShardedMpCache {
    let cfg = ShardedCacheConfig { shards: 1, dynamic_entries: 0 };
    ShardedMpCache::new(Some(encoder), decoder, cfg)
}

/// An LRU [`DynamicTier`] driven alone, counting its own hit rate.
struct LruTier {
    tier: DynamicTier,
    hits: u64,
    accesses: u64,
}

impl LruTier {
    fn new(max_entries: usize) -> Self {
        LruTier { tier: DynamicTier::new(EvictionPolicy::Lru, max_entries), hits: 0, accesses: 0 }
    }

    fn embed(&mut self, stack: &DheStack, id: u64) -> Vec<f32> {
        self.accesses += 1;
        if let Some(hit) = self.tier.touch(0, id) {
            self.hits += 1;
            return hit.to_vec();
        }
        let row = stack.infer(&[id]).expect("infer").row(0).to_vec();
        self.tier.admit(0, id, &row);
        row
    }

    fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.accesses.max(1) as f64
    }
}

#[test]
fn zipf_trace_gives_useful_hit_rates() {
    // Build per-feature access counts from the real synthetic trace and
    // check a modest cache captures a disproportionate share of accesses.
    let spec = DatasetSpec::kaggle_sim(100);
    let mut ds = SyntheticDataset::new(spec.clone(), 5);
    let profile = ds.sample_batch(8_000);
    let mut counts: Vec<HashMap<u64, u64>> = vec![HashMap::new(); 26];
    for (f, col) in profile.sparse.iter().enumerate() {
        for &id in col {
            *counts[f].entry(id).or_insert(0) += 1;
        }
    }
    let stacks: Vec<DheStack> = (0..26).map(stack).collect();
    let cache = EncoderCache::build(&counts, 8, 64_000, |f, id| {
        Ok(stacks[f].infer(&[id]).expect("infer").row(0).to_vec())
    })
    .expect("build");
    // The cached entries fit the budget.
    assert!(cache.used_bytes() <= 64_000);
    let mp = static_only(cache, None);

    let eval = ds.sample_batch(4_000);
    for (f, col) in eval.sparse.iter().enumerate() {
        for &id in col {
            let _ = mp.embed(&stacks[f], f, id).expect("embed");
        }
    }
    let hit = mp.stats().encoder_hit_rate();
    // 64 KB over 26 zipf(0.9) features: a small cache already captures a
    // large fraction of accesses — that's the entire premise of Fig. 16.
    assert!(hit > 0.2, "hit rate {hit} too low for a power-law trace");
}

#[test]
fn cache_hits_are_bit_exact_and_misses_match_stack() {
    let s = stack(0);
    let mut counts: Vec<HashMap<u64, u64>> = vec![HashMap::new()];
    counts[0].insert(1, 100);
    counts[0].insert(2, 50);
    let cache = EncoderCache::build(&counts, 8, 10_000, |_, id| {
        Ok(s.infer(&[id]).expect("infer").row(0).to_vec())
    })
    .expect("build");
    let mp = static_only(cache, None);
    for id in [1u64, 2, 777] {
        let via = mp.embed(&s, 0, id).expect("embed");
        let direct = s.infer(&[id]).expect("infer");
        assert_eq!(via.as_slice(), direct.row(0), "id {id}");
    }
}

#[test]
fn decoder_tier_error_shrinks_with_more_centroids() {
    let s = stack(0);
    let ids: Vec<u64> = (0..2048).collect();
    let codes = s.encoder().encode_batch(&ids);
    let test_ids: Vec<u64> = (5000..5200).collect();
    let test_codes = s.encoder().encode_batch(&test_ids);
    let exact = s.decode(&test_codes).expect("decode");

    let rmse = |n: usize| {
        let dec = DecoderCache::build(&s, &codes, n, 5).expect("build");
        let mut err = 0.0f64;
        for i in 0..test_ids.len() {
            let approx = dec.lookup(test_codes.row(i));
            for (a, b) in approx.iter().zip(exact.row(i)) {
                err += ((a - b) * (a - b)) as f64;
            }
        }
        (err / (test_ids.len() * 8) as f64).sqrt()
    };
    let coarse = rmse(8);
    let fine = rmse(512);
    assert!(
        fine < coarse,
        "more centroids should approximate better: {fine} !< {coarse}"
    );
}

#[test]
fn eviction_under_pressure_stays_within_budget_and_bit_exact() {
    // A cache sized for ~64 entries fed 4K distinct ids must evict
    // constantly, never exceed its entry budget, and still return
    // bit-exact embeddings for whatever it serves.
    let s = stack(0);
    let cap = EncoderCache::entries_for_budget(8, 64 * (16 + 8 * 4));
    assert!(cap >= 32, "budget should admit a meaningful working set");
    let mut cache = LruTier::new(cap);

    for id in 0..4096u64 {
        let via = cache.embed(&s, id);
        let direct = s.infer(&[id]).expect("infer");
        assert_eq!(via.as_slice(), direct.row(0), "id {id}");
        assert!(
            cache.tier.len() <= cap,
            "{} entries exceed the {cap}-entry budget",
            cache.tier.len()
        );
    }
    // A cold uniform sweep over 4K ids through a 64-entry cache is all
    // misses; the hit counter must reflect that.
    assert!(cache.hit_rate() < 0.05, "hit rate {}", cache.hit_rate());

    // After the pressure phase the cache still works: a small hot set
    // re-accessed repeatedly becomes all hits once resident.
    for _ in 0..10 {
        for id in 0..16u64 {
            let _ = cache.embed(&s, id);
        }
    }
    let hot = cache.embed(&s, 3);
    assert_eq!(hot.as_slice(), s.infer(&[3]).expect("infer").row(0));
    assert!(
        cache.hit_rate() > 0.03,
        "re-accessed hot set should lift hit rate, got {}",
        cache.hit_rate()
    );
}

#[test]
fn hit_rate_is_monotone_in_zipf_skew() {
    // Fig. 16's premise: the more skewed the access distribution, the more
    // traffic a fixed-size cache captures. Sweep the Zipf exponent and
    // require the measured hit rate to rise with it.
    let s = stack(0);
    let support = 50_000u64;
    let draws = 30_000usize;
    let mut rates = Vec::new();
    for (i, alpha) in [0.5f64, 0.8, 1.1, 1.4].into_iter().enumerate() {
        let z = Zipf::new(support, alpha);
        let mut rng = StdRng::seed_from_u64(1000 + i as u64);
        let mut cache = LruTier::new(EncoderCache::entries_for_budget(8, 256 * (16 + 8 * 4)));
        for _ in 0..draws {
            let id = z.sample(&mut rng);
            let _ = cache.embed(&s, id);
        }
        rates.push((alpha, cache.hit_rate()));
    }
    for pair in rates.windows(2) {
        let ((a0, r0), (a1, r1)) = (pair[0], pair[1]);
        assert!(
            r1 > r0,
            "hit rate should grow with skew: alpha {a0} -> {r0:.3}, alpha {a1} -> {r1:.3}"
        );
    }
    // Endpoints sanity: near-uniform traffic over 50K ids barely hits a
    // 256-entry cache; alpha=1.4 concentrates most mass on the head.
    assert!(rates[0].1 < 0.2, "alpha 0.5 rate {:.3}", rates[0].1);
    assert!(rates[3].1 > 0.5, "alpha 1.4 rate {:.3}", rates[3].1);
}

#[test]
fn full_hierarchy_prefers_encoder_then_decoder() {
    let s = stack(0);
    let mut counts: Vec<HashMap<u64, u64>> = vec![HashMap::new()];
    counts[0].insert(7, 1000);
    let enc = EncoderCache::build(&counts, 8, 1_000, |_, id| {
        Ok(s.infer(&[id]).expect("infer").row(0).to_vec())
    })
    .expect("enc");
    let ids: Vec<u64> = (0..512).collect();
    let codes = s.encoder().encode_batch(&ids);
    let dec = DecoderCache::build(&s, &codes, 64, 4).expect("dec");
    let mp = static_only(enc, Some(dec));

    let _ = mp.embed(&s, 0, 7).expect("hot id");
    let _ = mp.embed(&s, 0, 99_999).expect("cold id");
    let stats = mp.stats();
    assert_eq!(stats.encoder_hits, 1);
    assert_eq!(stats.encoder_misses, 1);
    assert_eq!(stats.decoder_lookups, 1);
}
