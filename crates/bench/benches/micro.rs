//! Criterion micro-benchmarks for the hot kernels of the reproduction:
//! GEMM, embedding gathers, DHE encode/decode, hybrid embedding, MP-Cache
//! lookups, interaction, and scheduler routing.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use mprec_core::mpcache::{
    BatchScratch, DecoderCache, EncoderCache, ShardedCacheConfig, ShardedMpCache,
};
use mprec_core::scheduler::{Scheduler, SchedulerConfig};
use mprec_data::DatasetSpec;
use mprec_embed::{DheConfig, DheStack, EmbeddingTable};
use mprec_nn::{Activation, Mlp};
use mprec_tensor::{Kernel, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn bench_gemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let a = mprec_tensor::init::xavier_uniform(128, 256, &mut rng);
    let b = mprec_tensor::init::xavier_uniform(256, 64, &mut rng);
    c.bench_function("gemm_128x256x64", |bench| {
        bench.iter(|| a.matmul(&b).unwrap())
    });
}

/// Naive vs tiled register-blocked GEMM at the acceptance shape
/// (256x256x256), both through preallocated outputs so the comparison is
/// pure kernel time.
fn bench_gemm_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let a = mprec_tensor::init::xavier_uniform(256, 256, &mut rng);
    let b = mprec_tensor::init::xavier_uniform(256, 256, &mut rng);
    let mut out = Matrix::zeros(256, 256);
    c.bench_function("gemm_256_naive", |bench| {
        bench.iter(|| a.matmul_into_with(&b, &mut out, Kernel::Naive).unwrap())
    });
    c.bench_function("gemm_256_tiled", |bench| {
        bench.iter(|| a.matmul_into_with(&b, &mut out, Kernel::Tiled).unwrap())
    });
}

fn bench_embedding_gather(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let table = EmbeddingTable::new(100_000, 16, &mut rng).unwrap();
    let ids: Vec<u64> = (0..128).map(|i| (i * 771) % 100_000).collect();
    c.bench_function("embedding_gather_128x16", |bench| {
        bench.iter(|| table.forward(&ids).unwrap())
    });
}

fn bench_dhe(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let stack = DheStack::new(
        DheConfig { k: 32, dnn: 48, h: 2, out_dim: 16 },
        0,
        &mut rng,
    )
    .unwrap();
    let ids: Vec<u64> = (0..128).collect();
    c.bench_function("dhe_encode_128xk32", |bench| {
        bench.iter(|| stack.encoder().encode_batch(&ids))
    });
    c.bench_function("dhe_infer_128", |bench| {
        bench.iter(|| stack.infer(&ids).unwrap())
    });
}

fn bench_mlp_forward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mlp = Mlp::new(&[367, 64, 32, 1], Activation::Relu, Activation::Identity, &mut rng)
        .unwrap();
    let x = Matrix::from_fn(128, 367, |r, q| ((r + q) as f32 * 0.01).sin());
    c.bench_function("top_mlp_infer_128", |bench| {
        bench.iter(|| mlp.infer(&x).unwrap())
    });
}

fn bench_mpcache(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let stack = DheStack::new(
        DheConfig { k: 32, dnn: 48, h: 2, out_dim: 16 },
        0,
        &mut rng,
    )
    .unwrap();
    let mut counts = HashMap::new();
    for id in 0..1000u64 {
        counts.insert(id, 1000 - id);
    }
    let enc = EncoderCache::build(&[counts], 16, 64_000, |_, id| {
        Ok(stack.infer(&[id]).unwrap().row(0).to_vec())
    })
    .unwrap();
    let ids: Vec<u64> = (0..4096).collect();
    let codes = stack.encoder().encode_batch(&ids);
    let dec = DecoderCache::build(&stack, &codes, 256, 4).unwrap();
    // The cache that serves, as the paper's static configuration: one
    // shard, no dynamic tier (a miss is never admitted, so it stays a miss).
    let cfg = ShardedCacheConfig { shards: 1, dynamic_entries: 0 };
    let cache = ShardedMpCache::new(Some(enc), Some(dec), cfg);
    c.bench_function("mpcache_hit", |bench| {
        bench.iter(|| cache.embed(&stack, 0, 5).unwrap())
    });
    c.bench_function("mpcache_miss_knn", |bench| {
        bench.iter(|| cache.embed(&stack, 0, 999_999).unwrap())
    });
    // The batch path over 256 cold ids: one shard walk, one encode and
    // one centroid-search GEMM, through warm scratch.
    let cold: Vec<u64> = (1_000_000..1_000_256).collect();
    let (mut scratch, mut out) = (BatchScratch::new(), Matrix::zeros(0, 0));
    c.bench_function("mpcache_batch_miss", |bench| {
        bench.iter(|| cache.embed_batch_into(&stack, 0, &cold, &mut scratch, &mut out).unwrap())
    });
}

fn bench_scheduler(c: &mut Criterion) {
    let spec = DatasetSpec::kaggle_sim(1000);
    let maps = mprec_bench::hw1_mappings(&spec);
    c.bench_function("scheduler_route", |bench| {
        bench.iter_batched(
            || Scheduler::new(maps.clone(), SchedulerConfig::default()),
            |mut s| s.route(128, 10_000.0),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_gemm, bench_gemm_kernels, bench_embedding_gather, bench_dhe, bench_mlp_forward, bench_mpcache, bench_scheduler
);
criterion_main!(benches);
