//! Cross-thread determinism of the serving runtime: with the same seed
//! and trace, the aggregate `ServingOutcome` counts must be identical
//! regardless of worker count — no query may be lost or double-counted
//! under contention, and virtual-time SLA accounting must not depend on
//! wall-clock scheduling.

use mprec::data::query::QueryTraceConfig;
use mprec::runtime::{serve, ClusterReport, RoutePolicy, RuntimeConfig, RuntimeModelConfig};

fn base_cfg() -> RuntimeConfig {
    RuntimeConfig {
        cache_shards: 8,
        trace: QueryTraceConfig {
            num_queries: 800,
            mean_size: 6.0,
            sigma: 1.0,
            max_size: 24,
            qps: 4000.0,
            poisson_arrivals: true,
        },
        model: RuntimeModelConfig {
            sparse_features: 2,
            rows_per_feature: 1_000,
            emb_dim: 4,
            dhe_k: 8,
            dhe_dnn: 8,
            dhe_h: 1,
            top_hidden: vec![8],
            encoder_cache_bytes: 2_048,
            decoder_centroids: 8,
            dynamic_cache_entries: 128,
            profile_accesses: 4_000,
            ..RuntimeModelConfig::default()
        },
        max_batch_samples: 48,
        seed: 7,
        // Slow virtual compute + a tight SLA so virtual-time violations
        // actually occur and the cross-worker equality is non-trivial.
        virtual_gflops: 0.005,
        sla_us: 2_000.0,
        ..RuntimeConfig::default()
    }
}

fn run_with_workers(workers: usize) -> ClusterReport {
    serve(RuntimeConfig {
        workers,
        ..base_cfg()
    })
    .expect("runtime serves")
}

#[test]
fn outcome_counts_are_identical_across_worker_counts() {
    let reference = run_with_workers(1);
    assert_eq!(
        reference.outcome.completed, 800,
        "every query completes exactly once"
    );
    assert!(
        reference.virtual_sla_violations > 0,
        "test must exercise a non-trivial violation count (got 0; tighten the SLA)"
    );
    for workers in [2usize, 4] {
        let run = run_with_workers(workers);
        assert_eq!(
            run.outcome.completed, reference.outcome.completed,
            "{workers} workers: completed"
        );
        assert_eq!(
            run.outcome.samples, reference.outcome.samples,
            "{workers} workers: samples"
        );
        assert_eq!(
            run.outcome.sla_violations, reference.outcome.sla_violations,
            "{workers} workers: virtual SLA violations"
        );
        assert_eq!(
            run.outcome.usage, reference.outcome.usage,
            "{workers} workers: per-path usage"
        );
        assert_eq!(
            run.outcome.correct_samples, reference.outcome.correct_samples,
            "{workers} workers: correct samples (bit-exact: dispatcher-side sum)"
        );
        assert_eq!(
            run.routed_queries, run.outcome.completed,
            "{workers} workers: routed == completed (nothing lost in the queue)"
        );
        assert_eq!(
            run.histogram.count(),
            run.outcome.completed,
            "{workers} workers: one measured latency per query"
        );
    }
}

#[test]
fn repeated_runs_with_same_seed_agree() {
    let a = run_with_workers(2);
    let b = run_with_workers(2);
    assert_eq!(a.outcome.completed, b.outcome.completed);
    assert_eq!(a.outcome.samples, b.outcome.samples);
    assert_eq!(a.outcome.sla_violations, b.outcome.sla_violations);
    assert_eq!(a.outcome.usage, b.outcome.usage);
    // The model math itself is deterministic per query, so the end-to-end
    // output checksum matches up to floating-point merge order.
    assert!(
        (a.checksum - b.checksum).abs() <= 1e-6 * a.checksum.abs().max(1.0),
        "checksums diverged: {} vs {}",
        a.checksum,
        b.checksum
    );
}

#[test]
fn fixed_path_runs_are_deterministic_too() {
    let mk = |workers| {
        serve(RuntimeConfig {
            workers,
            route: RoutePolicy::Fixed(mprec::runtime::PathKind::Dhe),
            ..base_cfg()
        })
        .expect("runtime serves")
    };
    let a = mk(1);
    let b = mk(4);
    assert_eq!(a.outcome.completed, b.outcome.completed);
    assert_eq!(a.outcome.sla_violations, b.outcome.sla_violations);
    assert_eq!(a.outcome.usage, b.outcome.usage);
}
