//! Proof that steady-state `RuntimeModel::execute_with` touches the heap
//! zero times: a counting global allocator wraps the system allocator,
//! the model warms its `ScratchSpace` to the high-water mark, and then
//! repeated batches must report an allocation delta of exactly 0.
//!
//! This file holds exactly one `#[test]` because the counter is global:
//! a sibling test allocating concurrently would pollute the delta.
//!
//! The `GlobalAlloc` impl is the one place the workspace needs `unsafe`
//! (the trait itself is unsafe to implement); it only forwards to
//! `std::alloc::System` and bumps relaxed atomics.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mprec_data::scenario::{degrade_mask, ChaosConfig, FaultEvent, FaultKind, FaultPlan};
use mprec_data::traffic::{SlaClass, TenantSpec, TrafficConfig};
use mprec_runtime::{
    Cluster, ClusterConfig, LatencyHistogram, PathKind, RuntimeModel, RuntimeModelConfig,
};
use mprec_trace::{EventRing, TraceEvent};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_execute_makes_zero_heap_allocations() {
    // Tiny ID space + a dynamic tier larger than (features x ids) so a
    // couple of warm-up passes leave every DHE lookup a cache hit; the
    // table path needs no such help (gather is pure copies).
    let cfg = RuntimeModelConfig {
        sparse_features: 2,
        rows_per_feature: 64,
        emb_dim: 8,
        dhe_k: 8,
        dhe_dnn: 16,
        dhe_h: 2,
        top_hidden: vec![16, 8],
        encoder_cache_bytes: 2048,
        decoder_centroids: 0,
        dynamic_cache_entries: 4096,
        profile_accesses: 2_000,
        ..RuntimeModelConfig::default()
    };
    // One shard: the whole dynamic budget serves every key, so all 128
    // possible (feature, id) pairs stay resident once seen.
    let model = RuntimeModel::build(&cfg, 1, 3).unwrap();
    let mut scratch = model.make_scratch();
    let queries: Vec<(u64, u64)> = (0..8u64).map(|q| (q, 16)).collect();

    for path in [PathKind::Table, PathKind::Dhe, PathKind::Hybrid] {
        // Warm-up: grow scratch buffers to their high-water marks and
        // fill the dynamic tier for every ID this trace touches.
        for _ in 0..3 {
            model.execute_with(path, &queries, &mut scratch).unwrap();
        }
        // Measure several windows and require a fully-quiet one: an
        // allocation inherent to execute_with would appear in *every*
        // window, while a stray allocation from the test harness's
        // bookkeeping threads can only pollute some of them.
        let mut min_delta = u64::MAX;
        let mut checksum = 0.0;
        for _ in 0..4 {
            let before = allocations();
            for _ in 0..5 {
                let res = model.execute_with(path, &queries, &mut scratch).unwrap();
                checksum += res.checksum;
            }
            min_delta = min_delta.min(allocations() - before);
        }
        assert!(checksum.is_finite());
        assert_eq!(
            min_delta, 0,
            "path {path}: every 5-batch window performed >= {min_delta} heap allocations"
        );
    }

    // The cluster router's scatter/gather steady state: per-node scratch
    // and partial matrices are reused, the gathered pool and top-MLP
    // scratch recycle, so an executed batch allocates nothing either.
    let cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        cache_shards: 1,
        model: cfg,
        ..ClusterConfig::default()
    })
    .unwrap();
    let mut cluster_scratch = cluster.make_scratch();
    for path in [PathKind::Table, PathKind::Dhe, PathKind::Hybrid] {
        for _ in 0..3 {
            cluster
                .execute_with(path, &queries, &mut cluster_scratch)
                .unwrap();
        }
        let mut min_delta = u64::MAX;
        let mut checksum = 0.0;
        for _ in 0..4 {
            let before = allocations();
            for _ in 0..5 {
                let res = cluster
                    .execute_with(path, &queries, &mut cluster_scratch)
                    .unwrap();
                checksum += res.checksum;
            }
            min_delta = min_delta.min(allocations() - before);
        }
        assert!(checksum.is_finite());
        assert_eq!(
            min_delta, 0,
            "cluster scatter/gather on path {path}: every 5-batch window \
             performed >= {min_delta} heap allocations"
        );
    }

    // The flight recorder's steady state: the event ring is preallocated
    // at construction, records are fixed-size struct writes, and a full
    // ring drops its oldest slot in place — so recording (including the
    // spill path) must allocate nothing.
    let mut ring = EventRing::with_capacity(64);
    for i in 0..128u64 {
        ring.record(TraceEvent::enqueue(i as f64, i, 5));
    }
    assert!(ring.dropped_events() > 0, "spill path is exercised");
    let mut min_delta = u64::MAX;
    for _ in 0..4 {
        let before = allocations();
        for i in 0..64u64 {
            ring.record(TraceEvent::enqueue(i as f64, i, 5));
            ring.record(TraceEvent::complete(i as f64 + 100.0, i, i / 8, 100.0));
        }
        min_delta = min_delta.min(allocations() - before);
    }
    assert_eq!(
        min_delta, 0,
        "recording with tracing enabled: every 128-event window performed \
         >= {min_delta} heap allocations"
    );

    // The chaos plane armed but quiet: the dispatcher scans the fault
    // schedule and consults the brownout gauges on every flush, so with
    // windows that never cover the probed timestamps (and a backlog
    // below every brownout rung) the whole decision path must allocate
    // nothing — injection cost is paid only when a fault actually fires.
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                node: 0,
                from_us: 1e12,
                until_us: 2e12,
                kind: FaultKind::Straggler { factor: 4.0 },
            },
            FaultEvent {
                node: 1,
                from_us: 1e12,
                until_us: 2e12,
                kind: FaultKind::ScatterLoss,
            },
            FaultEvent {
                node: 1,
                from_us: 1e12,
                until_us: 2e12,
                kind: FaultKind::Stall,
            },
        ],
    };
    let chaos = ChaosConfig::hardened();
    let degrade_rank = [2u32, 1, 0];
    let mut completions = [1.0f64, 2.0, 3.0];
    let mut min_delta = u64::MAX;
    let mut acc = 0.0;
    for _ in 0..4 {
        let before = allocations();
        for i in 0..256u64 {
            let t = i as f64 * 10.0;
            acc += plan.straggler_multiplier(0, t) + plan.straggler_multiplier(1, t);
            if plan.drops_leg(0, t, 0) || plan.drops_leg(1, t, 1) {
                acc += 1.0;
            }
            if chaos.sheds(100.0, i) {
                acc += 1.0;
            }
            if chaos.brownout_mask(&degrade_rank, 100.0, &mut completions) {
                acc += 1.0;
            }
        }
        min_delta = min_delta.min(allocations() - before);
    }
    assert!(acc.is_finite());
    assert_eq!(
        min_delta, 0,
        "armed-but-quiet chaos plane: every 256-probe window performed \
         >= {min_delta} heap allocations"
    );

    // Tenant accounting in steady state: per flush the dispatcher looks
    // up the flushing tenant's SLA class, consults its shed ladder and
    // class-pressure mask, and records the per-query virtual latency
    // into that tenant's histogram — none of which may allocate once
    // the histograms have seen their value range.
    let mut batch = TenantSpec::batch("score", 10, 1_000.0);
    batch.sla = SlaClass {
        sla_us: 8_000.0,
        narrow_backlog_us: 1_500.0,
        table_only_backlog_us: 3_000.0,
        shed_backlog_us: 4_500.0,
    };
    let mix = TrafficConfig::new(vec![TenantSpec::ranking("rank", 10, 1_000.0), batch]);
    let classes: Vec<SlaClass> = (0..2).map(|t| mix.class_of(t, 2_500.0)).collect();
    let mut hists = [LatencyHistogram::new(), LatencyHistogram::new()];
    for h in &mut hists {
        // Warm-up: touch every bucket this loop's latencies will hit.
        for i in 0..64u64 {
            h.record(100.0 + i as f64 * 120.0);
        }
    }
    let mut min_delta = u64::MAX;
    let mut acc = 0.0f64;
    for _ in 0..4 {
        let before = allocations();
        for i in 0..256u64 {
            let t = (i % 2) as usize;
            let class = &classes[t];
            let backlog_us = (i % 8) as f64 * 700.0;
            if class.sheds(backlog_us) {
                acc += 1.0;
                continue;
            }
            completions = [1.0, 2.0, 3.0];
            if degrade_mask(
                &degrade_rank,
                backlog_us,
                class.narrow_backlog_us,
                class.table_only_backlog_us,
                &mut completions,
            ) {
                acc += 1.0;
            }
            hists[t].record(100.0 + (i % 64) as f64 * 120.0);
        }
        min_delta = min_delta.min(allocations() - before);
    }
    assert!(acc.is_finite());
    assert!(
        hists[0].count() > 0 && hists[1].count() > 0,
        "both tenants' histograms recorded"
    );
    assert_eq!(
        min_delta, 0,
        "tenant accounting (class ladder + pressure mask + per-tenant \
         histograms): every 256-flush window performed >= {min_delta} \
         heap allocations"
    );
}
