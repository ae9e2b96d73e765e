//! Open-loop load discipline, end to end.
//!
//! Two suites:
//!
//! * **Coordinated-omission regression** — the same overloaded cell is
//!   driven closed-loop (the driver waits for each completion before
//!   sending the next query, measuring latency from the send instant)
//!   and open-loop (arrival timestamps pre-drawn, the queue grows).
//!   The closed-loop driver *must* report a flattering tail — that is
//!   the coordinated-omission artifact — so the open-loop p99 has to
//!   be strictly, and under sustained overload massively, higher. If
//!   this test ever fails the load engine has started politely waiting
//!   on the system under test.
//!
//! * **Tenant-accounting partition (property)** — across seeds, churn,
//!   and chaos, the per-tenant rows must partition the cluster totals
//!   exactly: every query in the trace is exactly one tenant's
//!   completed-or-shed outcome, and violations, samples, and histogram
//!   counts all foot to the cluster-level counters.

// The vendored proptest! macro is a token-muncher; keep bodies in
// helper fns and give the expansion extra headroom.
#![recursion_limit = "512"]

use mprec::core::planner::MappingSet;
use mprec::core::scheduler::{Scheduler, SchedulerConfig};
use mprec::data::query::Query;
use mprec::data::scenario::{self, ChaosConfig, FaultPlan};
use mprec::data::traffic::{SlaClass, TenantSpec, TrafficConfig};
use mprec::runtime::{Cluster, ClusterConfig, RuntimeConfig, RuntimeModelConfig};
use mprec::serving::replay::{replay, ReplayConfig};
use mprec::serving::{PathUsage, ServingOutcome};
use proptest::prelude::*;

fn model_cfg() -> RuntimeModelConfig {
    RuntimeModelConfig {
        sparse_features: 3,
        rows_per_feature: 800,
        emb_dim: 4,
        dhe_k: 8,
        dhe_dnn: 8,
        dhe_h: 1,
        top_hidden: vec![8],
        encoder_cache_bytes: 2_048,
        decoder_centroids: 8,
        dynamic_cache_entries: 0,
        profile_accesses: 3_000,
        ..RuntimeModelConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Coordinated omission
// ---------------------------------------------------------------------------

/// The coordinated-omission trap as a load driver: one query
/// outstanding at a time, the next send gated on the previous
/// completion, latency measured from the *send* instant. Under overload
/// it silently slows its offered rate, so queue delay the intended
/// schedule would have accrued never reaches its tail. Returns
/// `(completed, p99 latency in µs)`.
fn closed_loop_p99(mappings: &MappingSet, trace: &[Query], sla_us: f64) -> (u64, f64) {
    let mut sched = Scheduler::new(mappings.clone(), SchedulerConfig::default());
    let mut completions = Vec::new();
    let mut latencies = Vec::with_capacity(trace.len());
    let mut next_free = 0.0f64;
    for q in trace {
        let send_us = (q.arrival_us as f64).max(next_free);
        sched.advance_to(send_us);
        let decision = sched
            .route_into(q.size as u64, sla_us, &mut completions)
            .expect("mapping set is never empty");
        next_free = sched.commit(&decision);
        latencies.push(next_free - send_us);
    }
    let closed = ServingOutcome::from_latency_samples(
        "closed-loop",
        latencies,
        0,
        0.0,
        0,
        0.0,
        PathUsage::default(),
    );
    (closed.completed, closed.p99_latency_us)
}

/// Open-loop and closed-loop p99 of one cell at the given arrival rate.
fn p99_both_loops(qps: f64) -> (f64, f64) {
    let cfg = RuntimeConfig {
        workers: 1,
        cache_shards: 4,
        model: model_cfg(),
        max_batch_samples: 40,
        seed: 17,
        // Slow virtual compute: capacity sits well below 6k qps, so the
        // high-rate case is genuinely overloaded.
        virtual_gflops: 0.005,
        sla_us: 2_500.0,
        ..RuntimeConfig::default()
    };
    let engine = mprec::runtime::Engine::new(cfg.clone()).expect("engine builds");
    let trace = TrafficConfig::new(vec![TenantSpec::ranking("rank", 800, qps)]).generate(17);
    let rcfg = ReplayConfig {
        sla_us: cfg.sla_us,
        max_batch_samples: cfg.max_batch_samples,
        max_batch_wait_us: cfg.max_batch_wait_us,
        classes: Vec::new(),
    };
    let open = replay(engine.mapping_set(), &trace, &rcfg);
    let (closed_completed, closed_p99) = closed_loop_p99(engine.mapping_set(), &trace, rcfg.sla_us);
    assert_eq!(open.outcome.completed, 800, "open loop completes every query");
    assert_eq!(closed_completed, 800, "closed loop completes every query");
    (open.outcome.p99_latency_us, closed_p99)
}

#[test]
fn closed_loop_hides_the_overload_tail_that_open_loop_measures() {
    // Overloaded: arrivals outpace service even after Algorithm 2 has
    // degraded to its fastest path, the open-loop queue grows without
    // bound, and queueing delay dominates the tail. The closed-loop
    // driver self-throttles to the service rate and never sees that
    // queue — the classic coordinated-omission blind spot.
    let (open_p99, closed_p99) = p99_both_loops(25_000.0);
    assert!(
        open_p99 > closed_p99,
        "open-loop p99 {open_p99:.0}µs must strictly exceed closed-loop \
         p99 {closed_p99:.0}µs on an overloaded cell"
    );
    assert!(
        open_p99 > 5.0 * closed_p99,
        "under sustained overload the hidden queueing tail is not a \
         rounding error: open {open_p99:.0}µs vs closed {closed_p99:.0}µs"
    );

    // Control: at a light rate (far below capacity) neither driver
    // queues, so the two disciplines agree to within batching noise —
    // the overload divergence above is the artifact, not a constant
    // measurement offset.
    let (light_open, light_closed) = p99_both_loops(200.0);
    let light_ratio = light_open / light_closed.max(1.0);
    let overload_ratio = open_p99 / closed_p99.max(1.0);
    assert!(
        light_ratio < 3.0,
        "light load: open {light_open:.0}µs vs closed {light_closed:.0}µs \
         should roughly agree (ratio {light_ratio:.2})"
    );
    assert!(
        overload_ratio > 3.0 * light_ratio,
        "the open/closed gap must be an overload phenomenon \
         (overload ratio {overload_ratio:.2} vs light {light_ratio:.2})"
    );
}

// ---------------------------------------------------------------------------
// Tenant-accounting partition under churn and chaos
// ---------------------------------------------------------------------------

/// A strict interactive tenant plus a loose tenant with a reachable
/// degradation ladder, sized for a fast property case.
fn partition_mix() -> TrafficConfig {
    let mut batch = TenantSpec::batch("score", 100, 1_500.0);
    batch.sla = SlaClass {
        sla_us: 8_000.0,
        narrow_backlog_us: 1_500.0,
        table_only_backlog_us: 3_000.0,
        shed_backlog_us: 4_500.0,
    };
    TrafficConfig::new(vec![TenantSpec::ranking("rank", 150, 4_000.0), batch])
}

/// One property case: a churned (and optionally chaotic) cluster serve
/// whose per-tenant rows must foot exactly to the cluster totals.
fn check_tenant_partition(seed: u64, chaos_on: bool) -> Result<(), TestCaseError> {
    let mix = partition_mix();
    let span = mix
        .tenants
        .iter()
        .map(|t| scenario::nominal_span_us(t.queries, t.qps))
        .fold(0.0, f64::max);
    let cfg = ClusterConfig {
        nodes: 3,
        workers_per_node: 2,
        cache_shards: 4,
        model: model_cfg(),
        tenants: mix.clone(),
        churn: scenario::node_churn(3, span),
        faults: if chaos_on {
            FaultPlan::generate(3, span, seed)
        } else {
            FaultPlan::default()
        },
        chaos: if chaos_on { ChaosConfig::hardened() } else { ChaosConfig::default() },
        max_batch_samples: 40,
        seed,
        virtual_gflops: 0.005,
        sla_us: 2_500.0,
        ..ClusterConfig::default()
    };
    let report = Cluster::new(cfg).expect("cluster builds").serve().expect("cluster serves");

    let total = mix.total_queries() as u64;
    let mut completed = 0u64;
    let mut samples = 0u64;
    let mut shed = 0u64;
    let mut violations = 0u64;
    for row in &report.tenants {
        prop_assert!(
            row.virtual_sla_violations <= row.completed,
            "tenant {}: violations bounded by completions",
            row.tenant
        );
        prop_assert_eq!(
            row.virtual_histogram.count(),
            row.completed,
            "tenant {}: one histogram sample per completed query",
            row.tenant
        );
        completed += row.completed;
        samples += row.samples;
        shed += row.shed_queries;
        violations += row.virtual_sla_violations;
    }
    prop_assert_eq!(completed, report.outcome.completed, "completed partition");
    prop_assert_eq!(samples, report.outcome.samples, "sample partition");
    prop_assert_eq!(shed, report.shed_queries, "shed partition");
    prop_assert_eq!(violations, report.virtual_sla_violations, "violation partition");
    prop_assert_eq!(
        completed + shed,
        total,
        "every query is exactly one tenant's completed-or-shed outcome"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn tenant_rows_partition_cluster_totals_under_churn_and_chaos(
        seed in 0u64..10_000,
        chaos_on in any::<bool>(),
    ) {
        check_tenant_partition(seed, chaos_on)?;
    }
}
