//! Three serving contracts stated as paired runs of one cell: the same
//! trace served twice with one knob changed, compared on virtual-time
//! metrics only, so every inequality below is machine-independent.
//!
//! The chaos and migration inequalities are properties of *this* cell
//! (3 nodes, 1 500 steady queries at 1 000 qps, 20 000-row features),
//! not laws of the dispatcher: on `cluster_golden.rs`'s 400-query cells
//! the chaos order inverts (`storm_cfg()`: on 0.46354 vs off 0.42250)
//! and the migration arms tie (`streaming_adaptive_cfg()`: 0.08 = 0.08).
//! Do not shrink the cell or turn the pairs into a property test.

use mprec::data::query::QueryTraceConfig;
use mprec::data::scenario::{self, ChaosConfig, FaultPlan, LoadScenario};
use mprec::runtime::{
    ClusterConfig, ClusterReport, PathKind, RebalanceConfig, RoutePolicy, RuntimeModelConfig,
    TraceConfig,
};

const QUERIES: usize = 1_500;

fn cell(scenario: LoadScenario) -> ClusterConfig {
    ClusterConfig {
        nodes: 3,
        workers_per_node: 1,
        trace: QueryTraceConfig {
            num_queries: QUERIES,
            qps: 1000.0,
            mean_size: 32.0,
            max_size: 512,
            ..QueryTraceConfig::default()
        },
        scenario,
        model: RuntimeModelConfig {
            rows_per_feature: 20_000,
            profile_accesses: 20_000,
            ..RuntimeModelConfig::default()
        },
        ..ClusterConfig::default()
    }
}

fn span_us(cfg: &ClusterConfig) -> f64 {
    scenario::nominal_span_us(cfg.trace.num_queries, cfg.trace.qps)
}

fn serve(cfg: ClusterConfig) -> ClusterReport {
    mprec::runtime::serve(cfg).expect("cluster builds and serves")
}

/// A cluster serve's `outcome` counts SLA violations in virtual time.
fn violation_rate(r: &ClusterReport) -> f64 {
    r.outcome.sla_violation_rate()
}

/// Hedging + brownout on top of the timeout/retry ladder strictly lower
/// the virtual SLA-violation rate under the same `FaultPlan::storm`, and
/// a 1-in-8 sampled flight recorder drops nothing on either arm.
#[test]
fn hardening_lowers_the_violation_rate_under_a_fault_storm() {
    let arm = |chaos: ChaosConfig| {
        let mut cfg = cell(LoadScenario::SteadyPoisson);
        cfg.faults = FaultPlan::storm(cfg.nodes, span_us(&cfg));
        cfg.chaos = chaos;
        cfg.recorder = TraceConfig::sampled(8);
        serve(cfg)
    };
    let on = arm(ChaosConfig::hardened());
    let off = arm(ChaosConfig {
        timeout_mult: ChaosConfig::hardened().timeout_mult,
        ..ChaosConfig::default()
    });
    for (name, r) in [("on", &on), ("off", &off)] {
        assert_eq!(
            r.outcome.completed + r.shed_queries,
            QUERIES as u64,
            "{name}: every query completes or is shed explicitly"
        );
        let dropped = r.trace.as_ref().expect("recorder is on").total_dropped();
        assert_eq!(dropped, 0, "{name}: the sampled recorder dropped events");
    }
    assert_eq!(off.shed_queries, 0, "shedding is a brownout feature");
    assert!(
        violation_rate(&on) < violation_rate(&off),
        "hardening must strictly lower the virtual SLA-violation rate (on {:.5} vs off {:.5})",
        violation_rate(&on),
        violation_rate(&off)
    );
}

/// Streaming chunked handoff (dual-ownership flips, penalty drain,
/// adaptive planner) strictly lowers the virtual SLA-violation rate
/// against the stop-the-world barrier swap on the same hot-key-drift
/// churn trace, and neither drops a query. The route is pinned to the
/// hybrid path, which scatters to the joiner's shard, and the cold-tier
/// penalty is raised so it sits on the routed path instead of being
/// masked by Algorithm 2 falling back to the replicated table path.
#[test]
fn streaming_handoff_lowers_the_violation_rate_against_the_barrier_swap() {
    let arm = |streaming: bool| {
        let mut cfg = cell(LoadScenario::HotKeyDrift { epochs: 6 });
        let span = span_us(&cfg);
        cfg.churn = scenario::node_churn(cfg.nodes, span);
        cfg.route = RoutePolicy::Fixed(PathKind::Hybrid);
        cfg.disk_hit_us = 25.0;
        if streaming {
            cfg.rebalance = RebalanceConfig {
                streaming_chunks: 4,
                drain_us: 0.05 * span,
                adaptive: true,
                adaptive_threshold_us: 50.0,
                adaptive_cooldown_us: 0.02 * span,
                adaptive_max_moves: 1,
            };
        }
        serve(cfg)
    };
    let barrier = arm(false);
    let streaming = arm(true);
    for (name, r) in [("barrier", &barrier), ("streaming", &streaming)] {
        assert_eq!(r.shed_queries, 0, "{name}: no brownout armed, nothing shed");
        assert_eq!(r.outcome.completed, QUERIES as u64, "{name}: every query completes");
    }
    assert_eq!(barrier.migration_steps, 0, "the barrier arm streams nothing");
    assert!(streaming.migration_steps > 0, "the streaming arm flips at least one chunk");
    assert!(
        violation_rate(&streaming) < violation_rate(&barrier),
        "streaming must strictly lower the virtual SLA-violation rate \
         (streaming {:.5} vs barrier {:.5})",
        violation_rate(&streaming),
        violation_rate(&barrier)
    );
}

/// The flight recorder observes the deterministic schedule and never
/// perturbs it: every virtual metric of a churned serve is equal with
/// tracing off and on, and off yields no recording at all.
#[test]
fn the_flight_recorder_leaves_every_virtual_metric_untouched() {
    let arm = |recorder: TraceConfig| {
        let mut cfg = cell(LoadScenario::SteadyPoisson);
        cfg.churn = scenario::node_churn(cfg.nodes, span_us(&cfg));
        cfg.recorder = recorder;
        serve(cfg)
    };
    let off = arm(TraceConfig::default());
    let on = arm(TraceConfig::enabled());
    assert_eq!(off.outcome.completed, on.outcome.completed, "completion count");
    assert_eq!(off.outcome.samples, on.outcome.samples, "sample count");
    assert_eq!(off.outcome.usage, on.outcome.usage, "per-path usage");
    assert_eq!(off.virtual_sla_violations, on.virtual_sla_violations, "virtual SLA accounting");
    assert_eq!(off.path_decisions, on.path_decisions, "routing trail");
    assert!(off.trace.is_none(), "a disabled recorder yields no recording");
    assert!(on.trace.is_some(), "an enabled one does");
}
