//! The dispatcher core against its independent reference, explored
//! rather than sampled.
//!
//! `mprec_serving::dispatch` (driven here by `replay_cluster` over
//! `platforms_as_nodes`, each platform a node) and the
//! `Scheduler`-based `replay` are both pure functions of
//! `(mappings, trace, config)` and share no stateful code: the core
//! keeps its own per-node `free_at` ledger, batching loop and masks,
//! the reference routes through `Scheduler::route_classed_into` +
//! `commit` (one queue per platform) behind its private
//! `drive_batches`. So a thread-free property can hold one to the other
//! bit for bit over random seeds, offered loads, load scenarios,
//! batching budgets and tenant classes — on one node, and on two nodes
//! of different speed — where `sim_vs_runtime.rs`'s engine twins do it
//! for six hand-picked one-node configs, each spinning up worker
//! threads.

use mprec::core::candidates::{CandidateRep, RepRole};
use mprec::core::planner::{Mapping, MappingSet};
use mprec::core::profile::LatencyProfile;
use mprec::data::query::{Query, QueryTraceConfig};
use mprec::data::scenario::{self, LoadScenario};
use mprec::data::traffic::{SlaClass, TenantSpec, TrafficConfig};
use mprec::embed::RepresentationConfig;
use mprec::hwsim::{Platform, WorkloadBuilder};
use mprec::serving::replay::{
    platforms_as_nodes, replay_cluster_traced, replay_traced, ReplayConfig,
};
use mprec::trace::TraceConfig;
use proptest::prelude::*;

/// Three analytic paths per platform — slow accurate hybrid, DHE, fast
/// table fallback — with `overhead_us` fixed cost and `speed` dividing
/// the per-sample cost; `scale` stretches the two DHE-bearing paths so
/// some cases saturate and some do not.
fn mappings(scale: f64, platforms: &[(Platform, f64, f64)]) -> MappingSet {
    let builder = WorkloadBuilder::new("dispatch-props", vec![1000, 1000], 8);
    let sizes: Vec<u64> = vec![1, 16, 64, 256, 1024, 4096];
    let paths = [
        ("hybrid", RepRole::Hybrid, 40.0 * scale, 0.7898),
        ("dhe", RepRole::Dhe, 25.0 * scale, 0.7894),
        ("table", RepRole::Table, 2.0, 0.7879),
    ];
    let mut set = MappingSet {
        platforms: Vec::new(),
        mappings: Vec::new(),
    };
    for (platform_idx, (platform, overhead_us, speed)) in platforms.iter().enumerate() {
        set.platforms.push(platform.clone());
        for &(name, role, per_sample_us, accuracy) in &paths {
            set.mappings.push(Mapping {
                rep: CandidateRep {
                    name: name.into(),
                    role,
                    config: RepresentationConfig::table(8),
                    workload: builder.table(8).expect("workload"),
                    accuracy,
                },
                platform_idx,
                profile: LatencyProfile::from_points(
                    sizes.clone(),
                    sizes
                        .iter()
                        .map(|&n| overhead_us + n as f64 * per_sample_us / speed)
                        .collect(),
                ),
            });
        }
    }
    set
}

/// One CPU node.
fn one_platform(scale: f64) -> MappingSet {
    mappings(scale, &[(Platform::cpu(), 30.0, 1.0)])
}

/// A CPU and a GPU node: the GPU pays a launch overhead and runs each
/// sample 2.5x faster, so small batches favour the CPU and large ones
/// the GPU. Six candidates — more than a `RouteDecision` records costs
/// for.
fn two_platforms(scale: f64) -> MappingSet {
    mappings(
        scale,
        &[(Platform::cpu(), 30.0, 1.0), (Platform::gpu(), 120.0, 2.5)],
    )
}

/// A loose class whose ladder is tight enough to walk narrow ->
/// table-only -> shed under a few milliseconds of backlog.
fn shedding_class() -> SlaClass {
    SlaClass {
        sla_us: 8_000.0,
        narrow_backlog_us: 1_500.0,
        table_only_backlog_us: 3_000.0,
        shed_backlog_us: 4_500.0,
    }
}

/// The trace and the per-tenant classes of one case. One tenant: a
/// legacy single-stream trace under `scenario`, classed strict or
/// shedding. Two or three: an open-loop mix — strict ranking, shedding
/// batch, default loose batch — at `qps` split across the tenants.
fn workload(
    seed: u64,
    qps: f64,
    scenario_pick: usize,
    tenants: usize,
    shed_single: bool,
) -> (Vec<Query>, Vec<SlaClass>) {
    if tenants == 1 {
        let label = ["steady", "diurnal", "flash", "hotkey"][scenario_pick];
        let scenario = LoadScenario::default_of(label).unwrap_or(LoadScenario::SteadyPoisson);
        let trace = scenario::generate(
            QueryTraceConfig {
                num_queries: 300,
                mean_size: 5.0,
                sigma: 1.0,
                max_size: 20,
                qps,
                poisson_arrivals: true,
            },
            scenario,
            seed,
        );
        let classes = if shed_single {
            vec![shedding_class()]
        } else {
            Vec::new()
        };
        return (trace, classes);
    }
    let per_tenant = qps / tenants as f64;
    let mut shedding = TenantSpec::batch("score", 120, per_tenant);
    shedding.sla = shedding_class();
    let mut specs = vec![TenantSpec::ranking("rank", 150, per_tenant), shedding];
    if tenants == 3 {
        specs.push(TenantSpec::batch("bulk", 90, per_tenant));
    }
    for spec in &mut specs {
        // A small user population: the default 2^20..2^22-entry Zipf
        // tables would dominate the case.
        spec.users = 1 << 10;
    }
    let mix = TrafficConfig::new(specs);
    let classes = mix.tenants.iter().map(|t| t.sla).collect();
    (mix.generate(seed), classes)
}

/// Serves `trace` through the core over `platforms_as_nodes(set)` and
/// through the reference, and demands the same batches, decisions,
/// `done_us` bits, tenant rows, outcome and pinned trace events.
fn core_matches_reference(
    set: &MappingSet,
    trace: &[Query],
    cfg: &ReplayConfig,
) -> Result<(), TestCaseError> {
    let (want, want_rec) = replay_traced(set, trace, cfg, TraceConfig::enabled());
    let (got, got_rec) =
        replay_cluster_traced(&platforms_as_nodes(set), trace, cfg, TraceConfig::enabled());

    prop_assert_eq!(got.batches.len(), want.batches.len(), "batch count");
    for (i, (g, w)) in got.batches.iter().zip(&want.batches).enumerate() {
        prop_assert_eq!(g.mapping_idx, w.mapping_idx, "batch {} decision", i);
        prop_assert_eq!(&g.queries, &w.queries, "batch {} members", i);
        prop_assert_eq!(g.done_us.to_bits(), w.done_us.to_bits(), "batch {} done_us", i);
        prop_assert!(g.epoch_idx == 0 && !g.retried, "batch {} left epoch 0", i);
    }
    prop_assert_eq!(&got.tenants, &want.tenants, "per-tenant rows");
    let offered: u64 = got.tenants.iter().map(|t| t.completed + t.shed_queries).sum();
    prop_assert_eq!(offered, trace.len() as u64, "tenant rows partition the trace");
    let (g, w) = (&got.outcome, &want.outcome);
    prop_assert_eq!(g.completed, w.completed);
    prop_assert_eq!(g.samples, w.samples);
    prop_assert_eq!(g.sla_violations, w.sla_violations);
    prop_assert_eq!(&g.usage, &w.usage);
    prop_assert_eq!(g.correct_samples.to_bits(), w.correct_samples.to_bits());
    prop_assert_eq!(g.p99_latency_us.to_bits(), w.p99_latency_us.to_bits());
    prop_assert_eq!(g.span_s.to_bits(), w.span_s.to_bits());

    let (got_rec, want_rec) = (got_rec.expect("core trace"), want_rec.expect("reference trace"));
    got_rec.validate().map_err(TestCaseError::Fail)?;
    want_rec.validate().map_err(TestCaseError::Fail)?;
    let got_events = got_rec.track("dispatcher").expect("core track").pinned_events();
    let want_events = want_rec.track("dispatcher").expect("reference track").pinned_events();
    prop_assert_eq!(got_events.len(), want_events.len(), "pinned event count");
    for (i, (g, w)) in got_events.iter().zip(&want_events).enumerate() {
        prop_assert_eq!(g, w, "pinned event #{}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_node_core_matches_the_scheduler_reference(
        seed in 0u64..1_000_000,
        qps in 1_000.0f64..12_000.0,
        scenario_pick in 0usize..4,
        max_batch_samples in 8usize..96,
        max_batch_wait_us in 200.0f64..4_000.0,
        tenants in 1usize..4,
        shed_single in 0u32..2,
        scale in 0.25f64..2.0,
    ) {
        let (trace, classes) = workload(seed, qps, scenario_pick, tenants, shed_single == 1);
        let cfg = ReplayConfig { sla_us: 2_500.0, max_batch_samples, max_batch_wait_us, classes };
        core_matches_reference(&one_platform(scale), &trace, &cfg)?;
    }

    #[test]
    fn two_node_core_matches_the_scheduler_reference(
        seed in 0u64..1_000_000,
        qps in 1_000.0f64..12_000.0,
        scenario_pick in 0usize..4,
        max_batch_samples in 8usize..96,
        max_batch_wait_us in 200.0f64..4_000.0,
        tenants in 1usize..4,
        shed_single in 0u32..2,
        scale in 0.25f64..2.0,
    ) {
        let (trace, classes) = workload(seed, qps, scenario_pick, tenants, shed_single == 1);
        let cfg = ReplayConfig { sla_us: 2_500.0, max_batch_samples, max_batch_wait_us, classes };
        core_matches_reference(&two_platforms(scale), &trace, &cfg)?;
    }
}
