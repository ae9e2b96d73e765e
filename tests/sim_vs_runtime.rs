//! Differential sim-vs-runtime harness: the discrete-event replay
//! simulator (`mprec-serving::replay`) and the real multi-threaded
//! runtime (`mprec-runtime`) implement the *same serving contract*
//! (micro-batching, Algorithm-2 routing, virtual-time SLA accounting)
//! independently. On identical traces and configs they must agree
//! exactly on:
//!
//! * outcome counts — completed queries, samples, virtual SLA
//!   violations, per-path usage, correct samples (bit-equal: both sides
//!   accumulate in dispatch order);
//! * the per-batch path-selection decision trail;
//! * MP-Cache hit/miss/eviction counters, predicted by replaying the
//!   simulator's batch trail against a twin cache with the runtime's
//!   own deterministic ID draws.
//!
//! Any drift between the simulated and executed serving stacks fails
//! here before it can skew a paper figure.

use mprec::data::query::QueryTraceConfig;
use mprec::data::scenario::{self, ChurnAction, LoadScenario};
use mprec::data::traffic::{SlaClass, TenantSpec, TrafficConfig};
use mprec::runtime::{
    serve, Cluster, ClusterConfig, ClusterReport, PathKind, RebalanceConfig, RuntimeConfig,
    RuntimeModel, RuntimeModelConfig, TenantReport,
};
use mprec::serving::replay::{
    replay, replay_cluster, replay_cluster_traced, replay_traced, ClusterReplayResult,
    ReplayConfig, ReplayResult, TenantOutcome,
};
use mprec::trace::{EventKind, TraceConfig, TraceRecording};

fn model_cfg(dynamic_entries: usize) -> RuntimeModelConfig {
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
        dynamic_cache_entries: dynamic_entries,
        profile_accesses: 3_000,
        ..RuntimeModelConfig::default()
    }
}

fn runtime_cfg(workers: usize, dynamic_entries: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        cache_shards: 4,
        trace: QueryTraceConfig {
            num_queries: 600,
            mean_size: 5.0,
            sigma: 1.0,
            max_size: 20,
            qps: 4000.0,
            poisson_arrivals: true,
        },
        model: model_cfg(dynamic_entries),
        max_batch_samples: 40,
        seed: 17,
        // Slow virtual compute + a tight SLA so routing actually
        // switches paths (hybrid early, table under backlog) and
        // violations occur — the agreement is then non-trivial.
        virtual_gflops: 0.01,
        sla_us: 2_500.0,
        ..RuntimeConfig::default()
    }
}

/// Runs the runtime engine and the replay simulator on one config and
/// returns both results plus the path list of the shared mapping set.
fn run_both(cfg: RuntimeConfig) -> (ClusterReport, ReplayResult, Vec<PathKind>) {
    let engine = mprec::runtime::Engine::new(cfg.clone()).expect("engine builds");
    let report = engine.serve().expect("runtime serves");
    let trace = scenario::generate(cfg.trace, cfg.scenario, cfg.seed);
    let sim = replay(
        engine.mapping_set(),
        &trace,
        &ReplayConfig {
            sla_us: cfg.sla_us,
            max_batch_samples: cfg.max_batch_samples,
            max_batch_wait_us: cfg.max_batch_wait_us,
            classes: Vec::new(),
        },
    );
    (report, sim, engine.paths().to_vec())
}

/// Asserts the deterministic (virtual-time) agreement contract.
fn assert_agreement(report: &ClusterReport, sim: &ReplayResult, paths: &[PathKind]) {
    assert_eq!(report.outcome.completed, sim.outcome.completed, "completed");
    assert_eq!(report.outcome.samples, sim.outcome.samples, "samples");
    assert_eq!(
        report.virtual_sla_violations, sim.outcome.sla_violations,
        "virtual SLA violations"
    );
    assert_eq!(report.outcome.usage, sim.outcome.usage, "per-path usage");
    assert_eq!(
        report.outcome.correct_samples, sim.outcome.correct_samples,
        "correct samples accumulate identically"
    );
    let sim_decisions: Vec<PathKind> =
        sim.decisions().iter().map(|&idx| paths[idx]).collect();
    assert_eq!(
        report.path_decisions, sim_decisions,
        "per-batch path-selection trail"
    );
}

/// Predicts the runtime's cache counters by replaying the simulator's
/// batch trail (path + query specs, in dispatch order) against a twin
/// model's cache with the same deterministic ID draws.
fn twin_cache_stats(
    cfg: &RuntimeConfig,
    sim: &ReplayResult,
    paths: &[PathKind],
) -> mprec::core::CacheStats {
    let twin =
        RuntimeModel::build(&cfg.model, cfg.cache_shards, cfg.seed).expect("twin builds");
    let mut scratch = twin.make_scratch();
    let all: Vec<usize> = (0..cfg.model.sparse_features).collect();
    let mut pooled = mprec::tensor::Matrix::default();
    for batch in &sim.batches {
        twin.pool_features_into(
            paths[batch.mapping_idx],
            &batch.queries,
            &all,
            &mut scratch,
            &mut pooled,
        )
        .expect("twin replay");
    }
    twin.cache().stats()
}

#[test]
fn single_worker_runtime_agrees_with_replay_including_dynamic_cache() {
    // One worker executes batches in dispatch order, so even the
    // order-sensitive dynamic tier must match the sequential replay.
    let cfg = runtime_cfg(1, 256);
    let (report, sim, paths) = run_both(cfg.clone());
    assert_eq!(report.outcome.completed, 600);
    assert!(
        report.virtual_sla_violations > 0,
        "config must exercise violations (got none; tighten the SLA)"
    );
    assert!(
        report
            .path_decisions
            .iter()
            .any(|&p| p != report.path_decisions[0]),
        "config must exercise path switching"
    );
    assert_agreement(&report, &sim, &paths);
    assert_eq!(
        report.cache,
        twin_cache_stats(&cfg, &sim, &paths),
        "cache hit/miss/eviction counters"
    );
}

#[test]
fn multi_worker_runtime_agrees_with_replay_on_static_cache_counts() {
    // With the dynamic tier disabled the cache counters are a pure
    // per-key function, so they are worker-interleaving-invariant and
    // must still match the sequential twin exactly.
    let cfg = runtime_cfg(3, 0);
    let (report, sim, paths) = run_both(cfg.clone());
    assert_agreement(&report, &sim, &paths);
    assert_eq!(
        report.cache,
        twin_cache_stats(&cfg, &sim, &paths),
        "static-tier counters are interleaving-invariant"
    );
}

#[test]
fn agreement_holds_across_load_scenarios() {
    for scenario_label in ["diurnal", "flash", "hotkey"] {
        let cfg = RuntimeConfig {
            scenario: LoadScenario::default_of(scenario_label).expect("known scenario"),
            ..runtime_cfg(2, 0)
        };
        let (report, sim, paths) = run_both(cfg.clone());
        assert_eq!(
            report.outcome.completed, 600,
            "{scenario_label}: all queries complete"
        );
        assert_agreement(&report, &sim, &paths);
        assert_eq!(
            report.cache,
            twin_cache_stats(&cfg, &sim, &paths),
            "{scenario_label}: cache counters"
        );
    }
}

fn cluster_cfg(nodes: usize, workers_per_node: usize, dynamic_entries: usize) -> ClusterConfig {
    ClusterConfig {
        nodes,
        workers_per_node,
        cache_shards: 4,
        trace: QueryTraceConfig {
            num_queries: 500,
            mean_size: 5.0,
            sigma: 1.0,
            max_size: 20,
            qps: 4000.0,
            poisson_arrivals: true,
        },
        model: model_cfg(dynamic_entries),
        max_batch_samples: 40,
        seed: 23,
        // Slow virtual compute + a tight SLA: per-node backlogs build up
        // and Algorithm 2 actually switches paths.
        virtual_gflops: 0.005,
        sla_us: 2_500.0,
        ..ClusterConfig::default()
    }
}

/// The canonical churn schedule for these tests: the highest node fails
/// at 40% of the nominal span, a fresh node joins at 70%.
fn churned(mut cfg: ClusterConfig) -> ClusterConfig {
    let span = scenario::nominal_span_us(cfg.trace.num_queries, cfg.trace.qps);
    cfg.churn = scenario::node_churn(cfg.nodes, span);
    cfg
}

/// Runs the elastic cluster and its replay twin on one config.
fn run_cluster_both(cfg: ClusterConfig) -> (Cluster, ClusterReport, ClusterReplayResult) {
    let cluster = Cluster::new(cfg.clone()).expect("cluster builds");
    let report = cluster.serve().expect("cluster serves");
    let trace = scenario::generate(cfg.trace, cfg.scenario, cfg.seed);
    let sim = replay_cluster(
        &cluster.replay_spec(),
        &trace,
        &ReplayConfig {
            sla_us: cfg.sla_us,
            max_batch_samples: cfg.max_batch_samples,
            max_batch_wait_us: cfg.max_batch_wait_us,
            classes: Vec::new(),
        },
    );
    (cluster, report, sim)
}

/// Asserts the cluster's deterministic (virtual-time) agreement
/// contract against the replay twin.
fn assert_cluster_agreement(cluster: &Cluster, report: &ClusterReport, sim: &ClusterReplayResult) {
    assert_eq!(report.outcome.completed, sim.outcome.completed, "completed");
    assert_eq!(report.outcome.samples, sim.outcome.samples, "samples");
    assert_eq!(
        report.virtual_sla_violations, sim.outcome.sla_violations,
        "virtual SLA violations"
    );
    assert_eq!(report.outcome.usage, sim.outcome.usage, "per-path usage");
    assert_eq!(
        report.outcome.correct_samples, sim.outcome.correct_samples,
        "correct samples accumulate identically"
    );
    let sim_decisions: Vec<PathKind> = sim
        .batches
        .iter()
        .map(|b| cluster.paths()[b.mapping_idx])
        .collect();
    assert_eq!(
        report.path_decisions, sim_decisions,
        "per-batch path-selection trail"
    );
    assert_eq!(
        report.retried_batches, sim.retried_batches,
        "failure-retry accounting"
    );
    assert_eq!(report.shed_queries, sim.shed_queries, "shed-query accounting");
    assert_eq!(report.leg_timeouts, sim.leg_timeouts, "leg-timeout accounting");
    assert_eq!(report.hedged_legs, sim.hedged_legs, "hedged-leg accounting");
    assert_eq!(report.leg_retries, sim.leg_retries, "leg-retry accounting");
}

/// Predicts the cluster's *merged* cache counters with one
/// whole-feature-space twin: every batch executes each feature exactly
/// once somewhere, and with the dynamic tier disabled the counters are
/// per-key pure functions, so the per-node split is invisible to the
/// merged sum — even across churn.
fn merged_twin_stats(
    cfg: &ClusterConfig,
    cluster: &Cluster,
    sim: &ClusterReplayResult,
) -> mprec::core::CacheStats {
    let twin = RuntimeModel::build(&cfg.model, cfg.cache_shards, cfg.seed).expect("twin");
    let mut scratch = twin.make_scratch();
    let all: Vec<usize> = (0..cfg.model.sparse_features).collect();
    let mut pooled = mprec::tensor::Matrix::default();
    for batch in &sim.batches {
        twin.pool_features_into(
            cluster.paths()[batch.mapping_idx],
            &batch.queries,
            &all,
            &mut scratch,
            &mut pooled,
        )
        .expect("twin replay");
    }
    twin.cache().stats()
}

#[test]
fn cluster_runtime_agrees_with_replay_over_its_critical_path_profiles() {
    // The static (no-churn) cluster: the front-end routes over
    // capacity-aware slowest-shard profiles with per-node backlogs and
    // pruned scatter; the replay twin must reproduce its decision trail
    // and outcome counts exactly, and a single merged twin model must
    // predict the summed per-node cache counters.
    let cfg = cluster_cfg(3, 2, 0);
    let (cluster, report, sim) = run_cluster_both(cfg.clone());
    assert_eq!(report.outcome.completed, 500);
    assert!(
        report
            .path_decisions
            .iter()
            .any(|&p| p != report.path_decisions[0]),
        "config must exercise path switching"
    );
    assert_cluster_agreement(&cluster, &report, &sim);
    assert_eq!(report.cache, merged_twin_stats(&cfg, &cluster, &sim));
}

#[test]
fn elastic_cluster_agrees_with_replay_across_node_churn() {
    // One failure + one join mid-trace: epoch switching, shard
    // rebalancing, in-flight retry accounting, and the merged cache
    // counters must all stay in exact sim/runtime lockstep.
    let cfg = churned(cluster_cfg(3, 2, 0));
    let (cluster, report, sim) = run_cluster_both(cfg.clone());
    assert_eq!(report.outcome.completed, 500, "churn loses no query");
    assert_eq!(cluster.epochs().len(), 3, "boot + fail + join epochs");
    assert!(
        report.retried_batches > 0,
        "schedule must catch a batch in flight (tune the fail time)"
    );
    assert_cluster_agreement(&cluster, &report, &sim);
    assert_eq!(
        report.cache,
        merged_twin_stats(&cfg, &cluster, &sim),
        "merged counters survive churn (static tier is replica-pure)"
    );
}

/// Mirrors `Cluster`'s warm-start hand-off between per-node twins: at
/// each join barrier the runtime ships the joiner its newly owned
/// features' dynamic cache entries (old owners' exports land in the
/// joiner's disk tier) before any post-join batch dispatches. Because
/// `sim.batches` is dispatch order and retries only bump `epoch_idx` at
/// fail events, the first batch with `epoch_idx >= join_epoch` marks
/// that barrier exactly.
fn mirror_warm_start(
    cfg: &ClusterConfig,
    cluster: &Cluster,
    ids: &[u32],
    twins: &[RuntimeModel],
    batch_epoch: usize,
    warm_done: &mut [bool],
) {
    for (j, ev) in cfg.churn.iter().enumerate() {
        let join_epoch = j + 1;
        if ev.action != ChurnAction::Join || warm_done[j] || batch_epoch < join_epoch {
            continue;
        }
        warm_done[j] = true;
        let new_plan = &cluster.epochs()[join_epoch].plan;
        let old_plan = &cluster.epochs()[join_epoch - 1].plan;
        let joiner_slot = ids.iter().position(|i| *i == ev.node).expect("joiner twin");
        let mut by_owner: std::collections::BTreeMap<u32, Vec<usize>> =
            std::collections::BTreeMap::new();
        for &f in new_plan.features_of(ev.node) {
            by_owner.entry(old_plan.node_of(f)).or_default().push(f);
        }
        for (owner, feats) in by_owner {
            let slot = ids.iter().position(|i| *i == owner).expect("owner twin");
            // Disk first, dynamic second — mirroring the runtime's
            // hand-off exactly: the receiver's log is last-write-wins
            // and the dynamic tier holds the live values. Shipping the
            // disk tier too is what keeps a twice-migrated feature's
            // parked records alive.
            let disk = twins[slot]
                .cache()
                .export_disk_segment(|f| feats.contains(&f));
            let dynamic = twins[slot]
                .cache()
                .export_dynamic_segment(|f| feats.contains(&f));
            for seg in [disk, dynamic] {
                twins[joiner_slot]
                    .cache()
                    .load_disk_segment(&seg)
                    .expect("exported segment loads");
            }
        }
    }
}

/// Replays the simulator's dispatch-order batch trail against per-node
/// twin models — mirroring the runtime's join-barrier warm-start — and
/// returns each replica's predicted cache counters (in `node_ids`
/// order, alongside those ids).
fn per_node_twin_stats(
    cfg: &ClusterConfig,
    cluster: &Cluster,
    sim: &ClusterReplayResult,
) -> (Vec<u32>, Vec<mprec::core::CacheStats>) {
    let ids = cluster.node_ids();
    let twins: Vec<RuntimeModel> = ids
        .iter()
        .map(|_| RuntimeModel::build(&cfg.model, cfg.cache_shards, cfg.seed).expect("twin"))
        .collect();
    let mut scratches: Vec<_> = twins.iter().map(|t| t.make_scratch()).collect();
    let mut warm_done = vec![false; cfg.churn.len()];
    for batch in &sim.batches {
        mirror_warm_start(cfg, cluster, &ids, &twins, batch.epoch_idx, &mut warm_done);
        let path = cluster.paths()[batch.mapping_idx];
        let assignment = &cluster.epochs()[batch.epoch_idx].assignments[batch.mapping_idx];
        for (node_id, feats) in assignment {
            let slot = ids.iter().position(|i| i == node_id).expect("replica");
            twins[slot]
                .pool_features_into(
                    path,
                    &batch.queries,
                    feats,
                    &mut scratches[slot],
                    &mut mprec::tensor::Matrix::default(),
                )
                .expect("per-node twin replay");
        }
    }
    let stats = twins.iter().map(|t| t.cache().stats()).collect();
    (ids, stats)
}

#[test]
fn per_node_caches_match_per_node_twins_across_churn() {
    // The strongest cache pin: with one worker per node each node
    // executes its scatter jobs in dispatch order, so replaying every
    // batch's *final* (post-retry) per-node assignment against per-node
    // twin models predicts each replica's counters exactly — dynamic
    // tier included, across a failure and a join.
    let cfg = churned(cluster_cfg(3, 1, 256));
    let (cluster, report, sim) = run_cluster_both(cfg.clone());
    assert_cluster_agreement(&cluster, &report, &sim);
    let (ids, twin_stats) = per_node_twin_stats(&cfg, &cluster, &sim);
    for (slot, stats) in twin_stats.iter().enumerate() {
        assert_eq!(
            report.per_node_cache[slot], *stats,
            "node {} counters",
            ids[slot]
        );
    }
}

#[test]
fn warm_started_joiner_serves_disk_hits_that_twins_reproduce() {
    // Three-tier contract, non-vacuously: at the default tight SLA the
    // post-join routing picks the table path and the joiner's cache
    // never sees traffic, so slacken the SLA until the hybrid path
    // survives the join. The joiner then serves real lookups from its
    // warm-started disk tier, and the per-node equality below only
    // holds if the twins mirror the warm-start hand-off and the
    // disk-hit accounting exactly.
    let mut cfg = churned(cluster_cfg(3, 1, 256));
    cfg.sla_us = 10_000.0;
    let (cluster, report, sim) = run_cluster_both(cfg.clone());
    assert_cluster_agreement(&cluster, &report, &sim);

    let joiner = cfg
        .churn
        .iter()
        .find(|ev| ev.action == ChurnAction::Join)
        .expect("schedule has a join")
        .node;
    let (ids, twin_stats) = per_node_twin_stats(&cfg, &cluster, &sim);
    let joiner_slot = ids.iter().position(|i| *i == joiner).expect("joiner");
    assert!(
        report.per_node_cache[joiner_slot].disk_hits > 0,
        "joiner must serve from its warm-started disk tier \
         (got {:?}; slacken the SLA)",
        report.per_node_cache[joiner_slot]
    );
    for (slot, stats) in twin_stats.iter().enumerate() {
        assert_eq!(
            report.per_node_cache[slot], *stats,
            "node {} counters (disk tier included)",
            ids[slot]
        );
    }
}

#[test]
fn retried_batches_are_charged_both_latency_legs() {
    // Regression for the histogram fault-model fix: a retried batch's
    // queries must record the *full* virtual latency (failed attempt +
    // retry leg), not just the retry leg. The runtime's virtual
    // histogram sum is pinned to the replay's per-query totals.
    let cfg = churned(cluster_cfg(3, 2, 0));
    let (cluster, report, sim) = run_cluster_both(cfg.clone());
    assert!(report.retried_batches > 0, "needs an in-flight failure");
    let fail_at = cfg.churn[0].at_us;
    let trace = scenario::generate(cfg.trace, cfg.scenario, cfg.seed);
    let arrival_of: std::collections::HashMap<u64, f64> = trace
        .iter()
        .map(|q| (q.id, q.arrival_us as f64))
        .collect();
    let mut full_sum = 0.0f64;
    let mut retry_leg_only_sum = 0.0f64;
    for batch in &sim.batches {
        for &(qid, _) in &batch.queries {
            let arrival = arrival_of[&qid];
            full_sum += batch.done_us - arrival;
            retry_leg_only_sum += if batch.retried {
                // The buggy accounting: as if the query only existed
                // from the failure instant onward.
                batch.done_us - fail_at.max(arrival)
            } else {
                batch.done_us - arrival
            };
        }
    }
    let recorded = report.virtual_histogram.sum_us();
    assert!(
        (recorded - full_sum).abs() <= 1e-6 * full_sum.abs().max(1.0),
        "virtual histogram sum {recorded} != both-legs sum {full_sum}"
    );
    assert!(
        full_sum > retry_leg_only_sum + 1.0,
        "full accounting must exceed the retry-leg-only sum \
         ({full_sum} vs {retry_leg_only_sum})"
    );
    assert_eq!(report.virtual_histogram.count(), 500, "one sample per query");
    let _ = cluster;
}

#[test]
fn runtime_and_replay_stay_in_lockstep_across_worker_counts() {
    // The replay simulator is worker-oblivious; the runtime must agree
    // with it for every worker count (i.e. worker-count invariance of
    // the deterministic contract, stated differentially).
    let reference = {
        let (_, sim, paths) = run_both(runtime_cfg(1, 0));
        (sim, paths)
    };
    for workers in [2usize, 4] {
        let report = serve(runtime_cfg(workers, 0)).expect("runtime serves");
        assert_agreement(&report, &reference.0, &reference.1);
    }
}

#[test]
fn replay_sees_scenario_load_shapes_through_the_shared_trace() {
    // Same mapping set, different scenarios: the flash-crowd burst must
    // raise virtual SLA violations over steady in *both* stacks (sanity
    // that the differential harness isn't vacuously comparing empty
    // behavior).
    let steady_cfg = runtime_cfg(1, 0);
    let flash_cfg = RuntimeConfig {
        scenario: LoadScenario::FlashCrowd {
            start_frac: 0.3,
            duration_frac: 0.3,
            multiplier: 6.0,
        },
        ..steady_cfg.clone()
    };
    let (steady_rt, steady_sim, _) = run_both(steady_cfg);
    let (flash_rt, flash_sim, _) = run_both(flash_cfg);
    assert!(
        flash_rt.virtual_sla_violations > steady_rt.virtual_sla_violations,
        "runtime: flash {} !> steady {}",
        flash_rt.virtual_sla_violations,
        steady_rt.virtual_sla_violations
    );
    assert!(
        flash_sim.outcome.sla_violations > steady_sim.outcome.sla_violations,
        "sim: flash {} !> steady {}",
        flash_sim.outcome.sla_violations,
        steady_sim.outcome.sla_violations
    );
}

// ---------------------------------------------------------------------------
// Flight-recorder twin agreement: the dispatcher track's pinned events
// (Enqueue/BatchFormed/RouteDecision/Scatter/Execute/Retry/Complete)
// must match between runtime and replay exactly — same kinds, same
// virtual timestamps (bit-equal f64), same decision payloads including
// the rejected candidates' scored costs.
// ---------------------------------------------------------------------------

/// Compares the twin-pinned dispatcher event streams element-for-element.
fn assert_trace_twin_agreement(rt: &TraceRecording, sim: &TraceRecording) {
    rt.validate().expect("runtime recording satisfies its lifecycle invariants");
    sim.validate().expect("replay recording satisfies its lifecycle invariants");
    let rt_track = rt.track("dispatcher").expect("runtime dispatcher track");
    let sim_track = sim.track("dispatcher").expect("replay dispatcher track");
    assert_eq!(rt_track.dropped_events, 0, "runtime dispatcher dropped events");
    assert_eq!(sim_track.dropped_events, 0, "replay dispatcher dropped events");
    let rt_pinned = rt_track.pinned_events();
    let sim_pinned = sim_track.pinned_events();
    assert_eq!(
        rt_pinned.len(),
        sim_pinned.len(),
        "pinned dispatcher event counts (runtime {} vs replay {})",
        rt_pinned.len(),
        sim_pinned.len()
    );
    for (i, (r, s)) in rt_pinned.iter().zip(sim_pinned.iter()).enumerate() {
        assert_eq!(
            r, s,
            "pinned dispatcher event #{i} diverges:\n  runtime: {r:?}\n  replay:  {s:?}"
        );
    }
}

#[test]
fn steady_engine_trace_twins_agree_event_for_event() {
    let cfg = RuntimeConfig {
        recorder: TraceConfig::enabled(),
        ..runtime_cfg(2, 0)
    };
    let engine = mprec::runtime::Engine::new(cfg.clone()).expect("engine builds");
    let report = engine.serve().expect("runtime serves");
    let rt_trace = report.trace.expect("runtime recorded a trace");
    let trace = scenario::generate(cfg.trace, cfg.scenario, cfg.seed);
    let (_, sim_trace) = replay_traced(
        engine.mapping_set(),
        &trace,
        &ReplayConfig {
            sla_us: cfg.sla_us,
            max_batch_samples: cfg.max_batch_samples,
            max_batch_wait_us: cfg.max_batch_wait_us,
            classes: Vec::new(),
        },
        TraceConfig::enabled(),
    );
    let sim_trace = sim_trace.expect("replay recorded a trace");
    assert_trace_twin_agreement(&rt_trace, &sim_trace);

    // Sanity: the agreement is over a non-vacuous lifecycle.
    let dispatcher = rt_trace.track("dispatcher").unwrap();
    let n = cfg.trace.num_queries;
    assert_eq!(dispatcher.events_of(EventKind::Enqueue).count(), n);
    assert_eq!(dispatcher.events_of(EventKind::Complete).count(), n);
    let routes: Vec<_> = dispatcher.events_of(EventKind::RouteDecision).collect();
    assert!(!routes.is_empty(), "route decisions were recorded");
    assert!(
        routes
            .iter()
            .any(|e| e.costs.iter().filter(|c| c.is_finite()).count() > 1),
        "route decisions carry rejected candidates' scored costs"
    );
}

#[test]
fn churned_cluster_trace_twins_agree_event_for_event() {
    let cfg = ClusterConfig {
        recorder: TraceConfig::enabled(),
        ..churned(cluster_cfg(3, 2, 0))
    };
    let cluster = Cluster::new(cfg.clone()).expect("cluster builds");
    let report = cluster.serve().expect("cluster serves");
    let rt_trace = report.trace.expect("cluster recorded a trace");
    let trace = scenario::generate(cfg.trace, cfg.scenario, cfg.seed);
    let (sim, sim_trace) = replay_cluster_traced(
        &cluster.replay_spec(),
        &trace,
        &ReplayConfig {
            sla_us: cfg.sla_us,
            max_batch_samples: cfg.max_batch_samples,
            max_batch_wait_us: cfg.max_batch_wait_us,
            classes: Vec::new(),
        },
        TraceConfig::enabled(),
    );
    let sim_trace = sim_trace.expect("replay recorded a trace");
    assert_trace_twin_agreement(&rt_trace, &sim_trace);

    // Churn must exercise the retry leg in both twins, and the runtime
    // track additionally carries the runtime-only membership events
    // (excluded from the pinned comparison above).
    let rt_disp = rt_trace.track("dispatcher").unwrap();
    let sim_disp = sim_trace.track("dispatcher").unwrap();
    let rt_retries = rt_disp.events_of(EventKind::Retry).count();
    assert!(rt_retries > 0, "churn produced retry legs");
    assert_eq!(
        rt_retries,
        sim_disp.events_of(EventKind::Retry).count(),
        "retry legs agree"
    );
    assert!(sim.retried_batches > 0, "replay charged retried batches");
    assert_eq!(
        rt_disp.events_of(EventKind::EpochBarrier).count(),
        2,
        "fail + join each quiesce an epoch barrier"
    );
    assert_eq!(
        rt_disp.events_of(EventKind::WarmStart).count(),
        1,
        "the joiner warm-started once"
    );
    assert_eq!(
        sim_disp.events_of(EventKind::EpochBarrier).count(),
        0,
        "membership events are runtime-only"
    );
}

#[test]
fn streaming_migration_and_adaptive_replan_twins_agree_event_for_event() {
    // The full elastic path in one trace: the join streams in over
    // chunked dual-ownership flips plus a penalty drain (no barrier
    // swap), and once the static schedule is exhausted the adaptive
    // planner opens at least one overlay epoch under hot-key drift.
    // The replay twin consumes the merged spec — static epochs plus
    // overlays — with no migration-specific logic of its own, and must
    // agree on every virtual-time number and pinned dispatcher event.
    let mut cfg = ClusterConfig {
        recorder: TraceConfig::enabled(),
        scenario: LoadScenario::HotKeyDrift { epochs: 6 },
        ..churned(cluster_cfg(3, 2, 0))
    };
    cfg.rebalance = RebalanceConfig {
        streaming_chunks: 2,
        drain_us: 400.0,
        adaptive: true,
        adaptive_threshold_us: 50.0,
        adaptive_cooldown_us: 4_000.0,
        adaptive_max_moves: 1,
    };
    let cluster = Cluster::new(cfg.clone()).expect("cluster builds");
    let report = cluster.serve().expect("cluster serves");
    let trace = scenario::generate(cfg.trace, cfg.scenario, cfg.seed);
    // replay_spec is read *after* serving so the planner's overlay
    // epochs are part of the shipped contract.
    let (sim, sim_trace) = replay_cluster_traced(
        &cluster.replay_spec(),
        &trace,
        &ReplayConfig {
            sla_us: cfg.sla_us,
            max_batch_samples: cfg.max_batch_samples,
            max_batch_wait_us: cfg.max_batch_wait_us,
            classes: Vec::new(),
        },
        TraceConfig::enabled(),
    );

    assert!(
        cluster.epochs().len() > 3,
        "the join expanded into streaming sub-epochs, got {}",
        cluster.epochs().len()
    );
    assert!(
        report.migration_steps > report.adaptive_replans,
        "at least one chunk flip streamed warm state"
    );
    assert!(
        report.adaptive_replans >= 1,
        "hot-key drift triggered the planner"
    );
    assert_eq!(report.outcome.completed, 500, "no query lost mid-migration");

    assert_cluster_agreement(&cluster, &report, &sim);
    assert_eq!(
        report.cache,
        merged_twin_stats(&cfg, &cluster, &sim),
        "merged counters are plan-invariant across streaming + re-plans"
    );
    let rt_trace = report.trace.as_ref().expect("cluster recorded a trace");
    let sim_trace = sim_trace.expect("replay recorded a trace");
    assert_trace_twin_agreement(rt_trace, &sim_trace);

    // The migration lifecycle itself is runtime-only (like EpochBarrier
    // and WarmStart): window-open plus each re-plan announce a start,
    // every flip and re-plan lands a done.
    let rt_disp = rt_trace.track("dispatcher").unwrap();
    let sim_disp = sim_trace.track("dispatcher").unwrap();
    assert_eq!(
        rt_disp.events_of(EventKind::MigrationStart).count() as u64,
        1 + report.adaptive_replans,
        "one dual-ownership window + one start per re-plan"
    );
    assert_eq!(
        rt_disp.events_of(EventKind::MigrationDone).count() as u64,
        report.migration_steps,
        "every chunk flip and re-plan completes"
    );
    assert_eq!(sim_disp.events_of(EventKind::MigrationStart).count(), 0);
    assert_eq!(sim_disp.events_of(EventKind::MigrationDone).count(), 0);

    // The merged spec keeps the replay shape contract with the overlay
    // epochs appended.
    let spec = cluster.replay_spec();
    assert_eq!(spec.events.len() + 1, spec.epochs.len());
    assert_eq!(report.epochs.len(), spec.epochs.len());
    assert_eq!(
        spec.events.iter().filter_map(|ev| ev.failed).count(),
        1,
        "only the failure retries in-flight batches"
    );
}

// ---------------------------------------------------------------------------
// Chaos plane: deterministic fault injection + lifecycle hardening.
// The fault schedule lives entirely in the config, so the replay twin
// must reproduce every timeout, hedge, backoff retry, and brownout shed
// bit-for-bit from the shipped spec.
// ---------------------------------------------------------------------------

use mprec::data::scenario::{ChaosConfig, FaultEvent, FaultKind, FaultPlan};

/// Arms a fault plan under the fully hardened lifecycle profile.
fn chaotic(mut cfg: ClusterConfig, faults: FaultPlan) -> ClusterConfig {
    cfg.faults = faults;
    cfg.chaos = ChaosConfig::hardened();
    cfg
}

/// Runs both twins with the flight recorder on and pins the complete
/// agreement contract: outcomes, decision trail, chaos counters, and
/// the dispatcher trace event-for-event.
fn assert_chaos_twins(cfg: ClusterConfig) -> (ClusterReport, ClusterReplayResult) {
    let cfg = ClusterConfig {
        recorder: TraceConfig::enabled(),
        ..cfg
    };
    let cluster = Cluster::new(cfg.clone()).expect("cluster builds");
    let report = cluster.serve().expect("cluster serves");
    let trace = scenario::generate(cfg.trace, cfg.scenario, cfg.seed);
    let (sim, sim_trace) = replay_cluster_traced(
        &cluster.replay_spec(),
        &trace,
        &ReplayConfig {
            sla_us: cfg.sla_us,
            max_batch_samples: cfg.max_batch_samples,
            max_batch_wait_us: cfg.max_batch_wait_us,
            classes: Vec::new(),
        },
        TraceConfig::enabled(),
    );
    assert_cluster_agreement(&cluster, &report, &sim);
    let rt_trace = report.trace.as_ref().expect("cluster recorded a trace");
    let sim_trace = sim_trace.expect("replay recorded a trace");
    assert_trace_twin_agreement(rt_trace, &sim_trace);
    (report, sim)
}

#[test]
fn straggler_chaos_twins_agree_event_for_event() {
    let base = cluster_cfg(3, 2, 0);
    let span = scenario::nominal_span_us(base.trace.num_queries, base.trace.qps);
    // Straggle every node: a hedge to a healthy neighbour would finish
    // inside the timeout budget, but with the whole cluster slow the
    // ladder has to walk timeout -> hedge -> backoff retry -> forced
    // completion.
    let faults = FaultPlan {
        events: (0..3)
            .map(|node| FaultEvent {
                node,
                from_us: 0.2 * span,
                until_us: 0.7 * span,
                kind: FaultKind::Straggler { factor: 5.0 },
            })
            .collect(),
    };
    let (report, _) = assert_chaos_twins(chaotic(base, faults));

    // The 5x straggler blows straight through the 3x timeout budget, so
    // the hardened lifecycle must visibly fire on every rung.
    assert!(report.leg_timeouts > 0, "straggler legs timed out");
    assert!(report.hedged_legs > 0, "slow legs were hedged");
    assert!(report.leg_retries > 0, "timed-out legs retried with backoff");
    let rt_trace = report.trace.as_ref().unwrap();
    let disp = rt_trace.track("dispatcher").unwrap();
    assert_eq!(
        disp.events_of(EventKind::Timeout).count() as u64,
        report.leg_timeouts,
        "every leg timeout traced"
    );
    assert_eq!(
        disp.events_of(EventKind::Hedge).count() as u64,
        report.hedged_legs,
        "every hedge traced"
    );
}

#[test]
fn scatter_loss_chaos_twins_agree_event_for_event() {
    let base = cluster_cfg(3, 2, 0);
    let span = scenario::nominal_span_us(base.trace.num_queries, base.trace.qps);
    let faults = FaultPlan {
        events: vec![FaultEvent {
            node: 1,
            from_us: 0.2 * span,
            until_us: 0.6 * span,
            kind: FaultKind::ScatterLoss,
        }],
    };
    let (report, sim) = assert_chaos_twins(chaotic(base, faults));

    // A lost first attempt can never finish, so affected legs must be
    // rescued by the hedge (next ring owner) or the backoff retry.
    assert!(report.hedged_legs > 0, "lost legs were hedged");
    assert!(
        report.leg_timeouts + report.hedged_legs > 0,
        "scatter loss exercised the hardening ladder"
    );
    assert_eq!(
        report.outcome.completed, sim.outcome.completed,
        "no query outcome is silently lost to scatter loss"
    );
}

#[test]
fn fault_storm_twins_agree_and_brownout_sheds_explicitly() {
    let base = cluster_cfg(3, 2, 0);
    let span = scenario::nominal_span_us(base.trace.num_queries, base.trace.qps);
    let mut cfg = chaotic(base, FaultPlan::storm(3, span));
    // Tighten the brownout ladder so the storm's backlog actually walks
    // all three rungs (narrow -> table-only -> shed) inside this trace.
    cfg.chaos.brownout_narrow_us = 1_500.0;
    cfg.chaos.brownout_table_only_us = 3_000.0;
    cfg.chaos.brownout_shed_us = 4_500.0;
    let (report, sim) = assert_chaos_twins(cfg);

    assert!(report.shed_queries > 0, "the storm shed low-priority queries");
    assert_eq!(
        report.outcome.completed + report.shed_queries,
        500,
        "every query either completes or is shed explicitly"
    );
    assert_eq!(report.shed_queries, sim.shed_queries, "twins shed identically");
    let rt_trace = report.trace.as_ref().unwrap();
    let disp = rt_trace.track("dispatcher").unwrap();
    assert_eq!(
        disp.events_of(EventKind::Shed).count() as u64,
        report.shed_queries,
        "every shed is an explicit traced outcome"
    );
}

// ---------------------------------------------------------------------------
// Multi-tenant open-loop traffic: with a `TrafficConfig` mix the
// dispatchers batch per tenant, route each flush through the tenant's
// SLA class (per-class brownout ladder composed with the chaos plane),
// and report per-tenant rows. The replay twins must reproduce every
// per-tenant number exactly — bit-equal latency sums included — and
// the per-tenant rows must partition the trace.
// ---------------------------------------------------------------------------

/// Two-tenant mix: a strict interactive tenant (never class-degraded)
/// and a loose batch tenant whose degradation ladder is tightened so
/// this short overloaded trace actually walks narrow -> table-only ->
/// shed for the loose class only.
fn tenant_mix() -> TrafficConfig {
    let mut batch = TenantSpec::batch("score", 200, 2_500.0);
    batch.sla = SlaClass {
        sla_us: 8_000.0,
        narrow_backlog_us: 1_500.0,
        table_only_backlog_us: 3_000.0,
        shed_backlog_us: 4_500.0,
    };
    TrafficConfig::new(vec![TenantSpec::ranking("rank", 300, 4_000.0), batch])
}

fn tenant_classes(mix: &TrafficConfig) -> Vec<SlaClass> {
    mix.tenants.iter().map(|t| t.sla).collect()
}

/// Pins the per-tenant twin rows field-for-field and checks that the
/// rows partition the trace (every query is exactly one tenant's
/// completed or shed outcome).
fn assert_tenant_twin_agreement(
    rows: &[TenantReport],
    sim_rows: &[TenantOutcome],
    total_queries: u64,
) {
    assert_eq!(rows.len(), sim_rows.len(), "tenant row counts");
    let mut completed_or_shed = 0;
    for (r, s) in rows.iter().zip(sim_rows.iter()) {
        let t = r.tenant;
        assert_eq!(r.completed, s.completed, "tenant {t} completed");
        assert_eq!(r.samples, s.samples, "tenant {t} samples");
        assert_eq!(r.shed_queries, s.shed_queries, "tenant {t} shed queries");
        assert_eq!(
            r.virtual_sla_violations, s.sla_violations,
            "tenant {t} virtual SLA violations"
        );
        assert_eq!(
            r.latency_sum_us.to_bits(),
            s.latency_sum_us.to_bits(),
            "tenant {t} latency sums are bit-equal ({} vs {})",
            r.latency_sum_us,
            s.latency_sum_us
        );
        assert_eq!(
            r.virtual_histogram.count(),
            r.completed,
            "tenant {t}: one histogram sample per completed query"
        );
        completed_or_shed += r.completed + r.shed_queries;
    }
    assert_eq!(
        completed_or_shed, total_queries,
        "per-tenant rows partition the trace"
    );
}

#[test]
fn multi_tenant_engine_twins_agree_per_tenant() {
    let mix = tenant_mix();
    let mut cfg = RuntimeConfig {
        tenants: mix.clone(),
        recorder: TraceConfig::enabled(),
        ..runtime_cfg(2, 0)
    };
    // Pin the per-tenant id skews explicitly so the cache twin below
    // builds the same model the engine normalizes internally.
    cfg.model.tenant_zipf = mix.tenants.iter().map(|t| t.id_zipf).collect();
    let engine = mprec::runtime::Engine::new(cfg.clone()).expect("engine builds");
    let report = engine.serve().expect("runtime serves");
    let trace = mix.generate(cfg.seed);
    let (sim, sim_trace) = replay_traced(
        engine.mapping_set(),
        &trace,
        &ReplayConfig {
            sla_us: cfg.sla_us,
            max_batch_samples: cfg.max_batch_samples,
            max_batch_wait_us: cfg.max_batch_wait_us,
            classes: tenant_classes(&mix),
        },
        TraceConfig::enabled(),
    );
    let paths = engine.paths().to_vec();
    assert_agreement(&report, &sim, &paths);
    let sim_shed: u64 = sim.tenants.iter().map(|t| t.shed_queries).sum();
    assert_eq!(report.shed_queries, sim_shed, "shed accounting");
    assert_tenant_twin_agreement(&report.tenants, &sim.tenants, trace.len() as u64);
    assert_eq!(
        report.cache,
        twin_cache_stats(&cfg, &sim, &paths),
        "cache counters under tenant-packed query ids"
    );
    assert_trace_twin_agreement(
        report.trace.as_ref().expect("runtime recorded a trace"),
        &sim_trace.expect("replay recorded a trace"),
    );

    // Non-vacuity: both tenants served traffic, the strict tenant
    // violated its 2 ms target under this overload, and only the loose
    // class was shed by its tightened ladder.
    let strict = &report.tenants[0];
    let loose = &report.tenants[1];
    assert!(strict.completed > 0 && loose.completed > 0, "both tenants served");
    assert!(
        strict.virtual_sla_violations > 0,
        "strict tenant must see violations (got none; tighten the SLA)"
    );
    assert_eq!(strict.shed_queries, 0, "strict class is never class-shed");
    assert!(
        loose.shed_queries > 0,
        "loose class must shed under this backlog (got none; lower the ladder)"
    );
}

#[test]
fn multi_tenant_cluster_twins_agree_per_tenant_across_churn() {
    let mix = tenant_mix();
    let span = mix
        .tenants
        .iter()
        .map(|t| scenario::nominal_span_us(t.queries, t.qps))
        .fold(0.0, f64::max);
    let mut cfg = cluster_cfg(3, 2, 0);
    cfg.tenants = mix.clone();
    cfg.model.tenant_zipf = mix.tenants.iter().map(|t| t.id_zipf).collect();
    cfg.churn = scenario::node_churn(cfg.nodes, span);
    cfg.recorder = TraceConfig::enabled();
    let cluster = Cluster::new(cfg.clone()).expect("cluster builds");
    let report = cluster.serve().expect("cluster serves");
    let trace = mix.generate(cfg.seed);
    let (sim, sim_trace) = replay_cluster_traced(
        &cluster.replay_spec(),
        &trace,
        &ReplayConfig {
            sla_us: cfg.sla_us,
            max_batch_samples: cfg.max_batch_samples,
            max_batch_wait_us: cfg.max_batch_wait_us,
            classes: tenant_classes(&mix),
        },
        TraceConfig::enabled(),
    );
    assert_cluster_agreement(&cluster, &report, &sim);
    assert_tenant_twin_agreement(&report.tenants, &sim.tenants, trace.len() as u64);
    assert_eq!(
        report.cache,
        merged_twin_stats(&cfg, &cluster, &sim),
        "merged cache counters under tenant-packed ids across churn"
    );
    assert_trace_twin_agreement(
        report.trace.as_ref().expect("cluster recorded a trace"),
        &sim_trace.expect("replay recorded a trace"),
    );

    // The churn epochs and the class ladder must both be live in this
    // run, and class shedding must hit the loose tenant first.
    assert_eq!(cluster.epochs().len(), 3, "boot + fail + join epochs");
    let strict = &report.tenants[0];
    let loose = &report.tenants[1];
    assert!(strict.completed > 0 && loose.completed > 0, "both tenants served");
    assert_eq!(strict.shed_queries, 0, "strict class is never class-shed");
    assert!(
        loose.shed_queries > 0,
        "loose class must shed under churned backlog (got none; lower the ladder)"
    );
}
