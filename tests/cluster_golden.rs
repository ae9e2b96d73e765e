//! Golden pins for the elastic cluster: every deterministic output of
//! four small serves, fingerprinted and committed as constants.
//!
//! The constants were recorded at the commit *before* the dispatcher
//! became one sans-IO core (`mprec_serving::dispatch`) with two drivers
//! — from that commit's threaded `FrontEnd` **and** from its
//! hand-transcribed `replay_cluster`, which already agreed. Both
//! drivers of the one core are held to them here, so the refactor is
//! pinned to the deleted implementations bit for bit rather than to
//! itself: decision trail, per-batch virtual completion and executing
//! epoch, the chaos counters, per-tenant virtual-latency ledgers, the
//! virtual p99, per-node cache counters, and the dispatcher track's
//! pinned events. `sim_vs_runtime.rs` only compares twin to twin and
//! `chaos_determinism.rs` run to run; nothing else pins a *cluster*
//! serve to constants.
//!
//! One worker per node: each node then executes its scatter jobs in
//! dispatch order, so the cache counters are functions of
//! `(config, seed)` alone.

use mprec::data::query::QueryTraceConfig;
use mprec::data::scenario::{self, ChaosConfig, FaultPlan, LoadScenario};
use mprec::data::traffic::{SlaClass, TenantSpec, TrafficConfig};
use mprec::runtime::{Cluster, ClusterConfig, PathKind, RebalanceConfig, RuntimeModelConfig};
use mprec::serving::replay::{replay_cluster_traced, ReplayConfig};
use mprec::trace::{EventKind, TraceConfig, TraceRecording};

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The surface both drivers of the dispatcher core must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Twin {
    /// Micro-batches dispatched.
    batches: usize,
    /// FNV-1a over the mapping index routed per batch.
    decisions: u64,
    /// FNV-1a over per-batch `(done_us bits, exec_epoch)`.
    flights: u64,
    /// `[retried_batches, shed_queries, leg_timeouts, hedged_legs,
    /// leg_retries]`.
    chaos: [u64; 5],
    /// Per tenant: `(completed, shed, violations, latency_sum_us bits)`.
    tenants: Vec<(u64, u64, u64, u64)>,
    /// `outcome.correct_samples` bits (accumulated in dispatch order).
    correct_bits: u64,
    /// Pinned dispatcher events.
    events: usize,
    /// FNV-1a over those events, every field.
    events_fnv: u64,
}

/// One cell's full pin: the twin surface plus what only one driver
/// reports.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    twin: Twin,
    /// Runtime only: `[retried_queries, migration_steps,
    /// adaptive_replans, epochs]`.
    elastic: [u64; 4],
    /// Runtime only: p99 bits of the virtual histogram.
    v_p99_bits: u64,
    /// Runtime only: merged `[encoder_hits, encoder_misses,
    /// decoder_lookups, dynamic_hits, disk_hits, evictions]`.
    cache: [u64; 6],
    /// Replay only: `outcome.p99_latency_us` bits (exact, from samples).
    replay_p99_bits: u64,
}

/// Count and FNV-1a of a recording's pinned dispatcher events, after
/// checking the recording's own lifecycle invariants.
fn events_of(rec: &TraceRecording) -> (usize, u64) {
    rec.validate()
        .expect("recording satisfies its lifecycle invariants");
    let track = rec.track("dispatcher").expect("dispatcher track");
    assert_eq!(track.dropped_events, 0, "ring must hold the whole serve");
    let mut fnv = Fnv::new();
    let pinned = track.pinned_events();
    for e in &pinned {
        fnv.word(e.t_us.to_bits());
        for b in e.kind.label().bytes() {
            fnv.word(u64::from(b));
        }
        fnv.word(e.id);
        fnv.word(u64::from(e.node));
        fnv.word(e.a);
        fnv.word(e.b);
        fnv.word(e.arg.to_bits());
        fnv.word(e.chosen as u64);
        for c in e.costs {
            fnv.word(c.to_bits());
        }
    }
    (pinned.len(), fnv.0)
}

fn model(sparse_features: usize) -> RuntimeModelConfig {
    RuntimeModelConfig {
        sparse_features,
        rows_per_feature: 800,
        emb_dim: 4,
        dhe_k: 8,
        dhe_dnn: 8,
        dhe_h: 1,
        top_hidden: vec![8],
        encoder_cache_bytes: 2_048,
        decoder_centroids: 8,
        dynamic_cache_entries: 256,
        profile_accesses: 3_000,
        ..RuntimeModelConfig::default()
    }
}

fn base_cfg(sparse_features: usize) -> ClusterConfig {
    ClusterConfig {
        nodes: 3,
        workers_per_node: 1,
        cache_shards: 4,
        trace: QueryTraceConfig {
            num_queries: 400,
            mean_size: 5.0,
            sigma: 1.0,
            max_size: 20,
            qps: 4000.0,
            poisson_arrivals: true,
        },
        model: model(sparse_features),
        max_batch_samples: 40,
        seed: 23,
        // Slow virtual compute and a tight SLA: per-node backlogs build
        // up, routing switches paths and violations occur.
        virtual_gflops: 0.005,
        sla_us: 2_500.0,
        recorder: TraceConfig::enabled(),
        ..ClusterConfig::default()
    }
}

/// The canonical schedule: the highest node fails at 40% of the nominal
/// span, a fresh node joins at 70%.
fn churned(mut cfg: ClusterConfig, span_us: f64) -> ClusterConfig {
    cfg.churn = scenario::node_churn(cfg.nodes, span_us);
    cfg
}

fn span_of(cfg: &ClusterConfig) -> f64 {
    scenario::nominal_span_us(cfg.trace.num_queries, cfg.trace.qps)
}

fn churn_cfg() -> ClusterConfig {
    let cfg = base_cfg(3);
    let span = span_of(&cfg);
    churned(cfg, span)
}

fn streaming_adaptive_cfg() -> ClusterConfig {
    let cfg = ClusterConfig {
        scenario: LoadScenario::HotKeyDrift { epochs: 6 },
        // Eight features so the joiner takes at least three (one per
        // chunk); a faster virtual clock keeps hybrid in the mix.
        seed: 5,
        virtual_gflops: 0.01,
        rebalance: RebalanceConfig {
            streaming_chunks: 3,
            drain_us: 400.0,
            adaptive: true,
            adaptive_threshold_us: 50.0,
            adaptive_cooldown_us: 4_000.0,
            adaptive_max_moves: 1,
        },
        ..base_cfg(8)
    };
    let span = span_of(&cfg);
    churned(cfg, span)
}

fn storm_cfg() -> ClusterConfig {
    let mut cfg = base_cfg(3);
    // Enough offered load that hedges land on busy successors: legs
    // then time out and retry instead of always being rescued.
    cfg.trace.qps = 6_000.0;
    let span = span_of(&cfg);
    ClusterConfig {
        faults: FaultPlan::storm(3, span),
        // Brownout rungs tight enough that the storm's backlog walks
        // narrow -> table-only -> shed inside this short trace.
        chaos: ChaosConfig {
            brownout_narrow_us: 1_500.0,
            brownout_table_only_us: 3_000.0,
            brownout_shed_us: 4_500.0,
            ..ChaosConfig::hardened()
        },
        ..cfg
    }
}

/// A strict interactive tenant plus a loose batch tenant whose ladder is
/// tight enough that this short overloaded trace sheds it.
fn tenants_cfg() -> ClusterConfig {
    let mut batch = TenantSpec::batch("score", 160, 2_500.0);
    batch.sla = SlaClass {
        sla_us: 8_000.0,
        narrow_backlog_us: 1_500.0,
        table_only_backlog_us: 3_000.0,
        shed_backlog_us: 4_500.0,
    };
    let mix = TrafficConfig::new(vec![TenantSpec::ranking("rank", 240, 4_000.0), batch]);
    let span = mix
        .tenants
        .iter()
        .map(|t| scenario::nominal_span_us(t.queries, t.qps))
        .fold(0.0, f64::max);
    churned(
        ClusterConfig {
            tenants: mix,
            ..base_cfg(3)
        },
        span,
    )
}

/// Serves `cfg`, replays the served spec, checks that the two drivers
/// agree on the whole twin surface, and returns the cell's pin.
fn golden_of(cfg: ClusterConfig) -> Golden {
    let cluster = Cluster::new(cfg.clone()).expect("cluster builds");
    let report = cluster.serve().expect("cluster serves");
    let trace = if cfg.tenants.is_enabled() {
        cfg.tenants.generate(cfg.seed)
    } else {
        scenario::generate(cfg.trace, cfg.scenario, cfg.seed)
    };
    // Read after serving: the adaptive planner's overlay epochs are part
    // of the spec.
    let (sim, sim_rec) = replay_cluster_traced(
        &cluster.replay_spec(),
        &trace,
        &ReplayConfig {
            sla_us: cfg.sla_us,
            max_batch_samples: cfg.max_batch_samples,
            max_batch_wait_us: cfg.max_batch_wait_us,
            classes: cfg.tenants.tenants.iter().map(|t| t.sla).collect(),
        },
        TraceConfig::enabled(),
    );

    let rt_rec = report.trace.as_ref().expect("recorder was enabled");
    let (events, events_fnv) = events_of(rt_rec);
    let mut decisions = Fnv::new();
    for &p in &report.path_decisions {
        let idx = cluster.paths().iter().position(|&q| q == p);
        decisions.word(idx.expect("routed path") as u64);
    }
    let mut flights = Fnv::new();
    let dispatcher = rt_rec.track("dispatcher").expect("dispatcher track");
    for e in dispatcher.events_of(EventKind::Execute) {
        flights.word(e.arg.to_bits());
        flights.word(e.b);
    }
    let runtime = Twin {
        batches: report.path_decisions.len(),
        decisions: decisions.0,
        flights: flights.0,
        chaos: [
            report.retried_batches,
            report.shed_queries,
            report.leg_timeouts,
            report.hedged_legs,
            report.leg_retries,
        ],
        tenants: report
            .tenants
            .iter()
            .map(|t| {
                (
                    t.completed,
                    t.shed_queries,
                    t.virtual_sla_violations,
                    t.latency_sum_us.to_bits(),
                )
            })
            .collect(),
        correct_bits: report.outcome.correct_samples.to_bits(),
        events,
        events_fnv,
    };

    let (events, events_fnv) = events_of(&sim_rec.expect("replay recorded a trace"));
    let mut decisions = Fnv::new();
    let mut flights = Fnv::new();
    for b in &sim.batches {
        decisions.word(b.mapping_idx as u64);
        flights.word(b.done_us.to_bits());
        flights.word(b.epoch_idx as u64);
    }
    let replay = Twin {
        batches: sim.batches.len(),
        decisions: decisions.0,
        flights: flights.0,
        chaos: [
            sim.retried_batches,
            sim.shed_queries,
            sim.leg_timeouts,
            sim.hedged_legs,
            sim.leg_retries,
        ],
        tenants: sim
            .tenants
            .iter()
            .map(|t| {
                (
                    t.completed,
                    t.shed_queries,
                    t.sla_violations,
                    t.latency_sum_us.to_bits(),
                )
            })
            .collect(),
        correct_bits: sim.outcome.correct_samples.to_bits(),
        events,
        events_fnv,
    };
    assert_eq!(runtime, replay, "the two drivers of the core diverge");
    assert_eq!(report.outcome.usage, sim.outcome.usage, "per-path usage");
    assert!(
        report.path_decisions.iter().any(|&p| p != PathKind::Table)
            && report.path_decisions.contains(&PathKind::Table),
        "the cell must exercise path switching"
    );

    Golden {
        twin: runtime,
        elastic: [
            report.retried_queries,
            report.migration_steps,
            report.adaptive_replans,
            report.epochs.len() as u64,
        ],
        v_p99_bits: report.virtual_histogram.quantile_us(0.99).to_bits(),
        cache: [
            report.cache.encoder_hits,
            report.cache.encoder_misses,
            report.cache.decoder_lookups,
            report.cache.dynamic_hits,
            report.cache.disk_hits,
            report.cache.evictions,
        ],
        replay_p99_bits: sim.outcome.p99_latency_us.to_bits(),
    }
}

#[test]
fn churned_cluster_matches_its_golden_pin() {
    let want = Golden {
        twin: Twin {
            batches: 63,
            decisions: 13489138370573262983,
            flights: 17214481631273891910,
            chaos: [1, 0, 0, 0, 0],
            tenants: vec![(400, 0, 60, 4694568735655487078)],
            correct_bits: 4654805124992991232,
            events: 1056,
            events_fnv: 9358242210383709541,
        },
        elastic: [3, 0, 0, 3],
        v_p99_bits: 4658835276049678336,
        cache: [63, 47, 47, 2, 0, 0],
        replay_p99_bits: 4658679585203185248,
    };
    let got = golden_of(churn_cfg());
    assert_eq!(got, want);
    assert!(got.twin.chaos[0] > 0, "the pin must cover a failure retry");
    assert_eq!(got.elastic[3], 3, "boot + fail + join epochs");
}

#[test]
fn streaming_adaptive_cluster_matches_its_golden_pin() {
    let want = Golden {
        twin: Twin {
            batches: 63,
            decisions: 7767514803743907973,
            flights: 15353335340298844016,
            chaos: [1, 0, 0, 0, 0],
            tenants: vec![(400, 0, 32, 4693770253131526944)],
            correct_bits: 4654448675215376384,
            events: 1062,
            events_fnv: 3396245992698917156,
        },
        elastic: [11, 4, 1, 8],
        v_p99_bits: 4658317439850271785,
        cache: [5, 314, 314, 129, 0, 0],
        replay_p99_bits: 4658183925361383840,
    };
    let got = golden_of(streaming_adaptive_cfg());
    assert_eq!(got, want);
    let [_, migration_steps, adaptive_replans, _] = got.elastic;
    assert!(
        adaptive_replans >= 1,
        "the pin must cover an adaptive re-plan"
    );
    assert_eq!(
        migration_steps - adaptive_replans,
        3,
        "the join streamed in over three chunk flips"
    );
}

#[test]
fn fault_storm_cluster_matches_its_golden_pin() {
    let want = Golden {
        twin: Twin {
            batches: 60,
            decisions: 347958405067535333,
            flights: 16086605916736809961,
            chaos: [0, 16, 4, 6, 3],
            tenants: vec![(384, 16, 178, 4698380702955287356)],
            correct_bits: 4654566442581622784,
            events: 1054,
            events_fnv: 5312899789246796880,
        },
        elastic: [0, 0, 0, 1],
        v_p99_bits: 4666581327048455957,
        cache: [113, 87, 87, 12, 0, 0],
        replay_p99_bits: 4666348129051108972,
    };
    let got = golden_of(storm_cfg());
    assert_eq!(got, want);
    let [_, shed, timeouts, hedges, retries] = got.twin.chaos;
    assert!(
        shed > 0 && timeouts > 0 && hedges > 0 && retries > 0,
        "the pin must cover every rung of the chaos ladder: {:?}",
        got.twin.chaos
    );
}

#[test]
fn two_tenant_churned_cluster_matches_its_golden_pin() {
    let want = Golden {
        twin: Twin {
            batches: 69,
            decisions: 16391112444474569734,
            flights: 7098603589363839416,
            chaos: [2, 26, 0, 0, 0],
            tenants: vec![
                (240, 0, 216, 4697871098213669263),
                (134, 26, 0, 4694165429636458091),
            ],
            correct_bits: 4654981292280774656,
            events: 1103,
            events_fnv: 7997277990512803991,
        },
        elastic: [11, 0, 0, 3],
        v_p99_bits: 4665347338257338586,
        cache: [41, 773, 773, 340, 33, 32],
        replay_p99_bits: 4665094355941955996,
    };
    let got = golden_of(tenants_cfg());
    assert_eq!(got, want);
    assert_eq!(
        got.twin.tenants[0].1, 0,
        "the strict class is never class-shed"
    );
    assert!(
        got.twin.tenants[1].1 > 0,
        "the pin must cover loose-class shedding"
    );
    assert_eq!(got.elastic[3], 3, "boot + fail + join epochs");
}
