//! Replays of the *runtime's* serving semantics in virtual time.
//!
//! The multi-threaded runtime (`mprec-runtime`) micro-batches queries
//! under an SLA-aware deadline/size policy and routes whole batches.
//! Two replays of that contract live here, and they are not the same
//! kind of thing:
//!
//! * [`replay_cluster`] / [`replay_cluster_traced`] is a **driver** of
//!   the dispatcher core ([`crate::dispatch`]) with an executor that
//!   does no IO. Over a served cluster's recorded spec it cannot
//!   disagree with the runtime about a decision; `tests/sim_vs_runtime.rs`
//!   uses its batch trail to check what the runtime *executed* (per-node
//!   cache counters through twin models, adaptive overlays reproduced
//!   from the spec). Over [`platforms_as_nodes`] — each platform of a
//!   mapping set a node — it is the paper's serving model:
//!   [`crate::simulate`] runs every figure on it with batching off.
//! * [`replay`] / [`replay_traced`] is the **independent reference**: a
//!   discrete-event implementation over
//!   [`mprec_core::scheduler::Scheduler`] (one FIFO queue per platform)
//!   with its own batching loop. It shares no stateful code with the
//!   dispatcher core, so it can catch a mistake the core makes — the
//!   engine twin tests and the properties in `tests/dispatch_props.rs`
//!   hold the core over [`platforms_as_nodes`] to it bit for bit.
//!
//! # Three-tier cache accounting
//!
//! The MP-Cache's persistent disk tier needs no special-casing here:
//! its latency cost reaches the dispatcher through the mapping profiles
//! themselves (a warm-started joiner's paths arrive pre-penalized via
//! `LatencyProfile::plus_per_sample`). The *hit accounting* is pinned by
//! the harness's twin models instead, which mirror the warm-start
//! hand-off and demand exact per-node equality of static/dynamic/disk
//! hit counters.

use std::cell::RefCell;

use mprec_core::candidates::RepRole;
use mprec_core::planner::MappingSet;
use mprec_core::ring::FeatureShardPlan;
use mprec_core::scheduler::{Scheduler, SchedulerConfig};
use mprec_data::query::Query;
use mprec_data::scenario::{self, ChaosConfig, FaultPlan};
use mprec_data::traffic::SlaClass;
use mprec_trace::{TraceConfig, TraceEvent, TraceRecording};

pub use crate::dispatch::{ClusterChurnSpec, ClusterEpochSpec, ClusterReplaySpec};
use crate::dispatch::{dispatch, DispatchSpec, DispatchTally, Executor, Flight};
use crate::outcome::{PathUsage, ServingOutcome};

/// The dispatcher's micro-batching policy and per-tenant SLA classes —
/// the input both the dispatcher core and the reference replay take.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayConfig {
    /// SLA latency target in microseconds (the default class when
    /// `classes` is empty or a tenant has no entry).
    pub sla_us: f64,
    /// Sample budget: a pending batch flushes at this size.
    pub max_batch_samples: usize,
    /// Deadline: a pending batch flushes this long after its oldest
    /// query arrived.
    pub max_batch_wait_us: f64,
    /// Per-tenant SLA classes, indexed by the query-id tenant field
    /// (mirror of the runtime's `TrafficConfig::class_of`). Empty keeps
    /// the legacy single-class behaviour: every tenant is strict at
    /// `sla_us`, nothing is shed, and no candidate is class-masked.
    pub classes: Vec<SlaClass>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            sla_us: 10_000.0,
            max_batch_samples: 256,
            max_batch_wait_us: 2_000.0,
            classes: Vec::new(),
        }
    }
}

impl ReplayConfig {
    /// The SLA class governing `tenant`'s batches: its `classes` entry,
    /// or a strict class at `sla_us` (identical to the runtime's
    /// fallback for legacy traffic and out-of-range tenant fields).
    pub fn class_of(&self, tenant: usize) -> SlaClass {
        self.classes
            .get(tenant)
            .copied()
            .unwrap_or_else(|| SlaClass::strict(self.sla_us))
    }
}

/// The degrade rank of a mapping, from its representation role: the
/// order the brownout and SLA-class ladders turn candidates off under
/// backlog. Hybrid masks first, DHE variants at the table-only rung,
/// and everything else (table paths) never.
pub fn degrade_rank_of(role: RepRole) -> u32 {
    match role {
        RepRole::Hybrid => 2,
        RepRole::Dhe | RepRole::DheCompact => 1,
        _ => 0,
    }
}

/// One tenant's virtual-time accounting row: what the dispatcher core
/// tallies per tenant (the runtime's `TenantReport` is this plus a
/// histogram) and what the reference replay reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantOutcome {
    /// Queries routed and completed for this tenant.
    pub completed: u64,
    /// Samples inside those queries.
    pub samples: u64,
    /// Queries shed before routing (class shed plus, for the cluster
    /// replay, the chaos brownout's sequence-modulus shed).
    pub shed_queries: u64,
    /// Completed queries whose virtual latency exceeded the tenant
    /// class's SLA.
    pub sla_violations: u64,
    /// Sum of virtual latencies over completed queries (µs) — pins the
    /// full latency ledger without shipping a histogram type across the
    /// crate boundary.
    pub latency_sum_us: f64,
}

/// One routed micro-batch of the replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayBatch {
    /// Index into `mappings.mappings` of the routed path.
    pub mapping_idx: usize,
    /// `(query id, size)` pairs in arrival order.
    pub queries: Vec<(u64, u64)>,
    /// Virtual completion time of the batch (µs).
    pub done_us: f64,
}

/// Everything one replay produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResult {
    /// Aggregate outcome; latencies are *virtual* (completion minus
    /// arrival), directly comparable to the runtime's virtual-time SLA
    /// accounting but not to its measured histogram.
    pub outcome: ServingOutcome,
    /// The full batch/decision trail, in dispatch order.
    pub batches: Vec<ReplayBatch>,
    /// Per-tenant accounting rows, indexed by tenant id — the twin of
    /// `ClusterReport::tenants`.
    pub tenants: Vec<TenantOutcome>,
}

impl ReplayResult {
    /// Mapping index per batch — the decision trail differential tests
    /// compare against `ClusterReport::path_decisions`.
    pub fn decisions(&self) -> Vec<usize> {
        self.batches.iter().map(|b| b.mapping_idx).collect()
    }
}

/// Replays `trace` through the runtime's micro-batching + routing
/// contract over `mappings` in deterministic virtual time.
///
/// Semantics (kept in lockstep with `mprec-runtime`'s dispatcher, and
/// pinned by the differential tests):
///
/// 1. a pending batch flushes at `oldest arrival + max_batch_wait_us`
///    when the next arrival lies beyond that deadline;
/// 2. a query that would push the pending batch over
///    `max_batch_samples` flushes the batch first (at the query's
///    arrival time);
/// 3. reaching `max_batch_samples` flushes immediately;
/// 4. the final partial batch flushes at its deadline;
/// 5. each flush routes via Algorithm 2 (`Scheduler::route`) with the
///    batch's remaining SLA budget, measured from the oldest query.
pub fn replay(mappings: &MappingSet, trace: &[Query], cfg: &ReplayConfig) -> ReplayResult {
    replay_traced(mappings, trace, cfg, TraceConfig::default()).0
}

/// [`replay`] with a flight recorder: when `recorder.enabled`, the
/// replay's dispatcher decisions are recorded into a `dispatcher` track
/// in exactly the runtime engine's event order and virtual stamps —
/// `Enqueue` at admission, then per flush `BatchFormed`,
/// `RouteDecision` (with every candidate's scored completion), one
/// `Scatter` to the routed mapping's platform (its node under
/// [`platforms_as_nodes`]), `Execute`, and one `Complete` per query. The
/// differential tests compare its twin-pinned events with the core's.
pub fn replay_traced(
    mappings: &MappingSet,
    trace: &[Query],
    cfg: &ReplayConfig,
    recorder: TraceConfig,
) -> (ReplayResult, Option<TraceRecording>) {
    let labels: Vec<String> = mappings
        .mappings
        .iter()
        .map(|m| m.label(&mappings.platforms))
        .collect();
    let mut sched = Scheduler::new(mappings.clone(), SchedulerConfig::default());
    let ranks: Vec<u32> = mappings
        .mappings
        .iter()
        .map(|m| degrade_rank_of(m.rep.role))
        .collect();
    let tenant_count = tenant_count_of(trace, cfg);
    let mut tenants: Vec<TenantOutcome> = vec![TenantOutcome::default(); tenant_count];
    let mut batches: Vec<ReplayBatch> = Vec::new();
    let mut usage = PathUsage::default();
    let mut latencies: Vec<f64> = Vec::with_capacity(trace.len());
    let mut samples = 0u64;
    let mut correct = 0.0f64;
    let mut violations = 0u64;
    let mut last_completion = 0.0f64;
    // RefCell because admission (Enqueue) and flush both record; the
    // two closures otherwise could not share a `&mut` ring.
    let ring = RefCell::new(recorder.ring());
    let mut completions: Vec<f64> = Vec::new();

    let flush = |pending: &mut Vec<&Query>, pending_samples: &mut u64, tenant: usize, flush_at_us: f64| {
        let class = cfg.class_of(tenant);
        let oldest_us = pending[0].arrival_us as f64;
        sched.advance_to(flush_at_us);
        let backlog_us = sched.max_backlog_us();
        if class.sheds(backlog_us) {
            // Class shed, mirroring the engine: the loose tenant's
            // whole batch takes an explicit Shed outcome.
            let tt = &mut tenants[tenant];
            for q in pending.iter() {
                tt.shed_queries += 1;
                if let Some(r) = ring.borrow_mut().as_mut() {
                    r.record(TraceEvent::shed(flush_at_us, q.id, q.size as u64, backlog_us));
                }
            }
            pending.clear();
            *pending_samples = 0;
            return;
        }
        let sla_remaining = (class.sla_us - (flush_at_us - oldest_us)).max(1.0);
        let decision = sched
            .route_classed_into(
                *pending_samples,
                sla_remaining,
                &ranks,
                class.narrow_backlog_us,
                class.table_only_backlog_us,
                &mut completions,
            )
            .expect("mapping set is never empty");
        let done_us = sched.commit(&decision);
        let batch = batches.len() as u64;
        if let Some(r) = ring.borrow_mut().as_mut() {
            r.record(TraceEvent::batch_formed(
                flush_at_us,
                batch,
                pending.len() as u64,
                *pending_samples,
                oldest_us,
            ));
            r.record(TraceEvent::route_decision(
                flush_at_us,
                batch,
                *pending_samples,
                0,
                sla_remaining,
                decision.mapping_idx as i32,
                &completions,
            ));
            // Each platform is a node: the batch scatters to its
            // mapping's platform in epoch 0.
            r.record(TraceEvent::scatter(flush_at_us, batch, decision.platform_idx as u32, 0));
            r.record(TraceEvent::execute(
                done_us - decision.exec_us,
                batch,
                0,
                done_us,
            ));
        }
        let accuracy = mappings.mappings[decision.mapping_idx].rep.accuracy as f64;
        let label = &labels[decision.mapping_idx];
        let mut queries = Vec::with_capacity(pending.len());
        let tt = &mut tenants[tenant];
        for q in pending.iter() {
            let latency = done_us - q.arrival_us as f64;
            if latency > class.sla_us {
                violations += 1;
                tt.sla_violations += 1;
            }
            tt.completed += 1;
            tt.samples += q.size as u64;
            tt.latency_sum_us += latency;
            if let Some(r) = ring.borrow_mut().as_mut() {
                r.record(TraceEvent::complete(done_us, q.id, batch, latency));
            }
            latencies.push(latency);
            samples += q.size as u64;
            correct += q.size as f64 * accuracy;
            usage.record(label, q.size as u64);
            queries.push((q.id, q.size as u64));
        }
        last_completion = last_completion.max(done_us);
        batches.push(ReplayBatch {
            mapping_idx: decision.mapping_idx,
            queries,
            done_us,
        });
        pending.clear();
        *pending_samples = 0;
    };
    let on_admit = |q: &Query| {
        if let Some(r) = ring.borrow_mut().as_mut() {
            r.record(TraceEvent::enqueue(q.arrival_us as f64, q.id, q.size as u64));
        }
    };
    drive_batches(trace, cfg, tenant_count, on_admit, flush);

    let outcome = ServingOutcome::from_latency_samples(
        "replay",
        latencies,
        samples,
        correct,
        violations,
        last_completion / 1e6,
        usage,
    );
    let trace_rec = recorder.enabled.then(|| {
        let mut rec = TraceRecording::new(labels);
        if let Some(r) = ring.into_inner() {
            rec.push_ring("dispatcher", r);
        }
        rec
    });
    (
        ReplayResult {
            outcome,
            batches,
            tenants,
        },
        trace_rec,
    )
}

/// Tenant-axis length (a pure function shared with the dispatcher
/// core): one row per tenant
/// seen in the trace, at least one row, and never fewer rows than the
/// configured class list (so an all-shed tenant still gets its row).
pub(crate) fn tenant_count_of(trace: &[Query], cfg: &ReplayConfig) -> usize {
    trace
        .iter()
        .map(|q| scenario::tenant_of(q.id) as usize + 1)
        .max()
        .unwrap_or(1)
        .max(cfg.classes.len())
        .max(1)
}

/// The runtime dispatcher's micro-batching rules (per-tenant pending
/// lists, deadline flushes in (deadline, tenant) order, size-overflow
/// flush, exact-budget flush, end-of-trace drain), invoking
/// `flush(pending, pending_samples, tenant, flush_at_us)` at every
/// batch boundary with a non-empty `pending` and `on_admit(q)` right
/// after each query joins its tenant's pending batch (where the
/// runtime stamps its `Enqueue` trace event — admission order is part
/// of the twin contract). A legacy trace (every id tenant 0) collapses
/// to the historical single-pending behaviour bit for bit.
///
/// Private to the reference replay on purpose: the dispatcher core has
/// its own loop, so the batching rules are written twice and a
/// one-sided change to them fails the twin tests.
fn drive_batches<'t>(
    trace: &'t [Query],
    cfg: &ReplayConfig,
    tenant_count: usize,
    mut on_admit: impl FnMut(&'t Query),
    mut flush: impl FnMut(&mut Vec<&'t Query>, &mut u64, usize, f64),
) {
    let mut pending: Vec<Vec<&Query>> = vec![Vec::new(); tenant_count];
    let mut pending_samples: Vec<u64> = vec![0; tenant_count];
    // Earliest batch deadline among tenants with pending queries (ties
    // keep the lowest tenant index — the scan is ascending).
    let earliest_deadline = |pending: &[Vec<&Query>]| -> Option<(f64, usize)> {
        let mut due: Option<(f64, usize)> = None;
        for (t, p) in pending.iter().enumerate() {
            if let Some(first) = p.first() {
                let d = first.arrival_us as f64 + cfg.max_batch_wait_us;
                if due.is_none_or(|(bd, _)| d < bd) {
                    due = Some((d, t));
                }
            }
        }
        due
    };
    for q in trace {
        let arrival_us = q.arrival_us as f64;
        while let Some((deadline, t)) = earliest_deadline(&pending) {
            if arrival_us <= deadline {
                break;
            }
            flush(&mut pending[t], &mut pending_samples[t], t, deadline);
        }
        let t = scenario::tenant_of(q.id) as usize;
        if !pending[t].is_empty()
            && pending_samples[t] + q.size as u64 > cfg.max_batch_samples as u64
        {
            flush(&mut pending[t], &mut pending_samples[t], t, arrival_us);
        }
        pending[t].push(q);
        pending_samples[t] += q.size as u64;
        on_admit(q);
        if pending_samples[t] >= cfg.max_batch_samples as u64 {
            flush(&mut pending[t], &mut pending_samples[t], t, arrival_us);
        }
    }
    while let Some((deadline, t)) = earliest_deadline(&pending) {
        flush(&mut pending[t], &mut pending_samples[t], t, deadline);
    }
}

/// One routed micro-batch of a cluster replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReplayBatch {
    /// Index into the epoch's `mappings.mappings` of the routed path.
    pub mapping_idx: usize,
    /// The epoch whose plan the batch finally *executed* under (differs
    /// from its dispatch epoch only for failure retries).
    pub epoch_idx: usize,
    /// `(query id, size)` pairs in arrival order.
    pub queries: Vec<(u64, u64)>,
    /// Virtual completion time of the batch (µs) — after the retry leg
    /// for batches whose node failed in flight.
    pub done_us: f64,
    /// Whether an in-flight node failure forced a retry.
    pub retried: bool,
}

/// Everything one cluster replay produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReplayResult {
    /// Aggregate outcome over *virtual* latencies; for retried batches
    /// each query carries the full latency (failed attempt + retry).
    pub outcome: ServingOutcome,
    /// The full batch trail, in dispatch order.
    pub batches: Vec<ClusterReplayBatch>,
    /// Batches that retried after an in-flight node failure.
    pub retried_batches: u64,
    /// Queries shed before routing — the tenant-class shed plus the
    /// brownout controller's sequence-modulus rung.
    pub shed_queries: u64,
    /// Per-tenant accounting rows, indexed by tenant id.
    pub tenants: Vec<TenantOutcome>,
    /// Scatter legs that missed their per-leg virtual deadline, hedge
    /// legs issued to ring successors, and backoff retries of timed-out
    /// legs (the same counters `ClusterReport` carries).
    pub leg_timeouts: u64,
    pub hedged_legs: u64,
    pub leg_retries: u64,
}

/// The static cluster `mappings` describes: one node per platform
/// (node id = platform index, every node live), each mapping scattering
/// to its own platform's node, no hedge successors, no events, inert
/// chaos. [`replay_cluster`] over it serves the way [`replay`] does —
/// one FIFO queue per platform — and a one-platform set is the one-node
/// engine.
pub fn platforms_as_nodes(mappings: &MappingSet) -> ClusterReplaySpec {
    ClusterReplaySpec {
        epochs: vec![ClusterEpochSpec {
            targets: mappings
                .mappings
                .iter()
                .map(|m| vec![m.platform_idx as u32])
                .collect(),
            mappings: mappings.clone(),
            live: (0..mappings.platforms.len() as u32).collect(),
            hedge_next: Vec::new(),
            // Empty: only the adaptive trigger reads the plan, and
            // `replay_cluster` never arms it.
            plan: FeatureShardPlan::for_cluster(0, 1, 0),
        }],
        events: Vec::new(),
        faults: FaultPlan::none(),
        chaos: ChaosConfig::default(),
    }
}

/// Replays `trace` through the **elastic cluster's** serving contract:
/// the one dispatcher core ([`crate::dispatch`]) over the recorded
/// `spec`, with an executor that does no IO — it never paces, every
/// barrier passes, and a scattered batch is only appended to the trail.
/// Overlay epochs the runtime's adaptive planner opened arrive as
/// recorded `spec` events, so the replay switches exactly where the
/// runtime's trigger said it did. (The runtime drives the same core,
/// so the two agree on decisions by construction; the independent
/// reference for the core itself is [`replay`], over
/// [`platforms_as_nodes`].)
pub fn replay_cluster(
    spec: &ClusterReplaySpec,
    trace: &[Query],
    cfg: &ReplayConfig,
) -> ClusterReplayResult {
    replay_cluster_traced(spec, trace, cfg, TraceConfig::default()).0
}

/// The executor of a replay: no pacing, no barriers, no overlays to
/// build — it keeps the batch trail and the per-query latencies.
#[derive(Default)]
struct Trail {
    batches: Vec<ClusterReplayBatch>,
    latencies: Vec<f64>,
}

impl Executor for Trail {
    fn pace(&mut self, _t_us: f64) {}

    fn barrier(&mut self, _: usize, _: f64, _: &mut DispatchTally) -> bool {
        true
    }

    fn build_overlay(
        &mut self,
        _idlest: u32,
        _moved: &[usize],
        _at_us: f64,
        _tally: &mut DispatchTally,
    ) -> Option<ClusterEpochSpec> {
        unreachable!("a replay runs without the adaptive trigger")
    }

    fn scatter(&mut self, flight: &Flight, queries: &[&Query]) -> bool {
        self.latencies
            .extend(queries.iter().map(|q| flight.done_us - q.arrival_us as f64));
        self.batches.push(ClusterReplayBatch {
            mapping_idx: flight.idx,
            epoch_idx: flight.exec_epoch,
            queries: queries.iter().map(|q| (q.id, q.size as u64)).collect(),
            done_us: flight.done_us,
            retried: flight.exec_epoch != flight.epoch,
        });
        true
    }
}

/// [`replay_cluster`] with a flight recorder: when `recorder.enabled`,
/// the core records its `dispatcher` track — `Enqueue` at admission,
/// then per flush `BatchFormed`, `RouteDecision` (with the rejected
/// candidates' scored completions), one `Scatter` per pruned target,
/// a `Retry` plus post-failure `Scatter`s per retry leg, `Execute`,
/// and one `Complete` per query. Membership events (barriers,
/// warm-starts, migrations) are recorded by the runtime's executor and
/// so are absent here; they are not twin-pinned.
pub fn replay_cluster_traced(
    spec: &ClusterReplaySpec,
    trace: &[Query],
    cfg: &ReplayConfig,
    recorder: TraceConfig,
) -> (ClusterReplayResult, Option<TraceRecording>) {
    let mut node_ids: Vec<u32> = spec.epochs.iter().flat_map(|e| e.live.iter().copied()).collect();
    node_ids.sort_unstable();
    node_ids.dedup();
    let mut trail = Trail::default();
    let mut tally = dispatch(
        DispatchSpec {
            epochs: spec.epochs.iter().collect(),
            events: &spec.events,
            faults: &spec.faults,
            chaos: spec.chaos,
            node_ids: &node_ids,
            batching: cfg,
            adaptive: None,
            recorder,
        },
        trace,
        &mut trail,
    );
    let trace_rec = tally.ring.take().map(|ring| {
        let mut rec = TraceRecording::new(tally.labels.clone());
        rec.push_ring("dispatcher", ring);
        rec
    });
    let result = ClusterReplayResult {
        retried_batches: tally.retried_batches,
        shed_queries: tally.shed_queries(),
        leg_timeouts: tally.leg_timeouts,
        hedged_legs: tally.hedged_legs,
        leg_retries: tally.leg_retries,
        outcome: ServingOutcome::from_latency_samples(
            "replay-cluster",
            trail.latencies,
            tally.tenants.iter().map(|t| t.samples).sum(),
            tally.correct_samples,
            tally.sla_violations(),
            tally.last_done_us / 1e6,
            tally.usage,
        ),
        batches: trail.batches,
        tenants: tally.tenants,
    };
    (result, trace_rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mprec_core::candidates::{CandidateRep, RepRole};
    use mprec_core::planner::Mapping;
    use mprec_core::profile::LatencyProfile;
    use mprec_data::query::{QueryGenerator, QueryTraceConfig};
    use mprec_hwsim::{Platform, WorkloadBuilder};

    /// A two-path mapping set with analytic profiles: a slow accurate
    /// path and a fast fallback.
    fn two_path_mappings() -> MappingSet {
        let builder = WorkloadBuilder::new("replay-test", vec![1000, 1000], 8);
        let sizes: Vec<u64> = vec![1, 16, 64, 256, 1024, 4096];
        let mk = |name: &str, role, per_sample_us: f64, accuracy| Mapping {
            rep: CandidateRep {
                name: name.into(),
                role,
                config: mprec_embed::RepresentationConfig::table(8),
                workload: builder.table(8).expect("workload"),
                accuracy,
            },
            platform_idx: 0,
            profile: LatencyProfile::from_points(
                sizes.clone(),
                sizes.iter().map(|&n| 30.0 + n as f64 * per_sample_us).collect(),
            ),
        };
        MappingSet {
            platforms: vec![Platform::cpu()],
            mappings: vec![
                mk("hybrid", RepRole::Hybrid, 40.0, 0.79),
                mk("table", RepRole::Table, 2.0, 0.78),
            ],
        }
    }

    fn trace() -> Vec<Query> {
        QueryGenerator::new(
            QueryTraceConfig {
                num_queries: 400,
                mean_size: 6.0,
                sigma: 1.0,
                max_size: 24,
                qps: 4000.0,
                poisson_arrivals: true,
            },
            7,
        )
        .generate()
    }

    #[test]
    fn replay_completes_every_query_exactly_once() {
        let cfg = ReplayConfig {
            sla_us: 5_000.0,
            max_batch_samples: 48,
            max_batch_wait_us: 2_000.0,
            ..ReplayConfig::default()
        };
        let r = replay(&two_path_mappings(), &trace(), &cfg);
        assert_eq!(r.outcome.completed, 400);
        let batched: u64 = r.batches.iter().map(|b| b.queries.len() as u64).sum();
        assert_eq!(batched, 400, "batch trail covers the trace");
        assert_eq!(
            r.outcome.usage.queries.values().sum::<u64>(),
            400,
            "usage covers the trace"
        );
        assert!(r.outcome.samples > 0);
    }

    #[test]
    fn batches_respect_the_sample_budget() {
        let cfg = ReplayConfig {
            max_batch_samples: 32,
            ..ReplayConfig::default()
        };
        let r = replay(&two_path_mappings(), &trace(), &cfg);
        for b in &r.batches {
            let head_sizeless: u64 =
                b.queries.iter().map(|&(_, s)| s).sum::<u64>() - b.queries.last().unwrap().1;
            assert!(
                head_sizeless < 32,
                "a batch only exceeds the budget by its final query"
            );
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let cfg = ReplayConfig::default();
        let maps = two_path_mappings();
        let t = trace();
        assert_eq!(replay(&maps, &t, &cfg), replay(&maps, &t, &cfg));
    }

    #[test]
    fn overload_falls_back_to_the_fast_path() {
        // Saturate the slow path: under a tight SLA the scheduler must
        // route later batches to the table fallback.
        let cfg = ReplayConfig {
            sla_us: 1_000.0,
            ..ReplayConfig::default()
        };
        let r = replay(&two_path_mappings(), &trace(), &cfg);
        let table_queries = r.outcome.usage.queries.get("table@CPU").copied().unwrap_or(0);
        assert!(
            table_queries > r.outcome.completed / 2,
            "tight SLA should fall back: {} of {}",
            table_queries,
            r.outcome.completed
        );
    }
}
