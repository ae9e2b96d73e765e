//! Discrete-event replay of the *runtime's* serving semantics.
//!
//! [`crate::simulate`] models the paper's per-query serving experiments;
//! the multi-threaded runtime (`mprec-runtime`) instead micro-batches
//! queries under an SLA-aware deadline/size policy and routes whole
//! batches. This module is the simulator-side counterpart of that
//! contract: given the *same* trace and the *same* virtual-time mapping
//! set, [`replay`] reproduces — by an independent discrete-event
//! implementation — the batch boundaries, the per-batch path decisions,
//! the virtual completion times, and the aggregate outcome counts the
//! runtime's dispatcher produces.
//!
//! The differential harness (`tests/sim_vs_runtime.rs`) holds the two
//! implementations to exact agreement on outcome counts, decision
//! trails, and (via a twin MP-Cache replay) cache hit counters, so the
//! simulated and real serving stacks cannot drift apart silently.
//!
//! # Three-tier cache accounting
//!
//! The MP-Cache's persistent disk tier needs no special-casing here:
//! its latency cost reaches the replay through the mapping profiles
//! themselves (a warm-started joiner's paths arrive pre-penalized via
//! `LatencyProfile::plus_per_sample`, shipped in the cluster's
//! `replay_spec()`), so routing and virtual times agree with the
//! runtime automatically. The *hit accounting* is pinned by the twin
//! replay instead: the harness mirrors the warm-start hand-off (old
//! owners' dynamic exports loaded into the joiner twin's disk tier at
//! the join barrier) and then demands exact per-node equality of
//! static/dynamic/disk hit counters.

use std::cell::RefCell;
use std::collections::BTreeMap;

use mprec_core::candidates::RepRole;
use mprec_core::planner::MappingSet;
use mprec_core::scheduler::{class_pressure_mask, select_mapping, Scheduler, SchedulerConfig};
use mprec_data::query::Query;
use mprec_data::scenario::{self, ChaosConfig, FaultPlan};
use mprec_data::traffic::SlaClass;
use mprec_trace::{TraceConfig, TraceEvent, TraceRecording};

use crate::outcome::{PathUsage, ServingOutcome};

/// Micro-batching policy mirrored from the runtime engine.
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

/// The SLA-class degrade rank the replay derives from a mapping's
/// representation role — the twin of `mprec-runtime`'s
/// `degrade_rank(path)`, which the runtime computes from its path
/// kinds. Hybrid masks first under class pressure, DHE variants at the
/// table-only rung, and everything else (table paths) never.
pub fn degrade_rank_of(role: RepRole) -> u32 {
    match role {
        RepRole::Hybrid => 2,
        RepRole::Dhe | RepRole::DheCompact => 1,
        _ => 0,
    }
}

/// One tenant's replay-side accounting row — the twin of the runtime's
/// `TenantReport`, carrying exactly the counters the differential tests
/// pin to equality (histogram shapes follow from equal latencies).
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
    /// Queries class-shed before routing (0 without SLA classes).
    pub shed_queries: u64,
    /// Per-tenant accounting rows, indexed by tenant id — the twin of
    /// `RuntimeReport::tenants`.
    pub tenants: Vec<TenantOutcome>,
}

impl ReplayResult {
    /// Mapping index per batch — the decision trail differential tests
    /// compare against `RuntimeReport::path_decisions`.
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
/// `RouteDecision` (with every candidate's scored completion), the one
/// `Scatter` to node 0 a single-node serve implies, `Execute`, and one
/// `Complete` per query. The differential tests
/// compare this track's twin-pinned events against the runtime's.
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
    let mut shed_queries = 0u64;
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
                shed_queries += 1;
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
            // The engine is a one-node cluster: every batch scatters to
            // node 0 in epoch 0.
            r.record(TraceEvent::scatter(flush_at_us, batch, 0, 0));
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
            shed_queries,
            tenants,
        },
        trace_rec,
    )
}

/// Replays `trace` through a **closed-loop** load driver over the same
/// mapping set: one outstanding query at a time, the next send gated on
/// the previous completion, latency measured from the *send* instant.
/// This is the classic coordinated-omission trap — under overload the
/// driver silently slows its offered rate, so queue delay the intended
/// schedule would have accrued never shows up in the measured tail. The
/// regression test pins [`replay`]'s open-loop p99 strictly above this
/// driver's p99 on an overloaded cell, so the trap cannot quietly
/// become the default again.
pub fn replay_closed_loop(
    mappings: &MappingSet,
    trace: &[Query],
    cfg: &ReplayConfig,
) -> ReplayResult {
    let labels: Vec<String> = mappings
        .mappings
        .iter()
        .map(|m| m.label(&mappings.platforms))
        .collect();
    let mut sched = Scheduler::new(mappings.clone(), SchedulerConfig::default());
    let tenant_count = tenant_count_of(trace, cfg);
    let mut tenants: Vec<TenantOutcome> = vec![TenantOutcome::default(); tenant_count];
    let mut batches: Vec<ReplayBatch> = Vec::new();
    let mut usage = PathUsage::default();
    let mut latencies: Vec<f64> = Vec::with_capacity(trace.len());
    let mut samples = 0u64;
    let mut correct = 0.0f64;
    let mut violations = 0u64;
    let mut last_completion = 0.0f64;
    let mut completions: Vec<f64> = Vec::new();
    let mut next_free = 0.0f64;
    for q in trace {
        // The closed-loop driver cannot send before the previous query
        // finished: an overloaded cell pushes the send time back, and
        // with it the measurement origin.
        let send_us = (q.arrival_us as f64).max(next_free);
        sched.advance_to(send_us);
        let decision = sched
            .route_into(q.size as u64, cfg.sla_us, 0, &mut completions)
            .expect("mapping set is never empty");
        let done_us = sched.commit(&decision);
        next_free = done_us;
        let latency = done_us - send_us;
        if latency > cfg.sla_us {
            violations += 1;
        }
        let tenant = scenario::tenant_of(q.id) as usize;
        let tt = &mut tenants[tenant];
        tt.completed += 1;
        tt.samples += q.size as u64;
        tt.latency_sum_us += latency;
        if latency > cfg.class_of(tenant).sla_us {
            tt.sla_violations += 1;
        }
        latencies.push(latency);
        samples += q.size as u64;
        correct += q.size as f64 * mappings.mappings[decision.mapping_idx].rep.accuracy as f64;
        usage.record(&labels[decision.mapping_idx], q.size as u64);
        last_completion = last_completion.max(done_us);
        batches.push(ReplayBatch {
            mapping_idx: decision.mapping_idx,
            queries: vec![(q.id, q.size as u64)],
            done_us,
        });
    }
    let outcome = ServingOutcome::from_latency_samples(
        "replay-closed-loop",
        latencies,
        samples,
        correct,
        violations,
        last_completion / 1e6,
        usage,
    );
    ReplayResult {
        outcome,
        batches,
        shed_queries: 0,
        tenants,
    }
}

/// Tenant-axis length shared by the replay drivers: one row per tenant
/// seen in the trace, at least one row, and never fewer rows than the
/// configured class list (so an all-shed tenant still gets its row).
fn tenant_count_of(trace: &[Query], cfg: &ReplayConfig) -> usize {
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
/// Shared by [`replay`] and [`replay_cluster`]: the independence
/// contract is between this crate and `mprec-runtime`, not between the
/// two sims — a batching-rule change must reach both at once or the
/// differential tests would pin one twin to stale semantics.
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

/// One epoch of an elastic cluster as the replay simulator sees it: the
/// routing profiles in force and, per mapping, the pruned scatter
/// target node ids (ascending, matching the runtime's assignment
/// order).
#[derive(Debug, Clone)]
pub struct ClusterEpochSpec {
    /// Capacity-aware slowest-shard mapping set of the epoch.
    pub mappings: MappingSet,
    /// Per mapping index: the scatter target node ids.
    pub targets: Vec<Vec<u32>>,
    /// Live node ids during the epoch, ascending (the brownout gauge
    /// scans exactly these backlogs).
    pub live: Vec<u32>,
    /// Per live node: its consistent-hash-ring successor, the hedge
    /// target for a slow scatter leg. Frozen by the runtime at epoch
    /// build time so the replay needs no ring logic of its own.
    pub hedge_next: Vec<(u32, u32)>,
}

/// One rebalance event separating two epochs. The runtime expands every
/// configured churn event into one or more of these: a failure stays a
/// single barrier swap, while a streaming join unrolls into its
/// dual-ownership window open, one event per chunk flip, and the
/// cold-tier penalty lift; adaptive re-plans append further events
/// after the static schedule. The replay needs no migration-specific
/// logic — each event just advances it to the next epoch's profiles and
/// target sets at the first flush at or after `at_us`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterChurnSpec {
    /// Virtual time of the event (µs); takes effect at the first flush
    /// at or after it.
    pub at_us: f64,
    /// `Some(node)` for a failure (in-flight batches to it retry under
    /// the next epoch), `None` for every other rebalance step — joins,
    /// window opens, chunk flips, penalty lifts, adaptive re-plans —
    /// none of which retries anything.
    pub failed: Option<u32>,
}

/// Everything the cluster replay needs: the epoch sequence and the
/// events between consecutive epochs (`events.len() ==
/// epochs.len() - 1`). Produced by `mprec-runtime`'s
/// `Cluster::replay_spec`, consumed by [`replay_cluster`].
#[derive(Debug, Clone)]
pub struct ClusterReplaySpec {
    /// Epoch descriptions, boot epoch first.
    pub epochs: Vec<ClusterEpochSpec>,
    /// The churn events separating consecutive epochs.
    pub events: Vec<ClusterChurnSpec>,
    /// The deterministic fault schedule the runtime injected (empty
    /// when chaos is off) — the replay resolves every leg against the
    /// same windows.
    pub faults: FaultPlan,
    /// The lifecycle-hardening knobs in force (timeouts, hedging,
    /// backoff, brownout). The inert default reproduces the legacy
    /// single-attempt accounting bit for bit.
    pub chaos: ChaosConfig,
    /// Brownout degrade rank per mapping index (2 = hybrid, masked
    /// first; 1 = DHE; 0 = table, never masked). Computed by the
    /// runtime from its path kinds.
    pub degrade_rank: Vec<u32>,
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
    /// brownout controller's sequence-modulus rung (twin of
    /// `ClusterReport::shed_queries`).
    pub shed_queries: u64,
    /// Per-tenant accounting rows, indexed by tenant id — the twin of
    /// `ClusterReport::tenants`.
    pub tenants: Vec<TenantOutcome>,
    /// Scatter legs that missed their per-leg virtual deadline (twin of
    /// `ClusterReport::leg_timeouts`).
    pub leg_timeouts: u64,
    /// Hedge legs issued to ring successors (twin of
    /// `ClusterReport::hedged_legs`).
    pub hedged_legs: u64,
    /// Backoff retries of timed-out legs (twin of
    /// `ClusterReport::leg_retries`).
    pub leg_retries: u64,
}

/// Replays `trace` through the **elastic cluster's** serving contract:
/// the runtime's micro-batching (identical to [`replay`]), Algorithm-2
/// routing over per-*node* backlogs (a dispatched batch occupies every
/// scatter target until its merge completes; the router sees the
/// busiest target's queue), epoch switching at churn events, and
/// failure retries — an in-flight batch whose target fails restarts at
/// the failure instant under the next epoch's profiles, its queries
/// charged both legs' latency.
///
/// This is an independent re-implementation of
/// `mprec-runtime::cluster`'s dispatcher; `tests/sim_vs_runtime.rs`
/// pins the two to exact agreement, node churn included.
pub fn replay_cluster(
    spec: &ClusterReplaySpec,
    trace: &[Query],
    cfg: &ReplayConfig,
) -> ClusterReplayResult {
    replay_cluster_traced(spec, trace, cfg, TraceConfig::default()).0
}

/// [`replay_cluster`] with a flight recorder: when `recorder.enabled`,
/// the replay records a `dispatcher` track in exactly the cluster
/// runtime's event order and virtual stamps — `Enqueue` at admission,
/// then per flush `BatchFormed`, `RouteDecision` (with the rejected
/// candidates' scored completions), one `Scatter` per pruned target,
/// a `Retry` plus post-failure `Scatter`s per retry leg, `Execute`,
/// and one `Complete` per query. Epoch barriers and warm-start
/// hand-offs are runtime-membership events and are deliberately *not*
/// replayed (they are not twin-pinned).
pub fn replay_cluster_traced(
    spec: &ClusterReplaySpec,
    trace: &[Query],
    cfg: &ReplayConfig,
    recorder: TraceConfig,
) -> (ClusterReplayResult, Option<TraceRecording>) {
    assert_eq!(
        spec.events.len() + 1,
        spec.epochs.len(),
        "one event between consecutive epochs"
    );
    let labels: Vec<String> = spec.epochs[0]
        .mappings
        .mappings
        .iter()
        .map(|m| m.label(&spec.epochs[0].mappings.platforms))
        .collect();
    let tenant_count = tenant_count_of(trace, cfg);
    let mut tenants: Vec<TenantOutcome> = vec![TenantOutcome::default(); tenant_count];
    let mut batches: Vec<ClusterReplayBatch> = Vec::new();
    let mut usage = PathUsage::default();
    let mut latencies: Vec<f64> = Vec::with_capacity(trace.len());
    let mut samples = 0u64;
    let mut correct = 0.0f64;
    let mut violations = 0u64;
    let mut retried_batches = 0u64;
    let mut shed_queries = 0u64;
    let mut leg_timeouts = 0u64;
    let mut hedged_legs = 0u64;
    let mut leg_retries = 0u64;
    let mut last_completion = 0.0f64;
    let mut free_at: BTreeMap<u32, f64> = BTreeMap::new();
    let mut cur_epoch = 0usize;
    let ring = RefCell::new(recorder.ring());

    let flush = |pending: &mut Vec<&Query>, pending_samples: &mut u64, tenant: usize, flush_at_us: f64| {
        while cur_epoch < spec.events.len() && spec.events[cur_epoch].at_us <= flush_at_us {
            cur_epoch += 1;
        }
        let e = cur_epoch;
        let ep = &spec.epochs[e];
        // Brownout gauge, class shed, then the chaos shed rung,
        // mirroring the runtime's flush exactly: worst live-node
        // backlog; a loose tenant class drops its whole batch at its
        // shed rung; then the sequence-modulus shed — every dropped
        // query takes an explicit Shed outcome.
        let backlog_us = ep
            .live
            .iter()
            .map(|id| (free_at.get(id).copied().unwrap_or(0.0) - flush_at_us).max(0.0))
            .fold(0.0f64, f64::max);
        let class = cfg.class_of(tenant);
        if class.sheds(backlog_us) {
            let tt = &mut tenants[tenant];
            for q in pending.iter() {
                shed_queries += 1;
                tt.shed_queries += 1;
                if let Some(r) = ring.borrow_mut().as_mut() {
                    r.record(TraceEvent::shed(flush_at_us, q.id, q.size as u64, backlog_us));
                }
            }
            pending.clear();
            *pending_samples = 0;
            return;
        }
        if spec.chaos.brownout && backlog_us >= spec.chaos.brownout_shed_us {
            pending.retain(|q| {
                if spec.chaos.sheds(backlog_us, scenario::sequence_of(q.id)) {
                    *pending_samples -= q.size as u64;
                    shed_queries += 1;
                    tenants[tenant].shed_queries += 1;
                    if let Some(r) = ring.borrow_mut().as_mut() {
                        r.record(TraceEvent::shed(flush_at_us, q.id, q.size as u64, backlog_us));
                    }
                    false
                } else {
                    true
                }
            });
            if pending.is_empty() {
                *pending_samples = 0;
                return;
            }
        }
        let oldest_us = pending[0].arrival_us as f64;
        let sla_remaining = (class.sla_us - (flush_at_us - oldest_us)).max(1.0);
        let size = *pending_samples;

        let n = ep.mappings.mappings.len();
        let mut execs = Vec::with_capacity(n);
        let mut starts = Vec::with_capacity(n);
        let mut completions = Vec::with_capacity(n);
        for i in 0..n {
            let exec = ep.mappings.mappings[i].profile.latency_us(size);
            let busiest = ep.targets[i]
                .iter()
                .map(|id| free_at.get(id).copied().unwrap_or(0.0))
                .fold(f64::NEG_INFINITY, f64::max);
            let start = busiest.max(flush_at_us);
            execs.push(exec);
            starts.push(start);
            completions.push((start - flush_at_us) + exec);
        }
        spec.chaos
            .brownout_mask(&spec.degrade_rank, backlog_us, &mut completions);
        class_pressure_mask(
            &spec.degrade_rank,
            backlog_us,
            class.narrow_backlog_us,
            class.table_only_backlog_us,
            &mut completions,
        );
        let idx = select_mapping(&ep.mappings, &completions, sla_remaining, true)
            .expect("mapping set is never empty");
        let batch = batches.len() as u64;
        if let Some(r) = ring.borrow_mut().as_mut() {
            r.record(TraceEvent::batch_formed(
                flush_at_us,
                batch,
                pending.len() as u64,
                size,
                oldest_us,
            ));
            r.record(TraceEvent::route_decision(
                flush_at_us,
                batch,
                size,
                e as u64,
                sla_remaining,
                idx as i32,
                &completions,
            ));
            for id in &ep.targets[idx] {
                r.record(TraceEvent::scatter(flush_at_us, batch, *id, e as u64));
            }
        }
        let mut done_us;
        let mut final_exec = execs[idx];
        if spec.chaos.timeouts_enabled() {
            // Chaos leg resolution — the independent mirror of the
            // runtime dispatcher's timeout/hedge/backoff ladder. Every
            // attempt is charged to its node's ledger, lost or not.
            let chaos = spec.chaos;
            let exec = execs[idx];
            let start_us = starts[idx];
            let timeout = chaos.timeout_mult * exec;
            let mut batch_done = f64::NEG_INFINITY;
            for &id in &ep.targets[idx] {
                let mut a_start = start_us;
                let mut attempt = 0u32;
                let leg_done = loop {
                    let eff = exec * spec.faults.straggler_multiplier(id, a_start);
                    let lost = spec.faults.drops_leg(id, a_start, attempt);
                    let f = free_at.entry(id).or_insert(0.0);
                    *f = f.max(a_start) + eff;
                    let mut cand = if lost { f64::INFINITY } else { a_start + eff };
                    let deadline = a_start + timeout;
                    if attempt == 0
                        && chaos.hedging
                        && cand > a_start + chaos.hedge_frac * timeout
                    {
                        let hedge_to = ep
                            .hedge_next
                            .iter()
                            .find(|&&(n, _)| n == id)
                            .map(|&(_, s)| s);
                        if let Some(h) = hedge_to {
                            let hedge_at = a_start + chaos.hedge_frac * timeout;
                            let h_start =
                                free_at.get(&h).copied().unwrap_or(0.0).max(hedge_at);
                            let h_eff = exec * spec.faults.straggler_multiplier(h, h_start);
                            let h_lost = spec.faults.drops_leg(h, h_start, 1);
                            free_at.insert(h, h_start + h_eff);
                            hedged_legs += 1;
                            if let Some(r) = ring.borrow_mut().as_mut() {
                                r.record(TraceEvent::hedge(hedge_at, batch, id, h));
                            }
                            if !h_lost {
                                cand = cand.min(h_start + h_eff);
                            }
                        }
                    }
                    if cand <= deadline {
                        break cand;
                    }
                    leg_timeouts += 1;
                    if let Some(r) = ring.borrow_mut().as_mut() {
                        r.record(TraceEvent::timeout(deadline, batch, id, attempt, timeout));
                    }
                    if attempt >= chaos.max_retries {
                        let f = free_at.entry(id).or_insert(0.0);
                        *f = f.max(deadline) + exec;
                        break deadline + exec;
                    }
                    attempt += 1;
                    leg_retries += 1;
                    a_start = deadline + chaos.backoff_base_us * (1u64 << (attempt - 1)) as f64;
                };
                batch_done = batch_done.max(leg_done);
            }
            done_us = batch_done;
        } else {
            done_us = starts[idx] + execs[idx];
            for id in &ep.targets[idx] {
                let f = free_at.entry(*id).or_insert(0.0);
                *f = f.max(flush_at_us) + execs[idx];
            }
        }

        // Failure retries, mirroring the runtime's fault model exactly.
        let mut exec_epoch = e;
        let mut retried = false;
        let mut scan = e;
        while scan < spec.events.len() {
            let ev = spec.events[scan];
            if ev.at_us >= done_us {
                break;
            }
            if let Some(failed) = ev.failed {
                if spec.epochs[exec_epoch].targets[idx].contains(&failed) {
                    exec_epoch = scan + 1;
                    retried = true;
                    retried_batches += 1;
                    let retry_ep = &spec.epochs[exec_epoch];
                    let retry_exec = retry_ep.mappings.mappings[idx].profile.latency_us(size);
                    let retry_start = retry_ep.targets[idx]
                        .iter()
                        .map(|id| free_at.get(id).copied().unwrap_or(0.0))
                        .fold(f64::NEG_INFINITY, f64::max)
                        .max(ev.at_us);
                    done_us = retry_start + retry_exec;
                    final_exec = retry_exec;
                    if let Some(r) = ring.borrow_mut().as_mut() {
                        r.record(TraceEvent::retry(ev.at_us, batch, failed, exec_epoch as u64));
                        for id in &retry_ep.targets[idx] {
                            r.record(TraceEvent::scatter(ev.at_us, batch, *id, exec_epoch as u64));
                        }
                    }
                    for id in &retry_ep.targets[idx] {
                        let f = free_at.entry(*id).or_insert(0.0);
                        *f = f.max(ev.at_us) + retry_exec;
                    }
                }
            }
            scan += 1;
        }

        if let Some(r) = ring.borrow_mut().as_mut() {
            r.record(TraceEvent::execute(
                done_us - final_exec,
                batch,
                exec_epoch as u64,
                done_us,
            ));
        }
        let accuracy = ep.mappings.mappings[idx].rep.accuracy as f64;
        let label = &labels[idx];
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
        batches.push(ClusterReplayBatch {
            mapping_idx: idx,
            epoch_idx: exec_epoch,
            queries,
            done_us,
            retried,
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
        "replay-cluster",
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
        ClusterReplayResult {
            outcome,
            batches,
            retried_batches,
            shed_queries,
            tenants,
            leg_timeouts,
            hedged_legs,
            leg_retries,
        },
        trace_rec,
    )
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
