//! The cluster dispatcher as a sans-IO core.
//!
//! Everything MP-Rec's online stage (paper §4.2, Algorithm 2) decides
//! is a function of `(spec, trace)`: per-tenant micro-batching, the
//! epoch cursor, the per-node `free_at` ledger, class and brownout
//! shedding, candidate scoring and masking, the timeout / hedge /
//! backoff ladder, failure retries, the adaptive re-plan trigger,
//! per-query virtual accounting and every event on the `dispatcher`
//! trace track. [`dispatch`] is that contract, written once, with no
//! thread, clock or queue in it; the rest reaches it through the four
//! methods of [`Executor`]. `mprec-runtime`'s cluster drives it with
//! threads and real math, [`crate::replay::replay_cluster`] with an
//! executor that only keeps the batch trail, and the `Scheduler`-based
//! [`crate::replay::replay`], which shares none of this file's state,
//! is the independent reference it is held to.

use mprec_core::planner::MappingSet;
use mprec_core::ring::FeatureShardPlan;
use mprec_core::scheduler::select_mapping;
use mprec_data::query::Query;
use mprec_data::scenario::{self, degrade_mask, ChaosConfig, FaultPlan};
use mprec_data::traffic::SlaClass;
use mprec_trace::{EventRing, TraceConfig, TraceEvent};

use crate::outcome::PathUsage;
use crate::replay::{degrade_rank_of, tenant_count_of, ReplayConfig, TenantOutcome};

/// One epoch of an elastic cluster as the dispatcher sees it.
#[derive(Debug, Clone)]
pub struct ClusterEpochSpec {
    /// Capacity-aware slowest-shard mapping set of the epoch.
    pub mappings: MappingSet,
    /// Per mapping index: the pruned scatter target node ids, ascending.
    pub targets: Vec<Vec<u32>>,
    /// Live node ids, ascending (the brownout gauge scans exactly
    /// these backlogs).
    pub live: Vec<u32>,
    /// Per live node: its consistent-hash-ring successor, the hedge
    /// target for a slow scatter leg.
    pub hedge_next: Vec<(u32, u32)>,
    /// The feature-shard assignment in force (the adaptive trigger
    /// picks the features to move off it).
    pub plan: FeatureShardPlan,
}

/// One rebalance event separating two epochs: a failure, a join (a
/// streaming one unrolls into its window open, one event per chunk
/// flip, and the penalty lift) or a recorded adaptive re-plan. It
/// advances the dispatcher to the next epoch at the first flush at or
/// after `at_us`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterChurnSpec {
    /// Virtual time of the event (µs).
    pub at_us: f64,
    /// `Some(node)` for a failure (in-flight batches to it retry under
    /// the next epoch); no other step retries anything.
    pub failed: Option<u32>,
}

/// What a served cluster's dispatcher ran on, as recorded by
/// `mprec-runtime`'s `Cluster::replay_spec` and consumed by
/// [`crate::replay::replay_cluster`].
#[derive(Debug, Clone)]
pub struct ClusterReplaySpec {
    /// Epochs, boot epoch first, and the events separating consecutive
    /// ones (`events.len() == epochs.len() - 1`).
    pub epochs: Vec<ClusterEpochSpec>,
    pub events: Vec<ClusterChurnSpec>,
    /// The fault schedule and hardening knobs in force (both inert by
    /// default).
    pub faults: FaultPlan,
    pub chaos: ChaosConfig,
}

/// When the adaptive planner re-plans: once the static schedule is
/// exhausted, a backlog imbalance of `threshold_us` between the busiest
/// and the idlest live node, at least `cooldown_us` after the previous
/// re-plan, moves `max_moves` features off the busiest node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveTrigger {
    pub threshold_us: f64,
    pub cooldown_us: f64,
    pub max_moves: usize,
}

/// Everything one dispatch is a function of, besides the trace.
#[derive(Debug)]
pub struct DispatchSpec<'a> {
    /// The static epoch sequence, boot epoch first, and the events
    /// separating consecutive epochs.
    pub epochs: Vec<&'a ClusterEpochSpec>,
    pub events: &'a [ClusterChurnSpec],
    /// The fault schedule and the hardening knobs legs resolve against.
    pub faults: &'a FaultPlan,
    pub chaos: ChaosConfig,
    /// Every node id the epochs mention; a node's position here is its
    /// slot in the `free_at` ledger.
    pub node_ids: &'a [u32],
    /// Micro-batching rules and per-tenant SLA classes.
    pub batching: &'a ReplayConfig,
    /// `None` when overlay epochs (if any) arrive as recorded `events`.
    pub adaptive: Option<AdaptiveTrigger>,
    /// Flight-recorder gate for the `dispatcher` track.
    pub recorder: TraceConfig,
}

/// One batch's trip through a flush: routing fills the fields up to
/// `start_us`; leg resolution and the retry scan settle the rest.
#[derive(Debug, Clone, Copy)]
pub struct Flight {
    /// Dispatch-order batch id, flushing tenant, routed epoch, routed
    /// mapping index, samples.
    pub batch: u64,
    pub tenant: usize,
    pub epoch: usize,
    pub idx: usize,
    pub samples: u64,
    /// Scored execution cost of the routed path and the virtual start
    /// of its first attempt (`>=` the flush instant), in µs.
    pub exec_us: f64,
    pub start_us: f64,
    /// Virtual completion and the execution cost of the final attempt,
    /// after leg resolution and any failure retry.
    pub done_us: f64,
    pub final_exec_us: f64,
    /// Epoch whose pruned assignment really executes the batch; later
    /// than `epoch` exactly when a node failure restarted it.
    pub exec_epoch: usize,
}

/// The dispatcher's four IO points. Everything else it does is in this
/// file.
pub trait Executor {
    /// Open-loop pacing: returns once the wall clock reaches virtual
    /// time `t_us` (immediately when nothing is paced).
    fn pace(&mut self, t_us: f64);

    /// Static event `event` is due at `at_us`: quiesce, snapshot and
    /// move state; membership events go on `tally.ring`. `false`
    /// aborts.
    fn barrier(&mut self, event: usize, at_us: f64, tally: &mut DispatchTally) -> bool;

    /// The adaptive trigger fired at `at_us`: migrate `moved` (features
    /// of the busiest node) to `idlest` behind the same kind of barrier
    /// and return the overlay epoch that results. `None` aborts.
    fn build_overlay(
        &mut self,
        idlest: u32,
        moved: &[usize],
        at_us: f64,
        tally: &mut DispatchTally,
    ) -> Option<ClusterEpochSpec>;

    /// `flight` is settled and accounted: execute its `queries` under
    /// `flight.exec_epoch`'s assignment. `false` aborts.
    fn scatter(&mut self, flight: &Flight, queries: &[&Query]) -> bool;
}

/// Everything a dispatch decided; both drivers project their reports
/// from it.
#[derive(Debug)]
pub struct DispatchTally {
    /// Path label per mapping index.
    pub labels: Vec<String>,
    /// Per-path usage, and Σ size × routed-path accuracy.
    pub usage: PathUsage,
    pub correct_samples: f64,
    /// Mapping index per micro-batch, in dispatch order.
    pub decisions: Vec<usize>,
    /// Per-tenant rows, indexed by tenant id; they partition the trace
    /// and hold the only shed and SLA-violation counts.
    pub tenants: Vec<TenantOutcome>,
    /// Batches restarted by an in-flight node failure, and the queries
    /// inside them.
    pub retried_batches: u64,
    pub retried_queries: u64,
    /// Scatter legs past their virtual deadline, hedge legs issued, and
    /// backoff retries of timed-out legs.
    pub leg_timeouts: u64,
    pub hedged_legs: u64,
    pub leg_retries: u64,
    /// Batches routed per epoch (static epochs, then overlays).
    pub epoch_batches: Vec<u64>,
    /// Latest virtual completion.
    pub last_done_us: f64,
    /// An executor call returned "abort"; the counts are partial.
    pub aborted: bool,
    /// The dispatcher track (`None` when tracing is off).
    pub ring: Option<EventRing>,
}

impl DispatchTally {
    /// Queries shed before routing, over every tenant.
    pub fn shed_queries(&self) -> u64 {
        self.tenants.iter().map(|t| t.shed_queries).sum()
    }

    /// Queries whose virtual latency exceeded their class's SLA, over
    /// every tenant.
    pub fn sla_violations(&self) -> u64 {
        self.tenants.iter().map(|t| t.sla_violations).sum()
    }

    /// Records `event()` on the dispatcher track; the event is only
    /// built when the flight recorder is on.
    pub fn trace(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(ring) = self.ring.as_mut() {
            ring.record(event());
        }
    }
}

/// Dispatches `trace` under `spec`: virtual-time batching, routing and
/// accounting here, everything else through `exec`.
///
/// Queries batch *per tenant* (a tenant never shares a micro-batch with
/// another tenant's SLA class): a pending batch flushes at `oldest
/// arrival + max_batch_wait_us` once the next arrival lies beyond that
/// deadline (across tenants in (deadline, tenant) order); a query that
/// would push its tenant's batch over `max_batch_samples` flushes it
/// first, at the query's arrival; reaching the budget flushes at once;
/// the final partial batches flush at their deadlines. Every flush
/// first walks the event schedule up to its own instant.
///
/// # Panics
///
/// If `spec.chaos` fails [`ChaosConfig::validate`] or the epoch and
/// event counts disagree.
pub fn dispatch<'a, X: Executor>(
    spec: DispatchSpec<'a>,
    trace: &'a [Query],
    exec: &mut X,
) -> DispatchTally {
    assert_eq!(
        spec.events.len() + 1,
        spec.epochs.len(),
        "one event between consecutive epochs"
    );
    if let Err(why) = spec.chaos.validate() {
        panic!("dispatch spec carries an invalid ChaosConfig: {why}");
    }
    let mut core = Core::new(spec, trace);
    let budget = core.spec.batching.max_batch_samples as u64;
    for q in trace {
        let arrival_us = q.arrival_us as f64;
        while let Some((deadline, t)) = core.earliest_deadline() {
            if arrival_us <= deadline {
                break;
            }
            exec.pace(deadline);
            core.flush(t, deadline, exec);
        }
        exec.pace(arrival_us);
        let t = scenario::tenant_of(q.id) as usize;
        if !core.pending[t].is_empty() && core.pending_samples[t] + q.size as u64 > budget {
            core.flush(t, arrival_us, exec);
        }
        core.pending[t].push(q);
        core.pending_samples[t] += q.size as u64;
        core.tally
            .trace(|| TraceEvent::enqueue(arrival_us, q.id, q.size as u64));
        if core.pending_samples[t] >= budget {
            core.flush(t, arrival_us, exec);
        }
    }
    while let Some((deadline, t)) = core.earliest_deadline() {
        exec.pace(deadline);
        core.flush(t, deadline, exec);
    }
    // Trailing events: every epoch gets its boundary even when the
    // schedule outlives the trace.
    core.advance_epochs(f64::INFINITY, exec);
    core.tally
}

/// The slot of node `id` in the per-node ledgers.
fn slot_of(node_ids: &[u32], id: u32) -> usize {
    node_ids
        .iter()
        .position(|&n| n == id)
        .expect("epochs only reference listed nodes")
}

/// The epoch at merged index `e`: the static schedule first, then the
/// overlays the adaptive trigger opened.
fn epoch_at<'s>(
    epochs: &'s [&ClusterEpochSpec],
    overlays: &'s [ClusterEpochSpec],
    e: usize,
) -> &'s ClusterEpochSpec {
    match epochs.get(e) {
        Some(ep) => ep,
        None => &overlays[e - epochs.len()],
    }
}

/// The dispatcher's state between flushes.
struct Core<'a> {
    spec: DispatchSpec<'a>,
    tally: DispatchTally,
    /// Per slot: when the node's virtual queue drains.
    free_at: Vec<f64>,
    /// Current merged epoch index.
    cur_epoch: usize,
    overlays: Vec<ClusterEpochSpec>,
    last_adaptive_us: f64,
    /// Per mapping index: the order the brownout and class ladders turn
    /// candidates off (2 = hybrid, masked first; 1 = DHE; 0 = table,
    /// never masked).
    ranks: Vec<u32>,
    /// Per tenant: its SLA class and its pending micro-batch.
    classes: Vec<SlaClass>,
    pending: Vec<Vec<&'a Query>>,
    pending_samples: Vec<u64>,
    /// Per-candidate routing scratch, reused across flushes so routing
    /// never allocates: scored completions (published in the
    /// `RouteDecision` event), execution costs, and start times.
    completions: Vec<f64>,
    execs: Vec<f64>,
    starts: Vec<f64>,
}

impl<'a> Core<'a> {
    fn new(spec: DispatchSpec<'a>, trace: &[Query]) -> Self {
        let tenants = tenant_count_of(trace, spec.batching);
        let boot = &spec.epochs[0].mappings;
        let tally = DispatchTally {
            labels: boot
                .mappings
                .iter()
                .map(|m| m.label(&boot.platforms))
                .collect(),
            usage: PathUsage::default(),
            correct_samples: 0.0,
            decisions: Vec::new(),
            tenants: vec![TenantOutcome::default(); tenants],
            retried_batches: 0,
            retried_queries: 0,
            leg_timeouts: 0,
            hedged_legs: 0,
            leg_retries: 0,
            epoch_batches: vec![0; spec.epochs.len()],
            last_done_us: 0.0,
            aborted: false,
            ring: spec.recorder.ring(),
        };
        Core {
            tally,
            free_at: vec![0.0; spec.node_ids.len()],
            cur_epoch: 0,
            overlays: Vec::new(),
            last_adaptive_us: f64::NEG_INFINITY,
            ranks: boot
                .mappings
                .iter()
                .map(|m| degrade_rank_of(m.rep.role))
                .collect(),
            classes: (0..tenants).map(|t| spec.batching.class_of(t)).collect(),
            pending: vec![Vec::new(); tenants],
            pending_samples: vec![0; tenants],
            completions: Vec::new(),
            execs: Vec::new(),
            starts: Vec::new(),
            spec,
        }
    }

    /// Earliest batch deadline among tenants with pending queries
    /// (ties keep the lowest tenant index — the scan is ascending).
    fn earliest_deadline(&self) -> Option<(f64, usize)> {
        let mut due: Option<(f64, usize)> = None;
        for (t, p) in self.pending.iter().enumerate() {
            if let Some(first) = p.first() {
                let d = first.arrival_us as f64 + self.spec.batching.max_batch_wait_us;
                if due.is_none_or(|(bd, _)| d < bd) {
                    due = Some((d, t));
                }
            }
        }
        due
    }

    /// Walks the event schedule up to virtual time `t`, one executor
    /// barrier per event.
    fn advance_epochs<X: Executor>(&mut self, t: f64, exec: &mut X) {
        while self.cur_epoch < self.spec.events.len()
            && self.spec.events[self.cur_epoch].at_us <= t
            && !self.tally.aborted
        {
            let at_us = self.spec.events[self.cur_epoch].at_us;
            if !exec.barrier(self.cur_epoch, at_us, &mut self.tally) {
                self.tally.aborted = true;
                break;
            }
            self.cur_epoch += 1;
        }
    }

    /// Flushes `tenant`'s pending micro-batch at virtual time
    /// `flush_at_us` (callers only flush tenants with pending queries),
    /// first walking the event schedule up to that instant.
    fn flush<X: Executor>(&mut self, tenant: usize, flush_at_us: f64, exec: &mut X) {
        self.advance_epochs(flush_at_us, exec);
        let mut pending = std::mem::take(&mut self.pending[tenant]);
        let samples = std::mem::take(&mut self.pending_samples[tenant]);
        self.flush_batch(tenant, flush_at_us, &mut pending, samples, exec);
        // Hand the (emptied) buffer back so its capacity is reused.
        pending.clear();
        self.pending[tenant] = pending;
    }

    /// One flush, stage by stage: adaptive re-plan, class/brownout
    /// shed, route, leg resolution, failure retry, per-query
    /// accounting, then the executor's scatter.
    fn flush_batch<X: Executor>(
        &mut self,
        tenant: usize,
        flush_at_us: f64,
        pending: &mut Vec<&Query>,
        mut samples: u64,
        exec: &mut X,
    ) {
        if self.tally.aborted || !self.replan(flush_at_us, exec) {
            self.tally.aborted = true;
            return;
        }
        // Brownout gauge: the worst live-node virtual backlog at the
        // flush instant.
        let backlog_us = epoch_at(&self.spec.epochs, &self.overlays, self.cur_epoch)
            .live
            .iter()
            .map(|&id| (self.free_at[slot_of(self.spec.node_ids, id)] - flush_at_us).max(0.0))
            .fold(0.0f64, f64::max);
        self.shed(tenant, flush_at_us, backlog_us, pending, &mut samples);
        if pending.is_empty() {
            return;
        }
        let oldest_us = pending[0].arrival_us as f64;
        let sla_remaining = (self.classes[tenant].sla_us - (flush_at_us - oldest_us)).max(1.0);
        let mut flight = self.route(tenant, samples, sla_remaining, flush_at_us, backlog_us);
        if let Some(ring) = self.tally.ring.as_mut() {
            ring.record(TraceEvent::batch_formed(
                flush_at_us,
                flight.batch,
                pending.len() as u64,
                samples,
                oldest_us,
            ));
            ring.record(TraceEvent::route_decision(
                flush_at_us,
                flight.batch,
                samples,
                flight.epoch as u64,
                sla_remaining,
                flight.idx as i32,
                &self.completions,
            ));
            let ep = epoch_at(&self.spec.epochs, &self.overlays, flight.epoch);
            for &id in &ep.targets[flight.idx] {
                ring.record(TraceEvent::scatter(
                    flush_at_us,
                    flight.batch,
                    id,
                    flight.epoch as u64,
                ));
            }
        }
        self.resolve_legs(&mut flight, flush_at_us);
        self.retry_failures(&mut flight);
        self.account(&flight, pending);
        if !exec.scatter(&flight, pending) {
            self.tally.aborted = true;
        }
    }

    /// The adaptive trigger: once the static schedule is exhausted,
    /// watch the live nodes' virtual backlog at every flush. An
    /// imbalance (hot-key drift parks the hot features' owner at the
    /// back of every queue) asks the executor to move the busiest
    /// node's lowest-id owned features to the idlest live node, and the
    /// triggering flush itself routes under the overlay epoch that
    /// comes back. Reads only virtual state, so it is deterministic.
    /// `false` if the executor aborted.
    fn replan<X: Executor>(&mut self, flush_at_us: f64, exec: &mut X) -> bool {
        let Some(trigger) = self.spec.adaptive else {
            return true;
        };
        if self.cur_epoch < self.spec.events.len()
            || flush_at_us - self.last_adaptive_us < trigger.cooldown_us
        {
            return true;
        }
        let cur = epoch_at(&self.spec.epochs, &self.overlays, self.cur_epoch);
        let (free_at, node_ids) = (&self.free_at, self.spec.node_ids);
        let backlog = |id: u32| (free_at[slot_of(node_ids, id)] - flush_at_us).max(0.0);
        let mut busiest = cur.live[0];
        let mut idlest = cur.live[0];
        for &id in cur.live.iter().skip(1) {
            if backlog(id) > backlog(busiest) {
                busiest = id;
            }
            if backlog(id) < backlog(idlest) {
                idlest = id;
            }
        }
        let imbalance = backlog(busiest) - backlog(idlest);
        let moved: Vec<usize> = cur
            .plan
            .features_of(busiest)
            .iter()
            .copied()
            .take(trigger.max_moves.max(1))
            .collect();
        let fire = busiest != idlest && imbalance >= trigger.threshold_us && !moved.is_empty();
        if !fire {
            return true;
        }
        let overlay = exec.build_overlay(idlest, &moved, flush_at_us, &mut self.tally);
        let Some(overlay) = overlay else {
            return false;
        };
        self.overlays.push(overlay);
        self.tally.epoch_batches.push(0);
        self.last_adaptive_us = flush_at_us;
        self.cur_epoch += 1;
        true
    }

    /// Pre-routing sheds, each query with an explicit `Shed` outcome —
    /// never a silent drop. Class shed: past its last rung a loose
    /// tenant's whole batch is shed instead of queueing, while strict
    /// tenants keep routing through the same overload. Brownout shed
    /// (the chaos ladder's last rung): low-priority queries go by the
    /// sequence-modulus policy. Leaves the survivors in `pending` and
    /// their sample total in `samples`.
    fn shed(
        &mut self,
        tenant: usize,
        flush_at_us: f64,
        backlog_us: f64,
        pending: &mut Vec<&Query>,
        samples: &mut u64,
    ) {
        let chaos = self.spec.chaos;
        let class_shed = self.classes[tenant].sheds(backlog_us);
        let brownout_shed = chaos.brownout && backlog_us >= chaos.brownout_shed_us;
        if !class_shed && !brownout_shed {
            return;
        }
        let tally = &mut self.tally;
        pending.retain(|q| {
            let shed = class_shed || chaos.sheds(backlog_us, scenario::sequence_of(q.id));
            if shed {
                *samples -= q.size as u64;
                tally.tenants[tenant].shed_queries += 1;
                tally.trace(|| TraceEvent::shed(flush_at_us, q.id, q.size as u64, backlog_us));
            }
            !shed
        });
    }

    /// Algorithm 2 in the current epoch: per path, expected execution
    /// from the capacity-aware slowest-shard profile, plus the queueing
    /// wait of its most-backlogged scatter target. The brownout ladder
    /// ([`ChaosConfig::brownout_mask`]) and then the flushing tenant's
    /// SLA-class ladder ([`degrade_mask`]) mask degraded
    /// candidates to `+inf` *before* selection, so a loose class
    /// degrades to cheaper paths while a strict class keeps the full
    /// set. Leaves every candidate's (post-mask) scored completion in
    /// `self.completions` for the `RouteDecision` event.
    fn route(
        &mut self,
        tenant: usize,
        samples: u64,
        sla_remaining_us: f64,
        now_us: f64,
        backlog_us: f64,
    ) -> Flight {
        let epoch = self.cur_epoch;
        let ep = epoch_at(&self.spec.epochs, &self.overlays, epoch);
        self.execs.clear();
        self.starts.clear();
        self.completions.clear();
        for (mapping, targets) in ep.mappings.mappings.iter().zip(&ep.targets) {
            let exec = mapping.profile.latency_us(samples);
            let busiest = targets
                .iter()
                .map(|&id| self.free_at[slot_of(self.spec.node_ids, id)])
                .fold(f64::NEG_INFINITY, f64::max);
            let start = busiest.max(now_us);
            self.execs.push(exec);
            self.starts.push(start);
            self.completions.push((start - now_us) + exec);
        }
        let ranks = &self.ranks;
        self.spec
            .chaos
            .brownout_mask(ranks, backlog_us, &mut self.completions);
        let class = &self.classes[tenant];
        degrade_mask(
            ranks,
            backlog_us,
            class.narrow_backlog_us,
            class.table_only_backlog_us,
            &mut self.completions,
        );
        let idx = select_mapping(&ep.mappings, &self.completions, sla_remaining_us)
            .expect("mapping set is never empty");
        Flight {
            batch: self.tally.decisions.len() as u64,
            tenant,
            epoch,
            idx,
            samples,
            exec_us: self.execs[idx],
            start_us: self.starts[idx],
            done_us: self.starts[idx] + self.execs[idx],
            final_exec_us: self.execs[idx],
            exec_epoch: epoch,
        }
    }

    /// Charges the batch's scatter legs to the per-node virtual ledgers
    /// and settles `flight.done_us`. Without chaos timeouts every leg
    /// is one clean attempt; with them, every leg runs the timeout /
    /// hedge / backoff-retry ladder against the fault plan. Every
    /// attempt — lost, hedged, or timed out — is charged to its node,
    /// so failed work back-pressures routing exactly like real work.
    fn resolve_legs(&mut self, flight: &mut Flight, flush_at_us: f64) {
        let ep = epoch_at(&self.spec.epochs, &self.overlays, flight.epoch);
        let node_ids = self.spec.node_ids;
        let tally = &mut self.tally;
        let free_at = &mut self.free_at;
        let (batch, exec, start_us) = (flight.batch, flight.exec_us, flight.start_us);
        let chaos = self.spec.chaos;
        if !chaos.timeouts_enabled() {
            for &id in &ep.targets[flight.idx] {
                let slot = slot_of(node_ids, id);
                free_at[slot] = free_at[slot].max(flush_at_us) + exec;
            }
            return;
        }
        let faults = self.spec.faults;
        let timeout = chaos.timeout_mult * exec;
        let mut batch_done = f64::NEG_INFINITY;
        for &id in &ep.targets[flight.idx] {
            let slot = slot_of(node_ids, id);
            let mut a_start = start_us;
            let mut attempt = 0u32;
            let leg_done = loop {
                let eff = exec * faults.straggler_multiplier(id, a_start);
                let lost = faults.drops_leg(id, a_start, attempt);
                free_at[slot] = free_at[slot].max(a_start) + eff;
                let mut cand = if lost { f64::INFINITY } else { a_start + eff };
                let deadline = a_start + timeout;
                // Hedge once, on the first attempt: past the hedge
                // fraction of the budget, re-issue to the node's ring
                // successor; first result wins.
                let hedge_at = a_start + chaos.hedge_frac * timeout;
                let hedging = attempt == 0 && chaos.hedging && cand > hedge_at;
                let hedge_to = ep.hedge_next.iter().find(|&&(n, _)| hedging && n == id);
                if let Some(&(_, h)) = hedge_to {
                    let hslot = slot_of(node_ids, h);
                    let h_start = free_at[hslot].max(hedge_at);
                    let h_eff = exec * faults.straggler_multiplier(h, h_start);
                    // The hedge is attempt 1 on the target: a
                    // ScatterLoss window (first attempts only) cannot
                    // eat it, a Stall can.
                    let h_lost = faults.drops_leg(h, h_start, 1);
                    free_at[hslot] = h_start + h_eff;
                    tally.hedged_legs += 1;
                    tally.trace(|| TraceEvent::hedge(hedge_at, batch, id, h));
                    if !h_lost {
                        cand = cand.min(h_start + h_eff);
                    }
                }
                if cand <= deadline {
                    break cand;
                }
                tally.leg_timeouts += 1;
                tally.trace(|| TraceEvent::timeout(deadline, batch, id, attempt, timeout));
                if attempt >= chaos.max_retries {
                    // Retries exhausted: force completion with one more
                    // clean execution charged at the deadline, so every
                    // batch still finishes.
                    free_at[slot] = free_at[slot].max(deadline) + exec;
                    break deadline + exec;
                }
                attempt += 1;
                tally.leg_retries += 1;
                // `ChaosConfig::validate` caps `max_retries` at 32, so
                // the shift cannot overflow.
                a_start = deadline + chaos.backoff_base_us * (1u64 << (attempt - 1)) as f64;
            };
            batch_done = batch_done.max(leg_done);
        }
        flight.done_us = batch_done;
    }

    /// Failure retries: a fail event inside this batch's flight window
    /// whose victim is one of its targets restarts the batch — at the
    /// failure instant, under the post-failure epoch — and the queries
    /// carry both legs' latency. Only failures retry: streaming
    /// sub-steps and re-plans keep every in-flight batch valid (its
    /// epoch's owners hold the features' warm state until the flip).
    fn retry_failures(&mut self, flight: &mut Flight) {
        let (epochs, overlays) = (&self.spec.epochs, &self.overlays);
        let node_ids = self.spec.node_ids;
        let tally = &mut self.tally;
        let free_at = &mut self.free_at;
        let (batch, idx) = (flight.batch, flight.idx);
        for (scan, ev) in self.spec.events.iter().enumerate().skip(flight.epoch) {
            if ev.at_us >= flight.done_us {
                break;
            }
            let Some(failed) = ev.failed else { continue };
            if !epoch_at(epochs, overlays, flight.exec_epoch).targets[idx].contains(&failed) {
                continue;
            }
            flight.exec_epoch = scan + 1;
            tally.retried_batches += 1;
            let epoch = flight.exec_epoch as u64;
            let retry_ep = epoch_at(epochs, overlays, flight.exec_epoch);
            let retry_exec = retry_ep.mappings.mappings[idx]
                .profile
                .latency_us(flight.samples);
            let retry_start = retry_ep.targets[idx]
                .iter()
                .map(|&id| free_at[slot_of(node_ids, id)])
                .fold(f64::NEG_INFINITY, f64::max)
                .max(ev.at_us);
            flight.done_us = retry_start + retry_exec;
            flight.final_exec_us = retry_exec;
            tally.trace(|| TraceEvent::retry(ev.at_us, batch, failed, epoch));
            for &id in &retry_ep.targets[idx] {
                tally.trace(|| TraceEvent::scatter(ev.at_us, batch, id, epoch));
                let slot = slot_of(node_ids, id);
                free_at[slot] = free_at[slot].max(ev.at_us) + retry_exec;
            }
        }
    }

    /// Per-query accounting at the batch's settled virtual completion.
    fn account(&mut self, flight: &Flight, pending: &[&Query]) {
        let (batch, idx, done_us) = (flight.batch, flight.idx, flight.done_us);
        let ep = epoch_at(&self.spec.epochs, &self.overlays, flight.epoch);
        let accuracy = ep.mappings.mappings[idx].rep.accuracy as f64;
        let sla_us = self.classes[flight.tenant].sla_us;
        let tally = &mut self.tally;
        tally.decisions.push(idx);
        tally.epoch_batches[flight.epoch] += 1;
        if flight.exec_epoch != flight.epoch {
            tally.retried_queries += pending.len() as u64;
        }
        tally.trace(|| {
            TraceEvent::execute(
                done_us - flight.final_exec_us,
                batch,
                flight.exec_epoch as u64,
                done_us,
            )
        });
        tally.last_done_us = tally.last_done_us.max(done_us);
        for q in pending {
            let latency = done_us - q.arrival_us as f64;
            let row = &mut tally.tenants[flight.tenant];
            if latency > sla_us {
                row.sla_violations += 1;
            }
            row.completed += 1;
            row.samples += q.size as u64;
            row.latency_sum_us += latency;
            tally.correct_samples += q.size as f64 * accuracy;
            tally.usage.record(&tally.labels[idx], q.size as u64);
            tally.trace(|| TraceEvent::complete(done_us, q.id, batch, latency));
        }
    }
}
