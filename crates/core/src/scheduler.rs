//! Algorithm 2: online dynamic multi-path activation.
//!
//! Per incoming query, MP-Rec activates the most accurate representation-
//! hardware path that can finish within the SLA latency target *without
//! throughput degradation*. The throughput guard is implemented via
//! per-platform backlog accounting: a path is only eligible if the
//! device's queued work plus this query's execution completes inside the
//! SLA window, so a path that cannot keep up naturally sheds load to the
//! table paths instead of building an unbounded queue.

use mprec_data::scenario::degrade_mask;

use crate::planner::MappingSet;
use crate::Result;

/// The scheduler has no tuning knobs. This empty type and the second
/// parameter of [`Scheduler::new`] remain only because the repo
/// benchmark (`benchmark/src/layers.rs`), which is kept frozen, names
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SchedulerConfig {}

/// The scheduler's verdict for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteDecision {
    /// Index into the mapping set's `mappings`.
    pub mapping_idx: usize,
    /// Index of the platform that will execute.
    pub platform_idx: usize,
    /// Expected execution latency (microseconds, excluding queueing).
    pub exec_us: f64,
    /// Expected completion latency including current backlog.
    pub expected_completion_us: f64,
    /// Accuracy of the activated representation.
    pub accuracy: f32,
}

/// Online router over a planned [`MappingSet`].
///
/// The scheduler tracks per-platform backlog in simulated microseconds;
/// callers advance time via [`Scheduler::advance_to`] and commit work via
/// [`Scheduler::commit`].
#[derive(Debug)]
pub struct Scheduler {
    mappings: MappingSet,
    /// Absolute simulated time (us) when each platform becomes free.
    free_at_us: Vec<f64>,
    now_us: f64,
}

impl Scheduler {
    /// Creates a scheduler over planned mappings.
    pub fn new(mappings: MappingSet, _cfg: SchedulerConfig) -> Self {
        let n = mappings.platforms.len();
        Scheduler {
            mappings,
            free_at_us: vec![0.0; n],
            now_us: 0.0,
        }
    }

    /// The planned mappings.
    pub fn mappings(&self) -> &MappingSet {
        &self.mappings
    }

    /// Advances simulated time to `t_us` (monotone).
    pub fn advance_to(&mut self, t_us: f64) {
        if t_us > self.now_us {
            self.now_us = t_us;
        }
    }

    /// Current backlog of a platform in microseconds.
    pub fn backlog_us(&self, platform_idx: usize) -> f64 {
        (self.free_at_us[platform_idx] - self.now_us).max(0.0)
    }

    /// The worst per-platform backlog (µs) — the pressure gauge the
    /// SLA-class ladder and the brownout controller consult. The replay
    /// twin computes the identical value from its own scheduler, so
    /// class-pressure decisions stay bit-equal across twins.
    pub fn max_backlog_us(&self) -> f64 {
        self.free_at_us
            .iter()
            .map(|&f| (f - self.now_us).max(0.0))
            .fold(0.0, f64::max)
    }

    /// Algorithm 2: route a query of `size` samples under `sla_us`.
    /// Returns `None` only when the mapping set is empty.
    pub fn route(&mut self, size: u64, sla_us: f64) -> Option<RouteDecision> {
        let mut completions = Vec::new();
        self.route_into(size, sla_us, &mut completions)
    }

    /// [`route`](Self::route), but additionally exposes every
    /// candidate's scored expected completion through `completions`
    /// (cleared and refilled, one entry per mapping index). The flight
    /// recorder uses this to keep the *rejected* candidates' costs in
    /// the `RouteDecision` trace event; callers that route repeatedly
    /// reuse the buffer to stay allocation-free.
    pub fn route_into(
        &mut self,
        size: u64,
        sla_us: f64,
        completions: &mut Vec<f64>,
    ) -> Option<RouteDecision> {
        self.route_classed_into(size, sla_us, &[], f64::INFINITY, f64::INFINITY, completions)
    }

    /// [`route_into`](Self::route_into) under an SLA-class pressure
    /// ladder: after scoring every candidate, [`degrade_mask`]
    /// masks the degradable candidates the class's rungs have turned
    /// off at the current [`max_backlog_us`](Self::max_backlog_us)
    /// (visible to the flight recorder as `+inf` costs in the
    /// `RouteDecision` event), then [`select_mapping`] picks among the
    /// survivors. An empty `degrade_rank` (or infinite thresholds — a
    /// strict class) reduces exactly to the unclassed route.
    pub fn route_classed_into(
        &mut self,
        size: u64,
        sla_us: f64,
        degrade_rank: &[u32],
        narrow_backlog_us: f64,
        table_only_backlog_us: f64,
        completions: &mut Vec<f64>,
    ) -> Option<RouteDecision> {
        completions.clear();
        for m in self.mappings.mappings.iter() {
            completions.push(self.backlog_us(m.platform_idx) + m.profile.latency_us(size));
        }
        if !degrade_rank.is_empty() {
            degrade_mask(
                degrade_rank,
                self.max_backlog_us(),
                narrow_backlog_us,
                table_only_backlog_us,
                completions,
            );
        }
        let idx = select_mapping(&self.mappings, completions, sla_us)?;
        let m = &self.mappings.mappings[idx];
        // Recompute the chosen exec instead of keeping a second buffer;
        // identical arithmetic to the scoring pass above.
        let exec_us = m.profile.latency_us(size);
        Some(RouteDecision {
            mapping_idx: idx,
            platform_idx: m.platform_idx,
            exec_us,
            expected_completion_us: completions[idx],
            accuracy: m.rep.accuracy,
        })
    }

    /// Commits a routed query: occupies the platform for `exec_us` and
    /// returns the completion timestamp.
    pub fn commit(&mut self, decision: &RouteDecision) -> f64 {
        let start = self.free_at_us[decision.platform_idx].max(self.now_us);
        let done = start + decision.exec_us;
        self.free_at_us[decision.platform_idx] = done;
        done
    }

    /// Convenience: route + commit, returning `(decision, completion)`.
    ///
    /// See [`select_mapping`] for the bare selection rule when the
    /// caller tracks its own backlogs (the cluster front-end and its
    /// replay twin route over per-node queues this scheduler does not
    /// model).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::NoFeasibleMapping`] when the mapping
    /// set is empty.
    pub fn dispatch(&mut self, size: u64, sla_us: f64) -> Result<(RouteDecision, f64)> {
        let d = self
            .route(size, sla_us)
            .ok_or(crate::CoreError::NoFeasibleMapping)?;
        let done = self.commit(&d);
        Ok((d, done))
    }
}

/// Algorithm 2's bare selection rule over precomputed expected
/// completions: the most accurate mapping whose
/// `expected_completion_us` fits inside `sla_us` (ties broken by lower
/// completion, then mapping order), falling back to the fastest
/// expected completion when nothing fits. Over candidates of one
/// accuracy (a table-only set) both branches pick the lowest-index
/// fastest completion.
///
/// [`Scheduler::route`] is this rule fed with `platform backlog +
/// profiled latency`; callers with richer queueing models (the elastic
/// cluster charges per-*node* backlogs over per-path scatter target
/// sets) compute `expected_completion_us` themselves and share the
/// exact same decision logic, so the runtime and its replay simulator
/// cannot disagree on tie-breaking.
///
/// Returns `None` only when the mapping set is empty.
///
/// # Panics
///
/// Panics if `expected_completion_us` is shorter than the mapping list
/// or contains non-finite values.
pub fn select_mapping(
    mappings: &MappingSet,
    expected_completion_us: &[f64],
    sla_us: f64,
) -> Option<usize> {
    let n = mappings.mappings.len();
    if n == 0 {
        return None;
    }
    // Sort by accuracy (desc), then by expected completion (asc).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let acc_a = mappings.mappings[a].rep.accuracy;
        let acc_b = mappings.mappings[b].rep.accuracy;
        acc_b.partial_cmp(&acc_a).expect("finite accuracy").then(
            expected_completion_us[a]
                .partial_cmp(&expected_completion_us[b])
                .expect("finite latency"),
        )
    });
    // First (most accurate) path that completes within the SLA.
    for &idx in &order {
        if expected_completion_us[idx] <= sla_us {
            return Some(idx);
        }
    }
    // Fallback: fastest expected completion, i.e. the latency-critical
    // table path on the least-loaded device.
    (0..n).min_by(|&a, &b| {
        expected_completion_us[a]
            .partial_cmp(&expected_completion_us[b])
            .expect("finite latency")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{CandidateRep, RepRole};
    use crate::planner::{Mapping, MappingSet};
    use crate::profile::LatencyProfile;
    use mprec_embed::RepresentationConfig;
    use mprec_hwsim::{Platform, WorkloadBuilder};

    /// Builds a synthetic two-platform mapping set with controlled
    /// latencies: hybrid (slow, accurate) on GPU; table (fast) on CPU+GPU.
    fn toy_mappings() -> MappingSet {
        let b = WorkloadBuilder::new("toy", vec![1000; 4], 13);
        let mk_rep = |name: &str, role, acc| CandidateRep {
            name: name.into(),
            role,
            config: RepresentationConfig::table(8),
            workload: b.table(8).unwrap(),
            accuracy: acc,
        };
        let flat = |us: f64| {
            LatencyProfile::from_points(vec![1, 4096], vec![us, us])
        };
        MappingSet {
            platforms: vec![Platform::cpu(), Platform::gpu()],
            mappings: vec![
                Mapping {
                    rep: mk_rep("hybrid", RepRole::Hybrid, 0.79),
                    platform_idx: 1,
                    profile: flat(8_000.0),
                },
                Mapping {
                    rep: mk_rep("table", RepRole::Table, 0.78),
                    platform_idx: 0,
                    profile: flat(1_000.0),
                },
                Mapping {
                    rep: mk_rep("table", RepRole::Table, 0.78),
                    platform_idx: 1,
                    profile: flat(500.0),
                },
            ],
        }
    }

    #[test]
    fn loose_sla_activates_hybrid() {
        let mut s = Scheduler::new(toy_mappings(), SchedulerConfig::default());
        let d = s.route(128, 10_000.0).unwrap();
        assert_eq!(d.accuracy, 0.79, "hybrid should win under a loose SLA");
    }

    #[test]
    fn tight_sla_falls_back_to_table() {
        let mut s = Scheduler::new(toy_mappings(), SchedulerConfig::default());
        let d = s.route(128, 2_000.0).unwrap();
        assert_eq!(d.accuracy, 0.78);
        assert!(d.exec_us <= 1_000.0);
    }

    #[test]
    fn backlog_forces_fallback() {
        let mut s = Scheduler::new(toy_mappings(), SchedulerConfig::default());
        // Saturate the GPU with hybrid work.
        for _ in 0..3 {
            let (d, _) = s.dispatch(128, 30_000.0).unwrap();
            assert_eq!(d.accuracy, 0.79);
        }
        // GPU backlog is now ~24 ms; a 10 ms SLA query must use a table.
        let d = s.route(128, 10_000.0).unwrap();
        assert_eq!(d.accuracy, 0.78);
    }

    #[test]
    fn time_advance_drains_backlog() {
        let mut s = Scheduler::new(toy_mappings(), SchedulerConfig::default());
        let (_, done) = s.dispatch(128, 30_000.0).unwrap();
        assert!(s.backlog_us(1) > 0.0);
        s.advance_to(done);
        assert_eq!(s.backlog_us(1), 0.0);
    }

    /// The table-switching shape: the toy set's two table mappings, one
    /// per platform, at one accuracy.
    fn table_only_mappings() -> MappingSet {
        let mut set = toy_mappings();
        set.mappings.retain(|m| m.rep.role == RepRole::Table);
        set
    }

    #[test]
    fn table_only_policy_picks_fastest() {
        let mut s = Scheduler::new(table_only_mappings(), SchedulerConfig::default());
        let d = s.route(128, 100_000.0).unwrap();
        assert_eq!(d.exec_us, 500.0, "fastest table path (GPU) expected");
    }

    #[test]
    fn fastest_path_balances_load() {
        let mut s = Scheduler::new(table_only_mappings(), SchedulerConfig::default());
        // First queries go to GPU (500us); once backlogged, CPU (1000us)
        // becomes competitive.
        let mut used_cpu = false;
        for _ in 0..6 {
            let (d, _) = s.dispatch(128, 100_000.0).unwrap();
            if d.platform_idx == 0 {
                used_cpu = true;
            }
        }
        assert!(used_cpu, "load balancing should spill to CPU");
    }

    #[test]
    fn impossible_sla_still_returns_fastest() {
        // Algorithm 2 line 7: default to the table path even when the SLA
        // cannot be met (the query will just violate).
        let mut s = Scheduler::new(toy_mappings(), SchedulerConfig::default());
        let d = s.route(4096, 1.0).unwrap();
        assert_eq!(d.accuracy, 0.78);
    }

    #[test]
    fn classed_route_degrades_loose_class_under_pressure() {
        let mut s = Scheduler::new(toy_mappings(), SchedulerConfig::default());
        let ranks = [2u32, 0, 0]; // hybrid, table, table
        let mut costs = Vec::new();
        // Idle: the loose class still gets the hybrid path.
        let d = s
            .route_classed_into(128, 30_000.0, &ranks, 4_000.0, 16_000.0, &mut costs)
            .unwrap();
        assert_eq!(d.accuracy, 0.79);
        s.commit(&d); // GPU backlog now 8 ms >= narrow rung.
        let d = s
            .route_classed_into(128, 30_000.0, &ranks, 4_000.0, 16_000.0, &mut costs)
            .unwrap();
        assert_eq!(d.accuracy, 0.78, "pressure must mask the hybrid path");
        assert_eq!(
            costs[0],
            f64::INFINITY,
            "masked candidate cost must stay visible to the recorder"
        );
    }

    #[test]
    fn empty_ranks_reduce_to_unclassed_route() {
        let mut a = Scheduler::new(toy_mappings(), SchedulerConfig::default());
        let mut b = Scheduler::new(toy_mappings(), SchedulerConfig::default());
        let mut costs = Vec::new();
        for _ in 0..4 {
            let (da, _) = a.dispatch(128, 10_000.0).unwrap();
            let db = b
                .route_classed_into(128, 10_000.0, &[], 0.0, 0.0, &mut costs)
                .unwrap();
            b.commit(&db);
            assert_eq!(da, db);
        }
    }
}
