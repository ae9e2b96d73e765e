//! Scenario-diverse load generators for serving experiments.
//!
//! The paper's serving evaluation drives a single steady Poisson trace
//! (§5.3); datacenter traffic is not steady. This module generates the
//! scenario family the scale-out experiments sweep — each one a
//! deterministic transform of the base [`QueryTraceConfig`]:
//!
//! * [`LoadScenario::SteadyPoisson`] — the paper's trace, bit-identical
//!   to [`QueryGenerator`] output;
//! * [`LoadScenario::Diurnal`] — a sinusoidal day/night rate swing
//!   around the target QPS (capacity planning: sustained peaks);
//! * [`LoadScenario::FlashCrowd`] — a burst window at a rate multiple
//!   (breaking-news spikes: SLA survival under transient overload);
//! * [`LoadScenario::HotKeyDrift`] — steady arrivals whose *popular ID
//!   set* rotates across epochs, encoded in the query-id epoch bits
//!   (cache churn: the MP-Cache static tier goes stale as the hot set
//!   moves).
//!
//! Hot-key drift, tenancy, and user identity all travel inside
//! [`Query::id`] under a validated bit budget (see [`pack_query_id`]):
//!
//! ```text
//! bit 63                                                    bit 0
//! | epoch : 8 | tenant : 4 |      user : 24     |    seq : 28    |
//! ```
//!
//! * **epoch** (8 bits, 256 hot-set rotations) — the hot-key-drift
//!   epoch, formerly 16 bits at shift 48. The old layout let a wide
//!   sequence space collide with the epoch bits (a trace of more than
//!   2^48 queries — or any generator packing user ids into the low
//!   bits — would silently bleed into the epoch field); every field is
//!   now `debug_assert`-validated at pack time and budget-checked by a
//!   unit test.
//! * **tenant** (4 bits, 16 tenants) — which [`crate::traffic`] tenant
//!   issued the query; 0 for every legacy single-tenant trace.
//! * **user** (24 bits, ~16.7M distinct users) — the issuing user plus
//!   one; 0 is reserved for "no user" so legacy traces (plain
//!   sequential ids) decode as user-less and reproduce the historical
//!   ID draws bit-exactly.
//! * **seq** (28 bits, ~268M queries) — the global sequence number.
//!
//! Consumers that draw sparse IDs per query (the runtime's
//! `RuntimeModel`) rotate their Zipf ranks by per-epoch and per-tenant
//! offsets and mix the user into the per-query stream, so an all-zero
//! high half (every non-drift, single-tenant trace) reproduces the
//! legacy ID stream exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::query::{Query, QueryGenerator, QueryTraceConfig};

/// Bits carrying the hot-key epoch (field width of [`pack_query_id`]).
pub const EPOCH_BITS: u32 = 8;
/// Bits carrying the tenant index.
pub const TENANT_BITS: u32 = 4;
/// Bits carrying the user id (+1; 0 = no user).
pub const USER_BITS: u32 = 24;
/// Bits carrying the sequential query number.
pub const SEQ_BITS: u32 = 28;

/// Bit position where the sequential query number starts (always 0).
pub const SEQ_SHIFT: u32 = 0;
/// Bit position where the user field starts.
pub const USER_SHIFT: u32 = SEQ_SHIFT + SEQ_BITS;
/// Bit position where the tenant field starts.
pub const TENANT_SHIFT: u32 = USER_SHIFT + USER_BITS;
/// Bit position where the hot-key epoch lives inside a query id.
pub const EPOCH_SHIFT: u32 = TENANT_SHIFT + TENANT_BITS;

// The budget must tile the id exactly: a gap would waste bits, an
// overlap would let one field corrupt another (the bug this layout
// fixes). Checked at compile time.
const _: () = assert!(EPOCH_BITS + TENANT_BITS + USER_BITS + SEQ_BITS == 64);

#[inline]
const fn field_mask(bits: u32) -> u64 {
    (1u64 << bits) - 1
}

/// Packs all four id fields, validating each against its bit budget.
///
/// # Panics (debug builds)
///
/// `debug_assert`s that every field fits its width — an overflowing
/// field would silently alias a neighbouring field in release builds,
/// so generators must validate their id spaces up front (the traffic
/// engine does, see [`crate::traffic::TrafficConfig::validate`]).
#[inline]
pub fn pack_query_id(epoch: u32, tenant: u32, user: u64, sequence: u64) -> u64 {
    debug_assert!((epoch as u64) <= field_mask(EPOCH_BITS), "epoch {epoch} overflows its {EPOCH_BITS}-bit budget");
    debug_assert!((tenant as u64) <= field_mask(TENANT_BITS), "tenant {tenant} overflows its {TENANT_BITS}-bit budget");
    debug_assert!(user <= field_mask(USER_BITS), "user {user} overflows its {USER_BITS}-bit budget");
    debug_assert!(sequence <= field_mask(SEQ_BITS), "sequence {sequence} overflows its {SEQ_BITS}-bit budget");
    ((epoch as u64) << EPOCH_SHIFT)
        | ((tenant as u64) << TENANT_SHIFT)
        | (user << USER_SHIFT)
        | sequence
}

/// Packs a sequential query number and a hot-key epoch into a query id
/// (tenant and user zero — the legacy single-tenant layout).
#[inline]
pub fn with_epoch(sequence: u64, epoch: u32) -> u64 {
    pack_query_id(epoch, 0, 0, sequence)
}

/// Hot-key epoch of a query id (0 for every non-drift trace).
#[inline]
pub fn epoch_of(id: u64) -> u64 {
    id >> EPOCH_SHIFT
}

/// Tenant index of a query id (0 for every legacy trace).
#[inline]
pub fn tenant_of(id: u64) -> u32 {
    ((id >> TENANT_SHIFT) & field_mask(TENANT_BITS)) as u32
}

/// User field of a query id: `user + 1` for traffic-engine queries, 0
/// ("no user") for legacy traces.
#[inline]
pub fn user_of(id: u64) -> u64 {
    (id >> USER_SHIFT) & field_mask(USER_BITS)
}

/// Sequential query number of a query id.
#[inline]
pub fn sequence_of(id: u64) -> u64 {
    id & field_mask(SEQ_BITS)
}

/// Largest value each id field admits, in `(epoch, tenant, user,
/// sequence)` order — what generators validate their spaces against.
pub const fn id_field_limits() -> (u64, u64, u64, u64) {
    (
        field_mask(EPOCH_BITS),
        field_mask(TENANT_BITS),
        field_mask(USER_BITS),
        field_mask(SEQ_BITS),
    )
}

/// One load scenario: how arrivals (and for hot-key drift, ID
/// popularity) evolve over the trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LoadScenario {
    /// Constant-rate Poisson arrivals (the paper's §5.3 trace).
    #[default]
    SteadyPoisson,
    /// Sinusoidal rate modulation: `rate(t) = qps * (1 + amplitude *
    /// sin(2π * periods * t / span))`, floored at 5% of the base rate.
    Diurnal {
        /// Full sine periods across the trace span (e.g. 2.0 = two
        /// day/night cycles).
        periods: f64,
        /// Swing around the base rate in [0, 1).
        amplitude: f64,
    },
    /// A burst window at `multiplier`x the base rate.
    FlashCrowd {
        /// Burst start as a fraction of the nominal trace span.
        start_frac: f64,
        /// Burst length as a fraction of the nominal trace span.
        duration_frac: f64,
        /// Rate multiple inside the burst (>= 1).
        multiplier: f64,
    },
    /// Steady arrivals whose hot ID set rotates `epochs` times across
    /// the trace (epoch carried in the query-id high bits).
    HotKeyDrift {
        /// Number of distinct hot-set epochs across the trace.
        epochs: u32,
    },
}

impl LoadScenario {
    /// Short stable label for benches and JSON artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            LoadScenario::SteadyPoisson => "steady",
            LoadScenario::Diurnal { .. } => "diurnal",
            LoadScenario::FlashCrowd { .. } => "flash",
            LoadScenario::HotKeyDrift { .. } => "hotkey",
        }
    }

    /// The default parameterization per scenario family, as swept by
    /// the differential tests.
    pub fn default_of(label: &str) -> Option<LoadScenario> {
        match label {
            "steady" => Some(LoadScenario::SteadyPoisson),
            "diurnal" => Some(LoadScenario::Diurnal {
                periods: 2.0,
                amplitude: 0.8,
            }),
            "flash" => Some(LoadScenario::FlashCrowd {
                start_frac: 0.4,
                duration_frac: 0.15,
                multiplier: 4.0,
            }),
            "hotkey" => Some(LoadScenario::HotKeyDrift { epochs: 8 }),
            _ => None,
        }
    }

    /// Instantaneous rate multiplier at `t_us` into a trace whose
    /// nominal span is `span_us` (1.0 for scenarios that only reshape
    /// IDs).
    pub fn rate_multiplier(&self, t_us: f64, span_us: f64) -> f64 {
        match *self {
            LoadScenario::SteadyPoisson | LoadScenario::HotKeyDrift { .. } => 1.0,
            LoadScenario::Diurnal { periods, amplitude } => {
                let phase = 2.0 * std::f64::consts::PI * periods * t_us / span_us.max(1.0);
                (1.0 + amplitude * phase.sin()).max(0.05)
            }
            LoadScenario::FlashCrowd {
                start_frac,
                duration_frac,
                multiplier,
            } => {
                let start = start_frac * span_us;
                let end = start + duration_frac * span_us;
                if t_us >= start && t_us < end {
                    multiplier.max(1.0)
                } else {
                    1.0
                }
            }
        }
    }
}

/// What happens to a cluster node at a churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// The node fails: its shard state is lost, its features remap to
    /// the surviving nodes, in-flight batches to it are retried.
    Fail,
    /// A fresh node joins: ~K/N features remap onto it, arriving with a
    /// cold cache.
    Join,
}

/// One node-churn event on a cluster's virtual-time axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// Virtual time of the event (µs from trace start). Events take
    /// effect at the first batch flush at or after this instant.
    pub at_us: f64,
    /// The node id failing or joining.
    pub node: u32,
    /// Whether the node fails or joins.
    pub action: ChurnAction,
}

/// The canonical **node-churn** scenario for an `initial_nodes`-node
/// cluster over a trace whose nominal span is `span_us`: the
/// highest-numbered node fails at 40% of the span, and a fresh node
/// (id `initial_nodes`) joins at 70% — one full
/// fail → rebalance → recover → join → rebalance cycle, the schedule
/// the repo benchmark's `cluster_churn` and the churn tests run.
///
/// # Examples
///
/// ```
/// use mprec_data::scenario::{node_churn, ChurnAction};
///
/// let events = node_churn(4, 1_000_000.0);
/// assert_eq!(events.len(), 2);
/// assert_eq!((events[0].node, events[0].action), (3, ChurnAction::Fail));
/// assert_eq!((events[1].node, events[1].action), (4, ChurnAction::Join));
/// assert!(events[0].at_us < events[1].at_us);
/// ```
pub fn node_churn(initial_nodes: usize, span_us: f64) -> Vec<ChurnEvent> {
    let last = initial_nodes.saturating_sub(1) as u32;
    vec![
        ChurnEvent {
            at_us: 0.4 * span_us,
            node: last,
            action: ChurnAction::Fail,
        },
        ChurnEvent {
            at_us: 0.7 * span_us,
            node: initial_nodes as u32,
            action: ChurnAction::Join,
        },
    ]
}

/// Nominal span (µs) of a trace config: `num_queries / qps` — the time
/// axis churn schedules and scenario windows are phrased against.
pub fn nominal_span_us(num_queries: usize, qps: f64) -> f64 {
    num_queries as f64 * 1e6 / qps.max(1e-9)
}

/// What an injected fault does to the node it targets while its window
/// is open. Unlike [`ChurnEvent`]s, faults are *unannounced*: the epoch
/// machinery never sees them — only the request-lifecycle hardening
/// (timeouts, hedging, backoff, brownout) reacts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Execution on the node runs `factor`x slower (virtual time) for
    /// any attempt *started* inside the window.
    Straggler {
        /// Execution-time multiplier (> 1 slows the node down).
        factor: f64,
    },
    /// Transient scatter-leg loss: the node silently drops the batch's
    /// partial on the *first* attempt started inside the window; retried
    /// and hedged attempts succeed.
    ScatterLoss,
    /// Unannounced stall: the node drops *every* attempt started inside
    /// the window (only the retry ladder's post-window attempts, or the
    /// forced completion after the last timeout, resolve the leg).
    Stall,
}

/// One fault window on a cluster's virtual-time axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// The node the fault targets.
    pub node: u32,
    /// Window start (µs, inclusive). An attempt is affected iff its
    /// virtual start time falls inside `[from_us, until_us)`.
    pub from_us: f64,
    /// Window end (µs, exclusive).
    pub until_us: f64,
    /// What the fault does.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Whether the window is open at virtual time `t_us`.
    #[inline]
    pub fn active_at(&self, t_us: f64) -> bool {
        t_us >= self.from_us && t_us < self.until_us
    }
}

/// A deterministic, virtual-time-stamped fault schedule: the chaos
/// plane's input. The plan is pure data — the cluster dispatcher and
/// the replay twin both resolve attempts against it with the query
/// helpers below, so a `(config, seed)` pair reproduces every timeout,
/// hedge, and retry bit-exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Fault windows, in schedule order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults (the default: chaos armed but inert).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Combined straggler multiplier for an attempt starting on `node`
    /// at `t_us` (1.0 when no straggler window is open). Overlapping
    /// windows compose multiplicatively.
    #[inline]
    pub fn straggler_multiplier(&self, node: u32, t_us: f64) -> f64 {
        let mut mult = 1.0;
        for ev in &self.events {
            if ev.node == node && ev.active_at(t_us) {
                if let FaultKind::Straggler { factor } = ev.kind {
                    mult *= factor.max(1.0);
                }
            }
        }
        mult
    }

    /// Whether attempt number `attempt` (0 = the original scatter leg,
    /// 1+ = hedges/retries) starting on `node` at `t_us` is lost:
    /// [`FaultKind::ScatterLoss`] drops only attempt 0,
    /// [`FaultKind::Stall`] drops every attempt in its window.
    #[inline]
    pub fn drops_leg(&self, node: u32, t_us: f64, attempt: u32) -> bool {
        for ev in &self.events {
            if ev.node != node || !ev.active_at(t_us) {
                continue;
            }
            match ev.kind {
                FaultKind::ScatterLoss if attempt == 0 => return true,
                FaultKind::Stall => return true,
                _ => {}
            }
        }
        false
    }

    /// Seeded fault schedule for an `nodes`-node cluster over a trace
    /// whose nominal span is `span_us`: one straggler window, one
    /// scatter-loss window, and one stall window, each targeting a
    /// seed-drawn node with seed-drawn placement — deterministic per
    /// seed (pinned by the chaos determinism proptest).
    pub fn generate(nodes: usize, span_us: f64, seed: u64) -> FaultPlan {
        let nodes = nodes.max(1) as u32;
        let mut rng = StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT);
        let mut window = |kind_pick: u8| {
            let node = rng.gen_range(0..nodes as usize) as u32;
            let from = rng.gen_range(0.1..0.6) * span_us;
            let len = rng.gen_range(0.1..0.3) * span_us;
            let kind = match kind_pick {
                0 => FaultKind::Straggler { factor: 2.0 + 4.0 * rng.gen_range(0.0..1.0) },
                1 => FaultKind::ScatterLoss,
                _ => FaultKind::Stall,
            };
            FaultEvent { node, from_us: from, until_us: from + len, kind }
        };
        FaultPlan { events: vec![window(0), window(1), window(2)] }
    }

    /// The canonical **fault-storm** schedule for an `nodes`-node
    /// cluster over `span_us` — the fixed plan `tests/serving_contracts.rs`
    /// and the differential chaos tests run: node 0 straggles
    /// 4x over 30–55% of the span, node 1 (mod n) loses first-attempt
    /// scatter legs over 35–60%, and the highest node stalls outright
    /// over 60–75%.
    pub fn storm(nodes: usize, span_us: f64) -> FaultPlan {
        let n = nodes.max(1) as u32;
        FaultPlan {
            events: vec![
                FaultEvent {
                    node: 0,
                    from_us: 0.30 * span_us,
                    until_us: 0.55 * span_us,
                    kind: FaultKind::Straggler { factor: 4.0 },
                },
                FaultEvent {
                    node: 1 % n,
                    from_us: 0.35 * span_us,
                    until_us: 0.60 * span_us,
                    kind: FaultKind::ScatterLoss,
                },
                FaultEvent {
                    node: n - 1,
                    from_us: 0.60 * span_us,
                    until_us: 0.75 * span_us,
                    kind: FaultKind::Stall,
                },
            ],
        }
    }
}

/// Request-lifecycle hardening knobs: how the serving tier reacts to
/// the faults a [`FaultPlan`] injects. All virtual-time; the replay
/// twin receives the same config and reproduces every decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Per-leg timeout as a multiple of the batch's routed execution
    /// cost (`<= 0` disables the whole timeout/hedge/retry ladder and
    /// restores the legacy always-succeeds scatter contract).
    pub timeout_mult: f64,
    /// Issue a hedge to the feature's next ring owner once this
    /// fraction of the timeout budget has elapsed without a result
    /// (requires [`ChaosConfig::hedging`]).
    pub hedge_frac: f64,
    /// Enable hedged scatter.
    pub hedging: bool,
    /// Bounded retries after a leg timeout (the final retry's timeout is
    /// followed by a forced completion so every query still resolves).
    pub max_retries: u32,
    /// Exponential backoff base (µs): retry `k` starts
    /// `backoff_base_us * 2^(k-1)` after the previous deadline.
    pub backoff_base_us: f64,
    /// Enable the brownout controller (candidate narrowing + shedding).
    pub brownout: bool,
    /// Rung 1: when the worst per-node virtual backlog reaches this
    /// (µs), mask the hybrid path out of Algorithm 2's candidate set.
    pub brownout_narrow_us: f64,
    /// Rung 2: at this backlog, also mask DHE (table only).
    pub brownout_table_only_us: f64,
    /// Rung 3: at this backlog, shed low-priority queries outright.
    pub brownout_shed_us: f64,
    /// Every `shed_modulus`-th query (by trace sequence number) is
    /// low-priority and sheddable; 0 disables shedding.
    pub shed_modulus: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            timeout_mult: 0.0,
            hedge_frac: 0.5,
            hedging: false,
            max_retries: 2,
            backoff_base_us: 200.0,
            brownout: false,
            brownout_narrow_us: 4_000.0,
            brownout_table_only_us: 8_000.0,
            brownout_shed_us: 16_000.0,
            shed_modulus: 4,
        }
    }
}

impl ChaosConfig {
    /// The fully hardened profile: timeouts at 3x the scored cost,
    /// hedging at half the budget, and the brownout ladder armed with
    /// the default thresholds.
    pub fn hardened() -> Self {
        ChaosConfig { timeout_mult: 3.0, hedging: true, brownout: true, ..Self::default() }
    }

    /// Whether the timeout/hedge/retry ladder is active at all.
    #[inline]
    pub fn timeouts_enabled(&self) -> bool {
        self.timeout_mult > 0.0
    }

    /// Most backoff retries a leg may be configured with: retry `k`
    /// backs off `backoff_base_us * 2^(k-1)`, and the doubling has to
    /// stay far inside `u64`.
    pub const MAX_RETRIES: u32 = 32;

    /// Checks the knobs the ladder's arithmetic relies on: every
    /// duration finite and non-negative, `hedge_frac` inside `[0, 1]`,
    /// `max_retries` at most [`ChaosConfig::MAX_RETRIES`], and the
    /// brownout rungs non-negative and ascending (a rung may be
    /// `+inf`, never NaN).
    pub fn validate(&self) -> Result<(), String> {
        let duration = |name: &str, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(format!("chaos.{name} must be finite and >= 0, got {v}"))
            }
        };
        duration("timeout_mult", self.timeout_mult)?;
        duration("backoff_base_us", self.backoff_base_us)?;
        if !(0.0..=1.0).contains(&self.hedge_frac) {
            return Err(format!(
                "chaos.hedge_frac must lie in [0, 1], got {}",
                self.hedge_frac
            ));
        }
        if self.max_retries > Self::MAX_RETRIES {
            return Err(format!(
                "chaos.max_retries must be <= {}, got {}",
                Self::MAX_RETRIES,
                self.max_retries
            ));
        }
        let rungs = [
            self.brownout_narrow_us,
            self.brownout_table_only_us,
            self.brownout_shed_us,
        ];
        if !(rungs[0] >= 0.0 && rungs[0] <= rungs[1] && rungs[1] <= rungs[2]) {
            return Err(format!(
                "chaos brownout rungs must be >= 0 and ascending, got {rungs:?}"
            ));
        }
        Ok(())
    }

    /// The brownout candidate-narrowing ladder: [`degrade_mask`] at this
    /// config's rungs when `brownout` is armed. Returns whether
    /// anything was masked.
    #[inline]
    pub fn brownout_mask(
        &self,
        degrade_rank: &[u32],
        backlog_us: f64,
        completions: &mut [f64],
    ) -> bool {
        self.brownout
            && degrade_mask(
                degrade_rank,
                backlog_us,
                self.brownout_narrow_us,
                self.brownout_table_only_us,
                completions,
            )
    }

    /// Whether the shed rung is reached at `backlog_us` and `sequence`
    /// is a low-priority query under the modulus policy. Shared by both
    /// twins so shedding decisions are bit-identical.
    #[inline]
    pub fn sheds(&self, backlog_us: f64, sequence: u64) -> bool {
        self.brownout
            && backlog_us >= self.brownout_shed_us
            && self.shed_modulus > 0
            && sequence.is_multiple_of(self.shed_modulus)
    }
}

/// The degrade ladder over Algorithm 2's candidate set, shared by the
/// chaos brownout ([`ChaosConfig::brownout_mask`]) and the per-tenant
/// SLA-class pressure rungs ([`crate::traffic::SlaClass`]): at
/// `backlog_us >= narrow_us`, candidates of degrade rank 2 (hybrid)
/// are masked to `+inf`; at `>= table_only_us`, ranks 1–2 (DHE too).
/// Rank 0 (the replicated table path) is never masked, a masking that
/// would empty the candidate set (e.g. a fixed-hybrid policy) is
/// skipped, and `f64::INFINITY` rungs (a strict class) never mask.
/// Both ladders mask the same completions slice, so the deeper one
/// wins; masked costs stay visible as `+inf` slots in the
/// `RouteDecision` trace event. Returns whether anything was masked.
#[inline]
pub fn degrade_mask(
    degrade_rank: &[u32],
    backlog_us: f64,
    narrow_us: f64,
    table_only_us: f64,
    completions: &mut [f64],
) -> bool {
    if backlog_us < narrow_us {
        return false;
    }
    let min_masked = if backlog_us >= table_only_us { 1 } else { 2 };
    if degrade_rank.iter().all(|&r| r >= min_masked) {
        return false;
    }
    let mut masked = false;
    for (c, &r) in completions.iter_mut().zip(degrade_rank) {
        if r >= min_masked {
            *c = f64::INFINITY;
            masked = true;
        }
    }
    masked
}

/// Salt mixed into [`FaultPlan::generate`]'s seed so fault draws never
/// alias the trace generator's stream for the same user seed.
const FAULT_SEED_SALT: u64 = 0xc4a0_5000_0000_0001;

/// Generates a full scenario trace (sorted by arrival) for `base` under
/// `scenario`, deterministically per seed.
///
/// [`LoadScenario::SteadyPoisson`] delegates to
/// [`QueryGenerator`] so steady scenario
/// traces are bit-identical to the legacy generator's.
pub fn generate(base: QueryTraceConfig, scenario: LoadScenario, seed: u64) -> Vec<Query> {
    if scenario == LoadScenario::SteadyPoisson {
        return QueryGenerator::new(base, seed).generate();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mu = base.mean_size.ln() - base.sigma * base.sigma / 2.0;
    let span_us = base.num_queries as f64 * 1e6 / base.qps;
    let base_gap_us = 1e6 / base.qps;
    let mut t_us = 0.0f64;
    let mut out = Vec::with_capacity(base.num_queries);
    for seq in 0..base.num_queries {
        let z = crate::standard_normal(&mut rng) as f64;
        let size = (mu + base.sigma * z).exp();
        let size = (size.round() as usize).clamp(1, base.max_size);
        let gap = base_gap_us / scenario.rate_multiplier(t_us, span_us);
        if base.poisson_arrivals {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t_us += -gap * u.ln();
        } else {
            t_us += gap;
        }
        let id = match scenario {
            LoadScenario::HotKeyDrift { epochs } if epochs > 1 => {
                let epoch = (seq as u64 * epochs as u64 / base.num_queries as u64) as u32;
                with_epoch(seq as u64, epoch)
            }
            _ => seq as u64,
        };
        out.push(Query {
            id,
            size,
            arrival_us: t_us as u64,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> QueryTraceConfig {
        QueryTraceConfig {
            num_queries: 4000,
            qps: 1000.0,
            ..QueryTraceConfig::default()
        }
    }

    /// Achieved QPS inside a window [a, b) (fractions of the last
    /// arrival).
    fn window_rate(trace: &[Query], a: f64, b: f64) -> f64 {
        let span = trace.last().unwrap().arrival_us as f64;
        let (lo, hi) = (a * span, b * span);
        let n = trace
            .iter()
            .filter(|q| (q.arrival_us as f64) >= lo && (q.arrival_us as f64) < hi)
            .count();
        n as f64 / ((hi - lo) / 1e6)
    }

    #[test]
    fn steady_matches_the_legacy_generator_exactly() {
        let a = generate(base(), LoadScenario::SteadyPoisson, 9);
        let b = QueryGenerator::new(base(), 9).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn every_scenario_is_deterministic_and_monotone() {
        for label in ["steady", "diurnal", "flash", "hotkey"] {
            let sc = LoadScenario::default_of(label).unwrap();
            let a = generate(base(), sc, 5);
            let b = generate(base(), sc, 5);
            assert_eq!(a, b, "{label}: deterministic per seed");
            assert_eq!(a.len(), 4000, "{label}: full trace");
            assert!(
                a.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us),
                "{label}: arrivals sorted"
            );
        }
    }

    #[test]
    fn flash_crowd_spikes_the_rate_inside_the_window() {
        let sc = LoadScenario::FlashCrowd {
            start_frac: 0.4,
            duration_frac: 0.2,
            multiplier: 4.0,
        };
        let t = generate(base(), sc, 11);
        // The burst compresses wall-clock: locate it by query index
        // instead — queries 40%..60% arrive ~4x faster than the head.
        let head_span =
            (t[1599].arrival_us - t[0].arrival_us) as f64 / 1599.0;
        let burst_span =
            (t[2399].arrival_us - t[1600].arrival_us) as f64 / 799.0;
        let speedup = head_span / burst_span;
        assert!(
            speedup > 2.5,
            "burst gap should shrink ~4x, got {speedup:.2}x"
        );
    }

    #[test]
    fn diurnal_peak_rate_exceeds_trough_rate() {
        let sc = LoadScenario::Diurnal {
            periods: 1.0,
            amplitude: 0.8,
        };
        let t = generate(base(), sc, 3);
        // One full sine period: peak in the first half, trough in the
        // second.
        let peak = window_rate(&t, 0.05, 0.45);
        let trough = window_rate(&t, 0.55, 0.95);
        assert!(
            peak > 1.5 * trough,
            "peak {peak:.0} qps !> 1.5x trough {trough:.0} qps"
        );
    }

    #[test]
    fn hotkey_drift_packs_epochs_into_query_ids() {
        let sc = LoadScenario::HotKeyDrift { epochs: 8 };
        let t = generate(base(), sc, 7);
        let mut seen = std::collections::BTreeSet::new();
        for (seq, q) in t.iter().enumerate() {
            assert_eq!(sequence_of(q.id), seq as u64);
            seen.insert(epoch_of(q.id));
        }
        assert_eq!(seen.len(), 8, "all 8 epochs appear");
        assert!(
            t.windows(2).all(|w| epoch_of(w[0].id) <= epoch_of(w[1].id)),
            "epochs advance monotonically"
        );
        // Non-drift scenarios leave the epoch bits zero.
        let steady = generate(base(), LoadScenario::SteadyPoisson, 7);
        assert!(steady.iter().all(|q| epoch_of(q.id) == 0));
    }

    #[test]
    fn epoch_packing_roundtrips() {
        let id = with_epoch(123_456, 7);
        assert_eq!(sequence_of(id), 123_456);
        assert_eq!(epoch_of(id), 7);
        assert_eq!(with_epoch(5, 0), 5, "epoch 0 is the identity");
        assert_eq!(tenant_of(id), 0, "legacy ids carry no tenant");
        assert_eq!(user_of(id), 0, "legacy ids carry no user");
    }

    #[test]
    fn id_bit_budget_tiles_the_word_and_roundtrips_at_the_limits() {
        // The budget must cover all 64 bits with no overlap: packing
        // every field at its maximum and unpacking must be lossless.
        assert_eq!(EPOCH_BITS + TENANT_BITS + USER_BITS + SEQ_BITS, 64);
        let (max_epoch, max_tenant, max_user, max_seq) = id_field_limits();
        assert!(max_user >= 16_000_000, "user field holds millions of ids");
        let id = pack_query_id(max_epoch as u32, max_tenant as u32, max_user, max_seq);
        assert_eq!(id, u64::MAX, "saturated fields tile the whole word");
        assert_eq!(epoch_of(id), max_epoch);
        assert_eq!(tenant_of(id) as u64, max_tenant);
        assert_eq!(user_of(id), max_user);
        assert_eq!(sequence_of(id), max_seq);

        // Each field decodes independently of its neighbours: setting
        // one field at a time never bleeds into another (the collision
        // the old 48-bit epoch shift allowed for wide id ranges).
        for (id, want) in [
            (pack_query_id(3, 0, 0, 0), (3u64, 0u64, 0u64, 0u64)),
            (pack_query_id(0, 5, 0, 0), (0, 5, 0, 0)),
            (pack_query_id(0, 0, 9_999_999, 0), (0, 0, 9_999_999, 0)),
            (pack_query_id(0, 0, 0, 77_777_777), (0, 0, 0, 77_777_777)),
        ] {
            assert_eq!(
                (epoch_of(id), tenant_of(id) as u64, user_of(id), sequence_of(id)),
                want
            );
        }
    }

    #[test]
    #[should_panic(expected = "overflows")]
    #[cfg(debug_assertions)]
    fn packing_an_oversized_user_panics_in_debug() {
        let (_, _, max_user, _) = id_field_limits();
        let _ = pack_query_id(0, 0, max_user + 1, 0);
    }

    #[test]
    fn canonical_churn_is_one_fail_then_one_join_inside_the_span() {
        let span = nominal_span_us(4000, 1000.0);
        let events = node_churn(4, span);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].action, ChurnAction::Fail);
        assert_eq!(events[0].node, 3, "highest-numbered node fails");
        assert_eq!(events[1].action, ChurnAction::Join);
        assert_eq!(events[1].node, 4, "joiner takes the next dense id");
        assert!(events[0].at_us < events[1].at_us);
        assert!(events[1].at_us < span, "both events inside the trace");
    }

    #[test]
    fn fault_plan_helpers_resolve_windows_and_attempts() {
        let span = 1_000_000.0;
        let plan = FaultPlan::storm(4, span);
        assert_eq!(plan.events.len(), 3);
        // Straggler on node 0 inside [30%, 55%).
        assert_eq!(plan.straggler_multiplier(0, 0.4 * span), 4.0);
        assert_eq!(plan.straggler_multiplier(0, 0.6 * span), 1.0);
        assert_eq!(plan.straggler_multiplier(2, 0.4 * span), 1.0);
        // Scatter loss on node 1 drops only attempt 0.
        assert!(plan.drops_leg(1, 0.5 * span, 0));
        assert!(!plan.drops_leg(1, 0.5 * span, 1));
        // Stall on the last node drops every attempt in its window.
        assert!(plan.drops_leg(3, 0.65 * span, 0));
        assert!(plan.drops_leg(3, 0.65 * span, 5));
        assert!(!plan.drops_leg(3, 0.8 * span, 0));
        // An empty plan is inert everywhere.
        let none = FaultPlan::none();
        assert!(none.is_empty());
        assert_eq!(none.straggler_multiplier(0, 0.5 * span), 1.0);
        assert!(!none.drops_leg(0, 0.5 * span, 0));
    }

    #[test]
    fn generated_fault_plans_are_deterministic_per_seed() {
        let span = 500_000.0;
        let a = FaultPlan::generate(4, span, 9);
        let b = FaultPlan::generate(4, span, 9);
        assert_eq!(a, b, "same seed, same schedule");
        let c = FaultPlan::generate(4, span, 10);
        assert_ne!(a, c, "different seed, different schedule");
        for ev in &a.events {
            assert!(ev.node < 4);
            assert!(ev.from_us >= 0.0 && ev.until_us <= span);
            assert!(ev.from_us < ev.until_us);
        }
        // One of each fault kind, always.
        assert!(matches!(a.events[0].kind, FaultKind::Straggler { factor } if factor >= 2.0));
        assert_eq!(a.events[1].kind, FaultKind::ScatterLoss);
        assert_eq!(a.events[2].kind, FaultKind::Stall);
    }

    #[test]
    fn chaos_config_default_is_inert_and_hardened_arms_everything() {
        let off = ChaosConfig::default();
        assert!(!off.timeouts_enabled());
        assert!(!off.hedging);
        assert!(!off.brownout);
        let on = ChaosConfig::hardened();
        assert!(on.timeouts_enabled());
        assert!(on.hedging);
        assert!(on.brownout);
        assert!(on.brownout_narrow_us < on.brownout_table_only_us);
        assert!(on.brownout_table_only_us < on.brownout_shed_us);
    }

    #[test]
    fn chaos_config_validate_guards_the_ladder_arithmetic() {
        let hardened = ChaosConfig::hardened;
        assert!(ChaosConfig::default().validate().is_ok());
        assert!(hardened().validate().is_ok());
        // A rung may be infinite (never reached), and the cap itself is
        // a legal retry count.
        let open_ended = ChaosConfig {
            brownout_shed_us: f64::INFINITY,
            max_retries: ChaosConfig::MAX_RETRIES,
            ..hardened()
        };
        assert!(open_ended.validate().is_ok());
        for (what, chaos) in [
            ("retries past the cap", ChaosConfig { max_retries: 33, ..hardened() }),
            ("NaN timeout", ChaosConfig { timeout_mult: f64::NAN, ..hardened() }),
            ("negative timeout", ChaosConfig { timeout_mult: -1.0, ..hardened() }),
            ("infinite timeout", ChaosConfig { timeout_mult: f64::INFINITY, ..hardened() }),
            ("hedge past the deadline", ChaosConfig { hedge_frac: 1.5, ..hardened() }),
            ("negative hedge fraction", ChaosConfig { hedge_frac: -0.1, ..hardened() }),
            ("NaN hedge fraction", ChaosConfig { hedge_frac: f64::NAN, ..hardened() }),
            ("negative backoff", ChaosConfig { backoff_base_us: -200.0, ..hardened() }),
            ("infinite backoff", ChaosConfig { backoff_base_us: f64::INFINITY, ..hardened() }),
            ("NaN rung", ChaosConfig { brownout_shed_us: f64::NAN, ..hardened() }),
            ("negative rung", ChaosConfig { brownout_narrow_us: -1.0, ..hardened() }),
            ("descending rungs", ChaosConfig { brownout_table_only_us: 1.0, ..hardened() }),
        ] {
            assert!(chaos.validate().is_err(), "{what} must be rejected");
        }
    }

    #[test]
    fn scenario_sizes_keep_the_configured_mean() {
        for label in ["diurnal", "flash", "hotkey"] {
            let sc = LoadScenario::default_of(label).unwrap();
            let t = generate(base(), sc, 13);
            let mean = t.iter().map(|q| q.size as f64).sum::<f64>() / t.len() as f64;
            assert!(
                (mean - 128.0).abs() < 20.0,
                "{label}: mean size {mean}"
            );
        }
    }

    #[test]
    fn class_mask_narrows_then_tables_then_skips() {
        // Ranks for a hybrid/dhe/table candidate set.
        let ranks = [2u32, 1, 0];
        // Below the narrow rung: untouched.
        let mut c = vec![10.0, 20.0, 30.0];
        assert!(!degrade_mask(&ranks, 99.0, 100.0, 200.0, &mut c));
        assert_eq!(c, vec![10.0, 20.0, 30.0]);
        // Narrow rung: only rank 2 (hybrid) masked.
        assert!(degrade_mask(&ranks, 150.0, 100.0, 200.0, &mut c));
        assert_eq!(c[0], f64::INFINITY);
        assert_eq!(&c[1..], &[20.0, 30.0]);
        // Table-only rung: ranks 1-2 masked, rank 0 never.
        let mut c = vec![10.0, 20.0, 30.0];
        assert!(degrade_mask(&ranks, 250.0, 100.0, 200.0, &mut c));
        assert_eq!(c[0], f64::INFINITY);
        assert_eq!(c[1], f64::INFINITY);
        assert_eq!(c[2], 30.0);
        // A set with no rank-0 path at the table-only rung would be
        // emptied by masking, so the mask is skipped entirely.
        let mut c = vec![10.0, 20.0];
        assert!(!degrade_mask(&[2, 1], 250.0, 100.0, 200.0, &mut c));
        assert_eq!(c, vec![10.0, 20.0]);
    }

    #[test]
    fn strict_class_thresholds_never_mask() {
        let mut c = vec![10.0, 20.0, 30.0];
        assert!(!degrade_mask(
            &[2, 1, 0],
            1e12,
            f64::INFINITY,
            f64::INFINITY,
            &mut c
        ));
        assert_eq!(c, vec![10.0, 20.0, 30.0]);
    }
}
