//! Open-loop multi-tenant traffic engine.
//!
//! The scenario generators in [`crate::scenario`] reshape one logical
//! tenant's closed-loop trace. This module generates the load the
//! north star actually calls for:
//!
//! * **Open-loop arrivals** — every arrival timestamp is drawn up
//!   front from the tenant's arrival process, never from service
//!   completions, so latency under overload is measured without
//!   coordinated omission (the queue grows; the generator does not
//!   politely wait). Arrival, size, and user draws use *separate*
//!   seeded streams, so changing a tenant's size or session shape
//!   never perturbs its arrival timestamps (pinned by the metamorphic
//!   suite in `crates/data/tests/traffic.rs`).
//! * **Millions of distinct users** with per-user feature-id
//!   correlation: each query carries its user in the id's user field
//!   ([`crate::scenario::pack_query_id`]); users recur via a Zipf over
//!   the tenant's population (repeat visits) and via sessions
//!   (consecutive queries reuse the previous user with probability
//!   `session_repeat`), so cache hit rates downstream become honest.
//! * **Multiple tenants**, each with its own arrival process, Zipf
//!   skew, user population, and [`SlaClass`] (e.g. 2 ms ranking vs
//!   20 ms batch). Tenant streams are seeded independently and merged
//!   by arrival time: adding or re-tuning tenant B never perturbs
//!   tenant A's queries.
//!
//! The [`SlaClass`] carried per tenant is the routing contract the
//! runtime, cluster, and both replay twins share: under backlog
//! pressure a *loose* class's expensive path candidates are masked
//! first ([`crate::scenario::degrade_mask`]) and its
//! queries are shed first, composing with the global chaos brownout
//! ladder. A *strict* class is only ever degraded by the global
//! ladder, never by class pressure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::query::Query;
use crate::scenario::{id_field_limits, pack_query_id};
use crate::splitmix64;
use crate::zipf::Zipf;

/// Seed salt separating per-tenant streams from each other and from
/// every other generator in the workspace.
const TENANT_SEED_SALT: u64 = 0x7e4a_47f1_c0ff_ee01;
/// Sub-stream salts: arrivals, sizes, and users never share an RNG, so
/// each axis is invariant to the others' configuration (open-loop
/// invariance is the arrivals-vs-everything special case).
const ARRIVAL_SALT: u64 = 0xa441_0001;
const SIZE_SALT: u64 = 0xa441_0002;
const USER_SALT: u64 = 0xa441_0003;

/// An SLA class: the latency target plus the class-pressure ladder
/// that decides how early this class is degraded and shed when the
/// serving tier's virtual backlog grows.
///
/// Thresholds are backlog microseconds, mirroring the chaos brownout
/// ladder's rungs (`ChaosConfig::brownout_*`); `f64::INFINITY`
/// disables a rung for this class. Both the runtime dispatchers and
/// the replay twins consult the same values, so class-aware routing
/// and shedding are bit-identical across twins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaClass {
    /// Per-query latency target (µs) violations are counted against.
    pub sla_us: f64,
    /// Backlog (µs) at which this class's hybrid candidates are masked
    /// out of Algorithm 2's candidate set.
    pub narrow_backlog_us: f64,
    /// Backlog at which DHE is masked too (table only).
    pub table_only_backlog_us: f64,
    /// Backlog at which this class's batches are shed outright
    /// (explicit outcome, never a silent drop).
    pub shed_backlog_us: f64,
}

impl SlaClass {
    /// A strict (e.g. interactive ranking) class: tight target, never
    /// degraded or shed by class pressure — only the global brownout
    /// ladder may touch it.
    pub fn strict(sla_us: f64) -> Self {
        SlaClass {
            sla_us,
            narrow_backlog_us: f64::INFINITY,
            table_only_backlog_us: f64::INFINITY,
            shed_backlog_us: f64::INFINITY,
        }
    }

    /// A loose (e.g. batch scoring) class: slack target, degraded and
    /// shed *first* under pressure so strict tenants keep their
    /// quality. Rungs default to 0.5x / 1x / 2x the class's own SLA.
    pub fn loose(sla_us: f64) -> Self {
        SlaClass {
            sla_us,
            narrow_backlog_us: 0.5 * sla_us,
            table_only_backlog_us: sla_us,
            shed_backlog_us: 2.0 * sla_us,
        }
    }

    /// Whether this class's batches are shed outright at `backlog_us`.
    #[inline]
    pub fn sheds(&self, backlog_us: f64) -> bool {
        backlog_us >= self.shed_backlog_us
    }
}

/// How a tenant's inter-arrival gaps are drawn. All processes are
/// open-loop: the timestamps depend only on the tenant's seed and
/// rate, never on downstream service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Exponential gaps at the tenant's rate (memoryless).
    Poisson,
    /// Deterministic gaps at exactly `1/qps` (a pacing client).
    Uniform,
    /// Markov-modulated on/off Poisson: inside the first `on_frac` of
    /// every `period_us` window the rate multiplies by `on_factor`,
    /// outside it drops to keep the long-run mean rate at `qps`.
    Bursty {
        /// On/off cycle length (µs).
        period_us: f64,
        /// Fraction of each period spent in the burst, in (0, 1).
        on_frac: f64,
        /// Rate multiple inside the burst (>= 1).
        on_factor: f64,
    },
    /// Self-similar load via a conservative b-model cascade: the span
    /// splits dyadically `depth` times and each half receives `2b` or
    /// `2(1-b)` of its parent's rate (chosen by a seeded hash per
    /// cascade node), yielding burstiness at every timescale.
    /// `b` in (0.5, 1); `b = 0.5` degenerates to plain Poisson.
    SelfSimilar {
        /// Cascade bias in (0.5, 1); higher = burstier.
        b: f64,
        /// Dyadic cascade depth (each level doubles the resolution).
        depth: u32,
    },
}

impl ArrivalProcess {
    /// Instantaneous rate multiplier at `t_us` into a span of
    /// `span_us`, for the cascade/burst processes (1.0 otherwise).
    /// Pure function of `(self, cascade_seed, t_us)` — it consumes no
    /// RNG stream, so arrival draws stay aligned across processes.
    fn rate_multiplier(&self, t_us: f64, span_us: f64, cascade_seed: u64) -> f64 {
        match *self {
            ArrivalProcess::Poisson | ArrivalProcess::Uniform => 1.0,
            ArrivalProcess::Bursty { period_us, on_frac, on_factor } => {
                let on_frac = on_frac.clamp(1e-6, 1.0 - 1e-6);
                let on_factor = on_factor.max(1.0);
                let phase = (t_us / period_us.max(1.0)).fract();
                // Off-rate chosen so the long-run mean stays at 1.0:
                // on_frac * on_factor + (1 - on_frac) * off = 1.
                if phase < on_frac {
                    on_factor
                } else {
                    ((1.0 - on_frac * on_factor) / (1.0 - on_frac)).max(0.05)
                }
            }
            ArrivalProcess::SelfSimilar { b, depth } => {
                let b = b.clamp(0.5, 0.999);
                let span = span_us.max(1.0);
                let frac = (t_us / span).clamp(0.0, 1.0 - 1e-12);
                let mut mult = 1.0;
                for level in 1..=depth.min(20) {
                    let buckets = 1u64 << level;
                    let bucket = (frac * buckets as f64) as u64;
                    // One hash per cascade *node* (the bucket's parent
                    // decides its two children together): left child
                    // gets 2b or 2(1-b), right child the complement.
                    let parent = bucket >> 1;
                    let left_heavy =
                        splitmix64(cascade_seed ^ (level as u64) << 32 ^ parent) & 1 == 0;
                    let heavy = 2.0 * b;
                    let light = 2.0 * (1.0 - b);
                    let is_left = bucket & 1 == 0;
                    mult *= if is_left == left_heavy { heavy } else { light };
                }
                mult.max(0.01)
            }
        }
    }
}

/// One tenant's load shape, identity space, and SLA class.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Stable label for reports and bench artifacts.
    pub name: String,
    /// Queries this tenant issues across the trace.
    pub queries: usize,
    /// Long-run arrival rate (queries/s).
    pub qps: f64,
    /// Arrival process (open-loop; see [`ArrivalProcess`]).
    pub arrival: ArrivalProcess,
    /// Lognormal query-size mean (samples per query).
    pub mean_size: f64,
    /// Lognormal sigma.
    pub sigma: f64,
    /// Per-query size cap.
    pub max_size: usize,
    /// Distinct users in this tenant's population (user ids are drawn
    /// from `0..users`; the id field stores `user + 1`).
    pub users: u64,
    /// Zipf exponent over the user population: heavy users recur
    /// (repeat visits). 0.0 = uniform visitors.
    pub user_zipf: f64,
    /// Probability a query reuses the previous query's user (session
    /// continuation), in [0, 1).
    pub session_repeat: f64,
    /// Zipf exponent for this tenant's *feature-id* draws downstream
    /// (each tenant has its own skew; the runtime model reads this).
    pub id_zipf: f64,
    /// The tenant's SLA class.
    pub sla: SlaClass,
}

impl TenantSpec {
    /// An interactive-ranking tenant: strict 2 ms SLA, sessionful
    /// users with a heavy repeat-visit skew.
    pub fn ranking(name: impl Into<String>, queries: usize, qps: f64) -> Self {
        TenantSpec {
            name: name.into(),
            queries,
            qps,
            arrival: ArrivalProcess::Poisson,
            mean_size: 5.0,
            sigma: 1.0,
            max_size: 20,
            users: 1 << 20,
            user_zipf: 1.05,
            session_repeat: 0.6,
            id_zipf: 1.05,
            sla: SlaClass::strict(2_000.0),
        }
    }

    /// A batch-scoring tenant: loose 20 ms SLA, bigger queries, a
    /// broader (cache-hostile) user and id space.
    pub fn batch(name: impl Into<String>, queries: usize, qps: f64) -> Self {
        TenantSpec {
            name: name.into(),
            queries,
            qps,
            arrival: ArrivalProcess::Poisson,
            mean_size: 8.0,
            sigma: 1.0,
            max_size: 32,
            users: 1 << 22,
            user_zipf: 0.6,
            session_repeat: 0.1,
            id_zipf: 0.7,
            sla: SlaClass::loose(20_000.0),
        }
    }
}

/// A multi-tenant open-loop traffic mix. Empty = "legacy mode": the
/// consumer falls back to its single-tenant scenario trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrafficConfig {
    /// The tenants, in tenant-index order (index = the id tenant
    /// field).
    pub tenants: Vec<TenantSpec>,
}

impl TrafficConfig {
    /// A mix over the given tenants.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        TrafficConfig { tenants }
    }

    /// Whether a mix is configured (false = legacy single-tenant mode).
    pub fn is_enabled(&self) -> bool {
        !self.tenants.is_empty()
    }

    /// Number of tenants (at least 1 for accounting purposes: legacy
    /// mode is "one tenant, index 0").
    pub fn tenant_count(&self) -> usize {
        self.tenants.len().max(1)
    }

    /// Total queries across all tenants.
    pub fn total_queries(&self) -> usize {
        self.tenants.iter().map(|t| t.queries).sum()
    }

    /// The SLA class of tenant `t`, falling back to a strict class at
    /// `default_sla_us` (legacy mode, or an out-of-range tenant field).
    pub fn class_of(&self, tenant: u32, default_sla_us: f64) -> SlaClass {
        self.tenants
            .get(tenant as usize)
            .map(|spec| spec.sla)
            .unwrap_or_else(|| SlaClass::strict(default_sla_us))
    }

    /// Validates the mix against the query-id bit budget and basic
    /// sanity bounds. Generators call this before packing ids so an
    /// oversized space fails loudly instead of aliasing id fields.
    pub fn validate(&self) -> Result<(), String> {
        let (_, max_tenant, max_user, max_seq) = id_field_limits();
        if self.tenants.len() as u64 > max_tenant + 1 {
            return Err(format!(
                "{} tenants exceed the {}-wide tenant field",
                self.tenants.len(),
                max_tenant + 1
            ));
        }
        for (t, spec) in self.tenants.iter().enumerate() {
            if spec.queries as u64 > max_seq + 1 {
                return Err(format!(
                    "tenant {t} ({}): {} queries exceed the sequence budget",
                    spec.name, spec.queries
                ));
            }
            // The id field stores user + 1 (0 = "no user").
            if spec.users > max_user {
                return Err(format!(
                    "tenant {t} ({}): {} users exceed the {}-user id budget",
                    spec.name, spec.users, max_user
                ));
            }
            if spec.users == 0 || spec.qps <= 0.0 || spec.mean_size < 1.0 || spec.max_size == 0 {
                return Err(format!("tenant {t} ({}): degenerate spec", spec.name));
            }
            if !(0.0..1.0).contains(&spec.session_repeat) {
                return Err(format!(
                    "tenant {t} ({}): session_repeat {} outside [0, 1)",
                    spec.name, spec.session_repeat
                ));
            }
            // `Zipf::new` panics on these; `id_zipf` reaches it downstream.
            if [spec.user_zipf, spec.id_zipf].iter().any(|s| !(s.is_finite() && *s >= 0.0)) {
                return Err(format!(
                    "tenant {t} ({}): zipf exponents must be finite and >= 0",
                    spec.name
                ));
            }
        }
        Ok(())
    }

    /// Generates the merged open-loop trace: each tenant's stream is
    /// drawn independently (seeded per tenant) and the streams merge
    /// by arrival time. Deterministic per `(config, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if [`validate`](Self::validate) fails — the id spaces
    /// must fit the bit budget before any id is packed.
    pub fn generate(&self, seed: u64) -> Vec<Query> {
        self.validate().expect("traffic mix fits the query-id bit budget");
        let mut out = Vec::with_capacity(self.total_queries());
        for (t, spec) in self.tenants.iter().enumerate() {
            generate_tenant(t as u32, spec, seed, &mut out);
        }
        // Deterministic merge: arrival, then tenant, then sequence.
        out.sort_by(|a, b| {
            (a.arrival_us, crate::scenario::tenant_of(a.id), crate::scenario::sequence_of(a.id))
                .cmp(&(
                    b.arrival_us,
                    crate::scenario::tenant_of(b.id),
                    crate::scenario::sequence_of(b.id),
                ))
        });
        out
    }
}

/// Appends one tenant's open-loop stream to `out`.
fn generate_tenant(tenant: u32, spec: &TenantSpec, seed: u64, out: &mut Vec<Query>) {
    let base = splitmix64(seed ^ TENANT_SEED_SALT.wrapping_mul(tenant as u64 + 1));
    let mut arrival_rng = StdRng::seed_from_u64(splitmix64(base ^ ARRIVAL_SALT));
    let mut size_rng = StdRng::seed_from_u64(splitmix64(base ^ SIZE_SALT));
    let mut user_rng = StdRng::seed_from_u64(splitmix64(base ^ USER_SALT));
    let user_sampler = Zipf::new(spec.users, spec.user_zipf);

    let span_us = spec.queries as f64 * 1e6 / spec.qps;
    let base_gap_us = 1e6 / spec.qps;
    let mu = spec.mean_size.ln() - spec.sigma * spec.sigma / 2.0;
    let mut t_us = 0.0f64;
    let mut user = 0u64;
    for seq in 0..spec.queries {
        let gap = base_gap_us / spec.arrival.rate_multiplier(t_us, span_us, base);
        t_us += match spec.arrival {
            ArrivalProcess::Uniform => gap,
            _ => {
                let u: f64 = arrival_rng.gen_range(f64::EPSILON..1.0);
                -gap * u.ln()
            }
        };
        let z = crate::standard_normal(&mut size_rng) as f64;
        let size = ((mu + spec.sigma * z).exp().round() as usize).clamp(1, spec.max_size);
        if seq == 0 || user_rng.gen::<f64>() >= spec.session_repeat {
            user = user_sampler.sample(&mut user_rng);
        }
        out.push(Query {
            id: pack_query_id(0, tenant, user + 1, seq as u64),
            size,
            arrival_us: t_us as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{sequence_of, tenant_of, user_of};

    fn two_tenants() -> TrafficConfig {
        TrafficConfig::new(vec![
            TenantSpec::ranking("rank", 800, 2_000.0),
            TenantSpec::batch("batch", 400, 1_000.0),
        ])
    }

    #[test]
    fn merged_trace_is_sorted_and_ids_decode_per_tenant() {
        let trace = two_tenants().generate(7);
        assert_eq!(trace.len(), 1200);
        assert!(trace.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
        for t in [0u32, 1] {
            let n = if t == 0 { 800 } else { 400 };
            let seqs: Vec<u64> = trace
                .iter()
                .filter(|q| tenant_of(q.id) == t)
                .map(|q| sequence_of(q.id))
                .collect();
            assert_eq!(seqs.len(), n, "tenant {t} query count");
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n as u64).collect::<Vec<_>>());
        }
        assert!(trace.iter().all(|q| user_of(q.id) >= 1), "every query has a user");
    }

    #[test]
    fn sessions_reuse_users_and_heavy_users_recur() {
        let spec = TenantSpec {
            session_repeat: 0.7,
            ..TenantSpec::ranking("rank", 2_000, 2_000.0)
        };
        let trace = TrafficConfig::new(vec![spec]).generate(3);
        let users: Vec<u64> = trace.iter().map(|q| user_of(q.id)).collect();
        let repeats = users.windows(2).filter(|w| w[0] == w[1]).count();
        let rate = repeats as f64 / (users.len() - 1) as f64;
        assert!(rate > 0.55, "session repeat rate {rate} too low");
        let distinct: std::collections::BTreeSet<_> = users.iter().collect();
        assert!(distinct.len() > 100, "population is not degenerate");
    }

    #[test]
    fn validate_rejects_oversized_id_spaces() {
        let (_, _, max_user, _) = id_field_limits();
        let mut cfg = two_tenants();
        cfg.tenants[0].users = max_user + 1;
        assert!(cfg.validate().is_err(), "user budget enforced");
        let mut cfg = two_tenants();
        cfg.tenants =
            (0..17).map(|i| TenantSpec::ranking(format!("t{i}"), 10, 100.0)).collect();
        assert!(cfg.validate().is_err(), "tenant budget enforced");
        assert!(two_tenants().validate().is_ok());
    }

    #[test]
    fn bursty_and_self_similar_keep_the_long_run_rate() {
        for arrival in [
            ArrivalProcess::Bursty { period_us: 50_000.0, on_frac: 0.2, on_factor: 4.0 },
            ArrivalProcess::SelfSimilar { b: 0.75, depth: 8 },
        ] {
            let spec = TenantSpec { arrival, ..TenantSpec::ranking("t", 8_000, 2_000.0) };
            let trace = TrafficConfig::new(vec![spec]).generate(11);
            let span_s = trace.last().unwrap().arrival_us as f64 / 1e6;
            let rate = trace.len() as f64 / span_s;
            assert!(
                (rate / 2_000.0 - 1.0).abs() < 0.35,
                "{arrival:?}: long-run rate {rate:.0} strays from 2000 qps"
            );
        }
    }

    #[test]
    fn self_similar_is_burstier_than_poisson() {
        // Index of dispersion of counts over fixed windows: ~1 for
        // Poisson, visibly above 1 for the cascade.
        let dispersion = |arrival: ArrivalProcess| {
            let spec = TenantSpec { arrival, ..TenantSpec::ranking("t", 10_000, 2_000.0) };
            let trace = TrafficConfig::new(vec![spec]).generate(5);
            let window_us = 20_000u64;
            let last = trace.last().unwrap().arrival_us;
            let mut counts = vec![0f64; (last / window_us + 1) as usize];
            for q in &trace {
                counts[(q.arrival_us / window_us) as usize] += 1.0;
            }
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>()
                / counts.len() as f64;
            var / mean
        };
        let poisson = dispersion(ArrivalProcess::Poisson);
        let cascade = dispersion(ArrivalProcess::SelfSimilar { b: 0.8, depth: 10 });
        assert!(
            cascade > 2.0 * poisson.max(0.5),
            "cascade dispersion {cascade:.2} !>> poisson {poisson:.2}"
        );
    }

    #[test]
    fn class_ladder_orders_strict_above_loose() {
        let strict = SlaClass::strict(2_000.0);
        let loose = SlaClass::loose(20_000.0);
        assert!(!strict.sheds(1e9), "strict is never class-shed");
        assert!(loose.sheds(40_000.0));
        assert!(!loose.sheds(10_000.0));
        assert!(loose.narrow_backlog_us < loose.table_only_backlog_us);
        assert!(loose.table_only_backlog_us < loose.shed_backlog_us);
    }
}
