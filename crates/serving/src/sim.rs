//! The paper's serving experiments: each policy's working set served
//! by the dispatcher core ([`replay_cluster`]) with each platform a
//! node and batching off.

use mprec_core::candidates::RepRole;
use mprec_core::planner::{Mapping, MappingSet};
use mprec_core::profile::{LatencyProfile, PROFILE_SIZES};
use mprec_data::query::{QueryGenerator, QueryTraceConfig};
use mprec_hwsim::{Op, Platform};

use crate::outcome::{PathUsage, ServingOutcome};
use crate::replay::{platforms_as_nodes, replay_cluster, ReplayConfig};
use crate::Policy;

/// MP-Cache effect applied to compute-path profiles during serving.
///
/// The encoder tier serves `encoder_hit_rate` of lookups from a small
/// cache; misses run the (hash + nearest-centroid) path instead of the
/// decoder MLP. Hit rates come from the Fig. 16 cache analysis
/// (`mprec-bench --bin fig16_mpcache`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpCacheEffect {
    /// Fraction of embedding lookups served by the encoder tier.
    pub encoder_hit_rate: f64,
    /// Decoder-tier centroid count `N` (0 disables the tier: misses run
    /// the full decoder).
    pub decoder_centroids: usize,
}

impl Default for MpCacheEffect {
    fn default() -> Self {
        MpCacheEffect {
            // Measured 2 MB-cache hit rate on the Kaggle-shaped trace.
            encoder_hit_rate: 0.48,
            decoder_centroids: 256,
        }
    }
}

/// Serving-experiment configuration (paper §5.3 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Query trace shape (10K queries, lognormal mean 128, 1000 QPS).
    pub trace: QueryTraceConfig,
    /// SLA latency target in microseconds (paper default: 10 ms).
    pub sla_us: f64,
    /// MP-Cache effect on DHE/hybrid paths (`None` = caches disabled).
    pub mpcache: Option<MpCacheEffect>,
    /// Trace seed.
    pub seed: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            trace: QueryTraceConfig::default(),
            sla_us: 10_000.0,
            mpcache: Some(MpCacheEffect::default()),
            seed: 42,
        }
    }
}

/// Rebuilds a DHE/hybrid mapping's latency profile with MP-Cache applied:
/// per query size, the non-embedding cost is kept and the embedding cost
/// is replaced by cache probes + (miss-rate-scaled) hash + kNN ops.
fn cached_profile(
    platform: &Platform,
    mapping: &Mapping,
    effect: &MpCacheEffect,
) -> Option<LatencyProfile> {
    let w = &mapping.rep.workload;
    if w.rep.dhe_features.is_empty() {
        return None;
    }
    let k = w.rep.dhe_features[0][0] as u64;
    let out_dim = *w.rep.dhe_features[0].last().expect("decoder has layers") as u64;
    let stacks = w.rep.dhe_features.len() as u64;
    let n_centroids = effect.decoder_centroids as u64;
    let miss = 1.0 - effect.encoder_hit_rate;

    let mut latencies = Vec::with_capacity(PROFILE_SIZES.len());
    for &n in PROFILE_SIZES.iter() {
        let full = platform.query_cost(w, n).ok()?;
        let lookups = n * stacks;
        let miss_lookups = ((lookups as f64 * miss).ceil() as u64).max(1);
        // Cache probe + hit fetch: a small SRAM-resident gather.
        let mut emb_us = price(
            platform,
            Op::Gather {
                lookups,
                row_bytes: out_dim * 4,
                table_bytes: 2_000_000,
            },
            true,
        );
        // Misses: encoder hashing.
        emb_us += price(
            platform,
            Op::Hash {
                count: miss_lookups * k,
            },
            false,
        );
        if n_centroids > 0 {
            // Decoder tier: normalized dot products + argmax, then fetch
            // the centroid's precomputed output.
            emb_us += price(
                platform,
                Op::Gemm {
                    m: miss_lookups,
                    n: n_centroids,
                    k,
                    weight_bytes: n_centroids * k * 4,
                },
                true,
            );
            emb_us += price(
                platform,
                Op::Gather {
                    lookups: miss_lookups,
                    row_bytes: out_dim * 4,
                    table_bytes: n_centroids * out_dim * 4,
                },
                true,
            );
        } else {
            // No decoder tier: misses pay the full decoder MLP, which is
            // the dominant part of the raw embedding cost.
            emb_us += full.embedding_us * miss;
        }
        // Table half of hybrid paths still gathers real tables.
        if !w.rep.table_features.is_empty() {
            for &(rows, dim) in &w.rep.table_features {
                emb_us += price(
                    platform,
                    Op::Gather {
                        lookups: n,
                        row_bytes: dim as u64 * 4,
                        table_bytes: rows * dim as u64 * 4,
                    },
                    false,
                );
            }
        }
        let total = full.total_us() - full.embedding_us + emb_us;
        latencies.push(total);
    }
    Some(LatencyProfile::from_points(
        PROFILE_SIZES.to_vec(),
        latencies,
    ))
}

fn price(platform: &Platform, op: Op, sram: bool) -> f64 {
    mprec_hwsim::op_cost(&op, &platform.spec, sram, sram, None).total_us()
}

/// Filters/adjusts the mapping set for a policy.
///
/// Every set routes under Algorithm 2. For the static and
/// table-switching sets that is "fastest completion first" because
/// `plan` places at most one mapping per (role, platform): a static set
/// has at most one mapping, and every table mapping shares one accuracy,
/// over which Algorithm 2 picks the lowest-index fastest completion.
fn working_set(mappings: &MappingSet, policy: Policy, cfg: &ServingConfig) -> MappingSet {
    let mut out: Vec<Mapping> = Vec::new();
    match policy {
        Policy::Static { role, platform_idx } => {
            out.extend(
                mappings
                    .mappings
                    .iter()
                    .filter(|m| m.rep.role == role && m.platform_idx == platform_idx)
                    .cloned(),
            );
        }
        Policy::TableSwitching | Policy::QuerySplit { .. } => {
            out.extend(
                mappings
                    .mappings
                    .iter()
                    .filter(|m| m.rep.role == RepRole::Table)
                    .cloned(),
            );
        }
        Policy::MpRec | Policy::MpRecNoFallback => {
            for m in &mappings.mappings {
                if matches!(policy, Policy::MpRecNoFallback) && m.rep.role == RepRole::Table {
                    continue;
                }
                let mut m = m.clone();
                if let Some(effect) = &cfg.mpcache {
                    if let Some(p) =
                        cached_profile(&mappings.platforms[m.platform_idx], &m, effect)
                    {
                        m.profile = p;
                    }
                }
                out.push(m);
            }
        }
    }
    MappingSet {
        platforms: mappings.platforms.clone(),
        mappings: out,
    }
}

/// Runs the serving simulation for one policy over the configured
/// steady trace.
///
/// Returns an all-zero outcome (0 completed queries) when the policy's
/// required paths don't exist in the mapping set — e.g. a static table
/// deployment on a device the table doesn't fit.
pub fn simulate(mappings: &MappingSet, policy: Policy, cfg: &ServingConfig) -> ServingOutcome {
    let trace = QueryGenerator::new(cfg.trace, cfg.seed).generate();
    simulate_trace(mappings, policy, cfg, &trace)
}

/// [`simulate`] over an explicit, caller-supplied trace — the entry
/// point the scenario-diverse load generators
/// ([`mprec_data::scenario`]) drive: any arrival pattern (diurnal,
/// flash-crowd, hot-key drift) runs through the same discrete-event
/// policy machinery.
///
/// Every policy but [`Policy::QuerySplit`] is the dispatcher core
/// ([`replay_cluster`]) over [`platforms_as_nodes`] with batching off:
/// a one-sample budget flushes each query alone at its arrival, and
/// with no SLA classes Algorithm 2 routes it under the full
/// `cfg.sla_us` (floored at 1 µs, as every dispatch budget is).
pub fn simulate_trace(
    mappings: &MappingSet,
    policy: Policy,
    cfg: &ServingConfig,
    trace: &[mprec_data::query::Query],
) -> ServingOutcome {
    let set = working_set(mappings, policy, cfg);
    // The dispatcher expects a non-empty set.
    if set.mappings.is_empty() {
        return ServingOutcome::empty(policy.to_string());
    }
    if let Policy::QuerySplit { cpu_fraction } = policy {
        return simulate_split(&set, trace, cfg, cpu_fraction);
    }
    let unbatched = ReplayConfig {
        sla_us: cfg.sla_us,
        max_batch_samples: 1,
        max_batch_wait_us: 0.0,
        classes: Vec::new(),
    };
    let mut outcome = replay_cluster(&platforms_as_nodes(&set), trace, &unbatched).outcome;
    outcome.policy = policy.to_string();
    outcome
}

/// Even query splitting across the first two platforms (Fig. 14).
fn simulate_split(
    set: &MappingSet,
    trace: &[mprec_data::query::Query],
    cfg: &ServingConfig,
    cpu_fraction: f64,
) -> ServingOutcome {
    // One table mapping per platform, by platform index.
    let mut per_platform: Vec<Option<&Mapping>> = vec![None; set.platforms.len()];
    for m in &set.mappings {
        per_platform[m.platform_idx].get_or_insert(m);
    }
    let (Some(m0), Some(m1)) = (
        per_platform.first().copied().flatten(),
        per_platform.get(1).copied().flatten(),
    ) else {
        return ServingOutcome::empty(format!("query-split:{cpu_fraction:.2}"));
    };

    let mut free = [0.0f64; 2];
    let mut usage = PathUsage::default();
    let mut latencies = Vec::with_capacity(trace.len());
    let mut samples = 0u64;
    let mut correct = 0.0f64;
    let mut violations = 0u64;
    let mut last_completion = 0.0f64;
    let label0 = m0.label(&set.platforms);
    let label1 = m1.label(&set.platforms);

    for q in trace {
        let arrival = q.arrival_us as f64;
        let n0 = ((q.size as f64 * cpu_fraction).round() as u64).min(q.size as u64);
        let n1 = q.size as u64 - n0;
        let mut done = arrival;
        if n0 > 0 {
            let start = free[0].max(arrival);
            free[0] = start + m0.profile.latency_us(n0);
            done = done.max(free[0]);
            usage.record(&label0, n0);
        }
        if n1 > 0 {
            let start = free[1].max(arrival);
            free[1] = start + m1.profile.latency_us(n1);
            done = done.max(free[1]);
            usage.record(&label1, n1);
        }
        let latency = done - arrival;
        latencies.push(latency);
        samples += q.size as u64;
        correct += n0 as f64 * m0.rep.accuracy as f64 + n1 as f64 * m1.rep.accuracy as f64;
        if latency > cfg.sla_us {
            violations += 1;
        }
        last_completion = last_completion.max(done);
    }

    ServingOutcome::from_latency_samples(
        format!("query-split:{cpu_fraction:.2}"),
        latencies,
        samples,
        correct,
        violations,
        last_completion / 1e6,
        usage,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mprec_core::candidates::{default_accuracy_book, paper_candidates};
    use mprec_core::planner::plan;
    use mprec_data::DatasetSpec;

    fn hw1_mappings() -> MappingSet {
        let spec = DatasetSpec::kaggle_sim(100);
        let candidates = paper_candidates(&spec, &default_accuracy_book(&spec));
        plan(
            &candidates,
            &[
                Platform::cpu().with_dram_cap(32_000_000_000),
                Platform::gpu(),
            ],
        )
        .unwrap()
    }

    fn quick_cfg() -> ServingConfig {
        ServingConfig {
            trace: QueryTraceConfig {
                num_queries: 500,
                ..QueryTraceConfig::default()
            },
            ..ServingConfig::default()
        }
    }

    #[test]
    fn all_policies_complete_the_trace() {
        let maps = hw1_mappings();
        let cfg = quick_cfg();
        for policy in [
            Policy::Static {
                role: RepRole::Table,
                platform_idx: 0,
            },
            Policy::TableSwitching,
            Policy::QuerySplit { cpu_fraction: 0.5 },
            Policy::MpRec,
        ] {
            let o = simulate(&maps, policy, &cfg);
            assert_eq!(o.completed, 500, "policy {policy}");
            assert!(o.span_s > 0.0);
        }
    }

    #[test]
    fn mp_rec_beats_static_table_cpu_on_correct_throughput() {
        // Fig. 10's headline: MP-Rec > TBL(CPU).
        let maps = hw1_mappings();
        let cfg = quick_cfg();
        let base = simulate(
            &maps,
            Policy::Static {
                role: RepRole::Table,
                platform_idx: 0,
            },
            &cfg,
        );
        let mp = simulate(&maps, Policy::MpRec, &cfg);
        assert!(
            mp.correct_sps() > base.correct_sps(),
            "mp-rec {} !> table-cpu {}",
            mp.correct_sps(),
            base.correct_sps()
        );
    }

    #[test]
    fn mp_rec_effective_accuracy_exceeds_table() {
        let maps = hw1_mappings();
        let o = simulate(&maps, Policy::MpRec, &quick_cfg());
        assert!(o.effective_accuracy() > 0.7879 - 1e-6);
    }

    #[test]
    fn static_dhe_gpu_is_slower_than_mp_rec() {
        // Fig. 10: statically deploying DHE degrades throughput.
        let maps = hw1_mappings();
        let cfg = ServingConfig {
            mpcache: None,
            ..quick_cfg()
        };
        let dhe = simulate(
            &maps,
            Policy::Static {
                role: RepRole::Dhe,
                platform_idx: 1,
            },
            &cfg,
        );
        let mp = simulate(&maps, Policy::MpRec, &cfg);
        assert!(mp.correct_sps() > dhe.correct_sps());
    }

    #[test]
    fn missing_static_path_reports_zero() {
        let maps = hw1_mappings();
        // Platform index 7 doesn't exist.
        let o = simulate(
            &maps,
            Policy::Static {
                role: RepRole::Table,
                platform_idx: 7,
            },
            &quick_cfg(),
        );
        assert_eq!(o.completed, 0);
    }

    #[test]
    fn tighter_sla_increases_violations() {
        let maps = hw1_mappings();
        let mut cfg = quick_cfg();
        cfg.sla_us = 10_000.0;
        let loose = simulate(&maps, Policy::MpRec, &cfg);
        cfg.sla_us = 500.0;
        let tight = simulate(&maps, Policy::MpRec, &cfg);
        assert!(tight.sla_violation_rate() >= loose.sla_violation_rate());
    }

    #[test]
    fn mpcache_improves_mp_rec_under_saturation() {
        // Insight 4: MP-Cache makes accurate paths viable more often. The
        // effect shows when the system is load-saturated, so drive it at
        // 4x the paper's default QPS.
        let maps = hw1_mappings();
        let saturating = |mpcache| ServingConfig {
            trace: QueryTraceConfig {
                num_queries: 800,
                qps: 4000.0,
                ..QueryTraceConfig::default()
            },
            mpcache,
            ..ServingConfig::default()
        };
        let with = simulate(&maps, Policy::MpRec, &saturating(Some(MpCacheEffect::default())));
        let without = simulate(&maps, Policy::MpRec, &saturating(None));
        assert!(
            with.correct_sps() > without.correct_sps(),
            "with {} <= without {}",
            with.correct_sps(),
            without.correct_sps()
        );
    }

    #[test]
    fn usage_breakdown_covers_all_queries() {
        let maps = hw1_mappings();
        let o = simulate(&maps, Policy::MpRec, &quick_cfg());
        let total: u64 = o.usage.queries.values().sum();
        assert_eq!(total, o.completed);
    }
}
