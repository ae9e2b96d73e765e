//! Metamorphic and property suite for the open-loop traffic engine
//! (`mprec_data::traffic`).
//!
//! The properties pinned here are the generator's load-testing
//! contract, not incidental implementation detail:
//!
//! * **Seed determinism** — a `(config, seed)` pair names one trace.
//! * **Interarrival convergence** — every arrival process is
//!   rate-honest: the long-run mean gap converges to `1/qps`.
//! * **Open-loop invariance** — arrival timestamps depend only on the
//!   arrival process; re-tuning any service-side knob (sizes, users,
//!   sessions, SLA class) never moves an arrival.
//! * **Per-tenant independence** — adding or re-tuning tenant B never
//!   perturbs tenant A's stream.
//!
//! A closed-loop generator fails the last three; this file is what
//! keeps the coordinated-omission fix honest at the source.

// The vendored proptest! macro is a token-muncher; a long test body
// needs more expansion headroom than the default 128.
#![recursion_limit = "1024"]

use mprec_data::query::Query;
use mprec_data::scenario::{epoch_of, sequence_of, tenant_of, user_of};
use mprec_data::traffic::{ArrivalProcess, SlaClass, TenantSpec, TrafficConfig};
use proptest::prelude::*;

/// One tenant at `qps` with the given arrival process and enough
/// queries for tight mean-convergence bounds.
fn one_tenant(queries: usize, qps: f64, arrival: ArrivalProcess) -> TrafficConfig {
    let mut spec = TenantSpec::ranking("solo", queries, qps);
    spec.arrival = arrival;
    TrafficConfig::new(vec![spec])
}

/// Event-averaged interarrival gap (µs) of a single-tenant trace.
fn mean_gap_us(trace: &[Query]) -> f64 {
    assert!(trace.len() > 1);
    let last = trace.last().unwrap().arrival_us as f64;
    let first = trace.first().unwrap().arrival_us as f64;
    (last - first) / (trace.len() - 1) as f64
}

/// The queries belonging to one tenant, in sequence order.
fn tenant_stream(trace: &[Query], tenant: u32) -> Vec<Query> {
    let mut out: Vec<Query> = trace
        .iter()
        .filter(|q| tenant_of(q.id) == tenant)
        .cloned()
        .collect();
    out.sort_by_key(|q| sequence_of(q.id));
    out
}

// ---------------------------------------------------------------------------
// Seed determinism
// ---------------------------------------------------------------------------

#[test]
fn same_seed_names_one_trace_and_seeds_separate_traces() {
    let mix = TrafficConfig::new(vec![
        TenantSpec::ranking("rank", 2_000, 4_000.0),
        TenantSpec::batch("score", 1_000, 1_500.0),
    ]);
    let a = mix.generate(7);
    let b = mix.generate(7);
    assert_eq!(a, b, "same (config, seed) must regenerate bit-identically");

    let c = mix.generate(8);
    assert_ne!(a, c, "a different seed must draw a different trace");
    // ...but the same *shape*: the id schedule is seed-independent.
    assert_eq!(a.len(), c.len());
    for (qa, qc) in a.iter().zip(&c) {
        assert_eq!(epoch_of(qa.id), 0, "traffic traces are epoch 0");
        assert_eq!(epoch_of(qc.id), 0);
    }
}

// ---------------------------------------------------------------------------
// Interarrival-mean convergence: every process is rate-honest
// ---------------------------------------------------------------------------

#[test]
fn interarrival_means_converge_to_inverse_rate() {
    let qps = 5_000.0;
    let nominal_gap = 1e6 / qps;
    let cases = [
        ("poisson", ArrivalProcess::Poisson, 0.05),
        ("uniform", ArrivalProcess::Uniform, 1e-3),
        // The modulated processes freeze the rate at each gap draw, so
        // an off-phase gap can leap over part of a burst window — a
        // known, bounded thinning bias; the bound is what's pinned.
        (
            "bursty",
            ArrivalProcess::Bursty {
                period_us: 20_000.0,
                on_frac: 0.2,
                on_factor: 4.0,
            },
            0.25,
        ),
        (
            "self-similar",
            ArrivalProcess::SelfSimilar { b: 0.7, depth: 6 },
            0.35,
        ),
    ];
    for (label, arrival, tol) in cases {
        let trace = one_tenant(20_000, qps, arrival).generate(11);
        let mean = mean_gap_us(&trace);
        assert!(
            (mean - nominal_gap).abs() <= tol * nominal_gap,
            "{label}: mean gap {mean:.2}µs strays more than {:.0}% from 1/λ = {nominal_gap:.2}µs",
            tol * 100.0
        );
    }
}

#[test]
fn bursty_process_is_burstier_than_poisson_at_equal_rate() {
    // Index of dispersion of per-window counts: the burst process must
    // cluster arrivals, Poisson must not — at the same long-run rate.
    let qps = 5_000.0;
    let dispersion = |arrival: ArrivalProcess| {
        let trace = one_tenant(20_000, qps, arrival).generate(3);
        let window_us = 2_000u64;
        let last = trace.last().unwrap().arrival_us;
        let mut counts = vec![0f64; (last / window_us + 1) as usize];
        for q in &trace {
            counts[(q.arrival_us / window_us) as usize] += 1.0;
        }
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<f64>() / n;
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / n;
        var / mean
    };
    let poisson = dispersion(ArrivalProcess::Poisson);
    let bursty = dispersion(ArrivalProcess::Bursty {
        period_us: 20_000.0,
        on_frac: 0.2,
        on_factor: 4.0,
    });
    let cascade = dispersion(ArrivalProcess::SelfSimilar { b: 0.75, depth: 8 });
    assert!(
        bursty > 2.0 * poisson,
        "bursty dispersion {bursty:.2} must clearly exceed Poisson's {poisson:.2}"
    );
    assert!(
        cascade > 2.0 * poisson,
        "self-similar dispersion {cascade:.2} must clearly exceed Poisson's {poisson:.2}"
    );
}

// ---------------------------------------------------------------------------
// Open-loop invariance: arrivals never depend on service-side knobs
// ---------------------------------------------------------------------------

#[test]
fn arrival_timestamps_are_invariant_to_every_service_side_knob() {
    let base = TenantSpec::ranking("rank", 5_000, 4_000.0);
    let arrivals = |spec: TenantSpec| -> Vec<u64> {
        TrafficConfig::new(vec![spec])
            .generate(42)
            .iter()
            .map(|q| q.arrival_us)
            .collect()
    };
    let reference = arrivals(base.clone());

    let mutations: Vec<(&str, TenantSpec)> = vec![
        ("mean_size", {
            let mut s = base.clone();
            s.mean_size = 12.0;
            s
        }),
        ("sigma", {
            let mut s = base.clone();
            s.sigma = 0.2;
            s
        }),
        ("max_size", {
            let mut s = base.clone();
            s.max_size = 64;
            s
        }),
        ("users", {
            let mut s = base.clone();
            s.users = 1 << 10;
            s
        }),
        ("user_zipf", {
            let mut s = base.clone();
            s.user_zipf = 0.0;
            s
        }),
        ("session_repeat", {
            let mut s = base.clone();
            s.session_repeat = 0.0;
            s
        }),
        ("id_zipf", {
            let mut s = base.clone();
            s.id_zipf = 2.0;
            s
        }),
        ("sla class", {
            let mut s = base.clone();
            s.sla = SlaClass::loose(50_000.0);
            s
        }),
    ];
    for (knob, spec) in mutations {
        assert_eq!(
            arrivals(spec),
            reference,
            "re-tuning `{knob}` moved an arrival timestamp — the generator \
             is leaking service-side state into the arrival stream"
        );
    }
}

#[test]
fn query_sizes_are_invariant_to_identity_knobs() {
    // The converse separation: user/session re-tuning never perturbs
    // the size stream either (three independent sub-streams, not one).
    let base = TenantSpec::ranking("rank", 5_000, 4_000.0);
    let sizes = |spec: TenantSpec| -> Vec<usize> {
        TrafficConfig::new(vec![spec])
            .generate(42)
            .iter()
            .map(|q| q.size)
            .collect()
    };
    let reference = sizes(base.clone());
    let mut mutated = base.clone();
    mutated.users = 1 << 8;
    mutated.user_zipf = 0.0;
    mutated.session_repeat = 0.0;
    assert_eq!(sizes(mutated), reference, "identity knobs moved a size draw");
}

// ---------------------------------------------------------------------------
// Per-tenant stream independence
// ---------------------------------------------------------------------------

#[test]
fn adding_or_retuning_tenant_b_never_perturbs_tenant_a() {
    let a = TenantSpec::ranking("rank", 3_000, 4_000.0);
    let b = TenantSpec::batch("score", 2_000, 1_000.0);

    let solo = TrafficConfig::new(vec![a.clone()]).generate(9);
    let paired = TrafficConfig::new(vec![a.clone(), b.clone()]).generate(9);
    assert_eq!(
        tenant_stream(&solo, 0),
        tenant_stream(&paired, 0),
        "adding tenant B perturbed tenant A's stream"
    );

    // Re-tuning B (rate, process, sizes, identity space) leaves A
    // untouched as well.
    let mut b2 = b.clone();
    b2.qps = 9_000.0;
    b2.arrival = ArrivalProcess::SelfSimilar { b: 0.8, depth: 8 };
    b2.mean_size = 2.0;
    b2.users = 1 << 8;
    let retuned = TrafficConfig::new(vec![a.clone(), b2]).generate(9);
    assert_eq!(
        tenant_stream(&paired, 0),
        tenant_stream(&retuned, 0),
        "re-tuning tenant B perturbed tenant A's stream"
    );

    // And B's own stream genuinely changed (the test is non-vacuous).
    assert_ne!(tenant_stream(&paired, 1), tenant_stream(&retuned, 1));
}

#[test]
fn user_population_scales_to_millions_with_recurring_sessions() {
    let mut spec = TenantSpec::ranking("rank", 30_000, 10_000.0);
    spec.users = 1 << 22; // ~4.2M distinct users fit the 24-bit field
    let trace = TrafficConfig::new(vec![spec.clone()]).generate(5);

    let mut users: Vec<u64> = trace.iter().map(|q| user_of(q.id)).collect();
    assert!(users.iter().all(|&u| u >= 1 && u <= spec.users), "user+1 in range");
    users.sort_unstable();
    users.dedup();
    assert!(
        users.len() > 5_000,
        "a 4M-user population must surface thousands of distinct users \
         in 30k queries (got {})",
        users.len()
    );
    // Sessions and the Zipf head make users recur: strictly fewer
    // distinct users than queries.
    assert!(users.len() < trace.len() / 2, "users must recur (sessions + Zipf head)");
}

// ---------------------------------------------------------------------------
// Bit budgets and structural properties (proptest)
// ---------------------------------------------------------------------------

#[test]
fn validate_rejects_budget_overflows_and_degenerate_specs() {
    let ok = TenantSpec::ranking("t", 10, 100.0);

    let mut too_many_users = ok.clone();
    too_many_users.users = 1 << 25;
    assert!(TrafficConfig::new(vec![too_many_users]).validate().is_err());

    let mut zero_rate = ok.clone();
    zero_rate.qps = 0.0;
    assert!(TrafficConfig::new(vec![zero_rate]).validate().is_err());

    let mut bad_session = ok.clone();
    bad_session.session_repeat = 1.0;
    assert!(TrafficConfig::new(vec![bad_session]).validate().is_err());

    // `Zipf::new` panics on these (a NaN CDF used to panic the draw).
    let mut nan_users = ok.clone();
    nan_users.user_zipf = f64::NAN;
    assert!(TrafficConfig::new(vec![nan_users]).validate().is_err());
    let mut negative_ids = ok.clone();
    negative_ids.id_zipf = -1.0;
    assert!(TrafficConfig::new(vec![negative_ids]).validate().is_err());

    let crowd: Vec<TenantSpec> = (0..17).map(|i| {
        TenantSpec::ranking(format!("t{i}"), 10, 100.0)
    }).collect();
    assert!(
        TrafficConfig::new(crowd).validate().is_err(),
        "17 tenants overflow the 4-bit tenant field"
    );

    assert!(TrafficConfig::new(vec![ok]).validate().is_ok());
}

/// Structural invariants over an arbitrary small mix: the merged trace
/// is sorted by arrival, each tenant contributes exactly its configured
/// query count with distinct ids, and every id round-trips its
/// tenant/sequence fields. (Body lives outside `proptest!` because the
/// vendored macro is a token-muncher with a finite recursion budget.)
fn check_merged_trace(seed: u64, counts: &[usize], qps: f64) -> Result<(), TestCaseError> {
    let mix = TrafficConfig::new(
        counts
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                if i % 2 == 0 {
                    TenantSpec::ranking(format!("t{i}"), n, qps)
                } else {
                    TenantSpec::batch(format!("t{i}"), n, qps / 2.0)
                }
            })
            .collect(),
    );
    let trace = mix.generate(seed);
    prop_assert_eq!(trace.len(), mix.total_queries());
    for w in trace.windows(2) {
        prop_assert!(w[0].arrival_us <= w[1].arrival_us, "merge is arrival-sorted");
    }
    let mut ids: Vec<u64> = trace.iter().map(|q| q.id).collect();
    ids.sort_unstable();
    ids.dedup();
    prop_assert_eq!(ids.len(), trace.len(), "query ids are globally unique");
    for (t, &n) in counts.iter().enumerate() {
        let stream = tenant_stream(&trace, t as u32);
        prop_assert_eq!(stream.len(), n, "tenant {} count", t);
        for (i, q) in stream.iter().enumerate() {
            prop_assert_eq!(sequence_of(q.id), i as u64, "dense sequence numbers");
            prop_assert!(q.size >= 1);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn merged_traces_are_sorted_complete_and_id_unique(
        seed in 0u64..1_000,
        counts in prop::collection::vec(1usize..400, 1..4),
        qps in 500.0f64..20_000.0,
    ) {
        check_merged_trace(seed, &counts, qps)?;
    }
}
