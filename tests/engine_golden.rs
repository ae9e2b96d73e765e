//! Golden pins for the single-node engine: every deterministic output of
//! three small serves, fingerprinted and committed as constants.
//!
//! The constants were recorded from the pre-unification `Engine` (its
//! own `Scheduler`-based dispatcher and worker pool). `Engine` is now a
//! one-node `Cluster`, so this file is the proof that the one surviving
//! dispatcher reproduces the deleted one bit for bit: decision trail,
//! score checksum, cache counters, per-tenant virtual-latency ledgers,
//! the virtual p99, and the dispatcher track's pinned events. `Scatter`
//! is filtered out of the event fingerprint because the old engine had
//! no scatter step; every other pinned kind is hashed field by field.
//!
//! One worker everywhere: cache counters and the checksum's summation
//! order are then functions of `(config, seed)` alone.

use mprec::data::query::QueryTraceConfig;
use mprec::data::scenario::LoadScenario;
use mprec::data::traffic::{SlaClass, TenantSpec, TrafficConfig};
use mprec::runtime::{
    serve, LatencyHistogram, PathKind, RoutePolicy, RuntimeConfig, RuntimeModelConfig,
};
use mprec::trace::{EventKind, TraceConfig};

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

/// The deterministic surface of one serve.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// Micro-batches dispatched.
    batches: usize,
    /// FNV-1a over `path_decisions` (hybrid = 0, dhe = 1, table = 2).
    decisions: u64,
    /// `checksum.to_bits()`.
    checksum_bits: u64,
    /// `[encoder_hits, encoder_misses, decoder_lookups, dynamic_hits,
    /// disk_hits, evictions]`.
    cache: [u64; 6],
    /// Per tenant: `(completed, shed, violations, latency_sum_us bits)`.
    tenants: Vec<(u64, u64, u64, u64)>,
    /// p99 bits of the tenant-merged virtual histogram.
    v_p99_bits: u64,
    /// Pinned dispatcher events kept (Scatter excluded).
    events: usize,
    /// FNV-1a over those events, every field.
    events_fnv: u64,
}

fn small_model() -> RuntimeModelConfig {
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
        dynamic_cache_entries: 256,
        profile_accesses: 3_000,
        ..RuntimeModelConfig::default()
    }
}

fn base_cfg() -> RuntimeConfig {
    RuntimeConfig {
        workers: 1,
        cache_shards: 4,
        trace: QueryTraceConfig {
            num_queries: 600,
            mean_size: 5.0,
            sigma: 1.0,
            max_size: 20,
            qps: 4000.0,
            poisson_arrivals: true,
        },
        model: small_model(),
        max_batch_samples: 40,
        seed: 17,
        // Slow virtual compute and a tight SLA: routing switches paths
        // and violations occur, so the pins are not vacuous.
        virtual_gflops: 0.01,
        sla_us: 2_500.0,
        recorder: TraceConfig::enabled(),
        ..RuntimeConfig::default()
    }
}

fn fixed_table_cfg() -> RuntimeConfig {
    RuntimeConfig {
        route: RoutePolicy::Fixed(PathKind::Table),
        ..base_cfg()
    }
}

fn mprec_drift_cfg() -> RuntimeConfig {
    RuntimeConfig {
        scenario: LoadScenario::HotKeyDrift { epochs: 4 },
        ..base_cfg()
    }
}

/// A strict interactive tenant plus a loose batch tenant whose ladder is
/// tight enough that this short overloaded trace sheds it.
fn tenants_cfg() -> RuntimeConfig {
    let mut batch = TenantSpec::batch("score", 200, 2_500.0);
    batch.sla = SlaClass {
        sla_us: 8_000.0,
        narrow_backlog_us: 1_500.0,
        table_only_backlog_us: 3_000.0,
        shed_backlog_us: 4_500.0,
    };
    RuntimeConfig {
        tenants: TrafficConfig::new(vec![TenantSpec::ranking("rank", 300, 4_000.0), batch]),
        ..base_cfg()
    }
}

fn golden_of(cfg: RuntimeConfig) -> Golden {
    let report = serve(cfg).expect("engine serves");

    let mut decisions = Fnv::new();
    for &p in &report.path_decisions {
        decisions.word(match p {
            PathKind::Hybrid => 0,
            PathKind::Dhe => 1,
            PathKind::Table => 2,
        });
    }

    let mut vhist = LatencyHistogram::new();
    for t in &report.tenants {
        vhist.merge(&t.virtual_histogram);
    }

    let recording = report.trace.as_ref().expect("recorder was enabled");
    let track = recording.track("dispatcher").expect("dispatcher track");
    assert_eq!(track.dropped_events, 0, "ring must hold the whole serve");
    let mut events = 0usize;
    let mut events_fnv = Fnv::new();
    for e in track.pinned_events() {
        if e.kind == EventKind::Scatter {
            continue;
        }
        events += 1;
        events_fnv.word(e.t_us.to_bits());
        for b in e.kind.label().bytes() {
            events_fnv.word(u64::from(b));
        }
        events_fnv.word(e.id);
        events_fnv.word(u64::from(e.node));
        events_fnv.word(e.a);
        events_fnv.word(e.b);
        events_fnv.word(e.arg.to_bits());
        events_fnv.word(e.chosen as u64);
        for c in e.costs {
            events_fnv.word(c.to_bits());
        }
        for c in e.counts {
            events_fnv.word(u64::from(c));
        }
    }

    Golden {
        batches: report.path_decisions.len(),
        decisions: decisions.0,
        checksum_bits: report.checksum.to_bits(),
        cache: [
            report.cache.encoder_hits,
            report.cache.encoder_misses,
            report.cache.decoder_lookups,
            report.cache.dynamic_hits,
            report.cache.disk_hits,
            report.cache.evictions,
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
        v_p99_bits: vhist.quantile_us(0.99).to_bits(),
        events,
        events_fnv: events_fnv.0,
    }
}

#[test]
fn fixed_table_engine_matches_its_golden_pin() {
    let want = Golden {
        batches: 93,
        decisions: 11764925162072136455,
        checksum_bits: 4636247191237943296,
        cache: [0, 0, 0, 0, 0, 0],
        tenants: vec![(600, 0, 0, 4694843168603819202)],
        v_p99_bits: 4657574127793714965,
        events: 1479,
        events_fnv: 1912627019148398978,
    };
    assert_eq!(golden_of(fixed_table_cfg()), want);
}

#[test]
fn mprec_hot_key_drift_engine_matches_its_golden_pin() {
    let want = Golden {
        batches: 93,
        decisions: 3624649775408525959,
        checksum_bits: 4641195898102452224,
        cache: [7, 362, 362, 319, 0, 106],
        tenants: vec![(600, 0, 2, 4695677615465929098)],
        v_p99_bits: 4657574127793714965,
        events: 1479,
        events_fnv: 2306750289427909007,
    };
    let got = golden_of(mprec_drift_cfg());
    assert_eq!(got, want);
    assert!(got.tenants[0].2 > 0, "the pin must cover SLA violations");
}

#[test]
fn two_tenant_shedding_engine_matches_its_golden_pin() {
    let want = Golden {
        batches: 88,
        decisions: 3701571565763964135,
        checksum_bits: 4647714872615344128,
        cache: [54, 2094, 2094, 793, 0, 1838],
        tenants: vec![
            (300, 0, 252, 4697537758070885579),
            (194, 6, 0, 4695716776977734042),
        ],
        v_p99_bits: 4664631471276118684,
        events: 1264,
        events_fnv: 632572368960299442,
    };
    let got = golden_of(tenants_cfg());
    assert_eq!(got, want);
    assert_eq!(got.tenants[0].1, 0, "the strict class is never class-shed");
    assert!(
        got.tenants[1].1 > 0,
        "the pin must cover loose-class shedding"
    );
}
