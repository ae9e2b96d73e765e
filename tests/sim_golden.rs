//! Golden pins for the paper-figure simulator: every deterministic
//! output of `simulate` / `simulate_trace` over each serving policy,
//! fingerprinted and committed as constants.
//!
//! The constants were recorded from the per-query `Scheduler` loop that
//! `simulate_trace` used to run (one route + commit per query, with the
//! static and table-switching policies routed "fastest completion
//! first"). The figures now run on the dispatcher core
//! (`replay_cluster` over `platforms_as_nodes`, each platform a node)
//! with batching off, so this file is the proof that the serving loop
//! reproduces the deleted one bit for bit. Never re-record them for a
//! refactor.

use mprec::core::candidates::{default_accuracy_book, paper_candidates, RepRole};
use mprec::core::planner::{plan, MappingSet};
use mprec::data::query::{QueryGenerator, QueryTraceConfig};
use mprec::data::scenario::{self, LoadScenario};
use mprec::data::DatasetSpec;
use mprec::hwsim::Platform;
use mprec::serving::{
    simulate, simulate_trace, MpCacheEffect, Policy, ServingConfig, ServingOutcome,
};

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

/// The deterministic surface of one simulated serve.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    completed: u64,
    samples: u64,
    sla_violations: u64,
    /// `to_bits()` of `[correct_samples, mean, p95, p99, span_s]`.
    bits: [u64; 5],
    /// FNV-1a over every `(label, queries, samples)` usage row.
    usage: u64,
}

const fn pin(
    completed: u64,
    samples: u64,
    sla_violations: u64,
    bits: [u64; 5],
    usage: u64,
) -> Golden {
    Golden {
        completed,
        samples,
        sla_violations,
        bits,
        usage,
    }
}

fn golden_of(o: &ServingOutcome) -> Golden {
    let mut usage = Fnv::new();
    for (label, &queries) in &o.usage.queries {
        for b in label.bytes() {
            usage.word(u64::from(b));
        }
        usage.word(queries);
        usage.word(o.usage.samples[label]);
    }
    Golden {
        completed: o.completed,
        samples: o.samples,
        sla_violations: o.sla_violations,
        bits: [
            o.correct_samples.to_bits(),
            o.mean_latency_us.to_bits(),
            o.p95_latency_us.to_bits(),
            o.p99_latency_us.to_bits(),
            o.span_s.to_bits(),
        ],
        usage: usage.0,
    }
}

fn mappings_on(platforms: &[Platform]) -> MappingSet {
    let spec = DatasetSpec::kaggle_sim(100);
    let candidates = paper_candidates(&spec, &default_accuracy_book(&spec));
    plan(&candidates, platforms).expect("plan")
}

/// The paper's HW-1: 32 GB CPU + GPU.
fn hw1() -> MappingSet {
    mappings_on(&[
        Platform::cpu().with_dram_cap(32_000_000_000),
        Platform::gpu(),
    ])
}

/// The paper's HW-2: 1 GB CPU + 200 MB GPU.
fn hw2() -> MappingSet {
    mappings_on(&[
        Platform::cpu().with_dram_cap(1_000_000_000),
        Platform::gpu().with_dram_cap(200_000_000),
    ])
}

/// 500 queries at the trace defaults (1000 QPS): loaded enough that the
/// routed policies switch paths and every cell has SLA violations.
fn quick_cfg(mpcache: Option<MpCacheEffect>) -> ServingConfig {
    ServingConfig {
        trace: QueryTraceConfig {
            num_queries: 500,
            ..QueryTraceConfig::default()
        },
        mpcache,
        ..ServingConfig::default()
    }
}

const POLICIES: [Policy; 8] = [
    Policy::Static {
        role: RepRole::Table,
        platform_idx: 0,
    },
    Policy::Static {
        role: RepRole::Table,
        platform_idx: 1,
    },
    Policy::Static {
        role: RepRole::Dhe,
        platform_idx: 1,
    },
    Policy::Static {
        role: RepRole::Hybrid,
        platform_idx: 1,
    },
    Policy::TableSwitching,
    Policy::QuerySplit { cpu_fraction: 0.5 },
    Policy::MpRec,
    Policy::MpRecNoFallback,
];

/// HW-1 cells 0..6 of [`POLICIES`]: MP-Cache only reprices the MP-Rec
/// policies' compute paths, so both cache settings share them.
#[rustfmt::skip]
const SHARED: [Golden; 6] = [
    pin(500, 61551, 489, [4676898057347268608, 4690106889729457641, 4694334078628941224, 4694517711649371378, 4608176657482357669], 10971731756121306449),
    pin(500, 61551, 483, [4676898057347268608, 4684616463090317841, 4688634698003728146, 4688714328879262278, 4605082725532087108], 16369315151741928077),
    pin(500, 61551, 499, [4676910746693550080, 4699163463610771356, 4703383109628488965, 4703613634453390414, 4615019994348099373], 7155371978515974346),
    pin(500, 61551, 499, [4676914130552840192, 4700097185890385789, 4704270268477621123, 4704536203431836376, 4615997163968680440], 5191601107852507003),
    pin(500, 61551, 5, [4676898057347268608, 4659548461780673319, 4665100102842943616, 4666646654700722272, 4602294220750940159], 7157928798606535243),
    pin(500, 61551, 483, [4676898057347268608, 4684926621777401310, 4689048845110020042, 4689182299205106148, 4605358043074597348], 3475687104959428847),
];

/// HW-1 `[MpRec, MpRecNoFallback]` with MP-Cache on.
#[rustfmt::skip]
const MPREC_CACHED: [Golden; 2] = [
    pin(500, 61551, 190, [4676903072452149248, 4666548831604515109, 4668776119382497944, 4669585940019867968, 4602415626178763074], 6346513984852872750),
    pin(500, 61551, 485, [4676910791664336896, 4680346990021567122, 4684111796638281328, 4684195478869424968, 4603754014315397911], 13517350990911666419),
];

/// HW-1 `[MpRec, MpRecNoFallback]` with MP-Cache off.
#[rustfmt::skip]
const MPREC_UNCACHED: [Golden; 2] = [
    pin(500, 61551, 121, [4676898315995799552, 4665850493513731145, 4668081982266078368, 4668680091554975744, 4602328251705368390], 18293591368508322904),
    pin(500, 61551, 499, [4676910749937164288, 4698162331338777550, 4702453067535482248, 4702644398646018985, 4613992153861834356], 9756276290573538184),
];

/// HW-2 `MpRec` with MP-Cache on.
#[rustfmt::skip]
const HW2_MPREC: Golden =
    pin(500, 61551, 74, [4676907116486156288, 4665369349440178993, 4667082464449960640, 4667328416091857888, 4602376119780442842], 4599603835052511988);

fn hw1_cells(mpcache: Option<MpCacheEffect>) -> Vec<Golden> {
    let maps = hw1();
    let cfg = quick_cfg(mpcache);
    POLICIES
        .iter()
        .map(|&p| golden_of(&simulate(&maps, p, &cfg)))
        .collect()
}

#[test]
fn hw1_policies_with_mpcache_match_their_golden_pins() {
    let got = hw1_cells(Some(MpCacheEffect::default()));
    assert_eq!(got[..6], SHARED);
    assert_eq!(got[6..], MPREC_CACHED);
}

#[test]
fn hw1_policies_without_mpcache_match_their_golden_pins() {
    let got = hw1_cells(None);
    assert_eq!(got[..6], SHARED);
    assert_eq!(got[6..], MPREC_UNCACHED);
}

#[test]
fn hw2_mprec_matches_its_golden_pin() {
    let cfg = quick_cfg(Some(MpCacheEffect::default()));
    assert_eq!(golden_of(&simulate(&hw2(), Policy::MpRec, &cfg)), HW2_MPREC);
}

#[test]
fn hot_key_drift_trace_matches_its_golden_pin() {
    // The drift trace has the steady trace's sizes and arrivals; only
    // its ids carry epoch bits. The simulator prices sizes, so the pin
    // is the steady MP-Rec cell: epoch bits must not reach routing.
    let cfg = quick_cfg(Some(MpCacheEffect::default()));
    let trace = scenario::generate(cfg.trace, LoadScenario::HotKeyDrift { epochs: 4 }, cfg.seed);
    let steady = QueryGenerator::new(cfg.trace, cfg.seed).generate();
    assert!(trace
        .iter()
        .zip(&steady)
        .all(|(d, s)| (d.size, d.arrival_us) == (s.size, s.arrival_us)));
    assert!(trace.iter().any(|q| scenario::epoch_of(q.id) > 0));
    let got = golden_of(&simulate_trace(&hw1(), Policy::MpRec, &cfg, &trace));
    assert_eq!(got, MPREC_CACHED[0]);
}
