//! Property-based invariants of the MP-Rec core: planning never exceeds
//! memory budgets, routing always respects the mapping set, profiles
//! interpolate monotonically, and the correct-prediction metric composes.

use mprec_core::candidates::{default_accuracy_book, paper_candidates, RepRole};
use mprec_core::metrics::CorrectPredictionThroughput;
use mprec_core::planner::plan;
use mprec_core::profile::LatencyProfile;
use mprec_core::scheduler::{select_mapping, Scheduler, SchedulerConfig};
use mprec_data::DatasetSpec;
use mprec_hwsim::Platform;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn planner_never_exceeds_budget(cpu_gb in 1u64..64, gpu_mb in 100u64..32_000) {
        let spec = DatasetSpec::kaggle_sim(100);
        let cands = paper_candidates(&spec, &default_accuracy_book(&spec));
        let platforms = vec![
            Platform::cpu().with_dram_cap(cpu_gb * 1_000_000_000),
            Platform::gpu().with_dram_cap(gpu_mb * 1_000_000),
        ];
        if let Ok(set) = plan(&cands, &platforms) {
            for (idx, p) in set.platforms.iter().enumerate() {
                prop_assert!(
                    set.footprint_bytes(idx) <= p.memory_budget(),
                    "{} over budget", p.name
                );
            }
        }
    }

    #[test]
    fn router_decisions_reference_valid_mappings(
        size in 1u64..4096,
        sla_ms in 1.0f64..200.0,
    ) {
        let spec = DatasetSpec::kaggle_sim(100);
        let cands = paper_candidates(&spec, &default_accuracy_book(&spec));
        let platforms = vec![
            Platform::cpu().with_dram_cap(32_000_000_000),
            Platform::gpu(),
        ];
        let set = plan(&cands, &platforms).unwrap();
        let n = set.mappings.len();
        let mut sched = Scheduler::new(set, SchedulerConfig::default());
        let d = sched.route(size, sla_ms * 1000.0).unwrap();
        prop_assert!(d.mapping_idx < n);
        prop_assert!(d.platform_idx < 2);
        prop_assert!(d.exec_us > 0.0);
        prop_assert!(d.expected_completion_us >= d.exec_us);
    }

    #[test]
    fn dispatch_backlog_stays_nonnegative(sizes in prop::collection::vec(1u64..2048, 1..20)) {
        let spec = DatasetSpec::kaggle_sim(100);
        let cands = paper_candidates(&spec, &default_accuracy_book(&spec));
        let platforms = vec![
            Platform::cpu().with_dram_cap(32_000_000_000),
            Platform::gpu(),
        ];
        let set = plan(&cands, &platforms).unwrap();
        let mut sched = Scheduler::new(set, SchedulerConfig::default());
        for s in sizes {
            let (_, done) = sched.dispatch(s, 10_000.0).unwrap();
            prop_assert!(done >= 0.0);
            for i in 0..2 {
                prop_assert!(sched.backlog_us(i) >= 0.0);
            }
        }
    }

    #[test]
    fn equal_accuracy_selection_is_the_lowest_index_fastest(
        ticks in prop::collection::vec(1u32..4, 1..10),
        sla_us in 0.0f64..3_000.0,
    ) {
        // The table-switching shape: every candidate at one accuracy.
        // Integer ticks make completion ties common, and the SLA range
        // covers both the within-SLA pick and the fastest fallback.
        let spec = DatasetSpec::kaggle_sim(100);
        let cands = paper_candidates(&spec, &default_accuracy_book(&spec));
        let platforms = vec![
            Platform::cpu().with_dram_cap(32_000_000_000),
            Platform::gpu(),
        ];
        let mut set = plan(&cands, &platforms).unwrap();
        let table = set.mappings.iter().find(|m| m.rep.role == RepRole::Table).unwrap().clone();
        set.mappings = vec![table; ticks.len()];
        let completions: Vec<f64> = ticks.iter().map(|&t| f64::from(t) * 1_000.0).collect();
        let fastest = completions.iter().copied().fold(f64::INFINITY, f64::min);
        let want = completions.iter().position(|&c| c == fastest);
        prop_assert_eq!(select_mapping(&set, &completions, sla_us), want);
    }

    #[test]
    fn profile_interpolation_is_monotone_for_monotone_points(
        base in 1.0f64..1000.0,
        slope in 0.01f64..10.0,
        query in 1u64..8192,
    ) {
        let sizes = vec![1u64, 16, 256, 4096];
        let lats: Vec<f64> = sizes.iter().map(|&s| base + slope * s as f64).collect();
        let p = LatencyProfile::from_points(sizes, lats);
        prop_assert!(p.latency_us(query) <= p.latency_us(query + 1) + 1e-9);
        prop_assert!(p.latency_us(query) >= base - 1e-9);
    }

    #[test]
    fn correct_throughput_never_exceeds_raw(
        records in prop::collection::vec((1u64..4096, 0.0f32..1.0), 1..50),
        span in 0.1f64..100.0,
    ) {
        let mut m = CorrectPredictionThroughput::default();
        for (size, acc) in &records {
            m.record(*size, *acc);
        }
        m.set_span(span);
        prop_assert!(m.correct_sps() <= m.raw_sps() + 1e-6);
        prop_assert!(m.effective_accuracy() <= 1.0 + 1e-6);
    }
}
