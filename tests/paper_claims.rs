//! Paper-claim regression tests: the headline quantitative shapes the
//! reproduction must preserve (capacities, latency ratios, serving wins).
//! These are the fast, deterministic subset; the full numbers regenerate
//! via the `mprec-bench` figure/table binaries.

use mprec::core::candidates::{default_accuracy_book, paper_candidates, RepRole};
use mprec::core::planner::plan;
use mprec::data::query::QueryTraceConfig;
use mprec::data::{DatasetSpec, KAGGLE_CARDINALITIES};
use mprec::hwsim::{Platform, WorkloadBuilder};
use mprec::scaling::{ClusterSpec, TrainingStepModel};
use mprec::serving::{simulate, Policy, ServingConfig};

#[test]
fn table3_kaggle_capacities() {
    // Paper Table 3 (Kaggle): 2.16 GB / 126 MB / 2.29 GB / 4.58 GB.
    let spec = DatasetSpec::kaggle_sim(100);
    let cands = paper_candidates(&spec, &default_accuracy_book(&spec));
    let get = |r: RepRole| {
        cands
            .iter()
            .find(|c| c.role == r)
            .expect("role present")
            .capacity_bytes() as f64
    };
    assert!((get(RepRole::Table) / 1e9 - 2.16).abs() < 0.05);
    assert!((get(RepRole::Dhe) / 1e6 - 126.0).abs() < 20.0);
    assert!((get(RepRole::Hybrid) / 1e9 - 2.29).abs() < 0.06);
    let mp_rec = get(RepRole::Hybrid) + get(RepRole::Table) + get(RepRole::Dhe);
    assert!((mp_rec / 1e9 - 4.58).abs() < 0.15, "mp-rec {mp_rec}");
}

#[test]
fn fig5_slowdown_shape() {
    // DHE ~10x slower than table on CPU; the GPU gap is much smaller;
    // select sits between table and DHE (paper: 10.5x/4.7x and 2.1x/1.5x).
    let b = WorkloadBuilder::new("kaggle", KAGGLE_CARDINALITIES.to_vec(), 13);
    let table = b.table(16).unwrap();
    let dhe = b.dhe(512, 256, 2, 16).unwrap();
    let select = b.select(16, 512, 256, 2, 3).unwrap();
    let ratio = |p: &Platform, w| p.query_time_us(w, 128).unwrap();
    let cpu = Platform::cpu();
    let gpu = Platform::gpu();
    let cpu_dhe = ratio(&cpu, &dhe) / ratio(&cpu, &table);
    let gpu_dhe = ratio(&gpu, &dhe) / ratio(&gpu, &table);
    let cpu_sel = ratio(&cpu, &select) / ratio(&cpu, &table);
    assert!((6.0..16.0).contains(&cpu_dhe), "cpu dhe slowdown {cpu_dhe}");
    assert!(gpu_dhe < cpu_dhe * 0.6, "gpu {gpu_dhe} vs cpu {cpu_dhe}");
    assert!((1.3..3.5).contains(&cpu_sel), "cpu select slowdown {cpu_sel}");
}

#[test]
fn fig7_tpu_and_ipu_headlines() {
    // TPU-2 ~3.12x / TPU-8 ~11.13x for tables; IPU-16 ~16.65x for DHE.
    let b = WorkloadBuilder::new("kaggle", KAGGLE_CARDINALITIES.to_vec(), 13);
    let table = b.table(16).unwrap();
    let dhe = b.dhe(512, 256, 2, 16).unwrap();
    let t_cpu = Platform::cpu().query_time_us(&table, 2048).unwrap();
    let tpu2 = t_cpu / Platform::tpu(2).query_time_us(&table, 2048).unwrap();
    let tpu8 = t_cpu / Platform::tpu(8).query_time_us(&table, 2048).unwrap();
    let ipu16 = t_cpu / Platform::ipu(16).query_time_us(&dhe, 2048).unwrap();
    assert!((2.2..4.2).contains(&tpu2), "tpu-2 {tpu2} (paper 3.12)");
    assert!((8.0..15.0).contains(&tpu8), "tpu-8 {tpu8} (paper 11.13)");
    assert!((11.0..21.0).contains(&ipu16), "ipu-16 {ipu16} (paper 16.65)");
}

#[test]
fn fig7_gpu_energy_wins_for_tables() {
    // O3: GPU is the most energy-efficient platform for large table models.
    let b = WorkloadBuilder::new("kaggle", KAGGLE_CARDINALITIES.to_vec(), 13);
    let table = b.table(16).unwrap();
    let gpu = Platform::gpu().energy_per_query_j(&table, 2048).unwrap();
    for p in [Platform::cpu(), Platform::tpu(2), Platform::tpu(8), Platform::ipu(4)] {
        let e = p.energy_per_query_j(&table, 2048).unwrap();
        assert!(gpu < e, "GPU {gpu} J should beat {} {e} J", p.name);
    }
}

#[test]
fn fig10_mp_rec_beats_baseline_by_at_least_2x() {
    // Paper: 2.49x on Kaggle. Allow a generous band for the shorter trace.
    let spec = DatasetSpec::kaggle_sim(100);
    let cands = paper_candidates(&spec, &default_accuracy_book(&spec));
    let maps = plan(
        &cands,
        &[Platform::cpu().with_dram_cap(32_000_000_000), Platform::gpu()],
    )
    .expect("plan");
    let cfg = ServingConfig {
        trace: QueryTraceConfig {
            num_queries: 3_000,
            ..QueryTraceConfig::default()
        },
        ..ServingConfig::default()
    };
    let base = simulate(
        &maps,
        Policy::Static {
            role: RepRole::Table,
            platform_idx: 0,
        },
        &cfg,
    );
    let mp = simulate(&maps, Policy::MpRec, &cfg);
    let x = mp.correct_sps() / base.correct_sps();
    assert!((1.8..3.5).contains(&x), "speedup {x} (paper 2.49x)");
}

#[test]
fn fig17_mp_rec_cuts_sla_violations() {
    // Paper at 10 ms / 400 QPS: TBL(CPU) 30.73% -> MP-Rec 3.14%.
    let spec = DatasetSpec::kaggle_sim(100);
    let cands = paper_candidates(&spec, &default_accuracy_book(&spec));
    let maps = plan(
        &cands,
        &[Platform::cpu().with_dram_cap(32_000_000_000), Platform::gpu()],
    )
    .expect("plan");
    let cfg = ServingConfig {
        trace: QueryTraceConfig {
            num_queries: 3_000,
            qps: 400.0,
            ..QueryTraceConfig::default()
        },
        ..ServingConfig::default()
    };
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
        base.sla_violation_rate() > 0.10,
        "baseline violations {:.3} too low to be interesting",
        base.sla_violation_rate()
    );
    assert!(
        mp.sla_violation_rate() < base.sla_violation_rate() / 2.0,
        "mp-rec {:.3} vs baseline {:.3}",
        mp.sla_violation_rate(),
        base.sla_violation_rate()
    );
}

#[test]
fn fig18_dhe_reduces_step_time() {
    // Paper: ~36% step reduction, ~40% exposed comm at baseline.
    let m = TrainingStepModel::terabyte_defaults();
    let c = ClusterSpec::zionex_128();
    let comm = m.sharded_step(&c).comm_fraction();
    let red = m.dhe_step_reduction(&c);
    assert!((0.3..0.55).contains(&comm), "comm fraction {comm}");
    assert!((0.2..0.45).contains(&red), "reduction {red}");
}

#[test]
fn accuracy_book_matches_paper_deltas() {
    // Paper Table 2 deltas: DHE +0.15%, hybrid +0.19% over tables.
    for spec in [DatasetSpec::kaggle_sim(100), DatasetSpec::terabyte_sim(100)] {
        let book = default_accuracy_book(&spec);
        let dhe_delta = book.dhe - book.table;
        let hybrid_delta = book.hybrid - book.table;
        assert!(
            (0.0005..0.004).contains(&dhe_delta),
            "dhe delta {dhe_delta}"
        );
        assert!(
            hybrid_delta > dhe_delta,
            "hybrid {hybrid_delta} !> dhe {dhe_delta}"
        );
    }
}
