//! The paper's figures, pinned: each bin below, run at its defaults,
//! must print its committed golden `figures/<bin>.txt` byte for byte.
//!
//! These are every deterministic bin that finishes in seconds: the ten
//! that serve traces through `simulate`, and the hardware-model,
//! footprint, scaling and MP-Cache bins. A change that moves a paper
//! figure fails here. A change that means to move one re-records its
//! golden with `just figures-bless` in the same diff and says why. The
//! three training bins (fig03, fig04, table2), `calibrate` and
//! `trace_viz` are not pinned: they take minutes or write files.

use std::path::Path;
use std::process::Command;

/// Runs `exe` and compares its stdout with `figures/<name>.txt`,
/// naming the first line that differs.
fn check(name: &str, exe: &str) {
    let out = Command::new(exe).output().expect("figure bin runs");
    assert!(
        out.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../figures")
        .join(format!("{name}.txt"));
    let golden = std::fs::read_to_string(&path).expect("golden is committed");
    let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
    if got != golden {
        let at = golden
            .lines()
            .zip(got.lines())
            .position(|(w, g)| w != g)
            .unwrap_or_else(|| golden.lines().count().min(got.lines().count()));
        let line = |s: &str| s.lines().nth(at).unwrap_or("<end of output>").to_string();
        panic!(
            "{name} moved from {}: line {}\n  golden: {}\n  now:    {}",
            path.display(),
            at + 1,
            line(&golden),
            line(&got)
        );
    }
}

macro_rules! goldens {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            check(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
        }
    )*};
}

goldens!(
    fig10_correct_throughput,
    fig11_throughput_breakdown,
    fig12_ipu_serving,
    fig13_sensitivity,
    fig14_query_splitting,
    fig15_switching_breakdown,
    fig17_sla_violations,
    table4_constrained,
    ablation_mpcache,
    ablation_scheduler,
    fig05_operator_breakdown,
    fig07_accelerator_grid,
    fig16_mpcache,
    fig18_scaling,
    table1_systems,
    table3_footprints,
    calibrate_hw,
    ablation_cache_policy,
);
