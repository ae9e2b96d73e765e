//! Table 1: systems configurations — the hardware parameters the
//! performance model is built from, plus the derived mechanism constants.

use mprec_hwsim::Platform;

fn main() {
    mprec_bench::header(
        "table1_systems",
        "CPU 76.8 GB/s / 264 GB / 105 W; V100 900 GB/s / 32 GB / 250 W; \
         IPU-M2000 600 W; IPU-POD16 2400 W",
    );
    println!(
        "{:10} {:>6} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "platform", "chips", "eff GF/s", "DRAM GB/s", "DRAM GB", "SRAM MB", "TDP W"
    );
    for p in [
        Platform::cpu(),
        Platform::gpu(),
        Platform::tpu(1),
        Platform::tpu(2),
        Platform::tpu(8),
        Platform::ipu(1),
        Platform::ipu(4),
        Platform::ipu(16),
    ] {
        println!(
            "{:10} {:>6} {:>12.0} {:>10.1} {:>10.0} {:>10.0} {:>10.0}",
            p.name,
            p.chips,
            p.spec.peak_gflops,
            p.spec.dram_bw_gb,
            p.dram_capacity() as f64 / 1e9,
            p.sram_capacity() as f64 / 1e6,
            p.spec.tdp_w * p.chips as f64,
        );
    }
    println!("\n(eff GF/s are framework-effective rates calibrated to the");
    println!(" paper's measured ratios; the calibrate_hw bin prints both)");
}
