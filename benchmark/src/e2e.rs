//! The end-to-end run of one workload: recorder off, set-up timed over
//! fresh builds, one discarded warm-up serve, then timed repetitions on
//! the same engine (`serve()` resets cache state, so repetitions do
//! identical work).

use std::time::Instant;

use crate::gate::{self, Exact};
use crate::metrics::{Measured, Outcome, Pick, END_TO_END};
use crate::stats::{quantile_interp, spread, Better, Spread};
use crate::workloads::{plan, Run};

/// Fresh builds timed for `setup_s`.
const SETUP_BUILDS: usize = 3;
/// Fewest timed repetitions of a full run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

pub struct Options {
    pub seed: u64,
    /// Measure until this much serve wall time has been spent.
    pub seconds: f64,
    /// 1/20-length traces, one build, one repetition.
    pub smoke: bool,
}

pub fn run(workload: &str, opts: &Options) -> Result<Outcome, String> {
    let len_div = if opts.smoke { 20 } else { 1 };
    let plan = plan(workload, opts.seed, len_div, false)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;

    let builds = if opts.smoke { 1 } else { SETUP_BUILDS };
    let mut setup = Vec::with_capacity(builds);
    let mut built = None;
    for _ in 0..builds {
        // Drop the previous build first: peak memory is one model's.
        drop(built.take());
        let t0 = Instant::now();
        built = Some(plan.build()?);
        setup.push(t0.elapsed().as_secs_f64());
    }
    let built = built.expect("at least one build");

    // Warm-up: the first serve on a fresh engine runs up to 25 % slow
    // (page faults on the tables, scratch buffers growing).
    let warm = built.serve()?;
    gate::check_run(&plan, &warm)?;
    let exact = Exact::of(&warm);

    let min_reps = if opts.smoke { 1 } else { MIN_REPS };
    let mut reps: Vec<Run> = Vec::new();
    let mut spent = 0.0;
    while reps.len() < min_reps || (!opts.smoke && spent < opts.seconds) {
        let run = built.serve()?;
        gate::check_run(&plan, &run)?;
        Exact::of(&run).same_as(&exact, &format!("repetition {}", reps.len() + 1))?;
        if run.cluster.is_some() {
            gate::check_checksum("cluster repetition", run.checksum, warm.checksum, 1e-6)?;
        }
        spent += run.wall_s;
        reps.push(run);
    }

    let offered = plan.offered();
    let first = &reps[0];
    let over_reps = |f: &dyn Fn(&Run) -> f64| spread(&reps.iter().map(f).collect::<Vec<_>>());
    let late_or_lost =
        |r: &Run| (r.measured_violations + (offered - r.completed)) as f64 / offered as f64;
    let value_of = |name: &str| -> Spread {
        match name {
            "setup_s" => spread(&setup),
            "samples_per_s" => over_reps(&|r| r.samples as f64 / r.wall_s),
            "correct_samples_per_s" => over_reps(&|r| r.correct_samples / r.wall_s),
            "lat_p50_us" => over_reps(&|r| quantile_interp(&r.hist, 0.50)),
            "lat_p95_us" => over_reps(&|r| quantile_interp(&r.hist, 0.95)),
            "sla_met_frac" => over_reps(&|r| 1.0 - late_or_lost(r)),
            "completed_frac" => exactly(first.completed as f64 / offered as f64),
            "served_accuracy" => exactly(first.correct_samples / first.samples.max(1) as f64),
            "v_sla_met_frac" => exactly(
                1.0 - (first.v_violations + (offered - first.completed)) as f64 / offered as f64,
            ),
            "v_lat_p99_us" => exactly(quantile_interp(&first.vhist, 0.99)),
            "peak_rss_mb" => exactly(peak_rss_mb()),
            other => unreachable!("metric {other} has no measurement"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|def| {
            let s = value_of(def.name);
            let value = match (def.pick, def.better) {
                (Pick::BestQuartile, Better::Lower) => s.q1,
                (Pick::BestQuartile, Better::Higher) => s.q3,
                _ => s.median,
            };
            Measured {
                name: def.name,
                unit: def.unit,
                better: def.better,
                value,
                spread: (s.n > 1).then_some(s),
            }
        })
        .collect();
    // The p99 of a 1.25 s repetition is set by two or three host stalls:
    // its spread over seeds reached 26 % here, wider than any bound, so it
    // is shown but not held against a change (README, "Noise").
    let p99 = over_reps(&|r| quantile_interp(&r.hist, 0.99));
    let info = vec![Measured {
        name: "lat_p99_us (info)",
        unit: "us",
        better: Better::Lower,
        value: p99.median,
        spread: Some(p99),
    }];
    Ok(Outcome {
        attempted: offered * reps.len() as u64,
        failed: reps.iter().map(|r| offered - r.completed).sum(),
        metrics,
        info,
    })
}

fn exactly(value: f64) -> Spread {
    spread(&[value])
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc`
/// does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}
