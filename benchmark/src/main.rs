//! The repo benchmark runner. See README.md for the workloads, every
//! metric and how to compare two commits.
//!
//! ```text
//! mprec-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last stdout line is the result:
//!     end-to-end metrics with --trace 0, per-layer metrics with --trace 1
//! mprec-benchmark [--seed <n>] [--seconds <s>] [--smoke]
//!     every workload, each in a process of its own, both runs
//! mprec-benchmark --repeat-check [--seed <n>] [--seconds <s>]
//!     two end-to-end sets with one seed, compared against the bounds
//! ```

mod e2e;
mod env;
mod gate;
mod json;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{Pick, END_TO_END};
use stats::{within_bound, worsening};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        repeat_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; one of {:?}",
                workloads::NAMES
            ));
        }
    }
    Ok(args)
}

/// Where span dumps and detail files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn detail_path(workload: &str, trace: bool) -> PathBuf {
    let kind = if trace { "per_layer" } else { "end_to_end" };
    out_dir().join(format!("result_{workload}_{kind}.json"))
}

/// One run of one workload in this process.
fn run_one(workload: &str, args: &Args) -> Result<(), String> {
    let env = env::block(args.seed, args.seconds, args.smoke);
    let opts = e2e::Options {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let outcome = if args.trace {
        layers::run(workload, &opts)?
    } else {
        e2e::run(workload, &opts)?
    };
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
    }
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("create {}: {e}", out_dir().display()))?;
    let detail = Json::obj([
        ("workload", Json::str(workload)),
        ("environment", env.clone()),
        ("result", outcome.detail()),
    ]);
    let path = detail_path(workload, args.trace);
    std::fs::write(&path, detail.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    println!("environment {}", env.render());
    let kind = if args.trace {
        "per-layer (traced run)"
    } else {
        "end-to-end (recorder off)"
    };
    println!("workload {workload}: {kind}, correctness gate passed");
    print!("{}", outcome.table());
    println!("{}", outcome.result_line());
    Ok(())
}

/// Runs `workload` in a process of its own (so peak memory and allocator
/// state are per workload) and returns the outcome it printed.
fn run_child(workload: &str, trace: bool, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!(
            "workload {workload} (trace {}) failed: {}",
            trace as u8, out.status
        ));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    Json::parse(last).map_err(|e| format!("result line of {workload}: {e}"))
}

fn metric_of(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result has no metric {name}"))
}

/// Every workload, end-to-end then traced; collects the detail files into
/// `out/results.json` (the shape of the committed `BASELINE.json`).
fn run_all(args: &Args) -> Result<(), String> {
    let mut workloads = Vec::new();
    for name in workloads::NAMES {
        let mut fields = Vec::new();
        for trace in [false, true] {
            run_child(name, trace, args)?;
            let path = detail_path(name, trace);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let detail = Json::parse(&text)?;
            let key = if trace { "per_layer" } else { "end_to_end" };
            let result = detail.get("result").ok_or("detail file has no result")?;
            fields.push((key, result.clone()));
        }
        workloads.push((name, Json::obj(fields)));
    }
    let all = Json::obj([
        (
            "environment",
            env::block(args.seed, args.seconds, args.smoke),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out_dir().join("results.json");
    std::fs::write(&path, all.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "all {} workloads passed the correctness gate; details in {}",
        workloads::NAMES.len(),
        path.display()
    );
    Ok(())
}

/// Two end-to-end sets of the same code with one seed must agree within
/// the benchmark's own bounds; exact metrics must be equal.
fn repeat_check(args: &Args) -> Result<(), String> {
    let mut misses = 0;
    let mut report = String::new();
    for name in workloads::NAMES {
        let a = run_child(name, false, args)?;
        let b = run_child(name, false, args)?;
        report.push_str(&format!(
            "{name}\n  {:<24} {:>16} {:>16} {:>9} {:>7}  verdict\n",
            "metric", "set A", "set B", "worse by", "bound"
        ));
        for def in END_TO_END {
            let (va, vb) = (metric_of(&a, def.name)?, metric_of(&b, def.name)?);
            let worse = worsening(va, vb, def.better);
            let exact = def.pick == Pick::Exact;
            let ok = if exact {
                va == vb
            } else {
                within_bound(va, vb, def.better, def.bound)
            };
            misses += usize::from(!ok);
            report.push_str(&format!(
                "  {:<24} {:>16.6} {:>16.6} {:>+8.2}% {:>6.1}%  {}\n",
                def.name,
                va,
                vb,
                worse * 100.0,
                if exact { 0.0 } else { def.bound * 100.0 },
                if ok { "ok" } else { "MISS" }
            ));
        }
    }
    print!("{report}");
    if misses > 0 {
        return Err(format!(
            "repeat check: {misses} metric(s) outside their bound"
        ));
    }
    println!("repeat check passed: set B within every bound of set A, exact metrics equal");
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match &args.workload {
        Some(w) if !args.repeat_check => run_one(w, &args),
        Some(_) => Err("--repeat-check runs every workload; drop --workload".into()),
        None if args.repeat_check => repeat_check(&args),
        None => run_all(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mprec-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::PER_LAYER;

    /// `BENCHMARK.json` is what the benchmark's consumers read; this
    /// catalogue is what the runner prints. Same names, units, directions
    /// and bounds, in the same order.
    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_the_runner_prints() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| spec.get(key).unwrap().as_arr().unwrap().to_vec();
        let field = |row: &Json, key: &str| row.get(key).unwrap().as_str().unwrap().to_string();

        let names: Vec<String> = rows("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, workloads::NAMES);

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(row, "name"), def.name);
            assert_eq!(field(row, "unit"), def.unit, "{}", def.name);
            assert_eq!(field(row, "better"), def.better.label(), "{}", def.name);
            assert_eq!(
                row.get("bound").unwrap().as_f64(),
                Some(def.bound),
                "{}",
                def.name
            );
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(row, "name"), def.name);
            assert_eq!(field(row, "unit"), def.unit, "{}", def.name);
            assert_eq!(field(row, "better"), def.better.label(), "{}", def.name);
        }
        assert_eq!(
            spec.get("paths").unwrap().as_arr().unwrap(),
            [Json::str("benchmark")]
        );
    }

    /// Both kinds of run, at smoke length, print every catalogued metric
    /// and nothing else, in the result-line shape the contract fixes.
    #[test]
    fn a_smoke_run_measures_every_catalogued_metric() {
        let opts = e2e::Options {
            seed: 3,
            seconds: 1.0,
            smoke: true,
        };
        let keys = |v: &Json| match v {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        let check = |outcome: &metrics::Outcome, names: Vec<&str>| {
            let line = Json::parse(&outcome.result_line()).unwrap();
            assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("failed").unwrap().as_f64(), Some(0.0));
            assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
            let metrics = line.get("metrics").unwrap();
            assert_eq!(keys(metrics), names);
            for name in names {
                let m = metrics.get(name).unwrap();
                assert_eq!(keys(m), ["value", "unit"], "{name}");
                assert!(
                    m.get("value").unwrap().as_f64().is_some(),
                    "{name} is not a finite number"
                );
            }
        };
        let e2e = e2e::run("mprec_closed", &opts).unwrap();
        check(&e2e, END_TO_END.iter().map(|d| d.name).collect());
        for never_zero in END_TO_END {
            assert!(
                metric_of(&Json::parse(&e2e.result_line()).unwrap(), never_zero.name).unwrap()
                    > 0.0
            );
        }
        let layers = layers::run("mprec_closed", &opts).unwrap();
        check(&layers, PER_LAYER.iter().map(|d| d.name).collect());
        let line = Json::parse(&layers.result_line()).unwrap();
        assert_eq!(metric_of(&line, "trace.dropped_events").unwrap(), 0.0);
        assert!(metric_of(&line, "runtime.engine.batches").unwrap() > 0.0);
        assert!(crate::out_dir().join("spans_mprec_closed.json").exists());
    }
}
