//! The output-correctness gate. Any failure makes the runner exit
//! non-zero without printing a result.

use mprec::core::mpcache::CacheStats;
use mprec::runtime::PathKind;

use crate::stats::quantile_interp;
use crate::workloads::{path_index, Plan, Run, PATHS};

/// Invariants of one serve, read from its report alone.
pub fn check_run(plan: &Plan, run: &Run) -> Result<(), String> {
    let offered = plan.offered();
    if run.completed + run.shed != offered {
        return Err(format!(
            "completed {} + shed {} != offered {offered}",
            run.completed, run.shed
        ));
    }
    if run.routed != run.completed {
        return Err(format!(
            "routed {} != completed {}",
            run.routed, run.completed
        ));
    }
    if run.hist.count() != run.completed {
        return Err(format!(
            "{} measured latencies for {} completed queries",
            run.hist.count(),
            run.completed
        ));
    }
    if run.vhist.count() != run.completed {
        return Err(format!(
            "{} virtual latencies for {} completed queries",
            run.vhist.count(),
            run.completed
        ));
    }
    let by_path: u64 = run.path_samples.iter().sum();
    if by_path != run.samples {
        return Err(format!(
            "per-path samples {by_path} != samples {}",
            run.samples
        ));
    }
    let tenants_offered: u64 = run
        .tenants
        .iter()
        .map(|t| t.completed + t.shed_queries)
        .sum();
    if tenants_offered != offered {
        return Err(format!(
            "tenant rows cover {tenants_offered} of {offered} queries"
        ));
    }
    if !(run.correct_samples.is_finite() && run.checksum.is_finite()) {
        return Err("non-finite correct_samples or checksum".into());
    }
    // The four tier counters partition the DHE lookups the served paths
    // imply: every DHE feature of every sample looks up exactly once (a
    // batch the cluster retries after a node failure looks up again).
    let features = plan.model().sparse_features as u64;
    let dhe_features = |path: PathKind| match path {
        PathKind::Table => 0,
        PathKind::Dhe => features,
        PathKind::Hybrid => features - features / 2,
    };
    let expected: u64 = PATHS
        .iter()
        .map(|&p| run.path_samples[path_index(p)] * dhe_features(p))
        .sum();
    let retried = run.cluster.as_ref().map_or(0, |c| c.retried_batches);
    let lookups = run.cache.lookups();
    if lookups < expected || (retried == 0 && lookups != expected) {
        return Err(format!(
            "cache tiers count {lookups} lookups, the served paths imply {expected}"
        ));
    }
    Ok(())
}

/// Everything about a serve that is a pure function of (config, seed).
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    pub completed: u64,
    pub shed: u64,
    pub samples: u64,
    pub correct_samples_bits: u64,
    pub v_violations: u64,
    pub v_p99_bits: u64,
    pub path_decisions: Vec<PathKind>,
    /// Engine workloads only: with one worker the cache sees one access
    /// order and the score sum one summation order.
    pub cache: Option<CacheStats>,
    pub checksum_bits: Option<u64>,
}

impl Exact {
    pub fn of(run: &Run) -> Exact {
        let engine = run.cluster.is_none();
        Exact {
            completed: run.completed,
            shed: run.shed,
            samples: run.samples,
            correct_samples_bits: run.correct_samples.to_bits(),
            v_violations: run.v_violations,
            v_p99_bits: quantile_interp(&run.vhist, 0.99).to_bits(),
            path_decisions: run.path_decisions.clone(),
            cache: engine.then_some(run.cache),
            checksum_bits: engine.then_some(run.checksum.to_bits()),
        }
    }

    /// Names the first field that differs, for the error message.
    pub fn same_as(&self, other: &Exact, what: &str) -> Result<(), String> {
        if self == other {
            return Ok(());
        }
        let field = if self.path_decisions != other.path_decisions {
            "path_decisions".to_string()
        } else {
            let strip = |e: &Exact| Exact {
                path_decisions: Vec::new(),
                ..e.clone()
            };
            format!("{:?} vs {:?}", strip(self), strip(other))
        };
        Err(format!("{what}: deterministic outputs differ: {field}"))
    }
}

/// `a` and `b` agree to the relative tolerance `rel`.
pub fn check_checksum(what: &str, a: f64, b: f64, rel: f64) -> Result<(), String> {
    let scale = a.abs().max(b.abs()).max(1.0);
    if (a - b).abs() <= rel * scale {
        Ok(())
    } else {
        Err(format!(
            "{what}: checksum {a} vs {b} (relative tolerance {rel})"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::plan;

    #[test]
    fn a_miscounted_serve_fails_the_gate() {
        let plan = plan("mprec_closed", 5, 60, false).unwrap();
        let built = plan.build().unwrap();
        check_run(&plan, &built.serve().unwrap()).unwrap();

        let tamper = |f: &dyn Fn(&mut Run)| {
            let mut bad = built.serve().unwrap();
            f(&mut bad);
            check_run(&plan, &bad)
        };
        assert!(tamper(&|r| r.completed -= 1)
            .unwrap_err()
            .contains("offered"));
        assert!(tamper(&|r| r.routed += 1).unwrap_err().contains("routed"));
        assert!(tamper(&|r| r.cache.encoder_misses += 1)
            .unwrap_err()
            .contains("lookups"));
        assert!(tamper(&|r| r.path_samples[0] += 1)
            .unwrap_err()
            .contains("per-path"));
        assert!(tamper(&|r| r.checksum = f64::NAN)
            .unwrap_err()
            .contains("non-finite"));
    }

    #[test]
    fn exact_outputs_must_repeat_and_say_what_differs() {
        let plan = plan("mprec_closed", 5, 60, false).unwrap();
        let built = plan.build().unwrap();
        let (a, b) = (
            Exact::of(&built.serve().unwrap()),
            Exact::of(&built.serve().unwrap()),
        );
        a.same_as(&b, "repetition").unwrap();
        let mut c = b.clone();
        c.v_violations += 1;
        assert!(a
            .same_as(&c, "repetition")
            .unwrap_err()
            .contains("v_violations"));
        let mut d = b.clone();
        d.path_decisions.pop();
        assert!(a
            .same_as(&d, "repetition")
            .unwrap_err()
            .contains("path_decisions"));
        // Another seed is another trace.
        let other = crate::workloads::plan("mprec_closed", 6, 60, false).unwrap();
        assert!(a
            .same_as(&Exact::of(&other.build().unwrap().serve().unwrap()), "seed")
            .is_err());
    }

    #[test]
    fn checksum_tolerance_is_relative() {
        check_checksum("x", 1.0e6, 1.0e6 + 0.5, 1e-6).unwrap();
        assert!(check_checksum("x", 1.0e6, 1.0e6 + 2.0, 1e-6).is_err());
        check_checksum("x", 0.0, 1e-10, 1e-9).unwrap();
    }
}
