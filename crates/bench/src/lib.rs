//! Shared setup for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper; this library centralizes the experiment configuration so the
//! binaries stay declarative. Each binary's module docs state the paper's
//! numbers; README "Tests vs. bench binaries" lists what `cargo test` pins.

use mprec_core::candidates::{default_accuracy_book, paper_candidates, CandidateRep};
use mprec_core::planner::{plan, MappingSet};
use mprec_data::DatasetSpec;
use mprec_hwsim::Platform;

/// Training scale used by serving-oriented experiments (capacities are
/// always reported at paper scale).
pub const SERVING_SCALE: u64 = 100;

/// The paper's HW-1: 32 GB CPU DRAM + 32 GB GPU HBM.
pub fn hw1_platforms() -> Vec<Platform> {
    vec![
        Platform::cpu().with_dram_cap(32_000_000_000),
        Platform::gpu(),
    ]
}

/// The paper's HW-2: 1 GB CPU DRAM + 200 MB GPU HBM.
pub fn hw2_platforms() -> Vec<Platform> {
    vec![
        Platform::cpu().with_dram_cap(1_000_000_000),
        Platform::gpu().with_dram_cap(200_000_000),
    ]
}

/// The paper's HW-3: 32 GB CPU + IPU-POD16.
pub fn hw3_platforms() -> Vec<Platform> {
    vec![
        Platform::cpu().with_dram_cap(32_000_000_000),
        Platform::ipu(16),
    ]
}

/// Candidates for a dataset with the default (measured) accuracy book.
pub fn candidates_for(spec: &DatasetSpec) -> Vec<CandidateRep> {
    paper_candidates(spec, &default_accuracy_book(spec))
}

/// Planned HW-1 mappings for a dataset.
///
/// # Panics
///
/// Panics if planning fails (it cannot for HW-1's budgets).
pub fn hw1_mappings(spec: &DatasetSpec) -> MappingSet {
    plan(&candidates_for(spec), &hw1_platforms()).expect("HW-1 fits all roles")
}

/// Parses a positional CLI argument with a default.
pub fn arg_or<T: std::str::FromStr>(idx: usize, default: T) -> T {
    std::env::args()
        .nth(idx)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Prints a standard experiment header.
pub fn header(id: &str, paper_claim: &str) {
    println!("# {id}");
    println!("# paper: {paper_claim}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hw1_hosts_every_role_for_kaggle() {
        let spec = DatasetSpec::kaggle_sim(SERVING_SCALE);
        let maps = hw1_mappings(&spec);
        assert!(maps.mappings.len() >= 6, "got {}", maps.mappings.len());
    }

    #[test]
    fn hw2_is_genuinely_constrained() {
        let spec = DatasetSpec::kaggle_sim(SERVING_SCALE);
        let table_bytes = candidates_for(&spec)
            .iter()
            .find(|c| c.name == "table")
            .unwrap()
            .capacity_bytes();
        assert!(table_bytes > hw2_platforms()[1].memory_budget());
    }
}
