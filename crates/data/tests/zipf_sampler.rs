//! `Zipf::sample` against the search it replaced.
//!
//! Every pinned ID stream downstream (`engine_golden`, `cluster_golden`,
//! the twin tests) depends on the rank drawn for each uniform `u`, so the
//! guide-table sampler must return, for every `u` it can see, the rank the
//! pre-guide two-level binary search returned. That search lives on here,
//! verbatim, as the reference; the CDF it searches is rebuilt through the
//! public `top_k_mass`.
//!
//! `sample` only ever sees `u = k * 2^-53`, `k` in `0..2^53` (the vendored
//! `gen::<f64>()`), so the checked `u` are exactly those. At and above 0.5
//! they are every double, so "one ulp either side of a CDF entry" is exact
//! there; below it they are the grid neighbours of the entry.

use mprec_data::Zipf;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// `2^53`: the `u` grid's resolution.
const STEPS: u64 = 1 << 53;

/// An RNG whose next `gen::<f64>()` is exactly `k * 2^-53`.
struct Fixed(u64);

impl RngCore for Fixed {
    fn next_u64(&mut self) -> u64 {
        self.0 << 11
    }
}

/// The CDF `Zipf` holds, rebuilt through its public API.
fn cdf_of(z: &Zipf) -> Vec<f64> {
    (0..z.support()).map(|i| z.top_k_mass(i + 1)).collect()
}

/// The pre-guide-table `Zipf::sample` search, verbatim.
fn two_level_search(cdf: &[f64], u: f64) -> u64 {
    const HEAD: usize = 256;
    let n = cdf.len() as u64;
    let head_mass = cdf[HEAD.min(cdf.len()) - 1];
    let cdf = if u <= head_mass && cdf.len() > HEAD {
        &cdf[..HEAD]
    } else {
        cdf
    };
    match cdf.binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf is finite")) {
        Ok(i) => i as u64,
        Err(i) => (i as u64).min(n - 1),
    }
}

/// The grid points `k - 1`, `k`, `k + 1` around CDF entry `c`, where `k`
/// is the grid point at or below it.
fn around(c: f64) -> impl Iterator<Item = u64> {
    let k = (c * STEPS as f64) as u64;
    [k.saturating_sub(1), k, k + 1]
        .into_iter()
        .filter(|&k| k < STEPS)
}

/// The grid points checked for one sampler: `u = 0`, `u = 1 - 2^-53`,
/// `random` uniform draws, and the neighbourhood of the CDF entries at
/// `ranks`.
fn grid(cdf: &[f64], ranks: &[usize], random: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ks = vec![0, STEPS - 1];
    ks.extend((0..random).map(|_| rng.gen::<u64>() >> 11));
    ks.extend(ranks.iter().flat_map(|&r| around(cdf[r])));
    ks
}

/// Ranks whose CDF entries are probed: all of a small support, else the
/// head, the tail and a random sample of the middle.
fn probed_ranks(n: usize, seed: u64) -> Vec<usize> {
    if n <= 2048 {
        return (0..n).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut ranks: Vec<usize> = (0..512).chain(n - 512..n).collect();
    ranks.extend((0..1024).map(|_| rng.gen_range(0..n)));
    ranks
}

/// `sample` draws the reference's rank at every `k`, and that rank is the
/// first whose cumulative mass reaches `u` (the contract, stated without
/// any binary search's choice among equal entries).
fn assert_same_ranks(z: &Zipf, cdf: &[f64], ks: &[u64]) -> Result<(), TestCaseError> {
    for &k in ks {
        let u = k as f64 / STEPS as f64;
        let got = z.sample(&mut Fixed(k));
        prop_assert_eq!(got, two_level_search(cdf, u), "u = {} (k = {})", u, k);
        prop_assert_eq!(got as usize, cdf.partition_point(|&c| c < u), "u = {}", u);
    }
    Ok(())
}

fn check_shape(n: u64, s: f64, seed: u64) -> Result<(), TestCaseError> {
    let z = Zipf::new(n, s);
    let cdf = cdf_of(&z);
    let ks = grid(&cdf, &probed_ranks(cdf.len(), seed), 2_000, seed);
    assert_same_ranks(&z, &cdf, &ks)
}

proptest! {
    #[test]
    fn guide_table_draws_the_two_level_search_rank(
        log2_n in 0u32..21,
        n_bits in any::<u64>(),
        s in 0.0f64..3.0,
        seed in any::<u64>(),
    ) {
        // Log-uniform support over 1..=2^20, so small shapes get cases too.
        let n = 1 + n_bits % (1u64 << log2_n);
        check_shape(n, s, seed)?;
    }
}

#[test]
fn edge_and_benchmark_shapes_match() {
    for (n, s) in [
        (1, 0.0),
        (1, 3.0),
        (2, 0.0),
        (256, 1.0),
        (257, 1.0),
        (1 << 20, 0.0),
        (1 << 20, 3.0),
        (500_000, 0.6),
        (200_000, 1.05),
    ] {
        check_shape(n, s, n ^ s.to_bits()).unwrap();
    }
}

#[test]
fn tied_tail_draws_the_first_tied_rank() {
    // At large s*n the running sum stops growing: its increments fall
    // below half an ulp, so the CDF's tail is one run of equal entries.
    let z = Zipf::new(1 << 20, 3.0);
    let cdf = cdf_of(&z);
    let first = cdf.iter().position(|&c| c == cdf[cdf.len() - 1]).unwrap();
    assert!(first < cdf.len() - 1000, "no tied tail at s = 3, n = 2^20");
    // That run is the only tie, and its entries are exactly 1.0, which no
    // `u < 1` equals: no draw depends on which tied index a search would
    // pick, and every `u` above the last untied entry draws the run's
    // first rank.
    assert!(cdf[..first].windows(2).all(|w| w[0] < w[1]));
    assert_eq!(cdf[first], 1.0);
    let below = (cdf[first - 1] * STEPS as f64) as u64;
    assert!(
        below + 1 < STEPS,
        "no u between the last untied entry and 1"
    );
    for k in [below + 1, STEPS - 1] {
        assert_eq!(z.sample(&mut Fixed(k)), first as u64, "k = {k}");
        assert_eq!(
            two_level_search(&cdf, k as f64 / STEPS as f64),
            first as u64
        );
    }
    assert_eq!(z.sample(&mut Fixed(below)), first as u64 - 1);
}
