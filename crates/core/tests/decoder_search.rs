//! Differential test of the decoder tier's batched centroid search:
//! `DecoderCache::nearest_batch_into` (one GEMM plus a row argmax) must
//! pick `DecoderCache::nearest(code)` — the scalar dot-product scan — for
//! every row, ties included.
//!
//! Centroid counts below 16 run `gemm_nn`'s naive fallback, 16 and 32
//! whole 16-wide micro-tiles, 33 a tile tail. Duplicated centroid rows
//! make exact ties (the lowest index must win), and a code equal to a
//! centroid's raw sample row ties its duplicates at the maximum.

use mprec_core::mpcache::DecoderCache;
use mprec_embed::{DheConfig, DheStack};
use mprec_tensor::{ops, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CENTROIDS: [usize; 5] = [1, 7, 16, 32, 33];
const WIDTHS: [usize; 2] = [5, 32];

/// A decoder tier whose centroids are exactly `samples`' rows,
/// normalized: with as many centroids as samples and no k-means
/// iteration, `build` keeps every sample row.
fn decoder(samples: &Matrix) -> DecoderCache {
    let cfg = DheConfig {
        k: samples.cols(),
        dnn: 8,
        h: 1,
        out_dim: 4,
    };
    let stack = DheStack::new(cfg, 0, &mut StdRng::seed_from_u64(5)).expect("valid dhe config");
    DecoderCache::build(&stack, samples, samples.rows(), 0).expect("decoder tier")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batched_search_picks_the_scalar_nearest(
        shape in (0usize..CENTROIDS.len(), 0usize..WIDTHS.len()),
        values in prop::collection::vec(-1.0f32..1.0, 33 * 32 * 2),
        duplicates in prop::collection::vec((0usize..64, 0usize..64), 0..6),
        random_codes in 0usize..24,
    ) {
        let (n, k) = (CENTROIDS[shape.0], WIDTHS[shape.1]);
        let mut samples = Matrix::from_vec(n, k, values[..n * k].to_vec()).expect("sample shape");
        for &(from, to) in &duplicates {
            let row = samples.row(from % n).to_vec();
            samples.row_mut(to % n).copy_from_slice(&row);
        }
        let dec = decoder(&samples);
        prop_assert_eq!(dec.num_centroids(), n);

        // Random codes, an all-zero code, and every raw sample row.
        let mut codes = Matrix::zeros(random_codes + 1 + n, k);
        let tail = &values[n * k..];
        for i in 0..random_codes {
            codes.row_mut(i).copy_from_slice(&tail[i * k..(i + 1) * k]);
        }
        for c in 0..n {
            codes.row_mut(random_codes + 1 + c).copy_from_slice(samples.row(c));
        }

        let (mut dots, mut picks) = (Matrix::zeros(0, 0), Vec::new());
        dec.nearest_batch_into(&codes, &mut dots, &mut picks).expect("search");
        prop_assert_eq!(dots.shape(), (codes.rows(), n));
        let scalar: Vec<usize> = (0..codes.rows()).map(|i| dec.nearest(codes.row(i))).collect();
        prop_assert_eq!(&picks, &scalar, "n = {}, k = {}", n, k);
        // Not only the picks: every GEMM output is the scalar dot product
        // (`==` ignores the sign of a zero, as the argmax does).
        let mut unit = samples.clone();
        for c in 0..n {
            ops::normalize(unit.row_mut(c));
        }
        for i in 0..codes.rows() {
            for c in 0..n {
                let d = ops::dot(codes.row(i), unit.row(c));
                prop_assert!(dots.row(i)[c] == d, "code {} centroid {}: {} vs {}", i, c, dots.row(i)[c], d);
            }
        }
        prop_assert_eq!(picks[random_codes], 0, "an all-zero code ties everywhere: index 0");
        for &p in &picks {
            // Equal rows score equal dots: an earlier copy would have won.
            let first_copy = (0..p).find(|&q| samples.row(q) == samples.row(p));
            prop_assert_eq!(first_copy, None, "picked {} over an identical earlier centroid", p);
        }
    }
}

#[test]
fn a_code_of_the_wrong_width_is_an_error() {
    let dec = decoder(&Matrix::filled(3, 5, 0.5));
    let (mut dots, mut picks) = (Matrix::zeros(0, 0), Vec::new());
    assert!(dec
        .nearest_batch_into(&Matrix::zeros(2, 4), &mut dots, &mut picks)
        .is_err());
}
