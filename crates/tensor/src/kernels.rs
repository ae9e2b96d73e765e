//! GEMM kernel implementations and the [`Kernel`] selector.
//!
//! Two implementations back every matmul variant on [`crate::Matrix`]:
//!
//! * [`Kernel::Naive`] — the original scalar loops (`ikj` streaming for
//!   `nn`/`tn`, sequential dot products for `nt`). Kept as the reference
//!   the tiled kernels are property-tested against and the baseline
//!   `benches/micro.rs` compares to; reached only through the explicit
//!   `*_with` methods.
//! * [`Kernel::Tiled`] — register-blocked, tiled kernels: the output is
//!   produced in 6-row × 16-column micro-tiles whose 96 accumulators
//!   live in vector registers for the whole `k` loop, streaming `B` row
//!   by row so each loaded `B` vector is reused by 6 fused
//!   multiply-adds instead of 1 and `C` is written exactly once. The
//!   16-wide accumulator rows auto-vectorize. Every plain `matmul*`
//!   method runs on this kernel.
//!
//! The kernels operate on row-major `&[f32]` buffers so they stay free of
//! `Matrix` internals; shape checking is the caller's job.
//!
//! Floating-point note: `Tiled` accumulates each output element in `k`
//! order just like `Naive` for the `nn`/`tn` variants, but the `nt`
//! variant splits its dot products across 8 partial accumulators, so
//! results can differ from `Naive` by normal reassociation error (the
//! equivalence property tests in `tests/kernel_equivalence.rs` bound it).

/// Which GEMM implementation [`crate::Matrix`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Kernel {
    /// Reference scalar loops (the pre-optimization implementation).
    Naive,
    /// Cache-tiled, register-blocked kernels (the default).
    #[default]
    Tiled,
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Kernel::Naive => write!(f, "naive"),
            Kernel::Tiled => write!(f, "tiled"),
        }
    }
}

/// Rows of `C` produced per micro-tile (register block height).
///
/// 6 accumulator rows of 16 lanes use 12 of AVX2's 16 vector registers,
/// leaving room for the broadcast `A` value and the streamed `B` vector —
/// the classic 6x16 single-precision micro-kernel.
const MR: usize = 6;
/// Columns of `C` produced per micro-tile (the unrolled accumulator
/// width; auto-vectorizes to two 8-lane or one 16-lane FMA per row).
const NR: usize = 16;

/// `C = A * B` for row-major `a` (`m x k`), `b` (`k x n`), `c` (`m x n`).
///
/// `c` is fully overwritten.
pub(crate) fn gemm_nn(kernel: Kernel, dims: (usize, usize, usize), a: &[f32], b: &[f32], c: &mut [f32]) {
    match kernel {
        Kernel::Naive => gemm_nn_naive(dims, a, b, c),
        Kernel::Tiled => gemm_nn_tiled(dims, a, b, c),
    }
}

/// `C = A * B^T` for row-major `a` (`m x k`), `b` (`n x k`), `c` (`m x n`).
pub(crate) fn gemm_nt(kernel: Kernel, dims: (usize, usize, usize), a: &[f32], b: &[f32], c: &mut [f32]) {
    match kernel {
        Kernel::Naive => gemm_nt_naive(dims, a, b, c),
        Kernel::Tiled => gemm_nt_tiled(dims, a, b, c),
    }
}

/// `C = A^T * B` for row-major `a` (`r x m`), `b` (`r x n`), `c` (`m x n`).
pub(crate) fn gemm_tn(kernel: Kernel, dims: (usize, usize, usize), a: &[f32], b: &[f32], c: &mut [f32]) {
    match kernel {
        Kernel::Naive => gemm_tn_naive(dims, a, b, c),
        Kernel::Tiled => gemm_tn_tiled(dims, a, b, c),
    }
}

// ---------------------------------------------------------------------------
// Naive reference kernels (the seed implementation, verbatim semantics).
// ---------------------------------------------------------------------------

#[inline(never)]
fn gemm_nn_naive((m, k, n): (usize, usize, usize), a: &[f32], b: &[f32], c: &mut [f32]) {
    c.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (kk, &a_ik) in a_row.iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += a_ik * bv;
            }
        }
    }
}

#[inline(never)]
fn gemm_nt_naive((m, k, n): (usize, usize, usize), a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (av, bv) in a_row.iter().zip(b_row.iter()) {
                acc += av * bv;
            }
            c[i * n + j] = acc;
        }
    }
}

#[inline(never)]
fn gemm_tn_naive((m, k, n): (usize, usize, usize), a: &[f32], b: &[f32], c: &mut [f32]) {
    // `a` is `k x m` here: the reduction runs over its rows.
    c.fill(0.0);
    for kk in 0..k {
        let a_row = &a[kk * m..(kk + 1) * m];
        let b_row = &b[kk * n..(kk + 1) * n];
        for (i, &a_ki) in a_row.iter().enumerate() {
            if a_ki == 0.0 {
                continue;
            }
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += a_ki * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tiled, register-blocked kernels.
// ---------------------------------------------------------------------------

/// `R x 16` micro-tile of `C = A * B`: the `R * 16` accumulators stay in
/// registers across the whole `k` loop, each loaded `B` vector feeds `R`
/// fused multiply-adds, and the 16-lane inner loops auto-vectorize.
///
/// Iterating `B` with `chunks_exact` lets the compiler hoist the
/// column-slice bounds check out of the reduction loop.
#[inline]
fn micro_nn<const R: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    (i0, j0): (usize, usize),
    (k, n): (usize, usize),
) {
    let mut acc = [[0.0f32; NR]; R];
    let mut a_rows: [&[f32]; R] = [&[]; R];
    for (r, row) in a_rows.iter_mut().enumerate() {
        *row = &a[(i0 + r) * k..(i0 + r + 1) * k];
    }
    for (kk, b_row) in b.chunks_exact(n).take(k).enumerate() {
        let b_vec: &[f32; NR] = b_row[j0..j0 + NR].try_into().expect("NR-wide B slice");
        for r in 0..R {
            let ar = a_rows[r][kk];
            for l in 0..NR {
                acc[r][l] += ar * b_vec[l];
            }
        }
    }
    for r in 0..R {
        c[(i0 + r) * n + j0..(i0 + r) * n + j0 + NR].copy_from_slice(&acc[r]);
    }
}

/// Tail for output columns past the last full 16-wide micro-tile.
#[inline]
fn tail_nn(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    (i0, mr): (usize, usize),
    j0: usize,
    (k, n): (usize, usize),
) {
    let w = n - j0;
    for r in 0..mr {
        let a_row = &a[(i0 + r) * k..(i0 + r + 1) * k];
        let mut acc = [0.0f32; NR];
        for (b_row, &ar) in b.chunks_exact(n).zip(a_row.iter()) {
            for (av, &bv) in acc[..w].iter_mut().zip(b_row[j0..].iter()) {
                *av += ar * bv;
            }
        }
        c[(i0 + r) * n + j0..(i0 + r + 1) * n].copy_from_slice(&acc[..w]);
    }
}

#[inline(never)]
fn gemm_nn_tiled((m, k, n): (usize, usize, usize), a: &[f32], b: &[f32], c: &mut [f32]) {
    if n < NR {
        // Narrower than one micro-tile (e.g. a width-1 output layer):
        // the register-blocked path would be all tail, so the streaming
        // scalar loops win outright.
        return gemm_nn_naive((m, k, n), a, b, c);
    }
    let full_end = (n / NR) * NR;
    let mut i0 = 0;
    while i0 < m {
        let mr = MR.min(m - i0);
        let mut j0 = 0;
        while j0 < full_end {
            match mr {
                6 => micro_nn::<6>(a, b, c, (i0, j0), (k, n)),
                5 => micro_nn::<5>(a, b, c, (i0, j0), (k, n)),
                4 => micro_nn::<4>(a, b, c, (i0, j0), (k, n)),
                3 => micro_nn::<3>(a, b, c, (i0, j0), (k, n)),
                2 => micro_nn::<2>(a, b, c, (i0, j0), (k, n)),
                _ => micro_nn::<1>(a, b, c, (i0, j0), (k, n)),
            }
            j0 += NR;
        }
        if full_end < n {
            tail_nn(a, b, c, (i0, mr), full_end, (k, n));
        }
        i0 += mr;
    }
}

/// `R x 16` micro-tile of `C = A^T * B`: identical accumulator structure
/// to [`micro_nn`], but the `R` `A` values per step are contiguous
/// (`a[kk * m + i0..]`), so the load side vectorizes too.
#[inline]
fn micro_tn<const R: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    (i0, j0): (usize, usize),
    (km, m, n): (usize, usize, usize),
) {
    let mut acc = [[0.0f32; NR]; R];
    for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)).take(km) {
        let a_vec = &a_row[i0..i0 + R];
        let b_vec: &[f32; NR] = b_row[j0..j0 + NR].try_into().expect("NR-wide B slice");
        for r in 0..R {
            let ar = a_vec[r];
            for l in 0..NR {
                acc[r][l] += ar * b_vec[l];
            }
        }
    }
    for r in 0..R {
        c[(i0 + r) * n + j0..(i0 + r) * n + j0 + NR].copy_from_slice(&acc[r]);
    }
}

/// Tail for `tn` output columns past the last full micro-tile.
#[inline]
fn tail_tn(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    (i0, mr): (usize, usize),
    j0: usize,
    (km, m, n): (usize, usize, usize),
) {
    let w = n - j0;
    for r in 0..mr {
        let mut acc = [0.0f32; NR];
        for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)).take(km) {
            let ar = a_row[i0 + r];
            for (av, &bv) in acc[..w].iter_mut().zip(b_row[j0..].iter()) {
                *av += ar * bv;
            }
        }
        c[(i0 + r) * n + j0..(i0 + r + 1) * n].copy_from_slice(&acc[..w]);
    }
}

#[inline(never)]
fn gemm_tn_tiled((m, k, n): (usize, usize, usize), a: &[f32], b: &[f32], c: &mut [f32]) {
    // `a` is `k x m`; `k` is the reduction depth.
    if n < NR {
        return gemm_tn_naive((m, k, n), a, b, c);
    }
    let full_end = (n / NR) * NR;
    let mut i0 = 0;
    while i0 < m {
        let mr = MR.min(m - i0);
        let mut j0 = 0;
        while j0 < full_end {
            match mr {
                6 => micro_tn::<6>(a, b, c, (i0, j0), (k, m, n)),
                5 => micro_tn::<5>(a, b, c, (i0, j0), (k, m, n)),
                4 => micro_tn::<4>(a, b, c, (i0, j0), (k, m, n)),
                3 => micro_tn::<3>(a, b, c, (i0, j0), (k, m, n)),
                2 => micro_tn::<2>(a, b, c, (i0, j0), (k, m, n)),
                _ => micro_tn::<1>(a, b, c, (i0, j0), (k, m, n)),
            }
            j0 += NR;
        }
        if full_end < n {
            tail_tn(a, b, c, (i0, mr), full_end, (k, m, n));
        }
        i0 += mr;
    }
}

/// Lanes of the unrolled dot-product reduction.
const DR: usize = 8;

/// 8-wide partially-unrolled dot product: 8 independent accumulators
/// break the floating-point dependency chain so the reduction pipelines.
#[inline]
fn dot8(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; DR];
    let chunks = a.len() / DR;
    for ci in 0..chunks {
        let av: &[f32; DR] = a[ci * DR..(ci + 1) * DR].try_into().expect("DR chunk");
        let bv: &[f32; DR] = b[ci * DR..(ci + 1) * DR].try_into().expect("DR chunk");
        for l in 0..DR {
            acc[l] += av[l] * bv[l];
        }
    }
    let mut tail = 0.0f32;
    for (av, bv) in a[chunks * DR..].iter().zip(b[chunks * DR..].iter()) {
        tail += av * bv;
    }
    let pair = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
    (pair[0] + pair[2]) + (pair[1] + pair[3]) + tail
}

#[inline(never)]
fn gemm_nt_tiled((m, k, n): (usize, usize, usize), a: &[f32], b: &[f32], c: &mut [f32]) {
    // Block over MR B rows so each streamed A row feeds MR dot products
    // while those B rows stay cache-hot.
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        let mut j = 0;
        while j + MR <= n {
            for r in 0..MR {
                c_row[j + r] = dot8(a_row, &b[(j + r) * k..(j + r + 1) * k]);
            }
            j += MR;
        }
        for (jj, cv) in c_row.iter_mut().enumerate().skip(j) {
            *cv = dot8(a_row, &b[jj * k..(jj + 1) * k]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i * 37 % 23) as f32 - 11.0) * scale).collect()
    }

    fn assert_close(t: &[f32], n: &[f32]) {
        assert_eq!(t.len(), n.len());
        for (i, (a, b)) in t.iter().zip(n.iter()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                "element {i}: tiled {a} vs naive {b}"
            );
        }
    }

    #[test]
    fn nn_matches_naive_across_odd_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 8, 8), (5, 9, 17), (13, 70, 65), (8, 1, 9)] {
            let a = seq(m * k, 0.25);
            let b = seq(k * n, 0.5);
            let mut ct = vec![0.0; m * n];
            let mut cn = vec![0.0; m * n];
            gemm_nn_tiled((m, k, n), &a, &b, &mut ct);
            gemm_nn_naive((m, k, n), &a, &b, &mut cn);
            assert_close(&ct, &cn);
        }
    }

    #[test]
    fn nt_matches_naive_across_odd_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 16, 4), (5, 9, 17), (7, 66, 13)] {
            let a = seq(m * k, 0.25);
            let b = seq(n * k, 0.5);
            let mut ct = vec![0.0; m * n];
            let mut cn = vec![0.0; m * n];
            gemm_nt_tiled((m, k, n), &a, &b, &mut ct);
            gemm_nt_naive((m, k, n), &a, &b, &mut cn);
            assert_close(&ct, &cn);
        }
    }

    #[test]
    fn tn_matches_naive_across_odd_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (8, 4, 8), (5, 9, 17), (13, 66, 65)] {
            let a = seq(k * m, 0.25);
            let b = seq(k * n, 0.5);
            let mut ct = vec![0.0; m * n];
            let mut cn = vec![0.0; m * n];
            gemm_tn_tiled((m, k, n), &a, &b, &mut ct);
            gemm_tn_naive((m, k, n), &a, &b, &mut cn);
            assert_close(&ct, &cn);
        }
    }

    #[test]
    fn default_kernel_is_tiled() {
        // The plain `matmul*` methods are the `*_with(.., Tiled)` forms:
        // bit-equal on a shape with row, column and depth remainders.
        assert_eq!(Kernel::default(), Kernel::Tiled);
        let a = crate::Matrix::from_vec(7, 19, seq(7 * 19, 0.25)).unwrap();
        let b = crate::Matrix::from_vec(19, 21, seq(19 * 21, 0.5)).unwrap();
        assert_eq!(a.matmul(&b).unwrap(), a.matmul_with(&b, Kernel::Tiled).unwrap());
    }
}
