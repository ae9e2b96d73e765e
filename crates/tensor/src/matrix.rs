use std::fmt;
use std::ops::{Index, IndexMut};

use crate::kernels::{self, Kernel};
use crate::{Result, TensorError};

/// A dense, row-major `f32` matrix.
///
/// `Matrix` is the workhorse of the workspace: MLP activations, embedding
/// blocks and gradient buffers are all `Matrix` values. The type keeps its
/// buffer private so the row-major invariant cannot be broken from outside;
/// use [`Matrix::as_slice`] / [`Matrix::as_mut_slice`] for bulk access.
///
/// # Examples
///
/// ```
/// use mprec_tensor::Matrix;
///
/// let m = Matrix::zeros(2, 2);
/// assert_eq!(m.shape(), (2, 2));
/// assert!(m.as_slice().iter().all(|&x| x == 0.0));
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadBuffer`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::BadBuffer {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Returns `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the backing row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the backing row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {} out of bounds ({} rows)", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {} out of bounds ({} rows)", r, self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Checked element access.
    pub fn get(&self, r: usize, c: usize) -> Option<f32> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Checked element write.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] when the index is invalid.
    pub fn set(&mut self, r: usize, c: usize, value: f32) -> Result<()> {
        if r < self.rows && c < self.cols {
            self.data[r * self.cols + c] = value;
            Ok(())
        } else {
            Err(TensorError::OutOfBounds {
                index: (r, c),
                shape: (self.rows, self.cols),
            })
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Reshapes to `rows x cols`, zero-filling every element and reusing
    /// the existing allocation when its capacity suffices.
    ///
    /// This is the buffer-recycling primitive behind the `_into` GEMM
    /// variants and the serving scratch spaces: after a warm-up call at
    /// the largest shape, subsequent resizes never touch the allocator.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes without clearing retained elements — the caller must
    /// fully overwrite the contents. Used by the GEMM `_into` paths,
    /// whose kernels write (or zero) every output element themselves, so
    /// the O(m*n) pre-memset of [`Matrix::resize_zeroed`] would be pure
    /// waste on the hot path.
    fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// `C = A * B` (standard GEMM) on the default [`Kernel::Tiled`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_with(rhs, Kernel::Tiled)
    }

    /// `C = A * B` on an explicit [`Kernel`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul_with(&self, rhs: &Matrix, kernel: Kernel) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into_with(rhs, &mut out, kernel)?;
        Ok(out)
    }

    /// `C = A * B` into a caller-provided buffer (resized as needed) on
    /// the default [`Kernel::Tiled`]. `out` is fully overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        self.matmul_into_with(rhs, out, Kernel::Tiled)
    }

    /// `C = A * B` into a caller-provided buffer on an explicit [`Kernel`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul_into_with(&self, rhs: &Matrix, out: &mut Matrix, kernel: Kernel) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        out.resize_for_overwrite(self.rows, rhs.cols);
        kernels::gemm_nn(
            kernel,
            (self.rows, self.cols, rhs.cols),
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        Ok(())
    }

    /// `C = A * B^T` on the default [`Kernel::Tiled`].
    ///
    /// This is the shape used by MLP backward passes (`dX = dY * W^T` with
    /// `W` stored as `in x out`... the caller picks the variant that avoids
    /// materializing a transpose).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_nt_with(rhs, Kernel::Tiled)
    }

    /// `C = A * B^T` on an explicit [`Kernel`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_nt_with(&self, rhs: &Matrix, kernel: Kernel) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_nt_into_with(rhs, &mut out, kernel)?;
        Ok(out)
    }

    /// `C = A * B^T` into a caller-provided buffer (resized as needed).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        self.matmul_nt_into_with(rhs, out, Kernel::Tiled)
    }

    /// `C = A * B^T` into a caller-provided buffer on an explicit [`Kernel`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_nt_into_with(&self, rhs: &Matrix, out: &mut Matrix, kernel: Kernel) -> Result<()> {
        if self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        out.resize_for_overwrite(self.rows, rhs.rows);
        kernels::gemm_nt(
            kernel,
            (self.rows, self.cols, rhs.rows),
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        Ok(())
    }

    /// `C = A^T * B` on the default [`Kernel::Tiled`].
    ///
    /// Used for weight gradients (`dW = X^T * dY`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_tn_with(rhs, Kernel::Tiled)
    }

    /// `C = A^T * B` on an explicit [`Kernel`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_with(&self, rhs: &Matrix, kernel: Kernel) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.matmul_tn_into_with(rhs, &mut out, kernel)?;
        Ok(out)
    }

    /// `C = A^T * B` into a caller-provided buffer (resized as needed).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        self.matmul_tn_into_with(rhs, out, Kernel::Tiled)
    }

    /// `C = A^T * B` into a caller-provided buffer on an explicit [`Kernel`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_into_with(&self, rhs: &Matrix, out: &mut Matrix, kernel: Kernel) -> Result<()> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        out.resize_for_overwrite(self.cols, rhs.cols);
        kernels::gemm_tn(
            kernel,
            (self.cols, self.rows, rhs.cols),
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        Ok(())
    }

    /// Adds `rhs` element-wise in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on shape disagreement.
    pub fn add_assign(&mut self, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// `self += alpha * rhs` element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on shape disagreement.
    pub fn axpy_assign(&mut self, alpha: f32, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "axpy_assign",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in self.data.iter_mut() {
            *a = f(*a);
        }
    }

    /// Horizontally concatenates `self` and `rhs` (same row count).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if row counts differ.
    pub fn hcat(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "hcat",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let cols = self.cols + rhs.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(rhs.row(r));
        }
        Ok(out)
    }

    /// Frobenius norm of the matrix.
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix — the natural seed for scratch buffers
    /// that grow on first use via [`Matrix::resize_zeroed`].
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn zeros_has_right_shape_and_content() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert_eq!(z.len(), 12);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        let e = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert!(matches!(e, TensorError::BadBuffer { len: 3, .. }));
    }

    #[test]
    fn matmul_known_values() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = m(2, 3, &[1., -2., 3., 0.5, 5., -6.]);
        let b = m(4, 3, &[7., 8., 9., 1., 2., 3., -1., 0., 1., 2., 2., 2.]);
        let via_nt = a.matmul_nt(&b).unwrap();
        let via_t = a.matmul(&b.transposed()).unwrap();
        assert_eq!(via_nt, via_t);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = m(3, 2, &[1., -2., 3., 0.5, 5., -6.]);
        let b = m(3, 4, &[7., 8., 9., 1., 2., 3., -1., 0., 1., 2., 2., 2.]);
        let via_tn = a.matmul_tn(&b).unwrap();
        let via_t = a.transposed().matmul(&b).unwrap();
        assert_eq!(via_tn, via_t);
    }

    #[test]
    fn transpose_involution() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn hcat_concatenates_rows() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let b = m(2, 1, &[9., 10.]);
        let c = a.hcat(&b).unwrap();
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1., 2., 9.]);
        assert_eq!(c.row(1), &[3., 4., 10.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = m(1, 3, &[1., 2., 3.]);
        let b = m(1, 3, &[10., 20., 30.]);
        a.axpy_assign(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[6., 12., 18.]);
    }

    #[test]
    fn index_roundtrip() {
        let mut a = Matrix::zeros(2, 2);
        a[(1, 0)] = 5.0;
        assert_eq!(a[(1, 0)], 5.0);
        assert_eq!(a.get(1, 0), Some(5.0));
        assert_eq!(a.get(2, 0), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_panics_out_of_bounds() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }

    #[test]
    fn set_rejects_out_of_bounds() {
        let mut a = Matrix::zeros(1, 1);
        assert!(a.set(0, 0, 1.0).is_ok());
        assert!(matches!(
            a.set(1, 0, 1.0),
            Err(TensorError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn frob_norm_of_unit_rows() {
        let a = m(1, 4, &[3., 4., 0., 0.]);
        assert!((a.frob_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn matmul_into_reuses_capacity() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let mut out = Matrix::zeros(8, 8); // larger than needed
        let cap = {
            a.matmul_into(&b, &mut out).unwrap();
            out.as_slice().as_ptr()
        };
        assert_eq!(out.shape(), (2, 2));
        assert_eq!(out.as_slice(), &[58., 64., 139., 154.]);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out.as_slice().as_ptr(), cap, "no reallocation on reuse");
    }

    #[test]
    fn matmul_kernels_agree_on_known_values() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let naive = a.matmul_with(&b, Kernel::Naive).unwrap();
        let tiled = a.matmul_with(&b, Kernel::Tiled).unwrap();
        assert_eq!(naive.as_slice(), &[58., 64., 139., 154.]);
        assert_eq!(naive, tiled);
    }

    #[test]
    fn resize_zeroed_clears_and_reshapes() {
        let mut a = m(2, 2, &[1., 2., 3., 4.]);
        a.resize_zeroed(1, 3);
        assert_eq!(a.shape(), (1, 3));
        assert!(a.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn map_inplace_applies_function() {
        let mut a = m(1, 3, &[-1., 0., 2.]);
        a.map_inplace(|x| x.max(0.0));
        assert_eq!(a.as_slice(), &[0., 0., 2.]);
    }
}
