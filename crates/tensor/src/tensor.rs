//! Dense row-major `f32` matrices.
//!
//! Everything in this reproduction operates on rank-2 tensors: a sequence of
//! `n` tokens embedded in `d` dimensions is an `n x d` matrix, a single
//! hidden state is `1 x d`, and a scalar loss is `1 x 1`. Keeping the type
//! rank-2 (instead of rank-generic) keeps every operation's shape rule
//! checkable at one call site and keeps the autodiff tape simple.

use std::fmt;

use crate::gemm::{self, Layout};

/// A dense row-major matrix of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// A `rows x cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { data: vec![0.0; rows * cols], rows, cols }
    }

    /// A `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor { data: vec![value; rows * cols], rows, cols }
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer of length {} cannot be shaped {rows}x{cols}",
            data.len()
        );
        Tensor { data, rows, cols }
    }

    /// A `1 x 1` tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor { data: vec![value], rows: 1, cols: 1 }
    }

    /// A `1 x n` row tensor.
    pub fn row(data: Vec<f32>) -> Self {
        let cols = data.len();
        Tensor { data, rows: 1, cols }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The single value of a `1 x 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 x 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reinterprets the buffer with a new shape of the same element count.
    pub fn reshape(mut self, rows: usize, cols: usize) -> Self {
        assert_eq!(self.data.len(), rows * cols, "reshape must preserve element count");
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// `self + other`, same shape.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "add: shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Tensor { data, rows: self.rows, cols: self.cols }
    }

    /// In-place `self += other`, same shape.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other`, same shape.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// `self - other`, same shape.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "sub: shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Tensor { data, rows: self.rows, cols: self.cols }
    }

    /// Elementwise product, same shape.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "mul: shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Tensor { data, rows: self.rows, cols: self.cols }
    }

    /// `alpha * self`.
    pub fn scale(&self, alpha: f32) -> Tensor {
        let data = self.data.iter().map(|a| a * alpha).collect();
        Tensor { data, rows: self.rows, cols: self.cols }
    }

    /// Adds the `1 x cols` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast: column mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (a, b) in out.row_slice_mut(r).iter_mut().zip(&row.data) {
                *a += b;
            }
        }
        out
    }

    /// Matrix product `self[m,k] @ other[k,n] -> [m,n]`.
    ///
    /// Runs the register-tiled kernel of [`crate::gemm`], row-parallel
    /// over `std::thread::scope` above [`crate::PAR_MIN_WORK`] multiply-accumulates.
    /// Every output is accumulated from `+0.0` in ascending k, so results
    /// are bitwise identical to the naive triple loop and to the serial path.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        gemm::product(self, other, Layout::Plain)
    }

    /// Matrix product with the second operand transposed:
    /// `self[m,k] @ other[n,k]^T -> [m,n]`.
    ///
    /// This is the natural layout for attention scores `Q K^T` where both
    /// `Q` and `K` are stored row-major per token. Bitwise identical to
    /// `self.matmul(&other.transpose())`.
    pub fn matmul_transpose_b(&self, other: &Tensor) -> Tensor {
        gemm::product(self, other, Layout::TransposeB)
    }

    /// Matrix product with the first operand transposed:
    /// `self[k,m]^T @ other[k,n] -> [m,n]`.
    ///
    /// Used by matmul backward passes (`dW = X^T dY`). Bitwise identical to
    /// `self.transpose().matmul(other)`.
    pub fn matmul_transpose_a(&self, other: &Tensor) -> Tensor {
        gemm::product(self, other, Layout::TransposeA)
    }

    /// Fused `act(self @ w + bias)`: one output allocation, bias add and
    /// activation applied in a single epilogue pass over the product.
    /// Produces exactly the same values as `matmul` + broadcast-add +
    /// activation applied separately (the bias is added after the full
    /// accumulation, preserving rounding).
    pub fn matmul_bias_act(&self, w: &Tensor, bias: &Tensor, act: Activation) -> Tensor {
        assert_eq!(bias.rows, 1, "matmul_bias_act: bias must be a row vector");
        assert_eq!(bias.cols, w.cols, "matmul_bias_act: bias/weight column mismatch");
        let mut out = self.matmul(w);
        for r in 0..out.rows {
            let row = &mut out.data[r * out.cols..(r + 1) * out.cols];
            match act {
                Activation::Identity => {
                    for (o, &b) in row.iter_mut().zip(&bias.data) {
                        *o += b;
                    }
                }
                Activation::Relu => {
                    for (o, &b) in row.iter_mut().zip(&bias.data) {
                        *o = (*o + b).max(0.0);
                    }
                }
            }
        }
        out
    }

    /// Appends one row, growing the tensor in place (amortized O(cols)).
    /// The receiver may have zero rows but must already have the right
    /// column count.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "push_row: column mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// An empty (`0 x cols`) tensor with room for `rows_cap` rows, for
    /// incremental [`Tensor::push_row`] growth without reallocation.
    pub fn with_row_capacity(rows_cap: usize, cols: usize) -> Tensor {
        Tensor { data: Vec::with_capacity(rows_cap * cols), rows: 0, cols }
    }

    /// Full transpose copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Row-wise softmax (numerically stable).
    pub fn row_softmax(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows {
            softmax_in_place(out.row_slice_mut(r));
        }
        out
    }

    /// Row-wise log-softmax (numerically stable).
    pub fn row_log_softmax(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows {
            log_softmax_in_place(out.row_slice_mut(r));
        }
        out
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean over rows -> `1 x cols`.
    pub fn mean_rows(&self) -> Tensor {
        assert!(self.rows > 0, "mean_rows on empty tensor");
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row_slice(r)) {
                *o += v;
            }
        }
        let inv = 1.0 / self.rows as f32;
        for o in out.data.iter_mut() {
            *o *= inv;
        }
        out
    }

    /// Concatenates tensors left-to-right; all must share the row count.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows), "concat_cols: row mismatch");
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Tensor::zeros(rows, cols);
        for r in 0..rows {
            let mut off = 0;
            for p in parts {
                out.row_slice_mut(r)[off..off + p.cols].copy_from_slice(p.row_slice(r));
                off += p.cols;
            }
        }
        out
    }

    /// Stacks `1 x cols` rows top-to-bottom.
    pub fn stack_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack_rows of nothing");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "stack_rows: column mismatch");
            data.extend_from_slice(&p.data);
        }
        Tensor { data, rows, cols }
    }

    /// Copies a column range `[start, start+len)`.
    pub fn slice_cols(&self, start: usize, len: usize) -> Tensor {
        assert!(start + len <= self.cols, "slice_cols out of bounds");
        let mut out = Tensor::zeros(self.rows, len);
        for r in 0..self.rows {
            out.row_slice_mut(r).copy_from_slice(&self.row_slice(r)[start..start + len]);
        }
        out
    }

    /// Copies a row range `[start, start+len)`.
    pub fn slice_rows(&self, start: usize, len: usize) -> Tensor {
        assert!(start + len <= self.rows, "slice_rows out of bounds");
        let data = self.data[start * self.cols..(start + len) * self.cols].to_vec();
        Tensor { data, rows: len, cols: self.cols }
    }

    /// Frobenius (L2) norm of all entries.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Fills with zeros, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// Activation applied by the fused [`Tensor::matmul_bias_act`] epilogue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// No activation: plain `x W + b`.
    Identity,
    /// `max(0, x W + b)`.
    Relu,
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Numerically stable in-place softmax over a slice.
pub fn softmax_in_place(xs: &mut [f32]) {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        // All -inf (fully masked row): define softmax as uniform to avoid NaN.
        let u = 1.0 / xs.len() as f32;
        xs.iter_mut().for_each(|x| *x = u);
        return;
    }
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    let inv = 1.0 / sum;
    xs.iter_mut().for_each(|x| *x *= inv);
}

/// Numerically stable in-place log-softmax over a slice.
pub fn log_softmax_in_place(xs: &mut [f32]) {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let lse = max + xs.iter().map(|x| (x - max).exp()).sum::<f32>().ln();
    xs.iter_mut().for_each(|x| *x -= lse);
}

/// Numerically stable `log(sum(exp(xs)))`.
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    assert!(!xs.is_empty(), "log_sum_exp of nothing");
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return max;
    }
    max + xs.iter().map(|x| (x - max).exp()).sum::<f32>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(1, 2), 6.0);
        assert_eq!(t.row_slice(0), &[1., 2., 3.]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot be shaped")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(2, 2, vec![1.0; 5]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn add_sub_mul_scale() {
        let a = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Tensor::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).data(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matmul_transpose_variants_agree_with_plain_matmul() {
        let a = Tensor::from_vec(2, 3, vec![1., -2., 3., 0.5, 5., -6.]);
        let b = Tensor::from_vec(4, 3, vec![1., 0., 2., -1., 3., 1., 0., 0.5, 2., 2., 1., 1.]);
        assert_eq!(bits(&a.matmul(&b.transpose())), bits(&a.matmul_transpose_b(&b)));
        let c = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let d = Tensor::from_vec(3, 4, vec![0.; 12]).add(&Tensor::full(3, 4, 1.0));
        assert_eq!(bits(&c.transpose().matmul(&d)), bits(&c.matmul_transpose_a(&d)));
    }

    #[test]
    fn broadcast_row_add() {
        let x = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Tensor::row(vec![10., 20.]);
        assert_eq!(x.add_row_broadcast(&b).data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_stable() {
        let x = Tensor::from_vec(2, 3, vec![1000., 1001., 1002., -5., 0., 5.]);
        let s = x.row_softmax();
        for r in 0..2 {
            let sum: f32 = s.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row_slice(r).iter().all(|v| v.is_finite()));
        }
        // Softmax is shift-invariant: the big-offset row equals the small one.
        let y = Tensor::from_vec(1, 3, vec![0., 1., 2.]).row_softmax();
        for c in 0..3 {
            assert!((s.get(0, c) - y.get(0, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_fully_masked_row_is_uniform() {
        let x = Tensor::from_vec(1, 4, vec![f32::NEG_INFINITY; 4]);
        let s = x.row_softmax();
        for c in 0..4 {
            assert!((s.get(0, c) - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = Tensor::from_vec(1, 4, vec![0.1, -2.0, 3.0, 0.5]);
        let a = x.row_log_softmax();
        let b = x.row_softmax();
        for c in 0..4 {
            assert!((a.get(0, c) - b.get(0, c).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn log_sum_exp_stable() {
        assert!((log_sum_exp(&[0.0, 0.0]) - (2.0f32).ln()).abs() < 1e-6);
        let big = log_sum_exp(&[1000.0, 1000.0]);
        assert!((big - (1000.0 + (2.0f32).ln())).abs() < 1e-3);
        assert_eq!(log_sum_exp(&[f32::NEG_INFINITY]), f32::NEG_INFINITY);
    }

    #[test]
    fn concat_and_slice_cols_roundtrip() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(2, 1, vec![5., 6.]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.data(), &[1., 2., 5., 3., 4., 6.]);
        assert_eq!(c.slice_cols(0, 2).data(), a.data());
        assert_eq!(c.slice_cols(2, 1).data(), b.data());
    }

    #[test]
    fn stack_and_slice_rows_roundtrip() {
        let a = Tensor::row(vec![1., 2.]);
        let b = Tensor::row(vec![3., 4.]);
        let s = Tensor::stack_rows(&[&a, &b]);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.slice_rows(1, 1).data(), &[3., 4.]);
    }

    #[test]
    fn mean_rows() {
        let x = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(x.mean_rows().data(), &[2., 3.]);
    }

    #[test]
    fn norm_and_nonfinite_detection() {
        let x = Tensor::from_vec(1, 2, vec![3., 4.]);
        assert!((x.norm() - 5.0).abs() < 1e-6);
        assert!(!x.has_non_finite());
        let y = Tensor::from_vec(1, 2, vec![3., f32::NAN]);
        assert!(y.has_non_finite());
    }

    #[test]
    fn transpose_involution() {
        let x = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(x.transpose().transpose(), x);
    }
}
