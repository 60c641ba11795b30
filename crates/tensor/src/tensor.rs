//! The core 2-D dense tensor type.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A dense row-major `f32` matrix.
///
/// `Tensor` is the unit of data everywhere in the neural stack: model
/// parameters, activations and gradients are all `Tensor`s. A vector is
/// represented as a `1 × n` or `n × 1` tensor.
///
/// # Examples
///
/// ```
/// use tensor::Tensor;
///
/// let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(a.get(1, 0), 3.0);
/// assert_eq!(a.sum(), 10.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer of {} elements cannot form a {rows}x{cols} tensor",
            data.len()
        );
        Self { data, rows, cols }
    }

    /// Builds a tensor from explicit rows. All rows must share one length.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "cannot build a tensor from zero rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            data,
            rows: rows.len(),
            cols,
        }
    }

    /// Builds a `1 × n` row-vector tensor.
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            data: values.to_vec(),
            rows: 1,
            cols: values.len(),
        }
    }

    /// Builds an `n × 1` column-vector tensor.
    pub fn col_vector(values: &[f32]) -> Self {
        Self {
            data: values.to_vec(),
            rows: values.len(),
            cols: 1,
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.set(i, i, 1.0);
        }
        t
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Copies `src` into row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != cols`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols, "row length mismatch");
        self.row_mut(r).copy_from_slice(src);
    }

    /// Returns a new tensor that is the transpose of `self`.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Reshapes in place. The element count must be preserved.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols != self.len()`.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        assert_eq!(
            rows * cols,
            self.data.len(),
            "reshape changes element count"
        );
        self.rows = rows;
        self.cols = cols;
    }

    /// Returns a copy of rows `start..end` as a new tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Self {
        assert!(start <= end && end <= self.rows, "row slice out of bounds");
        Self {
            data: self.data[start * self.cols..end * self.cols].to_vec(),
            rows: end - start,
            cols: self.cols,
        }
    }

    /// Vertically stacks `tensors` (all must share a column count).
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty or column counts differ.
    pub fn vstack(tensors: &[&Tensor]) -> Self {
        assert!(!tensors.is_empty(), "vstack of zero tensors");
        let cols = tensors[0].cols;
        let rows: usize = tensors.iter().map(|t| t.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for t in tensors {
            assert_eq!(t.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&t.data);
        }
        Self { data, rows, cols }
    }

    /// Horizontally concatenates `tensors` (all must share a row count).
    pub fn hstack(tensors: &[&Tensor]) -> Self {
        assert!(!tensors.is_empty(), "hstack of zero tensors");
        let rows = tensors[0].rows;
        let cols: usize = tensors.iter().map(|t| t.cols).sum();
        let mut out = Self::zeros(rows, cols);
        let mut offset = 0;
        for t in tensors {
            assert_eq!(t.rows, rows, "hstack row mismatch");
            for r in 0..rows {
                out.data[r * cols + offset..r * cols + offset + t.cols].copy_from_slice(t.row(r));
            }
            offset += t.cols;
        }
        out
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            data: self.data.iter().map(|&x| f(x)).collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combination `self[i] = f(self[i], other[i])`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_inplace(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
    }

    /// Elementwise product (Hadamard), returning a new tensor.
    pub fn hadamard(&self, other: &Tensor) -> Self {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Self {
            data,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// `self += alpha * other` (BLAS `axpy`), the hot path of every optimizer.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Adds the `1 × cols` row vector `bias` to every row in place.
    pub fn add_row_broadcast(&mut self, bias: &Tensor) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(&bias.data) {
                *a += b;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`NaN` for an empty tensor).
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Column-wise sum as a `1 × cols` tensor.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// Row-wise sum as an `rows × 1` tensor.
    pub fn sum_cols(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    /// Maximum element. Returns `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element of row `r` (first maximum on ties).
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Clips every element into `[-limit, limit]` in place (gradient clipping).
    pub fn clip_inplace(&mut self, limit: f32) {
        assert!(limit >= 0.0, "clip limit must be non-negative");
        for x in &mut self.data {
            *x = x.clamp(-limit, limit);
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Fills every element with `v`, keeping the allocation.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// True when any element is `NaN` or infinite — used by trainers to
    /// detect divergence early, and by the model registry to refuse a
    /// checkpoint holding such a weight.
    pub fn has_non_finite(&self) -> bool {
        // branch-free within each 16-element chunk, so the test vectorizes
        let mut chunks = self.data.chunks_exact(16);
        chunks
            .by_ref()
            .any(|c| c.iter().fold(false, |bad, x| bad | !x.is_finite()))
            || chunks.remainder().iter().any(|x| !x.is_finite())
    }

    /// Maximum absolute difference to `other`; `None` on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> Option<f32> {
        if self.shape() != other.shape() {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max),
        )
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4}", self.get(r, c))?;
            }
            if self.cols > 8 {
                write!(f, " …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            data,
            rows: self.rows,
            cols: self.cols,
        }
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Tensor {
            data,
            rows: self.rows,
            cols: self.cols,
        }
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.map(|x| x * rhs)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy(1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
        assert_eq!(t.into_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "cannot form")]
    fn from_vec_bad_shape_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_is_involution() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), (3, 2));
        assert_eq!(tt.get(2, 1), 6.0);
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn row_accessors() {
        let mut t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
        t.set_row(0, &[9.0, 8.0]);
        assert_eq!(t.row(0), &[9.0, 8.0]);
    }

    #[test]
    fn stack_operations() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0]]);
        let v = Tensor::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.row(1), &[3.0, 4.0]);
        let h = Tensor::hstack(&[&a, &b]);
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.sum_rows().as_slice(), &[4.0, 6.0]);
        assert_eq!(t.sum_cols().as_slice(), &[3.0, 7.0]);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.argmax_row(1), 1);
    }

    #[test]
    fn argmax_ties_take_first() {
        let t = Tensor::from_rows(&[&[5.0, 5.0, 1.0]]);
        assert_eq!(t.argmax_row(0), 0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_rows(&[&[1.0, 1.0]]);
        let g = Tensor::from_rows(&[&[2.0, 4.0]]);
        a.axpy(-0.5, &g);
        assert_eq!(a.as_slice(), &[0.0, -1.0]);
        a.scale(3.0);
        assert_eq!(a.as_slice(), &[0.0, -3.0]);
    }

    #[test]
    fn broadcast_bias() {
        let mut x = Tensor::zeros(2, 3);
        let b = Tensor::row_vector(&[1.0, 2.0, 3.0]);
        x.add_row_broadcast(&b);
        assert_eq!(x.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(x.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn clip_limits_magnitude() {
        let mut t = Tensor::from_rows(&[&[-10.0, 0.5, 10.0]]);
        t.clip_inplace(1.0);
        assert_eq!(t.as_slice(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(1, 2);
        assert!(!t.has_non_finite());
        t.set(0, 1, f32::NAN);
        assert!(t.has_non_finite());
        // every position of the 16-element chunks and of the remainder
        let finite = [f32::MAX, f32::MIN, f32::from_bits(1), -0.0, 1.5];
        for len in 1..40 {
            let mut t = Tensor::from_vec(1, len, (0..len).map(|i| finite[i % 5]).collect());
            assert!(!t.has_non_finite(), "len {len}");
            for at in 0..len {
                for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let keep = t.get(0, at);
                    t.set(0, at, bad);
                    assert!(t.has_non_finite(), "len {len}, at {at}, {bad}");
                    t.set(0, at, keep);
                }
            }
        }
    }

    #[test]
    fn slice_rows_copies_range() {
        let t = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let s = t.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 1));
        assert_eq!(s.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn operator_overloads() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0]]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 6.0]);
    }
}
