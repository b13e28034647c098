use std::fmt;

use crate::{gemm, Shape, ShapeError, Transpose};

/// Owned, row-major, `f32` N-dimensional array.
///
/// This is the numeric workhorse of the reproduction: activations, weights,
/// membrane voltages and hardware traces all flow through `Tensor`.
///
/// # Example
///
/// ```
/// use snn_tensor::Tensor;
///
/// # fn main() -> Result<(), snn_tensor::ShapeError> {
/// let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3])?;
/// let relu = t.map(|x| x.max(0.0));
/// assert_eq!(relu.as_slice(), &[1.0, 0.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given dimensions.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.len()];
        Self { shape, data }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.len()];
        Self { shape, data }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len()` does not equal the product of
    /// `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, ShapeError> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(ShapeError::new(
                "from_vec",
                format!("{} elements into shape {shape}", data.len()),
            ));
        }
        Ok(Self { shape, data })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self {
            shape: Shape::new(&[data.len()]),
            data: data.to_vec(),
        }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Borrow of the flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at multi-index `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on rank mismatch or out-of-bounds index.
    pub fn at(&self, idx: &[usize]) -> Result<f32, ShapeError> {
        Ok(self.data[self.shape.offset(idx)?])
    }

    /// Sets the element at multi-index `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on rank mismatch or out-of-bounds index.
    pub fn set(&mut self, idx: &[usize], value: f32) -> Result<(), ShapeError> {
        let off = self.shape.offset(idx)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data reinterpreted under new dims.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self, ShapeError> {
        let shape = Shape::new(dims);
        if !shape.same_len(&self.shape) {
            return Err(ShapeError::new(
                "reshape",
                format!("{} -> {shape}", self.shape),
            ));
        }
        Ok(Self {
            shape,
            data: self.data.clone(),
        })
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self, ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new(
                "zip",
                format!("{} vs {}", self.shape, other.shape),
            ));
        }
        Ok(Self {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Self, ShapeError> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Self, ShapeError> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Self, ShapeError> {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new(
                "axpy",
                format!("{} vs {}", self.shape, other.shape),
            ));
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum of `|x|` over all elements (0 for an empty tensor).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the maximum element (first one on ties).
    ///
    /// Returns `None` for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Matrix product of two rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if either operand is not rank-2 or the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        gemm(self, Transpose::No, other, Transpose::No)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the tensor is not rank-2.
    pub fn transpose(&self) -> Result<Tensor, ShapeError> {
        if self.shape.rank() != 2 {
            return Err(ShapeError::new(
                "transpose",
                format!("rank {} tensor", self.shape.rank()),
            ));
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// True when every pairwise difference is at most `tol` in magnitude.
    ///
    /// Shapes must match; otherwise returns `false`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} {:?}", self.shape, &self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_len() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn eye_matmul_is_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = a.matmul(&Tensor::eye(2)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_slice(&[1.0, -3.0, 2.0]);
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.max(), 2.0);
        assert_eq!(a.min(), -3.0);
        assert_eq!(a.abs_max(), 3.0);
        assert_eq!(a.argmax(), Some(2));
    }

    #[test]
    fn argmax_empty_is_none() {
        let a = Tensor::from_vec(Vec::new(), &[0]).unwrap();
        assert_eq!(a.argmax(), None);
    }

    #[test]
    fn zip_rejects_shape_mismatch() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let b = Tensor::from_slice(&[2.0, 4.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn allclose_tolerates_small_differences() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[1.0 + 1e-7, 2.0 - 1e-7]);
        assert!(a.allclose(&b, 1e-6));
        assert!(!a.allclose(&b, 1e-9));
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let r = a.reshape(&[3, 2]).unwrap();
        assert_eq!(r.as_slice(), a.as_slice());
        assert!(a.reshape(&[4]).is_err());
    }
}
