use std::fmt;

use crate::ShapeError;

/// Row-major tensor shape: a list of dimension extents.
///
/// # Example
///
/// ```
/// use snn_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Self {
            dims: dims.to_vec(),
        }
    }

    /// A scalar (rank-0) shape with one element.
    pub fn scalar() -> Self {
        Self { dims: Vec::new() }
    }

    /// Dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of extents; 1 for a scalar).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flat row-major offset of the multi-index `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `idx` has the wrong rank or an index is out
    /// of bounds.
    pub fn offset(&self, idx: &[usize]) -> Result<usize, ShapeError> {
        if idx.len() != self.dims.len() {
            return Err(ShapeError::new(
                "index",
                format!("rank {} index into rank {} shape", idx.len(), self.rank()),
            ));
        }
        let mut off = 0usize;
        for (axis, (&i, &d)) in idx.iter().zip(self.dims.iter()).enumerate() {
            if i >= d {
                return Err(ShapeError::new(
                    "index",
                    format!("index {i} out of bounds for axis {axis} of extent {d}"),
                ));
            }
            off = off * d + i;
        }
        Ok(off)
    }

    /// Whether two shapes have the same element count (reshape-compatible).
    pub fn same_len(&self, other: &Shape) -> bool {
        self.len() == other.len()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[1, 2, 3]).unwrap(), 12 + 8 + 3);
    }

    #[test]
    fn offset_rejects_bad_rank_and_oob() {
        let s = Shape::new(&[2, 3]);
        assert!(s.offset(&[0]).is_err());
        assert!(s.offset(&[0, 3]).is_err());
    }

    #[test]
    fn scalar_has_one_element() {
        assert_eq!(Shape::scalar().len(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }
}
