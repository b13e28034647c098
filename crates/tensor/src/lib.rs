//! Minimal N-dimensional `f32` tensor substrate for the TTFS-CAT reproduction.
//!
//! The paper trains VGG-style convolutional networks before converting them to
//! spiking networks. The Rust DNN ecosystem is thin, so this crate provides the
//! dense-math substrate from scratch: an owned row-major [`Tensor`], a blocked
//! GEMM, im2col-based 2-D convolution (forward and both backward passes),
//! max/average pooling, and weight initializers.
//!
//! # Example
//!
//! ```
//! use snn_tensor::Tensor;
//!
//! # fn main() -> Result<(), snn_tensor::ShapeError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod conv;
mod error;
mod init;
mod matmul;
mod pool;
mod shape;
mod tensor;

pub use conv::{conv2d, conv2d_backward_input, conv2d_backward_weight, im2col, Conv2dSpec};
pub use error::ShapeError;
pub use init::{kaiming_normal, uniform, xavier_uniform};
pub use matmul::{gemm, Transpose};
pub use pool::{avg_pool2d, avg_pool2d_backward, max_pool2d, max_pool2d_backward, Pool2dSpec};
pub use shape::Shape;
pub use tensor::Tensor;
