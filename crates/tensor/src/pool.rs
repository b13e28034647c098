use crate::{ShapeError, Tensor};

/// Geometry of a 2-D pooling window (NCHW layout, no padding).
// Serde: a pooling layer's `.snna` layout entry; the field names are on-disk keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Pool2dSpec {
    /// Square window extent.
    pub window: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
}

impl Pool2dSpec {
    /// Creates a pooling spec; `window == stride` gives non-overlapping
    /// pooling as used by VGG.
    pub fn new(window: usize, stride: usize) -> Self {
        Self { window, stride }
    }

    /// Output spatial extent for an `h`×`w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h - self.window) / self.stride + 1,
            (w - self.window) / self.stride + 1,
        )
    }
}

fn check_input(
    op: &'static str,
    input: &Tensor,
) -> Result<(usize, usize, usize, usize), ShapeError> {
    let d = input.dims();
    if d.len() != 4 {
        return Err(ShapeError::new(
            op,
            format!("expected NCHW input, got {:?}", d),
        ));
    }
    Ok((d[0], d[1], d[2], d[3]))
}

/// Max pooling forward pass. Returns `(output, argmax_indices)`; the indices
/// are flat offsets into the input and feed [`max_pool2d_backward`].
///
/// # Errors
///
/// Returns [`ShapeError`] if `input` is not rank-4.
pub fn max_pool2d(input: &Tensor, spec: &Pool2dSpec) -> Result<(Tensor, Vec<usize>), ShapeError> {
    let (n, c, h, w) = check_input("max_pool2d", input)?;
    let (oh, ow) = spec.output_hw(h, w);
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut arg = vec![0usize; n * c * oh * ow];
    let src = input.as_slice();

    let mut o = 0usize;
    for s in 0..n {
        for ci in 0..c {
            let base = (s * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ky in 0..spec.window {
                        for kx in 0..spec.window {
                            let iy = oy * spec.stride + ky;
                            let ix = ox * spec.stride + kx;
                            let idx = base + iy * w + ix;
                            if src[idx] > best {
                                best = src[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out[o] = best;
                    arg[o] = best_idx;
                    o += 1;
                }
            }
        }
    }
    Ok((Tensor::from_vec(out, &[n, c, oh, ow])?, arg))
}

/// Routes `grad_out` back to the argmax positions recorded by
/// [`max_pool2d`].
///
/// # Errors
///
/// Returns [`ShapeError`] if `grad_out` element count differs from the
/// recorded index count.
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
) -> Result<Tensor, ShapeError> {
    if grad_out.len() != argmax.len() {
        return Err(ShapeError::new(
            "max_pool2d_backward",
            format!("{} grads vs {} indices", grad_out.len(), argmax.len()),
        ));
    }
    let mut gin = Tensor::zeros(input_dims);
    let g = grad_out.as_slice();
    let dst = gin.as_mut_slice();
    for (i, &idx) in argmax.iter().enumerate() {
        dst[idx] += g[i];
    }
    Ok(gin)
}

/// Average pooling forward pass.
///
/// # Errors
///
/// Returns [`ShapeError`] if `input` is not rank-4.
pub fn avg_pool2d(input: &Tensor, spec: &Pool2dSpec) -> Result<Tensor, ShapeError> {
    let (n, c, h, w) = check_input("avg_pool2d", input)?;
    let (oh, ow) = spec.output_hw(h, w);
    let norm = 1.0 / (spec.window * spec.window) as f32;
    let mut out = vec![0.0f32; n * c * oh * ow];
    let src = input.as_slice();

    let mut o = 0usize;
    for s in 0..n {
        for ci in 0..c {
            let base = (s * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ky in 0..spec.window {
                        for kx in 0..spec.window {
                            acc += src[base + (oy * spec.stride + ky) * w + ox * spec.stride + kx];
                        }
                    }
                    out[o] = acc * norm;
                    o += 1;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Backward pass of [`avg_pool2d`]: spreads each output gradient uniformly
/// over its window.
///
/// # Errors
///
/// Returns [`ShapeError`] if `grad_out` is not rank-4.
pub fn avg_pool2d_backward(
    grad_out: &Tensor,
    spec: &Pool2dSpec,
    input_dims: &[usize],
) -> Result<Tensor, ShapeError> {
    let (n, c, oh, ow) = check_input("avg_pool2d_backward", grad_out)?;
    let (h, w) = (input_dims[2], input_dims[3]);
    let norm = 1.0 / (spec.window * spec.window) as f32;
    let mut gin = Tensor::zeros(input_dims);
    let g = grad_out.as_slice();
    let dst = gin.as_mut_slice();

    let mut o = 0usize;
    for s in 0..n {
        for ci in 0..c {
            let base = (s * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let gv = g[o] * norm;
                    o += 1;
                    for ky in 0..spec.window {
                        for kx in 0..spec.window {
                            dst[base + (oy * spec.stride + ky) * w + ox * spec.stride + kx] += gv;
                        }
                    }
                }
            }
        }
    }
    Ok(gin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_picks_window_max() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let (out, arg) = max_pool2d(&input, &Pool2dSpec::new(2, 2)).unwrap();
        assert_eq!(out.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let input = Tensor::from_vec((1..=16).map(|i| i as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let spec = Pool2dSpec::new(2, 2);
        let (_, arg) = max_pool2d(&input, &spec).unwrap();
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let gin = max_pool2d_backward(&g, &arg, &[1, 1, 4, 4]).unwrap();
        assert_eq!(gin.at(&[0, 0, 1, 1]).unwrap(), 1.0);
        assert_eq!(gin.at(&[0, 0, 3, 3]).unwrap(), 4.0);
        assert_eq!(gin.sum(), 10.0);
    }

    #[test]
    fn avg_pool_averages() {
        let input = Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], &[1, 1, 2, 2]).unwrap();
        let out = avg_pool2d(&input, &Pool2dSpec::new(2, 2)).unwrap();
        assert_eq!(out.as_slice(), &[5.0]);
    }

    #[test]
    fn avg_pool_backward_spreads_uniformly() {
        let g = Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]).unwrap();
        let gin = avg_pool2d_backward(&g, &Pool2dSpec::new(2, 2), &[1, 1, 2, 2]).unwrap();
        assert_eq!(gin.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn pool_output_dims() {
        assert_eq!(Pool2dSpec::new(2, 2).output_hw(32, 32), (16, 16));
        assert_eq!(Pool2dSpec::new(3, 2).output_hw(7, 7), (3, 3));
    }
}
