use crate::{gemm, ShapeError, Tensor, Transpose};

/// Geometry of a 2-D convolution (NCHW layout, square stride/padding).
///
/// # Example
///
/// ```
/// use snn_tensor::Conv2dSpec;
///
/// let spec = Conv2dSpec::new(3, 16, 3, 1, 1);
/// assert_eq!(spec.output_hw(32, 32), (32, 32));
/// ```
// Serde: a conv layer's `.snna` layout entry; the field names are on-disk keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Conv2dSpec {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a convolution spec.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial extent for an `h`×`w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Rows of the im2col matrix: `in_channels * kernel * kernel`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Number of multiply-accumulate operations for one sample on an
    /// `h`×`w` input (used by the hardware cost model).
    pub fn macs(&self, h: usize, w: usize) -> usize {
        let (oh, ow) = self.output_hw(h, w);
        self.out_channels * oh * ow * self.col_rows()
    }
}

/// Unfolds one `[C, H, W]` image into an im2col matrix
/// `[C*k*k, out_h*out_w]`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `input` is not rank-3 or its channel count
/// disagrees with `spec`.
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Result<Tensor, ShapeError> {
    let dims = input.dims();
    if dims.len() != 3 || dims[0] != spec.in_channels {
        return Err(ShapeError::new(
            "im2col",
            format!("expected [{}, H, W], got {:?}", spec.in_channels, dims),
        ));
    }
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let rows = spec.col_rows();
    let cols = oh * ow;
    let mut out = vec![0.0f32; rows * cols];
    let src = input.as_slice();
    let pad = spec.padding as isize;
    let stride = spec.stride;

    for ci in 0..c {
        for ki in 0..k {
            for kj in 0..k {
                let row = (ci * k + ki) * k + kj;
                let dst_row = &mut out[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = oy as isize * stride as isize + ki as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src_base = (ci * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = ox as isize * stride as isize + kj as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dst_row[oy * ow + ox] = src[src_base + ix as usize];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[rows, cols])
}

/// Folds an im2col-layout gradient back into a `[C, H, W]` image,
/// accumulating overlapping contributions (inverse of [`im2col`] in the
/// adjoint sense).
fn col2im(cols: &Tensor, spec: &Conv2dSpec, h: usize, w: usize) -> Tensor {
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let c = spec.in_channels;
    let n_cols = oh * ow;
    let mut out = vec![0.0f32; c * h * w];
    let src = cols.as_slice();
    let pad = spec.padding as isize;
    let stride = spec.stride;

    for ci in 0..c {
        for ki in 0..k {
            for kj in 0..k {
                let row = (ci * k + ki) * k + kj;
                let src_row = &src[row * n_cols..(row + 1) * n_cols];
                for oy in 0..oh {
                    let iy = oy as isize * stride as isize + ki as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst_base = (ci * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = ox as isize * stride as isize + kj as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out[dst_base + ix as usize] += src_row[oy * ow + ox];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[c, h, w]).expect("col2im buffer sized to shape")
}

/// 2-D convolution forward pass.
///
/// * `input`: `[N, C, H, W]`
/// * `weight`: `[out_c, C, k, k]`
/// * `bias`: `[out_c]` or `None`
///
/// Returns `[N, out_c, oh, ow]`.
///
/// # Errors
///
/// Returns [`ShapeError`] if any operand disagrees with `spec`.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    let idims = input.dims();
    if idims.len() != 4 || idims[1] != spec.in_channels {
        return Err(ShapeError::new(
            "conv2d",
            format!("input {:?} vs spec {:?}", idims, spec),
        ));
    }
    let wdims = weight.dims();
    if wdims
        != [
            spec.out_channels,
            spec.in_channels,
            spec.kernel,
            spec.kernel,
        ]
    {
        return Err(ShapeError::new(
            "conv2d",
            format!("weight {:?} vs spec {:?}", wdims, spec),
        ));
    }
    if let Some(b) = bias {
        if b.dims() != [spec.out_channels] {
            return Err(ShapeError::new(
                "conv2d",
                format!("bias {:?} vs out_channels {}", b.dims(), spec.out_channels),
            ));
        }
    }
    let (n, _, h, w) = (idims[0], idims[1], idims[2], idims[3]);
    let (oh, ow) = spec.output_hw(h, w);
    let w_mat = weight.reshape(&[spec.out_channels, spec.col_rows()])?;
    let mut out = vec![0.0f32; n * spec.out_channels * oh * ow];
    let plane = spec.in_channels * h * w;
    let out_plane = spec.out_channels * oh * ow;

    for s in 0..n {
        let img = Tensor::from_vec(
            input.as_slice()[s * plane..(s + 1) * plane].to_vec(),
            &[spec.in_channels, h, w],
        )?;
        let cols = im2col(&img, spec)?;
        let res = gemm(&w_mat, Transpose::No, &cols, Transpose::No)?;
        let dst = &mut out[s * out_plane..(s + 1) * out_plane];
        dst.copy_from_slice(res.as_slice());
        if let Some(b) = bias {
            for oc in 0..spec.out_channels {
                let bv = b.as_slice()[oc];
                for v in &mut dst[oc * oh * ow..(oc + 1) * oh * ow] {
                    *v += bv;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, spec.out_channels, oh, ow])
}

/// Gradient of the convolution with respect to its input.
///
/// `grad_out` is `[N, out_c, oh, ow]`; returns `[N, C, H, W]` where
/// `(H, W)` is `input_hw`.
///
/// # Errors
///
/// Returns [`ShapeError`] on operand/spec mismatch.
pub fn conv2d_backward_input(
    grad_out: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    input_hw: (usize, usize),
) -> Result<Tensor, ShapeError> {
    let (h, w) = input_hw;
    let (oh, ow) = spec.output_hw(h, w);
    let gdims = grad_out.dims();
    if gdims.len() != 4 || gdims[1] != spec.out_channels || gdims[2] != oh || gdims[3] != ow {
        return Err(ShapeError::new(
            "conv2d_backward_input",
            format!(
                "grad {:?} vs expected [N, {}, {oh}, {ow}]",
                gdims, spec.out_channels
            ),
        ));
    }
    let n = gdims[0];
    let w_mat = weight.reshape(&[spec.out_channels, spec.col_rows()])?;
    let out_plane = spec.out_channels * oh * ow;
    let in_plane = spec.in_channels * h * w;
    let mut out = vec![0.0f32; n * in_plane];

    for s in 0..n {
        let g = Tensor::from_vec(
            grad_out.as_slice()[s * out_plane..(s + 1) * out_plane].to_vec(),
            &[spec.out_channels, oh * ow],
        )?;
        // cols_grad = W^T (out_c x rows)^T * g
        let cols_grad = gemm(&w_mat, Transpose::Yes, &g, Transpose::No)?;
        let img_grad = col2im(&cols_grad, spec, h, w);
        out[s * in_plane..(s + 1) * in_plane].copy_from_slice(img_grad.as_slice());
    }
    Tensor::from_vec(out, &[n, spec.in_channels, h, w])
}

/// Gradients of the convolution with respect to weight and bias.
///
/// Returns `(grad_weight [out_c, C, k, k], grad_bias [out_c])`, both summed
/// over the batch.
///
/// # Errors
///
/// Returns [`ShapeError`] on operand/spec mismatch.
pub fn conv2d_backward_weight(
    input: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Result<(Tensor, Tensor), ShapeError> {
    let idims = input.dims();
    if idims.len() != 4 || idims[1] != spec.in_channels {
        return Err(ShapeError::new(
            "conv2d_backward_weight",
            format!("input {:?} vs spec {:?}", idims, spec),
        ));
    }
    let (n, _, h, w) = (idims[0], idims[1], idims[2], idims[3]);
    let (oh, ow) = spec.output_hw(h, w);
    let in_plane = spec.in_channels * h * w;
    let out_plane = spec.out_channels * oh * ow;

    let mut gw = Tensor::zeros(&[spec.out_channels, spec.col_rows()]);
    let mut gb = Tensor::zeros(&[spec.out_channels]);

    for s in 0..n {
        let img = Tensor::from_vec(
            input.as_slice()[s * in_plane..(s + 1) * in_plane].to_vec(),
            &[spec.in_channels, h, w],
        )?;
        let cols = im2col(&img, spec)?;
        let g = Tensor::from_vec(
            grad_out.as_slice()[s * out_plane..(s + 1) * out_plane].to_vec(),
            &[spec.out_channels, oh * ow],
        )?;
        let gw_s = gemm(&g, Transpose::No, &cols, Transpose::Yes)?;
        gw.axpy(1.0, &gw_s)?;
        for oc in 0..spec.out_channels {
            let row = &g.as_slice()[oc * oh * ow..(oc + 1) * oh * ow];
            gb.as_mut_slice()[oc] += row.iter().sum::<f32>();
        }
    }
    Ok((
        gw.reshape(&[
            spec.out_channels,
            spec.in_channels,
            spec.kernel,
            spec.kernel,
        ])?,
        gb,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_conv(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Tensor {
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (oh, ow) = spec.output_hw(h, w);
        let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
        for s in 0..n {
            for oc in 0..spec.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..c {
                            for ki in 0..spec.kernel {
                                for kj in 0..spec.kernel {
                                    let iy =
                                        (oy * spec.stride + ki) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + kj) as isize - spec.padding as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.at(&[s, ci, iy as usize, ix as usize]).unwrap()
                                        * weight.at(&[oc, ci, ki, kj]).unwrap();
                                }
                            }
                        }
                        out.set(&[s, oc, oy, ox], acc).unwrap();
                    }
                }
            }
        }
        out
    }

    fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
        // Tiny deterministic LCG; avoids pulling rand into unit tests.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let n: usize = dims.iter().product();
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.push(((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5);
        }
        Tensor::from_vec(v, dims).unwrap()
    }

    #[test]
    fn conv_matches_naive_padded() {
        let spec = Conv2dSpec::new(2, 3, 3, 1, 1);
        let input = rand_tensor(&[2, 2, 5, 5], 7);
        let weight = rand_tensor(&[3, 2, 3, 3], 13);
        let fast = conv2d(&input, &weight, None, &spec).unwrap();
        let slow = naive_conv(&input, &weight, &spec);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn conv_matches_naive_strided() {
        let spec = Conv2dSpec::new(1, 2, 3, 2, 0);
        let input = rand_tensor(&[1, 1, 7, 7], 3);
        let weight = rand_tensor(&[2, 1, 3, 3], 5);
        let fast = conv2d(&input, &weight, None, &spec).unwrap();
        let slow = naive_conv(&input, &weight, &spec);
        assert_eq!(fast.dims(), &[1, 2, 3, 3]);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn bias_adds_per_channel() {
        let spec = Conv2dSpec::new(1, 2, 1, 1, 0);
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let weight = Tensor::from_vec(vec![1.0, 0.0], &[2, 1, 1, 1]).unwrap();
        let bias = Tensor::from_slice(&[10.0, -1.0]);
        let out = conv2d(&input, &weight, Some(&bias), &spec).unwrap();
        assert_eq!(
            out.as_slice(),
            &[11.0, 12.0, 13.0, 14.0, -1.0, -1.0, -1.0, -1.0]
        );
    }

    /// Finite-difference check of both backward passes.
    #[test]
    fn gradients_match_finite_difference() {
        let spec = Conv2dSpec::new(2, 2, 3, 1, 1);
        let input = rand_tensor(&[1, 2, 4, 4], 11);
        let weight = rand_tensor(&[2, 2, 3, 3], 17);
        // Loss = sum(conv output); dL/dout = ones.
        let out = conv2d(&input, &weight, None, &spec).unwrap();
        let grad_out = Tensor::full(out.dims(), 1.0);

        let gin = conv2d_backward_input(&grad_out, &weight, &spec, (4, 4)).unwrap();
        let (gw, gb) = conv2d_backward_weight(&input, &grad_out, &spec).unwrap();
        assert_eq!(gb.dims(), &[2]);

        let eps = 1e-3;
        // Check a few input coordinates.
        for &flat in &[0usize, 5, 17, 31] {
            let mut ip = input.clone();
            ip.as_mut_slice()[flat] += eps;
            let lp = conv2d(&ip, &weight, None, &spec).unwrap().sum();
            let mut im = input.clone();
            im.as_mut_slice()[flat] -= eps;
            let lm = conv2d(&im, &weight, None, &spec).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gin.as_slice()[flat]).abs() < 1e-2,
                "input grad at {flat}: numeric {num} vs analytic {}",
                gin.as_slice()[flat]
            );
        }
        // Check a few weight coordinates.
        for &flat in &[0usize, 7, 20, 35] {
            let mut wp = weight.clone();
            wp.as_mut_slice()[flat] += eps;
            let lp = conv2d(&input, &wp, None, &spec).unwrap().sum();
            let mut wm = weight.clone();
            wm.as_mut_slice()[flat] -= eps;
            let lm = conv2d(&input, &wm, None, &spec).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gw.as_slice()[flat]).abs() < 1e-2,
                "weight grad at {flat}: numeric {num} vs analytic {}",
                gw.as_slice()[flat]
            );
        }
    }

    #[test]
    fn macs_counts_inner_products() {
        let spec = Conv2dSpec::new(3, 8, 3, 1, 1);
        // 8 output channels * 4x4 map * 27-long dot products
        assert_eq!(spec.macs(4, 4), 8 * 16 * 27);
    }

    #[test]
    fn im2col_rejects_wrong_channels() {
        let spec = Conv2dSpec::new(3, 8, 3, 1, 1);
        let img = Tensor::zeros(&[2, 4, 4]);
        assert!(im2col(&img, &spec).is_err());
    }
}
