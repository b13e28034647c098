use snn_nn::{ActivationFn, Layer, Sequential};
use snn_tensor::{avg_pool2d, conv2d, gemm, max_pool2d, Conv2dSpec, Pool2dSpec, Tensor, Transpose};

use crate::{Base2Kernel, ConvertError, PhiTtfs};

/// One layer of a converted spiking network.
///
/// Batch-normalization layers do not appear here: conversion fuses them into
/// the preceding weighted layer (the paper fuses BN into convolution weights
/// during conversion).
#[derive(Debug, Clone)]
pub enum SnnLayer {
    /// Convolution with fused weights; followed by a fire (encode) phase.
    Conv {
        /// Convolution geometry.
        spec: Conv2dSpec,
        /// Fused weight `[out_c, in_c, k, k]`.
        weight: Tensor,
        /// Fused bias `[out_c]`.
        bias: Tensor,
    },
    /// Fully connected layer; followed by a fire phase unless it is the
    /// final readout.
    Dense {
        /// Weight `[out, in]`.
        weight: Tensor,
        /// Bias `[out]`.
        bias: Tensor,
    },
    /// Max pooling. In TTFS coding this is exact on spikes: the maximum
    /// activation is the *earliest* spike in the window.
    MaxPool {
        /// Pooling geometry.
        spec: Pool2dSpec,
    },
    /// Average pooling (linear, folded into the integration phase).
    AvgPool {
        /// Pooling geometry.
        spec: Pool2dSpec,
    },
    /// Flatten `[N, C, H, W]` → `[N, rest]`.
    Flatten,
}

impl SnnLayer {
    /// Whether this layer carries weights (and therefore has a fire phase
    /// after it in the SNN pipeline).
    pub fn is_weighted(&self) -> bool {
        matches!(self, SnnLayer::Conv { .. } | SnnLayer::Dense { .. })
    }

    /// The fused weight tensor of a weighted layer (`[out_c, in_c, k, k]`
    /// for conv, `[out, in]` for dense), `None` for structural layers.
    pub fn weight(&self) -> Option<&Tensor> {
        match self {
            SnnLayer::Conv { weight, .. } | SnnLayer::Dense { weight, .. } => Some(weight),
            _ => None,
        }
    }

    /// The fused bias tensor of a weighted layer, `None` for structural
    /// layers.
    pub fn bias(&self) -> Option<&Tensor> {
        match self {
            SnnLayer::Conv { bias, .. } | SnnLayer::Dense { bias, .. } => Some(bias),
            _ => None,
        }
    }

    /// Output neuron-grid dims for an input grid of `in_dims` (per-sample
    /// dims, no batch axis: `[C, H, W]` spatial or `[features]` flat).
    ///
    /// This is the single source of truth external engines (CSR export in
    /// `snn-runtime`, hardware geometry) use to propagate shapes without
    /// re-deriving layer semantics.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Structure`] if `in_dims` does not match the
    /// layer's expectations.
    pub fn out_dims(&self, in_dims: &[usize]) -> Result<Vec<usize>, ConvertError> {
        match self {
            SnnLayer::Conv { spec, .. } => {
                if in_dims.len() != 3 || in_dims[0] != spec.in_channels {
                    return Err(ConvertError::Structure(format!(
                        "conv expects [{}, H, W] input, got {:?}",
                        spec.in_channels, in_dims
                    )));
                }
                let (h, w) = (in_dims[1], in_dims[2]);
                if h + 2 * spec.padding < spec.kernel || w + 2 * spec.padding < spec.kernel {
                    return Err(ConvertError::Structure(format!(
                        "conv kernel {} does not fit a {h}x{w} input with padding {}",
                        spec.kernel, spec.padding
                    )));
                }
                let (oh, ow) = spec.output_hw(h, w);
                Ok(vec![spec.out_channels, oh, ow])
            }
            SnnLayer::Dense { weight, .. } => {
                let in_f = weight.dims()[1];
                let flat: usize = in_dims.iter().product();
                if flat != in_f {
                    return Err(ConvertError::Structure(format!(
                        "dense expects {in_f} input features, got {:?}",
                        in_dims
                    )));
                }
                Ok(vec![weight.dims()[0]])
            }
            SnnLayer::MaxPool { spec } | SnnLayer::AvgPool { spec } => {
                if in_dims.len() != 3 {
                    return Err(ConvertError::Structure(format!(
                        "pool expects [C, H, W] input, got {:?}",
                        in_dims
                    )));
                }
                if in_dims[1] < spec.window || in_dims[2] < spec.window {
                    return Err(ConvertError::Structure(format!(
                        "pool window {} does not fit a {}x{} input",
                        spec.window, in_dims[1], in_dims[2]
                    )));
                }
                let oh = (in_dims[1] - spec.window) / spec.stride + 1;
                let ow = (in_dims[2] - spec.window) / spec.stride + 1;
                Ok(vec![in_dims[0], oh, ow])
            }
            SnnLayer::Flatten => Ok(vec![in_dims.iter().product()]),
        }
    }
}

/// A converted SNN model: fused weights plus the single shared TTFS kernel.
///
/// Produced by [`convert`]; executed event-by-event by `snn-sim`, or exactly
/// via [`SnnModel::reference_forward`] (the activation-domain equivalent the
/// event simulation must reproduce bit-for-bit on decoded values).
#[derive(Debug, Clone)]
pub struct SnnModel {
    layers: Vec<SnnLayer>,
    kernel: Base2Kernel,
    window: u32,
}

impl SnnModel {
    /// Assembles a model from parts (used by tests and the T2FSNN baseline).
    pub fn from_parts(layers: Vec<SnnLayer>, kernel: Base2Kernel, window: u32) -> Self {
        Self {
            layers,
            kernel,
            window,
        }
    }

    /// The converted layers in execution order.
    pub fn layers(&self) -> &[SnnLayer] {
        &self.layers
    }

    /// Mutable access to the layers (quantization hook).
    pub fn layers_mut(&mut self) -> &mut [SnnLayer] {
        &mut self.layers
    }

    /// The shared TTFS kernel.
    pub fn kernel(&self) -> &Base2Kernel {
        &self.kernel
    }

    /// Fire-phase window T.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Number of weighted (spiking) layers.
    pub fn weighted_layers(&self) -> usize {
        self.layers.iter().filter(|l| l.is_weighted()).count()
    }

    /// End-to-end inference latency in timesteps for the paper's layer
    /// pipeline: every weighted layer occupies one window, plus one window
    /// for input encoding — `T × (L + 1)` (matches Table 2: T=24 → 408 for
    /// VGG-16's 16 weighted layers; T=48 → 816).
    pub fn latency_timesteps(&self) -> u32 {
        self.window * (self.weighted_layers() as u32 + 1)
    }

    /// Propagates per-sample input dims (`[C, H, W]`) through every layer,
    /// returning the neuron-grid dims at each layer boundary: entry `0` is
    /// the input grid, entry `i + 1` the output of layer `i`.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Structure`] if the input does not fit the
    /// model geometry.
    pub fn shape_trace(&self, input_dims: &[usize]) -> Result<Vec<Vec<usize>>, ConvertError> {
        let mut trace = Vec::with_capacity(self.layers.len() + 1);
        trace.push(input_dims.to_vec());
        let mut cur = input_dims.to_vec();
        for layer in &self.layers {
            cur = layer.out_dims(&cur)?;
            trace.push(cur.clone());
        }
        Ok(trace)
    }

    /// Exact activation-domain forward pass of the converted SNN: the input
    /// is spike-encoded (`φ_TTFS`), every hidden weighted layer is followed
    /// by encode→decode quantization, and the final layer reads the raw
    /// membrane voltage.
    ///
    /// The event-driven simulator in `snn-sim` must produce exactly these
    /// values — that equivalence is the paper's "zero conversion loss".
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError`] if `x` does not match the model geometry.
    pub fn reference_forward(&self, x: &Tensor) -> Result<Tensor, ConvertError> {
        let phi = PhiTtfs::new(self.kernel, self.window);
        let mut cur = x.map(|v| phi.value(v)); // input spike coding
        let weighted = self.weighted_layers();
        let mut seen = 0usize;
        for layer in &self.layers {
            cur = match layer {
                SnnLayer::Conv { spec, weight, bias } => {
                    seen += 1;
                    let y =
                        conv2d(&cur, weight, Some(bias), spec).map_err(snn_nn::NnError::from)?;
                    if seen < weighted {
                        y.map(|v| phi.value(v))
                    } else {
                        y
                    }
                }
                SnnLayer::Dense { weight, bias } => {
                    seen += 1;
                    let mut y = gemm(&cur, Transpose::No, weight, Transpose::Yes)
                        .map_err(snn_nn::NnError::from)?;
                    let (n, out) = (y.dims()[0], y.dims()[1]);
                    let data = y.as_mut_slice();
                    for s in 0..n {
                        for (o, &b) in bias.as_slice().iter().enumerate() {
                            data[s * out + o] += b;
                        }
                    }
                    if seen < weighted {
                        y.map(|v| phi.value(v))
                    } else {
                        y
                    }
                }
                SnnLayer::MaxPool { spec } => {
                    max_pool2d(&cur, spec).map_err(snn_nn::NnError::from)?.0
                }
                SnnLayer::AvgPool { spec } => {
                    avg_pool2d(&cur, spec).map_err(snn_nn::NnError::from)?
                }
                SnnLayer::Flatten => {
                    let n = cur.dims()[0];
                    let rest = cur.len() / n.max(1);
                    cur.reshape(&[n, rest]).map_err(snn_nn::NnError::from)?
                }
            };
        }
        Ok(cur)
    }

    /// Classification accuracy of [`SnnModel::reference_forward`] on a
    /// labelled set.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors from the forward pass.
    pub fn accuracy(&self, images: &Tensor, labels: &[usize]) -> Result<f32, ConvertError> {
        let n = images.dims()[0];
        if n == 0 {
            return Ok(0.0);
        }
        let sample_len = images.len() / n;
        let mut dims = images.dims().to_vec();
        let mut correct = 0usize;
        // Evaluate in small batches to bound memory.
        let bs = 16usize;
        let mut start = 0usize;
        while start < n {
            let end = (start + bs).min(n);
            dims[0] = end - start;
            let batch = Tensor::from_vec(
                images.as_slice()[start * sample_len..end * sample_len].to_vec(),
                &dims,
            )
            .map_err(snn_nn::NnError::from)?;
            let logits = self.reference_forward(&batch)?;
            let c = logits.dims()[1];
            for (s, &label) in labels[start..end].iter().enumerate() {
                let row = &logits.as_slice()[s * c..(s + 1) * c];
                let pred = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                if pred == label {
                    correct += 1;
                }
            }
            start = end;
        }
        Ok(correct as f32 / n as f32)
    }
}

fn fuse_conv_bn(
    spec: Conv2dSpec,
    weight: &Tensor,
    bias: &Tensor,
    bn: &snn_nn::BatchNorm2d,
) -> (Tensor, Tensor) {
    let gamma = bn.gamma().as_slice();
    let beta = bn.beta().as_slice();
    let mean = bn.running_mean().as_slice();
    let var = bn.running_var().as_slice();
    let mut w = weight.clone();
    let mut b = bias.clone();
    let per_oc = spec.in_channels * spec.kernel * spec.kernel;
    for oc in 0..spec.out_channels {
        let sigma = (var[oc] + snn_nn::BN_EPS).sqrt();
        let scale = gamma[oc] / sigma;
        for v in &mut w.as_mut_slice()[oc * per_oc..(oc + 1) * per_oc] {
            *v *= scale;
        }
        b.as_mut_slice()[oc] = (bias.as_slice()[oc] - mean[oc]) * scale + beta[oc];
    }
    (w, b)
}

/// Converts a CAT-trained ANN into an [`SnnModel`].
///
/// Performs the paper's conversion steps:
/// 1. fuses every `Conv → BatchNorm` pair into the convolution weights,
/// 2. drops activation layers (their role is taken over by the fire phase),
/// 3. keeps pooling/flatten as passthrough structure.
///
/// Output-layer weight normalization is a separate, explicit step
/// ([`normalize_output_layer`]) because it needs calibration data.
///
/// # Errors
///
/// Returns [`ConvertError::Structure`] if a BN layer is not directly
/// preceded by a convolution or the network has no weighted layers.
pub fn convert(
    net: &Sequential,
    kernel: Base2Kernel,
    window: u32,
) -> Result<SnnModel, ConvertError> {
    let mut layers: Vec<SnnLayer> = Vec::new();
    for layer in net.layers() {
        match layer {
            Layer::Conv2d(c) => layers.push(SnnLayer::Conv {
                spec: *c.spec(),
                weight: c.weight().clone(),
                bias: c.bias().clone(),
            }),
            Layer::Dense(d) => layers.push(SnnLayer::Dense {
                weight: d.weight().clone(),
                bias: d.bias().clone(),
            }),
            Layer::BatchNorm2d(bn) => match layers.pop() {
                Some(SnnLayer::Conv { spec, weight, bias }) => {
                    let (w, b) = fuse_conv_bn(spec, &weight, &bias, bn);
                    layers.push(SnnLayer::Conv {
                        spec,
                        weight: w,
                        bias: b,
                    });
                }
                other => {
                    return Err(ConvertError::Structure(format!(
                        "batchnorm must follow a convolution, found after {:?}",
                        other.map(|l| format!("{l:?}").chars().take(24).collect::<String>())
                    )));
                }
            },
            Layer::MaxPool2d(p) => layers.push(SnnLayer::MaxPool { spec: *p.spec() }),
            Layer::AvgPool2d(p) => layers.push(SnnLayer::AvgPool { spec: *p.spec() }),
            Layer::Flatten(_) => layers.push(SnnLayer::Flatten),
            Layer::Activation(_) => {} // becomes the fire phase
            Layer::Dropout(_) => {}    // identity at inference
        }
    }
    if !layers.iter().any(|l| l.is_weighted()) {
        return Err(ConvertError::Structure(
            "network has no weighted layers".into(),
        ));
    }
    match layers.iter().rev().find(|l| l.is_weighted()) {
        Some(SnnLayer::Dense { .. }) => {}
        _ => {
            return Err(ConvertError::Structure(
                "final weighted layer must be a dense classifier".into(),
            ));
        }
    }
    Ok(SnnModel {
        layers,
        kernel,
        window,
    })
}

/// Applies the paper's output-layer weight normalization (after Rueckauer et
/// al.): scales the final dense layer so that its largest absolute
/// pre-activation over `calibration` is 1. Argmax (and therefore accuracy)
/// is invariant; the membrane voltages stay inside the representable range
/// of downstream fixed-point hardware.
///
/// Returns the scale factor that was applied (`1/λ`).
///
/// # Errors
///
/// Returns [`ConvertError`] if the model has no dense output layer or the
/// calibration batch does not match the model geometry.
pub fn normalize_output_layer(
    model: &mut SnnModel,
    calibration: &Tensor,
) -> Result<f32, ConvertError> {
    let logits = model.reference_forward(calibration)?;
    let lambda = logits.abs_max();
    if lambda <= 0.0 {
        return Ok(1.0);
    }
    let scale = 1.0 / lambda;
    let last_weighted = model
        .layers
        .iter_mut()
        .rev()
        .find(|l| l.is_weighted())
        .ok_or_else(|| ConvertError::Structure("no weighted layers".into()))?;
    match last_weighted {
        SnnLayer::Dense { weight, bias } => {
            weight.map_inplace(|v| v * scale);
            bias.map_inplace(|v| v * scale);
        }
        _ => {
            return Err(ConvertError::Structure("output layer is not dense".into()));
        }
    }
    Ok(scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_nn::{
        ActivationLayer, BatchNorm2d, Conv2dLayer, DenseLayer, Flatten, Layer, MaxPool2dLayer,
        Relu, Sequential,
    };

    fn tiny_cnn(rng: &mut StdRng) -> Sequential {
        Sequential::new(vec![
            Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(1, 4, 3, 1, 1), rng)),
            Layer::BatchNorm2d(BatchNorm2d::new(4)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(4 * 4 * 4, 3, rng)),
        ])
    }

    #[test]
    fn convert_structure() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = tiny_cnn(&mut rng);
        let model = convert(&net, Base2Kernel::paper_default(), 24).unwrap();
        assert_eq!(model.weighted_layers(), 2);
        assert_eq!(model.layers().len(), 4); // conv, pool, flatten, dense
        assert_eq!(model.latency_timesteps(), 24 * 3);
    }

    #[test]
    fn bn_fusion_is_exact() {
        // conv -> BN (eval mode) must equal fused conv.
        let mut rng = StdRng::seed_from_u64(1);
        let spec = Conv2dSpec::new(2, 3, 3, 1, 1);
        let mut conv = Conv2dLayer::new(spec, &mut rng);
        let mut bn = BatchNorm2d::new(3);
        bn.set_running_stats(
            Tensor::from_slice(&[0.2, -0.1, 0.4]),
            Tensor::from_slice(&[1.5, 0.7, 2.0]),
        )
        .unwrap();
        // give gamma/beta non-trivial values via visit_params
        let mut it = 0;
        bn.visit_params(&mut |p, _| {
            for (i, v) in p.as_mut_slice().iter_mut().enumerate() {
                *v = if it == 0 {
                    1.0 + 0.3 * i as f32
                } else {
                    0.1 * i as f32
                };
            }
            it += 1;
        });

        let x = snn_tensor::kaiming_normal(&[2, 2, 5, 5], 18, &mut rng);
        let reference = {
            let y = conv.forward(&x).unwrap();
            bn.forward(&y, false).unwrap()
        };
        let (fw, fb) = fuse_conv_bn(spec, conv.weight(), conv.bias(), &bn);
        let fused = conv2d(&x, &fw, Some(&fb), &spec).unwrap();
        assert!(fused.allclose(&reference, 1e-4));
    }

    #[test]
    fn rejects_bn_without_conv() {
        let net = Sequential::new(vec![Layer::BatchNorm2d(BatchNorm2d::new(2))]);
        assert!(matches!(
            convert(&net, Base2Kernel::paper_default(), 24),
            Err(ConvertError::Structure(_))
        ));
    }

    #[test]
    fn rejects_conv_readout() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Sequential::new(vec![Layer::Conv2d(Conv2dLayer::new(
            Conv2dSpec::new(1, 2, 3, 1, 1),
            &mut rng,
        ))]);
        assert!(convert(&net, Base2Kernel::paper_default(), 24).is_err());
    }

    #[test]
    fn reference_forward_shape_and_quantization() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = tiny_cnn(&mut rng);
        let model = convert(&net, Base2Kernel::paper_default(), 24).unwrap();
        let x = Tensor::full(&[2, 1, 8, 8], 0.37);
        let y = model.reference_forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
    }

    #[test]
    fn normalize_output_preserves_argmax() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = tiny_cnn(&mut rng);
        let mut model = convert(&net, Base2Kernel::paper_default(), 24).unwrap();
        let x = snn_tensor::uniform(&[4, 1, 8, 8], 0.0, 1.0, &mut rng);
        let before = model.reference_forward(&x).unwrap();
        let scale = normalize_output_layer(&mut model, &x).unwrap();
        let after = model.reference_forward(&x).unwrap();
        assert!(after.abs_max() <= 1.0 + 1e-4);
        assert!(scale > 0.0);
        for s in 0..4 {
            let row_b = &before.as_slice()[s * 3..(s + 1) * 3];
            let row_a = &after.as_slice()[s * 3..(s + 1) * 3];
            let am = |r: &[f32]| {
                r.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap()
            };
            assert_eq!(am(row_b), am(row_a));
        }
    }

    #[test]
    fn out_dims_rejects_undersized_grids() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = tiny_cnn(&mut rng);
        let model = convert(&net, Base2Kernel::paper_default(), 24).unwrap();
        // Pool window 2 cannot fit a 1x1 grid; conv 3x3 (pad 1) cannot fit
        // a 0x0 grid — both must error, not underflow.
        let pool = model
            .layers()
            .iter()
            .find(|l| matches!(l, SnnLayer::MaxPool { .. }));
        assert!(matches!(
            pool.unwrap().out_dims(&[4, 1, 1]),
            Err(ConvertError::Structure(_))
        ));
        let conv = &model.layers()[0];
        assert!(matches!(
            conv.out_dims(&[1, 0, 0]),
            Err(ConvertError::Structure(_))
        ));
        assert!(model.shape_trace(&[1, 1, 1]).is_err());
        assert_eq!(model.shape_trace(&[1, 8, 8]).unwrap().len(), 5);
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = tiny_cnn(&mut rng);
        let model = convert(&net, Base2Kernel::paper_default(), 24).unwrap();
        let x = snn_tensor::uniform(&[6, 1, 8, 8], 0.0, 1.0, &mut rng);
        let logits = model.reference_forward(&x).unwrap();
        let labels: Vec<usize> = (0..6)
            .map(|s| {
                logits.as_slice()[s * 3..(s + 1) * 3]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap()
            })
            .collect();
        let acc = model.accuracy(&x, &labels).unwrap();
        assert!((acc - 1.0).abs() < 1e-6);
    }
}
