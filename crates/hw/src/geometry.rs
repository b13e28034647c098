/// Kind of a workload layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolution (`k×k`, stride 1, same padding in VGG).
    Conv,
    /// Fully connected.
    Dense,
}

/// Geometry of one weighted layer of the workload network — everything the
/// cycle/energy model needs to know (no weights, just shapes).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGeometry {
    /// Display name (e.g. `"conv3_2"`).
    pub name: String,
    /// Layer kind.
    pub kind: LayerKind,
    /// Input neurons (C·H·W for conv, features for dense).
    pub in_neurons: usize,
    /// Output neurons.
    pub out_neurons: usize,
    /// Weight (synapse) count.
    pub weights: usize,
    /// Dense-equivalent multiply-accumulates per image.
    pub macs: usize,
}

impl LayerGeometry {
    /// Convolution layer geometry (`k×k`, stride 1, same padding).
    pub fn conv(name: &str, in_c: usize, out_c: usize, k: usize, h: usize, w: usize) -> Self {
        Self {
            name: name.to_string(),
            kind: LayerKind::Conv,
            in_neurons: in_c * h * w,
            out_neurons: out_c * h * w,
            weights: out_c * in_c * k * k,
            macs: out_c * h * w * in_c * k * k,
        }
    }

    /// Dense layer geometry.
    pub fn dense(name: &str, in_f: usize, out_f: usize) -> Self {
        Self {
            name: name.to_string(),
            kind: LayerKind::Dense,
            in_neurons: in_f,
            out_neurons: out_f,
            weights: in_f * out_f,
            macs: in_f * out_f,
        }
    }

    /// Average synaptic fan-out of one input neuron.
    pub fn fanout(&self) -> f32 {
        self.macs as f32 / self.in_neurons.max(1) as f32
    }
}

/// The VGG-16 layer stack the paper evaluates (13 conv + 3 dense), for an
/// `h×w` RGB input and `classes` outputs. Max-pool halvings are reflected in
/// the spatial dims of subsequent stages.
///
/// # Example
///
/// ```
/// use snn_hw::vgg16_geometry;
///
/// let layers = vgg16_geometry(32, 32, 10);
/// assert_eq!(layers.len(), 16);
/// let macs: usize = layers.iter().map(|l| l.macs).sum();
/// assert!(macs > 300_000_000 && macs < 340_000_000); // ~313 M for CIFAR
/// ```
pub fn vgg16_geometry(h: usize, w: usize, classes: usize) -> Vec<LayerGeometry> {
    let stages: &[(usize, usize)] = &[
        // (output channels, convs in stage)
        (64, 2),
        (128, 2),
        (256, 3),
        (512, 3),
        (512, 3),
    ];
    let mut layers = Vec::new();
    let (mut ch, mut cw) = (h, w);
    let mut in_c = 3usize;
    for (stage, &(out_c, convs)) in stages.iter().enumerate() {
        for i in 0..convs {
            layers.push(LayerGeometry::conv(
                &format!("conv{}_{}", stage + 1, i + 1),
                in_c,
                out_c,
                3,
                ch,
                cw,
            ));
            in_c = out_c;
        }
        ch /= 2;
        cw /= 2;
    }
    let flat = in_c * ch * cw;
    layers.push(LayerGeometry::dense("fc1", flat, 512));
    layers.push(LayerGeometry::dense("fc2", 512, 512));
    layers.push(LayerGeometry::dense("fc3", 512, classes));
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg16_has_16_weighted_layers() {
        assert_eq!(vgg16_geometry(32, 32, 10).len(), 16);
        assert_eq!(vgg16_geometry(64, 64, 200).len(), 16);
    }

    #[test]
    fn cifar_macs_near_known_value() {
        let macs: usize = vgg16_geometry(32, 32, 10).iter().map(|l| l.macs).sum();
        // The commonly quoted figure for VGG-16 at 32x32 is ~313 M MACs.
        assert!((300_000_000..340_000_000).contains(&macs), "macs = {macs}");
    }

    #[test]
    fn tiny_imagenet_macs_scale_4x() {
        let c: usize = vgg16_geometry(32, 32, 10).iter().map(|l| l.macs).sum();
        let t: usize = vgg16_geometry(64, 64, 200).iter().map(|l| l.macs).sum();
        let ratio = t as f64 / c as f64;
        assert!(ratio > 3.5 && ratio < 4.5, "ratio {ratio}");
    }

    #[test]
    fn weight_count_near_vgg16() {
        let weights: usize = vgg16_geometry(32, 32, 10).iter().map(|l| l.weights).sum();
        // 14.7 M conv + small classifier for CIFAR-sized inputs.
        assert!(weights > 14_000_000 && weights < 16_000_000, "{weights}");
    }

    #[test]
    fn fanout_of_conv() {
        let l = LayerGeometry::conv("c", 3, 64, 3, 32, 32);
        // each input neuron feeds ~64 * 9 outputs
        assert!((l.fanout() - 576.0).abs() < 1.0);
    }
}
