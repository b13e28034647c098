//! Backend-equivalence property tests: for random networks, random inputs
//! and random batch sizes, the CSR fast path, the reference event
//! simulator and the analytic `reference_forward` must produce the same
//! logits — `CsrEngine == EventSnn` bit-for-bit (same accumulation
//! discipline), and both equal to `reference_forward` within 1e-4. The
//! streaming front-end must preserve that guarantee under arbitrary
//! arrival order, arrival timing and batcher configuration.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use ttfs_snn::logquant::LogBase;
use ttfs_snn::nn::{
    ActivationLayer, AvgPool2dLayer, Conv2dLayer, DenseLayer, Flatten, Layer, MaxPool2dLayer, Relu,
    Sequential,
};
use ttfs_snn::runtime::{
    quantize_model, CsrEngine, DecodeMode, InferenceBackend, QuantConfig, QuantEngine,
    StreamingConfig, StreamingServer, SubmitOptions, Ticket,
};
use ttfs_snn::sim::EventSnn;
use ttfs_snn::tensor::{Conv2dSpec, Tensor};
use ttfs_snn::ttfs::{convert, Base2Kernel, SnnLayer, SnnModel};

/// Asserts `EventSnn == CsrEngine` bit-for-bit (logits AND event
/// statistics) at the engine's default chunk width, at one lane (the
/// classic sample-major walk), at the proptest-chosen `lanes`, and at a
/// whole-batch-plus-one chunk — the batched edge-major interchange must be
/// a pure performance knob — and both within 1e-4 of `reference_forward`.
fn check_backends(
    model: &SnnModel,
    x: &Tensor,
    input_dims: &[usize],
    lanes: usize,
) -> Result<(), TestCaseError> {
    let event = EventSnn::new(model);
    let csr = CsrEngine::compile(model, input_dims).expect("csr compile");
    let (event_logits, event_stats) = event.run(x).expect("event run");
    let (csr_logits, csr_stats) = csr.run_batch(x).expect("csr run");
    let reference = model.reference_forward(x).expect("reference");

    prop_assert_eq!(
        event_logits.as_slice(),
        csr_logits.as_slice(),
        "CSR and event backends share one accumulation discipline"
    );
    prop_assert_eq!(&event_stats, &csr_stats, "identical event statistics");
    for chunk in [1, lanes, x.dims()[0] + 1] {
        let alt = csr.clone().with_max_lanes(chunk);
        let (alt_logits, alt_stats) = alt.run_batch(x).expect("chunked run");
        prop_assert_eq!(
            alt_logits.as_slice(),
            csr_logits.as_slice(),
            "chunk width {} must not change logits",
            chunk
        );
        prop_assert_eq!(&alt_stats, &csr_stats, "chunk width {} stats", chunk);
    }
    let max_diff = csr_logits
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    prop_assert!(
        max_diff <= 1e-4,
        "csr vs reference max |diff| = {max_diff:e}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conv + max-pool networks across random batch and chunk sizes.
    #[test]
    fn conv_maxpool_backends_agree(
        seed in 0u64..256,
        batch in 1usize..5,
        lanes in 1usize..7,
        xs in proptest::collection::vec(0.0f32..1.0, 4 * 2 * 36),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Sequential::new(vec![
            Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(2, 4, 3, 1, 1), &mut rng)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(4 * 3 * 3, 3, &mut rng)),
        ]);
        let model = convert(&net, Base2Kernel::paper_default(), 24).expect("conversion");
        let x = Tensor::from_vec(xs[..batch * 2 * 36].to_vec(), &[batch, 2, 6, 6]).expect("sized");
        check_backends(&model, &x, &[2, 6, 6], lanes)?;
    }

    /// Average pooling (scaled virtual spikes, duplicate (t, neuron)
    /// events per lane) and strided conv, across random chunk sizes.
    #[test]
    fn avgpool_strided_backends_agree(
        seed in 0u64..256,
        lanes in 1usize..5,
        xs in proptest::collection::vec(0.0f32..1.0, 2 * 49),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Sequential::new(vec![
            Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(1, 3, 3, 2, 0), &mut rng)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::AvgPool2d(AvgPool2dLayer::new(3, 3)),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(3, 2, &mut rng)),
        ]);
        let model = convert(&net, Base2Kernel::paper_default(), 24).expect("conversion");
        let x = Tensor::from_vec(xs, &[2, 1, 7, 7]).expect("sized");
        check_backends(&model, &x, &[1, 7, 7], lanes)?;
    }

    /// Deep dense stacks (quantization compounds with depth), across
    /// random chunk sizes.
    #[test]
    fn deep_dense_backends_agree(
        seed in 0u64..256,
        batch in 1usize..7,
        lanes in 1usize..9,
        xs in proptest::collection::vec(0.0f32..1.0, 6 * 10),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = vec![Layer::Flatten(Flatten::new())];
        let mut width = 10usize;
        for _ in 0..4 {
            layers.push(Layer::Dense(DenseLayer::new(width, 9, &mut rng)));
            layers.push(Layer::Activation(ActivationLayer::new(Box::new(Relu))));
            width = 9;
        }
        layers.push(Layer::Dense(DenseLayer::new(width, 4, &mut rng)));
        let model = convert(&Sequential::new(layers), Base2Kernel::paper_default(), 24)
            .expect("conversion");
        let x = Tensor::from_vec(xs[..batch * 10].to_vec(), &[batch, 1, 2, 5]).expect("sized");
        check_backends(&model, &x, &[1, 2, 5], lanes)?;
    }

    /// The quantized serving guarantee: for random architectures, bit
    /// widths, log bases, batch sizes and chunk widths, `QuantEngine` in
    /// LUT mode is **bit-identical** (logits AND event statistics) to the
    /// reference event simulator run over a model whose weights went
    /// through the same per-layer `LogQuantizer::quantize_tensor` — the
    /// packed-code tables, the decode LUT and the edge-major interchange
    /// must all be exact.
    #[test]
    fn quantized_csr_matches_quantized_event(
        seed in 0u64..256,
        bits in 3u8..8,
        base_z in 0u8..3,
        batch in 1usize..5,
        lanes in 1usize..7,
        xs in proptest::collection::vec(0.0f32..1.0, 4 * 2 * 36),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Sequential::new(vec![
            Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(2, 4, 3, 1, 1), &mut rng)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(4 * 3 * 3, 3, &mut rng)),
        ]);
        let model = convert(&net, Base2Kernel::paper_default(), 24).expect("conversion");
        let x = Tensor::from_vec(xs[..batch * 2 * 36].to_vec(), &[batch, 2, 6, 6]).expect("sized");

        let config = QuantConfig {
            base: LogBase::new(base_z),
            bits,
            ..QuantConfig::default()
        };
        // Ground truth: the reference simulator over per-layer-quantized
        // weights (same calibration the engine's compiler performs).
        let (qmodel, _) = quantize_model(&model, config.base, config.bits).expect("quantize");
        let (event_logits, event_stats) = EventSnn::new(&qmodel).run(&x).expect("event run");

        let quant = QuantEngine::compile(&model, &[2, 6, 6], config).expect("quant compile");
        for chunk in [1, lanes, batch + 1] {
            let engine = quant.clone().with_max_lanes(chunk);
            let (logits, stats) = engine.run_batch(&x).expect("quant run");
            prop_assert_eq!(
                logits.as_slice(),
                event_logits.as_slice(),
                "bits {} base z={} chunk {}",
                bits,
                base_z,
                chunk
            );
            prop_assert_eq!(&stats, &event_stats, "stats at chunk {}", chunk);
        }
    }
}

proptest! {
    // Fewer cases: each one spins up real threads and sleeps between
    // submissions to randomize how arrivals group into batches.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Streamed logits are bit-identical to the reference event simulator
    /// run once over the whole batch, for every arrival order,
    /// inter-arrival gap, thread count, batcher configuration AND
    /// per-request scheduling options — EDF may reorder batch assembly by
    /// (deadline, priority), but grouping and ordering must never change
    /// results.
    #[test]
    fn streaming_matches_closed_batches(
        seed in 0u64..256,
        threads in 1usize..4,
        max_batch in 1usize..7,
        delay_us in 0u64..2_000,
        gap_us in 0u64..300,
        // Values past 3000 µs stand in for "no explicit deadline" (the
        // vendored proptest shim has no option strategy).
        request_deadlines_us in proptest::collection::vec(0u64..4_000, 10),
        priorities in proptest::collection::vec(0u8..4, 10),
        xs in proptest::collection::vec(0.0f32..1.0, 10 * 8),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Sequential::new(vec![
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(8, 6, &mut rng)),
            Layer::Activation(ActivationLayer::new(Box::new(Relu))),
            Layer::Dense(DenseLayer::new(6, 3, &mut rng)),
        ]);
        let model = convert(&net, Base2Kernel::paper_default(), 24).expect("conversion");
        let n = 10usize;
        let x = Tensor::from_vec(xs, &[n, 1, 2, 4]).expect("sized");

        // Closed-batch ground truth: the oracle over the whole batch.
        let closed = EventSnn::new(&model).run(&x).expect("event run").0;

        // Stream the same images one at a time, in a random order, with
        // random inter-arrival gaps.
        let server = StreamingServer::new(
            Arc::new(CsrEngine::compile(&model, &[1, 2, 4]).expect("compile")),
            StreamingConfig {
                threads,
                max_batch,
                max_delay: Duration::from_micros(delay_us),
                max_pending: 0,
                brownout: None,
            },
        );
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let sample_len = 8usize;
        let mut tickets: Vec<(usize, Ticket)> = Vec::with_capacity(n);
        for &i in &order {
            let image = Tensor::from_vec(
                x.as_slice()[i * sample_len..(i + 1) * sample_len].to_vec(),
                &[1, 2, 4],
            )
            .expect("sample");
            // Random per-request scheduling: some requests inherit the
            // server default (None), others carry their own EDF deadline
            // and priority.
            let options = SubmitOptions {
                deadline: match request_deadlines_us[i] {
                    us if us < 3_000 => Some(Duration::from_micros(us)),
                    _ => None, // inherit the server's max_delay
                },
                priority: priorities[i],
                trace: None,
            };
            tickets.push((i, server.submit_with(&image, options).expect("submit")));
            if gap_us > 0 {
                std::thread::sleep(Duration::from_micros(gap_us));
            }
        }
        let mut rows: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        for (i, ticket) in tickets {
            rows[i] = Some(ticket.wait().expect("streamed result").logits);
        }
        let metrics = server.shutdown();
        prop_assert_eq!(metrics.requests, n as u64);
        prop_assert!(metrics.max_batch_occupancy as usize <= max_batch);
        for (i, row) in rows.into_iter().enumerate() {
            let row = row.expect("every index answered");
            prop_assert_eq!(
                row.as_slice(),
                &closed.as_slice()[i * 3..(i + 1) * 3],
                "streamed row {} must be bit-identical to the oracle's batch",
                i
            );
        }
    }
}

/// The degenerate all-zero input: no spikes anywhere, logits are pure bias
/// propagation, and every backend agrees with the reference exactly.
#[test]
fn all_zero_input_equivalence() {
    let mut rng = StdRng::seed_from_u64(123);
    let net = Sequential::new(vec![
        Layer::Conv2d(Conv2dLayer::new(Conv2dSpec::new(1, 3, 3, 1, 1), &mut rng)),
        Layer::Activation(ActivationLayer::new(Box::new(Relu))),
        Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
        Layer::Flatten(Flatten::new()),
        Layer::Dense(DenseLayer::new(3 * 3 * 3, 4, &mut rng)),
    ]);
    let model = convert(&net, Base2Kernel::paper_default(), 24).unwrap();
    let x = Tensor::zeros(&[3, 1, 6, 6]);

    let (event_logits, event_stats) = EventSnn::new(&model).run(&x).unwrap();
    let csr = CsrEngine::compile(&model, &[1, 6, 6]).unwrap();
    let (csr_logits, csr_stats) = csr.run_batch(&x).unwrap();
    let reference = model.reference_forward(&x).unwrap();

    assert_eq!(csr_stats.layers[0].input_spikes, 0, "no input spikes");
    assert_eq!(event_stats, csr_stats);
    assert_eq!(event_logits.as_slice(), csr_logits.as_slice());
    assert!(
        csr_logits.allclose(&reference, 1e-6),
        "pure bias propagation"
    );

    // And one image at a time through the streaming server.
    let server = StreamingServer::new(
        Arc::new(csr),
        StreamingConfig {
            threads: 2,
            ..StreamingConfig::default()
        },
    );
    let tickets: Vec<Ticket> = (0..3)
        .map(|_| server.submit(&Tensor::zeros(&[1, 6, 6])).unwrap())
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let row = ticket.wait().unwrap().logits;
        assert_eq!(row.as_slice(), &event_logits.as_slice()[i * 4..(i + 1) * 4]);
    }
}

fn conv(in_c: usize, out_c: usize, k: usize, stride: usize, pad: usize, rng: &mut StdRng) -> Layer {
    Layer::Conv2d(Conv2dLayer::new(
        Conv2dSpec::new(in_c, out_c, k, stride, pad),
        rng,
    ))
}

fn relu() -> Layer {
    Layer::Activation(ActivationLayer::new(Box::new(Relu)))
}

/// `engine_at(lanes)` must equal `EventSnn` over `oracle` — logits and
/// `RunStats` — at 1, 3 and 8 lanes, and spikes must reach the readout.
fn assert_equals_event<B: InferenceBackend>(
    what: &str,
    oracle: &SnnModel,
    x: &Tensor,
    engine_at: impl Fn(usize) -> B,
) {
    let (want_logits, want_stats) = EventSnn::new(oracle).run(x).expect(what);
    let reached = want_stats.layers.last().expect("weighted layers");
    assert!(
        reached.input_spikes > 0,
        "{what}: no spike reached the readout"
    );
    for lanes in [1usize, 3, 8] {
        let (logits, stats) = engine_at(lanes).run_batch(x).expect(what);
        assert_eq!(
            logits.as_slice(),
            want_logits.as_slice(),
            "{what} at {lanes} lanes"
        );
        assert_eq!(stats, want_stats, "{what} at {lanes} lanes");
    }
}

/// One network of [`layouts_and_pooling_chains_off_the_vgg_path_agree`]:
/// name, input dims, layers, converted layers kept (`convert` only takes
/// dense classifiers, so the conv readout drops its dense tail) and the
/// fire window.
type OffPathCase = (&'static str, [usize; 3], Vec<Layer>, usize, u32);

/// The channel-last membrane layout, the merged kernel-row runs, the
/// fixed-width full-pattern kernel at every width it is built for (OC 8 to
/// 64, and OC 6, which it is not), the step planes and the pooling on
/// them, exercised where VGG never goes:
/// stride-2 conv, padding 0, k = 5, non-square inputs, odd `OC`, a conv
/// **readout** (channel-last cells → neuron-order logits), `AvgPool →
/// Conv`, overlapping `AvgPool → MaxPool` (scaled, duplicated spikes
/// scattered into a step plane and a scale plane), conv into an
/// overlapping `MaxPool(3, 2)`, `MaxPool → MaxPool` (plane to plane
/// twice), `MaxPool` as the first stage (the input plane is not
/// channel-last), and a window of 41 steps. At 1, 3 and 8 lanes,
/// `CsrEngine` and `QuantEngine` in both decode modes must equal
/// `EventSnn` over the same weights in logits **and** `RunStats`.
#[test]
fn layouts_and_pooling_chains_off_the_vgg_path_agree() {
    let mut rng = StdRng::seed_from_u64(0xC1A5);
    let r = &mut rng;
    let cases: Vec<OffPathCase> = vec![
        (
            "k5 stride-2 pad-0 conv, odd OC, non-square input",
            [2, 11, 9],
            vec![
                conv(2, 3, 5, 2, 0, r),
                relu(),
                Layer::Flatten(Flatten::new()),
                Layer::Dense(DenseLayer::new(3 * 4 * 3, 4, r)),
            ],
            usize::MAX,
            24,
        ),
        (
            "conv readout",
            [1, 6, 5],
            vec![
                conv(1, 3, 3, 1, 1, r),
                relu(),
                conv(3, 5, 3, 1, 0, r),
                relu(),
                Layer::Flatten(Flatten::new()),
                Layer::Dense(DenseLayer::new(5 * 4 * 3, 2, r)),
            ],
            2,
            24,
        ),
        (
            "avg-pool into conv",
            [2, 8, 6],
            vec![
                conv(2, 3, 3, 1, 1, r),
                relu(),
                Layer::AvgPool2d(AvgPool2dLayer::new(2, 2)),
                conv(3, 4, 3, 1, 1, r),
                relu(),
                Layer::Flatten(Flatten::new()),
                Layer::Dense(DenseLayer::new(4 * 4 * 3, 3, r)),
            ],
            usize::MAX,
            24,
        ),
        (
            "overlapping avg-pool into max-pool",
            [1, 8, 8],
            vec![
                conv(1, 5, 3, 1, 1, r),
                relu(),
                Layer::AvgPool2d(AvgPool2dLayer::new(2, 1)),
                Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
                Layer::Flatten(Flatten::new()),
                Layer::Dense(DenseLayer::new(5 * 3 * 3, 4, r)),
            ],
            usize::MAX,
            24,
        ),
        (
            "conv into overlapping max-pool",
            [2, 9, 9],
            vec![
                conv(2, 4, 3, 1, 1, r),
                relu(),
                Layer::MaxPool2d(MaxPool2dLayer::new(3, 2)),
                Layer::Flatten(Flatten::new()),
                Layer::Dense(DenseLayer::new(4 * 4 * 4, 3, r)),
            ],
            usize::MAX,
            24,
        ),
        (
            "max-pool into max-pool",
            [1, 12, 12],
            vec![
                conv(1, 3, 3, 1, 1, r),
                relu(),
                Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
                Layer::MaxPool2d(MaxPool2dLayer::new(3, 1)),
                Layer::Flatten(Flatten::new()),
                Layer::Dense(DenseLayer::new(3 * 4 * 4, 4, r)),
            ],
            usize::MAX,
            24,
        ),
        (
            "max-pool as the first stage",
            [2, 8, 8],
            vec![
                Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
                conv(2, 3, 3, 1, 1, r),
                relu(),
                Layer::Flatten(Flatten::new()),
                Layer::Dense(DenseLayer::new(3 * 4 * 4, 3, r)),
            ],
            usize::MAX,
            24,
        ),
        (
            "window of 41 steps",
            [2, 6, 6],
            vec![
                conv(2, 4, 3, 1, 1, r),
                relu(),
                Layer::MaxPool2d(MaxPool2dLayer::new(2, 2)),
                Layer::Flatten(Flatten::new()),
                Layer::Dense(DenseLayer::new(4 * 3 * 3, 3, r)),
            ],
            usize::MAX,
            41,
        ),
    ];
    // Each width through a 3×3 same conv (interior pixels take the full
    // pattern) and a 5×5 one (the run loop alone).
    let widths: [(&'static str, usize, usize); 10] = [
        ("3x3 conv, OC 6", 6, 3),
        ("3x3 conv, OC 8", 8, 3),
        ("3x3 conv, OC 16", 16, 3),
        ("3x3 conv, OC 32", 32, 3),
        ("3x3 conv, OC 64", 64, 3),
        ("5x5 conv, OC 6", 6, 5),
        ("5x5 conv, OC 8", 8, 5),
        ("5x5 conv, OC 16", 16, 5),
        ("5x5 conv, OC 32", 32, 5),
        ("5x5 conv, OC 64", 64, 5),
    ];
    let cases = cases.into_iter().chain(widths.map(|(name, oc, k)| {
        let layers = vec![
            conv(2, oc, k, 1, k / 2, r),
            relu(),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(DenseLayer::new(oc * 6 * 6, 3, r)),
        ];
        (name, [2, 6, 6], layers, usize::MAX, 24)
    }));
    for (name, dims, layers, keep, window) in cases {
        let kernel = Base2Kernel::paper_default();
        let model = convert(&Sequential::new(layers), kernel, window).expect(name);
        let kept = model.layers().iter().take(keep).cloned().collect();
        let model = SnnModel::from_parts(kept, kernel, window);
        let x = ttfs_snn::tensor::uniform(&[8, dims[0], dims[1], dims[2]], 0.0, 1.0, &mut rng);
        let config = QuantConfig::default();
        let shift_add = QuantEngine::compile(
            &model,
            &dims,
            QuantConfig {
                mode: DecodeMode::ShiftAdd,
                ..config
            },
        )
        .expect(name);
        let lut = shift_add.clone().with_mode(DecodeMode::Lut).expect(name);
        // The shift-add oracle: the reference simulator over every weight
        // as that datapath reconstructs it.
        let mut shift_add_model = model.clone();
        let mut tables = shift_add.compiled().layers().iter();
        for layer in shift_add_model.layers_mut() {
            let (SnnLayer::Conv { weight, .. } | SnnLayer::Dense { weight, .. }) = layer else {
                continue;
            };
            let table = tables.next().expect("one table per weighted layer");
            let decoded = table
                .shift_add_lut
                .as_ref()
                .expect("tau = 4 is co-designed");
            for w in weight.as_mut_slice() {
                *w = decoded[table.quantizer.encode_packed(*w) as usize];
            }
        }
        let (lut_model, _) = quantize_model(&model, config.base, config.bits).expect(name);
        let csr = CsrEngine::compile(&model, &dims).expect(name);
        assert_equals_event(&format!("{name}: csr"), &model, &x, |lanes| {
            csr.clone().with_max_lanes(lanes)
        });
        assert_equals_event(&format!("{name}: quant lut"), &lut_model, &x, |lanes| {
            lut.clone().with_max_lanes(lanes)
        });
        assert_equals_event(
            &format!("{name}: quant shift-add"),
            &shift_add_model,
            &x,
            |lanes| shift_add.clone().with_max_lanes(lanes),
        );
    }
}

/// FNV-1a over the bit patterns of `logits`, in order.
fn fnv1a(logits: &[f32]) -> u64 {
    logits
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The benchmark's VGG-16 at `1/width_div` width: weights from seed 7,
/// 3×32×32 input, T = 24, readout normalised on a seeded calibration
/// batch.
fn bench_vgg(width_div: usize) -> SnnModel {
    let mut rng = StdRng::seed_from_u64(7);
    let net = ttfs_snn::nn::models::vgg16_scaled(32, 10, width_div, &mut rng);
    let mut model = convert(&net, Base2Kernel::paper_default(), 24).expect("vgg conversion");
    let calib = ttfs_snn::tensor::uniform(&[8, 3, 32, 32], 0.0, 1.0, &mut rng);
    ttfs_snn::ttfs::normalize_output_layer(&mut model, &calib).expect("normalisation");
    model
}

/// The served geometry end to end, at whatever ISA level this test is
/// built for: VGG-16/w16 through `CsrEngine` at 1 and 8 lanes and its w8
/// twin through `QuantEngine` (LUT) must equal `EventSnn` over the same
/// weights, and their logits must hash to the values every earlier build
/// produced — so a baseline (SSE2) build and an x86-64-v3 build are held
/// to the same bits, not only to their own `EventSnn`.
#[test]
fn vgg16_logits_are_pinned_at_every_isa_level() {
    let dims = [3usize, 32, 32];
    let mut rng = StdRng::seed_from_u64(0x7E57);
    let x = ttfs_snn::tensor::uniform(&[3, 3, 32, 32], 0.0, 1.0, &mut rng);

    let w16 = bench_vgg(16);
    let (want, want_stats) = EventSnn::new(&w16).run(&x).expect("event w16");
    let csr = CsrEngine::compile(&w16, &dims).expect("csr w16");
    for lanes in [1usize, 8] {
        let (logits, stats) = csr
            .clone()
            .with_max_lanes(lanes)
            .run_batch(&x)
            .expect("csr");
        assert_eq!(logits.as_slice(), want.as_slice(), "w16 at {lanes} lanes");
        assert_eq!(stats, want_stats, "w16 at {lanes} lanes");
    }

    let w8 = bench_vgg(8);
    let config = QuantConfig::default();
    let (quantised, _) = quantize_model(&w8, config.base, config.bits).expect("quantise");
    let (want_q, want_q_stats) = EventSnn::new(&quantised).run(&x).expect("event w8");
    let quant = QuantEngine::compile(&w8, &dims, config).expect("quant w8");
    let (logits, stats) = quant.run_batch(&x).expect("quant");
    assert_eq!(logits.as_slice(), want_q.as_slice(), "w8 quant");
    assert_eq!(stats, want_q_stats, "w8 quant");

    assert!(want_stats.layers.last().expect("readout").input_spikes > 0);
    assert!(want_q_stats.layers.last().expect("readout").input_spikes > 0);
    assert_eq!(
        fnv1a(want.as_slice()),
        0x7182_2c75_6490_4086,
        "w16 logits moved"
    );
    assert_eq!(
        fnv1a(want_q.as_slice()),
        0xc19f_869e_ea7b_3890,
        "w8 quant logits moved"
    );
}
