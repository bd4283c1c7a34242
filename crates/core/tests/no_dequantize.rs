//! The zero-dequantize serving contract.
//!
//! This integration test lives alone in its own binary (its own process) on
//! purpose: it asserts on the process-wide
//! [`disthd_hd::quantize::dequantize_calls`] counter, and sharing a test
//! binary with any test that legitimately dequantizes (robustness studies,
//! round-trip tests) would race the counter.

use disthd::{DeployedModel, DistHd, DistHdConfig, ErrorFeedbackQuantizer, StreamConfig};
use disthd_datasets::suite::{PaperDataset, SuiteConfig};
use disthd_eval::Classifier;
use disthd_hd::quantize::{dequantize_calls, BitWidth, QuantizedMatrix};
use disthd_linalg::{Matrix, RngSeed, SeededRng};

/// Construct, hot-swap, fault injection, single predict, batched predict,
/// fully-integer batched predict, decision scores, quantization-aware
/// streaming, persistence round-trip: none of it may reconstruct an `f32`
/// class matrix, at any storage width.
#[test]
fn serving_path_performs_zero_dequantize_calls() {
    let data = PaperDataset::Diabetes
        .generate(&SuiteConfig::at_scale(0.002))
        .expect("dataset");
    let mut model = DistHd::new(
        DistHdConfig {
            dim: 256,
            epochs: 6,
            ..Default::default()
        },
        data.train.feature_dim(),
        data.train.class_count(),
    );
    model.fit(&data.train, None).expect("fit");

    let before = dequantize_calls();
    for width in BitWidth::all() {
        let mut deployed = DeployedModel::freeze(&model, width).expect("freeze");

        // Predict: single, batched, and raw scores.
        for i in 0..data.test.len().min(20) {
            deployed.predict(data.test.sample(i)).expect("predict");
            deployed
                .decision_scores(data.test.sample(i))
                .expect("scores");
        }
        let rows: Vec<usize> = (0..data.test.len().min(20)).collect();
        let query_batch = data.test.features().select_rows(&rows);
        deployed.predict_batch(&query_batch).expect("predict_batch");

        // The end-to-end integer path: fused quantized encode straight
        // into XOR/popcount (1-bit) or exact integer dots.
        deployed
            .predict_quantized_batch(&query_batch)
            .expect("predict_quantized_batch");

        // Hot-swap a requantized memory (the online-learning refresh path).
        let requantized =
            QuantizedMatrix::quantize(model.class_model().expect("fitted").classes(), width);
        deployed.swap_class_memory(requantized).expect("swap");
        deployed.predict(data.test.sample(0)).expect("post-swap");

        // Quantization-aware streaming: partial_fit with error feedback
        // re-emits packed snapshots that hot-swap into the deployment,
        // and the residual bookkeeping decodes straight off the packed
        // words — never through dequantize().
        let mut learner = model.clone();
        let mut feedback = ErrorFeedbackQuantizer::new(width);
        let stream_cfg = StreamConfig {
            window: 64,
            regen_every: 0,
            warmup: 0,
        };
        for start in (0..data.train.len().min(48)).step_by(16) {
            let idx: Vec<usize> = (start..(start + 16).min(data.train.len())).collect();
            let batch = data.train.select(&idx);
            let (_, snapshot) = learner
                .partial_fit_quantized(&batch, &stream_cfg, &mut feedback)
                .expect("partial_fit_quantized");
            deployed.swap_class_memory(snapshot).expect("stream swap");
            deployed
                .predict_quantized_batch(&query_batch)
                .expect("post-stream-swap predict");
        }

        // Fault injection reads/writes the packed words in place.
        let mut rng = SeededRng::new(RngSeed(3));
        deployed.inject_faults(0.01, &mut rng);
        deployed.predict(data.test.sample(0)).expect("post-fault");

        // Persistence round-trip rebuilds a deployment from parts.
        let mut bytes = Vec::new();
        disthd::io::save_deployed(&deployed, &mut bytes).expect("save");
        let restored = disthd::io::load_deployed(bytes.as_slice()).expect("load");
        restored.predict(data.test.sample(0)).expect("restored");

        // Width checks don't dequantize either.
        assert_eq!(deployed.width(), width);
        let _ = deployed.memory_bits();
    }
    assert_eq!(
        dequantize_calls(),
        before,
        "the serving path must never call QuantizedMatrix::dequantize"
    );

    // Sanity: the counter is live in this process (so the assertion above
    // is not vacuous).
    let _ = QuantizedMatrix::quantize(
        &Matrix::from_rows(&[vec![1.0, -1.0]]).unwrap(),
        BitWidth::B8,
    )
    .dequantize();
    assert_eq!(dequantize_calls(), before + 1);
}
