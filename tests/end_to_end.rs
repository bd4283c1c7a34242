//! Cross-crate integration tests: the full generate → encode → train →
//! evaluate pipeline with every model in the zoo.

use disthd_repro::prelude::*;

fn diabetes() -> TrainTest {
    PaperDataset::Diabetes
        .generate(&SuiteConfig::at_scale(0.005))
        .expect("dataset generation")
}

#[test]
fn every_model_beats_chance_on_diabetes() {
    let data = diabetes();
    let chance = 1.0 / data.train.class_count() as f64;
    let n = data.train.feature_dim();
    let k = data.train.class_count();

    let mut models: Vec<(&str, Box<dyn Classifier>)> = vec![
        (
            "disthd",
            Box::new(DistHd::new(
                DistHdConfig {
                    dim: 500,
                    epochs: 10,
                    ..Default::default()
                },
                n,
                k,
            )),
        ),
        (
            "baseline_hd",
            Box::new(BaselineHd::new(
                BaselineHdConfig {
                    dim: 500,
                    epochs: 10,
                    ..Default::default()
                },
                n,
                k,
            )),
        ),
        (
            "neural_hd",
            Box::new(NeuralHd::new(
                NeuralHdConfig {
                    dim: 500,
                    epochs: 10,
                    ..Default::default()
                },
                n,
                k,
            )),
        ),
        (
            "mlp",
            Box::new(Mlp::new(
                MlpConfig {
                    hidden: vec![64],
                    epochs: 15,
                    learning_rate: 0.02,
                    ..Default::default()
                },
                n,
                k,
            )),
        ),
        ("svm", Box::new(LinearSvm::new(SvmConfig::default(), n, k))),
    ];

    for (name, model) in &mut models {
        model.fit(&data.train, None).expect("fit");
        let accuracy = model.accuracy(&data.test).expect("accuracy");
        assert!(
            accuracy > chance + 0.15,
            "{name}: accuracy {accuracy:.3} barely beats chance {chance:.3}"
        );
    }
}

#[test]
fn disthd_beats_static_baseline_at_low_dimensionality() {
    // The paper's central claim (Fig. 4): at the compressed D = 0.5k,
    // dynamic encoding recovers accuracy a static encoder leaves behind.
    // DIABETES-like data shows the largest gap in our suite.
    let data = PaperDataset::Diabetes
        .generate(&SuiteConfig::at_scale(0.01))
        .expect("dataset generation");
    let n = data.train.feature_dim();
    let k = data.train.class_count();

    let mut disthd = DistHd::new(
        DistHdConfig {
            dim: 500,
            epochs: 20,
            ..Default::default()
        },
        n,
        k,
    );
    disthd.fit(&data.train, None).expect("fit");
    let disthd_acc = disthd.accuracy(&data.test).expect("accuracy");

    let mut baseline = BaselineHd::new(
        BaselineHdConfig {
            dim: 500,
            epochs: 20,
            ..Default::default()
        },
        n,
        k,
    );
    baseline.fit(&data.train, None).expect("fit");
    let baseline_acc = baseline.accuracy(&data.test).expect("accuracy");

    assert!(
        disthd_acc > baseline_acc + 0.01,
        "DistHD ({disthd_acc:.3}) should beat BaselineHD@0.5k ({baseline_acc:.3})"
    );
}

#[test]
fn disthd_trains_faster_than_neuralhd() {
    // Fig. 5: partial re-encoding beats NeuralHD's full re-encode.
    let data = PaperDataset::Ucihar
        .generate(&SuiteConfig::at_scale(0.02))
        .expect("dataset generation");
    let n = data.train.feature_dim();
    let k = data.train.class_count();

    let mut disthd = DistHd::new(
        DistHdConfig {
            dim: 500,
            epochs: 15,
            patience: None,
            ..Default::default()
        },
        n,
        k,
    );
    let disthd_time = disthd_eval::time_it(|| disthd.fit(&data.train, None).expect("fit"));

    let mut neural = NeuralHd::new(
        NeuralHdConfig {
            dim: 500,
            epochs: 15,
            patience: None,
            regen_interval: 1,
            ..Default::default()
        },
        n,
        k,
    );
    let neural_time = disthd_eval::time_it(|| neural.fit(&data.train, None).expect("fit"));

    assert!(
        disthd_time.elapsed < neural_time.elapsed,
        "DistHD ({:?}) should train faster than NeuralHD ({:?})",
        disthd_time.elapsed,
        neural_time.elapsed
    );
}

#[test]
fn training_is_reproducible_across_model_instances() {
    let data = diabetes();
    let n = data.train.feature_dim();
    let k = data.train.class_count();
    let config = DistHdConfig {
        dim: 256,
        epochs: 8,
        seed: RngSeed(99),
        ..Default::default()
    };
    let mut a = DistHd::new(config.clone(), n, k);
    let mut b = DistHd::new(config, n, k);
    a.fit(&data.train, None).expect("fit");
    b.fit(&data.train, None).expect("fit");
    assert_eq!(
        a.predict(&data.test).expect("predict"),
        b.predict(&data.test).expect("predict")
    );
}

#[test]
fn dataset_round_trips_through_csv() {
    let data = diabetes();
    let mut buffer = Vec::new();
    disthd_datasets::csv::write_csv(&data.train, &mut buffer).expect("write");
    let restored =
        disthd_datasets::csv::read_csv(buffer.as_slice(), data.train.class_count()).expect("read");
    assert_eq!(restored.len(), data.train.len());
    assert_eq!(restored.labels(), data.train.labels());
    // A model trained on the round-tripped data behaves identically.
    let mut a = DistHd::new(
        DistHdConfig {
            dim: 128,
            epochs: 4,
            ..Default::default()
        },
        data.train.feature_dim(),
        data.train.class_count(),
    );
    let mut b = a.clone();
    a.fit(&data.train, None).expect("fit");
    b.fit(&restored, None).expect("fit");
    assert_eq!(
        a.predict(&data.test).expect("predict"),
        b.predict(&data.test).expect("predict")
    );
}

#[test]
fn quantized_disthd_model_survives_one_bit_deployment() {
    // Train, quantize the class model to 1 bit, and check accuracy stays
    // within a few points of the f32 model — the deployment path of Fig. 8.
    use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
    use disthd_hd::ClassModel;

    let data = PaperDataset::Ucihar
        .generate(&SuiteConfig::at_scale(0.02))
        .expect("dataset generation");
    let mut model = DistHd::new(
        DistHdConfig {
            dim: 1000,
            epochs: 15,
            ..Default::default()
        },
        data.train.feature_dim(),
        data.train.class_count(),
    );
    model.fit(&data.train, None).expect("fit");
    let clean = model.accuracy(&data.test).expect("accuracy");

    let encoded = model.encode_dataset(&data.test).expect("encode");
    let quantized =
        QuantizedMatrix::quantize(model.class_model().expect("fitted").classes(), BitWidth::B1);
    let mut deployed = ClassModel::from_matrix(quantized.dequantize());
    let correct = (0..encoded.rows())
        .filter(|&i| deployed.predict(encoded.row(i)) == data.test.label(i))
        .count();
    let deployed_acc = correct as f64 / data.test.len() as f64;
    // Sign quantization costs a few points at D = 1k (Fig. 8 regains the
    // rest at 4k); the deployment must stay far above chance and within a
    // modest band of the f32 model.
    assert!(
        deployed_acc > clean - 0.15,
        "1-bit deployment ({deployed_acc:.3}) lost too much vs f32 ({clean:.3})"
    );
    assert!(deployed_acc > 2.0 / data.test.class_count() as f64);
}

#[test]
fn histories_expose_convergence_information() {
    let data = diabetes();
    let mut model = DistHd::new(
        DistHdConfig {
            dim: 256,
            epochs: 10,
            patience: None,
            ..Default::default()
        },
        data.train.feature_dim(),
        data.train.class_count(),
    );
    let history = model.fit(&data.train, Some(&data.test)).expect("fit");
    assert_eq!(history.epochs(), 10);
    assert!(history.final_train_accuracy() > 0.5);
    assert!(history.best_eval_accuracy().expect("eval recorded") > 0.5);
    assert!(history.total_time().as_nanos() > 0);
}

#[test]
fn structured_backend_matches_dense_accuracy_on_isolet() {
    // The tentpole contract of the structured encoder: swapping the dense
    // O(F·D) GEMM encoder for the O(D log D) Walsh–Hadamard construction
    // is a speed knob, not an accuracy knob.  At D = 2048 on the ISOLET
    // substitute the two backends must land within two accuracy points of
    // each other (one point of fidelity plus slack for the small test
    // split).
    let data = PaperDataset::Isolet
        .generate(&SuiteConfig::at_scale(0.05))
        .expect("dataset generation");
    let fit_with = |backend: EncoderBackend| {
        let mut model = DistHd::new(
            DistHdConfig {
                dim: 2048,
                epochs: 6,
                patience: None,
                encoder_backend: backend,
                ..Default::default()
            },
            data.train.feature_dim(),
            data.train.class_count(),
        );
        model.fit(&data.train, None).expect("fit");
        model
    };
    let mut dense = fit_with(EncoderBackend::Dense);
    let mut structured = fit_with(EncoderBackend::Structured);
    let dense_acc = dense.accuracy(&data.test).expect("accuracy");
    let structured_acc = structured.accuracy(&data.test).expect("accuracy");
    assert!(
        (dense_acc - structured_acc).abs() <= 0.02,
        "backend accuracy gap too wide: dense {dense_acc:.4} vs structured {structured_acc:.4}"
    );
    assert!(
        structured_acc > 0.85,
        "structured accuracy {structured_acc:.4}"
    );

    // The frozen structured deployment serves through the batching server
    // exactly like the direct batch API: identical predictions at any
    // window.
    let deployed = disthd::DeployedModel::freeze(&structured, disthd_hd::quantize::BitWidth::B8)
        .expect("freeze");
    let queries = data
        .test
        .features()
        .select_rows(&(0..32).collect::<Vec<_>>());
    let expected = deployed.predict_batch(&queries).expect("predict");
    let server = Server::spawn(deployed, BatchPolicy::window(8));
    let client = server.client();
    let pending: Vec<_> = (0..queries.rows())
        .map(|r| client.submit(queries.row(r)).expect("submit"))
        .collect();
    let served: Vec<usize> = pending
        .into_iter()
        .map(|p| p.wait().expect("served"))
        .collect();
    assert_eq!(
        served, expected,
        "structured serving must be batch-invariant"
    );
    server.shutdown().expect("clean shutdown");
}

/// Remaps every sample to `new_f` features by cyclic repetition (or
/// truncation) of its real features, so feature widths the generator
/// does not emit (e.g. a non-power-of-two width that needs full padding)
/// still run end to end.
fn remap_feature_dim(data: &Dataset, new_f: usize) -> Dataset {
    let old_f = data.feature_dim();
    let features = Matrix::from_fn(data.len(), new_f, |r, c| data.sample(r)[c % old_f]);
    Dataset::new(features, data.labels().to_vec(), data.class_count()).expect("remapped dataset")
}

#[test]
fn structured_accuracy_is_within_one_point_of_dense_at_every_width() {
    // The structured encoder's fidelity bar at D = 4096: at the
    // ISOLET-native F = 617 and at a remapped
    // non-power-of-two F = 1000, it may not fall more than one accuracy
    // point below the dense encoder trained with the same
    // hyper-parameters.  The gap is directional — both encoders draw
    // different random features, so either may land ahead by luck; only
    // the structured encoder losing accuracy is a regression.  The bar
    // widens to the test split's resolution when the split is so small
    // that a couple of samples already exceed one point.
    let isolet = PaperDataset::Isolet
        .generate(&SuiteConfig::at_scale(0.05))
        .expect("dataset generation");
    for feature_dim in [617, 1000] {
        let train = remap_feature_dim(&isolet.train, feature_dim);
        let test = remap_feature_dim(&isolet.test, feature_dim);
        let tolerance = (2.5 / test.len() as f64).max(0.01);
        let accuracy_with = |encoder_backend: EncoderBackend| {
            let mut model = DistHd::new(
                DistHdConfig {
                    dim: 4096,
                    epochs: 6,
                    patience: None,
                    encoder_backend,
                    ..Default::default()
                },
                feature_dim,
                train.class_count(),
            );
            model.fit(&train, None).expect("fit");
            model.accuracy(&test).expect("accuracy")
        };
        let dense = accuracy_with(EncoderBackend::Dense);
        let structured = accuracy_with(EncoderBackend::Structured);
        assert!(
            dense - structured <= tolerance,
            "F = {feature_dim}: structured {structured:.4} fell more than {tolerance:.4} \
             below dense {dense:.4}"
        );
    }
}
