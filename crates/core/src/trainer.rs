use crate::config::DistHdConfig;
use crate::distance::select_undesired_dims;
use crate::top2::categorize_batch;
use disthd_datasets::Dataset;
use disthd_eval::{Classifier, EpochRecord, ModelError, TrainingHistory};
use disthd_hd::center::EncodingCenter;
use disthd_hd::encoder::{AnyRbfEncoder, Encoder, RegenerativeEncoder};
use disthd_hd::learn::{adaptive_epoch, bundle_init};
use disthd_hd::ClassModel;
use disthd_linalg::SeededRng;
use std::time::Instant;

/// Summary of a completed [`DistHd::fit`] run.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Per-epoch accuracy/time trace.
    pub history: TrainingHistory,
    /// Number of regeneration steps that actually dropped dimensions.
    pub regen_events: usize,
    /// Total dimensions regenerated across the run.
    pub regenerated_dims: u64,
    /// Effective dimensionality `D* = D + Σ regenerated` (§IV-B) — what a
    /// static encoder would have needed to see as many distinct
    /// projections.
    pub effective_dim: f64,
}

/// The DistHD classifier: adaptive learning + top-2 classification +
/// learner-aware dimension regeneration.
///
/// See the [crate docs](crate) for the algorithm walk-through and
/// `DESIGN.md` for fidelity notes.
///
/// # Example
///
/// ```
/// use disthd::{DistHd, DistHdConfig};
/// use disthd_datasets::suite::{PaperDataset, SuiteConfig};
/// use disthd_eval::Classifier;
///
/// let data = PaperDataset::Diabetes.generate(&SuiteConfig::at_scale(0.001))?;
/// let mut model = DistHd::new(
///     DistHdConfig { dim: 256, epochs: 6, ..Default::default() },
///     data.train.feature_dim(),
///     data.train.class_count(),
/// );
/// model.fit(&data.train, None)?;
/// let report = model.last_report().expect("fitted");
/// assert!(report.effective_dim >= 256.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DistHd {
    pub(crate) config: DistHdConfig,
    pub(crate) encoder: AnyRbfEncoder,
    pub(crate) model: Option<ClassModel>,
    pub(crate) center: Option<EncodingCenter>,
    pub(crate) class_count: usize,
    pub(crate) last_report: Option<FitReport>,
    /// Sliding-window state of the online [`DistHd::partial_fit`] path
    /// (see [`crate::stream`]); `None` until the first streamed batch.
    pub(crate) stream: Option<crate::stream::StreamState>,
    /// Fixed-point accumulator of the exact shard-merge path (see
    /// [`crate::merge`]); `None` unless trained via [`DistHd::fit_shard`].
    pub(crate) shard: Option<crate::merge::ShardState>,
}

impl DistHd {
    /// Creates an untrained DistHD model for `feature_dim` inputs and
    /// `class_count` classes.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`DistHdConfig::validate`]).
    pub fn new(config: DistHdConfig, feature_dim: usize, class_count: usize) -> Self {
        config.validate();
        let mut encoder =
            AnyRbfEncoder::new(config.encoder_backend, feature_dim, config.dim, config.seed);
        // Applied to the live encoder only (never persisted); a no-op on
        // the dense backend.
        encoder.set_fht_schedule(config.fht_schedule);
        Self {
            config,
            encoder,
            model: None,
            center: None,
            class_count,
            last_report: None,
            stream: None,
            shard: None,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DistHdConfig {
        &self.config
    }

    /// Borrows the (regenerative) encoder.
    pub fn encoder(&self) -> &AnyRbfEncoder {
        &self.encoder
    }

    /// Borrows the trained class model, if fitted.
    pub fn class_model(&self) -> Option<&ClassModel> {
        self.model.as_ref()
    }

    /// Mutably borrows the trained class model, if fitted (robustness
    /// harness access).
    pub fn class_model_mut(&mut self) -> Option<&mut ClassModel> {
        self.model.as_mut()
    }

    /// Replaces the class model (e.g. with a dequantized faulted copy).
    pub fn set_class_model(&mut self, model: ClassModel) {
        self.model = Some(model);
    }

    /// Report of the most recent `fit`, if any.
    pub fn last_report(&self) -> Option<&FitReport> {
        self.last_report.as_ref()
    }

    /// Borrows the encoding center fitted during training, if fitted.
    pub fn center(&self) -> Option<&EncodingCenter> {
        self.center.as_ref()
    }

    /// Per-class similarity scores for one input — the ranking scores used
    /// for ROC analysis (Fig. 6) and top-k accuracy (Fig. 2(b)).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotFitted`] before `fit`, or a shape error for
    /// a wrong-length input.
    pub fn decision_scores(&mut self, features: &[f32]) -> Result<Vec<f32>, ModelError> {
        let model = self.model.as_mut().ok_or(ModelError::NotFitted)?;
        let center = self.center.as_ref().ok_or(ModelError::NotFitted)?;
        let mut encoded = self.encoder.encode(features)?;
        center.apply(&mut encoded);
        Ok(model.similarities(&encoded)?)
    }

    /// Encodes and centers a whole dataset with the trained encoder —
    /// used by the Fig. 8 robustness harness to pre-encode the test set
    /// once and then evaluate many faulted copies of the class model.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotFitted`] before `fit`, or a shape error for
    /// mismatched features.
    pub fn encode_dataset(&self, data: &Dataset) -> Result<disthd_linalg::Matrix, ModelError> {
        let center = self.center.as_ref().ok_or(ModelError::NotFitted)?;
        let mut encoded = self.encoder.encode_batch(data.features())?;
        center.apply_batch(&mut encoded);
        Ok(encoded)
    }

    fn eval_accuracy(
        &self,
        model: &mut ClassModel,
        center: &EncodingCenter,
        data: &Dataset,
    ) -> Result<f64, ModelError> {
        if data.is_empty() {
            return Ok(0.0);
        }
        let mut encoded = self.encoder.encode_batch(data.features())?;
        center.apply_batch(&mut encoded);
        let predictions = model.predict_batch(&encoded)?;
        let correct = predictions
            .iter()
            .enumerate()
            .filter(|&(i, &p)| p == data.label(i))
            .count();
        Ok(correct as f64 / data.len() as f64)
    }
}

/// Rejects a training set holding a NaN or infinite feature, naming the
/// first one.  Such a row encodes to non-finite values, and a single
/// update with it poisons every class it touches.
///
/// # Errors
///
/// Returns [`ModelError::Incompatible`] on the first non-finite feature.
pub(crate) fn ensure_finite(data: &Dataset) -> Result<(), ModelError> {
    let features = data.features();
    match features.as_slice().iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(i) => Err(ModelError::Incompatible(format!(
            "training feature at row {}, column {} is {}, features must be finite",
            i / features.cols(),
            i % features.cols(),
            features.as_slice()[i]
        ))),
    }
}

impl Classifier for DistHd {
    fn fit(
        &mut self,
        train: &Dataset,
        eval: Option<&Dataset>,
    ) -> Result<TrainingHistory, ModelError> {
        if train.feature_dim() != self.encoder.input_dim() {
            return Err(ModelError::Incompatible(format!(
                "expected {} features, dataset has {}",
                self.encoder.input_dim(),
                train.feature_dim()
            )));
        }
        if train.class_count() != self.class_count {
            return Err(ModelError::Incompatible(format!(
                "expected {} classes, dataset has {}",
                self.class_count,
                train.class_count()
            )));
        }
        if self.class_count < 2 {
            return Err(ModelError::Incompatible(
                "DistHD top-2 classification needs at least two classes".into(),
            ));
        }
        ensure_finite(train)?;

        let mut regen_rng = SeededRng::derive_stream(self.config.seed, 0xD157);
        let mut encoded = self.encoder.encode_batch(train.features())?;
        let mut center = EncodingCenter::fit_and_apply(&mut encoded);
        let mut model = ClassModel::new(self.class_count, self.config.dim);
        bundle_init(&mut model, &encoded, train.labels())?;

        let mut history = TrainingHistory::new();
        let mut regen_events = 0usize;
        let regen_baseline = self.encoder.regenerated_count();
        let mut best = 0.0f64;
        let mut stall = 0usize;

        for epoch in 0..self.config.epochs {
            let start = Instant::now();

            // (B/H) Adaptive learning over the encoded batch.
            let stats = adaptive_epoch(
                &mut model,
                &encoded,
                train.labels(),
                self.config.learning_rate,
            )?;

            // (I..Q) Top-2 classification + dimension regeneration.
            let is_regen_epoch = self.config.regen_interval > 0
                && (epoch + 1) % self.config.regen_interval == 0
                && epoch + 1 < self.config.epochs;
            if is_regen_epoch {
                let outcomes = categorize_batch(&mut model, &encoded, train.labels())?;
                let scores = select_undesired_dims(
                    &encoded,
                    train.labels(),
                    &outcomes,
                    model.classes(),
                    &self.config.weights,
                    self.config.regen_rate,
                );
                if !scores.undesired.is_empty() {
                    self.encoder.regenerate(&scores.undesired, &mut regen_rng);
                    model.reset_dimensions(&scores.undesired);
                    // Partial re-encode: only the regenerated columns
                    // change, and only they need re-centering and a fresh
                    // one-pass bundle (the warm start the rest of the model
                    // got from `bundle_init`; without it the new dimensions
                    // would stay near zero and regeneration would only
                    // shrink the model).
                    self.encoder.reencode_dims(
                        train.features(),
                        &mut encoded,
                        &scores.undesired,
                    )?;
                    center.refit_dims(&mut encoded, &scores.undesired);
                    model.bundle_dimensions(&encoded, train.labels(), &scores.undesired);
                    regen_events += 1;
                }
            }

            let eval_accuracy = match eval {
                Some(data) => Some(self.eval_accuracy(&mut model, &center, data)?),
                None => None,
            };
            history.push(EpochRecord {
                epoch,
                train_accuracy: stats.accuracy(),
                eval_accuracy,
                elapsed: start.elapsed(),
            });

            if let Some(patience) = self.config.patience {
                if stats.accuracy() > best + 1e-6 {
                    best = stats.accuracy();
                    stall = 0;
                } else {
                    stall += 1;
                    if stall >= patience {
                        break;
                    }
                }
            }
        }

        let regenerated_dims = self.encoder.regenerated_count() - regen_baseline;
        self.last_report = Some(FitReport {
            history: history.clone(),
            regen_events,
            regenerated_dims,
            effective_dim: self.config.dim as f64 + regenerated_dims as f64,
        });
        self.model = Some(model);
        self.center = Some(center);
        // A full batch fit supersedes any in-progress stream or shard
        // accumulator: both would reference the pre-fit encoder and must
        // not leak into later partial_fit / fit_shard calls.
        self.stream = None;
        self.shard = None;
        Ok(history)
    }

    fn predict_one(&mut self, features: &[f32]) -> Result<usize, ModelError> {
        let model = self.model.as_mut().ok_or(ModelError::NotFitted)?;
        let center = self.center.as_ref().ok_or(ModelError::NotFitted)?;
        let mut encoded = self.encoder.encode(features)?;
        center.apply(&mut encoded);
        Ok(model.predict(&encoded))
    }

    fn predict(&mut self, data: &Dataset) -> Result<Vec<usize>, ModelError> {
        if data.is_empty() {
            return Ok(Vec::new());
        }
        // Whole-test-set inference is one fused encode GEMM plus one
        // batched similarity GEMM — the path Fig. 5's latency panel times —
        // instead of per-sample encode/matvec round trips.
        let encoded = self.encode_dataset(data)?;
        let model = self.model.as_mut().ok_or(ModelError::NotFitted)?;
        Ok(model.predict_batch(&encoded)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disthd_datasets::suite::{PaperDataset, SuiteConfig};

    fn small_data() -> disthd_datasets::TrainTest {
        PaperDataset::Diabetes
            .generate(&SuiteConfig::at_scale(0.001))
            .unwrap()
    }

    fn config() -> DistHdConfig {
        DistHdConfig {
            dim: 256,
            epochs: 8,
            ..Default::default()
        }
    }

    /// Class memory and centering means as raw bits.
    fn state_bits(model: &DistHd) -> Vec<u32> {
        let classes = model.class_model().map(|m| m.classes().as_slice());
        let means = model.center().map(|c| c.means());
        classes
            .into_iter()
            .chain(means)
            .flatten()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn training_rejects_non_finite_features_and_names_them() {
        let data = small_data();
        let (features, classes) = (data.train.feature_dim(), data.train.class_count());
        let (row, col) = (data.train.len() / 2, features - 1);
        let expect_rejected = |result: Result<(), ModelError>| match result {
            Err(ModelError::Incompatible(msg)) => {
                assert!(msg.contains(&format!("row {row}, column {col}")), "{msg}")
            }
            other => panic!("expected a non-finite rejection, got {other:?}"),
        };
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut poisoned = data.train.clone();
            poisoned.features_mut().set(row, col, bad);

            let mut fitted = DistHd::new(config(), features, classes);
            expect_rejected(fitted.fit(&poisoned, None).map(drop));
            assert!(fitted.class_model().is_none());

            let mut sharded = DistHd::new(config(), features, classes);
            expect_rejected(sharded.fit_shard(&poisoned).map(drop));
            assert!(sharded.shard_report().is_none());

            // A rejected batch leaves a streaming model bit-unchanged: same
            // state now, and the same state after one more clean batch.
            let mut streamed = DistHd::new(config(), features, classes);
            streamed.partial_fit(&data.train).unwrap();
            let mut untouched = streamed.clone();
            expect_rejected(streamed.partial_fit(&poisoned).map(drop));
            assert_eq!(state_bits(&streamed), state_bits(&untouched));
            streamed.partial_fit(&data.train).unwrap();
            untouched.partial_fit(&data.train).unwrap();
            assert_eq!(state_bits(&streamed), state_bits(&untouched));
            assert_eq!(
                streamed.predict(&data.test).unwrap(),
                untouched.predict(&data.test).unwrap()
            );
        }
    }

    #[test]
    fn fit_beats_chance_and_regenerates() {
        let data = small_data();
        let mut model = DistHd::new(config(), data.train.feature_dim(), data.train.class_count());
        model.fit(&data.train, None).unwrap();
        let report = model.last_report().unwrap();
        assert!(report.regen_events >= 1, "regeneration should trigger");
        assert!(report.effective_dim > 256.0);
        let acc = model.accuracy(&data.test).unwrap();
        assert!(acc > 0.4, "accuracy {acc}");
    }

    #[test]
    fn regenerates_fewer_dims_than_the_full_budget() {
        // DistHD's intersection rule selects at most R%·D and usually far
        // fewer — this is its efficiency edge over NeuralHD.
        let data = small_data();
        let mut cfg = config();
        cfg.patience = None;
        cfg.epochs = 6;
        let mut model = DistHd::new(
            cfg.clone(),
            data.train.feature_dim(),
            data.train.class_count(),
        );
        model.fit(&data.train, None).unwrap();
        let report = model.last_report().unwrap();
        // Regeneration can fire at epochs where (e+1) % interval == 0 and
        // e+1 < epochs; each event selects at most R%·D dimensions.
        let regen_epochs = (1..cfg.epochs)
            .filter(|e| e % cfg.regen_interval == 0)
            .count() as u64;
        let full_budget = (cfg.dim as f64 * cfg.regen_rate).round() as u64 * regen_epochs;
        assert!(
            report.regenerated_dims <= full_budget,
            "regenerated {} should be <= budget {full_budget}",
            report.regenerated_dims
        );
        // The intersection rule should select strictly fewer than the full
        // per-event budget overall (its efficiency edge over NeuralHD).
        assert!(
            report.regenerated_dims < full_budget || full_budget == 0,
            "intersection rule never undershot the full budget"
        );
    }

    #[test]
    fn zero_interval_disables_regeneration() {
        let data = small_data();
        let mut cfg = config();
        cfg.regen_interval = 0;
        let mut model = DistHd::new(cfg, data.train.feature_dim(), data.train.class_count());
        model.fit(&data.train, None).unwrap();
        assert_eq!(model.last_report().unwrap().regen_events, 0);
    }

    #[test]
    fn predict_before_fit_errors() {
        let mut model = DistHd::new(config(), 49, 3);
        assert!(matches!(
            model.predict_one(&[0.0; 49]),
            Err(ModelError::NotFitted)
        ));
        assert!(matches!(
            model.decision_scores(&[0.0; 49]),
            Err(ModelError::NotFitted)
        ));
    }

    #[test]
    fn decision_scores_rank_the_predicted_class_first() {
        let data = small_data();
        let mut model = DistHd::new(config(), data.train.feature_dim(), data.train.class_count());
        model.fit(&data.train, None).unwrap();
        let x = data.test.sample(0);
        let predicted = model.predict_one(x).unwrap();
        let scores = model.decision_scores(x).unwrap();
        let argmax = disthd_linalg::argsort_descending(&scores)[0];
        assert_eq!(predicted, argmax);
    }

    #[test]
    fn single_queries_equal_their_batch_rows_on_a_dense_model() {
        // The dense single-row encode is a one-row GEMM, so `predict_one`
        // and `decision_scores` see bit for bit the encoded row that the
        // batched `predict` and `encode_dataset` compute.
        let data = small_data();
        let mut cfg = config();
        cfg.encoder_backend = disthd_hd::encoder::EncoderBackend::Dense;
        let mut model = DistHd::new(cfg, data.train.feature_dim(), data.train.class_count());
        model.fit(&data.train, None).unwrap();
        let batch = model.predict(&data.test).unwrap();
        let encoded = model.encode_dataset(&data.test).unwrap();
        let mut classes = model.class_model().unwrap().clone();
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        for (i, &class) in batch.iter().enumerate() {
            let x = data.test.sample(i);
            assert_eq!(model.predict_one(x).unwrap(), class, "sample {i}");
            assert_eq!(
                bits(model.decision_scores(x).unwrap()),
                bits(classes.similarities(encoded.row(i)).unwrap()),
                "sample {i}"
            );
        }
    }

    #[test]
    fn incompatible_dataset_rejected() {
        let data = small_data();
        let mut model = DistHd::new(config(), 7, 3);
        assert!(model.fit(&data.train, None).is_err());
        let mut one_class = DistHd::new(config(), 49, 1);
        assert!(one_class.fit(&data.train, None).is_err());
    }

    #[test]
    fn history_records_eval_when_requested() {
        let data = small_data();
        let mut model = DistHd::new(config(), data.train.feature_dim(), data.train.class_count());
        let history = model.fit(&data.train, Some(&data.test)).unwrap();
        assert!(history.records().iter().all(|r| r.eval_accuracy.is_some()));
    }

    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        // The whole training pipeline — encode GEMM, batched top-2,
        // Algorithm 2, regeneration — must produce the same model whether
        // the backend runs on 1, 2 or 8 threads.
        let data = small_data();
        let fit_with = |threads: usize| {
            disthd_linalg::parallel::with_thread_count(threads, || {
                let mut model =
                    DistHd::new(config(), data.train.feature_dim(), data.train.class_count());
                model.fit(&data.train, None).unwrap();
                let classes = model.class_model().unwrap().classes().clone();
                let predictions = model.predict(&data.test).unwrap();
                (classes, predictions)
            })
        };
        let (serial_classes, serial_predictions) = fit_with(1);
        for threads in [2usize, 8] {
            let (classes, predictions) = fit_with(threads);
            assert_eq!(
                serial_classes.as_slice(),
                classes.as_slice(),
                "class memory diverged at {threads} threads"
            );
            assert_eq!(
                serial_predictions, predictions,
                "predictions diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn fit_is_bit_identical_under_concurrent_pool_use() {
        // Two OS threads drive full fit + predict pipelines through the
        // shared worker pool *at the same time*, at every thread count.
        // Concurrent jobs interleave in the pool's queue, but chunk
        // partitions are fixed by shapes alone, so both submitters must
        // reproduce the serial model bit for bit.
        let data = small_data();
        let run = || {
            let mut model =
                DistHd::new(config(), data.train.feature_dim(), data.train.class_count());
            model.fit(&data.train, None).unwrap();
            let classes = model.class_model().unwrap().classes().clone();
            let predictions = model.predict(&data.test).unwrap();
            (classes, predictions)
        };
        let (serial_classes, serial_predictions) =
            disthd_linalg::parallel::with_thread_count(1, run);
        for threads in [2usize, 8] {
            disthd_linalg::parallel::with_thread_count(threads, || {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..2).map(|_| scope.spawn(run)).collect();
                    for handle in handles {
                        let (classes, predictions) = handle.join().expect("fit thread");
                        assert_eq!(
                            serial_classes.as_slice(),
                            classes.as_slice(),
                            "class memory diverged at {threads} threads under concurrency"
                        );
                        assert_eq!(
                            serial_predictions, predictions,
                            "predictions diverged at {threads} threads under concurrency"
                        );
                    }
                });
            });
        }
    }

    #[test]
    fn fit_is_reproducible_for_same_seed() {
        let data = small_data();
        let mut a = DistHd::new(config(), data.train.feature_dim(), data.train.class_count());
        let mut b = DistHd::new(config(), data.train.feature_dim(), data.train.class_count());
        a.fit(&data.train, None).unwrap();
        b.fit(&data.train, None).unwrap();
        let pa = a.predict(&data.test).unwrap();
        let pb = b.predict(&data.test).unwrap();
        assert_eq!(pa, pb);
    }
}
