//! Online learning: [`DistHd::partial_fit`] over streaming mini-batches.
//!
//! The paper motivates dynamic encoding with on-device lifelong learning —
//! a deployed model that keeps adapting as labelled samples trickle in.
//! This module adds that request path.  Each [`DistHd::partial_fit`] call
//! consumes one labelled mini-batch:
//!
//! 1. **Encode** the batch with the current (regenerative) encoder.  The
//!    per-dimension centering is calibrated on the very first streamed
//!    batch and then held fixed, except for regenerated dimensions which
//!    are recalibrated from the window.
//! 2. **Warm start** — the first [`StreamConfig::warmup`] samples are also
//!    bundled into their class hypervector with unit weight, mirroring the
//!    `bundle_init` pass of a full [`disthd_eval::Classifier::fit`]
//!    (pure mistake-driven updates from a zero model oscillate; see
//!    `disthd_hd::learn`).
//! 3. **Prequential scoring + adaptive update** — the mini-batch is first
//!    predicted by the model as it stood at the start of the call
//!    (test-then-train at mini-batch granularity, so
//!    [`StreamStats::accuracy`] is an honest prequential measurement even
//!    during warmup), then trains it through Algorithm 1's
//!    similarity-weighted updates.
//! 4. **Sliding scored window** — the samples join a bounded window of the
//!    most recent [`StreamConfig::window`] samples.  Every
//!    [`StreamConfig::regen_every`] batches the window is re-encoded and
//!    Algorithm 2 runs on it: top-2 categorization, undesired-dimension
//!    scoring, regeneration of the intersection, partial re-encode,
//!    re-centering and one-pass re-bundling of the fresh dimensions — the
//!    same learner-aware loop as offline training, scoped to recent data.
//!
//! After any number of `partial_fit` calls the model answers `predict` /
//! `accuracy` queries as usual, and can be re-frozen with
//! [`crate::DeployedModel::freeze`] for a hot-swap into a live server (see
//! the `disthd_serve` crate).

use crate::distance::select_undesired_dims;
use crate::top2::categorize_batch;
use crate::trainer::DistHd;
use disthd_datasets::Dataset;
use disthd_eval::ModelError;
use disthd_hd::center::EncodingCenter;
use disthd_hd::encoder::{Encoder, RegenerativeEncoder};
use disthd_hd::learn::adaptive_epoch;
use disthd_hd::ClassModel;
use disthd_linalg::{Matrix, SeededRng};
use std::collections::VecDeque;

/// Knobs of the online [`DistHd::partial_fit`] path.
///
/// The defaults suit a steady stream of small mini-batches; tests and the
/// streamed-vs-offline regression use explicit values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Maximum number of recent samples retained in the sliding scored
    /// window that Algorithm 2 regenerates from.
    pub window: usize,
    /// Run the regeneration step every this many `partial_fit` calls
    /// (`0` disables regeneration — pure online adaptive learning).
    pub regen_every: usize,
    /// The first `warmup` streamed samples are additionally bundled into
    /// their class with unit weight (the streaming analogue of
    /// `bundle_init`).
    pub warmup: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            window: 1024,
            regen_every: 8,
            warmup: 512,
        }
    }
}

/// Outcome of one [`DistHd::partial_fit`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Samples consumed from the mini-batch.
    pub samples: usize,
    /// Samples mispredicted by the model as it stood at the start of the
    /// call, before any update from this mini-batch (test-then-train at
    /// mini-batch granularity).
    pub mistakes: usize,
    /// Dimensions regenerated by this call (0 on non-regeneration calls).
    pub regenerated_dims: usize,
}

impl StreamStats {
    /// Prequential accuracy of this mini-batch (`0.0` for an empty batch).
    pub fn accuracy(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        1.0 - self.mistakes as f64 / self.samples as f64
    }
}

/// Sliding-window state carried between `partial_fit` calls.
#[derive(Debug, Clone)]
pub(crate) struct StreamState {
    /// Raw feature rows of the window (needed to re-encode after
    /// regeneration replaces base vectors).
    features: VecDeque<Vec<f32>>,
    /// Labels aligned with `features`.
    labels: VecDeque<usize>,
    /// Mini-batches consumed so far (drives the regeneration cadence).
    batches: usize,
    /// Samples consumed so far (drives the warmup cutoff).
    samples_seen: usize,
    /// Dedicated RNG stream for online regeneration draws.
    rng: SeededRng,
}

impl StreamState {
    fn new(seed: disthd_linalg::RngSeed) -> Self {
        Self {
            features: VecDeque::new(),
            labels: VecDeque::new(),
            batches: 0,
            samples_seen: 0,
            rng: SeededRng::derive_stream(seed, 0x57EA),
        }
    }
}

impl DistHd {
    /// Consumes one labelled mini-batch with the default [`StreamConfig`].
    ///
    /// See [`DistHd::partial_fit_with`] and the [module docs](crate::stream)
    /// for the update pipeline.
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
    /// // Stream the training split in mini-batches instead of fitting once.
    /// for range in data.train.batch_ranges(16) {
    ///     let batch = data.train.select(&range.collect::<Vec<_>>());
    ///     let stats = model.partial_fit(&batch)?;
    ///     assert!(stats.samples > 0);
    /// }
    /// assert!(model.accuracy(&data.test)? > 1.0 / 3.0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`DistHd::partial_fit_with`].
    pub fn partial_fit(&mut self, batch: &Dataset) -> Result<StreamStats, ModelError> {
        self.partial_fit_with(batch, &StreamConfig::default())
    }

    /// Consumes one labelled mini-batch with explicit streaming knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Incompatible`] if the batch's feature arity or
    /// class count disagrees with the model or a feature is not finite (the
    /// model is then left unchanged), or a shape error from the encoding
    /// kernels.
    pub fn partial_fit_with(
        &mut self,
        batch: &Dataset,
        cfg: &StreamConfig,
    ) -> Result<StreamStats, ModelError> {
        if batch.feature_dim() != self.encoder.input_dim() {
            return Err(ModelError::Incompatible(format!(
                "expected {} features, mini-batch has {}",
                self.encoder.input_dim(),
                batch.feature_dim()
            )));
        }
        if batch.class_count() != self.class_count {
            return Err(ModelError::Incompatible(format!(
                "expected {} classes, mini-batch has {}",
                self.class_count,
                batch.class_count()
            )));
        }
        if self.class_count < 2 {
            return Err(ModelError::Incompatible(
                "DistHD top-2 classification needs at least two classes".into(),
            ));
        }
        crate::trainer::ensure_finite(batch)?;
        if batch.is_empty() {
            return Ok(StreamStats {
                samples: 0,
                mistakes: 0,
                regenerated_dims: 0,
            });
        }

        // 0. Pending regeneration fires *before* this batch is encoded, so
        //    regenerated dimensions always receive adaptive training from
        //    the ongoing stream.  (Regenerating after the last batch of a
        //    finite stream would leave fresh dimensions carrying only their
        //    one-pass bundle — the churn `fit` avoids by never regenerating
        //    on its final epoch.)  Each batch count fires at most once
        //    because the counter advances every call.
        let mut state = self
            .stream
            .take()
            .unwrap_or_else(|| StreamState::new(self.config.seed));
        let mut regenerated_dims = 0usize;
        if cfg.regen_every > 0 && state.batches > 0 && state.batches.is_multiple_of(cfg.regen_every)
        {
            regenerated_dims = self.regenerate_from_window(&mut state)?;
        }

        // 1. Encode with the current encoder; calibrate centering on the
        //    first streamed batch, then keep applying it.
        let mut encoded = self.encoder.encode_batch(batch.features())?;
        match &self.center {
            Some(center) => center.apply_batch(&mut encoded),
            None => self.center = Some(EncodingCenter::fit_and_apply(&mut encoded)),
        }
        if self.model.is_none() {
            self.model = Some(ClassModel::new(self.class_count, self.config.dim));
        }
        let model = self.model.as_mut().expect("initialized above");

        // 2. Prequential scoring: the whole mini-batch is predicted by the
        //    model as it stood at the start of the call, *before* any
        //    update from these samples — including the warmup bundle, which
        //    would otherwise let cold-start samples be scored by a model
        //    that already contains them.
        let predictions = model.predict_batch(&encoded)?;
        let mistakes = predictions
            .iter()
            .zip(batch.labels())
            .filter(|(p, l)| p != l)
            .count();

        // 3. Warm start: bundle the first `warmup` samples of the stream.
        for i in 0..batch.len() {
            if state.samples_seen + i < cfg.warmup {
                model.bundle_into(batch.label(i), encoded.row(i));
            }
        }

        // 4. Adaptive pass over the mini-batch (the learning rule; its
        //    internal sequential mistake count is not the reported metric).
        adaptive_epoch(model, &encoded, batch.labels(), self.config.learning_rate)?;

        // 5. Slide the scored window forward.
        for i in 0..batch.len() {
            state.features.push_back(batch.sample(i).to_vec());
            state.labels.push_back(batch.label(i));
        }
        while state.features.len() > cfg.window.max(1) {
            state.features.pop_front();
            state.labels.pop_front();
        }
        state.samples_seen += batch.len();
        state.batches += 1;
        self.stream = Some(state);

        Ok(StreamStats {
            samples: batch.len(),
            mistakes,
            regenerated_dims,
        })
    }

    /// Runs Algorithm 2 on the sliding window: categorize, score, and
    /// regenerate the undesired-dimension intersection.  Returns how many
    /// dimensions were regenerated.
    fn regenerate_from_window(&mut self, state: &mut StreamState) -> Result<usize, ModelError> {
        let refs: Vec<&[f32]> = state.features.iter().map(Vec::as_slice).collect();
        let window = Matrix::from_row_slices(self.encoder.input_dim(), &refs)?;
        let labels: Vec<usize> = state.labels.iter().copied().collect();
        let model = self.model.as_mut().expect("stream state implies a model");
        let center = self.center.as_mut().expect("stream state implies a center");

        // The window is re-encoded under the *current* encoder so the
        // distance matrices score today's dimensions, not a mixture of
        // encoder generations.
        let mut encoded = self.encoder.encode_batch(&window)?;
        center.apply_batch(&mut encoded);

        let outcomes = categorize_batch(model, &encoded, &labels)?;
        let scores = select_undesired_dims(
            &encoded,
            &labels,
            &outcomes,
            model.classes(),
            &self.config.weights,
            self.config.regen_rate,
        );
        if scores.undesired.is_empty() {
            return Ok(0);
        }

        self.encoder.regenerate(&scores.undesired, &mut state.rng);
        model.reset_dimensions(&scores.undesired);
        self.encoder
            .reencode_dims(&window, &mut encoded, &scores.undesired)?;
        center.refit_dims(&mut encoded, &scores.undesired);
        model.bundle_dimensions(&encoded, &labels, &scores.undesired);
        Ok(scores.undesired.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistHdConfig;
    use disthd_datasets::suite::{PaperDataset, SuiteConfig};
    use disthd_datasets::TrainTest;
    use disthd_eval::Classifier;

    fn mini_batches(data: &Dataset, batch: usize) -> Vec<Dataset> {
        data.batch_ranges(batch)
            .into_iter()
            .map(|r| data.select(&r.collect::<Vec<_>>()))
            .collect()
    }

    fn stream_train(
        model: &mut DistHd,
        train: &Dataset,
        cfg: &StreamConfig,
        passes: usize,
        batch: usize,
    ) {
        for _ in 0..passes {
            for b in mini_batches(train, batch) {
                model.partial_fit_with(&b, cfg).unwrap();
            }
        }
    }

    fn small(dataset: PaperDataset, scale: f64) -> TrainTest {
        dataset.generate(&SuiteConfig::at_scale(scale)).unwrap()
    }

    fn config(dim: usize, epochs: usize) -> DistHdConfig {
        DistHdConfig {
            dim,
            epochs,
            patience: None,
            ..Default::default()
        }
    }

    #[test]
    fn partial_fit_learns_and_regenerates() {
        let data = small(PaperDataset::Diabetes, 0.002);
        let mut model = DistHd::new(
            config(256, 8),
            data.train.feature_dim(),
            data.train.class_count(),
        );
        let cfg = StreamConfig {
            window: 256,
            regen_every: 4,
            warmup: data.train.len(),
        };
        let mut regenerated = 0usize;
        for _ in 0..4 {
            for b in mini_batches(&data.train, 32) {
                regenerated += model.partial_fit_with(&b, &cfg).unwrap().regenerated_dims;
            }
        }
        assert!(regenerated > 0, "streaming regeneration never fired");
        let acc = model.accuracy(&data.test).unwrap();
        assert!(acc > 0.4, "streamed accuracy {acc}");
    }

    #[test]
    fn partial_fit_regenerates_into_structured_reserve_lanes() {
        // Online regeneration on the structured backend must move the
        // regenerated dims to reserve lanes, keep the reserve within its
        // bound and keep learning — the streaming twin of the offline
        // regeneration test.
        let data = small(PaperDataset::Diabetes, 0.002);
        let mut cfg_model = config(256, 8);
        cfg_model.encoder_backend = disthd_hd::encoder::EncoderBackend::Structured;
        let mut model = DistHd::new(
            cfg_model,
            data.train.feature_dim(),
            data.train.class_count(),
        );
        let cfg = StreamConfig {
            window: 256,
            regen_every: 4,
            warmup: data.train.len(),
        };
        let mut regenerated = 0usize;
        for _ in 0..4 {
            for b in mini_batches(&data.train, 32) {
                regenerated += model.partial_fit_with(&b, &cfg).unwrap().regenerated_dims;
            }
        }
        assert!(regenerated > 0, "streaming regeneration never fired");
        let encoder = model.encoder().as_structured().expect("structured backend");
        let lanes = encoder.reserve_lanes();
        let owned = lanes
            .iter()
            .filter(|&&dim| dim != disthd_hd::encoder::StructuredRbfEncoder::FREE_LANE)
            .count();
        assert!(owned > 0, "regenerated dims own no reserve lane");
        assert!(owned <= regenerated);
        assert!(lanes.len() <= 2 * 256 + encoder.block_dim());
        let acc = model.accuracy(&data.test).unwrap();
        assert!(acc > 0.4, "streamed structured accuracy {acc}");
    }

    #[test]
    fn streamed_split_matches_full_batch_fit() {
        // The acceptance bar: streaming the training split through
        // partial_fit must land within one accuracy point of the offline
        // fit on at least two paper datasets.
        for (dataset, scale, dim, batch) in [
            (PaperDataset::Diabetes, 0.002, 256, 16),
            (PaperDataset::Pamap2, 0.005, 256, 16),
        ] {
            let data = small(dataset, scale);
            let epochs = 8;

            let mut offline = DistHd::new(
                config(dim, epochs),
                data.train.feature_dim(),
                data.train.class_count(),
            );
            offline.fit(&data.train, None).unwrap();
            let offline_acc = offline.accuracy(&data.test).unwrap();

            let mut streamed = DistHd::new(
                config(dim, epochs),
                data.train.feature_dim(),
                data.train.class_count(),
            );
            let batches_per_pass = data.train.len().div_ceil(batch);
            let cfg = StreamConfig {
                window: data.train.len(),
                // Fit regenerates every `regen_interval` epochs; match that
                // cadence in units of mini-batches.
                regen_every: batches_per_pass * streamed.config().regen_interval,
                warmup: data.train.len(),
            };
            stream_train(&mut streamed, &data.train, &cfg, epochs, batch);
            let streamed_acc = streamed.accuracy(&data.test).unwrap();

            assert!(
                streamed_acc >= offline_acc - 0.01,
                "{}: streamed {streamed_acc:.4} vs offline {offline_acc:.4}",
                dataset.name()
            );
        }
    }

    #[test]
    fn partial_fit_validates_input() {
        let data = small(PaperDataset::Diabetes, 0.001);
        let mut wrong_arity = DistHd::new(config(128, 4), 7, 3);
        assert!(matches!(
            wrong_arity.partial_fit(&data.train),
            Err(ModelError::Incompatible(_))
        ));
        let mut one_class = DistHd::new(config(128, 4), data.train.feature_dim(), 1);
        assert!(one_class.partial_fit(&data.train).is_err());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let data = small(PaperDataset::Diabetes, 0.001);
        let mut model = DistHd::new(
            config(128, 4),
            data.train.feature_dim(),
            data.train.class_count(),
        );
        let empty = data.train.select(&[]);
        let stats = model.partial_fit(&empty).unwrap();
        assert_eq!(stats.samples, 0);
        assert_eq!(stats.accuracy(), 0.0);
    }

    #[test]
    fn window_stays_bounded() {
        let data = small(PaperDataset::Diabetes, 0.002);
        let mut model = DistHd::new(
            config(128, 4),
            data.train.feature_dim(),
            data.train.class_count(),
        );
        let cfg = StreamConfig {
            window: 40,
            regen_every: 2,
            warmup: 16,
        };
        stream_train(&mut model, &data.train, &cfg, 2, 16);
        let state = model.stream.as_ref().unwrap();
        assert!(state.features.len() <= 40);
        assert_eq!(state.features.len(), state.labels.len());
    }

    #[test]
    fn fit_resets_stream_state() {
        let data = small(PaperDataset::Diabetes, 0.001);
        let mut model = DistHd::new(
            config(128, 4),
            data.train.feature_dim(),
            data.train.class_count(),
        );
        model.partial_fit(&data.train).unwrap();
        assert!(model.stream.is_some());
        model.fit(&data.train, None).unwrap();
        assert!(model.stream.is_none());
    }

    #[test]
    fn regen_every_zero_disables_regeneration() {
        let data = small(PaperDataset::Diabetes, 0.002);
        let mut model = DistHd::new(
            config(128, 4),
            data.train.feature_dim(),
            data.train.class_count(),
        );
        let cfg = StreamConfig {
            window: 128,
            regen_every: 0,
            warmup: 64,
        };
        let mut regenerated = 0;
        for b in mini_batches(&data.train, 16) {
            regenerated += model.partial_fit_with(&b, &cfg).unwrap().regenerated_dims;
        }
        assert_eq!(regenerated, 0);
        assert_eq!(model.encoder().regenerated_count(), 0);
    }
}
