//! Concept-drift stream generators over the synthetic suite.
//!
//! Every suite dataset is a *stationary* draw from a seeded class-conditional
//! manifold ([`ManifoldGenerator`]).  A drift stream instead interpolates
//! between **two** manifolds with the same spec (feature count, class count)
//! but different structure seeds — two genuinely different worlds that agree
//! on the label alphabet.  Three schedules cover the standard drift taxonomy:
//!
//! * [`DriftKind::Abrupt`] — concept A until the drift point, concept B after;
//! * [`DriftKind::Gradual`] — the probability of drawing from B ramps
//!   linearly from 0 to 1 over `width` samples after the drift point;
//! * [`DriftKind::Recurring`] — after the drift point the stream alternates
//!   between B and A in blocks of `period` samples.
//!
//! Streams are fully deterministic given their [`DriftConfig`]: the same
//! config replayed twice produces bit-identical batches, and the pre-drift
//! prefix is bit-identical to a never-drifting stream over concept A (see
//! the tests).  Feature normalization mirrors a deployed system: a
//! min–max normalizer is **frozen on a concept-A calibration draw** at
//! stream construction and applied to everything the stream ever emits —
//! post-drift samples pass through the stale normalizer (clamped to
//! `[0, 1]`), exactly the distribution shift a live model would see.

use crate::dataset::Dataset;
use crate::error::DatasetError;
use crate::normalize::ColumnStats;
use crate::suite::PaperDataset;
use crate::synth::ManifoldGenerator;
use disthd_linalg::{Matrix, RngSeed, SeededRng};

/// Samples drawn from concept A to freeze the stream's normalizer.
const CALIBRATION_SAMPLES: usize = 512;

/// The drift schedule: when and how the stream moves from concept A to B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// Hard switch at the drift point.
    Abrupt,
    /// Linear ramp: `width` samples after the drift point the stream is
    /// pure concept B.
    Gradual {
        /// Ramp length in samples (must be non-zero).
        width: usize,
    },
    /// Alternating blocks of B and A, each `period` samples long,
    /// starting with B at the drift point.
    Recurring {
        /// Block length in samples (must be non-zero).
        period: usize,
    },
}

/// Full specification of a drift stream.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Which Table I dataset shape to emulate (feature/class counts).
    pub dataset: PaperDataset,
    /// The drift schedule.
    pub kind: DriftKind,
    /// Index of the first sample affected by the drift.
    pub drift_at: usize,
    /// Structure seeds of concept A (pre-drift) and concept B (post-drift).
    pub concept_seeds: (RngSeed, RngSeed),
    /// Seed for the per-sample draws.
    pub sample_seed: RngSeed,
}

impl DriftConfig {
    /// An abrupt drift on `dataset` at sample `drift_at` with default seeds.
    pub fn abrupt(dataset: PaperDataset, drift_at: usize) -> Self {
        Self {
            dataset,
            kind: DriftKind::Abrupt,
            drift_at,
            concept_seeds: (RngSeed(0x00D1_574D), RngSeed(0x00D1_F7ED)),
            sample_seed: RngSeed(0x0005_A117),
        }
    }
}

/// A deterministic, endless sample stream whose generating concept changes
/// at a configured drift point.
#[derive(Debug, Clone)]
pub struct DriftStream {
    concepts: [ManifoldGenerator; 2],
    kind: DriftKind,
    drift_at: usize,
    draw_rng: SeededRng,
    mix_rng: SeededRng,
    emitted: usize,
    stats: ColumnStats,
}

impl DriftStream {
    /// Builds the stream, constructing both concept generators.
    ///
    /// # Errors
    ///
    /// [`DatasetError::InvalidConfig`] when a gradual `width` or recurring
    /// `period` is zero; otherwise propagates generator construction errors.
    pub fn new(config: DriftConfig) -> Result<Self, DatasetError> {
        match config.kind {
            DriftKind::Gradual { width: 0 } => {
                return Err(DatasetError::InvalidConfig(
                    "gradual drift width must be non-zero".into(),
                ));
            }
            DriftKind::Recurring { period: 0 } => {
                return Err(DatasetError::InvalidConfig(
                    "recurring drift period must be non-zero".into(),
                ));
            }
            _ => {}
        }
        let concept_a = config.dataset.generator(config.concept_seeds.0)?;
        let concept_b = config.dataset.generator(config.concept_seeds.1)?;
        // Freeze the deployment-time normalizer on a concept-A draw that
        // is disjoint from the stream's own rng streams.
        let calibration = concept_a.generate(
            CALIBRATION_SAMPLES,
            RngSeed(config.sample_seed.0 ^ 0xCA_11B),
        )?;
        let stats = ColumnStats::fit(calibration.features());
        Ok(Self {
            concepts: [concept_a, concept_b],
            kind: config.kind,
            drift_at: config.drift_at,
            draw_rng: SeededRng::derive_stream(config.sample_seed, 0xD21F7),
            mix_rng: SeededRng::derive_stream(config.sample_seed, 0xB1E2D),
            emitted: 0,
            stats,
        })
    }

    /// Feature dimensionality of every emitted sample.
    pub fn feature_dim(&self) -> usize {
        self.concepts[0].config().feature_dim
    }

    /// Number of label classes (shared by both concepts).
    pub fn class_count(&self) -> usize {
        self.concepts[0].config().class_count
    }

    /// Samples emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Expected share of concept B at sample `index` (0.0 = pure A,
    /// 1.0 = pure B).
    ///
    /// For [`DriftKind::Gradual`] this is the blend probability; for the
    /// other kinds it is exactly 0.0 or 1.0.
    pub fn concept_share(&self, index: usize) -> f64 {
        if index < self.drift_at {
            return 0.0;
        }
        match self.kind {
            DriftKind::Abrupt => 1.0,
            DriftKind::Gradual { width } => {
                (((index - self.drift_at) as f64 + 1.0) / width as f64).min(1.0)
            }
            DriftKind::Recurring { period } => {
                if ((index - self.drift_at) / period).is_multiple_of(2) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Emits the next `n` samples as a dataset batch (labels round-robin
    /// over the classes, so every batch of at least `class_count` samples
    /// covers the alphabet).
    ///
    /// # Errors
    ///
    /// [`DatasetError::InvalidConfig`] when `n == 0`.
    pub fn next_batch(&mut self, n: usize) -> Result<Dataset, DatasetError> {
        if n == 0 {
            return Err(DatasetError::InvalidConfig(
                "cannot emit a 0-sample batch".into(),
            ));
        }
        let k = self.class_count();
        let mut features = Matrix::zeros(n, self.feature_dim());
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let index = self.emitted + i;
            let class = index % k;
            let share = self.concept_share(index);
            // The gradual schedule is the only stochastic one; it draws its
            // coin from a dedicated rng stream so the sample-draw stream
            // stays aligned across schedules.
            let concept = if share == 0.0 {
                0
            } else if share == 1.0 {
                1
            } else {
                usize::from(self.mix_rng.next_bool(share))
            };
            let sample = self.concepts[concept].sample(class, &mut self.draw_rng);
            features.row_mut(i).copy_from_slice(&sample);
            labels.push(class);
        }
        self.stats.apply_min_max(&mut features);
        self.emitted += n;
        Dataset::new(features, labels, k)
    }

    /// A held-out evaluation set drawn purely from one concept (0 = A,
    /// 1 = B), independent of the stream position — used to measure
    /// forgetting of the old concept after adapting to the new one.
    /// Features pass through the stream's frozen concept-A normalizer,
    /// like everything else the stream emits.
    ///
    /// # Errors
    ///
    /// Propagates generator errors (e.g. `n == 0`).
    pub fn holdout(
        &self,
        concept: usize,
        n: usize,
        seed: RngSeed,
    ) -> Result<Dataset, DatasetError> {
        assert!(concept < 2, "concept must be 0 (A) or 1 (B)");
        let mut data = self.concepts[concept].generate(n, seed)?;
        self.stats.apply_min_max(data.features_mut());
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(kind: DriftKind, drift_at: usize) -> DriftConfig {
        DriftConfig {
            kind,
            drift_at,
            ..DriftConfig::abrupt(PaperDataset::Diabetes, drift_at)
        }
    }

    #[test]
    fn streams_are_reproducible() {
        for kind in [
            DriftKind::Abrupt,
            DriftKind::Gradual { width: 16 },
            DriftKind::Recurring { period: 8 },
        ] {
            let mut a = DriftStream::new(config(kind, 20)).unwrap();
            let mut b = DriftStream::new(config(kind, 20)).unwrap();
            for _ in 0..4 {
                let x = a.next_batch(16).unwrap();
                let y = b.next_batch(16).unwrap();
                assert_eq!(x.features().as_slice(), y.features().as_slice());
                assert_eq!(x.labels(), y.labels());
            }
            assert_eq!(a.emitted(), 64);
        }
    }

    #[test]
    fn pre_drift_prefix_matches_a_stationary_stream() {
        let mut drifting = DriftStream::new(config(DriftKind::Abrupt, 32)).unwrap();
        let mut stationary = DriftStream::new(config(DriftKind::Abrupt, usize::MAX)).unwrap();
        let x = drifting.next_batch(32).unwrap();
        let y = stationary.next_batch(32).unwrap();
        assert_eq!(x.features().as_slice(), y.features().as_slice());
        // After the drift point the worlds diverge.
        let x = drifting.next_batch(32).unwrap();
        let y = stationary.next_batch(32).unwrap();
        assert_ne!(x.features().as_slice(), y.features().as_slice());
        assert_eq!(x.labels(), y.labels(), "labels stay aligned across drift");
    }

    #[test]
    fn abrupt_share_is_a_step_function() {
        let stream = DriftStream::new(config(DriftKind::Abrupt, 10)).unwrap();
        assert_eq!(stream.concept_share(0), 0.0);
        assert_eq!(stream.concept_share(9), 0.0);
        assert_eq!(stream.concept_share(10), 1.0);
        assert_eq!(stream.concept_share(1000), 1.0);
    }

    #[test]
    fn gradual_share_ramps_linearly() {
        let stream = DriftStream::new(config(DriftKind::Gradual { width: 4 }, 10)).unwrap();
        assert_eq!(stream.concept_share(9), 0.0);
        assert!((stream.concept_share(10) - 0.25).abs() < 1e-12);
        assert!((stream.concept_share(11) - 0.5).abs() < 1e-12);
        assert_eq!(stream.concept_share(13), 1.0);
        assert_eq!(stream.concept_share(14), 1.0);
    }

    #[test]
    fn recurring_share_alternates_in_blocks() {
        let stream = DriftStream::new(config(DriftKind::Recurring { period: 3 }, 6)).unwrap();
        let shares: Vec<f64> = (0..15).map(|i| stream.concept_share(i)).collect();
        assert_eq!(
            shares,
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        );
    }

    #[test]
    fn zero_width_and_zero_period_are_rejected() {
        assert!(DriftStream::new(config(DriftKind::Gradual { width: 0 }, 5)).is_err());
        assert!(DriftStream::new(config(DriftKind::Recurring { period: 0 }, 5)).is_err());
        let mut ok = DriftStream::new(config(DriftKind::Abrupt, 5)).unwrap();
        assert!(ok.next_batch(0).is_err());
    }

    #[test]
    fn holdout_sets_are_concept_pure_and_seeded() {
        let stream = DriftStream::new(config(DriftKind::Abrupt, 8)).unwrap();
        let a0 = stream.holdout(0, 30, RngSeed(1)).unwrap();
        let a1 = stream.holdout(0, 30, RngSeed(1)).unwrap();
        let b = stream.holdout(1, 30, RngSeed(1)).unwrap();
        assert_eq!(a0.features().as_slice(), a1.features().as_slice());
        assert_ne!(a0.features().as_slice(), b.features().as_slice());
        assert_eq!(a0.class_count(), 3);
        assert_eq!(a0.len(), 30);
    }

    #[test]
    fn batches_cover_the_label_alphabet() {
        let mut stream = DriftStream::new(config(DriftKind::Abrupt, 4)).unwrap();
        let batch = stream.next_batch(9).unwrap();
        assert_eq!(batch.class_histogram(), vec![3, 3, 3]);
        assert_eq!(batch.feature_dim(), 49);
    }
}
