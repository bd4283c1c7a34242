//! A replay of `DistHd::fit` through the library's public calls, with a
//! span around each layer.
//!
//! The replay mirrors the trainer step for step — encode and center, bundle
//! warm start, then per epoch the adaptive pass and, on regeneration epochs,
//! top-2 categorization, Algorithm 2 selection and dimension regeneration —
//! so its class memory must come out bit-identical to `fit`'s.  The
//! benchmark checks that equality on every traced run: if the trainer ever
//! stops being the composition of these calls, the check fails instead of
//! the layer times silently describing some other computation.

use crate::trace::{SpanId, Tracer};
use disthd::{categorize_batch, select_undesired_dims, DistHdConfig, Top2Outcome};
use disthd_datasets::Dataset;
use disthd_eval::ModelError;
use disthd_hd::center::EncodingCenter;
use disthd_hd::encoder::{AnyRbfEncoder, Encoder, RegenerativeEncoder};
use disthd_hd::learn::{adaptive_epoch, bundle_init};
use disthd_hd::ClassModel;
use disthd_linalg::SeededRng;

/// Stream label of the trainer's regeneration RNG (`DistHd::fit` derives
/// it from the config seed with this label).
const REGEN_STREAM: u64 = 0xD157;

/// Layer span names, in pipeline order.
pub const LAYERS: [&str; 5] = [
    "fit.encode",
    "fit.learn",
    "fit.top2",
    "fit.select",
    "fit.regen",
];

/// Work counts of one replay; each repeats exactly for a given input.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Mispredicted samples summed over every adaptive epoch.
    pub learn_mistakes: u64,
    /// Samples categorized partially correct, over all regeneration epochs.
    pub top2_partial: u64,
    /// Samples categorized incorrect, over all regeneration epochs.
    pub top2_incorrect: u64,
    /// Regeneration epochs (selection ran).
    pub regen_epochs: u64,
    /// Regeneration epochs that selected at least one dimension.
    pub regen_events: u64,
    /// Dimensions regenerated in total.
    pub regen_dims: u64,
    /// Mean over regeneration epochs of selected dims / `round(R·D)`.
    pub regen_budget_used: f64,
}

/// The trained state a replay ends with.
#[derive(Debug)]
pub struct Replay {
    /// Class memory.
    pub model: ClassModel,
    /// Encoding center.
    pub center: EncodingCenter,
    /// Work counts.
    pub counts: Counts,
}

/// Trains like `DistHd::fit(train, None)` with `config`, recording one span
/// per layer call as a child of `root`.
///
/// # Errors
///
/// Propagates shape errors from the layer calls.
///
/// # Panics
///
/// Panics if `config.patience` is set: the benchmark pins it off, and the
/// replay does not model early stopping.
pub fn replay_fit(
    config: &DistHdConfig,
    train: &Dataset,
    tracer: &mut Tracer,
    root: SpanId,
) -> Result<Replay, ModelError> {
    assert!(
        config.patience.is_none(),
        "replay models patience: None only"
    );
    let labels = train.labels();
    let mut encoder = AnyRbfEncoder::new(
        config.encoder_backend,
        train.feature_dim(),
        config.dim,
        config.seed,
    );
    encoder.set_fht_schedule(config.fht_schedule);
    let mut regen_rng = SeededRng::derive_stream(config.seed, REGEN_STREAM);

    let (mut encoded, mut center) = tracer.record("fit.encode", root, || {
        encoder.encode_batch(train.features()).map(|mut encoded| {
            let center = EncodingCenter::fit_and_apply(&mut encoded);
            (encoded, center)
        })
    })?;
    let mut model = ClassModel::new(train.class_count(), config.dim);
    tracer.record("fit.learn", root, || {
        bundle_init(&mut model, &encoded, labels)
    })?;

    let budget = ((config.dim as f64) * config.regen_rate).round();
    let mut counts = Counts::default();
    let mut budget_used = 0.0f64;
    for epoch in 0..config.epochs {
        let stats = tracer.record("fit.learn", root, || {
            adaptive_epoch(&mut model, &encoded, labels, config.learning_rate)
        })?;
        counts.learn_mistakes += stats.mistakes as u64;

        let is_regen_epoch = config.regen_interval > 0
            && (epoch + 1) % config.regen_interval == 0
            && epoch + 1 < config.epochs;
        if !is_regen_epoch {
            continue;
        }
        let outcomes = tracer.record("fit.top2", root, || {
            categorize_batch(&mut model, &encoded, labels)
        })?;
        for outcome in &outcomes {
            match outcome {
                Top2Outcome::Correct => {}
                Top2Outcome::Partial { .. } => counts.top2_partial += 1,
                Top2Outcome::Incorrect { .. } => counts.top2_incorrect += 1,
            }
        }
        let scores = tracer.record("fit.select", root, || {
            select_undesired_dims(
                &encoded,
                labels,
                &outcomes,
                model.classes(),
                &config.weights,
                config.regen_rate,
            )
        });
        let dims = &scores.undesired;
        counts.regen_epochs += 1;
        if budget > 0.0 {
            budget_used += dims.len() as f64 / budget;
        }
        if dims.is_empty() {
            continue;
        }
        tracer.record("fit.regen", root, || -> Result<(), ModelError> {
            encoder.regenerate(dims, &mut regen_rng);
            model.reset_dimensions(dims);
            encoder.reencode_dims(train.features(), &mut encoded, dims)?;
            center.refit_dims(&mut encoded, dims);
            model.bundle_dimensions(&encoded, labels, dims);
            Ok(())
        })?;
        counts.regen_events += 1;
        counts.regen_dims += dims.len() as u64;
    }
    if counts.regen_epochs > 0 {
        counts.regen_budget_used = budget_used / counts.regen_epochs as f64;
    }
    debug_assert_eq!(encoder.regenerated_count(), counts.regen_dims);
    Ok(Replay {
        model,
        center,
        counts,
    })
}

/// Whether two f32 slices hold the same bits.
pub fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use disthd::DistHd;
    use disthd_datasets::suite::{PaperDataset, SuiteConfig};
    use disthd_eval::Classifier;
    use disthd_hd::encoder::EncoderBackend;
    use disthd_linalg::FhtSchedule;

    #[test]
    fn replay_equals_fit_on_a_tiny_config() {
        let data = PaperDataset::Diabetes
            .generate(&SuiteConfig::at_scale(0.002))
            .unwrap();
        for backend in [EncoderBackend::Dense, EncoderBackend::Structured] {
            let config = DistHdConfig {
                dim: 256,
                epochs: 8,
                patience: None,
                encoder_backend: backend,
                fht_schedule: FhtSchedule::Ascending,
                ..Default::default()
            };
            let mut fitted = DistHd::new(
                config.clone(),
                data.train.feature_dim(),
                data.train.class_count(),
            );
            fitted.fit(&data.train, None).unwrap();

            let mut tracer = Tracer::new(crate::trace::Clock::ThreadCpu);
            let root = tracer.open("fit", None);
            let replay = replay_fit(&config, &data.train, &mut tracer, root).unwrap();
            tracer.close(root);

            let report = fitted.last_report().unwrap();
            assert!(report.regen_events > 0, "{backend}: regeneration must run");
            assert!(bit_identical(
                fitted.class_model().unwrap().classes().as_slice(),
                replay.model.classes().as_slice()
            ));
            assert!(bit_identical(
                fitted.center().unwrap().means(),
                replay.center.means()
            ));
            assert_eq!(report.regen_events as u64, replay.counts.regen_events);
            assert_eq!(report.regenerated_dims, replay.counts.regen_dims);
            assert!(tracer.spans().iter().any(|s| s.name == "fit.regen"));
        }
    }
}
