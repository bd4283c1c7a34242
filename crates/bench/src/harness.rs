//! Model zoo and measurement driver shared by all experiment binaries.

use disthd::{DistHd, DistHdConfig};
use disthd_baselines::{
    BaselineHd, BaselineHdConfig, LinearSvm, Mlp, MlpConfig, NeuralHd, NeuralHdConfig, SvmConfig,
};
use disthd_datasets::TrainTest;
use disthd_eval::{Classifier, ModelError, TrainingHistory};
use disthd_linalg::RngSeed;
use std::time::Duration;

/// The models the paper compares (Fig. 4/5 panels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelKind {
    /// "SOTA DNN" — the MLP comparator.
    Dnn,
    /// Linear one-vs-rest SVM.
    Svm,
    /// Static-encoder HDC at the given dimensionality.
    BaselineHd {
        /// Hyperdimensional dimensionality `D`.
        dim: usize,
    },
    /// Variance-regenerating dynamic HDC at the given dimensionality.
    NeuralHd {
        /// Hyperdimensional dimensionality `D`.
        dim: usize,
    },
    /// This paper's model at the given dimensionality.
    DistHd {
        /// Hyperdimensional dimensionality `D`.
        dim: usize,
    },
}

impl ModelKind {
    /// Display label matching the paper's legends.
    pub fn label(&self) -> String {
        match self {
            ModelKind::Dnn => "DNN".into(),
            ModelKind::Svm => "SVM".into(),
            ModelKind::BaselineHd { dim } => format!("BaselineHD (D={})", fmt_dim(*dim)),
            ModelKind::NeuralHd { dim } => format!("NeuralHD (D={})", fmt_dim(*dim)),
            ModelKind::DistHd { dim } => format!("DistHD (D={})", fmt_dim(*dim)),
        }
    }
}

fn fmt_dim(dim: usize) -> String {
    if dim.is_multiple_of(1000) {
        format!("{}k", dim / 1000)
    } else if dim.is_multiple_of(100) {
        format!("{:.1}k", dim as f64 / 1000.0)
    } else {
        dim.to_string()
    }
}

/// The paper's Fig. 4 model panel: DNN, SVM, BaselineHD at the compressed
/// physical D, BaselineHD at the effective D* = 4k, NeuralHD and DistHD at
/// the compressed D.
pub fn paper_models(dim: usize, effective_dim: usize) -> Vec<ModelKind> {
    vec![
        ModelKind::Dnn,
        ModelKind::Svm,
        ModelKind::BaselineHd { dim },
        ModelKind::BaselineHd { dim: effective_dim },
        ModelKind::NeuralHd { dim },
        ModelKind::DistHd { dim },
    ]
}

/// Builds a fresh model of `kind` for a dataset shape.
pub fn build_model(
    kind: ModelKind,
    feature_dim: usize,
    class_count: usize,
    seed: RngSeed,
) -> Box<dyn Classifier> {
    match kind {
        ModelKind::Dnn => Box::new(Mlp::new(
            MlpConfig {
                hidden: vec![128],
                epochs: 20,
                learning_rate: 0.02,
                seed,
                ..Default::default()
            },
            feature_dim,
            class_count,
        )),
        ModelKind::Svm => Box::new(LinearSvm::new(
            SvmConfig {
                epochs: 15,
                seed,
                ..Default::default()
            },
            feature_dim,
            class_count,
        )),
        ModelKind::BaselineHd { dim } => Box::new(BaselineHd::new(
            BaselineHdConfig {
                dim,
                epochs: 20,
                seed,
                ..Default::default()
            },
            feature_dim,
            class_count,
        )),
        ModelKind::NeuralHd { dim } => Box::new(NeuralHd::new(
            NeuralHdConfig {
                dim,
                epochs: 20,
                seed,
                ..Default::default()
            },
            feature_dim,
            class_count,
        )),
        ModelKind::DistHd { dim } => Box::new(DistHd::new(
            DistHdConfig {
                dim,
                epochs: 20,
                seed,
                ..Default::default()
            },
            feature_dim,
            class_count,
        )),
    }
}

/// One trained-and-measured model run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which model ran.
    pub kind: ModelKind,
    /// Held-out accuracy after training.
    pub accuracy: f64,
    /// Wall-clock training time.
    pub train_time: Duration,
    /// Wall-clock time to classify the whole test set.
    pub inference_time: Duration,
    /// Per-epoch trace.
    pub history: TrainingHistory,
}

impl RunResult {
    /// Inference latency per sample in seconds.
    pub fn per_sample_latency(&self, test_len: usize) -> f64 {
        self.inference_time.as_secs_f64() / test_len.max(1) as f64
    }
}

/// Trains `kind` on `data.train`, times training and full-test-set
/// inference, and returns the measurements.
///
/// # Errors
///
/// Propagates model errors.
pub fn run_model(
    kind: ModelKind,
    data: &TrainTest,
    seed: RngSeed,
) -> Result<RunResult, ModelError> {
    let mut model = build_model(
        kind,
        data.train.feature_dim(),
        data.train.class_count(),
        seed,
    );
    let trained = disthd_eval::time_it(|| model.fit(&data.train, None));
    let history = trained.value?;
    let inferred = disthd_eval::time_it(|| model.predict(&data.test));
    let predictions = inferred.value?;
    let accuracy = disthd_eval::accuracy(&predictions, data.test.labels());
    Ok(RunResult {
        kind,
        accuracy,
        train_time: trained.elapsed,
        inference_time: inferred.elapsed,
        history,
    })
}

/// Default dataset scale for the experiment binaries, overridable with the
/// `DISTHD_SCALE` environment variable.
pub fn default_scale() -> f64 {
    std::env::var("DISTHD_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05)
}

/// Deterministic per-trial seeds for repeated runs.
pub fn trial_seeds(count: usize) -> Vec<RngSeed> {
    (0..count as u64)
        .map(|i| RngSeed(0xBE7C_u64 + 7919 * i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use disthd_datasets::suite::{PaperDataset, SuiteConfig};

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(ModelKind::Dnn.label(), "DNN");
        assert_eq!(
            ModelKind::BaselineHd { dim: 4000 }.label(),
            "BaselineHD (D=4k)"
        );
        assert_eq!(ModelKind::DistHd { dim: 500 }.label(), "DistHD (D=0.5k)");
    }

    #[test]
    fn paper_panel_has_six_models() {
        let panel = paper_models(500, 4000);
        assert_eq!(panel.len(), 6);
    }

    #[test]
    fn run_model_measures_all_kinds() {
        let data = PaperDataset::Diabetes
            .generate(&SuiteConfig::at_scale(0.0005))
            .unwrap();
        for kind in [
            ModelKind::Dnn,
            ModelKind::Svm,
            ModelKind::BaselineHd { dim: 128 },
            ModelKind::NeuralHd { dim: 128 },
            ModelKind::DistHd { dim: 128 },
        ] {
            let result = run_model(kind, &data, RngSeed(1)).unwrap();
            assert!(result.accuracy > 0.2, "{:?}: {}", kind, result.accuracy);
            assert!(result.train_time > Duration::ZERO);
        }
    }

    #[test]
    fn trial_seeds_are_distinct() {
        let seeds = trial_seeds(5);
        let unique: std::collections::HashSet<u64> = seeds.iter().map(|s| s.0).collect();
        assert_eq!(unique.len(), 5);
    }
}
