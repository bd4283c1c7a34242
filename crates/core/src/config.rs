use disthd_hd::encoder::EncoderBackend;
use disthd_linalg::{FhtSchedule, RngSeed};

/// The α/β/θ weight parameters of Algorithm 2.
///
/// `alpha` scales the distance to the **true** label (dimensions far from
/// the truth look undesirable); `beta` and `theta` scale the distances to
/// the first and second predicted **wrong** labels (dimensions close to a
/// wrong class look undesirable, but a dimension close to *both* a wrong
/// class and the true class carries shared information and should be
/// spared).
///
/// Per §III-C / Fig. 6: larger `alpha` trades toward sensitivity (lower
/// FNR); larger `beta`/`theta` trade toward specificity (lower FPR).  The
/// paper requires `theta < beta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightParams {
    /// Weight on `|H − C_true|`.
    pub alpha: f32,
    /// Weight on `|H − C_pred1|`.
    pub beta: f32,
    /// Weight on `|H − C_pred2|` (incorrect samples only).
    pub theta: f32,
}

impl WeightParams {
    /// Creates weight parameters.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or `theta >= beta` (the paper's
    /// stated constraint).
    pub fn new(alpha: f32, beta: f32, theta: f32) -> Self {
        assert!(
            alpha >= 0.0 && beta >= 0.0 && theta >= 0.0,
            "weights must be non-negative"
        );
        assert!(theta < beta, "paper constraint: theta < beta");
        Self { alpha, beta, theta }
    }

    /// The α/β ratio, the Fig. 6 tuning knob.
    pub fn alpha_beta_ratio(&self) -> f32 {
        if self.beta == 0.0 {
            f32::INFINITY
        } else {
            self.alpha / self.beta
        }
    }
}

impl Default for WeightParams {
    fn default() -> Self {
        // Balanced sensitivity/specificity; theta below beta per the paper.
        Self {
            alpha: 1.0,
            beta: 1.0,
            theta: 0.25,
        }
    }
}

/// Configuration for [`crate::DistHd`].
#[derive(Debug, Clone, PartialEq)]
pub struct DistHdConfig {
    /// Physical hyperdimensional dimensionality `D` (the paper's headline
    /// setting is `0.5k = 500`).
    pub dim: usize,
    /// Adaptive learning rate `η` of Algorithm 1.
    pub learning_rate: f32,
    /// Maximum retraining epochs.
    pub epochs: usize,
    /// Regeneration rate `R` as a fraction (paper sweeps around `0.10`).
    pub regen_rate: f64,
    /// Run the top-2 / regeneration step every this many epochs
    /// (`0` disables regeneration → pure static-encoder training).
    ///
    /// The default is `2`: dimensions regenerated in epoch `t` carry only
    /// their one-pass bundle until the epoch `t + 1` adaptive pass refines
    /// them, so scoring them again at `t + 1` re-flags half-trained
    /// dimensions and churns the encoder — measurably losing accuracy at
    /// every seed we swept.  One consolidation epoch between regenerations
    /// keeps the selection honest.
    pub regen_interval: usize,
    /// Algorithm 2 weight parameters.
    pub weights: WeightParams,
    /// Stop early when train accuracy stalls this many epochs (`None`
    /// disables early stopping).
    pub patience: Option<usize>,
    /// Seed for the encoder and regeneration stream.
    pub seed: RngSeed,
    /// RBF encoder implementation: the paper-literal dense `O(F·D)` GEMM
    /// encoder, or the structured `O(D log D)` Walsh–Hadamard construction
    /// (same kernel map, same regeneration semantics — a speed knob; see
    /// `disthd_hd::encoder::StructuredRbfEncoder`).
    pub encoder_backend: EncoderBackend,
    /// Butterfly pass order of the structured backend's Walsh–Hadamard
    /// transforms (ignored by the dense backend).
    /// [`FhtSchedule::Ascending`] is the only schedule; it is never
    /// persisted.
    pub fht_schedule: FhtSchedule,
}

impl Default for DistHdConfig {
    fn default() -> Self {
        Self {
            dim: 500,
            learning_rate: 0.05,
            epochs: 30,
            regen_rate: 0.10,
            regen_interval: 2,
            weights: WeightParams::default(),
            patience: Some(6),
            seed: RngSeed::default(),
            encoder_backend: EncoderBackend::default(),
            fht_schedule: FhtSchedule::default(),
        }
    }
}

impl DistHdConfig {
    /// Validates the configuration, panicking on degenerate values.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`, `learning_rate <= 0`, or `regen_rate` is
    /// outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.dim > 0, "dim must be positive");
        assert!(self.learning_rate > 0.0, "learning rate must be positive");
        assert!(
            (0.0..=1.0).contains(&self.regen_rate),
            "regen_rate must be in [0, 1]"
        );
    }

    /// Effective dimensionality after `iterations` regenerating epochs:
    /// `D* = D + D·R%·iterations` (§IV-B).
    pub fn effective_dim(&self, iterations: usize) -> f64 {
        self.dim as f64 + self.dim as f64 * self.regen_rate * iterations as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        DistHdConfig::default().validate();
    }

    #[test]
    fn default_weights_satisfy_paper_constraint() {
        let w = WeightParams::default();
        assert!(w.theta < w.beta);
    }

    #[test]
    #[should_panic(expected = "theta < beta")]
    fn theta_must_be_below_beta() {
        WeightParams::new(1.0, 0.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        WeightParams::new(-1.0, 1.0, 0.1);
    }

    #[test]
    fn alpha_beta_ratio() {
        let w = WeightParams::new(2.0, 1.0, 0.1);
        assert!((w.alpha_beta_ratio() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn effective_dim_matches_paper_formula() {
        let cfg = DistHdConfig {
            dim: 500,
            regen_rate: 0.10,
            ..Default::default()
        };
        // D* = 500 + 500 * 0.10 * 70 = 4000: the paper's "D=0.5k behaves
        // like D*=4k" accounting.
        assert!((cfg.effective_dim(70) - 4000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn zero_dim_invalid() {
        DistHdConfig {
            dim: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "regen_rate")]
    fn regen_rate_bounds_checked() {
        DistHdConfig {
            regen_rate: 1.5,
            ..Default::default()
        }
        .validate();
    }
}
