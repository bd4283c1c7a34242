//! Low-precision deployment of a trained DistHD model.
//!
//! The paper's edge story (§IV-D) stores the class hypervectors at 1–8 bits
//! per dimension.  [`DeployedModel`] freezes a trained [`crate::DistHd`]
//! into that form: the encoder and centering stay in f32 (they run once per
//! query), while the class memory — the part that dominates storage and is
//! exposed to memory faults — lives in a [`QuantizedMatrix`].
//!
//! The quantized words are the **single source of truth** for the class
//! memory: no dequantized `ClassModel` snapshot exists, and construct,
//! hot-swap and predict perform zero `dequantize()` calls (a regression
//! test pins this via `disthd_hd::quantize::dequantize_calls`).
//! [`DeployedModel::inject_faults`] flips bits in place exactly like the
//! Fig. 8 fault model, and inference derives everything it reads from
//! those very words — a faulted deployment behaves like the faulted device
//! would, with out-of-range codes saturating as on hardware.
//!
//! For the f32-query scorers the deployment also holds the codes decoded
//! once into the GEMM's packed-panel layout — a derived operand, like the
//! code norms, rebuilt by every constructor and refreshed in place by
//! hot-swap and fault injection.  Every f32 scorer, at every row count
//! from a single query up, runs the full register-tiled GEMM
//! micro-kernel against that panel
//! ([`disthd_hd::quantized_similarity_prepacked`]), whose per-element
//! accumulation order is exactly that of the scalar oracle
//! ([`disthd_hd::quantized_similarity_to_all`]), so scores are
//! bit-identical to it alone or inside any batch.

use crate::trainer::DistHd;
use disthd_eval::ModelError;
use disthd_hd::center::EncodingCenter;
use disthd_hd::encoder::{AnyRbfEncoder, Encoder};
use disthd_hd::noise::flip_random_bits;
use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
use disthd_hd::{packed_cosine_matrix, packed_predict_batch, quantized_similarity_prepacked};
use disthd_linalg::{Matrix, PackedRhs, SeededRng};
use std::sync::Arc;

/// Optional serving-task configuration carried by a deployment.
///
/// Beyond plain classification, a deployment can serve two more task
/// types on the same batched GEMM path: **top-k multi-label prediction**
/// (the `k` most similar classes, ranked) and **one-class anomaly
/// scoring** (is this query close enough to *any* class to be an
/// inlier?).  Both are pure post-processing of the similarity scores the
/// classify path already computes, so they inherit its batch-composition
/// invariance; this struct holds the knobs they need, travels with the
/// deployment through hot-swap and snapshot publication, and persists in
/// the `DHD` artifact (format version `'3'`, written only when a task is
/// actually configured — see [`crate::io`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServingTasks {
    /// Ranked classes returned by top-k serving requests (`None` = top-k
    /// requests fall back to `k = 1`, i.e. plain argmax in a vector).
    pub top_k: Option<usize>,
    /// Decision threshold of the one-class anomaly scorer: a query whose
    /// best class cosine falls **below** this is flagged anomalous.
    /// Calibrate with [`DeployedModel::calibrate_anomaly_threshold`].
    pub anomaly_threshold: Option<f32>,
}

impl ServingTasks {
    /// `true` when no task is configured (the artifact then persists in
    /// its task-free pre-v3 format, byte-identical to older writers).
    pub fn is_empty(&self) -> bool {
        self.top_k.is_none() && self.anomaly_threshold.is_none()
    }
}

/// A trained DistHD model frozen for low-precision edge deployment.
///
/// # Example
///
/// ```
/// use disthd::{DeployedModel, DistHd, DistHdConfig};
/// use disthd_datasets::suite::{PaperDataset, SuiteConfig};
/// use disthd_eval::Classifier;
/// use disthd_hd::quantize::BitWidth;
///
/// let data = PaperDataset::Diabetes.generate(&SuiteConfig::at_scale(0.001))?;
/// let mut model = DistHd::new(
///     DistHdConfig { dim: 256, epochs: 6, ..Default::default() },
///     data.train.feature_dim(),
///     data.train.class_count(),
/// );
/// model.fit(&data.train, None)?;
/// let deployed = DeployedModel::freeze(&model, BitWidth::B1)?;
/// let class = deployed.predict(data.test.sample(0))?;
/// assert!(class < data.test.class_count());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeployedModel {
    /// The frozen encoder, shared structurally across clones: a deployment
    /// clone (e.g. a serving snapshot published for lock-free readers) costs
    /// O(class memory), not O(encoder) — the encoder is immutable after
    /// freeze, so every clone can point at the same instance.
    encoder: Arc<AnyRbfEncoder>,
    center: EncodingCenter,
    memory: QuantizedMatrix,
    /// Reciprocal integer code norms, one per class.  Refreshed in place
    /// (no allocation) on hot-swap and fault injection.
    inv_norms: Vec<f32>,
    /// The codes decoded into the scoring GEMM's right-hand panel
    /// (`D × classes`), refreshed in place alongside `inv_norms`.
    panel: PackedRhs,
    class_count: usize,
    /// Optional top-k / anomaly serving configuration; rides along through
    /// clone, hot-swap and persistence.
    tasks: ServingTasks,
}

impl DeployedModel {
    /// Freezes a trained model at the given storage precision.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotFitted`] if `model` has not been trained.
    pub fn freeze(model: &DistHd, width: BitWidth) -> Result<Self, ModelError> {
        let class_model = model.class_model().ok_or(ModelError::NotFitted)?;
        let center = model.center().ok_or(ModelError::NotFitted)?.clone();
        let memory = QuantizedMatrix::quantize(class_model.classes(), width);
        Ok(Self::assemble(
            Arc::new(model.encoder().clone()),
            center,
            memory,
            ServingTasks::default(),
        ))
    }

    /// Builds a deployment and its derived scoring state (code norms and
    /// decoded panel) from its parts.
    fn assemble(
        encoder: Arc<AnyRbfEncoder>,
        center: EncodingCenter,
        memory: QuantizedMatrix,
        tasks: ServingTasks,
    ) -> Self {
        let (class_count, dim) = memory.shape();
        let mut deployed = Self {
            encoder,
            center,
            memory,
            inv_norms: Vec::with_capacity(class_count),
            panel: PackedRhs::new(dim, class_count),
            class_count,
            tasks,
        };
        deployed.refresh_scoring_state();
        deployed
    }

    /// Rederives the code norms and the decoded panel from the current
    /// words, in place — no allocation once the buffers exist.
    fn refresh_scoring_state(&mut self) {
        self.memory.code_inv_norms_into(&mut self.inv_norms);
        self.memory.pack_codes_into(&mut self.panel);
    }

    /// Storage precision of the class memory.
    pub fn width(&self) -> BitWidth {
        self.memory.width()
    }

    /// Class-memory footprint in bits (the memory the fault model acts on).
    pub fn memory_bits(&self) -> usize {
        self.memory.payload_bits()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Classifies one feature vector, reading the packed quantized words
    /// directly (no dequantized snapshot exists to consult).
    ///
    /// # Errors
    ///
    /// Returns a shape error for a wrong-length input.
    pub fn predict(&self, features: &[f32]) -> Result<usize, ModelError> {
        let scores = self.decision_scores(features)?;
        Ok(argmax(&scores))
    }

    /// Classifies a whole batch of feature vectors (one per row) through
    /// the fused encode GEMM and one batched integer-similarity pass over
    /// the packed class words.
    ///
    /// This is the entry point the serving layer's request-batching engine
    /// coalesces queries into: per query it costs a slice of one large
    /// matrix product plus a packed-word similarity scan instead of a full
    /// streaming pass over the base and class matrices, which is where
    /// batched serving's throughput advantage comes from.  Because every
    /// row is computed independently by the deterministic backend, a
    /// query's prediction is bit-identical whether it is served alone or
    /// inside any batch.
    ///
    /// # Example
    ///
    /// ```
    /// use disthd::{DeployedModel, DistHd, DistHdConfig};
    /// use disthd_datasets::suite::{PaperDataset, SuiteConfig};
    /// use disthd_eval::Classifier;
    /// use disthd_hd::quantize::BitWidth;
    /// use disthd_linalg::Matrix;
    ///
    /// let data = PaperDataset::Diabetes.generate(&SuiteConfig::at_scale(0.001))?;
    /// let mut model = DistHd::new(
    ///     DistHdConfig { dim: 256, epochs: 6, ..Default::default() },
    ///     data.train.feature_dim(),
    ///     data.train.class_count(),
    /// );
    /// model.fit(&data.train, None)?;
    /// let deployed = DeployedModel::freeze(&model, BitWidth::B8)?;
    /// let queries = Matrix::from_row_slices(
    ///     data.test.feature_dim(),
    ///     &[data.test.sample(0), data.test.sample(1)],
    /// )?;
    /// let batched = deployed.predict_batch(&queries)?;
    /// // A batch of one is the same computation, so predictions agree.
    /// let solo = deployed.predict_batch(&queries.select_rows(&[0]))?;
    /// assert_eq!(batched[0], solo[0]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a shape error if `queries.cols()` differs from the
    /// encoder's input arity.
    pub fn predict_batch(&self, queries: &Matrix) -> Result<Vec<usize>, ModelError> {
        if queries.rows() == 0 {
            return Ok(Vec::new());
        }
        let mut encoded = self.encoder.encode_batch(queries)?;
        self.center.apply_batch(&mut encoded);
        self.predict_encoded_batch(&encoded)
    }

    /// Classifies a whole batch through the **end-to-end integer
    /// dataflow**: the fused bit-sliced encode quantizes each encoded,
    /// centered query row straight into packed words at the class memory's
    /// width (no intermediate f32 hypervector matrix), and scoring runs
    /// entirely on integers — XOR+popcount at 1 bit; otherwise each class
    /// row and each query row is decoded once per call and every pair is
    /// dotted exactly in `i16` lanes ([`disthd_hd::packed_predict_batch`]).
    /// After featurization the hot loop performs **zero f32 similarity
    /// work and zero `dequantize()` calls**; the only float arithmetic left
    /// is the scalar `dot × inv_norm` scaling of each integer dot.
    ///
    /// Compared to [`DeployedModel::predict_batch`] the query side is
    /// quantized too, so predictions can differ where query-quantization
    /// error flips a near-tie; the test
    /// `quantized_batch_predictions_track_the_f32_pipeline` bounds that
    /// disagreement per width.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `queries.cols()` differs from the
    /// encoder's input arity.
    pub fn predict_quantized_batch(&self, queries: &Matrix) -> Result<Vec<usize>, ModelError> {
        if queries.rows() == 0 {
            return Ok(Vec::new());
        }
        let encoded = self.encoder.encode_batch_quantized(
            queries,
            Some(self.center.means()),
            self.memory.width(),
        )?;
        Ok(packed_predict_batch(
            &encoded,
            &self.memory,
            &self.inv_norms,
        )?)
    }

    /// Classifies a batch of **already encoded and centered** hypervectors
    /// (one per row) through the scoring GEMM against the decoded panel.
    ///
    /// This is the class-scoring stage of [`DeployedModel::predict_batch`]
    /// in isolation — for callers that pre-encode once and score many
    /// model variants (the Fig. 8 robustness harness) or benchmark the
    /// scoring stage without the shared encode cost.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `encoded.cols()` differs from the class
    /// memory's dimensionality.
    pub fn predict_encoded_batch(&self, encoded: &Matrix) -> Result<Vec<usize>, ModelError> {
        let scores = quantized_similarity_prepacked(encoded, &self.panel, &self.inv_norms)?;
        Ok(scores.iter_rows().map(argmax).collect())
    }

    /// Hot-swaps the quantized class memory, e.g. with a freshly
    /// requantized model produced by [`crate::DistHd::partial_fit`].
    ///
    /// The encoder and centering are untouched: online adaptive updates
    /// keep the encoder frozen between regeneration events, so the class
    /// memory is the only part of the deployment that needs to move for a
    /// live model refresh.
    ///
    /// The swap moves the replacement's words in and refreshes the per-row
    /// code norms and the decoded panel into their existing buffers —
    /// **allocation-free**, so a hot serving loop can swap between batches
    /// without touching the allocator.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Incompatible`] if the replacement's shape
    /// differs from the current memory — a swap may change weights, never
    /// topology.
    pub fn swap_class_memory(&mut self, memory: QuantizedMatrix) -> Result<(), ModelError> {
        if memory.shape() != self.memory.shape() {
            return Err(ModelError::Incompatible(format!(
                "class memory shape {:?} cannot replace {:?}",
                memory.shape(),
                self.memory.shape()
            )));
        }
        self.memory = memory;
        self.refresh_scoring_state();
        Ok(())
    }

    /// Builds a **new** deployment that serves `memory` in place of the
    /// current class memory, without mutating `self` — the copy-on-write
    /// counterpart of [`DeployedModel::swap_class_memory`] for snapshot
    /// publication: a serving layer that shares one immutable deployment
    /// across reader threads derives the post-swap generation from the live
    /// one and publishes it, while in-flight readers keep scoring the old
    /// generation untouched.
    ///
    /// The encoder and centering are structurally shared with `self`
    /// (`Arc`), so the construction cost is the class memory plus its code
    /// norms and decoded panel — independent of the encoder's size.
    /// Predictions of the returned deployment are bit-identical to calling
    /// [`DeployedModel::swap_class_memory`] on a clone.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Incompatible`] if the replacement's shape
    /// differs from the current memory — a swap may change weights, never
    /// topology.
    pub fn with_swapped_memory(&self, memory: QuantizedMatrix) -> Result<Self, ModelError> {
        if memory.shape() != self.memory.shape() {
            return Err(ModelError::Incompatible(format!(
                "class memory shape {:?} cannot replace {:?}",
                memory.shape(),
                self.memory.shape()
            )));
        }
        Ok(Self::assemble(
            Arc::clone(&self.encoder),
            self.center.clone(),
            memory,
            self.tasks,
        ))
    }

    /// Per-class similarity scores for one feature vector: the encoded
    /// query dotted against the integer codes of each class, normalized by
    /// the class's code norm — cosine-equivalent to the dequantized
    /// similarity (the quantization scale cancels).
    ///
    /// # Errors
    ///
    /// Returns a shape error for a wrong-length input.
    pub fn decision_scores(&self, features: &[f32]) -> Result<Vec<f32>, ModelError> {
        let mut encoded = self.encoder.encode(features)?;
        self.center.apply(&mut encoded);
        let encoded = Matrix::from_vec(1, encoded.len(), encoded)?;
        let scores = quantized_similarity_prepacked(&encoded, &self.panel, &self.inv_norms)?;
        Ok(scores.into_vec())
    }

    /// Accuracy over a dataset.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn accuracy(&self, data: &disthd_datasets::Dataset) -> Result<f64, ModelError> {
        if data.is_empty() {
            return Ok(0.0);
        }
        let mut correct = 0usize;
        for i in 0..data.len() {
            if self.predict(data.sample(i))? == data.label(i) {
                correct += 1;
            }
        }
        Ok(correct as f64 / data.len() as f64)
    }

    /// Reassembles a deployment from persisted parts (see [`crate::io`]).
    pub fn from_parts(
        encoder: AnyRbfEncoder,
        center: EncodingCenter,
        memory: QuantizedMatrix,
    ) -> Self {
        Self::assemble(Arc::new(encoder), center, memory, ServingTasks::default())
    }

    /// Borrows the encoder (persistence access).
    pub fn encoder_parts(&self) -> &AnyRbfEncoder {
        self.encoder.as_ref()
    }

    /// Borrows the centering means (persistence access).
    pub fn center_parts(&self) -> &EncodingCenter {
        &self.center
    }

    /// Borrows the quantized class memory (persistence access).
    pub fn memory_parts(&self) -> &QuantizedMatrix {
        &self.memory
    }

    /// The serving-task configuration this deployment carries.
    pub fn tasks(&self) -> ServingTasks {
        self.tasks
    }

    /// Sets the serving-task configuration (see [`ServingTasks`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Incompatible`] if `top_k` is configured as 0
    /// or exceeds the class count — a `k` outside `1..=classes` cannot
    /// rank anything.
    pub fn set_tasks(&mut self, tasks: ServingTasks) -> Result<(), ModelError> {
        if let Some(k) = tasks.top_k {
            if k == 0 || k > self.class_count {
                return Err(ModelError::Incompatible(format!(
                    "top-k of {k} is outside 1..={} classes",
                    self.class_count
                )));
            }
        }
        self.tasks = tasks;
        Ok(())
    }

    /// The `k` most similar classes per query row, best first — the top-k
    /// multi-label serving task on the batched GEMM path.
    ///
    /// The scores are the same `samples × classes` similarity matrix the
    /// classify path ranks ([`disthd_hd::quantized_similarity_prepacked`]),
    /// so `result[r][0]` always equals [`DeployedModel::predict_batch`]'s
    /// answer for row `r` (ties resolve to the lower class index in both),
    /// and every row is computed independently — a query's ranking is
    /// bit-identical in any batch.  `k` is clamped to the class count.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Incompatible`] for `k = 0`, or a shape error
    /// if `queries.cols()` differs from the encoder's input arity.
    pub fn top_k_batch(&self, queries: &Matrix, k: usize) -> Result<Vec<Vec<usize>>, ModelError> {
        if k == 0 {
            return Err(ModelError::Incompatible("top-k of 0 ranks nothing".into()));
        }
        if queries.rows() == 0 {
            return Ok(Vec::new());
        }
        let mut encoded = self.encoder.encode_batch(queries)?;
        self.center.apply_batch(&mut encoded);
        let scores = quantized_similarity_prepacked(&encoded, &self.panel, &self.inv_norms)?;
        Ok(scores
            .iter_rows()
            .map(|row| disthd_linalg::top_k_largest(row, k))
            .collect())
    }

    /// [`DeployedModel::top_k_batch`] on the **end-to-end integer
    /// pipeline**: queries are quantized by the fused encode and ranked by
    /// packed integer cosines ([`disthd_hd::packed_cosine_matrix`]) — the
    /// per-query norm the argmax-only predictor skips is applied here, so
    /// the scores backing the ranking are true cosines (shared with the
    /// anomaly scorer; one kernel serves both tasks).
    ///
    /// # Errors
    ///
    /// See [`DeployedModel::top_k_batch`].
    pub fn top_k_quantized_batch(
        &self,
        queries: &Matrix,
        k: usize,
    ) -> Result<Vec<Vec<usize>>, ModelError> {
        if k == 0 {
            return Err(ModelError::Incompatible("top-k of 0 ranks nothing".into()));
        }
        if queries.rows() == 0 {
            return Ok(Vec::new());
        }
        let scores = self.quantized_cosines(queries)?;
        Ok(scores
            .iter_rows()
            .map(|row| disthd_linalg::top_k_largest(row, k))
            .collect())
    }

    /// One-class anomaly scores: each query row's **best class cosine** in
    /// `[-1, 1]`.  An inlier resembles some class and scores high; a query
    /// from outside the training distribution resembles none and scores
    /// low.  Unlike the classify/top-k rankings, these values are compared
    /// **across queries** (against a threshold), so the per-query norm the
    /// ranking paths may drop is applied here: the classify scores are
    /// divided by the encoded query's L2 norm, making them genuine
    /// cosines.  Rows are scored independently — batch-composition
    /// invariant like every serving path.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `queries.cols()` differs from the
    /// encoder's input arity.
    pub fn anomaly_scores(&self, queries: &Matrix) -> Result<Vec<f32>, ModelError> {
        if queries.rows() == 0 {
            return Ok(Vec::new());
        }
        let mut encoded = self.encoder.encode_batch(queries)?;
        self.center.apply_batch(&mut encoded);
        let scores = quantized_similarity_prepacked(&encoded, &self.panel, &self.inv_norms)?;
        Ok(scores
            .iter_rows()
            .enumerate()
            .map(|(r, row)| {
                let norm = disthd_linalg::l2_norm(encoded.row(r));
                if norm == 0.0 {
                    0.0
                } else {
                    max_score(row) / norm
                }
            })
            .collect())
    }

    /// [`DeployedModel::anomaly_scores`] on the **end-to-end integer
    /// pipeline**: the fused encode quantizes each query and
    /// [`disthd_hd::packed_cosine_matrix`] produces true integer-code
    /// cosines (per-query *and* per-class norms applied), whose row
    /// maximum is the anomaly score.
    ///
    /// # Errors
    ///
    /// See [`DeployedModel::anomaly_scores`].
    pub fn anomaly_scores_quantized(&self, queries: &Matrix) -> Result<Vec<f32>, ModelError> {
        if queries.rows() == 0 {
            return Ok(Vec::new());
        }
        let scores = self.quantized_cosines(queries)?;
        Ok(scores.iter_rows().map(max_score).collect())
    }

    /// Calibrates the one-class anomaly threshold from labelled
    /// calibration batches: `inliers` should come from the training
    /// distribution, `outliers` from outside it.  Both are scored with
    /// [`DeployedModel::anomaly_scores`], an ROC curve is swept over the
    /// pooled scores (`disthd_eval::roc`) and the threshold maximizing
    /// Youden's J (`tpr − fpr`) is stored in [`ServingTasks`] and
    /// returned.  A query scoring **below** the threshold is anomalous.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Incompatible`] if either batch is empty or
    /// the scores cannot separate anything (degenerate ROC curve), or a
    /// shape error for wrong-arity rows.
    pub fn calibrate_anomaly_threshold(
        &mut self,
        inliers: &Matrix,
        outliers: &Matrix,
    ) -> Result<f32, ModelError> {
        if inliers.rows() == 0 || outliers.rows() == 0 {
            return Err(ModelError::Incompatible(
                "anomaly calibration needs at least one inlier and one outlier".into(),
            ));
        }
        let mut scores = self.anomaly_scores(inliers)?;
        let mut labels = vec![true; scores.len()];
        scores.extend(self.anomaly_scores(outliers)?);
        labels.resize(scores.len(), false);
        let curve = disthd_eval::roc_curve(&scores, &labels);
        let threshold = disthd_eval::youden_threshold(&curve).ok_or_else(|| {
            ModelError::Incompatible(
                "anomaly calibration scores are degenerate (no separating threshold)".into(),
            )
        })?;
        self.tasks.anomaly_threshold = Some(threshold);
        Ok(threshold)
    }

    /// The integer-pipeline cosine matrix shared by the quantized top-k
    /// and anomaly paths: fused quantizing encode, then packed cosines.
    fn quantized_cosines(&self, queries: &Matrix) -> Result<Matrix, ModelError> {
        let encoded = self.encoder.encode_batch_quantized(
            queries,
            Some(self.center.means()),
            self.memory.width(),
        )?;
        Ok(packed_cosine_matrix(
            &encoded,
            &self.memory,
            &self.inv_norms,
        )?)
    }

    /// Flips `round(rate * memory_bits())` random bits of the stored class
    /// memory (the Fig. 8 fault model) and refreshes the per-class code
    /// norms and the decoded panel in place from the faulted words.
    /// Returns the number of bits flipped.
    pub fn inject_faults(&mut self, rate: f64, rng: &mut SeededRng) -> usize {
        let flipped = flip_random_bits(&mut self.memory, rate, rng);
        self.refresh_scoring_state();
        flipped
    }
}

/// Greatest score of a non-empty row (the anomaly scorer's "best class").
fn max_score(scores: &[f32]) -> f32 {
    scores[argmax(scores)]
}

/// Index of the strictly greatest score (ties resolve to the lower class
/// index, matching `ClassModel`'s argmax convention).
fn argmax(scores: &[f32]) -> usize {
    let mut best = 0;
    for i in 1..scores.len() {
        if scores[i] > scores[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistHdConfig;
    use disthd_datasets::suite::{PaperDataset, SuiteConfig};
    use disthd_eval::Classifier;
    use disthd_linalg::RngSeed;

    fn trained() -> (DistHd, disthd_datasets::TrainTest) {
        let data = PaperDataset::Diabetes
            .generate(&SuiteConfig::at_scale(0.002))
            .unwrap();
        let mut model = DistHd::new(
            DistHdConfig {
                dim: 512,
                epochs: 10,
                ..Default::default()
            },
            data.train.feature_dim(),
            data.train.class_count(),
        );
        model.fit(&data.train, None).unwrap();
        (model, data)
    }

    #[test]
    fn freeze_requires_fitted_model() {
        let model = DistHd::new(
            DistHdConfig {
                dim: 64,
                ..Default::default()
            },
            4,
            3,
        );
        assert!(matches!(
            DeployedModel::freeze(&model, BitWidth::B8),
            Err(ModelError::NotFitted)
        ));
    }

    #[test]
    fn integer_path_predictions_match_f32_snapshot_at_every_width() {
        // The zero-dequantize serving path must predict exactly what the
        // old dequantize-into-a-ClassModel snapshot path predicted, for
        // every sample, at every storage precision — including after a
        // hot-swap and after fault injection.
        use disthd_hd::ClassModel;
        let (model, data) = trained();
        for width in BitWidth::all() {
            let mut deployed = DeployedModel::freeze(&model, width).unwrap();
            let mut rng = SeededRng::new(RngSeed(17));
            for phase in 0..2 {
                if phase == 1 {
                    deployed.inject_faults(0.02, &mut rng);
                }
                let mut snapshot = ClassModel::from_matrix(deployed.memory_parts().dequantize());
                for i in 0..data.test.len() {
                    let mut encoded = deployed
                        .encoder_parts()
                        .encode(data.test.sample(i))
                        .unwrap();
                    deployed.center_parts().apply(&mut encoded);
                    let expected = snapshot.predict(&encoded);
                    let got = deployed.predict(data.test.sample(i)).unwrap();
                    assert_eq!(got, expected, "{width}, sample {i}, phase {phase}");
                }
                // The batched path agrees with the single path.
                let n = data.test.len().min(32);
                let rows: Vec<usize> = (0..n).collect();
                let batch = deployed
                    .predict_batch(&data.test.features().select_rows(&rows))
                    .unwrap();
                for (i, &b) in batch.iter().enumerate() {
                    assert_eq!(
                        b,
                        deployed.predict(data.test.sample(i)).unwrap(),
                        "{width}, batched sample {i}, phase {phase}"
                    );
                }
            }
        }
    }

    #[test]
    fn eight_bit_deployment_matches_f32_closely() {
        let (mut model, data) = trained();
        let f32_acc = model.accuracy(&data.test).unwrap();
        let deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        let deployed_acc = deployed.accuracy(&data.test).unwrap();
        assert!(
            (f32_acc - deployed_acc).abs() < 0.05,
            "f32 {f32_acc:.3} vs 8-bit {deployed_acc:.3}"
        );
    }

    #[test]
    fn memory_bits_scale_with_width() {
        let (model, _) = trained();
        let b1 = DeployedModel::freeze(&model, BitWidth::B1).unwrap();
        let b8 = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        assert_eq!(b8.memory_bits(), 8 * b1.memory_bits());
        assert_eq!(b1.width(), BitWidth::B1);
        assert_eq!(b1.class_count(), 3);
    }

    #[test]
    fn fault_injection_flips_requested_fraction() {
        let (model, _) = trained();
        let mut deployed = DeployedModel::freeze(&model, BitWidth::B4).unwrap();
        let mut rng = SeededRng::new(RngSeed(5));
        let flipped = deployed.inject_faults(0.10, &mut rng);
        assert_eq!(
            flipped,
            (deployed.memory_bits() as f64 * 0.10).round() as usize
        );
    }

    #[test]
    fn faulted_deployment_still_classifies_above_chance() {
        let (model, data) = trained();
        let mut deployed = DeployedModel::freeze(&model, BitWidth::B1).unwrap();
        let mut rng = SeededRng::new(RngSeed(6));
        deployed.inject_faults(0.05, &mut rng);
        let acc = deployed.accuracy(&data.test).unwrap();
        assert!(acc > 1.0 / 3.0, "faulted accuracy {acc}");
    }

    #[test]
    fn predict_batch_is_invariant_to_batch_composition() {
        // The serving engine relies on this: a query's prediction must not
        // depend on which other queries happen to share its batch.
        let (model, data) = trained();
        let deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        let n = data.test.len().min(40);
        let all: Vec<usize> = (0..n).collect();
        let batched = deployed
            .predict_batch(&data.test.features().select_rows(&all))
            .unwrap();
        for (i, &expected) in batched.iter().enumerate() {
            let solo = deployed
                .predict_batch(&data.test.features().select_rows(&[i]))
                .unwrap();
            assert_eq!(solo[0], expected, "sample {i}");
        }
    }

    #[test]
    fn quantized_batch_predictions_track_the_f32_pipeline() {
        // The all-integer pipeline quantizes the query side too, so it may
        // legitimately flip near-ties against the mixed f32-query pipeline
        // — but agreement must stay high at every width and the resulting
        // accuracy must not collapse.  The fused quantize epilogue replaces
        // encode → center → quantize, so the integer predictions must equal
        // scoring the round trip's codes exactly.
        let (model, data) = trained();
        let n = data.test.len();
        let all: Vec<usize> = (0..n).collect();
        let queries = data.test.features().select_rows(&all);
        for width in BitWidth::all() {
            let deployed = DeployedModel::freeze(&model, width).unwrap();
            let f32_preds = deployed.predict_batch(&queries).unwrap();
            let int_preds = deployed.predict_quantized_batch(&queries).unwrap();
            assert_eq!(int_preds.len(), n);
            let mut encoded = deployed.encoder_parts().encode_batch(&queries).unwrap();
            deployed.center_parts().apply_batch(&mut encoded);
            let mut inv_norms = Vec::new();
            deployed.memory_parts().code_inv_norms_into(&mut inv_norms);
            let round_trip = packed_predict_batch(
                &QuantizedMatrix::quantize(&encoded, width),
                deployed.memory_parts(),
                &inv_norms,
            )
            .unwrap();
            assert_eq!(int_preds, round_trip, "{width}: fused vs round trip");
            let agree = f32_preds
                .iter()
                .zip(&int_preds)
                .filter(|(a, b)| a == b)
                .count() as f64
                / n as f64;
            let floor = match width {
                BitWidth::B1 | BitWidth::B2 => 0.85,
                _ => 0.95,
            };
            assert!(agree >= floor, "{width}: agreement {agree:.3} < {floor}");
            let f32_acc = f32_preds
                .iter()
                .enumerate()
                .filter(|&(i, &p)| p == data.test.label(i))
                .count() as f64
                / n as f64;
            let int_acc = int_preds
                .iter()
                .enumerate()
                .filter(|&(i, &p)| p == data.test.label(i))
                .count() as f64
                / n as f64;
            assert!(
                int_acc >= f32_acc - 0.05,
                "{width}: integer accuracy {int_acc:.3} vs f32 {f32_acc:.3}"
            );
        }
        // Degenerate shapes behave like predict_batch.
        let deployed = DeployedModel::freeze(&model, BitWidth::B1).unwrap();
        assert!(deployed
            .predict_quantized_batch(&Matrix::zeros(2, 3))
            .is_err());
        assert!(deployed
            .predict_quantized_batch(&Matrix::zeros(0, 0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn predict_batch_checks_shapes_and_handles_empty() {
        let (model, _) = trained();
        let deployed = DeployedModel::freeze(&model, BitWidth::B4).unwrap();
        assert!(deployed.predict_batch(&Matrix::zeros(2, 3)).is_err());
        assert!(deployed
            .predict_batch(&Matrix::zeros(0, 0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn swap_class_memory_changes_predictions_and_rejects_reshape() {
        let (model, data) = trained();
        let mut deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        let before = deployed.accuracy(&data.test).unwrap();
        // Swapping in a permuted class memory must change behaviour.
        let k = deployed.class_count();
        let rotated: Vec<usize> = (0..k).map(|c| (c + 1) % k).collect();
        let permuted = model.class_model().unwrap().classes().select_rows(&rotated);
        deployed
            .swap_class_memory(QuantizedMatrix::quantize(&permuted, BitWidth::B8))
            .unwrap();
        let after = deployed.accuracy(&data.test).unwrap();
        assert!(after < before, "permuted memory should hurt: {after}");
        // Swapping the original back restores the original accuracy.
        let restore =
            QuantizedMatrix::quantize(model.class_model().unwrap().classes(), BitWidth::B8);
        deployed.swap_class_memory(restore).unwrap();
        assert_eq!(deployed.accuracy(&data.test).unwrap(), before);
        // Topology changes are rejected.
        let wrong = QuantizedMatrix::quantize(&Matrix::zeros(k + 1, 512), BitWidth::B8);
        assert!(matches!(
            deployed.swap_class_memory(wrong),
            Err(ModelError::Incompatible(_))
        ));
    }

    #[test]
    fn with_swapped_memory_matches_in_place_swap_and_shares_the_encoder() {
        let (model, data) = trained();
        let deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        let k = deployed.class_count();
        let rotated: Vec<usize> = (0..k).map(|c| (c + 1) % k).collect();
        let permuted = model.class_model().unwrap().classes().select_rows(&rotated);
        let replacement = QuantizedMatrix::quantize(&permuted, BitWidth::B8);

        // Copy-on-write swap: `self` is untouched, the derived generation
        // predicts exactly like an in-place swap on a clone.
        let derived = deployed.with_swapped_memory(replacement.clone()).unwrap();
        let mut swapped = deployed.clone();
        swapped.swap_class_memory(replacement).unwrap();
        for i in 0..data.test.len().min(40) {
            let x = data.test.sample(i);
            assert_eq!(
                derived.predict(x).unwrap(),
                swapped.predict(x).unwrap(),
                "sample {i}"
            );
        }
        // The pre-swap deployment still serves the old memory.
        assert_eq!(
            deployed.accuracy(&data.test).unwrap(),
            DeployedModel::freeze(&model, BitWidth::B8)
                .unwrap()
                .accuracy(&data.test)
                .unwrap()
        );
        // Structural sharing: both generations point at one encoder, so
        // publication costs O(class memory), not O(encoder).
        assert!(Arc::ptr_eq(&deployed.encoder, &derived.encoder));
        assert!(Arc::ptr_eq(&deployed.encoder, &deployed.clone().encoder));
        // Topology changes are rejected, exactly like the in-place swap.
        let wrong = QuantizedMatrix::quantize(&Matrix::zeros(k + 1, 512), BitWidth::B8);
        assert!(matches!(
            deployed.with_swapped_memory(wrong),
            Err(ModelError::Incompatible(_))
        ));
    }

    #[test]
    fn top_k_first_choice_matches_the_classify_path_on_both_pipelines() {
        // Top-k is post-processing of the very scores classify ranks, so
        // rank 0 must equal predict_batch (f32 pipeline) and
        // predict_quantized_batch (integer pipeline) — and k clamps.
        let (model, data) = trained();
        let n = data.test.len().min(40);
        let all: Vec<usize> = (0..n).collect();
        let queries = data.test.features().select_rows(&all);
        for width in [BitWidth::B8, BitWidth::B1] {
            let deployed = DeployedModel::freeze(&model, width).unwrap();
            let k = deployed.class_count();
            let ranked = deployed.top_k_batch(&queries, 2).unwrap();
            let classes = deployed.predict_batch(&queries).unwrap();
            for (r, ranks) in ranked.iter().enumerate() {
                assert_eq!(ranks.len(), 2, "{width}, row {r}");
                assert_eq!(ranks[0], classes[r], "{width}, row {r}");
            }
            let int_ranked = deployed.top_k_quantized_batch(&queries, 2).unwrap();
            let int_classes = deployed.predict_quantized_batch(&queries).unwrap();
            for (r, ranks) in int_ranked.iter().enumerate() {
                assert_eq!(ranks[0], int_classes[r], "{width}, integer row {r}");
            }
            // k beyond the class count clamps to a full ranking.
            let full = deployed.top_k_batch(&queries, k + 10).unwrap();
            assert!(full.iter().all(|ranks| ranks.len() == k));
            // Rankings are batch-composition invariant.
            let solo = deployed.top_k_batch(&queries.select_rows(&[3]), 2).unwrap();
            assert_eq!(solo[0], ranked[3], "{width}: solo vs batched ranking");
        }
        let deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        assert!(deployed.top_k_batch(&queries, 0).is_err());
        assert!(deployed.top_k_quantized_batch(&queries, 0).is_err());
        assert!(deployed
            .top_k_batch(&Matrix::zeros(0, 0), 2)
            .unwrap()
            .is_empty());
    }

    /// Uniform-noise queries with the deployment's arity — off the
    /// training manifold, so they should resemble no class.
    fn noise_queries(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = SeededRng::new(RngSeed(seed));
        Matrix::from_fn(n, dim, |_, _| rng.next_unit())
    }

    #[test]
    fn anomaly_scores_separate_the_manifold_from_noise_and_calibrate() {
        let (model, data) = trained();
        let mut deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        let n = data.test.len().min(60);
        let all: Vec<usize> = (0..n).collect();
        let inliers = data.test.features().select_rows(&all);
        let outliers = noise_queries(n, data.test.feature_dim(), 0xA70);

        let in_scores = deployed.anomaly_scores(&inliers).unwrap();
        let out_scores = deployed.anomaly_scores(&outliers).unwrap();
        // Scores are genuine cosines.
        for s in in_scores.iter().chain(&out_scores) {
            assert!((-1.001..=1.001).contains(s), "score {s}");
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&in_scores) > mean(&out_scores) + 0.05,
            "inliers {:.3} vs outliers {:.3}",
            mean(&in_scores),
            mean(&out_scores)
        );

        // Youden calibration stores a threshold that actually separates.
        let threshold = deployed
            .calibrate_anomaly_threshold(&inliers, &outliers)
            .unwrap();
        assert_eq!(deployed.tasks().anomaly_threshold, Some(threshold));
        let inlier_pass = in_scores.iter().filter(|&&s| s >= threshold).count();
        let outlier_flagged = out_scores.iter().filter(|&&s| s < threshold).count();
        assert!(
            inlier_pass * 10 >= n * 8,
            "only {inlier_pass}/{n} inliers pass"
        );
        assert!(
            outlier_flagged * 10 >= n * 8,
            "only {outlier_flagged}/{n} outliers flagged"
        );

        // Batch-composition invariance: a solo score equals the batched one.
        let solo = deployed.anomaly_scores(&inliers.select_rows(&[5])).unwrap();
        assert_eq!(solo[0].to_bits(), in_scores[5].to_bits());

        // The integer pipeline agrees directionally (same separation).
        let int_in = deployed.anomaly_scores_quantized(&inliers).unwrap();
        let int_out = deployed.anomaly_scores_quantized(&outliers).unwrap();
        assert!(mean(&int_in) > mean(&int_out) + 0.05);
        let int_solo = deployed
            .anomaly_scores_quantized(&inliers.select_rows(&[5]))
            .unwrap();
        assert_eq!(int_solo[0].to_bits(), int_in[5].to_bits());
    }

    #[test]
    fn task_configuration_validates_and_travels_with_swaps() {
        let (model, _) = trained();
        let mut deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        assert!(deployed.tasks().is_empty());
        // k outside 1..=classes is rejected.
        assert!(deployed
            .set_tasks(ServingTasks {
                top_k: Some(0),
                anomaly_threshold: None
            })
            .is_err());
        assert!(deployed
            .set_tasks(ServingTasks {
                top_k: Some(deployed.class_count() + 1),
                anomaly_threshold: None
            })
            .is_err());
        let tasks = ServingTasks {
            top_k: Some(2),
            anomaly_threshold: Some(0.25),
        };
        deployed.set_tasks(tasks).unwrap();
        assert!(!deployed.tasks().is_empty());
        // Hot-swap derivation keeps the configuration.
        let derived = deployed
            .with_swapped_memory(deployed.memory_parts().clone())
            .unwrap();
        assert_eq!(derived.tasks(), tasks);
        assert_eq!(deployed.clone().tasks(), tasks);
        // Calibration rejects empty batches.
        let dim = model.encoder().input_dim();
        assert!(deployed
            .calibrate_anomaly_threshold(&Matrix::zeros(0, dim), &noise_queries(4, dim, 1))
            .is_err());
        assert!(deployed
            .calibrate_anomaly_threshold(&noise_queries(4, dim, 1), &Matrix::zeros(0, dim))
            .is_err());
    }

    /// Checks every f32 scorer of `deployed` at 1, 3, 4 and 32 rows
    /// against two references: the scalar oracle over the deployment's own
    /// words (bitwise on scores) and a fresh `from_parts` deployment over
    /// the same memory.  A derived panel or norm left stale by any
    /// mutation fails here.
    fn assert_scorers_track_the_words(deployed: &DeployedModel, queries: &Matrix, stage: &str) {
        use disthd_hd::quantized_similarity_to_all;
        let memory = deployed.memory_parts();
        let fresh = DeployedModel::from_parts(
            deployed.encoder_parts().clone(),
            deployed.center_parts().clone(),
            memory.clone(),
        );
        let mut inv_norms = Vec::new();
        memory.code_inv_norms_into(&mut inv_norms);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rows in [1usize, 3, 4, 32] {
            let batch = queries.select_rows(&(0..rows).collect::<Vec<_>>());
            let mut encoded = deployed.encoder_parts().encode_batch(&batch).unwrap();
            deployed.center_parts().apply_batch(&mut encoded);
            let oracle: Vec<Vec<f32>> = (0..rows)
                .map(|r| quantized_similarity_to_all(encoded.row(r), memory, &inv_norms).unwrap())
                .collect();
            let classes: Vec<usize> = oracle.iter().map(|s| argmax(s)).collect();
            let ranked: Vec<Vec<usize>> = oracle
                .iter()
                .map(|s| disthd_linalg::top_k_largest(s, 2))
                .collect();
            let anomaly: Vec<f32> = oracle
                .iter()
                .enumerate()
                .map(|(r, s)| max_score(s) / disthd_linalg::l2_norm(encoded.row(r)))
                .collect();
            let at = format!("{stage}, {rows} rows");
            for model in [deployed, &fresh] {
                assert_eq!(model.predict_batch(&batch).unwrap(), classes, "{at}");
                assert_eq!(model.top_k_batch(&batch, 2).unwrap(), ranked, "{at}");
                assert_eq!(
                    bits(&model.anomaly_scores(&batch).unwrap()),
                    bits(&anomaly),
                    "{at}"
                );
            }
            for r in 0..rows {
                let mut single = deployed.encoder_parts().encode(batch.row(r)).unwrap();
                deployed.center_parts().apply(&mut single);
                let expected = quantized_similarity_to_all(&single, memory, &inv_norms).unwrap();
                for model in [deployed, &fresh] {
                    let scores = model.decision_scores(batch.row(r)).unwrap();
                    assert_eq!(bits(&scores), bits(&expected), "{at}, row {r}");
                }
            }
        }
    }

    #[test]
    fn scoring_panel_never_goes_stale() {
        let (model, data) = trained();
        let n = data.test.len();
        let queries = Matrix::from_fn(32, data.test.feature_dim(), |r, c| {
            data.test.sample(r % n)[c]
        });
        let k = model.class_model().unwrap().class_count();
        let rotated: Vec<usize> = (0..k).map(|c| (c + 1) % k).collect();
        let permuted = QuantizedMatrix::quantize(
            &model.class_model().unwrap().classes().select_rows(&rotated),
            BitWidth::B8,
        );
        let mut deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        assert_scorers_track_the_words(&deployed, &queries, "freeze");
        deployed.swap_class_memory(permuted.clone()).unwrap();
        assert_scorers_track_the_words(&deployed, &queries, "swap_class_memory");
        deployed.inject_faults(0.05, &mut SeededRng::new(RngSeed(23)));
        assert_scorers_track_the_words(&deployed, &queries, "inject_faults");
        let derived = DeployedModel::freeze(&model, BitWidth::B8)
            .unwrap()
            .with_swapped_memory(permuted)
            .unwrap();
        assert_scorers_track_the_words(&derived, &queries, "with_swapped_memory");
        let mut bytes = Vec::new();
        crate::io::save_deployed(&deployed, &mut bytes).unwrap();
        let loaded = crate::io::load_deployed(bytes.as_slice()).unwrap();
        assert_scorers_track_the_words(&loaded, &queries, "save/load");
        assert_eq!(
            loaded.predict_batch(&queries).unwrap(),
            deployed.predict_batch(&queries).unwrap()
        );
    }

    #[test]
    fn decision_scores_rank_like_predict() {
        let (model, data) = trained();
        let deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        let x = data.test.sample(0);
        let predicted = deployed.predict(x).unwrap();
        let scores = deployed.decision_scores(x).unwrap();
        assert_eq!(disthd_linalg::argsort_descending(&scores)[0], predicted);
    }
}
