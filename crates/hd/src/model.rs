use disthd_linalg::{dot_gemm_order, normalize_l2_in_place, Matrix, PackedRhs, ShapeError};

/// The top-1 result of a similarity query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Index of the most similar class.
    pub class: usize,
    /// Similarity score of that class.
    pub score: f32,
}

/// The top-2 result of a similarity query — the unit of information DistHD's
/// dynamic encoder feeds on (§III-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopK {
    /// Most similar class and its score.
    pub first: Prediction,
    /// Second most similar class and its score.
    pub second: Prediction,
}

impl TopK {
    /// Top-2 scan over a per-class score slice (one row of a batched
    /// similarity matrix).  Ties resolve to the lower class index, matching
    /// [`ClassModel::top2`] exactly.
    ///
    /// # Panics
    ///
    /// Panics if `scores.len() < 2`.
    pub fn from_scores(scores: &[f32]) -> Self {
        assert!(scores.len() >= 2, "top2 requires at least two classes");
        let (first, second) = top2_of(scores);
        TopK { first, second }
    }
}

/// A set of class hypervectors — the trained HDC model ( C in Fig. 3).
///
/// Stores the raw accumulated class hypervectors plus a lazily refreshed
/// row-normalized copy so that cosine similarity (eq. 1) is a single dot
/// product per class at query time.  The normalized rows are also held as
/// the GEMM's packed right-hand side (`D × k`, column `c` = normalized
/// class `c`), so every scorer — batched, blocked or single-row — computes
/// each score as one ascending [`dot_gemm_order`] chain and agrees with
/// every other bit for bit.
///
/// # Example
///
/// ```
/// use disthd_hd::ClassModel;
///
/// let mut model = ClassModel::new(2, 4);
/// model.bundle_into(0, &[1.0, 0.0, 0.0, 0.0]);
/// model.bundle_into(1, &[0.0, 1.0, 0.0, 0.0]);
/// assert_eq!(model.predict(&[0.9, 0.1, 0.0, 0.0]), 0);
/// let top2 = model.top2(&[0.9, 0.1, 0.0, 0.0])?;
/// assert_eq!((top2.first.class, top2.second.class), (0, 1));
/// # Ok::<(), disthd_linalg::ShapeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClassModel {
    classes: Matrix,
    normalized: Matrix,
    /// `normalized` transposed into the GEMM's packed panel layout,
    /// refreshed in place under the same dirty flag, so no similarity
    /// product ever transposes or repacks a clean model.
    panel: PackedRhs,
    normalized_dirty: bool,
}

impl ClassModel {
    /// Creates a model with `class_count` all-zero class hypervectors of
    /// dimension `dim`.
    pub fn new(class_count: usize, dim: usize) -> Self {
        Self {
            classes: Matrix::zeros(class_count, dim),
            normalized: Matrix::zeros(class_count, dim),
            panel: PackedRhs::new(dim, class_count),
            normalized_dirty: false,
        }
    }

    /// Builds a model from an existing class matrix (one row per class).
    pub fn from_matrix(classes: Matrix) -> Self {
        let (k, dim) = classes.shape();
        Self {
            classes,
            normalized: Matrix::zeros(k, dim),
            panel: PackedRhs::new(dim, k),
            normalized_dirty: true,
        }
    }

    /// Replaces the class matrix in place — the hot-swap entry point.
    ///
    /// A live server periodically receives a freshly retrained (or freshly
    /// dequantized) class memory; this swaps it in without rebuilding the
    /// model value, and the normalized caches refresh lazily on the next
    /// query, so readers never observe a half-normalized state.
    ///
    /// # Example
    ///
    /// ```
    /// use disthd_hd::ClassModel;
    /// use disthd_linalg::Matrix;
    ///
    /// let mut model = ClassModel::new(2, 2);
    /// model.bundle_into(0, &[1.0, 0.0]);
    /// model.bundle_into(1, &[0.0, 1.0]);
    /// // Retraining swapped the winning directions.
    /// let retrained = Matrix::from_rows(&[vec![0.0, 2.0], vec![2.0, 0.0]])?;
    /// model.set_classes(retrained);
    /// assert_eq!(model.predict(&[1.0, 0.0]), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `classes` does not match the model's `(class_count, dim)`
    /// shape — a swap may change weights, never topology.
    pub fn set_classes(&mut self, classes: Matrix) {
        assert_eq!(
            classes.shape(),
            self.classes.shape(),
            "hot-swap must preserve the (classes, dim) shape"
        );
        self.classes = classes;
        self.normalized_dirty = true;
    }

    /// Number of classes `k`.
    pub fn class_count(&self) -> usize {
        self.classes.rows()
    }

    /// Dimensionality `D` of the class hypervectors.
    pub fn dim(&self) -> usize {
        self.classes.cols()
    }

    /// Borrows the raw (unnormalized) class matrix.
    pub fn classes(&self) -> &Matrix {
        &self.classes
    }

    /// Borrows class `c` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `c >= class_count()`.
    pub fn class(&self, c: usize) -> &[f32] {
        self.classes.row(c)
    }

    /// Adds `alpha * hv` into class `c` (Algorithm 1's adaptive update).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range or `hv.len() != dim()`.
    pub fn accumulate(&mut self, c: usize, alpha: f32, hv: &[f32]) {
        disthd_linalg::axpy(alpha, hv, self.classes.row_mut(c));
        self.normalized_dirty = true;
    }

    /// Bundles `hv` into class `c` with unit weight (single-pass training).
    pub fn bundle_into(&mut self, c: usize, hv: &[f32]) {
        self.accumulate(c, 1.0, hv);
    }

    /// Zeroes dimension `d` in every class (performed when a dimension is
    /// dropped for regeneration: the model must relearn it from scratch).
    ///
    /// # Panics
    ///
    /// Panics if `d >= dim()`.
    pub fn reset_dimension(&mut self, d: usize) {
        for c in 0..self.classes.rows() {
            self.classes.set(c, d, 0.0);
        }
        self.normalized_dirty = true;
    }

    /// Zeroes several dimensions at once.
    pub fn reset_dimensions(&mut self, dims: &[usize]) {
        for &d in dims {
            self.reset_dimension(d);
        }
    }

    /// Bundle-initializes *only* the selected dimensions from an encoded
    /// batch: `C[label_i][d] += encoded[i][d]` for every sample `i` and
    /// every `d` in `dims`.
    ///
    /// After dimension regeneration the fresh dimensions hold zeros and the
    /// mistake-driven adaptive updates would train them only glacially;
    /// this one-pass partial bundling gives them the same warm start the
    /// full model got from `bundle_init`.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != encoded.rows()`, any label is out of
    /// range, `encoded.cols() != dim()`, or any dim index is out of range.
    pub fn bundle_dimensions(&mut self, encoded: &Matrix, labels: &[usize], dims: &[usize]) {
        assert_eq!(labels.len(), encoded.rows(), "labels/sample count mismatch");
        assert_eq!(encoded.cols(), self.dim(), "encoded width mismatch");
        for (i, &label) in labels.iter().enumerate() {
            assert!(label < self.class_count(), "label out of range");
            let row = encoded.row(i);
            for &d in dims {
                let current = self.classes.get(label, d);
                self.classes.set(label, d, current + row[d]);
            }
        }
        self.normalized_dirty = true;
    }

    /// Refreshes the normalized rows and the class panel in place, if
    /// stale.  Each row is normalized exactly as
    /// [`crate::similarity::cosine_similarity_matrix`] does, without allocating.
    fn refresh(&mut self) {
        if !self.normalized_dirty {
            return;
        }
        for c in 0..self.classes.rows() {
            let row = self.normalized.row_mut(c);
            row.copy_from_slice(self.classes.row(c));
            normalize_l2_in_place(row);
            for (slot, &v) in self.panel.column_slots(c).zip(row.iter()) {
                *slot = v;
            }
        }
        self.normalized_dirty = false;
    }

    /// Similarity of `query` to every class (eq. 1, using normalized rows).
    ///
    /// Each score is one [`dot_gemm_order`] chain against the normalized
    /// class row, so it equals the matching entry of
    /// [`Self::similarity_matrix`] bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `query.len() != dim()`.
    pub fn similarities(&mut self, query: &[f32]) -> Result<Vec<f32>, ShapeError> {
        self.refresh();
        if query.len() != self.dim() {
            return Err(ShapeError::new(
                "similarities",
                (1, query.len()),
                self.normalized.shape(),
            ));
        }
        Ok(self
            .normalized
            .iter_rows()
            .map(|row| dot_gemm_order(query, row))
            .collect())
    }

    /// Borrows the row-normalized class matrix (`N` of eq. 1), refreshing
    /// it if stale.
    pub fn normalized_classes(&mut self) -> &Matrix {
        self.refresh();
        &self.normalized
    }

    /// Similarities of every encoded sample to every class in one batched
    /// GEMM: returns the `samples × classes` score matrix
    /// `encoded · Nᵀ`.
    ///
    /// One product against the class panel, held packed: no per-call
    /// transpose or pack.  Entry `(i, c)` is bit-identical to
    /// [`Self::similarities`] of row `i` at class `c`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `encoded.cols() != dim()`.
    pub fn similarity_matrix(&mut self, encoded: &Matrix) -> Result<Matrix, ShapeError> {
        self.refresh();
        encoded.matmul_prepacked_map(&self.panel, |_, x| x)
    }

    /// Scores rows `first_row..first_row + out.len() / class_count()` of
    /// `encoded` against every class into `out`, row-major — the blocked
    /// adaptive epoch's scorer.  Serial, and bit-identical to the matching
    /// rows of [`Self::similarity_matrix`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `encoded.cols() != dim()`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not whole rows or the row range runs past
    /// `encoded.rows()`.
    pub(crate) fn similarity_rows_into(
        &mut self,
        encoded: &Matrix,
        first_row: usize,
        out: &mut [f32],
    ) -> Result<(), ShapeError> {
        self.refresh();
        encoded.matmul_rows_into(&self.panel, first_row, out)
    }

    /// Predicted class for every row of `encoded`, via one batched GEMM and
    /// a row-wise argmax.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `encoded.cols() != dim()`.
    ///
    /// # Panics
    ///
    /// Panics if the model has no classes.
    pub fn predict_batch(&mut self, encoded: &Matrix) -> Result<Vec<usize>, ShapeError> {
        let sims = self.similarity_matrix(encoded)?;
        Ok(sims.iter_rows().map(|row| argmax(row).0).collect())
    }

    /// Index of the most similar class.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim()` or the model has no classes.
    pub fn predict(&mut self, query: &[f32]) -> usize {
        self.top1(query)
            .expect("query length matches model dim")
            .class
    }

    /// Most similar class with its score.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `query.len() != dim()`.
    ///
    /// # Panics
    ///
    /// Panics if the model has zero classes.
    pub fn top1(&mut self, query: &[f32]) -> Result<Prediction, ShapeError> {
        let sims = self.similarities(query)?;
        let (class, score) = argmax(&sims);
        Ok(Prediction { class, score })
    }

    /// Two most similar classes with scores (§III-B "Top-2 Labels").
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `query.len() != dim()`.
    ///
    /// # Panics
    ///
    /// Panics if the model has fewer than two classes.
    pub fn top2(&mut self, query: &[f32]) -> Result<TopK, ShapeError> {
        let sims = self.similarities(query)?;
        Ok(TopK::from_scores(&sims))
    }

    /// The `k` most similar classes, best first.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `query.len() != dim()`.
    pub fn top_k(&mut self, query: &[f32], k: usize) -> Result<Vec<Prediction>, ShapeError> {
        let sims = self.similarities(query)?;
        let idx = disthd_linalg::top_k_largest(&sims, k);
        Ok(idx
            .into_iter()
            .map(|class| Prediction {
                class,
                score: sims[class],
            })
            .collect())
    }
}

/// `(argmax, max)` of a non-empty slice.
fn argmax(values: &[f32]) -> (usize, f32) {
    assert!(!values.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for i in 1..values.len() {
        if values[i] > values[best] {
            best = i;
        }
    }
    (best, values[best])
}

/// Top-2 entries of a slice with at least two elements, one pass.
fn top2_of(values: &[f32]) -> (Prediction, Prediction) {
    let (mut i1, mut i2) = if values[0] >= values[1] {
        (0, 1)
    } else {
        (1, 0)
    };
    for i in 2..values.len() {
        if values[i] > values[i1] {
            i2 = i1;
            i1 = i;
        } else if values[i] > values[i2] {
            i2 = i;
        }
    }
    (
        Prediction {
            class: i1,
            score: values[i1],
        },
        Prediction {
            class: i2,
            score: values[i2],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_class_model() -> ClassModel {
        let mut m = ClassModel::new(2, 4);
        m.bundle_into(0, &[1.0, 0.0, 0.0, 0.0]);
        m.bundle_into(1, &[0.0, 1.0, 0.0, 0.0]);
        m
    }

    #[test]
    fn predict_picks_most_similar() {
        let mut m = two_class_model();
        assert_eq!(m.predict(&[0.8, 0.2, 0.0, 0.0]), 0);
        assert_eq!(m.predict(&[0.2, 0.8, 0.0, 0.0]), 1);
    }

    #[test]
    fn top2_orders_by_score() {
        let mut m = ClassModel::new(3, 3);
        m.bundle_into(0, &[1.0, 0.0, 0.0]);
        m.bundle_into(1, &[0.7, 0.7, 0.0]);
        m.bundle_into(2, &[0.0, 0.0, 1.0]);
        let t = m.top2(&[1.0, 0.1, 0.0]).unwrap();
        assert_eq!(t.first.class, 0);
        assert_eq!(t.second.class, 1);
        assert!(t.first.score >= t.second.score);
    }

    #[test]
    fn top_k_returns_sorted_prefix() {
        let mut m = ClassModel::new(4, 2);
        m.bundle_into(0, &[1.0, 0.0]);
        m.bundle_into(1, &[0.9, 0.1]);
        m.bundle_into(2, &[0.0, 1.0]);
        m.bundle_into(3, &[-1.0, 0.0]);
        let top = m.top_k(&[1.0, 0.0], 3).unwrap();
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].class, 0);
        assert!(top[0].score >= top[1].score && top[1].score >= top[2].score);
    }

    #[test]
    fn set_classes_swaps_weights_and_invalidates_caches() {
        let mut m = two_class_model();
        assert_eq!(m.predict(&[1.0, 0.0, 0.0, 0.0]), 0);
        let swapped =
            Matrix::from_rows(&[vec![0.0, 1.0, 0.0, 0.0], vec![1.0, 0.0, 0.0, 0.0]]).unwrap();
        m.set_classes(swapped);
        assert_eq!(m.predict(&[1.0, 0.0, 0.0, 0.0]), 1);
    }

    #[test]
    #[should_panic(expected = "hot-swap must preserve")]
    fn set_classes_rejects_shape_change() {
        let mut m = two_class_model();
        m.set_classes(Matrix::zeros(3, 4));
    }

    #[test]
    fn accumulate_moves_decision_boundary() {
        let mut m = two_class_model();
        // Strongly reinforce class 1 along the first axis: class 1 becomes
        // [5, 1, 0, 0], so a query pointing in exactly that direction must
        // now prefer class 1 over the pure-axis class 0.
        m.accumulate(1, 5.0, &[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(m.predict(&[5.0, 1.0, 0.0, 0.0]), 1);
    }

    #[test]
    fn reset_dimension_erases_information() {
        let mut m = two_class_model();
        m.reset_dimension(0);
        assert_eq!(m.class(0), &[0.0, 0.0, 0.0, 0.0]);
        // Class 1 only used dim 1, unaffected.
        assert_eq!(m.class(1), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn reset_dimensions_resets_many() {
        let mut m = two_class_model();
        m.reset_dimensions(&[0, 1]);
        assert!(m.class(0).iter().all(|&v| v == 0.0));
        assert!(m.class(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn similarities_have_one_entry_per_class() {
        let mut m = two_class_model();
        let sims = m.similarities(&[0.5, 0.5, 0.0, 0.0]).unwrap();
        assert_eq!(sims.len(), 2);
    }

    #[test]
    fn similarity_rejects_bad_query_shape() {
        let mut m = two_class_model();
        assert!(m.similarities(&[1.0]).is_err());
    }

    #[test]
    fn from_matrix_round_trips() {
        let mat = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]]).unwrap();
        let mut m = ClassModel::from_matrix(mat);
        assert_eq!(m.class_count(), 2);
        assert_eq!(m.predict(&[1.0, 0.0]), 0);
    }

    #[test]
    fn similarity_matrix_matches_per_sample_queries() {
        // Both paths score through the same per-element chain, so they agree
        // bit for bit — at k = 2 and at a k and D that leave ragged panel
        // tiles.
        let mut m = two_class_model();
        let encoded = Matrix::from_rows(&[
            vec![0.8, 0.2, 0.0, 0.0],
            vec![0.1, 0.9, 0.0, 0.0],
            vec![0.5, 0.5, 0.5, 0.5],
        ])
        .unwrap();
        let mut wide = ClassModel::from_matrix(Matrix::from_fn(19, 37, |c, d| {
            ((c * 37 + d) as f32 * 0.61).sin()
        }));
        let wide_encoded = Matrix::from_fn(9, 37, |r, d| ((r * 5 + d) as f32 * 0.23).cos());
        for (model, encoded) in [(&mut m, &encoded), (&mut wide, &wide_encoded)] {
            let batched = model.similarity_matrix(encoded).unwrap();
            assert_eq!(batched.shape(), (encoded.rows(), model.class_count()));
            for r in 0..encoded.rows() {
                let single = model.similarities(encoded.row(r)).unwrap();
                assert_eq!(batched.row(r), single.as_slice(), "row {r}");
                let mut blocked = vec![0.0f32; model.class_count()];
                model
                    .similarity_rows_into(encoded, r, &mut blocked)
                    .unwrap();
                assert_eq!(blocked, single, "row {r}");
            }
        }
    }

    #[test]
    fn predict_batch_matches_predict() {
        let mut m = two_class_model();
        let encoded = Matrix::from_rows(&[
            vec![0.8, 0.2, 0.0, 0.0],
            vec![0.1, 0.9, 0.0, 0.0],
            vec![-0.3, 0.1, 0.2, 0.2],
        ])
        .unwrap();
        let batch = m.predict_batch(&encoded).unwrap();
        for (r, &predicted) in batch.iter().enumerate() {
            assert_eq!(predicted, m.predict(encoded.row(r)), "row {r}");
        }
    }

    #[test]
    fn batched_shapes_are_checked() {
        let mut m = two_class_model();
        assert!(m.similarity_matrix(&Matrix::zeros(2, 3)).is_err());
        assert!(m.predict_batch(&Matrix::zeros(2, 5)).is_err());
    }

    #[test]
    fn from_scores_ties_resolve_to_lower_index() {
        let t = TopK::from_scores(&[0.5, 0.5, 0.1]);
        assert_eq!((t.first.class, t.second.class), (0, 1));
    }

    #[test]
    fn top2_of_handles_descending_and_ascending() {
        let (a, b) = top2_of(&[3.0, 1.0, 2.0]);
        assert_eq!((a.class, b.class), (0, 2));
        let (a, b) = top2_of(&[1.0, 2.0, 3.0]);
        assert_eq!((a.class, b.class), (2, 1));
    }
}
