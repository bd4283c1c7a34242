//! Adaptive HDC learning (Algorithm 1 of the paper).
//!
//! This similarity-weighted perceptron update predates DistHD (it is the
//! training rule of OnlineHD-style learners and of the NeuralHD baseline),
//! so it lives in the substrate: every HDC model in the workspace shares it.
//!
//! For each encoded sample `H` with true label `l`: find the most similar
//! class `p`; if `p != l`, update
//!
//! ```text
//! C_p ← C_p − η · (1 − δ(H, C_p)) · H      (push away from the wrong class)
//! C_l ← C_l + η · (1 − δ(H, C_l)) · H      (pull toward the true class)
//! ```
//!
//! The `1 − δ` factor fights model saturation: samples the model already
//! represents well contribute almost nothing; genuinely new patterns
//! contribute with weight ≈ 1.
//!
//! Training starts from a [`bundle_init`] pass (every sample added to its
//! class with unit weight) before adaptive epochs.  Starting the perceptron
//! loop from an all-zero model can oscillate on strongly correlated data —
//! the first mispredictions inject anti-class components that the
//! scale-invariant cosine ranking never recovers from — whereas the bundled
//! prototypes give every class a stable positive similarity footing.
//!
//! ## Blocked scoring
//!
//! The epoch is sequential — every update changes the scores of the
//! samples after it — but most samples cause no update.  [`adaptive_epoch`]
//! therefore scores a block of 64 samples at a time with one GEMM
//! against the model's packed class panel, then scans the block in order.
//! The first mistake applies the two updates and the block restarts at the
//! next sample, scored against the refreshed model.  Every score is one
//! ascending [`disthd_linalg::dot_gemm_order`] chain over the current
//! normalized rows, so the epoch is bit-identical to the serial loop that
//! scores each sample on its own — at any block size and thread count.

use crate::model::ClassModel;
use disthd_linalg::{Matrix, ShapeError};

/// Samples scored per GEMM in [`adaptive_epoch`].  Large enough to amortize
/// the product's panel sweep; small enough that a mistake early in a block
/// wastes little rescoring.
const EPOCH_BLOCK_ROWS: usize = 64;

/// Outcome of one adaptive-learning pass over a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochStats {
    /// Samples seen.
    pub samples: usize,
    /// Samples that were mispredicted (and therefore caused an update).
    pub mistakes: usize,
}

impl EpochStats {
    /// Training accuracy of the pass.
    pub fn accuracy(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        1.0 - self.mistakes as f64 / self.samples as f64
    }
}

/// Runs one adaptive-learning epoch (Algorithm 1) over pre-encoded data.
///
/// `encoded` holds one hypervector per row; `labels[i]` is the true class of
/// row `i`; `learning_rate` is `η`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `encoded.cols() != model.dim()`.
///
/// # Panics
///
/// Panics if `labels.len() != encoded.rows()` or any label is out of range.
pub fn adaptive_epoch(
    model: &mut ClassModel,
    encoded: &Matrix,
    labels: &[usize],
    learning_rate: f32,
) -> Result<EpochStats, ShapeError> {
    assert_eq!(labels.len(), encoded.rows(), "labels/sample count mismatch");
    if encoded.cols() != model.dim() {
        return Err(ShapeError::new(
            "adaptive_epoch",
            encoded.shape(),
            (model.class_count(), model.dim()),
        ));
    }
    let k = model.class_count();
    assert!(labels.iter().all(|&l| l < k), "label out of range");
    let mut scores = vec![0.0f32; EPOCH_BLOCK_ROWS.min(encoded.rows()) * k];
    let mut mistakes = 0usize;
    let mut start = 0;
    while start < encoded.rows() {
        let rows = (encoded.rows() - start).min(EPOCH_BLOCK_ROWS);
        let block = &mut scores[..rows * k];
        model.similarity_rows_into(encoded, start, block)?;
        let mut next = start + rows;
        for (offset, sims) in block.chunks_exact(k).enumerate() {
            let i = start + offset;
            let label = labels[i];
            let predicted = argmax(sims);
            if predicted != label {
                mistakes += 1;
                let hv = encoded.row(i);
                let delta_wrong = sims[predicted];
                let delta_true = sims[label];
                model.accumulate(predicted, -(learning_rate * (1.0 - delta_wrong)), hv);
                model.accumulate(label, learning_rate * (1.0 - delta_true), hv);
                // The rest of the block was scored against the old model.
                next = i + 1;
                break;
            }
        }
        start = next;
    }
    Ok(EpochStats {
        samples: encoded.rows(),
        mistakes,
    })
}

/// Single-pass bundling initialization: adds every sample into its class
/// with unit weight.  A common warm start before adaptive iterations.
///
/// # Errors
///
/// Returns [`ShapeError`] if `encoded.cols() != model.dim()`.
///
/// # Panics
///
/// Panics if `labels.len() != encoded.rows()` or any label is out of range.
pub fn bundle_init(
    model: &mut ClassModel,
    encoded: &Matrix,
    labels: &[usize],
) -> Result<(), ShapeError> {
    assert_eq!(labels.len(), encoded.rows(), "labels/sample count mismatch");
    if encoded.cols() != model.dim() {
        return Err(ShapeError::new(
            "bundle_init",
            (encoded.rows(), encoded.cols()),
            (model.class_count(), model.dim()),
        ));
    }
    for (i, &label) in labels.iter().enumerate() {
        model.bundle_into(label, encoded.row(i));
    }
    Ok(())
}

fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    for i in 1..values.len() {
        if values[i] > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, RbfEncoder};
    use disthd_linalg::{dot_gemm_order, parallel, Gaussian, RngSeed, SeededRng};

    /// Two well-separated 2-feature classes, encoded with an RBF encoder.
    fn toy_problem(dim: usize) -> (Matrix, Vec<usize>, RbfEncoder) {
        let encoder = RbfEncoder::new(2, dim, RngSeed(1));
        let mut rng = SeededRng::new(RngSeed(2));
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..60 {
            let jitter = (rng.next_unit() - 0.5) * 0.1;
            if rng.next_bool(0.5) {
                rows.push(vec![0.2 + jitter, 0.8 - jitter]);
                labels.push(0);
            } else {
                rows.push(vec![0.8 + jitter, 0.2 - jitter]);
                labels.push(1);
            }
        }
        let batch = Matrix::from_rows(&rows).unwrap();
        let encoded = encoder.encode_batch(&batch).unwrap();
        (encoded, labels, encoder)
    }

    #[test]
    fn adaptive_learning_converges_on_separable_data() {
        let (encoded, labels, _) = toy_problem(512);
        let mut model = ClassModel::new(2, 512);
        bundle_init(&mut model, &encoded, &labels).unwrap();
        let mut last = EpochStats {
            samples: 0,
            mistakes: usize::MAX,
        };
        for _ in 0..10 {
            last = adaptive_epoch(&mut model, &encoded, &labels, 0.1).unwrap();
        }
        assert!(
            last.accuracy() > 0.95,
            "train accuracy {} too low",
            last.accuracy()
        );
    }

    #[test]
    fn adaptive_epochs_do_not_regress_from_bundled_start() {
        let (encoded, labels, _) = toy_problem(512);
        let mut model = ClassModel::new(2, 512);
        bundle_init(&mut model, &encoded, &labels).unwrap();
        let first = adaptive_epoch(&mut model, &encoded, &labels, 0.1).unwrap();
        let mut later = first;
        for _ in 0..5 {
            later = adaptive_epoch(&mut model, &encoded, &labels, 0.1).unwrap();
        }
        assert!(later.mistakes <= first.mistakes);
    }

    #[test]
    fn bundle_init_learns_separable_data_in_one_pass() {
        let (encoded, labels, _) = toy_problem(1024);
        let mut model = ClassModel::new(2, 1024);
        bundle_init(&mut model, &encoded, &labels).unwrap();
        let mut correct = 0;
        for (i, &label) in labels.iter().enumerate() {
            if model.predict(encoded.row(i)) == label {
                correct += 1;
            }
        }
        assert!(correct as f64 / labels.len() as f64 > 0.9);
    }

    /// The literal serial Algorithm 1 loop: every sample scored on its own,
    /// one [`dot_gemm_order`] chain per class against the current
    /// normalized rows.  Also returns the rows that caused an update.
    fn serial_gemm_order_epoch(
        model: &mut ClassModel,
        encoded: &Matrix,
        labels: &[usize],
        learning_rate: f32,
    ) -> (EpochStats, Vec<usize>) {
        let mut mistake_rows = Vec::new();
        for (i, &label) in labels.iter().enumerate() {
            let hv = encoded.row(i);
            let sims: Vec<f32> = model
                .normalized_classes()
                .iter_rows()
                .map(|row| dot_gemm_order(hv, row))
                .collect();
            let predicted = argmax(&sims);
            if predicted != label {
                mistake_rows.push(i);
                model.accumulate(predicted, -(learning_rate * (1.0 - sims[predicted])), hv);
                model.accumulate(label, learning_rate * (1.0 - sims[label]), hv);
            }
        }
        let stats = EpochStats {
            samples: encoded.rows(),
            mistakes: mistake_rows.len(),
        };
        (stats, mistake_rows)
    }

    /// Noisy `k`-class data: each row is its class prototype plus Gaussian
    /// noise.  Labels are reassigned on a random `flip_rate` share of rows
    /// and on rows chosen to fall, alternately, on the last and the first
    /// row of a block when they are the only mistakes.
    fn noisy_problem(
        k: usize,
        dim: usize,
        rows: usize,
        flip_rate: f64,
        seed: u64,
    ) -> (Matrix, Vec<usize>) {
        let mut rng = SeededRng::new(RngSeed(seed));
        let noise = Gaussian::new(0.0, 0.8);
        let prototypes =
            Matrix::from_fn(k, dim, |_, _| if rng.next_bool(0.5) { 1.0 } else { -1.0 });
        let mut labels = Vec::with_capacity(rows);
        let encoded = Matrix::from_fn(rows, dim, |r, d| {
            if d == 0 {
                labels.push(rng.next_index(k));
            }
            prototypes.get(labels[r], d) + noise.sample(&mut rng)
        });
        let mut flips = vec![false; rows];
        let (mut start, mut last) = (0, true);
        loop {
            let r = if last {
                start + EPOCH_BLOCK_ROWS - 1
            } else {
                start
            };
            if r >= rows {
                break;
            }
            flips[r] = true;
            start = r + 1;
            last = !last;
        }
        for (label, flip) in labels.iter_mut().zip(flips) {
            if flip || rng.next_bool(flip_rate) {
                *label = (*label + 1 + rng.next_index(k - 1)) % k;
            }
        }
        (encoded, labels)
    }

    #[test]
    fn blocked_epoch_matches_the_serial_gemm_order_loop_bitwise() {
        // D is never a multiple of 16 and no row count a multiple of 64,
        // so panels and blocks are ragged.  Block edges are replayed from
        // the serial mistake rows: the sweep must put mistakes on the first
        // and on the last row of some block.
        let (mut first_row_hit, mut last_row_hit) = (false, false);
        for (k, dim, rows, flip_rate) in [
            (2, 203, 257, 0.0),
            (2, 203, 150, 0.1),
            (26, 203, 301, 0.1),
            (26, 37, 191, 0.0),
            (2, 9, 65, 0.1),
        ] {
            let seed = (k * dim + rows) as u64;
            let (encoded, labels) = noisy_problem(k, dim, rows, flip_rate, seed);
            for threads in [1usize, 4] {
                parallel::with_thread_count(threads, || {
                    let mut blocked = ClassModel::new(k, dim);
                    bundle_init(&mut blocked, &encoded, &labels).unwrap();
                    let mut serial = blocked.clone();
                    for epoch in 0..4 {
                        let stats = adaptive_epoch(&mut blocked, &encoded, &labels, 0.05).unwrap();
                        let (expected, mistake_rows) =
                            serial_gemm_order_epoch(&mut serial, &encoded, &labels, 0.05);
                        let at = format!("k={k} D={dim} n={rows} threads={threads} epoch={epoch}");
                        assert_eq!(stats, expected, "{at}");
                        let bits = |m: &ClassModel| -> Vec<u32> {
                            m.classes().as_slice().iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(bits(&blocked), bits(&serial), "{at}");
                        let mut start = 0;
                        for &m in &mistake_rows {
                            while m >= start + EPOCH_BLOCK_ROWS {
                                start += EPOCH_BLOCK_ROWS;
                            }
                            first_row_hit |= m == start;
                            last_row_hit |= m == start + EPOCH_BLOCK_ROWS - 1;
                            start = m + 1;
                        }
                    }
                });
            }
        }
        assert!(first_row_hit && last_row_hit, "no mistake on a block edge");
    }

    #[test]
    fn epoch_stats_accuracy() {
        let s = EpochStats {
            samples: 10,
            mistakes: 2,
        };
        assert!((s.accuracy() - 0.8).abs() < 1e-9);
        let empty = EpochStats {
            samples: 0,
            mistakes: 0,
        };
        assert_eq!(empty.accuracy(), 0.0);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let mut model = ClassModel::new(2, 8);
        let encoded = Matrix::zeros(1, 4);
        assert!(adaptive_epoch(&mut model, &encoded, &[0], 0.1).is_err());
        assert!(bundle_init(&mut model, &encoded, &[0]).is_err());
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_panics() {
        let mut model = ClassModel::new(2, 4);
        let encoded = Matrix::zeros(1, 4);
        adaptive_epoch(&mut model, &encoded, &[7], 0.1).unwrap();
    }
}
