//! Batched task scoring: the one scoring path every [`crate::Server`]
//! shard runs, plus the batch policy that sizes its batches.

use disthd::DeployedModel;
use disthd_eval::ModelError;
use disthd_linalg::Matrix;
use std::time::Duration;

/// The serving task a submitted query asks for.
///
/// Every kind rides the same batched encode + similarity path; they
/// differ only in how the per-row scores are post-processed, so mixed
/// batches coalesce freely and every answer stays bit-identical whatever
/// batch (or task mix) a query lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Plain classification: the argmax class.
    Classify,
    /// Top-k multi-label ranking; `k` comes from the live model's
    /// [`disthd::ServingTasks::top_k`] (resolved at flush time, so a
    /// hot-swap retunes queued rankings coherently with the memory that
    /// scores them), falling back to `k = 1`.
    TopK,
    /// One-class anomaly scoring against the live model's calibrated
    /// [`disthd::ServingTasks::anomaly_threshold`].
    Anomaly,
}

/// One-class anomaly answer: the query's best class cosine plus the
/// thresholded verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyVerdict {
    /// Best class cosine in `[-1, 1]` (higher = more inlier-like).
    pub score: f32,
    /// `score < threshold` under the model's calibrated threshold;
    /// always `false` when the model carries no threshold (an
    /// uncalibrated deployment flags nothing rather than guessing).
    pub anomalous: bool,
}

/// A flushed answer, one variant per [`TaskKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum TaskResponse {
    /// Answer to a [`TaskKind::Classify`] query.
    Class(usize),
    /// Answer to a [`TaskKind::TopK`] query: classes, best first.
    Ranked(Vec<usize>),
    /// Answer to a [`TaskKind::Anomaly`] query.
    Anomaly(AnomalyVerdict),
}

/// Scores one coalesced batch of mixed-task queries against `model`.
///
/// The rows are split by task kind and each sub-batch runs the matching
/// batched [`DeployedModel`] API (classify keeps its exact historical
/// path, so existing classify answers cannot move by a bit); because
/// every API computes its rows independently, the split preserves
/// batch-composition invariance.  Task configuration (`k`, threshold) is
/// resolved from `model` **here** — at flush time, from the same snapshot
/// that scores the batch — so a hot-swap can never pair one generation's
/// scores with another generation's threshold.
pub(crate) fn score_task_batch(
    model: &DeployedModel,
    integer_pipeline: bool,
    feature_dim: usize,
    rows: &[&[f32]],
    kinds: &[TaskKind],
) -> Result<Vec<TaskResponse>, ModelError> {
    debug_assert_eq!(rows.len(), kinds.len());
    let batch = Matrix::from_row_slices(feature_dim, rows)?;
    let mut out: Vec<Option<TaskResponse>> = vec![None; rows.len()];
    for kind in [TaskKind::Classify, TaskKind::TopK, TaskKind::Anomaly] {
        let idx: Vec<usize> = kinds
            .iter()
            .enumerate()
            .filter(|&(_, k)| *k == kind)
            .map(|(i, _)| i)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let selected;
        let sub = if idx.len() == batch.rows() {
            &batch
        } else {
            selected = batch.select_rows(&idx);
            &selected
        };
        match kind {
            TaskKind::Classify => {
                let classes = if integer_pipeline {
                    model.predict_quantized_batch(sub)?
                } else {
                    model.predict_batch(sub)?
                };
                for (&i, class) in idx.iter().zip(classes) {
                    out[i] = Some(TaskResponse::Class(class));
                }
            }
            TaskKind::TopK => {
                let k = model
                    .tasks()
                    .top_k
                    .unwrap_or(1)
                    .clamp(1, model.class_count());
                let ranked = if integer_pipeline {
                    model.top_k_quantized_batch(sub, k)?
                } else {
                    model.top_k_batch(sub, k)?
                };
                for (&i, ranks) in idx.iter().zip(ranked) {
                    out[i] = Some(TaskResponse::Ranked(ranks));
                }
            }
            TaskKind::Anomaly => {
                let threshold = model.tasks().anomaly_threshold;
                let scores = if integer_pipeline {
                    model.anomaly_scores_quantized(sub)?
                } else {
                    model.anomaly_scores(sub)?
                };
                for (&i, score) in idx.iter().zip(scores) {
                    out[i] = Some(TaskResponse::Anomaly(AnomalyVerdict {
                        score,
                        anomalous: threshold.is_some_and(|t| score < t),
                    }));
                }
            }
        }
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every batch row is scored by its kind's pass"))
        .collect())
}

/// The latency-vs-throughput knob of the serving layer.
///
/// `max_batch` is the **batch window**: how many queries a
/// [`crate::Server`] shard accumulates before it runs one batched encode +
/// similarity pass.  A window of 1 is classic one-at-a-time serving
/// (lowest per-query latency, lowest throughput); larger windows amortize
/// each pass over more queries and multiply throughput at the cost of
/// queueing delay.  `max_wait` bounds how long a partial batch may wait
/// for company before it is flushed anyway.
///
/// # Example
///
/// ```
/// use disthd_serve::BatchPolicy;
/// use std::time::Duration;
///
/// let throughput_oriented = BatchPolicy::window(64);
/// assert_eq!(throughput_oriented.max_batch, 64);
/// // Default: a moderate window with a 1 ms patience cap.
/// assert_eq!(BatchPolicy::default().max_batch, 32);
/// assert_eq!(BatchPolicy::default().max_wait, Duration::from_millis(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum queries coalesced into one batched pass (≥ 1).
    pub max_batch: usize,
    /// Upper bound a partial batch waits for more arrivals before being
    /// flushed.
    pub max_wait: Duration,
}

impl BatchPolicy {
    /// Policy with the given batch window and the default 1 ms patience.
    pub fn window(max_batch: usize) -> Self {
        Self {
            max_batch: max_batch.max(1),
            ..Self::default()
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait: Duration::from_millis(1),
        }
    }
}
