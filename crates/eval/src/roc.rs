//! ROC curves and AUC (Fig. 6).
//!
//! The paper presents sensitivity/specificity trade-offs of DistHD's weight
//! parameters as ROC curves over a binary-ized task: given a per-sample
//! *score* for the positive class, sweep the decision threshold and trace
//! (FPR, TPR).

/// One point of an ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// False-positive rate (`1 − specificity`), the x axis of Fig. 6.
    pub fpr: f64,
    /// True-positive rate (sensitivity), the y axis of Fig. 6.
    pub tpr: f64,
    /// The score threshold that produced this point.
    pub threshold: f32,
}

/// Computes the ROC curve for binary labels (`true` = positive) and
/// positive-class scores.
///
/// Points are ordered by increasing FPR, starting at `(0, 0)` and ending at
/// `(1, 1)`.  Ties in score are handled by processing equal scores as one
/// threshold step (the standard construction).
///
/// Returns just the two endpoints when either class is absent.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn roc_curve(scores: &[f32], labels: &[bool]) -> Vec<RocPoint> {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    let positives = labels.iter().filter(|&&l| l).count();
    let negatives = labels.len() - positives;
    let endpoints = vec![
        RocPoint {
            fpr: 0.0,
            tpr: 0.0,
            threshold: f32::INFINITY,
        },
        RocPoint {
            fpr: 1.0,
            tpr: 1.0,
            threshold: f32::NEG_INFINITY,
        },
    ];
    if positives == 0 || negatives == 0 {
        return endpoints;
    }

    // Sort indices by descending score.
    let order = disthd_linalg::argsort_descending(scores);
    let mut points = Vec::with_capacity(scores.len() + 2);
    points.push(endpoints[0]);
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut i = 0;
    while i < order.len() {
        let threshold = scores[order[i]];
        // Consume the whole tie group.
        while i < order.len() && scores[order[i]] == threshold {
            if labels[order[i]] {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        points.push(RocPoint {
            fpr: fp as f64 / negatives as f64,
            tpr: tp as f64 / positives as f64,
            threshold,
        });
    }
    points
}

/// Area under the ROC curve via the trapezoidal rule.
///
/// `0.5` is chance; `1.0` is a perfect ranker.
pub fn auc(curve: &[RocPoint]) -> f64 {
    let mut area = 0.0;
    for pair in curve.windows(2) {
        let dx = pair[1].fpr - pair[0].fpr;
        area += dx * (pair[0].tpr + pair[1].tpr) / 2.0;
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranker_has_auc_one() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        let curve = roc_curve(&scores, &labels);
        assert!((auc(&curve) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inverted_ranker_has_auc_zero() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        assert!(auc(&roc_curve(&scores, &labels)) < 1e-9);
    }

    #[test]
    fn random_scores_are_near_half() {
        // Deterministic interleaving = exactly 0.5 by symmetry.
        let scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2];
        let labels = [true, false, true, false, true, false, true, false];
        let a = auc(&roc_curve(&scores, &labels));
        assert!((a - 0.5).abs() < 0.2, "auc {a}");
    }

    #[test]
    fn curve_starts_at_origin_and_ends_at_one_one() {
        let scores = [0.3, 0.6, 0.1];
        let labels = [true, false, true];
        let curve = roc_curve(&scores, &labels);
        let first = curve.first().unwrap();
        let last = curve.last().unwrap();
        assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
    }

    #[test]
    fn degenerate_single_class_returns_endpoints() {
        let curve = roc_curve(&[0.5, 0.6], &[true, true]);
        assert_eq!(curve.len(), 2);
        assert!((auc(&curve) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tied_scores_are_one_step() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        let curve = roc_curve(&scores, &labels);
        // (0,0) -> (1,1) in a single tie step.
        assert_eq!(curve.len(), 2);
        assert!((auc(&curve) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn monotone_fpr() {
        let scores = [0.9, 0.1, 0.8, 0.3, 0.7];
        let labels = [true, false, false, true, true];
        let curve = roc_curve(&scores, &labels);
        for pair in curve.windows(2) {
            assert!(pair[1].fpr >= pair[0].fpr);
            assert!(pair[1].tpr >= pair[0].tpr);
        }
    }
}
