//! # disthd-eval
//!
//! Evaluation substrate for the DistHD reproduction:
//!
//! * [`model`] — the shared [`model::Classifier`] trait, training history
//!   and model error type implemented by every learner in the workspace;
//! * [`metrics`] — accuracy, confusion matrices, per-class
//!   sensitivity/specificity (§III-C "Weight Parameters");
//! * [`topk`] — top-k accuracy (the Fig. 2(b) motivation measurement);
//! * [`roc`] — ROC curves and AUC (Fig. 6);
//! * [`timing`] — wall-clock measurement helpers (Fig. 5);
//! * [`robustness`] — quantize → bit-flip → re-evaluate campaigns (Fig. 8);
//! * [`stream`] — prequential (test-then-train) accuracy for online
//!   learners and live serving;
//! * [`report`] — fixed-width text tables matching the paper's layouts.

#![deny(missing_docs)]

pub mod metrics;
pub mod model;
pub mod report;
pub mod robustness;
pub mod roc;
pub mod stats;
pub mod stream;
pub mod timing;
pub mod topk;

pub use metrics::{
    accuracy, balanced_accuracy, confusion_matrix, macro_f1, per_class_rates, ClassRates,
    ConfusionMatrix,
};
pub use model::{Classifier, EpochRecord, ModelError, TrainingHistory};
pub use robustness::{QualityLoss, RobustnessPoint};
pub use roc::{auc, roc_curve, RocPoint};
pub use stats::{speedup, TrialSummary};
pub use stream::{PrequentialTrace, StreamingAccuracy};
pub use timing::{time_it, Timed};
pub use topk::top_k_accuracy;
