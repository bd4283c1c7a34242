//! # disthd-repro
//!
//! Umbrella crate for the DistHD (DAC 2023) reproduction workspace.  It
//! re-exports the member crates so the runnable examples and the
//! cross-crate integration tests in this repository have one import root;
//! library consumers should depend on the member crates directly:
//!
//! * [`disthd`] — the DistHD classifier (the paper's contribution);
//! * [`disthd_serve`] — the request-batching serving layer (engine, live
//!   server, snapshot/rollback);
//! * [`disthd_hd`] — the HDC substrate (RBF encoders, class models, quantization);
//! * [`disthd_baselines`] — BaselineHD, NeuralHD, MLP, linear SVM;
//! * [`disthd_datasets`] — the synthetic Table I dataset suite;
//! * [`disthd_eval`] — metrics, ROC, timing, robustness campaigns;
//! * [`disthd_linalg`] — the dense linear-algebra kernels.
//!
//! ## Quickstart
//!
//! ```
//! use disthd_repro::prelude::*;
//!
//! let data = PaperDataset::Diabetes.generate(&SuiteConfig::at_scale(0.001))?;
//! let mut model = DistHd::new(
//!     DistHdConfig { dim: 256, epochs: 6, ..Default::default() },
//!     data.train.feature_dim(),
//!     data.train.class_count(),
//! );
//! model.fit(&data.train, None)?;
//! println!("accuracy: {:.1}%", model.accuracy(&data.test)? * 100.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Serving quickstart
//!
//! The README's serving snippet, verbatim — a frozen model served through
//! the batching [`disthd_serve::Server`] with versioned snapshot/rollback:
//!
//! ```
//! use disthd_repro::prelude::*;
//! use disthd_serve::testkit;
//!
//! // Load a DHD1 artifact (or wrap a freshly frozen DeployedModel).
//! let deployment = testkit::tiny_deployment();
//! let mut snapshots = SnapshotStore::new(8);
//! let v0 = snapshots.push(&deployment)?;
//!
//! // Batch window 32: up to 32 queued queries share each batched pass.
//! let server = Server::spawn(deployment, BatchPolicy::window(32));
//! let client = server.client();
//! for query in testkit::tiny_queries(100) {
//!     let _class = client.predict(&query)?;
//! }
//!
//! // Roll back to the snapshot if an online update misbehaves.
//! client.install_model(snapshots.restore(v0)?)?;
//! server.shutdown()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub use disthd;
pub use disthd_baselines;
pub use disthd_datasets;
pub use disthd_eval;
pub use disthd_hd;
pub use disthd_linalg;
pub use disthd_serve;

/// One-line import for examples and tests.
pub mod prelude {
    pub use disthd::{DistHd, DistHdConfig, EncoderBackend, WeightParams};
    pub use disthd_baselines::{
        BaselineHd, BaselineHdConfig, LinearSvm, Mlp, MlpConfig, NeuralHd, NeuralHdConfig,
        SvmConfig,
    };
    pub use disthd_datasets::suite::{PaperDataset, SuiteConfig};
    pub use disthd_datasets::{Dataset, TrainTest};
    pub use disthd_eval::{Classifier, ModelError, TrainingHistory};
    pub use disthd_linalg::{Matrix, RngSeed, SeededRng};
    pub use disthd_serve::{BatchPolicy, Server, SnapshotStore};
}
