//! # disthd-serve
//!
//! Streaming inference and online-learning serving layer for the DistHD
//! reproduction — the request path between a persisted `DHD` model
//! artifact (checksummed `DHD4` container, see `disthd::io`) and live
//! classification traffic.
//!
//! * [`BatchPolicy`] — the latency-vs-throughput knob (batch window +
//!   patience bound).
//! * [`TaskKind`] / [`TaskResponse`] — serving **task types** on the same
//!   batched path: plain classification, top-k multi-label ranking, and
//!   one-class anomaly scoring against a calibrated similarity threshold
//!   (see `disthd::ServingTasks`).  Mixed batches are partitioned by kind
//!   at flush time, so no answer ever depends on batch composition.
//! * [`Server`] / [`ServerClient`] — the live, **sharded** server: N
//!   worker threads (one per shard), each pulling batches from its own
//!   queue with work stealing, so qps scales with cores.  Each batch is
//!   answered through one batched encode + one similarity pass that reads
//!   the quantized class words directly (the deployment keeps **no**
//!   `f32` class snapshot — see `disthd::DeployedModel`); answers are
//!   bit-identical to the direct `DeployedModel` batch APIs at every batch
//!   window and shard count.  Admission control sheds requests when a
//!   queue is at capacity ([`ServerOptions::queue_capacity`]) or past
//!   their opt-in deadline ([`SubmitOptions::deadline`]), and
//!   [`RetryPolicy`] adds bounded, deterministically-jittered client
//!   retry on overload.  Workers run
//!   **supervised**: a scoring panic fails its batch's tickets with
//!   [`ServeError::WorkerFailed`] and the worker restarts (bounded, with
//!   backoff) instead of killing the server.  Pair with
//!   [`disthd::DistHd::partial_fit`] for online learning behind a live
//!   server.
//! * [`ChaosPlan`] — a seeded, deterministic fault-injection schedule
//!   (worker panics, slow-shard stalls) for drilling the supervision
//!   layer; [`Server::spawn_chaotic`] runs a server under it.
//! * [`PublishedModel`] — epoch-based snapshot publication: hot-swap and
//!   rollback **publish** a new immutable model generation that workers
//!   pick up at batch boundaries; writers never block readers, batches
//!   never tear, and a publication is visible by the next batch.
//! * [`SnapshotStore`] — bounded, versioned, checksummed `DHD` snapshots
//!   with restore/rollback; a bit-flipped blob fails closed and
//!   [`SnapshotStore::restore_or_rollback`] serves the last known good
//!   version instead.
//!
//! ## Serving quickstart
//!
//! ```
//! use disthd_serve::{BatchPolicy, Server, SnapshotStore};
//!
//! // In production the artifact comes off disk or the network; here we
//! // train a tiny one.
//! let deployment = disthd_serve::testkit::tiny_deployment();
//! let mut snapshots = SnapshotStore::new(8);
//! let v0 = snapshots.push(&deployment)?;
//!
//! // Batch window 32: up to 32 queued queries share each batched pass.
//! let server = Server::spawn(deployment, BatchPolicy::window(32));
//! let client = server.client();
//! for query in disthd_serve::testkit::tiny_queries(100) {
//!     let _class = client.predict(&query)?;
//! }
//!
//! // Roll back to the snapshot if an online update misbehaves.
//! client.install_model(snapshots.restore(v0)?)?;
//! assert_eq!(server.shutdown()?.served, 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! `examples/streaming_serving.rs` walks the full serve → stream →
//! hot-swap → rollback lifecycle; the serving workloads are measured by
//! the repository benchmark (`perfbench/README.md`).

#![deny(missing_docs)]

mod batch;
mod chaos;
mod publish;
mod server;
mod snapshot;

pub use batch::{AnomalyVerdict, BatchPolicy, TaskKind, TaskResponse};
pub use chaos::ChaosPlan;
pub use publish::{ModelReader, PublishedModel};
pub use server::{
    Prediction, RetryPolicy, ServeError, Server, ServerClient, ServerOptions, ServerStats,
    SubmitOptions,
};
pub use snapshot::{SnapshotError, SnapshotStore};

/// Tiny trained artifacts for doc-tests and examples.
///
/// Not part of the serving API — the helpers train a miniature model so
/// every example in this crate is runnable and fast.
pub mod testkit {
    use disthd::{DeployedModel, DistHd, DistHdConfig};
    use disthd_datasets::suite::{PaperDataset, SuiteConfig};
    use disthd_eval::Classifier;
    use disthd_hd::quantize::BitWidth;

    /// Trains a miniature Diabetes model and freezes it at 8 bits.
    pub fn tiny_deployment() -> DeployedModel {
        let data = PaperDataset::Diabetes
            .generate(&SuiteConfig::at_scale(0.001))
            .expect("synthetic dataset generation is infallible at this scale");
        let mut model = DistHd::new(
            DistHdConfig {
                dim: 128,
                epochs: 3,
                patience: None,
                ..Default::default()
            },
            data.train.feature_dim(),
            data.train.class_count(),
        );
        model.fit(&data.train, None).expect("tiny fit");
        DeployedModel::freeze(&model, BitWidth::B8).expect("freeze fitted model")
    }

    /// `n` query feature vectors matching [`tiny_deployment`]'s arity.
    pub fn tiny_queries(n: usize) -> Vec<Vec<f32>> {
        let data = PaperDataset::Diabetes
            .generate(&SuiteConfig::at_scale(0.001))
            .expect("synthetic dataset generation is infallible at this scale");
        (0..n)
            .map(|i| data.test.sample(i % data.test.len()).to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
    use disthd_linalg::Matrix;

    fn queries_matrix(n: usize) -> Matrix {
        let queries = testkit::tiny_queries(n);
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        Matrix::from_row_slices(queries[0].len(), &refs).unwrap()
    }

    /// The tiny deployment with both serving tasks configured.
    fn tasked_deployment(top_k: usize, threshold: f32) -> disthd::DeployedModel {
        let mut deployment = testkit::tiny_deployment();
        deployment
            .set_tasks(disthd::ServingTasks {
                top_k: Some(top_k),
                anomaly_threshold: Some(threshold),
            })
            .unwrap();
        deployment
    }

    const KIND_CYCLE: [TaskKind; 3] = [TaskKind::Classify, TaskKind::TopK, TaskKind::Anomaly];

    #[test]
    fn task_batches_match_the_direct_model_apis_at_every_window_and_thread_count() {
        // The headline serving invariant: whatever window, task mix and
        // kernel thread count a query is scored under, its answer — class,
        // full ranking, or anomaly score — equals the direct DeployedModel
        // batch API bit for bit, on both scoring pipelines.
        let deployment = tasked_deployment(2, 0.5);
        let queries = testkit::tiny_queries(60);
        let rows: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let kinds: Vec<TaskKind> = (0..rows.len()).map(|i| KIND_CYCLE[i % 3]).collect();
        let all = Matrix::from_row_slices(rows[0].len(), &rows).unwrap();
        for integer in [false, true] {
            let (classes, ranks, scores) = if integer {
                (
                    deployment.predict_quantized_batch(&all).unwrap(),
                    deployment.top_k_quantized_batch(&all, 2).unwrap(),
                    deployment.anomaly_scores_quantized(&all).unwrap(),
                )
            } else {
                (
                    deployment.predict_batch(&all).unwrap(),
                    deployment.top_k_batch(&all, 2).unwrap(),
                    deployment.anomaly_scores(&all).unwrap(),
                )
            };
            for window in [1usize, 2, 8, 32, 128] {
                for threads in [1usize, 2, 8] {
                    let served: Vec<TaskResponse> =
                        disthd_linalg::parallel::with_thread_count(threads, || {
                            rows.chunks(window)
                                .zip(kinds.chunks(window))
                                .flat_map(|(rows, kinds)| {
                                    batch::score_task_batch(
                                        &deployment,
                                        integer,
                                        all.cols(),
                                        rows,
                                        kinds,
                                    )
                                    .unwrap()
                                })
                                .collect()
                        });
                    for (r, response) in served.into_iter().enumerate() {
                        let tag = format!(
                            "row {r}, window {window}, {threads} threads, integer {integer}"
                        );
                        match (kinds[r], response) {
                            (TaskKind::Classify, TaskResponse::Class(class)) => {
                                assert_eq!(class, classes[r], "{tag}");
                            }
                            (TaskKind::TopK, TaskResponse::Ranked(ranked)) => {
                                assert_eq!(ranked, ranks[r], "{tag}");
                            }
                            (TaskKind::Anomaly, TaskResponse::Anomaly(verdict)) => {
                                assert_eq!(verdict.score.to_bits(), scores[r].to_bits(), "{tag}");
                                assert_eq!(verdict.anomalous, verdict.score < 0.5, "{tag}");
                            }
                            (kind, response) => {
                                panic!("{tag}: {kind:?} answered with {response:?}")
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn persisted_deployment_serves_like_the_original_after_load() {
        // A DHD artifact carries its class memory and task section into a
        // fresh server: the loaded k and threshold drive serving without
        // reconfiguration, and every answer matches the original model.
        let deployment = tasked_deployment(2, 0.9);
        let mut bytes = Vec::new();
        disthd::io::save_deployed(&deployment, &mut bytes).unwrap();
        let loaded = disthd::io::load_deployed(bytes.as_slice()).unwrap();
        assert_eq!(loaded.tasks().top_k, Some(2));
        let queries = queries_matrix(20);
        let classes = deployment.predict_batch(&queries).unwrap();
        let scores = deployment.anomaly_scores(&queries).unwrap();
        let server = Server::spawn(loaded, BatchPolicy::window(4));
        let client = server.client();
        for r in 0..queries.rows() {
            let q = queries.row(r);
            assert_eq!(client.predict(q).unwrap(), classes[r], "row {r}");
            let ranks = client.rank(q).unwrap();
            assert_eq!((ranks.len(), ranks[0]), (2, classes[r]), "row {r}");
            let verdict = client.score_anomaly(q).unwrap();
            assert_eq!(verdict.score.to_bits(), scores[r].to_bits(), "row {r}");
            assert_eq!(verdict.anomalous, scores[r] < 0.9, "row {r}");
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn malformed_query_is_rejected_without_poisoning_the_queue() {
        let server = Server::spawn(testkit::tiny_deployment(), BatchPolicy::window(4));
        let client = server.client();
        let good = testkit::tiny_queries(1).remove(0);
        let pending = client.submit(&good).unwrap();
        assert!(matches!(
            client.submit(&[1.0, 2.0]),
            Err(ServeError::Model(_))
        ));
        assert!(pending.wait().is_ok());
        server.shutdown().unwrap();
    }

    #[test]
    fn install_model_rejects_arity_mismatch() {
        let server = Server::spawn(testkit::tiny_deployment(), BatchPolicy::default());
        let data = disthd_datasets::suite::PaperDataset::Pamap2
            .generate(&disthd_datasets::suite::SuiteConfig::at_scale(0.001))
            .unwrap();
        let mut other = disthd::DistHd::new(
            disthd::DistHdConfig {
                dim: 128,
                epochs: 2,
                patience: None,
                ..Default::default()
            },
            data.train.feature_dim(),
            data.train.class_count(),
        );
        disthd_eval::Classifier::fit(&mut other, &data.train, None).unwrap();
        let other = disthd::DeployedModel::freeze(&other, BitWidth::B8).unwrap();
        assert!(matches!(
            server.client().install_model(other),
            Err(ServeError::Model(_))
        ));
        server.shutdown().unwrap();
    }

    #[test]
    fn server_serves_concurrent_clients_and_shuts_down_cleanly() {
        let deployment = testkit::tiny_deployment();
        let expected = deployment.predict_batch(&queries_matrix(24)).unwrap();
        let server = Server::spawn(deployment, BatchPolicy::window(8));
        let queries = testkit::tiny_queries(24);
        let answers: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = queries
                .iter()
                .map(|q| {
                    let client = server.client();
                    s.spawn(move || client.predict(q).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(answers, expected);
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.served, 24);
    }

    #[test]
    fn dead_server_reports_disconnected() {
        let server = Server::spawn(testkit::tiny_deployment(), BatchPolicy::default());
        let client = server.client();
        server.shutdown().unwrap();
        let q = testkit::tiny_queries(1).remove(0);
        assert!(matches!(client.predict(&q), Err(ServeError::Disconnected)));
    }

    #[test]
    fn snapshot_store_evicts_oldest_and_restores_exact_bytes() {
        let deployment = testkit::tiny_deployment();
        let mut store = SnapshotStore::new(2);
        let v0 = store.push(&deployment).unwrap();
        let v1 = store.push(&deployment).unwrap();
        let v2 = store.push(&deployment).unwrap();
        assert_eq!(store.versions(), vec![v1, v2]);
        assert!(matches!(
            store.restore(v0),
            Err(SnapshotError::UnknownVersion(0))
        ));
        let restored = store.restore(v2).unwrap();
        assert_eq!(restored.class_count(), deployment.class_count());
        assert!(store.bytes(v2).is_some());
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
    }

    #[test]
    fn rollback_through_server_restores_old_behaviour() {
        let deployment = testkit::tiny_deployment();
        let k = deployment.class_count();
        let dim = deployment.memory_parts().shape().1;
        let mut store = SnapshotStore::new(4);
        let v0 = store.push(&deployment).unwrap();

        let server = Server::spawn(deployment, BatchPolicy::window(4));
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let before = client.predict(&q).unwrap();

        // Bad update: constant memory collapses every answer to class 0.
        let constant = QuantizedMatrix::quantize(&Matrix::filled(k, dim, 1.0), BitWidth::B8);
        client.swap_class_memory(constant).unwrap();
        assert_eq!(client.predict(&q).unwrap(), 0);

        // Roll back to the snapshot.
        client.install_model(store.restore(v0).unwrap()).unwrap();
        assert_eq!(client.predict(&q).unwrap(), before);
        server.shutdown().unwrap();
    }

    #[test]
    fn corrupt_snapshot_fails_closed_with_a_named_checksum_error() {
        let deployment = testkit::tiny_deployment();
        let mut store = SnapshotStore::new(4);
        let v0 = store.push(&deployment).unwrap();
        // Flip one bit deep inside the class-memory payload: the blob still
        // parses structurally, so only the checksum can catch it.
        let blob_bits = store.bytes(v0).unwrap().len() * 8;
        assert!(store.flip_stored_bit(v0, blob_bits / 2));
        match store.restore(v0) {
            Err(SnapshotError::Persist(e)) => {
                assert!(
                    e.to_string().contains("checksum mismatch"),
                    "corruption must be named: {e}"
                );
            }
            other => panic!("corrupt blob must fail closed, got {other:?}"),
        }
        // Out-of-range flips and unknown versions are reported, not panics.
        assert!(!store.flip_stored_bit(v0, blob_bits));
        assert!(!store.flip_stored_bit(99, 0));
    }

    #[test]
    fn restore_or_rollback_serves_the_last_known_good_version() {
        let deployment = testkit::tiny_deployment();
        let mut store = SnapshotStore::new(4);
        let v0 = store.push(&deployment).unwrap();
        let v1 = store.push(&deployment).unwrap();
        let v2 = store.push(&deployment).unwrap();
        store.flip_stored_bit(v2, 1000);
        store.flip_stored_bit(v1, 1000);
        // v2 is corrupt; the rollback walks back past the also-corrupt v1
        // to v0.
        let (version, model) = store.restore_or_rollback(v2).unwrap();
        assert_eq!(version, v0);
        assert_eq!(model.class_count(), deployment.class_count());
        let (latest_good, _) = store.restore_latest_good().unwrap();
        assert_eq!(latest_good, v0);
        // A version that never existed is a caller bug, not corruption: no
        // fallback.
        assert!(matches!(
            store.restore_or_rollback(99),
            Err(SnapshotError::UnknownVersion(99))
        ));
        // Intact requests pass through unchanged.
        assert_eq!(store.restore_or_rollback(v0).unwrap().0, v0);
    }

    #[test]
    fn no_intact_snapshot_is_a_named_error() {
        let deployment = testkit::tiny_deployment();
        let mut store = SnapshotStore::new(2);
        let v0 = store.push(&deployment).unwrap();
        let v1 = store.push(&deployment).unwrap();
        store.flip_stored_bit(v0, 500);
        store.flip_stored_bit(v1, 500);
        assert!(matches!(
            store.restore_or_rollback(v1),
            Err(SnapshotError::NoIntactSnapshot)
        ));
        assert!(matches!(
            store.restore_latest_good(),
            Err(SnapshotError::NoIntactSnapshot)
        ));
        assert!(matches!(
            SnapshotStore::new(1).restore_latest_good(),
            Err(SnapshotError::NoIntactSnapshot)
        ));
    }
}
