//! Concurrent swap-under-load: clients hammer a multi-worker [`Server`]
//! while a writer cycles `install_model` / rollback through a
//! [`SnapshotStore`].
//!
//! The epoch-publication contract under test (DESIGN.md §9):
//!
//! * every response is produced by **exactly one** installed generation —
//!   never a blend of two (no torn batches, no partially-applied swap);
//! * no request is lost or double-answered while generations churn;
//! * once the writer stops, the *final* installed generation answers every
//!   subsequent query (publication is visible by the next batch).
//!
//! The generations are rotations of the base class memory, so each one
//! maps a given query to a knowable class; a torn or phantom generation
//! would produce an answer outside the per-query valid set.

use disthd::DeployedModel;
use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
use disthd_linalg::parallel;
use disthd_serve::{BatchPolicy, Server, SnapshotStore};
use std::sync::atomic::{AtomicBool, Ordering};

/// The base deployment plus one rotated generation (rotation `v` serves
/// class memory row `(c + v) % k` as class `c`).
///
/// Deliberately **fewer generations than classes**: rotating a class
/// memory rotates its predictions, so cycling all `k` rotations would make
/// every class a valid answer for every query and the torn-snapshot
/// assertion vacuous.  With two generations over three classes, a blended
/// or phantom snapshot can produce a third class that neither generation
/// predicts — which the hammer would catch.
fn generations() -> Vec<DeployedModel> {
    let base = disthd_serve::testkit::tiny_deployment();
    let classes = base.memory_parts().dequantize();
    let k = base.class_count();
    assert!(k > 2, "need more classes than generations");
    (0..2)
        .map(|v| {
            let rotated: Vec<usize> = (0..k).map(|c| (c + v) % k).collect();
            let memory = QuantizedMatrix::quantize(&classes.select_rows(&rotated), BitWidth::B8);
            base.with_swapped_memory(memory).expect("same topology")
        })
        .collect()
}

/// Exercises the hammer at one (GEMM thread count, shard count) point.
fn hammer(threads: usize, shards: usize) {
    parallel::with_thread_count(threads, || {
        let versions = generations();
        let queries = disthd_serve::testkit::tiny_queries(16);

        // Ground truth per (generation, query), computed on the exact
        // deployments the snapshot store will reinstall.
        let mut store = SnapshotStore::new(versions.len());
        for model in &versions {
            store.push(model).expect("snapshot");
        }
        let expected: Vec<Vec<usize>> = (0..versions.len())
            .map(|v| {
                let restored = store.restore(v as u64).expect("restore");
                queries
                    .iter()
                    .map(|q| restored.predict(q).expect("predict"))
                    .collect()
            })
            .collect();
        // Valid answers for query `q` under ANY installed generation.
        let valid = |q: usize, answer: usize| expected.iter().any(|e| e[q] == answer);

        let server = Server::spawn_sharded(
            store.restore(0).expect("restore v0"),
            BatchPolicy::window(8),
            shards,
        );
        const CLIENT_THREADS: usize = 4;
        const PREDICTS_PER_CLIENT: usize = 150;
        const INSTALL_CYCLES: usize = 40;
        let writer_done = AtomicBool::new(false);
        let final_version = std::thread::scope(|s| {
            // The writer cycles every generation through restore + install
            // (the rollback path) as fast as the store can deserialize.
            let writer = {
                let client = server.client();
                let store = &store;
                let writer_done = &writer_done;
                let n = versions.len();
                s.spawn(move || {
                    let mut last = 0usize;
                    for cycle in 0..INSTALL_CYCLES {
                        last = cycle % n;
                        let model = store.restore(last as u64).expect("restore");
                        client.install_model(model).expect("install");
                    }
                    writer_done.store(true, Ordering::Release);
                    last
                })
            };
            for t in 0..CLIENT_THREADS {
                let client = server.client();
                let queries = &queries;
                s.spawn(move || {
                    for i in 0..PREDICTS_PER_CLIENT {
                        let q = (t + i) % queries.len();
                        let answer = client.predict(&queries[q]).expect("serve");
                        assert!(
                            valid(q, answer),
                            "threads {threads}, shards {shards}: query {q} answered \
                             {answer}, which no installed generation produces — torn or \
                             phantom snapshot"
                        );
                    }
                });
            }
            writer.join().expect("writer")
        });

        // Quiesced: the final installed generation must answer everything
        // from the next batch on.
        assert!(writer_done.load(Ordering::Acquire));
        let client = server.client();
        for (q, query) in queries.iter().enumerate() {
            assert_eq!(
                client.predict(query).expect("serve"),
                expected[final_version][q],
                "threads {threads}, shards {shards}: query {q} not answered by the \
                 final installed generation after quiesce"
            );
        }

        let stats = server.shutdown().expect("no worker died under load");
        let hammered = (CLIENT_THREADS * PREDICTS_PER_CLIENT + queries.len()) as u64;
        assert_eq!(
            stats.served, hammered,
            "threads {threads}, shards {shards}: lost or double-served requests"
        );
        assert_eq!(stats.shed, 0, "closed-loop load must never shed");
    });
}

#[test]
fn swap_under_load_single_threaded_kernels() {
    hammer(1, 1);
}

#[test]
fn swap_under_load_two_threads_two_shards() {
    hammer(2, 2);
}

#[test]
fn swap_under_load_eight_threads_four_shards() {
    hammer(8, 4);
}
