//! The zero-dequantize contract of the integer serving pipeline.
//!
//! Like `disthd`'s `no_dequantize` test, this lives alone in its own test
//! binary (its own process) because it asserts on the process-wide
//! [`disthd_hd::quantize::dequantize_calls`] counter; sharing a binary
//! with any test that legitimately dequantizes would race the counter.

use disthd_hd::quantize::{dequantize_calls, BitWidth, QuantizedMatrix};
use disthd_linalg::Matrix;
use disthd_serve::{testkit, BatchPolicy, Server, ServerOptions};

/// Sharded server in integer mode, across flushes, hot-swaps, rollback
/// installs and shutdown: no step may reconstruct an `f32` class matrix.
#[test]
fn integer_serving_lifecycle_performs_zero_dequantize_calls() {
    let deployment = testkit::tiny_deployment();
    let queries = testkit::tiny_queries(40);
    let before = dequantize_calls();

    // Concurrent predicts against the published snapshot, a mid-stream
    // memory publication, a rollback install, then a drained shutdown.
    let server = Server::spawn_with(
        deployment.clone(),
        BatchPolicy::window(4),
        ServerOptions {
            shards: 2,
            queue_capacity: 1024,
            integer_pipeline: true,
            ..ServerOptions::default()
        },
    );
    let client = server.client();
    let pending: Vec<_> = queries.iter().map(|q| client.submit(q).unwrap()).collect();
    for p in pending {
        p.wait().expect("integer batch scored");
    }
    client
        .swap_class_memory(deployment.memory_parts().clone())
        .expect("published swap");
    client.predict(&queries[0]).expect("post-publication");
    client.install_model(deployment.clone()).expect("install");
    client.predict(&queries[0]).expect("post-install");
    let stats = server.shutdown().expect("clean shutdown");
    assert_eq!(stats.served, queries.len() as u64 + 2);

    assert_eq!(
        dequantize_calls(),
        before,
        "integer serving must never call QuantizedMatrix::dequantize"
    );

    // Sanity: the counter is live in this process.
    let _ = QuantizedMatrix::quantize(
        &Matrix::from_rows(&[vec![1.0, -1.0]]).unwrap(),
        BitWidth::B8,
    )
    .dequantize();
    assert_eq!(dequantize_calls(), before + 1);
}
