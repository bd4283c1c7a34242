//! The full serving lifecycle: offline fit → freeze → live batched
//! serving → streamed online learning → quantized hot-swap → rollback.
//!
//! A deployment starts from a model trained on an initial corpus.  Live
//! traffic is served by a [`Server`] worker that coalesces concurrent
//! queries into batched passes (the batch window is the latency-vs-
//! throughput knob, see `BatchPolicy`).  Meanwhile labelled samples keep
//! arriving; `DistHd::partial_fit` consumes them in mini-batches —
//! adaptive updates plus periodic Algorithm 2 regeneration on a sliding
//! window — and the refreshed class memory is hot-swapped into the live
//! server without dropping a query.  Every model generation is snapshotted
//! so a bad update can be rolled back.
//!
//! Run with `cargo run --release --example streaming_serving`.

use disthd::stream::StreamConfig;
use disthd::DeployedModel;
use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
use disthd_repro::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = PaperDataset::Pamap2.generate(&SuiteConfig::at_scale(0.005))?;

    // Day 0: the model ships trained on only the first half of the
    // training corpus — the rest arrives later, as live labelled traffic.
    let half = data.train.len() / 2;
    let initial: Vec<usize> = (0..half).collect();
    let later: Vec<usize> = (half..data.train.len()).collect();
    let initial_data = data.train.select(&initial);
    let stream_data = data.train.select(&later);

    let mut model = DistHd::new(
        DistHdConfig {
            dim: 512,
            epochs: 8,
            patience: None,
            ..Default::default()
        },
        data.train.feature_dim(),
        data.train.class_count(),
    );
    model.fit(&initial_data, None)?;
    let deployed = DeployedModel::freeze(&model, BitWidth::B8)?;
    // Measure through the batched API the live server's workers call, so
    // the post-rollback accuracy is exactly comparable.
    let day0_acc = {
        let predictions = deployed.predict_batch(data.test.features())?;
        disthd_eval::accuracy(&predictions, data.test.labels())
    };

    // Version every generation; keep the last 8.
    let mut snapshots = SnapshotStore::new(8);
    let v0 = snapshots.push(&deployed)?;

    // Go live: two workers drain one queue, each coalescing what has
    // queued (up to window 32) and scoring it against the epoch-published
    // snapshot.
    let server = Server::spawn_sharded(deployed, BatchPolicy::window(32), 2);
    println!(
        "serving PAMAP2-like traffic: day-0 accuracy {:.2}%",
        day0_acc * 100.0
    );

    // Concurrent clients hammer the server while we keep learning.
    let start = Instant::now();
    let served: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|worker| {
                let client = server.client();
                let test = &data.test;
                s.spawn(move || {
                    let mut hits = 0usize;
                    for i in (worker..test.len()).step_by(4) {
                        if client.predict(test.sample(i)).expect("server alive") == test.label(i) {
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    println!(
        "4 concurrent clients: {}/{} correct in {:.1?}\n",
        served,
        data.test.len(),
        start.elapsed()
    );

    // Online learning: stream the late-arriving labelled data through
    // partial_fit (prequential accounting), then hot-swap the refreshed
    // class memory into the live server.
    let cfg = StreamConfig {
        window: 512,
        regen_every: 8,
        warmup: 0, // the model is already warm from the offline fit
    };
    let (mut seen, mut mistakes) = (0usize, 0usize);
    for _pass in 0..4 {
        for range in stream_data.batch_ranges(32) {
            let batch = stream_data.select(&range.collect::<Vec<_>>());
            let stats = model.partial_fit_with(&batch, &cfg)?;
            seen += stats.samples;
            mistakes += stats.mistakes;
        }
    }
    println!(
        "streamed {} late samples x4 passes, prequential accuracy {:.2}%",
        stream_data.len(),
        (1.0 - mistakes as f64 / seen.max(1) as f64) * 100.0
    );

    // The encoder may have regenerated dimensions, so ship a full new
    // deployment generation (encoder + memory), snapshot it, install it.
    let updated = DeployedModel::freeze(&model, BitWidth::B8)?;
    let v1 = snapshots.push(&updated)?;
    let client = server.client();
    client.install_model(updated)?;
    let online_acc = accuracy_through(&client, &data.test)?;
    println!(
        "hot-swapped generation v{v1}: live accuracy {:.2}% (day-0 was {:.2}%)",
        online_acc * 100.0,
        day0_acc * 100.0
    );

    // Demonstrate the class-memory-only swap: quantize the current class
    // model and push just those bits (what a device would receive for an
    // adaptive-update-only refresh, no regeneration since the last ship).
    let memory_only =
        QuantizedMatrix::quantize(model.class_model().expect("fitted").classes(), BitWidth::B8);
    client.swap_class_memory(memory_only)?;

    // Ops drill: roll back to the day-0 snapshot and verify behaviour.
    client.install_model(snapshots.restore(v0)?)?;
    let rolled_back = accuracy_through(&client, &data.test)?;
    println!(
        "rolled back to v{v0}: live accuracy {:.2}% (matches day-0: {})",
        rolled_back * 100.0,
        (rolled_back - day0_acc).abs() < 1e-12
    );

    let stats = server.shutdown()?;
    println!(
        "\nserver lifetime: {} queries in {} batched passes ({} shed)",
        stats.served, stats.flushes, stats.shed
    );
    Ok(())
}

/// Accuracy of the live server over a dataset, query by query, through
/// the prequential accumulator (the serving-side streaming metric).
fn accuracy_through(
    client: &disthd_serve::ServerClient,
    data: &Dataset,
) -> Result<f64, Box<dyn std::error::Error>> {
    let mut acc = disthd_eval::StreamingAccuracy::new();
    for i in 0..data.len() {
        acc.record(client.predict(data.sample(i))?, data.label(i));
    }
    Ok(acc.accuracy())
}
