//! Drift-recovery regression: the first direct test of Algorithm 2's
//! reason for existing.
//!
//! A streaming DistHD model rides an abrupt concept drift (the generating
//! manifold is swapped under it).  With sliding-window regeneration
//! enabled, Algorithm 2 discards dimensions that mislead on the
//! post-drift window — clearing stale pre-drift memory along with them —
//! and the prequential windowed accuracy recovers.  With regeneration
//! disabled, the same adaptive learner must unlearn through
//! similarity-weighted updates alone and recovers measurably slower.
//!
//! The scenario is deterministic end to end (seeded drift stream, seeded
//! model), so the bounds below are exact regression pins, not statistical
//! expectations.

use disthd::stream::StreamConfig;
use disthd::{DistHd, DistHdConfig};
use disthd_datasets::drift::{DriftConfig, DriftStream};
use disthd_datasets::suite::PaperDataset;
use disthd_eval::stream::PrequentialTrace;
use disthd_eval::Classifier;
use disthd_hd::encoder::{EncoderBackend, StructuredRbfEncoder};

const BATCH: usize = 16;
const PRE_DRIFT_BATCHES: usize = 60;
const POST_DRIFT_BATCHES: usize = 60;
const TRACE_WINDOW: usize = 64;
const DIM: usize = 256;

/// Streams an abrupt-drift scenario through `partial_fit` on `backend`
/// and returns the prequential trace (recorded from the second batch on,
/// so every sample is scored by a fitted model) plus the drift index
/// within the trace.  `after_batch` sees the model after every batch.
fn run_scenario(
    backend: EncoderBackend,
    regen_every: usize,
    mut after_batch: impl FnMut(usize, &DistHd),
) -> (PrequentialTrace, usize) {
    let drift_at_sample = PRE_DRIFT_BATCHES * BATCH;
    let mut stream =
        DriftStream::new(DriftConfig::abrupt(PaperDataset::Diabetes, drift_at_sample)).unwrap();

    let mut model = DistHd::new(
        DistHdConfig {
            dim: DIM,
            encoder_backend: backend,
            ..Default::default()
        },
        stream.feature_dim(),
        stream.class_count(),
    );
    let cfg = StreamConfig {
        window: 128,
        regen_every,
        warmup: 64,
    };

    let mut trace = PrequentialTrace::new(TRACE_WINDOW);
    for batch_index in 0..PRE_DRIFT_BATCHES + POST_DRIFT_BATCHES {
        let batch = stream.next_batch(BATCH).unwrap();
        // Test-then-train: score the batch with the model as it stands
        // (identical to partial_fit's internal prequential predictions),
        // then let it train.  The very first batch has no model yet and
        // is not recorded.
        if batch_index > 0 {
            let predictions = model.predict(&batch).unwrap();
            for (p, &l) in predictions.iter().zip(batch.labels()) {
                trace.record(*p, l);
            }
        }
        model.partial_fit_with(&batch, &cfg).unwrap();
        after_batch(batch_index, &model);
    }
    // One batch was consumed before recording started.
    (trace, drift_at_sample - BATCH)
}

#[test]
fn regeneration_recovers_from_abrupt_drift_faster_than_the_baseline() {
    assert_recovers_faster_than_the_baseline(EncoderBackend::Dense);
}

#[test]
fn structured_regeneration_recovers_from_abrupt_drift_faster_than_the_baseline() {
    // The same pins on the structured encoder, whose regenerated dims
    // move to reserve lanes.
    assert_recovers_faster_than_the_baseline(EncoderBackend::Structured);
}

#[test]
fn structured_reserve_stays_within_its_bound_on_a_long_drift_stream() {
    // Regeneration after every batch for the whole 120-batch stream: the
    // churn that would fragment a reserve that never reuses lanes.
    let (mut peak, mut block_dim) = (0, 0);
    run_scenario(EncoderBackend::Structured, 1, |batch, model| {
        let encoder = model.encoder().as_structured().expect("structured backend");
        let lanes = encoder.reserve_lanes().len();
        block_dim = encoder.block_dim();
        let bound = StructuredRbfEncoder::reserve_lane_bound(DIM, block_dim);
        assert!(lanes <= bound, "batch {batch}: {lanes} lanes > {bound}");
        peak = peak.max(lanes);
    });
    eprintln!("structured reserve: peak {peak} lanes in blocks of {block_dim}");
    assert!(peak > 0, "regeneration never fired");
}

/// The headline drift pins on `backend`: regeneration every second batch
/// against regeneration disabled.
fn assert_recovers_faster_than_the_baseline(backend: EncoderBackend) {
    let (regen, drift_at) = run_scenario(backend, 2, |_, _| {});
    let (frozen, _) = run_scenario(backend, 0, |_, _| {});

    // Both runs were healthy and got hurt: windowed accuracy above 0.90
    // before the drift, and a real post-drift dip.
    let pre_regen = regen.trace()[drift_at - 1];
    let pre_frozen = frozen.trace()[drift_at - 1];
    assert!(pre_regen >= 0.90, "regen pre-drift accuracy {pre_regen}");
    assert!(pre_frozen >= 0.90, "frozen pre-drift accuracy {pre_frozen}");
    assert!(
        regen.forgetting(drift_at) >= 0.25,
        "drift too mild to measure recovery (regen forgetting {})",
        regen.forgetting(drift_at)
    );
    assert!(
        frozen.forgetting(drift_at) >= 0.25,
        "drift too mild to measure recovery (frozen forgetting {})",
        frozen.forgetting(drift_at)
    );

    // The headline regression pins.  The dip floor is the windowed
    // accuracy at the trough; recovery is "windowed accuracy back at
    // 0.85" measured from the drift sample.  Regeneration must get there
    // within 500 samples; the regeneration-disabled baseline must not.
    let target = 0.85;
    let regen_recovery = regen
        .recovery_time(drift_at + TRACE_WINDOW, target)
        .map(|t| t + TRACE_WINDOW);
    let frozen_recovery = frozen
        .recovery_time(drift_at + TRACE_WINDOW, target)
        .map(|t| t + TRACE_WINDOW);
    eprintln!(
        "{backend} regen: pre {pre_regen:.3} forget {:.3} recovery {regen_recovery:?}; \
         frozen: pre {pre_frozen:.3} forget {:.3} recovery {frozen_recovery:?}",
        regen.forgetting(drift_at),
        frozen.forgetting(drift_at),
    );
    match regen_recovery {
        Some(t) => assert!(
            t <= 500,
            "regeneration took {t} samples to recover (bound: 500)"
        ),
        None => panic!("regeneration-enabled run never recovered to {target}"),
    }
    // Never recovering is the expected baseline outcome.
    if let Some(t) = frozen_recovery {
        assert!(
            t > regen_recovery.unwrap(),
            "baseline recovered in {t} samples, \
             not slower than regeneration ({regen_recovery:?})"
        );
    }

    // Post-recovery quality: at the end of the horizon the regenerating
    // model must be at least as accurate in the window as the baseline.
    let end_regen = *regen.trace().last().unwrap();
    let end_frozen = *frozen.trace().last().unwrap();
    assert!(
        end_regen >= end_frozen,
        "end-of-horizon windowed accuracy: regen {end_regen} < frozen {end_frozen}"
    );
}
