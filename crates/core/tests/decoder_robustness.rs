//! The DHD decoder on damaged input.
//!
//! Two small artifacts — a dense one and a regenerated structured one with
//! an overlay and both serving tasks — are saved, then fed back to
//! [`load_deployed`] both as checksummed `'4'` containers and as stripped
//! legacy bodies, with fields overwritten.  Every load must end in `Ok` or
//! a named [`PersistError`], never a panic; every `Ok` model must answer
//! `predict` and `predict_batch` without panicking; and a non-finite float
//! in any field must be rejected as corrupt, naming the field.

use disthd::io::{load_deployed, save_deployed, PersistError};
use disthd::{DeployedModel, ServingTasks};
use disthd_hd::center::EncodingCenter;
use disthd_hd::encoder::{
    AnyRbfEncoder, Encoder, RbfEncoder, RegenerativeEncoder, StructuredRbfEncoder,
};
use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
use disthd_linalg::{Matrix, RngSeed, SeededRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const FEATURES: usize = 7;
const DIM: usize = 64;
const CLASSES: usize = 3;

/// A dense 8-bit deployment and a structured 1-bit one, both with
/// regenerated dims (the structured one therefore carries an overlay) and
/// the structured one with both serving tasks.  Built without training so
/// the sweeps stay fast.
fn artifacts() -> Vec<DeployedModel> {
    let mut dense = RbfEncoder::new(FEATURES, DIM, RngSeed(5));
    let mut structured = StructuredRbfEncoder::new(FEATURES, DIM, RngSeed(5));
    let mut rng = SeededRng::new(RngSeed(6));
    dense.regenerate(&[3, 40], &mut rng);
    structured.regenerate(&[3, 40], &mut rng);
    assert_eq!(structured.overlay_dims().len(), 2);
    let classes = Matrix::from_fn(CLASSES, DIM, |r, c| ((r * DIM + c) as f32 * 0.61).sin());
    let center =
        EncodingCenter::from_means((0..DIM).map(|d| (d as f32 * 0.07).cos() * 0.02).collect());
    let dense = DeployedModel::from_parts(
        AnyRbfEncoder::Dense(dense),
        center.clone(),
        QuantizedMatrix::quantize(&classes, BitWidth::B8),
    );
    let mut structured = DeployedModel::from_parts(
        AnyRbfEncoder::Structured(structured),
        center,
        QuantizedMatrix::quantize(&classes, BitWidth::B1),
    );
    structured
        .set_tasks(ServingTasks {
            top_k: Some(2),
            anomaly_threshold: Some(0.25),
        })
        .expect("tasks");
    vec![dense, structured]
}

/// One field of a legacy body: its loader name, its byte offset, and the
/// first f32 it holds when it is a float field.
struct Field {
    name: &'static str,
    offset: usize,
    first_float: Option<f32>,
}

/// Every field of `model`'s stripped legacy body, in stream order.  Asserts
/// that the fields tile `legacy` exactly, so a layout change fails here
/// rather than silently mutating the wrong bytes.
fn legacy_fields(model: &DeployedModel, legacy: &[u8]) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut at = 0;
    let mut push = |name, len: usize, first_float: Option<f32>| {
        fields.push(Field {
            name,
            offset: at,
            first_float,
        });
        at += len;
    };
    let encoder = model.encoder_parts();
    let n = encoder.input_dim();
    let memory = model.memory_parts();
    let (k, dim) = memory.shape();
    push("magic", 4, None);
    if encoder.as_structured().is_some() {
        push("encoder kind", 1, None);
    }
    for name in [
        "feature count n",
        "dimensionality D",
        "class count k",
        "width bits",
    ] {
        push(name, 4, None);
    }
    push("base_std", 4, Some(encoder.base_std()));
    match encoder {
        AnyRbfEncoder::Dense(e) => {
            push("bases", 4 * n * dim, Some(e.bases().to_matrix().get(0, 0)));
            push("phases", 4 * dim, Some(e.phases()[0]));
        }
        AnyRbfEncoder::Structured(e) => {
            push("block dim", 4, None);
            push("sign word count", 4, None);
            push("sign words", 8 * e.packed_signs().len(), None);
            push("phases", 4 * dim, Some(e.phases()[0]));
            let m = e.overlay_dims().len();
            push("overlay count", 4, None);
            push("overlay dims", 4 * m, None);
            push("overlay bases", 4 * m * n, Some(e.overlay_rows().row(0)[0]));
        }
    }
    push(
        "center means",
        4 * dim,
        Some(model.center_parts().means()[0]),
    );
    push("memory scales", 4 * k, Some(memory.scales()[0]));
    push("memory word count", 4, None);
    push("memory words", 8 * memory.as_words().len(), None);
    let tasks = model.tasks();
    if !tasks.is_empty() {
        push("task count", 4, None);
        if tasks.top_k.is_some() {
            push("task kind", 1, None);
            push("top-k task", 4, None);
        }
        if let Some(threshold) = tasks.anomaly_threshold {
            push("task kind", 1, None);
            push("anomaly threshold task", 4, Some(threshold));
        }
    }
    assert_eq!(at, legacy.len(), "the fields tile the legacy body");
    fields
}

/// The `'4'` container and the stripped legacy body of `model`.
fn streams(model: &DeployedModel) -> (Vec<u8>, Vec<u8>) {
    let mut container = Vec::new();
    save_deployed(model, &mut container).expect("save");
    assert_eq!(&container[..4], b"DHD4");
    let mut legacy = b"DHD".to_vec();
    legacy.extend_from_slice(&container[4..container.len() - 8]);
    (container, legacy)
}

#[test]
fn non_finite_floats_are_rejected_in_every_field() {
    for model in artifacts() {
        let (container, legacy) = streams(&model);
        for (label, stream, shift) in [("legacy", &legacy, 0), ("container", &container, 1)] {
            load_deployed(stream.as_slice()).expect("the undamaged stream loads");
            for field in legacy_fields(&model, &legacy) {
                let Some(first) = field.first_float else {
                    continue;
                };
                let at = field.offset + shift;
                let stored = f32::from_le_bytes(stream[at..at + 4].try_into().unwrap());
                assert_eq!(
                    stored.to_bits(),
                    first.to_bits(),
                    "{label} `{}`",
                    field.name
                );
                for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut damaged = stream.clone();
                    damaged[at..at + 4].copy_from_slice(&bad.to_le_bytes());
                    let Err(err) = load_deployed(damaged.as_slice()) else {
                        panic!("{label}: `{}` = {bad} loaded", field.name);
                    };
                    assert!(matches!(err, PersistError::Corrupt(_)), "{label}: {err}");
                    assert!(
                        err.to_string().contains(&format!("`{}`", field.name)),
                        "{label} {bad}: {err}"
                    );
                }
            }
        }
    }
}

/// Loads `bytes`: a corrupt stream must name its field, and an `Ok` model
/// must answer a single and a batched prediction (their results, `Ok` or
/// not, are not judged).
fn load_and_serve(bytes: &[u8]) {
    let model = match load_deployed(bytes) {
        Ok(model) => model,
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.starts_with("field `"), "unnamed corruption: {msg}");
            return;
        }
        Err(_) => return,
    };
    let n = model.encoder_parts().input_dim();
    let queries = Matrix::from_fn(2, n, |r, c| ((r * n + c) as f32 * 0.37).sin());
    let _ = model.predict(queries.row(0));
    let _ = model.predict_batch(&queries);
}

#[test]
fn mutated_streams_load_or_fail_with_a_named_error_and_never_panic() {
    let mut mutations = 0usize;
    for model in artifacts() {
        let (container, legacy) = streams(&model);
        let fields = legacy_fields(&model, &legacy);
        for (label, stream, shift) in [("legacy", &legacy, 0), ("container", &container, 1)] {
            let mut cases: Vec<(usize, Vec<u8>)> = Vec::new();
            // Every byte, zeroed and saturated.
            for at in 0..stream.len() {
                cases.push((at, vec![0x00]));
                cases.push((at, vec![0xFF]));
            }
            // Every field start (and the container's trailer) overwritten
            // with an extreme count, a large count and NaN bits.
            let mut starts: Vec<usize> = fields.iter().map(|f| f.offset + shift).collect();
            if shift == 1 {
                starts.push(stream.len() - 8);
            }
            for &at in starts.iter().filter(|&&at| at + 4 <= stream.len()) {
                for word in [u32::MAX, 1 << 20, f32::NAN.to_bits()] {
                    cases.push((at, word.to_le_bytes().to_vec()));
                }
            }
            for (at, patch) in cases {
                let mut damaged = stream.clone();
                damaged[at..at + patch.len()].copy_from_slice(&patch);
                let outcome = catch_unwind(AssertUnwindSafe(|| load_and_serve(&damaged)));
                assert!(
                    outcome.is_ok(),
                    "{label} stream panicked with {patch:02x?} written at byte {at}"
                );
                mutations += 1;
            }
        }
    }
    assert!(mutations > 10_000, "{mutations} mutations");
}
