//! The DHD decoder on damaged input.
//!
//! Two small artifacts — a dense deployment and a structured one with
//! reserve lanes and both serving tasks — are saved as the writer emits
//! them (`'5'` bodies in the checksummed `'4'` container) and fed back to
//! [`load_deployed`] with fields overwritten, with bytes zeroed or
//! saturated, with seeded runs of random bytes overwritten (half of them
//! behind a recomputed trailer, so a mutant that still parses is served),
//! and cut short after each of those damages.
//!
//! Every load must end in `Ok` or a named [`PersistError`], never a panic;
//! every `Ok` model must answer `predict`, `predict_batch`, `top_k_batch`
//! and `anomaly_scores` without panicking; a non-finite float in any field,
//! a reserve lane naming a dim out of range or twice, and a reserve larger
//! than its bound must be rejected as corrupt, naming the field; and every
//! retired version tag, bare or embedded, must be refused.

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
const FREE: u32 = StructuredRbfEncoder::FREE_LANE;

/// A deployment of `encoder` with a fixed class memory at `width`.
fn deploy(encoder: AnyRbfEncoder, width: BitWidth) -> DeployedModel {
    let classes = Matrix::from_fn(CLASSES, DIM, |r, c| ((r * DIM + c) as f32 * 0.61).sin());
    let center =
        EncodingCenter::from_means((0..DIM).map(|d| (d as f32 * 0.07).cos() * 0.02).collect());
    DeployedModel::from_parts(encoder, center, QuantizedMatrix::quantize(&classes, width))
}

fn with_both_tasks(mut model: DeployedModel) -> DeployedModel {
    model
        .set_tasks(ServingTasks {
            top_k: Some(2),
            anomaly_threshold: Some(0.25),
        })
        .expect("tasks");
    model
}

/// A dense 8-bit deployment with regenerated dims, and a structured 1-bit
/// one with both serving tasks whose two regeneration calls leave owned,
/// recycled-from and free lanes in its reserve.  Built without training so
/// the sweeps stay fast.
fn written_artifacts() -> Vec<DeployedModel> {
    let mut dense = RbfEncoder::new(FEATURES, DIM, RngSeed(5));
    let mut structured = StructuredRbfEncoder::new(FEATURES, DIM, RngSeed(5));
    let mut rng = SeededRng::new(RngSeed(6));
    dense.regenerate(&[3, 40], &mut rng);
    structured.regenerate(&[3, 40, 41, 42, 43, 44, 45, 46], &mut rng);
    structured.regenerate(&[3, 10], &mut rng);
    assert_eq!(
        structured.reserve_lanes(),
        &[FREE, 40, 41, 42, 43, 44, 45, 46, 3, 10, FREE, FREE, FREE, FREE, FREE, FREE]
    );
    vec![
        deploy(AnyRbfEncoder::Dense(dense), BitWidth::B8),
        with_both_tasks(deploy(AnyRbfEncoder::Structured(structured), BitWidth::B1)),
    ]
}

/// One field of a stream: its loader name, its byte range, and the first
/// f32 it holds when it is a float field.
struct Field {
    name: &'static str,
    offset: usize,
    len: usize,
    first_float: Option<f32>,
}

/// Every field of `model`'s stream, in stream order.  The caller asserts
/// that the fields tile the stream exactly, so a layout change fails there
/// rather than silently mutating the wrong bytes.
fn fields(model: &DeployedModel) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut at = 0;
    let mut push = |name, len: usize, first_float: Option<f32>| {
        fields.push(Field {
            name,
            offset: at,
            len,
            first_float,
        });
        at += len;
    };
    let encoder = model.encoder_parts();
    let n = encoder.input_dim();
    let memory = model.memory_parts();
    let (k, dim) = memory.shape();
    let tasks = model.tasks();
    push("magic", 4, None);
    push("embedded version", 1, None);
    push("encoder kind", 1, None);
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
            push("reserve block count", 4, None);
            push("sign words", 8 * e.packed_signs().len(), None);
            push("phases", 4 * dim, Some(e.phases()[0]));
            push("reserve lanes", 4 * e.reserve_lanes().len(), None);
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
    push("task count", 4, None);
    if tasks.top_k.is_some() {
        push("task kind", 1, None);
        push("top-k task", 4, None);
    }
    if let Some(threshold) = tasks.anomaly_threshold {
        push("task kind", 1, None);
        push("anomaly threshold task", 4, Some(threshold));
    }
    push("checksum", 8, None);
    fields
}

/// Every stream the sweeps damage, with its label and its fields.
fn streams() -> Vec<(String, Vec<u8>, Vec<Field>)> {
    written_artifacts()
        .into_iter()
        .map(|model| {
            let mut bytes = Vec::new();
            save_deployed(&model, &mut bytes).expect("save");
            assert_eq!(&bytes[..5], b"DHD45");
            let fields = fields(&model);
            let end = fields.last().map_or(0, |f| f.offset + f.len);
            assert_eq!(end, bytes.len(), "the fields tile the stream");
            let restored = load_deployed(bytes.as_slice()).expect("the undamaged stream loads");
            assert_eq!(restored.tasks(), model.tasks());
            (model.encoder_parts().backend().to_string(), bytes, fields)
        })
        .collect()
}

/// FNV-1a 64 over `bytes`: the container's trailer.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Loads `bytes`, returning the error if any: a corrupt stream must name
/// its field, and an `Ok` model must answer a single and a batched
/// prediction, a top-k ranking and anomaly scores (their results, `Ok` or
/// not, are not judged).
fn load_and_serve(bytes: &[u8]) -> Option<PersistError> {
    let model = match load_deployed(bytes) {
        Ok(model) => model,
        Err(err) => {
            if let PersistError::Corrupt(msg) = &err {
                assert!(msg.starts_with("field `"), "unnamed corruption: {msg}");
            }
            return Some(err);
        }
    };
    let n = model.encoder_parts().input_dim();
    let queries = Matrix::from_fn(2, n, |r, c| ((r * n + c) as f32 * 0.37).sin());
    let _ = model.predict(queries.row(0));
    let _ = model.predict_batch(&queries);
    let _ = model.top_k_batch(&queries, 2);
    let _ = model.anomaly_scores(&queries);
    None
}

/// Loads `bytes` and each of three truncations of it — right after the
/// damaged bytes at `damage_end`, halfway from there to the end, and one
/// byte short — and asserts that none panics.
fn load_truncated_without_panic(bytes: &[u8], damage_end: usize, what: &str) -> usize {
    let last = bytes.len() - 1;
    let cuts = [
        bytes.len(),
        damage_end.min(last),
        (damage_end + bytes.len()).div_ceil(2).min(last),
        last,
    ];
    for cut in cuts {
        let outcome = catch_unwind(AssertUnwindSafe(|| load_and_serve(&bytes[..cut])));
        assert!(outcome.is_ok(), "{what}, cut to {cut} bytes: panicked");
    }
    cuts.len()
}

#[test]
fn non_finite_floats_are_rejected_in_every_field() {
    for (label, stream, fields) in streams() {
        for field in &fields {
            let Some(first) = field.first_float else {
                continue;
            };
            let at = field.offset;
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

#[test]
fn mutated_and_truncated_streams_load_or_fail_with_a_named_error_and_never_panic() {
    let mut loads = 0usize;
    for (label, stream, fields) in streams() {
        let mut cases: Vec<(usize, Vec<u8>)> = Vec::new();
        // Every byte, zeroed and saturated.
        for at in 0..stream.len() {
            cases.push((at, vec![0x00]));
            cases.push((at, vec![0xFF]));
        }
        // Every field start (the container's trailer included) overwritten
        // with an extreme count, a large count and NaN bits.
        for field in fields.iter().filter(|f| f.offset + 4 <= stream.len()) {
            for word in [u32::MAX, 1 << 20, f32::NAN.to_bits()] {
                cases.push((field.offset, word.to_le_bytes().to_vec()));
            }
        }
        for (at, patch) in cases {
            let mut damaged = stream.clone();
            damaged[at..at + patch.len()].copy_from_slice(&patch);
            let what = format!("{label} with {patch:02x?} written at byte {at}");
            loads += load_truncated_without_panic(&damaged, at + patch.len(), &what);
        }
    }
    assert!(loads > 25_000, "{loads} loads");
}

#[test]
fn forged_reserve_lanes_and_block_counts_are_corrupt_and_named() {
    let model = written_artifacts().swap_remove(1);
    let mut stream = Vec::new();
    save_deployed(&model, &mut stream).expect("save");
    let fields = fields(&model);
    let field = |name| fields.iter().find(|f| f.name == name).expect("field");
    let expect_corrupt = |damaged: &[u8], name: &str, what: &str| {
        match load_and_serve(damaged) {
            Some(PersistError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("`{name}`")), "{what}: {msg}")
            }
            other => panic!("{what}: {other:?}"),
        }
        load_truncated_without_panic(damaged, damaged.len(), what);
    };
    // A block count whose lanes exceed 2·D + block_dim, up to u32::MAX.
    let count = field("reserve block count");
    for forged in [u32::MAX, 1 << 20, (2 * DIM as u32) / 8 + 2] {
        let mut damaged = stream.clone();
        damaged[count.offset..count.offset + 4].copy_from_slice(&forged.to_le_bytes());
        expect_corrupt(&damaged, "reserve block count", &format!("R = {forged}"));
    }
    // Each lane naming a dim out of range, or a dim another lane names
    // (dim 40 owns lane 1, dim 3 owns lane 8).
    let lanes = field("reserve lanes");
    for lane in 0..lanes.len / 4 {
        let at = lanes.offset + 4 * lane;
        let duplicate = if lane == 1 { 3 } else { 40 };
        for forged in [DIM as u32, DIM as u32 + 1000, FREE - 1, duplicate] {
            let mut damaged = stream.clone();
            damaged[at..at + 4].copy_from_slice(&forged.to_le_bytes());
            expect_corrupt(
                &damaged,
                "reserve lanes",
                &format!("lane {lane} = {forged}"),
            );
        }
    }
}

#[test]
fn seeded_multi_byte_mutants_load_or_fail_with_a_named_error_and_never_panic() {
    const MUTANTS: usize = 1500;
    let mut rng = SeededRng::new(RngSeed(0xD4D5));
    let (mut served, mut mismatched) = (0usize, 0usize);
    for (label, stream, _) in streams() {
        for mutant in 0..MUTANTS {
            let mut damaged = stream.clone();
            let count = 2 + rng.next_index(15);
            for _ in 0..count {
                let at = rng.next_index(damaged.len());
                damaged[at] = rng.next_u64() as u8;
            }
            let resealed = mutant % 2 == 1;
            if resealed {
                let body = damaged.len() - 8;
                let trailer = fnv1a(&damaged[..body]).to_le_bytes();
                damaged[body..].copy_from_slice(&trailer);
            }
            let what = format!("{label} mutant {mutant} ({count} bytes, resealed {resealed})");
            match catch_unwind(AssertUnwindSafe(|| load_and_serve(&damaged))) {
                Err(_) => panic!("{what}: panicked"),
                Ok(None) => served += 1,
                Ok(Some(PersistError::ChecksumMismatch { .. })) => mismatched += 1,
                Ok(Some(_)) => {}
            }
        }
    }
    // The resealed half reaches the model: some mutants of payload bytes
    // parse and are served; the other half fails at the trailer.
    assert!(served > 0, "no resealed mutant was served");
    assert!(mismatched > MUTANTS / 2, "{mismatched} checksum mismatches");
}

#[test]
fn every_retired_version_tag_is_refused_bare_or_embedded() {
    let model = written_artifacts().swap_remove(1);
    let mut stream = Vec::new();
    save_deployed(&model, &mut stream).expect("save");
    let body = &stream[5..stream.len() - 8];
    for tag in [b'1', b'2', b'3'] {
        let mut bare = b"DHD".to_vec();
        bare.push(tag);
        bare.extend_from_slice(body);
        match load_deployed(bare.as_slice()) {
            Err(PersistError::UnsupportedVersion(v)) => assert_eq!(v, tag),
            other => panic!("bare {tag}: {:?}", other.map(|_| "a model")),
        }
        // The same body embedded in a container with a valid trailer.
        let mut embedded = b"DHD4".to_vec();
        embedded.push(tag);
        embedded.extend_from_slice(body);
        let trailer = fnv1a(&embedded);
        embedded.extend_from_slice(&trailer.to_le_bytes());
        match load_deployed(embedded.as_slice()) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.contains("embedded version"), "{tag}: {msg}")
            }
            other => panic!("embedded {tag}: {:?}", other.map(|_| "a model")),
        }
    }
}
