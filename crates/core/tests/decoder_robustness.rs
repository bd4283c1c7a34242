//! The DHD decoder on damaged input.
//!
//! Small artifacts are saved and fed back to [`load_deployed`] with fields
//! overwritten, with bytes zeroed or saturated, and cut short after each
//! of those damages:
//! - a dense deployment and a structured one with reserve lanes and both
//!   serving tasks, as the writer emits them: `'5'` bodies in the
//!   checksummed `'4'` container;
//! - the same dense deployment, and a structured one without reserve
//!   lanes, as the bare legacy `'1'` and `'3'` streams earlier writers
//!   produced.
//!
//! Every load must end in `Ok` or a named [`PersistError`], never a panic;
//! every `Ok` model must answer `predict` and `predict_batch` without
//! panicking; a non-finite float in any field, a reserve lane naming a dim
//! out of range or twice, and a reserve larger than its bound must be
//! rejected as corrupt, naming the field; and a legacy structured body with
//! a dense overlay must fail closed.

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

/// The legacy counterparts: the dense deployment (a `'1'` stream) and a
/// structured one with no reserve lanes and both tasks (a `'3'` stream).
fn legacy_artifacts() -> Vec<DeployedModel> {
    let dense = written_artifacts().swap_remove(0);
    let structured = StructuredRbfEncoder::new(FEATURES, DIM, RngSeed(7));
    vec![
        dense,
        with_both_tasks(deploy(AnyRbfEncoder::Structured(structured), BitWidth::B4)),
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

/// Whether a stream is the written container or a bare legacy stream.
#[derive(Clone, Copy, PartialEq)]
enum Layout {
    Container,
    Legacy,
}

/// Every field of `model`'s `layout` stream, in stream order.  The caller
/// asserts that the fields tile the stream exactly, so a layout change
/// fails there rather than silently mutating the wrong bytes.
fn fields(model: &DeployedModel, layout: Layout) -> Vec<Field> {
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
    let container = layout == Layout::Container;
    push("magic", 4, None);
    if container {
        push("embedded version", 1, None);
    }
    if container || encoder.as_structured().is_some() || !tasks.is_empty() {
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
            if container {
                push("reserve block count", 4, None);
            } else {
                push("sign word count", 4, None);
            }
            push("sign words", 8 * e.packed_signs().len(), None);
            push("phases", 4 * dim, Some(e.phases()[0]));
            if container {
                push("reserve lanes", 4 * e.reserve_lanes().len(), None);
            } else {
                push("overlay count", 4, None);
            }
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
    if container || !tasks.is_empty() {
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
    if container {
        push("checksum", 8, None);
    }
    fields
}

/// Writes `model` the way the last writer of its legacy version did: `'1'`
/// for a task-free dense model, `'2'` for a task-free structured one, `'3'`
/// with tasks.  A structured model carries `overlay_dims` as its overlay
/// section, each with a base row of `0.5`s.
fn legacy_stream(model: &DeployedModel, overlay_dims: &[u32]) -> Vec<u8> {
    let encoder = model.encoder_parts();
    let tasks = model.tasks();
    let (k, dim) = model.memory_parts().shape();
    let mut out = b"DHD".to_vec();
    let u32s = |out: &mut Vec<u8>, values: &[u32]| {
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    };
    let f32s = |out: &mut Vec<u8>, values: &[f32]| {
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    };
    match (encoder, tasks.is_empty()) {
        (AnyRbfEncoder::Dense(_), true) => out.push(b'1'),
        (_, true) => out.push(b'2'),
        (_, false) => out.push(b'3'),
    }
    if out[3] != b'1' {
        out.push(u8::from(encoder.as_structured().is_some()));
    }
    let n = encoder.input_dim();
    u32s(
        &mut out,
        &[n as u32, dim as u32, k as u32, model.width().bits() as u32],
    );
    f32s(&mut out, &[encoder.base_std()]);
    match encoder {
        AnyRbfEncoder::Dense(e) => {
            f32s(&mut out, e.bases().to_matrix().as_slice());
            f32s(&mut out, e.phases());
        }
        AnyRbfEncoder::Structured(e) => {
            assert!(
                e.reserve_lanes().is_empty(),
                "legacy bodies have no reserve"
            );
            let words = e.packed_signs();
            u32s(&mut out, &[e.block_dim() as u32, words.len() as u32]);
            for w in words {
                out.extend_from_slice(&w.to_le_bytes());
            }
            f32s(&mut out, e.phases());
            u32s(&mut out, &[overlay_dims.len() as u32]);
            u32s(&mut out, overlay_dims);
            f32s(&mut out, &vec![0.5; overlay_dims.len() * n]);
        }
    }
    f32s(&mut out, model.center_parts().means());
    f32s(&mut out, model.memory_parts().scales());
    let words = model.memory_parts().as_words();
    u32s(&mut out, &[words.len() as u32]);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    if !tasks.is_empty() {
        let count = u32::from(tasks.top_k.is_some()) + u32::from(tasks.anomaly_threshold.is_some());
        u32s(&mut out, &[count]);
        if let Some(top) = tasks.top_k {
            out.push(0);
            u32s(&mut out, &[top as u32]);
        }
        if let Some(threshold) = tasks.anomaly_threshold {
            out.push(1);
            f32s(&mut out, &[threshold]);
        }
    }
    out
}

/// Every stream the sweeps damage, with its label and its fields.
fn streams() -> Vec<(String, Vec<u8>, Vec<Field>)> {
    let mut streams = Vec::new();
    for model in written_artifacts() {
        let mut bytes = Vec::new();
        save_deployed(&model, &mut bytes).expect("save");
        assert_eq!(&bytes[..5], b"DHD45");
        streams.push((Layout::Container, model, bytes));
    }
    for model in legacy_artifacts() {
        let bytes = legacy_stream(&model, &[]);
        streams.push((Layout::Legacy, model, bytes));
    }
    streams
        .into_iter()
        .map(|(layout, model, bytes)| {
            let fields = fields(&model, layout);
            let end = fields.last().map_or(0, |f| f.offset + f.len);
            assert_eq!(end, bytes.len(), "the fields tile the stream");
            let restored = load_deployed(bytes.as_slice()).expect("the undamaged stream loads");
            assert_eq!(restored.tasks(), model.tasks());
            let label = format!(
                "{} DHD{}",
                model.encoder_parts().backend(),
                bytes[3] as char
            );
            (label, bytes, fields)
        })
        .collect()
}

/// Loads `bytes`, returning the error if any: a corrupt stream must name
/// its field, and an `Ok` model must answer a single and a batched
/// prediction (their results, `Ok` or not, are not judged).
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
    assert!(loads > 50_000, "{loads} loads");
}

#[test]
fn forged_reserve_lanes_and_block_counts_are_corrupt_and_named() {
    let model = written_artifacts().swap_remove(1);
    let mut stream = Vec::new();
    save_deployed(&model, &mut stream).expect("save");
    let fields = fields(&model, Layout::Container);
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
fn legacy_structured_bodies_with_a_dense_overlay_fail_closed() {
    let task_free = deploy(
        AnyRbfEncoder::Structured(StructuredRbfEncoder::new(FEATURES, DIM, RngSeed(7))),
        BitWidth::B4,
    );
    let empty = legacy_stream(&task_free, &[]);
    assert_eq!(&empty[..5], b"DHD2\x01");
    let loaded = load_deployed(empty.as_slice()).expect("an empty overlay loads");
    let query = [0.3, -0.1, 0.0, 0.8, 0.25, -0.6, 0.4];
    assert_eq!(
        loaded.decision_scores(&query).unwrap(),
        task_free.decision_scores(&query).unwrap()
    );
    for model in [task_free, legacy_artifacts().swap_remove(1)] {
        let bare = legacy_stream(&model, &[3, 40]);
        // The same body inside a checksummed container.
        let mut container = b"DHD4".to_vec();
        container.extend_from_slice(&bare[3..]);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in &container {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        container.extend_from_slice(&hash.to_le_bytes());
        for stream in [bare, container] {
            match load_deployed(stream.as_slice()) {
                Err(PersistError::RetiredOverlay { dims: 2 }) => {}
                other => panic!("{:?}: {:?}", &stream[..5], other.map(|_| "a model")),
            }
        }
    }
}
