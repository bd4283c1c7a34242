//! Binary persistence of deployed models.
//!
//! A [`crate::DeployedModel`] is the artifact that ships to an edge device:
//! the f32 encoder, the per-dimension centering means and the quantized
//! class memory.  This module writes and reads a compact, versioned
//! little-endian binary format.  Every artifact is written as the
//! checksummed `'4'` container around a version-`'5'` body:
//!
//! ```text
//! magic  "DHD" + '4'       4 bytes
//! embedded version         u8 ('5', the only body version)
//! embedded body            the '5' body
//! checksum                 u64 FNV-1a over ALL preceding bytes
//!                              (magic and embedded version included)
//! ```
//!
//! The version-`'5'` body always carries the encoder-kind byte and the
//! serving-task section:
//!
//! ```text
//! encoder kind             u8  (0 = dense, 1 = structured)
//! n (features)             u32    D (dims)    u32    k (classes)   u32
//! width bits               u32    base_std    f32
//! -- dense kind --
//! bases                    n*D f32 (row-major)
//! phases                   D f32
//! -- structured kind --
//! block dim                u32 (n.next_power_of_two(), or half of it)
//! reserve block count R    u32 (R * block dim <= 2*D + block dim)
//! sign words               ceil(S/64) u64, S = the backbone plan's signs
//!                              + 3 * block dim per reserve block
//!                              (packed ±1 diagonals, bit = +1)
//! phases                   D f32
//! reserve lanes            R * block dim u32 (owning dim, u32::MAX = free)
//! -- shared tail --
//! center means             D f32
//! memory scales            k f32
//! memory word count        u32
//! memory words             count u64
//! task count               u32 (0..=2; each task kind at most once)
//! per task: kind           u8  (0 = top-k, 1 = anomaly threshold)
//!           payload        u32 k   |   f32 threshold
//! ```
//!
//! ## Format evolution
//!
//! The fourth magic byte is the **format version**, and the loader accepts
//! exactly one layout: `"DHD4"`, the embedded version `'5'`, the body and
//! the trailer.  A stream that starts with `DHD` but carries any other
//! version digit (the retired bare `'1'`–`'3'` streams, a bare `'5'`, or a
//! newer format) fails with [`PersistError::UnsupportedVersion`] — distinct
//! from [`PersistError::BadMagic`] (not a DHD stream at all) so callers can
//! tell "not mine" from "garbage".  Any embedded version other than `'5'`
//! is [`PersistError::Corrupt`] naming `embedded version`.  The
//! container's trailer lets the loader fail closed: a
//! structurally-parseable stream whose trailer does not match fails with
//! [`PersistError::ChecksumMismatch`] before any caller sees the model.
//! An unknown task kind fails closed
//! ([`PersistError::Corrupt`], naming the field) rather than silently
//! serving a misconfigured task, and a non-finite float in any field is
//! [`PersistError::Corrupt`] too.  See `DESIGN.md` §6/§8/§11/§13 for the
//! full compatibility rules.  Every deserialization failure names the
//! offending field.

use crate::deploy::DeployedModel;
use disthd_hd::center::EncodingCenter;
use disthd_hd::encoder::{AnyRbfEncoder, Encoder, RbfEncoder, StructuredRbfEncoder};
use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
use disthd_linalg::Matrix;
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

/// First three magic bytes shared by every DHD format version.
const MAGIC_PREFIX: &[u8; 3] = b"DHD";
/// Pre-allocation cap (elements) while deserializing: header counts are
/// untrusted, so a forged size must not drive a giant upfront allocation —
/// the vectors grow only as real payload bytes actually arrive, and a
/// truncated stream fails with a named short-read error instead.
const MAX_PREALLOC: usize = 1 << 20;
/// Checksummed-container format version: an embedded body followed by a
/// trailing FNV-1a hash over every preceding byte.  This is what every new
/// artifact is written as.
const VERSION_CHECKSUMMED: u8 = b'4';
/// The body version every artifact is written with, inside the container:
/// always kinded, always tasked, structured bodies with reserve lanes.
const VERSION_RESERVE: u8 = b'5';
/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Encoder-kind byte: dense RBF encoder.
const ENCODER_KIND_DENSE: u8 = 0;
/// Encoder-kind byte: structured Walsh–Hadamard RBF encoder.
const ENCODER_KIND_STRUCTURED: u8 = 1;
/// Task-kind byte: top-k ranking configuration (u32 `k` payload).
const TASK_KIND_TOP_K: u8 = 0;
/// Task-kind byte: one-class anomaly threshold (f32 payload).
const TASK_KIND_ANOMALY: u8 = 1;

/// Errors produced while persisting or loading a deployed model.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream does not start with the `DHD` magic at all.
    BadMagic,
    /// The stream is a DHD model, but of a format version this reader does
    /// not understand (the byte is the raw version tag from the stream).
    UnsupportedVersion(u8),
    /// A field failed validation (corrupt or truncated stream); the message
    /// names the offending field.
    Corrupt(String),
    /// The stream parsed structurally but its trailing FNV-1a checksum does
    /// not cover the bytes that were actually read — some bit flipped in
    /// storage or transit.  The model is never returned.
    ChecksumMismatch {
        /// The checksum the stream's trailer claims.
        stored: u64,
        /// The checksum computed over the bytes actually read.
        computed: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadMagic => write!(f, "not a DHD model stream (bad magic)"),
            PersistError::UnsupportedVersion(v) => write!(
                f,
                "unsupported DHD format version {:?} (this reader understands version {:?})",
                char::from(*v),
                char::from(VERSION_CHECKSUMMED)
            ),
            PersistError::Corrupt(msg) => write!(f, "corrupt model stream: {msg}"),
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "model stream checksum mismatch: trailer claims {stored:#018x}, \
                 bytes hash to {computed:#018x}"
            ),
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Writes a deployed model to `writer` (pass `&mut` for reuse).
///
/// Every artifact is written as the checksummed `'4'` container around a
/// `'5'` body (see the module docs): a trailing FNV-1a hash over all
/// preceding bytes lets the loader fail closed on any bit flip instead of
/// serving a silently-corrupted model.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on write failure.
pub fn save_deployed<W: Write>(model: &DeployedModel, mut writer: W) -> Result<(), PersistError> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC_PREFIX);
    out.extend_from_slice(&[VERSION_CHECKSUMMED, VERSION_RESERVE]);
    write_body(model, &mut out)?;
    let checksum = fnv1a_update(FNV_OFFSET, &out);
    out.extend_from_slice(&checksum.to_le_bytes());
    writer.write_all(&out)?;
    writer.flush()?;
    Ok(())
}

/// Appends the `'5'` body of `model` to `out`.
fn write_body(model: &DeployedModel, out: &mut Vec<u8>) -> Result<(), PersistError> {
    let (rows, cols) = model.memory_parts().shape();
    let encoder = model.encoder_parts();
    let kind = match encoder {
        AnyRbfEncoder::Dense(_) => ENCODER_KIND_DENSE,
        AnyRbfEncoder::Structured(_) => ENCODER_KIND_STRUCTURED,
    };
    out.write_all(&[kind])?;
    for v in [encoder.input_dim(), cols, rows, model.width().bits()] {
        write_u32(out, v as u32)?;
    }
    write_f32(out, encoder.base_std())?;
    match encoder {
        AnyRbfEncoder::Dense(encoder) => {
            // The only place the packed bases are unpacked: the format
            // stores them row-major.
            write_f32_slice(out, encoder.bases().to_matrix().as_slice())?;
            write_f32_slice(out, encoder.phases())?;
        }
        AnyRbfEncoder::Structured(encoder) => {
            let lanes = encoder.reserve_lanes();
            write_u32(out, encoder.block_dim() as u32)?;
            write_u32(out, (lanes.len() / encoder.block_dim()) as u32)?;
            for w in encoder.packed_signs() {
                out.write_all(&w.to_le_bytes())?;
            }
            write_f32_slice(out, encoder.phases())?;
            for &dim in lanes {
                write_u32(out, dim)?;
            }
        }
    }
    write_f32_slice(out, model.center_parts().means())?;
    write_f32_slice(out, model.memory_parts().scales())?;
    let words = model.memory_parts().as_words();
    write_u32(out, words.len() as u32)?;
    for &w in words {
        out.write_all(&w.to_le_bytes())?;
    }
    let tasks = model.tasks();
    let count = tasks.top_k.is_some() as u32 + tasks.anomaly_threshold.is_some() as u32;
    write_u32(out, count)?;
    if let Some(k) = tasks.top_k {
        out.write_all(&[TASK_KIND_TOP_K])?;
        write_u32(out, k as u32)?;
    }
    if let Some(threshold) = tasks.anomaly_threshold {
        out.write_all(&[TASK_KIND_ANOMALY])?;
        write_f32(out, threshold)?;
    }
    Ok(())
}

/// Folds `bytes` into a running 64-bit FNV-1a hash.
fn fnv1a_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A [`Read`] adapter that folds every byte it hands out into a running
/// FNV-1a hash, so the loader can verify the `'4'` container's trailer
/// without buffering the stream.
struct HashingReader<R> {
    inner: R,
    hash: u64,
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash = fnv1a_update(self.hash, &buf[..n]);
        Ok(n)
    }
}

/// The `n / D / k / width / base_std` header shared by every layout.
struct Header {
    n: usize,
    dim: usize,
    k: usize,
    bits: usize,
    width: BitWidth,
    base_std: f32,
}

/// Reads and validates the shared dimension header.
fn read_header<R: Read>(reader: &mut R) -> Result<Header, PersistError> {
    let n = read_u32(reader, "feature count n")? as usize;
    let dim = read_u32(reader, "dimensionality D")? as usize;
    let k = read_u32(reader, "class count k")? as usize;
    let bits = read_u32(reader, "width bits")? as usize;
    let width = BitWidth::from_bits(bits)
        .ok_or_else(|| PersistError::Corrupt(format!("field `width bits`: unsupported {bits}")))?;
    let base_std = read_f32(reader, "base_std")?;
    for (value, field) in [
        (n, "feature count n"),
        (dim, "dimensionality D"),
        (k, "class count k"),
    ] {
        if value == 0 {
            return Err(PersistError::Corrupt(format!("field `{field}` is zero")));
        }
    }
    Ok(Header {
        n,
        dim,
        k,
        bits,
        width,
        base_std,
    })
}

/// Reads a deployed model from `reader` (pass `&mut` for reuse).
///
/// # Errors
///
/// * [`PersistError::BadMagic`] if the stream is not a `DHD` model;
/// * [`PersistError::UnsupportedVersion`] for a DHD stream of any format
///   version other than `'4'`;
/// * [`PersistError::Corrupt`] on an embedded version other than `'5'`,
///   inconsistent sizes, truncation or an unknown encoder kind, naming the
///   offending field;
/// * [`PersistError::ChecksumMismatch`] when the container parses
///   structurally but its trailing FNV-1a hash does not match the bytes
///   read (a flipped bit in storage — the model is withheld);
/// * [`PersistError::Io`] on read failure.
pub fn load_deployed<R: Read>(mut reader: R) -> Result<DeployedModel, PersistError> {
    let mut magic = [0u8; 4];
    read_field_bytes(&mut reader, &mut magic, "magic")?;
    if &magic[..3] != MAGIC_PREFIX {
        return Err(PersistError::BadMagic);
    }
    if magic[3] != VERSION_CHECKSUMMED {
        return Err(PersistError::UnsupportedVersion(magic[3]));
    }
    let mut embedded = [0u8; 1];
    read_field_bytes(&mut reader, &mut embedded, "embedded version")?;
    if embedded[0] != VERSION_RESERVE {
        return Err(PersistError::Corrupt(format!(
            "field `embedded version`: unknown version {:?}",
            char::from(embedded[0])
        )));
    }
    // Hash while parsing: prime the hash with the already-consumed magic +
    // embedded-version prefix, then every body byte the parsers read flows
    // through the adapter.  Structural errors fire first (they surface
    // during the parse, with their field names intact); a stream that
    // parses cleanly but hashes wrong fails closed here.
    let mut hashing = HashingReader {
        hash: fnv1a_update(fnv1a_update(FNV_OFFSET, &magic), &embedded),
        inner: &mut reader,
    };
    let model = load_body(&mut hashing)?;
    let computed = hashing.hash;
    let mut trailer = [0u8; 8];
    read_field_bytes(&mut reader, &mut trailer, "checksum")?;
    let stored = u64::from_le_bytes(trailer);
    if stored != computed {
        return Err(PersistError::ChecksumMismatch { stored, computed });
    }
    Ok(model)
}

/// Loads a `'5'` body: the encoder kind, that kind's payload, the shared
/// tail and the task section.
fn load_body<R: Read>(reader: &mut R) -> Result<DeployedModel, PersistError> {
    let mut kind = [0u8; 1];
    read_field_bytes(reader, &mut kind, "encoder kind")?;
    let mut model = match kind[0] {
        ENCODER_KIND_DENSE => load_dense_body(reader)?,
        ENCODER_KIND_STRUCTURED => load_structured_body(reader)?,
        other => {
            return Err(PersistError::Corrupt(format!(
                "field `encoder kind`: unknown kind {other}"
            )))
        }
    };
    load_task_section(reader, &mut model)?;
    Ok(model)
}

/// Reads a serving-task section of `0..=2` tasks and installs it on
/// `model`.
///
/// Fails **closed**: an unknown task kind, a duplicate kind, an
/// out-of-range count or an invalid payload is [`PersistError::Corrupt`]
/// naming the field — a reader must never silently drop (or guess at) a
/// task the artifact was configured to serve.
fn load_task_section<R: Read>(
    reader: &mut R,
    model: &mut DeployedModel,
) -> Result<(), PersistError> {
    let count = read_u32(reader, "task count")? as usize;
    if count > 2 {
        return Err(PersistError::Corrupt(format!(
            "field `task count`: {count} tasks (a body carries 0..=2)"
        )));
    }
    let mut tasks = crate::deploy::ServingTasks::default();
    for _ in 0..count {
        let mut kind = [0u8; 1];
        read_field_bytes(reader, &mut kind, "task kind")?;
        match kind[0] {
            TASK_KIND_TOP_K => {
                if tasks.top_k.is_some() {
                    return Err(PersistError::Corrupt(
                        "field `task kind`: duplicate top-k task".into(),
                    ));
                }
                tasks.top_k = Some(read_u32(reader, "top-k task")? as usize);
            }
            TASK_KIND_ANOMALY => {
                if tasks.anomaly_threshold.is_some() {
                    return Err(PersistError::Corrupt(
                        "field `task kind`: duplicate anomaly task".into(),
                    ));
                }
                tasks.anomaly_threshold = Some(read_f32(reader, "anomaly threshold task")?);
            }
            other => {
                return Err(PersistError::Corrupt(format!(
                    "field `task kind`: unknown kind {other}"
                )))
            }
        }
    }
    model
        .set_tasks(tasks)
        .map_err(|e| PersistError::Corrupt(format!("field `top-k task`: {e}")))
}

/// Reads the dense-encoder payload (everything after the kind byte).
fn load_dense_body<R: Read>(reader: &mut R) -> Result<DeployedModel, PersistError> {
    let header = read_header(reader)?;
    let bases_len = header.n.checked_mul(header.dim).ok_or_else(|| {
        PersistError::Corrupt("field `bases`: n * D overflows the address space".into())
    })?;
    let bases = read_f32_vec(reader, bases_len, "bases")?;
    let phases = read_f32_vec(reader, header.dim, "phases")?;
    let bases = Matrix::from_vec(header.n, header.dim, bases)
        .map_err(|e| PersistError::Corrupt(format!("field `bases`: {e}")))?;
    let encoder = RbfEncoder::from_parts(bases, phases, header.base_std)
        .map_err(|e| PersistError::Corrupt(format!("field `phases`: {e}")))?;
    load_shared_tail(reader, header, AnyRbfEncoder::Dense(encoder))
}

/// Reads the structured-encoder payload (everything after the kind byte).
fn load_structured_body<R: Read>(reader: &mut R) -> Result<DeployedModel, PersistError> {
    let header = read_header(reader)?;
    let block_dim = read_u32(reader, "block dim")? as usize;
    // Both construction modes are valid on load: the padded input size
    // (full-pad) and half of it (half-block, when the shape qualifies).
    // The encoder's own plan is the single source of truth for block
    // shapes and sign budgets — ragged last blocks shrink their share.
    let backbone_signs = StructuredRbfEncoder::plan_sign_count(header.n, header.dim, block_dim)
        .ok_or_else(|| {
            PersistError::Corrupt(format!(
                "field `block dim`: {block_dim} is not a valid block plan for {} features",
                header.n
            ))
        })?;
    let blocks = read_u32(reader, "reserve block count")? as usize;
    let bound = StructuredRbfEncoder::reserve_lane_bound(header.dim, block_dim);
    let lane_count = blocks
        .checked_mul(block_dim)
        .filter(|&lanes| lanes <= bound)
        .ok_or_else(|| {
            PersistError::Corrupt(format!(
                "field `reserve block count`: {blocks} blocks of {block_dim} lanes \
                 exceed the {bound}-lane bound of a D={} model",
                header.dim
            ))
        })?;
    let sign_words = lane_count
        .checked_mul(3)
        .and_then(|reserve| reserve.checked_add(backbone_signs))
        .map(|signs| signs.div_ceil(64))
        .ok_or_else(|| {
            PersistError::Corrupt("field `reserve block count`: sign count overflows".into())
        })?;
    let mut signs = Vec::with_capacity(sign_words.min(MAX_PREALLOC));
    for _ in 0..sign_words {
        let mut buf = [0u8; 8];
        read_field_bytes(reader, &mut buf, "sign words")?;
        signs.push(u64::from_le_bytes(buf));
    }
    let phases = read_f32_vec(reader, header.dim, "phases")?;
    let mut lanes = Vec::with_capacity(lane_count.min(MAX_PREALLOC));
    // Grows with the entries read, never with the untrusted D.
    let mut named = BTreeSet::new();
    for lane in 0..lane_count {
        let dim = read_u32(reader, "reserve lanes")?;
        if dim != StructuredRbfEncoder::FREE_LANE {
            if dim as usize >= header.dim {
                return Err(PersistError::Corrupt(format!(
                    "field `reserve lanes`: lane {lane} names dim {dim} of a D={} model",
                    header.dim
                )));
            }
            if !named.insert(dim) {
                return Err(PersistError::Corrupt(format!(
                    "field `reserve lanes`: lane {lane} names dim {dim} a second time"
                )));
            }
        }
        lanes.push(dim);
    }
    let encoder = StructuredRbfEncoder::from_parts(
        header.n,
        header.dim,
        header.base_std,
        block_dim,
        &signs,
        phases,
        lanes,
    )
    .map_err(|e| PersistError::Corrupt(format!("field `reserve lanes`: {e}")))?;
    load_shared_tail(reader, header, AnyRbfEncoder::Structured(encoder))
}

/// Reads the tail every layout shares — centering means, memory scales and
/// packed class-memory words — and assembles the deployment.
fn load_shared_tail<R: Read>(
    reader: &mut R,
    header: Header,
    encoder: AnyRbfEncoder,
) -> Result<DeployedModel, PersistError> {
    let Header {
        dim,
        k,
        bits,
        width,
        ..
    } = header;
    let means = read_f32_vec(reader, dim, "center means")?;
    let scales = read_f32_vec(reader, k, "memory scales")?;
    let word_count = read_u32(reader, "memory word count")? as usize;
    let expected_words = k
        .checked_mul(dim)
        .and_then(|kd| kd.checked_mul(bits))
        .map(|b| b.div_ceil(64))
        .ok_or_else(|| {
            PersistError::Corrupt("field `memory word count`: k * D * bits overflows".into())
        })?;
    if word_count != expected_words {
        return Err(PersistError::Corrupt(format!(
            "field `memory word count`: {word_count} words for a {k}x{dim} \
             {bits}-bit memory (expected {expected_words})"
        )));
    }
    let mut words = Vec::with_capacity(word_count.min(MAX_PREALLOC));
    for _ in 0..word_count {
        let mut buf = [0u8; 8];
        read_field_bytes(reader, &mut buf, "memory words")?;
        words.push(u64::from_le_bytes(buf));
    }
    let center = EncodingCenter::from_means(means);
    let memory = QuantizedMatrix::from_parts(words, scales, width, k, dim)
        .map_err(|e| PersistError::Corrupt(format!("field `memory words`: {e}")))?;
    Ok(DeployedModel::from_parts(encoder, center, memory))
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f32<W: Write>(w: &mut W, v: f32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f32_slice<W: Write>(w: &mut W, values: &[f32]) -> std::io::Result<()> {
    for &v in values {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// `read_exact` that converts a short read into a [`PersistError::Corrupt`]
/// naming `field`; other I/O failures stay [`PersistError::Io`].
fn read_field_bytes<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    field: &'static str,
) -> Result<(), PersistError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            PersistError::Corrupt(format!("field `{field}` truncated (short read)"))
        } else {
            PersistError::Io(e)
        }
    })
}

fn read_u32<R: Read>(r: &mut R, field: &'static str) -> Result<u32, PersistError> {
    let mut buf = [0u8; 4];
    read_field_bytes(r, &mut buf, field)?;
    Ok(u32::from_le_bytes(buf))
}

/// Reads one f32 and rejects NaN and ±∞: no float the format stores is
/// meaningful non-finite, and one NaN phase or scale would turn every score
/// into NaN and every prediction into class 0.
fn read_f32<R: Read>(r: &mut R, field: &'static str) -> Result<f32, PersistError> {
    let mut buf = [0u8; 4];
    read_field_bytes(r, &mut buf, field)?;
    let value = f32::from_le_bytes(buf);
    if !value.is_finite() {
        return Err(PersistError::Corrupt(format!(
            "field `{field}`: {value} is not finite"
        )));
    }
    Ok(value)
}

fn read_f32_vec<R: Read>(
    r: &mut R,
    count: usize,
    field: &'static str,
) -> Result<Vec<f32>, PersistError> {
    let mut out = Vec::with_capacity(count.min(MAX_PREALLOC));
    for _ in 0..count {
        out.push(read_f32(r, field)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistHd, DistHdConfig};
    use disthd_datasets::suite::{PaperDataset, SuiteConfig};
    use disthd_eval::Classifier;

    fn deployed() -> (DeployedModel, disthd_datasets::TrainTest) {
        let data = PaperDataset::Diabetes
            .generate(&SuiteConfig::at_scale(0.002))
            .unwrap();
        let mut model = DistHd::new(
            DistHdConfig {
                dim: 256,
                epochs: 8,
                ..Default::default()
            },
            data.train.feature_dim(),
            data.train.class_count(),
        );
        model.fit(&data.train, None).unwrap();
        (DeployedModel::freeze(&model, BitWidth::B4).unwrap(), data)
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let (original, data) = deployed();
        let mut buffer = Vec::new();
        save_deployed(&original, &mut buffer).unwrap();
        let restored = load_deployed(buffer.as_slice()).unwrap();
        for i in 0..data.test.len().min(50) {
            assert_eq!(
                original.predict(data.test.sample(i)).unwrap(),
                restored.predict(data.test.sample(i)).unwrap(),
                "sample {i}"
            );
        }
        assert_eq!(original.width(), restored.width());
        assert_eq!(original.memory_bits(), restored.memory_bits());
    }

    #[test]
    fn single_class_model_round_trips() {
        // k = 1 is the degenerate deployment (an anomaly scorer): one class
        // row, one memory scale.  The format must not confuse the
        // single-element scale vector with an empty one.
        let (full, data) = deployed();
        let one_row = full.memory_parts().shape().1;
        let classes = Matrix::from_fn(1, one_row, |_, c| (c as f32 * 0.37).sin());
        let memory = QuantizedMatrix::quantize(&classes, BitWidth::B4);
        let single = DeployedModel::from_parts(
            full.encoder_parts().clone(),
            full.center_parts().clone(),
            memory,
        );
        let mut buffer = Vec::new();
        save_deployed(&single, &mut buffer).unwrap();
        let restored = load_deployed(buffer.as_slice()).unwrap();
        assert_eq!(restored.class_count(), 1);
        assert_eq!(restored.memory_bits(), single.memory_bits());
        // Every query lands in the only class.
        assert_eq!(restored.predict(data.test.sample(0)).unwrap(), 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = load_deployed(&b"NOPE............"[..]).unwrap_err();
        assert!(matches!(err, PersistError::BadMagic));
    }

    #[test]
    fn newer_version_is_distinguished_from_garbage() {
        let err = load_deployed(&b"DHD9............"[..]).unwrap_err();
        assert!(
            matches!(err, PersistError::UnsupportedVersion(b'9')),
            "{err}"
        );
        assert!(err.to_string().contains('9'), "{err}");
    }

    #[test]
    fn unknown_embedded_version_is_corrupt_and_named() {
        // A '4' container must embed a version this reader knows; anything
        // else is corruption, not a forward-compat case (a genuinely newer
        // format would bump the outer version byte).
        let err = load_deployed(&b"DHD4x..........."[..]).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("embedded version"), "{err}");
    }

    fn structured_deployed() -> (DeployedModel, disthd_datasets::TrainTest) {
        let data = PaperDataset::Diabetes
            .generate(&SuiteConfig::at_scale(0.002))
            .unwrap();
        let mut model = DistHd::new(
            DistHdConfig {
                dim: 256,
                epochs: 8,
                encoder_backend: disthd_hd::encoder::EncoderBackend::Structured,
                ..Default::default()
            },
            data.train.feature_dim(),
            data.train.class_count(),
        );
        model.fit(&data.train, None).unwrap();
        (DeployedModel::freeze(&model, BitWidth::B4).unwrap(), data)
    }

    #[test]
    fn every_deployment_embeds_a_version_five_body() {
        // Dense models are written as '5' bodies too, and the body exists
        // only inside the container: a bare "DHD5" is unsupported.
        let (original, _) = deployed();
        let mut buffer = Vec::new();
        save_deployed(&original, &mut buffer).unwrap();
        assert_eq!(&buffer[..6], b"DHD45\x00");
        let mut bare = b"DHD5".to_vec();
        bare.extend_from_slice(&buffer[5..buffer.len() - 8]);
        let err = load_deployed(bare.as_slice()).unwrap_err();
        assert!(
            matches!(err, PersistError::UnsupportedVersion(b'5')),
            "{err}"
        );
    }

    #[test]
    fn checksum_detects_parseable_bit_flips() {
        // Flip one bit in the middle of the bases payload: every count and
        // size still parses, but the trailer no longer covers the bytes —
        // the loader must fail closed instead of serving a corrupted model.
        let (original, _) = deployed();
        let mut buffer = Vec::new();
        save_deployed(&original, &mut buffer).unwrap();
        let mid = buffer.len() / 2;
        buffer[mid] ^= 0x10;
        let err = load_deployed(buffer.as_slice()).unwrap_err();
        assert!(
            matches!(err, PersistError::ChecksumMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn truncated_checksum_trailer_is_named() {
        let (original, _) = deployed();
        let mut buffer = Vec::new();
        save_deployed(&original, &mut buffer).unwrap();
        let err = load_deployed(&buffer[..buffer.len() - 3]).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn structured_encoder_kind_round_trips() {
        // A regenerated structured model carries signs, phases and reserve
        // lanes; the stream must reproduce its predictions exactly.
        let (original, data) = structured_deployed();
        assert!(
            original
                .encoder_parts()
                .as_structured()
                .map(|e| !e.reserve_lanes().is_empty())
                .unwrap_or(false),
            "fit should have moved dims to reserve lanes"
        );
        let mut buffer = Vec::new();
        save_deployed(&original, &mut buffer).unwrap();
        assert_eq!(&buffer[..6], b"DHD45\x01");
        let restored = load_deployed(buffer.as_slice()).unwrap();
        assert!(restored.encoder_parts().as_structured().is_some());
        for i in 0..data.test.len().min(50) {
            assert_eq!(
                original.predict(data.test.sample(i)).unwrap(),
                restored.predict(data.test.sample(i)).unwrap(),
                "sample {i}"
            );
        }
        assert_eq!(original.width(), restored.width());
        assert_eq!(original.memory_bits(), restored.memory_bits());
    }

    #[test]
    fn regenerated_encoders_save_load_save_byte_identically() {
        // Both encoders hold their projections packed and unpack only
        // here.  Regenerate twice, the second call re-drawing a dim the
        // first replaced (for the structured encoder: one that already owns
        // a reserve lane); the round trip must reproduce the stream byte
        // for byte and keep every score bitwise.
        use disthd_hd::encoder::RegenerativeEncoder;
        use disthd_linalg::{RngSeed, SeededRng};
        let classes = Matrix::from_fn(3, 40, |r, c| ((r * 40 + c) as f32 * 0.61).sin());
        let memory = QuantizedMatrix::quantize(&classes, BitWidth::B4);
        let center = EncodingCenter::from_means(vec![0.01; 40]);
        let mut dense = RbfEncoder::new(7, 40, RngSeed(3));
        let mut structured = StructuredRbfEncoder::new(7, 40, RngSeed(3));
        let mut rng = SeededRng::new(RngSeed(4));
        for dims in [&[1usize, 17, 39][..], &[17, 2]] {
            dense.regenerate(dims, &mut rng);
            structured.regenerate(dims, &mut rng);
        }
        let query = [0.3, -0.1, 0.0, 0.8, 0.25, -0.6, 0.4];
        for encoder in [
            AnyRbfEncoder::Dense(dense),
            AnyRbfEncoder::Structured(structured),
        ] {
            let original = DeployedModel::from_parts(encoder, center.clone(), memory.clone());
            let mut first = Vec::new();
            save_deployed(&original, &mut first).unwrap();
            let restored = load_deployed(first.as_slice()).unwrap();
            let mut second = Vec::new();
            save_deployed(&restored, &mut second).unwrap();
            assert_eq!(first, second);
            assert_eq!(
                original.decision_scores(&query).unwrap(),
                restored.decision_scores(&query).unwrap()
            );
        }
    }

    #[test]
    fn unknown_encoder_kind_is_corrupt_and_named() {
        let err = load_deployed(&b"DHD45\x07.........."[..]).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("encoder kind"), "{err}");
    }

    #[test]
    fn truncated_structured_stream_names_the_offending_field() {
        let (original, _) = structured_deployed();
        let mut buffer = Vec::new();
        save_deployed(&original, &mut buffer).unwrap();

        // Cut right after the magic + embedded version + kind bytes: header
        // dims are first.
        let err = load_deployed(&buffer[..8]).unwrap_err();
        assert!(err.to_string().contains("feature count n"), "{err}");

        // Cut inside the sign words: header is magic(4) + embedded ver(1) +
        // kind(1) + 4 u32 + f32 + block_dim u32 + reserve block count u32.
        let header = 6 + 4 * 4 + 4 + 4 + 4;
        let err = load_deployed(&buffer[..header + 10]).unwrap_err();
        assert!(err.to_string().contains("sign words"), "{err}");

        // Cut inside the memory words (before the 4-byte task count and
        // the 8-byte trailer).
        let err = load_deployed(&buffer[..buffer.len() - 8 - 4 - 3]).unwrap_err();
        assert!(err.to_string().contains("memory words"), "{err}");
    }

    #[test]
    fn structured_block_dim_mismatch_is_corrupt() {
        let (original, _) = structured_deployed();
        let mut buffer = Vec::new();
        save_deployed(&original, &mut buffer).unwrap();
        // block dim lives right after the 6-byte magic + embedded version +
        // kind prefix and the 4 u32 + f32 header.
        let offset = 6 + 4 * 4 + 4;
        buffer[offset..offset + 4].copy_from_slice(&3u32.to_le_bytes());
        let err = load_deployed(buffer.as_slice()).unwrap_err();
        assert!(err.to_string().contains("block dim"), "{err}");
    }

    #[test]
    fn truncated_stream_names_the_offending_field() {
        let (original, _) = deployed();
        let mut buffer = Vec::new();
        save_deployed(&original, &mut buffer).unwrap();

        // Cut inside the bases payload: prefix is magic(4) + embedded
        // version(1) + kind(1), then 4 u32 + 1 f32 of header.
        let header = 6 + 4 * 4 + 4;
        let err = load_deployed(&buffer[..header + 10]).unwrap_err();
        assert!(err.to_string().contains("bases"), "{err}");

        // Cut inside the magic itself.
        let err = load_deployed(&buffer[..2]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // Cut inside the memory words (before the 4-byte task count and
        // the 8-byte trailer).
        let err = load_deployed(&buffer[..buffer.len() - 8 - 4 - 3]).unwrap_err();
        assert!(err.to_string().contains("memory words"), "{err}");
    }

    #[test]
    fn inconsistent_word_count_names_the_field() {
        let (original, _) = deployed();
        let mut buffer = Vec::new();
        save_deployed(&original, &mut buffer).unwrap();
        // The word count lives right before the words (which sit ahead of
        // the 4-byte task count and the 8-byte checksum trailer); corrupt
        // it.  The structural check fires during the parse, before the
        // checksum is even read.
        let words = original.memory_parts().as_words().len();
        let offset = buffer.len() - 8 - 4 - words * 8 - 4;
        buffer[offset..offset + 4].copy_from_slice(&(words as u32 + 7).to_le_bytes());
        let err = load_deployed(buffer.as_slice()).unwrap_err();
        assert!(err.to_string().contains("memory word count"), "{err}");
    }

    #[test]
    fn unsupported_width_is_corrupt() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(b"DHD45\x00");
        for v in [4u32, 8, 2, 3] {
            buffer.extend_from_slice(&v.to_le_bytes()); // width bits = 3: invalid
        }
        buffer.extend_from_slice(&1.0f32.to_le_bytes());
        let err = load_deployed(buffer.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("width bits"), "{err}");
    }

    #[test]
    fn forged_giant_header_errors_instead_of_allocating() {
        // A hostile header claiming n = D = u32::MAX must fail with
        // a named error (overflow or short read) — not panic on capacity
        // overflow or attempt a multi-gigabyte allocation.
        let mut buffer = Vec::new();
        buffer.extend_from_slice(b"DHD45\x00");
        for v in [u32::MAX, u32::MAX, 3u32, 4] {
            buffer.extend_from_slice(&v.to_le_bytes());
        }
        buffer.extend_from_slice(&1.0f32.to_le_bytes());
        let err = load_deployed(buffer.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        // Large-but-representable counts run out of stream, naming the
        // field, after reading only the bytes that actually exist.
        let mut buffer = Vec::new();
        buffer.extend_from_slice(b"DHD45\x00");
        for v in [1_000_000u32, 1_000_000, 3, 4] {
            buffer.extend_from_slice(&v.to_le_bytes());
        }
        buffer.extend_from_slice(&1.0f32.to_le_bytes());
        let err = load_deployed(buffer.as_slice()).unwrap_err();
        assert!(err.to_string().contains("bases"), "{err}");
    }

    #[test]
    fn zero_sized_fields_are_named() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(b"DHD45\x00");
        for v in [5u32, 16, 0, 4] {
            buffer.extend_from_slice(&v.to_le_bytes()); // k = 0
        }
        buffer.extend_from_slice(&1.0f32.to_le_bytes());
        let err = load_deployed(buffer.as_slice()).unwrap_err();
        assert!(err.to_string().contains("class count k"), "{err}");
    }

    use crate::ServingTasks;

    /// A deployment with both serving tasks configured.
    fn tasked(original: &DeployedModel) -> DeployedModel {
        let mut model = original.clone();
        model
            .set_tasks(ServingTasks {
                top_k: Some(2),
                anomaly_threshold: Some(0.375),
            })
            .unwrap();
        model
    }

    #[test]
    fn tasks_round_trip_and_clearing_them_restores_the_task_free_bytes() {
        // A task-free deployment writes a task count of zero; a tasked one
        // must round-trip both its predictions and its task configuration,
        // and dropping the tasks again must reproduce the task-free bytes.
        for structured in [false, true] {
            let (original, data) = if structured {
                structured_deployed()
            } else {
                deployed()
            };
            let mut task_free = Vec::new();
            save_deployed(&original, &mut task_free).unwrap();
            assert_eq!(task_free[task_free.len() - 12..task_free.len() - 8], [0; 4]);

            let with_tasks = tasked(&original);
            let mut buffer = Vec::new();
            save_deployed(&with_tasks, &mut buffer).unwrap();
            assert_eq!(&buffer[..6], &task_free[..6]);
            let restored = load_deployed(buffer.as_slice()).unwrap();
            assert_eq!(restored.tasks(), with_tasks.tasks());
            for i in 0..data.test.len().min(20) {
                assert_eq!(
                    with_tasks.predict(data.test.sample(i)).unwrap(),
                    restored.predict(data.test.sample(i)).unwrap(),
                    "structured={structured}, sample {i}"
                );
            }

            let mut cleared = with_tasks.clone();
            cleared.set_tasks(ServingTasks::default()).unwrap();
            let mut second = Vec::new();
            save_deployed(&cleared, &mut second).unwrap();
            assert_eq!(second, task_free, "structured={structured}");
        }
    }

    #[test]
    fn single_task_streams_round_trip() {
        let (original, _) = deployed();
        for tasks in [
            ServingTasks {
                top_k: Some(3),
                anomaly_threshold: None,
            },
            ServingTasks {
                top_k: None,
                anomaly_threshold: Some(-0.125),
            },
        ] {
            let mut model = original.clone();
            model.set_tasks(tasks).unwrap();
            let mut buffer = Vec::new();
            save_deployed(&model, &mut buffer).unwrap();
            let restored = load_deployed(buffer.as_slice()).unwrap();
            assert_eq!(restored.tasks(), tasks);
        }
    }

    /// Serializes a top-k-only tasked deployment; its task section is the
    /// 9 bytes (count u32, kind u8, k u32) right before the 8-byte
    /// checksum trailer.
    fn top_k_only_stream() -> Vec<u8> {
        let (original, _) = deployed();
        let mut model = original;
        model
            .set_tasks(ServingTasks {
                top_k: Some(2),
                anomaly_threshold: None,
            })
            .unwrap();
        let mut buffer = Vec::new();
        save_deployed(&model, &mut buffer).unwrap();
        buffer
    }

    #[test]
    fn unknown_task_kind_fails_closed_and_names_the_field() {
        let mut buffer = top_k_only_stream();
        let kind_at = buffer.len() - 8 - 5;
        buffer[kind_at] = 7;
        let err = load_deployed(buffer.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("task kind"), "{err}");
    }

    #[test]
    fn truncated_task_section_names_the_offending_field() {
        let buffer = top_k_only_stream();
        // All cuts land before the 8-byte checksum trailer.
        // Cut inside the k payload.
        let err = load_deployed(&buffer[..buffer.len() - 8 - 2]).unwrap_err();
        assert!(err.to_string().contains("top-k task"), "{err}");
        // Cut right after the count: the kind byte itself is missing.
        let err = load_deployed(&buffer[..buffer.len() - 8 - 5]).unwrap_err();
        assert!(err.to_string().contains("task kind"), "{err}");
        // Cut inside the count.
        let err = load_deployed(&buffer[..buffer.len() - 8 - 7]).unwrap_err();
        assert!(err.to_string().contains("task count"), "{err}");
    }

    #[test]
    fn task_count_out_of_range_is_corrupt() {
        for forged in [3u32, u32::MAX] {
            let mut buffer = top_k_only_stream();
            let count_at = buffer.len() - 8 - 9;
            buffer[count_at..count_at + 4].copy_from_slice(&forged.to_le_bytes());
            let err = load_deployed(buffer.as_slice()).unwrap_err();
            assert!(err.to_string().contains("task count"), "{forged}: {err}");
        }
    }

    #[test]
    fn duplicate_task_kinds_are_corrupt() {
        let (original, _) = deployed();
        let with_both = tasked(&original);
        let mut buffer = Vec::new();
        save_deployed(&with_both, &mut buffer).unwrap();
        // Section layout: count(4) kind(1) k(4) kind(1) threshold(4), then
        // the 8-byte trailer; turn the anomaly kind into a second top-k
        // kind.
        let second_kind_at = buffer.len() - 8 - 5;
        buffer[second_kind_at] = 0;
        let err = load_deployed(buffer.as_slice()).unwrap_err();
        assert!(err.to_string().contains("duplicate top-k"), "{err}");
    }

    #[test]
    fn invalid_task_payloads_are_corrupt_and_named() {
        // k = 0 is structurally readable but semantically invalid; the
        // loader must reject it like `set_tasks` would.
        let mut buffer = top_k_only_stream();
        let k_at = buffer.len() - 8 - 4;
        buffer[k_at..k_at + 4].copy_from_slice(&0u32.to_le_bytes());
        let err = load_deployed(buffer.as_slice()).unwrap_err();
        assert!(err.to_string().contains("top-k task"), "{err}");

        // A NaN anomaly threshold can never flag anything coherently.
        let (original, _) = deployed();
        let mut model = original;
        model
            .set_tasks(ServingTasks {
                top_k: None,
                anomaly_threshold: Some(0.5),
            })
            .unwrap();
        let mut buffer = Vec::new();
        save_deployed(&model, &mut buffer).unwrap();
        let t_at = buffer.len() - 8 - 4;
        buffer[t_at..t_at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        let err = load_deployed(buffer.as_slice()).unwrap_err();
        assert!(err.to_string().contains("anomaly threshold task"), "{err}");
    }

    #[test]
    fn persist_error_display() {
        assert!(PersistError::BadMagic.to_string().contains("DHD"));
        assert!(PersistError::Corrupt("x".into()).to_string().contains('x'));
        assert!(PersistError::UnsupportedVersion(b'9')
            .to_string()
            .contains('9'));
        let mismatch = PersistError::ChecksumMismatch {
            stored: 0xdead,
            computed: 0xbeef,
        };
        let text = mismatch.to_string();
        assert!(text.contains("0x000000000000dead"), "{text}");
        assert!(text.contains("0x000000000000beef"), "{text}");
    }

    #[test]
    fn concatenated_streams_load_sequentially() {
        // The loader reads exactly its body + trailer and no further, so
        // back-to-back containers in one stream load one after the other.
        let (original, data) = deployed();
        let mut buffer = Vec::new();
        save_deployed(&original, &mut buffer).unwrap();
        save_deployed(&original, &mut buffer).unwrap();
        let mut cursor = buffer.as_slice();
        let first = load_deployed(&mut cursor).unwrap();
        let second = load_deployed(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(
            first.predict(data.test.sample(0)).unwrap(),
            second.predict(data.test.sample(0)).unwrap()
        );
    }
}
