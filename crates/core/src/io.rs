//! Binary persistence of deployed models.
//!
//! A [`crate::DeployedModel`] is the artifact that ships to an edge device:
//! the f32 encoder, the per-dimension centering means and the quantized
//! class memory.  This module writes and reads a compact, versioned
//! little-endian binary format.  Version `'1'` is the dense-encoder layout:
//!
//! ```text
//! magic  "DHD" + version   4 bytes (version is the ASCII digit '1')
//! n (features)             u32    D (dims)    u32    k (classes)   u32
//! width bits               u32    base_std    f32
//! bases                    n*D f32 (row-major)
//! phases                   D f32
//! center means             D f32
//! memory scales            k f32
//! memory word count        u32
//! memory words             count u64
//! ```
//!
//! Version `'2'` adds an **encoder-kind byte** right after the magic so a
//! deployment can carry either RBF backend; kind `0` (dense) is followed by
//! the version-1 payload verbatim, kind `1` (structured) replaces the base
//! matrix with the Walsh–Hadamard construction's parts:
//!
//! ```text
//! magic  "DHD" + '2'       4 bytes
//! encoder kind             u8  (0 = dense, 1 = structured)
//! n, D, k, width bits      u32 each      base_std  f32
//! -- structured kind only --
//! block dim                u32 (padded FHT length, n.next_power_of_two())
//! sign word count          u32
//! sign words               count u64 (packed ±1 diagonals, bit = +1)
//! phases                   D f32
//! overlay count m          u32
//! overlay dims             m u32
//! overlay bases            m*n f32 (row-major, one base row per dim)
//! -- shared tail --
//! center means             D f32
//! memory scales            k f32
//! memory word count        u32
//! memory words             count u64
//! ```
//!
//! Version `'3'` appends a **serving-task section** after the shared tail
//! (and always carries the encoder-kind byte, like `'2'`):
//!
//! ```text
//! magic  "DHD" + '3'       4 bytes
//! encoder kind             u8 (then the v1/v2 payload + shared tail)
//! task count               u32 (1..=2; each task kind at most once)
//! per task: kind           u8  (0 = top-k, 1 = anomaly threshold)
//!           payload        u32 k   |   f32 threshold
//! ```
//!
//! Version `'4'` is the **checksummed container** every new artifact is
//! written as: the pre-checksum stream (whichever of `'1'`/`'2'`/`'3'` the
//! model would have selected) is embedded verbatim after the magic, and a
//! trailing FNV-1a hash covers every preceding byte:
//!
//! ```text
//! magic  "DHD" + '4'       4 bytes
//! embedded version         u8 ('1' | '2' | '3' — the legacy stream's own
//!                              version byte; its body follows verbatim)
//! embedded body            exactly the v1/v2/v3 payload bytes
//! checksum                 u64 FNV-1a over ALL preceding bytes
//!                              (magic and embedded version included)
//! ```
//!
//! ## Format evolution
//!
//! The fourth magic byte is the **format version**.  Readers accept exactly
//! the versions they know: a stream that starts with `DHD` but carries an
//! unknown version digit fails with [`PersistError::UnsupportedVersion`] —
//! distinct from [`PersistError::BadMagic`] (not a DHD stream at all) so
//! callers can tell "newer than me" from "garbage".  Since the
//! fault-tolerance layer, **every** deployment is written as the
//! checksummed `'4'` container so a flipped bit in a stored blob can never
//! be served silently: a structurally-parseable stream whose trailer does
//! not match fails closed with [`PersistError::ChecksumMismatch`] before
//! any caller sees the model.  Readers still load every legacy `'1'`,
//! `'2'` and `'3'` stream (which carry no trailer — integrity there is
//! best-effort structural validation only), and the embedded body inside
//! a `'4'` container is byte-identical to the legacy stream the pre-
//! checksum writer would have produced — stripping the container (drop the
//! `'4'` magic + embedded-version prefix and the 8-byte trailer, re-prefix
//! `DHD` + embedded version) yields a stream legacy readers load
//! unchanged.  An unknown task kind fails closed ([`PersistError::
//! Corrupt`], naming the field) rather than silently serving a
//! misconfigured task, and a non-finite float in any field is
//! [`PersistError::Corrupt`] too.  See `DESIGN.md` §6/§8/§11/§13 for the
//! full compatibility rules.  Every deserialization failure names the
//! offending field.

use crate::deploy::DeployedModel;
use disthd_hd::center::EncodingCenter;
use disthd_hd::encoder::{AnyRbfEncoder, Encoder, RbfEncoder, StructuredRbfEncoder};
use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
use disthd_linalg::Matrix;
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
/// Dense-encoder format version (the original layout, still written for
/// dense deployments).
const VERSION_DENSE: u8 = b'1';
/// Encoder-kind-dispatched format version (structured deployments).
const VERSION_KINDED: u8 = b'2';
/// Serving-task-carrying format version (written only when a
/// [`crate::ServingTasks`] is configured).
const VERSION_TASKED: u8 = b'3';
/// Checksummed-container format version: an embedded `'1'`/`'2'`/`'3'`
/// stream followed by a trailing FNV-1a hash over every preceding byte.
/// This is what every new artifact is written as.
const VERSION_CHECKSUMMED: u8 = b'4';
/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Encoder-kind byte: dense RBF encoder (version-1 payload follows).
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
                "unsupported DHD format version {:?} (this reader understands versions {:?}–{:?})",
                char::from(*v),
                char::from(VERSION_DENSE),
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
/// Every artifact is written as the checksummed `'4'` container: the
/// stream a pre-checksum writer would have produced (dense task-free →
/// `'1'`, structured → `'2'`, tasked → `'3'`) is embedded verbatim after
/// the `DHD4` magic, then a trailing FNV-1a hash over all preceding bytes
/// lets the loader fail closed on any bit flip instead of serving a
/// silently-corrupted model.  The embedded body stays byte-identical to
/// the legacy stream, so stripping the container recovers an artifact
/// every older reader loads unchanged.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on write failure.
pub fn save_deployed<W: Write>(model: &DeployedModel, mut writer: W) -> Result<(), PersistError> {
    let legacy = serialize_legacy(model)?;
    let mut out = Vec::with_capacity(legacy.len() + 9);
    out.extend_from_slice(MAGIC_PREFIX);
    out.push(VERSION_CHECKSUMMED);
    // legacy[3] is the embedded stream's own version byte; its body
    // follows verbatim.
    out.extend_from_slice(&legacy[3..]);
    let checksum = fnv1a_update(FNV_OFFSET, &out);
    out.extend_from_slice(&checksum.to_le_bytes());
    writer.write_all(&out)?;
    writer.flush()?;
    Ok(())
}

/// Serializes `model` as the pre-checksum (`'1'`/`'2'`/`'3'`) stream that
/// gets embedded inside the `'4'` container.
fn serialize_legacy(model: &DeployedModel) -> Result<Vec<u8>, PersistError> {
    let mut writer = Vec::new();
    let (rows, cols) = model.memory_parts().shape();
    let tasks = model.tasks();
    let write_dims = |writer: &mut Vec<u8>, n: usize| -> Result<(), PersistError> {
        write_u32(writer, n as u32)?;
        write_u32(writer, cols as u32)?;
        write_u32(writer, rows as u32)?;
        write_u32(writer, model.width().bits() as u32)?;
        write_f32(writer, model.encoder_parts().base_std())?;
        Ok(())
    };
    match model.encoder_parts() {
        AnyRbfEncoder::Dense(encoder) => {
            writer.write_all(MAGIC_PREFIX)?;
            if tasks.is_empty() {
                writer.write_all(&[VERSION_DENSE])?;
            } else {
                writer.write_all(&[VERSION_TASKED, ENCODER_KIND_DENSE])?;
            }
            // The only place the packed bases are unpacked: the format
            // stores them row-major.
            let bases = encoder.bases().to_matrix();
            write_dims(&mut writer, bases.rows())?;
            write_f32_slice(&mut writer, bases.as_slice())?;
            write_f32_slice(&mut writer, encoder.phases())?;
        }
        AnyRbfEncoder::Structured(encoder) => {
            writer.write_all(MAGIC_PREFIX)?;
            let version = if tasks.is_empty() {
                VERSION_KINDED
            } else {
                VERSION_TASKED
            };
            writer.write_all(&[version])?;
            writer.write_all(&[ENCODER_KIND_STRUCTURED])?;
            write_dims(&mut writer, encoder.input_dim())?;
            write_u32(&mut writer, encoder.block_dim() as u32)?;
            let sign_words = encoder.packed_signs();
            write_u32(&mut writer, sign_words.len() as u32)?;
            for &w in &sign_words {
                writer.write_all(&w.to_le_bytes())?;
            }
            write_f32_slice(&mut writer, encoder.phases())?;
            write_u32(&mut writer, encoder.overlay_dims().len() as u32)?;
            for &d in encoder.overlay_dims() {
                write_u32(&mut writer, d as u32)?;
            }
            write_f32_slice(&mut writer, encoder.overlay_rows().as_slice())?;
        }
    }
    write_f32_slice(&mut writer, model.center_parts().means())?;
    write_f32_slice(&mut writer, model.memory_parts().scales())?;
    let words = model.memory_parts().as_words();
    write_u32(&mut writer, words.len() as u32)?;
    for &w in words {
        writer.write_all(&w.to_le_bytes())?;
    }
    if !tasks.is_empty() {
        let count = tasks.top_k.is_some() as u32 + tasks.anomaly_threshold.is_some() as u32;
        write_u32(&mut writer, count)?;
        if let Some(k) = tasks.top_k {
            writer.write_all(&[TASK_KIND_TOP_K])?;
            write_u32(&mut writer, k as u32)?;
        }
        if let Some(threshold) = tasks.anomaly_threshold {
            writer.write_all(&[TASK_KIND_ANOMALY])?;
            write_f32(&mut writer, threshold)?;
        }
    }
    Ok(writer)
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
/// * [`PersistError::UnsupportedVersion`] for a DHD stream of a newer
///   (or otherwise unknown) format version;
/// * [`PersistError::Corrupt`] on inconsistent sizes, truncation or an
///   unknown encoder kind, naming the offending field;
/// * [`PersistError::ChecksumMismatch`] when a `'4'` container parses
///   structurally but its trailing FNV-1a hash does not match the bytes
///   read (a flipped bit in storage — the model is withheld);
/// * [`PersistError::Io`] on read failure.
pub fn load_deployed<R: Read>(mut reader: R) -> Result<DeployedModel, PersistError> {
    let mut magic = [0u8; 4];
    read_field_bytes(&mut reader, &mut magic, "magic")?;
    if &magic[..3] != MAGIC_PREFIX {
        return Err(PersistError::BadMagic);
    }
    match magic[3] {
        VERSION_DENSE | VERSION_KINDED | VERSION_TASKED => {
            load_body_for_version(magic[3], &mut reader)
        }
        VERSION_CHECKSUMMED => {
            let mut embedded = [0u8; 1];
            read_field_bytes(&mut reader, &mut embedded, "embedded version")?;
            match embedded[0] {
                VERSION_DENSE | VERSION_KINDED | VERSION_TASKED => {}
                other => {
                    return Err(PersistError::Corrupt(format!(
                        "field `embedded version`: unknown version {:?}",
                        char::from(other)
                    )))
                }
            }
            // Hash while parsing: prime the hash with the already-consumed
            // magic + embedded-version prefix, then every body byte the
            // parsers read flows through the adapter.  Structural errors
            // fire first (they surface during the parse, with their field
            // names intact); a stream that parses cleanly but hashes wrong
            // fails closed here.
            let mut hashing = HashingReader {
                hash: fnv1a_update(fnv1a_update(FNV_OFFSET, &magic), &embedded),
                inner: &mut reader,
            };
            let model = load_body_for_version(embedded[0], &mut hashing)?;
            let computed = hashing.hash;
            let mut trailer = [0u8; 8];
            read_field_bytes(&mut reader, &mut trailer, "checksum")?;
            let stored = u64::from_le_bytes(trailer);
            if stored != computed {
                return Err(PersistError::ChecksumMismatch { stored, computed });
            }
            Ok(model)
        }
        version => Err(PersistError::UnsupportedVersion(version)),
    }
}

/// Loads the body of a validated legacy (`'1'`/`'2'`/`'3'`) stream —
/// everything after the 4-byte magic.  Callers have already matched
/// `version` against the known set.
fn load_body_for_version<R: Read>(
    version: u8,
    reader: &mut R,
) -> Result<DeployedModel, PersistError> {
    if version == VERSION_DENSE {
        return load_dense_body(reader);
    }
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
    if version == VERSION_TASKED {
        load_task_section(reader, &mut model)?;
    }
    Ok(model)
}

/// Reads the version-3 serving-task section and installs it on `model`.
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
    if count == 0 || count > 2 {
        return Err(PersistError::Corrupt(format!(
            "field `task count`: {count} tasks (a v3 stream carries 1..=2)"
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

/// Reads the dense-encoder payload (everything after the magic / kind
/// dispatch) — the version-1 layout.
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

/// Reads the structured-encoder payload (version-2, kind 1).
fn load_structured_body<R: Read>(reader: &mut R) -> Result<DeployedModel, PersistError> {
    let header = read_header(reader)?;
    let block_dim = read_u32(reader, "block dim")? as usize;
    // Both construction modes are valid on load: the padded input size
    // (full-pad) and half of it (half-block, when the shape qualifies).
    // The encoder's own plan is the single source of truth for block
    // shapes and sign budgets — ragged last blocks shrink their share.
    let expected_sign_words =
        StructuredRbfEncoder::plan_sign_count(header.n, header.dim, block_dim)
            .map(|signs| signs.div_ceil(64))
            .ok_or_else(|| {
                PersistError::Corrupt(format!(
                    "field `block dim`: {block_dim} is not a valid block plan for {} features",
                    header.n
                ))
            })?;
    let sign_word_count = read_u32(reader, "sign word count")? as usize;
    if sign_word_count != expected_sign_words {
        return Err(PersistError::Corrupt(format!(
            "field `sign word count`: {sign_word_count} words for blocks of \
             {block_dim} (expected {expected_sign_words})"
        )));
    }
    let mut sign_words = Vec::with_capacity(sign_word_count.min(MAX_PREALLOC));
    for _ in 0..sign_word_count {
        let mut buf = [0u8; 8];
        read_field_bytes(reader, &mut buf, "sign words")?;
        sign_words.push(u64::from_le_bytes(buf));
    }
    let phases = read_f32_vec(reader, header.dim, "phases")?;
    let overlay_count = read_u32(reader, "overlay count")? as usize;
    if overlay_count > header.dim {
        return Err(PersistError::Corrupt(format!(
            "field `overlay count`: {overlay_count} overlaid dims in a D={} model",
            header.dim
        )));
    }
    let mut overlay_dims = Vec::with_capacity(overlay_count.min(MAX_PREALLOC));
    for _ in 0..overlay_count {
        overlay_dims.push(read_u32(reader, "overlay dims")? as usize);
    }
    let overlay_len = overlay_count.checked_mul(header.n).ok_or_else(|| {
        PersistError::Corrupt("field `overlay bases`: m * n overflows the address space".into())
    })?;
    let overlay_values = read_f32_vec(reader, overlay_len, "overlay bases")?;
    let overlay_rows = Matrix::from_vec(overlay_count, header.n, overlay_values)
        .map_err(|e| PersistError::Corrupt(format!("field `overlay bases`: {e}")))?;
    let encoder = StructuredRbfEncoder::from_parts(
        header.n,
        header.dim,
        header.base_std,
        block_dim,
        &sign_words,
        phases,
        overlay_dims,
        overlay_rows,
    )
    .map_err(|e| PersistError::Corrupt(format!("field `overlay dims`: {e}")))?;
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

    /// Strips the `'4'` container from a freshly-written stream: drops the
    /// outer magic and the 8-byte trailer and re-prefixes `DHD` onto the
    /// embedded version byte + body, reconstructing the exact stream a
    /// pre-checksum writer would have produced.
    fn strip_container(v4: &[u8]) -> Vec<u8> {
        assert_eq!(&v4[..4], b"DHD4");
        let mut legacy = Vec::with_capacity(v4.len() - 9);
        legacy.extend_from_slice(MAGIC_PREFIX);
        legacy.extend_from_slice(&v4[4..v4.len() - 8]);
        legacy
    }

    #[test]
    fn dense_deployments_embed_version_one() {
        // Pre-structured readers only understand 'DHD1'; a dense model's
        // embedded body must reconstruct to exactly that stream, and this
        // reader must still load the reconstruction identically.
        let (original, data) = deployed();
        let mut buffer = Vec::new();
        save_deployed(&original, &mut buffer).unwrap();
        assert_eq!(&buffer[..5], b"DHD41");
        let legacy = strip_container(&buffer);
        assert_eq!(&legacy[..4], b"DHD1");
        let restored = load_deployed(legacy.as_slice()).unwrap();
        for i in 0..data.test.len().min(20) {
            assert_eq!(
                original.predict(data.test.sample(i)).unwrap(),
                restored.predict(data.test.sample(i)).unwrap(),
                "sample {i}"
            );
        }
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
        // A regenerated structured model carries signs, phases and a
        // non-empty overlay; the v2 stream must reproduce its predictions
        // exactly.
        let (original, data) = structured_deployed();
        assert!(
            original
                .encoder_parts()
                .as_structured()
                .map(|e| e.overlay_len() > 0)
                .unwrap_or(false),
            "fit should have evicted dims into the overlay"
        );
        let mut buffer = Vec::new();
        save_deployed(&original, &mut buffer).unwrap();
        assert_eq!(&buffer[..6], b"DHD42\x01");
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
        // first replaced (for the structured encoder: one the overlay
        // already holds); the round trip must reproduce the stream byte for
        // byte and keep every score bitwise.
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
    fn version_two_dense_kind_loads_like_version_one() {
        // The kind byte exists so future dense streams may use v2 as well:
        // splicing a dense-kind byte into a v1 stream must load the same
        // model.
        let (original, data) = deployed();
        let mut buffer = Vec::new();
        save_deployed(&original, &mut buffer).unwrap();
        let legacy = strip_container(&buffer);
        let mut v2 = Vec::with_capacity(legacy.len() + 1);
        v2.extend_from_slice(b"DHD2\x00");
        v2.extend_from_slice(&legacy[4..]);
        let restored = load_deployed(v2.as_slice()).unwrap();
        assert_eq!(
            original.predict(data.test.sample(0)).unwrap(),
            restored.predict(data.test.sample(0)).unwrap()
        );
    }

    #[test]
    fn unknown_encoder_kind_is_corrupt_and_named() {
        let err = load_deployed(&b"DHD2\x07..........."[..]).unwrap_err();
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
        // kind(1) + 4 u32 + f32 + block_dim u32 + sign word count u32.
        let header = 6 + 4 * 4 + 4 + 4 + 4;
        let err = load_deployed(&buffer[..header + 10]).unwrap_err();
        assert!(err.to_string().contains("sign words"), "{err}");

        // Cut inside the trailing memory words (before the 8-byte trailer).
        let err = load_deployed(&buffer[..buffer.len() - 8 - 3]).unwrap_err();
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
        // version(1), then 4 u32 + 1 f32 of header.
        let header = 5 + 4 * 4 + 4;
        let err = load_deployed(&buffer[..header + 10]).unwrap_err();
        assert!(err.to_string().contains("bases"), "{err}");

        // Cut inside the magic itself.
        let err = load_deployed(&buffer[..2]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // Cut inside the trailing memory words (before the 8-byte trailer).
        let err = load_deployed(&buffer[..buffer.len() - 8 - 3]).unwrap_err();
        assert!(err.to_string().contains("memory words"), "{err}");
    }

    #[test]
    fn inconsistent_word_count_names_the_field() {
        let (original, _) = deployed();
        let mut buffer = Vec::new();
        save_deployed(&original, &mut buffer).unwrap();
        // The word count lives right before the words (which sit ahead of
        // the 8-byte checksum trailer); corrupt it.  The structural check
        // fires during the parse, before the checksum is even read.
        let words = original.memory_parts().as_words().len();
        let offset = buffer.len() - 8 - words * 8 - 4;
        buffer[offset..offset + 4].copy_from_slice(&(words as u32 + 7).to_le_bytes());
        let err = load_deployed(buffer.as_slice()).unwrap_err();
        assert!(err.to_string().contains("memory word count"), "{err}");
    }

    #[test]
    fn unsupported_width_is_corrupt() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(b"DHD1");
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
        // A hostile 21-byte header claiming n = D = u32::MAX must fail with
        // a named error (overflow or short read) — not panic on capacity
        // overflow or attempt a multi-gigabyte allocation.
        let mut buffer = Vec::new();
        buffer.extend_from_slice(b"DHD1");
        for v in [u32::MAX, u32::MAX, 3u32, 4] {
            buffer.extend_from_slice(&v.to_le_bytes());
        }
        buffer.extend_from_slice(&1.0f32.to_le_bytes());
        let err = load_deployed(buffer.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        // Large-but-representable counts run out of stream, naming the
        // field, after reading only the bytes that actually exist.
        let mut buffer = Vec::new();
        buffer.extend_from_slice(b"DHD1");
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
        buffer.extend_from_slice(b"DHD1");
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
    fn task_free_streams_stay_byte_identical_and_tasks_round_trip() {
        // The compatibility contract of version '3': a deployment with no
        // tasks must serialize to the exact pre-task bytes (v1 dense, v2
        // structured), and a tasked deployment must round-trip both its
        // predictions and its task configuration through the v3 stream.
        for structured in [false, true] {
            let (original, data) = if structured {
                structured_deployed()
            } else {
                deployed()
            };
            let mut task_free = Vec::new();
            save_deployed(&original, &mut task_free).unwrap();
            let expected_magic: &[u8] = if structured { b"DHD42\x01" } else { b"DHD41" };
            assert_eq!(&task_free[..expected_magic.len()], expected_magic);
            // Stripping the container reconstructs the exact pre-checksum
            // stream, so pre-task readers keep loading task-free artifacts.
            let legacy_magic: &[u8] = if structured { b"DHD2\x01" } else { b"DHD1" };
            let legacy = strip_container(&task_free);
            assert_eq!(&legacy[..legacy_magic.len()], legacy_magic);

            let with_tasks = tasked(&original);
            let mut buffer = Vec::new();
            save_deployed(&with_tasks, &mut buffer).unwrap();
            let v3_magic: &[u8] = if structured {
                b"DHD43\x01"
            } else {
                b"DHD43\x00"
            };
            assert_eq!(&buffer[..v3_magic.len()], v3_magic);
            let restored = load_deployed(buffer.as_slice()).unwrap();
            assert_eq!(restored.tasks(), with_tasks.tasks());
            for i in 0..data.test.len().min(20) {
                assert_eq!(
                    with_tasks.predict(data.test.sample(i)).unwrap(),
                    restored.predict(data.test.sample(i)).unwrap(),
                    "structured={structured}, sample {i}"
                );
            }

            // Dropping the tasks again reproduces the pre-task bytes
            // exactly.
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
        for forged in [0u32, 3] {
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
        // The v4 loader reads exactly its body + trailer and no further, so
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
