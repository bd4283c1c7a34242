//! Feature-to-hypervector encoders ( A in Fig. 3 of the paper).
//!
//! All encoders implement [`Encoder`]; encoders whose per-dimension base
//! vectors can be *regenerated* — the heart of DistHD — also implement
//! [`RegenerativeEncoder`].
//!
//! * [`RbfEncoder`] — the paper's nonlinear encoder:
//!   `h_i = cos(B_i·F + c_i) · sin(B_i·F)` with `B_i ~ N(0,1)^n`,
//!   `c_i ~ U[0, 2π)` (§III-C, after Rahimi & Recht's random features \[21\]).
//! * [`StructuredRbfEncoder`] — the same kernel map with the dense Gaussian
//!   bases replaced by sign-diagonal × Walsh–Hadamard products
//!   (SORF/Fastfood): `O(D log D)` encode instead of `O(F·D)`; a
//!   regenerated dimension moves to a lane of a freshly drawn reserve
//!   block, so per-dimension regeneration stays structured too.
//! * [`AnyRbfEncoder`] — runtime dispatch between the two RBF backends
//!   (selected by [`EncoderBackend`]); what the trainer and deployments
//!   actually hold.

mod rbf;
mod structured;

pub use rbf::{RbfEncoder, DEFAULT_BANDWIDTH};
pub use structured::StructuredRbfEncoder;

use disthd_linalg::{half_angle_row, parallel, Matrix, PackedRhs, RngSeed, SeededRng, ShapeError};

/// Rows per work unit of [`reencode_columns`]: tall enough that one sweep
/// of the column panel serves many rows, small enough that the unit's
/// projection scratch stays in cache.  Fixed, so the partition never
/// depends on the worker count.
const REENCODE_CHUNK_ROWS: usize = 64;

/// The fused RBF epilogue `cos(p + c)·sin(p)`, evaluated through the
/// product-to-sum identity `½(sin(2p + c) − sin(c))` with `sin(c)`
/// precomputed — one `sin` per element instead of a `cos` plus a `sin`.
/// Shared verbatim by the dense and structured encoders so backend choice
/// never changes the nonlinearity's numerics.
///
/// Delegates to [`disthd_linalg::half_angle`], whose deterministic sine
/// ([`disthd_linalg::sin_det`]) is bit-identical to the vectorized
/// [`disthd_linalg::half_angle_row`] used by the batch store phases and the
/// fused quantized encode — every encode path (scalar, batch, bit-sliced)
/// therefore produces the exact same bits on every machine.
#[inline]
pub(crate) fn half_angle_cosine(projection: f32, phase: f32, phase_sin: f32) -> f32 {
    disthd_linalg::half_angle(projection, phase, phase_sin)
}

/// Recomputes column `dims[j]` of every row of `encoded` as
/// `half_angle_cosine((batch · B)[r][j], phases[dims[j]], phase_sins[dims[j]])`,
/// where `panel` holds `B`: the projection base of `dims[j]` in column `j`.
///
/// The rows stream through [`Matrix::matmul_rows_into`] in fixed chunks,
/// each with a chunk-sized projection scratch, so no `rows × dims.len()`
/// patch is ever built.  The requested dims' phases are gathered once, so
/// each row of projections runs one [`disthd_linalg::half_angle_row`]
/// before the scatter.  Every projection is the GEMM's ascending chain
/// and the epilogue is the encoders' own, so the result is bit-identical
/// to the same columns of a full encode at any thread count.
///
/// # Panics
///
/// Panics if `panel` is not `batch.cols() × dims.len()`, `encoded` does not
/// have `batch.rows()` rows, or a dim is out of range.
pub(crate) fn reencode_columns(
    batch: &Matrix,
    encoded: &mut Matrix,
    panel: &PackedRhs,
    dims: &[usize],
    phases: &[f32],
    phase_sins: &[f32],
) {
    assert_eq!(panel.cols(), dims.len(), "one panel column per dim");
    assert_eq!(encoded.rows(), batch.rows(), "one encoded row per sample");
    let width = encoded.cols();
    if dims.is_empty() || encoded.is_empty() {
        return;
    }
    let dim_phases: Vec<f32> = dims.iter().map(|&dim| phases[dim]).collect();
    let dim_phase_sins: Vec<f32> = dims.iter().map(|&dim| phase_sins[dim]).collect();
    parallel::par_chunks_mut(
        encoded.as_mut_slice(),
        REENCODE_CHUNK_ROWS * width,
        |chunk_index, rows| {
            let mut projections = vec![0.0f32; rows.len() / width * dims.len()];
            batch
                .matmul_rows_into(panel, chunk_index * REENCODE_CHUNK_ROWS, &mut projections)
                .expect("panel inner dim is the feature count");
            for (row, row_projections) in rows
                .chunks_exact_mut(width)
                .zip(projections.chunks_exact_mut(dims.len()))
            {
                half_angle_row(row_projections, 1.0, &dim_phases, &dim_phase_sins);
                for (&dim, &value) in dims.iter().zip(row_projections.iter()) {
                    row[dim] = value;
                }
            }
        },
    );
}

/// Maps low-dimensional feature vectors onto hyperdimensional space.
///
/// # Example
///
/// ```
/// use disthd_hd::encoder::{Encoder, RbfEncoder};
/// use disthd_linalg::RngSeed;
///
/// let encoder = RbfEncoder::new(8, 256, RngSeed(3));
/// let hv = encoder.encode(&[0.5; 8])?;
/// assert_eq!(hv.len(), 256);
/// assert!(hv.iter().all(|h| (-1.0..=1.0).contains(h)));
/// # Ok::<(), disthd_linalg::ShapeError>(())
/// ```
pub trait Encoder {
    /// Number of input features `n`.
    fn input_dim(&self) -> usize;

    /// Hyperdimensional output dimensionality `D`.
    fn output_dim(&self) -> usize;

    /// Encodes one feature vector into a `D`-dimensional hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `features.len() != input_dim()`.
    fn encode(&self, features: &[f32]) -> Result<Vec<f32>, ShapeError>;

    /// Encodes a batch (one sample per row) into a batch of hypervectors —
    /// the "highly parallel matrix-wise" path the paper highlights: one GEMM
    /// ([`RbfEncoder`]) or one blocked FHT pass ([`StructuredRbfEncoder`]).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `batch.cols() != input_dim()`.
    fn encode_batch(&self, batch: &Matrix) -> Result<Matrix, ShapeError>;
}

/// An [`Encoder`] whose individual output dimensions can be re-randomized.
///
/// Dimension regeneration ( P in Fig. 3) replaces the base vector of each
/// selected dimension with a fresh random draw so the dimension can encode a
/// new, hopefully more discriminative, projection of the input.
pub trait RegenerativeEncoder: Encoder {
    /// Replaces the base vectors of `dims` with fresh random draws.
    ///
    /// Indices outside `0..output_dim()` are ignored (callers pass the
    /// intersection set from Algorithm 2, which is always in range, but the
    /// permissive contract keeps fault-injection tests simple).
    fn regenerate(&mut self, dims: &[usize], rng: &mut SeededRng);

    /// Count of dimensions regenerated so far (for effective-dimension
    /// accounting, `D* = D + ΣR%·D`).
    fn regenerated_count(&self) -> u64;
}

/// Which RBF encoder implementation a model uses.
///
/// `Dense` is the paper-literal `O(F·D)` Gaussian base matrix; `Structured`
/// is the `O(D log D)` SORF construction ([`StructuredRbfEncoder`]) that
/// approximates the same kernel.  Both feed the identical fused half-angle
/// epilogue and expose identical regeneration semantics, so the choice is a
/// speed/fidelity knob, not a behavioural one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EncoderBackend {
    /// Dense Gaussian base matrix ([`RbfEncoder`]).
    #[default]
    Dense,
    /// Sign-diagonal × Walsh–Hadamard products ([`StructuredRbfEncoder`]).
    Structured,
}

impl std::fmt::Display for EncoderBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Dense => "dense",
            Self::Structured => "structured",
        })
    }
}

/// Runtime dispatch over the two RBF encoder backends.
///
/// The trainer, the serving deployment and the persistence layer all hold
/// this enum so one `DistHdConfig` field switches the entire pipeline
/// between the dense GEMM encoder and the structured FHT encoder.
///
/// # Example
///
/// ```
/// use disthd_hd::encoder::{AnyRbfEncoder, Encoder, EncoderBackend};
/// use disthd_linalg::RngSeed;
///
/// let enc = AnyRbfEncoder::new(EncoderBackend::Structured, 8, 256, RngSeed(3));
/// assert_eq!(enc.backend(), EncoderBackend::Structured);
/// assert_eq!(enc.encode(&[0.5; 8])?.len(), 256);
/// # Ok::<(), disthd_linalg::ShapeError>(())
/// ```
#[derive(Debug, Clone)]
pub enum AnyRbfEncoder {
    /// Dense Gaussian base matrix.
    Dense(RbfEncoder),
    /// Structured Walsh–Hadamard construction with reserve lanes for
    /// regenerated dims.
    Structured(StructuredRbfEncoder),
}

impl AnyRbfEncoder {
    /// Creates an encoder of the requested backend with the default
    /// bandwidth.
    pub fn new(
        backend: EncoderBackend,
        input_dim: usize,
        output_dim: usize,
        seed: RngSeed,
    ) -> Self {
        Self::with_bandwidth(backend, input_dim, output_dim, DEFAULT_BANDWIDTH, seed)
    }

    /// Creates an encoder of the requested backend with an explicit kernel
    /// bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth <= 0` (and, for the structured backend, if
    /// either dimension is zero).
    pub fn with_bandwidth(
        backend: EncoderBackend,
        input_dim: usize,
        output_dim: usize,
        bandwidth: f32,
        seed: RngSeed,
    ) -> Self {
        match backend {
            EncoderBackend::Dense => Self::Dense(RbfEncoder::with_bandwidth(
                input_dim, output_dim, bandwidth, seed,
            )),
            EncoderBackend::Structured => Self::Structured(StructuredRbfEncoder::with_bandwidth(
                input_dim, output_dim, bandwidth, seed,
            )),
        }
    }

    /// Overrides the FHT butterfly pass order of the structured backend
    /// (see [`StructuredRbfEncoder::set_fht_schedule`]); a no-op on the
    /// dense backend, so config plumbing never has to branch.
    pub fn set_fht_schedule(&mut self, schedule: disthd_linalg::FhtSchedule) {
        if let Self::Structured(e) = self {
            e.set_fht_schedule(schedule);
        }
    }

    /// The structured backend's FHT schedule, if that is the active
    /// backend.
    pub fn fht_schedule(&self) -> Option<disthd_linalg::FhtSchedule> {
        match self {
            Self::Dense(_) => None,
            Self::Structured(e) => Some(e.fht_schedule()),
        }
    }

    /// Which backend this encoder runs on.
    pub fn backend(&self) -> EncoderBackend {
        match self {
            Self::Dense(_) => EncoderBackend::Dense,
            Self::Structured(_) => EncoderBackend::Structured,
        }
    }

    /// Standard deviation of the (implicit) base vectors — needed to
    /// persist and reconstruct either backend.
    pub fn base_std(&self) -> f32 {
        match self {
            Self::Dense(e) => e.base_std(),
            Self::Structured(e) => e.base_std(),
        }
    }

    /// Re-encodes only the selected dimensions of an already-encoded batch
    /// (see [`RbfEncoder::reencode_dims`] /
    /// [`StructuredRbfEncoder::reencode_dims`]).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on a batch or encoded-shape mismatch.
    pub fn reencode_dims(
        &self,
        batch: &Matrix,
        encoded: &mut Matrix,
        dims: &[usize],
    ) -> Result<(), ShapeError> {
        match self {
            Self::Dense(e) => e.reencode_dims(batch, encoded, dims),
            Self::Structured(e) => e.reencode_dims(batch, encoded, dims),
        }
    }

    /// Fused bit-sliced batch encode straight into a
    /// [`crate::quantize::QuantizedMatrix`] — projection, half-angle
    /// epilogue, optional centering and quantization in one pass, with no
    /// intermediate f32 matrix (see
    /// [`RbfEncoder::encode_batch_quantized`] /
    /// [`StructuredRbfEncoder::encode_batch_quantized`]).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on a batch or center shape mismatch.
    pub fn encode_batch_quantized(
        &self,
        batch: &Matrix,
        center: Option<&[f32]>,
        width: crate::quantize::BitWidth,
    ) -> Result<crate::quantize::QuantizedMatrix, ShapeError> {
        match self {
            Self::Dense(e) => e.encode_batch_quantized(batch, center, width),
            Self::Structured(e) => e.encode_batch_quantized(batch, center, width),
        }
    }

    /// Borrows the dense variant, if that is the active backend
    /// (persistence dispatch).
    pub fn as_dense(&self) -> Option<&RbfEncoder> {
        match self {
            Self::Dense(e) => Some(e),
            Self::Structured(_) => None,
        }
    }

    /// Borrows the structured variant, if that is the active backend
    /// (persistence dispatch).
    pub fn as_structured(&self) -> Option<&StructuredRbfEncoder> {
        match self {
            Self::Dense(_) => None,
            Self::Structured(e) => Some(e),
        }
    }
}

impl From<RbfEncoder> for AnyRbfEncoder {
    fn from(encoder: RbfEncoder) -> Self {
        Self::Dense(encoder)
    }
}

impl From<StructuredRbfEncoder> for AnyRbfEncoder {
    fn from(encoder: StructuredRbfEncoder) -> Self {
        Self::Structured(encoder)
    }
}

impl Encoder for AnyRbfEncoder {
    fn input_dim(&self) -> usize {
        match self {
            Self::Dense(e) => e.input_dim(),
            Self::Structured(e) => e.input_dim(),
        }
    }

    fn output_dim(&self) -> usize {
        match self {
            Self::Dense(e) => e.output_dim(),
            Self::Structured(e) => e.output_dim(),
        }
    }

    fn encode(&self, features: &[f32]) -> Result<Vec<f32>, ShapeError> {
        match self {
            Self::Dense(e) => e.encode(features),
            Self::Structured(e) => e.encode(features),
        }
    }

    fn encode_batch(&self, batch: &Matrix) -> Result<Matrix, ShapeError> {
        match self {
            Self::Dense(e) => e.encode_batch(batch),
            Self::Structured(e) => e.encode_batch(batch),
        }
    }
}

impl RegenerativeEncoder for AnyRbfEncoder {
    fn regenerate(&mut self, dims: &[usize], rng: &mut SeededRng) {
        match self {
            Self::Dense(e) => e.regenerate(dims, rng),
            Self::Structured(e) => e.regenerate(dims, rng),
        }
    }

    fn regenerated_count(&self) -> u64 {
        match self {
            Self::Dense(e) => e.regenerated_count(),
            Self::Structured(e) => e.regenerated_count(),
        }
    }
}

#[cfg(test)]
mod backend_tests {
    use super::*;

    #[test]
    fn backend_displays_and_defaults_to_dense() {
        assert_eq!(EncoderBackend::Dense.to_string(), "dense");
        assert_eq!(EncoderBackend::Structured.to_string(), "structured");
        assert_eq!(EncoderBackend::default(), EncoderBackend::Dense);
    }

    #[test]
    fn any_encoder_dispatches_to_the_selected_backend() {
        let mut rng = SeededRng::new(RngSeed(2));
        for backend in [EncoderBackend::Dense, EncoderBackend::Structured] {
            let mut enc = AnyRbfEncoder::new(backend, 5, 64, RngSeed(1));
            assert_eq!(enc.backend(), backend);
            assert_eq!(enc.input_dim(), 5);
            assert_eq!(enc.output_dim(), 64);
            assert!(enc.base_std() > 0.0);
            let x = [0.2, -0.1, 0.5, 0.9, 0.0];
            let single = enc.encode(&x).unwrap();
            let batch = enc
                .encode_batch(&Matrix::from_rows(&[x.to_vec()]).unwrap())
                .unwrap();
            for (a, b) in single.iter().zip(batch.row(0)) {
                assert!((a - b).abs() < 1e-5, "{backend}: {a} vs {b}");
            }
            let before = enc.encode(&x).unwrap();
            enc.regenerate(&[3], &mut rng);
            assert_eq!(enc.regenerated_count(), 1);
            let after = enc.encode(&x).unwrap();
            assert_ne!(before[3], after[3], "{backend}");
            assert_eq!(before[4], after[4], "{backend}");
        }
    }

    #[test]
    fn fused_quantized_encode_matches_quantize_after_f32_encode() {
        use crate::quantize::{BitWidth, QuantizedMatrix};
        let mut rng = SeededRng::new(RngSeed(77));
        // One shape small enough for the fused constructor's serial loop,
        // one wide enough to fan out over the pool; both with regenerated
        // dims, so the structured backend's reserve lanes are exercised
        // too.
        for (rows, dim) in [(9usize, 257usize), (40, 1030)] {
            for backend in [EncoderBackend::Dense, EncoderBackend::Structured] {
                let mut enc = AnyRbfEncoder::new(backend, 6, dim, RngSeed(31));
                enc.regenerate(&[0, 5, 63, dim - 1], &mut rng);
                let batch =
                    Matrix::from_fn(rows, 6, |r, c| ((r * 6 + c) as f32 * 0.37).sin() * 0.8);
                let encoded = enc.encode_batch(&batch).unwrap();
                let center: Vec<f32> = (0..dim).map(|d| (d as f32 * 0.013).sin() * 0.05).collect();
                let mut centered = encoded.clone();
                for r in 0..rows {
                    for (v, &mu) in centered.row_mut(r).iter_mut().zip(&center) {
                        *v -= mu;
                    }
                }
                for width in BitWidth::all() {
                    let cases = [
                        (QuantizedMatrix::quantize(&encoded, width), None),
                        (
                            QuantizedMatrix::quantize(&centered, width),
                            Some(center.as_slice()),
                        ),
                    ];
                    for (reference, center_arg) in cases {
                        for threads in [1usize, 2, 8] {
                            let fused = disthd_linalg::parallel::with_thread_count(threads, || {
                                enc.encode_batch_quantized(&batch, center_arg, width)
                                    .unwrap()
                            });
                            let tag = format!(
                                "{backend} {rows}x{dim} w{} t{threads} centered={}",
                                width.bits(),
                                center_arg.is_some()
                            );
                            assert_eq!(fused.shape(), reference.shape(), "{tag}");
                            assert_eq!(fused.as_words(), reference.as_words(), "{tag}");
                            assert_eq!(fused.scales(), reference.scales(), "{tag}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn as_variant_accessors_match_backend() {
        let dense = AnyRbfEncoder::new(EncoderBackend::Dense, 4, 16, RngSeed(1));
        assert!(dense.as_dense().is_some());
        assert!(dense.as_structured().is_none());
        let structured = AnyRbfEncoder::new(EncoderBackend::Structured, 4, 16, RngSeed(1));
        assert!(structured.as_dense().is_none());
        assert!(structured.as_structured().is_some());
    }
}
