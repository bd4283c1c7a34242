use super::{half_angle_cosine, Encoder, RegenerativeEncoder};
use crate::quantize::{BitWidth, QuantizedMatrix};
use disthd_linalg::{
    dot_gemm_order, fht_inplace, fht_inplace_signed, half_angle_row, parallel, sin_det,
    FhtSchedule, Gaussian, Matrix, PackedRhs, RngSeed, SeededRng, ShapeError, Uniform,
};
use std::collections::BTreeMap;

/// Minimum rows per parallel work unit of the structured batch encode.
/// Fixed (never derived from the worker count) so results are bit-identical
/// at any thread count, exactly like the GEMM's row chunking.
const ENCODE_ROW_CHUNK: usize = 8;

/// Minimum output elements per parallel work unit.  Narrow outputs scale
/// the row chunk up until each unit carries this much butterfly-plus-sine
/// arithmetic, so fork/join and per-chunk scratch setup stay amortized.
const ENCODE_CHUNK_MIN_ELEMS: usize = 1 << 14;

/// Below this many output elements the whole batch encodes serially: the
/// pool's fork/join cost dwarfs the per-element arithmetic (the same
/// reasoning as the GEMM's serial threshold, tuned for the heavier
/// per-element trigonometric epilogue).
const ENCODE_PAR_MIN_ELEMS: usize = 1 << 15;

/// Smallest transform a shrunken ragged last block may use (clamped to the
/// block dim when that is smaller).  Keeps a degenerate 1–2 point "mixing"
/// transform from producing near-passthrough features while still letting
/// a short tail skip most of a full-size transform.
const MIN_RAGGED_TRANSFORM: usize = 8;

/// Rows per parallel work unit, derived from the output width alone —
/// never the worker count — so the partition (and the output bits) are
/// identical at any thread count.
fn encode_chunk_rows(output_dim: usize) -> usize {
    let scale = ENCODE_CHUNK_MIN_ELEMS
        .div_ceil(ENCODE_ROW_CHUNK * output_dim.max(1))
        .max(1);
    ENCODE_ROW_CHUNK * scale
}

/// Sentinel in the dim → overlay-column map: "still on the structured
/// backbone".
const NOT_OVERLAID: u32 = u32::MAX;

/// Shape of one transform block: which input features it reads, which
/// output dims it produces, where its sign diagonals live and how its raw
/// outputs are scaled.  Derived deterministically from
/// `(input_dim, output_dim, block_dim)` — never persisted.
#[derive(Debug, Clone)]
struct BlockSpec {
    /// Start of this block's `3 · transform_dim` sign entries in `signs`.
    sign_offset: usize,
    /// Power-of-two FHT length of this block.
    transform_dim: usize,
    /// First input feature fed to this block.
    window_start: usize,
    /// Features fed (the rest of the transform input is zero-padded;
    /// equals `transform_dim` in half-block mode, `input_dim` in full-pad
    /// mode).
    window_len: usize,
    /// First output dimension this block produces.
    out_start: usize,
    /// Output dimensions produced (`min(output_dim − out_start,
    /// transform_dim)`).
    out_width: usize,
    /// Scale applied to raw transform outputs before the epilogue.
    scale: f32,
}

/// Structured (SORF/Fastfood-style) drop-in for [`super::RbfEncoder`]:
/// the dense Gaussian base matrix is replaced by blocks of
/// `H·diag(s₃)·H·diag(s₂)·H·diag(s₁)` — three Walsh–Hadamard transforms
/// interleaved with random sign diagonals — cutting batch encode from
/// `O(F·D)` multiply-adds to `O(D log D)` butterflies per sample.
///
/// ## Construction modes
///
/// **Full-pad** (`block_dim = d = F.next_power_of_two()`): the input is
/// zero-padded to `d` and `⌈D / d⌉` independent blocks are stacked, each
/// with its own three Rademacher sign vectors.  With the unnormalized
/// Hadamard transform (`H·Hᵀ = d·I`) the product `M = H·S₃·H·S₂·H·S₁`
/// satisfies `M·Mᵀ = d³·I`, so scaling by `base_std / d` gives every
/// implicit base vector the exact norm `base_std·√d` and projections with
/// the same `base_std²·‖F‖²` variance as the dense encoder.
///
/// **Half-block** (`block_dim = d/2`, chosen automatically when
/// `F ≤ 0.75·d`): instead of padding ~40% zeros, each block transforms a
/// *dense* window of `h = d/2` consecutive features — even-indexed blocks
/// read `[0, h)`, odd ones `[F−h, F)`, so the two window families overlap
/// and jointly cover every feature.  Scaling by `base_std·√(F/h)/h` gives
/// every implicit row the norm `base_std·√F` — the dense encoder's
/// expected row norm — and the dense-target projection variance for
/// inputs whose energy is roughly uniform across features (each output
/// dim sees a window holding `h/F` of the features).  A ragged last block
/// additionally shrinks its transform to the smallest power of two
/// covering its live outputs (floored at 8 lanes so the radix-8 kernel
/// applies), so its sign vectors are sized to the *live* block rather
/// than the full `h`.
///
/// The projections then feed the identical fused half-angle cosine
/// epilogue, so downstream behaviour (bandwidth, centering, quantization)
/// is unchanged.
///
/// ## The full-width epilogue
///
/// Every block transform runs the ascending butterfly schedule
/// ([`FhtSchedule::Ascending`], the only one) over all its lanes.  Each
/// block then copies its whole consumed output width into the row and
/// runs one vectorized [`disthd_linalg::half_angle_row`] over that
/// contiguous slice, overlaid dims included: their values are overwritten
/// by the overlay pass below.  Computing them costs a few lanes of a
/// vector loop; skipping them would cut the slice into short scalar runs.
///
/// ## Regeneration: the dense overlay
///
/// DistHD's Algorithm 2 regenerates *individual* dimensions, but a
/// structured dimension has no private base vector to redraw — every output
/// of a block shares the same sign diagonals.  A regenerated dimension is
/// therefore **evicted** from the structured backbone into a small dense
/// overlay: it gets a fresh private Gaussian base vector (exactly a dense
/// [`super::RbfEncoder`] column), stored as one row of a patch matrix.
/// Encoding computes the structured pass for every dimension, then the
/// overlay's raw projections via the existing packed GEMM
/// ([`Matrix::matmul_rows_into`] against the overlay, held packed), runs
/// one [`disthd_linalg::half_angle_row`] over each row of them with the
/// overlay dims' phases in overlay order, and scatters the results into
/// the overlaid columns.
/// `fit` / `partial_fit` / regeneration semantics are therefore identical
/// to the dense encoder's, and the overlay GEMM costs `O(F·m)` per sample
/// for `m` evicted dimensions — at a few hundred evicted dimensions, more
/// than the whole structured pass.
///
/// # Example
///
/// ```
/// use disthd_hd::encoder::{Encoder, RegenerativeEncoder, StructuredRbfEncoder};
/// use disthd_linalg::{RngSeed, SeededRng};
///
/// let mut encoder = StructuredRbfEncoder::new(4, 128, RngSeed(9));
/// let before = encoder.encode(&[0.3, 0.1, 0.8, 0.5])?;
/// let mut rng = SeededRng::new(RngSeed(10));
/// encoder.regenerate(&[0, 1, 2], &mut rng);
/// let after = encoder.encode(&[0.3, 0.1, 0.8, 0.5])?;
/// assert_ne!(before[0], after[0]);      // regenerated dims change
/// assert_eq!(before[3], after[3]);      // untouched dims are stable
/// # Ok::<(), disthd_linalg::ShapeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StructuredRbfEncoder {
    input_dim: usize,
    output_dim: usize,
    /// Standard deviation the implicit base vectors emulate
    /// (`bandwidth / √n`, same as the dense encoder).
    base_std: f32,
    /// Per-block transform length parameter (persisted): the padded input
    /// size in full-pad mode, half of it in half-block mode.  Every
    /// block's `transform_dim` is ≤ this.
    block_dim: usize,
    /// Stacked transform blocks (shape derived from
    /// `(input_dim, output_dim, block_dim)`).
    blocks: Vec<BlockSpec>,
    /// Rademacher sign diagonals as `±1.0` (ready to multiply):
    /// `3 · transform_dim` entries per block, laid out
    /// `[block][stage][lane]` at each block's `sign_offset`.
    signs: Vec<f32>,
    /// Per-dimension phases `c_i ~ U[0, 2π)`.
    phases: Vec<f32>,
    /// Precomputed `sin(c_i)` (see `RbfEncoder::phase_sins`).
    phase_sins: Vec<f32>,
    /// Dim → overlay row index, [`NOT_OVERLAID`] while structured.
    overlay_index: Vec<u32>,
    /// Evicted dims in eviction order (row `j` of `overlay_rows` is the
    /// private base vector of `overlay_dims[j]`).
    overlay_dims: Vec<usize>,
    /// `phases[overlay_dims[j]]` at index `j`: the overlay epilogue's
    /// phases, contiguous so each patch row runs one `half_angle_row`.
    /// Written with `phases` by every regeneration.
    overlay_phases: Vec<f32>,
    /// `phase_sins[overlay_dims[j]]` at index `j`, kept like
    /// `overlay_phases`.
    overlay_phase_sins: Vec<f32>,
    /// `m × n` overlay base vectors, one row per evicted dim.
    overlay_rows: Matrix,
    /// `overlay_rows` transposed into the GEMM's packed panel layout — the
    /// right-hand side of the overlay GEMM, rebuilt once per
    /// [`RegenerativeEncoder::regenerate`] call so the encode hot path
    /// never re-transposes or repacks.
    overlay_panel: PackedRhs,
    /// Butterfly pass order reported by `fht_schedule` (never persisted;
    /// ascending is the only order the transforms run).
    schedule: FhtSchedule,
    regenerated: u64,
}

/// Packs the `m × n` overlay rows as the `n × m` right-hand side of the
/// overlay GEMM: row `j` becomes panel column `j`.
fn pack_overlay(overlay_rows: &Matrix) -> PackedRhs {
    let mut panel = PackedRhs::new(overlay_rows.cols(), overlay_rows.rows());
    for (j, row) in overlay_rows.iter_rows().enumerate() {
        for (slot, &v) in panel.column_slots(j).zip(row) {
            *slot = v;
        }
    }
    panel
}

/// Whether `block_dim` selects the half-block construction for the shape
/// (`Some(true)`), the full-pad one (`Some(false)`), or is not a valid plan
/// parameter (`None`).
fn plan_mode(input_dim: usize, output_dim: usize, block_dim: usize) -> Option<bool> {
    if input_dim == 0 || output_dim == 0 {
        return None;
    }
    let full = input_dim.next_power_of_two();
    if block_dim == full {
        Some(false)
    } else if block_dim == full / 2 && half_block_eligible(input_dim) {
        Some(true)
    } else {
        None
    }
}

/// FHT length of a block with `remaining` live outputs: `block_dim`,
/// except for a ragged last half-block, which takes the smallest power of
/// two covering its outputs, floored so the transform still mixes.
fn block_transform_dim(half_mode: bool, remaining: usize, block_dim: usize) -> usize {
    if !half_mode || remaining >= block_dim {
        block_dim
    } else {
        remaining
            .next_power_of_two()
            .max(MIN_RAGGED_TRANSFORM.min(block_dim))
            .min(block_dim)
    }
}

/// Builds the per-block shapes for `(input_dim, output_dim, block_dim)`,
/// or `None` if `block_dim` is not a valid plan parameter for the shape.
fn plan_blocks(
    input_dim: usize,
    output_dim: usize,
    base_std: f32,
    block_dim: usize,
) -> Option<Vec<BlockSpec>> {
    let half_mode = plan_mode(input_dim, output_dim, block_dim)?;
    let blocks = output_dim.div_ceil(block_dim);
    let mut specs = Vec::with_capacity(blocks);
    let mut sign_offset = 0;
    for b in 0..blocks {
        let out_start = b * block_dim;
        let remaining = output_dim - out_start;
        let (transform_dim, window_start, window_len) = if half_mode {
            let td = block_transform_dim(true, remaining, block_dim);
            // Alternate window families so the two halves of the feature
            // range are both covered: even blocks read the head, odd
            // blocks the tail.
            let start = if b % 2 == 0 { 0 } else { input_dim - td };
            (td, start, td)
        } else {
            (block_dim, 0, input_dim)
        };
        let scale = if half_mode {
            // Implicit row norm base_std·√F (the dense encoder's expected
            // row norm): rows of H·S·H·S·H·S have norm transform_dim^1.5.
            base_std * (input_dim as f32 / transform_dim as f32).sqrt() / transform_dim as f32
        } else {
            // Implicit row norm base_std·√d over the padded lanes.
            base_std / transform_dim as f32
        };
        specs.push(BlockSpec {
            sign_offset,
            transform_dim,
            window_start,
            window_len,
            out_start,
            out_width: remaining.min(transform_dim),
            scale,
        });
        sign_offset += 3 * transform_dim;
    }
    Some(specs)
}

/// Whether `input_dim` qualifies for the half-block construction:
/// `F ≤ 0.75 · next_power_of_two(F)` (so a half-size window still covers
/// more than half the features) with a non-degenerate half size.
fn half_block_eligible(input_dim: usize) -> bool {
    let full = input_dim.next_power_of_two();
    full >= 2 && 4 * input_dim <= 3 * full
}

impl StructuredRbfEncoder {
    /// Creates a structured encoder for `input_dim` features and
    /// `output_dim` hyperdimensions with the default bandwidth.
    pub fn new(input_dim: usize, output_dim: usize, seed: RngSeed) -> Self {
        Self::with_bandwidth(input_dim, output_dim, super::DEFAULT_BANDWIDTH, seed)
    }

    /// Creates a structured encoder with an explicit kernel bandwidth `γ`
    /// (see [`super::RbfEncoder::with_bandwidth`] for the scaling rationale;
    /// the structured construction targets the same projection variance).
    ///
    /// Non-power-of-two inputs with `F ≤ 0.75·next_power_of_two(F)` use
    /// the half-block construction (see the type docs); everything else
    /// zero-pads.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth <= 0`, `input_dim == 0` or `output_dim == 0`.
    pub fn with_bandwidth(
        input_dim: usize,
        output_dim: usize,
        bandwidth: f32,
        seed: RngSeed,
    ) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        assert!(input_dim > 0, "input_dim must be positive");
        assert!(output_dim > 0, "output_dim must be positive");
        let base_std = bandwidth / (input_dim as f32).sqrt();
        let block_dim = Self::default_block_dim(input_dim);
        let blocks = plan_blocks(input_dim, output_dim, base_std, block_dim)
            .expect("default block_dim is always a valid plan parameter");
        let sign_count: usize = blocks.iter().map(|s| 3 * s.transform_dim).sum();
        let mut rng = SeededRng::derive_stream(seed, 0x50FF);
        let signs: Vec<f32> = (0..sign_count)
            .map(|_| if rng.next_bool(0.5) { 1.0 } else { -1.0 })
            .collect();
        let phases = Uniform::phase().sample_vec(&mut rng, output_dim);
        let phase_sins = phases.iter().map(|&c| sin_det(c)).collect();
        Self {
            input_dim,
            output_dim,
            base_std,
            block_dim,
            blocks,
            signs,
            phases,
            phase_sins,
            overlay_index: vec![NOT_OVERLAID; output_dim],
            overlay_dims: Vec::new(),
            overlay_phases: Vec::new(),
            overlay_phase_sins: Vec::new(),
            overlay_rows: Matrix::zeros(0, input_dim),
            overlay_panel: PackedRhs::new(input_dim, 0),
            schedule: FhtSchedule::default(),
            regenerated: 0,
        }
    }

    /// Block-dim plan parameter the constructor picks for `input_dim`:
    /// half of the padded size when the half-block construction applies,
    /// the padded size otherwise.
    pub fn default_block_dim(input_dim: usize) -> usize {
        let full = input_dim.next_power_of_two();
        if half_block_eligible(input_dim) {
            full / 2
        } else {
            full
        }
    }

    /// Total sign entries implied by a `(input_dim, output_dim,
    /// block_dim)` plan, or `None` if `block_dim` is not a valid plan
    /// parameter for the shape — the persistence layer's size check.
    ///
    /// Computed in closed form, without building the plan, because the
    /// loader calls it on untrusted header values: every block but the
    /// last transforms `block_dim` lanes.
    pub fn plan_sign_count(input_dim: usize, output_dim: usize, block_dim: usize) -> Option<usize> {
        let half_mode = plan_mode(input_dim, output_dim, block_dim)?;
        let full_blocks = output_dim.div_ceil(block_dim) - 1;
        let last_remaining = output_dim - full_blocks * block_dim;
        (full_blocks * block_dim)
            .checked_add(block_transform_dim(half_mode, last_remaining, block_dim))?
            .checked_mul(3)
    }

    /// Per-block transform length parameter (the per-block FHT size;
    /// ragged last blocks may use less — see the type docs).
    pub fn block_dim(&self) -> usize {
        self.block_dim
    }

    /// Standard deviation the implicit base vectors emulate (persistence).
    pub fn base_std(&self) -> f32 {
        self.base_std
    }

    /// Borrows the per-dimension phases (persistence).
    pub fn phases(&self) -> &[f32] {
        &self.phases
    }

    /// Evicted dimensions in overlay-row order (persistence).
    pub fn overlay_dims(&self) -> &[usize] {
        &self.overlay_dims
    }

    /// Borrows the `m × n` overlay base-vector rows (persistence).
    pub fn overlay_rows(&self) -> &Matrix {
        &self.overlay_rows
    }

    /// Total sign entries (`3 · transform_dim` summed over blocks),
    /// derivable from the shape but exposed so readers can size their
    /// buffers.
    pub fn sign_count(&self) -> usize {
        self.signs.len()
    }

    /// Packs the sign diagonals into `u64` words, bit `i` set ⇔ sign `i` is
    /// `+1` (persistence: 64 signs per word instead of one f32 each).
    pub fn packed_signs(&self) -> Vec<u64> {
        let mut words = vec![0u64; self.signs.len().div_ceil(64)];
        for (i, &s) in self.signs.iter().enumerate() {
            if s > 0.0 {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        words
    }

    /// Butterfly pass order used by every block transform.
    pub fn fht_schedule(&self) -> FhtSchedule {
        self.schedule
    }

    /// Sets the butterfly pass order ([`FhtSchedule::Ascending`], the only
    /// schedule, is also the construction default).
    pub fn set_fht_schedule(&mut self, schedule: FhtSchedule) {
        self.schedule = schedule;
    }

    /// Reassembles an encoder from persisted parts.
    ///
    /// `packed_signs` is the [`StructuredRbfEncoder::packed_signs`] word
    /// vector; overlay rows carry one private base vector per entry of
    /// `overlay_dims`, in order.  `block_dim` selects the construction
    /// mode: the padded input size (full-pad) or half of it (half-block,
    /// when eligible).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the dimensions are inconsistent:
    /// `block_dim` not a valid plan parameter, too few sign words, a phase
    /// count different from `output_dim`, an overlay shape mismatch, or an
    /// overlay dim out of range / repeated.
    // One parameter per persisted field of the DHD2 structured layout; a
    // builder would only re-spell the format.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        input_dim: usize,
        output_dim: usize,
        base_std: f32,
        block_dim: usize,
        packed_signs: &[u64],
        phases: Vec<f32>,
        overlay_dims: Vec<usize>,
        overlay_rows: Matrix,
    ) -> Result<Self, ShapeError> {
        let blocks = match plan_blocks(input_dim, output_dim, base_std, block_dim) {
            Some(blocks) if phases.len() == output_dim => blocks,
            _ => {
                return Err(ShapeError::new(
                    "structured_from_parts",
                    (input_dim, output_dim),
                    (block_dim, phases.len()),
                ));
            }
        };
        let sign_count: usize = blocks.iter().map(|s| 3 * s.transform_dim).sum();
        if packed_signs.len() != sign_count.div_ceil(64) {
            return Err(ShapeError::new(
                "structured_from_parts",
                (sign_count, 0),
                (packed_signs.len(), 64),
            ));
        }
        let signs: Vec<f32> = (0..sign_count)
            .map(|i| {
                if (packed_signs[i / 64] >> (i % 64)) & 1 == 1 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        if overlay_rows.shape() != (overlay_dims.len(), input_dim) {
            return Err(ShapeError::new(
                "structured_from_parts",
                overlay_rows.shape(),
                (overlay_dims.len(), input_dim),
            ));
        }
        let mut overlay_index = vec![NOT_OVERLAID; output_dim];
        for (j, &d) in overlay_dims.iter().enumerate() {
            if d >= output_dim || overlay_index[d] != NOT_OVERLAID {
                return Err(ShapeError::new(
                    "structured_from_parts",
                    (d, j),
                    (output_dim, overlay_dims.len()),
                ));
            }
            overlay_index[d] = j as u32;
        }
        let phase_sins: Vec<f32> = phases.iter().map(|&c| sin_det(c)).collect();
        let overlay_phases = overlay_dims.iter().map(|&d| phases[d]).collect();
        let overlay_phase_sins = overlay_dims.iter().map(|&d| phase_sins[d]).collect();
        let overlay_panel = pack_overlay(&overlay_rows);
        Ok(Self {
            input_dim,
            output_dim,
            base_std,
            block_dim,
            blocks,
            signs,
            phases,
            phase_sins,
            overlay_index,
            overlay_dims,
            overlay_phases,
            overlay_phase_sins,
            overlay_rows,
            overlay_panel,
            schedule: FhtSchedule::default(),
            regenerated: 0,
        })
    }

    /// Number of dimensions currently evicted into the dense overlay.
    pub fn overlay_len(&self) -> usize {
        self.overlay_dims.len()
    }

    /// Raw block transform: `scratch ← H·(s₃ ⊙ H·(s₂ ⊙ H·(s₁ ⊙ x_win)))`
    /// for block `b`, with the `s₁` multiply fused into the window copy
    /// and `s₂`/`s₃` fused into their transforms' first passes (all
    /// bit-identical to multiplying first).  A full-pad window's zero tail
    /// is transformed like any other lane.  No scale or nonlinearity —
    /// shared verbatim by the batch encode and the partial re-encode so
    /// both are bit-identical.
    fn transform_block(&self, features: &[f32], b: usize, scratch: &mut [f32]) {
        let spec = &self.blocks[b];
        let td = spec.transform_dim;
        let scratch = &mut scratch[..td];
        let signs = &self.signs[spec.sign_offset..spec.sign_offset + 3 * td];
        let (s1, rest) = signs.split_at(td);
        let (s2, s3) = rest.split_at(td);
        let window = &features[spec.window_start..spec.window_start + spec.window_len];
        for ((slot, &f), &s) in scratch.iter_mut().zip(window.iter()).zip(s1.iter()) {
            *slot = f * s;
        }
        scratch[spec.window_len..].fill(0.0);
        fht_inplace(scratch);
        fht_inplace_signed(scratch, s2);
        fht_inplace_signed(scratch, s3);
    }

    /// Structured pass for one sample: every output dimension through the
    /// block transforms, scale and half-angle epilogue.  Overlaid columns
    /// are computed too; the caller's overlay pass overwrites them.
    fn encode_structured_row(&self, features: &[f32], out: &mut [f32], scratch: &mut [f32]) {
        debug_assert_eq!(out.len(), self.output_dim);
        for (b, spec) in self.blocks.iter().enumerate() {
            self.transform_block(features, b, scratch);
            // One vectorized half-angle store over the block's whole
            // consumed width — bit-identical to the scalar
            // `half_angle_cosine` loop (the row kernel's contract).
            let dims = spec.out_start..spec.out_start + spec.out_width;
            let slots = &mut out[dims.clone()];
            slots.copy_from_slice(&scratch[..spec.out_width]);
            half_angle_row(
                slots,
                spec.scale,
                &self.phases[dims.clone()],
                &self.phase_sins[dims],
            );
        }
    }

    /// Overlay epilogue for one sample: runs the half-angle map over the
    /// raw overlay projections `patch` (overlay order, unit scale — an
    /// exact no-op) and scatters the results into the overlaid columns of
    /// the encoded row `out`.
    fn finish_overlay(&self, patch: &mut [f32], out: &mut [f32]) {
        half_angle_row(patch, 1.0, &self.overlay_phases, &self.overlay_phase_sins);
        for (&dim, &value) in self.overlay_dims.iter().zip(patch.iter()) {
            out[dim] = value;
        }
    }

    /// Encodes rows `first_row..` of `batch` into `values` (whole
    /// `output_dim`-wide rows): the structured pass per row, then one
    /// overlay GEMM over the chunk's rows and the overlay epilogue per
    /// row.  The work unit of every batch encode, f32 and quantized.
    fn encode_rows(&self, batch: &Matrix, first_row: usize, values: &mut [f32]) {
        let cols = self.output_dim;
        let mut scratch = vec![0.0f32; self.block_dim];
        for (i, row) in values.chunks_exact_mut(cols).enumerate() {
            self.encode_structured_row(batch.row(first_row + i), row, &mut scratch);
        }
        let m = self.overlay_dims.len();
        if m > 0 {
            let mut patch = vec![0.0f32; values.len() / cols * m];
            batch
                .matmul_rows_into(&self.overlay_panel, first_row, &mut patch)
                .expect("overlay panel inner dim is input_dim");
            for (row, patch_row) in values.chunks_exact_mut(cols).zip(patch.chunks_exact_mut(m)) {
                self.finish_overlay(patch_row, row);
            }
        }
    }

    /// Re-encodes only the selected dimensions of an already-encoded batch
    /// (the partial update Algorithm 2 relies on — see
    /// [`super::RbfEncoder::reencode_dims`]).
    ///
    /// Overlaid dims recompute through one GEMM against a panel of their
    /// private dense base rows; still-structured dims re-run their block's
    /// transform (grouped per block so the FHT cost is paid once per block
    /// per sample).  Both are bit-identical to a full
    /// [`Encoder::encode_batch`].  Out-of-range dims are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `batch.cols() != input_dim()` or `encoded`
    /// has the wrong shape.
    pub fn reencode_dims(
        &self,
        batch: &Matrix,
        encoded: &mut Matrix,
        dims: &[usize],
    ) -> Result<(), ShapeError> {
        if batch.cols() != self.input_dim {
            return Err(ShapeError::new(
                "reencode_dims",
                batch.shape(),
                (self.input_dim, self.output_dim),
            ));
        }
        if encoded.shape() != (batch.rows(), self.output_dim) {
            return Err(ShapeError::new(
                "reencode_dims",
                encoded.shape(),
                (batch.rows(), self.output_dim),
            ));
        }
        let mut structured_by_block: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut overlaid = Vec::new();
        for &dim in dims {
            if dim >= self.output_dim {
                continue;
            }
            if self.overlay_index[dim] == NOT_OVERLAID {
                structured_by_block
                    .entry(dim / self.block_dim)
                    .or_default()
                    .push(dim);
            } else {
                overlaid.push(dim);
            }
        }
        // Overlaid dims: one product against a panel of just their private
        // base rows.
        let mut panel = PackedRhs::new(self.input_dim, overlaid.len());
        for (col, &dim) in overlaid.iter().enumerate() {
            let base = self.overlay_rows.row(self.overlay_index[dim] as usize);
            for (slot, &v) in panel.column_slots(col).zip(base) {
                *slot = v;
            }
        }
        super::reencode_columns(
            batch,
            encoded,
            &panel,
            &overlaid,
            &self.phases,
            &self.phase_sins,
        );
        if !structured_by_block.is_empty() {
            let mut scratch = vec![0.0f32; self.block_dim];
            for (&b, block_dims) in &structured_by_block {
                let spec = &self.blocks[b];
                for r in 0..batch.rows() {
                    self.transform_block(batch.row(r), b, &mut scratch);
                    for &dim in block_dims {
                        let value = half_angle_cosine(
                            scratch[dim - spec.out_start] * spec.scale,
                            self.phases[dim],
                            self.phase_sins[dim],
                        );
                        encoded.set(r, dim, value);
                    }
                }
            }
        }
        Ok(())
    }

    /// Fused bit-sliced batch encode: FHT backbone, overlay patch,
    /// optional centering and quantization, written straight into packed
    /// words — no full-precision output matrix is ever materialized.
    ///
    /// Each chunk of rows runs the very work unit of the f32
    /// [`Encoder::encode_batch`] path (per-row block transforms plus
    /// [`disthd_linalg::half_angle_row`], then the overlay GEMM via
    /// [`Matrix::matmul_rows_into`] and its row epilogue), so the result
    /// equals quantizing the centered f32 encode of the same batch **bit
    /// for bit**, at every kernel tier and thread count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `batch.cols() != input_dim()` or `center`
    /// is not `output_dim()` long.
    pub fn encode_batch_quantized(
        &self,
        batch: &Matrix,
        center: Option<&[f32]>,
        width: BitWidth,
    ) -> Result<QuantizedMatrix, ShapeError> {
        if batch.cols() != self.input_dim {
            return Err(ShapeError::new(
                "structured_encode_quantized",
                batch.shape(),
                (self.input_dim, self.output_dim),
            ));
        }
        if let Some(means) = center {
            if means.len() != self.output_dim {
                return Err(ShapeError::new(
                    "structured_encode_quantized",
                    (1, means.len()),
                    (1, self.output_dim),
                ));
            }
        }
        let cols = self.output_dim;
        Ok(QuantizedMatrix::from_row_producer(
            batch.rows(),
            cols,
            width,
            |first_row, values| {
                self.encode_rows(batch, first_row, values);
                if let Some(means) = center {
                    for row in values.chunks_exact_mut(cols) {
                        for (v, &mu) in row.iter_mut().zip(means) {
                            *v -= mu;
                        }
                    }
                }
            },
        ))
    }
}

impl Encoder for StructuredRbfEncoder {
    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn output_dim(&self) -> usize {
        self.output_dim
    }

    fn encode(&self, features: &[f32]) -> Result<Vec<f32>, ShapeError> {
        if features.len() != self.input_dim {
            return Err(ShapeError::new(
                "structured_encode",
                (1, features.len()),
                (self.input_dim, self.output_dim),
            ));
        }
        let mut out = vec![0.0f32; self.output_dim];
        let mut scratch = vec![0.0f32; self.block_dim];
        self.encode_structured_row(features, &mut out, &mut scratch);
        // The GEMM's per-element chain, so a single encode equals its row
        // of `encode_batch` bit for bit.
        let mut patch: Vec<f32> = self
            .overlay_rows
            .iter_rows()
            .map(|base| dot_gemm_order(features, base))
            .collect();
        self.finish_overlay(&mut patch, &mut out);
        Ok(out)
    }

    fn encode_batch(&self, batch: &Matrix) -> Result<Matrix, ShapeError> {
        if batch.cols() != self.input_dim {
            return Err(ShapeError::new(
                "structured_encode",
                batch.shape(),
                (self.input_dim, self.output_dim),
            ));
        }
        let mut out = Matrix::zeros(batch.rows(), self.output_dim);
        if out.is_empty() {
            return Ok(out);
        }
        // Small batches run serially — the pool's fork/join cost exceeds
        // the butterfly work — and larger ones fan out in fixed
        // shape-derived chunks (bit-identical at any thread count).  Each
        // work unit runs the structured pass and the overlay GEMM over its
        // own rows, with thread-private scratch.
        if batch.rows() * self.output_dim < ENCODE_PAR_MIN_ELEMS {
            self.encode_rows(batch, 0, out.as_mut_slice());
        } else {
            let chunk_rows = encode_chunk_rows(self.output_dim);
            parallel::par_chunks_mut(
                out.as_mut_slice(),
                chunk_rows * self.output_dim,
                |chunk_index, chunk| self.encode_rows(batch, chunk_index * chunk_rows, chunk),
            );
        }
        Ok(out)
    }
}

impl RegenerativeEncoder for StructuredRbfEncoder {
    fn regenerate(&mut self, dims: &[usize], rng: &mut SeededRng) {
        let gaussian = Gaussian::new(0.0, self.base_std);
        let phase = Uniform::phase();
        let mut column = vec![0.0f32; self.input_dim];
        for &dim in dims {
            if dim >= self.output_dim {
                continue;
            }
            // Same draw pattern as the dense encoder: n Gaussians for the
            // base vector, then one phase.
            gaussian.fill(rng, &mut column);
            let new_phase = phase.sample(rng);
            let new_phase_sin = sin_det(new_phase);
            let j = self.overlay_index[dim];
            if j == NOT_OVERLAID {
                self.overlay_index[dim] = self.overlay_dims.len() as u32;
                self.overlay_dims.push(dim);
                self.overlay_phases.push(new_phase);
                self.overlay_phase_sins.push(new_phase_sin);
                self.overlay_rows
                    .push_row(&column)
                    .expect("overlay row width is input_dim by construction");
            } else {
                let j = j as usize;
                self.overlay_phases[j] = new_phase;
                self.overlay_phase_sins[j] = new_phase_sin;
                self.overlay_rows.row_mut(j).copy_from_slice(&column);
            }
            self.phases[dim] = new_phase;
            self.phase_sins[dim] = new_phase_sin;
            self.regenerated += 1;
        }
        if !dims.is_empty() {
            // The GEMM-side panel is rebuilt once per regeneration call,
            // never on the encode hot path.
            self.overlay_panel = pack_overlay(&self.overlay_rows);
        }
    }

    fn regenerated_count(&self) -> u64 {
        self.regenerated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoder() -> StructuredRbfEncoder {
        StructuredRbfEncoder::new(6, 200, RngSeed(42))
    }

    #[test]
    fn output_is_bounded_by_unit_interval() {
        let enc = encoder();
        let hv = enc.encode(&[0.9, -0.5, 0.1, 2.0, -1.5, 0.3]).unwrap();
        assert!(hv.iter().all(|h| (-1.0..=1.0).contains(h)));
    }

    #[test]
    fn encode_is_deterministic_and_seeded() {
        let enc = encoder();
        let a = enc.encode(&[0.1; 6]).unwrap();
        let b = enc.encode(&[0.1; 6]).unwrap();
        assert_eq!(a, b);
        let c = StructuredRbfEncoder::new(6, 200, RngSeed(43))
            .encode(&[0.1; 6])
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn batch_encode_matches_single_encode_exactly_without_overlay() {
        // The structured pass is the very same code for single and batch
        // encoding, so with no overlay the results are bit-identical.
        let enc = encoder();
        let rows = vec![
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            vec![-1.0, 0.0, 1.0, 0.5, -0.5, 0.25],
            vec![0.0; 6],
        ];
        let batch = Matrix::from_rows(&rows).unwrap();
        let encoded = enc.encode_batch(&batch).unwrap();
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(encoded.row(r), enc.encode(row).unwrap().as_slice());
        }
    }

    #[test]
    fn batch_encode_matches_single_encode_with_overlay() {
        // The overlay runs through the GEMM in batch mode and through
        // `dot_gemm_order` in single mode: the same chain, so the same bits.
        let mut enc = encoder();
        let mut rng = SeededRng::new(RngSeed(5));
        enc.regenerate(&[0, 7, 100, 199], &mut rng);
        let rows = vec![
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            vec![-1.0, 0.0, 1.0, 0.5, -0.5, 0.25],
        ];
        let batch = Matrix::from_rows(&rows).unwrap();
        let encoded = enc.encode_batch(&batch).unwrap();
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(
                encoded.row(r),
                enc.encode(row).unwrap().as_slice(),
                "row {r}"
            );
        }
    }

    #[test]
    fn regenerated_overlay_encodes_through_its_packed_panel_bitwise() {
        // The second call only re-draws a dim the overlay already holds, so
        // nothing is evicted and the panel must still be rebuilt.  Batch
        // encode must equal the structured pass plus the per-call-packing
        // GEMM over the unpacked overlay, bit for bit, after every call.
        let mut enc = encoder();
        let mut rng = SeededRng::new(RngSeed(8));
        let batch = Matrix::from_fn(6, 6, |r, c| ((r * 6 + c) as f32 * 0.37).sin());
        for dims in [&[4usize, 17, 150][..], &[17], &[150, 3, 500]] {
            enc.regenerate(dims, &mut rng);
            let patch = batch
                .matmul_map(&enc.overlay_rows().transpose(), |j, p| {
                    let dim = enc.overlay_dims()[j];
                    half_angle_cosine(p, enc.phases[dim], enc.phase_sins[dim])
                })
                .unwrap();
            let encoded = enc.encode_batch(&batch).unwrap();
            for r in 0..batch.rows() {
                let mut expected = enc.encode(batch.row(r)).unwrap();
                for (j, &dim) in enc.overlay_dims().iter().enumerate() {
                    expected[dim] = patch.get(r, j);
                }
                assert_eq!(encoded.row(r), expected.as_slice(), "{dims:?}, row {r}");
            }
        }
        assert_eq!(enc.overlay_dims(), &[4, 17, 150, 3]);
    }

    /// Probes every implicit base-row norm by encoding basis vectors
    /// through the raw block transforms (linearity: column `k` of the
    /// implicit matrix is the transform of `e_k`).
    fn implicit_row_norms(enc: &StructuredRbfEncoder) -> Vec<f64> {
        let n = enc.input_dim();
        let dim = enc.output_dim();
        let mut row_sq = vec![0.0f64; dim];
        let mut scratch = vec![0.0f32; enc.block_dim()];
        for k in 0..n {
            let mut e = vec![0.0f32; n];
            e[k] = 1.0;
            for (b, spec) in enc.blocks.iter().enumerate() {
                enc.transform_block(&e, b, &mut scratch);
                for (lane, &raw) in scratch[..spec.out_width].iter().enumerate() {
                    let dim_index = spec.out_start + lane;
                    let scaled = f64::from(raw) * f64::from(spec.scale);
                    row_sq[dim_index] += scaled * scaled;
                }
            }
        }
        row_sq.iter().map(|&sq| sq.sqrt()).collect()
    }

    #[test]
    fn projection_variance_tracks_the_dense_target() {
        // Full-pad mode (power-of-two input): every implicit row norm must
        // equal base_std·√d exactly (the construction is orthogonal), the
        // dense encoder's expected norm for d-dimensional draws.
        let enc = StructuredRbfEncoder::new(8, 64, RngSeed(3));
        assert_eq!(enc.block_dim(), 8);
        let expected = f64::from(enc.base_std) * 8f64.sqrt();
        for (i, &norm) in implicit_row_norms(&enc).iter().enumerate() {
            assert!(
                (norm - expected).abs() < 1e-4 * expected,
                "implicit row {i}: norm {norm} vs {expected}"
            );
        }
    }

    #[test]
    fn half_block_row_norms_track_the_dense_target() {
        // Half-block mode: every implicit row is supported on a window of
        // h features and scaled so its norm is base_std·√F — the dense
        // encoder's expected row norm over the *actual* feature count.
        let enc = encoder(); // F = 6 → d = 8, half-block h = 4
        assert_eq!(enc.block_dim(), 4);
        let expected = f64::from(enc.base_std) * 6f64.sqrt();
        for (i, &norm) in implicit_row_norms(&enc).iter().enumerate() {
            assert!(
                (norm - expected).abs() < 1e-4 * expected,
                "implicit row {i}: norm {norm} vs {expected}"
            );
        }
    }

    #[test]
    fn half_block_windows_alternate_and_cover_all_features() {
        let enc = encoder(); // F = 6, h = 4
        let mut covered = [false; 6];
        for (b, spec) in enc.blocks.iter().enumerate() {
            assert_eq!(spec.window_len, spec.transform_dim);
            let expect_start = if b % 2 == 0 {
                0
            } else {
                6 - spec.transform_dim
            };
            assert_eq!(spec.window_start, expect_start, "block {b}");
            covered[spec.window_start..spec.window_start + spec.window_len].fill(true);
        }
        assert!(
            covered.iter().all(|&c| c),
            "windows must cover every feature"
        );
    }

    #[test]
    fn nearby_inputs_encode_to_similar_hypervectors() {
        let enc = StructuredRbfEncoder::new(6, 2048, RngSeed(7));
        let a = enc.encode(&[0.5, 0.5, 0.5, 0.5, 0.5, 0.5]).unwrap();
        let b = enc.encode(&[0.51, 0.5, 0.5, 0.5, 0.5, 0.5]).unwrap();
        let c = enc.encode(&[-0.9, 0.9, -0.9, 0.9, -0.9, 0.9]).unwrap();
        let sim_ab = disthd_linalg::cosine_similarity(&a, &b);
        let sim_ac = disthd_linalg::cosine_similarity(&a, &c);
        assert!(sim_ab > sim_ac, "locality: {sim_ab} vs {sim_ac}");
        assert!(sim_ab > 0.9);
    }

    #[test]
    fn regeneration_changes_only_selected_dims_and_evicts_them() {
        let mut enc = encoder();
        let input = [0.3, -0.2, 0.7, 0.1, 0.9, -0.4];
        let before = enc.encode(&input).unwrap();
        let mut rng = SeededRng::new(RngSeed(99));
        enc.regenerate(&[3, 5, 11], &mut rng);
        assert_eq!(enc.overlay_len(), 3);
        assert_eq!(enc.overlay_dims(), &[3, 5, 11]);
        let after = enc.encode(&input).unwrap();
        for i in 0..enc.output_dim() {
            if [3, 5, 11].contains(&i) {
                assert_ne!(before[i], after[i], "dim {i} should change");
            } else {
                assert_eq!(before[i], after[i], "dim {i} should be stable");
            }
        }
        assert_eq!(enc.regenerated_count(), 3);
        // Regenerating an already-evicted dim resamples in place, without
        // growing the overlay.
        enc.regenerate(&[5], &mut rng);
        assert_eq!(enc.overlay_len(), 3);
        let again = enc.encode(&input).unwrap();
        assert_ne!(again[5], after[5]);
        assert_eq!(again[3], after[3]);
    }

    #[test]
    fn regeneration_ignores_out_of_range_dims() {
        let mut enc = encoder();
        let mut rng = SeededRng::new(RngSeed(1));
        enc.regenerate(&[9999], &mut rng);
        assert_eq!(enc.regenerated_count(), 0);
        assert_eq!(enc.overlay_len(), 0);
    }

    #[test]
    fn partial_reencode_matches_full_reencode() {
        // 150 rows span three re-encode chunks.  The second regeneration
        // resamples dims already in the overlay and evicts a new one, and
        // the re-encode mixes overlaid, structured and out-of-range dims.
        let mut enc = encoder();
        let batch = Matrix::from_fn(150, 6, |r, c| ((r * 6 + c) as f32 * 0.13).sin());
        let mut encoded = enc.encode_batch(&batch).unwrap();
        let mut rng = SeededRng::new(RngSeed(13));
        enc.regenerate(&[2, 7, 30, 199], &mut rng);
        enc.regenerate(&[7, 30, 64], &mut rng);
        let dims = [2usize, 7, 30, 64, 199, 5, 120, 999];
        for threads in [1usize, 4] {
            let mut partial = encoded.clone();
            disthd_linalg::parallel::with_thread_count(threads, || {
                enc.reencode_dims(&batch, &mut partial, &dims).unwrap()
            });
            assert_eq!(
                partial.as_slice(),
                enc.encode_batch(&batch).unwrap().as_slice(),
                "{threads} threads"
            );
        }
        enc.reencode_dims(&batch, &mut encoded, &[]).unwrap();
        assert_ne!(
            encoded.as_slice(),
            enc.encode_batch(&batch).unwrap().as_slice()
        );
    }

    #[test]
    fn reencode_of_structured_dims_is_bit_identical_to_encode() {
        // Re-encoding a dim that was never evicted re-runs the very same
        // block transform, so the value must match encode_batch bit for bit.
        let enc = encoder();
        let batch = Matrix::from_rows(&[
            vec![0.2, -0.4, 0.6, 0.1, 0.0, 0.9],
            vec![0.8, 0.3, -0.2, 0.5, 0.4, -0.6],
        ])
        .unwrap();
        let reference = enc.encode_batch(&batch).unwrap();
        let mut encoded = reference.clone();
        // Scribble over a few columns, then ask for them back.
        let dims = [0usize, 9, 150, 199];
        for r in 0..encoded.rows() {
            for &d in &dims {
                encoded.set(r, d, f32::NAN);
            }
        }
        enc.reencode_dims(&batch, &mut encoded, &dims).unwrap();
        assert_eq!(encoded.as_slice(), reference.as_slice());
    }

    #[test]
    fn reencode_dims_is_bit_identical() {
        // With dims evicted, reencode of still-structured dims must equal
        // the full encode bit for bit (the same block transform and
        // epilogue).
        let mut enc = StructuredRbfEncoder::new(6, 200, RngSeed(77));
        let mut rng = SeededRng::new(RngSeed(78));
        enc.regenerate(&[1, 2, 3, 40, 41, 120, 199], &mut rng);
        let batch = Matrix::from_rows(&[
            vec![0.3, -0.1, 0.8, 0.2, -0.7, 0.5],
            vec![0.0, 0.4, -0.4, 0.9, 0.1, -0.2],
        ])
        .unwrap();
        let reference = enc.encode_batch(&batch).unwrap();
        let mut encoded = reference.clone();
        let live_dims = [0usize, 10, 45, 130, 198];
        for r in 0..encoded.rows() {
            for &d in &live_dims {
                encoded.set(r, d, f32::NAN);
            }
        }
        enc.reencode_dims(&batch, &mut encoded, &live_dims).unwrap();
        assert_eq!(encoded.as_slice(), reference.as_slice());
    }

    #[test]
    fn encode_batch_is_bit_identical_across_thread_counts() {
        let mut enc = StructuredRbfEncoder::new(6, 1030, RngSeed(21));
        let mut rng = SeededRng::new(RngSeed(22));
        enc.regenerate(&[1, 40, 700], &mut rng);
        let batch = Matrix::from_fn(19, 6, |r, c| ((r + 2 * c) as f32).sin() * 0.4 + 0.5);
        let serial =
            disthd_linalg::parallel::with_thread_count(1, || enc.encode_batch(&batch).unwrap());
        for threads in [2usize, 8] {
            let parallel = disthd_linalg::parallel::with_thread_count(threads, || {
                enc.encode_batch(&batch).unwrap()
            });
            assert_eq!(serial.as_slice(), parallel.as_slice(), "{threads} threads");
        }
    }

    #[test]
    fn construction_modes_follow_the_input_shape() {
        // 6 features: d = 8 and 6 ≤ 0.75·8, so half-block mode with h = 4
        // and ⌈200 / 4⌉ = 50 blocks.
        let enc = encoder();
        assert_eq!(enc.block_dim(), 4);
        assert_eq!(enc.blocks.len(), 50);
        // Power-of-two inputs always use full-pad mode.
        let pow2 = StructuredRbfEncoder::new(16, 64, RngSeed(2));
        assert_eq!(pow2.block_dim(), 16);
        assert_eq!(pow2.blocks.len(), 4);
        // 7 features: 4·7 > 3·8 — the pad is under 25%, full-pad mode.
        let full = StructuredRbfEncoder::new(7, 64, RngSeed(2));
        assert_eq!(full.block_dim(), 8);
        assert_eq!(full.blocks.len(), 8);
        assert_eq!(full.blocks[0].window_len, 7);
    }

    #[test]
    fn ragged_last_block_shrinks_its_transform_and_signs() {
        // F = 96: d = 128, 96 ≤ 0.75·128 → half-block h = 64.  D = 200
        // gives 3 full blocks (192 dims) plus a ragged 8-dim tail, whose
        // transform shrinks to 8 points — so the sign budget is sized per
        // live block: 3·(3·64 + 8) = 600 instead of 3·4·64 = 768.
        let enc = StructuredRbfEncoder::new(96, 200, RngSeed(11));
        assert_eq!(enc.block_dim(), 64);
        assert_eq!(enc.blocks.len(), 4);
        let last = enc.blocks.last().unwrap();
        assert_eq!(last.transform_dim, 8);
        assert_eq!(last.out_width, 8);
        // Odd block parity: the ragged window reads the feature tail.
        assert_eq!(last.window_start, 96 - 8);
        assert_eq!(enc.sign_count(), 600);
        assert_eq!(
            StructuredRbfEncoder::plan_sign_count(96, 200, 64),
            Some(600)
        );
    }

    #[test]
    fn ragged_last_block_encode_parity() {
        // Single encode, batch encode and quantized encode must agree on
        // the ragged shape, and regeneration inside the ragged block must
        // behave like any other block.
        let mut enc = StructuredRbfEncoder::new(96, 200, RngSeed(12));
        let batch = Matrix::from_fn(7, 96, |r, c| ((r * 31 + c) as f32).sin() * 0.5);
        let encoded = enc.encode_batch(&batch).unwrap();
        for r in 0..batch.rows() {
            assert_eq!(
                encoded.row(r),
                enc.encode(batch.row(r)).unwrap().as_slice(),
                "row {r}"
            );
        }
        let quantized = enc
            .encode_batch_quantized(&batch, None, BitWidth::B8)
            .unwrap();
        let roundtrip = QuantizedMatrix::quantize(&encoded, BitWidth::B8);
        assert_eq!(quantized.as_words(), roundtrip.as_words());
        // Evict a ragged-tail dim (in [192, 200)) and a regular dim.
        let mut rng = SeededRng::new(RngSeed(13));
        enc.regenerate(&[5, 195], &mut rng);
        let mut after = enc.encode_batch(&batch).unwrap();
        for r in 0..batch.rows() {
            // Overlaid dims run through the GEMM in batch mode and
            // `dot_gemm_order` in single mode: the same chain, so the same
            // bits.
            let single = enc.encode(batch.row(r)).unwrap();
            assert_eq!(
                after.row(r),
                single.as_slice(),
                "row {r} after regeneration"
            );
        }
        enc.reencode_dims(&batch, &mut after, &[193, 199]).unwrap();
        let full = enc.encode_batch(&batch).unwrap();
        assert_eq!(after.as_slice(), full.as_slice());
    }

    #[test]
    fn encode_rejects_wrong_arity() {
        assert!(encoder().encode(&[0.0; 5]).is_err());
        assert!(encoder().encode_batch(&Matrix::zeros(2, 5)).is_err());
    }

    #[test]
    fn partial_reencode_validates_shapes() {
        let enc = encoder();
        let batch = Matrix::zeros(2, 6);
        let mut wrong = Matrix::zeros(2, 10);
        assert!(enc.reencode_dims(&batch, &mut wrong, &[0]).is_err());
        let bad_batch = Matrix::zeros(2, 3);
        let mut encoded = Matrix::zeros(2, 200);
        assert!(enc.reencode_dims(&bad_batch, &mut encoded, &[0]).is_err());
    }

    #[test]
    fn from_parts_round_trips() {
        let mut enc = StructuredRbfEncoder::new(6, 100, RngSeed(17));
        let mut rng = SeededRng::new(RngSeed(18));
        enc.regenerate(&[4, 50], &mut rng);
        let rebuilt = StructuredRbfEncoder::from_parts(
            6,
            100,
            enc.base_std(),
            enc.block_dim(),
            &enc.packed_signs(),
            enc.phases().to_vec(),
            enc.overlay_dims().to_vec(),
            enc.overlay_rows().clone(),
        )
        .unwrap();
        let x = [0.3, 0.1, -0.2, 0.8, 0.5, -0.9];
        assert_eq!(enc.encode(&x).unwrap(), rebuilt.encode(&x).unwrap());
    }

    #[test]
    fn from_parts_accepts_both_construction_modes() {
        // For F = 6 both block_dim = 4 (half-block, the constructor's
        // choice) and block_dim = 8 (full-pad, the pre-half-block layout)
        // are valid plan parameters — old artifacts keep loading.
        assert_eq!(StructuredRbfEncoder::plan_sign_count(6, 100, 4), Some(300));
        assert_eq!(
            StructuredRbfEncoder::plan_sign_count(6, 100, 8),
            Some(3 * 13 * 8)
        );
        let full_pad = StructuredRbfEncoder::from_parts(
            6,
            100,
            0.5,
            8,
            &vec![u64::MAX; (3 * 13 * 8usize).div_ceil(64)],
            vec![0.25; 100],
            vec![],
            Matrix::zeros(0, 6),
        )
        .unwrap();
        assert_eq!(full_pad.block_dim(), 8);
        assert_eq!(full_pad.blocks.len(), 13);
        assert_eq!(full_pad.blocks[0].window_len, 6);
        // An ineligible half request (F = 7 pads to 8 with > 25% live) is
        // rejected.
        assert_eq!(StructuredRbfEncoder::plan_sign_count(7, 100, 4), None);
    }

    #[test]
    fn closed_form_sign_count_matches_the_built_plan() {
        for input_dim in [1usize, 3, 5, 6, 7, 12, 20, 100, 617] {
            let full = input_dim.next_power_of_two();
            for output_dim in [1usize, 2, 15, 16, 17, 100, 513, 4096] {
                for block_dim in [full / 2, full, 2 * full] {
                    let planned = plan_blocks(input_dim, output_dim, 1.0, block_dim)
                        .map(|specs| specs.iter().map(|s| 3 * s.transform_dim).sum());
                    assert_eq!(
                        StructuredRbfEncoder::plan_sign_count(input_dim, output_dim, block_dim),
                        planned,
                        "F={input_dim} D={output_dim} block={block_dim}"
                    );
                }
            }
        }
        // A forged header's plan size is answered without building it.
        assert_eq!(
            StructuredRbfEncoder::plan_sign_count(7, u32::MAX as usize, 8),
            Some(3 * (u32::MAX as usize).div_ceil(8) * 8)
        );
    }

    #[test]
    fn from_parts_validates_consistency() {
        let enc = StructuredRbfEncoder::new(6, 100, RngSeed(17));
        // Wrong block_dim.
        assert!(StructuredRbfEncoder::from_parts(
            6,
            100,
            enc.base_std(),
            16,
            &enc.packed_signs(),
            enc.phases().to_vec(),
            vec![],
            Matrix::zeros(0, 6),
        )
        .is_err());
        // Short sign words.
        assert!(StructuredRbfEncoder::from_parts(
            6,
            100,
            enc.base_std(),
            4,
            &enc.packed_signs()[..enc.packed_signs().len() - 1],
            enc.phases().to_vec(),
            vec![],
            Matrix::zeros(0, 6),
        )
        .is_err());
        // Overlay dim out of range.
        assert!(StructuredRbfEncoder::from_parts(
            6,
            100,
            enc.base_std(),
            4,
            &enc.packed_signs(),
            enc.phases().to_vec(),
            vec![500],
            Matrix::zeros(1, 6),
        )
        .is_err());
        // Duplicate overlay dim.
        assert!(StructuredRbfEncoder::from_parts(
            6,
            100,
            enc.base_std(),
            4,
            &enc.packed_signs(),
            enc.phases().to_vec(),
            vec![3, 3],
            Matrix::zeros(2, 6),
        )
        .is_err());
    }
}
