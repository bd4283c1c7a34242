use super::{half_angle_cosine, Encoder, RegenerativeEncoder};
use crate::quantize::{BitWidth, QuantizedMatrix};
use disthd_linalg::{
    fht_inplace, fht_inplace_signed, half_angle_row, parallel, sin_det, FhtSchedule, Matrix,
    RngSeed, SeededRng, ShapeError, Uniform,
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

/// Shape of one transform block: which input features it reads, which
/// outputs it produces, where its sign diagonals live and how its raw
/// outputs are scaled.  Backbone blocks are derived deterministically from
/// `(input_dim, output_dim, block_dim)`; reserve blocks from their index.
/// Never persisted.
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
    /// First output this block produces: an output dimension on the
    /// backbone, a reserve lane in a reserve block.
    out_start: usize,
    /// Outputs produced (`min(output_dim − out_start, transform_dim)` on
    /// the backbone, `block_dim` in a reserve block).
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
/// backbone block then copies its whole consumed output width into the
/// row and runs one vectorized [`disthd_linalg::half_angle_row`] over that
/// contiguous slice, regenerated dims included: their values are
/// overwritten by the reserve pass below.  Computing them costs a few
/// lanes of a vector loop; skipping them would cut the slice into short
/// scalar runs.
///
/// ## Regeneration: reserve lanes
///
/// DistHD's Algorithm 2 regenerates *individual* dimensions, but a
/// backbone dimension has no private base vector to redraw — every output
/// of a block shares the same sign diagonals.  A regenerated dimension
/// therefore moves to one **lane** of a *reserve block*: an extra
/// `block_dim`-lane transform with its own freshly drawn signs, the next
/// window of the half-block head/tail rotation and the backbone's scale,
/// so each lane is a fresh structured projection with the dense target
/// norm.  Encoding runs every reserve block through the same transform and
/// one [`disthd_linalg::half_angle_row`] with the phases in lane order,
/// then scatters the owned lanes to their dims.
///
/// Within one [`RegenerativeEncoder::regenerate`] call each dim takes a
/// lane in call order: the lanes of the newest reserve block above its
/// highest owned lane first, then the lowest lane that was free before the
/// call (a lane whose dim was regenerated again), and only when neither
/// exists a new block, whose `3 · block_dim` signs are drawn from the
/// caller's RNG before the dim's phase.  A lane freed during a call is
/// reused only by a later call, so a regenerated dim always gets a new
/// projection.  The reserve never exceeds
/// [`StructuredRbfEncoder::reserve_lane_bound`] lanes, and the lane map
/// alone determines where the next call puts its dims, so an encoder
/// rebuilt by [`StructuredRbfEncoder::from_parts`] regenerates exactly
/// like the original.
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
/// assert_eq!(encoder.reserve_lanes()[..3], [0, 1, 2]);
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
    /// Stacked backbone transform blocks (shape derived from
    /// `(input_dim, output_dim, block_dim)`).
    blocks: Vec<BlockSpec>,
    /// Reserve blocks in draw order, `block_dim` lanes each.
    reserve: Vec<BlockSpec>,
    /// Rademacher sign diagonals as `±1.0` (ready to multiply):
    /// `3 · transform_dim` entries per block, laid out
    /// `[block][stage][lane]` at each block's `sign_offset`, backbone
    /// blocks first, then reserve blocks.
    signs: Vec<f32>,
    /// Per-dimension phases `c_i ~ U[0, 2π)`.
    phases: Vec<f32>,
    /// Precomputed `sin(c_i)` (see `RbfEncoder::phase_sins`).
    phase_sins: Vec<f32>,
    /// Dim → reserve lane, [`Self::FREE_LANE`] while on the backbone.
    dim_lanes: Vec<u32>,
    /// Reserve lane → owning dim, [`Self::FREE_LANE`] for a free lane:
    /// `reserve.len() · block_dim` entries.
    lane_dims: Vec<u32>,
    /// `phases` in lane order (unread on free lanes), so each reserve
    /// block runs one `half_angle_row`.  Written with `phases` by every
    /// regeneration.
    lane_phases: Vec<f32>,
    /// `phase_sins` in lane order, kept like `lane_phases`.
    lane_phase_sins: Vec<f32>,
    /// Butterfly pass order reported by `fht_schedule` (never persisted;
    /// ascending is the only order the transforms run).
    schedule: FhtSchedule,
    regenerated: u64,
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

/// Window start, window length and scale of block number `index` (counted
/// over the backbone, then the reserve) with `transform_dim` lanes.
fn block_window(
    input_dim: usize,
    base_std: f32,
    half_mode: bool,
    index: usize,
    transform_dim: usize,
) -> (usize, usize, f32) {
    if half_mode {
        // Alternate window families so the two halves of the feature range
        // are both covered: even blocks read the head, odd blocks the
        // tail.  Implicit row norm base_std·√F (the dense encoder's
        // expected row norm): rows of H·S·H·S·H·S have norm
        // transform_dim^1.5.
        let start = if index.is_multiple_of(2) {
            0
        } else {
            input_dim - transform_dim
        };
        let scale =
            base_std * (input_dim as f32 / transform_dim as f32).sqrt() / transform_dim as f32;
        (start, transform_dim, scale)
    } else {
        // Implicit row norm base_std·√d over the padded lanes.
        (0, input_dim, base_std / transform_dim as f32)
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
        let transform_dim = block_transform_dim(half_mode, remaining, block_dim);
        let (window_start, window_len, scale) =
            block_window(input_dim, base_std, half_mode, b, transform_dim);
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

/// One Rademacher sign as `±1.0`, the draw every sign diagonal uses.
fn draw_sign(rng: &mut SeededRng) -> f32 {
    if rng.next_bool(0.5) {
        1.0
    } else {
        -1.0
    }
}

impl StructuredRbfEncoder {
    /// Lane-map entry of a free reserve lane (and dim-map entry of a dim
    /// still on the backbone).
    pub const FREE_LANE: u32 = u32::MAX;

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
        let signs: Vec<f32> = (0..sign_count).map(|_| draw_sign(&mut rng)).collect();
        let phases = Uniform::phase().sample_vec(&mut rng, output_dim);
        let phase_sins = phases.iter().map(|&c| sin_det(c)).collect();
        Self {
            input_dim,
            output_dim,
            base_std,
            block_dim,
            blocks,
            reserve: Vec::new(),
            signs,
            phases,
            phase_sins,
            dim_lanes: vec![Self::FREE_LANE; output_dim],
            lane_dims: Vec::new(),
            lane_phases: Vec::new(),
            lane_phase_sins: Vec::new(),
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

    /// Backbone sign entries implied by a `(input_dim, output_dim,
    /// block_dim)` plan, or `None` if `block_dim` is not a valid plan
    /// parameter for the shape — the persistence layer's size check.
    /// Each reserve block adds `3 · block_dim` more.
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

    /// Most reserve lanes an encoder of `output_dim` dims with blocks of
    /// `block_dim` lanes can hold: `2 · output_dim + block_dim`.  A new
    /// block is drawn only when every lane is owned or was freed during
    /// the same call, so at that moment at most `output_dim` lanes are
    /// owned and at most `output_dim` more were just freed.
    pub fn reserve_lane_bound(output_dim: usize, block_dim: usize) -> usize {
        output_dim.saturating_mul(2).saturating_add(block_dim)
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

    /// Borrows the reserve lane map (persistence): one entry per lane of
    /// every reserve block, the dim that owns the lane or
    /// [`Self::FREE_LANE`].
    pub fn reserve_lanes(&self) -> &[u32] {
        &self.lane_dims
    }

    /// Total sign entries (`3 · transform_dim` summed over the backbone
    /// and reserve blocks), derivable from the shape and the reserve size
    /// but exposed so readers can size their buffers.
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
    /// vector and `reserve_lanes` the
    /// [`StructuredRbfEncoder::reserve_lanes`] map, whose length sets the
    /// reserve block count.  `block_dim` selects the construction mode:
    /// the padded input size (full-pad) or half of it (half-block, when
    /// eligible).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the dimensions are inconsistent:
    /// `block_dim` not a valid plan parameter, a lane map that is not a
    /// whole number of blocks or exceeds
    /// [`StructuredRbfEncoder::reserve_lane_bound`], a sign word count
    /// that does not match the backbone plus the reserve, a phase count
    /// different from `output_dim`, or a lane naming a dim out of range or
    /// a dim another lane names.
    pub fn from_parts(
        input_dim: usize,
        output_dim: usize,
        base_std: f32,
        block_dim: usize,
        packed_signs: &[u64],
        phases: Vec<f32>,
        reserve_lanes: Vec<u32>,
    ) -> Result<Self, ShapeError> {
        let error = |got, expected| Err(ShapeError::new("structured_from_parts", got, expected));
        let blocks = match plan_blocks(input_dim, output_dim, base_std, block_dim) {
            Some(blocks) if phases.len() == output_dim => blocks,
            _ => return error((input_dim, output_dim), (block_dim, phases.len())),
        };
        let lane_count = reserve_lanes.len();
        if !lane_count.is_multiple_of(block_dim)
            || lane_count > Self::reserve_lane_bound(output_dim, block_dim)
        {
            return error((lane_count, block_dim), (output_dim, block_dim));
        }
        let backbone_signs: usize = blocks.iter().map(|s| 3 * s.transform_dim).sum();
        let sign_count = backbone_signs + 3 * lane_count;
        if packed_signs.len() != sign_count.div_ceil(64) {
            return error((sign_count, 0), (packed_signs.len(), 64));
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
        let mut dim_lanes = vec![Self::FREE_LANE; output_dim];
        for (lane, &dim) in reserve_lanes.iter().enumerate() {
            if dim == Self::FREE_LANE {
                continue;
            }
            let d = dim as usize;
            if d >= output_dim || dim_lanes[d] != Self::FREE_LANE {
                return error((d, lane), (output_dim, lane_count));
            }
            dim_lanes[d] = lane as u32;
        }
        let phase_sins: Vec<f32> = phases.iter().map(|&c| sin_det(c)).collect();
        let lane_phase = |values: &[f32]| -> Vec<f32> {
            reserve_lanes
                .iter()
                .map(|&dim| values.get(dim as usize).copied().unwrap_or(0.0))
                .collect()
        };
        let lane_phases = lane_phase(&phases);
        let lane_phase_sins = lane_phase(&phase_sins);
        let mut encoder = Self {
            input_dim,
            output_dim,
            base_std,
            block_dim,
            blocks,
            reserve: Vec::new(),
            signs,
            phases,
            phase_sins,
            dim_lanes,
            lane_dims: reserve_lanes,
            lane_phases,
            lane_phase_sins,
            schedule: FhtSchedule::default(),
            regenerated: 0,
        };
        encoder.reserve = (0..lane_count / block_dim)
            .map(|r| encoder.reserve_spec(r))
            .collect();
        Ok(encoder)
    }

    /// Spec of reserve block `r`: a full `block_dim`-lane transform at
    /// block index `backbone + r` of the window rotation, its signs after
    /// the backbone's and those of the reserve blocks before it.
    fn reserve_spec(&self, r: usize) -> BlockSpec {
        let backbone_signs: usize = self.blocks.iter().map(|s| 3 * s.transform_dim).sum();
        let half_mode = self.block_dim != self.input_dim.next_power_of_two();
        let (window_start, window_len, scale) = block_window(
            self.input_dim,
            self.base_std,
            half_mode,
            self.blocks.len() + r,
            self.block_dim,
        );
        BlockSpec {
            sign_offset: backbone_signs + 3 * self.block_dim * r,
            transform_dim: self.block_dim,
            window_start,
            window_len,
            out_start: r * self.block_dim,
            out_width: self.block_dim,
            scale,
        }
    }

    /// Draws a new reserve block's `3 · block_dim` signs from `rng` and
    /// appends its lanes, all free.
    fn push_reserve_block(&mut self, rng: &mut SeededRng) {
        let spec = self.reserve_spec(self.reserve.len());
        debug_assert_eq!(spec.sign_offset, self.signs.len());
        self.signs
            .extend((0..3 * self.block_dim).map(|_| draw_sign(rng)));
        self.reserve.push(spec);
        let lanes = self.lane_dims.len() + self.block_dim;
        self.lane_dims.resize(lanes, Self::FREE_LANE);
        self.lane_phases.resize(lanes, 0.0);
        self.lane_phase_sins.resize(lanes, 0.0);
    }

    /// Raw block transform: `scratch ← H·(s₃ ⊙ H·(s₂ ⊙ H·(s₁ ⊙ x_win)))`
    /// for one block, with the `s₁` multiply fused into the window copy
    /// and `s₂`/`s₃` fused into their transforms' first passes (all
    /// bit-identical to multiplying first).  A full-pad window's zero tail
    /// is transformed like any other lane.  No scale or nonlinearity —
    /// shared verbatim by the batch encode and the partial re-encode so
    /// both are bit-identical.
    fn transform_block(&self, features: &[f32], spec: &BlockSpec, scratch: &mut [f32]) {
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

    /// Encodes one sample into `out`: every backbone block through its
    /// transform, scale and half-angle epilogue, then every reserve block
    /// the same way with its phases in lane order, scattered to the dims
    /// that own its lanes (overwriting their backbone values).
    fn encode_row(&self, features: &[f32], out: &mut [f32], scratch: &mut [f32]) {
        debug_assert_eq!(out.len(), self.output_dim);
        for spec in &self.blocks {
            self.transform_block(features, spec, scratch);
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
        for spec in &self.reserve {
            self.transform_block(features, spec, scratch);
            let lanes = spec.out_start..spec.out_start + spec.out_width;
            let values = &mut scratch[..spec.out_width];
            half_angle_row(
                values,
                spec.scale,
                &self.lane_phases[lanes.clone()],
                &self.lane_phase_sins[lanes.clone()],
            );
            for (&dim, &value) in self.lane_dims[lanes].iter().zip(values.iter()) {
                if dim != Self::FREE_LANE {
                    out[dim as usize] = value;
                }
            }
        }
    }

    /// Runs `unit(first_row, rows)` over `values`, the `rows × output_dim`
    /// output of a batch: serially for small batches — the pool's
    /// fork/join cost exceeds the butterfly work — and otherwise in fixed
    /// shape-derived chunks fanned over the pool (bit-identical at any
    /// thread count).
    fn for_row_chunks<F>(&self, rows: usize, values: &mut [f32], unit: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        if rows * self.output_dim < ENCODE_PAR_MIN_ELEMS {
            unit(0, values);
        } else {
            let chunk_rows = encode_chunk_rows(self.output_dim);
            parallel::par_chunks_mut(values, chunk_rows * self.output_dim, |chunk, rows| {
                unit(chunk * chunk_rows, rows)
            });
        }
    }

    /// Encodes rows `first_row..` of `batch` into `values` (whole
    /// `output_dim`-wide rows).  The work unit of every batch encode, f32
    /// and quantized.
    fn encode_rows(&self, batch: &Matrix, first_row: usize, values: &mut [f32]) {
        let mut scratch = vec![0.0f32; self.block_dim];
        for (i, row) in values.chunks_exact_mut(self.output_dim).enumerate() {
            self.encode_row(batch.row(first_row + i), row, &mut scratch);
        }
    }

    /// Re-encodes only the selected dimensions of an already-encoded batch
    /// (the partial update Algorithm 2 relies on — see
    /// [`super::RbfEncoder::reencode_dims`]).
    ///
    /// The dims are grouped by the block that computes them — a backbone
    /// block, or the reserve block holding their lane — so each block's
    /// transform runs once per sample, and the rows fan out over the pool
    /// in the batch encode's chunks.  Every value is the same transform
    /// and epilogue as a full [`Encoder::encode_batch`], so the result is
    /// bit-identical to it at any thread count.  Out-of-range dims are
    /// ignored.
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
        // Block index (backbone blocks, then reserve blocks) → (offset of
        // the dim's output in the block, dim).
        let mut by_block: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for &dim in dims.iter().filter(|&&dim| dim < self.output_dim) {
            let lane = self.dim_lanes[dim];
            let (block, offset) = if lane == Self::FREE_LANE {
                (dim / self.block_dim, dim % self.block_dim)
            } else {
                let lane = lane as usize;
                (
                    self.blocks.len() + lane / self.block_dim,
                    lane % self.block_dim,
                )
            };
            by_block.entry(block).or_default().push((offset, dim));
        }
        if by_block.is_empty() {
            return Ok(());
        }
        let width = self.output_dim;
        self.for_row_chunks(batch.rows(), encoded.as_mut_slice(), |first_row, rows| {
            let mut scratch = vec![0.0f32; self.block_dim];
            for (i, row) in rows.chunks_exact_mut(width).enumerate() {
                for (&block, members) in &by_block {
                    let spec = self
                        .blocks
                        .get(block)
                        .unwrap_or_else(|| &self.reserve[block - self.blocks.len()]);
                    self.transform_block(batch.row(first_row + i), spec, &mut scratch);
                    for &(offset, dim) in members {
                        row[dim] = half_angle_cosine(
                            scratch[offset] * spec.scale,
                            self.phases[dim],
                            self.phase_sins[dim],
                        );
                    }
                }
            }
        });
        Ok(())
    }

    /// Fused bit-sliced batch encode: FHT backbone, reserve lanes,
    /// optional centering and quantization, written straight into packed
    /// words — no full-precision output matrix is ever materialized.
    ///
    /// Each chunk of rows runs the very work unit of the f32
    /// [`Encoder::encode_batch`] path (per-row block transforms plus
    /// [`disthd_linalg::half_angle_row`]), so the result equals quantizing
    /// the centered f32 encode of the same batch **bit for bit**, at every
    /// kernel tier and thread count.
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
        self.encode_row(features, &mut out, &mut scratch);
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
        self.for_row_chunks(batch.rows(), out.as_mut_slice(), |first_row, rows| {
            self.encode_rows(batch, first_row, rows)
        });
        Ok(out)
    }
}

impl RegenerativeEncoder for StructuredRbfEncoder {
    /// Moves each dim to a fresh reserve lane with a fresh phase; see the
    /// type docs for which lane.  Repeated dims in one call are
    /// regenerated once.
    fn regenerate(&mut self, dims: &[usize], rng: &mut SeededRng) {
        let phase = Uniform::phase();
        // Lanes of the newest block above its highest owned lane are
        // handed out in order; every other lane free before this call is
        // recycled lowest first.  Lanes freed below are in neither list,
        // so no dim gets its own lane back.
        let newest = self.lane_dims.len().saturating_sub(self.block_dim);
        let mut fresh = self.lane_dims[newest..]
            .iter()
            .rposition(|&dim| dim != Self::FREE_LANE)
            .map_or(newest, |i| newest + i + 1);
        let mut dead = (0..fresh)
            .filter(|&lane| self.lane_dims[lane] == Self::FREE_LANE)
            .collect::<Vec<_>>()
            .into_iter();
        let mut seen = vec![false; self.output_dim];
        for &dim in dims {
            if dim >= self.output_dim || std::mem::replace(&mut seen[dim], true) {
                continue;
            }
            let lane = if fresh < self.lane_dims.len() {
                fresh += 1;
                fresh - 1
            } else if let Some(lane) = dead.next() {
                lane
            } else {
                self.push_reserve_block(rng);
                fresh += 1;
                fresh - 1
            };
            let new_phase = phase.sample(rng);
            let new_phase_sin = sin_det(new_phase);
            let old = self.dim_lanes[dim];
            if old != Self::FREE_LANE {
                self.lane_dims[old as usize] = Self::FREE_LANE;
            }
            self.dim_lanes[dim] = lane as u32;
            self.lane_dims[lane] = dim as u32;
            self.lane_phases[lane] = new_phase;
            self.lane_phase_sins[lane] = new_phase_sin;
            self.phases[dim] = new_phase;
            self.phase_sins[dim] = new_phase_sin;
            self.regenerated += 1;
        }
    }

    fn regenerated_count(&self) -> u64 {
        self.regenerated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FREE: u32 = StructuredRbfEncoder::FREE_LANE;

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
    fn batch_encode_matches_single_encode_on_a_fresh_encoder() {
        // The structured pass is the very same code for single and batch
        // encoding, so the results are bit-identical.
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
    fn reserve_lanes_follow_the_draw_order() {
        // F = 6: half-block lanes of 4, and D = 200 makes 50 backbone
        // blocks.  Each dim takes a lane in call order; a dim that needs a
        // new block draws its 12 signs before its phase.  The repeated dim
        // and the out-of-range one draw nothing.
        let mut enc = encoder();
        let backbone_signs = enc.sign_count();
        let mut rng = SeededRng::new(RngSeed(8));
        let mut replay = rng.clone();
        enc.regenerate(&[9, 2, 150, 9, 77, 31, 5000], &mut rng);
        let phase = Uniform::phase();
        let mut signs = Vec::new();
        for (dim, new_block) in [(9, true), (2, false), (150, false), (77, false), (31, true)] {
            if new_block {
                signs.extend((0..12).map(|_| draw_sign(&mut replay)));
            }
            let drawn = phase.sample(&mut replay);
            assert_eq!(enc.phases()[dim].to_bits(), drawn.to_bits(), "dim {dim}");
        }
        assert_eq!(enc.signs[backbone_signs..], signs[..]);
        assert_eq!(rng.next_u64(), replay.next_u64(), "same number of draws");
        assert_eq!(enc.reserve_lanes(), &[9, 2, 150, 77, 31, FREE, FREE, FREE]);
        assert_eq!(enc.regenerated_count(), 5);
        // The reserve continues the backbone's head/tail window rotation
        // (blocks 50 and 51) with the scale of a full backbone block.
        assert_eq!(enc.reserve[0].window_start, 0);
        assert_eq!(enc.reserve[1].window_start, 6 - 4);
        for spec in &enc.reserve {
            assert_eq!(spec.scale, enc.blocks[0].scale);
        }
    }

    #[test]
    fn regeneration_changes_only_selected_dims_and_recycles_lanes_of_earlier_calls() {
        let mut enc = encoder(); // lanes of 4
        let input = [0.3, -0.2, 0.7, 0.1, 0.9, -0.4];
        let before = enc.encode(&input).unwrap();
        let mut rng = SeededRng::new(RngSeed(99));
        enc.regenerate(&[3, 5, 11], &mut rng);
        assert_eq!(enc.reserve_lanes(), &[3, 5, 11, FREE]);
        let after = enc.encode(&input).unwrap();
        for i in 0..enc.output_dim() {
            if [3, 5, 11].contains(&i) {
                assert_ne!(before[i], after[i], "dim {i} should change");
            } else {
                assert_eq!(before[i], after[i], "dim {i} should be stable");
            }
        }
        // Dim 5 takes the last unused lane of block 0.  No lane was free
        // before this call, so dim 11 draws block 1 even though dim 5 just
        // freed lane 1: a lane freed during a call waits for a later one.
        enc.regenerate(&[5, 11, 40], &mut rng);
        assert_eq!(enc.reserve_lanes(), &[3, FREE, FREE, 5, 11, 40, FREE, FREE]);
        let again = enc.encode(&input).unwrap();
        assert_ne!(again[5], after[5]);
        assert_ne!(again[11], after[11]);
        assert_eq!(again[3], after[3]);
        // The unused lanes 6 and 7 of the newest block go first, then the
        // lanes freed by the previous call, lowest first.  Lane 0, freed
        // by dim 3 in this call, is not reused yet, so dim 63 draws block 2.
        enc.regenerate(&[3, 60, 61, 62, 63], &mut rng);
        assert_eq!(
            enc.reserve_lanes(),
            &[FREE, 61, 62, 5, 11, 40, 3, 60, 63, FREE, FREE, FREE]
        );
        assert_eq!(enc.regenerated_count(), 11);
    }

    #[test]
    fn single_batch_and_quantized_encodes_agree_bitwise_with_reserve_lanes() {
        // Three calls, the last recycling lanes the second freed; 200 rows
        // of 200 dims fan out over the pool.
        let mut enc = encoder();
        let mut rng = SeededRng::new(RngSeed(5));
        enc.regenerate(&[0, 7, 100, 199], &mut rng);
        enc.regenerate(&[7, 3, 198, 0], &mut rng);
        enc.regenerate(&[100, 50, 51, 52, 53, 54], &mut rng);
        assert!(enc.reserve_lanes().len() <= 12);
        let batch = Matrix::from_fn(200, 6, |r, c| ((r * 6 + c) as f32 * 0.37).sin());
        let serial = parallel::with_thread_count(1, || enc.encode_batch(&batch).unwrap());
        for r in 0..batch.rows() {
            let single = enc.encode(batch.row(r)).unwrap();
            assert_eq!(serial.row(r), single.as_slice(), "row {r}");
        }
        let reference = QuantizedMatrix::quantize(&serial, BitWidth::B8);
        for threads in [1usize, 4] {
            let (encoded, quantized) = parallel::with_thread_count(threads, || {
                (
                    enc.encode_batch(&batch).unwrap(),
                    enc.encode_batch_quantized(&batch, None, BitWidth::B8)
                        .unwrap(),
                )
            });
            assert_eq!(encoded.as_slice(), serial.as_slice(), "{threads} threads");
            assert_eq!(quantized.as_words(), reference.as_words(), "{threads}");
            assert_eq!(quantized.scales(), reference.scales(), "{threads}");
        }
    }

    /// Probes every implicit base-row norm by encoding basis vectors
    /// through the raw block transforms (linearity: column `k` of the
    /// implicit matrix is the transform of `e_k`); a dim that owns a
    /// reserve lane takes that lane's row.
    fn implicit_row_norms(enc: &StructuredRbfEncoder) -> Vec<f64> {
        let n = enc.input_dim();
        let mut row_sq = vec![0.0f64; enc.output_dim()];
        let mut lane_sq = vec![0.0f64; enc.reserve_lanes().len()];
        let mut scratch = vec![0.0f32; enc.block_dim()];
        for k in 0..n {
            let mut e = vec![0.0f32; n];
            e[k] = 1.0;
            for (specs, sq) in [(&enc.blocks, &mut row_sq), (&enc.reserve, &mut lane_sq)] {
                for spec in specs {
                    enc.transform_block(&e, spec, &mut scratch);
                    for (lane, &raw) in scratch[..spec.out_width].iter().enumerate() {
                        let scaled = f64::from(raw) * f64::from(spec.scale);
                        sq[spec.out_start + lane] += scaled * scaled;
                    }
                }
            }
        }
        for (&dim, &sq) in enc.reserve_lanes().iter().zip(&lane_sq) {
            if dim != FREE {
                row_sq[dim as usize] = sq;
            }
        }
        row_sq.iter().map(|&sq| sq.sqrt()).collect()
    }

    #[test]
    fn projection_variance_tracks_the_dense_target() {
        // Full-pad mode (power-of-two input): every implicit row norm,
        // reserve lanes included, must equal base_std·√d exactly (the
        // construction is orthogonal), the dense encoder's expected norm
        // for d-dimensional draws.
        let mut enc = StructuredRbfEncoder::new(8, 64, RngSeed(3));
        assert_eq!(enc.block_dim(), 8);
        let mut rng = SeededRng::new(RngSeed(4));
        enc.regenerate(&[1, 9, 30, 63, 40, 41, 42, 43, 44], &mut rng);
        enc.regenerate(&[9, 2], &mut rng);
        assert_eq!(enc.reserve_lanes().len(), 16);
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
        // Half-block mode: every implicit row, reserve lanes included, is
        // supported on a window of h features and scaled so its norm is
        // base_std·√F — the dense encoder's expected row norm over the
        // *actual* feature count.
        let mut enc = encoder(); // F = 6 → d = 8, half-block h = 4
        assert_eq!(enc.block_dim(), 4);
        let mut rng = SeededRng::new(RngSeed(4));
        enc.regenerate(&[0, 17, 150, 199, 198], &mut rng);
        enc.regenerate(&[17, 3], &mut rng);
        assert_eq!(enc.reserve_lanes().len(), 8);
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
        let mut enc = encoder(); // F = 6, h = 4
        let mut rng = SeededRng::new(RngSeed(4));
        enc.regenerate(&(0..9).collect::<Vec<_>>(), &mut rng);
        assert_eq!(enc.reserve.len(), 3);
        let mut covered = [false; 6];
        for (b, spec) in enc.blocks.iter().chain(&enc.reserve).enumerate() {
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
    fn regeneration_ignores_out_of_range_dims() {
        let mut enc = encoder();
        let mut rng = SeededRng::new(RngSeed(1));
        enc.regenerate(&[9999], &mut rng);
        assert_eq!(enc.regenerated_count(), 0);
        assert!(enc.reserve_lanes().is_empty());
    }

    #[test]
    fn reserve_stays_within_its_bound_under_churn() {
        // Every call re-draws most of the previous call's dims, the
        // pattern that fragments the reserve when lanes are never reused.
        let mut enc = StructuredRbfEncoder::new(6, 64, RngSeed(12));
        let bound = StructuredRbfEncoder::reserve_lane_bound(64, enc.block_dim());
        let mut rng = SeededRng::new(RngSeed(13));
        for call in 0..200usize {
            let dims: Vec<usize> = (0..64).filter(|d| (d * 7 + call) % 3 != 0).collect();
            enc.regenerate(&dims, &mut rng);
            assert!(enc.reserve_lanes().len() <= bound, "call {call}");
            let owned = enc.reserve_lanes().iter().filter(|&&d| d != FREE).count();
            let distinct = enc.dim_lanes.iter().filter(|&&l| l != FREE).count();
            assert_eq!(owned, distinct, "call {call}");
        }
    }

    #[test]
    fn partial_reencode_matches_full_reencode() {
        // 150 rows span three re-encode chunks.  The second regeneration
        // moves dims that already own lanes and adds a new one, and the
        // re-encode mixes reserve, backbone and out-of-range dims.
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
        // Re-encoding a dim that was never regenerated re-runs the very
        // same block transform, so the value must match encode_batch bit
        // for bit.
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
        // With dims on reserve lanes, reencode of still-backbone dims must
        // equal the full encode bit for bit (the same block transform and
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
        // Move a ragged-tail dim (in [192, 200)) and a regular dim to
        // reserve lanes.
        let mut rng = SeededRng::new(RngSeed(13));
        enc.regenerate(&[5, 195], &mut rng);
        let mut after = enc.encode_batch(&batch).unwrap();
        for r in 0..batch.rows() {
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

    fn rebuild(enc: &StructuredRbfEncoder) -> Result<StructuredRbfEncoder, ShapeError> {
        StructuredRbfEncoder::from_parts(
            enc.input_dim(),
            enc.output_dim(),
            enc.base_std(),
            enc.block_dim(),
            &enc.packed_signs(),
            enc.phases().to_vec(),
            enc.reserve_lanes().to_vec(),
        )
    }

    #[test]
    fn from_parts_round_trips_and_regenerates_like_the_original() {
        // Block 0 ends full with a dead lane (dim 4 moved off lane 0), so
        // the next call must recycle exactly as the original would.
        let mut enc = StructuredRbfEncoder::new(6, 100, RngSeed(17));
        let mut rng = SeededRng::new(RngSeed(18));
        enc.regenerate(&[4, 50, 51, 52], &mut rng);
        enc.regenerate(&[4, 60], &mut rng);
        let mut rebuilt = rebuild(&enc).unwrap();
        let x = [0.3, 0.1, -0.2, 0.8, 0.5, -0.9];
        assert_eq!(enc.encode(&x).unwrap(), rebuilt.encode(&x).unwrap());
        let mut replay = rng.clone();
        enc.regenerate(&[1, 2, 3, 60], &mut rng);
        rebuilt.regenerate(&[1, 2, 3, 60], &mut replay);
        assert_eq!(enc.reserve_lanes(), rebuilt.reserve_lanes());
        assert_eq!(enc.packed_signs(), rebuilt.packed_signs());
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
        let mut enc = StructuredRbfEncoder::new(6, 100, RngSeed(17));
        let mut rng = SeededRng::new(RngSeed(18));
        enc.regenerate(&[4, 50], &mut rng);
        assert!(rebuild(&enc).is_ok());
        let with = |block_dim: usize, words: &[u64], lanes: Vec<u32>| {
            StructuredRbfEncoder::from_parts(
                6,
                100,
                enc.base_std(),
                block_dim,
                words,
                enc.phases().to_vec(),
                lanes,
            )
        };
        let words = enc.packed_signs();
        let lanes = enc.reserve_lanes().to_vec();
        // Wrong block_dim.
        assert!(with(16, &words, lanes.clone()).is_err());
        // Short sign words.
        assert!(with(4, &words[..words.len() - 1], lanes.clone()).is_err());
        // A lane naming a dim out of range, a dim named twice, and a map
        // that is not a whole number of blocks.
        assert!(with(4, &words, vec![4, 500, FREE, FREE]).is_err());
        assert!(with(4, &words, vec![4, 4, FREE, FREE]).is_err());
        assert!(with(4, &words, vec![4, 50, FREE]).is_err());
        // More lanes than the bound allows, with matching sign words.
        let lanes = StructuredRbfEncoder::reserve_lane_bound(100, 4) + 4;
        let signs = 300 + 3 * lanes;
        assert!(with(4, &vec![0; signs.div_ceil(64)], vec![FREE; lanes]).is_err());
    }
}
