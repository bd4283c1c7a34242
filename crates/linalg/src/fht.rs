//! In-place fast Walsh–Hadamard transform (FHT).
//!
//! The structured RBF encoder replaces its dense Gaussian base matrix with
//! products of sign diagonals and Walsh–Hadamard transforms (SORF/Fastfood
//! construction), which turns the `O(F·D)` encode GEMM into `O(D log D)`
//! butterfly passes.  This module provides the kernel: an unnormalized
//! Hadamard transform (`H·Hᵀ = n·I`, entries ±1 in Sylvester order) applied
//! in place to a power-of-two-length `f32` slice.
//!
//! ## Determinism
//!
//! The butterfly schedule is **globally ascending in stride** — stride 1
//! first, `n/2` last — regardless of blocking.  Every butterfly is one add
//! and one subtract of the same two operands, so results are identical to
//! the naive ascending loop.  (The cache-blocked order below performs
//! stride-`s` passes inside each L1 block before any cross-block pass;
//! since a stride-`s` butterfly only ever pairs elements within one
//! `2s`-aligned group, this reorders *independent* butterflies and touches
//! no operand early — the per-element operation sequence is unchanged.)
//!
//! ## Performance shape
//!
//! * **Cache blocking** — strides below [`FHT_BLOCK`] run to completion
//!   inside one 16 KiB (L1-resident) block before the large cross-block
//!   strides stream the whole buffer, so an `n`-point transform makes
//!   `O(log(n / FHT_BLOCK))` full-buffer passes instead of `log n`.
//! * **Radix-8 base** — strides 1, 2 and 4 are a fully unrolled in-register
//!   kernel ([`butterfly8`]); those strides are shuffle-bound when expressed
//!   as slice loops, and they account for 3 of the 12 passes at `n = 4096`.
//! * **Vector passes** — the cross passes (stride ≥ 8) are contiguous
//!   dual-stream add/sub loops, which the autovectorizer turns into
//!   full-width `vaddps`/`vsubps` pairs under `target-cpu=native`;
//!   hand-written AVX2 intrinsics measured no faster.
//!
//! ## Zero tails, fused signs and pruning
//!
//! [`fht_inplace_opts`] layers three refinements over the plain transform,
//! all driven by [`FhtOpts`]:
//!
//! * **Zero-aware front end** (`nonzero_len`) — when the caller guarantees
//!   a `+0.0` tail (zero-padded input), early passes skip all-zero groups
//!   outright and specialize straddling groups to `lo ← lo + 0.0`,
//!   `hi ← lo` (copy) — bit-identical to the full butterfly because
//!   `x − 0.0 ≡ x` and `x + 0.0` only normalizes `−0.0`, exactly as the
//!   true add would against a `+0.0` operand.
//! * **Fused signs** (`first_stage_signs`) — a ±1 diagonal folded into
//!   the radix-8 base's loads, bit-identical to multiplying first.
//! * **Pruned back end** ([`FhtPrunePlan`]) — the final stride-`n/2` stage
//!   is the only stage whose butterflies feed exactly two output lanes
//!   each, so a butterfly whose *both* outputs are dead (evicted to the
//!   encoder's dense overlay, or beyond the consumed width) can be elided
//!   without touching any live lane.  Live lanes see the identical
//!   operation sequence, hence stay bitwise equal to the unpruned
//!   transform.

/// Largest sub-transform run to completion inside one cache block:
/// 4096 f32 = 16 KiB, resident in a 32 KiB L1 alongside its write stream.
const FHT_BLOCK: usize = 4096;

/// Dead-pair gaps shorter than this are computed rather than skipped when
/// building an [`FhtPrunePlan`] — one 256-bit vector step covers 8 pairs,
/// so a shorter skip fragments the vector loop for no net win.
const PRUNE_MERGE_GAP: u32 = 8;

/// Applies the unnormalized Walsh–Hadamard transform to `data` in place.
///
/// The transform is its own inverse up to the factor `n = data.len()`:
/// `fht(fht(x)) = n · x` (exactly, when all intermediate sums are exactly
/// representable).  An empty or single-element slice is returned unchanged.
///
/// # Example
///
/// ```
/// use disthd_linalg::fht_inplace;
///
/// let mut x = vec![1.0f32, 0.0, 0.0, 0.0];
/// fht_inplace(&mut x);            // first basis vector -> first Hadamard row
/// assert_eq!(x, vec![1.0, 1.0, 1.0, 1.0]);
/// fht_inplace(&mut x);            // involution: back to n * input
/// assert_eq!(x, vec![4.0, 0.0, 0.0, 0.0]);
/// ```
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two (callers zero-pad; the
/// structured encoder rounds its block size up to the next power of two).
pub fn fht_inplace(data: &mut [f32]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    assert!(
        n.is_power_of_two(),
        "fht_inplace: length {n} is not a power of two"
    );
    // L1-resident phase: run every stride below the block size to
    // completion inside each block (one load of the block covers
    // log2(FHT_BLOCK) passes).
    let block = n.min(FHT_BLOCK);
    for chunk in data.chunks_mut(block) {
        fht_in_cache(chunk);
    }
    // Streaming phase: the remaining strides pair elements across blocks.
    let mut stride = block;
    while stride < n {
        cross_pass(data, stride);
        stride <<= 1;
    }
}

/// Full transform of one cache-resident block (`len ≤ FHT_BLOCK`).
fn fht_in_cache(data: &mut [f32]) {
    let n = data.len();
    let mut stride = 1;
    if n >= 8 {
        for group in data.chunks_exact_mut(8) {
            butterfly8(group);
        }
        stride = 8;
    }
    // n ∈ {2, 4} is too short for the radix-8 base kernel.
    while stride < n {
        cross_pass(data, stride);
        stride <<= 1;
    }
}

/// Strides 1, 2 and 4 of one 8-element group, fully unrolled so the whole
/// sub-transform lives in registers.  The operation order is exactly the
/// ascending-stride schedule (pairs (0,1)(2,3)…, then (0,2)(1,3)…, then
/// (0,4)(1,5)…), so the result is bit-identical to three scalar passes.
#[inline]
fn butterfly8(x: &mut [f32]) {
    let (a0, a1) = (x[0] + x[1], x[0] - x[1]);
    let (a2, a3) = (x[2] + x[3], x[2] - x[3]);
    let (a4, a5) = (x[4] + x[5], x[4] - x[5]);
    let (a6, a7) = (x[6] + x[7], x[6] - x[7]);
    let (b0, b2) = (a0 + a2, a0 - a2);
    let (b1, b3) = (a1 + a3, a1 - a3);
    let (b4, b6) = (a4 + a6, a4 - a6);
    let (b5, b7) = (a5 + a7, a5 - a7);
    x[0] = b0 + b4;
    x[1] = b1 + b5;
    x[2] = b2 + b6;
    x[3] = b3 + b7;
    x[4] = b0 - b4;
    x[5] = b1 - b5;
    x[6] = b2 - b6;
    x[7] = b3 - b7;
}

/// One stride-`s` butterfly pass: for every `2s`-aligned group,
/// `(lo, hi) ← (lo + hi, lo − hi)` lane by lane.
fn cross_pass(data: &mut [f32], stride: usize) {
    for group in data.chunks_exact_mut(2 * stride) {
        let (lo, hi) = group.split_at_mut(stride);
        dual_stream_add_sub(lo, hi);
    }
}

/// `(lo, hi) ← (lo + hi, lo − hi)` lane by lane over two equal-length
/// streams — one butterfly run at an arbitrary offset and length.
///
/// The streams are walked in fixed 8-lane chunks, each of which compiles
/// to one 256-bit add/sub pair.  A plain lane loop vectorizes 16 lanes at
/// a time and drops the stride-8 pass into 4-lane remainder code.
#[inline]
fn dual_stream_add_sub(lo: &mut [f32], hi: &mut [f32]) {
    debug_assert_eq!(lo.len(), hi.len());
    let mut lo8 = lo.chunks_exact_mut(8);
    let mut hi8 = hi.chunks_exact_mut(8);
    for (a, b) in (&mut lo8).zip(&mut hi8) {
        let a: &mut [f32; 8] = a.try_into().expect("8-lane chunk");
        let b: &mut [f32; 8] = b.try_into().expect("8-lane chunk");
        for j in 0..8 {
            let (x, y) = (a[j], b[j]);
            a[j] = x + y;
            b[j] = x - y;
        }
    }
    for (a, b) in lo8
        .into_remainder()
        .iter_mut()
        .zip(hi8.into_remainder().iter_mut())
    {
        let (x, y) = (*a, *b);
        *a = x + y;
        *b = x - y;
    }
}

/// Butterfly pass order of the in-place Walsh–Hadamard transform.
///
/// One schedule remains: the ascending-stride order every kernel in this
/// module implements.  The enum is kept so encoders and configurations can
/// name the order they run; it is never persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FhtSchedule {
    /// Stride 1 first, `n/2` last — the radix-8 blocked transform.
    #[default]
    Ascending,
}

impl std::fmt::Display for FhtSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FhtSchedule::Ascending => "ascending",
        })
    }
}

/// Final-stage prune plan: which stride-`n/2` butterflies still feed a
/// live output lane.
///
/// Lane `j` and lane `j + n/2` form one final-stage pair; the pair is
/// *live* when either output is still read downstream.  The plan stores
/// maximal runs of live pairs so the pruned pass stays a handful of
/// contiguous dual-stream loops (vectorizable) instead of a per-lane
/// branch.  Dead pairs are skipped entirely, leaving garbage in dead
/// lanes — sound because dead lanes are, by definition, never read.
///
/// Runs separated by fewer than 8 dead pairs (one 256-bit vector step)
/// are coalesced: computing a dead pair's butterfly writes its *true*
/// value (which nobody reads), and that costs less than fragmenting the
/// vectorized dual-stream loop.  Pruning therefore only elides work where
/// the dead region is wide enough to beat vector-width overheads — for
/// scattered eviction the plan degenerates to full and the dense fast
/// path runs instead, which is the profitable choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FhtPrunePlan {
    n: usize,
    /// `(start, len)` runs of live pair indices in `[0, n/2)`.
    runs: Vec<(u32, u32)>,
    full: bool,
}

impl FhtPrunePlan {
    /// Builds a plan for an `n`-point transform from a per-lane liveness
    /// predicate (`live(lane)` for `lane < n`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is < 2.
    pub fn from_live(n: usize, mut live: impl FnMut(usize) -> bool) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "FhtPrunePlan: n = {n} must be a power of two >= 2"
        );
        let half = n / 2;
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for j in 0..half {
            if live(j) || live(j + half) {
                let j = j as u32;
                match runs.last_mut() {
                    Some((start, len)) if j - (*start + *len) < PRUNE_MERGE_GAP => {
                        *len = j - *start + 1;
                    }
                    _ => runs.push((j, 1)),
                }
            }
        }
        let full = runs == [(0, half as u32)];
        Self { n, runs, full }
    }

    /// Plan that keeps every pair (the unpruned transform).
    pub fn full(n: usize) -> Self {
        Self::from_live(n, |_| true)
    }

    /// Transform length this plan was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `true` when no butterfly is elided (the plan is a no-op).
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Number of final-stage pairs the pruned pass computes, of `n/2`
    /// total — the live pairs plus any dead pairs absorbed by gap
    /// coalescing.
    pub fn retained_pairs(&self) -> usize {
        self.runs.iter().map(|&(_, len)| len as usize).sum()
    }
}

/// Options for [`fht_inplace_opts`] — zero-tail extent, fused first-stage
/// diagonal and final-stage prune plan.  Construct through
/// [`FhtOpts::dense`] and override fields as needed (there is no
/// `Default`: a defaulted `nonzero_len` of 0 would silently declare the
/// whole input zero).
#[derive(Debug, Clone, Copy)]
pub struct FhtOpts<'a> {
    /// Leading lanes that may be nonzero.  **Contract:** every lane at
    /// index `>= nonzero_len` must hold `+0.0` *bits* (the natural state
    /// of a freshly zero-padded buffer); the zero-aware passes then skip
    /// work on the tail while staying bit-identical to the full
    /// transform.  Use `usize::MAX` (or `data.len()`) for dense inputs.
    pub nonzero_len: usize,
    /// Optional ±1 diagonal fused into the first butterfly pass: computes
    /// the transform of `signs ⊙ data` bit-identically to multiplying
    /// first, saving one full pass over the buffer.  Requires a dense
    /// input (`nonzero_len >= data.len()`): a `−1` sign on a zero lane
    /// would mint `−0.0` and break the zero-tail bit contract.
    pub first_stage_signs: Option<&'a [f32]>,
    /// Optional final-stage prune plan.
    pub prune: Option<&'a FhtPrunePlan>,
}

impl<'a> FhtOpts<'a> {
    /// Dense, unpruned transform.
    pub fn dense() -> Self {
        Self {
            nonzero_len: usize::MAX,
            first_stage_signs: None,
            prune: None,
        }
    }
}

/// [`fht_inplace`] with an explicit zero-tail extent, fused
/// first-stage sign diagonal and final-stage prune plan — the structured
/// encoder's entry point (see the module docs for the soundness
/// arguments).  With default options this is exactly [`fht_inplace`].
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two (or 0/1), if
/// `first_stage_signs` is present with the wrong length or a non-dense
/// `nonzero_len`, or if `prune` was built for a different length.
pub fn fht_inplace_opts(data: &mut [f32], opts: &FhtOpts) {
    let n = data.len();
    let mut signs = opts.first_stage_signs;
    if let Some(s) = signs {
        assert_eq!(s.len(), n, "first_stage_signs length must match data");
        assert!(
            opts.nonzero_len >= n,
            "first_stage_signs requires a dense input (nonzero_len >= len)"
        );
    }
    if let Some(p) = opts.prune {
        assert_eq!(p.n(), n, "prune plan length must match data");
    }
    if n <= 1 {
        if let (1, Some(s)) = (n, signs) {
            data[0] *= s[0];
        }
        return;
    }
    assert!(
        n.is_power_of_two(),
        "fht_inplace: length {n} is not a power of two"
    );
    let nz = opts.nonzero_len.min(n);
    debug_assert!(
        data[nz..].iter().all(|v| v.to_bits() == 0),
        "zero-tail contract violated: lanes past nonzero_len must be +0.0"
    );
    if nz == 0 {
        // All-zero input: the transform of +0.0 everywhere is +0.0
        // everywhere — already in place.
        return;
    }
    if n < 8 {
        // n ∈ {2, 4} has no radix-8 base to fuse the signs into; a plain
        // upfront multiply keeps the bits (it happens before any
        // butterfly touches the lane).
        if let Some(s) = signs.take() {
            for (v, &sg) in data.iter_mut().zip(s) {
                *v *= sg;
            }
        }
    }
    let prune = opts.prune.filter(|p| !p.is_full());
    if nz >= n && signs.is_none() && prune.is_none() {
        // Dense unpruned: the cache-blocked radix-8 fast path
        // (bit-identical to the plain ascending loop below).
        fht_inplace(data);
    } else {
        fht_ascending_opts(data, nz, signs, prune);
    }
}

/// Ascending-stride schedule with zero-tail skipping, optional fused
/// signs and optional final-stage pruning.
///
/// The base (strides 1, 2, 4) reuses the dense fast path's radix-8
/// register kernel: with signs, the ±1 diagonal is folded into the group
/// loads (the identical multiplies happen before the identical adds, so
/// bits match an explicit multiply-then-transform); with a zero tail,
/// all-zero 8-groups are skipped outright (`+0.0` in, `+0.0` out — an
/// 8-group is self-contained at these strides).  The remaining strides
/// run the streaming ladder below.
fn fht_ascending_opts(
    data: &mut [f32],
    nz: usize,
    signs: Option<&[f32]>,
    prune: Option<&FhtPrunePlan>,
) {
    let n = data.len();
    if n < 8 {
        // n ∈ {2, 4}: signs were multiplied upfront; generic ladder.
        ascending_streaming(data, 1, nz, prune);
        return;
    }
    let ext = if let Some(s) = signs {
        // Dense by contract (asserted by the caller).
        for (group, sg) in data.chunks_exact_mut(8).zip(s.chunks_exact(8)) {
            for (v, &x) in group.iter_mut().zip(sg) {
                *v *= x;
            }
            butterfly8(group);
        }
        n
    } else {
        let live = (nz.div_ceil(8) * 8).min(n);
        for group in data[..live].chunks_exact_mut(8) {
            butterfly8(group);
        }
        live
    };
    ascending_streaming(data, 8, ext, prune);
}

/// Ascending passes from `start_stride` to `n/2`, with zero-tail extent
/// tracking and the optional pruned final stage.
///
/// `ext` is the exclusive upper bound of possibly-nonzero lanes on entry
/// (every lane past it holds `+0.0` bits); a stride-`s` pass extends the
/// straddling group's nonzero prefix by at most `s` lanes (and never past
/// the group's end), so the extent erodes by one stride per pass until
/// the buffer is dense.  When the base already covered the final stride
/// (`n = 8` with a prune plan), the plan is simply unused — the full
/// butterfly computed every live lane's true value.
fn ascending_streaming(
    data: &mut [f32],
    start_stride: usize,
    mut ext: usize,
    prune: Option<&FhtPrunePlan>,
) {
    let n = data.len();
    let mut stride = start_stride;
    while stride < n {
        let group = 2 * stride;
        if stride == n / 2 {
            if let Some(plan) = prune {
                // Correct regardless of `ext`: lanes past the extent
                // physically hold +0.0, so the plain butterfly over them
                // *is* the true operation.
                pruned_final_pass(data, plan);
                break;
            }
        }
        if ext >= n {
            cross_pass(data, stride);
        } else {
            let full_groups = ext / group;
            let (dense_part, rest) = data.split_at_mut(full_groups * group);
            cross_pass(dense_part, stride);
            let rel = ext - full_groups * group;
            if rel > 0 {
                zero_tail_group(&mut rest[..group], stride, rel);
            }
            // Groups past the extent are all +0.0 and stay +0.0.
            let covered = full_groups * group + if rel > 0 { group } else { 0 };
            ext = (ext + stride).min(covered).min(n);
        }
        stride <<= 1;
    }
}

/// One stride-`s` butterfly over a single `2s` group whose nonzero lanes
/// are the prefix `[0, rel)` with `0 < rel < 2s`.  Pairs with a zero `hi`
/// operand specialize to `lo ← lo + 0.0` (normalizes a potential `−0.0`,
/// exactly as the true add would) and `hi ← lo` (since `x − 0.0 ≡ x`
/// bitwise); pairs with both operands zero are skipped and stay `+0.0`.
fn zero_tail_group(group: &mut [f32], stride: usize, rel: usize) {
    debug_assert!(rel > 0 && rel < group.len());
    let (lo, hi) = group.split_at_mut(stride);
    let dense = rel.saturating_sub(stride);
    dual_stream_add_sub(&mut lo[..dense], &mut hi[..dense]);
    for (a, b) in lo[dense..rel.min(stride)]
        .iter_mut()
        .zip(hi[dense..rel.min(stride)].iter_mut())
    {
        let x = *a;
        *a = x + 0.0;
        *b = x;
    }
}

/// Final stride-`n/2` pass restricted to the plan's live pair runs.  Each
/// run is the same contiguous dual-stream add/sub loop as a full pass, so
/// live lanes get the identical operation sequence (bit-identical); dead
/// pairs are skipped outright.
fn pruned_final_pass(data: &mut [f32], plan: &FhtPrunePlan) {
    let half = data.len() / 2;
    let (lo_half, hi_half) = data.split_at_mut(half);
    for &(start, len) in &plan.runs {
        let run = start as usize..(start + len) as usize;
        dual_stream_add_sub(&mut lo_half[run.clone()], &mut hi_half[run]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain ascending-stride scalar transform — the schedule ground truth.
    fn fht_reference(data: &mut [f32]) {
        let n = data.len();
        let mut stride = 1;
        while stride < n {
            for start in (0..n).step_by(2 * stride) {
                for i in start..start + stride {
                    let (x, y) = (data[i], data[i + stride]);
                    data[i] = x + y;
                    data[i + stride] = x - y;
                }
            }
            stride <<= 1;
        }
    }

    /// Naive `O(n²)` Hadamard product in f64 (Sylvester order:
    /// `H[i][j] = (-1)^popcount(i & j)`).
    fn naive_hadamard(input: &[f32]) -> Vec<f64> {
        let n = input.len();
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let sign = if (i & j).count_ones() % 2 == 0 {
                            1.0
                        } else {
                            -1.0
                        };
                        sign * f64::from(input[j])
                    })
                    .sum()
            })
            .collect()
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn matches_naive_hadamard_on_every_small_size() {
        for exp in 0..=9 {
            let n = 1 << exp;
            let input = pseudo_random(n, 0x5EED + exp as u64);
            let mut fast = input.clone();
            fht_inplace(&mut fast);
            let expected = naive_hadamard(&input);
            for (i, (&got, &want)) in fast.iter().zip(expected.iter()).enumerate() {
                assert!(
                    (f64::from(got) - want).abs() < 1e-3 * want.abs().max(1.0),
                    "n = {n}, element {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn blocked_schedule_matches_ascending_reference_bitwise() {
        // Above FHT_BLOCK the kernel switches to block-then-stream order;
        // that must not change a single bit relative to the plain
        // ascending-stride loop.
        for n in [2 * FHT_BLOCK, 4 * FHT_BLOCK] {
            let input = pseudo_random(n, n as u64);
            let mut blocked = input.clone();
            fht_inplace(&mut blocked);
            let mut reference = input;
            fht_reference(&mut reference);
            assert_eq!(blocked, reference, "n = {n}");
        }
    }

    #[test]
    fn radix8_base_matches_reference_bitwise() {
        let input = pseudo_random(64, 7);
        let mut fast = input.clone();
        fht_inplace(&mut fast);
        let mut reference = input;
        fht_reference(&mut reference);
        assert_eq!(fast, reference);
    }

    #[test]
    fn involution_is_exact_on_integer_inputs() {
        // Small integers keep every intermediate sum exactly representable,
        // so H(H(x)) == n·x must hold bit for bit.
        for n in [8usize, 256, 4096, 8192] {
            let input: Vec<f32> = (0..n).map(|i| ((i * 37 + 11) % 41) as f32 - 20.0).collect();
            let mut data = input.clone();
            fht_inplace(&mut data);
            fht_inplace(&mut data);
            for (i, (&got, &x)) in data.iter().zip(input.iter()).enumerate() {
                assert_eq!(got, x * n as f32, "n = {n}, element {i}");
            }
        }
    }

    #[test]
    fn rows_are_orthogonal() {
        // fht(e_i) is the i-th Hadamard row; distinct rows are orthogonal
        // and every row has squared norm n.
        let n = 128;
        let row = |i: usize| {
            let mut e = vec![0.0f32; n];
            e[i] = 1.0;
            fht_inplace(&mut e);
            e
        };
        let r3 = row(3);
        let r77 = row(77);
        let dot: f32 = r3.iter().zip(r77.iter()).map(|(a, b)| a * b).sum();
        let norm: f32 = r3.iter().map(|a| a * a).sum();
        assert_eq!(dot, 0.0);
        assert_eq!(norm, n as f32);
    }

    #[test]
    fn degenerate_lengths_are_no_ops() {
        let mut empty: Vec<f32> = Vec::new();
        fht_inplace(&mut empty);
        let mut one = vec![3.5f32];
        fht_inplace(&mut one);
        assert_eq!(one, vec![3.5]);
        let mut two = vec![1.0f32, 2.0];
        fht_inplace(&mut two);
        assert_eq!(two, vec![3.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_length_panics() {
        let mut data = vec![0.0f32; 12];
        fht_inplace(&mut data);
    }

    /// Zero-pads `input` to length `n` with +0.0 (the contract's tail).
    fn padded(input: &[f32], n: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; n];
        v[..input.len()].copy_from_slice(input);
        v
    }

    #[test]
    fn dense_opts_match_fht_inplace_bitwise() {
        for n in [2usize, 8, 64, 1024, 2 * FHT_BLOCK] {
            let input = pseudo_random(n, 0xD0 + n as u64);
            let mut plain = input.clone();
            fht_inplace(&mut plain);
            let mut opts = input;
            fht_inplace_opts(&mut opts, &FhtOpts::dense());
            assert_eq!(plain, opts, "n = {n}");
        }
    }

    #[test]
    fn zero_tail_matches_full_transform_bitwise() {
        // Exhaustive-ish sweep over (n, nonzero_len) pairs, including
        // tails crossing the radix-8 base, the straddle group and
        // whole-group skips, plus a negative-zero lane inside the live
        // prefix (x + 0.0 must normalize it like the true add).
        for n in [2usize, 4, 8, 16, 64, 1024, 8192] {
            for nz in [0usize, 1, 3, 5, n / 4 + 1, n / 2, 3 * n / 4, n - 1, n] {
                if nz > n {
                    continue;
                }
                let mut live = pseudo_random(nz, (n + nz) as u64 + 7);
                if nz > 1 {
                    live[nz / 2] = -0.0;
                }
                let mut full = padded(&live, n);
                fht_reference(&mut full);
                let mut tail = padded(&live, n);
                let opts = FhtOpts {
                    nonzero_len: nz,
                    ..FhtOpts::dense()
                };
                fht_inplace_opts(&mut tail, &opts);
                let same = full
                    .iter()
                    .zip(tail.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "n = {n}, nz = {nz}");
            }
        }
    }

    #[test]
    fn fused_signs_match_explicit_multiply_bitwise() {
        for n in [2usize, 4, 8, 16, 64, 1024] {
            let input = pseudo_random(n, 0x516 + n as u64);
            let signs: Vec<f32> = (0..n)
                .map(|i| if (i * 7 + n) % 3 == 0 { -1.0 } else { 1.0 })
                .collect();
            let mut explicit: Vec<f32> = input.iter().zip(&signs).map(|(&v, &s)| v * s).collect();
            fht_reference(&mut explicit);
            let mut fused = input;
            let opts = FhtOpts {
                first_stage_signs: Some(&signs),
                ..FhtOpts::dense()
            };
            fht_inplace_opts(&mut fused, &opts);
            assert_eq!(explicit, fused, "n = {n}");
        }
    }

    #[test]
    fn pruned_final_stage_keeps_live_lanes_bitwise() {
        for n in [2usize, 8, 64, 1024, 8192] {
            let input = pseudo_random(n, 0x9121 + n as u64);
            let mut full = input.clone();
            fht_reference(&mut full);
            // Kill a deterministic scatter of lanes (both half-partners
            // dead for some pairs, one for others, none for the rest).
            let dead = |lane: usize| (lane * 2654435761usize) % 5 < 2;
            let plan = FhtPrunePlan::from_live(n, |lane| !dead(lane));
            let mut pruned = input;
            let opts = FhtOpts {
                prune: Some(&plan),
                ..FhtOpts::dense()
            };
            fht_inplace_opts(&mut pruned, &opts);
            for lane in 0..n {
                if !dead(lane) {
                    assert_eq!(
                        full[lane].to_bits(),
                        pruned[lane].to_bits(),
                        "n = {n}, live lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_zero_tail_combination_keeps_live_lanes_bitwise() {
        // Zero-aware front end and pruned back end together — the
        // encoder's actual hot configuration for a padded, partly
        // evicted block.
        let n = 1024;
        let nz = 617;
        let live_input = pseudo_random(nz, 0x617);
        let mut full = padded(&live_input, n);
        fht_reference(&mut full);
        let dead = |lane: usize| lane % 7 == 3 || lane >= 1000;
        let plan = FhtPrunePlan::from_live(n, |lane| !dead(lane));
        let mut pruned = padded(&live_input, n);
        let opts = FhtOpts {
            nonzero_len: nz,
            prune: Some(&plan),
            ..FhtOpts::dense()
        };
        fht_inplace_opts(&mut pruned, &opts);
        for lane in 0..n {
            if !dead(lane) {
                assert_eq!(full[lane].to_bits(), pruned[lane].to_bits(), "lane {lane}");
            }
        }
    }

    #[test]
    fn prune_plan_reports_runs_and_fullness() {
        let plan = FhtPrunePlan::full(16);
        assert!(plan.is_full());
        assert_eq!(plan.retained_pairs(), 8);
        // Pair j is live iff lane j or lane j+8 is live: pairs 1, 2 and 4
        // here, whose 1-pair gap coalesces into the single run (1, 4).
        let plan = FhtPrunePlan::from_live(16, |lane| lane == 1 || lane == 2 || lane == 12);
        assert!(!plan.is_full());
        assert_eq!(plan.retained_pairs(), 4);
        assert_eq!(plan.n(), 16);
        let none = FhtPrunePlan::from_live(8, |_| false);
        assert_eq!(none.retained_pairs(), 0);
        assert!(!none.is_full());
    }

    #[test]
    fn prune_plan_coalesces_narrow_gaps_only() {
        // A 16-pair dead stretch stays a real skip; scattered dead pairs
        // merge away (and a fully scattered mask degenerates to full).
        let plan = FhtPrunePlan::from_live(64, |lane| !(8..56).contains(&lane));
        assert!(!plan.is_full());
        assert_eq!(plan.retained_pairs(), 16);
        // Dead pairs at j % 16 ∈ {3, 4} (both lane partners dead): the
        // 2-pair gaps are below the merge threshold, so the plan
        // degenerates to full and the dense fast path runs instead.
        let scattered = FhtPrunePlan::from_live(64, |lane| !matches!(lane % 16, 3 | 4));
        assert!(scattered.is_full());
    }

    #[test]
    fn schedule_displays_and_defaults_to_ascending() {
        assert_eq!(FhtSchedule::Ascending.to_string(), "ascending");
        assert_eq!(FhtSchedule::default(), FhtSchedule::Ascending);
    }
}
