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
//! first, `n/2` last — regardless of blocking or arithmetic tier.  Every
//! butterfly is one add and one subtract of the same two operands in every
//! tier, so results are **bit-identical** across tiers and identical to the
//! naive ascending loop.  (The cache-blocked order below performs stride-`s`
//! passes inside each L1 block before any cross-block pass; since a
//! stride-`s` butterfly only ever pairs elements within one `2s`-aligned
//! group, this reorders *independent* butterflies and touches no operand
//! early — the per-element operation sequence is unchanged.)
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
//! * **SIMD tiers** — the cross passes (stride ≥ 8, contiguous dual-stream
//!   add/sub) run autovectorized by default, with a runtime-detected
//!   AVX2 `std::arch` tier on x86_64, mirroring the GEMM's `KernelTier`.
//!   Tiers never change results (adds and subtracts of identical operands).
//!
//! ## Schedules, zero tails and pruning
//!
//! [`fht_inplace_opts`] layers three refinements over the plain transform,
//! all driven by [`FhtOpts`]:
//!
//! * **Schedules** ([`FhtSchedule`]) — the stage matrices `I ⊗ H₂ ⊗ I`
//!   commute exactly, so any stride order computes the same transform with
//!   (possibly) different floating-point rounding.  `Ascending` is the
//!   default above; `CascadingHaar` is the in-place realization of the
//!   cascading-Haar factorization `H_n = (I₂ ⊗ H_{n/2})·(H₂ ⊗ I_{n/2})`
//!   (Thompson, arXiv:1609.06641) — recurse after a stride-`n/2` butterfly,
//!   which flattens to the **descending**-stride pass order.  Each schedule
//!   is bit-identical to itself across tiers and blockings; the two
//!   schedules are *not* bit-identical to each other.
//! * **Zero-aware front end** (`nonzero_len`) — when the caller guarantees
//!   a `+0.0` tail (zero-padded input), early passes skip all-zero groups
//!   outright and specialize straddling groups to `lo ← lo + 0.0`,
//!   `hi ← lo` (copy) — bit-identical to the full butterfly because
//!   `x − 0.0 ≡ x` and `x + 0.0` only normalizes `−0.0`, exactly as the
//!   true add would against a `+0.0` operand.
//! * **Pruned back end** ([`FhtPrunePlan`]) — the final stride-`n/2` stage
//!   is the only stage whose butterflies feed exactly two output lanes
//!   each, so a butterfly whose *both* outputs are dead (evicted to the
//!   encoder's dense overlay, or beyond the consumed width) can be elided
//!   without touching any live lane.  Live lanes see the identical
//!   operation sequence, hence stay bitwise equal to the unpruned
//!   transform.  Pruning applies to the `Ascending` schedule only (under
//!   `CascadingHaar` the final stage has stride 1 and its pairs do not map
//!   onto the lane mask the same way); plans are ignored there.

use std::sync::OnceLock;

/// Largest sub-transform run to completion inside one cache block:
/// 4096 f32 = 16 KiB, resident in a 32 KiB L1 alongside its write stream.
const FHT_BLOCK: usize = 4096;

/// Dead-pair gaps shorter than this are computed rather than skipped when
/// building an [`FhtPrunePlan`] — one AVX2 step covers 8 pairs, so a
/// shorter skip fragments the vector loop for no net win.
const PRUNE_MERGE_GAP: u32 = 8;

/// Which implementation executes the stride ≥ 8 butterfly passes.
///
/// Both tiers perform the identical adds/subtracts in the identical order,
/// so runtime detection never changes results — asserted by a parity test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FhtTier {
    /// Plain slice loops; the autovectorizer handles them well under
    /// `target-cpu=native`, and they are the fallback everywhere.
    Portable,
    /// Explicit 256-bit `std::arch` loads/adds/subs, selected by runtime
    /// AVX2 detection on x86_64.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// Resolves the butterfly tier once per process (mirrors the GEMM's
/// `kernel_tier`).
fn fht_tier() -> FhtTier {
    static TIER: OnceLock<FhtTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return FhtTier::Avx2;
            }
        }
        FhtTier::Portable
    })
}

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
    fht_inplace_tier(data, fht_tier());
}

/// [`fht_inplace`] with an explicit butterfly tier — the parity-test entry
/// point (the public API always uses the runtime-resolved tier).
fn fht_inplace_tier(data: &mut [f32], tier: FhtTier) {
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
        fht_in_cache(chunk, tier);
    }
    // Streaming phase: the remaining strides pair elements across blocks.
    let mut stride = block;
    while stride < n {
        cross_pass(data, stride, tier);
        stride <<= 1;
    }
}

/// Full transform of one cache-resident block (`len ≤ FHT_BLOCK`).
fn fht_in_cache(data: &mut [f32], tier: FhtTier) {
    let n = data.len();
    if n < 8 {
        // n ∈ {2, 4}: too short for the radix-8 base kernel.
        let mut stride = 1;
        while stride < n {
            cross_pass_portable(data, stride);
            stride <<= 1;
        }
        return;
    }
    for group in data.chunks_exact_mut(8) {
        butterfly8(group);
    }
    let mut stride = 8;
    while stride < n {
        cross_pass(data, stride, tier);
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

/// One stride-`s` butterfly pass, tier-dispatched.
#[allow(unsafe_code)]
#[inline]
fn cross_pass(data: &mut [f32], stride: usize, tier: FhtTier) {
    match tier {
        FhtTier::Portable => cross_pass_portable(data, stride),
        // SAFETY: the Avx2 tier is only ever constructed after runtime
        // AVX2 detection (see `fht_tier`).
        #[cfg(target_arch = "x86_64")]
        FhtTier::Avx2 => unsafe { cross_pass_avx2(data, stride) },
    }
}

/// One stride-`s` pass in plain slice loops: for every `2s`-aligned group,
/// `(lo, hi) ← (lo + hi, lo − hi)` lane by lane.  The two streams are
/// contiguous, so the autovectorizer emits full-width add/sub pairs.
fn cross_pass_portable(data: &mut [f32], stride: usize) {
    for group in data.chunks_exact_mut(2 * stride) {
        let (lo, hi) = group.split_at_mut(stride);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (x, y) = (*a, *b);
            *a = x + y;
            *b = x - y;
        }
    }
}

/// One stride-`s` pass (`s ≥ 8`) in explicit AVX2 intrinsics: per step, two
/// 256-bit loads feed one `vaddps` and one `vsubps` — the same adds and
/// subtracts of the same operands as [`cross_pass_portable`], hence
/// bit-identical results.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime (see
/// [`fht_tier`]); `stride` must be a multiple of 8 and `data.len()` a
/// multiple of `2 * stride`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn cross_pass_avx2(data: &mut [f32], stride: usize) {
    use std::arch::x86_64::*;
    debug_assert_eq!(stride % 8, 0);
    debug_assert_eq!(data.len() % (2 * stride), 0);
    let mut group = data.as_mut_ptr();
    let groups = data.len() / (2 * stride);
    for _ in 0..groups {
        let lo_base = group;
        let hi_base = group.add(stride);
        for j in (0..stride).step_by(8) {
            let lo = lo_base.add(j);
            let hi = hi_base.add(j);
            let x = _mm256_loadu_ps(lo);
            let y = _mm256_loadu_ps(hi);
            _mm256_storeu_ps(lo, _mm256_add_ps(x, y));
            _mm256_storeu_ps(hi, _mm256_sub_ps(x, y));
        }
        group = group.add(2 * stride);
    }
}

/// Butterfly pass order of the in-place Walsh–Hadamard transform.
///
/// Every schedule computes the exact same linear transform (the stage
/// matrices commute), but floating-point rounding differs between
/// schedules, so each is bit-deterministic **within itself** — across
/// tiers, blockings and thread counts — while two schedules generally
/// disagree in the low bits.  Chosen per encoder (the default is
/// [`FhtSchedule::Ascending`]); never persisted, so model artifacts are
/// schedule-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FhtSchedule {
    /// Stride 1 first, `n/2` last — the radix-8 blocked default, and the
    /// only schedule the final-stage [`FhtPrunePlan`] applies to.
    #[default]
    Ascending,
    /// Cascading-Haar order (Thompson, arXiv:1609.06641): the recursive
    /// factorization `H_n = (I₂ ⊗ H_{n/2})·(H₂ ⊗ I_{n/2})` applied in
    /// place, which executes strides descending from `n/2` to 1.  Under a
    /// zero tail this order keeps whole groups zero at *every* level, so
    /// its zero-aware skip persists where the ascending schedule's erodes.
    CascadingHaar,
}

impl std::fmt::Display for FhtSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FhtSchedule::Ascending => "ascending",
            FhtSchedule::CascadingHaar => "cascading-haar",
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
/// Runs separated by fewer than 8 dead pairs (one AVX2 step) are
/// coalesced: computing a dead pair's butterfly writes its *true* value
/// (which nobody reads), and that costs less than fragmenting the
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

/// Options for [`fht_inplace_opts`] — schedule, zero-tail extent, fused
/// first-stage diagonal and final-stage prune plan.  Construct through
/// [`FhtOpts::dense`] and override fields as needed (there is no
/// `Default`: a defaulted `nonzero_len` of 0 would silently declare the
/// whole input zero).
#[derive(Debug, Clone, Copy)]
pub struct FhtOpts<'a> {
    /// Butterfly pass order.
    pub schedule: FhtSchedule,
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
    /// Optional final-stage prune plan ([`Ascending`](FhtSchedule) only;
    /// ignored under `CascadingHaar`).
    pub prune: Option<&'a FhtPrunePlan>,
}

impl<'a> FhtOpts<'a> {
    /// Dense, unpruned transform under `schedule`.
    pub fn dense(schedule: FhtSchedule) -> Self {
        Self {
            schedule,
            nonzero_len: usize::MAX,
            first_stage_signs: None,
            prune: None,
        }
    }
}

/// [`fht_inplace`] with an explicit schedule, zero-tail extent, fused
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
    fht_inplace_opts_tier(data, opts, fht_tier());
}

/// [`fht_inplace_opts`] with an explicit butterfly tier (parity tests).
fn fht_inplace_opts_tier(data: &mut [f32], opts: &FhtOpts, tier: FhtTier) {
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
    if n < 16 {
        // Tiny transforms: fusing signs into a radix-8 base would collide
        // with the descending schedule's first pass at n = 8 (and with the
        // pruned final pass at n = 2); a plain upfront multiply costs
        // nothing here and keeps every downstream branch simple.  The
        // bits are unchanged either way — the multiply happens before any
        // butterfly touches the lane.
        if let Some(s) = signs.take() {
            for (v, &sg) in data.iter_mut().zip(s) {
                *v *= sg;
            }
        }
    }
    match opts.schedule {
        FhtSchedule::Ascending => {
            let prune = opts.prune.filter(|p| !p.is_full());
            if nz >= n && signs.is_none() && prune.is_none() {
                // Dense unpruned: the cache-blocked radix-8 fast path
                // (bit-identical to the plain ascending loop below).
                fht_inplace_tier(data, tier);
            } else {
                fht_ascending_opts(data, nz, signs, prune, tier);
            }
        }
        FhtSchedule::CascadingHaar => fht_haar_opts(data, nz, signs, tier),
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
    tier: FhtTier,
) {
    let n = data.len();
    if n < 8 {
        // n ∈ {2, 4}: signs were multiplied upfront; generic ladder.
        ascending_streaming(data, 1, nz, prune, tier);
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
    ascending_streaming(data, 8, ext, prune, tier);
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
    tier: FhtTier,
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
                pruned_final_pass(data, plan, tier);
                break;
            }
        }
        if ext >= n {
            cross_pass_any(data, stride, tier);
        } else {
            let full_groups = ext / group;
            let (dense_part, rest) = data.split_at_mut(full_groups * group);
            if full_groups > 0 {
                cross_pass_any(dense_part, stride, tier);
            }
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

/// Cascading-Haar schedule: strides descending from `n/2` to 1, with
/// zero-tail skipping and optional signs fused into the first pass.
///
/// After a stride-`s` pass, every `s`-aligned group's nonzero prefix is
/// `min(rel, s)` where `rel` was the (uniform) prefix of its parent
/// `2s`-group — so a short prefix persists down every level and the
/// skipped work *compounds*, unlike the ascending schedule where the
/// extent grows each pass.
fn fht_haar_opts(data: &mut [f32], nz: usize, signs: Option<&[f32]>, tier: FhtTier) {
    let n = data.len();
    let mut rel = nz;
    let mut stride = n / 2;
    if let Some(s) = signs {
        // Dense by contract; one group at stride n/2.  Only reachable for
        // n >= 16 (smaller transforms multiply upfront), so this pass
        // never overlaps the radix-8 tail kernel below.
        let (lo, hi) = data.split_at_mut(stride);
        let (slo, shi) = s.split_at(stride);
        for j in 0..stride {
            let a = lo[j] * slo[j];
            let b = hi[j] * shi[j];
            lo[j] = a + b;
            hi[j] = a - b;
        }
        rel = rel.min(stride);
        stride /= 2;
    }
    if n >= 8 {
        while stride >= 8 {
            let group = 2 * stride;
            if rel >= group {
                cross_pass_any(data, stride, tier);
            } else {
                // Every group has the same nonzero prefix `rel`.
                for g in data.chunks_exact_mut(group) {
                    zero_tail_group(g, stride, rel);
                }
            }
            rel = rel.min(stride);
            stride /= 2;
        }
        // Strides 4, 2, 1 in registers.  Per 8-group this performs the
        // same operand pairs in the same order as three descending
        // per-stride passes, and groups are independent at these strides,
        // so the result is bit-identical to the pass-by-pass ladder.  Any
        // zero tail inside a group holds true +0.0 lanes, for which the
        // full butterfly is exact.
        for g in data.chunks_exact_mut(8) {
            butterfly8_descending(g);
        }
    } else {
        while stride >= 1 {
            let group = 2 * stride;
            if rel >= group {
                cross_pass_portable(data, stride);
            } else {
                for g in data.chunks_exact_mut(group) {
                    zero_tail_group(g, stride, rel);
                }
            }
            rel = rel.min(stride);
            if stride == 1 {
                break;
            }
            stride /= 2;
        }
    }
}

/// Strides 4, 2 and 1 of one 8-element group in **descending** order —
/// the cascading-Haar counterpart of [`butterfly8`].  Pairs (0,4)(1,5)…,
/// then (0,2)(1,3)(4,6)(5,7), then (0,1)(2,3)(4,5)(6,7): exactly the
/// per-stride descending ladder's operation sequence, kept in registers.
#[inline]
fn butterfly8_descending(x: &mut [f32]) {
    let (a0, a4) = (x[0] + x[4], x[0] - x[4]);
    let (a1, a5) = (x[1] + x[5], x[1] - x[5]);
    let (a2, a6) = (x[2] + x[6], x[2] - x[6]);
    let (a3, a7) = (x[3] + x[7], x[3] - x[7]);
    let (b0, b2) = (a0 + a2, a0 - a2);
    let (b1, b3) = (a1 + a3, a1 - a3);
    let (b4, b6) = (a4 + a6, a4 - a6);
    let (b5, b7) = (a5 + a7, a5 - a7);
    x[0] = b0 + b1;
    x[1] = b0 - b1;
    x[2] = b2 + b3;
    x[3] = b2 - b3;
    x[4] = b4 + b5;
    x[5] = b4 - b5;
    x[6] = b6 + b7;
    x[7] = b6 - b7;
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
    for (a, b) in lo[..dense].iter_mut().zip(hi[..dense].iter_mut()) {
        let (x, y) = (*a, *b);
        *a = x + y;
        *b = x - y;
    }
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
fn pruned_final_pass(data: &mut [f32], plan: &FhtPrunePlan, tier: FhtTier) {
    let half = data.len() / 2;
    let (lo_half, hi_half) = data.split_at_mut(half);
    for &(start, len) in &plan.runs {
        let (start, len) = (start as usize, len as usize);
        dual_stream_add_sub(
            &mut lo_half[start..start + len],
            &mut hi_half[start..start + len],
            tier,
        );
    }
}

/// `(lo, hi) ← (lo + hi, lo − hi)` lane by lane over two equal-length
/// streams — one butterfly run at an arbitrary offset and length.
#[allow(unsafe_code)]
fn dual_stream_add_sub(lo: &mut [f32], hi: &mut [f32], tier: FhtTier) {
    debug_assert_eq!(lo.len(), hi.len());
    #[cfg(target_arch = "x86_64")]
    if tier == FhtTier::Avx2 && lo.len() >= 8 {
        // SAFETY: the Avx2 tier is only constructed after runtime
        // detection (see `fht_tier`).
        unsafe { dual_stream_add_sub_avx2(lo, hi) };
        return;
    }
    let _ = tier;
    for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = x + y;
        *b = x - y;
    }
}

/// AVX2 body of [`dual_stream_add_sub`]: unaligned 8-wide add/sub pairs
/// with a scalar tail — the same operations on the same operands as the
/// portable loop, hence bit-identical (prune runs start at arbitrary pair
/// offsets, so loads are unaligned by construction).
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime, and the slices
/// must be of equal length.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn dual_stream_add_sub_avx2(lo: &mut [f32], hi: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = lo.len();
    let lo = lo.as_mut_ptr();
    let hi = hi.as_mut_ptr();
    let mut j = 0;
    while j + 8 <= n {
        let a = lo.add(j);
        let b = hi.add(j);
        let x = _mm256_loadu_ps(a);
        let y = _mm256_loadu_ps(b);
        _mm256_storeu_ps(a, _mm256_add_ps(x, y));
        _mm256_storeu_ps(b, _mm256_sub_ps(x, y));
        j += 8;
    }
    while j < n {
        let a = lo.add(j);
        let b = hi.add(j);
        let (x, y) = (*a, *b);
        *a = x + y;
        *b = x - y;
        j += 1;
    }
}

/// Tier-dispatched pass for any stride (the AVX2 tier needs `stride % 8
/// == 0`; shorter strides take the portable loop, which the
/// autovectorizer handles — identical adds/subs either way).
fn cross_pass_any(data: &mut [f32], stride: usize, tier: FhtTier) {
    if stride >= 8 {
        cross_pass(data, stride, tier);
    } else {
        cross_pass_portable(data, stride);
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
            cross_pass_portable(data, stride);
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_tier_matches_portable_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for n in [16usize, 1024, 2 * FHT_BLOCK] {
            let input = pseudo_random(n, 0xA7 + n as u64);
            let mut portable = input.clone();
            fht_inplace_tier(&mut portable, FhtTier::Portable);
            let mut avx2 = input;
            fht_inplace_tier(&mut avx2, FhtTier::Avx2);
            assert_eq!(portable, avx2, "n = {n}");
        }
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
            fht_inplace_opts(&mut opts, &FhtOpts::dense(FhtSchedule::Ascending));
            assert_eq!(plain, opts, "n = {n}");
        }
    }

    #[test]
    fn cascading_haar_matches_naive_hadamard() {
        for exp in 1..=9 {
            let n = 1 << exp;
            let input = pseudo_random(n, 0x4AA2 + exp as u64);
            let mut fast = input.clone();
            fht_inplace_opts(&mut fast, &FhtOpts::dense(FhtSchedule::CascadingHaar));
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
    fn cascading_haar_involution_is_exact_on_integer_inputs() {
        for n in [8usize, 256, 4096] {
            let input: Vec<f32> = (0..n).map(|i| ((i * 29 + 5) % 37) as f32 - 18.0).collect();
            let mut data = input.clone();
            let opts = FhtOpts::dense(FhtSchedule::CascadingHaar);
            fht_inplace_opts(&mut data, &opts);
            fht_inplace_opts(&mut data, &opts);
            for (i, (&got, &x)) in data.iter().zip(input.iter()).enumerate() {
                assert_eq!(got, x * n as f32, "n = {n}, element {i}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn schedules_are_tier_invariant_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for schedule in [FhtSchedule::Ascending, FhtSchedule::CascadingHaar] {
            for n in [64usize, 1024, 2 * FHT_BLOCK] {
                let input = pseudo_random(n, 0x7E + n as u64);
                let opts = FhtOpts::dense(schedule);
                let mut portable = input.clone();
                fht_inplace_opts_tier(&mut portable, &opts, FhtTier::Portable);
                let mut avx2 = input;
                fht_inplace_opts_tier(&mut avx2, &opts, FhtTier::Avx2);
                assert_eq!(portable, avx2, "{schedule}, n = {n}");
            }
        }
    }

    #[test]
    fn zero_tail_matches_full_transform_bitwise_under_both_schedules() {
        // Exhaustive-ish sweep: every schedule × many (n, nonzero_len)
        // pairs, including tails crossing the radix-8 base, the straddle
        // group and whole-group skips, plus a negative-zero lane inside
        // the live prefix (x + 0.0 must normalize it like the true add).
        for schedule in [FhtSchedule::Ascending, FhtSchedule::CascadingHaar] {
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
                    fht_inplace_opts(&mut full, &FhtOpts::dense(schedule));
                    let mut tail = padded(&live, n);
                    let opts = FhtOpts {
                        nonzero_len: nz,
                        ..FhtOpts::dense(schedule)
                    };
                    fht_inplace_opts(&mut tail, &opts);
                    let same = full
                        .iter()
                        .zip(tail.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "{schedule}, n = {n}, nz = {nz}");
                }
            }
        }
    }

    #[test]
    fn fused_signs_match_explicit_multiply_bitwise() {
        for schedule in [FhtSchedule::Ascending, FhtSchedule::CascadingHaar] {
            for n in [2usize, 4, 8, 64, 1024] {
                let input = pseudo_random(n, 0x516 + n as u64);
                let signs: Vec<f32> = (0..n)
                    .map(|i| if (i * 7 + n) % 3 == 0 { -1.0 } else { 1.0 })
                    .collect();
                let mut explicit: Vec<f32> =
                    input.iter().zip(&signs).map(|(&v, &s)| v * s).collect();
                fht_inplace_opts(&mut explicit, &FhtOpts::dense(schedule));
                let mut fused = input;
                let opts = FhtOpts {
                    first_stage_signs: Some(&signs),
                    ..FhtOpts::dense(schedule)
                };
                fht_inplace_opts(&mut fused, &opts);
                assert_eq!(explicit, fused, "{schedule}, n = {n}");
            }
        }
    }

    #[test]
    fn pruned_final_stage_keeps_live_lanes_bitwise() {
        for n in [2usize, 8, 64, 1024, 8192] {
            let input = pseudo_random(n, 0x9121 + n as u64);
            let mut full = input.clone();
            fht_inplace(&mut full);
            // Kill a deterministic scatter of lanes (both half-partners
            // dead for some pairs, one for others, none for the rest).
            let dead = |lane: usize| (lane * 2654435761usize) % 5 < 2;
            let plan = FhtPrunePlan::from_live(n, |lane| !dead(lane));
            let mut pruned = input;
            let opts = FhtOpts {
                prune: Some(&plan),
                ..FhtOpts::dense(FhtSchedule::Ascending)
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
        fht_inplace(&mut full);
        let dead = |lane: usize| lane % 7 == 3 || lane >= 1000;
        let plan = FhtPrunePlan::from_live(n, |lane| !dead(lane));
        let mut pruned = padded(&live_input, n);
        let opts = FhtOpts {
            nonzero_len: nz,
            prune: Some(&plan),
            ..FhtOpts::dense(FhtSchedule::Ascending)
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
        assert_eq!(FhtSchedule::CascadingHaar.to_string(), "cascading-haar");
        assert_eq!(FhtSchedule::default(), FhtSchedule::Ascending);
    }
}
