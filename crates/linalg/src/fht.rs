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
//! ## Fused signs
//!
//! [`fht_inplace_signed`] transforms `signs ⊙ data` for a ±1 diagonal
//! `signs`, folding the multiply into the radix-8 base's loads: the same
//! multiplies happen before the same adds, so the result is bit-identical
//! to multiplying first, and the buffer is read once instead of twice.

/// Largest sub-transform run to completion inside one cache block:
/// 4096 f32 = 16 KiB, resident in a 32 KiB L1 alongside its write stream.
const FHT_BLOCK: usize = 4096;

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
    transform(data, None);
}

/// Applies the unnormalized Walsh–Hadamard transform to `signs ⊙ data`
/// in place, for a ±1 diagonal `signs` — bit-identical to multiplying
/// `data` by `signs` lane by lane and then calling [`fht_inplace`] (see
/// the module docs).
///
/// # Panics
///
/// Panics if `signs.len() != data.len()` or the length is not a power of
/// two.
pub fn fht_inplace_signed(data: &mut [f32], signs: &[f32]) {
    assert_eq!(
        signs.len(),
        data.len(),
        "sign diagonal length must match data"
    );
    transform(data, Some(signs));
}

/// The cache-blocked ascending transform of `signs ⊙ data` (of `data`
/// when `signs` is `None`).
fn transform(data: &mut [f32], signs: Option<&[f32]>) {
    let n = data.len();
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
    // L1-resident phase: run every stride below the block size to
    // completion inside each block (one load of the block covers
    // log2(FHT_BLOCK) passes).
    let block = n.min(FHT_BLOCK);
    for (index, chunk) in data.chunks_mut(block).enumerate() {
        fht_in_cache(chunk, signs.map(|s| &s[index * block..(index + 1) * block]));
    }
    // Streaming phase: the remaining strides pair elements across blocks.
    let mut stride = block;
    while stride < n {
        cross_pass(data, stride);
        stride <<= 1;
    }
}

/// Full transform of one cache-resident block (`len ≤ FHT_BLOCK`), with
/// the optional sign diagonal applied on the first pass's loads.
fn fht_in_cache(data: &mut [f32], signs: Option<&[f32]>) {
    let n = data.len();
    let mut stride = 1;
    if n >= 8 {
        match signs {
            Some(s) => {
                for (group, sg) in data.chunks_exact_mut(8).zip(s.chunks_exact(8)) {
                    for (v, &x) in group.iter_mut().zip(sg) {
                        *v *= x;
                    }
                    butterfly8(group);
                }
            }
            None => data.chunks_exact_mut(8).for_each(butterfly8),
        }
        stride = 8;
    } else if let Some(s) = signs {
        // n ∈ {2, 4} has no radix-8 base to fuse the signs into; a plain
        // upfront multiply keeps the bits (it happens before any
        // butterfly touches the lane).
        for (v, &x) in data.iter_mut().zip(s) {
            *v *= x;
        }
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

    #[test]
    fn fused_signs_match_explicit_multiply_bitwise() {
        // Sizes below the radix-8 base, inside one cache block and across
        // blocks; the reference multiplies first, then runs the plain
        // ascending loop.
        for n in [1usize, 2, 4, 8, 16, 64, 1024, 2 * FHT_BLOCK] {
            let input = pseudo_random(n, 0x516 + n as u64);
            let signs: Vec<f32> = (0..n)
                .map(|i| if (i * 7 + n) % 3 == 0 { -1.0 } else { 1.0 })
                .collect();
            let mut explicit: Vec<f32> = input.iter().zip(&signs).map(|(&v, &s)| v * s).collect();
            fht_reference(&mut explicit);
            let mut fused = input;
            fht_inplace_signed(&mut fused, &signs);
            assert_eq!(explicit, fused, "n = {n}");
        }
    }

    #[test]
    fn schedule_displays_and_defaults_to_ascending() {
        assert_eq!(FhtSchedule::Ascending.to_string(), "ascending");
        assert_eq!(FhtSchedule::default(), FhtSchedule::Ascending);
    }
}
