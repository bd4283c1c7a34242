//! Quantize-epilogue code conversion: f32 values → small unsigned codes.
//!
//! The bit-sliced encode path quantizes encoder output *as it is stored*
//! instead of round-tripping a full f32 matrix.  The per-element math is
//! owned here so the scalar quantizer and the fused encode epilogue share
//! one definition:
//!
//! * [`sign_codes`] — the 1-bit rule, `code = (v ≥ 0)` (`−0.0` counts as
//!   non-negative, like the f32 comparison it mirrors; `NaN` does not).
//! * [`symmetric_codes`] — the 2/4/8-bit rule,
//!   `code = round(v / scale).clamp(±qmax) + qmax`, with `round` the
//!   f32 half-away-from-zero rounding of `f32::round`.
//!
//! [`sign_codes`] is a plain loop the autovectorizer handles; a
//! hand-written AVX2 kernel measured 4–8× slower.
//! [`symmetric_codes`] has an AVX2 kernel, used when the GEMM's runtime
//! detection picks its AVX2 tier (`matrix::kernel_tier`): `f32::round`
//! does not vectorize, and the portable loop measured about 2× slower.
//! The vector rounding widens the f32 quotient to f64, where `⌊|q| + ½⌋`
//! is exact (the sum cannot round for any f32 `q`), then restores the
//! sign — precisely `f32::round`'s result for every finite input, with ±∞
//! saturating to ±qmax.  Values must not be `NaN`: the scalar and vector
//! kernels are only guaranteed to agree on non-NaN input.

// The AVX2 kernel's intrinsics are inherently `unsafe`; its call site is
// guarded by the runtime tier check and it mirrors the portable op
// sequence.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use crate::matrix::kernel_tier;

/// Writes the 1-bit sign code of every value: `codes[j] = (values[j] ≥ 0)`.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Example
///
/// ```
/// use disthd_linalg::sign_codes;
///
/// let mut codes = [0u8; 4];
/// sign_codes(&[1.5, -0.25, 0.0, -0.0], &mut codes);
/// assert_eq!(codes, [1, 0, 1, 1]);
/// ```
pub fn sign_codes(values: &[f32], codes: &mut [u8]) {
    assert_eq!(values.len(), codes.len(), "code buffer length mismatch");
    for (code, &v) in codes.iter_mut().zip(values) {
        *code = u8::from(v >= 0.0);
    }
}

/// Writes the symmetric mid-tread code of every value:
/// `codes[j] = (values[j] / scale).round().clamp(−qmax, qmax) + qmax`.
///
/// `scale` must be nonzero and `qmax` in `1..=127` (the biased code must
/// fit a byte).
///
/// # Panics
///
/// Panics if the slices differ in length or `qmax` is out of range.
///
/// # Example
///
/// ```
/// use disthd_linalg::symmetric_codes;
///
/// let mut codes = [0u8; 3];
/// symmetric_codes(&[-2.0, 0.4, 9.0], 1.0, 7, &mut codes);
/// assert_eq!(codes, [5, 7, 14]); // −2, 0, +7 biased by qmax = 7
/// ```
pub fn symmetric_codes(values: &[f32], scale: f32, qmax: i32, codes: &mut [u8]) {
    assert_eq!(values.len(), codes.len(), "code buffer length mismatch");
    assert!((1..=127).contains(&qmax), "qmax out of byte range");
    #[cfg(target_arch = "x86_64")]
    if kernel_tier().has_avx2() {
        // SAFETY: the Avx2 and Avx512 tiers are only constructed after
        // runtime AVX2 detection (see `kernel_tier`).
        unsafe { symmetric_codes_avx2(values, scale, qmax, codes) };
        return;
    }
    symmetric_codes_portable(values, scale, qmax, codes);
}

fn symmetric_codes_portable(values: &[f32], scale: f32, qmax: i32, codes: &mut [u8]) {
    let limit = qmax as f32;
    for (code, &v) in codes.iter_mut().zip(values) {
        let q = (v / scale).round().clamp(-limit, limit) as i32;
        *code = (q + qmax) as u8;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn symmetric_codes_avx2(values: &[f32], scale: f32, qmax: i32, codes: &mut [u8]) {
    use core::arch::x86_64::*;
    let len = values.len();
    let main = len - len % 8;
    let scale8 = _mm256_set1_ps(scale);
    let sign_mask = _mm256_set1_pd(-0.0);
    let half = _mm256_set1_pd(0.5);
    let lo = _mm256_set1_pd(-qmax as f64);
    let hi = _mm256_set1_pd(qmax as f64);
    let bias = _mm256_set1_pd(qmax as f64);
    // Rounds four f64 lanes half-away-from-zero, clamps to ±qmax (±∞
    // saturates through the max/min pair), biases, and converts to i32 —
    // the lanes are exact small integers, so the conversion cannot round.
    let round4 = |q: __m256d| -> __m128i {
        let mag = _mm256_andnot_pd(sign_mask, q);
        let rounded = _mm256_floor_pd(_mm256_add_pd(mag, half));
        let signed = _mm256_or_pd(rounded, _mm256_and_pd(sign_mask, q));
        let clamped = _mm256_min_pd(_mm256_max_pd(signed, lo), hi);
        _mm256_cvtpd_epi32(_mm256_add_pd(clamped, bias))
    };
    let mut j = 0;
    while j < main {
        let v = _mm256_loadu_ps(values.as_ptr().add(j));
        let q = _mm256_div_ps(v, scale8);
        let lo4 = round4(_mm256_cvtps_pd(_mm256_castps256_ps128(q)));
        let hi4 = round4(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(q)));
        let mut lanes = [0i32; 8];
        _mm_storeu_si128(lanes.as_mut_ptr().cast(), lo4);
        _mm_storeu_si128(lanes.as_mut_ptr().add(4).cast(), hi4);
        for (lane, &code) in lanes.iter().enumerate() {
            codes[j + lane] = code as u8;
        }
        j += 8;
    }
    symmetric_codes_portable(&values[main..], scale, qmax, &mut codes[main..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_values(n: usize, seed: u64, span: f32) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = ((state >> 33) as f32) / (1u64 << 31) as f32;
                (u - 0.5) * 2.0 * span
            })
            .collect()
    }

    /// The 1-bit rule, one element at a time.
    fn sign_code_reference(values: &[f32]) -> Vec<u8> {
        values.iter().map(|&v| u8::from(v >= 0.0)).collect()
    }

    #[test]
    fn sign_codes_match_the_scalar_rule_and_handle_edges() {
        let mut values = lcg_values(83, 0xAB, 3.0);
        values[0] = 0.0;
        values[1] = -0.0;
        values[2] = f32::INFINITY;
        values[3] = f32::NEG_INFINITY;
        values[4] = f32::NAN;
        let mut codes = vec![9u8; values.len()];
        sign_codes(&values, &mut codes);
        assert_eq!(codes, sign_code_reference(&values));
        assert_eq!(&codes[..5], &[1, 1, 1, 0, 0]);
    }

    #[test]
    fn symmetric_codes_matches_portable_on_ties_and_extremes() {
        // Exact .5 quotients (ties round away from zero), the classic
        // f32-vs-f64 rounding trap 0.49999997, and saturating extremes.
        for (qmax, scale) in [(1, 1.5), (7, 0.37), (127, 0.011)] {
            let mut values = lcg_values(200, qmax as u64 ^ 0x51, qmax as f32 * scale * 1.5);
            values[0] = 0.5 * scale;
            values[1] = -0.5 * scale;
            values[2] = 2.5 * scale;
            values[3] = -2.5 * scale;
            values[4] = 0.499_999_97 * scale;
            values[5] = 1.0e30;
            values[6] = -1.0e30;
            values[7] = 0.0;
            values[8] = -0.0;
            let mut dispatched = vec![0u8; values.len()];
            let mut portable = vec![0u8; values.len()];
            symmetric_codes(&values, scale, qmax, &mut dispatched);
            symmetric_codes_portable(&values, scale, qmax, &mut portable);
            assert_eq!(dispatched, portable, "qmax {qmax}");
            assert_eq!(dispatched[5], (2 * qmax) as u8, "positive saturation");
            assert_eq!(dispatched[6], 0, "negative saturation");
        }
    }

    #[test]
    fn symmetric_codes_covers_every_level_exactly() {
        let qmax = 7;
        let values: Vec<f32> = (-9..=9).map(|q| q as f32).collect();
        let mut codes = vec![0u8; values.len()];
        symmetric_codes(&values, 1.0, qmax, &mut codes);
        let want: Vec<u8> = (-9i32..=9)
            .map(|q| (q.clamp(-qmax, qmax) + qmax) as u8)
            .collect();
        assert_eq!(codes, want);
    }

    #[test]
    fn tail_lengths_agree_with_portable() {
        for len in [1usize, 5, 8, 13, 16, 27] {
            let values = lcg_values(len, len as u64, 4.0);
            let mut dispatched = vec![0u8; len];
            let mut portable = vec![0u8; len];
            symmetric_codes(&values, 0.25, 127, &mut dispatched);
            symmetric_codes_portable(&values, 0.25, 127, &mut portable);
            assert_eq!(dispatched, portable);
            sign_codes(&values, &mut dispatched);
            assert_eq!(dispatched, sign_code_reference(&values));
        }
    }
}
