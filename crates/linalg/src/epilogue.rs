//! Deterministic transcendental store-phase kernels.
//!
//! The RBF encoders evaluate `0.5 · (sin(2p + c) − sin c)` once per output
//! element — by far the most expensive arithmetic in the encode hot loop
//! once the projection itself is cache-blocked.  `libm`'s `sinf` is a
//! scalar call whose result can differ between libm builds, which would
//! make encode output machine-dependent and rules out a vectorized twin.
//! This module replaces it with [`sin_det`], an in-tree sine built from a
//! fixed sequence of IEEE-754 double-precision operations per element:
//!
//! 1. reduce `x = n·π + r`, `r ∈ [−π/2, π/2)`, with `n = ⌊x/π + ½⌋` and a
//!    two-term Cody–Waite subtraction (`PI_HI + PI_LO`),
//! 2. evaluate the odd Taylor polynomial of degree 15 in `r` by Horner's
//!    rule (truncation error ≈ 6e-12, far below the f32 target),
//! 3. restore the period sign `(−1)^n` branch-free via `n/2 − ⌊n/2⌋`,
//! 4. round once to `f32`.
//!
//! Every step is a plain multiply / add / subtract / floor / convert —
//! each correctly rounded and lane-wise identical in scalar and SIMD form
//! — so results are bit-identical across vector widths, thread counts,
//! *and* machines (Rust never contracts to FMA).  Inputs beyond `|x| ≈ 1e6`
//! lose accuracy to the two-term reduction (encode arguments are small);
//! the result is still deterministic.
//!
//! [`half_angle_row`] applies the full fused-RBF store phase
//! (`scale → 2p + c → sin_det → ½(s − sin c)`) over a contiguous output
//! row as a plain loop, which the autovectorizer turns into packed f64
//! arithmetic under `target-cpu=native`; a hand-written AVX2 kernel
//! measured no faster.

/// `1/π`, rounded to f64.
const INV_PI: f64 = core::f64::consts::FRAC_1_PI;
/// High word of the two-term Cody–Waite π (the f64 nearest π).
const PI_HI: f64 = core::f64::consts::PI;
/// Low word: `π − PI_HI` to f64 precision.
const PI_LO: f64 = 1.224_646_799_147_353_2e-16;

// Odd Taylor coefficients of sin about 0; compile-time IEEE divisions.
const C3: f64 = -1.0 / 6.0;
const C5: f64 = 1.0 / 120.0;
const C7: f64 = -1.0 / 5040.0;
const C9: f64 = 1.0 / 362_880.0;
const C11: f64 = -1.0 / 39_916_800.0;
const C13: f64 = 1.0 / 6_227_020_800.0;
const C15: f64 = -1.0 / 1_307_674_368_000.0;

/// Deterministic sine: bit-identical on every vector width, thread count
/// and machine (see the module docs for the op sequence and accuracy
/// domain).
///
/// # Example
///
/// ```
/// use disthd_linalg::sin_det;
///
/// let x = 1.25f32;
/// assert!((f64::from(sin_det(x)) - f64::from(x).sin()).abs() < 1e-6);
/// ```
#[inline]
pub fn sin_det(x: f32) -> f32 {
    let xd = f64::from(x);
    let n = (xd * INV_PI + 0.5).floor();
    let r = (xd - n * PI_HI) - n * PI_LO;
    let z = r * r;
    let mut p = C15;
    p = p * z + C13;
    p = p * z + C11;
    p = p * z + C9;
    p = p * z + C7;
    p = p * z + C5;
    p = p * z + C3;
    let s = r + (p * z) * r;
    let half = n * 0.5;
    let sign = 1.0 - 4.0 * (half - half.floor());
    (s * sign) as f32
}

/// The fused RBF store-phase nonlinearity for one element:
/// `0.5 · (sin_det(2·projection + phase) − phase_sin)`.
///
/// This is the scalar reference [`half_angle_row`] is bit-identical to.
#[inline]
pub fn half_angle(projection: f32, phase: f32, phase_sin: f32) -> f32 {
    0.5 * (sin_det(2.0 * projection + phase) - phase_sin)
}

/// Applies [`half_angle`] to every element of `row` in place, reading the
/// projection as `row[j] · scale` (pass `scale = 1.0` for pre-scaled
/// projections — multiplying by one is an exact no-op, so the result is
/// bit-identical to the unscaled form).
///
/// # Panics
///
/// Panics if `phases` or `phase_sins` differ in length from `row`.
pub fn half_angle_row(row: &mut [f32], scale: f32, phases: &[f32], phase_sins: &[f32]) {
    assert_eq!(row.len(), phases.len(), "phase length mismatch");
    assert_eq!(row.len(), phase_sins.len(), "phase_sin length mismatch");
    for ((v, &phase), &phase_sin) in row.iter_mut().zip(phases).zip(phase_sins) {
        *v = half_angle(*v * scale, phase, phase_sin);
    }
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
                let u = ((state >> 33) as f32) / (1u64 << 31) as f32; // [0, 1)
                (u - 0.5) * 2.0 * span
            })
            .collect()
    }

    #[test]
    fn sin_det_tracks_reference_sine() {
        // Sweep several periods plus a large-argument spot check; the
        // two-term reduction keeps f32-accuracy well past the encode range.
        let mut x = -40.0f32;
        while x < 40.0 {
            let got = f64::from(sin_det(x));
            let want = f64::from(x).sin();
            assert!(
                (got - want).abs() < 3e-7,
                "sin_det({x}) = {got}, reference {want}"
            );
            x += 0.003_7;
        }
        for x in [1.0e4f32, -2.5e4, 9.87e4] {
            let got = f64::from(sin_det(x));
            let want = f64::from(x).sin();
            assert!((got - want).abs() < 1e-5, "sin_det({x}) = {got} vs {want}");
        }
    }

    #[test]
    fn sin_det_handles_edge_inputs() {
        assert_eq!(sin_det(0.0).to_bits(), 0.0f32.to_bits());
        assert!(sin_det(f32::NAN).is_nan());
        // Exact multiples of π land inside the polynomial's tiny-r regime.
        assert!(sin_det(core::f32::consts::PI).abs() < 1e-6);
        assert!(sin_det(-core::f32::consts::PI).abs() < 1e-6);
    }

    #[test]
    fn half_angle_row_is_bit_identical_to_scalar() {
        // Cover every tail length so the vectorized main loop and its
        // remainder both face the scalar reference.
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 31, 67, 256] {
            let phases = lcg_values(len, 0xC0FFEE, core::f32::consts::PI);
            let phase_sins: Vec<f32> = phases.iter().map(|&c| sin_det(c)).collect();
            for scale in [1.0f32, 0.73, -0.004_2] {
                let values = lcg_values(len, 0xBEEF ^ len as u64, 6.0);
                let mut fused = values.clone();
                half_angle_row(&mut fused, scale, &phases, &phase_sins);
                for j in 0..len {
                    let want = half_angle(values[j] * scale, phases[j], phase_sins[j]);
                    assert_eq!(
                        fused[j].to_bits(),
                        want.to_bits(),
                        "len {len} scale {scale} element {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn unit_scale_is_an_exact_no_op() {
        // `p · 1.0` returns `p` bitwise for every f32, so a scale of one
        // must reproduce the unscaled scalar form exactly.
        let values = lcg_values(100, 0x5EED, 4.0);
        let phases = lcg_values(100, 0x9A9A, core::f32::consts::PI);
        let phase_sins: Vec<f32> = phases.iter().map(|&c| sin_det(c)).collect();
        let mut fused = values.clone();
        half_angle_row(&mut fused, 1.0, &phases, &phase_sins);
        for j in 0..100 {
            let want = half_angle(values[j], phases[j], phase_sins[j]);
            assert_eq!(fused[j].to_bits(), want.to_bits());
        }
    }
}
