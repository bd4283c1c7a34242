//! Random bit-flip fault injection (the Fig. 8 hardware-error model).
//!
//! The paper's robustness study flips a percentage of random bits in the
//! memory storing the model.  [`flip_random_bits`] applies exactly
//! `round(rate * payload_bits)` distinct flips to a [`QuantizedMatrix`], the
//! packed class memory that the Fig. 8 campaigns (`disthd_eval::robustness`)
//! fault at every bit width.

use crate::quantize::QuantizedMatrix;
use disthd_linalg::SeededRng;

/// Flips `round(rate * payload_bits)` distinct random bits of `model`.
///
/// Returns the number of bits flipped.  `rate` is clamped to `[0, 1]`.
///
/// # Example
///
/// ```
/// use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
/// use disthd_hd::noise::flip_random_bits;
/// use disthd_linalg::{Matrix, RngSeed, SeededRng};
///
/// let m = Matrix::from_fn(4, 32, |r, c| (r as f32) - (c as f32) / 16.0);
/// let mut q = QuantizedMatrix::quantize(&m, BitWidth::B8);
/// let mut rng = SeededRng::new(RngSeed(1));
/// let flipped = flip_random_bits(&mut q, 0.05, &mut rng);
/// assert_eq!(flipped, (0.05f64 * q.payload_bits() as f64).round() as usize);
/// ```
pub fn flip_random_bits(model: &mut QuantizedMatrix, rate: f64, rng: &mut SeededRng) -> usize {
    let total = model.payload_bits();
    let count = target_flip_count(total, rate);
    for idx in sample_distinct(total, count, rng) {
        model.flip_bit(idx);
    }
    count
}

/// Number of flips for a given payload size and rate.
fn target_flip_count(total_bits: usize, rate: f64) -> usize {
    ((total_bits as f64) * rate.clamp(0.0, 1.0)).round() as usize
}

/// Samples `count` distinct indices from `0..total` (Floyd's algorithm).
fn sample_distinct(total: usize, count: usize, rng: &mut SeededRng) -> Vec<usize> {
    use std::collections::HashSet;
    let count = count.min(total);
    if count == 0 {
        return Vec::new();
    }
    // Floyd's sampling: O(count) expected draws, no O(total) shuffle.
    let mut chosen: HashSet<usize> = HashSet::with_capacity(count);
    for j in total - count..total {
        let t = rng.next_index(j + 1);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::BitWidth;
    use disthd_linalg::{Matrix, RngSeed};

    #[test]
    fn flip_count_matches_rate() {
        let m = Matrix::from_fn(8, 100, |r, c| (r + c) as f32);
        let mut q = QuantizedMatrix::quantize(&m, BitWidth::B8);
        let mut rng = SeededRng::new(RngSeed(3));
        let flipped = flip_random_bits(&mut q, 0.10, &mut rng);
        assert_eq!(flipped, (0.10_f64 * (8.0 * 100.0 * 8.0)).round() as usize);
    }

    #[test]
    fn zero_rate_is_identity() {
        let m = Matrix::from_fn(4, 16, |r, c| (r * c) as f32);
        let q0 = QuantizedMatrix::quantize(&m, BitWidth::B4);
        let mut q1 = q0.clone();
        let mut rng = SeededRng::new(RngSeed(4));
        assert_eq!(flip_random_bits(&mut q1, 0.0, &mut rng), 0);
        assert_eq!(q0.dequantize().as_slice(), q1.dequantize().as_slice());
    }

    #[test]
    fn full_rate_flips_every_bit() {
        let m = Matrix::from_fn(2, 8, |_, _| 1.0);
        let mut q = QuantizedMatrix::quantize(&m, BitWidth::B1);
        let mut rng = SeededRng::new(RngSeed(5));
        let flipped = flip_random_bits(&mut q, 1.0, &mut rng);
        assert_eq!(flipped, 16);
        // 1-bit code 1 (positive) flipped everywhere -> all negative.
        assert!(q.dequantize().as_slice().iter().all(|&v| v < 0.0));
    }

    #[test]
    fn rate_above_one_is_clamped() {
        let m = Matrix::from_fn(1, 8, |_, _| 1.0);
        let mut q = QuantizedMatrix::quantize(&m, BitWidth::B1);
        let mut rng = SeededRng::new(RngSeed(6));
        assert_eq!(flip_random_bits(&mut q, 5.0, &mut rng), 8);
    }

    #[test]
    fn flips_are_distinct() {
        // Flipping the same bit twice would cancel; at rate 1.0 every value
        // must change, which can only happen if all flips are distinct.
        let m = Matrix::from_fn(4, 64, |_, _| 1.0);
        let q0 = QuantizedMatrix::quantize(&m, BitWidth::B1);
        let mut q1 = q0.clone();
        let mut rng = SeededRng::new(RngSeed(7));
        flip_random_bits(&mut q1, 1.0, &mut rng);
        let a = q0.dequantize();
        let b = q1.dequantize();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_ne!(x, y);
        }
    }

    #[test]
    fn sample_distinct_covers_range_without_duplicates() {
        let mut rng = SeededRng::new(RngSeed(9));
        let mut s = sample_distinct(50, 50, &mut rng);
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }
}
