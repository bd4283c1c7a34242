//! Free functions over `&[f32]` slices.
//!
//! These are the per-row kernels used by the HDC substrate: dot products for
//! similarity, scaled accumulation (`axpy`) for the adaptive-learning model
//! update, and L2 normalization for cosine similarity.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
///
/// # Example
///
/// ```
/// let d = disthd_linalg::dot(&[1.0, 2.0], &[3.0, 4.0]);
/// assert_eq!(d, 11.0);
/// ```
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    // Four-way unrolled accumulation: keeps the compiler auto-vectorizing and
    // reduces the sequential dependency chain for long hypervectors.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0f32;
    for j in chunks * 4..a.len() {
        tail += a[j] * b[j];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Euclidean (L2) norm of a slice.
pub fn l2_norm(v: &[f32]) -> f32 {
    dot(v, v).sqrt()
}

/// Returns an L2-normalized copy of `v`.
///
/// A zero vector is returned unchanged (there is no direction to normalize
/// onto, and DistHD treats zeroed dimensions as "not yet relearned").
pub fn normalize_l2(v: &[f32]) -> Vec<f32> {
    let mut out = v.to_vec();
    normalize_l2_in_place(&mut out);
    out
}

/// L2-normalizes `v` in place; zero vectors are left untouched.
pub fn normalize_l2_in_place(v: &mut [f32]) {
    let norm = l2_norm(v);
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Cosine similarity between two equal-length slices.
///
/// Returns `0.0` when either vector has zero norm, which matches the HDC
/// convention that an untrained (all-zero) class is maximally dissimilar.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// `y += alpha * x` (the BLAS `axpy` kernel).
///
/// # Panics
///
/// Panics if `y.len() != x.len()`.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_handles_non_multiple_of_four_lengths() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&a, &b), 35.0);
    }

    #[test]
    fn dot_of_empty_slices_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_length_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn l2_norm_of_unit_axes() {
        assert!((l2_norm(&[0.0, 3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_produces_unit_vector() {
        let v = normalize_l2(&[3.0, 4.0]);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
        assert!((v[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn normalize_leaves_zero_vector_alone() {
        let v = normalize_l2(&[0.0, 0.0]);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn cosine_similarity_bounds() {
        let a = [1.0, 0.0];
        assert!((cosine_similarity(&a, &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&a, &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&a, &[0.0, 1.0]).abs() < 1e-6);
    }

    #[test]
    fn cosine_similarity_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }
}
