use super::{Encoder, RegenerativeEncoder};
use crate::quantize::{BitWidth, QuantizedMatrix};
use disthd_linalg::{
    half_angle_row, sin_det, Gaussian, Matrix, PackedRhs, RngSeed, SeededRng, ShapeError, Uniform,
};

/// The paper's RBF-inspired nonlinear encoder (§III-C).
///
/// Each output dimension `i` owns a base vector `B_i ~ N(0,1)^n` and a phase
/// `c_i ~ U[0, 2π)`; the encoding is
///
/// ```text
/// h_i = cos(B_i · F + c_i) · sin(B_i · F)
/// ```
///
/// which approximates an RBF kernel feature map (Rahimi & Recht \[21\]) and
/// captures non-linear feature interactions.  Batch encoding is a single
/// matrix product followed by the element-wise trigonometric map.
///
/// This encoder is *regenerative*: [`RegenerativeEncoder::regenerate`]
/// replaces `B_i` and `c_i` for selected dimensions — the mechanism DistHD
/// uses to replace dimensions that mislead classification.
///
/// # Example
///
/// ```
/// use disthd_hd::encoder::{Encoder, RegenerativeEncoder, RbfEncoder};
/// use disthd_linalg::{RngSeed, SeededRng};
///
/// let mut encoder = RbfEncoder::new(4, 128, RngSeed(9));
/// let before = encoder.encode(&[0.3, 0.1, 0.8, 0.5])?;
/// let mut rng = SeededRng::new(RngSeed(10));
/// encoder.regenerate(&[0, 1, 2], &mut rng);
/// let after = encoder.encode(&[0.3, 0.1, 0.8, 0.5])?;
/// assert_ne!(before[0], after[0]);      // regenerated dims change
/// assert_eq!(before[3], after[3]);      // untouched dims are stable
/// # Ok::<(), disthd_linalg::ShapeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RbfEncoder {
    /// `n x D` base matrix: column `i` is `B_i`, so a feature batch encodes
    /// as `batch · bases` in one GEMM.  Held in the GEMM's packed panel
    /// layout, so no encode call repacks it; regeneration writes columns
    /// in place.
    bases: PackedRhs,
    /// Per-dimension phases `c_i`.
    phases: Vec<f32>,
    /// Precomputed `sin(c_i)` per dimension: the nonlinearity is evaluated
    /// through the product-to-sum identity `cos(p + c)·sin(p) =
    /// ½(sin(2p + c) − sin(c))`, which needs one `sin` per element instead
    /// of a `cos` plus a `sin` — the trig epilogue is a fixed per-element
    /// cost on every encode, so halving it matters.  Kept in sync with
    /// `phases` through construction and regeneration.
    phase_sins: Vec<f32>,
    /// Standard deviation of base-vector entries (bandwidth / sqrt(n)).
    base_std: f32,
    input_dim: usize,
    output_dim: usize,
    regenerated: u64,
}

/// Default kernel bandwidth (see [`RbfEncoder::with_bandwidth`]).
pub const DEFAULT_BANDWIDTH: f32 = 3.0;

impl RbfEncoder {
    /// Creates an encoder for `input_dim` features and `output_dim`
    /// hyperdimensions with the default bandwidth.
    pub fn new(input_dim: usize, output_dim: usize, seed: RngSeed) -> Self {
        Self::with_bandwidth(input_dim, output_dim, DEFAULT_BANDWIDTH, seed)
    }

    /// Creates an encoder with an explicit kernel bandwidth `γ`.
    ///
    /// Base entries are drawn from `N(0, (γ/√n)²)` rather than the paper's
    /// literal `N(0, 1)`: for `n`-dimensional features normalized to
    /// `[0, 1]`, unit-variance bases make the projections `B_i·F` span
    /// hundreds of radians, so the `cos·sin` map wraps thousands of times
    /// and nearby inputs encode to uncorrelated hypervectors (an
    /// arbitrarily narrow RBF kernel — pure memorization).  Scaling by
    /// `γ/√n` keeps the projection spread `O(γ)` for any feature count,
    /// which is exactly the kernel-bandwidth choice the paper's grid search
    /// ("common practice to identify the best hyper-parameters", §IV-A)
    /// performs implicitly.  `γ` ≈ 2–4 works across the Table I suite.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth <= 0`.
    pub fn with_bandwidth(
        input_dim: usize,
        output_dim: usize,
        bandwidth: f32,
        seed: RngSeed,
    ) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        let base_std = bandwidth / (input_dim.max(1) as f32).sqrt();
        let mut rng = SeededRng::derive_stream(seed, 0xE7C0);
        let gaussian = Gaussian::new(0.0, base_std);
        let bases = PackedRhs::pack(&Matrix::from_fn(input_dim, output_dim, |_, _| {
            gaussian.sample(&mut rng)
        }));
        let phases = Uniform::phase().sample_vec(&mut rng, output_dim);
        let phase_sins = phases.iter().map(|&c| sin_det(c)).collect();
        Self {
            bases,
            phases,
            phase_sins,
            base_std,
            input_dim,
            output_dim,
            regenerated: 0,
        }
    }

    /// Applies the nonlinearity `cos(p + c)·sin(p)` to a row of raw
    /// projections, in place: one vectorized
    /// [`disthd_linalg::half_angle_row`] (unit scale, an exact no-op),
    /// bit-identical to [`super::half_angle_cosine`] per element.
    fn apply_nonlinearity(&self, projections: &mut [f32]) {
        half_angle_row(projections, 1.0, &self.phases, &self.phase_sins);
    }

    /// Borrows the packed base matrix (`n x D`, column `i` = `B_i`).
    pub fn bases(&self) -> &PackedRhs {
        &self.bases
    }

    /// Re-encodes only the selected dimensions of an already-encoded batch.
    ///
    /// After [`super::RegenerativeEncoder::regenerate`] replaced a handful
    /// of base vectors, the rest of the encoded matrix is still valid —
    /// recomputing just the regenerated columns costs `O(samples · |dims| ·
    /// n)` instead of a full `O(samples · D · n)` re-encode.  This partial
    /// update is the mechanical reason DistHD retrains faster than
    /// NeuralHD's re-encode-everything pipeline (Fig. 5).
    ///
    /// The regenerated base columns are copied into one small packed panel
    /// and the batch streams through a single GEMM against it, so every
    /// re-encoded value is bit-identical to a full
    /// [`Encoder::encode_batch`].  Out-of-range dims are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `batch.cols() != input_dim()` or
    /// `encoded` has the wrong shape.
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
        // One product against a panel of just the regenerated columns.
        let dims: Vec<usize> = dims
            .iter()
            .copied()
            .filter(|&d| d < self.output_dim)
            .collect();
        let mut panel = PackedRhs::new(self.input_dim, dims.len());
        for (j, &d) in dims.iter().enumerate() {
            for (k, slot) in panel.column_slots(j).enumerate() {
                *slot = self.bases.get(k, d);
            }
        }
        super::reencode_columns(
            batch,
            encoded,
            &panel,
            &dims,
            &self.phases,
            &self.phase_sins,
        );
        Ok(())
    }

    /// Borrows the per-dimension phases.
    pub fn phases(&self) -> &[f32] {
        &self.phases
    }

    /// Standard deviation of base entries (`bandwidth / sqrt(n)`), needed
    /// to persist and reconstruct the encoder.
    pub fn base_std(&self) -> f32 {
        self.base_std
    }

    /// Reassembles an encoder from persisted parts.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `phases.len() != bases.cols()`.
    pub fn from_parts(bases: Matrix, phases: Vec<f32>, base_std: f32) -> Result<Self, ShapeError> {
        if phases.len() != bases.cols() {
            return Err(ShapeError::new(
                "rbf_from_parts",
                bases.shape(),
                (1, phases.len()),
            ));
        }
        let input_dim = bases.rows();
        let output_dim = bases.cols();
        let phase_sins = phases.iter().map(|&c| sin_det(c)).collect();
        Ok(Self {
            bases: PackedRhs::pack(&bases),
            phases,
            phase_sins,
            base_std,
            input_dim,
            output_dim,
            regenerated: 0,
        })
    }

    /// Fused bit-sliced batch encode: project, apply the half-angle
    /// epilogue, optionally subtract a centering mean, and quantize each
    /// row straight into packed words — no full-precision output matrix is
    /// ever materialized.
    ///
    /// The projection runs through [`Matrix::matmul_rows_into`] against the
    /// packed bases (bit-identical to the
    /// [`Encoder::encode_batch`] GEMM for any row partition) and the
    /// epilogue through [`disthd_linalg::half_angle_row`] (bit-identical to
    /// the scalar half-angle map), so the result equals quantizing the
    /// centered f32 encode of the same batch **bit for bit**, at every
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
                "rbf_encode_quantized",
                batch.shape(),
                (self.input_dim, self.output_dim),
            ));
        }
        if let Some(means) = center {
            if means.len() != self.output_dim {
                return Err(ShapeError::new(
                    "rbf_encode_quantized",
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
                batch
                    .matmul_rows_into(&self.bases, first_row, values)
                    .expect("shapes validated above");
                for row in values.chunks_exact_mut(cols) {
                    self.apply_nonlinearity(row);
                    if let Some(means) = center {
                        for (v, &mu) in row.iter_mut().zip(means) {
                            *v -= mu;
                        }
                    }
                }
            },
        ))
    }
}

impl Encoder for RbfEncoder {
    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn output_dim(&self) -> usize {
        self.output_dim
    }

    fn encode(&self, features: &[f32]) -> Result<Vec<f32>, ShapeError> {
        if features.len() != self.input_dim {
            return Err(ShapeError::new(
                "rbf_encode",
                (1, features.len()),
                (self.input_dim, self.output_dim),
            ));
        }
        // A one-row batch: the same GEMM chain as every `encode_batch`
        // row, so single and batched queries encode bit for bit alike.
        let query = Matrix::from_vec(1, self.input_dim, features.to_vec())?;
        Ok(self.encode_batch(&query)?.into_vec())
    }

    fn encode_batch(&self, batch: &Matrix) -> Result<Matrix, ShapeError> {
        // The cos·sin map runs over each output row inside the GEMM work
        // unit that computed it, while the row is still in cache.
        batch.matmul_prepacked_rows(&self.bases, |row| self.apply_nonlinearity(row))
    }
}

impl RegenerativeEncoder for RbfEncoder {
    fn regenerate(&mut self, dims: &[usize], rng: &mut SeededRng) {
        let gaussian = Gaussian::new(0.0, self.base_std);
        let phase = Uniform::phase();
        for &d in dims {
            if d >= self.output_dim {
                continue;
            }
            for slot in self.bases.column_slots(d) {
                *slot = gaussian.sample(rng);
            }
            self.phases[d] = phase.sample(rng);
            self.phase_sins[d] = sin_det(self.phases[d]);
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

    fn encoder() -> RbfEncoder {
        RbfEncoder::new(6, 200, RngSeed(42))
    }

    #[test]
    fn output_is_bounded_by_unit_interval() {
        let enc = encoder();
        let hv = enc.encode(&[0.9, -0.5, 0.1, 2.0, -1.5, 0.3]).unwrap();
        assert!(hv.iter().all(|h| (-1.0..=1.0).contains(h)));
    }

    #[test]
    fn encode_is_deterministic() {
        let enc = encoder();
        let a = enc.encode(&[0.1; 6]).unwrap();
        let b = enc.encode(&[0.1; 6]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn same_seed_same_encoder() {
        let a = RbfEncoder::new(6, 64, RngSeed(5))
            .encode(&[0.2; 6])
            .unwrap();
        let b = RbfEncoder::new(6, 64, RngSeed(5))
            .encode(&[0.2; 6])
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn batch_encode_matches_single_encode() {
        let enc = encoder();
        let rows = vec![
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            vec![-1.0, 0.0, 1.0, 0.5, -0.5, 0.25],
        ];
        let batch = Matrix::from_rows(&rows).unwrap();
        let encoded = enc.encode_batch(&batch).unwrap();
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(enc.encode(row).unwrap(), encoded.row(r), "row {r}");
        }
    }

    #[test]
    fn fused_encode_matches_reference_path() {
        // All-nonzero features keep the reference kernel's sparse skip
        // inactive, so the fused GEMM-epilogue path performs the same
        // k-ascending accumulation and the same cos·sin map.  On
        // FMA-capable machines the GEMM fuses each multiply-add into one
        // rounding (the reference kernel rounds twice), so the projections
        // agree to ≤ 1 ulp per accumulation step; the nonlinearity is
        // 1-Lipschitz in the projection, so a small absolute tolerance
        // covers every tier.
        let enc = encoder();
        let batch = Matrix::from_fn(9, 6, |r, c| 0.1 + 0.07 * (r * 6 + c + 1) as f32);
        let fused = enc.encode_batch(&batch).unwrap();
        let mut reference = batch.matmul_reference(&enc.bases().to_matrix()).unwrap();
        for r in 0..reference.rows() {
            enc.apply_nonlinearity(reference.row_mut(r));
        }
        for (i, (&a, &b)) in fused
            .as_slice()
            .iter()
            .zip(reference.as_slice().iter())
            .enumerate()
        {
            assert!(
                (a - b).abs() < 1e-5,
                "element {i}: fused {a} vs reference {b}"
            );
        }
    }

    #[test]
    fn encode_batch_is_bit_identical_across_thread_counts() {
        let enc = RbfEncoder::new(6, 1030, RngSeed(21));
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
    fn nearby_inputs_encode_to_similar_hypervectors() {
        let enc = RbfEncoder::new(6, 2048, RngSeed(7));
        let a = enc.encode(&[0.5, 0.5, 0.5, 0.5, 0.5, 0.5]).unwrap();
        let b = enc.encode(&[0.51, 0.5, 0.5, 0.5, 0.5, 0.5]).unwrap();
        let c = enc.encode(&[-0.9, 0.9, -0.9, 0.9, -0.9, 0.9]).unwrap();
        let sim_ab = disthd_linalg::cosine_similarity(&a, &b);
        let sim_ac = disthd_linalg::cosine_similarity(&a, &c);
        assert!(sim_ab > sim_ac, "locality: {sim_ab} vs {sim_ac}");
        assert!(sim_ab > 0.9);
    }

    #[test]
    fn regeneration_changes_only_selected_dims() {
        let mut enc = encoder();
        let input = [0.3, -0.2, 0.7, 0.1, 0.9, -0.4];
        let before = enc.encode(&input).unwrap();
        let mut rng = SeededRng::new(RngSeed(99));
        enc.regenerate(&[3, 5, 11], &mut rng);
        let after = enc.encode(&input).unwrap();
        for i in 0..enc.output_dim() {
            if [3, 5, 11].contains(&i) {
                assert_ne!(before[i], after[i], "dim {i} should change");
            } else {
                assert_eq!(before[i], after[i], "dim {i} should be stable");
            }
        }
        assert_eq!(enc.regenerated_count(), 3);
    }

    #[test]
    fn regeneration_through_the_packed_bases_matches_the_dense_layout() {
        // Regenerate twice, the second call re-drawing a dim the first one
        // already replaced.  The packed bases must hold exactly what the
        // row-major layout would (same draw order: n Gaussians per column,
        // then its phase), batch encode must equal the per-call-packing
        // GEMM bit for bit, and single-row encode must equal its batch row.
        let mut enc = RbfEncoder::new(6, 37, RngSeed(4));
        let mut dense = enc.bases().to_matrix();
        let mut phases = enc.phases().to_vec();
        let mut rng = SeededRng::new(RngSeed(77));
        let mut mirror = SeededRng::new(RngSeed(77));
        let gaussian = Gaussian::new(0.0, enc.base_std());
        for dims in [&[3usize, 16, 36][..], &[16, 0, 99]] {
            enc.regenerate(dims, &mut rng);
            for &d in dims.iter().filter(|&&d| d < 37) {
                for k in 0..6 {
                    dense.set(k, d, gaussian.sample(&mut mirror));
                }
                phases[d] = Uniform::phase().sample(&mut mirror);
            }
        }
        assert_eq!(enc.bases().to_matrix(), dense);
        assert_eq!(enc.phases(), phases.as_slice());

        let batch = Matrix::from_fn(5, 6, |r, c| {
            if c == r {
                0.0
            } else {
                0.3 * c as f32 - 0.1 * r as f32
            }
        });
        let expected = batch
            .matmul_map(&dense, |d, p| {
                crate::encoder::half_angle_cosine(p, enc.phases[d], enc.phase_sins[d])
            })
            .unwrap();
        assert_eq!(
            enc.encode_batch(&batch).unwrap().as_slice(),
            expected.as_slice()
        );
        for r in 0..batch.rows() {
            assert_eq!(
                enc.encode(batch.row(r)).unwrap(),
                expected.row(r),
                "row {r}"
            );
        }
    }

    #[test]
    fn regeneration_ignores_out_of_range_dims() {
        let mut enc = encoder();
        let mut rng = SeededRng::new(RngSeed(1));
        enc.regenerate(&[9999], &mut rng);
        assert_eq!(enc.regenerated_count(), 0);
    }

    #[test]
    fn encode_rejects_wrong_arity() {
        assert!(encoder().encode(&[0.0; 5]).is_err());
    }

    #[test]
    fn partial_reencode_matches_full_reencode() {
        // 150 rows span three re-encode chunks; dim 7 is requested twice
        // and 999 is out of range.
        let mut enc = encoder();
        let batch = Matrix::from_fn(150, 6, |r, c| ((r * 6 + c) as f32 * 0.13).sin());
        let mut encoded = enc.encode_batch(&batch).unwrap();
        let mut rng = SeededRng::new(RngSeed(13));
        let dims = [2usize, 7, 30, 199, 7, 999];
        enc.regenerate(&dims, &mut rng);
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
    fn partial_reencode_validates_shapes() {
        let enc = encoder();
        let batch = Matrix::zeros(2, 6);
        let mut wrong = Matrix::zeros(2, 10);
        assert!(enc.reencode_dims(&batch, &mut wrong, &[0]).is_err());
        let bad_batch = Matrix::zeros(2, 3);
        let mut encoded = Matrix::zeros(2, 200);
        assert!(enc.reencode_dims(&bad_batch, &mut encoded, &[0]).is_err());
    }
}
