//! Property-based tests (proptest) on the core data structures and the
//! HDC invariants the paper's algorithms rely on.

use disthd::io::{load_deployed, save_deployed};
use disthd::DeployedModel;
use disthd_hd::center::EncodingCenter;
use disthd_hd::encoder::{
    AnyRbfEncoder, Encoder, RbfEncoder, RegenerativeEncoder, StructuredRbfEncoder,
};
use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
use disthd_hd::ClassModel;
use disthd_linalg::{dot_gemm_order, half_angle, parallel, sin_det};
use disthd_linalg::{Matrix, RngSeed, SeededRng};
use proptest::prelude::*;

fn feature_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.0f32..1.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The RBF encoding is always bounded by the product of a cosine and a
    /// sine: every component lies in [-1, 1].
    #[test]
    fn rbf_encoding_is_bounded(features in feature_vec(8), seed in 0u64..1000) {
        let encoder = RbfEncoder::new(8, 64, RngSeed(seed));
        let hv = encoder.encode(&features).expect("encode");
        prop_assert!(hv.iter().all(|h| (-1.0..=1.0).contains(h)));
    }

    /// Encoding is a pure function of (encoder, input).
    #[test]
    fn rbf_encoding_is_deterministic(features in feature_vec(8)) {
        let encoder = RbfEncoder::new(8, 64, RngSeed(7));
        let a = encoder.encode(&features).expect("encode");
        let b = encoder.encode(&features).expect("encode");
        prop_assert_eq!(a, b);
    }

    /// Regenerating a set of dimensions never changes the others.
    #[test]
    fn regeneration_is_local(
        features in feature_vec(8),
        dims in proptest::collection::btree_set(0usize..64, 1..10),
        seed in 0u64..1000,
    ) {
        let mut encoder = RbfEncoder::new(8, 64, RngSeed(3));
        let before = encoder.encode(&features).expect("encode");
        let dims: Vec<usize> = dims.into_iter().collect();
        let mut rng = SeededRng::new(RngSeed(seed));
        encoder.regenerate(&dims, &mut rng);
        let after = encoder.encode(&features).expect("encode");
        for d in 0..64 {
            if !dims.contains(&d) {
                prop_assert_eq!(before[d], after[d], "dim {} must be stable", d);
            }
        }
    }

    /// Batch encoding equals per-sample encoding.
    #[test]
    fn batch_encoding_matches_single(rows in proptest::collection::vec(feature_vec(6), 1..5)) {
        let encoder = RbfEncoder::new(6, 32, RngSeed(11));
        let batch = Matrix::from_rows(&rows).expect("matrix");
        let encoded = encoder.encode_batch(&batch).expect("batch");
        for (r, row) in rows.iter().enumerate() {
            let single = encoder.encode(row).expect("single");
            for (a, b) in encoded.row(r).iter().zip(&single) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
    }

    /// The blocked GEMM agrees with the scalar reference kernel on
    /// arbitrary shapes (tile remainders included).
    #[test]
    fn blocked_matmul_matches_reference(
        m in 1usize..12,
        k in 1usize..24,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(RngSeed(seed));
        let a = Matrix::from_fn(m, k, |_, _| rng.next_unit() - 0.5);
        let b = Matrix::from_fn(k, n, |_, _| rng.next_unit() - 0.5);
        let blocked = a.matmul(&b).expect("matmul");
        let reference = a.matmul_reference(&b).expect("reference");
        for (x, y) in blocked.as_slice().iter().zip(reference.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-5 * (1.0 + y.abs()), "{} vs {}", x, y);
        }
    }

    /// The parallel GEMM is bit-identical to serial at any worker count —
    /// the backend's determinism contract.  Shapes are kept above the
    /// kernel's serial-fallback threshold so threads actually run.
    #[test]
    fn matmul_is_thread_count_invariant(
        m in 9usize..17,
        k in 256usize..300,
        n in 1024usize..1100,
        threads in 2usize..9,
        seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(RngSeed(seed));
        let a = Matrix::from_fn(m, k, |_, _| rng.next_unit() - 0.5);
        let b = Matrix::from_fn(k, n, |_, _| rng.next_unit() - 0.5);
        let serial = parallel::with_thread_count(1, || a.matmul(&b).expect("matmul"));
        let threaded = parallel::with_thread_count(threads, || a.matmul(&b).expect("matmul"));
        prop_assert_eq!(serial.as_slice(), threaded.as_slice());
    }

    /// 8-bit quantization reconstructs within one quantization step of the
    /// per-row maximum magnitude.
    #[test]
    fn quantization_error_is_bounded(rows in proptest::collection::vec(feature_vec(16), 1..4)) {
        let m = Matrix::from_rows(&rows).expect("matrix");
        let back = QuantizedMatrix::quantize(&m, BitWidth::B8).dequantize();
        for r in 0..m.rows() {
            let max_abs = m.row(r).iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            let step = max_abs / 127.0;
            for (a, b) in m.row(r).iter().zip(back.row(r)) {
                prop_assert!((a - b).abs() <= step + 1e-6,
                    "value {} reconstructed as {} (step {})", a, b, step);
            }
        }
    }

    /// Quantization at any width preserves matrix shape and finiteness.
    #[test]
    fn quantization_preserves_shape(rows in proptest::collection::vec(feature_vec(16), 1..4)) {
        let m = Matrix::from_rows(&rows).expect("matrix");
        for width in BitWidth::all() {
            let back = QuantizedMatrix::quantize(&m, width).dequantize();
            prop_assert_eq!(back.shape(), m.shape());
            prop_assert!(back.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    /// Bundling a hypervector into a class makes it (weakly) more similar
    /// to that class.
    #[test]
    fn bundling_increases_similarity(hv in feature_vec(32), seed in 0u64..1000) {
        prop_assume!(hv.iter().any(|&v| v.abs() > 0.1));
        let mut rng = SeededRng::new(RngSeed(seed));
        let mut model = ClassModel::new(2, 32);
        // Start both classes from random noise.
        for c in 0..2 {
            let noise: Vec<f32> = (0..32).map(|_| rng.next_unit() - 0.5).collect();
            model.bundle_into(c, &noise);
        }
        let before = model.similarities(&hv).expect("sims")[0];
        model.bundle_into(0, &hv);
        let after = model.similarities(&hv).expect("sims")[0];
        prop_assert!(after >= before - 1e-4, "similarity {} -> {}", before, after);
    }

    /// Top-k accuracy is monotone in k.
    #[test]
    fn top_k_accuracy_is_monotone(
        scores in proptest::collection::vec(proptest::collection::vec(0.0f32..1.0, 5), 1..10),
        labels_seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(RngSeed(labels_seed));
        let labels: Vec<usize> = (0..scores.len()).map(|_| rng.next_index(5)).collect();
        let mut last = 0.0f64;
        for k in 1..=5 {
            let acc = disthd_eval::top_k_accuracy(&scores, &labels, k);
            prop_assert!(acc >= last - 1e-12);
            last = acc;
        }
        prop_assert!((last - 1.0).abs() < 1e-12, "top-5 of 5 classes must be 1.0");
    }

    /// AUC is always within [0, 1] and the curve endpoints are fixed.
    #[test]
    fn roc_curve_is_well_formed(
        scores in proptest::collection::vec(-1.0f32..1.0, 2..40),
        labels_seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(RngSeed(labels_seed));
        let labels: Vec<bool> = (0..scores.len()).map(|_| rng.next_bool(0.5)).collect();
        let curve = disthd_eval::roc_curve(&scores, &labels);
        let auc = disthd_eval::auc(&curve);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&auc));
        let first = curve.first().expect("non-empty");
        let last = curve.last().expect("non-empty");
        prop_assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        prop_assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
    }

    /// Structured batch encodes are bit-identical across thread counts
    /// after regeneration, with the reserve lanes in play.
    #[test]
    fn structured_encode_is_thread_count_invariant(
        rows in proptest::collection::vec(feature_vec(6), 24..32),
        threads in 2usize..9,
        seed in 0u64..100,
    ) {
        let mut encoder = StructuredRbfEncoder::new(6, 256, RngSeed(seed));
        let mut rng = SeededRng::new(RngSeed(seed ^ 0xD1D));
        encoder.regenerate(&[0, 7, 31, 64, 128, 255], &mut rng);
        let batch = Matrix::from_rows(&rows).expect("matrix");
        let serial = parallel::with_thread_count(1, || encoder.encode_batch(&batch).expect("batch"));
        let threaded =
            parallel::with_thread_count(threads, || encoder.encode_batch(&batch).expect("batch"));
        prop_assert_eq!(serial.as_slice(), threaded.as_slice());
    }

    /// `reencode_dims` returns exactly the full encode's values (bitwise)
    /// on every dim it recomputes, on the backbone or on a reserve lane.
    #[test]
    fn reencode_dims_matches_full_encode(
        features in feature_vec(6),
        dims in proptest::collection::btree_set(0usize..256, 1..12),
        seed in 0u64..100,
    ) {
        let mut encoder = StructuredRbfEncoder::new(6, 256, RngSeed(seed));
        let mut rng = SeededRng::new(RngSeed(seed ^ 0x5EED));
        encoder.regenerate(&[3, 97, 200], &mut rng);
        let full = encoder.encode(&features).expect("encode");
        let dims: Vec<usize> = dims.into_iter().collect();
        let batch = Matrix::from_rows(&[features]).expect("matrix");
        let mut patched = Matrix::zeros(1, 256);
        encoder.reencode_dims(&batch, &mut patched, &dims).expect("reencode");
        for &d in &dims {
            prop_assert_eq!(patched.row(0)[d].to_bits(), full[d].to_bits(), "dim {}", d);
        }
    }

    /// Stratified splits partition every class in the requested proportion.
    #[test]
    fn stratified_split_partitions(
        per_class in 4usize..20,
        seed in 0u64..1000,
    ) {
        let k = 3usize;
        let n = per_class * k;
        let features = Matrix::from_fn(n, 2, |r, c| (r * 2 + c) as f32);
        let labels: Vec<usize> = (0..n).map(|i| i % k).collect();
        let data = disthd_datasets::Dataset::new(features, labels, k).expect("dataset");
        let mut rng = SeededRng::new(RngSeed(seed));
        let (train, test) = disthd_datasets::split::stratified_split(&data, 0.25, &mut rng)
            .expect("split");
        prop_assert_eq!(train.len() + test.len(), n);
        let expected = ((per_class as f64) * 0.25).round() as usize;
        for count in test.class_histogram() {
            prop_assert_eq!(count, expected);
        }
    }
}

/// Plain ascending-stride Walsh–Hadamard transform, one butterfly at a
/// time: the FHT oracle.
fn fht_oracle(data: &mut [f32]) {
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

/// `half_angle` with the phase sine computed here, not read from a cache.
fn oracle_epilogue(projection: f32, phase: f32) -> f32 {
    half_angle(projection, phase, sin_det(phase))
}

/// Per-dim scalar oracle of one structured encode, from the persisted
/// parts only.  The block plan is re-derived from the shape: full-pad
/// blocks read every feature into a zero-padded transform of `block_dim`
/// lanes; half-block blocks read alternating head and tail windows, and a
/// ragged last one shrinks to the next power of two of its width (at least
/// 8 lanes).  Reserve blocks follow as full `block_dim`-lane blocks that
/// continue the window rotation, each lane going to the dim the lane map
/// names.  Each block is three sign multiplies and scalar transforms, then
/// the scale and `half_angle`.
fn structured_oracle(enc: &StructuredRbfEncoder, x: &[f32]) -> Vec<f32> {
    let (f, d, bd) = (enc.input_dim(), enc.output_dim(), enc.block_dim());
    let words = enc.packed_signs();
    let sign = |i: usize| {
        if (words[i / 64] >> (i % 64)) & 1 == 1 {
            1.0f32
        } else {
            -1.0
        }
    };
    let half_block = bd != f.next_power_of_two();
    let base_std = enc.base_std();
    let phases = enc.phases();
    let lane_map = enc.reserve_lanes();
    // (first output, outputs, transform lanes) of every block; reserve
    // outputs are lanes.
    let backbone = (0..d).step_by(bd).map(|out_start| {
        let width = (d - out_start).min(bd);
        let td = if half_block && width < bd {
            width.next_power_of_two().max(8.min(bd))
        } else {
            bd
        };
        (out_start, width.min(td), td)
    });
    let backbone_blocks = d.div_ceil(bd);
    let reserve = (0..lane_map.len()).step_by(bd).map(|lane| (lane, bd, bd));
    let mut out = vec![f32::NAN; d];
    let mut offset = 0;
    for (b, (out_start, width, td)) in backbone.chain(reserve).enumerate() {
        let (window_start, window_len, scale) = if half_block {
            let start = if b % 2 == 0 { 0 } else { f - td };
            (
                start,
                td,
                base_std * (f as f32 / td as f32).sqrt() / td as f32,
            )
        } else {
            (0, f, base_std / td as f32)
        };
        let mut lanes = vec![0.0f32; td];
        for (i, lane) in lanes[..window_len].iter_mut().enumerate() {
            *lane = x[window_start + i] * sign(offset + i);
        }
        fht_oracle(&mut lanes);
        for stage in 1..3 {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane *= sign(offset + stage * td + i);
            }
            fht_oracle(&mut lanes);
        }
        offset += 3 * td;
        for (i, &raw) in lanes[..width].iter().enumerate() {
            let dim = if b < backbone_blocks {
                out_start + i
            } else {
                match lane_map[out_start + i] {
                    StructuredRbfEncoder::FREE_LANE => continue,
                    dim => dim as usize,
                }
            };
            out[dim] = oracle_epilogue(raw * scale, phases[dim]);
        }
    }
    assert_eq!(offset, enc.sign_count(), "re-derived block plan");
    out
}

/// Per-dim scalar oracle of one dense batch-encode row:
/// `dot_gemm_order` against the dim's base column, then `half_angle`.
fn dense_oracle(enc: &RbfEncoder, x: &[f32]) -> Vec<f32> {
    let bases = enc.bases().to_matrix();
    (0..enc.output_dim())
        .map(|dim| oracle_epilogue(dot_gemm_order(x, &bases.column(dim)), enc.phases()[dim]))
        .collect()
}

/// The oracle of every batch path, one row per sample.
fn batch_oracle(enc: &AnyRbfEncoder, batch: &Matrix) -> Matrix {
    let rows: Vec<Vec<f32>> = (0..batch.rows())
        .map(|r| match enc {
            AnyRbfEncoder::Dense(e) => dense_oracle(e, batch.row(r)),
            AnyRbfEncoder::Structured(e) => structured_oracle(e, batch.row(r)),
        })
        .collect();
    Matrix::from_rows(&rows).expect("oracle rows")
}

fn assert_bitwise(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        panic!(
            "{what}: element {i} is {} against the oracle's {}",
            got[i], want[i]
        );
    }
}

/// Holds `encode_batch`, `encode_batch_quantized` (8-bit, with and
/// without a center) and single-row `encode` to the oracle.
fn check_encode_paths(enc: &AnyRbfEncoder, batch: &Matrix, what: &str) {
    let oracle = batch_oracle(enc, batch);
    let encoded = enc.encode_batch(batch).expect("encode_batch");
    assert_bitwise(
        encoded.as_slice(),
        oracle.as_slice(),
        &format!("{what}: encode_batch"),
    );
    let center: Vec<f32> = (0..enc.output_dim())
        .map(|i| ((i * 7919) % 101) as f32 / 400.0 - 0.125)
        .collect();
    let mut centered = oracle.clone();
    for r in 0..centered.rows() {
        for (v, &mu) in centered.row_mut(r).iter_mut().zip(&center) {
            *v -= mu;
        }
    }
    for (means, expected) in [(None, &oracle), (Some(center.as_slice()), &centered)] {
        let quantized = enc
            .encode_batch_quantized(batch, means, BitWidth::B8)
            .expect("encode_batch_quantized");
        let reference = QuantizedMatrix::quantize(expected, BitWidth::B8);
        let at = format!("{what}: encode_batch_quantized, center {}", means.is_some());
        assert_eq!(quantized.as_words(), reference.as_words(), "{at}");
        assert_bitwise(quantized.scales(), reference.scales(), &at);
    }
    for r in 0..batch.rows() {
        let single = enc.encode(batch.row(r)).expect("encode");
        assert_bitwise(&single, oracle.row(r), &format!("{what}: encode, row {r}"));
    }
}

/// Every encode path of both encoders, bit for bit against one per-dim
/// scalar oracle: half-block and full-pad structured shapes with ragged
/// last blocks, about 20 % scattered regenerated dims, a second
/// regeneration that re-draws half of them, a third that recycles the
/// lanes the second freed, `reencode_dims` after each regeneration, and a
/// DHD save/load.  The 48-row batches are tall enough to fan out
/// over the worker pool, and 8-, 9-, 12- and 17-row batches end in each
/// GEMM row tile; CI runs this at `DISTHD_THREADS` 1 and 4.
#[test]
fn structured_and_dense_encode_paths_match_the_scalar_oracle() {
    // F = 40: half-block (32 lanes), D = 1000 ends in an 8-lane ragged
    // block.  F = 56: full pad (8 zero lanes of 64), D = 1000 ends in a
    // block that consumes 40 of its 64 lanes.  Then a dense encoder.
    let encoders = [
        AnyRbfEncoder::Structured(StructuredRbfEncoder::new(40, 1000, RngSeed(61))),
        AnyRbfEncoder::Structured(StructuredRbfEncoder::new(56, 1000, RngSeed(62))),
        AnyRbfEncoder::Dense(RbfEncoder::new(40, 300, RngSeed(63))),
    ];
    for (case, mut enc) in encoders.into_iter().enumerate() {
        let (f, d) = (enc.input_dim(), enc.output_dim());
        let batch = Matrix::from_fn(48, f, |r, c| {
            if (r + c) % 11 == 0 {
                0.0
            } else {
                ((r * f + c) as f32 * 0.37).sin()
            }
        });
        // The full batch, then short ones whose heights end in every row
        // tile of the GEMM kernels (8-row and 4-row tiles, single rows).
        let check_heights = |enc: &AnyRbfEncoder, what: &str| {
            check_encode_paths(enc, &batch, what);
            for rows in [8usize, 9, 12, 17] {
                let head: Vec<usize> = (0..rows).collect();
                let at = format!("{what}, {rows} rows");
                check_encode_paths(enc, &batch.select_rows(&head), &at);
            }
        };
        check_heights(&enc, &format!("case {case}, fresh"));
        // About 20 % of the dims, scattered; then a second draw that
        // re-draws half of them and adds a few more, and a third that
        // re-draws a third of the first set again, taking the lanes the
        // second call freed.
        let first: Vec<usize> = (0..d).filter(|i| (i * 2654435761) % 5 == 0).collect();
        let second: Vec<usize> = first
            .iter()
            .copied()
            .step_by(2)
            .chain([1, d - 1, d + 5])
            .collect();
        let third: Vec<usize> = first.iter().copied().skip(1).step_by(3).collect();
        let mut rng = SeededRng::new(RngSeed(64 + case as u64));
        let mut lane_counts = Vec::new();
        for (round, dims) in [first, second, third].iter().enumerate() {
            let mut encoded = enc.encode_batch(&batch).expect("encode_batch");
            enc.regenerate(dims, &mut rng);
            let what = format!("case {case}, regeneration {round}");
            check_heights(&enc, &what);
            let requested: Vec<usize> = dims.iter().copied().chain([0, 3, 3, d / 2]).collect();
            enc.reencode_dims(&batch, &mut encoded, &requested)
                .expect("reencode_dims");
            let oracle = batch_oracle(&enc, &batch);
            assert_bitwise(
                encoded.as_slice(),
                oracle.as_slice(),
                &format!("{what}: reencode_dims"),
            );
            if let AnyRbfEncoder::Structured(e) = &enc {
                lane_counts.push(e.reserve_lanes().len());
            }
        }
        if let AnyRbfEncoder::Structured(e) = &enc {
            // Every distinct regenerated dim owns one lane; the third call
            // fitted in lanes freed by the second, so the reserve did not
            // grow, and it stays within 2·D + block_dim.
            let owned = e
                .reserve_lanes()
                .iter()
                .filter(|&&dim| dim != StructuredRbfEncoder::FREE_LANE)
                .count();
            assert!(owned > d / 5, "case {case}: {owned} owned lanes");
            assert_eq!(
                lane_counts[2], lane_counts[1],
                "case {case}: {lane_counts:?}"
            );
            assert!(lane_counts[2] <= 2 * d + e.block_dim(), "case {case}");
        }
        // DHD save/load rebuilds the encoder through `from_parts`.
        let memory = QuantizedMatrix::quantize(
            &Matrix::from_fn(2, d, |r, c| ((r + 2 * c) as f32).cos()),
            BitWidth::B8,
        );
        let deployed = DeployedModel::from_parts(
            enc.clone(),
            EncodingCenter::from_means(vec![0.0; d]),
            memory,
        );
        let mut bytes = Vec::new();
        save_deployed(&deployed, &mut bytes).expect("save");
        let loaded = load_deployed(bytes.as_slice()).expect("load");
        check_heights(loaded.encoder_parts(), &format!("case {case}, reloaded"));
    }
}
