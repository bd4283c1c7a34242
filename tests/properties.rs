//! Property-based tests (proptest) on the core data structures and the
//! HDC invariants the paper's algorithms rely on.

use disthd_hd::encoder::{Encoder, RbfEncoder, RegenerativeEncoder, StructuredRbfEncoder};
use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
use disthd_hd::{BinaryHypervector, BipolarHypervector, ClassModel};
use disthd_linalg::{fht_inplace, fht_inplace_opts, parallel, FhtOpts, FhtPrunePlan};
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

    /// Bipolar binding is self-inverse: (a * b) * b == a.
    #[test]
    fn bipolar_binding_inverts(seed in 0u64..1000) {
        let mut rng = SeededRng::new(RngSeed(seed));
        let a = BipolarHypervector::random(256, &mut rng);
        let b = BipolarHypervector::random(256, &mut rng);
        prop_assert_eq!(a.bound(&b).bound(&b), a);
    }

    /// Hamming distance is a metric: symmetric, zero iff equal, and obeys
    /// the triangle inequality.
    #[test]
    fn hamming_is_a_metric(seed in 0u64..1000) {
        let mut rng = SeededRng::new(RngSeed(seed));
        let mk = |rng: &mut SeededRng| {
            BinaryHypervector::from_bits((0..128).map(|_| rng.next_bool(0.5)))
        };
        let a = mk(&mut rng);
        let b = mk(&mut rng);
        let c = mk(&mut rng);
        let d = disthd_hd::hamming_distance;
        prop_assert_eq!(d(&a, &b), d(&b, &a));
        prop_assert_eq!(d(&a, &a), 0);
        prop_assert!(d(&a, &c) <= d(&a, &b) + d(&b, &c));
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

    /// The pruned FHT back end leaves every live lane bitwise equal to the
    /// full ascending transform, for arbitrary sizes and eviction masks
    /// (the elided butterflies only ever feed dead lanes).
    #[test]
    fn pruned_fht_keeps_live_lanes_bitwise(
        exp in 1u32..13,
        seed in 0u64..1000,
        dead_pct in 0u32..90,
    ) {
        let n = 1usize << exp;
        let mut rng = SeededRng::new(RngSeed(seed));
        let input: Vec<f32> = (0..n).map(|_| rng.next_unit() - 0.5).collect();
        let dead: Vec<bool> = (0..n).map(|_| rng.next_bool(f64::from(dead_pct) / 100.0)).collect();
        let plan = FhtPrunePlan::from_live(n, |lane| !dead[lane]);
        let mut full = input.clone();
        fht_inplace(&mut full);
        let mut pruned = input;
        let opts = FhtOpts { prune: Some(&plan), ..FhtOpts::dense() };
        fht_inplace_opts(&mut pruned, &opts);
        for lane in 0..n {
            if !dead[lane] {
                prop_assert_eq!(full[lane].to_bits(), pruned[lane].to_bits(),
                    "n {}, live lane {}", n, lane);
            }
        }
    }

    /// The zero-aware front end is bitwise invisible: transforming a zero-padded buffer with the skip paths equals
    /// transforming it in full.
    #[test]
    fn zero_tail_fht_matches_full_bitwise(
        exp in 1u32..13,
        seed in 0u64..1000,
        nz_frac in 1u32..101,
    ) {
        let n = 1usize << exp;
        let nz = ((n as u64 * u64::from(nz_frac)).div_ceil(100) as usize).max(1);
        let mut rng = SeededRng::new(RngSeed(seed));
        let mut padded = vec![0.0f32; n];
        for v in &mut padded[..nz] {
            *v = rng.next_unit() - 0.5;
        }
        let mut full = padded.clone();
        fht_inplace(&mut full);
        let mut aware = padded;
        let opts = FhtOpts { nonzero_len: nz, ..FhtOpts::dense() };
        fht_inplace_opts(&mut aware, &opts);
        let same = full.iter().zip(&aware).all(|(a, b)| a.to_bits() == b.to_bits());
        prop_assert!(same, "n {} nz {}", n, nz);
    }

    /// Structured batch encodes are bit-identical across thread counts
    /// while the pruned/zero-aware paths are active (post-regeneration,
    /// so eviction masks and overlay passes are in play).
    #[test]
    fn structured_encode_is_thread_count_invariant_under_pruning(
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

    /// `reencode_dims` under pruning returns exactly the full encode's
    /// values (bitwise) on every dim it recomputes, structured or overlaid.
    #[test]
    fn reencode_dims_matches_full_encode_under_pruning(
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
