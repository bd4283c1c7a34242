//! # disthd-linalg
//!
//! Minimal dense linear-algebra substrate for the DistHD reproduction.
//!
//! DistHD's computational kernel is a handful of dense operations over
//! row-major `f32` matrices: the encoding step is a matrix–matrix product of a
//! feature batch with the base-vector matrix, similarity search is a
//! matrix–vector product against normalized class hypervectors, and the
//! dimension-regeneration step reduces per-sample distance matrices with
//! column-wise sums followed by a top-k selection.  This crate implements
//! exactly those kernels — plus the random distributions, statistics and
//! sorting helpers the rest of the workspace needs — without pulling a general
//! array library.
//!
//! The matrix product runs on a cache-blocked, register-blocked kernel fanned
//! out over the deterministic [`parallel`] backend: results are bit-identical
//! at any thread count (`DISTHD_THREADS` / [`parallel::set_thread_count`]),
//! and a per-element or per-row epilogue can be fused into the store phase
//! ([`Matrix::matmul_map`], [`Matrix::matmul_prepacked_rows`]) so encoders
//! never re-stream their output.
//!
//! ## Example
//!
//! ```
//! use disthd_linalg::Matrix;
//!
//! // Encode a 2-sample batch with a 3x4 projection: H' = H · B.
//! let batch = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.5, 1.0, 0.0]])?;
//! let bases = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
//! let encoded = batch.matmul(&bases)?;
//! assert_eq!(encoded.shape(), (2, 4));
//! # Ok::<(), disthd_linalg::ShapeError>(())
//! ```

#![deny(missing_docs)]

mod codepack;
mod epilogue;
mod error;
mod fht;
mod matrix;
pub mod parallel;
mod random;
mod sort;
mod stats;
mod vector;

pub use codepack::{sign_codes, symmetric_codes};
pub use epilogue::{half_angle, half_angle_row, sin_det};
pub use error::ShapeError;
pub use fht::{fht_inplace, fht_inplace_signed, FhtSchedule};
pub use matrix::{dot_gemm_order, dot_gemm_order_from, Matrix, PackedRhs};
pub use random::{Gaussian, RngSeed, SeededRng, Uniform};
pub use sort::{argsort_ascending, argsort_descending, top_k_indices, top_k_largest};
pub use stats::{
    column_means, column_sums, column_variances, mean, min_max, normalize_min_max_in_place,
    population_variance, standard_deviation,
};
pub use vector::{axpy, cosine_similarity, dot, l2_norm, normalize_l2, normalize_l2_in_place};
