//! Low-precision model quantization for the Fig. 8 robustness study.
//!
//! The paper stores DistHD models at 1, 2, 4 or 8 bits per dimension and
//! flips random bits in that memory.  [`QuantizedMatrix`] packs a row-major
//! `f32` matrix into a dense bitstream at a chosen [`BitWidth`] with one
//! symmetric scale per row, supports in-place bit faults (see
//! [`crate::noise`]), and dequantizes back for inference.

use disthd_linalg::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of [`QuantizedMatrix::dequantize`] calls.
///
/// The serving layer's zero-dequantize contract (no `f32` reconstruction on
/// deployment construct, hot-swap or predict) is enforced by a regression
/// test that snapshots this counter around the serving path; it has no
/// other purpose.  Monotonic, never reset.
static DEQUANTIZE_CALLS: AtomicU64 = AtomicU64::new(0);

/// Number of [`QuantizedMatrix::dequantize`] calls this process has made so
/// far — the observability hook behind the zero-dequantize serving tests.
pub fn dequantize_calls() -> u64 {
    DEQUANTIZE_CALLS.load(Ordering::Relaxed)
}

/// Supported quantization precisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum BitWidth {
    /// 1-bit sign quantization (bipolar deployment).
    B1,
    /// 2-bit symmetric signed.
    B2,
    /// 4-bit symmetric signed.
    B4,
    /// 8-bit symmetric signed (the DNN comparison precision).
    B8,
}

impl BitWidth {
    /// Number of bits per stored element.
    pub fn bits(self) -> usize {
        match self {
            BitWidth::B1 => 1,
            BitWidth::B2 => 2,
            BitWidth::B4 => 4,
            BitWidth::B8 => 8,
        }
    }

    /// Largest positive quantized magnitude (`2^(b-1) - 1`, or 1 for 1-bit).
    pub fn qmax(self) -> i32 {
        match self {
            BitWidth::B1 => 1,
            BitWidth::B2 => 1,
            BitWidth::B4 => 7,
            BitWidth::B8 => 127,
        }
    }

    /// All supported widths, smallest first (the Fig. 8 sweep order).
    pub fn all() -> [BitWidth; 4] {
        [BitWidth::B1, BitWidth::B2, BitWidth::B4, BitWidth::B8]
    }

    /// Parses a persisted bit count back to a width.
    pub fn from_bits(bits: usize) -> Option<BitWidth> {
        match bits {
            1 => Some(BitWidth::B1),
            2 => Some(BitWidth::B2),
            4 => Some(BitWidth::B4),
            8 => Some(BitWidth::B8),
            _ => None,
        }
    }
}

impl std::fmt::Display for BitWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} bit{}",
            self.bits(),
            if self.bits() == 1 { "" } else { "s" }
        )
    }
}

/// A matrix stored as a packed low-precision bitstream.
///
/// Quantization is symmetric per row: `scale_r = max|row_r| / qmax`, each
/// element stores `round(v / scale_r)` offset into an unsigned code of
/// [`BitWidth::bits`] bits.  1-bit is sign quantization with the row's mean
/// magnitude as the reconstruction level.
///
/// # Example
///
/// ```
/// use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
/// use disthd_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[vec![0.5, -1.0, 0.25]])?;
/// let q = QuantizedMatrix::quantize(&m, BitWidth::B8);
/// let back = q.dequantize();
/// assert!((back.get(0, 1) - -1.0).abs() < 0.02);
/// # Ok::<(), disthd_linalg::ShapeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    words: Vec<u64>,
    scales: Vec<f32>,
    width: BitWidth,
    rows: usize,
    cols: usize,
}

impl QuantizedMatrix {
    /// Quantizes `m` at the given precision.
    pub fn quantize(m: &Matrix, width: BitWidth) -> Self {
        let rows = m.rows();
        let cols = m.cols();
        let bits = width.bits();
        let total_bits = rows * cols * bits;
        let mut words = vec![0u64; total_bits.div_ceil(64)];
        let mut scales = Vec::with_capacity(rows);
        let mut codes = vec![0u8; cols];

        for r in 0..rows {
            let row = m.row(r);
            let scale = row_scale(row, width);
            scales.push(scale);
            row_codes(row, scale, width, &mut codes);
            pack_codes_at(&mut words, r * cols * bits, bits, &codes);
        }

        Self {
            words,
            scales,
            width,
            rows,
            cols,
        }
    }

    /// Builds a quantized matrix **directly from produced rows** — the
    /// bit-sliced encode constructor: no full-precision matrix is ever
    /// materialized.
    ///
    /// `fill(first_row, values)` must overwrite every element of `values`
    /// with rows `first_row ..` of the logical matrix (`values.len()` is a
    /// multiple of `cols`); it runs once per chunk, possibly concurrently
    /// from pool workers on thread-private scratch.  Each chunk's values
    /// are scaled, converted to codes through the shared
    /// [`disthd_linalg::sign_codes`] / [`disthd_linalg::symmetric_codes`]
    /// kernels and bit-packed in place, so the result is **bit-identical
    /// to [`QuantizedMatrix::quantize`] of the same rows** provided `fill`
    /// computes each row independently of the chunk partition (true of
    /// every encoder: per-element GEMM chains and per-row FHTs do not
    /// cross rows).
    ///
    /// Chunks are sized so every chunk starts on a packed-word boundary
    /// (rows per chunk is a multiple of `64 / gcd(cols·bits, 64)`), fixed
    /// by the shape alone — never the worker count — so output is
    /// bit-identical at any thread count; small products skip the pool.
    pub fn from_row_producer<F>(rows: usize, cols: usize, width: BitWidth, fill: F) -> Self
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        let bits = width.bits();
        let row_bits = cols * bits;
        let mut words = vec![0u64; (rows * row_bits).div_ceil(64)];
        // Empty rows scale to 1.0 in `row_scale`, matching `quantize`.
        let mut scales = vec![if cols == 0 { 1.0f32 } else { 0.0 }; rows];
        if rows > 0 && cols > 0 {
            let chunk_rows = aligned_chunk_rows(row_bits);
            // chunk_rows · row_bits ≡ 0 (mod 64): exact words per chunk.
            let chunk_words = chunk_rows * row_bits / 64;
            let produce = |index: usize, chunk_words: &mut [u64], chunk_scales: &mut [f32]| {
                let first_row = index * chunk_rows;
                let n = chunk_scales.len();
                with_encode_scratch(n * cols, cols, |values, codes| {
                    fill(first_row, values);
                    for (i, (row, scale)) in values
                        .chunks_exact_mut(cols)
                        .zip(chunk_scales.iter_mut())
                        .enumerate()
                    {
                        *scale = row_scale(row, width);
                        row_codes(row, *scale, width, codes);
                        pack_codes_at(chunk_words, i * row_bits, bits, codes);
                    }
                });
            };
            // Below ~32k elements the fork/join cost dwarfs the per-chunk
            // arithmetic; the serial loop walks the identical partition.
            if rows * cols < 1 << 15 {
                for index in 0..rows.div_ceil(chunk_rows) {
                    let r1 = ((index + 1) * chunk_rows).min(rows);
                    let w1 = ((index + 1) * chunk_words).min(words.len());
                    produce(
                        index,
                        &mut words[index * chunk_words..w1],
                        &mut scales[index * chunk_rows..r1],
                    );
                }
            } else {
                disthd_linalg::parallel::par_chunks_pair_mut(
                    &mut words,
                    chunk_words,
                    &mut scales,
                    chunk_rows,
                    produce,
                );
            }
        }
        Self {
            words,
            scales,
            width,
            rows,
            cols,
        }
    }

    /// Reconstructs the full-precision matrix.
    ///
    /// The serving hot path never calls this (see [`dequantize_calls`]);
    /// it remains the entry point for offline analysis, tests and the
    /// robustness studies that inspect reconstructed weights.
    pub fn dequantize(&self) -> Matrix {
        DEQUANTIZE_CALLS.fetch_add(1, Ordering::Relaxed);
        let bits = self.width.bits();
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            let code = read_code(&self.words, (r * self.cols + c) * bits, bits);
            decode_value(code, self.scales[r], self.width)
        })
    }

    /// Total number of stored payload bits (`rows * cols * bits`) — the
    /// memory the fault model acts on.
    pub fn payload_bits(&self) -> usize {
        self.rows * self.cols * self.width.bits()
    }

    /// Flips the payload bit at `bit_index`.
    ///
    /// # Panics
    ///
    /// Panics if `bit_index >= payload_bits()`.
    pub fn flip_bit(&mut self, bit_index: usize) {
        assert!(bit_index < self.payload_bits(), "bit index out of bounds");
        self.words[bit_index / 64] ^= 1 << (bit_index % 64);
    }

    /// Storage precision.
    pub fn width(&self) -> BitWidth {
        self.width
    }

    /// Borrows the packed payload words (for persistence).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Borrows the per-row scales (for persistence).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Reassembles a quantized matrix from its persisted parts.
    ///
    /// # Errors
    ///
    /// Returns [`disthd_linalg::ShapeError`] if the word count or scale
    /// count disagrees with `rows x cols` at the given width.
    pub fn from_parts(
        words: Vec<u64>,
        scales: Vec<f32>,
        width: BitWidth,
        rows: usize,
        cols: usize,
    ) -> Result<Self, disthd_linalg::ShapeError> {
        let expected_words = (rows * cols * width.bits()).div_ceil(64);
        if words.len() != expected_words || scales.len() != rows {
            return Err(disthd_linalg::ShapeError::new(
                "quantized_from_parts",
                (rows, cols),
                (words.len(), scales.len()),
            ));
        }
        Ok(Self {
            words,
            scales,
            width,
            rows,
            cols,
        })
    }

    /// `(rows, cols)` of the logical matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Calls `f(col, value)` for `len` elements of row `r` starting at
    /// column `col0`, with each element's *scale-free* signed integer
    /// value (`clamp(code − qmax)`, or `±1` for 1-bit), streamed straight
    /// off the packed words.
    ///
    /// This is the zero-dequantize read primitive: one word load yields up
    /// to 64 values, no `f32` matrix is materialized, and faulted
    /// out-of-range codes saturate exactly like [`QuantizedMatrix::dequantize`].
    #[inline]
    fn for_each_row_value_range<F: FnMut(usize, i32)>(
        &self,
        r: usize,
        col0: usize,
        len: usize,
        mut f: F,
    ) {
        assert!(r < self.rows, "row index out of bounds");
        assert!(col0 + len <= self.cols, "column range out of bounds");
        let bits = self.width.bits();
        let mask: u64 = (1u64 << bits) - 1;
        let qmax = self.width.qmax() as i64;
        let one_bit = self.width == BitWidth::B1;
        let mut bit = (r * self.cols + col0) * bits;
        let mut c = col0;
        let end = col0 + len;
        while c < end {
            let offset = bit % 64;
            let mut w = self.words[bit / 64] >> offset;
            // Codes are `bits`-aligned and 64 % bits == 0, so no code ever
            // spans two words: drain whole lanes from this word.
            let lanes = ((64 - offset) / bits).min(end - c);
            for _ in 0..lanes {
                let code = w & mask;
                let value = if one_bit {
                    if code == 1 {
                        1
                    } else {
                        -1
                    }
                } else {
                    ((code as i64) - qmax).clamp(-qmax, qmax) as i32
                };
                f(c, value);
                w >>= bits;
                c += 1;
            }
            bit += lanes * bits;
        }
    }

    /// Calls `f(col, value)` for every element of row `r` (see
    /// [`QuantizedMatrix::for_each_row_value_range`]).
    #[inline]
    fn for_each_row_value<F: FnMut(usize, i32)>(&self, r: usize, f: F) {
        self.for_each_row_value_range(r, 0, self.cols, f);
    }

    /// Unpacks `out.len()` scale-free integer values of row `r` starting
    /// at column `col0` into an `f32` scratch segment.
    ///
    /// This is how the batched similarity kernel amortizes bit-unpacking:
    /// one cache-resident segment is decoded once and then dotted against
    /// a whole chunk of queries with vectorizable fused multiply-adds,
    /// while the class memory itself still streams at its packed width.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside the row or `r` is out of bounds.
    pub fn unpack_row_segment(&self, r: usize, col0: usize, out: &mut [f32]) {
        let base = col0;
        self.for_each_row_value_range(r, col0, out.len(), |c, v| out[c - base] = v as f32);
    }

    /// Dot product of an `f32` query against the integer codes of row `r`
    /// (scale **not** applied), accumulated in one ascending chain in the
    /// GEMM micro-kernel's per-element order
    /// ([`disthd_linalg::dot_gemm_order_from`]) — so a single query scores
    /// **bit-identically** to the same query inside any batched
    /// [`crate::quantized_similarity_prepacked`] call, at any thread count.
    ///
    /// This is the single-query serving path: together with
    /// [`QuantizedMatrix::code_inv_norms_into`] it ranks classes exactly
    /// like dequantize-then-cosine — the per-row scale cancels between the
    /// numerator and the norm — while the class memory stays at its packed
    /// width (codes decode through a 1 KiB cache-resident segment).
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != cols` or `r` is out of bounds.
    pub fn row_dot_f32(&self, r: usize, query: &[f32]) -> f32 {
        assert_eq!(
            query.len(),
            self.cols,
            "row_dot_f32: query length must equal the column count"
        );
        let mut buf = [0.0f32; UNPACK_SEGMENT];
        let mut acc = 0.0f32;
        let mut col0 = 0;
        while col0 < self.cols {
            let len = (self.cols - col0).min(UNPACK_SEGMENT);
            self.unpack_row_segment(r, col0, &mut buf[..len]);
            acc = disthd_linalg::dot_gemm_order_from(acc, &buf[..len], &query[col0..col0 + len]);
            col0 += len;
        }
        acc
    }

    /// Unpacks every code into `panel` as the right-hand GEMM operand
    /// `codesᵀ` (logical column `l` of the panel = integer codes of row
    /// `l`, saturated exactly like [`QuantizedMatrix::dequantize`] but
    /// scale-free).
    ///
    /// This is how the batched similarity path gets GEMM-grade throughput
    /// without an f32 class *snapshot*: the packed words remain the single
    /// source of truth (faults and hot-swaps mutate them, and this repack
    /// rereads them), while the panel is a derived, in-place-refreshed
    /// operand that lets the scoring GEMM run its full register-tiled
    /// micro-kernel.  Refreshing overwrites every logical slot, so a panel
    /// can be reused across swaps without reallocation; padded lanes stay
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `panel` was not created as `PackedRhs::new(cols, rows)`.
    pub fn pack_codes_into(&self, panel: &mut disthd_linalg::PackedRhs) {
        assert_eq!(
            (panel.inner(), panel.cols()),
            (self.cols, self.rows),
            "pack_codes_into: panel shape must be (cols, rows)"
        );
        for l in 0..self.rows {
            let mut slots = panel.column_slots(l);
            self.for_each_row_value(l, |_, v| {
                *slots.next().expect("panel inner equals column count") = v as f32;
            });
        }
    }

    /// Fills `out` with one reciprocal L2 norm of the integer codes per
    /// row (`1 / √Σ value²`, or `0.0` for an all-zero row, which ranks
    /// untrained classes below any class with signal — matching
    /// `cosine_similarity_matrix`'s zero-row convention).
    ///
    /// The sum of squares is computed exactly in integer arithmetic.
    /// Reuses `out`'s allocation; after the first call on a model of `k`
    /// classes, refreshing norms (hot-swap, fault injection) allocates
    /// nothing.
    pub fn code_inv_norms_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.rows);
        for r in 0..self.rows {
            let mut sum_squares: u64 = 0;
            self.for_each_row_value(r, |_, v| sum_squares += (v as i64 * v as i64) as u64);
            out.push(if sum_squares == 0 {
                0.0
            } else {
                1.0 / (sum_squares as f32).sqrt()
            });
        }
    }

    /// Widening integer dot product of row `ra` against row `rb` of
    /// `other`: every code pair is decoded to its signed value (i8-range
    /// for 8-bit, i4-range for 4-bit, …), multiplied in `i32` and
    /// accumulated in `i64` — exact for any supported width and dimension.
    ///
    /// This is the scalar oracle for the batched integer scorer behind
    /// [`crate::packed_predict_batch`], which must equal it pair for pair;
    /// no serving path calls it.
    ///
    /// 1-bit rows dispatch to the popcount kernel
    /// ([`QuantizedMatrix::row_hamming`]): `dot = D − 2·hamming`.
    ///
    /// # Panics
    ///
    /// Panics if the widths or column counts differ, or an index is out of
    /// bounds.
    pub fn row_dot_widening(&self, ra: usize, other: &QuantizedMatrix, rb: usize) -> i64 {
        assert_eq!(self.width, other.width, "row_dot_widening: width mismatch");
        assert_eq!(
            self.cols, other.cols,
            "row_dot_widening: column count mismatch"
        );
        assert!(ra < self.rows && rb < other.rows, "row index out of bounds");
        if self.width == BitWidth::B1 {
            return self.cols as i64 - 2 * self.row_hamming(ra, other, rb) as i64;
        }
        let bits = self.width.bits();
        let mask: u64 = (1u64 << bits) - 1;
        let qmax = self.width.qmax() as i64;
        let decode = |code: u64| ((code as i64) - qmax).clamp(-qmax, qmax) as i32;
        let mut bit_a = ra * self.cols * bits;
        let mut bit_b = rb * other.cols * bits;
        let mut acc = 0i64;
        for _ in 0..self.cols {
            let code_a = (self.words[bit_a / 64] >> (bit_a % 64)) & mask;
            let code_b = (other.words[bit_b / 64] >> (bit_b % 64)) & mask;
            acc += (decode(code_a) * decode(code_b)) as i64;
            bit_a += bits;
            bit_b += bits;
        }
        acc
    }

    /// Decodes every scale-free integer value of row `r` into `out`,
    /// saturated exactly like [`QuantizedMatrix::dequantize`] — the operand
    /// the batched integer scorer ([`crate::packed_predict_batch`]) dots in
    /// `i16` lanes.
    ///
    /// A row at 2/4/8 bits that starts on a word boundary is decoded
    /// straight off whole `u64` words by a decoder specialised per width;
    /// 1-bit rows and rows that start mid-word take the lane-by-lane read.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != cols` or `r` is out of bounds.
    pub(crate) fn decode_row_i16(&self, r: usize, out: &mut [i16]) {
        assert!(r < self.rows, "row index out of bounds");
        assert_eq!(out.len(), self.cols, "decode_row_i16: length mismatch");
        let start = r * self.cols * self.width.bits();
        let words = &self.words[start / 64..];
        match self.width {
            BitWidth::B2 if start.is_multiple_of(64) => decode_words::<2>(words, out),
            BitWidth::B4 if start.is_multiple_of(64) => decode_words::<4>(words, out),
            BitWidth::B8 if start.is_multiple_of(64) => decode_words::<8>(words, out),
            _ => self.for_each_row_value(r, |c, v| out[c] = v as i16),
        }
    }

    /// Popcount Hamming distance between two 1-bit rows, 64 sign bits per
    /// XOR+`count_ones` step, directly over the packed words (rows that
    /// start mid-word are realigned with a shift, never unpacked).
    ///
    /// # Panics
    ///
    /// Panics if either matrix is not 1-bit, the column counts differ, or
    /// an index is out of bounds.
    pub fn row_hamming(&self, ra: usize, other: &QuantizedMatrix, rb: usize) -> u64 {
        assert_eq!(self.width, BitWidth::B1, "row_hamming: self is not 1-bit");
        assert_eq!(other.width, BitWidth::B1, "row_hamming: other is not 1-bit");
        assert_eq!(self.cols, other.cols, "row_hamming: column count mismatch");
        assert!(ra < self.rows && rb < other.rows, "row index out of bounds");
        let mut distance = 0u64;
        let mut i = 0;
        while i < self.cols {
            let take = (self.cols - i).min(64);
            let wa = bit_window(&self.words, ra * self.cols + i, take);
            let wb = bit_window(&other.words, rb * other.cols + i, take);
            distance += (wa ^ wb).count_ones() as u64;
            i += take;
        }
        distance
    }
}

/// Columns per unpacked segment of the single-query integer similarity
/// kernel: a 1 KiB f32 scratch block — resident in L1 alongside the query
/// slices it is dotted against.
pub const UNPACK_SEGMENT: usize = 256;

/// Extracts `len ≤ 64` bits starting at absolute bit offset `start`,
/// low-aligned and zero-padded above `len`.
#[inline]
fn bit_window(words: &[u64], start: usize, len: usize) -> u64 {
    let offset = start % 64;
    let mut w = words[start / 64] >> offset;
    let available = 64 - offset;
    if available < len {
        w |= words[start / 64 + 1] << available;
    }
    if len < 64 {
        w &= (1u64 << len) - 1;
    }
    w
}

/// Decodes `out.len()` consecutive `BITS`-bit symmetric codes, the first in
/// the low bits of `words[0]`, to saturated signed values
/// (`(code − qmax).clamp(±qmax)`).
///
/// Whole blocks of four words are read as 32 little-endian bytes of
/// `8 / BITS` codes each, a shape the compiler vectorizes: on an AVX-512
/// Xeon this decodes 26 rows of 4096 codes 2.5–6× faster than shifting
/// each code out of its word.  The partial block at the end is read code
/// by code.
fn decode_words<const BITS: usize>(words: &[u64], out: &mut [i16]) {
    const BLOCK_WORDS: usize = 4;
    let mask = ((1u16 << BITS) - 1) as u8;
    let qmax = (1i16 << (BITS - 1)) - 1;
    let decode = |code: u8| (i16::from(code & mask) - qmax).clamp(-qmax, qmax);
    let block_lanes = BLOCK_WORDS * 64 / BITS;
    let full_words = out.len() / block_lanes * BLOCK_WORDS;
    let mut blocks = out.chunks_exact_mut(block_lanes);
    for (lanes, block) in (&mut blocks).zip(words.chunks_exact(BLOCK_WORDS)) {
        let mut bytes = [0u8; BLOCK_WORDS * 8];
        for (dst, w) in bytes.chunks_exact_mut(8).zip(block) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        for (codes, &byte) in lanes.chunks_exact_mut(8 / BITS).zip(&bytes) {
            for (k, v) in codes.iter_mut().enumerate() {
                *v = decode(byte >> (k * BITS));
            }
        }
    }
    for (j, v) in blocks.into_remainder().iter_mut().enumerate() {
        let bit = j * BITS;
        *v = decode((words[full_words + bit / 64] >> (bit % 64)) as u8);
    }
}

/// Per-row scale factor for symmetric quantization.
fn row_scale(row: &[f32], width: BitWidth) -> f32 {
    match width {
        BitWidth::B1 => {
            // Reconstruction level = mean magnitude (sign quantization).
            let mean_abs = row.iter().map(|v| v.abs()).sum::<f32>() / row.len().max(1) as f32;
            if mean_abs > 0.0 {
                mean_abs
            } else {
                1.0
            }
        }
        BitWidth::B2 => {
            // Ternary {-1, 0, +1}: a mean-magnitude level (like 1-bit)
            // keeps per-flip damage bounded; a max-abs level would make
            // every flip a full-range swing and invert the paper's
            // precision-vs-robustness ordering.
            let mean_abs = row.iter().map(|v| v.abs()).sum::<f32>() / row.len().max(1) as f32;
            if mean_abs > 0.0 {
                1.5 * mean_abs
            } else {
                1.0
            }
        }
        _ => {
            let max_abs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            if max_abs > 0.0 {
                max_abs / width.qmax() as f32
            } else {
                1.0
            }
        }
    }
}

/// Encodes one value to an unsigned code of `width.bits()` bits — the
/// scalar reference the tier-dispatched [`row_codes`] kernels are held to.
#[cfg(test)]
fn encode_value(v: f32, scale: f32, width: BitWidth) -> u64 {
    match width {
        BitWidth::B1 => u64::from(v >= 0.0),
        _ => {
            let qmax = width.qmax();
            let q = (v / scale).round().clamp(-(qmax as f32), qmax as f32) as i32;
            (q + qmax) as u64
        }
    }
}

/// Converts one row of values to unsigned codes through the shared
/// tier-dispatched kernels (bit-identical to [`encode_value`] per
/// element).
fn row_codes(row: &[f32], scale: f32, width: BitWidth, codes: &mut [u8]) {
    match width {
        BitWidth::B1 => disthd_linalg::sign_codes(row, codes),
        _ => disthd_linalg::symmetric_codes(row, scale, width.qmax(), codes),
    }
}

/// Bit-packs a run of codes into **pre-zeroed** words starting at
/// `start_bit`.  `start_bit` stays a multiple of `bits` and
/// `64 % bits == 0`, so no code ever spans two words.
fn pack_codes_at(words: &mut [u64], start_bit: usize, bits: usize, codes: &[u8]) {
    let mut bit = start_bit;
    for &code in codes {
        words[bit / 64] |= u64::from(code) << (bit % 64);
        bit += bits;
    }
}

/// Rows per fused-encode chunk: the base granularity rounded up so every
/// chunk's first row starts on a 64-bit word boundary
/// (`group = 64 / gcd(row_bits, 64)` rows always span whole words).
fn aligned_chunk_rows(row_bits: usize) -> usize {
    // Tall chunks let the GEMM's column-group blocking re-read each packed
    // panel once per 64 rows rather than once per 8; the per-worker values
    // scratch stays modest (64 rows × dim f32) and the partition is still
    // shape-derived, so output is identical at any thread count.
    const BASE_ROWS: usize = 64;
    let mut a = row_bits as u64;
    let mut b = 64u64;
    while b != 0 {
        (a, b) = (b, a % b);
    }
    let group = (64 / a) as usize;
    group * BASE_ROWS.div_ceil(group)
}

/// Thread-private scratch for the fused encode: one values buffer and one
/// codes buffer per worker, reused across chunks and calls (pool workers
/// are persistent, so steady-state encode allocates nothing).
fn with_encode_scratch<R>(
    values_len: usize,
    codes_len: usize,
    f: impl FnOnce(&mut [f32], &mut [u8]) -> R,
) -> R {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<(Vec<f32>, Vec<u8>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let (values, codes) = &mut *scratch;
        if values.len() < values_len {
            values.resize(values_len, 0.0);
        }
        if codes.len() < codes_len {
            codes.resize(codes_len, 0);
        }
        f(&mut values[..values_len], &mut codes[..codes_len])
    })
}

/// Decodes an unsigned code back to a value.
fn decode_value(code: u64, scale: f32, width: BitWidth) -> f32 {
    match width {
        BitWidth::B1 => {
            if code & 1 == 1 {
                scale
            } else {
                -scale
            }
        }
        _ => {
            let qmax = width.qmax();
            // A bit fault can push the code beyond the encoding range
            // (e.g. 2-bit code 3 when qmax = 1): clamp like saturating
            // hardware would.
            let q = (code as i64 - qmax as i64).clamp(-(qmax as i64), qmax as i64);
            q as f32 * scale
        }
    }
}

/// Reads `bits` bits at bit offset `offset`.
fn read_code(words: &[u64], offset: usize, bits: usize) -> u64 {
    let mut code = 0u64;
    for b in 0..bits {
        let idx = offset + b;
        if (words[idx / 64] >> (idx % 64)) & 1 == 1 {
            code |= 1 << b;
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, -0.5, 0.25, 0.0], vec![-2.0, 2.0, 0.1, -0.1]]).unwrap()
    }

    #[test]
    fn eight_bit_round_trip_is_tight() {
        let m = sample();
        let q = QuantizedMatrix::quantize(&m, BitWidth::B8);
        let back = q.dequantize();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                assert!(
                    (m.get(r, c) - back.get(r, c)).abs() < 0.02,
                    "({r},{c}): {} vs {}",
                    m.get(r, c),
                    back.get(r, c)
                );
            }
        }
    }

    #[test]
    fn one_bit_preserves_signs() {
        let m = sample();
        let q = QuantizedMatrix::quantize(&m, BitWidth::B1);
        let back = q.dequantize();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let original = m.get(r, c);
                let restored = back.get(r, c);
                if original != 0.0 {
                    assert_eq!(original >= 0.0, restored >= 0.0, "sign at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn coarser_widths_have_larger_error() {
        let m = Matrix::from_fn(4, 64, |r, c| ((r * 31 + c * 7) as f32).sin());
        let err = |w: BitWidth| {
            let q = QuantizedMatrix::quantize(&m, w);
            let back = q.dequantize();
            m.as_slice()
                .iter()
                .zip(back.as_slice())
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>()
        };
        assert!(err(BitWidth::B8) < err(BitWidth::B4));
        assert!(err(BitWidth::B4) < err(BitWidth::B2));
    }

    #[test]
    fn payload_bits_counts_logical_storage() {
        let q = QuantizedMatrix::quantize(&sample(), BitWidth::B4);
        assert_eq!(q.payload_bits(), 2 * 4 * 4);
    }

    #[test]
    fn flip_bit_changes_dequantized_value() {
        let m = sample();
        let q0 = QuantizedMatrix::quantize(&m, BitWidth::B8);
        let mut q1 = q0.clone();
        q1.flip_bit(7); // MSB of element (0, 0)
        let a = q0.dequantize();
        let b = q1.dequantize();
        assert_ne!(a.get(0, 0), b.get(0, 0));
        assert_eq!(a.get(1, 0), b.get(1, 0));
    }

    #[test]
    fn zero_row_quantizes_to_zero() {
        let m = Matrix::zeros(1, 8);
        for w in BitWidth::all() {
            let back = QuantizedMatrix::quantize(&m, w).dequantize();
            if w == BitWidth::B1 {
                // Sign quantization cannot represent exact zero; the scale
                // fallback keeps values at ±1.
                assert!(back.as_slice().iter().all(|v| v.abs() == 1.0));
            } else {
                assert!(back.as_slice().iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn faulted_code_is_clamped_not_wrapped() {
        // 2-bit: qmax = 1, valid codes 0..=2; flipping both bits of code 2
        // can yield 3, which must clamp to qmax rather than wrap negative.
        let m = Matrix::from_rows(&[vec![1.0]]).unwrap();
        let mut q = QuantizedMatrix::quantize(&m, BitWidth::B2);
        q.flip_bit(0); // code 2 -> 3
        let v = q.dequantize().get(0, 0);
        assert!(v.is_finite());
        // Bounded by qmax * scale (scale = 1.5 * mean|row| for 2-bit).
        assert!(v.abs() <= 1.5 + 1e-6);
    }

    #[test]
    fn display_formats_widths() {
        assert_eq!(BitWidth::B1.to_string(), "1 bit");
        assert_eq!(BitWidth::B8.to_string(), "8 bits");
    }

    use crate::test_util::lcg_matrix as odd_matrix;

    #[test]
    fn row_dot_f32_matches_dequantized_dot_over_scale() {
        // dot(query, codes_r) must equal dot(query, dequantize(r)) / scale_r
        // up to f32 rounding, at every width and at misaligned row starts.
        let m = odd_matrix(3, 37, 0x11);
        let query: Vec<f32> = odd_matrix(1, 37, 0x22).into_vec();
        for w in BitWidth::all() {
            let q = QuantizedMatrix::quantize(&m, w);
            let back = q.dequantize();
            for r in 0..m.rows() {
                let got = q.row_dot_f32(r, &query);
                let expected: f32 = back
                    .row(r)
                    .iter()
                    .zip(query.iter())
                    .map(|(&v, &x)| v * x)
                    .sum::<f32>()
                    / q.scales()[r];
                assert!(
                    (got - expected).abs() < 1e-3 * expected.abs().max(1.0),
                    "{w}, row {r}: {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn code_inv_norms_match_dequantized_norms() {
        let m = odd_matrix(4, 37, 0x33);
        for w in BitWidth::all() {
            let q = QuantizedMatrix::quantize(&m, w);
            let back = q.dequantize();
            let mut inv = Vec::new();
            q.code_inv_norms_into(&mut inv);
            assert_eq!(inv.len(), 4);
            for (r, &got) in inv.iter().enumerate() {
                let norm: f32 = back.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
                let expected = q.scales()[r] / norm;
                assert!(
                    (got - expected).abs() < 1e-4 * expected.abs().max(1.0),
                    "{w}, row {r}: {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn inv_norms_are_zero_for_zero_rows() {
        let mut m = Matrix::zeros(2, 16);
        for c in 0..16 {
            m.set(1, c, 0.5);
        }
        for w in [BitWidth::B2, BitWidth::B4, BitWidth::B8] {
            let q = QuantizedMatrix::quantize(&m, w);
            let mut inv = Vec::new();
            q.code_inv_norms_into(&mut inv);
            assert_eq!(inv[0], 0.0, "{w}");
            assert!(inv[1] > 0.0, "{w}");
        }
    }

    #[test]
    fn widening_dot_matches_exact_integer_products() {
        let a = odd_matrix(3, 37, 0x44);
        let b = odd_matrix(2, 37, 0x55);
        for w in BitWidth::all() {
            let qa = QuantizedMatrix::quantize(&a, w);
            let qb = QuantizedMatrix::quantize(&b, w);
            for ra in 0..3 {
                for rb in 0..2 {
                    let got = qa.row_dot_widening(ra, &qb, rb);
                    // Ground truth: decode both rows through dequantize and
                    // divide the scales back out (values are exact small
                    // integers, so the f64 arithmetic is exact).
                    let da = qa.dequantize();
                    let db = qb.dequantize();
                    let expected: f64 = da
                        .row(ra)
                        .iter()
                        .zip(db.row(rb).iter())
                        .map(|(&x, &y)| {
                            f64::from((x / qa.scales()[ra]).round())
                                * f64::from((y / qb.scales()[rb]).round())
                        })
                        .sum();
                    assert_eq!(got, expected as i64, "{w}, rows ({ra},{rb})");
                }
            }
        }
    }

    #[test]
    fn row_hamming_counts_sign_disagreements_on_misaligned_rows() {
        // 37 columns: row 1 starts at bit 37, well inside a word.
        let m = odd_matrix(3, 37, 0x66);
        let q = QuantizedMatrix::quantize(&m, BitWidth::B1);
        for ra in 0..3 {
            for rb in 0..3 {
                let expected = (0..37)
                    .filter(|&c| (m.get(ra, c) >= 0.0) != (m.get(rb, c) >= 0.0))
                    .count() as u64;
                assert_eq!(q.row_hamming(ra, &q, rb), expected, "rows ({ra},{rb})");
            }
        }
    }

    #[test]
    fn one_bit_widening_dot_is_cols_minus_twice_hamming() {
        let m = odd_matrix(2, 130, 0x77);
        let q = QuantizedMatrix::quantize(&m, BitWidth::B1);
        let hamming = q.row_hamming(0, &q, 1);
        assert_eq!(q.row_dot_widening(0, &q, 1), 130 - 2 * hamming as i64);
        // Self-dot of a sign row is exactly the dimension.
        assert_eq!(q.row_dot_widening(1, &q, 1), 130);
    }

    #[test]
    fn faulted_codes_saturate_in_integer_reads_like_dequantize() {
        // 2-bit code 3 (a faulted pattern) must clamp to qmax in the
        // integer read exactly as dequantize clamps it.
        let m = Matrix::from_rows(&[vec![1.0, -1.0]]).unwrap();
        let mut q = QuantizedMatrix::quantize(&m, BitWidth::B2);
        q.flip_bit(0); // element (0,0): code 2 -> 3
        let deq = q.dequantize();
        let got = q.row_dot_f32(0, &[1.0, 0.0]);
        assert_eq!(got * q.scales()[0], deq.get(0, 0));
    }

    #[test]
    fn packed_codes_panel_matches_unpacked_rows() {
        // The GEMM panel must hold exactly the saturated scale-free codes,
        // column l = row l, at every width and at an odd (padded-tile)
        // class count.
        let m = odd_matrix(5, 37, 0xAB);
        for w in BitWidth::all() {
            let q = QuantizedMatrix::quantize(&m, w);
            let mut panel = disthd_linalg::PackedRhs::new(37, 5);
            q.pack_codes_into(&mut panel);
            for l in 0..5 {
                let mut expected = vec![0.0f32; 37];
                q.unpack_row_segment(l, 0, &mut expected);
                let got: Vec<f32> = panel.column_slots(l).map(|v| *v).collect();
                assert_eq!(got, expected, "{w}, row {l}");
            }
        }
    }

    #[test]
    fn row_dot_f32_matches_gemm_order_on_the_unpacked_row() {
        // The segmented single-query chain must equal one continuous
        // dot_gemm_order over the fully unpacked row — the bridge to the
        // batched GEMM's per-element chain.
        let m = odd_matrix(2, 300, 0xCD);
        let query: Vec<f32> = odd_matrix(1, 300, 0xEF).into_vec();
        for w in BitWidth::all() {
            let q = QuantizedMatrix::quantize(&m, w);
            for r in 0..2 {
                let mut unpacked = vec![0.0f32; 300];
                q.unpack_row_segment(r, 0, &mut unpacked);
                assert_eq!(
                    q.row_dot_f32(r, &query),
                    disthd_linalg::dot_gemm_order(&unpacked, &query),
                    "{w}, row {r}"
                );
            }
        }
    }

    #[test]
    fn decoded_rows_match_the_lane_by_lane_read() {
        // The word-at-a-time decoders against the lane-by-lane read, with
        // one code pushed out of range by a bit flip.  64 columns start
        // every row on a word; 37 and 300 start most rows mid-word, and
        // 300 also gives each width whole four-word blocks plus a tail.
        for cols in [37usize, 64, 300] {
            let m = odd_matrix(9, cols, 0x99);
            for w in BitWidth::all() {
                let mut q = QuantizedMatrix::quantize(&m, w);
                let bits = w.bits();
                for b in 0..bits {
                    if (q.words[b / 64] >> (b % 64)) & 1 == 0 {
                        q.flip_bit(b);
                    }
                }
                for r in 0..9 {
                    let mut decoded = vec![0i16; cols];
                    q.decode_row_i16(r, &mut decoded);
                    let mut expected = vec![0i16; cols];
                    q.for_each_row_value(r, |c, v| expected[c] = v as i16);
                    assert_eq!(decoded, expected, "{w}, D = {cols}, row {r}");
                }
            }
        }
    }

    #[test]
    fn dequantize_counter_is_monotonic() {
        let before = dequantize_calls();
        let _ = QuantizedMatrix::quantize(&sample(), BitWidth::B4).dequantize();
        assert!(dequantize_calls() > before);
    }

    #[test]
    fn row_codes_matches_encode_value_reference() {
        // The tier-dispatched code kernels against the scalar reference,
        // on a grid that includes ties, zeros, negative zero and
        // saturating magnitudes at every width.
        let mut values: Vec<f32> = crate::test_util::lcg_matrix(1, 200, 0x71).into_vec();
        values[0] = 0.0;
        values[1] = -0.0;
        values[2] = 10.0;
        values[3] = -10.0;
        for w in BitWidth::all() {
            for scale in [1.0f32, 0.125, 0.37] {
                values[4] = 0.5 * scale;
                values[5] = -2.5 * scale;
                let mut codes = vec![0u8; values.len()];
                row_codes(&values, scale, w, &mut codes);
                for (j, &v) in values.iter().enumerate() {
                    assert_eq!(
                        u64::from(codes[j]),
                        encode_value(v, scale, w),
                        "{w}, scale {scale}, value {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_producer_is_bit_identical_to_quantize() {
        // The fused constructor against quantize-after-materialize, at
        // every width, at shapes whose rows start mid-word, at sizes on
        // both sides of the serial threshold, and at several thread
        // counts (the chunk partition is fixed by shape alone).
        use disthd_linalg::parallel::with_thread_count;
        for (rows, cols) in [(1usize, 5usize), (7, 37), (40, 129), (9, 4096)] {
            let m = crate::test_util::lcg_matrix(rows, cols, 0xF00D ^ (rows * cols) as u64);
            for w in BitWidth::all() {
                let reference = QuantizedMatrix::quantize(&m, w);
                for threads in [1usize, 2, 8] {
                    let fused = with_thread_count(threads, || {
                        QuantizedMatrix::from_row_producer(rows, cols, w, |first_row, values| {
                            let n = values.len() / cols;
                            values.copy_from_slice(
                                &m.as_slice()[first_row * cols..(first_row + n) * cols],
                            );
                        })
                    });
                    assert_eq!(
                        fused.as_words(),
                        reference.as_words(),
                        "{w} {rows}x{cols} t{threads}"
                    );
                    assert_eq!(
                        fused.scales(),
                        reference.scales(),
                        "{w} {rows}x{cols} t{threads}"
                    );
                    assert_eq!(fused.shape(), reference.shape());
                }
            }
        }
    }

    #[test]
    fn row_producer_handles_degenerate_shapes() {
        for (rows, cols) in [(0usize, 4usize), (3, 0), (0, 0)] {
            let q = QuantizedMatrix::from_row_producer(rows, cols, BitWidth::B4, |_, _| {
                panic!("no chunk to fill")
            });
            assert_eq!(q.shape(), (rows, cols));
            assert!(q.as_words().is_empty());
            assert_eq!(q.scales().len(), rows);
            assert!(q.scales().iter().all(|&s| s == 1.0));
        }
    }
}
