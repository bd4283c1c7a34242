use crate::error::ShapeError;
use crate::parallel;
use crate::vector;
use std::sync::OnceLock;

/// Register-block height of the portable, FMA and AVX2 micro-kernels:
/// four output rows share one streamed pass over each `rhs` cache line,
/// quartering the memory traffic of the scalar loop.
const GEMM_MR: usize = 4;

/// Register-block width of one packed panel: 16 f32 = one 64-byte cache
/// line of `rhs`, so the 4 × 16 accumulator tile (8 vector registers at
/// AVX2 width) lives entirely in registers across the whole
/// inner-dimension sweep — no accumulator loads or stores inside the hot
/// loop.  At AVX-512 width one panel line is one register.
const GEMM_NW: usize = 16;

/// Register-block height of the AVX-512 body tile: 8 rows × 2 panels is
/// 16 zmm accumulators, half of the 32-register file, leaving room for
/// the two panel loads and the row broadcasts.
#[cfg(target_arch = "x86_64")]
const AVX512_MR: usize = 8;

/// Panels one single-row AVX-512 tile sweeps at once: eight independent
/// fused chains cover the FMA latency of both ports, where a one-row
/// two-panel tile would wait on it.
#[cfg(target_arch = "x86_64")]
const AVX512_ROW_PANELS: usize = 8;

/// Rows of the output each parallel work unit owns.  Fixed (never derived
/// from the worker count) so chunk boundaries — and therefore accumulation
/// order — are identical at any thread count.
const GEMM_ROW_CHUNK: usize = 8;

/// Cache budget for one column group of packed panels (see
/// [`gemm_row_block`]): a group of `rhs` tiles this large is swept by every
/// row of the block before the next group is touched, so with tall row
/// blocks each panel byte is read once per ~`block_rows / GEMM_MR` row
/// tiles instead of once per 4 rows.  256 KiB keeps the group resident in
/// any L2 alongside the streaming `lhs` block.
const GEMM_GROUP_BYTES: usize = 256 * 1024;

/// Below this many multiply-adds the kernel always runs on the calling
/// thread.  Dispatching to the persistent worker pool costs roughly one
/// lock + condvar wake (~a microsecond — the pool's parked workers replace
/// the old per-call thread spawn, which cost tens of microseconds each), so
/// the crossover sits near half a million MACs: ~0.5 M MACs is tens of
/// microseconds of serial kernel work, comfortably above the dispatch cost;
/// anything smaller is faster inline.
const GEMM_PARALLEL_FLOP_THRESHOLD: usize = 1 << 19;

/// Square tile edge for the blocked transpose (a `32 × 32` f32 tile is
/// 4 KiB: both the row-major reads and column-major writes stay in L1).
const TRANSPOSE_TILE: usize = 32;

/// A dense row-major `f32` matrix.
///
/// This is the workhorse container of the workspace: feature batches, encoded
/// hypervector batches, base-vector matrices and class-model matrices are all
/// `Matrix` values.  The layout is plain `Vec<f32>` in row-major order, which
/// keeps the robustness experiments (bit flips on raw model memory) and the
/// matrix-wise formulation of DistHD's Algorithms 1–2 straightforward.
///
/// # Example
///
/// ```
/// use disthd_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.row(0), &[1.0, 2.0]);
/// # Ok::<(), disthd_linalg::ShapeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, ShapeError> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(ShapeError::new(
                    "from_rows",
                    (rows.len(), cols),
                    (1, row.len()),
                ));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from borrowed row slices — the queue-friendly batch
    /// assembler.
    ///
    /// A request-batching server accumulates queries as independent slices
    /// (one per pending request) and must coalesce them into one contiguous
    /// row-major batch before the encode GEMM.  This constructor performs
    /// exactly that gather with a single allocation and no per-row `Vec`
    /// intermediaries, unlike [`Matrix::from_rows`].
    ///
    /// `cols` is explicit so an empty queue still produces a matrix of the
    /// correct width (a `0 × cols` flush is a valid no-op batch).
    ///
    /// # Example
    ///
    /// ```
    /// use disthd_linalg::Matrix;
    ///
    /// let queued: Vec<Vec<f32>> = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
    /// let refs: Vec<&[f32]> = queued.iter().map(Vec::as_slice).collect();
    /// let batch = Matrix::from_row_slices(2, &refs)?;
    /// assert_eq!(batch.shape(), (2, 2));
    /// assert_eq!(batch.row(1), &[3.0, 4.0]);
    /// # Ok::<(), disthd_linalg::ShapeError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any row's length differs from `cols`.
    pub fn from_row_slices(cols: usize, rows: &[&[f32]]) -> Result<Self, ShapeError> {
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(ShapeError::new(
                    "from_row_slices",
                    (rows.len(), cols),
                    (1, row.len()),
                ));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (1, data.len())));
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()` or `col >= cols()`.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()` or `col >= cols()`.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols()`.
    pub fn column(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Flat row-major view of the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable row-major view of the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Matrix–matrix product `self · rhs`.
    ///
    /// Runs the cache-blocked, register-blocked parallel kernel (see
    /// [`Matrix::matmul_map`]); results are bit-identical at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        self.matmul_map(rhs, |_, x| x)
    }

    /// Matrix–matrix product with a fused per-element epilogue:
    /// `out[r][c] = epilogue(c, (self · rhs)[r][c])`.
    ///
    /// The epilogue runs inside the GEMM's store phase, while the freshly
    /// accumulated tile is still in L1 — encoders use this to apply their
    /// nonlinearity without a second pass over the output (the paper's RBF
    /// map only needs the *column* index, which selects the per-dimension
    /// phase).
    ///
    /// The kernel packs `rhs` into 16-column tile-major panels, then
    /// processes the output in fixed 8-row chunks (fanned out over the
    /// [`crate::parallel`] worker pool) with a register-tiled inner loop
    /// whose tier is resolved once per process (portable mul-then-add,
    /// autovectorized `mul_add`, or explicit AVX2+FMA or AVX-512 tiles
    /// under runtime detection — see `KernelTier`).  Accumulation order per
    /// element is ascending over the inner dimension regardless of
    /// blocking, tier or thread count, so results are **bit-identical**
    /// on 1 or N threads.  FMA-capable machines fuse each multiply-add
    /// into one rounding, so their results differ from non-FMA machines
    /// (and from [`Matrix::matmul_reference`]) by ≤ 1 ulp per
    /// accumulation step — determinism is per-machine, never
    /// per-thread-count.
    ///
    /// ## Epilogue contract
    ///
    /// The epilogue is called **exactly once per output element**, with
    /// the element's *column* index and its fully accumulated value —
    /// including the empty sum `0.0` when the inner dimension is zero.
    /// It must be a pure function of `(column, value)`: it runs
    /// concurrently from worker threads (hence the `Sync` bound) and its
    /// invocation *order* across elements is unspecified, so any
    /// side-channel state would break the bit-determinism guarantee.  Row
    /// identity is deliberately not provided — an epilogue that needs it
    /// would make chunk assignment observable.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn matmul_map<F>(&self, rhs: &Matrix, epilogue: F) -> Result<Matrix, ShapeError>
    where
        F: Fn(usize, f32) -> f32 + Sync,
    {
        self.matmul_map_tier(rhs, epilogue, kernel_tier())
    }

    /// [`Matrix::matmul_map`] with an explicit micro-kernel tier — the
    /// parity-test entry point (the public API always uses the tier
    /// resolved by `kernel_tier`).
    fn matmul_map_tier<F>(
        &self,
        rhs: &Matrix,
        epilogue: F,
        tier: KernelTier,
    ) -> Result<Matrix, ShapeError>
    where
        F: Fn(usize, f32) -> f32 + Sync,
    {
        if self.cols != rhs.rows {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        // Pack `rhs` into tile-major panels (see `PackedRhs`): the
        // micro-kernel then streams one contiguous 64-byte line per `k`
        // step instead of striding `b_cols` floats, which defeats the
        // prefetcher and thrashes the TLB for wide outputs.  Packing is a
        // pure relayout, so it cannot perturb results.
        self.matmul_prepacked_tier(&PackedRhs::pack(rhs), epilogue, |_| {}, tier)
    }

    /// Matrix product against an externally packed right-hand side, with a
    /// fused per-element epilogue: `out[r][c] = epilogue(c, (self · B)[r][c])`
    /// where `B` is the matrix `packed` was filled from.
    ///
    /// This is [`Matrix::matmul_map`] minus the per-call packing step: the
    /// caller owns the [`PackedRhs`] and may reuse it across any number of
    /// products (the zero-dequantize serving path keeps its class codes
    /// permanently packed this way).  Numerics are identical to
    /// [`Matrix::matmul_map`] against the equivalent dense `rhs` — same
    /// micro-kernel, same ascending-`k` per-element accumulation chain (see
    /// [`dot_gemm_order`]), same bit-identity at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != packed.inner()`.
    pub fn matmul_prepacked_map<F>(
        &self,
        packed: &PackedRhs,
        epilogue: F,
    ) -> Result<Matrix, ShapeError>
    where
        F: Fn(usize, f32) -> f32 + Sync,
    {
        if self.cols != packed.inner {
            return Err(ShapeError::new(
                "matmul_prepacked",
                self.shape(),
                (packed.inner, packed.cols),
            ));
        }
        self.matmul_prepacked_tier(packed, epilogue, |_| {}, kernel_tier())
    }

    /// Matrix product against an externally packed right-hand side, with a
    /// fused per-*row* epilogue: `finish(row)` runs once on every output
    /// row of raw accumulated values, inside the work unit that computed
    /// it, and its result is the output row.
    ///
    /// Use this instead of [`Matrix::matmul_prepacked_map`] when the
    /// epilogue has a vectorized row form: the encoders' half-angle map
    /// runs as one [`crate::half_angle_row`] per row here, against one
    /// scalar call per element in the per-element store phase.  The
    /// products, the row chunking and the serial/parallel choice are
    /// those of [`Matrix::matmul_prepacked_map`], so the raw values
    /// `finish` sees are bit-identical to it at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != packed.inner()`.
    pub fn matmul_prepacked_rows<G>(
        &self,
        packed: &PackedRhs,
        finish: G,
    ) -> Result<Matrix, ShapeError>
    where
        G: Fn(&mut [f32]) + Sync,
    {
        if self.cols != packed.inner {
            return Err(ShapeError::new(
                "matmul_prepacked",
                self.shape(),
                (packed.inner, packed.cols),
            ));
        }
        self.matmul_prepacked_tier(packed, |_, x| x, finish, kernel_tier())
    }

    /// [`Matrix::matmul_prepacked_map`] with an explicit micro-kernel tier
    /// and a per-row `finish` pass, for a panel whose shape is already
    /// checked.
    fn matmul_prepacked_tier<F, G>(
        &self,
        packed: &PackedRhs,
        epilogue: F,
        finish: G,
        tier: KernelTier,
    ) -> Result<Matrix, ShapeError>
    where
        F: Fn(usize, f32) -> f32 + Sync,
        G: Fn(&mut [f32]) + Sync,
    {
        if self.rows * packed.cols == 0 {
            return Ok(Matrix::zeros(self.rows, packed.cols));
        }
        if packed.inner == 0 {
            // Degenerate product: every element is an empty sum, but the
            // epilogue must still see it.
            let mut out = Matrix::zeros(self.rows, packed.cols);
            for (i, slot) in out.data.iter_mut().enumerate() {
                *slot = epilogue(i % packed.cols, 0.0);
            }
            out.data.chunks_exact_mut(packed.cols).for_each(&finish);
            return Ok(out);
        }
        let inner = packed.inner;
        let b_cols = packed.cols;
        let mut out = Matrix::zeros(self.rows, b_cols);
        let panel_data = &packed.data;
        let kernel = |chunk_index: usize, out_chunk: &mut [f32]| {
            let first_row = chunk_index * GEMM_ROW_CHUNK;
            let block_rows = out_chunk.len() / b_cols;
            let a_block = &self.data[first_row * inner..(first_row + block_rows) * inner];
            gemm_row_block(
                tier, a_block, inner, panel_data, b_cols, out_chunk, &epilogue,
            );
            out_chunk.chunks_exact_mut(b_cols).for_each(&finish);
        };
        if gemm_runs_serial(self.rows, inner, b_cols) {
            // One tall block: the column-group blocking in
            // `gemm_row_block` then re-reads each packed panel once per
            // call instead of once per 8-row chunk.  Identical results —
            // only the visiting order differs from the parallel path.
            kernel(0, &mut out.data);
        } else {
            parallel::par_chunks_mut(&mut out.data, GEMM_ROW_CHUNK * b_cols, kernel);
        }
        Ok(out)
    }

    /// Computes a row range of `self · B` **serially** into a caller
    /// buffer, storing the raw accumulated values (no epilogue): row
    /// `first_row + i` of the product lands in
    /// `out[i * packed.cols()..(i + 1) * packed.cols()]`.
    ///
    /// This is the building block of the bit-sliced encode path: a fused
    /// producer runs this per chunk into thread-private scratch and
    /// quantizes the scratch in place, never materializing the full f32
    /// product.  Each output element's value is one ascending-`k`
    /// accumulation chain (see [`dot_gemm_order`]) that depends only on
    /// its own row and column, so *any* partition of the rows across
    /// calls — including the caller's own parallel chunking — produces
    /// output bit-identical to one [`Matrix::matmul_prepacked_map`] over
    /// the whole matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != packed.inner()`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a multiple of `packed.cols()` or the
    /// implied row range runs past `self.rows()`.
    pub fn matmul_rows_into(
        &self,
        packed: &PackedRhs,
        first_row: usize,
        out: &mut [f32],
    ) -> Result<(), ShapeError> {
        if self.cols != packed.inner {
            return Err(ShapeError::new(
                "matmul_rows_into",
                self.shape(),
                (packed.inner, packed.cols),
            ));
        }
        let b_cols = packed.cols;
        if b_cols == 0 {
            assert!(out.is_empty(), "output buffer for a zero-column product");
            return Ok(());
        }
        assert_eq!(out.len() % b_cols, 0, "output buffer is not whole rows");
        let block_rows = out.len() / b_cols;
        assert!(
            first_row + block_rows <= self.rows,
            "row range {}..{} exceeds {} rows",
            first_row,
            first_row + block_rows,
            self.rows
        );
        let inner = packed.inner;
        if inner == 0 {
            // Empty sums, matching the degenerate matmul_map product.
            out.fill(0.0);
            return Ok(());
        }
        let a_block = &self.data[first_row * inner..(first_row + block_rows) * inner];
        gemm_row_block(
            kernel_tier(),
            a_block,
            inner,
            &packed.data,
            b_cols,
            out,
            &|_, v| v,
        );
        Ok(())
    }

    /// Scalar reference matmul — the pre-backend ikj loop with the sparse
    /// `a == 0` skip, kept verbatim as the ground truth for kernel parity
    /// tests and as the "pre-PR" baseline of the throughput benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn matmul_reference(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f32]) -> Result<Vec<f32>, ShapeError> {
        if v.len() != self.cols {
            return Err(ShapeError::new("matvec", self.shape(), (v.len(), 1)));
        }
        Ok(self.iter_rows().map(|row| vector::dot(row, v)).collect())
    }

    /// Transposed copy of the matrix.
    ///
    /// Walks the matrix in `32 × 32` tiles so both the row-major source
    /// reads and the column-major destination writes hit cache lines that
    /// are already resident — the naive loop strides the destination by
    /// `rows` floats per element and thrashes once matrices outgrow L1.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r0 in (0..self.rows).step_by(TRANSPOSE_TILE) {
            let r1 = (r0 + TRANSPOSE_TILE).min(self.rows);
            for c0 in (0..self.cols).step_by(TRANSPOSE_TILE) {
                let c1 = (c0 + TRANSPOSE_TILE).min(self.cols);
                for r in r0..r1 {
                    for c in c0..c1 {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// In-place scalar multiplication.
    pub fn scale(&mut self, factor: f32) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Appends a row to the bottom of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `row.len() != cols()` (unless the matrix is
    /// empty, in which case the row defines the width).
    pub fn push_row(&mut self, row: &[f32]) -> Result<(), ShapeError> {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        } else if row.len() != self.cols {
            return Err(ShapeError::new("push_row", self.shape(), (1, row.len())));
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Returns a new matrix containing the selected rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }
}

/// A right-hand GEMM operand in the packed tile-major panel layout the
/// micro-kernel streams.
///
/// [`Matrix::matmul_map`] packs its `rhs` into this layout on every call.
/// Owning a `PackedRhs` decouples *filling* the panel from *multiplying*
/// through it ([`Matrix::matmul_prepacked_map`]): the quantized serving
/// kernel decodes packed integer codes straight into panel slots (no
/// dense `rhs` matrix ever exists), and a right-hand side that survives
/// across many products — the encoders' projections, a deployment's class
/// codes — is stored in this form and never repacked.  At one query row
/// the pack dominates: on a 2-vCPU AVX-512 Xeon, one thread, a 617×500
/// product costs 155–230 µs through `matmul_map` and 28–32 µs prepacked.
///
/// Layout: tile `t` holds columns `[16t, 16t+16)` as `inner` consecutive
/// 16-float groups (`panel[k·16 + lane] = B[k][16t + lane]`); the final
/// tile is zero-padded, so freshly constructed panels are valid (an
/// all-zero `B`) and padded lanes never reach the epilogue.
///
/// # Example
///
/// ```
/// use disthd_linalg::{Matrix, PackedRhs};
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]])?;
/// let mut packed = PackedRhs::new(2, 2);
/// for col in 0..2 {
///     for (k, slot) in packed.column_slots(col).enumerate() {
///         *slot = b.get(k, col);
///     }
/// }
/// let fast = a.matmul_prepacked_map(&packed, |_, x| x)?;
/// assert_eq!(fast, a.matmul(&b)?);
/// # Ok::<(), disthd_linalg::ShapeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedRhs {
    /// Rows of the logical right-hand matrix (the product's inner dim).
    inner: usize,
    /// Columns of the logical right-hand matrix.
    cols: usize,
    /// `cols.div_ceil(16) * inner * 16` floats in tile-major panel order.
    data: Vec<f32>,
}

impl PackedRhs {
    /// Creates a zeroed panel for an `inner × cols` right-hand matrix.
    pub fn new(inner: usize, cols: usize) -> Self {
        Self {
            inner,
            cols,
            data: vec![0.0; cols.div_ceil(GEMM_NW) * inner * GEMM_NW],
        }
    }

    /// Rows of the logical right-hand matrix.
    pub fn inner(&self) -> usize {
        self.inner
    }

    /// Columns of the logical right-hand matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Packs a dense right-hand matrix into panel order — the exact
    /// relayout [`Matrix::matmul_map`] performs internally, exposed so a
    /// caller can pack once and reuse the panel across
    /// [`Matrix::matmul_prepacked_map`] / [`Matrix::matmul_rows_into`]
    /// calls (the fused encoders keep their base matrices permanently
    /// packed this way).  Packing is a pure relayout: products against
    /// the panel are bit-identical to products against `rhs`.
    ///
    /// # Example
    ///
    /// ```
    /// use disthd_linalg::{Matrix, PackedRhs};
    ///
    /// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
    /// let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]])?;
    /// let packed = PackedRhs::pack(&b);
    /// assert_eq!(a.matmul_prepacked_map(&packed, |_, x| x)?, a.matmul(&b)?);
    /// # Ok::<(), disthd_linalg::ShapeError>(())
    /// ```
    pub fn pack(rhs: &Matrix) -> Self {
        let inner = rhs.rows;
        let b_cols = rhs.cols;
        let mut packed = Self::new(inner, b_cols);
        if inner == 0 || b_cols == 0 {
            return packed;
        }
        for (tile, panel) in packed.data.chunks_mut(inner * GEMM_NW).enumerate() {
            let col0 = tile * GEMM_NW;
            let width = (b_cols - col0).min(GEMM_NW);
            for k in 0..inner {
                panel[k * GEMM_NW..k * GEMM_NW + width]
                    .copy_from_slice(&rhs.data[k * b_cols + col0..k * b_cols + col0 + width]);
            }
        }
        packed
    }

    /// Mutable slots of logical column `col`, in ascending row (`k`)
    /// order — the filler writes `B[k][col]` into the `k`-th slot.
    ///
    /// # Panics
    ///
    /// Panics if `col >= cols()`.
    pub fn column_slots(&mut self, col: usize) -> impl Iterator<Item = &mut f32> + '_ {
        assert!(col < self.cols, "column index out of bounds");
        let tile = col / GEMM_NW;
        let lane = col % GEMM_NW;
        let panel = &mut self.data[tile * self.inner * GEMM_NW..(tile + 1) * self.inner * GEMM_NW];
        panel.iter_mut().skip(lane).step_by(GEMM_NW)
    }

    /// Element `B[k][col]` of the logical right-hand matrix.
    ///
    /// # Panics
    ///
    /// Panics if `k >= inner()` or `col >= cols()`.
    pub fn get(&self, k: usize, col: usize) -> f32 {
        assert!(k < self.inner && col < self.cols, "index out of bounds");
        self.data[(col / GEMM_NW * self.inner + k) * GEMM_NW + col % GEMM_NW]
    }

    /// Unpacks the panel back into the dense row-major matrix it holds —
    /// the inverse of [`PackedRhs::pack`].
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(self.inner, self.cols, |k, col| self.get(k, col))
    }
}

/// Whether a GEMM of this shape runs on the calling thread.
///
/// Below [`GEMM_PARALLEL_FLOP_THRESHOLD`] the fork/join cost outweighs the
/// arithmetic outright.  **Narrow outputs** (at most two 16-column packed
/// tiles) additionally need far more arithmetic before the pool pays: their
/// 8-row chunks span only a few hundred bytes, so adjacent chunks — dealt
/// to different workers — share boundary cache lines and ping-pong them,
/// and the packed panel is too small to amortize per-worker warmup.  The
/// trainer's per-epoch similarity GEMMs (`samples × D · D × k` with k ≈
/// tens of classes) sit exactly in that class; gating them serial until
/// they are genuinely large is what keeps the train phase from losing
/// throughput when workers outnumber useful parallelism.
fn gemm_runs_serial(rows: usize, inner: usize, b_cols: usize) -> bool {
    let macs = rows * inner * b_cols;
    let threshold = if b_cols <= 2 * GEMM_NW {
        GEMM_PARALLEL_FLOP_THRESHOLD << 4
    } else {
        GEMM_PARALLEL_FLOP_THRESHOLD
    };
    macs < threshold
}

/// Dot product in exactly the GEMM micro-kernel's **per-element
/// accumulation order**: one ascending chain over the inner dimension,
/// fused multiply-adds on the FMA, AVX2 and AVX-512 tiers, mul-then-add on
/// the portable tier (resolved from the same runtime detection as the
/// GEMM).
///
/// A caller that scores one query against one stored row reproduces — bit
/// for bit — the value [`Matrix::matmul_prepacked_map`] computes for that
/// (row, column), which is what keeps single-query serving and batched
/// serving byte-identical.  The chain may be resumed across segments via
/// `init` (pass the previous segment's return value).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn dot_gemm_order_from(init: f32, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_gemm_order: length mismatch");
    match kernel_tier() {
        KernelTier::Portable => a
            .iter()
            .zip(b.iter())
            .fold(init, |acc, (&x, &y)| acc + x * y),
        _ => a
            .iter()
            .zip(b.iter())
            .fold(init, |acc, (&x, &y)| x.mul_add(y, acc)),
    }
}

/// [`dot_gemm_order_from`] starting a fresh chain (an empty sum is `0.0`,
/// matching the GEMM's accumulator initialization).
pub fn dot_gemm_order(a: &[f32], b: &[f32]) -> f32 {
    dot_gemm_order_from(0.0, a, b)
}

/// Which micro-kernel implementation computes the accumulator tiles — the
/// crate's one runtime CPU-feature detection, which the quantize epilogue
/// (`codepack::symmetric_codes`) also reads.
///
/// All tiers share the identical per-element accumulation *order* (a single
/// ascending chain over the inner dimension, starting from `0.0`), so every
/// tier is bit-identical at any thread count.  The `Fma`, `Avx2` and
/// `Avx512` tiers additionally share identical *rounding* — each fuses
/// every multiply-add into one rounding via `f32::mul_add` semantics — so
/// runtime AVX2 or AVX-512 detection never changes results on a given
/// machine; only the tile shapes differ.  Only `Portable` (two roundings
/// per multiply-add, exactly the scalar reference) differs numerically,
/// which is why it stays the baseline for bitwise parity tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelTier {
    /// The original mul-then-add tile loop: bit-identical to
    /// [`Matrix::matmul_reference`], and the fallback on targets without
    /// hardware FMA (where `f32::mul_add` would fall back to a slow libm
    /// call).
    Portable,
    /// Explicitly unrolled `f32::mul_add` tile loop, written so the
    /// autovectorizer emits 8-lane FMA under `target-cpu=native`.
    Fma,
    /// Hand-written `std::arch` AVX2+FMA tile (8 × 256-bit accumulators),
    /// selected by runtime feature detection on x86_64.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Hand-written `std::arch` AVX-512F tiles (up to 16 × 512-bit
    /// accumulators, see `Avx512Block`), selected when the CPU has
    /// AVX-512F as well as AVX2 and FMA, so every AVX2 kernel of the crate
    /// also runs on this tier.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl KernelTier {
    /// Whether the CPU was detected to run AVX2+FMA code (true on the
    /// AVX-512 tier too, which requires both).
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn has_avx2(self) -> bool {
        matches!(self, KernelTier::Avx2 | KernelTier::Avx512)
    }
}

/// Resolves the micro-kernel tier once per process.  This is the only
/// runtime CPU-feature check in the crate.
///
/// x86_64 with runtime AVX-512F, AVX2 and FMA gets the AVX-512 tiles, and
/// with AVX2+FMA alone the AVX2 tile; targets whose build enables hardware
/// FMA (e.g. `target-cpu=native` on any modern x86_64, or aarch64) get the
/// `mul_add` kernel; everything else keeps the portable mul-then-add
/// kernel, whose results match `matmul_reference` bit for bit.
pub(crate) fn kernel_tier() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return KernelTier::Avx512;
                }
                return KernelTier::Avx2;
            }
        }
        // `target_feature = "fma"` is x86 naming; aarch64 spells its fused
        // multiply-add `neon` and has had it in the base ISA since ARMv8,
        // so the tier is unconditionally correct (and fast) there.
        #[cfg(any(target_feature = "fma", target_arch = "aarch64"))]
        {
            return KernelTier::Fma;
        }
        #[allow(unreachable_code)]
        KernelTier::Portable
    })
}

/// [`GEMM_MR`]-row accumulator tile over one packed panel: the original
/// mul-then-add loop (two roundings per multiply-add), kept verbatim as the
/// portable tier and the bitwise mirror of [`Matrix::matmul_reference`].
#[inline]
fn tile4_portable(a: [&[f32]; GEMM_MR], panel: &[f32]) -> [[f32; GEMM_NW]; GEMM_MR] {
    let mut c = [[0.0f32; GEMM_NW]; GEMM_MR];
    for (k, bv) in panel.chunks_exact(GEMM_NW).enumerate() {
        for m in 0..GEMM_MR {
            let am = a[m][k];
            for j in 0..GEMM_NW {
                c[m][j] += am * bv[j];
            }
        }
    }
    c
}

/// Single-row portable accumulator tile (row tail of a block).
#[inline]
fn tile1_portable(a: &[f32], panel: &[f32]) -> [f32; GEMM_NW] {
    let mut c = [0.0f32; GEMM_NW];
    for (k, bv) in panel.chunks_exact(GEMM_NW).enumerate() {
        let am = a[k];
        for j in 0..GEMM_NW {
            c[j] += am * bv[j];
        }
    }
    c
}

/// [`GEMM_MR`]-row accumulator tile with fused multiply-adds.
///
/// `f32::mul_add` guarantees single-rounding semantics on every target, so
/// this tier is bit-identical to the AVX2 intrinsics tier lane for lane; the
/// explicit 16-lane unroll is what lets the autovectorizer turn each `m`
/// row into two 8-lane `vfmadd` chains under `target-cpu=native`.
#[inline]
fn tile4_fma(a: [&[f32]; GEMM_MR], panel: &[f32]) -> [[f32; GEMM_NW]; GEMM_MR] {
    let mut c = [[0.0f32; GEMM_NW]; GEMM_MR];
    for (k, bv) in panel.chunks_exact(GEMM_NW).enumerate() {
        for m in 0..GEMM_MR {
            let am = a[m][k];
            for j in 0..GEMM_NW {
                c[m][j] = am.mul_add(bv[j], c[m][j]);
            }
        }
    }
    c
}

/// Single-row fused-multiply-add accumulator tile (row tail of a block).
#[inline]
fn tile1_fma(a: &[f32], panel: &[f32]) -> [f32; GEMM_NW] {
    let mut c = [0.0f32; GEMM_NW];
    for (k, bv) in panel.chunks_exact(GEMM_NW).enumerate() {
        let am = a[k];
        for j in 0..GEMM_NW {
            c[j] = am.mul_add(bv[j], c[j]);
        }
    }
    c
}

/// [`GEMM_MR`]-row accumulator tile in explicit AVX2+FMA intrinsics: eight
/// 256-bit accumulators (4 rows × 2 half-tiles) live in registers across
/// the whole inner-dimension sweep; per `k` step two 256-bit panel loads
/// and four broadcasts feed eight `vfmadd231ps`.
///
/// Each output lane accumulates `fma(a[m][k], b[k][j], acc)` in ascending
/// `k` — the same fused operation sequence as [`tile4_fma`], hence
/// bit-identical results (asserted by a parity test).
///
/// # Safety
///
/// The caller must have verified AVX2 and FMA support at runtime (see
/// [`kernel_tier`]).  `panel.len()` must equal `a[m].len() * GEMM_NW`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile4_avx2(a: [&[f32]; GEMM_MR], panel: &[f32]) -> [[f32; GEMM_NW]; GEMM_MR] {
    use std::arch::x86_64::*;
    debug_assert_eq!(panel.len(), a[0].len() * GEMM_NW);
    let mut acc = [_mm256_setzero_ps(); 2 * GEMM_MR];
    let mut b = panel.as_ptr();
    for k in 0..a[0].len() {
        let b_lo = _mm256_loadu_ps(b);
        let b_hi = _mm256_loadu_ps(b.add(8));
        for m in 0..GEMM_MR {
            let am = _mm256_set1_ps(*a[m].get_unchecked(k));
            acc[2 * m] = _mm256_fmadd_ps(am, b_lo, acc[2 * m]);
            acc[2 * m + 1] = _mm256_fmadd_ps(am, b_hi, acc[2 * m + 1]);
        }
        b = b.add(GEMM_NW);
    }
    let mut c = [[0.0f32; GEMM_NW]; GEMM_MR];
    for m in 0..GEMM_MR {
        _mm256_storeu_ps(c[m].as_mut_ptr(), acc[2 * m]);
        _mm256_storeu_ps(c[m].as_mut_ptr().add(8), acc[2 * m + 1]);
    }
    c
}

/// Single-row AVX2+FMA accumulator tile (row tail of a block).
///
/// # Safety
///
/// Same contract as [`tile4_avx2`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile1_avx2(a: &[f32], panel: &[f32]) -> [f32; GEMM_NW] {
    use std::arch::x86_64::*;
    debug_assert_eq!(panel.len(), a.len() * GEMM_NW);
    let mut acc_lo = _mm256_setzero_ps();
    let mut acc_hi = _mm256_setzero_ps();
    let mut b = panel.as_ptr();
    for k in 0..a.len() {
        let am = _mm256_set1_ps(*a.get_unchecked(k));
        acc_lo = _mm256_fmadd_ps(am, _mm256_loadu_ps(b), acc_lo);
        acc_hi = _mm256_fmadd_ps(am, _mm256_loadu_ps(b.add(8)), acc_hi);
        b = b.add(GEMM_NW);
    }
    let mut c = [0.0f32; GEMM_NW];
    _mm256_storeu_ps(c.as_mut_ptr(), acc_lo);
    _mm256_storeu_ps(c.as_mut_ptr().add(8), acc_hi);
    c
}

/// Tier dispatch for the 4-row tile.
#[allow(unsafe_code)]
#[inline]
fn tile4(tier: KernelTier, a: [&[f32]; GEMM_MR], panel: &[f32]) -> [[f32; GEMM_NW]; GEMM_MR] {
    match tier {
        KernelTier::Portable => tile4_portable(a, panel),
        KernelTier::Fma => tile4_fma(a, panel),
        // SAFETY: the Avx2 and Avx512 tiers are only ever constructed
        // after runtime AVX2+FMA detection (see `kernel_tier`), and the
        // panel invariant is maintained by `gemm_row_block`.
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 | KernelTier::Avx512 => unsafe { tile4_avx2(a, panel) },
    }
}

/// Tier dispatch for the single-row tile.
#[allow(unsafe_code)]
#[inline]
fn tile1(tier: KernelTier, a: &[f32], panel: &[f32]) -> [f32; GEMM_NW] {
    match tier {
        KernelTier::Portable => tile1_portable(a, panel),
        KernelTier::Fma => tile1_fma(a, panel),
        // SAFETY: as in `tile4` — tier construction implies runtime
        // detection passed.
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 | KernelTier::Avx512 => unsafe { tile1_avx2(a, panel) },
    }
}

/// Computes `block_rows` output rows of `A · B` with a fused epilogue.
///
/// `a_block` holds the `block_rows × inner` slice of the left operand that
/// corresponds to this output chunk; `packed` is the tile-major packing of
/// the right operand built by [`Matrix::matmul_map`] (one zero-padded
/// `inner × 16` panel per 16-column tile); `out` is the `block_rows ×
/// b_cols` output chunk.
///
/// The micro-kernel is a [`GEMM_MR`]`×`[`GEMM_NW`] register tile: a fixed
/// 4 × 16 accumulator block stays in vector registers across the entire
/// inner-dimension sweep — per `k` step only one contiguous 64-byte packed
/// line and four broadcast `A` scalars move — then stores once through the
/// epilogue.  The tile arithmetic itself is supplied by `tier` (see
/// [`KernelTier`]); within any tier, accumulation over `k` is a single
/// ascending chain per element, the same order at every tile position,
/// remainder path and thread count, which pins the floating-point result
/// bit-for-bit.  The AVX-512 tier runs its own tile shapes
/// (`Avx512Block`) under the same contract.
fn gemm_row_block<F: Fn(usize, f32) -> f32>(
    tier: KernelTier,
    a_block: &[f32],
    inner: usize,
    packed: &[f32],
    b_cols: usize,
    out: &mut [f32],
    epilogue: &F,
) {
    if b_cols == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if tier == KernelTier::Avx512 {
        let block = Avx512Block {
            a_block,
            inner,
            packed,
            b_cols,
            epilogue,
        };
        block.run(out);
        return;
    }
    let block_rows = out.len() / b_cols;
    let panel_len = inner * GEMM_NW;
    // Column-group blocking: sweep every row of the block over one
    // L2-sized group of packed panels before touching the next group, so
    // panel bytes are re-read once per group per block, not once per 4
    // rows.  Each output element is still produced by a single tile call
    // accumulating ascending `k`, so the visiting order changes cache
    // traffic only — results stay bit-identical for any group size or
    // row-block height.
    let group_tiles = (GEMM_GROUP_BYTES / (panel_len * std::mem::size_of::<f32>())).max(1);
    for (group_index, group) in packed.chunks(group_tiles * panel_len).enumerate() {
        let group_col0 = group_index * group_tiles * GEMM_NW;
        let mut r = 0;
        while r + GEMM_MR <= block_rows {
            let a = [
                &a_block[r * inner..(r + 1) * inner],
                &a_block[(r + 1) * inner..(r + 2) * inner],
                &a_block[(r + 2) * inner..(r + 3) * inner],
                &a_block[(r + 3) * inner..(r + 4) * inner],
            ];
            for (tile, panel) in group.chunks_exact(panel_len).enumerate() {
                let col0 = group_col0 + tile * GEMM_NW;
                let width = (b_cols - col0).min(GEMM_NW);
                let c = tile4(tier, a, panel);
                for (m, lane) in c.iter().enumerate() {
                    let start = (r + m) * b_cols + col0;
                    for (j, &v) in lane[..width].iter().enumerate() {
                        out[start + j] = epilogue(col0 + j, v);
                    }
                }
            }
            r += GEMM_MR;
        }
        // Row tail (block_rows % 4): one row at a time, same register
        // tiling and the same ascending-k accumulation order.
        while r < block_rows {
            let a_row = &a_block[r * inner..(r + 1) * inner];
            for (tile, panel) in group.chunks_exact(panel_len).enumerate() {
                let col0 = group_col0 + tile * GEMM_NW;
                let width = (b_cols - col0).min(GEMM_NW);
                let c = tile1(tier, a_row, panel);
                let start = r * b_cols + col0;
                for (j, &v) in c[..width].iter().enumerate() {
                    out[start + j] = epilogue(col0 + j, v);
                }
            }
            r += 1;
        }
    }
}

/// One `gemm_row_block` call on the AVX-512 tier: the operands of an
/// output block, which [`Avx512Block::run`] covers with
///
/// - 8-row × 2-panel tiles (16 zmm accumulators) for the body,
/// - 4-row × 2-panel tiles for a 4–7-row remainder,
/// - 1-row × 8-panel tiles for the last 1–3 rows, which sweep the whole
///   packed slab rather than one column group (a one-row product has no
///   panel reuse to block for, and eight panels keep both FMA ports busy),
/// - narrower tiles for panel tails: one panel after the pairs, and 4, 2
///   or 1 panels after a single row's groups of eight.
///
/// Every tile runs one ascending-`k` fused chain from `0.0` per element,
/// so the output is bit-identical to the `Fma` and `Avx2` tiers.
#[cfg(target_arch = "x86_64")]
struct Avx512Block<'a, F> {
    /// The `block_rows × inner` left operand.
    a_block: &'a [f32],
    inner: usize,
    /// Every packed panel of the right operand.
    packed: &'a [f32],
    b_cols: usize,
    epilogue: &'a F,
}

#[cfg(target_arch = "x86_64")]
impl<F: Fn(usize, f32) -> f32> Avx512Block<'_, F> {
    /// Computes every row of the block into `out` (`block_rows × b_cols`).
    fn run(&self, out: &mut [f32]) {
        let block_rows = out.len() / self.b_cols;
        let panel_bytes = self.inner * GEMM_NW * std::mem::size_of::<f32>();
        let panels = self.b_cols.div_ceil(GEMM_NW);
        // Column groups as in `gemm_row_block`, rounded down to whole panel
        // pairs so the 2-panel tiles never straddle a group edge.
        let group_panels = ((GEMM_GROUP_BYTES / panel_bytes) & !1).max(2);
        let tall_rows = block_rows - block_rows % GEMM_MR;
        for p0 in (0..panels).step_by(group_panels) {
            let p1 = (p0 + group_panels).min(panels);
            let mut r = 0;
            while r + AVX512_MR <= tall_rows {
                self.panel_range::<AVX512_MR>(out, r, p0, p1);
                r += AVX512_MR;
            }
            if r < tall_rows {
                self.panel_range::<GEMM_MR>(out, r, p0, p1);
            }
        }
        for r in tall_rows..block_rows {
            let mut p = 0;
            while p < panels {
                p += match panels - p {
                    left if left >= AVX512_ROW_PANELS => {
                        self.tile::<1, AVX512_ROW_PANELS>(out, r, p)
                    }
                    left if left >= 4 => self.tile::<1, 4>(out, r, p),
                    left if left >= 2 => self.tile::<1, 2>(out, r, p),
                    _ => self.tile::<1, 1>(out, r, p),
                };
            }
        }
    }

    /// `MR` rows starting at `r` over panels `p0..p1`, two at a time.
    fn panel_range<const MR: usize>(&self, out: &mut [f32], r: usize, p0: usize, p1: usize) {
        let mut p = p0;
        while p + 2 <= p1 {
            p += self.tile::<MR, 2>(out, r, p);
        }
        if p < p1 {
            self.tile::<MR, 1>(out, r, p);
        }
    }

    /// Computes the `MR × NP`-panel tile at row `r`, panel `p`, stores it
    /// through the epilogue, and returns `NP`.
    #[allow(unsafe_code)]
    fn tile<const MR: usize, const NP: usize>(&self, out: &mut [f32], r: usize, p: usize) -> usize {
        let inner = self.inner;
        let panel_len = inner * GEMM_NW;
        let a = &self.a_block[r * inner..(r + MR) * inner];
        let panels = &self.packed[p * panel_len..(p + NP) * panel_len];
        // SAFETY: this block only runs on the Avx512 tier, which
        // `kernel_tier` constructs after runtime AVX-512F detection; the
        // slices above hold exactly `MR` rows and `NP` panels of `inner`
        // steps, the extents `tile_avx512` reads.
        let c = unsafe { tile_avx512::<MR, NP>(a, panels, inner) };
        for (m, row) in c.iter().enumerate() {
            for (q, lane) in row.iter().enumerate() {
                let col0 = (p + q) * GEMM_NW;
                let width = (self.b_cols - col0).min(GEMM_NW);
                let start = (r + m) * self.b_cols + col0;
                for (j, &v) in lane[..width].iter().enumerate() {
                    out[start + j] = (self.epilogue)(col0 + j, v);
                }
            }
        }
        NP
    }
}

/// `MR`-row × `NP`-panel accumulator tile in AVX-512F intrinsics: `MR ·
/// NP` 512-bit accumulators, one per (row, panel) line, live in registers
/// across the whole inner-dimension sweep; per `k` step `NP` panel loads
/// and `MR` broadcasts feed `MR · NP` `vfmadd231ps`.
///
/// Each output lane accumulates `fma(a[m][k], b[k][j], acc)` in ascending
/// `k` from `0.0` — the operation sequence of [`tile4_fma`] and
/// [`tile4_avx2`], hence bit-identical results (asserted by a parity test).
///
/// # Safety
///
/// The caller must have verified AVX-512F support at runtime (see
/// [`kernel_tier`]).  `a.len()` must be at least `MR * inner` (row `m` at
/// `a[m * inner..]`) and `panels.len()` at least `NP * inner * GEMM_NW`
/// (panel `q` at `panels[q * inner * GEMM_NW..]`).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx512f")]
unsafe fn tile_avx512<const MR: usize, const NP: usize>(
    a: &[f32],
    panels: &[f32],
    inner: usize,
) -> [[[f32; GEMM_NW]; NP]; MR] {
    use std::arch::x86_64::*;
    debug_assert!(a.len() >= MR * inner && panels.len() >= NP * inner * GEMM_NW);
    let panel_len = inner * GEMM_NW;
    let a = a.as_ptr();
    let b = panels.as_ptr();
    let mut acc = [[_mm512_setzero_ps(); NP]; MR];
    for k in 0..inner {
        let mut lines = [_mm512_setzero_ps(); NP];
        for (q, line) in lines.iter_mut().enumerate() {
            *line = _mm512_loadu_ps(b.add(q * panel_len + k * GEMM_NW));
        }
        for (m, row) in acc.iter_mut().enumerate() {
            let am = _mm512_set1_ps(*a.add(m * inner + k));
            for (slot, &line) in row.iter_mut().zip(&lines) {
                *slot = _mm512_fmadd_ps(am, line, *slot);
            }
        }
    }
    let mut c = [[[0.0f32; GEMM_NW]; NP]; MR];
    for (c_row, acc_row) in c.iter_mut().zip(&acc) {
        for (lane, &v) in c_row.iter_mut().zip(acc_row) {
            _mm512_storeu_ps(lane.as_mut_ptr(), v);
        }
    }
    c
}

impl Default for Matrix {
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert_eq!(err.op(), "from_rows");
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn from_row_slices_gathers_queued_rows() {
        let m = sample();
        let refs: Vec<&[f32]> = vec![m.row(1), m.row(0), m.row(1)];
        let gathered = Matrix::from_row_slices(3, &refs).unwrap();
        assert_eq!(gathered.shape(), (3, 3));
        assert_eq!(gathered.row(0), m.row(1));
        assert_eq!(gathered.row(1), m.row(0));
    }

    #[test]
    fn from_row_slices_empty_keeps_width() {
        let empty = Matrix::from_row_slices(5, &[]).unwrap();
        assert_eq!(empty.shape(), (0, 5));
    }

    #[test]
    fn from_row_slices_rejects_ragged_input() {
        let short = [0.0f32; 2];
        let err = Matrix::from_row_slices(3, &[&short]).unwrap_err();
        assert_eq!(err.op(), "from_row_slices");
    }

    #[test]
    fn get_set_round_trip() {
        let mut m = sample();
        m.set(0, 2, 9.5);
        assert_eq!(m.get(0, 2), 9.5);
        assert_eq!(m.get(1, 1), 5.0);
    }

    #[test]
    fn row_and_column_views() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.column(2), vec![3.0, 6.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = sample(); // 2x3
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.row(0), &[58.0, 64.0]);
        assert_eq!(c.row(1), &[139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = sample();
        let b = Matrix::zeros(2, 2);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_skips_zero_entries_correctly() {
        // Sparse left operand exercises the `a == 0.0` fast path.
        let a = Matrix::from_rows(&[vec![0.0, 2.0], vec![1.0, 0.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[10.0, 12.0]);
        assert_eq!(c.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = sample();
        let v = vec![1.0, 0.5, -1.0];
        let out = a.matvec(&v).unwrap();
        assert_eq!(out, vec![1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
    }

    #[test]
    fn matvec_validates_length() {
        assert!(sample().matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = Matrix::default();
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn select_rows_picks_in_order() {
        let m = sample();
        let s = m.select_rows(&[1, 0, 1]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(s.row(2), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn iter_rows_yields_every_row() {
        let m = sample();
        let rows: Vec<&[f32]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn scale_multiplies_every_element() {
        let mut m = sample();
        m.scale(2.0);
        assert_eq!(m.get(1, 2), 12.0);
    }

    /// Deterministic pseudo-random matrix with no exact zeros, so the
    /// reference kernel's `a == 0` skip takes no branch and the blocked
    /// kernel must match it bit for bit.
    fn dense_random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5 + 1.0e-3
        })
    }

    /// Shapes that straddle every blocking boundary: rows % 4, cols % 16,
    /// single row/column, the 8-row parallel chunk edge, and ragged row
    /// blocks (5/6/7/9 rows leave 1–3-row tails after the 4-row tile).
    /// For the AVX-512 tiles: 8/16 rows of 8-row tiles, 12/15/17 rows
    /// that add a 4-row tile and single rows, one row over 10 panels
    /// (a full 8-panel tile, then 2), odd panel counts (3 and 7), and an
    /// inner dimension of 4100, where one panel outgrows the 256 KiB
    /// column group and the group rounds up to a pair.
    const PARITY_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (5, 40, 33),
        (6, 12, 100),
        (7, 64, 48),
        (8, 16, 512),
        (9, 17, 513),
        (4, 600, 530),
        (33, 7, 1030),
        (8, 30, 48),
        (12, 21, 100),
        (15, 9, 70),
        (16, 13, 145),
        (17, 25, 200),
        (1, 50, 145),
        (13, 4100, 40),
    ];

    #[test]
    fn portable_tier_matches_reference_bitwise() {
        // The portable tile loop performs exactly the reference kernel's
        // mul-then-add sequence per element, so blocking and packing must
        // not change a single bit.
        for &(m, k, n) in PARITY_SHAPES {
            let a = dense_random(m, k, 0xA0 + m as u64);
            let b = dense_random(k, n, 0xB0 + n as u64);
            let blocked = a
                .matmul_map_tier(&b, |_, x| x, KernelTier::Portable)
                .unwrap();
            let reference = a.matmul_reference(&b).unwrap();
            assert_eq!(
                blocked.as_slice(),
                reference.as_slice(),
                "shape ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn active_tier_matches_portable_within_fma_tolerance() {
        // FMA tiers round once per multiply-add instead of twice; the
        // element-wise drift from the portable kernel is bounded by the
        // accumulated rounding difference (≪ 1e-5 relative at these
        // magnitudes).  Also asserts the active kernel handles every
        // blocking boundary.
        for &(m, k, n) in PARITY_SHAPES {
            let a = dense_random(m, k, 0xC0 + m as u64);
            let b = dense_random(k, n, 0xD0 + n as u64);
            let active = a.matmul(&b).unwrap();
            let portable = a
                .matmul_map_tier(&b, |_, x| x, KernelTier::Portable)
                .unwrap();
            for (i, (&x, &y)) in active
                .as_slice()
                .iter()
                .zip(portable.as_slice().iter())
                .enumerate()
            {
                let tolerance = 1e-5 * y.abs().max(1.0);
                assert!(
                    (x - y).abs() <= tolerance,
                    "element {i} of ({m},{k},{n}): active {x} vs portable {y}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_and_avx2_tiers_agree_bitwise() {
        // Both tiers fuse each multiply-add into one rounding in the same
        // ascending-k order, so runtime AVX2 detection must never change
        // results.  Skipped (trivially passes) on machines without AVX2.
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            return;
        }
        for &(m, k, n) in PARITY_SHAPES {
            let a = dense_random(m, k, 0xE0 + m as u64);
            let b = dense_random(k, n, 0xF0 + n as u64);
            let fma = a.matmul_map_tier(&b, |_, x| x, KernelTier::Fma).unwrap();
            let avx2 = a.matmul_map_tier(&b, |_, x| x, KernelTier::Avx2).unwrap();
            assert_eq!(fma.as_slice(), avx2.as_slice(), "shape ({m},{k},{n})");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_and_avx2_tiers_agree_bitwise() {
        // The AVX-512 tiles run the same fused ascending-k chain per
        // element as the AVX2 and FMA tiles, in other tile shapes, so the
        // three agree bit for bit — through the per-call-packing product
        // and through the public prepacked and row-range entry points,
        // which run the AVX-512 tier whenever it is detected.
        if !std::arch::is_x86_feature_detected!("avx512f") {
            eprintln!("avx512_and_avx2_tiers_agree_bitwise: no avx512f on this CPU, skipped");
            return;
        }
        assert_eq!(kernel_tier(), KernelTier::Avx512);
        for &(m, k, n) in PARITY_SHAPES {
            let a = dense_random(m, k, 0x70 + m as u64);
            let b = dense_random(k, n, 0x80 + n as u64);
            let at = format!("shape ({m},{k},{n})");
            let avx2 = a.matmul_map_tier(&b, |_, x| x, KernelTier::Avx2).unwrap();
            let fma = a.matmul_map_tier(&b, |_, x| x, KernelTier::Fma).unwrap();
            assert_eq!(fma, avx2, "{at}: Fma");
            let packed = PackedRhs::pack(&b);
            for threads in [1usize, 4] {
                let (avx512, prepacked) = crate::parallel::with_thread_count(threads, || {
                    (
                        a.matmul_map_tier(&b, |_, x| x, KernelTier::Avx512).unwrap(),
                        a.matmul_prepacked_map(&packed, |_, x| x).unwrap(),
                    )
                });
                assert_eq!(avx512, avx2, "{at}: Avx512, {threads} threads");
                assert_eq!(prepacked, avx2, "{at}: prepacked, {threads} threads");
            }
            // Row ranges of 1, 3, 5 and 9 rows start the tiles at every
            // row offset a caller's partition can give them.
            for step in [1usize, 3, 5, 9] {
                let mut rows = vec![0.0f32; m * n];
                for (chunk, out) in rows.chunks_mut(step * n).enumerate() {
                    a.matmul_rows_into(&packed, chunk * step, out).unwrap();
                }
                assert_eq!(rows, avx2.as_slice(), "{at}: rows_into by {step}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn detected_avx2_keeps_the_avx2_kernels_on_every_tier() {
        // `symmetric_codes` runs its AVX2 kernel when `has_avx2` holds; on
        // an AVX-512 CPU it must not fall back to the scalar loop.
        let avx2 = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        assert_eq!(kernel_tier().has_avx2(), avx2);
    }

    /// Packs `rhs` into a fresh panel through the public slot API.
    fn pack_rhs(rhs: &Matrix) -> PackedRhs {
        let mut packed = PackedRhs::new(rhs.rows(), rhs.cols());
        for col in 0..rhs.cols() {
            for (k, slot) in packed.column_slots(col).enumerate() {
                *slot = rhs.get(k, col);
            }
        }
        packed
    }

    #[test]
    fn prepacked_matmul_is_bitwise_equal_to_matmul() {
        // The prepacked entry point skips the per-call pack but must run
        // the identical kernel on identical panels — bit for bit, at every
        // blocking boundary.
        for &(m, k, n) in PARITY_SHAPES {
            let a = dense_random(m, k, 0x10 + m as u64);
            let b = dense_random(k, n, 0x20 + n as u64);
            let packed = pack_rhs(&b);
            assert_eq!(packed.inner(), k);
            assert_eq!(packed.cols(), n);
            let fast = a.matmul_prepacked_map(&packed, |_, x| x).unwrap();
            let reference = a.matmul(&b).unwrap();
            assert_eq!(fast.as_slice(), reference.as_slice(), "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn packed_accessors_read_back_the_packed_matrix() {
        for &(k, n) in &[(1usize, 1usize), (5, 16), (7, 17), (3, 40)] {
            let b = dense_random(k, n, 0x40 + n as u64);
            let packed = PackedRhs::pack(&b);
            assert_eq!(packed.to_matrix(), b, "shape ({k},{n})");
            for r in 0..k {
                for c in 0..n {
                    assert_eq!(packed.get(r, c), b.get(r, c));
                }
            }
        }
        assert_eq!(PackedRhs::new(0, 3).to_matrix(), Matrix::zeros(0, 3));
    }

    #[test]
    fn prepacked_matmul_applies_epilogue_and_checks_shapes() {
        let a = sample(); // 2x3
        let b = dense_random(3, 5, 9);
        let packed = pack_rhs(&b);
        let mapped = a
            .matmul_prepacked_map(&packed, |col, x| x + 1000.0 * col as f32)
            .unwrap();
        let plain = a.matmul(&b).unwrap();
        for r in 0..2 {
            for c in 0..5 {
                assert_eq!(mapped.get(r, c), plain.get(r, c) + 1000.0 * c as f32);
            }
        }
        let wrong = PackedRhs::new(4, 5);
        assert!(a.matmul_prepacked_map(&wrong, |_, x| x).is_err());
    }

    #[test]
    fn prepacked_row_epilogue_finishes_every_raw_row_once() {
        // The row form must see exactly the raw products the element form
        // stores, once per row, serial and pooled, including an empty
        // inner dimension.
        let finish = |row: &mut [f32]| row.iter_mut().for_each(|v| *v = *v * 3.0 + 0.5);
        for &(m, k, n) in PARITY_SHAPES.iter().chain(&[(40, 64, 1030), (5, 0, 3)]) {
            let a = dense_random(m, k, 0x50 + m as u64);
            let packed = pack_rhs(&dense_random(k, n, 0x60 + n as u64));
            let expected = a
                .matmul_prepacked_map(&packed, |_, x| x * 3.0 + 0.5)
                .unwrap();
            for threads in [1usize, 4] {
                let rows = crate::parallel::with_thread_count(threads, || {
                    a.matmul_prepacked_rows(&packed, finish).unwrap()
                });
                assert_eq!(rows, expected, "shape ({m},{k},{n}), {threads} threads");
            }
        }
        assert!(sample()
            .matmul_prepacked_rows(&PackedRhs::new(4, 5), finish)
            .is_err());
    }

    #[test]
    fn dot_gemm_order_matches_gemm_elements_bitwise() {
        // The single-query chain must reproduce the batched kernel's
        // per-element value exactly — including when resumed segment by
        // segment.
        let a = dense_random(3, 133, 0x31);
        let b = dense_random(133, 20, 0x32);
        let product = a.matmul(&b).unwrap();
        for r in 0..3 {
            for c in 0..20 {
                let col = b.column(c);
                let whole = dot_gemm_order(a.row(r), &col);
                let mut segmented = 0.0f32;
                for (row_seg, col_seg) in a.row(r).chunks(40).zip(col.chunks(40)) {
                    segmented = dot_gemm_order_from(segmented, row_seg, col_seg);
                }
                assert_eq!(whole, product.get(r, c), "({r},{c})");
                assert_eq!(segmented, whole, "({r},{c}) segmented");
            }
        }
    }

    #[test]
    fn matmul_is_bit_identical_across_thread_counts() {
        // 40·64·1030 ≈ 2.6 M MACs: above the serial-fallback threshold, so
        // the parallel path genuinely runs.
        let a = dense_random(40, 64, 1);
        let b = dense_random(64, 1030, 2);
        let serial = crate::parallel::with_thread_count(1, || a.matmul(&b).unwrap());
        for threads in [2usize, 8] {
            let parallel = crate::parallel::with_thread_count(threads, || a.matmul(&b).unwrap());
            assert_eq!(serial.as_slice(), parallel.as_slice(), "{threads} threads");
        }
    }

    #[test]
    fn matmul_with_fewer_rows_than_threads() {
        // 3 rows < 8 threads, but 3·1030·700 ≈ 2.2 M MACs keeps the
        // parallel path engaged.
        let a = dense_random(3, 1030, 3);
        let b = dense_random(1030, 700, 4);
        let got = crate::parallel::with_thread_count(8, || a.matmul(&b).unwrap());
        let want = crate::parallel::with_thread_count(1, || a.matmul(&b).unwrap());
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn matmul_map_applies_epilogue_per_column() {
        let a = sample(); // 2x3
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]).unwrap();
        let plain = a.matmul(&b).unwrap();
        let mapped = a.matmul_map(&b, |col, x| x + col as f32 * 100.0).unwrap();
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(mapped.get(r, c), plain.get(r, c) + c as f32 * 100.0);
            }
        }
    }

    #[test]
    fn matmul_handles_degenerate_shapes() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 4);
        assert_eq!(a.matmul(&b).unwrap().shape(), (0, 4));
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let out = a.matmul(&b).unwrap();
        assert_eq!(out.shape(), (3, 4));
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
        let a = Matrix::zeros(3, 5);
        let b = Matrix::zeros(5, 0);
        assert_eq!(a.matmul(&b).unwrap().shape(), (3, 0));
    }

    #[test]
    fn blocked_transpose_matches_naive_on_odd_shapes() {
        for &(r, c) in &[(1usize, 1usize), (31, 33), (32, 32), (65, 7), (5, 100)] {
            let m = dense_random(r, c, (r * c) as u64);
            let t = m.transpose();
            assert_eq!(t.shape(), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t.get(j, i), m.get(i, j), "({i},{j}) of {r}x{c}");
                }
            }
        }
    }
}
