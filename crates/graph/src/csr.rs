//! Compressed sparse row matrices.

use desalign_tensor::Matrix;
use desalign_util::{DefectClass, DesalignError};
use std::sync::OnceLock;

/// A sparse matrix in compressed sparse row format.
///
/// Invariants (maintained by every constructor):
/// - `indptr.len() == rows + 1`, `indptr[0] == 0`,
///   `indptr[rows] == indices.len() == values.len()`;
/// - column indices within each row are strictly increasing and `< cols`;
/// - no explicit zeros are stored by [`Csr::from_coo`] (duplicates are
///   summed, exact-zero results kept — they are harmless).
///
/// ```
/// use desalign_graph::Csr;
/// use desalign_tensor::Matrix;
///
/// // [[0, 2], [3, 0]] from COO triplets (duplicates are summed).
/// let m = Csr::from_coo(2, 2, vec![(0, 1, 2.0), (1, 0, 1.0), (1, 0, 2.0)]);
/// assert_eq!(m.nnz(), 2);
/// let x = Matrix::from_rows(&[&[1.0], &[10.0]]);
/// assert_eq!(m.spmm(&x), Matrix::from_rows(&[&[20.0], &[3.0]]));
/// ```
#[derive(Debug)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f32>,
    /// `self.transpose()`, built by the first parallel [`Csr::spmm_t_into`]
    /// that needs it. Not part of the matrix: equality ignores it and a
    /// clone starts without it, so a mutated copy never carries a stale
    /// one.
    transposed: OnceLock<Box<Csr>>,
}

impl Clone for Csr {
    fn clone(&self) -> Self {
        Self::from_parts(self.rows, self.cols, self.indptr.clone(), self.indices.clone(), self.values.clone())
    }
}

impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols)
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self.values == other.values
    }
}

impl Csr {
    fn from_parts(rows: usize, cols: usize, indptr: Vec<usize>, indices: Vec<usize>, values: Vec<f32>) -> Self {
        Self { rows, cols, indptr, indices, values, transposed: OnceLock::new() }
    }

    /// Builds a CSR matrix from COO triplets `(row, col, value)`.
    /// Duplicate coordinates are summed.
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_coo(rows: usize, cols: usize, mut triplets: Vec<(usize, usize, f32)>) -> Self {
        for &(r, c, _) in &triplets {
            assert!(r < rows && c < cols, "Csr::from_coo: entry ({r},{c}) out of bounds for {rows}x{cols}");
        }
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in triplets {
            if last == Some((r, c)) {
                *values.last_mut().expect("duplicate follows an entry") += v;
            } else {
                indices.push(c);
                values.push(v);
                indptr[r + 1] = indices.len();
                last = Some((r, c));
            }
        }
        // Make indptr cumulative (rows with no entries inherit predecessor).
        for r in 0..rows {
            if indptr[r + 1] < indptr[r] {
                indptr[r + 1] = indptr[r];
            }
        }
        Self::from_parts(rows, cols, indptr, indices, values)
    }

    /// Builds a CSR matrix from raw parts, checking every structural
    /// invariant and reporting the first violation as a typed
    /// [`DesalignError`] instead of panicking.
    ///
    /// This is the untrusted-input counterpart of [`Csr::from_coo`]: use it
    /// when the parts come from outside the process (a loader, a network
    /// peer, a fuzzer) rather than from workspace code. The checks are:
    ///
    /// - `indptr` has `rows + 1` entries, starts at `0`, is monotonically
    ///   non-decreasing, and ends at `indices.len()`;
    /// - `indices.len() == values.len()`;
    /// - within each row, column indices are strictly increasing and
    ///   `< cols`;
    /// - every stored value is finite.
    ///
    /// ```
    /// use desalign_graph::Csr;
    ///
    /// let ok = Csr::try_new(2, 2, vec![0, 1, 2], vec![1, 0], vec![2.0, 3.0]);
    /// assert!(ok.is_ok());
    /// let bad = Csr::try_new(2, 2, vec![0, 1, 2], vec![5, 0], vec![2.0, 3.0]);
    /// assert!(bad.is_err());
    /// ```
    pub fn try_new(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self, DesalignError> {
        if indptr.len() != rows + 1 {
            return Err(DesalignError::new(
                DefectClass::Schema,
                "csr.indptr",
                format!("expected {} entries for {rows} rows, got {}", rows + 1, indptr.len()),
            ));
        }
        if indptr[0] != 0 {
            return Err(DesalignError::new(DefectClass::Schema, "csr.indptr[0]", format!("must be 0, got {}", indptr[0])));
        }
        if indices.len() != values.len() {
            return Err(DesalignError::new(
                DefectClass::Schema,
                "csr.values",
                format!("{} values for {} column indices", values.len(), indices.len()),
            ));
        }
        if indptr[rows] != indices.len() {
            return Err(DesalignError::new(
                DefectClass::Schema,
                format!("csr.indptr[{rows}]"),
                format!("must equal nnz {}, got {}", indices.len(), indptr[rows]),
            ));
        }
        for r in 0..rows {
            let (s, e) = (indptr[r], indptr[r + 1]);
            if e < s {
                return Err(DesalignError::new(
                    DefectClass::Schema,
                    format!("csr.indptr[{}]", r + 1),
                    format!("decreases from {s} to {e}"),
                ));
            }
            let mut prev: Option<usize> = None;
            for k in s..e {
                let c = indices[k];
                if c >= cols {
                    return Err(DesalignError::new(
                        DefectClass::DanglingEndpoint,
                        format!("csr.indices[{k}]"),
                        format!("column {c} out of bounds for {cols} columns (row {r})"),
                    ));
                }
                if prev.is_some_and(|p| c <= p) {
                    return Err(DesalignError::new(
                        DefectClass::Schema,
                        format!("csr.indices[{k}]"),
                        format!("column {c} not strictly increasing within row {r}"),
                    ));
                }
                prev = Some(c);
            }
        }
        if let Some(k) = values.iter().position(|v| !v.is_finite()) {
            return Err(DesalignError::new(
                DefectClass::NonFiniteFeature,
                format!("csr.values[{k}]"),
                format!("stored value {} is not finite", values[k]),
            ));
        }
        Ok(Self::from_parts(rows, cols, indptr, indices, values))
    }

    /// Fallible counterpart of [`Csr::from_coo`]: reports out-of-bounds
    /// coordinates and non-finite values as typed errors instead of
    /// panicking. Duplicate coordinates are summed, as in `from_coo`.
    pub fn try_from_coo(rows: usize, cols: usize, triplets: Vec<(usize, usize, f32)>) -> Result<Self, DesalignError> {
        for (k, &(r, c, v)) in triplets.iter().enumerate() {
            if r >= rows || c >= cols {
                return Err(DesalignError::new(
                    DefectClass::DanglingEndpoint,
                    format!("coo[{k}]"),
                    format!("entry ({r},{c}) out of bounds for {rows}x{cols}"),
                ));
            }
            if !v.is_finite() {
                return Err(DesalignError::new(
                    DefectClass::NonFiniteFeature,
                    format!("coo[{k}]"),
                    format!("value {v} at ({r},{c}) is not finite"),
                ));
            }
        }
        Ok(Self::from_coo(rows, cols, triplets))
    }

    /// Sparse identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_parts(n, n, (0..=n).collect(), (0..n).collect(), vec![1.0; n])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the stored `(col, value)` pairs of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let (s, e) = (self.indptr[i], self.indptr[i + 1]);
        self.indices[s..e].iter().copied().zip(self.values[s..e].iter().copied())
    }

    /// Iterates over all stored `(row, col, value)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Computes row `i` of `self × x` into `out_row`, overwriting it.
    ///
    /// This is the single-row microkernel behind [`Csr::spmm`] and the
    /// fused [`dirichlet_energy`](crate::dirichlet_energy): rows are
    /// bucketed by nnz (empty / one / two / many), and the many-entry path
    /// holds a register-wide output chunk across **all** of the row's
    /// nonzeros — the old kernel round-tripped the whole output row
    /// through memory once per nonzero.
    ///
    /// **Numeric contract** (pinned by `tests/proptest_bucketed.rs`):
    /// each output element is `fma(vₜ, xₜ, ·)` folded over the row's
    /// nonzeros in stored (ascending-column) order from a `+0.0`
    /// accumulator — one rounding per product-add via [`f32::mul_add`],
    /// identical at every nnz bucket, chunk width, and thread count. The
    /// fused form halves the ALU work (the spmm ≥2× line in
    /// `BENCH_kernels.json` depends on it) and is the one deliberate
    /// fingerprint migration of the kernel-speed PR: results differ from
    /// the historical mul-then-add fold in the last bit, and the pinned
    /// regression metrics were regenerated once to match. Requires
    /// hardware FMA (`-C target-cpu=native`, `.cargo/config.toml`) to be
    /// fast — without it `mul_add` is a libm call.
    pub(crate) fn spmm_row_into(&self, i: usize, x: &Matrix, out_row: &mut [f32]) {
        let (s, e) = (self.indptr[i], self.indptr[i + 1]);
        let idx = &self.indices[s..e];
        let val = &self.values[s..e];
        let d = x.cols();
        let xs = x.as_slice();
        debug_assert!(
            idx.iter().all(|&j| j < x.rows()),
            "Csr::spmm: row {i} stores a column index past the dense operand's {} rows — the CSR invariant (indices < cols) is broken",
            x.rows()
        );
        match idx.len() {
            0 => out_row.fill(0.0),
            1 => {
                let (v, xr) = (val[0], &xs[idx[0] * d..idx[0] * d + d]);
                for (o, &xv) in out_row.iter_mut().zip(xr) {
                    *o = v.mul_add(xv, 0.0); // the +0.0 addend matches the
                                             // zeroed-accumulator bits
                                             // (-0.0 product → +0.0)
                }
            }
            2 => {
                let (v0, x0) = (val[0], &xs[idx[0] * d..idx[0] * d + d]);
                let (v1, x1) = (val[1], &xs[idx[1] * d..idx[1] * d + d]);
                for ((o, &a), &b) in out_row.iter_mut().zip(x0).zip(x1) {
                    *o = v1.mul_add(b, v0.mul_add(a, 0.0));
                }
            }
            nnz => {
                // Register-chunked: a wide slice of the output row stays in
                // registers while every nonzero streams past. The chunk is
                // 64 floats — 8 independent 8-lane FMA dependency chains,
                // enough to hide the fused multiply-add latency (a 16-float
                // chunk leaves the FMA ports idle 4× over). Chunk width
                // never affects bits: each output element still folds the
                // row's products in stored order. Full chunks use the
                // compile-time width so the loops lower to straight vector
                // code with no bounds checks; only the tail (d not a
                // multiple of 16) pays a runtime width.
                const DC: usize = 64;
                const DC_SMALL: usize = 16;
                let mut j0 = 0;
                while j0 + DC <= d {
                    let mut acc = [0.0f32; DC];
                    for t in 0..nnz {
                        let a = idx[t] * d + j0;
                        let (xr, v) = (&xs[a..a + DC], val[t]);
                        for jj in 0..DC {
                            acc[jj] = v.mul_add(xr[jj], acc[jj]);
                        }
                    }
                    out_row[j0..j0 + DC].copy_from_slice(&acc);
                    j0 += DC;
                }
                while j0 + DC_SMALL <= d {
                    let mut acc = [0.0f32; DC_SMALL];
                    for t in 0..nnz {
                        let a = idx[t] * d + j0;
                        let (xr, v) = (&xs[a..a + DC_SMALL], val[t]);
                        for jj in 0..DC_SMALL {
                            acc[jj] = v.mul_add(xr[jj], acc[jj]);
                        }
                    }
                    out_row[j0..j0 + DC_SMALL].copy_from_slice(&acc);
                    j0 += DC_SMALL;
                }
                if j0 < d {
                    let w = d - j0;
                    let mut acc = [0.0f32; DC_SMALL];
                    for t in 0..nnz {
                        let xr = &xs[idx[t] * d + j0..idx[t] * d + j0 + w];
                        let v = val[t];
                        for jj in 0..w {
                            acc[jj] = v.mul_add(xr[jj], acc[jj]);
                        }
                    }
                    out_row[j0..j0 + w].copy_from_slice(&acc[..w]);
                }
            }
        }
    }

    /// Sparse × dense product `self × x`.
    ///
    /// This is the kernel Semantic Propagation runs once per iteration; its
    /// cost is `O(nnz · d)`, linear in the number of edges, matching the
    /// paper's `O(|E| d)` complexity claim (§V-E). Output rows are computed
    /// in parallel via the nnz-bucketed `spmm_row_into` microkernel;
    /// each row keeps its exact serial accumulation order, so results are
    /// bit-identical at any thread count.
    ///
    /// # Panics
    /// Panics if `x.rows() != self.cols()`.
    pub fn spmm(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, x.cols());
        self.spmm_into(x, &mut out);
        out
    }

    /// [`Csr::spmm`] into a caller-provided buffer, overwriting it — the
    /// allocation-free variant the propagation loop ping-pongs between two
    /// buffers.
    ///
    /// # Panics
    /// Panics if `x.rows() != self.cols()` or `out` has the wrong shape.
    pub fn spmm_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(
            x.rows(),
            self.cols,
            "Csr::spmm: dense operand has {} rows, sparse has {} cols",
            x.rows(),
            self.cols
        );
        out.expect_shape(self.rows, x.cols(), "Csr::spmm_into");
        let _span = desalign_telemetry::span("spmm");
        let d = x.cols();
        if out.is_empty() {
            return;
        }
        let cost = self.nnz().saturating_mul(d);
        desalign_parallel::par_rows(out.as_mut_slice(), d, cost, |i, out_row| {
            self.spmm_row_into(i, x, out_row);
        });
    }

    /// Fused propagation step: `out[i] = x0[i]` where `skip[i]`, else
    /// `out[i] = (self × x)[i]`.
    ///
    /// With the boundary reset of Semantic Propagation (`x_c(t) = x_c`),
    /// a known row's SpMM output is overwritten immediately — so this
    /// kernel never computes it. On the datasets this repo benches, two
    /// thirds of the rows are known: that SpMM work simply disappears.
    /// Bit-identical to `spmm` followed by the reset, since skipped rows
    /// receive an exact copy and the rest run the same row microkernel.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn spmm_skip_into(&self, x: &Matrix, skip: &[bool], x0: &Matrix, out: &mut Matrix) {
        assert_eq!(
            x.rows(),
            self.cols,
            "Csr::spmm_skip_into: dense operand has {} rows, sparse has {} cols",
            x.rows(),
            self.cols
        );
        assert_eq!(skip.len(), self.rows, "Csr::spmm_skip_into: skip mask length mismatch");
        x0.expect_shape(self.rows, x.cols(), "Csr::spmm_skip_into (x0)");
        out.expect_shape(self.rows, x.cols(), "Csr::spmm_skip_into (out)");
        let _span = desalign_telemetry::span("spmm");
        let d = x.cols();
        if out.is_empty() {
            return;
        }
        let cost = self.nnz().saturating_mul(d);
        desalign_parallel::par_rows(out.as_mut_slice(), d, cost, |i, out_row| {
            if skip[i] {
                out_row.copy_from_slice(x0.row(i));
            } else {
                self.spmm_row_into(i, x, out_row);
            }
        });
    }

    /// `selfᵀ × x` without materializing the transpose.
    ///
    /// The serial loop scatters row `i` of `x` into output rows — a write
    /// pattern that cannot be row-partitioned. When parallelism is on and
    /// the product is large enough to benefit, the kernel switches to
    /// `self.transpose().spmm(x)` (the transpose is built on the first such
    /// call and kept with the matrix), which IS row-partitionable and
    /// **bit-identical** to the serial loop: both accumulate output row `j`
    /// as stored-order fused multiply-adds over ascending `i` (the serial
    /// loop visits `i` in order; the transposed row `j` stores its entries
    /// sorted by `i`), so every output element sees the same fma chain.
    pub fn spmm_t(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, x.cols());
        self.spmm_t_into(x, &mut out);
        out
    }

    /// [`Csr::spmm_t`] accumulating into a caller-provided **zeroed**
    /// output — same kernel, same bits. Unlike the `_into` variants that
    /// overwrite, the scatter accumulation reads `out`, so the caller must
    /// hand in zeros (gradient code reuses pooled buffers via
    /// `Workspace::zeros`).
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn spmm_t_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(
            x.rows(),
            self.rows,
            "Csr::spmm_t: dense operand has {} rows, sparse has {} rows",
            x.rows(),
            self.rows
        );
        let _span = desalign_telemetry::span("spmm_t");
        out.expect_shape(self.cols, x.cols(), "Csr::spmm_t_into: out");
        let cost = self.nnz().saturating_mul(x.cols());
        if desalign_parallel::current_threads() > 1 && cost >= desalign_parallel::PAR_MIN_COST {
            self.transposed.get_or_init(|| Box::new(self.transpose())).spmm_into(x, out);
            return;
        }
        for i in 0..self.rows {
            let x_row = x.row(i);
            for (j, v) in self.row(i) {
                // Scatter rows cannot be register-chunked like spmm (each
                // nonzero targets a different output row), but the inner
                // loop over the feature dim vectorizes as-is. Must use the
                // same fused multiply-add as `spmm_row_into`: the parallel
                // branch above routes through that microkernel, and the two
                // branches have to agree bit for bit.
                let out_row = out.row_mut(j);
                for (o, &xv) in out_row.iter_mut().zip(x_row) {
                    *o = v.mul_add(xv, *o);
                }
            }
        }
    }

    /// Sparse × dense-vector product for a flat slice (`cols()`-length).
    ///
    /// Each output element is a single sequential fold over the row's
    /// nonzeros — that fold order is load-bearing (it is what the committed
    /// training fingerprints were produced with), so the 4-way unroll below
    /// keeps one accumulator and the exact stored-order adds; it only
    /// removes iterator/branch overhead, never re-associates.
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "Csr::spmv: vector length {} vs {} cols", x.len(), self.cols);
        let _span = desalign_telemetry::span("spmv");
        let mut out = vec![0.0; self.rows];
        let cost = self.nnz().saturating_mul(2);
        desalign_parallel::par_rows(&mut out, 1, cost, |i, o| {
            let (s, e) = (self.indptr[i], self.indptr[i + 1]);
            let idx = &self.indices[s..e];
            let val = &self.values[s..e];
            debug_assert!(
                idx.iter().all(|&j| j < x.len()),
                "Csr::spmv: row {i} stores a column index past the vector's {} elements — the CSR invariant (indices < cols) is broken",
                x.len()
            );
            // -0.0 is the additive identity `Iterator::sum` folds from
            // (`-0.0 + x` preserves every bit of `x`, including `x = -0.0`,
            // which `+0.0 + x` would not) — the old `.sum()` kernel's bits,
            // e.g. -0.0 for an empty row, depend on it.
            let mut acc = -0.0f32;
            let mut t = 0;
            while t + 4 <= idx.len() {
                acc += val[t] * x[idx[t]];
                acc += val[t + 1] * x[idx[t + 1]];
                acc += val[t + 2] * x[idx[t + 2]];
                acc += val[t + 3] * x[idx[t + 3]];
                t += 4;
            }
            while t < idx.len() {
                acc += val[t] * x[idx[t]];
                t += 1;
            }
            o[0] = acc;
        });
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Csr {
        let triplets = self.iter().map(|(r, c, v)| (c, r, v)).collect();
        Csr::from_coo(self.cols, self.rows, triplets)
    }

    /// Dense copy. Intended for tests and small matrices only.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            m[(r, c)] += v;
        }
        m
    }

    /// Scales every stored value by `alpha`.
    pub fn scale(&self, alpha: f32) -> Csr {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= alpha;
        }
        out
    }

    /// Sparse sum `self + other` (union of patterns).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Csr) -> Csr {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "Csr::add: shape mismatch");
        let mut triplets: Vec<(usize, usize, f32)> = self.iter().collect();
        triplets.extend(other.iter());
        Csr::from_coo(self.rows, self.cols, triplets)
    }

    /// Extracts the sub-matrix with the given row and column index sets
    /// (in the given order). Used for the Laplacian block views of Eq. 18.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Csr {
        let mut col_pos = vec![usize::MAX; self.cols];
        for (new, &old) in col_idx.iter().enumerate() {
            assert!(old < self.cols, "Csr::submatrix: col index {old} out of bounds");
            col_pos[old] = new;
        }
        let mut triplets = Vec::new();
        for (new_r, &old_r) in row_idx.iter().enumerate() {
            assert!(old_r < self.rows, "Csr::submatrix: row index {old_r} out of bounds");
            for (c, v) in self.row(old_r) {
                if col_pos[c] != usize::MAX {
                    triplets.push((new_r, col_pos[c], v));
                }
            }
        }
        Csr::from_coo(row_idx.len(), col_idx.len(), triplets)
    }

    /// True if the matrix equals its transpose (up to `tol`).
    pub fn is_symmetric(&self, tol: f32) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr || t.indices != self.indices {
            // Patterns can still match numerically if explicit zeros differ;
            // fall back to dense comparison only for small matrices.
            if self.rows <= 512 {
                let (a, b) = (self.to_dense(), t.to_dense());
                return a.sub(&b).max_abs() <= tol;
            }
            return false;
        }
        self.values.iter().zip(&t.values).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Sparse × sparse product `self × other` as CSR — used to build
    /// multi-hop propagation operators (e.g. `Ã²` for MuGCN / AliNet-style
    /// aggregation). Row-merge algorithm, `O(Σ_i nnz(row_i) · avg_nnz)`.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul_sparse(&self, other: &Csr) -> Csr {
        assert_eq!(
            self.cols, other.rows,
            "Csr::matmul_sparse: inner dims differ ({}x{} × {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut triplets: Vec<(usize, usize, f32)> = Vec::new();
        let mut acc: Vec<f32> = vec![0.0; other.cols];
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..self.rows {
            for (k, v) in self.row(i) {
                for (j, w) in other.row(k) {
                    if acc[j] == 0.0 && !touched.contains(&j) {
                        touched.push(j);
                    }
                    acc[j] += v * w;
                }
            }
            for &j in &touched {
                if acc[j] != 0.0 {
                    triplets.push((i, j, acc[j]));
                }
                acc[j] = 0.0;
            }
            touched.clear();
        }
        Csr::from_coo(self.rows, other.cols, triplets)
    }

    /// Row sums (useful as weighted degrees).
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows).map(|i| self.row(i).map(|(_, v)| v).sum()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        Csr::from_coo(3, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
    }

    #[test]
    fn from_coo_builds_expected_structure() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(m.row(1).count(), 0);
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(0, 3.0), (1, 4.0)]);
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let m = Csr::from_coo(2, 2, vec![(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.to_dense()[(0, 0)], 3.5);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = sample();
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let sparse = m.spmm(&x);
        let dense = m.to_dense().matmul(&x);
        assert_eq!(sparse, dense);
    }

    #[test]
    fn spmm_t_matches_dense_transpose() {
        let m = sample();
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(m.spmm_t(&x), m.to_dense().transpose().matmul(&x));
    }

    #[test]
    fn spmv_matches_spmm() {
        let m = sample();
        let v = vec![1.0, -1.0, 2.0];
        let via_mm = m.spmm(&Matrix::column(v.clone()));
        assert_eq!(m.spmv(&v), via_mm.into_vec());
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().to_dense(), m.to_dense().transpose());
    }

    #[test]
    fn parallel_spmm_t_builds_its_transpose_once_and_copies_drop_it() {
        // nnz · d = 600 · 700 ≥ PAR_MIN_COST, so two threads take the
        // transposed branch.
        let n = 200;
        let m = Csr::from_coo(n, n, (0..n).flat_map(|i| [(i, i, 0.5), (i, (i + 1) % n, -1.25), (i, (i + 7) % n, 2.0)]).collect());
        let x = Matrix::from_vec(n, 700, (0..n * 700).map(|k| ((k * 37 % 101) as f32 - 50.0) / 16.0).collect());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let serial = desalign_parallel::with_threads(1, || m.spmm_t(&x));
        assert!(m.transposed.get().is_none(), "the serial branch needs no transpose");
        for _ in 0..2 {
            assert_eq!(bits(&desalign_parallel::with_threads(2, || m.spmm_t(&x))), bits(&serial));
            assert!(m.transposed.get().is_some());
        }
        // Equality ignores the cache; copies (and so mutated copies) start
        // without one.
        assert_eq!(m.clone(), m);
        assert!(m.clone().transposed.get().is_none());
        let doubled = m.scale(2.0);
        assert!(doubled.transposed.get().is_none());
        assert_eq!(
            bits(&desalign_parallel::with_threads(2, || doubled.spmm_t(&x))),
            bits(&desalign_parallel::with_threads(1, || doubled.spmm_t(&x)))
        );
    }

    #[test]
    fn identity_spmm_is_noop() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(Csr::identity(2).spmm(&x), x);
    }

    #[test]
    fn add_unions_patterns() {
        let a = Csr::from_coo(2, 2, vec![(0, 0, 1.0)]);
        let b = Csr::from_coo(2, 2, vec![(0, 0, 2.0), (1, 1, 3.0)]);
        let s = a.add(&b).to_dense();
        assert_eq!(s[(0, 0)], 3.0);
        assert_eq!(s[(1, 1)], 3.0);
    }

    #[test]
    fn submatrix_extracts_blocks() {
        let m = sample();
        let sub = m.submatrix(&[2, 0], &[0, 1]);
        let d = sub.to_dense();
        // Rows reordered: row 0 of sub is old row 2 -> [3, 4]; row 1 is old row 0 -> [1, 0].
        assert_eq!(d.row(0), &[3.0, 4.0]);
        assert_eq!(d.row(1), &[1.0, 0.0]);
    }

    #[test]
    fn symmetry_detection() {
        let sym = Csr::from_coo(2, 2, vec![(0, 1, 2.0), (1, 0, 2.0), (0, 0, 1.0)]);
        assert!(sym.is_symmetric(1e-9));
        assert!(!sample().is_symmetric(1e-9));
    }

    #[test]
    fn row_sums_are_degrees() {
        assert_eq!(sample().row_sums(), vec![3.0, 0.0, 7.0]);
    }

    #[test]
    fn sparse_sparse_product_matches_dense() {
        let a = sample();
        let b = Csr::from_coo(3, 2, vec![(0, 0, 1.0), (1, 1, -2.0), (2, 0, 0.5)]);
        let sparse = a.matmul_sparse(&b);
        let dense = a.to_dense().matmul(&b.to_dense());
        assert!(sparse.to_dense().sub(&dense).max_abs() < 1e-6);
    }

    #[test]
    fn two_hop_operator_is_symmetric_for_symmetric_input() {
        let sym = Csr::from_coo(3, 3, vec![(0, 1, 1.0), (1, 0, 1.0), (1, 2, 2.0), (2, 1, 2.0)]);
        let two_hop = sym.matmul_sparse(&sym);
        assert!(two_hop.is_symmetric(1e-6));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_coo_rejects_out_of_bounds() {
        let _ = Csr::from_coo(2, 2, vec![(2, 0, 1.0)]);
    }

    /// A structurally valid-looking CSR whose second row stores column 5 in
    /// a 2-column matrix — the kind of corruption [`Csr::from_coo`] rejects
    /// but a hand-built struct can smuggle in.
    #[cfg(debug_assertions)]
    fn corrupt_csr() -> Csr {
        Csr::from_parts(2, 2, vec![0, 1, 2], vec![0, 5], vec![1.0, 1.0])
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "CSR invariant (indices < cols) is broken")]
    fn spmm_catches_out_of_range_column_index() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let _ = corrupt_csr().spmm(&x);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "CSR invariant (indices < cols) is broken")]
    fn spmv_catches_out_of_range_column_index() {
        let _ = corrupt_csr().spmv(&[1.0, 2.0]);
    }

    #[test]
    fn try_new_accepts_what_from_coo_builds() {
        let m = Csr::from_coo(3, 4, vec![(0, 1, 2.0), (1, 0, 1.0), (2, 3, -0.5), (0, 3, 4.0)]);
        let rebuilt =
            Csr::try_new(3, 4, m.indptr.clone(), m.indices.clone(), m.values.clone()).expect("round-trip is valid");
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn try_new_reports_each_invariant_violation() {
        use desalign_util::DefectClass;
        // Wrong indptr length.
        let e = Csr::try_new(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(e.class, DefectClass::Schema);
        // indptr not starting at zero.
        let e = Csr::try_new(2, 2, vec![1, 1, 2], vec![0, 1], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(e.class, DefectClass::Schema);
        // indices/values length mismatch.
        let e = Csr::try_new(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0]).unwrap_err();
        assert_eq!(e.class, DefectClass::Schema);
        // Decreasing indptr.
        let e = Csr::try_new(2, 2, vec![0, 2, 2], vec![0, 1], vec![1.0, 1.0]);
        assert!(e.is_ok(), "monotone indptr is fine");
        let e = Csr::try_new(3, 2, vec![0, 2, 1, 2], vec![0, 1], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(e.class, DefectClass::Schema);
        // Column out of range.
        let e = Csr::try_new(2, 2, vec![0, 1, 2], vec![0, 5], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(e.class, DefectClass::DanglingEndpoint);
        assert!(e.to_string().contains("column 5"), "{e}");
        // Columns not strictly increasing within a row.
        let e = Csr::try_new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(e.class, DefectClass::Schema);
        // Non-finite stored value.
        let e = Csr::try_new(1, 2, vec![0, 1], vec![0], vec![f32::NAN]).unwrap_err();
        assert_eq!(e.class, DefectClass::NonFiniteFeature);
    }

    #[test]
    fn try_from_coo_reports_typed_errors() {
        use desalign_util::DefectClass;
        let e = Csr::try_from_coo(2, 2, vec![(2, 0, 1.0)]).unwrap_err();
        assert_eq!(e.class, DefectClass::DanglingEndpoint);
        let e = Csr::try_from_coo(2, 2, vec![(0, 0, f32::INFINITY)]).unwrap_err();
        assert_eq!(e.class, DefectClass::NonFiniteFeature);
        let m = Csr::try_from_coo(2, 2, vec![(0, 1, 2.0), (1, 0, 3.0)]).expect("clean triplets");
        assert_eq!(m, Csr::from_coo(2, 2, vec![(0, 1, 2.0), (1, 0, 3.0)]));
    }
}
