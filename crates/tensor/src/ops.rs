//! Element-wise and matrix-product kernels on [`Matrix`].
//!
//! All binary kernels require exact shape agreement and panic otherwise;
//! broadcasting is deliberately not supported (every call site in the
//! workspace knows its shapes statically, and silent broadcasting is a
//! classic source of numeric bugs).

use crate::{tile, Matrix, NtPanels};

impl Matrix {
    /// Element-wise sum `self + other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, "Matrix::add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, "Matrix::sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product `self ⊙ other`.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, "Matrix::hadamard", |a, b| a * b)
    }

    /// Adds `alpha * other` into `self` in place.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        other.expect_shape(self.rows(), self.cols(), "Matrix::axpy");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
    }

    /// Element-wise scaling `self * alpha`.
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|v| v * alpha)
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.as_slice().iter().map(|&v| f(v)).collect();
        Matrix::from_vec(self.rows(), self.cols(), data)
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.as_mut_slice() {
            *v = f(*v);
        }
    }

    fn zip_with(&self, other: &Matrix, ctx: &str, f: impl Fn(f32, f32) -> f32) -> Matrix {
        other.expect_shape(self.rows(), self.cols(), ctx);
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix::from_vec(self.rows(), self.cols(), data)
    }

    /// Matrix product `self × other`.
    ///
    /// Register-tiled: `other` is packed into `NR`-wide column panels and a
    /// microkernel accumulates `MR × NR` output tiles entirely in registers,
    /// touching each output element exactly once (the old `ikj` kernel
    /// round-tripped every output row through memory once per inner step).
    /// The reduction over the shared dimension is never split or reordered
    /// — each output element receives the same ascending multiply-add
    /// sequence as the naive kernel, so results are **bit-identical** to the
    /// pre-tile implementation and thread-count independent (tile groups are
    /// handed whole to one thread; see `tile.rs` for the full argument).
    ///
    /// ```
    /// use desalign_tensor::Matrix;
    /// let a = Matrix::from_rows(&[&[1.0, 2.0]]);          // 1×2
    /// let b = Matrix::from_rows(&[&[10.0], &[100.0]]);    // 2×1
    /// assert_eq!(a.matmul(&b), Matrix::from_rows(&[&[210.0]]));
    /// ```
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.rows(),
            "Matrix::matmul: inner dims differ ({}x{} × {}x{})",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let _span = desalign_telemetry::span("matmul");
        let (n, k, m) = (self.rows(), self.cols(), other.cols());
        let mut out = Matrix::zeros(n, m);
        if out.is_empty() || k == 0 {
            return out;
        }
        let b_panels = tile::pack_cols(other, tile::NR);
        let a = self.as_slice();
        let cost = n.saturating_mul(k).saturating_mul(m);
        desalign_parallel::par_row_groups(out.as_mut_slice(), m, tile::MR, cost, |i0, chunk| {
            tile::gemm_nn_block(a, k, m, i0, chunk, &b_panels);
        });
        out
    }

    /// `selfᵀ × other` without materializing the transpose.
    ///
    /// The reduction runs over the shared row dimension, so it cannot be
    /// partitioned by output row. Instead the rows are split into blocks of
    /// a [`fixed_block_len`](desalign_parallel::fixed_block_len) — a pure
    /// function of the problem size, never of the thread count — each block
    /// is accumulated serially into its own partial, and the partials are
    /// merged in block order. The float summation tree is therefore fixed,
    /// and results are bit-identical at any thread count.
    ///
    /// Within a block the kernel is register-tiled like [`Matrix::matmul`]:
    /// `other` is packed once (panels index by the shared row, so one
    /// packing serves every block), `self` is read in place (each of its
    /// rows holds a tile's left values side by side), and an `MR × NR` tile
    /// is accumulated in registers over the block's row range, ascending.
    /// The historical zero-skip on the left operand is gone: starting from
    /// `+0.0` an accumulator can never become `-0.0`, so the skipped `±0.0`
    /// products could never change a bit for finite operands — the branch
    /// only cost vectorization (see `tile.rs`).
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols(), other.cols());
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] writing into a caller-provided output — same
    /// kernel, same bits. `out`'s prior contents are ignored (every element
    /// is written), which lets gradient code reuse pooled buffers.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows(),
            other.rows(),
            "Matrix::matmul_tn: row counts differ ({}x{} vs {}x{})",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let _span = desalign_telemetry::span("matmul_tn");
        let (k, n, m) = (self.rows(), self.cols(), other.cols());
        out.expect_shape(n, m, "Matrix::matmul_tn_into: out");
        if k == 0 || n == 0 || m == 0 {
            out.as_mut_slice().fill(0.0);
            return;
        }
        let a = self.as_slice();
        let b_panels = tile::pack_cols(other, tile::NR);
        let block = desalign_parallel::fixed_block_len(k, 256);
        let cost = k.saturating_mul(n).saturating_mul(m);
        let partials = desalign_parallel::par_blocks(k, block, cost, |_b, range| {
            let mut part = Matrix::zeros(n, m);
            tile::gemm_tn_block(a, &b_panels, range, k, &mut part);
            part
        });
        let mut parts = partials.into_iter();
        match parts.next() {
            Some(first) => out.as_mut_slice().copy_from_slice(first.as_slice()),
            None => out.as_mut_slice().fill(0.0),
        }
        for part in parts {
            for (o, &p) in out.as_mut_slice().iter_mut().zip(part.as_slice()) {
                *o += p;
            }
        }
    }

    /// `self × otherᵀ` without materializing the transpose.
    ///
    /// Register-tiled like [`Matrix::matmul`]: `other` is packed once into
    /// transposed 16-wide panels ([`NtPanels::pack`]), and each output row
    /// keeps four accumulator vectors across a panel, one per [`dot`] lane
    /// ([`NtPanels::score_into`] on groups of output rows). Every element
    /// keeps `dot`'s exact 4-lane accumulation tree (lane merge order and
    /// sequential tail included), so results are bit-identical to the
    /// per-element `dot` kernel at any thread count (see `tile.rs`). A
    /// caller scoring many left operands against one right operand packs
    /// it once with [`NtPanels`] and calls the same kernel per batch.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), other.rows());
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] writing into a caller-provided output — same
    /// kernel, same bits. `out`'s prior contents are ignored (every element
    /// is written, including `+0.0` when the shared dimension is empty).
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            other.cols(),
            "Matrix::matmul_nt: col counts differ ({}x{} vs {}x{})",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let _span = desalign_telemetry::span("matmul_nt");
        let (n, m) = (self.rows(), other.rows());
        let k = self.cols();
        out.expect_shape(n, m, "Matrix::matmul_nt_into: out");
        if out.is_empty() {
            return;
        }
        let b = NtPanels::pack(other);
        let panels = 0..b.num_panels();
        let a = self.as_slice();
        let cost = n.saturating_mul(k).saturating_mul(m);
        desalign_parallel::par_row_groups(out.as_mut_slice(), m, tile::MR, cost, |i0, chunk| {
            b.score_into(&a[i0 * k..(i0 + chunk.len() / m) * k], panels.clone(), chunk);
        });
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols(), self.rows());
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a caller-provided output (every element is written).
    ///
    /// # Panics
    /// Panics if `out` is not `self.cols() × self.rows()`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        let (n, m) = self.shape();
        out.expect_shape(m, n, "Matrix::transpose_into: out");
        for i in 0..n {
            for j in 0..m {
                out[(j, i)] = self[(i, j)];
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.as_slice().iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f32 {
        assert_eq!(self.rows(), self.cols(), "Matrix::trace: matrix is {}x{}, not square", self.rows(), self.cols());
        (0..self.rows()).map(|i| self[(i, i)]).sum()
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows(),
            other.rows(),
            "Matrix::hcat: row counts differ ({} vs {})",
            self.rows(),
            other.rows()
        );
        let mut out = Matrix::zeros(self.rows(), self.cols() + other.cols());
        for i in 0..self.rows() {
            let row = out.row_mut(i);
            row[..self.cols()].copy_from_slice(self.row(i));
            row[self.cols()..].copy_from_slice(other.row(i));
        }
        out
    }

    /// Horizontal concatenation of several matrices.
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts differ.
    pub fn hcat_all(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "Matrix::hcat_all: no parts");
        let rows = parts[0].rows();
        let total_cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut out = Matrix::zeros(rows, total_cols);
        for i in 0..rows {
            let row = out.row_mut(i);
            let mut off = 0;
            for p in parts {
                assert_eq!(p.rows(), rows, "Matrix::hcat_all: row counts differ");
                row[off..off + p.cols()].copy_from_slice(p.row(i));
                off += p.cols();
            }
        }
        out
    }

    /// Vertical concatenation (stacks `other` below `self`).
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn vcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.cols(),
            "Matrix::vcat: col counts differ ({} vs {})",
            self.cols(),
            other.cols()
        );
        let mut data = Vec::with_capacity(self.len() + other.len());
        data.extend_from_slice(self.as_slice());
        data.extend_from_slice(other.as_slice());
        Matrix::from_vec(self.rows() + other.rows(), self.cols(), data)
    }

    /// Gathers rows by index: `out[i] = self[idx[i]]`.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols());
        for (i, &r) in idx.iter().enumerate() {
            assert!(r < self.rows(), "Matrix::gather_rows: index {r} out of bounds ({} rows)", self.rows());
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Scatter-add of rows: `out[idx[i]] += self[i]` where `out` has
    /// `n_out` rows. Duplicate indices accumulate.
    pub fn scatter_add_rows(&self, idx: &[usize], n_out: usize) -> Matrix {
        assert_eq!(idx.len(), self.rows(), "Matrix::scatter_add_rows: {} indices for {} rows", idx.len(), self.rows());
        let mut out = Matrix::zeros(n_out, self.cols());
        for (i, &r) in idx.iter().enumerate() {
            assert!(r < n_out, "Matrix::scatter_add_rows: index {r} out of bounds ({n_out} rows)");
            let src = self.row(i);
            for (o, &s) in out.row_mut(r).iter_mut().zip(src) {
                *o += s;
            }
        }
        out
    }

    /// Slices rows `[start, end)` into a new matrix.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows(), "Matrix::slice_rows: range {start}..{end} out of bounds ({} rows)", self.rows());
        let data = self.as_slice()[start * self.cols()..end * self.cols()].to_vec();
        Matrix::from_vec(end - start, self.cols(), data)
    }

    /// Slices columns `[start, end)` into a new matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols(), "Matrix::slice_cols: range {start}..{end} out of bounds ({} cols)", self.cols());
        let mut out = Matrix::zeros(self.rows(), end - start);
        for i in 0..self.rows() {
            out.row_mut(i).copy_from_slice(&self.row(i)[start..end]);
        }
        out
    }

    /// Dot product treating both matrices as flat vectors:
    /// `⟨self, other⟩ = Σᵢⱼ selfᵢⱼ · otherᵢⱼ`.
    ///
    /// This is the Frobenius inner product used by Proposition 1 of the
    /// paper (`⟨ΔX, X̂ − X⟩`).
    pub fn inner(&self, other: &Matrix) -> f32 {
        other.expect_shape(self.rows(), self.cols(), "Matrix::inner");
        par_dot(self.as_slice(), other.as_slice())
    }
}

/// Dense dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // Four accumulators let LLVM vectorize despite float non-associativity.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        s += a[i] * b[i];
    }
    s
}

/// Parallel dense dot product.
///
/// Splits the vectors into blocks of a
/// [`fixed_block_len`](desalign_parallel::fixed_block_len) (a function of
/// the length only), reduces each block with [`dot`], and sums the block
/// partials in order — so the summation tree, and hence every output bit,
/// is independent of the thread count. Short inputs take the plain [`dot`]
/// path, which is bit-identical to a single block.
pub fn par_dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "par_dot: length mismatch ({} vs {})", a.len(), b.len());
    let n = a.len();
    let block = desalign_parallel::fixed_block_len(n, 4096);
    if n <= block {
        return dot(a, b);
    }
    desalign_parallel::par_blocks(n, block, 2 * n, |_i, r| dot(&a[r.clone()], &b[r]))
        .into_iter()
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> (Matrix, Matrix) {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        (a, b)
    }

    #[test]
    fn add_sub_hadamard() {
        let (a, b) = abc();
        assert_eq!(a.add(&b).as_slice(), &[6.0, 8.0, 10.0, 12.0]);
        assert_eq!(b.sub(&a).as_slice(), &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[5.0, 12.0, 21.0, 32.0]);
    }

    #[test]
    fn matmul_known_case() {
        let (a, b) = abc();
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let (a, _) = abc();
        assert_eq!(a.matmul(&Matrix::eye(2)), a);
        assert_eq!(Matrix::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0, 9.0]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
    }

    #[test]
    fn reductions() {
        let (a, _) = abc();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.trace(), 5.0);
        assert!((a.frobenius_norm() - 30.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn concatenation() {
        let (a, b) = abc();
        let h = a.hcat(&b);
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 5.0, 6.0]);
        let v = a.vcat(&b);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
        let h3 = Matrix::hcat_all(&[&a, &b, &a]);
        assert_eq!(h3.shape(), (2, 6));
        assert_eq!(h3.row(1), &[3.0, 4.0, 7.0, 8.0, 3.0, 4.0]);
    }

    #[test]
    fn gather_and_scatter() {
        let (a, _) = abc();
        let g = a.gather_rows(&[1, 1, 0]);
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g.row(0), &[3.0, 4.0]);
        assert_eq!(g.row(2), &[1.0, 2.0]);
        let s = g.scatter_add_rows(&[0, 0, 1], 2);
        assert_eq!(s.row(0), &[6.0, 8.0]); // two copies of row 1 of a
        assert_eq!(s.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn slicing() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        assert_eq!(a.slice_rows(1, 3).row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(a.slice_cols(1, 2).col(0), vec![2.0, 5.0, 8.0]);
    }

    #[test]
    fn inner_product_is_frobenius() {
        let (a, b) = abc();
        assert_eq!(a.inner(&b), 5.0 + 12.0 + 21.0 + 32.0);
    }

    #[test]
    fn axpy_accumulates() {
        let (mut a, b) = abc();
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[11.0, 14.0, 17.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_rejects_bad_shapes() {
        let (a, _) = abc();
        let bad = Matrix::zeros(3, 3);
        let _ = a.matmul(&bad);
    }
}
