//! Register-tiled dense matmul microkernels with packed operand panels.
//!
//! The three product kernels (`matmul`, `matmul_tn`, `matmul_nt`) share one
//! design: the right operand is packed into `NR`-wide panels over the
//! output columns so the inner loop streams contiguous memory, and a
//! microkernel accumulates an `MR × NR` output tile entirely in registers
//! before touching the output matrix once. Per shared index `p` the inner
//! loop broadcasts one left-operand value per tile row and multiply-adds it
//! into that row's `NR` accumulators — a full-width vector operation.
//!
//! - `matmul` (NN) packs `b`'s columns ([`pack_cols`]) and reads `a`'s rows.
//! - `matmul_tn` packs `b`'s columns the same way and reads the left
//!   operand in place: its row `p` already holds `a[p][i0..i0+MR]` side by
//!   side, so no packing is needed there.
//! - `matmul_nt` packs `b` *transposed* ([`NtPanels`]): for each `p`, the
//!   values `b[j][p]` of one output panel sit side by side. The packing is
//!   its own public step, so a fixed right operand (the retrieval index's
//!   items and centroids) is packed once and scored against many left
//!   batches, a range of panels at a time, by the same microkernel.
//!
//! **Bit-exactness invariant.** Tiling here only re-groups *which* output
//! elements are computed together — it never splits or reorders the
//! reduction over the shared dimension. Every accumulator starts at `+0.0`
//! and receives exactly the same multiply-adds, in exactly the same order,
//! as the reference kernels:
//!
//! - `matmul` / `matmul_tn` accumulate one scalar per output element over
//!   the shared index ascending; the `MR × NR` register tile keeps one
//!   scalar accumulator per element with the same ascending loop.
//!   `matmul_tn` keeps its fixed row-block partition and in-order merge of
//!   the block partials (see `Matrix::matmul_tn`).
//! - `matmul_nt` must equal [`dot`](crate::dot) per element, whose four
//!   lanes each sum the products with `p ≡ l (mod 4)` over the whole
//!   4-chunks, merge as `((l0 + l1) + l2) + l3`, then add the `k mod 4`
//!   tail in order. The `NT` tile keeps four accumulator vectors per
//!   output row — one per lane, each running across the panel's `NR`
//!   columns — fed in ascending chunk order, merges them with the same
//!   expression and adds the same tail. Each element thus sees `dot`'s
//!   exact operation sequence; only the 16 columns of a panel advance
//!   together.
//! - `matmul_tn`'s old zero-skip (`if a == 0.0 { continue }`) is dropped:
//!   starting from `+0.0` an accumulator can never become `-0.0`
//!   (`x + (-x)` rounds to `+0.0`, and `+0.0 + -0.0 = +0.0`), so adding the
//!   `±0.0` products the skip avoided cannot change any bit for finite
//!   operands — and skipping the branch is what lets the loop vectorize.
//!
//! Panel zero-padding is equally inert: padded lanes are computed but never
//! stored. The property suite (`tests/proptest_tiled.rs`) pins all of this
//! by comparing against the naive loop orders bit-for-bit across shapes,
//! including empty, 1×1, and non-multiple-of-tile sizes.
//!
//! Tile sizes are pure compile-time constants — never a function of the
//! thread count — and the parallel split ([`par_row_groups`]
//! (desalign_parallel::par_row_groups), `par_blocks`) hands whole tiles to
//! one thread, so results are bit-identical at any thread count.

use crate::Matrix;
use std::ops::Range;

/// Output-tile height (rows accumulated per microkernel invocation).
/// With [`NR`] = 16 this is 64 `f32` accumulators — 8 AVX2 `ymm` registers
/// (the workspace builds with `target-cpu=native`; see `.cargo/config.toml`)
/// — leaving room for the operand loads. The `NT` tile holds four lanes of
/// these (256 accumulators); it measured faster at this height than at 2.
pub(crate) const MR: usize = 4;

/// Output-tile width. A multiple of every SIMD width we care about; two
/// 256-bit vectors per tile row keeps eight independent accumulator chains
/// per microkernel, enough to hide FP-add latency.
pub(crate) const NR: usize = 16;

/// Packs `src` into `width`-wide column panels.
///
/// Panel `q` covers columns `q*width .. (q+1)*width`, stored row-major and
/// zero-padded to `width` on the right edge: element `(p, jj)` of panel `q`
/// lives at `q*rows*width + p*width + jj`. The packed layout makes the
/// microkernel's B-loads contiguous regardless of the source stride, and a
/// reduction over any row range `p0..p1` indexes the same panels — so one
/// packing is shared by all `par_blocks` partials.
pub(crate) fn pack_cols(src: &Matrix, width: usize) -> Vec<f32> {
    let (rows, cols) = src.shape();
    let panels = cols.div_ceil(width).max(1);
    let mut out = vec![0.0f32; panels * rows * width];
    for q in 0..panels {
        let j0 = q * width;
        let w = width.min(cols.saturating_sub(j0));
        let base = q * rows * width;
        for p in 0..rows {
            let row = src.row(p);
            out[base + p * width..base + p * width + w].copy_from_slice(&row[j0..j0 + w]);
        }
    }
    out
}

/// `matmul` (NN) on one group of up to [`MR`] output rows.
///
/// `a` is the full row-major left operand (`? × k`), `out_chunk` holds the
/// group's rows of the `? × m` output, `b_panels` is [`pack_cols`]`(b, NR)`.
pub(crate) fn gemm_nn_block(a: &[f32], k: usize, m: usize, i0: usize, out_chunk: &mut [f32], b_panels: &[f32]) {
    debug_assert!(m > 0 && k > 0);
    match out_chunk.len() / m {
        1 => nn_rows::<1>(a, k, m, i0, out_chunk, b_panels),
        2 => nn_rows::<2>(a, k, m, i0, out_chunk, b_panels),
        3 => nn_rows::<3>(a, k, m, i0, out_chunk, b_panels),
        _ => nn_rows::<4>(a, k, m, i0, out_chunk, b_panels),
    }
}

fn nn_rows<const M: usize>(a: &[f32], k: usize, m: usize, i0: usize, out_chunk: &mut [f32], b_panels: &[f32]) {
    let arows: [&[f32]; M] = std::array::from_fn(|mi| &a[(i0 + mi) * k..(i0 + mi + 1) * k]);
    for q in 0..m.div_ceil(NR) {
        let j0 = q * NR;
        let width = NR.min(m - j0);
        let panel = &b_panels[q * k * NR..(q + 1) * k * NR];
        let mut acc = [[0.0f32; NR]; M];
        for p in 0..k {
            let bp = &panel[p * NR..p * NR + NR];
            for mi in 0..M {
                let av = arows[mi][p];
                for jj in 0..NR {
                    acc[mi][jj] += av * bp[jj];
                }
            }
        }
        for mi in 0..M {
            out_chunk[mi * m + j0..mi * m + j0 + width].copy_from_slice(&acc[mi][..width]);
        }
    }
}

/// `matmul_tn` on one `par_blocks` row range: accumulates
/// `aᵀ[·, range] × b[range, ·]` into the `n × m` `part` (which arrives
/// zeroed).
///
/// `a` is the row-major left operand (`k × n`) read in place — row `p`
/// already holds `a[p][i0..i0+MR]` side by side, so it needs no packing —
/// and `b_panels` is [`pack_cols`]`(b, NR)`, packed once for the whole `k`
/// and shared read-only across blocks.
pub(crate) fn gemm_tn_block(a: &[f32], b_panels: &[f32], range: Range<usize>, k: usize, part: &mut Matrix) {
    for i0 in (0..part.rows()).step_by(MR) {
        match MR.min(part.rows() - i0) {
            1 => tn_rows::<1>(a, b_panels, range.clone(), k, i0, part),
            2 => tn_rows::<2>(a, b_panels, range.clone(), k, i0, part),
            3 => tn_rows::<3>(a, b_panels, range.clone(), k, i0, part),
            _ => tn_rows::<4>(a, b_panels, range.clone(), k, i0, part),
        }
    }
}

fn tn_rows<const M: usize>(a: &[f32], b_panels: &[f32], range: Range<usize>, k: usize, i0: usize, part: &mut Matrix) {
    let (n, m) = part.shape();
    for q in 0..m.div_ceil(NR) {
        let j0 = q * NR;
        let width = NR.min(m - j0);
        let panel = &b_panels[q * k * NR..(q + 1) * k * NR];
        let mut acc = [[0.0f32; NR]; M];
        for p in range.clone() {
            let av = &a[p * n + i0..p * n + i0 + M];
            let bp = &panel[p * NR..p * NR + NR];
            for (acc_row, &a) in acc.iter_mut().zip(av) {
                for jj in 0..NR {
                    acc_row[jj] += a * bp[jj];
                }
            }
        }
        for (mi, acc_row) in acc.iter().enumerate() {
            part.row_mut(i0 + mi)[j0..j0 + width].copy_from_slice(&acc_row[..width]);
        }
    }
}

/// The right operand of `a × bᵀ`, packed once into transposed 16-wide
/// panels ([`WIDTH`](Self::WIDTH)) so any number of left rows can be
/// scored against it.
///
/// Panel `q` holds rows `q*WIDTH .. (q+1)*WIDTH` of `b` side by side: for
/// each shared index `p`, the values `b[q*WIDTH + jj][p]` are contiguous
/// (`q*cols*WIDTH + p*WIDTH + jj`), zero-padded past the last row. This is
/// what the `NT` microkernel streams. [`Matrix::matmul_nt`] is a pack plus
/// one [`score_into`](Self::score_into) over every panel; callers that
/// score many query batches against one fixed operand (the retrieval
/// index's items and centroids) pack once and score a range of panels at a
/// time, so the scratch they hold is one block of scores, never `n × m`.
///
/// Every score is the [`dot`](crate::dot) of its two rows, bit for bit,
/// whatever the panel range, the number of left rows or their grouping
/// (see the module docs; pinned by `tests/proptest_tiled.rs`).
#[derive(Clone, Debug)]
pub struct NtPanels {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl NtPanels {
    /// Packed rows per panel.
    pub const WIDTH: usize = NR;

    /// Packs the rows of `src`.
    pub fn pack(src: &Matrix) -> Self {
        Self::pack_from(src.rows(), src.cols(), |j, row| row.copy_from_slice(src.row(j)))
    }

    /// Packs `rows` rows of width `cols`, row `j` written by `fill(j, row)`
    /// into a scratch buffer (whose prior contents are unspecified). Lets a
    /// caller pack a transformed or gathered row set without materializing
    /// it row-major first.
    pub fn pack_from(rows: usize, cols: usize, mut fill: impl FnMut(usize, &mut [f32])) -> Self {
        let mut data = vec![0.0f32; rows.div_ceil(NR) * cols * NR];
        let mut row = vec![0.0f32; cols];
        for j in 0..rows {
            fill(j, &mut row);
            let base = (j / NR) * cols * NR + j % NR;
            for (p, &v) in row.iter().enumerate() {
                data[base + p * NR] = v;
            }
        }
        Self { data, rows, cols }
    }

    /// Number of panels, `⌈rows / WIDTH⌉`.
    pub fn num_panels(&self) -> usize {
        self.rows.div_ceil(NR)
    }

    /// The packed rows a panel range covers (padding excluded).
    pub fn panel_rows(&self, panels: Range<usize>) -> Range<usize> {
        (panels.start * NR).min(self.rows)..(panels.end * NR).min(self.rows)
    }

    /// The packed rows back in row-major form.
    pub fn unpack(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for j in 0..self.rows {
            let base = (j / NR) * self.cols * NR + j % NR;
            for (p, v) in out.row_mut(j).iter_mut().enumerate() {
                *v = self.data[base + p * NR];
            }
        }
        out
    }

    /// Scores the row-major left rows `a` against the packed rows `panels`
    /// covers: `out[i*w + j] = dot(a_i, b_{j0 + j})`, where `j0..j0 + w` is
    /// [`panel_rows`](Self::panel_rows)`(panels)`. The number of left rows
    /// is `out.len() / w`; every element of `out` is written and padding is
    /// never stored. Serial — callers parallelize over left-row groups.
    ///
    /// # Panics
    /// Panics if the panel range is out of bounds, `out.len()` is not a
    /// multiple of `w`, or `a` does not hold `out.len() / w` rows as wide
    /// as the packed rows.
    pub fn score_into(&self, a: &[f32], panels: Range<usize>, out: &mut [f32]) {
        assert!(panels.start <= panels.end && panels.end <= self.num_panels(), "NtPanels::score_into: panels {panels:?} out of 0..{}", self.num_panels());
        let w = self.panel_rows(panels.clone()).len();
        if w == 0 {
            assert!(out.is_empty(), "NtPanels::score_into: {} outputs for an empty panel range", out.len());
            return;
        }
        assert_eq!(out.len() % w, 0, "NtPanels::score_into: {} outputs not a multiple of {w} columns", out.len());
        let k = self.cols;
        assert_eq!(a.len(), out.len() / w * k, "NtPanels::score_into: left operand length");
        let b = &self.data[panels.start * k * NR..panels.end * k * NR];
        for (g, out_group) in out.chunks_mut(MR * w).enumerate() {
            let rows = out_group.len() / w;
            let a_group = &a[g * MR * k..(g * MR + rows) * k];
            match rows {
                1 => nt_rows::<1>(a_group, k, w, out_group, b),
                2 => nt_rows::<2>(a_group, k, w, out_group, b),
                3 => nt_rows::<3>(a_group, k, w, out_group, b),
                _ => nt_rows::<4>(a_group, k, w, out_group, b),
            }
        }
    }
}

/// Scores the `M` rows of `a` (`M × k`, row-major) against the `m` packed
/// rows of `b_panels`, writing the `M × m` block to `out`.
///
/// Each output element `(i, j)` replicates [`dot`](crate::dot)`(a[i], b[j])`
/// exactly: lane `l` of row `mi` accumulates the products with `p ≡ l
/// (mod 4)` over the whole chunks, ascending — one vector across the
/// panel's `NR` columns per lane — then the lanes merge as
/// `((l0 + l1) + l2) + l3` and the `k mod 4` tail is added in order.
fn nt_rows<const M: usize>(a: &[f32], k: usize, m: usize, out: &mut [f32], b_panels: &[f32]) {
    let arows: [&[f32]; M] = std::array::from_fn(|mi| &a[mi * k..(mi + 1) * k]);
    let chunks = k / 4;
    for q in 0..m.div_ceil(NR) {
        let j0 = q * NR;
        let width = NR.min(m - j0);
        let panel = &b_panels[q * k * NR..(q + 1) * k * NR];
        let mut lanes = [[[0.0f32; NR]; M]; 4];
        for c in 0..chunks {
            for (l, lane) in lanes.iter_mut().enumerate() {
                let p = c * 4 + l;
                let bp = &panel[p * NR..p * NR + NR];
                for (acc, arow) in lane.iter_mut().zip(arows) {
                    let av = arow[p];
                    for jj in 0..NR {
                        acc[jj] += av * bp[jj];
                    }
                }
            }
        }
        let [l0, l1, l2, l3] = &lanes;
        for mi in 0..M {
            let mut s: [f32; NR] = std::array::from_fn(|jj| l0[mi][jj] + l1[mi][jj] + l2[mi][jj] + l3[mi][jj]);
            for p in chunks * 4..k {
                let av = arows[mi][p];
                let bp = &panel[p * NR..p * NR + NR];
                for jj in 0..NR {
                    s[jj] += av * bp[jj];
                }
            }
            out[mi * m + j0..mi * m + j0 + width].copy_from_slice(&s[..width]);
        }
    }
}
