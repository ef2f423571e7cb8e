//! Bit-exactness suite for the register-tiled matmul kernels.
//!
//! Policy (see `docs/ARCHITECTURE.md`, "Kernel partitioning rule"): tiling
//! re-groups which output elements are computed together but never splits
//! or reorders a reduction, so every tiled kernel must match the naive
//! reference loop order **bit-for-bit** — no tolerance, no fingerprint
//! migration. The references below are verbatim re-implementations of the
//! pre-tile kernels (`ikj` matmul, block-partial `matmul_tn` including its
//! historical zero-skip, per-element `dot` for `matmul_nt`); comparisons
//! are on `f32::to_bits`, which `==` on floats would not give us (it
//! conflates `+0.0` with `-0.0`).
//!
//! Shapes deliberately cover empty, 1×1, exact-multiple-of-tile, and
//! non-multiple-of-tile sizes, the edges of the `matmul_nt` lane layout
//! (several column panels with a ragged last one, `k = 1`, a `k mod 4`
//! tail) and the training products. Each product is checked under 1, 2,
//! and 7 threads (`with_threads`), including shapes large enough to clear
//! `PAR_MIN_COST` so the parallel path genuinely dispatches.

use desalign_parallel::{fixed_block_len, with_threads};
use desalign_tensor::{dot, Matrix, NtPanels, Rng64};
use desalign_testkit::{check, ensure, gen};

const CASES: u64 = 24;

/// Cases for [`TRAINING_SHAPES`], whose products are ~100× the small ones'.
const TRAINING_CASES: u64 = 4;

/// Shapes as (n, k, m): includes empty, 1×1, tile-exact (MR=4, NR=16),
/// non-multiples, and one above-dispatch-threshold case. In every form the
/// output is n×m and the shared (reduced) index has length k.
const SHAPES: &[(usize, usize, usize)] = &[
    (0, 3, 4),
    (3, 0, 4),
    (3, 4, 0),
    (1, 1, 1),
    (4, 8, 8),
    (4, 8, 16),
    (5, 13, 9),
    (7, 1, 17),
    (2, 300, 3),
    (13, 7, 13),
    (3, 67, 67),  // output wider than one 16-column panel, ragged last panel
    (9, 1, 40),   // k = 1: the GAT scorer h·a_src, no whole 4-lane chunk
    (5, 13, 33),  // k mod 4 = 1 tail with three column panels
    (80, 80, 80), // 512k scalar ops: exceeds PAR_MIN_COST, exercises dispatch
];

/// The training products at 400 entities and d = 64, checked at fewer
/// cases: `(400, 64, 64)` is the backward `g·Wᵀ` of `matmul_nt`, and
/// `(64, 400, 64)` the weight gradient `Xᵀ·g` of `matmul_tn`, whose 400
/// shared rows span two reduction blocks.
const TRAINING_SHAPES: &[(usize, usize, usize)] = &[(400, 64, 64), (64, 400, 64)];

fn shapes() -> impl Iterator<Item = ((usize, usize, usize), u64)> {
    SHAPES.iter().map(|&s| (s, CASES)).chain(TRAINING_SHAPES.iter().map(|&s| (s, TRAINING_CASES)))
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The pre-tile `ikj` kernel, serial.
fn naive_nn(a: &Matrix, b: &Matrix) -> Matrix {
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(n, m);
    for i in 0..n {
        for p in 0..k {
            let a_ip = a.row(i)[p];
            for (o, &bv) in out.row_mut(i).iter_mut().zip(b.row(p)) {
                *o += a_ip * bv;
            }
        }
    }
    out
}

/// The pre-tile `matmul_tn`: block partials over `fixed_block_len(k, 256)`
/// merged in order, with the historical `a == 0.0` skip.
fn naive_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, n, m) = (a.rows(), a.cols(), b.cols());
    let block = fixed_block_len(k, 256);
    let mut partials = Vec::new();
    let mut p0 = 0;
    while p0 < k {
        let p1 = (p0 + block).min(k);
        let mut part = Matrix::zeros(n, m);
        for p in p0..p1 {
            let a_row = a.row(p);
            let b_row = b.row(p);
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in part.row_mut(i).iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        partials.push(part);
        p0 = p1;
    }
    let mut parts = partials.into_iter();
    let mut out = parts.next().unwrap_or_else(|| Matrix::zeros(n, m));
    for part in parts {
        for (o, &p) in out.as_mut_slice().iter_mut().zip(part.as_slice()) {
            *o += p;
        }
    }
    out
}

/// The pre-tile `matmul_nt`: one `dot` per output element.
fn naive_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let (n, m) = (a.rows(), b.rows());
    let mut out = Matrix::zeros(n, m);
    for i in 0..n {
        for j in 0..m {
            out[(i, j)] = dot(a.row(i), b.row(j));
        }
    }
    out
}

/// Random matrix with a controllable fraction of exact zeros, to exercise
/// the removed zero-skip equivalence in `matmul_tn`.
fn sparse_matrix(rng: &mut Rng64, rows: usize, cols: usize, zero_frac: f64) -> Matrix {
    let mut m = gen::matrix(rng, rows, cols, -5.0, 5.0);
    for v in m.as_mut_slice() {
        if rng.gen_bool(zero_frac) {
            *v = 0.0;
        }
    }
    m
}

#[test]
fn tiled_matmul_bit_matches_naive_reference() {
    for ((n, k, m), cases) in shapes() {
        check(&format!("tiled_nn_{n}x{k}x{m}"), cases, |rng| (gen::matrix(rng, n, k, -5.0, 5.0), gen::matrix(rng, k, m, -5.0, 5.0)), |(a, b)| {
            let want = bits(&naive_nn(a, b));
            for threads in [1usize, 2, 7] {
                let got = with_threads(threads, || a.matmul(b));
                ensure!(bits(&got) == want, "matmul {n}x{k}x{m} diverged from naive ikj at {threads} threads");
            }
            Ok(())
        });
    }
}

#[test]
fn tiled_matmul_tn_bit_matches_naive_reference() {
    for ((n, k, m), cases) in shapes() {
        // a is k×n here (the kernel computes aᵀ·b); half the entries are
        // exact zeros so the historical zero-skip path is genuinely hit.
        check(&format!("tiled_tn_{n}x{k}x{m}"), cases, |rng| (sparse_matrix(rng, k, n, 0.5), gen::matrix(rng, k, m, -5.0, 5.0)), |(a, b)| {
            let want = bits(&naive_tn(a, b));
            for threads in [1usize, 2, 7] {
                let got = with_threads(threads, || a.matmul_tn(b));
                ensure!(bits(&got) == want, "matmul_tn {n}x{k}x{m} diverged from block reference at {threads} threads");
            }
            Ok(())
        });
    }
}

#[test]
fn tiled_matmul_nt_bit_matches_dot_reference() {
    for ((n, k, m), cases) in shapes() {
        check(&format!("tiled_nt_{n}x{k}x{m}"), cases, |rng| (gen::matrix(rng, n, k, -5.0, 5.0), gen::matrix(rng, m, k, -5.0, 5.0)), |(a, b)| {
            let want = bits(&naive_nt(a, b));
            for threads in [1usize, 2, 7] {
                let got = with_threads(threads, || a.matmul_nt(b));
                ensure!(bits(&got) == want, "matmul_nt {n}x{k}x{m} diverged from dot reference at {threads} threads");
            }
            Ok(())
        });
    }
}

/// Packing once and scoring any panel range, with any number of left
/// rows, gives the `dot` of each pair: the contract the retrieval index
/// builds on when it scores query blocks against item panels.
#[test]
fn packed_panel_ranges_score_like_dot() {
    for ((n, k, m), cases) in shapes() {
        check(&format!("nt_panels_{n}x{k}x{m}"), cases, |rng| (gen::matrix(rng, n, k, -5.0, 5.0), gen::matrix(rng, m, k, -5.0, 5.0)), |(a, b)| {
            let packed = NtPanels::pack(b);
            ensure!(bits(&packed.unpack()) == bits(b), "unpack(pack(b)) != b for {m}x{k}");
            let want = naive_nt(a, b);
            let np = packed.num_panels();
            for start in 0..=np {
                for end in start..=np {
                    let cols = packed.panel_rows(start..end);
                    let mut out = vec![f32::NAN; n * cols.len()];
                    packed.score_into(a.as_slice(), start..end, &mut out);
                    for (i, row) in out.chunks(cols.len().max(1)).enumerate() {
                        for (jj, s) in row.iter().enumerate() {
                            let j = cols.start + jj;
                            ensure!(s.to_bits() == want[(i, j)].to_bits(), "panels {start}..{end}: ({i},{j}) diverged from dot");
                        }
                    }
                }
            }
            Ok(())
        });
    }
}

#[test]
fn signed_zero_is_preserved_exactly() {
    // -0.0 inputs are where bitwise and `==` comparison differ: a product
    // row of all -0.0 must come out +0.0 (accumulators start at +0.0), in
    // both the tiled kernels and the references.
    let a = Matrix::from_rows(&[&[-0.0, -0.0], &[1.0, -1.0]]);
    let b = Matrix::from_rows(&[&[-0.0, 2.0], &[-0.0, 2.0]]);
    for (got, want) in [
        (a.matmul(&b), naive_nn(&a, &b)),
        (a.matmul_tn(&b), naive_tn(&a, &b)),
        (a.matmul_nt(&b), naive_nt(&a, &b)),
    ] {
        assert_eq!(bits(&got), bits(&want));
    }
    assert_eq!(a.matmul(&b)[(0, 0)].to_bits(), 0.0f32.to_bits());
}
