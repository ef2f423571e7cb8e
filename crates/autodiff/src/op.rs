//! The operator set and backward rules.

use crate::workspace::Workspace;
use desalign_graph::Csr;
use desalign_tensor::Matrix;
use std::rc::Rc;

/// One recorded operation. Parent node ids are stored inline.
#[derive(Clone)]
pub(crate) enum Op {
    /// Trainable input; gradient is accumulated and kept.
    Leaf,
    /// Non-trainable input; gradients are not propagated into it.
    Constant,
    /// `a + b`
    Add(usize, usize),
    /// `a - b`
    Sub(usize, usize),
    /// Element-wise `a ⊙ b`
    Mul(usize, usize),
    /// `a * c` for a compile-time scalar
    Scale(usize, f32),
    /// `a + c` element-wise scalar shift (the shift is not needed in
    /// backward, hence unread)
    AddConst(usize, #[allow(dead_code)] f32),
    /// Matrix product `a × b`
    MatMul(usize, usize),
    /// Sparse constant × dense variable
    SpMM(Rc<Csr>, usize),
    /// Transpose
    Transpose(usize),
    /// `max(x, 0)`
    Relu(usize),
    /// `max(x, slope·x)`
    LeakyRelu(usize, f32),
    /// `exp(x)`
    Exp(usize),
    /// `x²`
    Square(usize),
    /// `ln(x)` (element-wise natural log)
    Ln(usize),
    /// Element-wise division `a ⊘ b`
    Div(usize, usize),
    /// `√x` (element-wise)
    Sqrt(usize),
    /// `artanh(x)` (element-wise, |x| < 1)
    Artanh(usize),
    /// Row-wise softmax
    SoftmaxRows(usize),
    /// Row-wise layer normalization (no affine), with epsilon
    LayerNormRows(usize, f32),
    /// Row-wise ℓ2 normalization with clamped norm
    L2NormalizeRows(usize, f32),
    /// Horizontal concatenation; stores parents and their column widths
    ConcatCols(Vec<usize>),
    /// Column slice `[start, end)` of the parent
    SliceCols(usize, usize, usize),
    /// Row gather by shared index list
    GatherRows(usize, Rc<Vec<usize>>),
    /// Row scatter-add into `n_out` rows (the count is not needed in
    /// backward, hence unread)
    ScatterAddRows(usize, Rc<Vec<usize>>, #[allow(dead_code)] usize),
    /// Per-destination-segment softmax over edge rows (GAT attention)
    EdgeSoftmax(usize, Rc<Vec<usize>>),
    /// Sum of all elements → 1×1
    SumAll(usize),
    /// Mean of all elements → 1×1
    MeanAll(usize),
    /// Per-row sum → n×1
    RowSum(usize),
    /// Per-column sum → 1×m
    ColSum(usize),
    /// `a (n×m) ⊙ broadcast(b (n×1))`
    MulBroadcastCol(usize, usize),
    /// `a (n×m) ⊙ broadcast(b (1×m))`
    MulBroadcastRow(usize, usize),
    /// `a (n×m) + broadcast(b (1×m))` (bias)
    AddBroadcastRow(usize, usize),
    /// Fused softmax cross-entropy over rows with integer targets → 1×1
    CrossEntropyRows(usize, Rc<Vec<usize>>),
    /// GAT neighbourhood sum `out[dst e] += h[src e] · α[e]`:
    /// `(h, α, src, dst)`
    EdgeAggregate(usize, usize, Rc<Vec<usize>>, Rc<Vec<usize>>),
    /// Softmax of every query modality's scaled scores against every key
    /// modality, n×M² (block `a` is query `a`): `(qs, ks, scale)`
    ModalScores(Vec<usize>, Vec<usize>, f32),
    /// Attention-weighted sum of the value modalities for query `a`:
    /// `(β, a, vs)`
    ModalMix(usize, usize, Vec<usize>),
}

impl Op {
    /// Parent node ids of this op.
    pub(crate) fn parents(&self) -> Vec<usize> {
        match self {
            Op::Leaf | Op::Constant => vec![],
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::MatMul(a, b)
            | Op::Div(a, b)
            | Op::MulBroadcastCol(a, b)
            | Op::MulBroadcastRow(a, b)
            | Op::AddBroadcastRow(a, b) => vec![*a, *b],
            Op::Scale(a, _)
            | Op::AddConst(a, _)
            | Op::SpMM(_, a)
            | Op::Transpose(a)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Exp(a)
            | Op::Square(a)
            | Op::Ln(a)
            | Op::Sqrt(a)
            | Op::Artanh(a)
            | Op::SoftmaxRows(a)
            | Op::LayerNormRows(a, _)
            | Op::L2NormalizeRows(a, _)
            | Op::SliceCols(a, _, _)
            | Op::GatherRows(a, _)
            | Op::ScatterAddRows(a, _, _)
            | Op::EdgeSoftmax(a, _)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::RowSum(a)
            | Op::ColSum(a)
            | Op::CrossEntropyRows(a, _) => vec![*a],
            Op::ConcatCols(parts) => parts.clone(),
            Op::EdgeAggregate(h, alpha, _, _) => vec![*h, *alpha],
            Op::ModalScores(qs, ks, _) => qs.iter().chain(ks).copied().collect(),
            Op::ModalMix(beta, _, vs) => std::iter::once(*beta).chain(vs.iter().copied()).collect(),
        }
    }
}

/// The op set's one name table. Each op is named after the [`Tape`](crate::Tape)
/// method that records it; its forward value is computed in a `fwd.<name>`
/// telemetry span and its backward step runs in `bwd.<name>`. The prefixes
/// keep by-name sums of the tensor kernels' own spans (`matmul`, `spmm_t`,
/// …), which nest inside these, from counting them twice.
macro_rules! op_names {
    ($($variant:ident => $name:literal,)*) => {
        impl Op {
            /// Telemetry span names of this op's forward and backward steps.
            pub(crate) fn span_names(&self) -> (&'static str, &'static str) {
                match self {
                    $(Op::$variant { .. } => (concat!("fwd.", $name), concat!("bwd.", $name)),)*
                }
            }
        }
    };
}

op_names! {
    Leaf => "leaf",
    Constant => "constant",
    Add => "add",
    Sub => "sub",
    Mul => "mul",
    Scale => "scale",
    AddConst => "add_const",
    MatMul => "matmul",
    SpMM => "spmm",
    Transpose => "transpose",
    Relu => "relu",
    LeakyRelu => "leaky_relu",
    Exp => "exp",
    Square => "square",
    Ln => "ln",
    Div => "div",
    Sqrt => "sqrt",
    Artanh => "artanh",
    SoftmaxRows => "softmax_rows",
    LayerNormRows => "layernorm_rows",
    L2NormalizeRows => "l2_normalize_rows",
    ConcatCols => "concat_cols",
    SliceCols => "slice_cols",
    GatherRows => "gather_rows",
    ScatterAddRows => "scatter_add_rows",
    EdgeSoftmax => "edge_softmax",
    SumAll => "sum_all",
    MeanAll => "mean_all",
    RowSum => "row_sum",
    ColSum => "col_sum",
    MulBroadcastCol => "mul_broadcast_col",
    MulBroadcastRow => "mul_broadcast_row",
    AddBroadcastRow => "add_broadcast_row",
    CrossEntropyRows => "cross_entropy_rows",
    EdgeAggregate => "edge_aggregate",
    ModalScores => "modal_scores",
    ModalMix => "modal_mix",
}

/// Computes the gradient contributions `(parent_id, ∂L/∂parent)` of one node
/// given its output value `y`, upstream gradient `g`, read access to parent
/// values, and whether each parent takes a gradient (`requires_grad`).
///
/// `MatMul` computes only the sides whose parent takes a gradient — a
/// product against a constant input would otherwise cost a full discarded
/// GEMM. Other ops return every side; the tape recycles the buffers of
/// contributions into constants unread.
///
/// Every gradient matrix is allocated through the [`Workspace`] so that
/// buffers recycled from previous steps are reused; the arithmetic is
/// bit-identical to the historical allocate-per-matrix implementation
/// (each workspace helper replicates the corresponding `Matrix` kernel's
/// element order exactly, and the `_into` product variants run the same
/// tiled kernels).
pub(crate) fn backward_contributions<'a>(
    op: &Op,
    y: &Matrix,
    g: &Matrix,
    value_of: &impl Fn(usize) -> &'a Matrix,
    requires_grad: &impl Fn(usize) -> bool,
    ws: &mut Workspace,
) -> Vec<(usize, Matrix)> {
    match op {
        Op::Leaf | Op::Constant => vec![],
        Op::Add(a, b) => vec![(*a, ws.clone_of(g)), (*b, ws.clone_of(g))],
        Op::Sub(a, b) => vec![(*a, ws.clone_of(g)), (*b, ws.scaled(g, -1.0))],
        Op::Mul(a, b) => {
            let (va, vb) = (value_of(*a), value_of(*b));
            vec![(*a, ws.hadamard(g, vb)), (*b, ws.hadamard(g, va))]
        }
        Op::Scale(a, c) => vec![(*a, ws.scaled(g, *c))],
        Op::AddConst(a, _) => vec![(*a, ws.clone_of(g))],
        Op::MatMul(a, b) => {
            let (va, vb) = (value_of(*a), value_of(*b));
            let mut out = Vec::with_capacity(2);
            if requires_grad(*a) {
                let mut ga = ws.uninit(g.rows(), vb.rows());
                g.matmul_nt_into(vb, &mut ga);
                out.push((*a, ga));
            }
            if requires_grad(*b) {
                let mut gb = ws.uninit(va.cols(), g.cols());
                va.matmul_tn_into(g, &mut gb);
                out.push((*b, gb));
            }
            out
        }
        Op::SpMM(s, a) => {
            let mut gx = ws.zeros(s.cols(), g.cols());
            s.spmm_t_into(g, &mut gx);
            vec![(*a, gx)]
        }
        Op::Transpose(a) => {
            let mut gx = ws.uninit(g.cols(), g.rows());
            g.transpose_into(&mut gx);
            vec![(*a, gx)]
        }
        Op::Relu(a) => {
            let va = value_of(*a);
            let mut gx = ws.clone_of(g);
            for (gv, &xv) in gx.as_mut_slice().iter_mut().zip(va.as_slice()) {
                if xv <= 0.0 {
                    *gv = 0.0;
                }
            }
            vec![(*a, gx)]
        }
        Op::LeakyRelu(a, slope) => {
            let va = value_of(*a);
            let mut gx = ws.clone_of(g);
            for (gv, &xv) in gx.as_mut_slice().iter_mut().zip(va.as_slice()) {
                if xv <= 0.0 {
                    *gv *= slope;
                }
            }
            vec![(*a, gx)]
        }
        Op::Exp(a) => vec![(*a, ws.hadamard(g, y))],
        Op::Div(a, b) => {
            let (va, vb) = (value_of(*a), value_of(*b));
            let mut ga = ws.clone_of(g);
            for (gv, &bv) in ga.as_mut_slice().iter_mut().zip(vb.as_slice()) {
                *gv /= bv;
            }
            let mut gb = ws.hadamard(g, va);
            for (gv, &bv) in gb.as_mut_slice().iter_mut().zip(vb.as_slice()) {
                *gv /= -(bv * bv);
            }
            vec![(*a, ga), (*b, gb)]
        }
        Op::Sqrt(a) => {
            // y = √x ⇒ dx = g / (2y)
            let mut gx = ws.clone_of(g);
            for (gv, &yv) in gx.as_mut_slice().iter_mut().zip(y.as_slice()) {
                *gv /= 2.0 * yv.max(1e-12);
            }
            vec![(*a, gx)]
        }
        Op::Artanh(a) => {
            // d artanh(x)/dx = 1 / (1 − x²)
            let va = value_of(*a);
            let mut gx = ws.clone_of(g);
            for (gv, &xv) in gx.as_mut_slice().iter_mut().zip(va.as_slice()) {
                *gv /= 1.0 - xv * xv;
            }
            vec![(*a, gx)]
        }
        Op::Ln(a) => {
            let va = value_of(*a);
            let mut gx = ws.clone_of(g);
            for (gv, &xv) in gx.as_mut_slice().iter_mut().zip(va.as_slice()) {
                *gv /= xv;
            }
            vec![(*a, gx)]
        }
        Op::Square(a) => {
            let va = value_of(*a);
            let mut gx = ws.hadamard(g, va);
            for v in gx.as_mut_slice() {
                *v *= 2.0;
            }
            vec![(*a, gx)]
        }
        Op::SoftmaxRows(a) => {
            // dx = y ⊙ (g − ⟨g, y⟩_row · 1)
            let mut gx = ws.hadamard(g, y);
            for i in 0..gx.rows() {
                // gx holds g⊙y; finish dx = g⊙y − y·Σ_row(g⊙y) in place.
                let dot: f32 = gx.row(i).iter().sum();
                for (gv, &yv) in gx.row_mut(i).iter_mut().zip(y.row(i)) {
                    *gv -= yv * dot;
                }
            }
            vec![(*a, gx)]
        }
        Op::LayerNormRows(a, eps) => {
            // y = (x − μ)/σ with σ = sqrt(var + eps).
            // dx = (g − mean(g) − y · mean(g ⊙ y)) / σ, per row.
            let va = value_of(*a);
            let cols = va.cols().max(1) as f32;
            let mut gx = ws.uninit(va.rows(), va.cols());
            for i in 0..va.rows() {
                let xr = va.row(i);
                let mean = xr.iter().sum::<f32>() / cols;
                let var = xr.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols;
                let sigma = (var + eps).sqrt();
                let gr = g.row(i);
                let yr = y.row(i);
                let g_mean = gr.iter().sum::<f32>() / cols;
                let gy_mean = gr.iter().zip(yr).map(|(gv, yv)| gv * yv).sum::<f32>() / cols;
                for ((out, &gv), &yv) in gx.row_mut(i).iter_mut().zip(gr).zip(yr) {
                    *out = (gv - g_mean - yv * gy_mean) / sigma;
                }
            }
            vec![(*a, gx)]
        }
        Op::L2NormalizeRows(a, eps) => {
            let va = value_of(*a);
            let mut gx = ws.uninit(va.rows(), va.cols());
            for i in 0..va.rows() {
                let xr = va.row(i);
                let norm = xr.iter().map(|v| v * v).sum::<f32>().sqrt();
                let gr = g.row(i);
                if norm > *eps {
                    // dx = (g − y ⟨y, g⟩) / ‖x‖
                    let yr = y.row(i);
                    let ydotg: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                    for ((out, &gv), &yv) in gx.row_mut(i).iter_mut().zip(gr).zip(yr) {
                        *out = (gv - yv * ydotg) / norm;
                    }
                } else {
                    // Clamped regime: forward was y = x / eps (constant norm).
                    for (out, &gv) in gx.row_mut(i).iter_mut().zip(gr) {
                        *out = gv / eps;
                    }
                }
            }
            vec![(*a, gx)]
        }
        Op::ConcatCols(parts) => {
            let mut out = Vec::with_capacity(parts.len());
            let mut off = 0;
            for &p in parts {
                let w = value_of(p).cols();
                let mut gp = ws.uninit(g.rows(), w);
                for i in 0..g.rows() {
                    gp.row_mut(i).copy_from_slice(&g.row(i)[off..off + w]);
                }
                out.push((p, gp));
                off += w;
            }
            out
        }
        Op::SliceCols(a, start, end) => {
            let va = value_of(*a);
            let mut gx = ws.zeros(va.rows(), va.cols());
            for i in 0..gx.rows() {
                gx.row_mut(i)[*start..*end].copy_from_slice(g.row(i));
            }
            vec![(*a, gx)]
        }
        Op::GatherRows(a, idx) => {
            // Scatter-add with a pooled zeroed output — same accumulation
            // order as `Matrix::scatter_add_rows`.
            let va = value_of(*a);
            let mut gx = ws.zeros(va.rows(), g.cols());
            for (i, &r) in idx.iter().enumerate() {
                assert!(r < va.rows(), "GatherRows backward: index {r} out of bounds ({} rows)", va.rows());
                for (o, &s) in gx.row_mut(r).iter_mut().zip(g.row(i)) {
                    *o += s;
                }
            }
            vec![(*a, gx)]
        }
        Op::ScatterAddRows(a, idx, _) => {
            let mut gx = ws.uninit(idx.len(), g.cols());
            for (i, &r) in idx.iter().enumerate() {
                gx.row_mut(i).copy_from_slice(g.row(r));
            }
            vec![(*a, gx)]
        }
        Op::EdgeSoftmax(a, dst) => {
            // Per segment s and column c:
            // dx_e = y_e (g_e − Σ_{e'∈s} y_{e'} g_{e'})
            let n_segments = dst.iter().copied().max().map_or(0, |m| m + 1);
            let cols = y.cols();
            let mut seg_dot = vec![0.0f32; n_segments * cols];
            for (e, &d) in dst.iter().enumerate() {
                for c in 0..cols {
                    seg_dot[d * cols + c] += y[(e, c)] * g[(e, c)];
                }
            }
            let mut gx = ws.uninit(y.rows(), cols);
            for (e, &d) in dst.iter().enumerate() {
                for c in 0..cols {
                    gx[(e, c)] = y[(e, c)] * (g[(e, c)] - seg_dot[d * cols + c]);
                }
            }
            vec![(*a, gx)]
        }
        Op::SumAll(a) => {
            let va = value_of(*a);
            let scalar = g[(0, 0)];
            vec![(*a, ws.full(va.rows(), va.cols(), scalar))]
        }
        Op::MeanAll(a) => {
            let va = value_of(*a);
            let scalar = g[(0, 0)] / va.len().max(1) as f32;
            vec![(*a, ws.full(va.rows(), va.cols(), scalar))]
        }
        Op::RowSum(a) => {
            let va = value_of(*a);
            let mut gx = ws.uninit(va.rows(), va.cols());
            for i in 0..va.rows() {
                let gv = g[(i, 0)];
                for out in gx.row_mut(i) {
                    *out = gv;
                }
            }
            vec![(*a, gx)]
        }
        Op::ColSum(a) => {
            let va = value_of(*a);
            let mut gx = ws.uninit(va.rows(), va.cols());
            for i in 0..va.rows() {
                gx.row_mut(i).copy_from_slice(g.row(0));
            }
            vec![(*a, gx)]
        }
        Op::MulBroadcastCol(a, b) => {
            let (va, vb) = (value_of(*a), value_of(*b));
            let mut ga = ws.clone_of(g);
            for i in 0..ga.rows() {
                let s = vb[(i, 0)];
                for v in ga.row_mut(i) {
                    *v *= s;
                }
            }
            let mut gb = ws.uninit(va.rows(), 1);
            for i in 0..va.rows() {
                gb[(i, 0)] = g.row(i).iter().zip(va.row(i)).map(|(gv, av)| gv * av).sum();
            }
            vec![(*a, ga), (*b, gb)]
        }
        Op::MulBroadcastRow(a, b) => {
            let (va, vb) = (value_of(*a), value_of(*b));
            let mut ga = ws.clone_of(g);
            for i in 0..ga.rows() {
                for (v, &s) in ga.row_mut(i).iter_mut().zip(vb.row(0)) {
                    *v *= s;
                }
            }
            let mut gb = ws.zeros(1, va.cols());
            for i in 0..va.rows() {
                for ((out, gv), av) in gb.row_mut(0).iter_mut().zip(g.row(i)).zip(va.row(i)) {
                    *out += gv * av;
                }
            }
            vec![(*a, ga), (*b, gb)]
        }
        Op::AddBroadcastRow(a, b) => {
            let va = value_of(*a);
            let mut gb = ws.zeros(1, va.cols());
            for i in 0..va.rows() {
                for (out, gv) in gb.row_mut(0).iter_mut().zip(g.row(i)) {
                    *out += gv;
                }
            }
            vec![(*a, ws.clone_of(g)), (*b, gb)]
        }
        Op::CrossEntropyRows(a, targets) => {
            // Forward stored loss = mean_i(−log p_{i,t_i}). Backward:
            // dx = (softmax(x) − onehot) · g / B
            let va = value_of(*a);
            let probs = va.softmax_rows();
            let scale = g[(0, 0)] / va.rows().max(1) as f32;
            let mut gx = ws.scaled(&probs, scale);
            for (i, &t) in targets.iter().enumerate() {
                gx[(i, t)] -= scale;
            }
            vec![(*a, gx)]
        }
        Op::EdgeAggregate(h, alpha, src, dst) => edge_aggregate_backward(g, *h, *alpha, src, dst, value_of, ws),
        Op::ModalScores(qs, ks, scale) => modal_scores_backward(y, g, qs, ks, *scale, value_of, ws),
        Op::ModalMix(beta, a, vs) => modal_mix_backward(g, *beta, *a, vs, value_of, ws),
    }
}

// The three fused attention ops below each replace a chain of the
// primitives above. They compute every f32 value with the same operations,
// in the same order, as the chain did through the tape. That includes the
// order in which the tape summed a parent's contributions from several
// nodes, so fusing moved no bit (`tests/fused_attention.rs` compares both).

/// `EdgeAggregate` replaces `gather_rows(h, src)` → `mul_broadcast_col(·, α)`
/// → `scatter_add_rows(·, dst, n)`. `∂α[e]` is the `mul_broadcast_col` row
/// dot `Σ_c g[dst e][c]·h[src e][c]`; `∂h` is the `gather_rows` scatter of
/// `g[dst e]·α[e]` into zeros, in edge order.
fn edge_aggregate_backward<'a>(
    g: &Matrix,
    h: usize,
    alpha: usize,
    src: &[usize],
    dst: &[usize],
    value_of: &impl Fn(usize) -> &'a Matrix,
    ws: &mut Workspace,
) -> Vec<(usize, Matrix)> {
    let (vh, va) = (value_of(h), value_of(alpha));
    let mut gh = ws.zeros(vh.rows(), vh.cols());
    let mut ga = ws.uninit(va.rows(), 1);
    for (e, (&s, &d)) in src.iter().zip(dst).enumerate() {
        let gd = g.row(d);
        ga[(e, 0)] = gd.iter().zip(vh.row(s)).map(|(gv, hv)| gv * hv).sum();
        let w = va[(e, 0)];
        for (o, &gv) in gh.row_mut(s).iter_mut().zip(gd) {
            *o += gv * w;
        }
    }
    vec![(h, gh), (alpha, ga)]
}

/// `ModalScores` replaces, per query `a`: `mul(q_a, k_b)` → `row_sum` →
/// `scale` for every key `b`, then `concat_cols` → `softmax_rows`. Per block
/// the score gradient is the softmax backward `g⊙y − y·Σ(g⊙y)`, then
/// `·scale`. The tape summed `q_a`'s contributions from its `mul` nodes
/// latest first, i.e. over `b` from M−1 down to 0, and `k_b`'s over `a`
/// from M−1 down to 0; the first term is taken as is, not added to zero.
fn modal_scores_backward<'a>(
    y: &Matrix,
    g: &Matrix,
    qs: &[usize],
    ks: &[usize],
    scale: f32,
    value_of: &impl Fn(usize) -> &'a Matrix,
    ws: &mut Workspace,
) -> Vec<(usize, Matrix)> {
    let m = qs.len();
    let (n, d) = value_of(qs[0]).shape();
    // ∂ of the scaled scores, n×M² like β.
    let mut gs = ws.uninit(n, m * m);
    for i in 0..n {
        for ((out, gb), yb) in gs.row_mut(i).chunks_exact_mut(m).zip(g.row(i).chunks_exact(m)).zip(y.row(i).chunks_exact(m)) {
            for ((o, &gv), &yv) in out.iter_mut().zip(gb).zip(yb) {
                *o = gv * yv;
            }
            let dot: f32 = out.iter().sum();
            for (o, &yv) in out.iter_mut().zip(yb) {
                *o -= yv * dot;
            }
            for o in out.iter_mut() {
                *o *= scale;
            }
        }
    }
    // One side of the scores' `mul`s: ∂x = Σ_r gs[·, base + r·stride] ·
    // others[r], summed over r from M−1 down to 0.
    let side = |ws: &mut Workspace, others: &[usize], base: usize, stride: usize| {
        let mut gx = ws.uninit(n, d);
        for i in 0..n {
            let s = gs.row(i);
            let row = gx.row_mut(i);
            let last = m - 1;
            let w = s[base + last * stride];
            for (o, &v) in row.iter_mut().zip(value_of(others[last]).row(i)) {
                *o = w * v;
            }
            for r in (0..last).rev() {
                let w = s[base + r * stride];
                for (o, &v) in row.iter_mut().zip(value_of(others[r]).row(i)) {
                    *o += w * v;
                }
            }
        }
        gx
    };
    let mut out = Vec::with_capacity(2 * m);
    for (a, &q) in qs.iter().enumerate() {
        out.push((q, side(ws, ks, a * m, 1)));
    }
    for (b, &k) in ks.iter().enumerate() {
        out.push((k, side(ws, qs, b, m)));
    }
    ws.recycle(gs);
    out
}

/// `ModalMix` replaces, for query `a`: `slice_cols(β_a, j)` →
/// `mul_broadcast_col(v_j, ·)` for every `j`, summed by a chain of `add`s.
/// Every chain node passed `g` through unchanged, so `∂v_j = g·β[a·M+j]`
/// and `∂β[a·M+j]` is the row dot `Σ_c g·v_j`; the other blocks of `∂β`
/// are zeros.
fn modal_mix_backward<'a>(
    g: &Matrix,
    beta: usize,
    a: usize,
    vs: &[usize],
    value_of: &impl Fn(usize) -> &'a Matrix,
    ws: &mut Workspace,
) -> Vec<(usize, Matrix)> {
    let m = vs.len();
    let vb = value_of(beta);
    let mut gb = ws.zeros(vb.rows(), vb.cols());
    for i in 0..g.rows() {
        let block = &mut gb.row_mut(i)[a * m..a * m + m];
        for (o, &v) in block.iter_mut().zip(vs) {
            *o = g.row(i).iter().zip(value_of(v).row(i)).map(|(gx, x)| gx * x).sum();
        }
    }
    let mut out = vec![(beta, gb)];
    for (j, &v) in vs.iter().enumerate() {
        let mut gv = ws.uninit(g.rows(), g.cols());
        for i in 0..g.rows() {
            let w = vb[(i, a * m + j)];
            for (x, &gx) in gv.row_mut(i).iter_mut().zip(g.row(i)) {
                *x = gx * w;
            }
        }
        out.push((v, gv));
    }
    out
}
