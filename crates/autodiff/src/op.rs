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
        }
    }

    /// Telemetry span name of this op's backward step: `bwd.` plus the
    /// [`Tape`](crate::Tape) method that records it. The prefix keeps
    /// by-name sums of the tensor kernels' own spans (`matmul_nt`, `spmm_t`,
    /// …), which nest inside these, from counting them twice.
    pub(crate) fn span_name(&self) -> &'static str {
        match self {
            Op::Leaf => "bwd.leaf",
            Op::Constant => "bwd.constant",
            Op::Add(..) => "bwd.add",
            Op::Sub(..) => "bwd.sub",
            Op::Mul(..) => "bwd.mul",
            Op::Scale(..) => "bwd.scale",
            Op::AddConst(..) => "bwd.add_const",
            Op::MatMul(..) => "bwd.matmul",
            Op::SpMM(..) => "bwd.spmm",
            Op::Transpose(..) => "bwd.transpose",
            Op::Relu(..) => "bwd.relu",
            Op::LeakyRelu(..) => "bwd.leaky_relu",
            Op::Exp(..) => "bwd.exp",
            Op::Square(..) => "bwd.square",
            Op::Ln(..) => "bwd.ln",
            Op::Div(..) => "bwd.div",
            Op::Sqrt(..) => "bwd.sqrt",
            Op::Artanh(..) => "bwd.artanh",
            Op::SoftmaxRows(..) => "bwd.softmax_rows",
            Op::LayerNormRows(..) => "bwd.layernorm_rows",
            Op::L2NormalizeRows(..) => "bwd.l2_normalize_rows",
            Op::ConcatCols(..) => "bwd.concat_cols",
            Op::SliceCols(..) => "bwd.slice_cols",
            Op::GatherRows(..) => "bwd.gather_rows",
            Op::ScatterAddRows(..) => "bwd.scatter_add_rows",
            Op::EdgeSoftmax(..) => "bwd.edge_softmax",
            Op::SumAll(..) => "bwd.sum_all",
            Op::MeanAll(..) => "bwd.mean_all",
            Op::RowSum(..) => "bwd.row_sum",
            Op::ColSum(..) => "bwd.col_sum",
            Op::MulBroadcastCol(..) => "bwd.mul_broadcast_col",
            Op::MulBroadcastRow(..) => "bwd.mul_broadcast_row",
            Op::AddBroadcastRow(..) => "bwd.add_broadcast_row",
            Op::CrossEntropyRows(..) => "bwd.cross_entropy_rows",
        }
    }
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
    }
}
