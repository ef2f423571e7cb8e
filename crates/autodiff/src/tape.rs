//! The gradient tape and its operator methods.

use crate::op::{backward_contributions, Op};
use crate::workspace::{shared_workspace, SharedWorkspace};
use desalign_graph::Csr;
use desalign_tensor::{softmax_slice, Matrix};
use std::rc::Rc;

/// A handle to a node on a [`Tape`]. Cheap to copy; only valid for the tape
/// that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(usize);

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    requires_grad: bool,
}

/// An append-only arena of computation nodes supporting reverse-mode
/// differentiation. See the crate docs for a usage example.
pub struct Tape {
    nodes: Vec<Node>,
    ws: SharedWorkspace,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        // Return this step's gradient buffers to the pool so the next
        // tape's backward pass reuses them instead of allocating. Forward
        // values are *not* pooled: they are allocated by the tensor kernels
        // (outside the workspace), so pooling them would grow the pool by
        // one tape's worth of buffers every step without ever serving a
        // hit. Grad-only recycling keeps the pool size pinned at one
        // backward pass's working set.
        let mut ws = self.ws.borrow_mut();
        for node in self.nodes.drain(..) {
            if let Some(g) = node.grad {
                ws.recycle(g);
            }
        }
    }
}

impl Tape {
    /// Creates an empty tape with its own private gradient workspace.
    pub fn new() -> Self {
        Self::with_workspace(shared_workspace())
    }

    /// Creates an empty tape whose backward pass allocates gradients from
    /// `ws` and returns them to it on drop. Hand the same handle to every
    /// per-step tape of a training run and steady-state steps allocate no
    /// new gradient buffers (see [`crate::Workspace`]).
    pub fn with_workspace(ws: SharedWorkspace) -> Self {
        Self { nodes: Vec::new(), ws }
    }

    /// The workspace backing this tape's gradient allocations.
    pub fn workspace(&self) -> &SharedWorkspace {
        &self.ws
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a trainable input. Its gradient is available after
    /// [`Tape::backward`].
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Records a non-trainable input; no gradient flows into it.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Constant, false)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a node, if backward has reached it.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    fn push(&mut self, value: Matrix, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node { value, grad: None, op, requires_grad });
        Var(self.nodes.len() - 1)
    }

    /// Computes an op's forward value in its `fwd.<op>` telemetry span and
    /// records the node.
    fn record(&mut self, op: Op, forward: impl FnOnce(&Self) -> Matrix) -> Var {
        let value = {
            let _span = desalign_telemetry::span(op.span_names().0);
            forward(self)
        };
        let parents = op.parents();
        // Leaves and constants may hold anything: a diverged model's NaN
        // weights are caught downstream as typed errors. What must not
        // happen is an op turning finite inputs into a non-finite value.
        debug_assert!(
            value.all_finite() || parents.iter().any(|&p| !self.nodes[p].value.all_finite()),
            "{} turned finite inputs into a non-finite value",
            op.span_names().0
        );
        let requires = parents.iter().any(|&p| self.nodes[p].requires_grad);
        self.push(value, op, requires)
    }

    /// Runs reverse-mode differentiation from `loss`, which must be `1×1`.
    ///
    /// Gradients of all reachable `requires_grad` nodes (including
    /// intermediates) are accumulated and retrievable via [`Tape::grad`].
    ///
    /// # Panics
    /// Panics if `loss` is not a scalar node.
    pub fn backward(&mut self, loss: Var) {
        let shape = self.nodes[loss.0].value.shape();
        assert_eq!(shape, (1, 1), "Tape::backward: loss must be 1x1, got {}x{}", shape.0, shape.1);
        self.nodes[loss.0].grad = Some(self.ws.borrow_mut().full(1, 1, 1.0));
        for i in (0..=loss.0).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            let Some(grad) = self.nodes[i].grad.take() else { continue };
            let op = self.nodes[i].op.clone();
            let contribs = {
                let _span = desalign_telemetry::span(op.span_names().1);
                let nodes = &self.nodes;
                let value_of = |p: usize| &nodes[p].value;
                let requires_grad = |p: usize| nodes[p].requires_grad;
                let mut ws = self.ws.borrow_mut();
                backward_contributions(&op, &nodes[i].value, &grad, &value_of, &requires_grad, &mut ws)
            };
            self.nodes[i].grad = Some(grad);
            for (pid, g) in contribs {
                if !self.nodes[pid].requires_grad {
                    // Contributions into non-trainable parents are merged
                    // nowhere; hand their buffers straight back.
                    self.ws.borrow_mut().recycle(g);
                    continue;
                }
                match &mut self.nodes[pid].grad {
                    Some(acc) => {
                        acc.axpy(1.0, &g);
                        self.ws.borrow_mut().recycle(g);
                    }
                    slot @ None => *slot = Some(g),
                }
            }
        }
    }

    // ---- element-wise and scalar ops -------------------------------------

    /// `a + b` (element-wise).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Add(a.0, b.0), |t| t.value(a).add(t.value(b)))
    }

    /// `a − b` (element-wise).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Sub(a.0, b.0), |t| t.value(a).sub(t.value(b)))
    }

    /// `a ⊙ b` (Hadamard).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Mul(a.0, b.0), |t| t.value(a).hadamard(t.value(b)))
    }

    /// `a · c` for scalar `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        self.record(Op::Scale(a.0, c), |t| t.value(a).scale(c))
    }

    /// `a + c` element-wise for scalar `c`.
    pub fn add_const(&mut self, a: Var, c: f32) -> Var {
        self.record(Op::AddConst(a.0, c), |t| t.value(a).map(|x| x + c))
    }

    /// `relu(a)`.
    pub fn relu(&mut self, a: Var) -> Var {
        self.record(Op::Relu(a.0), |t| t.value(a).map(|x| x.max(0.0)))
    }

    /// `leaky_relu(a)` with negative slope `slope`.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        self.record(Op::LeakyRelu(a.0, slope), |t| t.value(a).map(|x| if x > 0.0 { x } else { slope * x }))
    }

    /// `exp(a)`.
    pub fn exp(&mut self, a: Var) -> Var {
        self.record(Op::Exp(a.0), |t| t.value(a).map(f32::exp))
    }

    /// `a²` (element-wise).
    pub fn square(&mut self, a: Var) -> Var {
        self.record(Op::Square(a.0), |t| t.value(a).map(|x| x * x))
    }

    /// `ln(a)` (element-wise). Inputs must be strictly positive.
    pub fn ln(&mut self, a: Var) -> Var {
        self.record(Op::Ln(a.0), |t| t.value(a).map(f32::ln))
    }

    /// Element-wise division `a ⊘ b`. Divisors must be non-zero.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Div(a.0, b.0), |t| {
            let (x, y) = (t.value(a), t.value(b));
            y.expect_shape(x.rows(), x.cols(), "Tape::div");
            let data = x.as_slice().iter().zip(y.as_slice()).map(|(&p, &q)| p / q).collect();
            Matrix::from_vec(x.rows(), x.cols(), data)
        })
    }

    /// `√a` (element-wise). Inputs must be non-negative.
    pub fn sqrt(&mut self, a: Var) -> Var {
        self.record(Op::Sqrt(a.0), |t| t.value(a).map(f32::sqrt))
    }

    /// `artanh(a)` (element-wise), defined for |a| < 1 — the hyperbolic
    /// distance kernel of the Poincaré ball (used by the HEA baseline).
    /// Inputs are clamped to ±(1 − 1e-5) for numerical safety.
    pub fn artanh(&mut self, a: Var) -> Var {
        self.record(Op::Artanh(a.0), |t| {
            t.value(a).map(|x| {
                let x = x.clamp(-1.0 + 1e-5, 1.0 - 1e-5);
                0.5 * ((1.0 + x) / (1.0 - x)).ln()
            })
        })
    }

    // ---- products ---------------------------------------------------------

    /// Matrix product `a × b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::MatMul(a.0, b.0), |t| t.value(a).matmul(t.value(b)))
    }

    /// Sparse constant × dense variable: `S × a`.
    pub fn spmm(&mut self, s: Rc<Csr>, a: Var) -> Var {
        self.record(Op::SpMM(Rc::clone(&s), a.0), |t| s.spmm(t.value(a)))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        self.record(Op::Transpose(a.0), |t| t.value(a).transpose())
    }

    // ---- row-wise normalizations -------------------------------------------

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        self.record(Op::SoftmaxRows(a.0), |t| t.value(a).softmax_rows())
    }

    /// Row-wise layer normalization (no affine parameters).
    pub fn layernorm_rows(&mut self, a: Var, eps: f32) -> Var {
        self.record(Op::LayerNormRows(a.0, eps), |t| t.value(a).layernorm_rows(eps))
    }

    /// Row-wise ℓ2 normalization with norm clamp `eps`.
    pub fn l2_normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        // Forward uses the clamped form y = x / max(‖x‖, eps) so the
        // backward rule in `op.rs` matches exactly.
        self.record(Op::L2NormalizeRows(a.0, eps), |t| {
            let mut v = t.value(a).clone();
            for i in 0..v.rows() {
                let row = v.row_mut(i);
                let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(eps);
                for x in row {
                    *x /= norm;
                }
            }
            v
        })
    }

    // ---- shape ops ----------------------------------------------------------

    /// Horizontal concatenation of several nodes.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "Tape::concat_cols: no parts");
        self.record(Op::ConcatCols(parts.iter().map(|p| p.0).collect()), |t| {
            let mats: Vec<&Matrix> = parts.iter().map(|p| t.value(*p)).collect();
            Matrix::hcat_all(&mats)
        })
    }

    /// Column slice `[start, end)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        self.record(Op::SliceCols(a.0, start, end), |t| t.value(a).slice_cols(start, end))
    }

    /// Row gather: `out[i] = a[idx[i]]`.
    pub fn gather_rows(&mut self, a: Var, idx: Rc<Vec<usize>>) -> Var {
        self.record(Op::GatherRows(a.0, Rc::clone(&idx)), |t| t.value(a).gather_rows(&idx))
    }

    /// Row scatter-add into `n_out` rows: `out[idx[i]] += a[i]`.
    pub fn scatter_add_rows(&mut self, a: Var, idx: Rc<Vec<usize>>, n_out: usize) -> Var {
        self.record(Op::ScatterAddRows(a.0, Rc::clone(&idx), n_out), |t| t.value(a).scatter_add_rows(&idx, n_out))
    }

    /// Segment softmax over edge rows grouped by `dst` (per column):
    /// the GAT attention primitive. `a` has one row per edge.
    pub fn edge_softmax(&mut self, a: Var, dst: Rc<Vec<usize>>) -> Var {
        self.record(Op::EdgeSoftmax(a.0, Rc::clone(&dst)), |t| {
            let x = t.value(a);
            assert_eq!(x.rows(), dst.len(), "Tape::edge_softmax: {} edge rows vs {} destinations", x.rows(), dst.len());
            let n_segments = dst.iter().copied().max().map_or(0, |m| m + 1);
            let cols = x.cols();
            // Stable softmax per (segment, column).
            let mut seg_max = vec![f32::NEG_INFINITY; n_segments * cols];
            for (e, &d) in dst.iter().enumerate() {
                for c in 0..cols {
                    let slot = &mut seg_max[d * cols + c];
                    *slot = slot.max(x[(e, c)]);
                }
            }
            let mut v = Matrix::zeros(x.rows(), cols);
            let mut seg_sum = vec![0.0f32; n_segments * cols];
            for (e, &d) in dst.iter().enumerate() {
                for c in 0..cols {
                    let ev = (x[(e, c)] - seg_max[d * cols + c]).exp();
                    v[(e, c)] = ev;
                    seg_sum[d * cols + c] += ev;
                }
            }
            for (e, &d) in dst.iter().enumerate() {
                for c in 0..cols {
                    let s = seg_sum[d * cols + c];
                    if s > 0.0 {
                        v[(e, c)] /= s;
                    }
                }
            }
            v
        })
    }

    // ---- fused attention ------------------------------------------------------

    /// GAT neighbourhood aggregation (Eq. 7) into `n` rows:
    /// `out[dst[e]] += h[src[e]] · α[e]`, over the edges in order. `α` has one
    /// row per edge.
    ///
    /// Bit-identical, in forward and backward, to `gather_rows(h, src)` →
    /// `mul_broadcast_col(·, α)` → `scatter_add_rows(·, dst, n)`, without
    /// that chain's two E×d intermediates.
    ///
    /// # Panics
    /// Panics if `src`, `dst` and `α` disagree on the edge count or an
    /// index is out of range.
    pub fn edge_aggregate(&mut self, h: Var, alpha: Var, src: Rc<Vec<usize>>, dst: Rc<Vec<usize>>, n: usize) -> Var {
        self.record(Op::EdgeAggregate(h.0, alpha.0, Rc::clone(&src), Rc::clone(&dst)), |t| {
            let (x, w) = (t.value(h), t.value(alpha));
            assert_eq!(src.len(), dst.len(), "Tape::edge_aggregate: {} sources vs {} destinations", src.len(), dst.len());
            w.expect_shape(src.len(), 1, "Tape::edge_aggregate: alpha");
            let mut v = Matrix::zeros(n, x.cols());
            for (e, (&s, &d)) in src.iter().zip(dst.iter()).enumerate() {
                assert!(s < x.rows() && d < n, "Tape::edge_aggregate: edge {s}->{d} out of bounds ({} sources, {n} outputs)", x.rows());
                let we = w[(e, 0)];
                for (o, &hv) in v.row_mut(d).iter_mut().zip(x.row(s)) {
                    *o += hv * we;
                }
            }
            v
        })
    }

    /// Per-entity attention across M modalities (CAW, Eq. 9–10): an n×M²
    /// node whose block `a` (columns `a·M..a·M+M`) is
    /// `softmax_b(scale · ⟨q_a, k_b⟩)`, row by row.
    ///
    /// Bit-identical, in forward and backward, to recording per query `a`
    /// M × (`mul(q_a, k_b)` → `row_sum` → `scale`), then `concat_cols` →
    /// `softmax_rows`, and concatenating the M results.
    ///
    /// # Panics
    /// Panics if `qs` is empty, `ks` has another length, or the shapes
    /// differ.
    pub fn modal_scores(&mut self, qs: &[Var], ks: &[Var], scale: f32) -> Var {
        assert!(!qs.is_empty() && qs.len() == ks.len(), "Tape::modal_scores: {} queries vs {} keys", qs.len(), ks.len());
        let op = Op::ModalScores(qs.iter().map(|v| v.0).collect(), ks.iter().map(|v| v.0).collect(), scale);
        self.record(op, |t| {
            let m = qs.len();
            let (n, d) = t.value(qs[0]).shape();
            for &x in qs.iter().chain(ks) {
                t.value(x).expect_shape(n, d, "Tape::modal_scores: input");
            }
            let mut v = Matrix::zeros(n, m * m);
            for i in 0..n {
                for (block, &q) in v.row_mut(i).chunks_exact_mut(m).zip(qs) {
                    let qr = t.value(q).row(i);
                    for (s, &k) in block.iter_mut().zip(ks) {
                        let dot: f32 = qr.iter().zip(t.value(k).row(i)).map(|(x, y)| x * y).sum();
                        *s = dot * scale;
                    }
                    softmax_slice(block);
                }
            }
            v
        })
    }

    /// Attention-weighted sum of the value modalities for query `a` (CAW,
    /// Eq. 10): `Σ_j β[·, a·M+j] · v_j`, summed from `j = 0` up, with `β`
    /// the n×M² node of [`Tape::modal_scores`].
    ///
    /// Bit-identical, in forward and backward, to M × (`slice_cols` of
    /// `β_a`'s column `j` → `mul_broadcast_col(v_j, ·)`) summed by a chain of
    /// `add`s.
    ///
    /// # Panics
    /// Panics if `vs` is empty, `a` is not a modality, or the shapes
    /// disagree.
    pub fn modal_mix(&mut self, beta: Var, a: usize, vs: &[Var]) -> Var {
        let m = vs.len();
        assert!(a < m, "Tape::modal_mix: query {a} of {m} modalities");
        self.record(Op::ModalMix(beta.0, a, vs.iter().map(|v| v.0).collect()), |t| {
            let (n, d) = t.value(vs[0]).shape();
            t.value(beta).expect_shape(n, m * m, "Tape::modal_mix: beta");
            for &x in vs {
                t.value(x).expect_shape(n, d, "Tape::modal_mix: value");
            }
            let mut v = Matrix::zeros(n, d);
            for i in 0..n {
                let w = &t.value(beta).row(i)[a * m..a * m + m];
                let row = v.row_mut(i);
                for (o, &x) in row.iter_mut().zip(t.value(vs[0]).row(i)) {
                    *o = x * w[0];
                }
                for (&vj, &wj) in vs.iter().zip(w).skip(1) {
                    for (o, &x) in row.iter_mut().zip(t.value(vj).row(i)) {
                        *o += x * wj;
                    }
                }
            }
            v
        })
    }

    // ---- reductions ----------------------------------------------------------

    /// Sum of all elements (1×1).
    pub fn sum_all(&mut self, a: Var) -> Var {
        self.record(Op::SumAll(a.0), |t| Matrix::full(1, 1, t.value(a).sum()))
    }

    /// Mean of all elements (1×1).
    pub fn mean_all(&mut self, a: Var) -> Var {
        self.record(Op::MeanAll(a.0), |t| Matrix::full(1, 1, t.value(a).mean()))
    }

    /// Per-row sums (n×1).
    pub fn row_sum(&mut self, a: Var) -> Var {
        self.record(Op::RowSum(a.0), |t| {
            let x = t.value(a);
            Matrix::column((0..x.rows()).map(|i| x.row(i).iter().sum()).collect())
        })
    }

    /// Per-column sums (1×m).
    pub fn col_sum(&mut self, a: Var) -> Var {
        self.record(Op::ColSum(a.0), |t| {
            let x = t.value(a);
            let mut v = Matrix::zeros(1, x.cols());
            for i in 0..x.rows() {
                for (o, &e) in v.row_mut(0).iter_mut().zip(x.row(i)) {
                    *o += e;
                }
            }
            v
        })
    }

    // ---- broadcasts ------------------------------------------------------------

    /// `a (n×m) ⊙ broadcast(b (n×1))` — per-row scaling, e.g. confidence
    /// weighting of entity embeddings.
    pub fn mul_broadcast_col(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::MulBroadcastCol(a.0, b.0), |t| {
            let (x, s) = (t.value(a), t.value(b));
            s.expect_shape(x.rows(), 1, "Tape::mul_broadcast_col: scale");
            let mut v = x.clone();
            for i in 0..v.rows() {
                let f = s[(i, 0)];
                for e in v.row_mut(i) {
                    *e *= f;
                }
            }
            v
        })
    }

    /// `a (n×m) ⊙ broadcast(b (1×m))` — per-column scaling, e.g. diagonal
    /// weight matrices.
    pub fn mul_broadcast_row(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::MulBroadcastRow(a.0, b.0), |t| {
            let (x, s) = (t.value(a), t.value(b));
            s.expect_shape(1, x.cols(), "Tape::mul_broadcast_row: scale");
            let mut v = x.clone();
            for i in 0..v.rows() {
                for (e, &f) in v.row_mut(i).iter_mut().zip(s.row(0)) {
                    *e *= f;
                }
            }
            v
        })
    }

    /// `a (n×m) + broadcast(b (1×m))` — bias addition.
    pub fn add_broadcast_row(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::AddBroadcastRow(a.0, b.0), |t| {
            let (x, s) = (t.value(a), t.value(b));
            s.expect_shape(1, x.cols(), "Tape::add_broadcast_row: bias");
            let mut v = x.clone();
            for i in 0..v.rows() {
                for (e, &f) in v.row_mut(i).iter_mut().zip(s.row(0)) {
                    *e += f;
                }
            }
            v
        })
    }

    // ---- fused losses -------------------------------------------------------------

    /// Fused softmax cross-entropy over rows: `mean_i(−log softmax(a)_{i, t_i})`.
    ///
    /// Numerically stable and with the exact `(softmax − onehot)/B` backward.
    ///
    /// # Panics
    /// Panics if a target is out of range or counts disagree.
    pub fn cross_entropy_rows(&mut self, a: Var, targets: Rc<Vec<usize>>) -> Var {
        self.record(Op::CrossEntropyRows(a.0, Rc::clone(&targets)), |t| {
            let x = t.value(a);
            assert_eq!(x.rows(), targets.len(), "Tape::cross_entropy_rows: {} rows vs {} targets", x.rows(), targets.len());
            let mut loss = 0.0f64;
            for (i, &tg) in targets.iter().enumerate() {
                assert!(tg < x.cols(), "Tape::cross_entropy_rows: target {tg} out of range ({} cols)", x.cols());
                let row = x.row(i);
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let lse: f32 = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
                loss += (lse - row[tg]) as f64;
            }
            Matrix::full(1, 1, (loss / targets.len().max(1) as f64) as f32)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Telemetry on/off is process-global and test threads run in
    /// parallel: every test that switches it holds this lock, so one
    /// test's `set_enabled(None)` cannot stop another's span recording.
    static TELEMETRY: Mutex<()> = Mutex::new(());

    #[test]
    fn backward_through_matmul_chain() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let w = t.leaf(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let y = t.matmul(x, w);
        let loss = t.sum_all(y);
        t.backward(loss);
        // d(sum(XW))/dW = Xᵀ 1 = column sums of X broadcast
        assert_eq!(t.grad(w).expect("grad").as_slice(), &[4.0, 4.0, 6.0, 6.0]);
        assert_eq!(t.grad(x).expect("grad").as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn constants_receive_no_grad() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(1, 2, 1.0));
        let c = t.constant(Matrix::full(1, 2, 3.0));
        let y = t.mul(x, c);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert!(t.grad(c).is_none());
        assert_eq!(t.grad(x).expect("grad").as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn matmul_against_a_constant_computes_only_the_trainable_side() {
        let x = Matrix::from_rows(&[&[1.5, -2.0, 0.25], &[3.0, 0.5, -1.0]]);
        let w = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.75], &[-0.125, 1.0]]);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        // Reference: both operands trainable, so both sides are computed.
        let mut full = Tape::new();
        let (xf, wf) = (full.leaf(x.clone()), full.leaf(w.clone()));
        let yf = full.matmul(xf, wf);
        let loss = full.sum_all(yf);
        full.backward(loss);

        let mut t = Tape::new();
        let c = t.constant(x);
        let wl = t.leaf(w);
        let y = t.matmul(c, wl);
        let loss = t.sum_all(y);
        let before = t.workspace().borrow().stats();
        t.backward(loss);
        let after = t.workspace().borrow().stats();

        assert_eq!(bits(t.grad(wl).expect("grad")), bits(full.grad(wf).expect("grad")));
        assert!(t.grad(c).is_none());
        // One buffer each for the loss seed, the `sum_all` gradient and the
        // matmul's `xᵀ·g`; the constant's `g·wᵀ` is never allocated.
        let handed_out = (after.fresh + after.reused) - (before.fresh + before.reused);
        assert_eq!(handed_out, 3, "matmul backward computed a gradient for its constant operand");
    }

    #[test]
    fn backward_steps_are_timed_under_their_op_name() {
        let _telemetry = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
        desalign_telemetry::set_enabled(Some(true));
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(3, 2, 0.5));
        let w = t.leaf(Matrix::full(2, 4, -1.0));
        let y = t.matmul(x, w);
        let loss = t.sum_all(y);
        t.backward(loss);
        desalign_telemetry::set_enabled(None);
        // Spans nest per thread, so this test's are roots of the report;
        // the kernels the op calls nest under the op's span.
        let roots = desalign_telemetry::span_report();
        let bwd = roots.iter().find(|n| n.name == "bwd.matmul").expect("bwd.matmul span");
        for kernel in ["matmul_nt", "matmul_tn"] {
            assert!(bwd.children.iter().any(|c| c.name == kernel), "{kernel} is not nested under bwd.matmul");
        }
        assert!(roots.iter().any(|n| n.name == "bwd.sum_all"));
    }

    #[test]
    fn forward_steps_are_timed_under_their_op_name() {
        let _telemetry = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
        desalign_telemetry::set_enabled(Some(true));
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(3, 2, 0.5));
        let w = t.leaf(Matrix::full(2, 4, -1.0));
        let y = t.matmul(x, w);
        t.sum_all(y);
        desalign_telemetry::set_enabled(None);
        let roots = desalign_telemetry::span_report();
        let fwd = roots.iter().find(|n| n.name == "fwd.matmul").expect("fwd.matmul span");
        assert!(fwd.children.iter().any(|c| c.name == "matmul"), "matmul is not nested under fwd.matmul");
        assert!(roots.iter().any(|n| n.name == "fwd.sum_all"));
    }

    #[test]
    fn fused_attention_ops_are_timed_both_ways() {
        let _telemetry = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
        desalign_telemetry::set_enabled(Some(true));
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.25], &[-0.75, 1.5]]));
        let y = t.scale(x, 0.5);
        let alpha = t.leaf(Matrix::full(3, 1, 0.5));
        let agg = t.edge_aggregate(x, alpha, Rc::new(vec![0, 1, 2]), Rc::new(vec![1, 1, 0]), 3);
        let beta = t.modal_scores(&[x, y], &[y, x], 0.5);
        let mix = t.modal_mix(beta, 1, &[x, y]);
        let both = t.add(agg, mix);
        let loss = t.sum_all(both);
        t.backward(loss);
        desalign_telemetry::set_enabled(None);
        let roots = desalign_telemetry::span_report();
        for op in ["edge_aggregate", "modal_scores", "modal_mix"] {
            for name in [format!("fwd.{op}"), format!("bwd.{op}")] {
                assert!(roots.iter().any(|n| n.name == name), "no {name} span");
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "fwd.ln turned finite inputs into a non-finite value")]
    fn an_op_turning_finite_inputs_non_finite_panics_in_debug_builds() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(1, 2));
        t.ln(x);
    }

    #[test]
    fn non_finite_inputs_flow_through_ops() {
        // A diverged model's NaN weights reach the tape as leaves; the
        // layers above report them as typed errors, so the tape must not
        // panic on them, in debug builds either.
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[f32::NAN, 1.0]]));
        let c = t.constant(Matrix::full(1, 2, f32::INFINITY));
        let y = t.add(x, c);
        let s = t.sum_all(y);
        assert!(t.value(s)[(0, 0)].is_nan());
    }

    #[test]
    fn gradient_accumulates_over_shared_use() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(1, 1, 2.0));
        let y = t.mul(x, x); // x²
        let loss = t.sum_all(y);
        t.backward(loss);
        assert_eq!(t.grad(x).expect("grad")[(0, 0)], 4.0); // 2x
    }

    #[test]
    #[should_panic(expected = "loss must be 1x1")]
    fn backward_rejects_non_scalar() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(2, 2));
        t.backward(x);
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let mut t = Tape::new();
        let logits = t.leaf(Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 1.0]]));
        let loss = t.cross_entropy_rows(logits, Rc::new(vec![0, 1]));
        let expect = ((1.0f32 + (-2.0f32).exp()).ln() + (1.0f32 + (-1.0f32).exp()).ln()) / 2.0;
        assert!((t.value(loss)[(0, 0)] - expect).abs() < 1e-5);
        t.backward(loss);
        let g = t.grad(logits).expect("grad");
        // Row sums of (softmax − onehot) are zero.
        assert!(g.row(0).iter().sum::<f32>().abs() < 1e-6);
    }

    #[test]
    fn shared_workspace_reuses_buffers_bit_identically() {
        // The same step run on a cold private workspace and on a warm
        // shared one must produce bit-equal gradients, and the warm run
        // must allocate nothing new.
        let step = |tape: &mut Tape| -> Vec<u32> {
            let x = tape.leaf(Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]));
            let w = tape.leaf(Matrix::from_rows(&[&[0.25, 1.0], &[-1.5, 2.0]]));
            let y = tape.matmul(x, w);
            let r = tape.relu(y);
            let loss = tape.sum_all(r);
            tape.backward(loss);
            let mut bits: Vec<u32> = Vec::new();
            for v in [x, w] {
                bits.extend(tape.grad(v).expect("grad").as_slice().iter().map(|f| f.to_bits()));
            }
            bits
        };
        let cold = step(&mut Tape::new());

        let ws = crate::workspace::shared_workspace();
        {
            let mut warmup = Tape::with_workspace(Rc::clone(&ws));
            step(&mut warmup);
        } // drop recycles the warmup step's gradient buffers
        let fresh_after_warmup = ws.borrow().stats().fresh;
        assert!(fresh_after_warmup > 0);

        let mut warm = Tape::with_workspace(Rc::clone(&ws));
        let warm_bits = step(&mut warm);
        let stats = ws.borrow().stats();
        assert_eq!(stats.fresh, fresh_after_warmup, "steady-state step allocated fresh buffers");
        assert!(stats.reused >= fresh_after_warmup, "pool served too few allocations");
        assert_eq!(warm_bits, cold, "workspace reuse changed gradient bits");
    }

    #[test]
    fn edge_softmax_normalizes_per_segment() {
        let mut t = Tape::new();
        let logits = t.leaf(Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[0.0]]));
        let dst = Rc::new(vec![0, 0, 1, 1]);
        let sm = t.edge_softmax(logits, dst);
        let v = t.value(sm);
        assert!((v[(0, 0)] + v[(1, 0)] - 1.0).abs() < 1e-6);
        assert!((v[(2, 0)] + v[(3, 0)] - 1.0).abs() < 1e-6);
        assert!(v[(1, 0)] > v[(0, 0)]);
    }
}
