//! The gradient tape and its operator methods.

use crate::op::{backward_contributions, Op};
use crate::workspace::{shared_workspace, SharedWorkspace};
use desalign_graph::Csr;
use desalign_tensor::Matrix;
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
        debug_assert!(value.all_finite(), "non-finite forward value from op");
        self.nodes.push(Node { value, grad: None, op, requires_grad });
        Var(self.nodes.len() - 1)
    }

    fn push_op(&mut self, value: Matrix, op: Op) -> Var {
        let requires = op.parents().iter().any(|&p| self.nodes[p].requires_grad);
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
                let _span = desalign_telemetry::span(op.span_name());
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
        let v = self.value(a).add(self.value(b));
        self.push_op(v, Op::Add(a.0, b.0))
    }

    /// `a − b` (element-wise).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push_op(v, Op::Sub(a.0, b.0))
    }

    /// `a ⊙ b` (Hadamard).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hadamard(self.value(b));
        self.push_op(v, Op::Mul(a.0, b.0))
    }

    /// `a · c` for scalar `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).scale(c);
        self.push_op(v, Op::Scale(a.0, c))
    }

    /// `a + c` element-wise for scalar `c`.
    pub fn add_const(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).map(|x| x + c);
        self.push_op(v, Op::AddConst(a.0, c))
    }

    /// `relu(a)`.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push_op(v, Op::Relu(a.0))
    }

    /// `leaky_relu(a)` with negative slope `slope`.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let v = self.value(a).map(|x| if x > 0.0 { x } else { slope * x });
        self.push_op(v, Op::LeakyRelu(a.0, slope))
    }

    /// `exp(a)`.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::exp);
        self.push_op(v, Op::Exp(a.0))
    }

    /// `a²` (element-wise).
    pub fn square(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x * x);
        self.push_op(v, Op::Square(a.0))
    }

    /// `ln(a)` (element-wise). Inputs must be strictly positive.
    pub fn ln(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::ln);
        self.push_op(v, Op::Ln(a.0))
    }

    /// Element-wise division `a ⊘ b`. Divisors must be non-zero.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let x = self.value(a);
        let y = self.value(b);
        y.expect_shape(x.rows(), x.cols(), "Tape::div");
        let data = x.as_slice().iter().zip(y.as_slice()).map(|(&p, &q)| p / q).collect();
        let v = Matrix::from_vec(x.rows(), x.cols(), data);
        self.push_op(v, Op::Div(a.0, b.0))
    }

    /// `√a` (element-wise). Inputs must be non-negative.
    pub fn sqrt(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::sqrt);
        self.push_op(v, Op::Sqrt(a.0))
    }

    /// `artanh(a)` (element-wise), defined for |a| < 1 — the hyperbolic
    /// distance kernel of the Poincaré ball (used by the HEA baseline).
    /// Inputs are clamped to ±(1 − 1e-5) for numerical safety.
    pub fn artanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| {
            let x = x.clamp(-1.0 + 1e-5, 1.0 - 1e-5);
            0.5 * ((1.0 + x) / (1.0 - x)).ln()
        });
        self.push_op(v, Op::Artanh(a.0))
    }

    // ---- products ---------------------------------------------------------

    /// Matrix product `a × b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push_op(v, Op::MatMul(a.0, b.0))
    }

    /// Sparse constant × dense variable: `S × a`.
    pub fn spmm(&mut self, s: Rc<Csr>, a: Var) -> Var {
        let v = s.spmm(self.value(a));
        self.push_op(v, Op::SpMM(s, a.0))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push_op(v, Op::Transpose(a.0))
    }

    // ---- row-wise normalizations -------------------------------------------

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).softmax_rows();
        self.push_op(v, Op::SoftmaxRows(a.0))
    }

    /// Row-wise layer normalization (no affine parameters).
    pub fn layernorm_rows(&mut self, a: Var, eps: f32) -> Var {
        let v = self.value(a).layernorm_rows(eps);
        self.push_op(v, Op::LayerNormRows(a.0, eps))
    }

    /// Row-wise ℓ2 normalization with norm clamp `eps`.
    pub fn l2_normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        // Forward uses the clamped form y = x / max(‖x‖, eps) so the
        // backward rule in `op.rs` matches exactly.
        let x = self.value(a);
        let mut v = x.clone();
        for i in 0..v.rows() {
            let row = v.row_mut(i);
            let norm = row.iter().map(|t| t * t).sum::<f32>().sqrt().max(eps);
            for t in row {
                *t /= norm;
            }
        }
        self.push_op(v, Op::L2NormalizeRows(a.0, eps))
    }

    // ---- shape ops ----------------------------------------------------------

    /// Horizontal concatenation of several nodes.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "Tape::concat_cols: no parts");
        let mats: Vec<&Matrix> = parts.iter().map(|p| self.value(*p)).collect();
        let v = Matrix::hcat_all(&mats);
        self.push_op(v, Op::ConcatCols(parts.iter().map(|p| p.0).collect()))
    }

    /// Column slice `[start, end)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let v = self.value(a).slice_cols(start, end);
        self.push_op(v, Op::SliceCols(a.0, start, end))
    }

    /// Row gather: `out[i] = a[idx[i]]`.
    pub fn gather_rows(&mut self, a: Var, idx: Rc<Vec<usize>>) -> Var {
        let v = self.value(a).gather_rows(&idx);
        self.push_op(v, Op::GatherRows(a.0, idx))
    }

    /// Row scatter-add into `n_out` rows: `out[idx[i]] += a[i]`.
    pub fn scatter_add_rows(&mut self, a: Var, idx: Rc<Vec<usize>>, n_out: usize) -> Var {
        let v = self.value(a).scatter_add_rows(&idx, n_out);
        self.push_op(v, Op::ScatterAddRows(a.0, idx, n_out))
    }

    /// Segment softmax over edge rows grouped by `dst` (per column):
    /// the GAT attention primitive. `a` has one row per edge.
    pub fn edge_softmax(&mut self, a: Var, dst: Rc<Vec<usize>>) -> Var {
        let x = self.value(a);
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
        self.push_op(v, Op::EdgeSoftmax(a.0, dst))
    }

    // ---- reductions ----------------------------------------------------------

    /// Sum of all elements (1×1).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Matrix::full(1, 1, self.value(a).sum());
        self.push_op(v, Op::SumAll(a.0))
    }

    /// Mean of all elements (1×1).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Matrix::full(1, 1, self.value(a).mean());
        self.push_op(v, Op::MeanAll(a.0))
    }

    /// Per-row sums (n×1).
    pub fn row_sum(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let v = Matrix::column((0..x.rows()).map(|i| x.row(i).iter().sum()).collect());
        self.push_op(v, Op::RowSum(a.0))
    }

    /// Per-column sums (1×m).
    pub fn col_sum(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let mut v = Matrix::zeros(1, x.cols());
        for i in 0..x.rows() {
            for (o, &t) in v.row_mut(0).iter_mut().zip(x.row(i)) {
                *o += t;
            }
        }
        self.push_op(v, Op::ColSum(a.0))
    }

    // ---- broadcasts ------------------------------------------------------------

    /// `a (n×m) ⊙ broadcast(b (n×1))` — per-row scaling, e.g. confidence
    /// weighting of entity embeddings.
    pub fn mul_broadcast_col(&mut self, a: Var, b: Var) -> Var {
        let (x, s) = (self.value(a), self.value(b));
        s.expect_shape(x.rows(), 1, "Tape::mul_broadcast_col: scale");
        let mut v = x.clone();
        for i in 0..v.rows() {
            let f = s[(i, 0)];
            for t in v.row_mut(i) {
                *t *= f;
            }
        }
        self.push_op(v, Op::MulBroadcastCol(a.0, b.0))
    }

    /// `a (n×m) ⊙ broadcast(b (1×m))` — per-column scaling, e.g. diagonal
    /// weight matrices.
    pub fn mul_broadcast_row(&mut self, a: Var, b: Var) -> Var {
        let (x, s) = (self.value(a), self.value(b));
        s.expect_shape(1, x.cols(), "Tape::mul_broadcast_row: scale");
        let mut v = x.clone();
        for i in 0..v.rows() {
            for (t, &f) in v.row_mut(i).iter_mut().zip(s.row(0)) {
                *t *= f;
            }
        }
        self.push_op(v, Op::MulBroadcastRow(a.0, b.0))
    }

    /// `a (n×m) + broadcast(b (1×m))` — bias addition.
    pub fn add_broadcast_row(&mut self, a: Var, b: Var) -> Var {
        let (x, s) = (self.value(a), self.value(b));
        s.expect_shape(1, x.cols(), "Tape::add_broadcast_row: bias");
        let mut v = x.clone();
        for i in 0..v.rows() {
            for (t, &f) in v.row_mut(i).iter_mut().zip(s.row(0)) {
                *t += f;
            }
        }
        self.push_op(v, Op::AddBroadcastRow(a.0, b.0))
    }

    // ---- fused losses -------------------------------------------------------------

    /// Fused softmax cross-entropy over rows: `mean_i(−log softmax(a)_{i, t_i})`.
    ///
    /// Numerically stable and with the exact `(softmax − onehot)/B` backward.
    ///
    /// # Panics
    /// Panics if a target is out of range or counts disagree.
    pub fn cross_entropy_rows(&mut self, a: Var, targets: Rc<Vec<usize>>) -> Var {
        let x = self.value(a);
        assert_eq!(x.rows(), targets.len(), "Tape::cross_entropy_rows: {} rows vs {} targets", x.rows(), targets.len());
        let mut loss = 0.0f64;
        for (i, &t) in targets.iter().enumerate() {
            assert!(t < x.cols(), "Tape::cross_entropy_rows: target {t} out of range ({} cols)", x.cols());
            let row = x.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse: f32 = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
            loss += (lse - row[t]) as f64;
        }
        let v = Matrix::full(1, 1, (loss / targets.len().max(1) as f64) as f32);
        self.push_op(v, Op::CrossEntropyRows(a.0, targets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
