//! Multi-head Graph Attention (GAT) layers — the structure encoder of Eq. 7.
//!
//! The paper uses a two-layer, two-head GAT with a diagonal weight matrix
//! for the linear transformation (following Yang et al.). Both dense and
//! diagonal per-head weights are supported; heads are concatenated.

use crate::{ParamId, ParamStore, Session};
use desalign_autodiff::Var;
use desalign_tensor::{glorot_uniform, uniform_matrix, Rng64};
use std::rc::Rc;

/// How a GAT head transforms node features before attention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightKind {
    /// Dense `d_in × d_head` projection.
    Dense,
    /// Diagonal scaling (requires `d_head == d_in`), the paper's `W_g`.
    Diagonal,
}

#[derive(Clone, Debug)]
struct GatHead {
    w: ParamId,        // dense (d_in × d_h) or diagonal (1 × d_in)
    attn_src: ParamId, // d_h × 1
    attn_dst: ParamId, // d_h × 1
    kind: WeightKind,
}

/// One multi-head GAT layer.
#[derive(Clone, Debug)]
pub struct GatLayer {
    heads: Vec<GatHead>,
    negative_slope: f32,
    in_dim: usize,
    head_dim: usize,
    /// If true, heads are averaged (standard GAT output layer); otherwise
    /// concatenated (standard GAT hidden layer).
    average_heads: bool,
}

impl GatLayer {
    /// Creates a layer with `num_heads` heads of width `head_dim`
    /// (`head_dim` must equal `in_dim` for [`WeightKind::Diagonal`]).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng64,
        name: &str,
        in_dim: usize,
        head_dim: usize,
        num_heads: usize,
        kind: WeightKind,
    ) -> Self {
        assert!(num_heads > 0, "GatLayer::new: at least one head required");
        if kind == WeightKind::Diagonal {
            assert_eq!(head_dim, in_dim, "GatLayer::new: diagonal weights require head_dim == in_dim");
        }
        let heads = (0..num_heads)
            .map(|h| {
                let w = match kind {
                    WeightKind::Dense => store.add(format!("{name}.h{h}.w"), glorot_uniform(rng, in_dim, head_dim)),
                    WeightKind::Diagonal => {
                        // Near-identity init keeps early Dirichlet energy stable.
                        let init = uniform_matrix(rng, 1, in_dim, 0.9, 1.1);
                        store.add(format!("{name}.h{h}.diag"), init)
                    }
                };
                GatHead {
                    w,
                    attn_src: store.add(format!("{name}.h{h}.a_src"), glorot_uniform(rng, head_dim, 1)),
                    attn_dst: store.add(format!("{name}.h{h}.a_dst"), glorot_uniform(rng, head_dim, 1)),
                    kind,
                }
            })
            .collect();
        Self { heads, negative_slope: 0.2, in_dim, head_dim, average_heads: false }
    }

    /// Switches the layer to average its heads instead of concatenating
    /// them (the standard GAT output-layer behaviour).
    pub fn with_average_heads(mut self) -> Self {
        self.average_heads = true;
        self
    }

    /// Output width (`head_dim × num_heads` when concatenating, `head_dim`
    /// when averaging).
    pub fn out_dim(&self) -> usize {
        if self.average_heads {
            self.head_dim
        } else {
            self.head_dim * self.heads.len()
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Applies the layer over message edges `(src, dst)` (which should
    /// include self-loops; see `UndirectedGraph::message_edges`).
    ///
    /// Per head: `h' = XW`; edge logits
    /// `e_{uv} = LeakyReLU(a_srcᵀ h'_u + a_dstᵀ h'_v)`; attention
    /// `α = edge_softmax(e)` grouped by destination; output
    /// `out_v = Σ_{u→v} α_{uv} h'_u`. Heads are concatenated.
    pub fn forward(&self, sess: &mut Session<'_>, x: Var, src: &Rc<Vec<usize>>, dst: &Rc<Vec<usize>>) -> Var {
        assert_eq!(src.len(), dst.len(), "GatLayer::forward: src/dst length mismatch");
        let n = sess.tape.value(x).rows();
        let mut head_outputs = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let h = match head.kind {
                WeightKind::Dense => {
                    let w = sess.param(head.w);
                    sess.tape.matmul(x, w)
                }
                WeightKind::Diagonal => {
                    let w = sess.param(head.w);
                    sess.tape.mul_broadcast_row(x, w)
                }
            };
            let a_src = sess.param(head.attn_src);
            let a_dst = sess.param(head.attn_dst);
            let s_src = sess.tape.matmul(h, a_src); // n×1
            let s_dst = sess.tape.matmul(h, a_dst); // n×1
            let e_src = sess.tape.gather_rows(s_src, Rc::clone(src));
            let e_dst = sess.tape.gather_rows(s_dst, Rc::clone(dst));
            let logits = sess.tape.add(e_src, e_dst);
            let logits = sess.tape.leaky_relu(logits, self.negative_slope);
            let alpha = sess.tape.edge_softmax(logits, Rc::clone(dst)); // E×1
            head_outputs.push(sess.tape.edge_aggregate(h, alpha, Rc::clone(src), Rc::clone(dst), n));
        }
        if head_outputs.len() == 1 {
            head_outputs[0]
        } else if self.average_heads {
            let mut acc = head_outputs[0];
            for &h in &head_outputs[1..] {
                acc = sess.tape.add(acc, h);
            }
            sess.tape.scale(acc, 1.0 / head_outputs.len() as f32)
        } else {
            sess.tape.concat_cols(&head_outputs)
        }
    }
}

/// A stack of GAT layers with ELU-like (leaky) nonlinearities between them —
/// the full structure embedding `h^g = GAT(W_g, A; x^g)` of Eq. 7.
///
/// Message edges are supplied at forward time so the same weights can
/// encode both knowledge graphs (standard parameter sharing in entity
/// alignment).
#[derive(Clone, Debug)]
pub struct GatEncoder {
    layers: Vec<GatLayer>,
}

impl GatEncoder {
    /// Builds the paper's default configuration (§IV-A: two layers, two
    /// heads, diagonal first-layer weights). The first layer uses diagonal
    /// per-head weights of width `dim`; hidden layers concatenate their
    /// heads; the final layer averages them (standard GAT), so the encoder
    /// output width is always `dim`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng64,
        name: &str,
        dim: usize,
        num_heads: usize,
        num_layers: usize,
    ) -> Self {
        assert!(num_layers > 0, "GatEncoder::new: at least one layer");
        let mut layers = Vec::with_capacity(num_layers);
        for l in 0..num_layers {
            let last = l + 1 == num_layers;
            let mut layer = if l == 0 {
                GatLayer::new(store, rng, &format!("{name}.l0"), dim, dim, num_heads, WeightKind::Diagonal)
            } else {
                // Hidden layers concatenated their heads: fold back to `dim`.
                let in_dim = dim * num_heads;
                GatLayer::new(store, rng, &format!("{name}.l{l}"), in_dim, dim, num_heads, WeightKind::Dense)
            };
            if last {
                layer = layer.with_average_heads();
            }
            layers.push(layer);
        }
        Self { layers }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("at least one layer").out_dim()
    }

    /// Encodes node features over the given message edges.
    pub fn forward(&self, sess: &mut Session<'_>, x: Var, src: &Rc<Vec<usize>>, dst: &Rc<Vec<usize>>) -> Var {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(sess, h, src, dst);
            if i + 1 < self.layers.len() {
                h = sess.tape.leaky_relu(h, 0.2);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desalign_graph::UndirectedGraph;
    use desalign_tensor::Matrix;
    use desalign_tensor::{normal_matrix, rng_from_seed};

    fn edges(g: &UndirectedGraph) -> (Rc<Vec<usize>>, Rc<Vec<usize>>) {
        let (s, d) = g.message_edges();
        (Rc::new(s), Rc::new(d))
    }

    #[test]
    fn gat_layer_shapes() {
        let g = UndirectedGraph::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let (src, dst) = edges(&g);
        let mut store = ParamStore::new();
        let mut rng = rng_from_seed(1);
        let layer = GatLayer::new(&mut store, &mut rng, "gat", 4, 3, 2, WeightKind::Dense);
        let mut sess = Session::new(&store);
        let x = sess.input(normal_matrix(&mut rng, 5, 4, 0.0, 1.0));
        let y = layer.forward(&mut sess, x, &src, &dst);
        assert_eq!(sess.tape.value(y).shape(), (5, 6)); // 2 heads × 3
    }

    #[test]
    fn isolated_node_keeps_self_message() {
        // With self-loops in message edges, an isolated node's output is its
        // own transformed feature (attention of 1 on itself).
        let g = UndirectedGraph::new(3, vec![(0, 1)]);
        let (src, dst) = edges(&g);
        let mut store = ParamStore::new();
        let mut rng = rng_from_seed(2);
        let layer = GatLayer::new(&mut store, &mut rng, "gat", 2, 2, 1, WeightKind::Diagonal);
        let mut sess = Session::new(&store);
        let input = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[5.0, 5.0]]);
        let x = sess.input(input);
        let y = layer.forward(&mut sess, x, &src, &dst);
        let v = sess.tape.value(y);
        // Node 2 is isolated: output = diag(w) ⊙ x₂ with α=1.
        let w = store.value(layer.heads[0].w);
        assert!((v[(2, 0)] - 5.0 * w[(0, 0)]).abs() < 1e-5);
        assert!((v[(2, 1)] - 5.0 * w[(0, 1)]).abs() < 1e-5);
    }

    #[test]
    fn gradients_flow_through_encoder() {
        let g = UndirectedGraph::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        let (src, dst) = edges(&g);
        let mut store = ParamStore::new();
        let mut rng = rng_from_seed(3);
        let enc = GatEncoder::new(&mut store, &mut rng, "gat", 3, 2, 2);
        let mut sess = Session::new(&store);
        let x = sess.input(normal_matrix(&mut rng, 4, 3, 0.0, 1.0));
        let y = enc.forward(&mut sess, x, &src, &dst);
        assert_eq!(sess.tape.value(y).shape(), (4, enc.out_dim()));
        let sq = sess.tape.square(y);
        let loss = sess.tape.sum_all(sq);
        let grads = sess.backward(loss);
        // Every parameter of both layers should receive a gradient.
        assert_eq!(grads.len(), store.len(), "all {} params should have grads, got {}", store.len(), grads.len());
    }

    #[test]
    fn attention_is_a_convex_combination() {
        // Outputs of a 1-head diagonal GAT with identity weights lie in the
        // convex hull of neighbour features (per coordinate bounds).
        let g = UndirectedGraph::new(3, vec![(0, 1), (1, 2)]);
        let (src, dst) = edges(&g);
        let mut store = ParamStore::new();
        let mut rng = rng_from_seed(4);
        let layer = GatLayer::new(&mut store, &mut rng, "gat", 1, 1, 1, WeightKind::Diagonal);
        // Force exact identity transform.
        store.value_mut(layer.heads[0].w).as_mut_slice()[0] = 1.0;
        let mut sess = Session::new(&store);
        let x = sess.input(Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]));
        let y = layer.forward(&mut sess, x, &src, &dst);
        let v = sess.tape.value(y);
        for i in 0..3 {
            assert!(v[(i, 0)] >= 0.0 - 1e-5 && v[(i, 0)] <= 2.0 + 1e-5);
        }
        // Middle node attends to {0, 1, 2}: strictly inside.
        assert!(v[(1, 0)] > 0.0 && v[(1, 0)] < 2.0);
    }
}
