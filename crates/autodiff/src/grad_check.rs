//! Finite-difference gradient verification.
//!
//! Every backward rule in this crate is validated by comparing the autodiff
//! gradient of a scalar loss against a central finite-difference estimate.
//! The checker is exported so higher layers (`desalign-nn`, `desalign-core`)
//! can verify their composite modules the same way.

use crate::{Tape, Var};
use desalign_tensor::Matrix;

/// Outcome of a gradient check.
#[derive(Clone, Debug)]
pub struct GradCheckReport {
    /// Maximum absolute difference between analytic and numeric gradients.
    pub max_abs_err: f32,
    /// Maximum relative difference (with an absolute floor to ignore noise
    /// near zero).
    pub max_rel_err: f32,
}

impl GradCheckReport {
    /// True if both error measures are under `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_err < tol || self.max_rel_err < tol
    }
}

/// Checks the gradient of `build` — a function that records a scalar loss
/// for a given input leaf — at the point `x0`.
///
/// Central differences with step `h` are used; `f32` arithmetic limits
/// practical tolerances to ~1e-2 relative for well-scaled problems.
pub fn check_gradient(x0: &Matrix, h: f32, build: impl Fn(&mut Tape, Var) -> Var) -> GradCheckReport {
    // Analytic gradient.
    let mut tape = Tape::new();
    let x = tape.leaf(x0.clone());
    let loss = build(&mut tape, x);
    tape.backward(loss);
    let analytic = tape.grad(x).expect("input leaf should receive a gradient").clone();

    // Numeric gradient.
    let eval = |m: &Matrix| -> f32 {
        let mut t = Tape::new();
        let v = t.leaf(m.clone());
        let l = build(&mut t, v);
        t.value(l)[(0, 0)]
    };
    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    let mut pert = x0.clone();
    for i in 0..x0.rows() {
        for j in 0..x0.cols() {
            let orig = pert[(i, j)];
            pert[(i, j)] = orig + h;
            let f_plus = eval(&pert);
            pert[(i, j)] = orig - h;
            let f_minus = eval(&pert);
            pert[(i, j)] = orig;
            let numeric = (f_plus - f_minus) / (2.0 * h);
            let a = analytic[(i, j)];
            let abs = (a - numeric).abs();
            let rel = abs / a.abs().max(numeric.abs()).max(1e-3);
            max_abs = max_abs.max(abs);
            max_rel = max_rel.max(rel);
        }
    }
    GradCheckReport { max_abs_err: max_abs, max_rel_err: max_rel }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desalign_graph::UndirectedGraph;
    use desalign_tensor::{normal_matrix, rng_from_seed};
    use std::rc::Rc;

    const H: f32 = 1e-2;
    const TOL: f32 = 2e-2;

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        normal_matrix(&mut rng_from_seed(seed), rows, cols, 0.0, 1.0)
    }

    #[test]
    fn grad_add_sub_mul() {
        let x0 = random(3, 4, 1);
        let other = random(3, 4, 2);
        for op in 0..3usize {
            let other = other.clone();
            let report = check_gradient(&x0, H, move |t, x| {
                let c = t.constant(other.clone());
                let y = match op {
                    0 => t.add(x, c),
                    1 => t.sub(x, c),
                    _ => t.mul(x, c),
                };
                let sq = t.square(y);
                t.sum_all(sq)
            });
            assert!(report.passes(TOL), "op {op}: {report:?}");
        }
    }

    #[test]
    fn grad_matmul_both_sides() {
        let x0 = random(3, 2, 3);
        let w = random(2, 4, 4);
        let report = check_gradient(&x0, H, move |t, x| {
            let wv = t.constant(w.clone());
            let y = t.matmul(x, wv);
            let sq = t.square(y);
            t.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");

        let w0 = random(2, 4, 5);
        let x = random(3, 2, 6);
        let report = check_gradient(&w0, H, move |t, wv| {
            let xv = t.constant(x.clone());
            let y = t.matmul(xv, wv);
            let sq = t.square(y);
            t.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn grad_spmm() {
        let g = UndirectedGraph::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        let a = Rc::new(g.normalized_adjacency(true));
        let x0 = random(4, 3, 7);
        let report = check_gradient(&x0, H, move |t, x| {
            let y = t.spmm(Rc::clone(&a), x);
            let sq = t.square(y);
            t.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn grad_activations() {
        let x0 = random(3, 3, 8).map(|v| v + 0.3); // keep away from kinks
        for op in 0..4usize {
            let report = check_gradient(&x0, 1e-3, move |t, x| {
                let y = match op {
                    0 => t.relu(x),
                    1 => t.leaky_relu(x, 0.2),
                    2 => t.exp(x),
                    _ => t.square(x),
                };
                t.sum_all(y)
            });
            assert!(report.passes(TOL), "op {op}: {report:?}");
        }
    }

    #[test]
    fn grad_softmax_rows() {
        let x0 = random(3, 4, 9);
        let target = random(3, 4, 10);
        let report = check_gradient(&x0, H, move |t, x| {
            let s = t.softmax_rows(x);
            let tv = t.constant(target.clone());
            let d = t.sub(s, tv);
            let sq = t.square(d);
            t.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn grad_layernorm_rows() {
        let x0 = random(3, 5, 11);
        let target = random(3, 5, 12);
        let report = check_gradient(&x0, H, move |t, x| {
            let s = t.layernorm_rows(x, 1e-3);
            let tv = t.constant(target.clone());
            let d = t.sub(s, tv);
            let sq = t.square(d);
            t.sum_all(sq)
        });
        assert!(report.passes(5e-2), "{report:?}");
    }

    #[test]
    fn grad_l2_normalize_rows() {
        let x0 = random(3, 4, 13).map(|v| v + 2.0); // away from the clamp
        let target = random(3, 4, 14);
        let report = check_gradient(&x0, H, move |t, x| {
            let s = t.l2_normalize_rows(x, 1e-6);
            let tv = t.constant(target.clone());
            let d = t.sub(s, tv);
            let sq = t.square(d);
            t.sum_all(sq)
        });
        assert!(report.passes(5e-2), "{report:?}");
    }

    #[test]
    fn grad_concat_and_slice() {
        let x0 = random(2, 3, 15);
        let report = check_gradient(&x0, H, move |t, x| {
            let c = t.concat_cols(&[x, x]);
            let s = t.slice_cols(c, 1, 5);
            let sq = t.square(s);
            t.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn grad_gather_scatter() {
        let x0 = random(4, 3, 16);
        let report = check_gradient(&x0, H, move |t, x| {
            let g = t.gather_rows(x, Rc::new(vec![0, 2, 2, 3]));
            let s = t.scatter_add_rows(g, Rc::new(vec![1, 1, 0, 2]), 3);
            let sq = t.square(s);
            t.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn grad_edge_softmax() {
        let x0 = random(6, 2, 17);
        let target = random(6, 2, 18);
        let dst = vec![0usize, 0, 1, 1, 1, 2];
        let report = check_gradient(&x0, H, move |t, x| {
            let s = t.edge_softmax(x, Rc::new(dst.clone()));
            let tv = t.constant(target.clone());
            let d = t.sub(s, tv);
            let sq = t.square(d);
            t.sum_all(sq)
        });
        assert!(report.passes(5e-2), "{report:?}");
    }

    #[test]
    fn grad_edge_aggregate() {
        // Node 1 has three in-edges (one repeated), node 3 none.
        let src = Rc::new(vec![0usize, 2, 0, 1, 2]);
        let dst = Rc::new(vec![1usize, 1, 1, 0, 2]);
        let h0 = random(4, 3, 50);
        let alpha0 = random(5, 1, 51);
        let (s, d, a) = (Rc::clone(&src), Rc::clone(&dst), alpha0.clone());
        let report = check_gradient(&h0, H, move |t, h| {
            let alpha = t.constant(a.clone());
            let out = t.edge_aggregate(h, alpha, Rc::clone(&s), Rc::clone(&d), 4);
            let sq = t.square(out);
            t.sum_all(sq)
        });
        assert!(report.passes(TOL), "wrt h: {report:?}");
        let report = check_gradient(&alpha0, H, move |t, alpha| {
            let h = t.constant(h0.clone());
            let out = t.edge_aggregate(h, alpha, Rc::clone(&src), Rc::clone(&dst), 4);
            let sq = t.square(out);
            t.sum_all(sq)
        });
        assert!(report.passes(TOL), "wrt alpha: {report:?}");
    }

    #[test]
    fn grad_modal_scores_and_mix() {
        // Three modalities carved out of one input, so the check covers the
        // query, key and value sides of both ops at once.
        let (n, d, m) = (3, 2, 3);
        let x0 = random(n, d * m, 52);
        let weights: Vec<Matrix> = (0..3).map(|k| random(d, d, 53 + k)).collect();
        let target = random(n, m * m, 56);
        let report = check_gradient(&x0, H, move |t, x| {
            let ws: Vec<Var> = weights.iter().map(|w| t.constant(w.clone())).collect();
            let mods: Vec<Var> = (0..m).map(|i| t.slice_cols(x, i * d, (i + 1) * d)).collect();
            let [qs, ks, vs] = [0, 1, 2].map(|k| mods.iter().map(|&v| t.matmul(v, ws[k])).collect::<Vec<_>>());
            let beta = t.modal_scores(&qs, &ks, 0.7);
            let outs: Vec<Var> = (0..m).map(|a| t.modal_mix(beta, a, &vs)).collect();
            let all = t.concat_cols(&outs);
            let sq = t.square(all);
            let s = t.sum_all(sq);
            let tv = t.constant(target.clone());
            let wb = t.mul(beta, tv);
            let sb = t.sum_all(wb);
            t.add(s, sb)
        });
        assert!(report.passes(5e-2), "{report:?}");
    }

    #[test]
    fn grad_reductions_and_broadcasts() {
        let x0 = random(3, 4, 19);
        let scale_col = random(3, 1, 20);
        let scale_row = random(1, 4, 21);
        let report = check_gradient(&x0, H, move |t, x| {
            let sc = t.constant(scale_col.clone());
            let sr = t.constant(scale_row.clone());
            let a = t.mul_broadcast_col(x, sc);
            let b = t.mul_broadcast_row(a, sr);
            let c = t.add_broadcast_row(b, sr);
            let rs = t.row_sum(c);
            let sq = t.square(rs);
            t.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn grad_broadcast_scale_parameters() {
        // Gradient with respect to the broadcast operand itself.
        let s0 = random(1, 4, 22);
        let x = random(3, 4, 23);
        let report = check_gradient(&s0, H, move |t, s| {
            let xv = t.constant(x.clone());
            let y = t.mul_broadcast_row(xv, s);
            let sq = t.square(y);
            t.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");

        let s0 = random(3, 1, 24);
        let x = random(3, 4, 25);
        let report = check_gradient(&s0, H, move |t, s| {
            let xv = t.constant(x.clone());
            let y = t.mul_broadcast_col(xv, s);
            let sq = t.square(y);
            t.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn grad_div_sqrt_artanh() {
        let x0 = random(3, 3, 40).map(|v| v.abs() * 0.2 + 0.3); // in (0.3, ~1)
        let denom = random(3, 3, 41).map(|v| v.abs() + 1.0);
        let report = check_gradient(&x0, 1e-3, move |t, x| {
            let d = t.constant(denom.clone());
            let q = t.div(x, d);
            let r = t.sqrt(q);
            let half = t.scale(r, 0.5); // keep |·| < 1 for artanh
            let a = t.artanh(half);
            let sq = t.square(a);
            t.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn grad_div_wrt_denominator() {
        let d0 = random(2, 3, 42).map(|v| v.abs() + 1.0);
        let num = random(2, 3, 43);
        let report = check_gradient(&d0, 1e-3, move |t, d| {
            let n = t.constant(num.clone());
            let q = t.div(n, d);
            let sq = t.square(q);
            t.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn grad_cross_entropy() {
        let x0 = random(4, 5, 26);
        let report = check_gradient(&x0, H, move |t, x| {
            t.cross_entropy_rows(x, Rc::new(vec![0, 3, 2, 1]))
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn grad_col_sum_and_mean() {
        let x0 = random(3, 4, 27);
        let report = check_gradient(&x0, H, move |t, x| {
            let cs = t.col_sum(x);
            let sq = t.square(cs);
            let s = t.sum_all(sq);
            let m = t.mean_all(x);
            let m2 = t.square(m);
            t.add(s, m2)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn grad_transpose_and_scale() {
        let x0 = random(2, 3, 28);
        let report = check_gradient(&x0, H, move |t, x| {
            let tr = t.transpose(x);
            let sc = t.scale(tr, 1.5);
            let sh = t.add_const(sc, 0.5);
            let sq = t.square(sh);
            t.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }
}
