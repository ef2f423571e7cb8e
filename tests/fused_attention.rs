//! The fused attention ops against the primitive chains they replace.
//!
//! `Tape::edge_aggregate` (GAT, Eq. 7) and `Tape::modal_scores` +
//! `Tape::modal_mix` (CAW, Eq. 9–10) claim the exact bits of the primitive
//! op chains they stand for. Each test builds the same graph twice, once per
//! form, runs backward through a loss that mixes the outputs, and compares
//! every forward value and every gradient bit for bit.

use desalign_autodiff::{Tape, Var};
use desalign_tensor::{normal_matrix, rng_from_seed, Matrix};
use std::rc::Rc;

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_same(a: &Tape, va: Var, b: &Tape, vb: Var, what: &str) {
    assert_eq!(bits(a.value(va)), bits(b.value(vb)), "{what}: forward value differs");
    match (a.grad(va), b.grad(vb)) {
        (Some(ga), Some(gb)) => assert_eq!(bits(ga), bits(gb), "{what}: gradient differs"),
        (None, None) => {}
        _ => panic!("{what}: only one form has a gradient"),
    }
}

// ---- GAT ------------------------------------------------------------------

struct GatRun {
    tape: Tape,
    /// Leaves, then `h` and `α`.
    checked: Vec<Var>,
    out: Var,
}

/// One GAT head as `GatLayer::forward` records it, then a loss.
fn gat_run(fused: bool, src: &Rc<Vec<usize>>, dst: &Rc<Vec<usize>>, n: usize) -> GatRun {
    let mut rng = rng_from_seed(11);
    let mut t = Tape::new();
    let x = t.leaf(normal_matrix(&mut rng, n, 5, 0.0, 1.0));
    let w = t.leaf(normal_matrix(&mut rng, 5, 6, 0.0, 0.5));
    let a_src = t.leaf(normal_matrix(&mut rng, 6, 1, 0.0, 0.5));
    let a_dst = t.leaf(normal_matrix(&mut rng, 6, 1, 0.0, 0.5));
    let w_out = t.leaf(normal_matrix(&mut rng, 6, 3, 0.0, 0.5));
    let h = t.matmul(x, w);
    let s_src = t.matmul(h, a_src);
    let s_dst = t.matmul(h, a_dst);
    let e_src = t.gather_rows(s_src, Rc::clone(src));
    let e_dst = t.gather_rows(s_dst, Rc::clone(dst));
    let logits = t.add(e_src, e_dst);
    let logits = t.leaky_relu(logits, 0.2);
    let alpha = t.edge_softmax(logits, Rc::clone(dst));
    let out = if fused {
        t.edge_aggregate(h, alpha, Rc::clone(src), Rc::clone(dst), n)
    } else {
        let msgs = t.gather_rows(h, Rc::clone(src));
        let weighted = t.mul_broadcast_col(msgs, alpha);
        t.scatter_add_rows(weighted, Rc::clone(dst), n)
    };
    let y = t.matmul(out, w_out);
    let y = t.leaky_relu(y, 0.2);
    let sq = t.square(y);
    let loss = t.sum_all(sq);
    t.backward(loss);
    GatRun { tape: t, checked: vec![x, w, a_src, a_dst, w_out, h, alpha], out }
}

#[test]
fn edge_aggregate_matches_the_gather_scale_scatter_chain() {
    // Node 1 has four in-edges (one repeated), every node but the last has
    // a self-loop, node 5 only its self-loop, and node 6 no edge at all.
    let mut edges = vec![(0, 1), (2, 1), (3, 1), (0, 1), (1, 0), (4, 2), (2, 4), (3, 0)];
    edges.extend((0..6).map(|i| (i, i)));
    let n = 7;
    let src = Rc::new(edges.iter().map(|e| e.0).collect::<Vec<_>>());
    let dst = Rc::new(edges.iter().map(|e| e.1).collect::<Vec<_>>());
    let composed = gat_run(false, &src, &dst, n);
    let fused = gat_run(true, &src, &dst, n);
    assert_same(&composed.tape, composed.out, &fused.tape, fused.out, "aggregate");
    assert!(fused.tape.value(fused.out).row(6).iter().all(|&v| v == 0.0), "isolated node receives nothing");
    for (k, (&a, &b)) in composed.checked.iter().zip(&fused.checked).enumerate() {
        assert_same(&composed.tape, a, &fused.tape, b, &format!("GAT input {k}"));
    }
}

// ---- CAW ------------------------------------------------------------------

struct CawRun {
    tape: Tape,
    /// Leaves, then every head's q, k and v.
    checked: Vec<Var>,
    /// Per modality and head: the attention output.
    outputs: Vec<Var>,
    /// Per modality: the received attention. Only its value is comparable:
    /// in the chain form its first link is the node `b_j` that also feeds
    /// the weighted sum, so that node's gradient holds both uses.
    received: Vec<Var>,
    /// Per head and query: the n×M attention rows.
    betas: Vec<Matrix>,
}

/// The CAW attention core as `CrossModalAttention::forward` records it —
/// per-head q/k/v projections, per-query attention, the per-modality
/// outputs and the received-attention chain feeding the confidence
/// softmax — then a loss that uses all of them.
fn caw_run(fused: bool, m_count: usize, heads: usize, n: usize) -> CawRun {
    let (dim, head_dim) = (4 * heads, 4);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut rng = rng_from_seed(100 + (m_count * 10 + heads) as u64);
    let mut t = Tape::new();
    let mut checked = Vec::new();
    let modalities: Vec<Var> = (0..m_count)
        .map(|m| {
            let mut x = normal_matrix(&mut rng, n, dim, 0.0, 1.0);
            if m == 1 {
                // A missing modality: zero features for some entities.
                for i in 0..3 {
                    x.row_mut(i).fill(0.0);
                }
            }
            t.leaf(x)
        })
        .collect();
    checked.extend(&modalities);
    let mut head_outputs: Vec<Vec<Var>> = vec![Vec::new(); m_count];
    let mut received: Vec<Option<Var>> = vec![None; m_count];
    let mut beta_vars: Vec<(Var, Option<usize>)> = Vec::new();
    let mut projections = Vec::new();
    for _ in 0..heads {
        let wq = t.leaf(normal_matrix(&mut rng, dim, head_dim, 0.0, 0.6));
        let wk = t.leaf(normal_matrix(&mut rng, dim, head_dim, 0.0, 0.6));
        let wv = t.leaf(normal_matrix(&mut rng, dim, head_dim, 0.0, 0.6));
        checked.extend([wq, wk, wv]);
        let qs: Vec<Var> = modalities.iter().map(|&m| t.matmul(m, wq)).collect();
        let ks: Vec<Var> = modalities.iter().map(|&m| t.matmul(m, wk)).collect();
        let vs: Vec<Var> = modalities.iter().map(|&m| t.matmul(m, wv)).collect();
        projections.extend(qs.iter().chain(&ks).chain(&vs).copied());
        if fused {
            let beta = t.modal_scores(&qs, &ks, scale);
            for (a, outputs) in head_outputs.iter_mut().enumerate() {
                beta_vars.push((beta, Some(a)));
                outputs.push(t.modal_mix(beta, a, &vs));
                for (j, r) in received.iter_mut().enumerate() {
                    let b_j = t.slice_cols(beta, a * m_count + j, a * m_count + j + 1);
                    *r = Some(match *r {
                        Some(acc) => t.add(acc, b_j),
                        None => b_j,
                    });
                }
            }
        } else {
            for (a, &q) in qs.iter().enumerate() {
                let mut score_cols = Vec::new();
                for &k in &ks {
                    let prod = t.mul(q, k);
                    let s = t.row_sum(prod);
                    score_cols.push(t.scale(s, scale));
                }
                let scores = t.concat_cols(&score_cols);
                let beta = t.softmax_rows(scores);
                beta_vars.push((beta, None));
                let mut out: Option<Var> = None;
                for (j, &v) in vs.iter().enumerate() {
                    let b_j = t.slice_cols(beta, j, j + 1);
                    let term = t.mul_broadcast_col(v, b_j);
                    out = Some(match out {
                        Some(acc) => t.add(acc, term),
                        None => term,
                    });
                    received[j] = Some(match received[j] {
                        Some(acc) => t.add(acc, b_j),
                        None => b_j,
                    });
                }
                head_outputs[a].push(out.expect("at least one modality"));
            }
        }
    }
    checked.extend(projections);

    // Confidence softmax over the received attention (Eq. 13).
    let conf_scale = 1.0 / ((m_count * heads) as f32).sqrt();
    let received: Vec<Var> = received.into_iter().map(|r| r.expect("every modality receives attention")).collect();
    let conf_cols: Vec<Var> = received.iter().map(|&r| t.scale(r, conf_scale)).collect();
    let conf_logits = t.concat_cols(&conf_cols);
    let conf = t.softmax_rows(conf_logits);
    let wo = t.leaf(normal_matrix(&mut rng, dim, dim, 0.0, 0.5));
    checked.push(wo);
    let mut terms = Vec::new();
    let mut outputs = Vec::new();
    for (m, outs) in head_outputs.iter().enumerate() {
        outputs.extend(outs);
        let concat = if outs.len() == 1 { outs[0] } else { t.concat_cols(outs) };
        let att = t.matmul(concat, wo);
        let res = t.add(att, modalities[m]);
        let sq = t.square(res);
        let c_m = t.slice_cols(conf, m, m + 1);
        terms.push(t.mul_broadcast_col(sq, c_m));
    }
    let all = t.concat_cols(&terms);
    let loss = t.sum_all(all);
    t.backward(loss);
    let betas = beta_vars
        .iter()
        .map(|&(b, block)| match block {
            Some(a) => t.value(b).slice_cols(a * m_count, (a + 1) * m_count),
            None => t.value(b).clone(),
        })
        .collect();
    CawRun { tape: t, checked, outputs, received, betas }
}

#[test]
fn modal_scores_and_mix_match_the_per_modality_chain() {
    for m_count in 1..=4 {
        for heads in 1..=3 {
            let case = format!("M={m_count}, heads={heads}");
            let composed = caw_run(false, m_count, heads, 13);
            let fused = caw_run(true, m_count, heads, 13);
            assert_eq!(composed.betas.len(), fused.betas.len());
            for (k, (a, b)) in composed.betas.iter().zip(&fused.betas).enumerate() {
                assert_eq!(bits(a), bits(b), "{case}: attention of head/query {k} differs");
            }
            for (k, (&a, &b)) in composed.outputs.iter().zip(&fused.outputs).enumerate() {
                assert_same(&composed.tape, a, &fused.tape, b, &format!("{case}: output {k}"));
            }
            for (k, (&a, &b)) in composed.received.iter().zip(&fused.received).enumerate() {
                let (va, vb) = (composed.tape.value(a), fused.tape.value(b));
                assert_eq!(bits(va), bits(vb), "{case}: attention received by modality {k} differs");
            }
            assert_eq!(composed.checked.len(), fused.checked.len());
            for (k, (&a, &b)) in composed.checked.iter().zip(&fused.checked).enumerate() {
                assert_same(&composed.tape, a, &fused.tape, b, &format!("{case}: input {k}"));
                assert!(fused.tape.grad(b).is_some(), "{case}: input {k} got no gradient");
            }
        }
    }
}
