//! The multi-modal encoder of §IV-A: GAT structure branch, per-modality FC
//! branches, and a stack of CAW fusion blocks.
//!
//! Weights are shared between the two knowledge graphs (standard in entity
//! alignment); only the learnable structure embeddings `x^g` and the
//! adjacency differ per side.

use crate::config::{DesalignConfig, StructureEncoderKind};
use desalign_autodiff::Var;
use desalign_graph::{Csr, SampledSubgraph, UndirectedGraph};
use desalign_mmkg::{fill_missing_with_noise, AlignmentDataset, ModalFeatures};
use desalign_nn::{CrossModalAttention, GatEncoder, Linear, ParamId, ParamStore, Session};
use desalign_tensor::{uniform_matrix, Matrix, Rng64};
use std::rc::Rc;

/// The four modalities of `M = {g, r, t, v}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Modality {
    /// Graph structure (`g`).
    Structure,
    /// Relations (`r`).
    Relation,
    /// Text attributes (`t`).
    Text,
    /// Vision (`v`).
    Visual,
}

impl Modality {
    /// All modalities in the paper's order.
    pub const ALL: [Modality; 4] = [Modality::Structure, Modality::Relation, Modality::Text, Modality::Visual];

    /// Single-letter name used in the paper (`g`, `r`, `t`, `v`).
    pub fn letter(&self) -> char {
        match self {
            Modality::Structure => 'g',
            Modality::Relation => 'r',
            Modality::Text => 't',
            Modality::Visual => 'v',
        }
    }
}

/// Per-side fixed inputs prepared once before training: the whole graph,
/// or one sampled subgraph of it ([`GraphInputs::for_subgraph`]).
pub struct GraphInputs {
    /// Message edges (both orientations + self-loops).
    pub src: Rc<Vec<usize>>,
    /// Message edge destinations.
    pub dst: Rc<Vec<usize>>,
    /// Symmetrically normalized adjacency (GCN branch and SP operator).
    pub adj_norm: Rc<Csr>,
    /// Graph Laplacian `Δ = I − Ã` (the Dirichlet-energy constraint).
    pub laplacian: Rc<Csr>,
    /// Raw relation BoW with missing rows noise-filled.
    pub relation: Matrix,
    /// Raw attribute BoW with missing rows noise-filled.
    pub attribute: Matrix,
    /// Raw visual features with missing rows noise-filled.
    pub visual: Matrix,
    /// Modality presence masks (pre-fill), used by Semantic Propagation.
    pub features: ModalFeatures,
    /// Number of entities (rows) on this side.
    pub n: usize,
    /// Global entity id of each local row; `None` for the whole graph.
    pub rows: Option<Rc<Vec<usize>>>,
}

impl GraphInputs {
    /// Builds inputs for one side: extracts features, records masks, and
    /// noise-fills missing rows (the paper's §IV-A initialization policy).
    pub fn prepare(kg: &desalign_mmkg::Mmkg, cfg: &DesalignConfig, rng: &mut Rng64) -> Self {
        let features = ModalFeatures::build(kg, &cfg.feature_dims);
        let relation = fill_missing_with_noise(&features.relation, &features.has_relation, rng);
        let attribute = fill_missing_with_noise(&features.attribute, &features.has_attribute, rng);
        let visual = fill_missing_with_noise(&features.visual, &features.has_visual, rng);
        Self::with_graph(&kg.graph(), relation, attribute, visual, features, None)
    }

    /// Inputs of a sampled subgraph of this (whole-graph) side: local row
    /// `i` is entity `sub.nodes[i]`. Structure, adjacency and Laplacian
    /// come from the subgraph's own edges; feature rows and presence masks
    /// are gathered from `self`.
    ///
    /// # Panics
    /// Panics if `self` is itself a subgraph.
    pub fn for_subgraph(&self, sub: &SampledSubgraph) -> Self {
        assert!(self.rows.is_none(), "GraphInputs::for_subgraph: inputs are already a subgraph");
        let gather = |m: &Matrix| Matrix::from_fn(sub.num_nodes(), m.cols(), |i, j| m[(sub.nodes[i], j)]);
        let gather_mask = |has: &[bool]| sub.nodes.iter().map(|&g| has[g]).collect();
        let f = &self.features;
        let features = ModalFeatures {
            relation: gather(&f.relation),
            attribute: gather(&f.attribute),
            visual: gather(&f.visual),
            has_relation: gather_mask(&f.has_relation),
            has_attribute: gather_mask(&f.has_attribute),
            has_visual: gather_mask(&f.has_visual),
        };
        Self::with_graph(
            &UndirectedGraph::new(sub.num_nodes(), sub.edges.iter().copied()),
            gather(&self.relation),
            gather(&self.attribute),
            gather(&self.visual),
            features,
            Some(Rc::new(sub.nodes.clone())),
        )
    }

    fn with_graph(
        graph: &UndirectedGraph,
        relation: Matrix,
        attribute: Matrix,
        visual: Matrix,
        features: ModalFeatures,
        rows: Option<Rc<Vec<usize>>>,
    ) -> Self {
        let (src, dst) = graph.message_edges();
        Self {
            src: Rc::new(src),
            dst: Rc::new(dst),
            adj_norm: Rc::new(graph.normalized_adjacency(true)),
            laplacian: Rc::new(graph.laplacian()),
            relation,
            attribute,
            visual,
            features,
            n: graph.num_nodes(),
            rows,
        }
    }
}

/// Output of one encoder pass over one graph.
pub struct EncodedGraph {
    /// Active modalities, in order.
    pub modalities: Vec<Modality>,
    /// Branch embeddings `h^m` (layer `k−1` inputs to CAW), each `n × d`.
    pub modal: Vec<Var>,
    /// Per-CAW-layer fused embeddings `ĥ^m`, outermost index = layer.
    pub fused_layers: Vec<Vec<Var>>,
    /// Modal confidences `w̃^m` from the last CAW layer, each `n × 1`.
    pub confidence: Vec<Var>,
    /// Early-fusion joint embedding `h^Ori = ⊕_m w̃^m h^m` (Eq. 14) — the
    /// paper's final entity representation for evaluation.
    pub h_ori: Var,
    /// Late-fusion joint embeddings `X^(1..k)`, one per CAW layer.
    pub h_fus_layers: Vec<Var>,
}

impl EncodedGraph {
    /// The final late-fusion embedding `X^(k)`.
    pub fn h_fus(&self) -> Var {
        *self.h_fus_layers.last().expect("at least one CAW layer")
    }

    /// `X^(k−1)`: the penultimate fused embedding, falling back to `X^(0)`
    /// (= `h^Ori`) when the encoder has a single CAW layer.
    pub fn h_fus_prev(&self) -> Var {
        if self.h_fus_layers.len() >= 2 {
            self.h_fus_layers[self.h_fus_layers.len() - 2]
        } else {
            self.h_ori
        }
    }
}

enum StructureBranch {
    Gat(GatEncoder),
    Gcn { w1: ParamId, w2: ParamId },
}

/// The shared multi-modal encoder.
pub struct MultiModalEncoder {
    modalities: Vec<Modality>,
    confidence_fusion: bool,
    fusion_normalize: bool,
    confidence_blend: f32,
    mask_missing: bool,
    x_g: [ParamId; 2], // learnable structure embeddings per side
    structure: StructureBranch,
    fc_r: Linear,
    fc_t: Linear,
    fc_v: Linear,
    caw: Vec<CrossModalAttention>,
    hidden_dim: usize,
}

impl MultiModalEncoder {
    /// Registers all parameters for the given dataset shape.
    pub fn new(store: &mut ParamStore, rng: &mut Rng64, cfg: &DesalignConfig, dataset: &AlignmentDataset) -> Self {
        let d = cfg.hidden_dim;
        let mut modalities = Vec::new();
        let ab = &cfg.ablation;
        if ab.use_structure {
            modalities.push(Modality::Structure);
        }
        if ab.use_relation {
            modalities.push(Modality::Relation);
        }
        if ab.use_text {
            modalities.push(Modality::Text);
        }
        if ab.use_visual {
            modalities.push(Modality::Visual);
        }
        let bound = (1.0 / (d as f32).sqrt()) * 3.0f32.sqrt();
        let x_g = [
            store.add("xg.source", uniform_matrix(rng, dataset.source.num_entities, d, -bound, bound)),
            store.add("xg.target", uniform_matrix(rng, dataset.target.num_entities, d, -bound, bound)),
        ];
        let structure = match cfg.structure_encoder {
            StructureEncoderKind::Gat => StructureBranch::Gat(GatEncoder::new(store, rng, "gat", d, cfg.gat_heads, cfg.gat_layers)),
            StructureEncoderKind::Gcn => StructureBranch::Gcn {
                w1: store.add("gcn.w1", desalign_tensor::glorot_uniform(rng, d, d)),
                w2: store.add("gcn.w2", desalign_tensor::glorot_uniform(rng, d, d)),
            },
        };
        let fc_r = Linear::new(store, rng, "fc_r", cfg.feature_dims.relation, d, true);
        let fc_t = Linear::new(store, rng, "fc_t", cfg.feature_dims.attribute, d, true);
        let fc_v = Linear::new(store, rng, "fc_v", cfg.feature_dims.visual, d, true);
        let caw = (0..cfg.caw_layers)
            .map(|l| CrossModalAttention::new(store, rng, &format!("caw{l}"), modalities.len(), d, cfg.caw_heads, d * 2))
            .collect();
        Self {
            modalities,
            confidence_fusion: cfg.ablation.use_confidence_fusion,
            fusion_normalize: cfg.fusion_normalize,
            confidence_blend: cfg.confidence_blend,
            mask_missing: cfg.mask_missing_modalities,
            x_g,
            structure,
            fc_r,
            fc_t,
            fc_v,
            caw,
            hidden_dim: d,
        }
    }

    /// Active modalities.
    pub fn modalities(&self) -> &[Modality] {
        &self.modalities
    }

    /// Unified hidden dimension `d`.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// The per-modality FC weight ids — exposed for the Proposition 2
    /// singular-value diagnostics.
    pub fn fc_weights(&self) -> Vec<(Modality, ParamId)> {
        vec![
            (Modality::Relation, self.fc_r.weight()),
            (Modality::Text, self.fc_t.weight()),
            (Modality::Visual, self.fc_v.weight()),
        ]
    }

    /// Encodes one side (`side` 0 = source, 1 = target), or a subgraph of
    /// it: for subgraph inputs the structure embeddings `x^g` are
    /// row-gathered differentiably, so gradients reach exactly the sampled
    /// rows and tape memory is `O(|sub| × d)`.
    pub fn forward(&self, sess: &mut Session<'_>, inputs: &GraphInputs, side: usize) -> EncodedGraph {
        assert!(side < 2, "MultiModalEncoder::forward: side must be 0 or 1");
        // Branch embeddings h^m (Eq. 7–8).
        let mut modal = Vec::with_capacity(self.modalities.len());
        for &m in &self.modalities {
            let h = match m {
                Modality::Structure => {
                    let mut xg = sess.param(self.x_g[side]);
                    if let Some(rows) = &inputs.rows {
                        xg = sess.tape.gather_rows(xg, Rc::clone(rows));
                    }
                    match &self.structure {
                        StructureBranch::Gat(gat) => gat.forward(sess, xg, &inputs.src, &inputs.dst),
                        StructureBranch::Gcn { w1, w2 } => {
                            let w1 = sess.param(*w1);
                            let w2 = sess.param(*w2);
                            let h = sess.tape.matmul(xg, w1);
                            let h = sess.tape.spmm(Rc::clone(&inputs.adj_norm), h);
                            let h = sess.tape.relu(h);
                            let h = sess.tape.matmul(h, w2);
                            sess.tape.spmm(Rc::clone(&inputs.adj_norm), h)
                        }
                    }
                }
                Modality::Relation => {
                    let x = sess.input(inputs.relation.clone());
                    self.fc_r.forward(sess, x)
                }
                Modality::Text => {
                    let x = sess.input(inputs.attribute.clone());
                    self.fc_t.forward(sess, x)
                }
                Modality::Visual => {
                    let x = sess.input(inputs.visual.clone());
                    self.fc_v.forward(sess, x)
                }
            };
            modal.push(h);
        }

        // Stacked CAW blocks (Eq. 9–12); confidences from the last block.
        let mut fused_layers = Vec::with_capacity(self.caw.len());
        let mut confidence = Vec::new();
        let mut current = modal.clone();
        for (l, block) in self.caw.iter().enumerate() {
            let out = block.forward(sess, &current);
            current = out.fused.clone();
            fused_layers.push(out.fused);
            if l + 1 == self.caw.len() {
                confidence = out.confidence;
            }
        }

        let (h_ori, h_fus_layers) = self.fuse_outputs(sess, &modal, &fused_layers, &confidence, inputs);

        EncodedGraph { modalities: self.modalities.clone(), modal, fused_layers, confidence, h_ori, h_fus_layers }
    }

    /// The fusion tail: builds the joint embeddings `h^Ori` and
    /// `X^(1..k)` from the branch and CAW outputs.
    ///
    /// Joint embeddings (Eq. 14): ℓ2-normalize each modality block (so no
    /// branch dominates the concatenation by norm alone — the standard
    /// practice in the EVA/MCLEA/MEAformer implementations), weight by
    /// the confidence, and concatenate.
    ///
    /// With `mask_missing_modalities` on, absent modalities are masked
    /// out of the fusion and the remaining weights renormalized per
    /// entity, so noise-filled rows never reach the joint embedding:
    ///   `w^m ← (b^m · 1[m present]) / Σ_{m'} b^{m'} · 1[m' present]`
    /// where `b^m` is the blended confidence weight (or 1/|M| uniform).
    /// The uniform path is rescaled by |M| so a fully-present entity
    /// keeps weight 1 per block, matching the unmasked concatenation.
    fn fuse_outputs(
        &self,
        sess: &mut Session<'_>,
        modal: &[Var],
        fused_layers: &[Vec<Var>],
        confidence: &[Var],
        inputs: &GraphInputs,
    ) -> (Var, Vec<Var>) {
        let normalize = self.fusion_normalize;
        let alpha = self.confidence_blend;
        let m_count = self.modalities.len() as f32;
        let masks: Option<Vec<Var>> = if self.mask_missing {
            Some(
                self.modalities
                    .iter()
                    .map(|m| {
                        let to_bits = |has: &[bool]| -> Vec<f32> { has.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect() };
                        let features = &inputs.features;
                        let bits: Vec<f32> = match m {
                            // Structure embeddings are learnable — never absent.
                            Modality::Structure => vec![1.0; inputs.n],
                            Modality::Relation => to_bits(&features.has_relation),
                            Modality::Text => to_bits(&features.has_attribute),
                            Modality::Visual => to_bits(&features.has_visual),
                        };
                        sess.input(Matrix::column(bits))
                    })
                    .collect(),
            )
        } else {
            None
        };
        let fuse = |sess: &mut Session<'_>, parts: &[Var], confidence: &[Var], weighted: bool| {
            let use_w = weighted && alpha > 0.0;
            if let Some(masks) = &masks {
                // Masked path: per-modality base weights ⊙ presence, then
                // per-entity renormalization.
                let masked_w: Vec<Var> = masks
                    .iter()
                    .zip(confidence)
                    .map(|(&mask, &w)| {
                        if use_w {
                            // w_eff = α·w̃ + (1−α)/|M| (see DesalignConfig).
                            let scaled = sess.tape.scale(w, alpha);
                            let w_eff = sess.tape.add_const(scaled, (1.0 - alpha) / m_count);
                            sess.tape.mul(w_eff, mask)
                        } else {
                            sess.tape.scale(mask, 1.0 / m_count)
                        }
                    })
                    .collect();
                let mut denom = masked_w[0];
                for &v in &masked_w[1..] {
                    denom = sess.tape.add(denom, v);
                }
                // ε keeps an all-modalities-absent entity at weight 0
                // instead of 0/0 = NaN.
                let denom = sess.tape.add_const(denom, 1e-12);
                let blocks: Vec<Var> = parts
                    .iter()
                    .zip(&masked_w)
                    .map(|(&h, &mw)| {
                        let n = if normalize { sess.tape.l2_normalize_rows(h, 1e-6) } else { h };
                        let mut wf = sess.tape.div(mw, denom);
                        if !use_w {
                            // Restore the unmasked uniform scale (weight 1
                            // per block when everything is present).
                            wf = sess.tape.scale(wf, m_count);
                        }
                        sess.tape.mul_broadcast_col(n, wf)
                    })
                    .collect();
                return sess.tape.concat_cols(&blocks);
            }
            // Unmasked path — kept byte-for-byte identical to the
            // historical fusion so existing fingerprints are preserved.
            let blocks: Vec<Var> = parts
                .iter()
                .zip(confidence)
                .map(|(&h, &w)| {
                    let n = if normalize { sess.tape.l2_normalize_rows(h, 1e-6) } else { h };
                    if use_w {
                        // w_eff = α·w̃ + (1−α)/|M| (see DesalignConfig).
                        let scaled = sess.tape.scale(w, alpha);
                        let w_eff = sess.tape.add_const(scaled, (1.0 - alpha) / m_count);
                        sess.tape.mul_broadcast_col(n, w_eff)
                    } else {
                        n
                    }
                })
                .collect();
            sess.tape.concat_cols(&blocks)
        };
        let h_ori = fuse(sess, modal, confidence, self.confidence_fusion);
        let h_fus_layers: Vec<Var> = fused_layers
            .iter()
            .map(|layer| fuse(sess, layer, confidence, self.confidence_fusion))
            .collect();

        (h_ori, h_fus_layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desalign_mmkg::{DatasetSpec, SynthConfig};
    use desalign_tensor::rng_from_seed;

    fn tiny_setup() -> (AlignmentDataset, DesalignConfig) {
        let mut cfg = DesalignConfig::fast();
        cfg.hidden_dim = 16;
        cfg.feature_dims = desalign_mmkg::FeatureDims { relation: 32, attribute: 32, visual: 64 };
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(5);
        (ds, cfg)
    }

    #[test]
    fn encoder_produces_consistent_shapes() {
        let (ds, cfg) = tiny_setup();
        let mut rng = rng_from_seed(1);
        let mut store = ParamStore::new();
        let enc = MultiModalEncoder::new(&mut store, &mut rng, &cfg, &ds);
        let inputs = GraphInputs::prepare(&ds.source, &cfg, &mut rng);
        let mut sess = Session::new(&store);
        let out = enc.forward(&mut sess, &inputs, 0);
        let n = ds.source.num_entities;
        let d = cfg.hidden_dim;
        assert_eq!(out.modal.len(), 4);
        for &h in &out.modal {
            assert_eq!(sess.tape.value(h).shape(), (n, d));
        }
        assert_eq!(sess.tape.value(out.h_ori).shape(), (n, 4 * d));
        assert_eq!(out.h_fus_layers.len(), cfg.caw_layers);
        assert_eq!(sess.tape.value(out.h_fus()).shape(), (n, 4 * d));
        for &c in &out.confidence {
            assert_eq!(sess.tape.value(c).shape(), (n, 1));
        }
    }

    #[test]
    fn ablated_modalities_are_dropped() {
        let (ds, mut cfg) = tiny_setup();
        cfg.ablation.use_visual = false;
        cfg.ablation.use_text = false;
        let mut rng = rng_from_seed(2);
        let mut store = ParamStore::new();
        let enc = MultiModalEncoder::new(&mut store, &mut rng, &cfg, &ds);
        assert_eq!(enc.modalities(), &[Modality::Structure, Modality::Relation]);
        let inputs = GraphInputs::prepare(&ds.source, &cfg, &mut rng);
        let mut sess = Session::new(&store);
        let out = enc.forward(&mut sess, &inputs, 0);
        assert_eq!(sess.tape.value(out.h_ori).shape(), (ds.source.num_entities, 2 * cfg.hidden_dim));
    }

    #[test]
    fn h_fus_prev_falls_back_to_ori_with_single_layer() {
        let (ds, mut cfg) = tiny_setup();
        cfg.caw_layers = 1;
        let mut rng = rng_from_seed(3);
        let mut store = ParamStore::new();
        let enc = MultiModalEncoder::new(&mut store, &mut rng, &cfg, &ds);
        let inputs = GraphInputs::prepare(&ds.source, &cfg, &mut rng);
        let mut sess = Session::new(&store);
        let out = enc.forward(&mut sess, &inputs, 0);
        assert_eq!(out.h_fus_prev(), out.h_ori);
    }

    #[test]
    fn masked_fusion_zeroes_absent_modality_blocks() {
        let (ds, mut cfg) = tiny_setup();
        cfg.mask_missing_modalities = true;
        cfg.ablation.use_confidence_fusion = false; // uniform weights: exact zeros
        let mut rng = rng_from_seed(7);
        let mut store = ParamStore::new();
        let enc = MultiModalEncoder::new(&mut store, &mut rng, &cfg, &ds);
        let inputs = GraphInputs::prepare(&ds.source, &cfg, &mut rng);
        let mut sess = Session::new(&store);
        let out = enc.forward(&mut sess, &inputs, 0);
        let h = sess.tape.value(out.h_ori);
        let d = cfg.hidden_dim;
        let vis_block = 3 * d..4 * d; // modality order: g, r, t, v
        let missing = (0..inputs.n).find(|&i| !inputs.features.has_visual[i]).expect("synth data has entities without images");
        let present = (0..inputs.n)
            .find(|&i| inputs.features.has_visual[i] && inputs.features.has_attribute[i] && inputs.features.has_relation[i])
            .expect("some entity has every modality");
        assert!(
            h.row(missing)[vis_block.clone()].iter().all(|&v| v == 0.0),
            "noise-filled visual row must be masked out of the joint embedding"
        );
        assert!(h.row(missing).iter().any(|&v| v != 0.0), "present modalities still carry the entity");
        assert!(h.as_slice().iter().all(|v| v.is_finite()), "masked fusion must stay finite");

        // A fully-present entity matches the unmasked fusion (up to the ε
        // in the renormalization denominator).
        let mut cfg2 = cfg.clone();
        cfg2.mask_missing_modalities = false;
        let mut rng2 = rng_from_seed(7);
        let mut store2 = ParamStore::new();
        let enc2 = MultiModalEncoder::new(&mut store2, &mut rng2, &cfg2, &ds);
        let inputs2 = GraphInputs::prepare(&ds.source, &cfg2, &mut rng2);
        let mut sess2 = Session::new(&store2);
        let out2 = enc2.forward(&mut sess2, &inputs2, 0);
        let h2 = sess2.tape.value(out2.h_ori);
        for (a, b) in h.row(present).iter().zip(h2.row(present)) {
            assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0), "fully-present rows must agree: {a} vs {b}");
        }
    }

    #[test]
    fn masked_fusion_survives_total_modality_drop() {
        // Every image and every attribute removed: masking must keep the
        // joint embedding finite (structure + relation carry everything).
        let (mut ds, mut cfg) = tiny_setup();
        for img in ds.source.images.iter_mut() {
            *img = None;
        }
        ds.source.attr_triples.clear();
        cfg.mask_missing_modalities = true;
        let mut rng = rng_from_seed(11);
        let mut store = ParamStore::new();
        let enc = MultiModalEncoder::new(&mut store, &mut rng, &cfg, &ds);
        let inputs = GraphInputs::prepare(&ds.source, &cfg, &mut rng);
        let mut sess = Session::new(&store);
        let out = enc.forward(&mut sess, &inputs, 0);
        let h = sess.tape.value(out.h_ori);
        assert!(h.as_slice().iter().all(|v| v.is_finite()), "total modality drop must not produce NaN");
        assert!(h.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn sides_share_weights_but_not_structure_embeddings() {
        let (ds, cfg) = tiny_setup();
        let mut rng = rng_from_seed(4);
        let mut store = ParamStore::new();
        let enc = MultiModalEncoder::new(&mut store, &mut rng, &cfg, &ds);
        let src_in = GraphInputs::prepare(&ds.source, &cfg, &mut rng);
        let tgt_in = GraphInputs::prepare(&ds.target, &cfg, &mut rng);
        let mut sess = Session::new(&store);
        let a = enc.forward(&mut sess, &src_in, 0);
        let b = enc.forward(&mut sess, &tgt_in, 1);
        assert_eq!(sess.tape.value(a.h_ori).rows(), ds.source.num_entities);
        assert_eq!(sess.tape.value(b.h_ori).rows(), ds.target.num_entities);
        // Both sides' losses reach the same shared FC weights.
        let ca = sess.tape.concat_cols(&[a.h_ori]);
        let cb = sess.tape.concat_cols(&[b.h_ori]);
        let sa = sess.tape.square(ca);
        let sb = sess.tape.square(cb);
        let la = sess.tape.sum_all(sa);
        let lb = sess.tape.sum_all(sb);
        let loss = sess.tape.add(la, lb);
        let grads = sess.backward(loss);
        assert!(grads.get(enc.fc_r.weight()).is_some());
        assert!(grads.get(enc.x_g[0]).is_some());
        assert!(grads.get(enc.x_g[1]).is_some());
    }
}
