//! The `DesalignModel` facade: construct, `fit`, `similarity`, `evaluate`.
//!
//! The training loop itself (with its checkpoint/resume split and the
//! divergence watchdog) lives in the sibling [`crate::trainer`] module;
//! full-state persistence lives in [`crate::checkpoint`].

use crate::config::DesalignConfig;
use crate::encoder::{GraphInputs, MultiModalEncoder};
use crate::energy::{EnergyDiagnostics, EnergyTrace};
use crate::propagate::{
    consistency_mask, per_modality_propagation_similarity, per_modality_propagation_states,
    semantic_propagation_similarity, semantic_propagation_states,
};
use crate::trainer::ChaosPlan;
use desalign_eval::{AlignmentMetrics, SimilarityMatrix};
use desalign_graph::singular_value_range;
use desalign_mmkg::AlignmentDataset;
use desalign_nn::{ParamStore, Session};
use desalign_tensor::{rng_from_seed, Matrix, Rng64};

/// A trained (or trainable) DESAlign model bound to one dataset's shape.
pub struct DesalignModel {
    pub(crate) cfg: DesalignConfig,
    pub(crate) store: ParamStore,
    pub(crate) encoder: MultiModalEncoder,
    pub(crate) inputs: [GraphInputs; 2],
    pub(crate) known: [Vec<bool>; 2],
    pub(crate) rng: Rng64,
    /// The construction seed, recorded for checkpoint provenance.
    pub(crate) seed: u64,
    /// Digest of the dataset this model was built against (checkpoint
    /// provenance — see `crate::checkpoint`).
    pub(crate) dataset_digest: u64,
    /// Deterministic fault-injection plan, if armed (tests only).
    pub(crate) chaos: Option<ChaosPlan>,
    /// Extra (pseudo) seed pairs injected by the iterative strategy.
    pub pseudo_pairs: Vec<(usize, usize)>,
    pub(crate) energy_traces: Vec<EnergyTrace>,
    /// Gradient-buffer pool shared by every per-step tape of this model.
    /// After a one-step warmup, training epochs allocate no new gradient
    /// buffers (see `desalign_nn::Workspace`).
    pub(crate) ws: desalign_nn::SharedWorkspace,
}

impl DesalignModel {
    /// Builds a model for `dataset`, initializing all parameters from
    /// `seed`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid for this dataset. Use
    /// [`DesalignModel::try_new`] for a typed error instead.
    pub fn new(cfg: DesalignConfig, dataset: &AlignmentDataset, seed: u64) -> Self {
        Self::try_new(cfg, dataset, seed).unwrap_or_else(|e| panic!("invalid DESAlign setup: {e}"))
    }

    /// Fallible counterpart of [`DesalignModel::new`]: reports an invalid
    /// configuration or a structurally broken dataset as a typed
    /// [`desalign_util::DesalignError`] instead of panicking. Audit the
    /// dataset first ([`desalign_mmkg::AlignmentDataset::audit`]) when
    /// the data comes from outside the process.
    pub fn try_new(
        cfg: DesalignConfig,
        dataset: &AlignmentDataset,
        seed: u64,
    ) -> Result<Self, desalign_util::DesalignError> {
        cfg.validate()?;
        dataset.validate().map_err(|e| {
            let class = e.class;
            e.wrap(class, dataset.name.clone(), "dataset failed validation during model setup")
        })?;
        // Cross-check config against dataset scale: a CSLS neighbourhood
        // as large as the candidate pool would be silently clamped by the
        // rescaler and degenerate to a global mean.
        let pool = dataset.source.num_entities.min(dataset.target.num_entities);
        if cfg.retrieval.csls_k >= pool {
            return Err(desalign_util::DesalignError::config(
                "retrieval.csls_k",
                format!(
                    "CSLS neighbourhood k = {} must be smaller than the {}-entity candidate pool of {}",
                    cfg.retrieval.csls_k, pool, dataset.name
                ),
            ));
        }
        Ok(Self::new_unchecked(cfg, dataset, seed))
    }

    /// The construction body shared by `new`/`try_new`; assumes `cfg` and
    /// `dataset` were already validated.
    fn new_unchecked(cfg: DesalignConfig, dataset: &AlignmentDataset, seed: u64) -> Self {
        let mut rng = rng_from_seed(seed);
        let mut store = ParamStore::new();
        let encoder = MultiModalEncoder::new(&mut store, &mut rng, &cfg, dataset);
        let in_s = GraphInputs::prepare(&dataset.source, &cfg, &mut rng);
        let in_t = GraphInputs::prepare(&dataset.target, &cfg, &mut rng);
        let known = [consistency_mask(&in_s.features), consistency_mask(&in_t.features)];
        Self {
            cfg,
            store,
            encoder,
            inputs: [in_s, in_t],
            known,
            rng,
            seed,
            dataset_digest: crate::checkpoint::dataset_digest(dataset),
            chaos: None,
            pseudo_pairs: Vec::new(),
            energy_traces: Vec::new(),
            ws: desalign_nn::shared_workspace(),
        }
    }

    /// Allocation counters of the shared gradient workspace — `fresh` goes
    /// flat once training reaches its steady state (asserted in tests and
    /// the CI tape-allocation check).
    pub fn workspace_stats(&self) -> desalign_nn::WorkspaceStats {
        self.ws.borrow().stats()
    }

    /// The active configuration.
    pub fn config(&self) -> &DesalignConfig {
        &self.cfg
    }

    /// The seed this model was constructed with (checkpoints are
    /// digest-checked against it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Final entity semantic embeddings `(X_s, X_t)` — the early-fusion
    /// `h^Ori` the paper selects for evaluation (§IV-A).
    pub fn embeddings(&self) -> (Matrix, Matrix) {
        let mut sess = Session::new(&self.store);
        let enc_s = self.encoder.forward(&mut sess, &self.inputs[0], 0);
        let enc_t = self.encoder.forward(&mut sess, &self.inputs[1], 1);
        (sess.tape.value(enc_s.h_ori).clone(), sess.tape.value(enc_t.h_ori).clone())
    }

    /// The pairwise-similarity matrix `Ω`, with Semantic Propagation
    /// averaging when enabled (Algorithm 1 lines 11–15).
    pub fn similarity(&self) -> SimilarityMatrix {
        let iterations = if self.cfg.ablation.use_semantic_propagation { self.cfg.sp_iterations } else { 0 };
        self.similarity_with_iterations(iterations)
    }

    /// Similarity with an explicit `n_p` (for the Figure 4 sweep).
    pub fn similarity_with_iterations(&self, iterations: usize) -> SimilarityMatrix {
        let (x_s, x_t) = self.embeddings();
        if self.cfg.sp_per_modality {
            let blocks = vec![self.encoder.hidden_dim(); self.encoder.modalities().len()];
            per_modality_propagation_similarity(
                &x_s,
                &x_t,
                &self.inputs[0].adj_norm,
                &self.inputs[1].adj_norm,
                &self.modality_masks(0),
                &self.modality_masks(1),
                &blocks,
                iterations,
            )
        } else {
            semantic_propagation_similarity(
                &x_s,
                &x_t,
                &self.inputs[0].adj_norm,
                &self.inputs[1].adj_norm,
                &self.known[0],
                &self.known[1],
                iterations,
                self.cfg.sp_reset_known,
            )
        }
    }

    /// Evaluates H@k / MRR on the dataset's test pairs through the
    /// configured retrieval backend (see [`Self::evaluate_pairs`]).
    pub fn evaluate(&self, dataset: &AlignmentDataset) -> AlignmentMetrics {
        self.evaluate_pairs(&dataset.test_pairs)
    }

    /// Evaluation over arbitrary gold pairs (the trainer uses this for the
    /// validation split), searching the SP-flattened
    /// [`Self::retrieval_embeddings`] through the configured backend.
    ///
    /// A validated model fails retrieval only on non-finite embeddings
    /// (a diverged model) or pairs outside the dataset. Either way every
    /// query counts as a miss: the metrics are zero over `pairs.len()`
    /// queries, and `retrieval.build_errors` is counted.
    ///
    /// One `evaluate` span owns the whole call: the encoder forward and SP
    /// behind the embeddings, the index build and the ranking scan.
    pub fn evaluate_pairs(&self, pairs: &[(usize, usize)]) -> AlignmentMetrics {
        let _span = desalign_telemetry::span("evaluate");
        let (z_s, z_t) = self.retrieval_embeddings();
        desalign_eval::evaluate_ranking_embeddings(&z_s, &z_t, pairs, &self.cfg.retrieval.eval_config(self.seed))
            .unwrap_or_else(|_| {
                count_retrieval_build_error();
                AlignmentMetrics { num_queries: pairs.len(), ..AlignmentMetrics::default() }
            })
    }

    /// Mines mutual-nearest-neighbour pseudo pairs among the candidate
    /// entities through the configured backend, searching the SP-flattened
    /// embeddings. Mines nothing (and counts `retrieval.build_errors`)
    /// when retrieval fails, as in [`Self::evaluate_pairs`].
    pub fn mine_pseudo_pairs(
        &self,
        source_candidates: &[usize],
        target_candidates: &[usize],
        min_score: f32,
    ) -> Vec<(usize, usize, f32)> {
        let (z_s, z_t) = self.retrieval_embeddings();
        let cfg = self.cfg.retrieval.eval_config(self.seed);
        desalign_eval::mine_mutual_nn(&z_s, &z_t, source_candidates, target_candidates, min_score, &cfg)
            .unwrap_or_else(|_| {
                count_retrieval_build_error();
                Vec::new()
            })
    }

    /// CSLS-rescored top-`topk` alignment candidates per source entity,
    /// searched through the configured backend with the configured
    /// `retrieval.csls_k` neighbourhood.
    ///
    /// # Errors
    /// Propagates `csls_retrieve_top_k`'s typed errors (degenerate `k`,
    /// non-finite embeddings).
    pub fn csls_candidates(&self, topk: usize) -> Result<Vec<Vec<(usize, f32)>>, desalign_util::DesalignError> {
        let (z_s, z_t) = self.retrieval_embeddings();
        desalign_eval::csls_retrieve_top_k(
            &z_s,
            &z_t,
            self.cfg.retrieval.csls_k,
            topk,
            &self.cfg.retrieval.eval_config(self.seed),
        )
    }

    /// SP-flattened retrieval embeddings `(Z_s, Z_t)`: every Semantic
    /// Propagation round's state, ℓ2-normalized per round and concatenated
    /// along the feature axis. After the index's own row normalization,
    /// the inner product of two flattened rows equals the *mean* of the
    /// per-round cosines — the same quantity the dense SP-averaged
    /// [`Self::similarity`] matrix holds (exactly when all rounds are
    /// non-degenerate, up to float associativity) — so index-based search
    /// ranks by the paper's decision rule (Algorithm 1, line 15) without
    /// ever forming the `n_s × n_t` matrix.
    pub fn retrieval_embeddings(&self) -> (Matrix, Matrix) {
        let iterations = if self.cfg.ablation.use_semantic_propagation { self.cfg.sp_iterations } else { 0 };
        let (states_s, states_t) = self.sp_states(iterations);
        let flatten = |states: &[Matrix]| -> Matrix {
            let normed: Vec<Matrix> = states.iter().map(|m| m.l2_normalize_rows(1e-9)).collect();
            let refs: Vec<&Matrix> = normed.iter().collect();
            Matrix::hcat_all(&refs)
        };
        (flatten(&states_s), flatten(&states_t))
    }

    /// The per-round SP states both similarity and retrieval embeddings
    /// derive from.
    fn sp_states(&self, iterations: usize) -> (Vec<Matrix>, Vec<Matrix>) {
        let (x_s, x_t) = self.embeddings();
        if self.cfg.sp_per_modality {
            let blocks = vec![self.encoder.hidden_dim(); self.encoder.modalities().len()];
            per_modality_propagation_states(
                &x_s,
                &x_t,
                &self.inputs[0].adj_norm,
                &self.inputs[1].adj_norm,
                &self.modality_masks(0),
                &self.modality_masks(1),
                &blocks,
                iterations,
            )
        } else {
            semantic_propagation_states(
                &x_s,
                &x_t,
                &self.inputs[0].adj_norm,
                &self.inputs[1].adj_norm,
                &self.known[0],
                &self.known[1],
                iterations,
                self.cfg.sp_reset_known,
            )
        }
    }

    /// Per-modality presence masks in encoder concatenation order.
    fn modality_masks(&self, side: usize) -> Vec<Vec<bool>> {
        let f = &self.inputs[side].features;
        self.encoder
            .modalities()
            .iter()
            .map(|m| match m {
                crate::encoder::Modality::Structure => vec![true; f.num_entities()],
                crate::encoder::Modality::Relation => f.has_relation.clone(),
                crate::encoder::Modality::Text => f.has_attribute.clone(),
                crate::encoder::Modality::Visual => f.has_visual.clone(),
            })
            .collect()
    }

    /// Energy diagnostics accumulated during training, plus the current
    /// Proposition 2 singular-value ranges of the per-modality FC weights.
    pub fn energy_diagnostics(&self) -> EnergyDiagnostics {
        let fc_singular_values = self
            .encoder
            .fc_weights()
            .into_iter()
            .map(|(m, id)| (m.letter(), singular_value_range(self.store.value(id), 400, 1e-6)))
            .collect();
        EnergyDiagnostics { traces: self.energy_traces.clone(), fc_singular_values }
    }

    /// Read access to the underlying parameter store (for tests and
    /// diagnostics).
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Saves all trained weights to a JSON checkpoint.
    pub fn save_weights(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.store.save_json(path)
    }

    /// Loads weights saved with [`DesalignModel::save_weights`] into this
    /// model. The model must have been built with the same configuration
    /// and dataset shape.
    pub fn load_weights(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        self.store.load_json(path)
    }
}

/// Counts one failed retrieval (see [`DesalignModel::evaluate_pairs`]).
fn count_retrieval_build_error() {
    if desalign_telemetry::enabled() {
        desalign_telemetry::counter("retrieval.build_errors").incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desalign_mmkg::{DatasetSpec, SynthConfig};

    fn tiny_cfg() -> DesalignConfig {
        let mut cfg = DesalignConfig::fast();
        cfg.hidden_dim = 16;
        cfg.feature_dims = desalign_mmkg::FeatureDims { relation: 32, attribute: 32, visual: 64 };
        cfg.epochs = 8;
        cfg.batch_size = 64;
        cfg
    }

    #[test]
    fn fit_decreases_loss_and_evaluates() {
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(80).generate(1);
        let mut model = DesalignModel::new(tiny_cfg(), &ds, 7);
        let report = model.fit(&ds);
        assert_eq!(report.epochs_run, 8);
        assert!(report.loss_decreased(), "loss history: {:?}", report.loss_history.iter().map(|b| b.total).collect::<Vec<_>>());
        let metrics = model.evaluate(&ds);
        assert!(metrics.num_queries > 0);
        assert!(metrics.hits_at_1 >= 0.0 && metrics.hits_at_1 <= 1.0);
    }

    #[test]
    fn trained_model_beats_untrained() {
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(100).generate(2);
        let mut cfg = tiny_cfg();
        cfg.epochs = 30;
        let mut trained = DesalignModel::new(cfg.clone(), &ds, 3);
        let untrained = DesalignModel::new(cfg, &ds, 3);
        trained.fit(&ds);
        let m_trained = trained.evaluate(&ds);
        let m_untrained = untrained.evaluate(&ds);
        assert!(
            m_trained.mrr > m_untrained.mrr,
            "training should help: {} vs {}",
            m_trained.mrr,
            m_untrained.mrr
        );
    }

    #[test]
    fn determinism_given_seed() {
        let ds = SynthConfig::preset(DatasetSpec::FbYg15k).scaled(60).generate(4);
        let run = || {
            let mut model = DesalignModel::new(tiny_cfg(), &ds, 11);
            model.fit(&ds);
            model.evaluate(&ds)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sp_iterations_zero_matches_disabled_sp() {
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(5);
        let mut cfg = tiny_cfg();
        cfg.epochs = 3;
        let mut model = DesalignModel::new(cfg, &ds, 13);
        model.fit(&ds);
        let explicit = model.similarity_with_iterations(0);
        let mut cfg2 = model.config().clone();
        cfg2.ablation.use_semantic_propagation = false;
        // Rebuild similarity with SP ablated via config path.
        let via_cfg = {
            let mut m2 = DesalignModel::new(cfg2, &ds, 13);
            m2.store.restore(&model.store.snapshot());
            m2.similarity()
        };
        assert_eq!(explicit.scores(), via_cfg.scores());
    }

    #[test]
    fn checkpoint_round_trip_restores_metrics() {
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(7);
        let mut cfg = tiny_cfg();
        cfg.epochs = 6;
        let mut model = DesalignModel::new(cfg.clone(), &ds, 23);
        model.fit(&ds);
        let trained = model.evaluate(&ds);
        let path = std::env::temp_dir().join("desalign-model-ckpt.json");
        model.save_weights(&path).expect("save");
        let mut fresh = DesalignModel::new(cfg, &ds, 23);
        fresh.load_weights(&path).expect("load");
        assert_eq!(fresh.evaluate(&ds), trained);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn diverged_model_scores_zero_hits_not_a_perfect_score() {
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(8);
        let mut model = DesalignModel::new(tiny_cfg(), &ds, 29);
        let ids: Vec<_> = model.store.ids().collect();
        for id in ids {
            model.store.value_mut(id).as_mut_slice().fill(f32::NAN);
        }
        let (z_s, z_t) = model.retrieval_embeddings();
        let cfg = model.config().retrieval.eval_config(model.seed());
        let err = desalign_eval::evaluate_ranking_embeddings(&z_s, &z_t, &ds.test_pairs, &cfg).unwrap_err();
        assert_eq!(err.class, desalign_util::DefectClass::NonFiniteFeature);
        let metrics = model.evaluate(&ds);
        assert_eq!(metrics, AlignmentMetrics { num_queries: ds.test_pairs.len(), ..AlignmentMetrics::default() });
        assert!(model.mine_pseudo_pairs(&[0, 1, 2], &[0, 1, 2], -1.0).is_empty());
    }

    #[test]
    fn energy_traces_are_recorded() {
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(6);
        let mut cfg = tiny_cfg();
        cfg.eval_every = 2;
        let mut model = DesalignModel::new(cfg, &ds, 17);
        let report = model.fit(&ds);
        assert!(!report.energy_history.is_empty());
        let diag = model.energy_diagnostics();
        assert_eq!(diag.fc_singular_values.len(), 3);
        for &(_, (smin, smax)) in &diag.fc_singular_values {
            assert!(smax >= smin && smin >= 0.0);
        }
    }
}
