//! Hyperparameters, with the paper's defaults (§V-A4) and a laptop-scale
//! profile used by tests and the synthetic benchmarks.

use desalign_mmkg::FeatureDims;
use desalign_util::{json, DesalignError, Json, ToJson};

/// Ablation switches — each corresponds to one bar of Figure 3 (left).
#[derive(Clone, Copy, Debug)]
pub struct Ablation {
    /// `w/o g` — drop the graph-structure modality.
    pub use_structure: bool,
    /// `w/o r` — drop the relation modality.
    pub use_relation: bool,
    /// `w/o t` — drop the text-attribute modality.
    pub use_text: bool,
    /// `w/o v` — drop the visual modality.
    pub use_visual: bool,
    /// `w/o ℒ_task^(0)` — drop the early-fusion task loss.
    pub use_loss_task0: bool,
    /// `w/o ℒ_task^(k)` — drop the late-fusion task loss.
    pub use_loss_taskk: bool,
    /// `w/o ℒ_m^(k-1)` — drop the penultimate-layer intra-modal losses.
    pub use_loss_mk1: bool,
    /// `w/o ℒ_m^(k)` — drop the final-layer intra-modal losses.
    pub use_loss_mk: bool,
    /// `w/o PP` — disable Semantic Propagation at inference.
    pub use_semantic_propagation: bool,
    /// `w/o energy` — disable the Dirichlet-energy constraint penalty
    /// (the MMSL bound of Proposition 3).
    pub use_energy_constraint: bool,
    /// `w/o φ` — disable min-confidence loss weighting.
    pub use_confidence_weighting: bool,
    /// Weight the joint embeddings by the modal confidences `w̃^m`
    /// (Eq. 14); when disabled, modalities are concatenated uniformly.
    pub use_confidence_fusion: bool,
}

impl Default for Ablation {
    fn default() -> Self {
        Self {
            use_structure: true,
            use_relation: true,
            use_text: true,
            use_visual: true,
            use_loss_task0: true,
            use_loss_taskk: true,
            use_loss_mk1: true,
            use_loss_mk: true,
            use_semantic_propagation: true,
            use_energy_constraint: true,
            use_confidence_weighting: true,
            use_confidence_fusion: true,
        }
    }
}

impl Ablation {
    /// Number of active modalities.
    pub fn num_modalities(&self) -> usize {
        [self.use_structure, self.use_relation, self.use_text, self.use_visual].iter().filter(|&&b| b).count()
    }
}

/// Training watchdog thresholds (see `docs/RELIABILITY.md`).
///
/// The watchdog inspects every epoch *after* the backward pass and
/// *before* the optimizer step — gradients, loss, and the sampled
/// Dirichlet energy — so a poisoned update can be rejected while the
/// weights are still clean. On a trip it rolls the run back to the last
/// good in-memory snapshot with a deterministically perturbed sampling
/// stream.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Master switch; when off, epochs are never checked and no snapshots
    /// are kept.
    pub enabled: bool,
    /// A finite loss larger than `spike_factor ×` the last good loss
    /// counts as divergence. Keep well above natural epoch-to-epoch noise;
    /// non-finite values trip regardless of this factor.
    pub spike_factor: f32,
    /// Capture a rollback snapshot every this many epochs (≥ 1).
    pub snapshot_every: usize,
    /// Give up (stop training on the last good state) after this many
    /// rollbacks in one run.
    pub max_rollbacks: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self { enabled: true, spike_factor: 100.0, snapshot_every: 1, max_rollbacks: 3 }
    }
}

/// Which structure-branch encoder to use (Eq. 7). The paper uses a GAT;
/// a vanilla GCN is provided for the architecture study (and is stronger
/// at very small graph scales, where attention heads are data-starved).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StructureEncoderKind {
    /// Graph attention network (paper default).
    Gat,
    /// Two-layer mean-pooling GCN.
    Gcn,
}

/// Which [`desalign_eval::ItemIndex`] backend evaluation, CSLS decoding,
/// pseudo-pair mining and serving search through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetrievalBackend {
    /// Exact scan over SP-flattened embeddings: scores are exact cosines
    /// of the concatenated per-round SP states, i.e. the mean of the
    /// per-round cosines.
    Exact,
    /// Deterministic IVF approximate index over the same embeddings —
    /// sub-quadratic search, recall-gated by `ci.sh` / `retrieval_bench`.
    Ivf,
}

/// Sub-quadratic retrieval settings.
#[derive(Clone, Copy, Debug)]
pub struct RetrievalSettings {
    /// Backend selection (default [`RetrievalBackend::Exact`]).
    pub backend: RetrievalBackend,
    /// IVF cell count; `0` selects `⌈√n⌉` automatically.
    pub nlist: usize,
    /// IVF cells probed per query (recall/speed trade-off knob). Must be
    /// ≥ 1.
    pub nprobe: usize,
    /// IVF k-means refinement rounds.
    pub kmeans_iters: usize,
    /// CSLS neighbourhood size `k` used by CSLS decoding. Must be ≥ 1 and
    /// smaller than either graph's entity count (larger values would make
    /// the neighbourhood mean degenerate to a global mean).
    pub csls_k: usize,
}

impl Default for RetrievalSettings {
    fn default() -> Self {
        Self { backend: RetrievalBackend::Exact, nlist: 0, nprobe: 16, kmeans_iters: 8, csls_k: 10 }
    }
}

impl RetrievalSettings {
    /// The embedding-level `desalign-eval` configuration this selects.
    pub fn eval_config(&self, seed: u64) -> desalign_eval::RetrievalConfig {
        desalign_eval::RetrievalConfig {
            kind: match self.backend {
                RetrievalBackend::Exact => desalign_eval::IndexKind::Exact,
                RetrievalBackend::Ivf => desalign_eval::IndexKind::Ivf,
            },
            ivf: desalign_eval::IvfParams {
                nlist: self.nlist,
                nprobe: self.nprobe,
                kmeans_iters: self.kmeans_iters,
                seed,
            },
        }
    }
}

/// Out-of-core neighborhood-sampled training (streaming data plane).
///
/// When enabled, [`DesalignModel::fit`](crate::DesalignModel::fit) trains
/// by iterating contiguous source-entity blocks — the same blocking the
/// shard format uses (`docs/DATA_FORMAT.md`) — encoding only each block's
/// [`sample_neighborhood`](desalign_graph::sample_neighborhood) subgraph
/// per step instead of the full graphs. Off by default: the full-graph
/// path (and every fingerprint gated on it) is untouched.
#[derive(Clone, Copy, Debug)]
pub struct SampledTrainingSettings {
    /// Train in neighborhood-sampled blocks (see `crate::trainer`).
    pub enabled: bool,
    /// Source entities per block (mirrors `shard_entities`; must be ≥ 1
    /// when enabled).
    pub block_entities: usize,
    /// Maximum sampled out-of-block neighbors (halo) per core entity.
    /// `0` trains each block as an isolated induced subgraph.
    pub halo_per_node: usize,
}

impl Default for SampledTrainingSettings {
    fn default() -> Self {
        Self { enabled: false, block_entities: 512, halo_per_node: 8 }
    }
}

/// Full DESAlign configuration.
#[derive(Clone, Debug)]
pub struct DesalignConfig {
    /// Unified hidden dimension `d` (paper: 300).
    pub hidden_dim: usize,
    /// Raw feature dims for BoW / vision inputs (paper: 1000/1000/2048).
    pub feature_dims: FeatureDims,
    /// Structure encoder architecture.
    pub structure_encoder: StructureEncoderKind,
    /// GAT attention heads (paper: 2).
    pub gat_heads: usize,
    /// GAT layers (paper: 2).
    pub gat_layers: usize,
    /// CAW multi-attention heads `N_h` (paper: 1).
    pub caw_heads: usize,
    /// Semantic-encoder depth `k` — number of stacked CAW blocks; the
    /// Proposition 3 constraint couples layers `k`, `k−1` and `0`.
    pub caw_layers: usize,
    /// Contrastive temperature `τ` (paper: 0.1).
    pub tau: f32,
    /// Training epochs (paper: 500).
    pub epochs: usize,
    /// Pairs per contrastive batch (paper: 3500; in-batch negatives).
    pub batch_size: usize,
    /// AdamW peak learning rate.
    pub lr: f32,
    /// AdamW decoupled weight decay.
    pub weight_decay: f32,
    /// Warmup fraction of the cosine schedule (paper: 0.15).
    pub warmup_frac: f32,
    /// Early-stopping patience in evaluations (0 disables).
    pub early_stop_patience: usize,
    /// Evaluate the validation split every this many epochs.
    pub eval_every: usize,
    /// Lower energy-bound coefficient `c_min` of Eq. 15 (in `(0, 1)`).
    pub c_min: f32,
    /// Upper energy-bound coefficient `c_max` of Eq. 15.
    pub c_max: f32,
    /// Weight of the energy-constraint penalty in the total loss.
    pub energy_weight: f32,
    /// Semantic Propagation rounds `n_p` (Figure 4; paper: 1 for bilingual,
    /// 2–3 for monolingual).
    pub sp_iterations: usize,
    /// Whether SP resets boundary (consistent) features each round. The
    /// paper's practice lets consistent features join the propagation
    /// (§V-F), i.e. `false`.
    pub sp_reset_known: bool,
    /// Per-modality SP: propagate each modality block independently with
    /// that modality's presence mask as the boundary, interpolating only
    /// missing blocks (see `per_modality_propagation_similarity`). When
    /// false, the joint embedding is propagated as one matrix (Alg. 1).
    pub sp_per_modality: bool,
    /// ℓ2-normalize each modality block inside the joint embeddings
    /// (Eq. 14) so no branch dominates by norm; disabled, blocks keep their
    /// learned norms (free norm-based modality weighting).
    pub fusion_normalize: bool,
    /// Compute `ℒ_m^(k−1)` on the branch embeddings `h^m` (true) or on the
    /// penultimate CAW layer (false).
    pub modal_k1_on_branch: bool,
    /// Rescale φ by |M| so uniform confidence gives unit weight.
    pub phi_rescale: bool,
    /// Mask absent modalities out of the Eq. 14 weighted fusion. An entity
    /// with no image (or no text) normally contributes its noise-filled
    /// feature row to the joint embedding; with masking on, that block's
    /// fusion weight is zeroed and the remaining modality weights are
    /// renormalized so the present modalities carry the entity's full
    /// representation. This is the true missing-modality degradation path
    /// (Prop. 3 robustness): noise rows stop polluting the joint embedding
    /// and the Dirichlet energy stays finite under arbitrary modality
    /// drop. Off by default to preserve the historical fusion exactly.
    pub mask_missing_modalities: bool,
    /// Blend factor α for the fusion weights of Eq. 14:
    /// `w_eff = α·w̃^m + (1−α)/|M|`. The modal confidences are estimated
    /// independently per graph, so fully trusting them (α = 1) makes the
    /// same modality carry different weights on the two sides of an aligned
    /// pair and scrambles the similarity; a small α keeps the adaptive
    /// signal while preserving cross-graph comparability.
    pub confidence_blend: f32,
    /// Training watchdog (NaN/spike rollback) thresholds.
    pub watchdog: WatchdogConfig,
    /// Sub-quadratic retrieval backend and its knobs.
    pub retrieval: RetrievalSettings,
    /// Out-of-core neighborhood-sampled training (off by default).
    pub sampled: SampledTrainingSettings,
    /// Ablation switches.
    pub ablation: Ablation,
}

impl DesalignConfig {
    /// The paper's configuration (§V-A4) — intended for full-scale data.
    pub fn paper() -> Self {
        Self {
            hidden_dim: 300,
            feature_dims: FeatureDims { relation: 1000, attribute: 1000, visual: 2048 },
            structure_encoder: StructureEncoderKind::Gat,
            gat_heads: 2,
            gat_layers: 2,
            caw_heads: 1,
            caw_layers: 2,
            tau: 0.1,
            epochs: 500,
            batch_size: 3500,
            lr: 5e-3,
            weight_decay: 1e-4,
            warmup_frac: 0.15,
            early_stop_patience: 10,
            eval_every: 5,
            c_min: 0.33,
            c_max: 2.0,
            energy_weight: 0.05,
            sp_iterations: 3,
            sp_reset_known: false,
            sp_per_modality: true,
            fusion_normalize: false,
            modal_k1_on_branch: false,
            phi_rescale: true,
            mask_missing_modalities: false,
            confidence_blend: 0.25,
            watchdog: WatchdogConfig::default(),
            retrieval: RetrievalSettings::default(),
            sampled: SampledTrainingSettings::default(),
            ablation: Ablation::default(),
        }
    }

    /// Laptop-scale profile matched to the synthetic presets (`d = 64`,
    /// 60 epochs). Used by tests, examples, and the benchmark harness.
    pub fn fast() -> Self {
        Self {
            hidden_dim: 64,
            feature_dims: FeatureDims { relation: 128, attribute: 128, visual: 64 },
            structure_encoder: StructureEncoderKind::Gat,
            gat_heads: 2,
            gat_layers: 2,
            caw_heads: 1,
            caw_layers: 2,
            tau: 0.1,
            epochs: 60,
            batch_size: 512,
            lr: 5e-3,
            weight_decay: 1e-4,
            warmup_frac: 0.15,
            early_stop_patience: 0,
            eval_every: 10,
            c_min: 0.33,
            c_max: 2.0,
            energy_weight: 0.05,
            sp_iterations: 3,
            sp_reset_known: false,
            sp_per_modality: true,
            fusion_normalize: false,
            modal_k1_on_branch: false,
            phi_rescale: true,
            mask_missing_modalities: false,
            confidence_blend: 0.25,
            watchdog: WatchdogConfig::default(),
            retrieval: RetrievalSettings::default(),
            sampled: SampledTrainingSettings::default(),
            ablation: Ablation::default(),
        }
    }

    /// Validates hyperparameter ranges. Each violation is reported as a
    /// typed [`DesalignError`] with class `config` and the offending
    /// field name as the location.
    pub fn validate(&self) -> Result<(), DesalignError> {
        if self.hidden_dim == 0 || !self.hidden_dim.is_multiple_of(self.caw_heads) {
            return Err(DesalignError::config(
                "hidden_dim",
                format!("{} must be a positive multiple of caw_heads {}", self.hidden_dim, self.caw_heads),
            ));
        }
        if !(0.0..1.0).contains(&self.c_min) {
            return Err(DesalignError::config("c_min", format!("{} must lie in (0,1) (Proposition 3)", self.c_min)));
        }
        if self.c_max <= 0.0 {
            return Err(DesalignError::config("c_max", format!("{} must be positive", self.c_max)));
        }
        if self.tau <= 0.0 {
            return Err(DesalignError::config("tau", format!("{} must be positive", self.tau)));
        }
        if self.ablation.num_modalities() == 0 {
            return Err(DesalignError::config("ablation", "at least one modality must stay enabled"));
        }
        if self.caw_layers == 0 {
            return Err(DesalignError::config("caw_layers", "must be ≥ 1"));
        }
        if !(0.0..=1.0).contains(&self.confidence_blend) {
            return Err(DesalignError::config("confidence_blend", format!("{} must lie in [0,1]", self.confidence_blend)));
        }
        if self.watchdog.enabled {
            if self.watchdog.spike_factor <= 1.0 {
                return Err(DesalignError::config(
                    "watchdog.spike_factor",
                    format!("{} must exceed 1", self.watchdog.spike_factor),
                ));
            }
            if self.watchdog.snapshot_every == 0 {
                return Err(DesalignError::config("watchdog.snapshot_every", "must be ≥ 1"));
            }
        }
        if self.retrieval.csls_k == 0 {
            return Err(DesalignError::config(
                "retrieval.csls_k",
                "CSLS neighbourhood k must be ≥ 1 (0 would be silently clamped to 1 by the rescaler)",
            ));
        }
        if self.retrieval.nprobe == 0 {
            return Err(DesalignError::config("retrieval.nprobe", "must be ≥ 1 (0 cells probed would return nothing)"));
        }
        if self.sampled.enabled && self.sampled.block_entities == 0 {
            return Err(DesalignError::config("sampled.block_entities", "must be ≥ 1 when sampled training is enabled"));
        }
        Ok(())
    }
}

impl ToJson for StructureEncoderKind {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                StructureEncoderKind::Gat => "Gat",
                StructureEncoderKind::Gcn => "Gcn",
            }
            .to_string(),
        )
    }
}

impl ToJson for RetrievalSettings {
    fn to_json(&self) -> Json {
        json!({
            "backend": match self.backend {
                RetrievalBackend::Exact => "Exact",
                RetrievalBackend::Ivf => "Ivf",
            },
            "nlist": self.nlist,
            "nprobe": self.nprobe,
            "kmeans_iters": self.kmeans_iters,
            "csls_k": self.csls_k,
        })
    }
}

impl ToJson for SampledTrainingSettings {
    fn to_json(&self) -> Json {
        json!({
            "enabled": self.enabled,
            "block_entities": self.block_entities,
            "halo_per_node": self.halo_per_node,
        })
    }
}

impl ToJson for WatchdogConfig {
    fn to_json(&self) -> Json {
        json!({
            "enabled": self.enabled,
            "spike_factor": self.spike_factor,
            "snapshot_every": self.snapshot_every,
            "max_rollbacks": self.max_rollbacks as usize,
        })
    }
}

impl ToJson for Ablation {
    fn to_json(&self) -> Json {
        json!({
            "use_structure": self.use_structure,
            "use_relation": self.use_relation,
            "use_text": self.use_text,
            "use_visual": self.use_visual,
            "use_loss_task0": self.use_loss_task0,
            "use_loss_taskk": self.use_loss_taskk,
            "use_loss_mk1": self.use_loss_mk1,
            "use_loss_mk": self.use_loss_mk,
            "use_semantic_propagation": self.use_semantic_propagation,
            "use_energy_constraint": self.use_energy_constraint,
            "use_confidence_weighting": self.use_confidence_weighting,
            "use_confidence_fusion": self.use_confidence_fusion,
        })
    }
}

impl ToJson for DesalignConfig {
    /// Serializes the configuration for provenance next to result dumps
    /// (write-only — configs are constructed in code, not loaded).
    fn to_json(&self) -> Json {
        json!({
            "hidden_dim": self.hidden_dim,
            "feature_dims": json!({
                "relation": self.feature_dims.relation,
                "attribute": self.feature_dims.attribute,
                "visual": self.feature_dims.visual,
            }),
            "structure_encoder": self.structure_encoder,
            "gat_heads": self.gat_heads,
            "gat_layers": self.gat_layers,
            "caw_heads": self.caw_heads,
            "caw_layers": self.caw_layers,
            "tau": self.tau,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "weight_decay": self.weight_decay,
            "warmup_frac": self.warmup_frac,
            "early_stop_patience": self.early_stop_patience,
            "eval_every": self.eval_every,
            "c_min": self.c_min,
            "c_max": self.c_max,
            "energy_weight": self.energy_weight,
            "sp_iterations": self.sp_iterations,
            "sp_reset_known": self.sp_reset_known,
            "sp_per_modality": self.sp_per_modality,
            "fusion_normalize": self.fusion_normalize,
            "modal_k1_on_branch": self.modal_k1_on_branch,
            "phi_rescale": self.phi_rescale,
            "mask_missing_modalities": self.mask_missing_modalities,
            "confidence_blend": self.confidence_blend,
            "watchdog": self.watchdog,
            "retrieval": self.retrieval,
            "sampled": self.sampled,
            "ablation": self.ablation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert_eq!(DesalignConfig::paper().validate(), Ok(()));
        assert_eq!(DesalignConfig::fast().validate(), Ok(()));
    }

    #[test]
    fn validation_catches_bad_ranges() {
        let mut c = DesalignConfig::fast();
        c.c_min = 1.5;
        assert!(c.validate().is_err());
        let mut c = DesalignConfig::fast();
        c.tau = 0.0;
        assert!(c.validate().is_err());
        let mut c = DesalignConfig::fast();
        c.hidden_dim = 63;
        c.caw_heads = 2;
        assert!(c.validate().is_err());
        let mut c = DesalignConfig::fast();
        c.ablation.use_structure = false;
        c.ablation.use_relation = false;
        c.ablation.use_text = false;
        c.ablation.use_visual = false;
        assert!(c.validate().is_err());
    }

    #[test]
    fn watchdog_validation() {
        let mut c = DesalignConfig::fast();
        c.watchdog.spike_factor = 0.5;
        assert!(c.validate().is_err());
        let mut c = DesalignConfig::fast();
        c.watchdog.snapshot_every = 0;
        assert!(c.validate().is_err());
        // A disabled watchdog skips threshold checks entirely.
        c.watchdog.enabled = false;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn retrieval_validation_rejects_degenerate_knobs() {
        // Hostile input: a zero CSLS neighbourhood used to be silently
        // clamped; it must now fail validation with a Config defect.
        let mut c = DesalignConfig::fast();
        c.retrieval.csls_k = 0;
        let err = c.validate().unwrap_err();
        assert_eq!(err.class, desalign_util::DefectClass::Config);
        assert_eq!(err.location, "retrieval.csls_k");
        let mut c = DesalignConfig::fast();
        c.retrieval.nprobe = 0;
        assert_eq!(c.validate().unwrap_err().location, "retrieval.nprobe");
    }

    #[test]
    fn config_serializes_for_provenance() {
        let v = DesalignConfig::fast().to_json();
        let text = v.to_string();
        let back = Json::parse(&text).expect("config JSON parses back");
        assert_eq!(back.get("hidden_dim").unwrap().as_usize(), Some(64));
        assert_eq!(back.get("structure_encoder").unwrap().as_str(), Some("Gat"));
        assert_eq!(back.get("ablation").unwrap().get("use_visual").unwrap().as_bool(), Some(true));
        assert_eq!(back.get("feature_dims").unwrap().get("visual").unwrap().as_usize(), Some(64));
    }

    #[test]
    fn ablation_counts_modalities() {
        let mut a = Ablation::default();
        assert_eq!(a.num_modalities(), 4);
        a.use_visual = false;
        assert_eq!(a.num_modalities(), 3);
    }
}
