//! DESAlign — Dirichlet Energy driven Semantic-consistent multi-modal
//! entity ALIGNment (the paper's primary contribution).
//!
//! The model has three pillars, mapped one-to-one onto modules:
//!
//! 1. **Multi-modal knowledge graph representation** (§IV-A) —
//!    [`encoder`]: a GAT structure branch (Eq. 7), per-modality FC branches
//!    (Eq. 8), and a stack of Cross-modal Attention Weighted blocks with
//!    modal confidences (Eq. 9–13), yielding the early-fusion `h^Ori` and
//!    late-fusion `h^Fus` joint embeddings (Eq. 14).
//! 2. **Multi-modal semantic learning** (§IV-B) — [`loss`]: the
//!    contrastive alignment objectives `ℒ_task` / `ℒ_m` with
//!    min-confidence weighting (Eq. 16–17) and the Dirichlet-energy
//!    constraints of Proposition 3 enforced as soft penalties, which is
//!    what prevents the over-smoothing collapse of Proposition 2.
//! 3. **Semantic propagation** (§IV-C) — [`propagate`]: missing-modality
//!    interpolation by explicit-Euler gradient flow of the Dirichlet energy
//!    (Eq. 20–22), with the similarity averaged over propagation rounds
//!    (Algorithm 1).
//!
//! [`DesalignModel`] wires these together behind a `fit` / `evaluate` API;
//! [`iterative`] adds the bootstrapping pseudo-seed strategy used for the
//! "Iterative" table rows. The loop itself lives in [`trainer`], split
//! into begin/epochs/end phases with a divergence watchdog, and
//! [`checkpoint`] persists the full training state crash-safely with
//! bit-identical resume (see `docs/RELIABILITY.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod encoder;
pub mod energy;
pub mod iterative;
pub mod loss;
pub mod model;
pub mod propagate;
pub mod train;
pub mod trainer;

pub use checkpoint::{config_digest, dataset_digest, CHECKPOINT_FORMAT, CHECKPOINT_VERSION};
pub use config::{
    Ablation, DesalignConfig, RetrievalBackend, RetrievalSettings, SampledTrainingSettings, StructureEncoderKind,
    WatchdogConfig,
};
pub use encoder::{EncodedGraph, MultiModalEncoder, Modality};
pub use energy::{EnergyDiagnostics, EnergyTrace};
pub use iterative::{iterative_fit, IterativeConfig, IterativeReport};
pub use loss::LossBreakdown;
pub use model::DesalignModel;
pub use train::TrainReport;
pub use trainer::{ChaosPlan, TrainState};
pub use propagate::{per_modality_propagation_similarity, semantic_propagation_similarity};
