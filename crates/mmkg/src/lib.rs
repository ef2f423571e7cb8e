//! Multi-modal knowledge graphs and the synthetic benchmark generator.
//!
//! The paper evaluates on five public MMKG pairs (Table I): the monolingual
//! FB15K–DB15K and FB15K–YAGO15K, and the bilingual DBP15K (ZH/JA/FR–EN)
//! variants with images attached. Those datasets (DBpedia/Freebase dumps +
//! ResNet-152 features) cannot be redistributed here, so this crate provides
//! a **statistically matched synthetic generator**: a latent "world" KG is
//! sampled, two overlapping views are derived with controlled structural
//! and attribute noise, and modal features are emitted per entity:
//!
//! - *visual* features simulate a pretrained CNN: a fixed random projection
//!   of the entity's latent vector plus per-view noise, so aligned entities
//!   get correlated-but-unequal image embeddings;
//! - *relation/attribute* features are Bag-of-Words count vectors hashed to
//!   fixed dims, exactly the paper's encoding (§V-A, following Yang et al.);
//! - *structure* comes from the view's relation triples.
//!
//! Semantic inconsistency is injected with the same knobs the paper sweeps:
//! `R_seed` (seed-alignment ratio), `R_img` (fraction of entities keeping
//! their image), `R_tex` (fraction keeping text attributes). Every preset of
//! Table I is available at configurable scale, which is what makes the 60
//! benchmark splits of the paper reproducible on a laptop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod features;
mod kg;
mod loader;
pub mod shard;
pub mod stream;
mod synth;

pub use audit::{dataset_fingerprint, AuditPolicy, AuditReport};
pub use features::{fill_missing_with_noise, FeatureDims, ModalFeatures};
pub use kg::{AlignmentDataset, KgStats, Mmkg};
pub use loader::{load_dataset_json, save_dataset_json};
pub use shard::{
    read_manifest, read_shard, shard_file_name, write_shards, Shard, ShardManifest, ShardMeta, SideMeta,
    MANIFEST_FILE,
};
pub use stream::{streaming_fingerprint, StreamReport, StreamingAuditor};
pub use synth::{DatasetSpec, SynthConfig};
