//! Prints a 64-bit fingerprint of a small end-to-end pipeline run: dataset
//! generation, two training epochs, Semantic Propagation decoding, and the
//! final metrics — everything hashed at the `f32` bit level.
//!
//! `ci.sh` runs this binary twice, once with `DESALIGN_THREADS=1` and once
//! with the environment default, and diffs the output: any divergence means
//! a kernel's result depends on the thread count, which the
//! `desalign-parallel` design forbids. Stdout carries exactly one line (the
//! fingerprint) so a plain `diff` is the whole check.
//!
//! The block-sampled training path is pinned by the
//! `sampled_parameters_match_pinned_bits` test instead (at 1, 2 and 7
//! threads).

use desalign_core::{DesalignConfig, DesalignModel};
use desalign_mmkg::{DatasetSpec, FeatureDims, SynthConfig};
use desalign_util::Fnv64;

fn main() {
    let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(80).with_image_ratio(0.6).generate(5);
    let mut cfg = DesalignConfig::fast();
    cfg.hidden_dim = 32;
    cfg.feature_dims = FeatureDims { relation: 64, attribute: 64, visual: 64 };
    cfg.epochs = 2;
    cfg.batch_size = 64;
    let mut model = DesalignModel::new(cfg, &ds, 31);
    model.fit(&ds);
    let sim = model.similarity_with_iterations(2);
    let metrics = model.evaluate(&ds);

    let mut h = Fnv64::new();
    for v in sim.scores().as_slice().iter().chain(&[metrics.hits_at_1, metrics.hits_at_10, metrics.mrr]) {
        h.write(&v.to_bits().to_le_bytes());
    }
    h.write_u64(metrics.num_queries as u64);
    println!("{:016x}", h.finish());
}
