//! Regression pins for the retrieval index.
//!
//! The H@k / MRR bit patterns below were captured on the seed synthetic
//! dataset when evaluation still ranked a materialized dense similarity
//! matrix. They pin, to the bit, that the default backend (the exact scan
//! over `DesalignModel::retrieval_embeddings`) reproduces that path, and
//! that the model-level CSLS-k validation rejects the silently-clamping
//! configurations.

use desalign_core::{DesalignConfig, DesalignModel, RetrievalBackend};
use desalign_mmkg::{DatasetSpec, FeatureDims, SynthConfig};
use desalign_util::DefectClass;

fn tiny_cfg() -> DesalignConfig {
    let mut cfg = DesalignConfig::fast();
    cfg.hidden_dim = 16;
    cfg.feature_dims = FeatureDims { relation: 32, attribute: 32, visual: 64 };
    cfg.epochs = 8;
    cfg.batch_size = 64;
    cfg
}

fn seed_dataset() -> desalign_mmkg::AlignmentDataset {
    SynthConfig::preset(DatasetSpec::FbDb15k).scaled(80).generate(1)
}

/// (H@1, H@10, MRR) f32 bit patterns of the untrained model at seed 7.
const UNTRAINED_BITS: (u32, u32, u32) = (1040498081, 1061003567, 1050537162);
/// Same model after `fit` (8 epochs).
const TRAINED_BITS: (u32, u32, u32) = (1041740838, 1061935635, 1052147726);
const NUM_QUERIES: usize = 54;

fn metric_bits(m: &desalign_eval::AlignmentMetrics) -> (u32, u32, u32) {
    (m.hits_at_1.to_bits(), m.hits_at_10.to_bits(), m.mrr.to_bits())
}

#[test]
fn default_backend_reproduces_pre_refactor_bits() {
    let ds = seed_dataset();
    let cfg = tiny_cfg();
    assert_eq!(cfg.retrieval.backend, RetrievalBackend::Exact, "the pins below are the default backend's");
    let mut model = DesalignModel::new(cfg, &ds, 7);

    let before = model.evaluate(&ds);
    assert_eq!(before.num_queries, NUM_QUERIES);
    assert_eq!(
        metric_bits(&before),
        UNTRAINED_BITS,
        "untrained metrics moved: got {before:?} — the exact index no longer reproduces the dense ranking"
    );

    model.fit(&ds);
    let after = model.evaluate(&ds);
    assert_eq!(after.num_queries, NUM_QUERIES);
    assert_eq!(
        metric_bits(&after),
        TRAINED_BITS,
        "trained metrics moved: got {after:?} — training or evaluation drifted from the pinned seed run"
    );
}

#[test]
fn ivf_backend_stays_close_on_the_seed_workload() {
    // IVF is approximate: no bit pin, but on the 54-pair seed workload its
    // metrics must stay within a few candidates of exact.
    let ds = seed_dataset();
    let mut cfg = tiny_cfg();
    cfg.retrieval.backend = RetrievalBackend::Ivf;
    cfg.retrieval.nprobe = 8; // ⌈√54⌉ = 8 cells → full probe on this size
    let model = DesalignModel::new(cfg, &ds, 7);
    let ivf = model.evaluate(&ds);
    assert_eq!(ivf.num_queries, NUM_QUERIES);
    let exact = f32::from_bits(UNTRAINED_BITS.1);
    assert!(
        (ivf.hits_at_10 - exact).abs() <= 4.0 / NUM_QUERIES as f32 + 1e-6,
        "IVF H@10 {} strayed > 4 candidates from exact {exact}",
        ivf.hits_at_10
    );
}

/// (H@1, H@10, MRR) bits of the IVF backend probing 2 of its 8 cells, for
/// the same untrained and trained seed-7 models as the exact pins. Taken
/// when every IVF score was still a per-pair `dot`: the NT-kernel scan and
/// k-means must keep the centroids, posting lists and candidate scores.
const IVF_UNTRAINED_BITS: (u32, u32, u32) = (1040498081, 1062246324, 1051355998);
const IVF_TRAINED_BITS: (u32, u32, u32) = (1041740838, 1063489081, 1052985675);

#[test]
fn ivf_backend_reproduces_pinned_bits_at_any_thread_count() {
    let ds = seed_dataset();
    let mut cfg = tiny_cfg();
    cfg.retrieval.backend = RetrievalBackend::Ivf;
    cfg.retrieval.nprobe = 2;
    let mut model = DesalignModel::new(cfg, &ds, 7);
    for threads in [1, 2, 7] {
        let before = desalign_parallel::with_threads(threads, || model.evaluate(&ds));
        assert_eq!(before.num_queries, NUM_QUERIES);
        assert_eq!(metric_bits(&before), IVF_UNTRAINED_BITS, "untrained IVF metrics moved at {threads} threads: {before:?}");
    }
    model.fit(&ds);
    for threads in [1, 2, 7] {
        let after = desalign_parallel::with_threads(threads, || model.evaluate(&ds));
        assert_eq!(metric_bits(&after), IVF_TRAINED_BITS, "trained IVF metrics moved at {threads} threads: {after:?}");
    }
}

#[test]
fn model_rejects_csls_k_larger_than_the_candidate_pool() {
    let ds = seed_dataset();
    let mut cfg = tiny_cfg();
    cfg.retrieval.csls_k = ds.source.num_entities.max(ds.target.num_entities) + 10;
    let Err(err) = DesalignModel::try_new(cfg, &ds, 7) else {
        panic!("csls_k beyond the pool must be rejected");
    };
    assert_eq!(err.class, DefectClass::Config);
    assert!(err.to_string().contains("csls_k"), "error should name the knob: {err}");
}
