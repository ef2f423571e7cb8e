//! Determinism regression tests: with the RNG now implemented in-repo,
//! every seeded stage of the pipeline must be reproducible to the bit.
//! A platform- or build-dependent divergence anywhere in generation,
//! initialization, or training shows up here as a byte-level mismatch.

use desalign::core::{DesalignConfig, DesalignModel};
use desalign::mmkg::{DatasetSpec, FeatureDims, SynthConfig};
use desalign::tensor::{glorot_uniform, rng_from_seed, Matrix};

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn synthetic_generation_is_byte_identical_across_runs() {
    let gen = || SynthConfig::preset(DatasetSpec::Dbp15kZhEn).scaled(80).with_image_ratio(0.5).generate(9);
    let (a, b) = (gen(), gen());
    assert_eq!(a.source.rel_triples, b.source.rel_triples);
    assert_eq!(a.source.attr_triples, b.source.attr_triples);
    assert_eq!(a.target.rel_triples, b.target.rel_triples);
    assert_eq!(a.train_pairs, b.train_pairs);
    assert_eq!(a.test_pairs, b.test_pairs);
    // Image features are floats — compare at the bit level.
    for (x, y) in a.source.images.iter().zip(&b.source.images) {
        match (x, y) {
            (Some(x), Some(y)) => {
                assert_eq!(x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), y.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            }
            (None, None) => {}
            _ => panic!("image presence differs between identical runs"),
        }
    }
}

#[test]
fn glorot_init_is_byte_identical_across_runs() {
    let init = || glorot_uniform(&mut rng_from_seed(77), 33, 17);
    assert_eq!(bits(&init()), bits(&init()));
    // And genuinely seed-dependent.
    assert_ne!(bits(&glorot_uniform(&mut rng_from_seed(78), 33, 17)), bits(&init()));
}

#[test]
fn one_training_step_is_byte_identical_across_runs() {
    let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(80).generate(5);
    let run = || {
        let mut cfg = DesalignConfig::fast();
        cfg.hidden_dim = 32;
        cfg.feature_dims = FeatureDims { relation: 64, attribute: 64, visual: 64 };
        cfg.epochs = 1;
        cfg.batch_size = 64;
        let mut model = DesalignModel::new(cfg, &ds, 31);
        model.fit(&ds);
        bits(model.similarity_with_iterations(1).scores())
    };
    assert_eq!(run(), run(), "one epoch + SP diverged between identical seeded runs");
}

#[test]
fn training_is_byte_identical_with_telemetry_on_and_off() {
    // Telemetry is strictly read-only: spans, counters, and epoch records
    // observe the computation but never feed back into it, so forcing
    // collection on must reproduce the telemetry-off run bit-for-bit.
    let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(80).generate(5);
    let run = |telemetry_on: bool| {
        desalign::telemetry::set_enabled(Some(telemetry_on));
        let mut cfg = DesalignConfig::fast();
        cfg.hidden_dim = 32;
        cfg.feature_dims = FeatureDims { relation: 64, attribute: 64, visual: 64 };
        cfg.epochs = 2;
        cfg.batch_size = 64;
        let mut model = DesalignModel::new(cfg, &ds, 31);
        model.fit(&ds);
        let out = bits(model.similarity_with_iterations(2).scores());
        desalign::telemetry::set_enabled(None);
        out
    };
    assert_eq!(run(false), run(true), "telemetry collection changed training results");
}

#[test]
fn one_training_step_is_byte_identical_across_thread_counts() {
    // The end-to-end guarantee behind desalign-parallel: training a step and
    // decoding on 7 threads must reproduce the serial build bit-for-bit,
    // because every parallelized kernel partitions work so each f32 keeps
    // its serial summation order.
    let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(80).generate(5);
    let run = |threads: usize| {
        desalign::parallel::with_threads(threads, || {
            let mut cfg = DesalignConfig::fast();
            cfg.hidden_dim = 32;
            cfg.feature_dims = FeatureDims { relation: 64, attribute: 64, visual: 64 };
            cfg.epochs = 1;
            cfg.batch_size = 64;
            let mut model = DesalignModel::new(cfg, &ds, 31);
            model.fit(&ds);
            bits(model.similarity_with_iterations(1).scores())
        })
    };
    let serial = run(1);
    assert_eq!(run(2), serial, "2-thread training step diverged from the serial build");
    assert_eq!(run(7), serial, "7-thread training step diverged from the serial build");
}

/// FNV-1a 64 over every parameter's f32 bits (little-endian, store order)
/// after three epochs of a small `DesalignConfig::fast()` run.
fn trained_param_hash() -> u64 {
    let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(80).generate(5);
    let mut cfg = DesalignConfig::fast();
    cfg.hidden_dim = 32;
    cfg.feature_dims = FeatureDims { relation: 64, attribute: 64, visual: 64 };
    cfg.epochs = 3;
    cfg.batch_size = 64;
    let mut model = DesalignModel::new(cfg, &ds, 31);
    model.fit(&ds);
    let store = model.params();
    let bytes: Vec<u8> = store.ids().flat_map(|id| store.value(id).as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes())).collect();
    desalign::util::checksum64(&bytes)
}

#[test]
fn trained_parameters_match_pinned_bits() {
    // The other tests here compare a run with itself, so a kernel rewrite
    // that moves a bit consistently would pass them. This hash was taken
    // before the NT/TN kernel rewrite; every kernel change since must
    // reproduce it exactly. Moving it is a fingerprint migration: made on
    // purpose, documented and re-pinned, never as a side effect.
    assert_eq!(trained_param_hash(), 0xa044_6587_b101_deb6, "trained parameter bits moved");
}

/// FNV-1a 64 over every parameter's f32 bits after two epochs of
/// block-sampled training (32-entity source blocks, 4 halo neighbours per
/// core entity) on the same data and configuration as
/// [`trained_param_hash`].
fn sampled_param_hash() -> u64 {
    let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(80).with_image_ratio(0.6).generate(5);
    let mut cfg = DesalignConfig::fast();
    cfg.hidden_dim = 32;
    cfg.feature_dims = FeatureDims { relation: 64, attribute: 64, visual: 64 };
    cfg.epochs = 2;
    cfg.batch_size = 64;
    cfg.sampled.enabled = true;
    cfg.sampled.block_entities = 32;
    cfg.sampled.halo_per_node = 4;
    let mut model = DesalignModel::new(cfg, &ds, 31);
    model.fit(&ds);
    let store = model.params();
    let bytes: Vec<u8> = store.ids().flat_map(|id| store.value(id).as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes())).collect();
    desalign::util::checksum64(&bytes)
}

#[test]
fn sampled_parameters_match_pinned_bits() {
    // The sampled twin of `trained_parameters_match_pinned_bits`: the hash
    // was taken from the standalone block-sampled loop before it was folded
    // into the one trainer, so it proves the fold moved no bit. It must
    // also hold at every thread count.
    for threads in [1, 2, 7] {
        let hash = desalign::parallel::with_threads(threads, sampled_param_hash);
        assert_eq!(hash, 0x1d60_76db_5d61_6592, "sampled parameter bits moved at {threads} thread(s): {hash:#018x}");
    }
}
