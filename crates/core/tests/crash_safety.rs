//! End-to-end crash-safety contract of the training checkpoint
//! (docs/RELIABILITY.md):
//!
//! 1. **Bit-identical resume** — `fit(n)` and `fit(k); save; kill; load;
//!    fit(n−k)` produce byte-identical weights, optimizer state, and
//!    post-resume loss history.
//! 2. **Torn writes are invisible** — killing a checkpoint overwrite at any
//!    byte leaves a file that verifies and resumes as exactly one of the
//!    two generations.
//! 3. **Mismatch rejection** — a checkpoint from a different seed or a
//!    damaged file is refused with a clean error, and `resume_or_start`
//!    only falls back to a fresh start when the file is *absent*.

use desalign_core::{DesalignConfig, DesalignModel};
use desalign_mmkg::{AlignmentDataset, DatasetSpec, SynthConfig};
use desalign_testkit::fault::{kill_during_atomic_write, truncate_file};
use desalign_util::{checksum64, read_verified, temp_path, FOOTER_LEN};
use std::path::PathBuf;

fn tiny_cfg(epochs: usize) -> DesalignConfig {
    let mut cfg = DesalignConfig::fast();
    cfg.hidden_dim = 16;
    cfg.feature_dims = desalign_mmkg::FeatureDims { relation: 32, attribute: 32, visual: 64 };
    cfg.epochs = epochs;
    cfg.batch_size = 64;
    cfg
}

fn dataset(seed: u64) -> AlignmentDataset {
    SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(seed)
}

fn ckpt_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("desalign-crash-safety");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(temp_path(&path)).ok();
    path
}

/// Bit-level fingerprint of everything the trajectory depends on that is
/// visible through the public API.
fn weights_fingerprint(model: &DesalignModel) -> u64 {
    checksum64(model.params().weights_to_json_string().as_bytes())
}

fn loss_bits(report: &desalign_core::TrainReport) -> Vec<u32> {
    report.loss_history.iter().map(|l| l.total.to_bits()).collect()
}

#[test]
fn resume_is_bit_identical_to_straight_run() {
    assert_resume_matches_straight_run(tiny_cfg(8), "resume-bit-identical.ckpt");
}

#[test]
fn sampled_resume_is_bit_identical_to_straight_run() {
    // Block-sampled training checkpoints and resumes through the same
    // loop: the blocks are rebuilt from the checkpointed pool.
    let mut cfg = tiny_cfg(8);
    cfg.sampled.enabled = true;
    cfg.sampled.block_entities = 40;
    cfg.sampled.halo_per_node = 4;
    assert_resume_matches_straight_run(cfg, "sampled-resume-bit-identical.ckpt");
}

fn assert_resume_matches_straight_run(cfg: DesalignConfig, ckpt: &str) {
    let ds = dataset(41);
    let path = ckpt_path(ckpt);
    let (seed, split) = (11u64, 3usize);

    // Straight run: all epochs in one process.
    let mut straight = DesalignModel::new(cfg.clone(), &ds, seed);
    let straight_report = straight.fit(&ds);

    // Crashing run: train `split` epochs, checkpoint, then "the process
    // dies". A fresh model (fresh RNG, fresh weights — as a new process
    // would build) resumes from the file and finishes the run.
    let mut first = DesalignModel::new(cfg.clone(), &ds, seed);
    let mut state = first.begin_training(&ds);
    first.train_epochs(&mut state, split);
    first.save_checkpoint(&state, &path).expect("checkpoint");
    drop(first); // the crash

    let mut resumed = DesalignModel::new(cfg, &ds, seed);
    let mut state = resumed.resume_training(&ds, &path).expect("resume");
    assert_eq!(state.next_epoch(), split);
    resumed.train_epochs(&mut state, usize::MAX);
    let resumed_report = resumed.end_training(state);

    assert_eq!(weights_fingerprint(&straight), weights_fingerprint(&resumed), "weights diverged after resume");
    assert_eq!(
        loss_bits(&straight_report)[split..],
        loss_bits(&resumed_report)[..],
        "post-resume loss history diverged"
    );
    // `epochs_run` is the global epoch counter, so both runs report the
    // same total even though the resumed process only executed n−k epochs.
    assert_eq!(straight_report.epochs_run, resumed_report.epochs_run);
    let (m1, m2) = (straight.evaluate(&ds), resumed.evaluate(&ds));
    assert_eq!(m1.hits_at_1.to_bits(), m2.hits_at_1.to_bits());
    assert_eq!(m1.mrr.to_bits(), m2.mrr.to_bits());
    std::fs::remove_file(&path).ok();
}

#[test]
fn inference_load_restores_weights_bit_identically() {
    let ds = dataset(47);
    let path = ckpt_path("inference-load.ckpt");
    let (cfg, seed) = (tiny_cfg(3), 13u64);

    let mut trained = DesalignModel::new(cfg.clone(), &ds, seed);
    let mut state = trained.begin_training(&ds);
    trained.train_epochs(&mut state, usize::MAX);
    trained.save_checkpoint(&state, &path).expect("checkpoint");
    trained.end_training(state);

    // Two independent "server processes" load the same file: both must
    // hold byte-identical weights and produce bit-identical retrieval
    // embeddings (the restart-determinism contract desalign-serve rests
    // on).
    let mut served_a = DesalignModel::new(cfg.clone(), &ds, seed);
    served_a.load_checkpoint_inference(&ds, &path).expect("inference load");
    let mut served_b = DesalignModel::new(cfg.clone(), &ds, seed);
    served_b.load_checkpoint_inference(&ds, &path).expect("inference load");
    assert_eq!(weights_fingerprint(&trained), weights_fingerprint(&served_a));
    assert_eq!(weights_fingerprint(&served_a), weights_fingerprint(&served_b));
    let (xs_a, _) = served_a.retrieval_embeddings();
    let (xs_b, _) = served_b.retrieval_embeddings();
    assert_eq!(
        xs_a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        xs_b.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "retrieval embeddings diverged across inference loads"
    );

    // The identity header is still enforced: a wrong-seed model refuses.
    let mut wrong = DesalignModel::new(cfg, &ds, seed + 1);
    assert!(wrong.load_checkpoint_inference(&ds, &path).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn killed_checkpoint_overwrite_resumes_as_exactly_one_generation() {
    let ds = dataset(42);
    let path = ckpt_path("killed-overwrite.ckpt");
    let (cfg, seed) = (tiny_cfg(6), 13u64);

    // Generation A after 2 epochs, generation B after 4, from one run.
    let mut model = DesalignModel::new(cfg.clone(), &ds, seed);
    let mut state = model.begin_training(&ds);
    model.train_epochs(&mut state, 2);
    let gen_a = model.checkpoint_payload(&state).into_bytes();
    model.train_epochs(&mut state, 2);
    let gen_b = model.checkpoint_payload(&state).into_bytes();

    let frame_len = gen_b.len() + FOOTER_LEN;
    // Every-byte verification is done at the frame layer in desalign-util;
    // here we sweep a stride plus the boundary offsets and prove the full
    // read-verify path end to end, with real resumes at the interesting
    // points.
    let mut offsets: Vec<usize> = (0..frame_len).step_by(257).collect();
    offsets.extend([0, 1, gen_b.len(), frame_len - 1, frame_len]);

    for kill_after in offsets {
        desalign_util::atomic_write(&path, &gen_a).expect("seed generation A");
        let completed = kill_during_atomic_write(&path, &gen_b, kill_after).expect("simulated write");
        let on_disk = read_verified(&path).expect("destination must verify after the kill");
        let want = if completed { &gen_b } else { &gen_a };
        assert_eq!(&on_disk, want, "tear at byte {kill_after}");

        // Whichever generation survived must actually resume.
        let mut fresh = DesalignModel::new(cfg.clone(), &ds, seed);
        let st = fresh.resume_training(&ds, &path).expect("surviving generation resumes");
        assert_eq!(st.next_epoch(), if completed { 4 } else { 2 }, "tear at byte {kill_after}");
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(temp_path(&path)).ok();
}

#[test]
fn resume_rejects_mismatches_and_damage() {
    let ds = dataset(43);
    let path = ckpt_path("mismatch.ckpt");
    let cfg = tiny_cfg(4);

    let mut model = DesalignModel::new(cfg.clone(), &ds, 17);
    let mut state = model.begin_training(&ds);
    model.train_epochs(&mut state, 2);
    model.save_checkpoint(&state, &path).expect("checkpoint");

    // Different seed → different trajectory; the checkpoint must refuse.
    let mut wrong_seed = DesalignModel::new(cfg.clone(), &ds, 18);
    assert!(wrong_seed.resume_training(&ds, &path).is_err(), "seed mismatch accepted");

    // Different config (digest changes) → refuse.
    let mut other_cfg = cfg.clone();
    other_cfg.hidden_dim = 8;
    other_cfg.validate().expect("still valid");
    let mut wrong_cfg = DesalignModel::new(other_cfg, &ds, 17);
    assert!(wrong_cfg.resume_training(&ds, &path).is_err(), "config mismatch accepted");

    // Different dataset → refuse.
    let other_ds = dataset(44);
    let mut wrong_ds = DesalignModel::new(cfg.clone(), &other_ds, 17);
    assert!(wrong_ds.resume_training(&other_ds, &path).is_err(), "dataset mismatch accepted");

    // Damaged file → clean InvalidData from the frame check, and
    // resume_or_start must NOT silently restart over it.
    let full = std::fs::metadata(&path).expect("meta").len();
    truncate_file(&path, full - 3).expect("truncate");
    let mut damaged = DesalignModel::new(cfg.clone(), &ds, 17);
    match damaged.resume_training(&ds, &path) {
        Ok(_) => panic!("torn checkpoint accepted"),
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData),
    }
    assert!(damaged.resume_or_start(&ds, &path).is_err(), "resume_or_start restarted over a torn file");

    // Absent file → resume_or_start begins a fresh run at epoch 0.
    std::fs::remove_file(&path).ok();
    let st = damaged.resume_or_start(&ds, &path).expect("fresh start");
    assert_eq!(st.next_epoch(), 0);
    std::fs::remove_file(temp_path(&path)).ok();
}
