//! Prints a 64-bit fingerprint of a training run's final state — weights,
//! per-epoch loss trajectory, and evaluation metrics, all hashed at the
//! bit level. `ci.sh` runs it twice and diffs the output:
//!
//! - `DESALIGN_RESUME_MODE=straight` (default): one uninterrupted run of
//!   all epochs.
//! - `DESALIGN_RESUME_MODE=resume`: train a few epochs, write a
//!   checkpoint, train one epoch more, then *kill* the attempt to
//!   overwrite the checkpoint mid-frame (via the `desalign-testkit` fault
//!   harness) — the torn write must be invisible. A fresh model then
//!   resumes from the surviving checkpoint and finishes the run.
//!
//! Any fingerprint difference means the resume path is not bit-identical
//! to the straight run, which `docs/RELIABILITY.md` forbids.
//!
//! `DESALIGN_CHECKPOINT` overrides the checkpoint path (default: a file
//! under the system temp directory; it is removed on success).

use desalign_bench::or_die;
use desalign_core::{DesalignConfig, DesalignModel, TrainReport};
use desalign_mmkg::{DatasetSpec, FeatureDims, SynthConfig};
use desalign_testkit::fault::kill_during_atomic_write;
use desalign_util::{read_verified, Fnv64};
use std::path::PathBuf;

const SEED: u64 = 29;
const EPOCHS: usize = 6;
const SPLIT: usize = 2;

fn cfg() -> DesalignConfig {
    let mut cfg = DesalignConfig::fast();
    cfg.hidden_dim = 32;
    cfg.feature_dims = FeatureDims { relation: 64, attribute: 64, visual: 64 };
    cfg.epochs = EPOCHS;
    cfg.batch_size = 64;
    cfg
}

fn checkpoint_path() -> PathBuf {
    std::env::var("DESALIGN_CHECKPOINT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("desalign_resume_fingerprint.ckpt"))
}

fn main() {
    let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(80).with_image_ratio(0.6).generate(5);
    let mode = std::env::var("DESALIGN_RESUME_MODE").unwrap_or_else(|_| "straight".to_string());

    let (model, report) = match mode.as_str() {
        "straight" => {
            let mut model = DesalignModel::new(cfg(), &ds, SEED);
            let report = model.fit(&ds);
            (model, report)
        }
        "resume" => {
            let path = checkpoint_path();
            std::fs::remove_file(&path).ok();

            // Process 1: train SPLIT epochs, checkpoint, go one epoch
            // further, and die mid-way through overwriting the checkpoint.
            let mut first = DesalignModel::new(cfg(), &ds, SEED);
            let mut state = first.begin_training(&ds);
            first.train_epochs(&mut state, SPLIT);
            or_die(&format!("write checkpoint {}", path.display()), first.save_checkpoint(&state, &path));
            first.train_epochs(&mut state, 1);
            let newer = first.checkpoint_payload(&state).into_bytes();
            let killed = or_die("simulated mid-write kill", kill_during_atomic_write(&path, &newer, newer.len() / 2));
            assert!(!killed, "kill offset must land inside the frame");
            drop(first); // the crash

            // The torn overwrite must be invisible: the file still verifies
            // as the epoch-SPLIT generation.
            or_die("checkpoint must survive the torn overwrite", read_verified(&path));

            // Process 2: fresh model, resume, finish the run.
            let mut model = DesalignModel::new(cfg(), &ds, SEED);
            let mut state = or_die(&format!("resume from {}", path.display()), model.resume_training(&ds, &path));
            assert_eq!(state.next_epoch(), SPLIT, "resumed from the wrong generation");
            model.train_epochs(&mut state, usize::MAX);
            let report = model.end_training(state);
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(desalign_util::temp_path(&path)).ok();
            (model, report)
        }
        other => {
            eprintln!("unknown DESALIGN_RESUME_MODE '{other}' (use 'straight' or 'resume')");
            std::process::exit(2);
        }
    };

    let metrics = model.evaluate(&ds);
    let mut h = Fnv64::new();
    h.write(model.params().weights_to_json_string().as_bytes());
    // The resumed report only covers post-resume epochs, so hash the final
    // epoch's loss (identical in both modes) rather than the whole history.
    let report: &TrainReport = &report;
    if let Some(l) = report.loss_history.last() {
        h.write(&l.total.to_bits().to_le_bytes());
    }
    for v in [metrics.hits_at_1, metrics.hits_at_10, metrics.mrr] {
        h.write(&v.to_bits().to_le_bytes());
    }
    h.write_u64(metrics.num_queries as u64);
    println!("{:016x}", h.finish());
}
