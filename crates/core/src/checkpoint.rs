//! Full training-state checkpointing: crash-safe save, verified load,
//! bit-identical resume.
//!
//! A checkpoint captures **everything** the training trajectory is a
//! function of — model weights, AdamW moments and step counter, the RNG
//! state, the train/validation split and pseudo-pair pool, the
//! early-stopping tracker, and the watchdog rollback count — so that
//! `fit(n)` and `fit(k); save; load; fit(n−k)` produce byte-identical
//! parameters (the contract `docs/RELIABILITY.md` documents and `ci.sh`
//! enforces).
//!
//! The JSON payload is framed and persisted through
//! [`desalign_util::atomic_write`]: a kill at any byte leaves the path
//! holding the previous complete checkpoint or the new one, never a torn
//! mixture, and [`DesalignModel::resume_training`] rejects any corrupt
//! file with a clean `InvalidData` error. `u64` values that can exceed
//! 2⁵³ (seed, optimizer step, rollback count, RNG words) are stored as
//! decimal strings; digests are 16-digit hex.
//!
//! ```
//! use desalign_core::{DesalignConfig, DesalignModel};
//! use desalign_mmkg::{DatasetSpec, SynthConfig};
//!
//! let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(40).generate(1);
//! let mut cfg = DesalignConfig::fast();
//! cfg.hidden_dim = 16;
//! cfg.feature_dims = desalign_mmkg::FeatureDims { relation: 32, attribute: 32, visual: 64 };
//! cfg.epochs = 4;
//! let path = std::env::temp_dir().join("desalign-ckpt-doc.bin");
//!
//! // Train 2 epochs, checkpoint, and resume in a fresh model.
//! let mut model = DesalignModel::new(cfg.clone(), &ds, 7);
//! let mut state = model.begin_training(&ds);
//! model.train_epochs(&mut state, 2);
//! model.save_checkpoint(&state, &path).unwrap();
//!
//! let mut revived = DesalignModel::new(cfg, &ds, 7);
//! let mut state2 = revived.resume_training(&ds, &path).unwrap();
//! assert_eq!(state2.next_epoch(), 2);
//! revived.train_epochs(&mut state2, usize::MAX);
//! revived.end_training(state2);
//! std::fs::remove_file(&path).ok();
//! ```

use crate::config::DesalignConfig;
use crate::model::DesalignModel;
use crate::train::TrainReport;
use crate::trainer::TrainState;
use desalign_mmkg::AlignmentDataset;
use desalign_nn::checkpoint::{matrix_from_json, matrix_to_json_string, write_f32_json};
use desalign_nn::AdamW;
use desalign_tensor::Rng64;
use desalign_util::{atomic_write, checksum64, read_verified, u64_from_json, Json, ToJson};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Format tag written into (and required of) every checkpoint.
pub const CHECKPOINT_FORMAT: &str = "desalign-train-checkpoint";

/// Current checkpoint schema version.
pub const CHECKPOINT_VERSION: u64 = 1;

/// FNV-1a digest of the configuration's provenance JSON — resuming under
/// a different configuration is refused.
pub fn config_digest(cfg: &DesalignConfig) -> u64 {
    checksum64(cfg.to_json().to_string().as_bytes())
}

/// FNV-1a digest of the dataset's identity: name, entity counts, and the
/// full train/test seed-pair lists. Two datasets that differ only in the
/// alignment split (e.g. two synthetic seeds over the same shape) get
/// different digests, so resuming against the wrong data is refused even
/// when the shapes coincide. Features are not hashed — they are large,
/// and the split already pins the generation.
pub fn dataset_digest(dataset: &AlignmentDataset) -> u64 {
    let mut key = format!(
        "{}|{}|{}|",
        dataset.name, dataset.source.num_entities, dataset.target.num_entities
    );
    for &(s, t) in dataset.train_pairs.iter().chain(&dataset.test_pairs) {
        let _ = write!(key, "{s},{t};");
    }
    checksum64(key.as_bytes())
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn jerr(e: desalign_util::JsonError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

fn write_pairs(out: &mut String, pairs: &[(usize, usize)]) {
    out.push('[');
    for (i, &(s, t)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "[{s},{t}]").expect("string write");
    }
    out.push(']');
}

fn read_pairs(doc: &Json, key: &str) -> io::Result<Vec<(usize, usize)>> {
    let arr = doc.get(key).and_then(Json::as_array).ok_or_else(|| invalid(format!("missing or non-array field '{key}'")))?;
    arr.iter()
        .map(|p| {
            let pair = p.as_array().filter(|a| a.len() == 2).ok_or_else(|| invalid(format!("'{key}' entries must be [s,t] pairs")))?;
            let s = pair[0].as_usize().ok_or_else(|| invalid(format!("non-integer entity id in '{key}'")))?;
            let t = pair[1].as_usize().ok_or_else(|| invalid(format!("non-integer entity id in '{key}'")))?;
            Ok((s, t))
        })
        .collect()
}

fn read_u64_field(doc: &Json, key: &str) -> io::Result<u64> {
    let v = doc.get(key).ok_or_else(|| invalid(format!("missing field '{key}'")))?;
    u64_from_json(v).map_err(jerr)
}

impl DesalignModel {
    /// Writes the full training state to `path` atomically.
    ///
    /// The file holds the checksummed frame of
    /// `desalign_util::atomicio`; concurrent readers and crashed writers
    /// always observe a complete generation. Call this at an epoch
    /// boundary (between [`DesalignModel::train_epochs`] calls).
    pub fn save_checkpoint(&self, state: &TrainState, path: &Path) -> io::Result<()> {
        atomic_write(path, self.checkpoint_payload(state).as_bytes())
    }

    /// The checkpoint JSON payload (exposed for the fault-injection
    /// harness, which tears this byte stream at chosen offsets).
    pub fn checkpoint_payload(&self, state: &TrainState) -> String {
        let mut out = String::with_capacity(4096);
        write!(
            out,
            "{{\"format\":\"{CHECKPOINT_FORMAT}\",\"version\":{CHECKPOINT_VERSION},\"seed\":\"{}\",\"config_digest\":\"{:016x}\",\"dataset_digest\":\"{:016x}\"",
            self.seed,
            config_digest(&self.cfg),
            self.dataset_digest
        )
        .expect("string write");
        write!(out, ",\"epoch\":{},\"stopped\":{},\"rollbacks\":\"{}\"", state.next_epoch, state.stopped, state.rollbacks)
            .expect("string write");
        out.push_str(",\"best_val\":");
        write_f32_json(&mut out, state.best_val);
        write!(out, ",\"patience_left\":{}", state.patience_left).expect("string write");
        let rng = self.rng.state();
        write!(out, ",\"rng\":[\"{}\",\"{}\",\"{}\",\"{}\"]", rng[0], rng[1], rng[2], rng[3]).expect("string write");
        out.push_str(",\"pool\":");
        write_pairs(&mut out, &state.pool);
        out.push_str(",\"val_pairs\":");
        write_pairs(&mut out, &state.val_pairs);
        out.push_str(",\"pseudo_pairs\":");
        write_pairs(&mut out, &self.pseudo_pairs);
        out.push_str(",\"best_snapshot\":");
        match &state.best_snapshot {
            None => out.push_str("null"),
            Some(snap) => {
                out.push('[');
                for (i, m) in snap.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&matrix_to_json_string(m));
                }
                out.push(']');
            }
        }
        out.push_str(",\"optimizer\":");
        out.push_str(&state.opt.state_to_json_string());
        out.push_str(",\"weights\":");
        out.push_str(&self.store.weights_to_json_string());
        out.push('}');
        out
    }

    /// Loads a checkpoint written by [`DesalignModel::save_checkpoint`]
    /// and restores the exact training trajectory: weights, optimizer,
    /// RNG, pool/validation split, pseudo pairs, and the early-stop
    /// tracker. Returns the [`TrainState`] to pass to
    /// [`DesalignModel::train_epochs`].
    ///
    /// The model must have been built with the same configuration,
    /// dataset, and seed — all three are digest-checked. Torn or corrupt
    /// files fail with `InvalidData` (the frame checksum catches them
    /// before parsing starts); the model is untouched on any error.
    pub fn resume_training(&mut self, dataset: &AlignmentDataset, path: &Path) -> io::Result<TrainState> {
        // Failpoint `checkpoint.load`: exercises the resume-under-fault
        // path. No-op without an active schedule.
        desalign_failpoint::fail_io("checkpoint.load")?;
        let bytes = read_verified(path)?;
        let text = String::from_utf8(bytes).map_err(|e| invalid(format!("checkpoint is not UTF-8: {e}")))?;
        let doc = Json::parse(&text).map_err(jerr)?;

        self.check_checkpoint_header(&doc, dataset)?;

        // Parse everything into locals first; mutate the model only after
        // the whole document has validated.
        let next_epoch: usize = doc.field("epoch").map_err(jerr)?;
        let stopped: bool = doc.field("stopped").map_err(jerr)?;
        let rollbacks = read_u64_field(&doc, "rollbacks")?;
        let best_val: f32 = doc.field("best_val").map_err(jerr)?;
        let patience_left: usize = doc.field("patience_left").map_err(jerr)?;
        let rng_words = doc.get("rng").and_then(Json::as_array).ok_or_else(|| invalid("missing or non-array field 'rng'"))?;
        if rng_words.len() != 4 {
            return Err(invalid(format!("'rng' must hold 4 words, found {}", rng_words.len())));
        }
        let mut rng_state = [0u64; 4];
        for (slot, w) in rng_state.iter_mut().zip(rng_words) {
            *slot = u64_from_json(w).map_err(jerr)?;
        }
        if rng_state == [0; 4] {
            return Err(invalid("'rng' is the all-zero state (xoshiro fixed point)"));
        }
        let pool = read_pairs(&doc, "pool")?;
        let val_pairs = read_pairs(&doc, "val_pairs")?;
        let pseudo_pairs = read_pairs(&doc, "pseudo_pairs")?;
        let best_snapshot = match doc.get("best_snapshot") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let mats = v.as_array().ok_or_else(|| invalid("'best_snapshot' must be null or an array"))?;
                Some(mats.iter().map(|m| matrix_from_json(m).map_err(jerr)).collect::<io::Result<Vec<_>>>()?)
            }
        };
        let mut opt = AdamW::new(self.cfg.weight_decay);
        opt.restore_state(
            doc.get("optimizer").ok_or_else(|| invalid("missing field 'optimizer'"))?,
            &self.store,
        )?;

        // Weights last: `load_weights_json` validates the full layout
        // before touching the store.
        let weights = doc.get("weights").ok_or_else(|| invalid("missing field 'weights'"))?;
        self.store.load_weights_json(weights)?;
        self.rng = Rng64::from_state(rng_state);
        self.pseudo_pairs = pseudo_pairs;

        desalign_telemetry::counter("train.resumes").incr();
        Ok(TrainState {
            blocks: self.training_blocks(dataset, &pool),
            pool,
            val_pairs,
            opt,
            next_epoch,
            best_val,
            best_snapshot,
            patience_left,
            stopped,
            rollbacks,
            resumed_from: Some(next_epoch),
            report: TrainReport::default(),
            good: None,
        })
    }

    /// Validates the identity header every checkpoint carries: format tag,
    /// schema version, and the seed / configuration / dataset digests that
    /// pin which run wrote it.
    fn check_checkpoint_header(&self, doc: &Json, dataset: &AlignmentDataset) -> io::Result<()> {
        let format: String = doc.field("format").map_err(jerr)?;
        if format != CHECKPOINT_FORMAT {
            return Err(invalid(format!("not a training checkpoint (format '{format}')")));
        }
        let version: u64 = read_u64_field(doc, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(invalid(format!("unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})")));
        }
        let seed = read_u64_field(doc, "seed")?;
        if seed != self.seed {
            return Err(invalid(format!("checkpoint was written by a run seeded {seed}, this model is seeded {}", self.seed)));
        }
        let read_digest = |key: &str| -> io::Result<u64> {
            let s: String = doc.field(key).map_err(jerr)?;
            u64::from_str_radix(&s, 16).map_err(|e| invalid(format!("bad {key} '{s}': {e}")))
        };
        let cfg_digest = read_digest("config_digest")?;
        if cfg_digest != config_digest(&self.cfg) {
            return Err(invalid("checkpoint configuration digest mismatch — was the config changed?"));
        }
        let ds_digest = read_digest("dataset_digest")?;
        if ds_digest != dataset_digest(dataset) {
            return Err(invalid("checkpoint dataset digest mismatch — resuming against a different dataset"));
        }
        Ok(())
    }

    /// Loads only what **inference** needs from a checkpoint — weights and
    /// the mined pseudo-pair pool — skipping the optimizer moments, RNG
    /// words, and early-stop tracker that exist to continue a training
    /// trajectory. The identity header (seed / config digest / dataset
    /// digest) is verified exactly as in
    /// [`DesalignModel::resume_training`], so a server can never silently
    /// serve weights trained under a different run. Restart determinism
    /// follows: two loads of the same file leave byte-identical weights,
    /// so `desalign-serve` answers bit-identically across restarts.
    ///
    /// The model is untouched on any error.
    pub fn load_checkpoint_inference(&mut self, dataset: &AlignmentDataset, path: &Path) -> io::Result<()> {
        // Failpoint `checkpoint.load`: lets the serve-layer reload path
        // rehearse a failed load. No-op without an active schedule.
        desalign_failpoint::fail_io("checkpoint.load")?;
        let bytes = read_verified(path)?;
        let text = String::from_utf8(bytes).map_err(|e| invalid(format!("checkpoint is not UTF-8: {e}")))?;
        let doc = Json::parse(&text).map_err(jerr)?;
        self.check_checkpoint_header(&doc, dataset)?;
        let pseudo_pairs = read_pairs(&doc, "pseudo_pairs")?;
        // Weights validate the full layout before touching the store, so
        // the all-or-nothing contract holds here too.
        let weights = doc.get("weights").ok_or_else(|| invalid("missing field 'weights'"))?;
        self.store.load_weights_json(weights)?;
        self.pseudo_pairs = pseudo_pairs;
        desalign_telemetry::counter("checkpoint.inference_loads").incr();
        Ok(())
    }

    /// Resumes from `path` when a valid checkpoint exists there, or
    /// starts a fresh run when the file is missing. Corrupt checkpoints
    /// still error — silently restarting over a torn file would mask the
    /// fault the format is designed to surface.
    pub fn resume_or_start(&mut self, dataset: &AlignmentDataset, path: &Path) -> io::Result<TrainState> {
        match self.resume_training(dataset, path) {
            Ok(state) => Ok(state),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(self.begin_training(dataset)),
            Err(e) => Err(e),
        }
    }
}
