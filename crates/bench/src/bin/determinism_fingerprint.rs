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
//! `DESALIGN_AUDIT=repair` additionally runs the dataset through a
//! `Repair` audit before training. The generated data is clean, so the
//! audit must be a no-op and the fingerprint must match the default run —
//! `ci.sh` diffs the two to prove that wiring the auditor into a healthy
//! pipeline cannot perturb training.
//!
//! The block-sampled training path is pinned by the
//! `sampled_parameters_match_pinned_bits` test instead (at 1, 2 and 7
//! threads).

use desalign_bench::or_die;
use desalign_core::{DesalignConfig, DesalignModel};
use desalign_mmkg::{AuditPolicy, DatasetSpec, FeatureDims, SynthConfig};

/// FNV-1a over a little-endian byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn update_f32s(&mut self, values: &[f32]) {
        for v in values {
            self.update(&v.to_bits().to_le_bytes());
        }
    }
}

fn main() {
    let mut ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(80).with_image_ratio(0.6).generate(5);
    match std::env::var("DESALIGN_AUDIT").as_deref() {
        Ok("repair") => {
            let report = or_die("repair audit", ds.audit(AuditPolicy::Repair));
            if !report.is_clean() {
                eprintln!("error: generated dataset had defects: {}", report.summary());
                std::process::exit(1);
            }
        }
        Ok("off") | Err(_) => {}
        Ok(other) => {
            eprintln!("unknown DESALIGN_AUDIT '{other}' (use 'repair' or 'off')");
            std::process::exit(2);
        }
    }
    let mut cfg = DesalignConfig::fast();
    cfg.hidden_dim = 32;
    cfg.feature_dims = FeatureDims { relation: 64, attribute: 64, visual: 64 };
    cfg.epochs = 2;
    cfg.batch_size = 64;
    let mut model = DesalignModel::new(cfg, &ds, 31);
    model.fit(&ds);
    let sim = model.similarity_with_iterations(2);
    let metrics = model.evaluate(&ds);

    let mut h = Fnv::new();
    h.update_f32s(sim.scores().as_slice());
    h.update_f32s(&[metrics.hits_at_1, metrics.hits_at_10, metrics.mrr]);
    h.update(&(metrics.num_queries as u64).to_le_bytes());
    println!("{:016x}", h.0);
}
