//! **Robustness sweep** — the degradation grids of Tables II–III plus one
//! run per injectable corruption class, in a single machine-readable
//! artifact.
//!
//! Three sections, all running DESAlign with `mask_missing_modalities`
//! enabled so absent modalities are renormalized out of fusion:
//!
//! - `r_img`: image coverage `R_img ∈ {5, 20, 40, 60} %`;
//! - `r_seed`: seed-alignment ratio `R_seed ∈ {10, 20, 30, 50} %`;
//! - `corruption`: every `desalign_testkit::CorruptionKind`, injected at
//!   severity 0.3, passed through a `Repair` audit, then trained and
//!   evaluated end to end.
//!
//! Each cell records `H@1 / H@10 / MRR` plus the final sampled Dirichlet
//! energies. A corruption class that destabilizes training shows up as a
//! non-finite number in the artifact: the run writes
//! `BENCH_robustness.json` (into `results/` from the binary), then names
//! every such number as a failure.

use crate::{metrics_json, non_finite_failures, or_die, write_artifact, HarnessConfig};
use desalign_core::{DesalignConfig, DesalignModel, TrainReport};
use desalign_mmkg::{AlignmentDataset, AuditPolicy, DatasetSpec, SynthConfig};
use desalign_testkit::{corrupt_dataset, CorruptionKind};
use desalign_util::{json, Json, ToJson};
use std::path::Path;

fn cfg_for(h: &HarnessConfig) -> DesalignConfig {
    let mut cfg = h.desalign_cfg();
    cfg.mask_missing_modalities = true;
    // Sample the energy trace every epoch so even smoke runs (2 epochs in
    // CI) record a final Dirichlet energy.
    cfg.eval_every = 1;
    cfg
}

/// Where `desalign-bench robustness_sweep` writes `BENCH_robustness.json`.
pub const OUT_DIR: &str = "results";

/// Trains and evaluates one condition, returning its JSON cell.
fn run_cell(h: &HarnessConfig, ds: &AlignmentDataset) -> Json {
    let mut model = or_die(&format!("model setup for {}", ds.name), DesalignModel::try_new(cfg_for(h), ds, h.seed));
    let report: TrainReport = model.fit(ds);
    let metrics = model.evaluate(ds);
    let energy = report.energy_history.last();
    json!({
        "metrics": metrics_json(&metrics),
        "final_energy": energy.map_or(Json::Null, |t| json!({
            "epoch": t.epoch,
            "source": t.source.to_vec(),
            "target": t.target.to_vec(),
            "smoothing_ratio": t.smoothing_ratio(),
        })),
        "final_loss": report.final_loss.total,
        "epochs_run": report.epochs_run,
        "seconds": report.seconds,
    })
}

/// Runs the sweep under profile `h`, writes `BENCH_robustness.json` into
/// `out_dir`, and returns one failure per non-finite number in it.
pub fn run(h: &HarnessConfig, out_dir: &Path) -> Vec<String> {
    let spec = DatasetSpec::FbDb15k;

    // Grid 1: image coverage (Table III shape).
    let mut r_img_rows = Vec::new();
    for &r in &[0.05f32, 0.2, 0.4, 0.6] {
        let ds = SynthConfig::preset(spec).scaled(h.scale).with_image_ratio(r).generate(h.seed);
        let mut cell = run_cell(h, &ds);
        if let Json::Object(fields) = &mut cell {
            fields.insert(0, ("r_img".to_string(), r.to_json()));
        }
        r_img_rows.push(cell);
        println!("r_img={r:.2} done");
    }

    // Grid 2: seed-alignment ratio (weak supervision, Fig. 3 shape).
    let mut r_seed_rows = Vec::new();
    for &r in &[0.1f32, 0.2, 0.3, 0.5] {
        let ds = SynthConfig::preset(spec).scaled(h.scale).with_seed_ratio(r).generate(h.seed);
        let mut cell = run_cell(h, &ds);
        if let Json::Object(fields) = &mut cell {
            fields.insert(0, ("r_seed".to_string(), r.to_json()));
        }
        r_seed_rows.push(cell);
        println!("r_seed={r:.2} done");
    }

    // Grid 3: every corruption class, repaired then trained.
    let mut corruption_rows = Vec::new();
    for kind in CorruptionKind::ALL {
        let mut ds = SynthConfig::preset(spec).scaled(h.scale).generate(h.seed);
        let applied = corrupt_dataset(&mut ds, kind, 0.3, h.seed ^ 0xBAD);
        let report = or_die(&format!("repair audit for {}", kind.name()), ds.audit(AuditPolicy::Repair));
        let mut cell = run_cell(h, &ds);
        if let Json::Object(fields) = &mut cell {
            fields.insert(0, ("kind".to_string(), Json::Str(kind.name().to_string())));
            fields.insert(1, ("injected".to_string(), Json::Num(applied as f64)));
            fields.insert(2, ("repaired_defects".to_string(), Json::Num(report.total_defects() as f64)));
        }
        corruption_rows.push(cell);
        println!("corruption={} done ({} injected, {} repaired)", kind.name(), applied, report.total_defects());
    }

    let doc = json!({
        "kind": "robustness_sweep",
        "dataset": spec.name(),
        "config": json!({ "scale": h.scale, "epochs": h.epochs, "hidden_dim": h.hidden_dim, "seed": h.seed }),
        "r_img": Json::Array(r_img_rows),
        "r_seed": Json::Array(r_seed_rows),
        "corruption": Json::Array(corruption_rows),
    });
    let mut failures = write_artifact(&out_dir.join("BENCH_robustness.json"), &doc);
    failures.extend(non_finite_failures(&doc));
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every grid cell and corruption class trains to a finite artifact at
    /// a tiny profile.
    #[test]
    fn small_run_is_finite() {
        let h = HarnessConfig { scale: 40, epochs: 2, hidden_dim: 64, seed: 17 };
        let dir = std::env::temp_dir().join(format!("desalign-robustness-test-{}", std::process::id()));
        let failures = run(&h, &dir);
        let written = dir.join("BENCH_robustness.json").exists();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(failures, Vec::<String>::new());
        assert!(written, "no artifact written");
    }
}
