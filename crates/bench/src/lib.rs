//! Experiment harness reproducing every table and figure of the paper.
//!
//! One binary, `desalign-bench <artifact>`, dispatches to the artifact
//! bodies in this library (see DESIGN.md §4 for the index): the paper's
//! tables and figures in [`paper`], and the self-checking benches
//! [`chaos_bench`], [`retrieval_bench`], [`robustness_sweep`],
//! [`serve_bench`], [`streaming_bench`] and [`telemetry_report`]. Each bench
//! takes its sizes (a constant, or the harness profile) and an output
//! directory, writes its artifact and returns its failed checks; the
//! binary then exits non-zero on any. They share this module: a method
//! registry, a scale profile controlled by environment variables, and
//! fixed-width table printing that mirrors the paper's layout.
//!
//! Environment knobs (all optional; an unparsable value is an error):
//! - `DESALIGN_SCALE` — entities on the larger side of each synthetic pair
//!   (default 400; the paper's datasets are ~15–20 k);
//! - `DESALIGN_EPOCHS` — training epochs per fit (default 60; paper 500);
//! - `DESALIGN_DIM` — unified hidden dimension (default 64);
//! - `DESALIGN_SEED` — master RNG seed (default 17).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos_bench;
pub mod paper;
pub mod retrieval_bench;
pub mod robustness_sweep;
pub mod serve_bench;
pub mod streaming_bench;
pub mod telemetry_report;
pub mod timing;

use desalign_baselines::{
    AckAligner, Aligner, AlinetAligner, AttrGnnAligner, DesalignAligner, EvaAligner, GcnAligner, HeaAligner,
    ImuseAligner, IpTransEAligner, McleaAligner, MeaformerAligner, MmeaAligner, MsneaAligner, MugcnAligner,
    PoeAligner, SeaAligner, TransEAligner,
};
use desalign_core::DesalignConfig;
use desalign_eval::AlignmentMetrics;
use desalign_mmkg::AlignmentDataset;
use desalign_util::count_var;
use std::path::Path;

/// Scale and budget profile for one harness run.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Entities on the larger side of each generated pair.
    pub scale: usize,
    /// Training epochs per fit.
    pub epochs: usize,
    /// Unified hidden dimension.
    pub hidden_dim: usize,
    /// Master seed.
    pub seed: u64,
}

impl HarnessConfig {
    /// Reads the profile from the environment (see crate docs), or exits
    /// with a one-line error naming an unparsable variable.
    pub fn from_env() -> Self {
        or_die("harness profile", Self::from_lookup(|k| std::env::var(k).ok()))
    }

    /// The profile from `lookup`, which maps a variable name to its value
    /// if set. Unset variables take the defaults; a set but unparsable one
    /// is an error.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        Ok(Self {
            scale: count_var(&lookup, "DESALIGN_SCALE", 400)?,
            epochs: count_var(&lookup, "DESALIGN_EPOCHS", 60)?,
            hidden_dim: count_var(&lookup, "DESALIGN_DIM", 64)?,
            seed: count_var(&lookup, "DESALIGN_SEED", 17)?,
        })
    }

    /// The DESAlign configuration for this profile.
    pub fn desalign_cfg(&self) -> DesalignConfig {
        let mut cfg = DesalignConfig::fast();
        cfg.hidden_dim = self.hidden_dim;
        cfg.epochs = self.epochs;
        cfg
    }
}

/// The methods the robustness tables sweep (prominent methods of
/// Tables II–III).
pub const PROMINENT: [MethodId; 4] = [MethodId::Eva, MethodId::Mclea, MethodId::Meaformer, MethodId::Desalign];

/// The full method roster for the main-results tables (Table IV order:
/// translation family, GNN family, multi-modal family, ours).
pub const ALL_METHODS: [MethodId; 16] = [
    MethodId::TransE,
    MethodId::IpTransE,
    MethodId::Sea,
    MethodId::GcnAlign,
    MethodId::Mugcn,
    MethodId::Alinet,
    MethodId::AttrGnn,
    MethodId::Imuse,
    MethodId::Poe,
    MethodId::Ack,
    MethodId::Mmea,
    MethodId::Msnea,
    MethodId::Hea,
    MethodId::Eva,
    MethodId::Mclea,
    MethodId::Meaformer,
];

/// Every implemented method including DESAlign.
pub const ALL_WITH_OURS: [MethodId; 17] = [
    MethodId::TransE,
    MethodId::IpTransE,
    MethodId::Sea,
    MethodId::GcnAlign,
    MethodId::Mugcn,
    MethodId::Alinet,
    MethodId::AttrGnn,
    MethodId::Imuse,
    MethodId::Poe,
    MethodId::Ack,
    MethodId::Mmea,
    MethodId::Msnea,
    MethodId::Hea,
    MethodId::Eva,
    MethodId::Mclea,
    MethodId::Meaformer,
    MethodId::Desalign,
];

/// Identifier for one alignment method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodId {
    /// TransE baseline.
    TransE,
    /// IPTransE baseline.
    IpTransE,
    /// SEA baseline.
    Sea,
    /// GCN-align baseline.
    GcnAlign,
    /// MuGCN baseline.
    Mugcn,
    /// AliNet baseline.
    Alinet,
    /// AttrGNN baseline.
    AttrGnn,
    /// IMUSE baseline.
    Imuse,
    /// PoE baseline.
    Poe,
    /// ACK baseline.
    Ack,
    /// MMEA baseline.
    Mmea,
    /// MSNEA baseline.
    Msnea,
    /// HEA (hyperbolic) baseline.
    Hea,
    /// EVA baseline.
    Eva,
    /// MCLEA baseline.
    Mclea,
    /// MEAformer baseline.
    Meaformer,
    /// DESAlign (ours).
    Desalign,
}

impl MethodId {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MethodId::TransE => "TransE",
            MethodId::IpTransE => "IPTransE",
            MethodId::Sea => "SEA",
            MethodId::GcnAlign => "GCN-align",
            MethodId::Mugcn => "MUGCN",
            MethodId::Alinet => "ALiNet",
            MethodId::AttrGnn => "AttrGNN",
            MethodId::Imuse => "IMUSE",
            MethodId::Poe => "PoE",
            MethodId::Ack => "ACK",
            MethodId::Mmea => "MMEA",
            MethodId::Msnea => "MSNEA",
            MethodId::Hea => "HEA",
            MethodId::Eva => "EVA",
            MethodId::Mclea => "MCLEA",
            MethodId::Meaformer => "MEAformer",
            MethodId::Desalign => "DESAlign",
        }
    }

    /// Instantiates the method for a dataset under the given profile.
    pub fn build(&self, h: &HarnessConfig, dataset: &AlignmentDataset, seed: u64) -> Box<dyn Aligner> {
        match self {
            MethodId::TransE => {
                let cfg = desalign_baselines::TransEConfig {
                    dim: h.hidden_dim,
                    epochs: h.epochs,
                    ..Default::default()
                };
                Box::new(TransEAligner::with_config(cfg, dataset, seed))
            }
            MethodId::IpTransE => {
                let cfg = desalign_baselines::TransEConfig { dim: h.hidden_dim, epochs: h.epochs / 2, ..Default::default() };
                Box::new(IpTransEAligner::with_config(cfg, dataset, seed))
            }
            MethodId::Sea => Box::new(SeaAligner::with_profile(h.hidden_dim, h.epochs, dataset, seed)),
            MethodId::GcnAlign => Box::new(GcnAligner::with_profile(h.hidden_dim, h.epochs, dataset, seed)),
            MethodId::Mugcn => Box::new(MugcnAligner::with_profile(h.hidden_dim, h.epochs, dataset, seed)),
            MethodId::Alinet => Box::new(AlinetAligner::with_profile(h.hidden_dim, h.epochs, dataset, seed)),
            MethodId::AttrGnn => Box::new(AttrGnnAligner::with_profile(h.hidden_dim, h.epochs, dataset, seed)),
            MethodId::Imuse => Box::new(ImuseAligner::with_profile(h.hidden_dim, h.epochs, dataset, seed)),
            MethodId::Poe => Box::new(PoeAligner::with_profile(h.hidden_dim, h.epochs, dataset, seed)),
            MethodId::Ack => Box::new(AckAligner::with_profile(h.hidden_dim, h.epochs, dataset, seed)),
            MethodId::Mmea => Box::new(MmeaAligner::with_profile(h.hidden_dim, h.epochs, dataset, seed)),
            MethodId::Msnea => Box::new(MsneaAligner::with_profile(h.hidden_dim, h.epochs, dataset, seed)),
            MethodId::Hea => Box::new(HeaAligner::with_profile(h.hidden_dim.min(32), h.epochs, dataset, seed)),
            MethodId::Eva => Box::new(EvaAligner::with_profile(h.hidden_dim, h.epochs, dataset, seed)),
            MethodId::Mclea => Box::new(McleaAligner::with_profile(h.hidden_dim, h.epochs, dataset, seed)),
            MethodId::Meaformer => Box::new(MeaformerAligner::new(h.desalign_cfg(), dataset, seed)),
            MethodId::Desalign => Box::new(DesalignAligner::new(h.desalign_cfg(), dataset, seed)),
        }
    }
}

/// One `(method, metrics)` result cell.
#[derive(Clone, Debug)]
pub struct ResultRow {
    /// Method name.
    pub method: &'static str,
    /// Metrics per swept condition (e.g. per ratio).
    pub cells: Vec<AlignmentMetrics>,
    /// Wall-clock seconds per condition.
    pub seconds: Vec<f64>,
}

/// Prints a paper-style table: one row per method, `H@1 H@10 MRR` per
/// condition, plus an `Improv.` row comparing the last method (ours)
/// against the best baseline.
pub fn print_table(title: &str, conditions: &[String], rows: &[ResultRow]) {
    println!("\n=== {title} ===");
    print!("{:<12}", "Model");
    for c in conditions {
        print!(" | {c:^17}");
    }
    println!();
    print!("{:<12}", "");
    for _ in conditions {
        print!(" | {:>5} {:>5} {:>5}", "H@1", "H@10", "MRR");
    }
    println!();
    for row in rows {
        print!("{:<12}", row.method);
        for m in &row.cells {
            print!(" | {:>5.1} {:>5.1} {:>5.1}", m.hits_at_1 * 100.0, m.hits_at_10 * 100.0, m.mrr * 100.0);
        }
        println!();
    }
    if rows.len() >= 2 {
        let ours = &rows[rows.len() - 1];
        print!("{:<12}", "Improv.");
        for (i, m) in ours.cells.iter().enumerate() {
            let best = rows[..rows.len() - 1]
                .iter()
                .filter_map(|r| r.cells.get(i))
                .fold((f32::MIN, f32::MIN, f32::MIN), |acc, c| {
                    (acc.0.max(c.hits_at_1), acc.1.max(c.hits_at_10), acc.2.max(c.mrr))
                });
            print!(
                " | {:>+5.1} {:>+5.1} {:>+5.1}",
                (m.hits_at_1 - best.0) * 100.0,
                (m.hits_at_10 - best.1) * 100.0,
                (m.mrr - best.2) * 100.0
            );
        }
        println!();
    }
}

/// The first `model name` in `/proc/cpuinfo`, or `unknown`: names the
/// host a committed timing was measured on.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')).map(|(_, m)| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Unwraps a result in the bench harness, or prints `error: <what>: <cause>`
/// to stderr and exits nonzero. The harness uses this instead of
/// `unwrap`/`expect` on I/O so a full disk or missing directory produces a
/// readable one-line failure, not a panic with a backtrace.
pub fn or_die<T, E: std::fmt::Display>(what: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1);
    })
}

/// Ends a bench run that checked its own result: prints each failure as
/// `<what> check FAILED: <failure>` to stderr and exits nonzero when there
/// is any. Called after the artifact is written, so a failed run still
/// leaves the numbers behind for inspection.
pub fn exit_on_failures(what: &str, failures: &[String]) {
    if failures.is_empty() {
        return;
    }
    for f in failures {
        eprintln!("{what} check FAILED: {f}");
    }
    std::process::exit(1);
}

/// Every non-finite number in a written artifact, as one failure message
/// each (see [`exit_on_failures`]).
pub fn non_finite_failures(doc: &desalign_util::Json) -> Vec<String> {
    doc.non_finite_paths().into_iter().map(|p| format!("{p} is not finite")).collect()
}

/// Serializes results to JSON, creating the parent directory.
pub fn try_dump_json(path: impl AsRef<Path>, value: &desalign_util::Json) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, value.to_string())
}

/// Writes a self-checking bench's artifact to `path` and says where; a
/// write that did not land comes back as the one failure message (see
/// [`exit_on_failures`]), so the run cannot look green without it.
pub fn write_artifact(path: &Path, doc: &desalign_util::Json) -> Vec<String> {
    match try_dump_json(path, doc) {
        Ok(()) => {
            println!("wrote {}", path.display());
            Vec::new()
        }
        Err(e) => vec![format!("write {}: {e}", path.display())],
    }
}

/// Converts metrics to a JSON object.
pub fn metrics_json(m: &AlignmentMetrics) -> desalign_util::Json {
    desalign_util::json!({
        "h1": m.hits_at_1,
        "h10": m.hits_at_10,
        "mrr": m.mrr,
        "queries": m.num_queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(vars: &[(&str, &str)]) -> Result<HarnessConfig, String> {
        HarnessConfig::from_lookup(|k| vars.iter().find(|(name, _)| *name == k).map(|(_, v)| v.to_string()))
    }

    #[test]
    fn unset_variables_take_the_defaults() {
        let h = profile(&[]).unwrap();
        assert_eq!((h.scale, h.epochs, h.hidden_dim, h.seed), (400, 60, 64, 17));
    }

    #[test]
    fn set_variables_override_the_defaults() {
        let vars = [("DESALIGN_SCALE", "40"), ("DESALIGN_EPOCHS", "2"), ("DESALIGN_DIM", "16"), ("DESALIGN_SEED", "99")];
        let h = profile(&vars).unwrap();
        assert_eq!((h.scale, h.epochs, h.hidden_dim, h.seed), (40, 2, 16, 99));
    }

    #[test]
    fn an_unparsable_variable_is_an_error_naming_it() {
        for key in ["DESALIGN_SCALE", "DESALIGN_EPOCHS", "DESALIGN_DIM", "DESALIGN_SEED"] {
            for bad in ["15k", "", "-1", "2.5"] {
                let err = profile(&[(key, bad)]).expect_err("unparsable value accepted");
                assert!(err.starts_with(&format!("{key}=")), "{err}");
            }
        }
    }
}
