//! Shared experiment harness for reproducing every table and figure of the
//! paper.
//!
//! Each binary in `src/bin/` regenerates one artifact (see DESIGN.md §4 for
//! the index). They share this module: a method registry, a scale profile
//! controlled by environment variables, and fixed-width table printing that
//! mirrors the paper's layout.
//!
//! Environment knobs (all optional):
//! - `DESALIGN_SCALE` — entities on the larger side of each synthetic pair
//!   (default 300; the paper's datasets are ~15–20 k);
//! - `DESALIGN_EPOCHS` — training epochs per fit (default 60; paper 500);
//! - `DESALIGN_SEED` — master RNG seed (default 17).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;

use desalign_baselines::{
    AckAligner, Aligner, AlinetAligner, AttrGnnAligner, DesalignAligner, EvaAligner, GcnAligner, HeaAligner,
    ImuseAligner, IpTransEAligner, McleaAligner, MeaformerAligner, MmeaAligner, MsneaAligner, MugcnAligner,
    PoeAligner, SeaAligner, TransEAligner,
};
use desalign_core::DesalignConfig;
use desalign_eval::AlignmentMetrics;
use desalign_mmkg::AlignmentDataset;

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
    /// Reads the profile from the environment (see crate docs).
    pub fn from_env() -> Self {
        let get = |k: &str, d: usize| std::env::var(k).ok().and_then(|v| v.parse().ok()).unwrap_or(d);
        Self {
            scale: get("DESALIGN_SCALE", 300),
            epochs: get("DESALIGN_EPOCHS", 60),
            hidden_dim: get("DESALIGN_DIM", 64),
            seed: get("DESALIGN_SEED", 17) as u64,
        }
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

/// Unwraps a result in a bench `main`, or prints `error: <what>: <cause>`
/// to stderr and exits nonzero. The bench bins use this instead of
/// `unwrap`/`expect` on I/O so a full disk or missing directory produces a
/// readable one-line failure, not a panic with a backtrace.
pub fn or_die<T, E: std::fmt::Display>(what: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1);
    })
}

/// Serializes results to JSON, creating the parent directory; the fallible
/// core of [`dump_json`].
pub fn try_dump_json(path: &str, value: &desalign_util::Json) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, value.to_string())
}

/// Serializes results to JSON next to stdout output so EXPERIMENTS.md can
/// reference machine-readable artifacts. Exits nonzero on I/O failure —
/// a bench run whose artifact did not land must not look green.
pub fn dump_json(path: &str, value: &desalign_util::Json) {
    or_die(&format!("write {path}"), try_dump_json(path, value));
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
