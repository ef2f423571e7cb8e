//! Observability smoke: trains DESAlign on a synthetic DBP15K-scale pair
//! with telemetry forced on, pretty-prints the resulting span tree, checks
//! that the `fit/epoch` total is covered by its child phases, and writes
//! `TELEMETRY_report.json` (spans + counters + gauges) and, next to it, the
//! per-epoch JSONL metrics stream `metrics_telemetry_report.jsonl` (into
//! `results/` from the binary).
//!
//! After writing both files the run checks itself: it fails unless both
//! files are non-empty and the counter dump lists the reliability and
//! tape-workspace counters in `REQUIRED_COUNTERS`. It switches telemetry
//! on and installs the process-global metrics sink, so nothing else may
//! run in its process.

use crate::{metrics_json, write_artifact, HarnessConfig};
use desalign_core::DesalignModel;
use desalign_mmkg::{DatasetSpec, SynthConfig};
use desalign_telemetry as telemetry;
use desalign_util::json;
use std::path::Path;

/// Where `desalign-bench telemetry_report` writes its two files.
pub const OUT_DIR: &str = "results";

/// Counters the trainer registers on every run, including the ones that
/// stay zero on a clean run: dashboards must see explicit zeros.
const REQUIRED_COUNTERS: [&str; 4] = ["train.resumes", "train.rollbacks", "tape.ws_fresh", "tape.ws_reused"];

/// Locates the `fit` root and its `epoch` child in the span forest.
fn find_epoch(roots: &[telemetry::SpanNode]) -> Option<(u64, u64)> {
    let fit = roots.iter().find(|n| n.name == "fit")?;
    let epoch = fit.children.iter().find(|n| n.name == "epoch")?;
    let child_total: u64 = epoch.children.iter().map(|c| c.total_ns).sum();
    Some((epoch.total_ns, child_total))
}

/// Runs the report under profile `h`, writes both files into `out_dir`,
/// and returns every failed check.
pub fn run(h: &HarnessConfig, out_dir: &Path) -> Vec<String> {
    telemetry::set_enabled(Some(true));
    telemetry::set_context(Some("telemetry_report".to_string()));
    let report_path = out_dir.join("TELEMETRY_report.json");
    let metrics_path = out_dir.join("metrics_telemetry_report.jsonl");
    std::fs::create_dir_all(out_dir).ok();
    match telemetry::MetricsSink::to_file(&metrics_path) {
        Ok(sink) => {
            telemetry::install_sink(sink);
        }
        Err(e) => eprintln!("warning: could not open {}: {e}", metrics_path.display()),
    }

    let ds = SynthConfig::preset(DatasetSpec::Dbp15kFrEn).scaled(h.scale).generate(h.seed);
    let mut model = DesalignModel::new(h.desalign_cfg(), &ds, h.seed);
    let report = model.fit(&ds);
    let metrics = model.evaluate(&ds);

    let roots = telemetry::span_report();
    println!("=== span tree ===");
    print!("{}", telemetry::render_span_tree(&roots));
    println!("=== counters/gauges ===");
    let counters = telemetry::counters_snapshot();
    for (name, v) in &counters {
        println!("{name} = {v}");
    }
    for (name, v) in telemetry::gauges_snapshot() {
        println!("{name} = {v}");
    }

    // Coverage: the per-epoch phases (sample/forward/energy/backward/
    // optimizer/eval) should account for nearly all of the epoch wall-clock;
    // a large gap means an uninstrumented hot path crept in.
    match find_epoch(&roots) {
        Some((epoch_total, child_total)) => {
            let covered = child_total as f64 / epoch_total.max(1) as f64;
            println!(
                "epoch coverage: children {:.1}% of epoch total ({child_total} / {epoch_total} ns)",
                covered * 100.0
            );
        }
        None => println!("epoch coverage: fit/epoch span not found"),
    }

    println!(
        "trained {} epochs, H@1 {:.3} / H@10 {:.3} / MRR {:.3}",
        report.epochs_run, metrics.hits_at_1, metrics.hits_at_10, metrics.mrr
    );

    let out = json!({
        "spans": telemetry::spans_json(),
        "metrics": telemetry::metrics_json(),
        "eval": metrics_json(&metrics),
        "epochs_run": report.epochs_run,
    });
    let mut failures = write_artifact(&report_path, &out);
    if let Some(mut sink) = telemetry::take_sink() {
        sink.flush();
    }
    println!("wrote {}", metrics_path.display());

    failures.extend(
        REQUIRED_COUNTERS
            .iter()
            .filter(|c| !counters.iter().any(|(name, _)| name == *c))
            .map(|c| format!("the counter dump does not list {c}")),
    );
    for path in [&report_path, &metrics_path] {
        if std::fs::metadata(path).map_or(true, |m| m.len() == 0) {
            failures.push(format!("{} is missing or empty", path.display()));
        }
    }
    failures
}
