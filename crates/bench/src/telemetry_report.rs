//! Observability smoke: trains DESAlign on a synthetic DBP15K-scale pair
//! with telemetry forced on, pretty-prints the resulting span tree, checks
//! that the `fit/epoch` total is covered by its child phases, and dumps
//! `results/TELEMETRY_report.json` (spans + counters + gauges) alongside a
//! per-epoch JSONL metrics stream.
//!
//! Environment knobs:
//! - the usual harness profile (`DESALIGN_SCALE`, `DESALIGN_EPOCHS`,
//!   `DESALIGN_DIM`, `DESALIGN_SEED`);
//! - `DESALIGN_TELEMETRY_OUT` — overrides the span-report JSON path
//!   (default `results/TELEMETRY_report.json`);
//! - `DESALIGN_METRICS_OUT` — overrides the JSONL metrics path (default
//!   `results/metrics_telemetry_report.jsonl`).
//!
//! After writing both files the run checks itself, and exits non-zero
//! unless both files are non-empty and the counter dump lists the
//! reliability and tape-workspace counters in `REQUIRED_COUNTERS`.

use crate::{dump_json, exit_on_failures, metrics_json, HarnessConfig};
use desalign_core::DesalignModel;
use desalign_mmkg::{DatasetSpec, SynthConfig};
use desalign_telemetry as telemetry;
use desalign_util::json;

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

/// Runs the report under the environment's harness profile, writes both
/// files, and exits non-zero if a check fails.
pub fn run() {
    telemetry::set_enabled(Some(true));
    telemetry::set_context(Some("telemetry_report".to_string()));
    let metrics_path = std::env::var("DESALIGN_METRICS_OUT")
        .unwrap_or_else(|_| "results/metrics_telemetry_report.jsonl".to_string());
    std::fs::create_dir_all(std::path::Path::new(&metrics_path).parent().unwrap_or_else(|| std::path::Path::new("."))).ok();
    match telemetry::MetricsSink::to_file(std::path::Path::new(&metrics_path)) {
        Ok(sink) => {
            telemetry::install_sink(sink);
        }
        Err(e) => eprintln!("warning: could not open {metrics_path}: {e}"),
    }

    let h = HarnessConfig::from_env();
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
    let report_path = std::env::var("DESALIGN_TELEMETRY_OUT")
        .unwrap_or_else(|_| "results/TELEMETRY_report.json".to_string());
    dump_json(&report_path, &out);
    if let Some(mut sink) = telemetry::take_sink() {
        sink.flush();
    }
    println!("wrote {report_path} and {metrics_path}");

    let mut failures: Vec<String> = REQUIRED_COUNTERS
        .iter()
        .filter(|c| !counters.iter().any(|(name, _)| name == *c))
        .map(|c| format!("the counter dump does not list {c}"))
        .collect();
    for path in [&report_path, &metrics_path] {
        if std::fs::metadata(path).map_or(true, |m| m.len() == 0) {
            failures.push(format!("{path} is missing or empty"));
        }
    }
    exit_on_failures("telemetry", &failures);
}
