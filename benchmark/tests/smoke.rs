//! Tiny-scale smoke runs of every workload, untraced and traced: each
//! reports every metric of its run kind by name and unit, finite, with no
//! failed operation; `quality` lies in [0, 1]; and the traced run's
//! `unaccounted` entries are non-negative.

use desalign_benchmark::{run, Options, Report, Sizes, Workload, END_TO_END, PER_LAYER};
use desalign_util::Json;
use std::path::PathBuf;
use std::sync::Mutex;

/// Telemetry, the span registry and the pool override are process-global:
/// runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

const TINY: Sizes = Sizes {
    setup_reps: 2,
    train_scale: 60,
    train_epochs: 3,
    serve_scale: 60,
    serve_fixture_epochs: 1,
    serve_rate: 200.0,
};

fn tiny_run(workload: Workload, trace: bool, workdir: &str) -> Report {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    run(&Options {
        workload,
        seed: 3,
        seconds: 0.5,
        trace,
        workdir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workdir),
        sizes: TINY,
    })
}

fn check(report: &Report, trace: bool) {
    assert!(report.correct, "run not correct: {:?}", report.facts);
    assert_eq!(report.failed, 0);
    assert!(report.attempted >= 1);
    let expected = if trace { PER_LAYER } else { END_TO_END };
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|(n, _, u)| (n.as_str(), u.as_str())).collect();
    assert_eq!(got, expected.to_vec());
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
    let result = Json::parse(&report.result_json().to_string()).expect("result line is JSON");
    let keys: Vec<&str> = result.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    if trace {
        assert!(report.layers.iter().any(|r| r.path.ends_with("/unaccounted")), "no unaccounted rows");
        for row in report.layers.iter().filter(|r| r.path.ends_with("/unaccounted")) {
            assert!(row.self_s >= 0.0, "{} = {}", row.path, row.self_s);
        }
    } else {
        let quality = report.metric("quality").expect("quality");
        assert!((0.0..=1.0).contains(&quality), "quality {quality}");
    }
}

#[test]
fn train_untraced_repeats_its_quality() {
    let first = tiny_run(Workload::Train, false, "train");
    check(&first, false);
    // The second run checks H@1 against the bits the first one recorded.
    let second = tiny_run(Workload::Train, false, "train");
    check(&second, false);
    assert_eq!(first.metric("quality"), second.metric("quality"));
}

#[test]
fn train_traced() {
    let report = tiny_run(Workload::Train, true, "train-traced");
    check(&report, true);
    assert!(report.metric("core.trainer.unaccounted_ms").expect("reported") >= 0.0);
    assert!(report.metric("core.trainer.backward_ms").expect("reported") > 0.0);
}

#[test]
fn serve_untraced() {
    check(&tiny_run(Workload::Serve, false, "serve"), false);
}

#[test]
fn serve_traced() {
    let report = tiny_run(Workload::Serve, true, "serve-traced");
    check(&report, true);
    assert_eq!(report.metric("serve.errors"), Some(0.0));
    assert!(report.metric("serve.batch_mean").expect("reported") >= 1.0);
}

/// BENCHMARK.json at the repository root lists exactly the metrics the
/// benchmark reports, with the same units.
#[test]
fn benchmark_json_matches_the_metric_lists() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    for (key, expected) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String)> = doc
            .get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap_or("").into(),
                    m.get("unit").and_then(Json::as_str).unwrap_or("").into(),
                )
            })
            .collect();
        let want: Vec<(String, String)> = expected.iter().map(|&(n, u)| (n.into(), u.into())).collect();
        assert_eq!(listed, want, "{key}");
    }
}
