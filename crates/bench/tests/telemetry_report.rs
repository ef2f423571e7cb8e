//! `telemetry_report` at a tiny profile: both files are written and the
//! counter dump lists the reliability and tape-workspace counters. Its own
//! test binary, because the report switches the process-global telemetry
//! on and installs the global metrics sink.

use desalign_bench::{telemetry_report, HarnessConfig};

#[test]
fn small_run_passes_every_check() {
    let h = HarnessConfig { scale: 40, epochs: 3, hidden_dim: 64, seed: 17 };
    let dir = std::env::temp_dir().join(format!("desalign-telemetry-test-{}", std::process::id()));
    let failures = telemetry_report::run(&h, &dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(failures, Vec::<String>::new());
}
