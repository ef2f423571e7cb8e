//! `chaos_bench` in full: every fault scenario passes with zero panics.
//! Its own test binary, because the scenarios own the process-global
//! failpoint registry.

#[test]
fn every_scenario_passes() {
    let dir = std::env::temp_dir().join(format!("desalign-chaos-test-{}", std::process::id()));
    let failures = desalign_bench::chaos_bench::run(&dir);
    let written = dir.join("BENCH_chaos.json").exists();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(failures, Vec::<String>::new());
    assert!(written, "no artifact written");
}
