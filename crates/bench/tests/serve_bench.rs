//! `serve_bench` at a small closed-loop load: every closed and open leg
//! reports finite positive p50/p99/QPS with zero failed requests. Its own
//! test binary, because the legs pin the process-global thread count.

use desalign_bench::serve_bench::{run, Load};

#[test]
fn small_load_passes_every_check() {
    let dir = std::env::temp_dir().join(format!("desalign-serve-bench-test-{}", std::process::id()));
    let failures = run(&Load { clients: 2, requests_per_client: 40 }, &dir);
    let written = dir.join("BENCH_serve.json").exists();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(failures, Vec::<String>::new());
    assert!(written, "no artifact written");
}
