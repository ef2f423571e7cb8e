//! `retrieval_bench` at a small size: IVF keeps recall@10 ≥ 0.95 against
//! the exact scan and every QPS is finite. Its own test binary, because
//! the bench switches the process-global telemetry on to read the
//! `retrieval.*` counters.

use desalign_bench::retrieval_bench::{run, Sizes};

#[test]
fn small_run_passes_every_check() {
    let dir = std::env::temp_dir().join(format!("desalign-retrieval-test-{}", std::process::id()));
    let failures = run(&Sizes { corpus: &[2_000], queries: 200, samples: 2 }, &dir);
    let written = dir.join("BENCH_retrieval.json").exists();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(failures, Vec::<String>::new());
    assert!(written, "no artifact written");
}
