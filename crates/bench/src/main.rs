//! `desalign-bench <artifact>` — regenerates one artifact of the paper's
//! evaluation into `results/`, or runs one self-checking bench. DESIGN.md §4
//! indexes the artifacts; `run_experiments.sh` runs all eleven paper ones.
//!
//! A missing or unknown name prints the list of names to stderr and exits
//! with status 2.

use desalign_bench::{
    or_die, paper, retrieval_bench, robustness_sweep, streaming_bench, telemetry_report, HarnessConfig,
};
use std::path::Path;

/// The self-checking benches: each writes its artifact where its
/// `DESALIGN_*_OUT` variable says, then exits non-zero on a failed check.
const BENCHES: [(&str, fn()); 4] = [
    ("retrieval_bench", retrieval_bench::run),
    ("robustness_sweep", robustness_sweep::run),
    ("streaming_bench", streaming_bench::run),
    ("telemetry_report", telemetry_report::run),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [name] = args.as_slice() else { usage() };
    if let Some(artifact) = paper::find(name) {
        or_die(artifact.name, artifact.run(&HarnessConfig::from_env(), Path::new("results")));
    } else if let Some((_, run)) = BENCHES.iter().find(|(n, _)| n == name) {
        run();
    } else {
        usage();
    }
}

fn usage() -> ! {
    eprintln!("usage: desalign-bench <artifact>");
    eprintln!("paper artifacts (JSON into results/):");
    for a in &paper::ARTIFACTS {
        eprintln!("  {}", a.name);
    }
    eprintln!("self-checking benches:");
    for (name, _) in BENCHES {
        eprintln!("  {name}");
    }
    std::process::exit(2);
}
