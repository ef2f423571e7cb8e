//! `desalign-bench <artifact>` — regenerates one artifact of the paper's
//! evaluation into `results/`, or runs one self-checking bench. DESIGN.md §4
//! indexes the artifacts; `run_experiments.sh` runs all eleven paper ones.
//!
//! A missing or unknown name prints the list of names to stderr and exits
//! with status 2.

use desalign_bench::{
    chaos_bench, exit_on_failures, or_die, paper, retrieval_bench, robustness_sweep, serve_bench, streaming_bench,
    telemetry_report, HarnessConfig,
};
use std::path::Path;

/// A self-checking bench: its name and a run that writes its artifact
/// into its module's `OUT_DIR` and returns its failed checks.
type Bench = (&'static str, fn() -> Vec<String>);

const BENCHES: [Bench; 6] = [
    ("chaos_bench", || chaos_bench::run(Path::new(chaos_bench::OUT_DIR))),
    ("retrieval_bench", || retrieval_bench::run(&retrieval_bench::FULL, Path::new(retrieval_bench::OUT_DIR))),
    ("robustness_sweep", || robustness_sweep::run(&HarnessConfig::from_env(), Path::new(robustness_sweep::OUT_DIR))),
    ("serve_bench", || serve_bench::run(&serve_bench::FULL, Path::new(serve_bench::OUT_DIR))),
    ("streaming_bench", || streaming_bench::run(&streaming_bench::FULL, Path::new(streaming_bench::OUT_DIR))),
    ("telemetry_report", || telemetry_report::run(&HarnessConfig::from_env(), Path::new(telemetry_report::OUT_DIR))),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [name] = args.as_slice() else { usage() };
    if let Some(artifact) = paper::find(name) {
        or_die(artifact.name, artifact.run(&HarnessConfig::from_env(), Path::new("results")));
    } else if let Some((name, run)) = BENCHES.iter().find(|(n, _)| n == name) {
        exit_on_failures(name, &run());
        println!("{name}: every check passed");
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
