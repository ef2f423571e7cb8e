//! Runs one benchmark workload:
//!
//! ```text
//! desalign-benchmark --workload <train|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's host facts as one `facts` JSON line, the per-layer
//! span table on a traced run, and as its last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

use desalign_benchmark::{run, trace, Options, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: desalign-benchmark --workload <train|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workdir: PathBuf::from(".bench_work"),
        sizes: Sizes::FULL,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("desalign-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    println!("facts {}", desalign_util::Json::Object(report.facts.clone()));
    if opts.trace {
        print!("{}", trace::render(&report.layers));
        for (name, value, unit) in &report.metrics {
            println!("{name:<32} {value:>16.6} {unit}");
        }
    }
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
