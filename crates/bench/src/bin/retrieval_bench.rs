//! Retrieval scaling benchmark: exact scan vs IVF through `ItemIndex`.
//!
//! For each corpus size the harness builds a clustered synthetic MMKG
//! embedding table, perturbs item rows into queries, and times two top-10
//! retrieval paths:
//!
//! - **exact** — the exact `ItemIndex` scan (bit-identical to the dense
//!   cosine path, which the `retrieval_props` tests enforce; never
//!   materializes the `queries × n` matrix);
//! - **ivf** — the seeded IVF index at the configured `nprobe`.
//!
//! Alongside queries/sec it reports IVF recall@1/@10 against the exact
//! top-k and the scanned-candidate fraction from the `retrieval.*`
//! telemetry counters. The table, with the host it ran on, is written to
//! `BENCH_retrieval.json`.
//!
//! Knobs (all env vars):
//! - `DESALIGN_RETRIEVAL_SIZES` — comma-separated corpus sizes (default
//!   `1000,10000,100000`; pass `1000000` for the 1M-entity leg — the
//!   k-means build takes minutes there, so it is opt-in);
//! - `DESALIGN_RETRIEVAL_QUERIES` — queries per size (default 256);
//! - `DESALIGN_RETRIEVAL_DIM` — embedding width (default 64);
//! - `DESALIGN_RETRIEVAL_CLUSTERS` — synthetic cluster count (default 64);
//! - `DESALIGN_RETRIEVAL_NPROBE` — IVF cells probed per query (default 16);
//! - `DESALIGN_RETRIEVAL_SAMPLES` — timing samples per path (default 3);
//! - `DESALIGN_RETRIEVAL_OUT` — output path (default `BENCH_retrieval.json`);
//! - `DESALIGN_RETRIEVAL_GATE=1` — exit non-zero unless recall@10 ≥ 0.95
//!   and every QPS is finite.

use desalign_bench::timing::bench_stats;
use desalign_bench::{dump_json, or_die};
use desalign_eval::{IndexKind, ItemIndex, IvfParams, RetrievalConfig};
use desalign_tensor::{rng_from_seed, Matrix, Rng64};
use desalign_util::{json, Json};
use std::time::Instant;

const K: usize = 10;
const RECALL_FLOOR: f64 = 0.95;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

fn env_sizes() -> Vec<usize> {
    match std::env::var("DESALIGN_RETRIEVAL_SIZES") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).filter(|&n| n > 0).collect(),
        Err(_) => vec![1_000, 10_000, 100_000],
    }
}

/// Clustered embedding table: `n` rows scattered around `clusters` anchors
/// — the regime an IVF index is built for (uniform noise has no cell
/// structure and needs a far higher `nprobe` for the same recall).
fn synth_items(rng: &mut Rng64, n: usize, dim: usize, clusters: usize) -> Matrix {
    let anchors: Vec<f32> = (0..clusters * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut data = Vec::with_capacity(n * dim);
    for i in 0..n {
        let a = i % clusters;
        for j in 0..dim {
            data.push(anchors[a * dim + j] + 0.35 * rng.gen_range(-1.0f32..1.0));
        }
    }
    Matrix::from_vec(n, dim, data)
}

/// Queries perturb random item rows, mimicking the aligned-entity case.
fn synth_queries(rng: &mut Rng64, items: &Matrix, nq: usize) -> Matrix {
    let (n, dim) = (items.rows(), items.cols());
    let mut data = Vec::with_capacity(nq * dim);
    for _ in 0..nq {
        let src = rng.gen_range(0..n);
        for j in 0..dim {
            data.push(items[(src, j)] + 0.1 * rng.gen_range(-1.0f32..1.0));
        }
    }
    Matrix::from_vec(nq, dim, data)
}

fn mean_recall(approx: &[Vec<(usize, f32)>], exact: &[Vec<(usize, f32)>], k: usize) -> f64 {
    let mut hit = 0usize;
    let mut total = 0usize;
    for (a, e) in approx.iter().zip(exact) {
        let truth: std::collections::HashSet<usize> = e.iter().take(k).map(|&(i, _)| i).collect();
        total += truth.len();
        hit += a.iter().take(k).filter(|&&(i, _)| truth.contains(&i)).count();
    }
    if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    }
}

struct SizeReport {
    row: Json,
    recall_at_10: f64,
    qps: [f64; 2],
}

fn run_size(n: usize, nq: usize, dim: usize, clusters: usize, nprobe: usize, samples: usize) -> SizeReport {
    let mut rng = rng_from_seed(0xD15A ^ n as u64);
    let items = synth_items(&mut rng, n, dim, clusters.min(n));
    let queries = synth_queries(&mut rng, &items, nq.min(n.max(1)));
    let nq = queries.rows();

    // --- exact scan ----------------------------------------------------------
    let exact_cfg = RetrievalConfig { kind: IndexKind::Exact, ..RetrievalConfig::default() };
    let exact = or_die("exact index", ItemIndex::build(&items, &exact_cfg));
    let exact_lists = or_die("exact search", exact.search_batch(&queries, K));
    let exact_stats = bench_stats(&format!("exact/{n}"), samples, || {
        std::hint::black_box(exact.search_batch(&queries, K).ok());
    });
    let qps_exact = nq as f64 / exact_stats.median.as_secs_f64();

    // --- IVF ---------------------------------------------------------------
    let ivf_cfg = RetrievalConfig { kind: IndexKind::Ivf, ivf: IvfParams { nprobe, ..IvfParams::default() } };
    let build_start = Instant::now();
    let ivf = or_die("ivf build", ItemIndex::build(&items, &ivf_cfg));
    let build_secs = build_start.elapsed().as_secs_f64();
    let num_cells = ivf.num_cells();

    desalign_telemetry::set_enabled(Some(true));
    desalign_telemetry::reset_metrics();
    let ivf_lists = or_die("ivf search", ivf.search_batch(&queries, K));
    let probes = desalign_telemetry::counter("retrieval.probes").get();
    let candidates = desalign_telemetry::counter("retrieval.candidates").get();
    desalign_telemetry::set_enabled(Some(false));

    let ivf_stats = bench_stats(&format!("ivf/{n}"), samples, || {
        std::hint::black_box(ivf.search_batch(&queries, K).ok());
    });
    let qps_ivf = nq as f64 / ivf_stats.median.as_secs_f64();

    let recall_at_1 = mean_recall(&ivf_lists, &exact_lists, 1);
    let recall_at_10 = mean_recall(&ivf_lists, &exact_lists, K);
    let scanned_fraction = candidates as f64 / (nq as f64 * n.max(1) as f64);

    println!(
        "n={n:<8} build {build_secs:>7.3}s cells {num_cells:<5} probes/q {:<5.1} scanned {:>5.1}%  recall@1 {recall_at_1:.3} recall@10 {recall_at_10:.3}  QPS exact {qps_exact:>10.0} ivf {qps_ivf:>10.0}",
        probes as f64 / nq.max(1) as f64,
        scanned_fraction * 100.0,
    );

    let row = json!({
        "n": n,
        "queries": nq,
        "dim": dim,
        "nprobe": nprobe,
        "num_cells": num_cells,
        "ivf_build_secs": build_secs,
        "qps_exact": qps_exact,
        "qps_ivf": qps_ivf,
        "recall_at_1": recall_at_1,
        "recall_at_10": recall_at_10,
        "scanned_fraction": scanned_fraction,
    });
    SizeReport { row, recall_at_10, qps: [qps_exact, qps_ivf] }
}

fn main() {
    let sizes = env_sizes();
    let nq = env_usize("DESALIGN_RETRIEVAL_QUERIES", 256);
    let dim = env_usize("DESALIGN_RETRIEVAL_DIM", 64);
    let clusters = env_usize("DESALIGN_RETRIEVAL_CLUSTERS", 64);
    let nprobe = env_usize("DESALIGN_RETRIEVAL_NPROBE", 16);
    let samples = env_usize("DESALIGN_RETRIEVAL_SAMPLES", 3);
    let gate = std::env::var("DESALIGN_RETRIEVAL_GATE").as_deref() == Ok("1");
    let out = std::env::var("DESALIGN_RETRIEVAL_OUT").unwrap_or_else(|_| "BENCH_retrieval.json".into());

    println!("retrieval bench: sizes {sizes:?}, {nq} queries, dim {dim}, nprobe {nprobe}");
    let mut rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for &n in &sizes {
        let report = run_size(n, nq, dim, clusters, nprobe, samples);
        if report.recall_at_10 < RECALL_FLOOR {
            failures.push(format!("n={n}: recall@10 {:.3} < {RECALL_FLOOR}", report.recall_at_10));
        }
        if report.qps.iter().any(|q| !q.is_finite() || *q <= 0.0) {
            failures.push(format!("n={n}: non-finite or zero QPS {:?}", report.qps));
        }
        rows.push(report.row);
    }

    dump_json(&out, &json!({
        "host": json!({
            "cpu_model": desalign_bench::cpu_model(),
            "host_threads": std::thread::available_parallelism().map_or(1, |n| n.get()),
            "parallel_threads": desalign_parallel::current_threads(),
        }),
        "k": K,
        "recall_floor": RECALL_FLOOR,
        "queries": nq,
        "dim": dim,
        "nprobe": nprobe,
        "sizes": rows,
    }));

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("retrieval gate FAILED: {f}");
        }
        if gate {
            std::process::exit(1);
        }
        println!("(gate not enforced: set DESALIGN_RETRIEVAL_GATE=1 to fail on this)");
    } else {
        println!("retrieval gate OK: recall@10 ≥ {RECALL_FLOOR}, every QPS finite");
    }
}
