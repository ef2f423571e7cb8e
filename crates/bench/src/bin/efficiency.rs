//! **§V-E** — efficiency analysis.
//!
//! Wall-clock training time per method, the cost of the Semantic
//! Propagation step in isolation, and SP's scaling in the number of edges
//! (the paper claims `O(|E| d)` — linear — and that SP runs in seconds on
//! CPU even for graphs beyond GPU memory).

use desalign_bench::{cpu_model, HarnessConfig, ALL_WITH_OURS};
use desalign_core::DesalignModel;
use desalign_graph::{propagate_features, PropagationConfig};
use desalign_mmkg::{DatasetSpec, SynthConfig};
use desalign_parallel::configured_threads;
use desalign_tensor::{normal_matrix, rng_from_seed};
use std::time::Instant;

fn main() {
    let h = HarnessConfig::from_env();
    let mut all_json = Vec::new();
    let host_threads = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    println!("host: {}, {host_threads} hardware thread(s), pool {} thread(s)\n", cpu_model(), configured_threads());

    println!("=== Training wall-clock per method (scale {}, {} epochs) ===", h.scale, h.epochs);
    for spec in [DatasetSpec::FbDb15k, DatasetSpec::Dbp15kFrEn] {
        let ds = SynthConfig::preset(spec).scaled(h.scale).generate(h.seed);
        println!("\n{}", ds.name);
        for method in ALL_WITH_OURS {
            let mut aligner = method.build(&h, &ds, h.seed);
            let secs = aligner.fit(&ds);
            let m = aligner.evaluate(&ds);
            println!("  {:<10} {:>7.2}s   (H@1 {:.1})", method.name(), secs, m.hits_at_1 * 100.0);
            all_json.push(desalign_util::json!({
                "dataset": spec.name(), "method": method.name(), "fit_seconds": secs,
                "h1": m.hits_at_1,
            }));
        }
        // SP in isolation, on the trained DESAlign embeddings.
        let mut model = DesalignModel::new(h.desalign_cfg(), &ds, h.seed);
        model.fit(&ds);
        let t0 = Instant::now();
        let _ = model.similarity();
        let sp_total = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = model.similarity_with_iterations(0);
        let cosine_only = t0.elapsed().as_secs_f64();
        println!("  semantic propagation (incl. similarity): {:.3}s; plain cosine: {:.3}s; SP overhead: {:.3}s",
            sp_total, cosine_only, (sp_total - cosine_only).max(0.0));
        all_json.push(desalign_util::json!({
            "dataset": spec.name(), "sp_seconds": sp_total - cosine_only,
        }));
    }

    println!("\n=== SP scaling in |E| (one x ← Ãx step, d = {}) ===", h.hidden_dim);
    println!("{:>8} {:>10} {:>12} {:>14}", "nodes", "edges", "step (ms)", "ms per 1k nnz");
    let mut rng = rng_from_seed(h.seed);
    for &n in &[500usize, 1000, 2000, 4000, 8000] {
        let cfg = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(n);
        let ds = cfg.generate(h.seed);
        let g = ds.source.graph();
        let a = g.normalized_adjacency(true);
        let x = normal_matrix(&mut rng, g.num_nodes(), h.hidden_dim, 0.0, 1.0);
        let known = vec![false; g.num_nodes()];
        let pcfg = PropagationConfig { iterations: 1, step: 1.0, reset_known: false };
        // Warm-up then timed repetitions.
        let _ = propagate_features(&a, &x, &known, &pcfg);
        let reps = 5;
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = propagate_features(&a, &x, &known, &pcfg);
        }
        let ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;
        println!("{:>8} {:>10} {:>12.2} {:>14.4}", g.num_nodes(), a.nnz(), ms, ms / (a.nnz() as f64 / 1000.0));
        all_json.push(desalign_util::json!({
            "nodes": g.num_nodes(), "nnz": a.nnz(), "sp_step_ms": ms,
        }));
    }
    println!("(near-constant ms per 1k nonzeros ⇒ the O(|E|·d) claim holds)");
    desalign_bench::dump_json("results/efficiency.json", &desalign_util::json!(all_json));
}
