//! Property tests for the retrieval index (`desalign_eval::ItemIndex`).
//!
//! The contracts pinned here are the ones the rest of the workspace relies
//! on:
//!
//! - the exact scan is **bit-identical** to the dense cosine path (ids and
//!   score bits) at any thread count;
//! - IVF recall against the exact top-k is **monotone in `nprobe`** (probing
//!   more cells can only add candidates, and a true top-k element can only
//!   be displaced by globally better elements — of which there are < k);
//! - IVF build + search are bit-identical across `DESALIGN_THREADS`;
//! - candidate-set CSLS reproduces the dense `csls_rescale` entries
//!   bit-for-bit when the candidate lists are exact and full-length;
//! - embedding-level mutual-NN mining with the exact backend reproduces the
//!   historical dense `mutual_nearest_neighbours`.

use desalign_eval::{
    csls_rescale, csls_rescale_candidates, cosine_similarity, evaluate_ranking, evaluate_ranking_embeddings,
    mine_mutual_nn, mutual_nearest_neighbours, IndexKind, ItemIndex, IvfParams, RetrievalConfig,
    SimilarityMatrix,
};
use desalign_parallel::with_threads;
use desalign_testkit::{self as testkit, ensure, ensure_eq, gen};
use desalign_tensor::Matrix;

const THREADS: [usize; 3] = [1, 2, 4];

fn bits(lists: &[Vec<(usize, f32)>]) -> Vec<Vec<(usize, u32)>> {
    lists.iter().map(|l| l.iter().map(|&(i, s)| (i, s.to_bits())).collect()).collect()
}

fn exact() -> RetrievalConfig {
    RetrievalConfig { kind: IndexKind::Exact, ..RetrievalConfig::default() }
}

fn ivf(nprobe: usize) -> RetrievalConfig {
    RetrievalConfig { kind: IndexKind::Ivf, ivf: IvfParams { nprobe, ..IvfParams::default() } }
}

/// Top-`k` of every row of a dense (finite) score matrix, ordered by score
/// descending then id ascending — the reference the index must reproduce.
fn dense_top_k(sim: &SimilarityMatrix, k: usize) -> Vec<Vec<(usize, f32)>> {
    let (n_s, _) = sim.shape();
    (0..n_s)
        .map(|i| {
            let mut row: Vec<(usize, f32)> = sim.scores().row(i).iter().copied().enumerate().collect();
            row.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            row.truncate(k);
            row
        })
        .collect()
}

fn top_k(items: &Matrix, queries: &Matrix, k: usize, cfg: &RetrievalConfig) -> Result<Vec<Vec<(usize, f32)>>, String> {
    let index = ItemIndex::build(items, cfg).map_err(|e| e.to_string())?;
    index.search_batch(queries, k).map_err(|e| e.to_string())
}

/// Clustered embeddings: rows near `centers` shared cluster anchors, which
/// is the regime where IVF cells are meaningful. Returns (queries, items)
/// where each query perturbs some item row.
fn clustered(rng: &mut testkit::Rng64, nq: usize, n: usize, d: usize, centers: usize) -> (Matrix, Matrix) {
    let anchors = gen::matrix(rng, centers, d, -1.0, 1.0);
    let mut items = Vec::with_capacity(n * d);
    for i in 0..n {
        let a = i % centers;
        for j in 0..d {
            items.push(anchors[(a, j)] + 0.35 * rng.gen_range(-1.0f32..1.0));
        }
    }
    let items = Matrix::from_vec(n, d, items);
    let mut queries = Vec::with_capacity(nq * d);
    for q in 0..nq {
        let src = rng.gen_range(0..n);
        for j in 0..d {
            queries.push(items[(src, j)] + 0.1 * rng.gen_range(-1.0f32..1.0));
        }
        let _ = q;
    }
    (Matrix::from_vec(nq, d, queries), items)
}

#[test]
fn exact_matches_dense_at_any_thread_count() {
    testkit::check(
        "exact_matches_dense",
        12,
        |rng| {
            let nq = rng.gen_range(1..12usize);
            let n = rng.gen_range(1..40usize);
            let d = rng.gen_range(2..10usize);
            let k = rng.gen_range(1..=n + 2);
            (gen::matrix(rng, nq, d, -1.0, 1.0), gen::matrix(rng, n, d, -1.0, 1.0), k)
        },
        |(q, t, k)| {
            let reference = bits(&dense_top_k(&cosine_similarity(q, t), *k));
            for threads in THREADS {
                let got = with_threads(threads, || top_k(t, q, *k, &exact()))?;
                ensure!(bits(&got) == reference, "{threads} threads diverged from dense top-{k}");
            }
            Ok(())
        },
    );
}

#[test]
fn ivf_recall_is_monotone_in_nprobe() {
    testkit::check(
        "ivf_recall_monotone_in_nprobe",
        8,
        |rng| {
            let n = rng.gen_range(60..160usize);
            let (q, t) = clustered(rng, 10, n, 8, 8);
            (q, t)
        },
        |(q, t)| {
            let k = 10usize;
            let truth: Vec<std::collections::HashSet<usize>> = top_k(t, q, k, &exact())?
                .iter()
                .map(|l| l.iter().map(|&(i, _)| i).collect())
                .collect();
            let mut prev = -1.0f64;
            for nprobe in [1usize, 2, 4, 8, 64] {
                let lists = top_k(t, q, k, &ivf(nprobe))?;
                let mut hit = 0usize;
                let mut total = 0usize;
                for (gold, list) in truth.iter().zip(&lists) {
                    total += gold.len();
                    hit += list.iter().filter(|&&(i, _)| gold.contains(&i)).count();
                }
                let recall = hit as f64 / total.max(1) as f64;
                ensure!(
                    recall + 1e-12 >= prev,
                    "recall dropped from {prev} to {recall} when nprobe rose to {nprobe}"
                );
                prev = recall;
            }
            // Probing every cell must recover the exact answer entirely.
            ensure!((prev - 1.0).abs() < 1e-12, "nprobe ≥ nlist should give recall 1.0, got {prev}");
            Ok(())
        },
    );
}

#[test]
fn ivf_build_and_search_are_bit_identical_across_thread_counts() {
    testkit::check(
        "ivf_bit_identical_across_threads",
        8,
        |rng| {
            let n = rng.gen_range(40..120usize);
            let (q, t) = clustered(rng, 8, n, 6, 6);
            (q, t)
        },
        |(q, t)| {
            let runs: Vec<_> = THREADS
                .iter()
                .map(|&threads| {
                    with_threads(threads, || {
                        let index = ItemIndex::build(t, &ivf(3)).map_err(|e| e.to_string())?;
                        let lists = index.search_batch(q, 5).map_err(|e| e.to_string())?;
                        Ok::<_, String>((index.num_cells(), bits(&lists)))
                    })
                })
                .collect::<Result<_, _>>()?;
            for pair in runs.windows(2) {
                ensure_eq!(pair[0], pair[1]);
            }
            Ok(())
        },
    );
}

#[test]
fn candidate_csls_matches_dense_csls_bitwise() {
    testkit::check(
        "candidate_csls_matches_dense",
        10,
        |rng| {
            let nq = rng.gen_range(2..10usize);
            let n = rng.gen_range(2..16usize);
            let d = rng.gen_range(2..8usize);
            let k = rng.gen_range(1..=n.min(nq));
            (gen::matrix(rng, nq, d, -1.0, 1.0), gen::matrix(rng, n, d, -1.0, 1.0), k)
        },
        |(q, t, k)| {
            let sim = cosine_similarity(q, t);
            let rescaled = csls_rescale(&sim, *k);
            // Candidate path: exact full-length lists through the index.
            let forward = top_k(t, q, t.rows(), &exact())?;
            let reverse = top_k(q, t, *k, &exact())?;
            let rescored = csls_rescale_candidates(&forward, &reverse, *k);
            for (qi, list) in rescored.iter().enumerate() {
                ensure_eq!(list.len(), t.rows());
                for &(j, s) in list {
                    let want = rescaled.scores()[(qi, j)];
                    ensure!(
                        s.to_bits() == want.to_bits(),
                        "csls({qi},{j}) = {s} but dense rescale says {want}"
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn exact_mutual_nn_matches_dense_mining() {
    testkit::check(
        "exact_mutual_nn_matches_dense",
        10,
        |rng| {
            let n_s = rng.gen_range(3..20usize);
            let n_t = rng.gen_range(3..20usize);
            let d = rng.gen_range(2..8usize);
            let cand_s: Vec<usize> = (0..n_s).filter(|_| rng.gen_bool(0.7)).collect();
            let cand_t: Vec<usize> = (0..n_t).filter(|_| rng.gen_bool(0.7)).collect();
            let min_score = rng.gen_range(-0.5f32..0.5);
            (gen::matrix(rng, n_s, d, -1.0, 1.0), gen::matrix(rng, n_t, d, -1.0, 1.0), cand_s, cand_t, min_score)
        },
        |(x_s, x_t, cand_s, cand_t, min_score)| {
            let sim = cosine_similarity(x_s, x_t);
            let want = mutual_nearest_neighbours(&sim, cand_s, cand_t, *min_score);
            let got = mine_mutual_nn(x_s, x_t, cand_s, cand_t, *min_score, &exact()).map_err(|e| e.to_string())?;
            let norm = |v: &[(usize, usize, f32)]| -> Vec<(usize, usize, u32)> {
                v.iter().map(|&(s, t, sc)| (s, t, sc.to_bits())).collect()
            };
            ensure_eq!(norm(&got), norm(&want));
            Ok(())
        },
    );
}

#[test]
fn exact_embedding_evaluation_matches_dense_bitwise() {
    testkit::check(
        "exact_eval_matches_dense",
        10,
        |rng| {
            let n = rng.gen_range(2..24usize);
            let d = rng.gen_range(2..8usize);
            let n_pairs = rng.gen_range(1..=n);
            let pairs: Vec<(usize, usize)> = gen::usize_vec(rng, n_pairs, n)
                .into_iter()
                .zip(gen::usize_vec(rng, n, n))
                .collect();
            (gen::matrix(rng, n, d, -1.0, 1.0), gen::matrix(rng, n, d, -1.0, 1.0), pairs)
        },
        |(x_s, x_t, pairs)| {
            let want = evaluate_ranking(&cosine_similarity(x_s, x_t), pairs);
            for threads in THREADS {
                let got = with_threads(threads, || evaluate_ranking_embeddings(x_s, x_t, pairs, &exact()))
                    .map_err(|e| e.to_string())?;
                ensure_eq!(got.hits_at_1.to_bits(), want.hits_at_1.to_bits());
                ensure_eq!(got.hits_at_10.to_bits(), want.hits_at_10.to_bits());
                ensure_eq!(got.mrr.to_bits(), want.mrr.to_bits());
                ensure_eq!(got.num_queries, want.num_queries);
            }
            Ok(())
        },
    );
}
