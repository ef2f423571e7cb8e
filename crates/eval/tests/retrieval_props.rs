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
//!   historical dense `mutual_nearest_neighbours`;
//! - both backends reproduce the per-pair-`dot` index they replaced: the
//!   same k-means centroid bits and posting lists, the same `search_batch`
//!   ids and score bits, the same `rank_diagonal` ranks, at 1, 2 and 7
//!   threads (the reference is kept below as [`dot_reference`]).

use desalign_eval::{
    csls_rescale, csls_rescale_candidates, cosine_similarity, evaluate_ranking, evaluate_ranking_embeddings,
    mine_mutual_nn, mutual_nearest_neighbours, IndexKind, ItemIndex, IvfParams, RetrievalConfig,
    SimilarityMatrix,
};
use desalign_parallel::with_threads;
use desalign_testkit::{self as testkit, ensure, ensure_eq, gen};
use desalign_tensor::{dot, rng_from_seed, Matrix, SliceRandom};

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

/// The index as it was before its scores went through the NT kernel: one
/// `dot` per (query, item) and (item, centroid) pair. Kept as the reference
/// the kernel-backed index must equal bit for bit.
mod dot_reference {
    use super::*;

    /// `(centroids, posting lists)` of the seeded spherical k-means over
    /// the normalized `items`.
    pub fn kmeans(items: &Matrix, params: &IvfParams) -> (Matrix, Vec<Vec<u32>>) {
        let (n, d) = items.shape();
        if n == 0 {
            return (Matrix::zeros(0, d), Vec::new());
        }
        let nlist = if params.nlist == 0 { (n as f64).sqrt().ceil() as usize } else { params.nlist }.clamp(1, n);
        let mut rng = rng_from_seed(params.seed);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut centroids = items.gather_rows(&order[..nlist]);
        let assign = |centroids: &Matrix| -> Vec<usize> {
            (0..n)
                .map(|i| {
                    let (mut arg, mut best) = (0, f32::NEG_INFINITY);
                    for c in 0..centroids.rows() {
                        let s = dot(items.row(i), centroids.row(c));
                        if s > best {
                            best = s;
                            arg = c;
                        }
                    }
                    arg
                })
                .collect()
        };
        for _ in 0..params.kmeans_iters {
            let cells = assign(&centroids);
            let mut sums = Matrix::zeros(nlist, d);
            let mut counts = vec![0usize; nlist];
            for (i, &c) in cells.iter().enumerate() {
                for (a, v) in sums.row_mut(c).iter_mut().zip(items.row(i)) {
                    *a += v;
                }
                counts[c] += 1;
            }
            for c in 0..nlist {
                if counts[c] == 0 {
                    continue;
                }
                let inv = 1.0 / counts[c] as f32;
                let mean: Vec<f32> = sums.row(c).iter().map(|v| v * inv).collect();
                let norm = mean.iter().map(|v| v * v).sum::<f32>().sqrt();
                let dst = centroids.row_mut(c);
                if norm > 1e-9 {
                    for (o, v) in dst.iter_mut().zip(&mean) {
                        *o = v / norm;
                    }
                } else {
                    dst.copy_from_slice(&mean);
                }
            }
        }
        let mut lists = vec![Vec::new(); nlist];
        for (i, c) in assign(&centroids).into_iter().enumerate() {
            lists[c].push(i as u32);
        }
        (centroids, lists)
    }

    /// Score descending, id ascending.
    fn order(a: &(usize, f32), b: &(usize, f32)) -> std::cmp::Ordering {
        b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0))
    }

    /// The items a normalized query examines, each with its `dot` score:
    /// every item, or the posting lists of the `nprobe` best centroids.
    pub fn candidates(q: &[f32], items: &Matrix, ivf: Option<(&Matrix, &[Vec<u32>], usize)>) -> Vec<(usize, f32)> {
        let ids: Vec<usize> = match ivf {
            None => (0..items.rows()).collect(),
            Some((centroids, lists, nprobe)) => {
                let mut probes: Vec<(usize, f32)> = (0..centroids.rows()).map(|c| (c, dot(q, centroids.row(c)))).collect();
                probes.sort_by(order);
                probes.truncate(nprobe);
                probes.iter().flat_map(|&(c, _)| lists[c].iter().map(|&i| i as usize)).collect()
            }
        };
        ids.into_iter().map(|j| (j, dot(q, items.row(j)))).collect()
    }

    pub fn top_k(mut cands: Vec<(usize, f32)>, k: usize) -> Vec<(usize, f32)> {
        cands.sort_by(order);
        cands.truncate(k);
        cands
    }

    pub fn rank(q: &[f32], items: &Matrix, gold: usize, cands: &[(usize, f32)]) -> usize {
        let gold_score = dot(q, items.row(gold));
        1 + cands.iter().filter(|&&(_, s)| s > gold_score).count()
    }
}

#[test]
fn kernel_index_reproduces_the_per_pair_dot_index() {
    testkit::check(
        "kernel_index_matches_dot_reference",
        24,
        |rng| {
            // Mostly small shapes (d < 4, d % 4 != 0, n < 16, 1-item cells,
            // nlist = n, empty); one case in four is large enough to clear
            // the parallel dispatch threshold in build and search.
            let large = rng.gen_bool(0.25);
            let n = if large { rng.gen_range(500..800usize) } else { rng.gen_range(0..40usize) };
            let d = if large { rng.gen_range(30..50usize) } else { rng.gen_range(1..12usize) };
            let nlist = match rng.gen_range(0..4usize) {
                0 => n.max(1),
                1 => 0,
                _ => rng.gen_range(1..=n.max(1)),
            };
            let nprobe = rng.gen_range(1..=nlist.max(1) + 1);
            let params = IvfParams { nlist, nprobe, kmeans_iters: rng.gen_range(0..4usize), seed: rng.gen_range(0..1000u64) };
            let (queries, items) = if large {
                clustered(rng, 150, n, d, 12)
            } else {
                let nq = rng.gen_range(0..=n);
                (gen::matrix(rng, nq, d, -1.0, 1.0), gen::matrix(rng, n, d, -1.0, 1.0))
            };
            let k = rng.gen_range(0..=n + 2);
            (queries, items, params, k)
        },
        |(queries, items, params, k)| {
            let normalized = items.l2_normalize_rows(1e-9);
            let nq = queries.l2_normalize_rows(1e-9);
            let (centroids, lists) = dot_reference::kmeans(&normalized, params);
            let want_lists: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
            for kind in [IndexKind::Exact, IndexKind::Ivf] {
                let ivf = (kind == IndexKind::Ivf).then_some((&centroids, &lists[..], params.nprobe));
                let cands: Vec<Vec<(usize, f32)>> =
                    (0..nq.rows()).map(|q| dot_reference::candidates(nq.row(q), &normalized, ivf)).collect();
                let want_top: Vec<Vec<(usize, f32)>> = cands.iter().map(|c| dot_reference::top_k(c.clone(), *k)).collect();
                let diagonal = nq.rows().min(items.rows());
                let want_ranks: Vec<usize> =
                    (0..diagonal).map(|q| dot_reference::rank(nq.row(q), &normalized, q, &cands[q])).collect();
                let cfg = RetrievalConfig { kind, ivf: *params };
                for threads in [1, 2, 7] {
                    with_threads(threads, || {
                        let index = ItemIndex::build(items, &cfg).map_err(|e| e.to_string())?;
                        match index.ivf_cells() {
                            Some((got_centroids, got_lists)) => {
                                ensure!(kind == IndexKind::Ivf, "exact index reports IVF cells");
                                ensure!(
                                    got_centroids.as_slice().iter().map(|v| v.to_bits()).eq(centroids.as_slice().iter().map(|v| v.to_bits())),
                                    "{threads} threads: centroid bits diverged"
                                );
                                ensure!(got_lists == want_lists, "{threads} threads: posting lists diverged");
                            }
                            None => ensure!(kind == IndexKind::Exact, "IVF index reports no cells"),
                        }
                        let got = index.search_batch(queries, *k).map_err(|e| e.to_string())?;
                        ensure!(bits(&got) == bits(&want_top), "{kind:?} at {threads} threads: search_batch diverged");
                        let got = index.rank_diagonal(&queries.slice_rows(0, diagonal)).map_err(|e| e.to_string())?;
                        ensure_eq!(got, want_ranks);
                        Ok::<_, String>(())
                    })?;
                }
            }
            Ok(())
        },
    );
}
