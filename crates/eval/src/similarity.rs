//! Similarity matrices between two embedding sets, and CSLS re-scoring
//! over a dense matrix or over [`ItemIndex`] candidate lists.

use crate::index::beats;
use crate::{ItemIndex, RetrievalConfig};
use desalign_tensor::Matrix;
use desalign_util::DesalignError;

/// A dense `n_source × n_target` pairwise-similarity matrix `Ω`
/// (Algorithm 1's output).
#[derive(Clone, Debug)]
pub struct SimilarityMatrix {
    scores: Matrix,
}

impl SimilarityMatrix {
    /// Wraps a raw score matrix.
    pub fn new(scores: Matrix) -> Self {
        Self { scores }
    }

    /// The raw score matrix.
    pub fn scores(&self) -> &Matrix {
        &self.scores
    }

    /// Shape `(n_source, n_target)`.
    pub fn shape(&self) -> (usize, usize) {
        self.scores.shape()
    }

    /// Element-wise average of several similarity matrices — the mean over
    /// Semantic Propagation rounds (Algorithm 1, line 15).
    ///
    /// # Panics
    /// Panics if `mats` is empty or shapes disagree.
    pub fn average(mats: &[SimilarityMatrix]) -> SimilarityMatrix {
        assert!(!mats.is_empty(), "SimilarityMatrix::average: no matrices");
        let mut acc = mats[0].scores.clone();
        for m in &mats[1..] {
            acc = acc.add(&m.scores);
        }
        SimilarityMatrix { scores: acc.scale(1.0 / mats.len() as f32) }
    }

    /// For source row `i`, the target indices sorted by descending score.
    pub fn ranked_targets(&self, i: usize) -> Vec<usize> {
        let row = self.scores.row(i);
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap_or(std::cmp::Ordering::Equal));
        idx
    }

    /// Rank (1-based) of `target` among source row `i`'s candidates, i.e.
    /// `1 + |{j : score(i,j) > score(i,target)}|`. Ties rank optimistically
    /// (standard competition ranking on strictly-greater scores); a NaN
    /// score ranks as −∞ and a NaN `target` score ranks last.
    pub fn rank_of(&self, i: usize, target: usize) -> usize {
        let row = self.scores.row(i);
        crate::metrics::competition_rank(row[target], row.iter().copied())
    }

    /// Argmax target for source row `i`.
    pub fn best_target(&self, i: usize) -> usize {
        let row = self.scores.row(i);
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(j, _)| j)
            .unwrap_or(0)
    }
}

/// Cosine similarity between every row of `source` and every row of
/// `target` (`n_s × n_t`).
pub fn cosine_similarity(source: &Matrix, target: &Matrix) -> SimilarityMatrix {
    assert_eq!(source.cols(), target.cols(), "cosine_similarity: dims differ ({} vs {})", source.cols(), target.cols());
    let s = source.l2_normalize_rows(1e-9);
    let t = target.l2_normalize_rows(1e-9);
    SimilarityMatrix::new(s.matmul_nt(&t))
}

/// CSLS (Cross-domain Similarity Local Scaling) re-scoring, the standard
/// hubness correction for alignment retrieval:
///
/// `csls(i,j) = 2·sim(i,j) − r_s(i) − r_t(j)`
///
/// where `r_s(i)` is the mean similarity of `i` to its `k` nearest targets
/// and `r_t(j)` symmetric.
///
/// Degenerate `k` is **silently clamped** here (`0 → 1`, `k > n` → `n`);
/// [`csls_retrieve_top_k`] rejects such `k` with a typed error, and
/// `DesalignConfig::validate` catches it at configuration time.
pub fn csls_rescale(sim: &SimilarityMatrix, k: usize) -> SimilarityMatrix {
    let m = sim.scores();
    let (n_s, n_t) = m.shape();
    let k = k.max(1);
    let mean_topk = |row: &[f32]| -> f32 {
        let mut v = row.to_vec();
        let kk = k.min(v.len());
        if kk == 0 {
            return 0.0;
        }
        v.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        v[..kk].iter().sum::<f32>() / kk as f32
    };
    // r_s(i) / r_t(j) are independent per row/column, and the output is
    // element-wise — all three loops parallelize with bit-identical results
    // at any thread count.
    let hood_cost = n_s.saturating_mul(n_t).saturating_mul(8); // sort-dominated
    let mut r_s = vec![0.0f32; n_s];
    desalign_parallel::par_rows(&mut r_s, 1, hood_cost, |i, slot| slot[0] = mean_topk(m.row(i)));
    let mut r_t = vec![0.0f32; n_t];
    desalign_parallel::par_rows(&mut r_t, 1, hood_cost, |j, slot| slot[0] = mean_topk(&m.col(j)));
    let mut out = Matrix::zeros(n_s, n_t);
    if n_t > 0 {
        desalign_parallel::par_rows(out.as_mut_slice(), n_t, n_s.saturating_mul(n_t), |i, out_row| {
            let (row, ri) = (m.row(i), r_s[i]);
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = 2.0 * row[j] - ri - r_t[j];
            }
        });
    }
    SimilarityMatrix::new(out)
}

/// CSLS re-scoring on candidate lists only (no dense matrix):
///
/// `csls(i,j) = 2·sim(i,j) − r_s(i) − r_t(j)`
///
/// where `r_s(i)` is the mean of query `i`'s top-`k` forward scores and
/// `r_t(j)` the mean of item `j`'s top-`k` reverse scores. `forward[i]`
/// and `reverse[j]` must be sorted descending (as
/// [`ItemIndex::search_batch`] returns); lists shorter than `k` average
/// what they have, empty lists contribute 0. Each query's candidates are
/// re-scored and re-sorted under the deterministic (score desc, id asc)
/// order.
///
/// On dense-equivalent inputs (exact full-length lists) the re-scored
/// entries match `csls_rescale` bit-for-bit: the top-`k` mean sums the
/// same values in the same (sorted) order, and the rescale expression is
/// evaluated identically.
pub fn csls_rescale_candidates(
    forward: &[Vec<(usize, f32)>],
    reverse: &[Vec<(usize, f32)>],
    k: usize,
) -> Vec<Vec<(usize, f32)>> {
    let mean_topk = |list: &[(usize, f32)]| -> f32 {
        let kk = k.min(list.len());
        if kk == 0 {
            return 0.0;
        }
        list[..kk].iter().map(|&(_, s)| s).sum::<f32>() / kk as f32
    };
    let r_t: Vec<f32> = reverse.iter().map(|l| mean_topk(l)).collect();
    forward
        .iter()
        .map(|cands| {
            let ri = mean_topk(cands);
            let mut out: Vec<(usize, f32)> = cands.iter().map(|&(j, s)| (j, 2.0 * s - ri - r_t[j])).collect();
            out.sort_by(|&a, &b| if beats(a, b) { std::cmp::Ordering::Less } else { std::cmp::Ordering::Greater });
            out
        })
        .collect()
}

/// End-to-end candidate-set CSLS: retrieves `max(k, topk)` forward
/// candidates per query and `k` reverse candidates per item through an
/// [`ItemIndex`] on each side, applies [`csls_rescale_candidates`], and
/// truncates each re-sorted list to `topk`.
///
/// # Errors
/// [`DefectClass::Config`](desalign_util::DefectClass::Config) when
/// `k == 0` or `k > n_items` (the neighbour mean would silently clamp),
/// plus the index's build and query errors.
pub fn csls_retrieve_top_k(
    x_s: &Matrix,
    x_t: &Matrix,
    k: usize,
    topk: usize,
    cfg: &RetrievalConfig,
) -> Result<Vec<Vec<(usize, f32)>>, DesalignError> {
    if k == 0 {
        return Err(DesalignError::config("retrieval.csls_k", "CSLS neighbourhood k must be ≥ 1"));
    }
    if k > x_t.rows() || k > x_s.rows() {
        return Err(DesalignError::config(
            "retrieval.csls_k",
            format!("CSLS neighbourhood k = {k} exceeds the candidate pool ({} × {}); the mean would silently clamp", x_s.rows(), x_t.rows()),
        ));
    }
    let forward = ItemIndex::build(x_t, cfg)?.search_batch(x_s, k.max(topk))?;
    let reverse = ItemIndex::build(x_s, cfg)?.search_batch(x_t, k)?;
    let mut rescored = csls_rescale_candidates(&forward, &reverse, k);
    for list in &mut rescored {
        list.truncate(topk);
    }
    Ok(rescored)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_identical_rows_is_one() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let sim = cosine_similarity(&a, &a);
        assert!((sim.scores()[(0, 0)] - 1.0).abs() < 1e-6);
        assert!((sim.scores()[(1, 1)] - 1.0).abs() < 1e-6);
        assert!(sim.scores()[(0, 1)].abs() < 1e-6);
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        let sim = cosine_similarity(&a, &b);
        assert!((sim.scores()[(0, 0)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ranking_helpers() {
        let sim = SimilarityMatrix::new(Matrix::from_rows(&[&[0.1, 0.9, 0.5]]));
        assert_eq!(sim.ranked_targets(0), vec![1, 2, 0]);
        assert_eq!(sim.rank_of(0, 1), 1);
        assert_eq!(sim.rank_of(0, 2), 2);
        assert_eq!(sim.rank_of(0, 0), 3);
        assert_eq!(sim.best_target(0), 1);
    }

    #[test]
    fn average_of_matrices() {
        let a = SimilarityMatrix::new(Matrix::full(2, 2, 1.0));
        let b = SimilarityMatrix::new(Matrix::full(2, 2, 3.0));
        let avg = SimilarityMatrix::average(&[a, b]);
        assert_eq!(avg.scores()[(0, 0)], 2.0);
    }

    #[test]
    fn csls_penalizes_hubs() {
        // Target 0 is a "hub": similar to everything. CSLS should demote it
        // relative to the discriminative target 1.
        let raw = Matrix::from_rows(&[
            &[0.9, 0.8, 0.0],
            &[0.9, 0.0, 0.1],
            &[0.9, 0.1, 0.0],
        ]);
        let sim = SimilarityMatrix::new(raw);
        let csls = csls_rescale(&sim, 2);
        // For source 0, the margin (hub − alternative) shrinks under CSLS.
        let before = sim.scores()[(0, 0)] - sim.scores()[(0, 1)];
        let after = csls.scores()[(0, 0)] - csls.scores()[(0, 1)];
        assert!(after < before, "CSLS did not demote the hub: {after} >= {before}");
    }

    #[test]
    fn csls_retrieve_rejects_degenerate_k() {
        let mut rng = desalign_tensor::rng_from_seed(13);
        let q = desalign_tensor::normal_matrix(&mut rng, 4, 3, 0.0, 1.0);
        let t = desalign_tensor::normal_matrix(&mut rng, 4, 3, 0.0, 1.0);
        let cfg = RetrievalConfig::default();
        let err = csls_retrieve_top_k(&q, &t, 0, 2, &cfg).unwrap_err();
        assert_eq!(err.class, desalign_util::DefectClass::Config);
        let err = csls_retrieve_top_k(&q, &t, 10, 2, &cfg).unwrap_err();
        assert_eq!(err.class, desalign_util::DefectClass::Config);
        assert!(csls_retrieve_top_k(&q, &t, 2, 2, &cfg).is_ok());
    }
}
