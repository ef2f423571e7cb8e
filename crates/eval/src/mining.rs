//! Pseudo-pair mining for the iterative training strategy.
//!
//! The paper's iterative variant (following MCLEA) "maintains a temporary
//! cache to store cross-graph mutual nearest entity pairs from the testing
//! set" (§V-A2) and feeds them back as extra seeds.

use crate::index::top1;
use crate::{ItemIndex, RetrievalConfig, SimilarityMatrix};
use desalign_tensor::Matrix;
use desalign_util::{DefectClass, DesalignError};

/// Finds mutual nearest neighbours: pairs `(s, t)` where `t` is `s`'s best
/// target **and** `s` is `t`'s best source, restricted to the given
/// candidate sets (pass the unaligned entities, each entity at most once).
/// Pairs whose similarity is below `min_score` are dropped. Argmax ties
/// break to the earliest candidate; NaN scores rank as −∞.
///
/// Returns pairs sorted by descending similarity.
///
/// # Panics
/// Panics if a candidate is out of bounds for `sim`.
pub fn mutual_nearest_neighbours(
    sim: &SimilarityMatrix,
    source_candidates: &[usize],
    target_candidates: &[usize],
    min_score: f32,
) -> Vec<(usize, usize, f32)> {
    let (n_s, n_t) = sim.shape();
    assert!(
        source_candidates.iter().all(|&s| s < n_s) && target_candidates.iter().all(|&t| t < n_t),
        "mutual_nearest_neighbours: candidate out of bounds for {n_s}x{n_t}"
    );
    let m = sim.scores();
    let (ns, nt) = (source_candidates.len(), target_candidates.len());
    let score = |q: usize, t: usize| m[(source_candidates[q], target_candidates[t])];
    let cost = ns.saturating_mul(nt);
    let mut best_t = vec![None; ns];
    desalign_parallel::par_rows(&mut best_t, 1, cost, |q, slot| slot[0] = top1((0..nt).map(|t| (t, score(q, t)))));
    let mut best_s = vec![None; nt];
    desalign_parallel::par_rows(&mut best_s, 1, cost, |t, slot| {
        slot[0] = top1((0..ns).map(|q| (q, score(q, t)))).map(|(q, _)| q);
    });
    mutual_pairs(&best_t, &best_s, source_candidates, target_candidates, min_score)
}

/// Embedding-level mutual-NN mining over candidate entity sets: indexes the
/// gathered target rows and the gathered source rows, takes each side's
/// top-1 through [`ItemIndex`], and keeps the mutual pairs.
///
/// With [`IndexKind::Exact`](crate::IndexKind::Exact) this reproduces
/// `mutual_nearest_neighbours(&cosine_similarity(x_s, x_t), …)`
/// bit-for-bit (same normalization, same dot, same tie-breaks).
///
/// # Errors
/// [`DefectClass::PairOutOfRange`] when a candidate id is out of range,
/// plus the index's build and query errors.
pub fn mine_mutual_nn(
    x_s: &Matrix,
    x_t: &Matrix,
    source_candidates: &[usize],
    target_candidates: &[usize],
    min_score: f32,
    cfg: &RetrievalConfig,
) -> Result<Vec<(usize, usize, f32)>, DesalignError> {
    if source_candidates.is_empty() || target_candidates.is_empty() {
        return Ok(Vec::new());
    }
    for (name, ids, bound) in [("source_candidates", source_candidates, x_s.rows()), ("target_candidates", target_candidates, x_t.rows())] {
        if let Some(&bad) = ids.iter().find(|&&i| i >= bound) {
            return Err(DesalignError::new(
                DefectClass::PairOutOfRange,
                format!("mine_mutual_nn.{name}"),
                format!("candidate {bad} out of bounds for {bound} entities"),
            ));
        }
    }
    let qs = x_s.gather_rows(source_candidates);
    let it = x_t.gather_rows(target_candidates);
    let forward = ItemIndex::build(&it, cfg)?.search_batch(&qs, 1)?;
    let reverse = ItemIndex::build(&qs, cfg)?.search_batch(&it, 1)?;
    let best_t: Vec<Option<(usize, f32)>> = forward.iter().map(|l| l.first().copied()).collect();
    let best_s: Vec<Option<usize>> = reverse.iter().map(|l| l.first().map(|&(q, _)| q)).collect();
    Ok(mutual_pairs(&best_t, &best_s, source_candidates, target_candidates, min_score))
}

/// Keeps the candidate positions `(q, t)` where `t` is `q`'s best target,
/// `q` is `t`'s best source and the score reaches `min_score`, mapped back
/// to entity ids and sorted by descending score (stable in source order).
fn mutual_pairs(
    best_t: &[Option<(usize, f32)>],
    best_s: &[Option<usize>],
    source_candidates: &[usize],
    target_candidates: &[usize],
    min_score: f32,
) -> Vec<(usize, usize, f32)> {
    let mut pairs: Vec<(usize, usize, f32)> = best_t
        .iter()
        .enumerate()
        .filter_map(|(q, &best)| best.map(|(t, score)| (q, t, score)))
        .filter(|&(q, t, score)| score >= min_score && best_s[t] == Some(q))
        .map(|(q, t, score)| (source_candidates[q], target_candidates[t], score))
        .collect();
    pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutual_pairs_found_on_diagonal() {
        let mut m = Matrix::full(3, 3, 0.1);
        for i in 0..3 {
            m[(i, i)] = 0.9;
        }
        let sim = SimilarityMatrix::new(m);
        let pairs = mutual_nearest_neighbours(&sim, &[0, 1, 2], &[0, 1, 2], 0.0);
        assert_eq!(pairs.len(), 3);
        assert!(pairs.iter().all(|&(s, t, _)| s == t));
    }

    #[test]
    fn one_sided_preference_is_rejected() {
        // Source 0 and 1 both prefer target 0; target 0 prefers source 0.
        // So (1, 0) fails the mutual check, and source 1 — whose best target
        // is taken — produces no pair at all.
        let m = Matrix::from_rows(&[&[0.9, 0.1], &[0.8, 0.2]]);
        let sim = SimilarityMatrix::new(m);
        let pairs = mutual_nearest_neighbours(&sim, &[0, 1], &[0, 1], 0.0);
        assert_eq!(pairs.iter().map(|&(s, t, _)| (s, t)).collect::<Vec<_>>(), vec![(0, 0)]);
    }

    #[test]
    fn min_score_filters_weak_pairs() {
        let m = Matrix::from_rows(&[&[0.3, 0.0], &[0.0, 0.9]]);
        let sim = SimilarityMatrix::new(m);
        let pairs = mutual_nearest_neighbours(&sim, &[0, 1], &[0, 1], 0.5);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].0, pairs[0].1), (1, 1));
    }

    #[test]
    fn candidates_restrict_the_search() {
        let mut m = Matrix::full(3, 3, 0.0);
        m[(0, 2)] = 1.0; // outside candidate targets
        m[(0, 1)] = 0.6;
        m[(1, 1)] = 0.4;
        let sim = SimilarityMatrix::new(m);
        let pairs = mutual_nearest_neighbours(&sim, &[0, 1], &[1], 0.0);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].0, pairs[0].1), (0, 1));
    }

    #[test]
    fn sorted_by_descending_score() {
        let m = Matrix::from_rows(&[&[0.5, 0.0], &[0.0, 0.9]]);
        let sim = SimilarityMatrix::new(m);
        let pairs = mutual_nearest_neighbours(&sim, &[0, 1], &[0, 1], 0.0);
        assert!(pairs[0].2 >= pairs[1].2);
    }

    #[test]
    fn nan_scores_never_pair() {
        let m = Matrix::from_rows(&[&[f32::NAN, 0.4], &[f32::NAN, f32::NAN]]);
        let pairs = mutual_nearest_neighbours(&SimilarityMatrix::new(m), &[0, 1], &[0, 1], -1.0);
        assert_eq!(pairs.iter().map(|&(s, t, _)| (s, t)).collect::<Vec<_>>(), vec![(0, 1)]);
    }

    #[test]
    fn empty_candidates_yield_no_pairs() {
        let sim = SimilarityMatrix::new(Matrix::zeros(2, 2));
        assert!(mutual_nearest_neighbours(&sim, &[], &[0], 0.0).is_empty());
        assert!(mutual_nearest_neighbours(&sim, &[0], &[], 0.0).is_empty());
    }
}
