//! Ranking metrics: `H@k` (Eq. 23) and `MRR` (Eq. 24), over a dense score
//! matrix or through an [`ItemIndex`].

use crate::{ItemIndex, RetrievalConfig, SimilarityMatrix};
use desalign_tensor::Matrix;
use desalign_util::{DefectClass, DesalignError};

/// Evaluation summary over a set of test alignments.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AlignmentMetrics {
    /// `H@1` — fraction of queries whose gold target ranks first.
    pub hits_at_1: f32,
    /// `H@10`.
    pub hits_at_10: f32,
    /// Mean reciprocal rank.
    pub mrr: f32,
    /// Number of evaluated query entities.
    pub num_queries: usize,
}

impl AlignmentMetrics {
    /// Aggregates 1-based gold ranks, one per query, into H@1 / H@10 / MRR.
    /// The MRR sum accumulates serially in query order, so the result is a
    /// pure function of the ranks. No ranks give all zeroes.
    pub fn from_ranks(ranks: &[usize]) -> Self {
        if ranks.is_empty() {
            return Self::default();
        }
        let mut h1 = 0usize;
        let mut h10 = 0usize;
        let mut mrr = 0.0f64;
        for &rank in ranks {
            if rank <= 1 {
                h1 += 1;
            }
            if rank <= 10 {
                h10 += 1;
            }
            mrr += 1.0 / rank as f64;
        }
        let n = ranks.len();
        Self {
            hits_at_1: h1 as f32 / n as f32,
            hits_at_10: h10 as f32 / n as f32,
            mrr: (mrr / n as f64) as f32,
            num_queries: n,
        }
    }

    /// Formats as the `H@1 / H@10 / MRR` percentage triple used in the
    /// paper's tables.
    pub fn as_table_row(&self) -> String {
        format!("{:5.1} {:5.1} {:5.1}", self.hits_at_1 * 100.0, self.hits_at_10 * 100.0, self.mrr * 100.0)
    }
}

/// Rank (1-based) of a gold score among `scores`, which include the gold
/// entry itself: `1 + |{s : s > gold}|`, ties ranking optimistically. NaN
/// ranks as −∞ (the order of every top-k selection in this crate), and a
/// NaN gold also loses every tie, so it ranks last: a diverged model can
/// never score a hit.
pub(crate) fn competition_rank(gold: f32, scores: impl Iterator<Item = f32>) -> usize {
    if gold.is_nan() {
        return scores.count();
    }
    1 + scores.filter(|&s| s > gold).count()
}

/// Evaluates a similarity matrix against gold `(source, target)` pairs.
///
/// Candidate restriction follows the paper's protocol: each query source
/// entity ranks **the test-set target entities only** (the standard MMEA
/// evaluation where train pairs are excluded from the candidate pool).
/// Per-query ranks run in parallel and aggregate through
/// [`AlignmentMetrics::from_ranks`], so the metrics are bit-identical at
/// any thread count.
///
/// # Panics
/// Panics if a pair is out of bounds.
pub fn evaluate_ranking(sim: &SimilarityMatrix, test_pairs: &[(usize, usize)]) -> AlignmentMetrics {
    let (n_s, n_t) = sim.shape();
    for &(s, gold) in test_pairs {
        assert!(s < n_s && gold < n_t, "evaluate_ranking: pair ({s},{gold}) out of bounds for {n_s}x{n_t}");
    }
    let _span = desalign_telemetry::span("evaluate_ranking");
    let mut ranks = vec![0usize; test_pairs.len()];
    let cost = test_pairs.len().saturating_mul(test_pairs.len());
    desalign_parallel::par_rows(&mut ranks, 1, cost, |i, slot| {
        let (s, gold) = test_pairs[i];
        let row = sim.scores().row(s);
        slot[0] = competition_rank(row[gold], test_pairs.iter().map(|&(_, t)| row[t]));
    });
    AlignmentMetrics::from_ranks(&ranks)
}

/// Checks alignment pairs against two embedding tables, returning a typed
/// error (instead of the dense path's panic) on out-of-range entities.
fn ensure_pairs_in_range(pairs: &[(usize, usize)], n_s: usize, n_t: usize, location: &str) -> Result<(), DesalignError> {
    for (i, &(s, t)) in pairs.iter().enumerate() {
        if s >= n_s || t >= n_t {
            return Err(DesalignError::new(
                DefectClass::PairOutOfRange,
                format!("{location}[{i}]"),
                format!("pair ({s},{t}) out of bounds for {n_s}x{n_t} entities"),
            ));
        }
    }
    Ok(())
}

/// Embedding-level evaluation under the paper's protocol (candidate pool =
/// the test targets): indexes the gathered target rows and ranks each
/// source row's gold among them through [`ItemIndex`].
///
/// With [`IndexKind::Exact`](crate::IndexKind::Exact) this is
/// bit-identical to
/// `evaluate_ranking(&cosine_similarity(x_s, x_t), test_pairs)` on finite
/// embeddings.
///
/// # Errors
/// [`DefectClass::PairOutOfRange`] on malformed pairs,
/// [`DefectClass::NonFiniteFeature`] on NaN/±∞ pair rows, plus the
/// index's other build and query errors.
pub fn evaluate_ranking_embeddings(
    x_s: &Matrix,
    x_t: &Matrix,
    test_pairs: &[(usize, usize)],
    cfg: &RetrievalConfig,
) -> Result<AlignmentMetrics, DesalignError> {
    if test_pairs.is_empty() {
        return Ok(AlignmentMetrics::default());
    }
    ensure_pairs_in_range(test_pairs, x_s.rows(), x_t.rows(), "test_pairs")?;
    let sources: Vec<usize> = test_pairs.iter().map(|&(s, _)| s).collect();
    let targets: Vec<usize> = test_pairs.iter().map(|&(_, t)| t).collect();
    let index = ItemIndex::build(&x_t.gather_rows(&targets), cfg)?;
    let _span = desalign_telemetry::span("evaluate_ranking");
    Ok(AlignmentMetrics::from_ranks(&index.rank_diagonal(&x_s.gather_rows(&sources))?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_sim(n: usize, noise: f32) -> SimilarityMatrix {
        let mut m = Matrix::full(n, n, noise);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        SimilarityMatrix::new(m)
    }

    #[test]
    fn perfect_alignment_scores_one() {
        let sim = diag_sim(5, 0.0);
        let pairs: Vec<(usize, usize)> = (0..5).map(|i| (i, i)).collect();
        let m = evaluate_ranking(&sim, &pairs);
        assert_eq!(m.hits_at_1, 1.0);
        assert_eq!(m.hits_at_10, 1.0);
        assert_eq!(m.mrr, 1.0);
        assert_eq!(m.num_queries, 5);
    }

    #[test]
    fn rank_two_gives_half_mrr() {
        // Gold always ranked second behind one distractor.
        let mut m = Matrix::zeros(2, 2);
        m[(0, 1)] = 0.9; // distractor beats gold (0,0)
        m[(0, 0)] = 0.5;
        m[(1, 1)] = 0.9;
        m[(1, 0)] = 0.95; // distractor beats gold (1,1)
        let sim = SimilarityMatrix::new(m);
        let metrics = evaluate_ranking(&sim, &[(0, 0), (1, 1)]);
        assert_eq!(metrics.hits_at_1, 0.0);
        assert_eq!(metrics.hits_at_10, 1.0);
        assert!((metrics.mrr - 0.5).abs() < 1e-6);
    }

    #[test]
    fn candidates_limited_to_test_targets() {
        // A non-test target with a huge score must not affect the ranking.
        let mut m = Matrix::zeros(1, 3);
        m[(0, 2)] = 10.0; // not in the test pool
        m[(0, 0)] = 1.0; // gold
        m[(0, 1)] = 0.5;
        let sim = SimilarityMatrix::new(m);
        let metrics = evaluate_ranking(&sim, &[(0, 0)]);
        assert_eq!(metrics.hits_at_1, 1.0);
    }

    #[test]
    fn empty_test_set_is_zeroes() {
        let sim = diag_sim(2, 0.0);
        let metrics = evaluate_ranking(&sim, &[]);
        assert_eq!(metrics.num_queries, 0);
        assert_eq!(metrics.mrr, 0.0);
        assert_eq!(AlignmentMetrics::from_ranks(&[]), AlignmentMetrics::default());
    }

    #[test]
    fn nan_gold_never_scores_a_hit() {
        // A diverged model: every source row is NaN, so every cosine is
        // NaN. Each gold must rank last among the 12 candidates, not first.
        let mut rng = desalign_tensor::rng_from_seed(3);
        let targets = desalign_tensor::normal_matrix(&mut rng, 12, 4, 0.0, 1.0);
        let sources = Matrix::full(12, 4, f32::NAN);
        let pairs: Vec<(usize, usize)> = (0..12).map(|i| (i, i)).collect();
        let sim = crate::cosine_similarity(&sources, &targets);
        let m = evaluate_ranking(&sim, &pairs);
        assert_eq!((m.hits_at_1, m.hits_at_10), (0.0, 0.0), "NaN golds scored hits: {m:?}");
        assert!((m.mrr - 1.0 / 12.0).abs() < 1e-6, "NaN golds must rank last: {m:?}");
        assert_eq!(sim.rank_of(0, 0), 12);
        // A NaN gold in an otherwise real row ranks below every real score;
        // a NaN distractor never outranks a real gold.
        let row = SimilarityMatrix::new(Matrix::from_rows(&[&[f32::NAN, 0.2, -0.5]]));
        assert_eq!(row.rank_of(0, 0), 3);
        assert_eq!(row.rank_of(0, 2), 2);
    }

    #[test]
    fn brute_force_oracle_agreement() {
        // Randomized check against an independent rank computation.
        let mut rng = desalign_tensor::rng_from_seed(9);
        let scores = desalign_tensor::normal_matrix(&mut rng, 20, 20, 0.0, 1.0);
        let sim = SimilarityMatrix::new(scores.clone());
        let pairs: Vec<(usize, usize)> = (0..20).map(|i| (i, (i * 7) % 20)).collect();
        let metrics = evaluate_ranking(&sim, &pairs);
        // Oracle: sort candidates per query.
        let candidates: Vec<usize> = pairs.iter().map(|&(_, t)| t).collect();
        let mut mrr = 0.0f64;
        for &(s, gold) in &pairs {
            let mut ranked: Vec<usize> = candidates.clone();
            ranked.sort_by(|&a, &b| scores[(s, b)].partial_cmp(&scores[(s, a)]).unwrap());
            let rank = ranked.iter().position(|&c| c == gold).unwrap() + 1;
            mrr += 1.0 / rank as f64;
        }
        assert!((metrics.mrr - (mrr / 20.0) as f32).abs() < 1e-6);
    }

    #[test]
    fn embedding_evaluation_matches_dense_bitwise() {
        let mut rng = desalign_tensor::rng_from_seed(11);
        let q = desalign_tensor::normal_matrix(&mut rng, 20, 8, 0.0, 1.0);
        let t = desalign_tensor::normal_matrix(&mut rng, 20, 8, 0.0, 1.0);
        let pairs: Vec<(usize, usize)> = (0..20).map(|i| (i, (i * 3) % 20)).collect();
        let dense = evaluate_ranking(&crate::cosine_similarity(&q, &t), &pairs);
        let exact = evaluate_ranking_embeddings(&q, &t, &pairs, &RetrievalConfig::default()).unwrap();
        assert_eq!(dense.hits_at_1.to_bits(), exact.hits_at_1.to_bits());
        assert_eq!(dense.hits_at_10.to_bits(), exact.hits_at_10.to_bits());
        assert_eq!(dense.mrr.to_bits(), exact.mrr.to_bits());
        let err = evaluate_ranking_embeddings(&q, &t, &[(0, 20)], &RetrievalConfig::default()).unwrap_err();
        assert_eq!(err.class, DefectClass::PairOutOfRange);
    }

    #[test]
    fn table_row_formatting() {
        let m = AlignmentMetrics { hits_at_1: 0.497, hits_at_10: 0.75, mrr: 0.586, num_queries: 10 };
        assert_eq!(m.as_table_row().split_whitespace().collect::<Vec<_>>(), vec!["49.7", "75.0", "58.6"]);
    }
}
