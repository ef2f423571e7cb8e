//! The alignment engine: precomputed embeddings behind an [`ItemIndex`],
//! with per-query featurization and an LRU featurization cache.
//!
//! One engine is built at server startup — from a trained
//! [`DesalignModel`] (usually revived via
//! `DesalignModel::load_checkpoint_inference`) or directly from embedding
//! matrices — and shared read-only across every connection worker. All
//! mutability is confined to the featurization cache, which stores pure
//! functions of the checkpoint, so concurrent queries can never observe
//! (or produce) different bits than sequential ones.

use crate::cache::LruCache;
use desalign_core::DesalignModel;
use desalign_eval::{IndexKind, ItemIndex, RetrievalConfig};
use desalign_tensor::Matrix;
use desalign_util::{DefectClass, DesalignError};
use std::sync::Mutex;

/// One alignment query: who to find matches for.
#[derive(Clone, Debug, PartialEq)]
pub enum AlignQuery {
    /// A source-KG entity id; featurized by looking up its precomputed
    /// retrieval embedding.
    Entity(usize),
    /// A raw embedding row (already in retrieval-embedding space); must
    /// match the index width and be finite.
    Vector(Vec<f32>),
}

/// Ranked alignment candidates for one query.
#[derive(Clone, Debug, PartialEq)]
pub struct AlignAnswer {
    /// `(target entity id, score)` sorted by descending score, ties broken
    /// by ascending id.
    pub candidates: Vec<(usize, f32)>,
}

/// The serving engine: a query-side embedding table, an [`ItemIndex`] over
/// the target side, and the featurization cache.
#[derive(Debug)]
pub struct AlignEngine {
    queries: Matrix,
    index: ItemIndex,
    cache: Mutex<LruCache>,
}

impl AlignEngine {
    /// Builds an engine over explicit embedding matrices: `queries` is the
    /// source-side featurization table (row = entity id), `items` the
    /// target-side corpus the index is built over.
    ///
    /// # Errors
    /// Propagates the index constructor's typed errors (non-finite rows,
    /// bad IVF knobs) plus a dimension mismatch between the two sides.
    pub fn from_embeddings(
        queries: Matrix,
        items: Matrix,
        cfg: &RetrievalConfig,
        cache_capacity: usize,
    ) -> Result<Self, DesalignError> {
        if queries.cols() != items.cols() && queries.rows() > 0 && items.rows() > 0 {
            return Err(DesalignError::new(
                DefectClass::DimensionMismatch,
                "AlignEngine::from_embeddings",
                format!("query dim {} != item dim {}", queries.cols(), items.cols()),
            ));
        }
        let index = ItemIndex::build(&items, cfg)?;
        Ok(Self { queries, index, cache: Mutex::new(LruCache::new(cache_capacity)) })
    }

    /// Builds an engine from a trained model: the per-round L2-normalized
    /// SP-state embeddings (`DesalignModel::retrieval_embeddings`) are
    /// precomputed **once** here, and the index backend follows the
    /// model's `RetrievalSettings`, as evaluation and mining do.
    ///
    /// # Errors
    /// Propagates the index constructor's typed errors.
    pub fn from_model(model: &DesalignModel, cache_capacity: usize) -> Result<Self, DesalignError> {
        let _span = desalign_telemetry::span("serve.precompute");
        let (x_s, x_t) = model.retrieval_embeddings();
        let cfg = model.config().retrieval.eval_config(model.seed());
        Self::from_embeddings(x_s, x_t, &cfg, cache_capacity)
    }

    /// Number of source entities that can be queried by id.
    pub fn num_queries(&self) -> usize {
        self.queries.rows()
    }

    /// Number of target entities in the index.
    pub fn num_items(&self) -> usize {
        self.index.num_items()
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.index.dim()
    }

    /// The index backend in use.
    pub fn backend(&self) -> IndexKind {
        self.index.kind()
    }

    /// Lifetime featurization-cache `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.lock().expect("cache lock").stats()
    }

    /// Featurizes one query into a raw (un-normalized) embedding row.
    /// Entity lookups go through the LRU cache; cached rows are copies of
    /// the same table rows, so a hit cannot change a single bit.
    fn featurize(&self, query: &AlignQuery) -> Result<Vec<f32>, DesalignError> {
        match query {
            AlignQuery::Entity(id) => {
                if *id >= self.queries.rows() {
                    return Err(DesalignError::new(
                        DefectClass::PairOutOfRange,
                        "align.entity",
                        format!("unknown entity id {id} (source KG holds {})", self.queries.rows()),
                    ));
                }
                let mut cache = self.cache.lock().expect("cache lock");
                if let Some(row) = cache.get(*id) {
                    count_cache(true);
                    return Ok(row.to_vec());
                }
                count_cache(false);
                let row = self.queries.row(*id).to_vec();
                cache.insert(*id, row.clone());
                Ok(row)
            }
            AlignQuery::Vector(row) => {
                if row.len() != self.dim() {
                    return Err(DesalignError::new(
                        DefectClass::DimensionMismatch,
                        "align.vector",
                        format!("query dim {} != index dim {}", row.len(), self.dim()),
                    ));
                }
                if row.iter().any(|v| !v.is_finite()) {
                    return Err(DesalignError::new(
                        DefectClass::NonFiniteFeature,
                        "align.vector",
                        "query vector contains NaN or ±inf",
                    ));
                }
                Ok(row.clone())
            }
        }
    }

    /// Answers one query: top-`k` target candidates.
    ///
    /// # Errors
    /// [`DefectClass::PairOutOfRange`] for unknown entity ids,
    /// [`DefectClass::DimensionMismatch`] / [`DefectClass::NonFiniteFeature`]
    /// for malformed vectors.
    pub fn answer(&self, query: &AlignQuery, k: usize) -> Result<AlignAnswer, DesalignError> {
        let row = self.featurize(query)?;
        Ok(AlignAnswer { candidates: self.index.search(&row, k)? })
    }

    /// Answers a coalesced batch in **one** index call: featurizes each
    /// query (malformed ones fail individually without poisoning the
    /// batch), stacks the valid rows into a matrix, runs a single
    /// `search_batch` over `desalign-parallel`, and scatters results back
    /// in request order.
    ///
    /// Each row is scored independently inside `search_batch` and top-k
    /// lists are strictly ordered, so truncating the batch-wide `max(k)`
    /// list to each request's own `k` is bit-identical to answering that
    /// request alone — batch composition can never change response bytes.
    pub fn answer_batch(&self, batch: &[(AlignQuery, usize)]) -> Vec<Result<AlignAnswer, DesalignError>> {
        self.answer_batch_on(batch, false)
    }

    /// Whether degraded answers differ from primary ones: true iff the
    /// primary backend is IVF (an exact index already scans every item).
    pub fn has_fallback(&self) -> bool {
        self.index.kind() == IndexKind::Ivf
    }

    /// [`answer_batch`](Self::answer_batch) through an exhaustive scan of
    /// every cell of the primary index
    /// ([`ItemIndex::search_batch_exhaustive`]): the exact answers, bit for
    /// bit, with no probe list to go wrong. Used by the circuit breaker
    /// while the primary backend is suspected faulty.
    pub fn answer_batch_degraded(&self, batch: &[(AlignQuery, usize)]) -> Vec<Result<AlignAnswer, DesalignError>> {
        self.answer_batch_on(batch, true)
    }

    fn answer_batch_on(&self, batch: &[(AlignQuery, usize)], exhaustive: bool) -> Vec<Result<AlignAnswer, DesalignError>> {
        let _span = desalign_telemetry::span("serve.batch");
        let mut out: Vec<Option<Result<AlignAnswer, DesalignError>>> = batch.iter().map(|_| None).collect();
        let mut rows: Vec<f32> = Vec::new();
        let mut slots: Vec<usize> = Vec::new();
        let mut max_k = 0usize;
        for (i, (query, k)) in batch.iter().enumerate() {
            match self.featurize(query) {
                Ok(row) => {
                    rows.extend_from_slice(&row);
                    slots.push(i);
                    max_k = max_k.max(*k);
                }
                Err(e) => out[i] = Some(Err(e)),
            }
        }
        if !slots.is_empty() {
            let stacked = Matrix::from_vec(slots.len(), self.dim(), rows);
            // Featurization already validated every row, so the only
            // errors left are construction-time ones that cannot occur
            // here; map them defensively anyway.
            let lists = if exhaustive {
                self.index.search_batch_exhaustive(&stacked, max_k)
            } else {
                self.index.search_batch(&stacked, max_k)
            };
            match lists {
                Ok(lists) => {
                    for (slot, mut list) in slots.into_iter().zip(lists) {
                        list.truncate(batch[slot].1);
                        out[slot] = Some(Ok(AlignAnswer { candidates: list }));
                    }
                }
                Err(e) => {
                    for slot in slots {
                        out[slot] = Some(Err(e.clone()));
                    }
                }
            }
        }
        out.into_iter().map(|r| r.expect("every slot answered")).collect()
    }
}

fn count_cache(hit: bool) {
    use std::sync::OnceLock;
    static HITS: OnceLock<desalign_telemetry::Counter> = OnceLock::new();
    static MISSES: OnceLock<desalign_telemetry::Counter> = OnceLock::new();
    if hit {
        HITS.get_or_init(|| desalign_telemetry::counter("serve.cache_hits")).incr();
    } else {
        MISSES.get_or_init(|| desalign_telemetry::counter("serve.cache_misses")).incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_engine(cache: usize) -> AlignEngine {
        let queries = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let items = Matrix::from_rows(&[&[1.0, 0.0], &[0.7, 0.7], &[0.0, 1.0]]);
        AlignEngine::from_embeddings(queries, items, &RetrievalConfig::default(), cache).unwrap()
    }

    #[test]
    fn entity_and_vector_queries_agree() {
        let engine = tiny_engine(8);
        let by_id = engine.answer(&AlignQuery::Entity(0), 2).unwrap();
        let by_vec = engine.answer(&AlignQuery::Vector(vec![1.0, 0.0]), 2).unwrap();
        assert_eq!(by_id, by_vec);
        assert_eq!(by_id.candidates[0].0, 0);
    }

    #[test]
    fn cache_hits_do_not_change_answers() {
        let engine = tiny_engine(2);
        let cold = engine.answer(&AlignQuery::Entity(1), 3).unwrap();
        let warm = engine.answer(&AlignQuery::Entity(1), 3).unwrap();
        assert_eq!(cold, warm);
        let (hits, misses) = engine.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn batch_matches_singles_and_isolates_bad_queries() {
        let engine = tiny_engine(8);
        let batch = vec![
            (AlignQuery::Entity(0), 2),
            (AlignQuery::Entity(99), 2), // unknown id: fails alone
            (AlignQuery::Vector(vec![0.0, 1.0]), 3),
            (AlignQuery::Vector(vec![1.0]), 2), // wrong dim: fails alone
        ];
        let answers = engine.answer_batch(&batch);
        assert_eq!(answers[0].as_ref().unwrap(), &engine.answer(&batch[0].0, 2).unwrap());
        assert_eq!(answers[1].as_ref().unwrap_err().class, DefectClass::PairOutOfRange);
        assert_eq!(answers[2].as_ref().unwrap(), &engine.answer(&batch[2].0, 3).unwrap());
        assert_eq!(answers[3].as_ref().unwrap_err().class, DefectClass::DimensionMismatch);
    }

    #[test]
    fn ivf_engine_carries_an_exact_fallback_and_degraded_answers_match_exact() {
        use desalign_eval::IvfParams;
        use desalign_tensor::{normal_matrix, rng_from_seed};
        let mut rng = rng_from_seed(5);
        let queries = normal_matrix(&mut rng, 40, 19, 0.0, 1.0);
        let items = normal_matrix(&mut rng, 150, 19, 0.0, 1.0);
        let ivf_cfg = RetrievalConfig {
            kind: IndexKind::Ivf,
            ivf: IvfParams { nlist: 9, nprobe: 1, kmeans_iters: 3, seed: 7 },
        };
        let ivf = AlignEngine::from_embeddings(queries.clone(), items.clone(), &ivf_cfg, 8).unwrap();
        let exact = AlignEngine::from_embeddings(queries, items, &RetrievalConfig::default(), 8).unwrap();
        assert!(ivf.has_fallback());
        assert!(!exact.has_fallback());
        let batch: Vec<(AlignQuery, usize)> = (0..40).map(|id| (AlignQuery::Entity(id), 1 + id % 12)).collect();
        let bits = |answers: Vec<Result<AlignAnswer, DesalignError>>| -> Vec<Vec<(usize, u32)>> {
            answers.into_iter().map(|a| a.unwrap().candidates.iter().map(|&(i, s)| (i, s.to_bits())).collect()).collect()
        };
        let reference = bits(exact.answer_batch(&batch));
        assert_eq!(bits(ivf.answer_batch_degraded(&batch)), reference);
        // One probed cell of nine misses some exact answers.
        assert_ne!(bits(ivf.answer_batch(&batch)), reference);
        // An exact engine's degraded answers are its primary answers.
        assert_eq!(bits(exact.answer_batch_degraded(&batch)), reference);
    }

    #[test]
    fn hostile_vectors_surface_typed_errors() {
        let engine = tiny_engine(0);
        let err = engine.answer(&AlignQuery::Vector(vec![f32::NAN, 0.0]), 2).unwrap_err();
        assert_eq!(err.class, DefectClass::NonFiniteFeature);
        let err = engine.answer(&AlignQuery::Entity(3), 2).unwrap_err();
        assert_eq!(err.class, DefectClass::PairOutOfRange);
    }
}
