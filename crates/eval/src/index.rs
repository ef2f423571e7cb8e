//! Sub-quadratic retrieval: [`ItemIndex`], the one nearest-neighbour index
//! every embedding-level consumer searches through.
//!
//! An index is built over a fixed **item** set only; queries arrive as raw
//! rows, alone or in batches. Evaluation, mutual-NN pseudo-pair mining,
//! candidate-set CSLS and the server all go through it, so none of them
//! materializes the dense `n_s × n_t` similarity matrix. Two backends:
//!
//! - [`IndexKind::Exact`] — a sequential scan over ℓ2-normalized rows,
//!   keeping only a bounded top-k buffer. It is **bit-identical** to the
//!   dense [`cosine_similarity`] path: both normalize with the same
//!   `1e-9`-eps rule and score with the same fixed-accumulator [`dot`],
//!   and top-k selection uses a strict total order (score descending, id
//!   ascending) whose result is independent of scan order and thread
//!   count.
//! - [`IndexKind::Ivf`] — an IVF (inverted-file) index: seeded spherical
//!   k-means over `Rng64` partitions the items into `nlist` cells; a query
//!   scans only the `nprobe` cells whose centroids score highest. Build and
//!   search are bit-deterministic under `DESALIGN_THREADS` because
//!   assignment parallelizes per row (each row's result depends only on
//!   that row) and centroid updates accumulate serially in item order.
//!
//! Approximation is surfaced, never silent: telemetry counters
//! `retrieval.probes` / `retrieval.candidates` record how much of the
//! corpus each search touched, and the `retrieval_bench` harness plus the
//! ci.sh recall gate enforce recall@10 ≥ 0.95 against the exact backend.
//!
//! [`cosine_similarity`]: crate::cosine_similarity

use desalign_tensor::{dot, rng_from_seed, Matrix, SliceRandom};
use desalign_util::{DefectClass, DesalignError};
use std::sync::OnceLock;

/// Search-volume telemetry. Cached handles so the gated hot path pays one
/// atomic load + two atomic adds (same idiom as `desalign-parallel`).
struct RetrievalCounters {
    probes: desalign_telemetry::Counter,
    candidates: desalign_telemetry::Counter,
}

fn retrieval_counters() -> &'static RetrievalCounters {
    static COUNTERS: OnceLock<RetrievalCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| RetrievalCounters {
        probes: desalign_telemetry::counter("retrieval.probes"),
        candidates: desalign_telemetry::counter("retrieval.candidates"),
    })
}

fn count_search(probes: u64, candidates: u64) {
    if desalign_telemetry::enabled() {
        let c = retrieval_counters();
        c.probes.add(probes);
        c.candidates.add(candidates);
    }
}

/// The strict total order used for every top-k selection in this crate:
/// higher score first, ties broken by **ascending id**. Total because ids
/// are unique within one scan; NaN scores sort as −∞ (below every real
/// score), so a poisoned candidate can never displace a real one. (The
/// index rejects non-finite rows; NaN only reaches this order through the
/// dense [`mutual_nearest_neighbours`](crate::mutual_nearest_neighbours).)
#[inline]
pub(crate) fn beats(a: (usize, f32), b: (usize, f32)) -> bool {
    let sa = if a.1.is_nan() { f32::NEG_INFINITY } else { a.1 };
    let sb = if b.1.is_nan() { f32::NEG_INFINITY } else { b.1 };
    sa > sb || (sa == sb && a.0 < b.0)
}

/// The [`beats`]-best of `scored`, or `None` when it is empty — the same
/// entry a one-slot [`TopK`] keeps.
pub(crate) fn top1(scored: impl Iterator<Item = (usize, f32)>) -> Option<(usize, f32)> {
    scored.reduce(|best, cand| if beats(cand, best) { cand } else { best })
}

/// Bounded top-k buffer over the [`beats`] order. Because the order is a
/// strict total order on distinct ids, the final contents (and their
/// sorted layout) depend only on the offered *set*, not the offer order —
/// the keystone of thread-count invariance.
struct TopK {
    k: usize,
    entries: Vec<(usize, f32)>,
}

impl TopK {
    fn new(k: usize) -> Self {
        Self { k, entries: Vec::with_capacity(k.min(1024)) }
    }

    #[inline]
    fn offer(&mut self, id: usize, score: f32) {
        if self.k == 0 {
            return;
        }
        let cand = (id, score);
        if self.entries.len() == self.k {
            let worst = *self.entries.last().expect("non-empty at capacity");
            if !beats(cand, worst) {
                return;
            }
            self.entries.pop();
        }
        let pos = self.entries.partition_point(|&e| beats(e, cand));
        self.entries.insert(pos, cand);
    }

    fn into_sorted(self) -> Vec<(usize, f32)> {
        self.entries
    }
}

/// Rejects matrices containing NaN/±∞ rows with a typed error, so poisoned
/// embeddings surface at index-build time instead of corrupting rankings.
fn ensure_finite(m: &Matrix, location: &str) -> Result<(), DesalignError> {
    for i in 0..m.rows() {
        if m.row(i).iter().any(|v| !v.is_finite()) {
            return Err(DesalignError::new(
                DefectClass::NonFiniteFeature,
                format!("{location}[{i}]"),
                "embedding row contains NaN or ±inf; refusing to search with it",
            ));
        }
    }
    Ok(())
}

/// Per-row ℓ2 normalization matching `l2_normalize_rows(1e-9)` bit-for-bit
/// (same in-order sum-of-squares, same `> eps` guard, same division).
fn normalized_query(query: &[f32]) -> Vec<f32> {
    let mut row = query.to_vec();
    let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm > 1e-9 {
        for v in &mut row {
            *v /= norm;
        }
    }
    row
}

// ---------------------------------------------------------------------------
// IVF: seeded spherical k-means + nprobe-bounded search.
// ---------------------------------------------------------------------------

/// IVF build/search hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IvfParams {
    /// Number of k-means cells; `0` selects `⌈√n⌉` automatically. Values
    /// above the item count are clamped to it (every cell needs a seed
    /// row).
    pub nlist: usize,
    /// Number of cells scanned per query, in descending centroid-score
    /// order. Clamped to `nlist` at search time. Must be ≥ 1.
    pub nprobe: usize,
    /// Lloyd iterations (assign + update rounds) after seeding.
    pub kmeans_iters: usize,
    /// Seed for the `Rng64` that shuffles the initial centroid choice.
    pub seed: u64,
}

impl Default for IvfParams {
    fn default() -> Self {
        Self { nlist: 0, nprobe: 16, kmeans_iters: 8, seed: 0xDE5A_11F0 }
    }
}

/// The IVF backend's cells: spherical k-means centroids and per-cell
/// posting lists (ascending item order, so scans are deterministic).
#[derive(Debug)]
struct IvfCells {
    centroids: Matrix,
    lists: Vec<Vec<u32>>,
    nprobe: usize,
}

impl IvfCells {
    /// Clusters the (already normalized) `items`: a seeded shuffle picks
    /// `nlist` distinct rows as initial centroids, then `kmeans_iters`
    /// Lloyd rounds refine them (assignment parallel per row, update serial
    /// in item order — both bit-deterministic under `DESALIGN_THREADS`).
    /// An empty item set builds no cells, so searches return nothing.
    fn build(items: &Matrix, params: &IvfParams) -> Self {
        let (n, d) = items.shape();
        if n == 0 {
            return Self { centroids: Matrix::zeros(0, d), lists: Vec::new(), nprobe: params.nprobe };
        }
        let nlist = if params.nlist == 0 { (n as f64).sqrt().ceil() as usize } else { params.nlist }.clamp(1, n);

        // Seeded init: shuffle item positions, take the first nlist as
        // centroid seeds. The shuffle draws from a dedicated Rng64, so the
        // choice is a pure function of (seed, n).
        let mut rng = rng_from_seed(params.seed);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut centroids = items.gather_rows(&order[..nlist]);

        let mut assign = vec![0u32; n];
        let assign_cost = n.saturating_mul(nlist).saturating_mul(d.max(1));
        for _ in 0..params.kmeans_iters {
            Self::assign_cells(items, &centroids, assign_cost, &mut assign);
            // Serial, item-order centroid update: mean of members, then
            // spherical renormalization. Empty cells keep their previous
            // centroid (they can re-acquire members next round).
            let mut sums = Matrix::zeros(nlist, d);
            let mut counts = vec![0usize; nlist];
            for (i, &c) in assign.iter().enumerate() {
                let row = items.row(i);
                let acc = sums.row_mut(c as usize);
                for (a, v) in acc.iter_mut().zip(row) {
                    *a += v;
                }
                counts[c as usize] += 1;
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
        // Final assignment against the refined centroids feeds the posting
        // lists; pushing in ascending item order keeps scans deterministic.
        Self::assign_cells(items, &centroids, assign_cost, &mut assign);
        let mut lists = vec![Vec::new(); nlist];
        for (i, &c) in assign.iter().enumerate() {
            lists[c as usize].push(i as u32);
        }
        Self { centroids, lists, nprobe: params.nprobe }
    }

    /// Nearest-centroid assignment (max dot, ties to the lower centroid
    /// id). Each row's result depends only on that row → safe to
    /// parallelize per row with identical bits at any thread count.
    fn assign_cells(items: &Matrix, centroids: &Matrix, cost: usize, assign: &mut [u32]) {
        desalign_parallel::par_rows(assign, 1, cost, |i, slot| {
            let row = items.row(i);
            let (mut arg, mut best) = (0u32, f32::NEG_INFINITY);
            for c in 0..centroids.rows() {
                let s = dot(row, centroids.row(c));
                if s > best {
                    best = s;
                    arg = c as u32;
                }
            }
            slot[0] = arg;
        });
    }

    /// The cells to probe for a (normalized) query row: the `nprobe`
    /// highest-scoring centroids, ids ascending on ties.
    fn probe_order(&self, qrow: &[f32]) -> Vec<(usize, f32)> {
        let mut buf = TopK::new(self.nprobe);
        for c in 0..self.centroids.rows() {
            buf.offer(c, dot(qrow, self.centroids.row(c)));
        }
        buf.into_sorted()
    }
}

// ---------------------------------------------------------------------------
// The index.
// ---------------------------------------------------------------------------

/// Which index structure a [`RetrievalConfig`] builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// Exact scan — bit-identical to the dense cosine path.
    Exact,
    /// Approximate IVF index — sub-quadratic, recall-gated.
    Ivf,
}

/// Embedding-level retrieval configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetrievalConfig {
    /// Backend to build.
    pub kind: IndexKind,
    /// IVF hyper-parameters (ignored by [`IndexKind::Exact`]).
    pub ivf: IvfParams,
}

impl Default for RetrievalConfig {
    fn default() -> Self {
        Self { kind: IndexKind::Exact, ivf: IvfParams::default() }
    }
}

/// A nearest-neighbour index over one fixed item set; queries arrive as raw
/// rows. `desalign-serve` builds one over the precomputed entity embeddings
/// at startup; evaluation, mining and candidate CSLS build one per call.
///
/// Every query row gets the same `1e-9`-eps normalization as
/// `l2_normalize_rows` and is scored independently, so its answer is
/// **bit-identical** whether it arrives alone, inside any batch
/// composition, or at any `DESALIGN_THREADS` setting.
#[derive(Debug)]
pub struct ItemIndex {
    /// ℓ2-normalized item rows.
    items: Matrix,
    /// `Some` for [`IndexKind::Ivf`]: the cells a query probes.
    cells: Option<IvfCells>,
}

impl ItemIndex {
    /// Builds the configured backend over `items`.
    ///
    /// # Errors
    /// [`DefectClass::NonFiniteFeature`] on NaN/±∞ rows;
    /// [`DefectClass::Config`] on an IVF `nprobe` of 0.
    pub fn build(items: &Matrix, cfg: &RetrievalConfig) -> Result<Self, DesalignError> {
        if cfg.kind == IndexKind::Ivf && cfg.ivf.nprobe == 0 {
            return Err(DesalignError::config("retrieval.nprobe", "nprobe must be ≥ 1 (0 cells probed would return nothing)"));
        }
        ensure_finite(items, "retrieval.items")?;
        let _span = (cfg.kind == IndexKind::Ivf).then(|| desalign_telemetry::span("retrieval.build"));
        let items = items.l2_normalize_rows(1e-9);
        let cells = (cfg.kind == IndexKind::Ivf).then(|| IvfCells::build(&items, &cfg.ivf));
        Ok(Self { items, cells })
    }

    /// Number of indexed items.
    pub fn num_items(&self) -> usize {
        self.items.rows()
    }

    /// Embedding width every query must match.
    pub fn dim(&self) -> usize {
        self.items.cols()
    }

    /// Which backend this index was built with.
    pub fn kind(&self) -> IndexKind {
        if self.cells.is_some() {
            IndexKind::Ivf
        } else {
            IndexKind::Exact
        }
    }

    /// Number of IVF k-means cells; 0 for the exact backend.
    pub fn num_cells(&self) -> usize {
        self.cells.as_ref().map_or(0, |c| c.lists.len())
    }

    /// Validates one query row: width must match the index, values must be
    /// finite.
    fn check_query(&self, query: &[f32], location: &str) -> Result<(), DesalignError> {
        if query.len() != self.dim() {
            return Err(DesalignError::new(
                DefectClass::DimensionMismatch,
                location,
                format!("query dim {} != index dim {}", query.len(), self.dim()),
            ));
        }
        if query.iter().any(|v| !v.is_finite()) {
            return Err(DesalignError::new(DefectClass::NonFiniteFeature, location, "query row contains NaN or ±inf"));
        }
        Ok(())
    }

    /// [`check_query`](Self::check_query) for every row of a batch, before
    /// any is scanned, so a poisoned row fails the whole call instead of
    /// half-answering.
    fn check_batch(&self, queries: &Matrix, location: &str) -> Result<(), DesalignError> {
        if queries.cols() != self.dim() && queries.rows() > 0 {
            return Err(DesalignError::new(
                DefectClass::DimensionMismatch,
                location,
                format!("query dim {} != index dim {}", queries.cols(), self.dim()),
            ));
        }
        ensure_finite(queries, location)
    }

    /// Calls `visit(item)` for every item a search for the normalized
    /// `qrow` examines — all of them (exact) or the posting lists of the
    /// `nprobe` best cells (IVF) — and counts the search volume.
    #[inline]
    fn for_each_candidate(&self, qrow: &[f32], mut visit: impl FnMut(usize)) {
        match &self.cells {
            None => {
                let n = self.items.rows();
                count_search(1, n as u64);
                (0..n).for_each(visit);
            }
            Some(cells) => {
                let probes = cells.probe_order(qrow);
                let mut scanned = 0u64;
                for &(cell, _) in &probes {
                    scanned += cells.lists[cell].len() as u64;
                    cells.lists[cell].iter().for_each(|&i| visit(i as usize));
                }
                count_search(probes.len() as u64, scanned);
            }
        }
    }

    /// Top-k scan for an already normalized query row.
    fn scan(&self, qrow: &[f32], k: usize) -> Vec<(usize, f32)> {
        let mut buf = TopK::new(k);
        self.for_each_candidate(qrow, |j| buf.offer(j, dot(qrow, self.items.row(j))));
        buf.into_sorted()
    }

    /// Optimistic competition rank of `gold` for an already normalized
    /// query row: `1 + |{examined items scoring strictly above gold}|`.
    fn rank(&self, qrow: &[f32], gold: usize) -> usize {
        let gold_score = dot(qrow, self.items.row(gold));
        let mut above = 0usize;
        self.for_each_candidate(qrow, |j| above += usize::from(dot(qrow, self.items.row(j)) > gold_score));
        1 + above
    }

    /// The `k` best items for one raw (un-normalized) query row, sorted by
    /// descending score with ties broken by ascending item position.
    ///
    /// # Errors
    /// [`DefectClass::DimensionMismatch`] on a wrong-width query,
    /// [`DefectClass::NonFiniteFeature`] on NaN/±∞ values.
    pub fn search(&self, query: &[f32], k: usize) -> Result<Vec<(usize, f32)>, DesalignError> {
        self.check_query(query, "ItemIndex::search")?;
        Ok(self.scan(&normalized_query(query), k))
    }

    /// Rank (1-based) of item `gold` for one raw query row:
    /// `1 + |{j : score(j) > score(gold)}|`, ties ranking optimistically.
    /// The exact backend counts over every item; IVF counts only the items
    /// in the cells the query probes.
    ///
    /// # Errors
    /// [`search`](Self::search)'s errors, plus
    /// [`DefectClass::PairOutOfRange`] when `gold` is not an item.
    pub fn rank_of(&self, query: &[f32], gold: usize) -> Result<usize, DesalignError> {
        self.check_query(query, "ItemIndex::rank_of")?;
        if gold >= self.num_items() {
            return Err(DesalignError::new(
                DefectClass::PairOutOfRange,
                "ItemIndex::rank_of",
                format!("gold item {gold} out of bounds for {} items", self.num_items()),
            ));
        }
        Ok(self.rank(&normalized_query(query), gold))
    }

    /// [`search`](Self::search) over every row of `queries`, parallel per
    /// row over `desalign-parallel`. Each row is normalized and scanned
    /// independently, so the result is bit-identical to calling `search`
    /// row by row, regardless of batch composition or thread count.
    ///
    /// # Errors
    /// Validates every row **before** scanning any, so a poisoned row in a
    /// batch fails the whole call instead of half-answering.
    pub fn search_batch(&self, queries: &Matrix, k: usize) -> Result<Vec<Vec<(usize, f32)>>, DesalignError> {
        self.check_batch(queries, "ItemIndex::search_batch")?;
        let mut lists: Vec<Vec<(usize, f32)>> = vec![Vec::new(); queries.rows()];
        self.par_queries(&mut lists, |q| self.scan(&normalized_query(queries.row(q)), k));
        Ok(lists)
    }

    /// [`rank_of`](Self::rank_of) for query row `i` of `queries` against
    /// gold item `i`, parallel per row — the evaluation protocol once the
    /// pair rows are gathered.
    ///
    /// # Errors
    /// As [`search_batch`](Self::search_batch). `queries` must have at most
    /// [`num_items`](Self::num_items) rows.
    pub(crate) fn rank_diagonal(&self, queries: &Matrix) -> Result<Vec<usize>, DesalignError> {
        self.check_batch(queries, "ItemIndex::rank_diagonal")?;
        let mut ranks = vec![0usize; queries.rows()];
        self.par_queries(&mut ranks, |i| self.rank(&normalized_query(queries.row(i)), i));
        Ok(ranks)
    }

    /// Fills `out[q] = f(q)` for every query, in parallel.
    fn par_queries<T: Send>(&self, out: &mut [T], f: impl Fn(usize) -> T + Sync) {
        let cost = out.len().saturating_mul(self.num_items()).saturating_mul(self.dim().max(1));
        desalign_parallel::par_rows(out, 1, cost, |q, slot| slot[0] = f(q));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosine_similarity;
    use desalign_tensor::normal_matrix;

    fn rand_pair(seed: u64, nq: usize, n: usize, d: usize) -> (Matrix, Matrix) {
        let mut rng = rng_from_seed(seed);
        let q = normal_matrix(&mut rng, nq, d, 0.0, 1.0);
        let t = normal_matrix(&mut rng, n, d, 0.0, 1.0);
        (q, t)
    }

    fn ivf(nlist: usize, nprobe: usize) -> RetrievalConfig {
        RetrievalConfig { kind: IndexKind::Ivf, ivf: IvfParams { nlist, nprobe, kmeans_iters: 3, seed: 9 } }
    }

    #[test]
    fn topk_buffer_is_offer_order_invariant() {
        let scores = [0.3f32, 0.9, 0.9, 0.1, 0.5];
        let mut fwd = TopK::new(3);
        for (i, &s) in scores.iter().enumerate() {
            fwd.offer(i, s);
        }
        let mut rev = TopK::new(3);
        for (i, &s) in scores.iter().enumerate().rev() {
            rev.offer(i, s);
        }
        let (f, r) = (fwd.into_sorted(), rev.into_sorted());
        assert_eq!(f, r);
        assert_eq!(f, vec![(1, 0.9), (2, 0.9), (4, 0.5)]); // tie 1 vs 2 → lower id first
        assert_eq!(top1(scores.iter().copied().enumerate()), Some((1, 0.9)));
        assert_eq!(top1(std::iter::empty()), None);
    }

    #[test]
    fn exact_matches_dense_scores_bitwise() {
        let (q, t) = rand_pair(3, 7, 11, 5);
        let sim = cosine_similarity(&q, &t);
        let idx = ItemIndex::build(&t, &RetrievalConfig::default()).unwrap();
        for i in 0..7 {
            let got = idx.search(q.row(i), 11).unwrap();
            assert_eq!(got.len(), 11);
            for (j, s) in got {
                assert_eq!(s.to_bits(), sim.scores()[(i, j)].to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn rank_of_matches_dense_rank() {
        let (q, t) = rand_pair(4, 5, 13, 6);
        let sim = cosine_similarity(&q, &t);
        let idx = ItemIndex::build(&t, &RetrievalConfig::default()).unwrap();
        for i in 0..5 {
            for j in 0..13 {
                assert_eq!(idx.rank_of(q.row(i), j).unwrap(), sim.rank_of(i, j), "({i},{j})");
            }
        }
        let err = idx.rank_of(q.row(0), 13).unwrap_err();
        assert_eq!(err.class, DefectClass::PairOutOfRange);
    }

    #[test]
    fn ivf_probing_everything_is_exact() {
        let (q, t) = rand_pair(5, 6, 40, 4);
        let ivf = ItemIndex::build(&t, &ivf(5, 5)).unwrap();
        let exact = ItemIndex::build(&t, &RetrievalConfig::default()).unwrap();
        assert_eq!((ivf.kind(), ivf.num_cells()), (IndexKind::Ivf, 5));
        assert_eq!((exact.kind(), exact.num_cells()), (IndexKind::Exact, 0));
        for i in 0..6 {
            assert_eq!(ivf.search(q.row(i), 3).unwrap(), exact.search(q.row(i), 3).unwrap(), "query {i}");
            assert_eq!(ivf.rank_of(q.row(i), i).unwrap(), exact.rank_of(q.row(i), i).unwrap(), "query {i}");
        }
    }

    #[test]
    fn ivf_rank_counts_only_probed_cells() {
        let (q, t) = rand_pair(6, 4, 60, 4);
        let one_cell = ItemIndex::build(&t, &ivf(6, 1)).unwrap();
        let exact = ItemIndex::build(&t, &RetrievalConfig::default()).unwrap();
        for i in 0..4 {
            for gold in [0, 17, 59] {
                assert!(one_cell.rank_of(q.row(i), gold).unwrap() <= exact.rank_of(q.row(i), gold).unwrap());
            }
        }
    }

    #[test]
    fn empty_and_overlong_k_are_benign() {
        let (q, t) = rand_pair(7, 2, 3, 4);
        let exact = ItemIndex::build(&t, &RetrievalConfig::default()).unwrap();
        assert_eq!(exact.search(q.row(0), 0).unwrap(), vec![]);
        assert_eq!(exact.search(q.row(0), 99).unwrap().len(), 3);
        let empty = ItemIndex::build(&Matrix::zeros(0, 4), &ivf(0, 16)).unwrap();
        assert_eq!(empty.search(q.row(0), 5).unwrap(), vec![]);
    }

    #[test]
    fn nan_rows_surface_typed_errors() {
        let mut bad = Matrix::zeros(3, 2);
        bad[(1, 0)] = f32::NAN;
        for cfg in [RetrievalConfig::default(), ivf(0, 16)] {
            let err = ItemIndex::build(&bad, &cfg).unwrap_err();
            assert_eq!(err.class, DefectClass::NonFiniteFeature);
        }
        let err = ItemIndex::build(&Matrix::zeros(3, 2), &ivf(0, 0)).unwrap_err();
        assert_eq!(err.class, DefectClass::Config);
    }

    #[test]
    fn item_index_batch_matches_single_search() {
        let (q, t) = rand_pair(19, 9, 25, 6);
        for cfg in [RetrievalConfig::default(), ivf(4, 2)] {
            let idx = ItemIndex::build(&t, &cfg).unwrap();
            let batch = idx.search_batch(&q, 3).unwrap();
            assert_eq!(batch.len(), q.rows());
            for i in 0..q.rows() {
                assert_eq!(batch[i], idx.search(q.row(i), 3).unwrap(), "query {i}");
            }
            let ranks = idx.rank_diagonal(&q).unwrap();
            for (i, &r) in ranks.iter().enumerate() {
                assert_eq!(r, idx.rank_of(q.row(i), i).unwrap(), "query {i}");
            }
        }
    }

    #[test]
    fn item_index_rejects_hostile_queries() {
        let (_, t) = rand_pair(23, 1, 10, 4);
        let idx = ItemIndex::build(&t, &RetrievalConfig::default()).unwrap();
        assert_eq!(idx.num_items(), 10);
        assert_eq!(idx.dim(), 4);
        let err = idx.search(&[1.0, 2.0], 3).unwrap_err();
        assert_eq!(err.class, DefectClass::DimensionMismatch);
        let err = idx.search(&[1.0, f32::NAN, 0.0, 0.0], 3).unwrap_err();
        assert_eq!(err.class, DefectClass::NonFiniteFeature);
        let bad = Matrix::from_rows(&[&[1.0, f32::INFINITY, 0.0, 0.0]]);
        assert!(idx.search_batch(&bad, 3).is_err());
        assert!(idx.rank_diagonal(&bad).is_err());
        // A zero query is benign (normalization leaves it untouched).
        assert_eq!(idx.search(&[0.0; 4], 2).unwrap().len(), 2);
    }
}
