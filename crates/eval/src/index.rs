//! Sub-quadratic retrieval: [`ItemIndex`], the one nearest-neighbour index
//! every embedding-level consumer searches through.
//!
//! An index is built over a fixed **item** set only; queries arrive as raw
//! rows, alone or in batches. Evaluation, mutual-NN pseudo-pair mining,
//! candidate-set CSLS and the server all go through it, so none of them
//! materializes the dense `n_s × n_t` similarity matrix. Two backends:
//!
//! - [`IndexKind::Exact`] — a scan over every ℓ2-normalized item, keeping
//!   only a bounded top-k buffer per query. It is **bit-identical** to the
//!   dense [`cosine_similarity`] path: both normalize with the same
//!   `1e-9`-eps rule and score every pair with [`dot`]'s exact 4-lane
//!   accumulation tree, and top-k selection uses a strict total order
//!   (score descending, id ascending) whose result is independent of scan
//!   order and thread count.
//! - [`IndexKind::Ivf`] — an IVF (inverted-file) index: seeded spherical
//!   k-means over `Rng64` partitions the items into `nlist` cells; a query
//!   scans only the `nprobe` cells whose centroids score highest. Build and
//!   search are bit-deterministic under `DESALIGN_THREADS` because
//!   assignment parallelizes per row (each row's result depends only on
//!   that row) and centroid updates accumulate serially in item order.
//!
//! **Every score goes through one GEMM kernel.** The index keeps its
//! normalized items once, packed as [`NtPanels`]: one packing per posting
//! list, where the exact backend is one list holding every item. The IVF
//! centroids are packed the same way. Queries are normalized in groups of
//! [`QUERY_BLOCK`] rows and scored against [`PANELS_PER_BLOCK`] panels at a
//! time by the NT microkernel behind `Matrix::matmul_nt`; k-means
//! assignment packs each round's centroids once and scores item groups the
//! same way. That kernel computes each element with `dot`'s own 4-lane
//! tree (the argument is in `desalign-tensor`'s `tile.rs`, pinned by its
//! `proptest_tiled`), so a score does not depend on the block, panel or
//! group it was computed in. Each query offers exactly the candidates it
//! always did to its top-k buffer (or counts them for [`rank_of`]), and
//! panel padding is never offered. Scratch is one block of scores per
//! worker, never `n × n` or `n × nlist`. `retrieval_props` keeps the
//! per-pair-`dot` index as its reference and checks centroid bits, posting
//! lists, top-k bits and ranks against it at 1, 2 and 7 threads.
//!
//! Approximation is surfaced, never silent: telemetry counters
//! `retrieval.probes` / `retrieval.candidates` record how much of the
//! corpus each search touched, and the `retrieval_bench` harness plus the
//! ci.sh recall gate enforce recall@10 ≥ 0.95 against the exact backend.
//!
//! [`cosine_similarity`]: crate::cosine_similarity
//! [`dot`]: desalign_tensor::dot
//! [`rank_of`]: ItemIndex::rank_of

use desalign_tensor::{rng_from_seed, Matrix, NtPanels, SliceRandom};
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

/// In-place ℓ2 normalization of one row, matching
/// `l2_normalize_rows(1e-9)` bit-for-bit (same in-order sum-of-squares,
/// same `> eps` guard, same division).
fn normalize(row: &mut [f32]) {
    let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm > 1e-9 {
        for v in row {
            *v /= norm;
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked scoring through the NT kernel.
// ---------------------------------------------------------------------------

/// Query rows normalized and scored together: one parallel job's worth,
/// and the left-operand height of every block the kernel scores.
const QUERY_BLOCK: usize = 64;

/// Packed panels ([`NtPanels::WIDTH`] items each) scored per block. At the
/// serve width (d ≈ 1024) a block of 8 panels is 512 KiB of items, which
/// stays cache-resident while every 4-row group of a query block streams
/// it; the score scratch is `QUERY_BLOCK × 128` floats.
const PANELS_PER_BLOCK: usize = 8;

/// Scores the `g` row-major rows of `rows` against every packed row of
/// `panels`, one block of panels at a time, and calls `visit(r, j, score)`
/// for row `r` and packed row `j` — rows ascending within a block, blocks
/// ascending, so each row sees `j` ascending. Panel padding is never
/// visited. `scratch` holds one block of scores.
fn score_blocks(panels: &NtPanels, rows: &[f32], g: usize, scratch: &mut Vec<f32>, mut visit: impl FnMut(usize, usize, f32)) {
    let np = panels.num_panels();
    for p0 in (0..np).step_by(PANELS_PER_BLOCK) {
        let block = p0..(p0 + PANELS_PER_BLOCK).min(np);
        let cols = panels.panel_rows(block.clone());
        let w = cols.len();
        scratch.resize(g * w, 0.0);
        panels.score_into(rows, block, &mut scratch[..g * w]);
        for (r, scores) in scratch[..g * w].chunks_exact(w).enumerate() {
            for (jj, &s) in scores.iter().enumerate() {
                visit(r, cols.start + jj, s);
            }
        }
    }
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

/// Seeded spherical k-means over the (already normalized) `items`: a
/// seeded shuffle picks `nlist` distinct rows as initial centroids, then
/// `kmeans_iters` Lloyd rounds refine them (assignment parallel per row,
/// update serial in item order — both bit-deterministic under
/// `DESALIGN_THREADS`). Returns the centroids and each item's final cell.
fn kmeans(items: &Matrix, params: &IvfParams) -> (Matrix, Vec<u32>) {
    let (n, d) = items.shape();
    if n == 0 {
        return (Matrix::zeros(0, d), Vec::new());
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
    for _ in 0..params.kmeans_iters {
        assign_cells(items, &centroids, &mut assign);
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
    // lists.
    assign_cells(items, &centroids, &mut assign);
    (centroids, assign)
}

/// Nearest-centroid assignment (max score, ties to the lower centroid id):
/// the round's centroids are packed once, and each group of item rows is
/// scored against them block by block with centroids visited ascending
/// under a strict `>`. Each row's result depends only on that row → safe
/// to parallelize per row group with identical bits at any thread count.
fn assign_cells(items: &Matrix, centroids: &Matrix, assign: &mut [u32]) {
    let (n, d) = items.shape();
    let packed = NtPanels::pack(centroids);
    let cost = n.saturating_mul(centroids.rows()).saturating_mul(d.max(1));
    desalign_parallel::par_row_groups(assign, 1, QUERY_BLOCK, cost, |i0, slots| {
        let rows = &items.as_slice()[i0 * d..(i0 + slots.len()) * d];
        let mut best = vec![(0u32, f32::NEG_INFINITY); slots.len()];
        score_blocks(&packed, rows, slots.len(), &mut Vec::new(), |r, c, s| {
            if s > best[r].1 {
                best[r] = (c as u32, s);
            }
        });
        for (slot, (arg, _)) in slots.iter_mut().zip(best) {
            *slot = arg;
        }
    });
}

/// Routes a query to the IVF cells it scans.
#[derive(Debug)]
struct Router {
    /// The k-means centroids, packed for scoring.
    centroids: NtPanels,
    nprobe: usize,
    /// Each item's cell.
    cell_of: Vec<u32>,
}

impl Router {
    /// The cells each of the `g` normalized `rows` probes: its `nprobe`
    /// highest-scoring centroids, ids ascending on ties.
    fn probe(&self, rows: &[f32], g: usize, scratch: &mut Vec<f32>) -> Vec<Vec<(usize, f32)>> {
        let mut probes: Vec<TopK> = (0..g).map(|_| TopK::new(self.nprobe)).collect();
        score_blocks(&self.centroids, rows, g, scratch, |r, c, s| probes[r].offer(c, s));
        probes.into_iter().map(TopK::into_sorted).collect()
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

/// One posting list: item ids ascending, and those items' normalized rows
/// packed in the same order.
#[derive(Debug)]
struct Cell {
    ids: Vec<u32>,
    items: NtPanels,
}

/// A nearest-neighbour index over one fixed item set; queries arrive as raw
/// rows. `desalign-serve` builds one over the precomputed entity embeddings
/// at startup; evaluation, mining and candidate CSLS build one per call.
///
/// Every query row gets the same `1e-9`-eps normalization as
/// `l2_normalize_rows` and its scores do not depend on the rows it is
/// scored with, so its answer is **bit-identical** whether it arrives
/// alone, inside any batch composition, or at any `DESALIGN_THREADS`
/// setting.
#[derive(Debug)]
pub struct ItemIndex {
    dim: usize,
    num_items: usize,
    /// The posting lists; the exact backend has one holding every item.
    cells: Vec<Cell>,
    /// `Some` for [`IndexKind::Ivf`]: picks the cells a query probes.
    router: Option<Router>,
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
        let (n, dim) = items.shape();
        if cfg.kind == IndexKind::Exact {
            let packed = NtPanels::pack_from(n, dim, |j, row| {
                row.copy_from_slice(items.row(j));
                normalize(row);
            });
            let cells = vec![Cell { ids: (0..n as u32).collect(), items: packed }];
            return Ok(Self { dim, num_items: n, cells, router: None });
        }
        let _span = desalign_telemetry::span("retrieval.build");
        let normalized = items.l2_normalize_rows(1e-9);
        let (centroids, cell_of) = kmeans(&normalized, &cfg.ivf);
        // Posting lists in ascending item order, each packed once.
        let mut lists = vec![Vec::new(); centroids.rows()];
        for (i, &c) in cell_of.iter().enumerate() {
            lists[c as usize].push(i as u32);
        }
        let cells = lists
            .into_iter()
            .map(|ids| {
                let items = NtPanels::pack_from(ids.len(), dim, |j, row| row.copy_from_slice(normalized.row(ids[j] as usize)));
                Cell { ids, items }
            })
            .collect();
        let router = Router { centroids: NtPanels::pack(&centroids), nprobe: cfg.ivf.nprobe, cell_of };
        Ok(Self { dim, num_items: n, cells, router: Some(router) })
    }

    /// Number of indexed items.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Embedding width every query must match.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Which backend this index was built with.
    pub fn kind(&self) -> IndexKind {
        if self.router.is_some() {
            IndexKind::Ivf
        } else {
            IndexKind::Exact
        }
    }

    /// Number of IVF k-means cells; 0 for the exact backend.
    pub fn num_cells(&self) -> usize {
        if self.router.is_some() {
            self.cells.len()
        } else {
            0
        }
    }

    /// The IVF backend's k-means centroids (row-major) and posting lists
    /// (item ids ascending); `None` for the exact backend. For audits and
    /// tests: searches never need them unpacked.
    pub fn ivf_cells(&self) -> Option<(Matrix, Vec<&[u32]>)> {
        let router = self.router.as_ref()?;
        Some((router.centroids.unpack(), self.cells.iter().map(|c| c.ids.as_slice()).collect()))
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

    /// Scores the `g` normalized `rows` against every item they examine —
    /// all of them (exact, or `exhaustive`) or the posting lists of each
    /// row's `nprobe` best cells (IVF) — calling `visit(r, item, score)`,
    /// and counts the search volume.
    fn scan(&self, rows: &[f32], g: usize, exhaustive: bool, mut visit: impl FnMut(usize, usize, f32)) {
        let mut scratch = Vec::new();
        match &self.router {
            Some(router) if !exhaustive => {
                let d = self.dim;
                for (r, probes) in router.probe(rows, g, &mut scratch).into_iter().enumerate() {
                    let row = &rows[r * d..(r + 1) * d];
                    let mut scanned = 0u64;
                    for &(c, _) in &probes {
                        let cell = &self.cells[c];
                        scanned += cell.ids.len() as u64;
                        score_blocks(&cell.items, row, 1, &mut scratch, |_, j, s| visit(r, cell.ids[j] as usize, s));
                    }
                    count_search(probes.len() as u64, scanned);
                }
            }
            _ => {
                for cell in &self.cells {
                    score_blocks(&cell.items, rows, g, &mut scratch, |r, j, s| visit(r, cell.ids[j] as usize, s));
                }
                count_search(g as u64, (g * self.num_items) as u64);
            }
        }
    }

    /// The score of `item` for the normalized `row`: its packed panel alone
    /// through the same kernel, so it equals the score a scan computes.
    fn score_item(&self, row: &[f32], item: usize) -> f32 {
        let (cell, pos) = match &self.router {
            None => (&self.cells[0], item),
            Some(router) => {
                let cell = &self.cells[router.cell_of[item] as usize];
                (cell, cell.ids.binary_search(&(item as u32)).expect("every item sits in its cell's list"))
            }
        };
        let panel = pos / NtPanels::WIDTH;
        let cols = cell.items.panel_rows(panel..panel + 1);
        let mut scores = [0.0f32; NtPanels::WIDTH];
        cell.items.score_into(row, panel..panel + 1, &mut scores[..cols.len()]);
        scores[pos - cols.start]
    }

    /// Top-`k` lists for every row of `queries` (already validated).
    fn top_k(&self, queries: &Matrix, k: usize, exhaustive: bool) -> Vec<Vec<(usize, f32)>> {
        let mut lists: Vec<Vec<(usize, f32)>> = vec![Vec::new(); queries.rows()];
        self.par_query_groups(queries, &mut lists, |_, rows, out| {
            let mut top: Vec<TopK> = (0..out.len()).map(|_| TopK::new(k)).collect();
            self.scan(rows, out.len(), exhaustive, |r, j, s| top[r].offer(j, s));
            for (o, t) in out.iter_mut().zip(top) {
                *o = t.into_sorted();
            }
        });
        lists
    }

    /// Optimistic competition rank of `gold(q)` for every row `q` of
    /// `queries` (already validated): `1 + |{examined items scoring
    /// strictly above gold}|`.
    fn ranks(&self, queries: &Matrix, gold: impl Fn(usize) -> usize + Sync) -> Vec<usize> {
        let d = self.dim;
        let mut ranks = vec![0usize; queries.rows()];
        self.par_query_groups(queries, &mut ranks, |q0, rows, out| {
            let gold_scores: Vec<f32> =
                (0..out.len()).map(|r| self.score_item(&rows[r * d..(r + 1) * d], gold(q0 + r))).collect();
            let mut above = vec![0usize; out.len()];
            self.scan(rows, out.len(), false, |r, _, s| above[r] += usize::from(s > gold_scores[r]));
            for (o, a) in out.iter_mut().zip(above) {
                *o = 1 + a;
            }
        });
        ranks
    }

    /// Fills `out[q]` for every query row, in parallel over groups of
    /// [`QUERY_BLOCK`] rows: `f(q0, rows, out_group)` gets the group's first
    /// row and its rows normalized, row-major.
    fn par_query_groups<T: Send>(&self, queries: &Matrix, out: &mut [T], f: impl Fn(usize, &[f32], &mut [T]) + Sync) {
        let d = self.dim;
        let cost = out.len().saturating_mul(self.num_items).saturating_mul(d.max(1));
        desalign_parallel::par_row_groups(out, 1, QUERY_BLOCK, cost, |q0, group| {
            let mut rows = queries.as_slice()[q0 * d..(q0 + group.len()) * d].to_vec();
            if d > 0 {
                rows.chunks_exact_mut(d).for_each(normalize);
            }
            f(q0, &rows, group);
        });
    }

    /// The `k` best items for one raw (un-normalized) query row, sorted by
    /// descending score with ties broken by ascending item position.
    ///
    /// # Errors
    /// [`DefectClass::DimensionMismatch`] on a wrong-width query,
    /// [`DefectClass::NonFiniteFeature`] on NaN/±∞ values.
    pub fn search(&self, query: &[f32], k: usize) -> Result<Vec<(usize, f32)>, DesalignError> {
        self.check_query(query, "ItemIndex::search")?;
        Ok(self.top_k(&Matrix::from_vec(1, query.len(), query.to_vec()), k, false).remove(0))
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
        Ok(self.ranks(&Matrix::from_vec(1, query.len(), query.to_vec()), |_| gold)[0])
    }

    /// [`search`](Self::search) over every row of `queries`, parallel over
    /// query groups. Each row is normalized and scored independently of the
    /// others, so the result is bit-identical to calling `search` row by
    /// row, regardless of batch composition or thread count.
    ///
    /// # Errors
    /// Validates every row **before** scanning any, so a poisoned row in a
    /// batch fails the whole call instead of half-answering.
    pub fn search_batch(&self, queries: &Matrix, k: usize) -> Result<Vec<Vec<(usize, f32)>>, DesalignError> {
        self.check_batch(queries, "ItemIndex::search_batch")?;
        Ok(self.top_k(queries, k, false))
    }

    /// [`search_batch`](Self::search_batch) over **every** item, whatever
    /// the backend: an IVF index scans all of its cells instead of the
    /// probed ones. The scores are the same kernel's and the top-k order is
    /// offer-order invariant, so the lists are bit-identical to an
    /// [`IndexKind::Exact`] index's over the same items. The serve circuit
    /// breaker answers from it while the IVF probe is suspected faulty.
    ///
    /// # Errors
    /// As [`search_batch`](Self::search_batch).
    pub fn search_batch_exhaustive(&self, queries: &Matrix, k: usize) -> Result<Vec<Vec<(usize, f32)>>, DesalignError> {
        self.check_batch(queries, "ItemIndex::search_batch_exhaustive")?;
        Ok(self.top_k(queries, k, true))
    }

    /// [`rank_of`](Self::rank_of) for query row `i` of `queries` against
    /// gold item `i`, parallel over query groups — the evaluation protocol
    /// once the pair rows are gathered.
    ///
    /// # Errors
    /// As [`search_batch`](Self::search_batch), plus
    /// [`DefectClass::PairOutOfRange`] when `queries` has more rows than the
    /// index has items.
    pub fn rank_diagonal(&self, queries: &Matrix) -> Result<Vec<usize>, DesalignError> {
        self.check_batch(queries, "ItemIndex::rank_diagonal")?;
        if queries.rows() > self.num_items() {
            return Err(DesalignError::new(
                DefectClass::PairOutOfRange,
                "ItemIndex::rank_diagonal",
                format!("{} query rows for {} gold items", queries.rows(), self.num_items()),
            ));
        }
        Ok(self.ranks(queries, |i| i))
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
