//! The engine slot: one swappable [`AlignEngine`] behind a circuit
//! breaker.
//!
//! Two robustness mechanisms live here, both driven by the batcher:
//!
//! **Hot reload.** The slot holds the engine as `RwLock<Arc<AlignEngine>>`.
//! `POST /admin/reload` builds a *candidate* engine off to the side and
//! calls [`EngineSlot::swap`] only after the build and validation fully
//! succeed — so a faulted reload rolls back by simply never swapping.
//! The batcher snapshots the `Arc` once per batch
//! ([`EngineSlot::current`]), so requests in flight during a swap finish
//! on the engine that admitted them and the next batch picks up the new
//! one. No request ever observes a half-swapped engine.
//!
//! **Circuit breaker.** Engine-level faults (I/O-class errors from the
//! primary index — in practice only injectable via the `serve.engine`
//! failpoint or a genuinely broken backend) are counted per batch. After
//! `threshold` *consecutive* faulty batches the breaker opens and batches
//! are answered by an exhaustive scan of every cell of the engine's index
//! ([`AlignEngine::answer_batch_degraded`]) — the exact answers, at a
//! higher cost per query, beat refusing to answer. While open, every `probe_every`-th batch is sent
//! to the primary as a half-open probe; one clean probe closes the
//! breaker. The degraded path never evaluates the failpoint, so a chaos
//! schedule that breaks the primary cannot also break the fallback.
//!
//! Counters: `serve.breaker_open` / `serve.breaker_close` (transitions),
//! `serve.degraded_answers` (queries answered by the exhaustive scan),
//! `serve.engine_faults` (faulty batches observed).

use crate::engine::{AlignAnswer, AlignEngine, AlignQuery};
use desalign_util::{DefectClass, DesalignError};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Circuit-breaker tuning.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive faulty batches before the breaker opens.
    pub threshold: usize,
    /// While open, probe the primary every this-many batches.
    pub probe_every: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self { threshold: 5, probe_every: 16 }
    }
}

/// A swappable engine with breaker state. See the module docs.
#[derive(Debug)]
pub struct EngineSlot {
    engine: RwLock<Arc<AlignEngine>>,
    cfg: BreakerConfig,
    consecutive_faults: AtomicUsize,
    open: AtomicBool,
    batches_while_open: AtomicUsize,
    generation: AtomicUsize,
}

impl EngineSlot {
    /// Wraps an engine with breaker configuration. Generation starts at 1.
    pub fn new(engine: AlignEngine, cfg: BreakerConfig) -> Self {
        Self::from_arc(Arc::new(engine), cfg)
    }

    /// [`new`](Self::new) for an engine already behind an `Arc`.
    pub fn from_arc(engine: Arc<AlignEngine>, cfg: BreakerConfig) -> Self {
        Self {
            engine: RwLock::new(engine),
            cfg,
            consecutive_faults: AtomicUsize::new(0),
            open: AtomicBool::new(false),
            batches_while_open: AtomicUsize::new(0),
            generation: AtomicUsize::new(1),
        }
    }

    /// Snapshot of the current engine. Cheap (one `Arc` clone under a
    /// read lock); callers hold the snapshot for the duration of a batch
    /// so a concurrent swap cannot pull the engine out from under them.
    pub fn current(&self) -> Arc<AlignEngine> {
        self.engine.read().expect("engine slot lock").clone()
    }

    /// Monotonic engine generation: 1 for the boot engine, +1 per
    /// successful [`swap`](Self::swap).
    pub fn generation(&self) -> usize {
        self.generation.load(Ordering::SeqCst)
    }

    /// Whether the breaker is currently open (degraded mode).
    pub fn breaker_open(&self) -> bool {
        self.open.load(Ordering::SeqCst)
    }

    /// Installs a fully built replacement engine and returns the new
    /// generation. Resets the breaker — the new engine deserves a clean
    /// fault history.
    pub fn swap(&self, engine: AlignEngine) -> usize {
        let mut slot = self.engine.write().expect("engine slot lock");
        *slot = Arc::new(engine);
        self.consecutive_faults.store(0, Ordering::SeqCst);
        self.batches_while_open.store(0, Ordering::SeqCst);
        if self.open.swap(false, Ordering::SeqCst) {
            desalign_telemetry::counter("serve.breaker_close").incr();
        }
        self.generation.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Answers one batch through the breaker state machine.
    ///
    /// Closed: answer on the primary; an engine-fault batch increments
    /// the consecutive-fault count (threshold reached → open). Open:
    /// answer degraded, except every `probe_every`-th batch which probes
    /// the primary (clean probe → close). Per-query client errors
    /// (unknown id, bad vector) are *not* engine faults and never move
    /// the breaker.
    pub fn answer_batch(&self, engine: &AlignEngine, batch: &[(AlignQuery, usize)]) -> Vec<Result<AlignAnswer, DesalignError>> {
        if self.open.load(Ordering::SeqCst) {
            let n = self.batches_while_open.fetch_add(1, Ordering::SeqCst) + 1;
            if n % self.cfg.probe_every.max(1) != 0 {
                desalign_telemetry::counter("serve.degraded_answers").add(batch.len() as u64);
                return engine.answer_batch_degraded(batch);
            }
            // Half-open probe: fall through to the primary path below.
        }
        let answers = self.primary_answers(engine, batch);
        let faulted = answers.iter().any(|r| matches!(r, Err(e) if is_engine_fault(e)));
        if faulted {
            desalign_telemetry::counter("serve.engine_faults").incr();
            let faults = self.consecutive_faults.fetch_add(1, Ordering::SeqCst) + 1;
            if faults >= self.cfg.threshold && !self.open.swap(true, Ordering::SeqCst) {
                desalign_telemetry::counter("serve.breaker_open").incr();
                self.batches_while_open.store(0, Ordering::SeqCst);
            }
            // A faulted probe (or pre-open batch) still owes answers:
            // retry the batch degraded rather than surfacing 503s for
            // queries the exhaustive scan can serve.
            if engine.has_fallback() {
                desalign_telemetry::counter("serve.degraded_answers").add(batch.len() as u64);
                return engine.answer_batch_degraded(batch);
            }
            return answers;
        }
        self.consecutive_faults.store(0, Ordering::SeqCst);
        if self.open.swap(false, Ordering::SeqCst) {
            desalign_telemetry::counter("serve.breaker_close").incr();
        }
        answers
    }

    /// The primary path, with the `serve.engine` failpoint in front. The
    /// failpoint is evaluated here — and only here — so degraded-mode
    /// answers keep flowing under a schedule that breaks the primary.
    fn primary_answers(&self, engine: &AlignEngine, batch: &[(AlignQuery, usize)]) -> Vec<Result<AlignAnswer, DesalignError>> {
        if let Err(e) = desalign_failpoint::fail_io("serve.engine") {
            let err = DesalignError::io("serve.engine", e);
            return batch.iter().map(|_| Err(err.clone())).collect();
        }
        engine.answer_batch(batch)
    }
}

/// Engine faults are I/O-class failures of the backend itself; typed
/// per-query validation errors are the client's problem, not the
/// engine's.
fn is_engine_fault(e: &DesalignError) -> bool {
    e.class == DefectClass::Io
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AlignQuery;
    use desalign_eval::{IndexKind, IvfParams, RetrievalConfig};
    use desalign_tensor::Matrix;

    fn ivf_slot(cfg: BreakerConfig) -> EngineSlot {
        let queries = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let items = Matrix::from_rows(&[&[1.0, 0.0], &[0.7, 0.7], &[0.0, 1.0]]);
        let rcfg = RetrievalConfig {
            kind: IndexKind::Ivf,
            ivf: IvfParams { nlist: 2, nprobe: 2, kmeans_iters: 2, seed: 7 },
        };
        EngineSlot::new(AlignEngine::from_embeddings(queries, items, &rcfg, 8).unwrap(), cfg)
    }

    fn one_query() -> Vec<(AlignQuery, usize)> {
        vec![(AlignQuery::Entity(0), 2)]
    }

    #[test]
    fn breaker_trips_after_threshold_and_probe_closes_it() {
        let _guard = desalign_failpoint::exclusive();
        let slot = ivf_slot(BreakerConfig { threshold: 3, probe_every: 2 });
        let engine = slot.current();
        // Faults on hits 1..=3 of the serve.engine site, clean after.
        desalign_failpoint::install("serve.engine=err@1~3").unwrap();
        for i in 1..=3 {
            let answers = slot.answer_batch(&engine, &one_query());
            // The exhaustive scan absorbs the fault: callers still get answers.
            assert!(answers[0].is_ok(), "batch {i} not absorbed by fallback");
        }
        assert!(slot.breaker_open(), "threshold=3 consecutive faults must open the breaker");
        // Open: batch 1 after opening is degraded (no failpoint eval), batch 2
        // is the half-open probe — the schedule is exhausted, so it's clean
        // and closes the breaker.
        assert!(slot.answer_batch(&engine, &one_query())[0].is_ok());
        assert!(slot.breaker_open());
        assert!(slot.answer_batch(&engine, &one_query())[0].is_ok());
        assert!(!slot.breaker_open(), "clean probe must close the breaker");
        desalign_failpoint::clear();
    }

    #[test]
    fn client_errors_never_move_the_breaker() {
        let _guard = desalign_failpoint::exclusive();
        let slot = ivf_slot(BreakerConfig { threshold: 1, probe_every: 2 });
        let engine = slot.current();
        for _ in 0..5 {
            let answers = slot.answer_batch(&engine, &[(AlignQuery::Entity(999), 2)]);
            assert!(answers[0].is_err());
        }
        assert!(!slot.breaker_open(), "PairOutOfRange is a client error, not an engine fault");
    }

    #[test]
    fn swap_bumps_generation_and_resets_the_breaker() {
        let _guard = desalign_failpoint::exclusive();
        let slot = ivf_slot(BreakerConfig { threshold: 1, probe_every: 1000 });
        assert_eq!(slot.generation(), 1);
        let engine = slot.current();
        desalign_failpoint::install("serve.engine=err").unwrap();
        let _ = slot.answer_batch(&engine, &one_query());
        assert!(slot.breaker_open());
        desalign_failpoint::clear();
        let queries = Matrix::from_rows(&[&[1.0, 0.0]]);
        let items = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let fresh = AlignEngine::from_embeddings(queries, items, &RetrievalConfig::default(), 4).unwrap();
        assert_eq!(slot.swap(fresh), 2);
        assert_eq!(slot.generation(), 2);
        assert!(!slot.breaker_open(), "swap must reset breaker state");
        // The old snapshot still answers — in-flight batches survive a swap.
        assert!(slot.answer_batch(&engine, &one_query())[0].is_ok());
        assert_eq!(slot.current().num_items(), 2);
    }
}
