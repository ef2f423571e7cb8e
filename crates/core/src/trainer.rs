//! The training loop of Algorithm 1 (lines 3–10), split for crash-safe
//! checkpoint/resume, plus the divergence watchdog and fault injection.
//!
//! [`DesalignModel::fit`] is a thin wrapper over three phases:
//!
//! 1. [`DesalignModel::begin_training`] — splits the seed pairs, builds
//!    the training pool (gold + pseudo pairs) and a fresh optimizer, and
//!    returns the [`TrainState`] that owns every piece of loop state;
//! 2. [`DesalignModel::train_epochs`] — runs up to `n` epochs, advancing
//!    `TrainState` in place. Each epoch takes one optimizer step per
//!    training *block* (see below);
//! 3. [`DesalignModel::end_training`] — restores the best early-stop
//!    snapshot and finalizes the [`TrainReport`].
//!
//! The split is **exactly** trajectory-preserving: `fit()` consumes the
//! model RNG in the same order the monolithic loop did, and a
//! [`TrainState`] persisted at any epoch boundary via
//! [`DesalignModel::save_checkpoint`](crate::checkpoint) and resumed
//! later continues the *bit-identical* trajectory — the contract
//! `docs/RELIABILITY.md` documents and `ci.sh` enforces.
//!
//! # Blocks
//!
//! Full-graph training is one block: the model's own whole-graph inputs
//! and the whole pool, so an epoch is one sampled batch and one step.
//! Neighborhood-sampled training
//! ([`SampledTrainingSettings`](crate::config::SampledTrainingSettings))
//! bounds tape memory instead: the source entities are cut into
//! contiguous ranges of `block_entities` — the blocking the shard format
//! uses (`docs/DATA_FORMAT.md`) — and each range with seed pairs becomes
//! one block:
//!
//! 1. source core = the range; target core = the targets of its pairs;
//! 2. each core is extended with a bounded halo of sampled out-of-block
//!    neighbors ([`desalign_graph::sample_neighborhood`], seeded from the
//!    model seed and the block index), so the GAT sees real
//!    message-passing context at the block boundary;
//! 3. the block encodes [`GraphInputs::for_subgraph`] inputs with the
//!    shared weights, and the MMSL loss — the Dirichlet-energy constraint
//!    included, on the subgraph Laplacians — uses block-local indices.
//!
//! Both kinds run through the same loop body, so sampled runs get the
//! watchdog, checkpoint/resume, early stopping and per-epoch telemetry
//! too. Every block draws its batch from its own pool with `batch_size`;
//! a pool that fits in one batch is used whole and draws no randomness,
//! so a watchdog rollback replays such a block unchanged. An epoch reports the mean loss breakdown, energy trace and
//! gradient norm over its blocks (a one-block epoch reports its block's
//! values unchanged). Blocks are built when training begins or resumes;
//! [`DesalignModel::inject_modality_dropout`] reaches sampled blocks only
//! from the next begin or resume.
//!
//! # The watchdog
//!
//! When [`WatchdogConfig::enabled`](crate::config::WatchdogConfig), every
//! block step is vetted after the backward pass and *before* the
//! optimizer step: a non-finite gradient norm, a non-finite loss, a
//! non-finite sampled Dirichlet energy, or a loss spike beyond
//! `spike_factor ×` the last good epoch loss rejects the update, rolls
//! model + state back to the last good in-memory snapshot (taken at an
//! epoch boundary), and perturbs the sampling stream deterministically so
//! the same pathological batch is not redrawn. Each trip increments the
//! `train.rollbacks` counter and the cumulative `rollbacks` field of
//! subsequent epoch records; after `max_rollbacks` trips the run stops on
//! the last good state.

use crate::encoder::{EncodedGraph, GraphInputs};
use crate::energy::EnergyTrace;
use crate::loss::{mmsl_loss, LossBreakdown};
use crate::model::DesalignModel;
use crate::train::{sample_batch, train_val_split, TrainReport};
use desalign_graph::{dirichlet_energy, sample_neighborhood};
use desalign_mmkg::AlignmentDataset;
use desalign_nn::{AdamW, CosineWarmup, Session};
use desalign_tensor::{rng_from_seed, Matrix, Rng64, SliceRandom};
use std::rc::Rc;
use std::time::Instant;

/// Deterministic fault-injection plan for resilience tests (armed with
/// [`DesalignModel::set_chaos`]).
///
/// Faults are **one-shot**: an epoch listed in [`nan_grad_epochs`] fires
/// once and is removed, so a watchdog rollback that replays the epoch
/// does not re-poison it (which would loop until `max_rollbacks`).
///
/// [`nan_grad_epochs`]: ChaosPlan::nan_grad_epochs
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    /// Epochs whose gradients are overwritten with `NaN` after the
    /// backward pass — simulating numerical divergence at an exact,
    /// reproducible point.
    pub nan_grad_epochs: Vec<usize>,
}

/// Rollback snapshot captured at an epoch boundary (in memory only).
pub(crate) struct GoodState {
    next_epoch: usize,
    params: Vec<Matrix>,
    opt: AdamW,
    rng: [u64; 4],
    best_val: f32,
    best_snapshot: Option<Vec<Matrix>>,
    patience_left: usize,
    loss_len: usize,
    energy_len: usize,
    traces_len: usize,
    last_loss: f32,
}

/// One optimizer step of an epoch: the graphs it encodes and the pairs
/// its batch is drawn from (see the [module docs](self)).
pub(crate) struct Block {
    /// Per-side subgraph inputs; `None` encodes the model's own
    /// whole-graph inputs, with no gather and no copy.
    graphs: Option<[GraphInputs; 2]>,
    /// Training pairs in the block's local row indices.
    pool: Vec<(usize, usize)>,
}

/// What one block step reports to its epoch.
#[derive(Clone, Copy)]
struct BlockStep {
    breakdown: LossBreakdown,
    trace: Option<EnergyTrace>,
    grad_norm: Option<f32>,
}

impl BlockStep {
    /// Fused (post-SA) energy of both graphs — the quantity Figure 3
    /// tracks and the watchdog vets.
    fn energy(&self) -> Option<f64> {
        self.trace.map(|t| (t.source[2] + t.target[2]) as f64)
    }

    /// The per-block mean of an epoch's steps; one step is returned bit
    /// for bit.
    fn mean(steps: &[BlockStep]) -> BlockStep {
        if let [only] = steps {
            return *only;
        }
        let nb = steps.len() as f32;
        let mean = |f: &dyn Fn(&BlockStep) -> f32| steps.iter().map(f).sum::<f32>() / nb;
        let b = |f: fn(&LossBreakdown) -> f32| mean(&|s: &BlockStep| f(&s.breakdown));
        let side = |f: fn(&EnergyTrace) -> [f32; 3]| -> [f32; 3] {
            std::array::from_fn(|i| mean(&|s: &BlockStep| s.trace.map_or(f32::NAN, |t| f(&t)[i])))
        };
        BlockStep {
            breakdown: LossBreakdown {
                total: b(|l| l.total),
                task0: b(|l| l.task0),
                taskk: b(|l| l.taskk),
                modal_k1: b(|l| l.modal_k1),
                modal_k: b(|l| l.modal_k),
                energy_penalty: b(|l| l.energy_penalty),
            },
            trace: steps[0].trace.map(|t| EnergyTrace { epoch: t.epoch, source: side(|t| t.source), target: side(|t| t.target) }),
            grad_norm: steps[0].grad_norm.map(|_| mean(&|s: &BlockStep| s.grad_norm.unwrap_or(f32::NAN))),
        }
    }
}

/// All mutable state of one training run, between epochs.
///
/// Produced by [`DesalignModel::begin_training`] (or a checkpoint
/// resume), advanced by [`DesalignModel::train_epochs`], consumed by
/// [`DesalignModel::end_training`]. Everything needed to continue the
/// exact trajectory lives either here or on the model (weights, RNG),
/// which is why a checkpoint of the pair is sufficient for bit-identical
/// resume.
pub struct TrainState {
    /// Training pool: gold seed pairs (post split) + pseudo pairs.
    pub(crate) pool: Vec<(usize, usize)>,
    /// The blocks every epoch steps through, rebuilt from `pool` on
    /// begin and resume (never checkpointed).
    pub(crate) blocks: Vec<Block>,
    /// Held-out validation pairs for early stopping.
    pub(crate) val_pairs: Vec<(usize, usize)>,
    pub(crate) opt: AdamW,
    pub(crate) next_epoch: usize,
    pub(crate) best_val: f32,
    pub(crate) best_snapshot: Option<Vec<Matrix>>,
    pub(crate) patience_left: usize,
    pub(crate) stopped: bool,
    pub(crate) rollbacks: u64,
    pub(crate) resumed_from: Option<usize>,
    pub(crate) report: TrainReport,
    pub(crate) good: Option<GoodState>,
}

impl TrainState {
    /// The next epoch index this state will run (equals the number of
    /// completed epochs).
    pub fn next_epoch(&self) -> usize {
        self.next_epoch
    }

    /// Watchdog rollbacks so far in this run.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// True once the run has finished (early stop, watchdog give-up, or
    /// all epochs done there is nothing left to run).
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// The accumulating report (read access for diagnostics).
    pub fn report(&self) -> &TrainReport {
        &self.report
    }
}

impl DesalignModel {
    /// Trains with the MMSL objective (Algorithm 1 lines 3–10). Calling
    /// `fit` again continues training (used by the iterative strategy).
    ///
    /// Equivalent to `begin_training` → `train_epochs(all)` →
    /// `end_training`; see the [module docs](self) for the split and for
    /// neighborhood-sampled blocks.
    pub fn fit(&mut self, dataset: &AlignmentDataset) -> TrainReport {
        let mut state = self.begin_training(dataset);
        self.train_epochs(&mut state, usize::MAX);
        self.end_training(state)
    }

    /// Phase 1: split seeds, build the pool, its blocks and the
    /// optimizer, return the loop state. Consumes the model RNG exactly
    /// like the start of the original monolithic `fit`.
    pub fn begin_training(&mut self, dataset: &AlignmentDataset) -> TrainState {
        // Register the reliability counters up front so metric reports
        // list them even for runs that never resume or roll back.
        desalign_telemetry::counter("train.resumes");
        desalign_telemetry::counter("train.rollbacks");
        let val_frac = if self.cfg.early_stop_patience > 0 { 0.1 } else { 0.0 };
        let (train_pairs, val_pairs) = train_val_split(&dataset.train_pairs, val_frac, &mut self.rng);
        let mut pool = train_pairs;
        pool.extend(self.pseudo_pairs.iter().copied());
        TrainState {
            blocks: self.training_blocks(dataset, &pool),
            pool,
            val_pairs,
            opt: AdamW::new(self.cfg.weight_decay),
            next_epoch: 0,
            best_val: 0.0,
            best_snapshot: None,
            patience_left: self.cfg.early_stop_patience,
            stopped: false,
            rollbacks: 0,
            resumed_from: None,
            report: TrainReport::default(),
            good: None,
        }
    }

    /// The blocks one epoch steps through (see the [module docs](self)):
    /// the whole graph, or one neighborhood-sampled block per
    /// source-entity range that holds pool pairs.
    pub(crate) fn training_blocks(&self, dataset: &AlignmentDataset, pool: &[(usize, usize)]) -> Vec<Block> {
        let s = self.cfg.sampled;
        if !s.enabled {
            return vec![Block { graphs: None, pool: pool.to_vec() }];
        }
        let (g_s, g_t) = (dataset.source.graph(), dataset.target.graph());
        let n_s = dataset.source.num_entities;
        let size = s.block_entities.max(1);
        let mut blocks = Vec::new();
        for k in 0..n_s.div_ceil(size) {
            let (lo, hi) = (k * size, ((k + 1) * size).min(n_s));
            let pairs: Vec<(usize, usize)> = pool.iter().copied().filter(|&(sg, _)| (lo..hi).contains(&sg)).collect();
            if pairs.is_empty() {
                continue; // a block with no pairs contributes no loss
            }
            let src_core: Vec<usize> = (lo..hi).collect();
            let mut tgt_core: Vec<usize> = pairs.iter().map(|&(_, tg)| tg).collect();
            tgt_core.sort_unstable();
            tgt_core.dedup();
            // Per-block, per-side seeds: every block draws an independent
            // but reproducible halo.
            let seed = self.seed ^ ((k as u64) << 1);
            let sub_s = sample_neighborhood(&g_s, &src_core, s.halo_per_node, seed);
            let sub_t = sample_neighborhood(&g_t, &tgt_core, s.halo_per_node, seed ^ 1);
            // Source cores are the ascending range, so local = global − lo;
            // target cores are sorted, so local = rank in the core.
            let pool = pairs
                .iter()
                .map(|&(sg, tg)| (sg - lo, tgt_core.binary_search(&tg).expect("pair target is in the core")))
                .collect();
            let graphs = [self.inputs[0].for_subgraph(&sub_s), self.inputs[1].for_subgraph(&sub_t)];
            blocks.push(Block { graphs: Some(graphs), pool });
        }
        if desalign_telemetry::enabled() {
            desalign_telemetry::counter("sampled.blocks").add(blocks.len() as u64);
        }
        blocks
    }

    /// Phase 2: runs up to `max_epochs` further epochs (bounded by the
    /// configured total), returning how many were completed. Stops early
    /// on patience exhaustion or watchdog give-up.
    pub fn train_epochs(&mut self, state: &mut TrainState, max_epochs: usize) -> usize {
        let _fit_span = desalign_telemetry::span("fit");
        let t0 = Instant::now();
        let schedule = CosineWarmup::new(self.cfg.lr, self.cfg.epochs, self.cfg.warmup_frac);
        let wd = self.cfg.watchdog;
        if state.pool.is_empty() || state.blocks.is_empty() {
            state.stopped = true;
        }
        let blocks = std::mem::take(&mut state.blocks);
        let mut ran = 0usize;
        while ran < max_epochs && state.next_epoch < self.cfg.epochs && !state.stopped {
            let epoch = state.next_epoch;
            if wd.enabled && (state.good.is_none() || epoch % wd.snapshot_every == 0) {
                self.capture_good(state);
            }
            let _epoch_span = desalign_telemetry::span("epoch");
            // Energy trace sampling (Section III instrumentation).
            let trace_epoch = self.cfg.eval_every > 0 && epoch % self.cfg.eval_every == 0;
            let mut steps = Vec::with_capacity(blocks.len());
            let mut tripped = false;
            for block in &blocks {
                let inputs = block.graphs.as_ref().unwrap_or(&self.inputs);
                let batch = {
                    let _span = desalign_telemetry::span("sample");
                    sample_batch(&block.pool, self.cfg.batch_size, &mut self.rng)
                };
                let mut sess = Session::with_workspace(&self.store, Rc::clone(&self.ws));
                let (enc_s, enc_t, loss, breakdown) = {
                    let _span = desalign_telemetry::span("forward");
                    let enc_s = self.encoder.forward(&mut sess, &inputs[0], 0);
                    let enc_t = self.encoder.forward(&mut sess, &inputs[1], 1);
                    let (loss, breakdown) =
                        mmsl_loss(&mut sess, &self.cfg, &enc_s, &enc_t, &batch, (&inputs[0].laplacian, &inputs[1].laplacian));
                    (enc_s, enc_t, loss, breakdown)
                };
                let trace = trace_epoch.then(|| {
                    let _span = desalign_telemetry::span("energy");
                    let energies = |side: &GraphInputs, enc: &EncodedGraph| {
                        [enc.h_ori, enc.h_fus_prev(), enc.h_fus()].map(|h| dirichlet_energy(&side.laplacian, sess.tape.value(h)))
                    };
                    EnergyTrace { epoch, source: energies(&inputs[0], &enc_s), target: energies(&inputs[1], &enc_t) }
                });

                let mut grads = {
                    let _span = desalign_telemetry::span("backward");
                    sess.backward(loss)
                };
                // Injected fault: poison the gradients exactly once per
                // scheduled epoch.
                if let Some(chaos) = self.chaos.as_mut() {
                    if let Some(pos) = chaos.nan_grad_epochs.iter().position(|&e| e == epoch) {
                        chaos.nan_grad_epochs.remove(pos);
                        grads.scale_all(f32::NAN);
                    }
                }
                // Read-only diagnostic; skipped entirely when neither
                // telemetry nor the watchdog needs it, so that path does no
                // extra float work.
                let grad_norm = if desalign_telemetry::enabled() || wd.enabled {
                    Some(grads.global_norm())
                } else {
                    None
                };
                let step = BlockStep { breakdown, trace, grad_norm };

                // Watchdog verdict: after backward, before the optimizer step
                // — the weights are still clean when an update is rejected.
                if wd.enabled {
                    let last_good = state.good.as_ref().map_or(f32::INFINITY, |g| g.last_loss);
                    let spike = breakdown.total.is_finite()
                        && last_good.is_finite()
                        && breakdown.total > wd.spike_factor * last_good.max(1e-6);
                    tripped = !breakdown.total.is_finite()
                        || grad_norm.is_some_and(|g| !g.is_finite())
                        || step.energy().is_some_and(|e| !e.is_finite())
                        || spike;
                    if tripped {
                        break;
                    }
                }

                {
                    let _span = desalign_telemetry::span("optimizer");
                    state.opt.step(&mut self.store, &mut grads, schedule.lr(epoch));
                }
                steps.push(step);
            }
            if tripped {
                self.rollback(state);
                if state.rollbacks > wd.max_rollbacks as u64 {
                    state.stopped = true;
                }
                continue;
            }

            let epoch_step = BlockStep::mean(&steps);
            let breakdown = epoch_step.breakdown;
            if let Some(trace) = epoch_step.trace {
                self.energy_traces.push(trace);
                state.report.energy_history.push(trace);
            }
            state.report.loss_history.push(breakdown);
            state.report.epochs_run = epoch + 1;

            // Early stopping on the held-out seed split.
            let mut epoch_eval = None;
            if !state.val_pairs.is_empty() && self.cfg.eval_every > 0 && (epoch + 1) % self.cfg.eval_every == 0 {
                let _span = desalign_telemetry::span("eval");
                let metrics = self.evaluate_pairs(&state.val_pairs);
                epoch_eval = Some(desalign_telemetry::EvalSnapshot {
                    hits_at_1: metrics.hits_at_1,
                    hits_at_10: metrics.hits_at_10,
                    mrr: metrics.mrr,
                });
                if metrics.hits_at_1 > state.best_val {
                    state.best_val = metrics.hits_at_1;
                    state.best_snapshot = Some(self.store.snapshot());
                    state.patience_left = self.cfg.early_stop_patience;
                } else if self.cfg.early_stop_patience > 0 {
                    state.patience_left -= 1;
                    if state.patience_left == 0 {
                        state.stopped = true;
                    }
                }
            }

            if desalign_telemetry::enabled() {
                let record = desalign_telemetry::EpochRecord {
                    epoch,
                    loss_total: breakdown.total,
                    loss_task0: breakdown.task0,
                    loss_taskk: breakdown.taskk,
                    loss_modal_k1: breakdown.modal_k1,
                    loss_modal_k: breakdown.modal_k,
                    energy_penalty: breakdown.energy_penalty,
                    dirichlet_energy: epoch_step.energy(),
                    lr: schedule.lr(epoch),
                    grad_norm: epoch_step.grad_norm,
                    sp_iterations: if self.cfg.ablation.use_semantic_propagation {
                        self.cfg.sp_iterations
                    } else {
                        0
                    },
                    eval: epoch_eval,
                    resumed_from: state.resumed_from.take(),
                    rollbacks: state.rollbacks,
                };
                desalign_telemetry::emit(&record.to_json());
            }
            state.next_epoch = epoch + 1;
            ran += 1;
        }
        state.blocks = blocks;
        state.report.seconds += t0.elapsed().as_secs_f64();
        ran
    }

    /// Phase 3: restores the best early-stop snapshot (when one was
    /// taken) and returns the finished report.
    pub fn end_training(&mut self, mut state: TrainState) -> TrainReport {
        if let Some(snap) = state.best_snapshot.take() {
            self.store.restore(&snap);
        }
        state.report.best_val_h1 = state.best_val;
        state.report.rollbacks = state.rollbacks;
        state.report.final_loss = state.report.loss_history.last().copied().unwrap_or_default();
        state.report
    }

    /// Arms a fault-injection plan for the next `fit`/`train_epochs`
    /// (resilience tests; see [`ChaosPlan`]).
    pub fn set_chaos(&mut self, plan: ChaosPlan) {
        self.chaos = Some(plan);
    }

    /// Simulates losing `modality` for a deterministic `frac` of `side`'s
    /// entities mid-run: feature rows are zeroed and the presence masks
    /// (used by Semantic Propagation and the consistency boundary) are
    /// cleared, exactly as if the raw data had arrived incomplete.
    /// Returns the number of entities affected.
    ///
    /// Uses its own seeded stream, not the model RNG, so injecting the
    /// fault does not disturb the training trajectory up to that point.
    ///
    /// # Panics
    /// Panics for [`Modality::Structure`](crate::encoder::Modality) —
    /// the graph itself cannot go missing.
    pub fn inject_modality_dropout(&mut self, side: usize, modality: crate::encoder::Modality, frac: f32, seed: u64) -> usize {
        use crate::encoder::Modality;
        assert!(modality != Modality::Structure, "inject_modality_dropout: the structure modality cannot drop out");
        let input = &mut self.inputs[side];
        let n = input.n;
        let mut rng = rng_from_seed(seed);
        let k = ((n as f32) * frac.clamp(0.0, 1.0)).round() as usize;
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        idx.truncate(k);
        for &e in &idx {
            let (filled, raw, mask) = match modality {
                Modality::Relation => (&mut input.relation, &mut input.features.relation, &mut input.features.has_relation),
                Modality::Text => (&mut input.attribute, &mut input.features.attribute, &mut input.features.has_attribute),
                Modality::Visual => (&mut input.visual, &mut input.features.visual, &mut input.features.has_visual),
                Modality::Structure => unreachable!(),
            };
            for m in [filled, raw] {
                let cols = m.cols();
                m.as_mut_slice()[e * cols..(e + 1) * cols].fill(0.0);
            }
            mask[e] = false;
        }
        self.known[side] = crate::propagate::consistency_mask(&input.features);
        k
    }

    /// Captures the rollback snapshot at the current epoch boundary.
    fn capture_good(&self, state: &mut TrainState) {
        state.good = Some(GoodState {
            next_epoch: state.next_epoch,
            params: self.store.snapshot(),
            opt: state.opt.clone(),
            rng: self.rng.state(),
            best_val: state.best_val,
            best_snapshot: state.best_snapshot.clone(),
            patience_left: state.patience_left,
            loss_len: state.report.loss_history.len(),
            energy_len: state.report.energy_history.len(),
            traces_len: self.energy_traces.len(),
            last_loss: state.report.loss_history.last().map_or(f32::INFINITY, |b| b.total),
        });
    }

    /// Restores the last good snapshot and perturbs the sampling stream.
    fn rollback(&mut self, state: &mut TrainState) {
        let good = state.good.as_ref().expect("watchdog rollback without a snapshot");
        self.store.restore(&good.params);
        state.opt = good.opt.clone();
        state.best_val = good.best_val;
        state.best_snapshot = good.best_snapshot.clone();
        state.patience_left = good.patience_left;
        state.report.loss_history.truncate(good.loss_len);
        state.report.energy_history.truncate(good.energy_len);
        state.report.epochs_run = good.next_epoch;
        self.energy_traces.truncate(good.traces_len);
        state.next_epoch = good.next_epoch;
        state.rollbacks += 1;
        // Deterministic perturbation: replay from the snapshot's RNG
        // state advanced by the rollback count, so a data-driven fault
        // (a pathological batch) is not redrawn verbatim, yet the whole
        // recovery stays a pure function of (state, fault).
        let mut rng = Rng64::from_state(good.rng);
        for _ in 0..state.rollbacks {
            rng.next_u64();
        }
        self.rng = rng;
        desalign_telemetry::counter("train.rollbacks").incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesalignConfig;
    use crate::encoder::Modality;
    use desalign_mmkg::{DatasetSpec, SynthConfig};

    fn tiny_cfg() -> DesalignConfig {
        let mut cfg = DesalignConfig::fast();
        cfg.hidden_dim = 16;
        cfg.feature_dims = desalign_mmkg::FeatureDims { relation: 32, attribute: 32, visual: 64 };
        cfg.epochs = 8;
        cfg.batch_size = 64;
        cfg
    }

    fn sampled_cfg() -> DesalignConfig {
        let mut cfg = DesalignConfig::fast();
        cfg.hidden_dim = 16;
        cfg.feature_dims = desalign_mmkg::FeatureDims { relation: 32, attribute: 32, visual: 64 };
        cfg.epochs = 6;
        cfg.sampled.enabled = true;
        cfg.sampled.block_entities = 40;
        cfg.sampled.halo_per_node = 4;
        cfg
    }

    /// The full-graph config, and the same config trained in sampled
    /// blocks.
    fn full_and_sampled() -> [DesalignConfig; 2] {
        let mut sampled = tiny_cfg();
        sampled.sampled = sampled_cfg().sampled;
        [tiny_cfg(), sampled]
    }

    #[test]
    fn phased_training_equals_fit() {
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(31);
        let fingerprint = |m: &DesalignModel| -> Vec<u32> {
            m.params().ids().flat_map(|id| m.params().value(id).as_slice().iter().map(|x| x.to_bits())).collect()
        };
        for cfg in full_and_sampled() {
            let mut straight = DesalignModel::new(cfg.clone(), &ds, 9);
            straight.fit(&ds);
            let mut phased = DesalignModel::new(cfg.clone(), &ds, 9);
            let mut state = phased.begin_training(&ds);
            // Arbitrary uneven chunks: 3 + 1 + rest.
            phased.train_epochs(&mut state, 3);
            phased.train_epochs(&mut state, 1);
            phased.train_epochs(&mut state, usize::MAX);
            phased.end_training(state);
            assert_eq!(
                fingerprint(&straight),
                fingerprint(&phased),
                "chunked train_epochs diverged from fit (sampled: {})",
                cfg.sampled.enabled
            );
        }
    }

    #[test]
    fn nan_gradients_trigger_rollback_and_recovery() {
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(32);
        for cfg in full_and_sampled() {
            let mut model = DesalignModel::new(cfg, &ds, 41);
            model.set_chaos(ChaosPlan { nan_grad_epochs: vec![3] });
            let mut state = model.begin_training(&ds);
            model.train_epochs(&mut state, usize::MAX);
            assert_eq!(state.rollbacks(), 1, "one injected NaN epoch must cause exactly one rollback");
            let report = model.end_training(state);
            assert_eq!(report.epochs_run, 8, "run recovers and completes");
            assert!(report.loss_history.iter().all(|b| b.total.is_finite()), "no NaN epoch may reach the report");
            for id in model.params().ids() {
                assert!(model.params().value(id).as_slice().iter().all(|x| x.is_finite()), "weights stayed clean");
            }
        }
    }

    #[test]
    fn watchdog_gives_up_after_max_rollbacks() {
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(33);
        let mut cfg = tiny_cfg();
        cfg.watchdog.max_rollbacks = 2;
        let mut model = DesalignModel::new(cfg, &ds, 43);
        // More injected faults than the budget allows.
        model.set_chaos(ChaosPlan { nan_grad_epochs: vec![0, 1, 2, 3, 4] });
        let mut state = model.begin_training(&ds);
        model.train_epochs(&mut state, usize::MAX);
        assert!(state.stopped(), "run must stop after exhausting the rollback budget");
        assert_eq!(state.rollbacks(), 3, "budget of 2 means the 3rd rollback gives up");
        for id in model.params().ids() {
            assert!(model.params().value(id).as_slice().iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn disabled_watchdog_lets_nan_through() {
        // Negative control: the rollback machinery really is what keeps
        // the weights finite. The fault goes into the final epoch — the
        // autodiff tape (rightly) refuses to forward NaN weights, so a
        // mid-run fault without the watchdog would panic, not limp on.
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(34);
        let mut cfg = tiny_cfg();
        cfg.watchdog.enabled = false;
        let mut model = DesalignModel::new(cfg, &ds, 47);
        model.set_chaos(ChaosPlan { nan_grad_epochs: vec![7] });
        model.fit(&ds);
        let poisoned = model
            .params()
            .ids()
            .any(|id| model.params().value(id).as_slice().iter().any(|x| !x.is_finite()));
        assert!(poisoned, "without the watchdog the NaN update corrupts the weights");
    }

    #[test]
    fn modality_dropout_survives_training() {
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(35);
        let mut model = DesalignModel::new(tiny_cfg(), &ds, 53);
        let mut state = model.begin_training(&ds);
        model.train_epochs(&mut state, 4);
        let dropped = model.inject_modality_dropout(0, Modality::Visual, 0.5, 99);
        assert!(dropped > 0);
        model.train_epochs(&mut state, usize::MAX);
        assert_eq!(state.rollbacks(), 0, "dropout is degraded data, not divergence");
        let report = model.end_training(state);
        assert_eq!(report.epochs_run, 8);
        assert!(report.loss_history.iter().all(|b| b.total.is_finite()));
        let metrics = model.evaluate(&ds);
        assert!(metrics.hits_at_1.is_finite());
    }

    #[test]
    fn dropout_is_deterministic_and_updates_masks() {
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(36);
        let run = || {
            let mut m = DesalignModel::new(tiny_cfg(), &ds, 57);
            let k = m.inject_modality_dropout(1, Modality::Text, 0.3, 7);
            (k, m.inputs[1].features.has_attribute.clone())
        };
        let (k1, mask1) = run();
        let (k2, mask2) = run();
        assert_eq!((k1, &mask1), (k2, &mask2));
        assert!(mask1.iter().filter(|&&b| !b).count() >= k1);
    }

    #[test]
    fn sampled_training_produces_finite_decreasing_loss() {
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(100).generate(1);
        let mut model = DesalignModel::new(sampled_cfg(), &ds, 7);
        let report = model.fit(&ds);
        assert_eq!(report.epochs_run, 6);
        assert!(report.loss_history.iter().all(|b| b.total.is_finite()), "sampled losses must stay finite");
        assert!(
            report.final_loss.total < report.loss_history[0].total,
            "loss should decrease: {:?}",
            report.loss_history.iter().map(|b| b.total).collect::<Vec<_>>()
        );
        // The trained model still evaluates through the full-graph path.
        let metrics = model.evaluate(&ds);
        assert!(metrics.num_queries > 0);
        assert!(metrics.mrr.is_finite());
    }

    #[test]
    fn sampled_training_is_deterministic() {
        let ds = SynthConfig::preset(DatasetSpec::FbYg15k).scaled(80).generate(3);
        let run = || {
            let mut model = DesalignModel::new(sampled_cfg(), &ds, 11);
            let report = model.fit(&ds);
            let fp: Vec<u32> = model
                .params()
                .ids()
                .flat_map(|id| model.params().value(id).as_slice().iter().map(|x| x.to_bits()))
                .collect();
            (report.final_loss.total.to_bits(), fp)
        };
        assert_eq!(run(), run(), "same seed must give a bit-identical sampled trajectory");
    }

    #[test]
    fn sampled_training_beats_untrained() {
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(100).generate(2);
        let mut cfg = sampled_cfg();
        cfg.epochs = 25;
        let mut trained = DesalignModel::new(cfg.clone(), &ds, 3);
        let untrained = DesalignModel::new(cfg, &ds, 3);
        trained.fit(&ds);
        let m_trained = trained.evaluate(&ds);
        let m_untrained = untrained.evaluate(&ds);
        assert!(
            m_trained.mrr > m_untrained.mrr,
            "sampled training should help: {} vs {}",
            m_trained.mrr,
            m_untrained.mrr
        );
    }

    #[test]
    fn disabled_switch_keeps_full_graph_path_byte_stable() {
        // `fit` with sampled.enabled = false must be the historical
        // trajectory — construct two models with configs differing only
        // in the (inert) sampled knobs and check identical weights.
        let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(4);
        let mut cfg_a = sampled_cfg();
        cfg_a.sampled.enabled = false;
        let mut cfg_b = cfg_a.clone();
        cfg_b.sampled.block_entities = 7; // inert while disabled
        cfg_b.sampled.halo_per_node = 1;
        let fp = |cfg: DesalignConfig| {
            let mut m = DesalignModel::new(cfg, &ds, 9);
            m.fit(&ds);
            m.params()
                .ids()
                .flat_map(|id| m.params().value(id).as_slice().iter().map(|x| x.to_bits()))
                .collect::<Vec<u32>>()
        };
        assert_eq!(fp(cfg_a), fp(cfg_b));
    }
}
