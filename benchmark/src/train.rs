//! `train`: the §V-E efficiency run — FB15K-DB15K at scale 400 with
//! `DesalignConfig::fast()` (d = 64, 60 epochs), driven as
//! `begin_training`, 60 × `train_epochs(…, 1)`, `end_training`,
//! `evaluate`. Tensor, graph, autodiff, nn and the trainer do the work;
//! the serving path and the eval index do none.

use crate::{again, median_by, stats, timed, trace, HostSpeed, Options, Recorder, Sample, MIN_REPEAT_S};
use desalign_core::{config_digest, dataset_digest, DesalignConfig, DesalignModel, TrainState};
use desalign_eval::AlignmentMetrics;
use desalign_mmkg::{AlignmentDataset, DatasetSpec, SynthConfig};
use desalign_telemetry::{counter, span, span_report, SpanNode};
use std::time::Instant;

/// Dataset and model seed of the run (the experiment harness default).
/// Fixed, so the trained model — and `quality` — is the same on every
/// workload seed.
pub const TRAIN_SEED: u64 = 17;

struct Setup {
    ds: AlignmentDataset,
    model: DesalignModel,
    state: TrainState,
    synth_s: f64,
    init_s: f64,
}

fn config(epochs: usize) -> DesalignConfig {
    let mut cfg = DesalignConfig::fast();
    cfg.epochs = epochs;
    cfg
}

fn setup(opts: &Options) -> Setup {
    let (ds, synth) = timed("bench.synth", || {
        SynthConfig::preset(DatasetSpec::FbDb15k).scaled(opts.sizes.train_scale).generate(TRAIN_SEED)
    });
    let (mut model, init) =
        timed("bench.model_init", || DesalignModel::new(config(opts.sizes.train_epochs), &ds, TRAIN_SEED));
    let (state, _) = timed("bench.begin_training", || model.begin_training(&ds));
    Setup { ds, model, state, synth_s: synth.wall_s, init_s: init.wall_s }
}

struct Trained {
    ds: AlignmentDataset,
    model: DesalignModel,
    epochs: Vec<Sample>,
    /// The epochs, `end_training` and the final `evaluate`.
    training: Sample,
    evaluate_s: f64,
    /// Bits of the test H@1 and MRR: equal across runs, repeats and
    /// telemetry settings, or the run is not correct.
    fingerprint: String,
    h1: f32,
}

/// The timed phase: every epoch as its own call, then `end_training` and
/// the final `evaluate`, each measured between host speed probes.
fn train(mut s: Setup, speed: &mut HostSpeed, rec: &mut Recorder) -> Trained {
    let epochs = s.model.config().epochs;
    let mut epoch_samples = Vec::with_capacity(epochs);
    {
        let _span = span("bench.train");
        for _ in 0..epochs {
            let (ran, sample) = speed.measure("bench.train_epochs", || s.model.train_epochs(&mut s.state, 1));
            epoch_samples.push(sample);
            rec.ops(1, u64::from(ran != 1));
            if ran != 1 {
                rec.note(format!("train_epochs ran {ran} epochs, expected 1"));
            }
        }
    }
    let ((), end) = speed.measure("bench.end_training", || {
        s.model.end_training(s.state);
    });
    let (metrics, evaluate) = speed.measure("bench.evaluate", || s.model.evaluate(&s.ds));
    rec.ops(1, 0);
    Trained {
        ds: s.ds,
        model: s.model,
        training: epoch_samples.iter().fold(end + evaluate, |sum, &e| sum + e),
        epochs: epoch_samples,
        evaluate_s: evaluate.wall_s,
        fingerprint: fingerprint(&metrics),
        h1: metrics.hits_at_1,
    }
}

fn fingerprint(m: &AlignmentMetrics) -> String {
    format!("{:08x}-{:08x}", m.hits_at_1.to_bits(), m.mrr.to_bits())
}

/// Checks H@1 and MRR against the bits recorded by earlier runs of the same
/// configuration and dataset in `workdir`, recording them on first sight.
fn check_across_runs(opts: &Options, t: &Trained, rec: &mut Recorder) {
    let key = format!("train-h1-mrr-{:016x}-{:016x}", config_digest(t.model.config()), dataset_digest(&t.ds));
    let path = opts.workdir.join(key);
    let bits = t.fingerprint.as_str();
    match std::fs::read_to_string(&path) {
        Ok(seen) => rec.check(seen.trim() == bits, || {
            format!("H@1/MRR bits {bits} differ from {} recorded by an earlier run", seen.trim())
        }),
        Err(_) => {
            let written = std::fs::create_dir_all(&opts.workdir).and_then(|()| std::fs::write(&path, bits));
            rec.check(written.is_ok(), || format!("cannot record H@1 at {}", path.display()));
        }
    }
}

/// Runs the workload into `rec`.
pub fn run(opts: &Options, rec: &mut Recorder) {
    let mut speed = HostSpeed::default();
    let since = Instant::now();
    let (mut setups, mut synth, mut init) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while again(setups.len(), opts.sizes.setup_reps, MIN_REPEAT_S, since) {
        let (s, sample) = speed.measure("bench.setup", || setup(opts));
        setups.push(sample);
        synth.push(s.synth_s);
        init.push(s.init_s);
        last = Some(s);
    }
    let last = last.expect("at least one set-up");

    if opts.trace {
        // The untraced baseline for telemetry.overhead_pct, trained from an
        // identical set-up; telemetry must not move a bit of the result.
        desalign_telemetry::set_enabled(Some(false));
        let baseline = train(setup(opts), &mut speed, rec);
        desalign_telemetry::set_enabled(Some(true));
        let before = Snapshot::take();
        let traced = train(last, &mut speed, rec);
        rec.check(traced.fingerprint == baseline.fingerprint, || {
            format!("H@1/MRR bits {} with telemetry on != {} with it off", traced.fingerprint, baseline.fingerprint)
        });
        per_layer(rec, &before, &Snapshot::take(), &traced);
        rec.set("mmkg.synth_s", stats::median(&synth));
        rec.set("core.model_init_s", stats::median(&init));
        rec.set(
            "telemetry.overhead_pct",
            100.0 * (traced.training.wall_s - baseline.training.wall_s) / baseline.training.wall_s,
        );
        check_across_runs(opts, &traced, rec);
        rec.layers(trace::layer_rows(&span_report()));
        return;
    }

    // Whole trainings, each from a fresh set-up, for `--seconds` (at least
    // two); every one must reach the first one's H@1 and MRR bits.
    let since = Instant::now();
    let first = train(last, &mut speed, rec);
    check_across_runs(opts, &first, rec);
    let mut epochs = first.epochs.clone();
    let mut trainings = vec![first.training];
    while trainings.len() < 2 || since.elapsed().as_secs_f64() < opts.seconds {
        let t = train(setup(opts), &mut speed, rec);
        rec.check(t.fingerprint == first.fingerprint, || {
            format!(
                "training {} H@1/MRR bits {} != the first's {}",
                trainings.len() + 1,
                t.fingerprint,
                first.fingerprint
            )
        });
        epochs.extend(t.epochs);
        trainings.push(t.training);
    }
    let epoch_wall: Vec<f64> = epochs.iter().map(|t| t.wall_s).collect();
    rec.cpu("setup_s", median_by(&setups, |s| s.scaled_cpu_s), median_by(&setups, |s| s.cpu_s));
    rec.fact_num("setup_wall_s", median_by(&setups, |s| s.wall_s));
    rec.cpu("build_cpu_s", median_by(&trainings, |t| t.scaled_cpu_s), median_by(&trainings, |t| t.cpu_s));
    rec.cpu("op_cpu_ms", 1e3 * median_by(&epochs, |e| e.scaled_cpu_s), 1e3 * median_by(&epochs, |e| e.cpu_s));
    rec.set("quality", f64::from(first.h1));
    rec.speed_facts(&speed);
    rec.fact_num("trainings", trainings.len() as f64);
    rec.fact_num("train_wall_s", median_by(&trainings, |t| t.wall_s));
    rec.fact_num("epoch_wall_p50_ms", 1e3 * stats::median(&epoch_wall));
    rec.fact_num("epoch_wall_tail_ms", 1e3 * stats::tail(&epoch_wall));
    rec.fact_num("epoch_wall_tail_percentile", 100.0 * stats::tail_q(epoch_wall.len()));
}

/// The span forest and the pool and tape counters at one instant.
struct Snapshot {
    spans: Vec<SpanNode>,
    /// `pool.jobs`, `pool.helped`, `pool.inline_jobs`, `tape.ws_fresh`,
    /// `tape.ws_reused`.
    counters: [u64; 5],
}

impl Snapshot {
    fn take() -> Snapshot {
        Snapshot {
            spans: span_report(),
            counters: ["pool.jobs", "pool.helped", "pool.inline_jobs", "tape.ws_fresh", "tape.ws_reused"]
                .map(|n| counter(n).get()),
        }
    }
}

/// Per-epoch layer numbers of the traced training between two snapshots.
fn per_layer(rec: &mut Recorder, before: &Snapshot, after: &Snapshot, t: &Trained) {
    let epochs = t.epochs.len() as f64;
    let per_epoch_ms = |names: &[&str]| {
        1e3 * (trace::total_named_s(&after.spans, names) - trace::total_named_s(&before.spans, names)) / epochs
    };
    let epoch_path = "bench.train/bench.train_epochs/fit/epoch";
    let phase_ms = |phase: &str| {
        let path = format!("{epoch_path}/{phase}");
        1e3 * (trace::total_s(&after.spans, &path) - trace::total_s(&before.spans, &path)) / epochs
    };
    let epoch_self = |s: &Snapshot| trace::find(&s.spans, epoch_path).map_or(0.0, trace::self_s);
    let per_epoch = |i: usize| (after.counters[i] - before.counters[i]) as f64 / epochs;
    rec.set("core.trainer.sample_ms", phase_ms("sample"));
    rec.set("core.trainer.forward_ms", phase_ms("forward"));
    rec.set("core.trainer.energy_ms", phase_ms("energy"));
    rec.set("core.trainer.backward_ms", phase_ms("backward"));
    rec.set("core.trainer.optimizer_ms", phase_ms("optimizer"));
    rec.set("core.trainer.unaccounted_ms", 1e3 * (epoch_self(after) - epoch_self(before)) / epochs);
    rec.set("tensor.matmul_ms", per_epoch_ms(&["matmul", "matmul_tn", "matmul_nt"]));
    rec.set("graph.spmm_ms", per_epoch_ms(&["spmm", "spmm_t", "spmv"]));
    rec.set("graph.energy_ms", per_epoch_ms(&["dirichlet_energy"]));
    rec.set("parallel.jobs", per_epoch(0));
    rec.set("parallel.helped", per_epoch(1));
    rec.set("parallel.inline_jobs", per_epoch(2));
    rec.set("autodiff.ws_fresh", per_epoch(3));
    rec.set("autodiff.ws_reused", per_epoch(4));
    rec.set("eval.evaluate_s", t.evaluate_s);
}
