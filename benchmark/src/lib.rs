//! The DESAlign benchmark: two workloads — `train` and `serve` — driven
//! through the workspace's public APIs only, from one process per
//! workload. See `README.md` in this directory for the
//! workloads, the metric table and the layer map.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions. End-to-end metrics come from a run with telemetry off; a
//! traced run switches the program's existing telemetry on, reads the
//! spans and counters that are already there, and reports per-layer
//! numbers with an explicit `unaccounted` entry under every parent.

#![deny(unsafe_code)]

mod host;
mod serve;
mod speed;
mod stats;
pub mod trace;
mod train;

use desalign_util::Json;
use speed::{HostSpeed, Sample};
use std::path::PathBuf;
use std::time::Instant;

/// The `desalign-parallel` pool size every workload pins. Equal to the
/// reference host's `nproc`, so load threads plus pool never exceed it by
/// design; the value is recorded with every run.
pub(crate) const POOL_THREADS: usize = 2;

/// End-to-end metrics, `(name, unit)`: every workload reports all of them
/// from a run with telemetry off. Per-workload meanings are in README.md.
///
/// Every time is process CPU time, all threads, scaled by the host speed
/// probe (see `speed`): on a shared host, time other tenants take from our
/// vCPUs (steal) stretched wall times of identical runs by up to a third,
/// and CPU time does not count it. Wall times are printed as facts beside
/// the result.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("build_cpu_s", "s"), ("op_cpu_ms", "ms"), ("quality", "fraction"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, `(name, unit)`, reported by every traced run. A layer
/// a workload never enters reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mmkg.synth_s", "s"),
    ("core.model_init_s", "s"),
    ("core.trainer.sample_ms", "ms"),
    ("core.trainer.forward_ms", "ms"),
    ("core.trainer.energy_ms", "ms"),
    ("core.trainer.backward_ms", "ms"),
    ("core.trainer.optimizer_ms", "ms"),
    ("core.trainer.unaccounted_ms", "ms"),
    ("tensor.matmul_ms", "ms"),
    ("graph.spmm_ms", "ms"),
    ("graph.energy_ms", "ms"),
    ("autodiff.ws_fresh", "count"),
    ("autodiff.ws_reused", "count"),
    ("eval.evaluate_s", "s"),
    ("core.checkpoint_load_s", "s"),
    ("core.sp_precompute_s", "s"),
    ("eval.ivf_build_s", "s"),
    ("eval.exact_build_s", "s"),
    ("eval.search_us", "us"),
    ("eval.exact_search_us", "us"),
    ("eval.candidates_per_query", "count"),
    ("eval.scanned_fraction", "fraction"),
    ("serve.request_us_p50", "us"),
    ("serve.request_us_p99", "us"),
    ("serve.align_us_p50", "us"),
    ("serve.align_us_p99", "us"),
    ("serve.wait_us", "us"),
    ("serve.client_us", "us"),
    ("serve.batch_mean", "count"),
    ("serve.cache_hit_ratio", "fraction"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.errors", "count"),
    ("serve.breaker_open", "count"),
    ("serve.degraded_answers", "count"),
    ("loadgen.late_us_p99", "us"),
    ("parallel.jobs", "count"),
    ("parallel.helped", "count"),
    ("parallel.inline_jobs", "count"),
    ("telemetry.overhead_pct", "%"),
];

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The §V-E training run: FB15K-DB15K at scale 400, `DesalignConfig::fast()`.
    Train,
    /// Cold start plus an open- and a closed-loop `POST /v1/align` stream.
    Serve,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "train" => Some(Workload::Train),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// The workload's name as `--workload` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::Serve => "serve",
        }
    }
}

/// Input sizes. [`Sizes::FULL`] is what the command runs; the smoke tests
/// shrink it.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Minimum set-up repetitions (they also run for at least
    /// [`MIN_REPEAT_S`]); `setup_s` is their median.
    pub setup_reps: usize,
    /// Train: preset scale (entities on the larger side).
    pub train_scale: usize,
    /// Train: epochs, each its own `train_epochs(…, 1)` call.
    pub train_epochs: usize,
    /// Serve: preset scale of the served checkpoint.
    pub serve_scale: usize,
    /// Serve: epochs the fixture checkpoint is trained for.
    pub serve_fixture_epochs: usize,
    /// Serve: open-loop offered rate, requests per second.
    pub serve_rate: f64,
}

impl Sizes {
    /// The sizes the benchmark command runs.
    pub const FULL: Sizes = Sizes {
        setup_reps: 3,
        train_scale: 400,
        train_epochs: 60,
        serve_scale: 2000,
        serve_fixture_epochs: 3,
        serve_rate: 400.0,
    };
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: drives the serve request stream, never the trained
    /// models, so `quality` is the same on every seed.
    pub seed: u64,
    /// How long the time-boxed phases measure, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for checkpoints and the cross-run H@1 record.
    pub workdir: PathBuf,
    /// Input sizes.
    pub sizes: Sizes,
}

/// One row of the traced run's per-layer table.
#[derive(Clone, Debug)]
pub struct LayerRow {
    /// Full span path; an `unaccounted` row is `<parent>/unaccounted`.
    pub path: String,
    /// Calls recorded (0 for `unaccounted` rows).
    pub calls: u64,
    /// Total seconds across calls (all threads).
    pub total_s: f64,
    /// Self seconds: total minus the children's totals. For an
    /// `unaccounted` row this is the parent's self time.
    pub self_s: f64,
}

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (errors and output mismatches).
    pub failed: u64,
    /// `(name, value, unit)` — the end-to-end set, or the per-layer set on
    /// a traced run.
    pub metrics: Vec<(String, f64, String)>,
    /// The per-layer span table (traced runs only).
    pub layers: Vec<LayerRow>,
    /// Facts about the run and host, printed beside the result.
    pub facts: Vec<(String, Json)>,
}

impl Report {
    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Object(vec![("value".into(), number(*value)), ("unit".into(), Json::Str(unit.clone()))]),
                )
            })
            .collect();
        Json::Object(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Object(metrics)),
        ])
    }
}

/// A JSON number, or `null` for a non-finite value (which JSON cannot
/// hold; such a run is never `correct`).
pub(crate) fn number(value: f64) -> Json {
    if value.is_finite() {
        Json::Num(value)
    } else {
        Json::Null
    }
}

/// Collects a workload's measurements and turns them into a [`Report`]
/// holding exactly the metric set of its run kind.
#[derive(Default)]
pub(crate) struct Recorder {
    values: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    /// Why operations failed: the first few descriptions.
    mismatches: Vec<String>,
    facts: Vec<(String, Json)>,
    layers: Vec<LayerRow>,
}

impl Recorder {
    /// Records metric `name` (must be in [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name), "unknown metric {name}");
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Records CPU-time metric `name` from its value scaled by the host
    /// speed probe; the unscaled value goes to the facts as
    /// `<name>.unscaled`.
    pub fn cpu(&mut self, name: &'static str, scaled: f64, unscaled: f64) {
        self.set(name, scaled);
        self.fact_num(&format!("{name}.unscaled"), unscaled);
    }

    /// Records the host speed probe's facts.
    pub fn speed_facts(&mut self, speed: &HostSpeed) {
        self.fact_num("probe_median_ms", 1e3 * speed.median_s());
        self.fact_num("probes", speed.samples() as f64);
    }

    /// Counts `n` attempted operations, `failed` of which failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records one output check as one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    /// Notes why an already counted failed operation failed.
    pub fn note(&mut self, what: String) {
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }

    /// Records a fact about the run, printed beside the result.
    pub fn fact(&mut self, name: &str, value: Json) {
        self.facts.push((name.to_string(), value));
    }

    /// Records a numeric fact (see [`number`]).
    pub fn fact_num(&mut self, name: &str, value: f64) {
        self.fact(name, number(value));
    }

    /// Stores the per-layer span table.
    pub fn layers(&mut self, rows: Vec<LayerRow>) {
        self.layers = rows;
    }

    fn finish(self, trace: bool) -> Report {
        let set = if trace { PER_LAYER } else { END_TO_END };
        let mut missing = Vec::new();
        let metrics = set
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.iter().find(|(n, _)| *n == name) {
                    Some(&(_, v)) => v,
                    // A layer the workload never enters reports 0; every
                    // end-to-end metric must be measured.
                    None if trace => 0.0,
                    None => {
                        missing.push(name);
                        f64::NAN
                    }
                };
                (name.to_string(), value, unit.to_string())
            })
            .collect::<Vec<_>>();
        let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
        let mut facts = self.facts;
        if !self.mismatches.is_empty() {
            facts.push(("mismatches".into(), Json::Array(self.mismatches.into_iter().map(Json::Str).collect())));
        }
        if !missing.is_empty() {
            facts.push((
                "missing_metrics".into(),
                Json::Array(missing.iter().map(|m| Json::Str(m.to_string())).collect()),
            ));
        }
        Report {
            correct: self.failed == 0 && missing.is_empty() && finite,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
            layers: self.layers,
            facts,
        }
    }
}

/// Runs one workload and returns its report. Pins the pool size, forces
/// telemetry off for the untraced parts, and records the host facts.
pub fn run(opts: &Options) -> Report {
    settle_allocator();
    desalign_parallel::set_thread_override(Some(POOL_THREADS));
    desalign_telemetry::set_enabled(Some(opts.trace));
    desalign_telemetry::reset_spans();
    desalign_telemetry::reset_metrics();
    let steal0 = host::steal_seconds();
    let wall = Instant::now();
    let mut rec = Recorder::default();
    match opts.workload {
        Workload::Train => train::run(opts, &mut rec),
        Workload::Serve => serve::run(opts, &mut rec),
    }
    if !opts.trace {
        rec.set("peak_rss_mb", host::peak_rss_mib());
    }
    rec.fact("workload", Json::Str(opts.workload.name().into()));
    rec.fact_num("seed", opts.seed as f64);
    rec.fact_num("seconds", opts.seconds);
    rec.fact("trace", Json::Bool(opts.trace));
    rec.fact_num("nproc", host::nproc() as f64);
    rec.fact_num("pool_threads", desalign_parallel::current_threads() as f64);
    rec.fact("cpu_model", Json::Str(host::cpu_model()));
    rec.fact("git_rev", Json::Str(host::git_rev()));
    rec.fact_num("run_wall_s", wall.elapsed().as_secs_f64());
    rec.fact_num("host_steal_s", host::steal_seconds() - steal0);
    desalign_telemetry::set_enabled(Some(false));
    rec.finish(opts.trace)
}

/// Maps and frees one large block before anything is measured.
///
/// glibc malloc raises its mmap threshold whenever it frees a mapped block,
/// so which large buffers a process later maps afresh, and page-faults on,
/// depends on its allocation history. Identical runs then fell into two
/// speed modes: the SP precompute took 31 or 41 ms. After this free every
/// process starts from the allocator state a long-running process reaches
/// after its first large free, and the modes are gone. Other allocators
/// just map and unmap the block.
fn settle_allocator() {
    drop(std::hint::black_box(vec![0u8; 31 << 20]));
}

/// Repeated set-ups run at least this long, so `setup_s` rests on at
/// least a second of work.
pub(crate) const MIN_REPEAT_S: f64 = 1.0;

/// Whether a repeated measurement begun at `since` needs another
/// repetition after `reps`: it runs at least `min_reps` times and at least
/// `min_s` seconds.
pub(crate) fn again(reps: usize, min_reps: usize, min_s: f64, since: Instant) -> bool {
    reps < min_reps || since.elapsed().as_secs_f64() < min_s
}

/// Wall and process CPU seconds of one timed call.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Took {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Measures `f` (see [`HostSpeed::measure`]) at least `min_reps` times
/// and for at least `min_s` seconds.
pub(crate) fn repeat(
    name: &'static str,
    min_reps: usize,
    min_s: f64,
    speed: &mut HostSpeed,
    mut f: impl FnMut(),
) -> Vec<Sample> {
    let since = Instant::now();
    let mut samples = Vec::new();
    while again(samples.len(), min_reps, min_s, since) {
        samples.push(speed.measure(name, &mut f).1);
    }
    samples
}

/// Runs `f` inside a benchmark span named `name` (inert with telemetry
/// off) and returns its result with the wall and CPU time it took.
pub(crate) fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Took) {
    let _span = desalign_telemetry::span(name);
    let cpu0 = host::process_cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    (out, Took { wall_s, cpu_s: host::process_cpu_seconds() - cpu0 })
}

/// The median of `f` over `items`.
pub(crate) fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    stats::median(&items.iter().map(f).collect::<Vec<_>>())
}
