//! `serve`: a cold start of `Server` from a checkpoint of FB15K-DB15K at
//! scale 2000 (IVF backend, 1024-wide SP-flattened embeddings,
//! `ServeConfig::default()`), then three phases over keep-alive HTTP:
//!
//! 1. one pass over the test pairs for `quality`, on a connection that is
//!    closed before the timed phases (an idle keep-alive connection would
//!    hold a server worker until the read timeout);
//! 2. an open-loop `POST /v1/align` stream at a fixed rate over
//!    [`CONNECTIONS`] connections, seeded Zipf(1.0) entity ids, k = 10,
//!    each request timed from its scheduled send;
//! 3. a closed loop on [`CONNECTIONS`] connections.
//!
//! Every 200 body must equal the in-process `AlignEngine` answer for the
//! same query, score bits included; any other outcome is a failed op.

use crate::{again, host, median_by, repeat, stats, timed, trace, HostSpeed, Options, Recorder, Sample, MIN_REPEAT_S};
use desalign_core::{DesalignConfig, DesalignModel, RetrievalBackend};
use desalign_mmkg::{AlignmentDataset, DatasetSpec, SynthConfig};
use desalign_serve::{AlignEngine, AlignQuery, ServeConfig, Server};
use desalign_telemetry::{span, span_report};
use desalign_tensor::{rng_from_seed, Rng64, SliceRandom};
use desalign_util::Json;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Dataset and model seed of the served checkpoint. Fixed, so the served
/// model — and `quality` — is the same on every workload seed.
pub const SERVE_SEED: u64 = 17;
/// Load connections (and load threads): the reference host's `nproc`.
pub const CONNECTIONS: usize = 2;
/// Candidates per query.
const K: usize = 10;
/// The per-request latency limit of the closed-loop goodput.
const CLOSED_LIMIT: Duration = Duration::from_millis(20);
/// Queries per direct `answer_batch` call: the server's default batch cap.
const DIRECT_BATCH: usize = 16;
/// Windows the closed loop's goodput is the median over.
const WINDOWS: usize = 10;
/// Length of the open loop's CPU-per-request windows.
const CPU_WINDOW: Duration = Duration::from_secs(1);
/// Host speed probes taken right before and again right after the open
/// loop; its CPU time is scaled by their median.
const OPEN_LOOP_PROBES: usize = 5;

/// Expected top-k per source entity: `(target id, score bits)`.
type Reference = Vec<Vec<(usize, u32)>>;

fn config(epochs: usize) -> DesalignConfig {
    let mut cfg = DesalignConfig::fast();
    cfg.epochs = epochs;
    cfg.retrieval.backend = RetrievalBackend::Ivf;
    cfg
}

fn synth(opts: &Options) -> AlignmentDataset {
    SynthConfig::preset(DatasetSpec::FbDb15k).scaled(opts.sizes.serve_scale).generate(SERVE_SEED)
}

// ---------------------------------------------------------------------
// HTTP client
// ---------------------------------------------------------------------

/// One keep-alive connection with its own read buffer.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(Self { stream, buf: Vec::with_capacity(4096) })
    }

    /// Sends one request and reads one `Content-Length`-framed response.
    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let head = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n", body.len());
        self.stream.write_all(format!("{head}{body}").as_bytes())?;
        let header_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{what} in {head:?}"));
        let status =
            head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad status line"))?;
        let length: usize = head
            .lines()
            .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(|v| v.trim().to_string()))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("no Content-Length"))?;
        while self.buf.len() < header_end + length {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[header_end..header_end + length]).into_owned();
        self.buf.drain(..header_end + length);
        Ok((status, body))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// `POST /v1/align` for one entity; the served top-1 id when the
    /// response is a 200 equal to `reference`, else why not.
    fn align(&mut self, id: usize, reference: &Reference) -> Result<usize, String> {
        let _span = span("bench.request");
        let (status, body) = self
            .request("POST", "/v1/align", &format!("{{\"entity\":{id},\"k\":{K}}}"))
            .map_err(|e| format!("entity {id}: {e}"))?;
        if status != 200 {
            return Err(format!("entity {id}: HTTP {status}: {body}"));
        }
        let served = parse_candidates(&body).ok_or_else(|| format!("entity {id}: malformed body {body}"))?;
        if served != reference[id] {
            return Err(format!("entity {id}: served {served:?} != in-process {:?}", reference[id]));
        }
        served.first().map(|&(top, _)| top).ok_or_else(|| format!("entity {id}: empty answer"))
    }
}

/// `(id, score bits)` of a `/v1/align` body; `None` unless `k` is [`K`].
fn parse_candidates(body: &str) -> Option<Vec<(usize, u32)>> {
    let doc = Json::parse(body).ok()?;
    if doc.get("k")?.as_usize()? != K {
        return None;
    }
    doc.get("candidates")?
        .as_array()?
        .iter()
        .map(|c| Some((c.get("id")?.as_usize()?, (c.get("score")?.as_f64()? as f32).to_bits())))
        .collect()
}

// ---------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------

/// Zipf(1.0) over entity ids: rank `r` has weight `1 / (r + 1)`, and ranks
/// map to ids through a seeded permutation.
struct Zipf {
    cdf: Vec<f64>,
    ids: Vec<usize>,
}

impl Zipf {
    fn new(n: usize, rng: &mut Rng64) -> Self {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect::<Vec<_>>();
        let total = acc;
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(rng);
        Self { cdf: cdf.into_iter().map(|c| c / total).collect(), ids }
    }

    fn sample(&self, rng: &mut Rng64) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.ids[self.cdf.partition_point(|&c| c <= u).min(self.ids.len() - 1)]
    }
}

#[derive(Default)]
struct OpenLoop {
    /// Per request, in schedule order: completion minus scheduled send,
    /// seconds; infinite for a failed request, which misses any limit.
    latency_s: Vec<f64>,
    /// Per request: actual minus scheduled send, seconds.
    late_s: Vec<f64>,
    /// Per [`CPU_WINDOW`]: process CPU seconds per request finished in it.
    cpu_per_request_s: Vec<f64>,
    failed: u64,
    errors: Vec<String>,
}

/// Sends `ids[i]` at `start + i / rate` over [`CONNECTIONS`] keep-alive
/// connections, whichever is free first. Meanwhile the calling thread
/// samples process CPU time per finished request every [`CPU_WINDOW`].
///
/// No host speed probe runs during the loop: a probe beside the server's
/// threads measures their contention as much as the host's (on the
/// reference host, scaling by such probes widened the spread across runs
/// from 7% to 10%). The caller probes right before and right after.
fn open_loop(addr: SocketAddr, ids: &[usize], rate: f64, reference: &Reference) -> OpenLoop {
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let mut cpu_per_request_s = Vec::new();
    let start = Instant::now() + Duration::from_millis(10);
    // Per sender: (schedule index, latency, lateness) and errors.
    type Sent = (Vec<(usize, f64, f64)>, Vec<String>);
    let parts: Vec<Sent> = std::thread::scope(|s| {
        let senders: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let (mut sent, mut errors) = (Vec::new(), Vec::new());
                    let mut client = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= ids.len() {
                            return (sent, errors);
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let late = due.elapsed().as_secs_f64();
                        let latency = match connected(&mut client, addr).and_then(|c| c.align(ids[i], reference)) {
                            Ok(_) => due.elapsed().as_secs_f64(),
                            Err(e) => {
                                client = None;
                                errors.push(e);
                                f64::INFINITY
                            }
                        };
                        sent.push((i, latency, late));
                        finished.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // Only whole windows count: the last, partial one is dropped.
        let (mut window_start, mut cpu0, mut done0) = (Instant::now(), host::process_cpu_seconds(), 0);
        while finished.load(Ordering::Relaxed) < ids.len() {
            std::thread::sleep(Duration::from_millis(5));
            if window_start.elapsed() >= CPU_WINDOW {
                let (cpu, done) = (host::process_cpu_seconds(), finished.load(Ordering::Relaxed));
                if done > done0 {
                    cpu_per_request_s.push((cpu - cpu0) / (done - done0) as f64);
                }
                (window_start, cpu0, done0) = (Instant::now(), cpu, done);
            }
        }
        // A loop shorter than one window is measured as one.
        if cpu_per_request_s.is_empty() {
            cpu_per_request_s.push((host::process_cpu_seconds() - cpu0) / (ids.len() - done0).max(1) as f64);
        }
        senders.into_iter().map(|w| w.join().expect("open-loop sender panicked")).collect()
    });
    let mut all: Vec<(usize, f64, f64)> = Vec::with_capacity(ids.len());
    let mut out = OpenLoop { cpu_per_request_s, ..OpenLoop::default() };
    for (sent, errors) in parts {
        all.extend(sent);
        out.errors.extend(errors);
    }
    all.sort_by_key(|&(i, _, _)| i);
    out.failed = all.iter().filter(|r| r.1.is_infinite()).count() as u64;
    out.latency_s = all.iter().map(|r| r.1).collect();
    out.late_s = all.iter().map(|r| r.2).collect();
    out
}

/// The connection in `slot`, opened on first use or after a failure.
fn connected(slot: &mut Option<Client>, addr: SocketAddr) -> Result<&mut Client, String> {
    if slot.is_none() {
        *slot = Some(Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?);
    }
    Ok(slot.as_mut().expect("just opened"))
}

#[derive(Default)]
struct ClosedLoop {
    completed: u64,
    failed: u64,
    elapsed_s: f64,
    /// Completion offsets (seconds from the start) of the requests that
    /// succeeded within [`CLOSED_LIMIT`].
    good_at_s: Vec<f64>,
    errors: Vec<String>,
}

impl ClosedLoop {
    /// Requests per second that succeeded within the limit: the median
    /// over [`WINDOWS`] equal slices of the phase.
    fn goodput(&self) -> f64 {
        let slice = self.elapsed_s / WINDOWS as f64;
        let mut per_window = vec![0.0; WINDOWS];
        for &t in &self.good_at_s {
            per_window[((t / slice) as usize).min(WINDOWS - 1)] += 1.0 / slice;
        }
        stats::median(&per_window)
    }
}

/// [`CONNECTIONS`] clients, each sending its next Zipf query when the
/// previous answer arrives, for `seconds`.
fn closed_loop(addr: SocketAddr, zipf: &Zipf, seed: u64, seconds: f64, reference: &Reference) -> ClosedLoop {
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let parts: Vec<ClosedLoop> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CONNECTIONS as u64)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = rng_from_seed(seed ^ (0xC105_ED00 + c));
                    let mut out = ClosedLoop::default();
                    let mut client = None;
                    while Instant::now() < end {
                        let id = zipf.sample(&mut rng);
                        let sent = Instant::now();
                        match connected(&mut client, addr).and_then(|cl| cl.align(id, reference)) {
                            Ok(_) => {
                                out.completed += 1;
                                if sent.elapsed() <= CLOSED_LIMIT {
                                    out.good_at_s.push(t0.elapsed().as_secs_f64());
                                }
                            }
                            Err(e) => {
                                client = None;
                                out.failed += 1;
                                out.errors.push(e);
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        clients.into_iter().map(|w| w.join().expect("closed-loop client panicked")).collect()
    });
    let mut all = ClosedLoop { elapsed_s: t0.elapsed().as_secs_f64(), ..ClosedLoop::default() };
    for p in parts {
        all.completed += p.completed;
        all.failed += p.failed;
        all.good_at_s.extend(p.good_at_s);
        all.errors.extend(p.errors);
    }
    all
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

struct ColdStart {
    ds: AlignmentDataset,
    model: DesalignModel,
    server: Server,
    synth_s: f64,
    init_s: f64,
    load_s: f64,
}

/// Synth, model init, checkpoint load, engine build (SP precompute plus
/// IVF and exact-fallback index builds), bind.
fn cold_start(opts: &Options, checkpoint: &std::path::Path) -> Result<ColdStart, String> {
    let (ds, synth_t) = timed("bench.synth", || synth(opts));
    let (mut model, init_t) =
        timed("bench.model_init", || DesalignModel::new(config(opts.sizes.serve_fixture_epochs), &ds, SERVE_SEED));
    let (loaded, load_t) = timed("bench.checkpoint_load", || model.load_checkpoint_inference(&ds, checkpoint));
    loaded.map_err(|e| format!("load checkpoint {}: {e}", checkpoint.display()))?;
    let serve_cfg = ServeConfig::default();
    let (engine, _) = timed("bench.engine_build", || AlignEngine::from_model(&model, serve_cfg.cache_capacity));
    let engine = engine.map_err(|e| format!("engine build: {e}"))?;
    let (server, _) = timed("bench.bind", || Server::start(engine, &serve_cfg));
    let server = server.map_err(|e| format!("bind: {e}"))?;
    Ok(ColdStart { ds, model, server, synth_s: synth_t.wall_s, init_s: init_t.wall_s, load_s: load_t.wall_s })
}

/// Runs the workload into `rec`.
pub fn run(opts: &Options, rec: &mut Recorder) {
    let checkpoint = opts.workdir.join(format!("serve-{}.ckpt", std::process::id()));
    let result = run_with(opts, rec, &checkpoint);
    let _ = std::fs::remove_file(&checkpoint);
    if let Err(e) = result {
        rec.check(false, || e);
    }
}

fn run_with(opts: &Options, rec: &mut Recorder, checkpoint: &std::path::Path) -> Result<(), String> {
    // The fixture: a briefly trained checkpoint, not part of `setup_s`.
    std::fs::create_dir_all(&opts.workdir).map_err(|e| format!("create {}: {e}", opts.workdir.display()))?;
    let fixture_t0 = Instant::now();
    {
        let _span = span("bench.fixture");
        let ds = synth(opts);
        let mut model = DesalignModel::new(config(opts.sizes.serve_fixture_epochs), &ds, SERVE_SEED);
        let mut state = model.begin_training(&ds);
        model.train_epochs(&mut state, usize::MAX);
        model.save_checkpoint(&state, checkpoint).map_err(|e| format!("save checkpoint: {e}"))?;
    }
    let fixture_s = fixture_t0.elapsed().as_secs_f64();

    let mut speed = HostSpeed::default();
    let since = Instant::now();
    let mut starts = Vec::new();
    let mut live: Option<ColdStart> = None;
    while again(starts.len(), opts.sizes.setup_reps, MIN_REPEAT_S, since) {
        if let Some(previous) = live.take() {
            previous.server.shutdown();
        }
        let (start, sample) = speed.measure("bench.setup", || cold_start(opts, checkpoint));
        let start = start?;
        starts.push((sample, [start.synth_s, start.init_s, start.load_s]));
        live = Some(start);
    }
    let ColdStart { ds, model, server, .. } = live.expect("at least one cold start");
    let column = |i: usize| median_by(&starts, |s| s.1[i]);

    // In-process reference answers for every source entity, from an engine
    // built the same way from the same loaded model (no cache, so the
    // server's cache starts cold).
    let (reference_engine, _) = timed("bench.reference_engine", || AlignEngine::from_model(&model, 0));
    let reference_engine = reference_engine.map_err(|e| format!("reference engine: {e}"))?;
    let all: Vec<(AlignQuery, usize)> =
        (0..reference_engine.num_queries()).map(|id| (AlignQuery::Entity(id), K)).collect();
    let (answers, search_t) = timed("bench.answer_batch", || {
        all.chunks(DIRECT_BATCH).flat_map(|b| reference_engine.answer_batch(b)).collect::<Vec<_>>()
    });
    let reference: Reference = answers
        .into_iter()
        .map(|a| a.map(|a| a.candidates.iter().map(|&(id, s)| (id, s.to_bits())).collect()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("in-process answer: {e}"))?;
    // One pass over every query through the exact-scan fallback.
    let ((), exact_t) = timed("bench.answer_batch_degraded", || {
        for b in all.chunks(DIRECT_BATCH) {
            std::hint::black_box(reference_engine.answer_batch_degraded(b));
        }
    });

    let addr = server.addr();
    let mut rng = rng_from_seed(opts.seed);
    let zipf = Zipf::new(reference.len(), &mut rng);
    // The open loop runs for half of `--seconds`, the engine builds for a
    // quarter, the closed loop for an eighth.
    let n_open = (opts.sizes.serve_rate * opts.seconds / 2.0).ceil() as usize;
    let open_ids: Vec<usize> = (0..n_open).map(|_| zipf.sample(&mut rng)).collect();
    let closed_s = opts.seconds / 8.0;

    let mut baseline_closed = None;
    if opts.trace {
        // Untraced closed loop: the baseline of telemetry.overhead_pct.
        desalign_telemetry::set_enabled(Some(false));
        baseline_closed = Some(closed_loop(addr, &zipf, opts.seed, closed_s, &reference));
        desalign_telemetry::set_enabled(Some(true));
        desalign_telemetry::reset_metrics();
    }

    // Phase 1: quality over the test pairs, on a connection closed after.
    let (hits, answered) = {
        let _span = span("bench.quality");
        let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let (mut hits, mut answered) = (0u64, 0u64);
        for &(s, t) in &ds.test_pairs {
            match client.align(s, &reference) {
                Ok(top) => {
                    answered += 1;
                    hits += u64::from(top == t);
                    rec.ops(1, 0);
                }
                Err(e) => {
                    rec.ops(1, 1);
                    rec.note(e);
                }
            }
        }
        (hits, answered)
    };

    // Phases 2 and 3 are the timed phase. The open loop is bracketed by
    // host speed probes.
    let mut around_open = HostSpeed::default();
    around_open.sample(OPEN_LOOP_PROBES);
    let open = {
        let _span = span("bench.open_loop");
        open_loop(addr, &open_ids, opts.sizes.serve_rate, &reference)
    };
    around_open.sample(OPEN_LOOP_PROBES);
    let closed = {
        let _span = span("bench.closed_loop");
        closed_loop(addr, &zipf, opts.seed, closed_s, &reference)
    };
    rec.ops(open.latency_s.len() as u64, open.failed);
    rec.ops(closed.completed + closed.failed, closed.failed);
    for e in open.errors.iter().chain(&closed.errors).cloned() {
        rec.note(e);
    }
    let late_p99_s = stats::quantile(&open.late_s, 0.99);
    rec.fact_num("loadgen_late_p99_ms", 1e3 * late_p99_s);
    rec.fact_num("open_loop_requests", open.latency_s.len() as f64);
    rec.fact_num("open_loop_cpu_windows", open.cpu_per_request_s.len() as f64);
    rec.fact_num("open_loop_p50_ms", 1e3 * stats::median(&open.latency_s));
    rec.fact_num("open_loop_tail_ms", 1e3 * stats::windowed_tail(&open.latency_s));
    rec.fact_num("open_loop_tail_percentile", stats::windowed_tail_percentile(open.latency_s.len()));
    rec.fact_num("open_loop_p99_ms", 1e3 * stats::quantile(&open.latency_s, 0.99));
    rec.fact_num("closed_loop_goodput_per_s", closed.goodput());
    rec.fact_num("fixture_wall_s", fixture_s);

    let metrics = if opts.trace { scrape_metrics(addr) } else { Ok(Json::Null) };
    server.shutdown();
    let metrics = metrics?;

    if let Some(baseline) = baseline_closed {
        let per_request = |c: &ClosedLoop| c.elapsed_s / c.completed.max(1) as f64;
        rec.set(
            "telemetry.overhead_pct",
            100.0 * (per_request(&closed) - per_request(&baseline)) / per_request(&baseline),
        );
        rec.set("mmkg.synth_s", column(0));
        rec.set("core.model_init_s", column(1));
        rec.set("core.checkpoint_load_s", column(2));
        rec.set("loadgen.late_us_p99", 1e6 * late_p99_s);
        per_layer(rec, &model, &metrics, search_t.wall_s / all.len() as f64, exact_t.wall_s / all.len() as f64)?;
        rec.layers(trace::layer_rows(&span_report()));
        return Ok(());
    }
    let builds = index_builds(&model, opts.seconds / 4.0, &mut speed)?;
    rec.cpu("setup_s", median_by(&starts, |s| s.0.scaled_cpu_s), median_by(&starts, |s| s.0.cpu_s));
    rec.fact_num("setup_wall_s", median_by(&starts, |s| s.0.wall_s));
    rec.cpu("build_cpu_s", median_by(&builds, |b| b.scaled_cpu_s), median_by(&builds, |b| b.cpu_s));
    let op_cpu_s = stats::median(&open.cpu_per_request_s);
    rec.cpu("op_cpu_ms", 1e3 * around_open.scale_by_median(op_cpu_s), 1e3 * op_cpu_s);
    rec.set("quality", hits as f64 / answered.max(1) as f64);
    rec.speed_facts(&speed);
    rec.fact_num("engine_build_wall_s", median_by(&builds, |b| b.wall_s));
    Ok(())
}

/// Repeated engine builds from `model` (SP precompute plus the IVF and
/// exact-fallback index builds): the part of a cold start that builds the
/// index.
fn index_builds(model: &DesalignModel, seconds: f64, speed: &mut HostSpeed) -> Result<Vec<Sample>, String> {
    let mut failure = None;
    let took = repeat("bench.engine_build", 3, seconds, speed, || {
        if let Err(e) = AlignEngine::from_model(model, ServeConfig::default().cache_capacity) {
            failure = Some(format!("engine build: {e}"));
        }
    });
    failure.map_or(Ok(took), Err)
}

fn scrape_metrics(addr: SocketAddr) -> Result<Json, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let (status, body) = client.request("GET", "/metrics", "").map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics: HTTP {status}"));
    }
    Json::parse(&body).map_err(|e| format!("GET /metrics: {e}"))
}

/// Per-layer numbers from `/metrics`, the span forest, and direct calls
/// into the layers the cold start went through.
fn per_layer(
    rec: &mut Recorder,
    model: &DesalignModel,
    metrics: &Json,
    search_s: f64,
    exact_search_s: f64,
) -> Result<(), String> {
    let hist = |name: &str, field: &str| {
        metrics
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let count = |name: &str| metrics.get("counters").and_then(|c| c.get(name)).and_then(Json::as_f64).unwrap_or(0.0);
    let roots = span_report();
    let client =
        trace::find(&roots, "bench.request").map_or(f64::NAN, |n| n.total_ns as f64 / 1e3 / n.calls.max(1) as f64);
    rec.set("serve.request_us_p50", hist("serve.request_us", "p50_us"));
    rec.set("serve.request_us_p99", hist("serve.request_us", "p99_us"));
    rec.set("serve.align_us_p50", hist("serve.align_us", "p50_us"));
    rec.set("serve.align_us_p99", hist("serve.align_us", "p99_us"));
    rec.set("serve.wait_us", hist("serve.request_us", "mean_us") - hist("serve.align_us", "mean_us"));
    rec.set("serve.client_us", client - hist("serve.request_us", "mean_us"));
    rec.set("serve.batch_mean", count("serve.batched_queries") / count("serve.batches").max(1.0));
    let (hits, misses) = (count("serve.cache_hits"), count("serve.cache_misses"));
    rec.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    for name in ["serve.shed", "serve.deadline_expired", "serve.errors", "serve.breaker_open", "serve.degraded_answers"]
    {
        rec.set(name, count(name));
    }
    let requests = count("serve.align_queries").max(1.0);
    rec.set("parallel.jobs", count("pool.jobs") / requests);
    rec.set("parallel.helped", count("pool.helped") / requests);
    rec.set("parallel.inline_jobs", count("pool.inline_jobs") / requests);
    let scanned = count("retrieval.candidates") / count("serve.batched_queries").max(1.0);
    rec.set("eval.candidates_per_query", scanned);
    rec.set("eval.search_us", 1e6 * search_s);
    rec.set("eval.exact_search_us", 1e6 * exact_search_s);

    // The engine build, split by calling each layer's public entry point.
    let ((x_s, x_t), sp) = timed("bench.sp_precompute", || model.retrieval_embeddings());
    drop(x_s);
    rec.set("eval.scanned_fraction", scanned / x_t.rows().max(1) as f64);
    let cfg = model.config().retrieval.eval_config(model.seed());
    let (ivf, ivf_t) = timed("bench.ivf_build", || desalign_eval::ItemIndex::build(&x_t, &cfg));
    let exact_cfg = desalign_eval::RetrievalConfig { kind: desalign_eval::IndexKind::Exact, ..cfg };
    let (exact, exact_t) = timed("bench.exact_build", || desalign_eval::ItemIndex::build(&x_t, &exact_cfg));
    ivf.and(exact).map_err(|e| format!("index build: {e}"))?;
    rec.set("core.sp_precompute_s", sp.wall_s);
    rec.set("eval.ivf_build_s", ivf_t.wall_s);
    rec.set("eval.exact_build_s", exact_t.wall_s);
    Ok(())
}
