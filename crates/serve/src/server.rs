//! The TCP/HTTP server: worker threads, routing, error mapping, overload
//! control, hot reload, graceful drain.
//!
//! Connections are handled by dedicated OS worker threads (blocking socket
//! reads must not occupy the `desalign-parallel` pool, whose workers are
//! batch-synchronous); the *compute* still runs through the pool, because
//! every `/v1/align` query funnels into the [`Batcher`]'s single
//! `search_batch` call. Shutdown is cooperative and std-only: a drain flag
//! plus one self-connect "poke" per worker unblocks `accept`, workers
//! finish their in-flight requests (bounded by the read timeout), and the
//! batching thread exits when the last worker drops its handle.
//!
//! ## Overload behaviour (docs/RELIABILITY.md has the full matrix)
//!
//! - **Admission control.** At most `queue_capacity` align queries may be
//!   in flight; the next one is *shed* deterministically with a 503 +
//!   `Retry-After: 1` before any engine work happens (`serve.shed`).
//! - **Deadline budget.** A request carrying `x-desalign-deadline-ms`
//!   that expires while queued is shed by the batcher instead of scored
//!   (`serve.deadline_expired`).
//! - **Circuit breaker.** Consecutive engine faults flip the
//!   [`EngineSlot`] into degraded (exact-scan) mode; `GET /readyz`
//!   reports it so load balancers route around the replica.
//! - **Hot reload.** `POST /admin/reload` builds a candidate engine from
//!   the (digest-checked) checkpoint and atomically swaps it in; any
//!   load or validation fault rolls back to the serving engine.

use crate::batch::Batcher;
use crate::engine::{AlignEngine, AlignQuery};
use crate::http::{write_response, write_response_with, Conn, HttpRequest, ReadOutcome};
use crate::slot::{BreakerConfig, EngineSlot};
use desalign_eval::IndexKind;
use desalign_util::{count_var, json, DefectClass, DesalignError, Json};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Builds a replacement [`AlignEngine`] for `POST /admin/reload`. The
/// argument is the optional `"checkpoint"` path from the request body
/// (`None` reloads whatever source the server was booted from). The
/// engine is swapped in only when this returns `Ok`.
pub type Reloader = dyn Fn(Option<&str>) -> Result<AlignEngine, DesalignError> + Send + Sync;

/// Everything the server's behaviour is parameterized by. Every knob is
/// documented in docs/SERVING.md and exercised by a test or the ci.sh
/// smoke.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port `0` selects an ephemeral port (the bound
    /// address is reported by [`Server::addr`]).
    pub addr: String,
    /// Connection worker threads (concurrent connections served; further
    /// connections queue in the OS accept backlog).
    pub workers: usize,
    /// Maximum queries coalesced into one engine call.
    pub max_batch: usize,
    /// How long the batcher waits for stragglers after a batch opens.
    pub batch_window: Duration,
    /// LRU featurization-cache capacity (entries); 0 disables.
    pub cache_capacity: usize,
    /// Maximum accepted `Content-Length` in bytes.
    pub max_body: usize,
    /// `k` used when a query omits it.
    pub default_k: usize,
    /// Socket read timeout — bounds how long a stalled client can hold a
    /// worker, and therefore the drain latency of [`Server::shutdown`].
    pub read_timeout: Duration,
    /// Admission bound: align queries in flight beyond this are shed
    /// with 503 + `Retry-After` instead of queueing without bound.
    pub queue_capacity: usize,
    /// Circuit breaker: consecutive engine-fault batches before the
    /// server degrades to the exhaustive-scan fallback.
    pub breaker_threshold: usize,
    /// Circuit breaker: while open, probe the primary every this-many
    /// batches.
    pub breaker_probe_every: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_batch: 16,
            batch_window: Duration::from_micros(500),
            cache_capacity: 1024,
            max_body: 1 << 20,
            default_k: 10,
            read_timeout: Duration::from_secs(5),
            queue_capacity: 256,
            breaker_threshold: 5,
            breaker_probe_every: 16,
        }
    }
}

impl ServeConfig {
    /// Reads every knob from its `DESALIGN_SERVE_*` environment variable
    /// (documented in docs/SERVING.md); an unset one takes the default
    /// above, and a set but unparsable one is an error naming it.
    pub fn from_env() -> Result<Self, String> {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// The configuration from `lookup`, which maps a variable name to its
    /// value if set.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let d = Self::default();
        Ok(Self {
            addr: lookup("DESALIGN_SERVE_ADDR").unwrap_or(d.addr),
            workers: count_var(&lookup, "DESALIGN_SERVE_WORKERS", d.workers)?.max(1),
            max_batch: count_var(&lookup, "DESALIGN_SERVE_BATCH", d.max_batch)?.max(1),
            batch_window: Duration::from_micros(count_var(
                &lookup,
                "DESALIGN_SERVE_WINDOW_US",
                d.batch_window.as_micros() as u64,
            )?),
            cache_capacity: count_var(&lookup, "DESALIGN_SERVE_CACHE", d.cache_capacity)?,
            max_body: count_var(&lookup, "DESALIGN_SERVE_MAX_BODY", d.max_body)?,
            default_k: count_var(&lookup, "DESALIGN_SERVE_K", d.default_k)?,
            read_timeout: Duration::from_millis(count_var(
                &lookup,
                "DESALIGN_SERVE_TIMEOUT_MS",
                d.read_timeout.as_millis() as u64,
            )?),
            queue_capacity: count_var(&lookup, "DESALIGN_SERVE_QUEUE", d.queue_capacity)?.max(1),
            breaker_threshold: count_var(&lookup, "DESALIGN_SERVE_BREAKER", d.breaker_threshold)?.max(1),
            breaker_probe_every: count_var(&lookup, "DESALIGN_SERVE_BREAKER_PROBE", d.breaker_probe_every)?.max(1),
        })
    }
}

struct Shared {
    slot: Arc<EngineSlot>,
    draining: AtomicBool,
    addr: SocketAddr,
    workers: usize,
    max_body: usize,
    default_k: usize,
    queue_capacity: usize,
    inflight: AtomicUsize,
    reloader: Option<Box<Reloader>>,
    /// Serializes concurrent `/admin/reload` requests: one candidate
    /// engine is built at a time.
    reload_lock: Mutex<()>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flips the drain flag and unblocks every worker's `accept` with one
    /// self-connect per worker. Idempotent and non-blocking, so request
    /// handlers can call it (`POST /admin/shutdown`) without deadlocking
    /// the worker they run on.
    fn initiate(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        for _ in 0..self.workers {
            // A refused poke means the worker already stopped accepting.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] (or have a client POST `/admin/shutdown` and then
/// [`Server::wait`]).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    batcher: JoinHandle<()>,
}

impl Server {
    /// Binds `cfg.addr`, spawns the batching thread and `cfg.workers`
    /// connection workers, and returns immediately. `/admin/reload` is
    /// not available (use [`Server::start_reloadable`] to enable it).
    pub fn start(engine: AlignEngine, cfg: &ServeConfig) -> io::Result<Server> {
        Self::start_inner(engine, cfg, None)
    }

    /// [`start`](Self::start) with a [`Reloader`]: `POST /admin/reload`
    /// builds a replacement engine through it and hot-swaps on success.
    pub fn start_reloadable(engine: AlignEngine, cfg: &ServeConfig, reloader: Box<Reloader>) -> io::Result<Server> {
        Self::start_inner(engine, cfg, Some(reloader))
    }

    fn start_inner(engine: AlignEngine, cfg: &ServeConfig, reloader: Option<Box<Reloader>>) -> io::Result<Server> {
        register_robustness_counters();
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let breaker = BreakerConfig {
            threshold: cfg.breaker_threshold.max(1),
            probe_every: cfg.breaker_probe_every.max(1),
        };
        let slot = Arc::new(EngineSlot::new(engine, breaker));
        let (batcher, batcher_handle) = Batcher::spawn_slot(slot.clone(), cfg.max_batch, cfg.batch_window);
        let shared = Arc::new(Shared {
            slot,
            draining: AtomicBool::new(false),
            addr,
            workers: cfg.workers.max(1),
            max_body: cfg.max_body,
            default_k: cfg.default_k.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            inflight: AtomicUsize::new(0),
            reloader,
            reload_lock: Mutex::new(()),
        });
        let mut workers = Vec::with_capacity(shared.workers);
        for w in 0..shared.workers {
            let listener = listener.try_clone()?;
            let shared = shared.clone();
            let batcher = batcher.clone();
            let timeout = cfg.read_timeout;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("desalign-serve-worker-{w}"))
                    .spawn(move || worker_loop(listener, shared, batcher, timeout))?,
            );
        }
        // Only workers hold batcher handles now: when they exit, the
        // batching thread drains and exits too.
        drop(batcher);
        Ok(Server { addr, shared, workers, batcher: batcher_handle })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain without blocking: no new connections are
    /// accepted, in-flight requests finish (bounded by the read timeout).
    pub fn initiate_shutdown(&self) {
        self.shared.initiate();
    }

    /// Blocks until every worker and the batching thread have exited —
    /// i.e. until someone (this process or a client's `/admin/shutdown`)
    /// initiated a drain and it completed.
    pub fn wait(self) {
        for w in self.workers {
            let _ = w.join();
        }
        let _ = self.batcher.join();
    }

    /// Graceful shutdown: initiate the drain and wait for it.
    pub fn shutdown(self) {
        self.initiate_shutdown();
        self.wait();
    }
}

/// Touches every robustness counter once so `/metrics` reports them at 0
/// from the first scrape — the ci.sh grep gates (and dashboards) never
/// see them pop into existence mid-incident.
fn register_robustness_counters() {
    for name in [
        "serve.shed",
        "serve.breaker_open",
        "serve.breaker_close",
        "serve.degraded_answers",
        "serve.engine_faults",
        "serve.deadline_expired",
        "checkpoint.reloads",
        "checkpoint.reload_failures",
    ] {
        let _ = desalign_telemetry::counter(name);
    }
}

struct ServeMetrics {
    requests: desalign_telemetry::Counter,
    errors: desalign_telemetry::Counter,
    align_queries: desalign_telemetry::Counter,
    connections: desalign_telemetry::Counter,
    shed: desalign_telemetry::Counter,
    reloads: desalign_telemetry::Counter,
    reload_failures: desalign_telemetry::Counter,
    request_us: desalign_telemetry::Histogram,
    align_us: desalign_telemetry::Histogram,
}

fn serve_metrics() -> &'static ServeMetrics {
    static M: OnceLock<ServeMetrics> = OnceLock::new();
    M.get_or_init(|| ServeMetrics {
        requests: desalign_telemetry::counter("serve.requests"),
        errors: desalign_telemetry::counter("serve.errors"),
        align_queries: desalign_telemetry::counter("serve.align_queries"),
        connections: desalign_telemetry::counter("serve.connections"),
        shed: desalign_telemetry::counter("serve.shed"),
        reloads: desalign_telemetry::counter("checkpoint.reloads"),
        reload_failures: desalign_telemetry::counter("checkpoint.reload_failures"),
        request_us: desalign_telemetry::histogram("serve.request_us"),
        align_us: desalign_telemetry::histogram("serve.align_us"),
    })
}

fn worker_loop(listener: TcpListener, shared: Arc<Shared>, batcher: Batcher, timeout: Duration) {
    loop {
        if shared.draining() {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => continue,
        };
        if shared.draining() {
            return; // the poke connection itself lands here
        }
        serve_metrics().connections.incr();
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_nodelay(true);
        handle_connection(Conn::new(stream), &shared, &batcher);
    }
}

/// One routed response: status, JSON body, and the flags that shape how
/// it is written (shutdown initiation, `Retry-After` on sheds).
struct Routed {
    status: u16,
    body: String,
    shutdown: bool,
    retry_after: bool,
}

impl Routed {
    fn plain(status: u16, body: String) -> Self {
        Self { status, body, shutdown: false, retry_after: false }
    }
}

fn handle_connection(mut conn: Conn, shared: &Shared, batcher: &Batcher) {
    loop {
        match conn.read_request(shared.max_body) {
            ReadOutcome::Request(req) => {
                let t0 = Instant::now();
                let _span = desalign_telemetry::span("serve.request");
                let routed = route(&req, shared, batcher);
                let m = serve_metrics();
                m.requests.incr();
                if routed.status >= 400 {
                    m.errors.incr();
                }
                m.request_us.record(t0.elapsed().as_micros() as u64);
                let keep = req.keep_alive && !routed.shutdown && !shared.draining();
                let extra: &[(&str, &str)] = if routed.retry_after { &[("Retry-After", "1")] } else { &[] };
                let write_ok = write_response_with(conn.stream(), routed.status, &routed.body, keep, extra).is_ok();
                if routed.shutdown {
                    shared.initiate();
                }
                if !write_ok || !keep {
                    return;
                }
            }
            ReadOutcome::Closed | ReadOutcome::Io(_) => return,
            ReadOutcome::Timeout { mid_request } => {
                if mid_request {
                    serve_metrics().errors.incr();
                    let _ = write_response(conn.stream(), 408, &error_body_raw("io", "serve.read", "request timed out"), false);
                    return;
                }
                if shared.draining() {
                    return; // idle keep-alive connection during a drain
                }
            }
            ReadOutcome::Bad { status, detail } => {
                serve_metrics().errors.incr();
                let class = if status == 413 { "schema" } else { "parse" };
                let _ = write_response(conn.stream(), status, &error_body_raw(class, "serve.http", &detail), false);
                return;
            }
        }
    }
}

/// Maps a typed error to its HTTP status: unknown entities are 404,
/// server-side unavailability 503, and every other data defect a 400.
fn status_for(class: DefectClass) -> u16 {
    match class {
        DefectClass::PairOutOfRange => 404,
        DefectClass::Io => 503,
        _ => 400,
    }
}

fn error_body(err: &DesalignError) -> String {
    json!({
        "error": json!({
            "class": err.class.name(),
            "location": err.location.as_str(),
            "context": err.context.as_str(),
        })
    })
    .to_string()
}

fn error_body_raw(class: &str, location: &str, context: &str) -> String {
    json!({ "error": json!({ "class": class, "location": location, "context": context }) }).to_string()
}

fn route(req: &HttpRequest, shared: &Shared, batcher: &Batcher) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Routed::plain(200, health_body(shared)),
        ("GET", "/readyz") => {
            let (status, body) = readiness(shared);
            Routed::plain(status, body)
        }
        ("GET", "/metrics") => Routed::plain(200, metrics_body()),
        ("POST", "/v1/align") => align(req, shared, batcher),
        ("POST", "/admin/reload") => {
            let (status, body) = reload(req, shared);
            Routed::plain(status, body)
        }
        ("POST", "/admin/shutdown") => {
            Routed { status: 200, body: json!({ "status": "draining" }).to_string(), shutdown: true, retry_after: false }
        }
        (_, "/healthz" | "/readyz" | "/metrics" | "/v1/align" | "/admin/reload" | "/admin/shutdown") => Routed::plain(
            405,
            error_body_raw("schema", "serve.route", &format!("method {} not allowed here", req.method)),
        ),
        (_, path) => Routed::plain(404, error_body_raw("schema", "serve.route", &format!("unknown path '{path}'"))),
    }
}

/// The `/metrics` body: telemetry counters/gauges/histograms with the
/// failpoint crate's own counters merged into the `counters` object
/// (`desalign-failpoint` sits below `desalign-telemetry` in the crate
/// graph, so it cannot register them itself).
fn metrics_body() -> String {
    let mut doc = desalign_telemetry::metrics_json();
    if let Json::Object(sections) = &mut doc {
        for (name, section) in sections.iter_mut() {
            if name == "counters" {
                if let Json::Object(counters) = section {
                    for (fp_name, value) in desalign_failpoint::counters() {
                        counters.push((fp_name, Json::Num(value as f64)));
                    }
                }
            }
        }
    }
    doc.to_string()
}

fn health_body(shared: &Shared) -> String {
    let e = shared.slot.current();
    let (hits, misses) = e.cache_stats();
    json!({
        "status": if shared.draining() { "draining" } else { "ok" },
        "source_entities": e.num_queries(),
        "target_entities": e.num_items(),
        "dim": e.dim(),
        "backend": match e.backend() {
            IndexKind::Exact => "exact",
            IndexKind::Ivf => "ivf",
        },
        "threads": desalign_parallel::current_threads(),
        "workers": shared.workers,
        "cache_hits": hits as f64,
        "cache_misses": misses as f64,
        "generation": shared.slot.generation(),
        "breaker": if shared.slot.breaker_open() { "open" } else { "closed" },
        "queue_capacity": shared.queue_capacity,
    })
    .to_string()
}

/// `GET /readyz` — the load-balancer contract, distinct from liveness:
/// 200 only when this replica should receive traffic (not draining, not
/// degraded, admission queue not saturated). docs/SERVING.md specifies
/// the states.
fn readiness(shared: &Shared) -> (u16, String) {
    let draining = shared.draining();
    let breaker_open = shared.slot.breaker_open();
    let inflight = shared.inflight.load(Ordering::SeqCst);
    let saturated = inflight >= shared.queue_capacity;
    let ready = !draining && !breaker_open && !saturated;
    let body = json!({
        "ready": ready,
        "draining": draining,
        "breaker": if breaker_open { "open" } else { "closed" },
        "inflight": inflight,
        "queue_capacity": shared.queue_capacity,
        "generation": shared.slot.generation(),
    })
    .to_string();
    (if ready { 200 } else { 503 }, body)
}

/// `POST /admin/reload`: build a candidate engine (optionally from the
/// `"checkpoint"` path in the body), then atomically swap it in. Any
/// fault during load or validation leaves the serving engine untouched —
/// rollback is the absence of the swap.
fn reload(req: &HttpRequest, shared: &Shared) -> (u16, String) {
    let Some(reloader) = shared.reloader.as_deref() else {
        return (503, error_body_raw("io", "serve.reload", "this server was started without a reloader (no checkpoint source)"));
    };
    // Parse the optional body: `{}` / empty → reload the boot source.
    let checkpoint: Option<String> = if req.body.is_empty() {
        None
    } else {
        let text = match std::str::from_utf8(&req.body) {
            Ok(t) => t,
            Err(e) => return (400, error_body_raw("parse", "reload.body", &format!("body is not UTF-8: {e}"))),
        };
        match Json::parse(text) {
            Ok(doc) => match doc.get("checkpoint") {
                None => None,
                Some(v) => match v.as_str() {
                    Some(s) => Some(s.to_string()),
                    None => return (400, error_body_raw("schema", "reload.checkpoint", "'checkpoint' must be a string path")),
                },
            },
            Err(e) => return (400, error_body_raw("parse", "reload.body", &e.to_string())),
        }
    };
    // One reload at a time: candidate builds are memory-heavy and the
    // generation sequence should be observable.
    let _serial = shared.reload_lock.lock().expect("reload lock");
    let m = serve_metrics();
    let built = reloader(checkpoint.as_deref()).and_then(|engine| {
        // Failpoint `serve.reload`: a validation fault *after* a clean
        // build — the swap must still not happen.
        desalign_failpoint::fail_io("serve.reload")
            .map_err(|e| DesalignError::io("serve.reload", e))?;
        Ok(engine)
    });
    match built {
        Ok(engine) => {
            let generation = shared.slot.swap(engine);
            m.reloads.incr();
            (200, json!({ "status": "reloaded", "generation": generation }).to_string())
        }
        Err(e) => {
            m.reload_failures.incr();
            (status_for(e.class), error_body(&e))
        }
    }
}

/// Parses the `/v1/align` body. Schema (docs/SERVING.md): exactly one of
/// `"entity"` (source entity id) or `"vector"` (embedding row), plus an
/// optional `"k"`.
fn parse_align(body: &[u8], default_k: usize) -> Result<(AlignQuery, usize), DesalignError> {
    let text = std::str::from_utf8(body)
        .map_err(|e| DesalignError::parse("align.body", format!("body is not UTF-8: {e}")))?;
    let doc = Json::parse(text).map_err(|e| DesalignError::parse("align.body", e.to_string()))?;
    if doc.as_object().is_none() {
        return Err(DesalignError::schema("align.body", "body must be a JSON object"));
    }
    let k = match doc.get("k") {
        None => default_k,
        Some(v) => v
            .as_usize()
            .ok_or_else(|| DesalignError::schema("align.k", "'k' must be a non-negative integer"))?,
    };
    let query = match (doc.get("entity"), doc.get("vector")) {
        (Some(e), None) => AlignQuery::Entity(
            e.as_usize()
                .ok_or_else(|| DesalignError::schema("align.entity", "'entity' must be a non-negative integer"))?,
        ),
        (None, Some(v)) => {
            let arr = v
                .as_array()
                .ok_or_else(|| DesalignError::schema("align.vector", "'vector' must be an array of numbers"))?;
            let mut row = Vec::with_capacity(arr.len());
            for (i, x) in arr.iter().enumerate() {
                let Some(f) = x.as_f64() else {
                    return Err(DesalignError::schema("align.vector", format!("'vector[{i}]' is not a number")));
                };
                row.push(f as f32);
            }
            AlignQuery::Vector(row)
        }
        _ => {
            return Err(DesalignError::schema(
                "align.body",
                "provide exactly one of 'entity' (source id) or 'vector' (embedding row)",
            ))
        }
    };
    Ok((query, k))
}

fn align(req: &HttpRequest, shared: &Shared, batcher: &Batcher) -> Routed {
    let t0 = Instant::now();
    let (query, k) = match parse_align(&req.body, shared.default_k) {
        Ok(parsed) => parsed,
        Err(e) => return Routed::plain(status_for(e.class), error_body(&e)),
    };
    // Admission control: shed the (capacity+1)-th concurrent query
    // before any engine work. `Retry-After: 1` tells well-behaved
    // clients when to come back.
    let admitted = shared.inflight.fetch_add(1, Ordering::SeqCst);
    if admitted >= shared.queue_capacity {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        serve_metrics().shed.incr();
        let body = error_body_raw("io", "serve.admission", "server at capacity; retry after the queue drains");
        return Routed { status: 503, body, shutdown: false, retry_after: true };
    }
    let deadline = req.deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
    let m = serve_metrics();
    m.align_queries.incr();
    let result = batcher.submit_with_deadline(query, k, deadline);
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    m.align_us.record(t0.elapsed().as_micros() as u64);
    match result {
        Ok(answer) => {
            let cands: Vec<Json> = answer
                .candidates
                .iter()
                .map(|&(id, score)| json!({ "id": id, "score": score }))
                .collect();
            Routed::plain(200, json!({ "k": k, "candidates": Json::Array(cands) }).to_string())
        }
        Err(e) => Routed::plain(status_for(e.class), error_body(&e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(vars: &[(&str, &str)]) -> Result<ServeConfig, String> {
        ServeConfig::from_lookup(|k| vars.iter().find(|(name, _)| *name == k).map(|(_, v)| v.to_string()))
    }

    #[test]
    fn unset_variables_take_the_defaults() {
        let (c, d) = (config(&[]).unwrap(), ServeConfig::default());
        assert_eq!(format!("{c:?}"), format!("{d:?}"));
    }

    #[test]
    fn set_variables_override_the_defaults_and_keep_their_clamps() {
        let vars = [
            ("DESALIGN_SERVE_ADDR", "0.0.0.0:8080"),
            ("DESALIGN_SERVE_WORKERS", "0"),
            ("DESALIGN_SERVE_BATCH", "8"),
            ("DESALIGN_SERVE_WINDOW_US", "250"),
            ("DESALIGN_SERVE_CACHE", "0"),
            ("DESALIGN_SERVE_MAX_BODY", "4096"),
            ("DESALIGN_SERVE_K", "3"),
            ("DESALIGN_SERVE_TIMEOUT_MS", "1500"),
            ("DESALIGN_SERVE_QUEUE", "0"),
            ("DESALIGN_SERVE_BREAKER", "2"),
            ("DESALIGN_SERVE_BREAKER_PROBE", "0"),
        ];
        let c = config(&vars).unwrap();
        assert_eq!((c.addr.as_str(), c.workers, c.max_batch), ("0.0.0.0:8080", 1, 8));
        assert_eq!((c.batch_window, c.read_timeout), (Duration::from_micros(250), Duration::from_millis(1500)));
        assert_eq!((c.cache_capacity, c.max_body, c.default_k), (0, 4096, 3));
        assert_eq!((c.queue_capacity, c.breaker_threshold, c.breaker_probe_every), (1, 2, 1));
    }

    #[test]
    fn an_unparsable_variable_is_an_error_naming_it() {
        let keys = [
            "DESALIGN_SERVE_WORKERS",
            "DESALIGN_SERVE_BATCH",
            "DESALIGN_SERVE_WINDOW_US",
            "DESALIGN_SERVE_CACHE",
            "DESALIGN_SERVE_MAX_BODY",
            "DESALIGN_SERVE_K",
            "DESALIGN_SERVE_TIMEOUT_MS",
            "DESALIGN_SERVE_QUEUE",
            "DESALIGN_SERVE_BREAKER",
            "DESALIGN_SERVE_BREAKER_PROBE",
        ];
        for key in keys {
            let err = config(&[(key, "1k")]).expect_err("unparsable value accepted");
            assert_eq!(err, format!("{key}=\"1k\" is not a non-negative integer"));
        }
    }
}
