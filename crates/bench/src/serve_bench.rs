//! Serving latency bench: starts in-process `desalign-serve` servers over
//! a deterministic synthetic engine and measures latency two ways,
//! writing exact p50/p99/QPS to `BENCH_serve.json`:
//!
//! - *closed-loop* legs, one per max_batch × thread-count combination:
//!   each client waits for its response before sending the next request;
//! - *open-loop* legs, one per offered rate: requests depart on a fixed
//!   arrival schedule whether or not earlier ones finished, so queueing
//!   delay is visible — the offered vs. achieved QPS gap is the overload
//!   signal.
//!
//! The closed-loop load is a [`Load`]; the binary runs [`FULL`]. The
//! open-loop legs are fixed: 400 requests at each of 2 000 and 8 000 QPS.
//! After writing the artifact the run checks it: at least 3 legs ran, one
//! of them open-loop, with finite positive percentiles, offered rates and
//! throughput, and zero failed requests.

use crate::{or_die, write_artifact};
use desalign_serve::{AlignEngine, Client, ServeConfig, Server};
use desalign_testkit::synth_matrix;
use desalign_util::{json, Json};
use std::path::Path;
use std::time::{Duration, Instant};

/// The closed-loop load one run offers; the client count also splits
/// each open-loop leg.
pub struct Load {
    /// Concurrent client connections of every leg.
    pub clients: usize,
    /// Requests each client sends in a closed-loop leg.
    pub requests_per_client: usize,
}

/// The load of the committed `BENCH_serve.json`.
pub const FULL: Load = Load { clients: 4, requests_per_client: 150 };

/// Offered rates (QPS) of the open-loop legs, one leg each.
const OPEN_RATES: [f64; 2] = [2000.0, 8000.0];

/// Requests of each open-loop leg, split across the clients.
const OPEN_REQUESTS: usize = 400;

/// Where `desalign-bench serve_bench` writes `BENCH_serve.json`.
pub const OUT_DIR: &str = ".";

/// The `q`-quantile of ascending microsecond latencies (nearest rank),
/// or NaN when there are none.
pub(crate) fn percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1] as f64
}

struct Leg {
    mode: &'static str,
    max_batch: usize,
    threads: usize,
    requests: usize,
    errors: usize,
    shed: usize,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    /// Arrival rate the schedule asked for (open-loop only; NaN closed).
    offered_qps: f64,
    qps: f64,
}

/// Starts a bench server at `max_batch` with one worker per client.
fn start_server(max_batch: usize, clients: usize) -> Server {
    let engine = or_die(
        "build bench engine",
        AlignEngine::from_embeddings(
            synth_matrix(256, 32, 11),
            synth_matrix(512, 32, 23),
            &desalign_eval::RetrievalConfig::default(),
            256,
        ),
    );
    let cfg = ServeConfig {
        max_batch,
        batch_window: Duration::from_micros(200),
        workers: clients,
        ..ServeConfig::default()
    };
    or_die("start bench server", Server::start(engine, &cfg))
}

fn run_leg(max_batch: usize, threads: usize, clients: usize, per_client: usize) -> Leg {
    desalign_parallel::set_thread_override(Some(threads));
    let server = start_server(max_batch, clients);
    let addr = server.addr().to_string();

    let t0 = Instant::now();
    let mut joins = Vec::new();
    for c in 0..clients {
        let addr = addr.clone();
        joins.push(std::thread::spawn(move || -> (Vec<u64>, usize) {
            let mut client = match Client::connect(&addr) {
                Ok(cl) => cl,
                Err(_) => return (Vec::new(), per_client),
            };
            let mut lat = Vec::with_capacity(per_client);
            let mut errors = 0usize;
            for i in 0..per_client {
                let body = format!("{{\"entity\": {}, \"k\": 10}}", (c * per_client + i) % 256);
                let t = Instant::now();
                match client.request("POST", "/v1/align", &body) {
                    Ok((200, _)) => lat.push(t.elapsed().as_micros() as u64),
                    _ => errors += 1,
                }
            }
            (lat, errors)
        }));
    }
    let mut all = Vec::new();
    let mut errors = 0usize;
    for j in joins {
        let (lat, e) = j.join().expect("client thread");
        all.extend(lat);
        errors += e;
    }
    let wall = t0.elapsed().as_secs_f64();
    server.shutdown();
    desalign_parallel::set_thread_override(None);

    all.sort_unstable();
    let mean = if all.is_empty() { f64::NAN } else { all.iter().sum::<u64>() as f64 / all.len() as f64 };
    Leg {
        mode: "closed",
        max_batch,
        threads,
        requests: all.len(),
        errors,
        shed: 0,
        p50_us: percentile(&all, 0.50),
        p99_us: percentile(&all, 0.99),
        mean_us: mean,
        offered_qps: f64::NAN,
        qps: if wall > 0.0 { all.len() as f64 / wall } else { f64::NAN },
    }
}

/// One open-loop leg: `total` requests depart on a fixed `rate`-QPS
/// arrival schedule split round-robin across `clients` connections. A
/// client that falls behind its schedule sends immediately (the backlog
/// is the point — latency is measured from the *scheduled* departure, so
/// queueing delay shows up in the percentiles). 503 sheds are counted
/// separately from hard errors: shedding under overload is the designed
/// response, not a failure.
fn run_open_leg(rate: f64, clients: usize, total: usize) -> Leg {
    desalign_parallel::set_thread_override(Some(2));
    let server = start_server(16, clients);
    let addr = server.addr().to_string();

    let per_client = total.div_ceil(clients);
    let interval = Duration::from_secs_f64(clients as f64 / rate);
    let t0 = Instant::now();
    let mut joins = Vec::new();
    for c in 0..clients {
        let addr = addr.clone();
        joins.push(std::thread::spawn(move || -> (Vec<u64>, usize, usize) {
            let mut client = match Client::connect(&addr) {
                Ok(cl) => cl,
                Err(_) => return (Vec::new(), per_client, 0),
            };
            // Client c owns arrivals c, c+clients, c+2·clients, … of the
            // global schedule.
            let offset = Duration::from_secs_f64(c as f64 / rate);
            let mut lat = Vec::with_capacity(per_client);
            let (mut errors, mut shed) = (0usize, 0usize);
            for i in 0..per_client {
                let scheduled = t0 + offset + interval * (i as u32);
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                let body = format!("{{\"entity\": {}, \"k\": 10}}", (c * per_client + i) % 256);
                match client.request("POST", "/v1/align", &body) {
                    Ok((200, _)) => lat.push(scheduled.elapsed().as_micros() as u64),
                    Ok((503, _)) => shed += 1,
                    _ => errors += 1,
                }
            }
            (lat, errors, shed)
        }));
    }
    let mut all = Vec::new();
    let (mut errors, mut shed) = (0usize, 0usize);
    for j in joins {
        let (lat, e, s) = j.join().expect("client thread");
        all.extend(lat);
        errors += e;
        shed += s;
    }
    let wall = t0.elapsed().as_secs_f64();
    server.shutdown();
    desalign_parallel::set_thread_override(None);

    all.sort_unstable();
    let mean = if all.is_empty() { f64::NAN } else { all.iter().sum::<u64>() as f64 / all.len() as f64 };
    Leg {
        mode: "open",
        max_batch: 16,
        threads: 2,
        requests: all.len(),
        errors,
        shed,
        p50_us: percentile(&all, 0.50),
        p99_us: percentile(&all, 0.99),
        mean_us: mean,
        offered_qps: rate,
        qps: if wall > 0.0 { all.len() as f64 / wall } else { f64::NAN },
    }
}

/// Runs every leg under `load`, writes `BENCH_serve.json` into `out_dir`,
/// and returns every failed check.
pub fn run(load: &Load, out_dir: &Path) -> Vec<String> {
    let (clients, per_client) = (load.clients, load.requests_per_client);
    let mut legs = Vec::new();
    for &threads in &[1usize, 2] {
        for &max_batch in &[1usize, 4, 16] {
            let leg = run_leg(max_batch, threads, clients, per_client);
            println!(
                "serve_bench: batch={:<2} threads={} → p50 {:>7.0}µs  p99 {:>7.0}µs  {:>7.0} qps  ({} req, {} errors)",
                leg.max_batch, leg.threads, leg.p50_us, leg.p99_us, leg.qps, leg.requests, leg.errors
            );
            legs.push(leg);
        }
    }

    // Open-loop legs: fixed arrival rates, offered vs. achieved QPS.
    for rate in OPEN_RATES {
        let leg = run_open_leg(rate, clients, OPEN_REQUESTS);
        println!(
            "serve_bench: open rate={:>6.0} → offered {:>6.0} achieved {:>6.0} qps  p50 {:>7.0}µs  p99 {:>7.0}µs  ({} req, {} shed, {} errors)",
            rate, leg.offered_qps, leg.qps, leg.p50_us, leg.p99_us, leg.requests, leg.shed, leg.errors
        );
        legs.push(leg);
    }

    let legs_json: Vec<Json> = legs
        .iter()
        .map(|l| {
            json!({
                "mode": l.mode,
                "max_batch": l.max_batch,
                "threads": l.threads,
                "requests": l.requests,
                "errors": l.errors,
                "shed": l.shed,
                "p50_us": l.p50_us,
                "p99_us": l.p99_us,
                "mean_us": l.mean_us,
                "offered_qps": l.offered_qps,
                "qps": l.qps,
            })
        })
        .collect();
    let doc = json!({
        "schema": "serve-bench-v1",
        "clients": clients,
        "requests_per_client": per_client,
        "legs": Json::Array(legs_json),
    });
    let mut failures = write_artifact(&out_dir.join("BENCH_serve.json"), &doc);

    if legs.len() < 3 {
        failures.push(format!("only {} legs measured (need ≥ 3)", legs.len()));
    }
    if !legs.iter().any(|l| l.mode == "open") {
        failures.push("no open-loop legs measured".into());
    }
    for l in &legs {
        let tag = format!("mode={} batch={} threads={}", l.mode, l.max_batch, l.threads);
        if l.mode == "open" && !(l.offered_qps.is_finite() && l.offered_qps > 0.0) {
            failures.push(format!("{tag}: bogus offered rate {}", l.offered_qps));
        }
        if !(l.p50_us.is_finite() && l.p50_us > 0.0 && l.p99_us.is_finite() && l.p99_us > 0.0) {
            failures.push(format!("{tag}: non-finite or zero percentile (p50 {}, p99 {})", l.p50_us, l.p99_us));
        }
        if !(l.qps.is_finite() && l.qps > 0.0) {
            failures.push(format!("{tag}: bogus throughput {}", l.qps));
        }
        if l.errors > 0 {
            failures.push(format!("{tag}: {} failed requests", l.errors));
        }
    }
    failures
}
