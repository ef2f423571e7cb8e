//! Smoke client for a running `desalign-serve`.
//!
//! Drives the server at `DESALIGN_SERVE_ADDR` over one keep-alive
//! connection — `/healthz`, `/metrics`, a fixed `/v1/align` query, a
//! deliberately malformed body, `/readyz` — checks that `/metrics`
//! registers the robustness counter families at boot, and finishes by
//! draining the server via `POST /admin/shutdown`. With
//! `DESALIGN_LOADGEN_PROBE=<file>` the raw align response body is written
//! there (ci.sh diffs probes across restarts and thread counts to enforce
//! bit-identity). Any failed check exits 1. The serving latency bench is
//! `desalign-bench serve_bench`.

use desalign_serve::Client;
use desalign_util::Json;

fn or_die<T, E: std::fmt::Display>(what: &str, result: Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("loadgen: {what}: {e}");
            std::process::exit(1);
        }
    }
}

fn expect(status: u16, want: u16, what: &str, body: &str) {
    if status != want {
        eprintln!("loadgen: {what}: expected HTTP {want}, got {status}: {body}");
        std::process::exit(1);
    }
}

/// Counter families `/metrics` must list from boot on.
const ROBUSTNESS_COUNTERS: [&str; 5] =
    ["serve.shed", "serve.breaker_open", "serve.deadline_expired", "checkpoint.reloads", "failpoint.evals"];

fn smoke(addr: &str) {
    let mut client = or_die(&format!("connect {addr}"), Client::connect(addr));

    let (status, body) = or_die("GET /healthz", client.request("GET", "/healthz", ""));
    expect(status, 200, "healthz", &body);
    let health = or_die("parse healthz", Json::parse(&body));
    for field in ["status", "source_entities", "target_entities", "dim", "backend", "threads", "workers"] {
        if health.get(field).is_none() {
            eprintln!("loadgen: healthz is missing '{field}': {body}");
            std::process::exit(1);
        }
    }
    println!("loadgen: healthz ok: {body}");

    let (status, body) = or_die("GET /metrics", client.request("GET", "/metrics", ""));
    expect(status, 200, "metrics", &body);
    or_die("parse metrics", Json::parse(&body));
    println!("loadgen: metrics ok ({} bytes)", body.len());

    // The fixed probe query: ci.sh diffs this body bit-for-bit across
    // server restarts and DESALIGN_THREADS settings.
    let probe_query = r#"{"entity": 0, "k": 5}"#;
    let (status, probe_body) = or_die("POST /v1/align", client.request("POST", "/v1/align", probe_query));
    expect(status, 200, "align", &probe_body);
    let answer = or_die("parse align response", Json::parse(&probe_body));
    let n = answer.get("candidates").and_then(|c| c.as_array()).map_or(0, |c| c.len());
    if n == 0 {
        eprintln!("loadgen: align returned no candidates: {probe_body}");
        std::process::exit(1);
    }
    println!("loadgen: align ok ({n} candidates)");

    let (status, body) = or_die("POST bad align", client.request("POST", "/v1/align", r#"{"entity": "x"}"#));
    expect(status, 400, "malformed align must be a 400", &body);
    println!("loadgen: malformed query rejected with 400");

    let (status, body) = or_die("GET /readyz", client.request("GET", "/readyz", ""));
    expect(status, 200, "readyz", &body);
    let ready = or_die("parse readyz", Json::parse(&body));
    if ready.get("ready").and_then(Json::as_bool) != Some(true) {
        eprintln!("loadgen: /readyz reports not ready on an idle server: {body}");
        std::process::exit(1);
    }
    println!("loadgen: readyz ok");

    if let Ok(path) = std::env::var("DESALIGN_LOADGEN_PROBE") {
        or_die(&format!("write probe {path}"), std::fs::write(&path, &probe_body));
        println!("loadgen: probe written to {path}");
    }

    // The robustness counters (docs/RELIABILITY.md) must be registered at
    // boot, so dashboards see explicit zeros rather than absent series.
    // Fetched after the probe, so every family has been touched.
    let (status, body) = or_die("GET /metrics (counters)", client.request("GET", "/metrics", ""));
    expect(status, 200, "metrics counters", &body);
    let metrics = or_die("parse metrics", Json::parse(&body));
    let counters = metrics.get("counters");
    let missing: Vec<&str> =
        ROBUSTNESS_COUNTERS.iter().copied().filter(|c| counters.and_then(|o| o.get(c)).is_none()).collect();
    if !missing.is_empty() {
        eprintln!("loadgen: /metrics lost the {missing:?} counter(s): {body}");
        std::process::exit(1);
    }
    println!("loadgen: /metrics exposes the shed/breaker/reload/failpoint counter families");

    let (status, body) = or_die("POST /admin/shutdown", client.request("POST", "/admin/shutdown", ""));
    expect(status, 200, "shutdown", &body);
    if !body.contains("draining") {
        eprintln!("loadgen: unexpected shutdown response: {body}");
        std::process::exit(1);
    }
    println!("loadgen: server draining");
}

fn main() {
    let Ok(addr) = std::env::var("DESALIGN_SERVE_ADDR") else {
        eprintln!("loadgen: set DESALIGN_SERVE_ADDR to the address of a running desalign-serve");
        std::process::exit(2);
    };
    smoke(&addr);
}
