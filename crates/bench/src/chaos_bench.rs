//! Chaos harness: replays seeded failpoint schedules against every layer
//! the `desalign-failpoint` sites cover and measures how the system
//! degrades and recovers. Writes `BENCH_chaos.json`.
//!
//! Scenarios (each runs under `catch_unwind`; a panic anywhere fails the
//! whole run — the zero-panic assertion is the headline number):
//!
//! 1. **kill_mid_write** — torn [`atomic_write`]s at a sweep of cut
//!    points; the destination must hold the old generation after every
//!    kill and a clean write must succeed afterwards.
//! 2. **flaky_shard_audit** — a sharded MMKG directory audited while the
//!    `shard.read` site injects a flaky disk: the strict audit must fail
//!    with a typed error (no panic), and pass once the disk heals.
//! 3. **socket_storm** — a deliberately tiny admission queue under a
//!    concurrent client storm: every response must be well-formed HTTP
//!    (200 or a 503 shed), sheds must actually happen, and p99 of the
//!    successful requests is recorded.
//! 4. **breaker_degrade** — consecutive engine faults trip the breaker;
//!    requests keep answering through the exhaustive-scan fallback and the
//!    breaker closes once faults stop; recovery time is recorded.
//! 5. **reload_under_load** — hot checkpoint reloads (one clean, one
//!    faulted) while align traffic flows: the faulted reload rolls back,
//!    and not one in-flight request is dropped without a response.
//!
//! Every run writes its report first, then returns each failure of a
//! panicked or failed scenario. The harness owns the process-global
//! failpoint registry, so nothing else may run in its process.

use crate::serve_bench::percentile;
use crate::write_artifact;
use desalign_mmkg::{AuditPolicy, DatasetSpec, StreamingAuditor, SynthConfig};
use desalign_serve::{round_trip, AlignEngine, ServeConfig, Server};
use desalign_testkit::synth_matrix;
use desalign_util::{atomic_write, json, read_verified, Json};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where `desalign-bench chaos_bench` writes `BENCH_chaos.json`.
pub const OUT_DIR: &str = ".";

fn exact_engine() -> AlignEngine {
    AlignEngine::from_embeddings(
        synth_matrix(128, 24, 3),
        synth_matrix(256, 24, 5),
        &desalign_eval::RetrievalConfig::default(),
        128,
    )
    .expect("build exact engine")
}

fn ivf_engine() -> AlignEngine {
    let cfg = desalign_eval::RetrievalConfig {
        kind: desalign_eval::IndexKind::Ivf,
        ivf: desalign_eval::IvfParams { nlist: 8, nprobe: 2, kmeans_iters: 3, seed: 17 },
    };
    AlignEngine::from_embeddings(synth_matrix(128, 24, 3), synth_matrix(256, 24, 5), &cfg, 128)
        .expect("build ivf engine")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("desalign-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create chaos tempdir");
    dir
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// A scenario's detail fields for its report entry, and its failures.
type Outcome = (Vec<(String, Json)>, Vec<String>);

/// A named scenario.
type Scenario = (&'static str, fn() -> Outcome);

fn kill_mid_write() -> Outcome {
    let mut failures = Vec::new();
    let dir = temp_dir("kill-mid-write");
    let path = dir.join("state.bin");
    let old = b"generation-old".to_vec();
    atomic_write(&path, &old).expect("seed write");

    let cuts = [0usize, 1, 7, 13, 37, 10_000];
    let mut kills = 0;
    for &cut in &cuts {
        desalign_failpoint::install(&format!("atomicio.write=torn:{cut}@1")).expect("install");
        match atomic_write(&path, b"generation-new") {
            Err(_) => kills += 1,
            Ok(_) => failures.push(format!("torn:{cut} write unexpectedly succeeded")),
        }
        match read_verified(&path) {
            Ok(bytes) if bytes == old => {}
            Ok(_) => failures.push(format!("torn:{cut} left a NEW/mixed generation visible")),
            Err(e) => failures.push(format!("torn:{cut} corrupted the destination: {e}")),
        }
        desalign_failpoint::clear();
    }
    // The disk heals: a clean write replaces the old generation.
    atomic_write(&path, b"generation-new").expect("recovery write");
    match read_verified(&path) {
        Ok(bytes) if bytes == b"generation-new" => {}
        other => failures.push(format!("recovery write not visible: {other:?}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
    (
        vec![
            ("kills_replayed".into(), json!(kills)),
            ("cut_points".into(), json!(cuts.len())),
        ],
        failures,
    )
}

fn flaky_shard_audit() -> Outcome {
    let mut failures = Vec::new();
    let dir = temp_dir("flaky-shard");
    let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(30);
    let manifest = ds.generate_sharded(11, &dir, 10).expect("generate shards");

    // Flaky disk: the first shard read fails. The streaming auditor must
    // surface a typed error — not a panic, not a silently short census.
    desalign_failpoint::install("shard.read=err@1").expect("install");
    let under_fault = StreamingAuditor::new(AuditPolicy::Strict).audit_dir(&dir);
    match &under_fault {
        Err(e) => {
            let msg = e.to_string();
            if !msg.contains("shard.read") {
                failures.push(format!("fault error does not name the failpoint site: {msg}"));
            }
        }
        Ok(_) => failures.push("audit succeeded through an injected read fault".into()),
    }
    desalign_failpoint::clear();

    // Healed disk: the same directory audits clean.
    let t0 = Instant::now();
    match StreamingAuditor::new(AuditPolicy::Strict).audit_dir(&dir) {
        Ok(report) => {
            if !report.audit.is_clean() {
                failures.push(format!("clean shards audit dirty after recovery: {}", report.audit.summary()));
            }
        }
        Err(e) => failures.push(format!("recovery audit failed: {e}")),
    }
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&dir);
    (
        vec![
            ("shards".into(), json!(manifest.shards.len())),
            ("faulted_audit_failed_cleanly".into(), json!(under_fault.is_err())),
            ("recovery_audit_ms".into(), json!(recovery_ms)),
        ],
        failures,
    )
}

fn socket_storm() -> Outcome {
    let mut failures = Vec::new();
    let cfg = ServeConfig {
        workers: 8,
        queue_capacity: 2, // deliberately tiny: force sheds
        max_batch: 4,
        ..ServeConfig::default()
    };
    let server = Server::start(exact_engine(), &cfg).expect("start storm server");
    let addr = server.addr();

    let clients = 8usize;
    let per_client = 40usize;
    let mut joins = Vec::new();
    for c in 0..clients {
        joins.push(std::thread::spawn(move || -> (Vec<u64>, usize, usize) {
            let (mut ok_lat, mut shed, mut malformed) = (Vec::new(), 0usize, 0usize);
            for i in 0..per_client {
                let body = format!("{{\"entity\": {}, \"k\": 5}}", (c * per_client + i) % 128);
                let t = Instant::now();
                match round_trip(addr, "POST", "/v1/align", &body, "") {
                    Ok((200, _, _)) => ok_lat.push(t.elapsed().as_micros() as u64),
                    Ok((503, _, b)) if b.contains("serve.admission") => shed += 1,
                    _ => malformed += 1,
                }
            }
            (ok_lat, shed, malformed)
        }));
    }
    let (mut all, mut shed, mut malformed) = (Vec::new(), 0usize, 0usize);
    for j in joins {
        let (lat, s, m) = j.join().expect("storm client");
        all.extend(lat);
        shed += s;
        malformed += m;
    }
    if malformed > 0 {
        failures.push(format!("{malformed} responses were not well-formed 200/503"));
    }
    if shed == 0 {
        failures.push("a queue of 2 under an 8-way storm shed nothing — admission control inert".into());
    }
    if all.is_empty() {
        failures.push("no request succeeded during the storm".into());
    }

    // Recovery: with the storm gone, a lone request is admitted.
    let t0 = Instant::now();
    match round_trip(addr, "POST", "/v1/align", r#"{"entity": 0, "k": 5}"#, "") {
        Ok((200, _, _)) => {}
        other => failures.push(format!("post-storm request not admitted: {other:?}")),
    }
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    server.shutdown();

    all.sort_unstable();
    (
        vec![
            ("requests".into(), json!(clients * per_client)),
            ("ok".into(), json!(all.len())),
            ("shed".into(), json!(shed)),
            ("shed_rate".into(), json!(shed as f64 / (clients * per_client) as f64)),
            ("p50_us".into(), json!(percentile(&all, 0.50))),
            ("p99_us".into(), json!(percentile(&all, 0.99))),
            ("recovery_ms".into(), json!(recovery_ms)),
        ],
        failures,
    )
}

fn breaker_degrade() -> Outcome {
    let mut failures = Vec::new();
    let cfg = ServeConfig {
        workers: 2,
        max_batch: 1,
        breaker_threshold: 3,
        breaker_probe_every: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(ivf_engine(), &cfg).expect("start breaker server");
    let addr = server.addr();

    // Six consecutive engine faults — past the threshold of 3.
    desalign_failpoint::install("serve.engine=err@1~6").expect("install");
    let t_fault = Instant::now();
    let mut lat_under_fault = Vec::new();
    for i in 0..6 {
        let body = format!("{{\"entity\": {i}, \"k\": 5}}");
        let t = Instant::now();
        match round_trip(addr, "POST", "/v1/align", &body, "") {
            Ok((200, _, _)) => lat_under_fault.push(t.elapsed().as_micros() as u64),
            other => failures.push(format!("fault {i}: fallback did not absorb the engine fault: {other:?}")),
        }
    }
    let opened = match round_trip(addr, "GET", "/readyz", "", "") {
        Ok((503, _, b)) if b.contains("\"breaker\":\"open\"") => true,
        other => {
            failures.push(format!("breaker did not open after 6 consecutive faults: {other:?}"));
            false
        }
    };

    // Faults stop; probes close the breaker.
    let mut recovery_ms = f64::NAN;
    if opened {
        let t0 = Instant::now();
        let mut closed = false;
        for _ in 0..10 {
            let _ = round_trip(addr, "POST", "/v1/align", r#"{"entity": 0, "k": 5}"#, "");
            if let Ok((200, _, _)) = round_trip(addr, "GET", "/readyz", "", "") {
                closed = true;
                recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
                break;
            }
        }
        if !closed {
            failures.push("breaker never closed after faults stopped".into());
        }
    }
    desalign_failpoint::clear();
    server.shutdown();

    lat_under_fault.sort_unstable();
    (
        vec![
            ("faults_injected".into(), json!(6)),
            ("breaker_opened".into(), json!(opened)),
            ("p99_under_fault_us".into(), json!(percentile(&lat_under_fault, 0.99))),
            ("fault_phase_ms".into(), json!(t_fault.elapsed().as_secs_f64() * 1e3)),
            ("recovery_ms".into(), json!(recovery_ms)),
        ],
        failures,
    )
}

fn reload_under_load() -> Outcome {
    let mut failures = Vec::new();
    let reloader = Box::new(move |_req: Option<&str>| {
        std::thread::sleep(Duration::from_millis(50)); // a non-trivial build
        Ok(exact_engine())
    });
    let cfg = ServeConfig { workers: 6, ..ServeConfig::default() };
    let server = Server::start_reloadable(exact_engine(), &cfg, reloader).expect("start reload server");
    let addr = server.addr();

    // Background load: hammer /v1/align while reloads happen. Every
    // response must be a complete 200.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut load_joins = Vec::new();
    for c in 0..3 {
        let stop = stop.clone();
        load_joins.push(std::thread::spawn(move || -> (usize, usize) {
            let (mut ok, mut bad) = (0usize, 0usize);
            let mut i = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let body = format!("{{\"entity\": {}, \"k\": 5}}", (c * 37 + i) % 128);
                match round_trip(addr, "POST", "/v1/align", &body, "") {
                    Ok((200, _, _)) => ok += 1,
                    _ => bad += 1,
                }
                i += 1;
            }
            (ok, bad)
        }));
    }
    std::thread::sleep(Duration::from_millis(100));

    // Clean reload under load.
    match round_trip(addr, "POST", "/admin/reload", "", "") {
        Ok((200, _, b)) if b.contains("\"generation\":2") => {}
        other => failures.push(format!("clean reload under load failed: {other:?}")),
    }
    std::thread::sleep(Duration::from_millis(100));

    // Faulted reload: validation fails after the build; the swap must
    // not happen and generation must stay at 2.
    desalign_failpoint::install("serve.reload=err").expect("install");
    let t0 = Instant::now();
    match round_trip(addr, "POST", "/admin/reload", "", "") {
        Ok((503, _, _)) => {}
        other => failures.push(format!("faulted reload must be a 503: {other:?}")),
    }
    desalign_failpoint::clear();
    let rollback_ms = t0.elapsed().as_secs_f64() * 1e3;
    match round_trip(addr, "GET", "/healthz", "", "") {
        Ok((200, _, b)) if b.contains("\"generation\":2") => {}
        other => failures.push(format!("rollback did not keep generation 2: {other:?}")),
    }
    std::thread::sleep(Duration::from_millis(100));

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let (mut ok, mut bad) = (0usize, 0usize);
    for j in load_joins {
        let (o, b) = j.join().expect("load client");
        ok += o;
        bad += b;
    }
    if bad > 0 {
        failures.push(format!("{bad} in-flight requests failed across the reloads"));
    }
    if ok == 0 {
        failures.push("load clients completed zero requests".into());
    }
    server.shutdown();
    (
        vec![
            ("load_requests_ok".into(), json!(ok)),
            ("load_requests_failed".into(), json!(bad)),
            ("rollback_ms".into(), json!(rollback_ms)),
        ],
        failures,
    )
}

// ---------------------------------------------------------------------

/// Replays every scenario, writes `BENCH_chaos.json` into `out_dir`, and
/// returns each failure as `<scenario>: <failure>`.
pub fn run(out_dir: &Path) -> Vec<String> {
    // Refuse to inherit a schedule from the environment, so every
    // scenario is seeded exactly as written above.
    desalign_failpoint::clear();

    let scenarios: [Scenario; 5] = [
        ("kill_mid_write", kill_mid_write),
        ("flaky_shard_audit", flaky_shard_audit),
        ("socket_storm", socket_storm),
        ("breaker_degrade", breaker_degrade),
        ("reload_under_load", reload_under_load),
    ];

    let mut panics = 0usize;
    let mut failed = 0usize;
    let mut all_failures = Vec::new();
    let mut reports: Vec<Json> = Vec::new();
    for (name, run) in scenarios {
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(run));
        desalign_failpoint::clear(); // never leak a schedule across scenarios
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (mut fields, failures, panicked) = match outcome {
            Ok((fields, failures)) => (fields, failures, false),
            Err(_) => (Vec::new(), vec!["scenario panicked".to_string()], true),
        };
        if panicked {
            panics += 1;
        }
        let passed = failures.is_empty() && !panicked;
        if !passed {
            failed += 1;
        }
        println!(
            "chaos_bench: {name}: {} ({elapsed_ms:.0}ms)",
            if passed { "ok" } else { "FAILED" }
        );
        let mut entry: Vec<(String, Json)> = vec![
            ("name".into(), json!(name)),
            ("passed".into(), json!(passed)),
            ("panicked".into(), json!(panicked)),
            ("elapsed_ms".into(), json!(elapsed_ms)),
            (
                "failures".into(),
                Json::Array(failures.iter().map(|f| json!(f.as_str())).collect()),
            ),
        ];
        entry.append(&mut fields);
        reports.push(Json::Object(entry));
        all_failures.extend(failures.into_iter().map(|f| format!("{name}: {f}")));
    }

    let doc = json!({
        "schema": "chaos-bench-v1",
        "scenarios": Json::Array(reports),
        "panics": panics,
        "failed": failed,
    });
    let mut failures = write_artifact(&out_dir.join("BENCH_chaos.json"), &doc);
    println!("chaos_bench: {panics} panics, {failed} failed scenarios");
    failures.extend(all_failures);
    failures
}
