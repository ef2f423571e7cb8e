//! Overload and fault-injection behaviour over real sockets: admission
//! shedding, deadline budgets, the circuit breaker, and hot checkpoint
//! reload with rollback. Every scenario here drives a seeded failpoint
//! schedule (`desalign-failpoint`) and asserts the *response contract*:
//! well-formed HTTP with the right status, never a hang or a panic.
//!
//! Failpoint schedules are process-global, so every test takes
//! `desalign_failpoint::exclusive()`.

use desalign_serve::{round_trip, AlignEngine, ServeConfig, Server};
use desalign_testkit::synth_matrix;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn exact_engine() -> AlignEngine {
    AlignEngine::from_embeddings(
        synth_matrix(48, 16, 3),
        synth_matrix(64, 16, 5),
        &desalign_eval::RetrievalConfig::default(),
        64,
    )
    .unwrap()
}

fn ivf_engine() -> AlignEngine {
    let cfg = desalign_eval::RetrievalConfig {
        kind: desalign_eval::IndexKind::Ivf,
        ivf: desalign_eval::IvfParams { nlist: 4, nprobe: 2, kmeans_iters: 2, seed: 9 },
    };
    AlignEngine::from_embeddings(synth_matrix(48, 16, 3), synth_matrix(64, 16, 5), &cfg, 64).unwrap()
}

#[test]
fn saturated_queue_sheds_with_503_and_retry_after() {
    let _guard = desalign_failpoint::exclusive();
    let cfg = ServeConfig { workers: 2, queue_capacity: 1, max_batch: 1, ..ServeConfig::default() };
    let server = Server::start(exact_engine(), &cfg).unwrap();
    let addr = server.addr();

    // Hold the first query in the engine for 600ms so the second one
    // arrives while the queue slot is occupied.
    desalign_failpoint::install("serve.engine=delay:600@1").unwrap();
    let slow = std::thread::spawn(move || round_trip(addr, "POST", "/v1/align", r#"{"entity": 1, "k": 3}"#, "").unwrap());
    std::thread::sleep(Duration::from_millis(150));
    let (status, head, body) = round_trip(addr, "POST", "/v1/align", r#"{"entity": 2, "k": 3}"#, "").unwrap();
    assert_eq!(status, 503, "over-capacity query must be shed: {body}");
    assert!(head.contains("Retry-After: 1"), "shed response must carry Retry-After, got:\n{head}");
    assert!(body.contains("serve.admission"), "{body}");

    // The admitted slow query still completes normally.
    let (status, _, body) = slow.join().unwrap();
    assert_eq!(status, 200, "{body}");
    desalign_failpoint::clear();

    // Capacity freed: the next query is admitted again.
    let (status, _, body) = round_trip(addr, "POST", "/v1/align", r#"{"entity": 2, "k": 3}"#, "").unwrap();
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn zero_deadline_budget_is_shed_before_scoring() {
    let _guard = desalign_failpoint::exclusive();
    let server = Server::start(exact_engine(), &ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
    let (status, _, body) = round_trip(
        server.addr(),
        "POST",
        "/v1/align",
        r#"{"entity": 0, "k": 3}"#,
        "x-desalign-deadline-ms: 0\r\n",
    ).unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("serve.deadline"), "expired budget must surface the deadline location: {body}");
    // A generous budget answers normally.
    let (status, _, body) = round_trip(
        server.addr(),
        "POST",
        "/v1/align",
        r#"{"entity": 0, "k": 3}"#,
        "x-desalign-deadline-ms: 30000\r\n",
    ).unwrap();
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn breaker_degrades_readiness_and_recovers_when_faults_stop() {
    let _guard = desalign_failpoint::exclusive();
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 1,
        breaker_threshold: 2,
        breaker_probe_every: 1, // every open batch is a probe → fast recovery
        ..ServeConfig::default()
    };
    let server = Server::start(ivf_engine(), &cfg).unwrap();
    let addr = server.addr();

    let (status, _, body) = round_trip(addr, "GET", "/readyz", "", "").unwrap();
    assert_eq!(status, 200, "{body}");

    // Two consecutive engine faults: the exhaustive-scan fallback absorbs
    // both (clients still get 200s), and the breaker opens.
    desalign_failpoint::install("serve.engine=err@1~2").unwrap();
    for i in 0..2 {
        let (status, _, body) = round_trip(addr, "POST", "/v1/align", r#"{"entity": 1, "k": 3}"#, "").unwrap();
        assert_eq!(status, 200, "fault {i} must be absorbed by the fallback: {body}");
    }
    let (status, _, body) = round_trip(addr, "GET", "/readyz", "", "").unwrap();
    assert_eq!(status, 503, "open breaker must fail readiness: {body}");
    assert!(body.contains("\"breaker\":\"open\""), "{body}");
    let (_, _, health) = round_trip(addr, "GET", "/healthz", "", "").unwrap();
    assert!(health.contains("\"breaker\":\"open\""), "liveness stays 200 but reports state: {health}");

    // Faults stop (schedule range exhausted): the next align is a
    // half-open probe, succeeds, and closes the breaker.
    let (status, _, body) = round_trip(addr, "POST", "/v1/align", r#"{"entity": 1, "k": 3}"#, "").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = round_trip(addr, "GET", "/readyz", "", "").unwrap();
    assert_eq!(status, 200, "breaker must close after a clean probe: {body}");
    desalign_failpoint::clear();
    server.shutdown();
}

#[test]
fn reload_swaps_generations_and_faulted_reload_rolls_back() {
    let _guard = desalign_failpoint::exclusive();
    let calls: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(Vec::new()));
    let calls_in = calls.clone();
    let build_count = Arc::new(AtomicUsize::new(0));
    let build_count_in = build_count.clone();
    let reloader = Box::new(move |requested: Option<&str>| {
        calls_in.lock().unwrap().push(requested.map(str::to_string));
        build_count_in.fetch_add(1, Ordering::SeqCst);
        Ok(exact_engine())
    });
    let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
    let server = Server::start_reloadable(exact_engine(), &cfg, reloader).unwrap();
    let addr = server.addr();

    let (_, _, health) = round_trip(addr, "GET", "/healthz", "", "").unwrap();
    assert!(health.contains("\"generation\":1"), "{health}");

    // Clean reload: generation bumps, the server keeps answering.
    let (status, _, body) = round_trip(addr, "POST", "/admin/reload", "", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":2"), "{body}");
    let (status, _, body) = round_trip(addr, "POST", "/v1/align", r#"{"entity": 0, "k": 3}"#, "").unwrap();
    assert_eq!(status, 200, "{body}");

    // Reload with an explicit checkpoint path: the path reaches the
    // reloader verbatim.
    let (status, _, body) = round_trip(addr, "POST", "/admin/reload", r#"{"checkpoint": "/tmp/other.ckpt"}"#, "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":3"), "{body}");
    assert_eq!(
        calls.lock().unwrap().as_slice(),
        &[None, Some("/tmp/other.ckpt".to_string())],
        "reloader must see the requested path"
    );

    // Faulted reload (validation failpoint after a clean build): 503,
    // no swap, and the old generation keeps serving.
    desalign_failpoint::install("serve.reload=err").unwrap();
    let (status, _, body) = round_trip(addr, "POST", "/admin/reload", "", "").unwrap();
    assert_eq!(status, 503, "faulted reload must be a 503: {body}");
    desalign_failpoint::clear();
    assert_eq!(build_count.load(Ordering::SeqCst), 3, "the candidate was built, then discarded");
    let (_, _, health) = round_trip(addr, "GET", "/healthz", "", "").unwrap();
    assert!(health.contains("\"generation\":3"), "rollback must keep the last good generation: {health}");
    let (status, _, body) = round_trip(addr, "POST", "/v1/align", r#"{"entity": 0, "k": 3}"#, "").unwrap();
    assert_eq!(status, 200, "serving must continue after a failed reload: {body}");

    // Malformed reload bodies are 400s, not faults.
    let (status, _, body) = round_trip(addr, "POST", "/admin/reload", r#"{"checkpoint": 7}"#, "").unwrap();
    assert_eq!(status, 400, "{body}");
    server.shutdown();
}

#[test]
fn reload_without_a_reloader_is_a_clean_503() {
    let _guard = desalign_failpoint::exclusive();
    let server = Server::start(exact_engine(), &ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
    let (status, _, body) = round_trip(server.addr(), "POST", "/admin/reload", "", "").unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("without a reloader"), "{body}");
    server.shutdown();
}

#[test]
fn socket_read_faults_never_kill_the_server() {
    let _guard = desalign_failpoint::exclusive();
    let server = Server::start(exact_engine(), &ServeConfig { workers: 2, ..ServeConfig::default() }).unwrap();
    let addr = server.addr();
    // Every 3rd socket read faults with a hard error, the ones between
    // with a spurious timeout. Interleaved queries must still succeed
    // (fresh connections get fresh reads), and the server must survive.
    desalign_failpoint::install("serve.read=err@%3").unwrap();
    let mut ok = 0;
    for i in 0..12 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let body = format!("{{\"entity\": {}, \"k\": 2}}", i % 8);
        // One write per request: `write!` would issue one per format piece,
        // making the number of server reads (and so which of them the
        // schedule faults) vary from run to run.
        let request = format!("POST /v1/align HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}", body.len());
        let _ = s.write_all(request.as_bytes());
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        if out.starts_with("HTTP/1.1 200") {
            ok += 1;
        }
    }
    desalign_failpoint::clear();
    assert!(ok >= 6, "most queries should survive a 1-in-3 flaky read, got {ok}/12");
    // And the server still serves cleanly afterwards.
    let (status, _, body) = round_trip(addr, "POST", "/v1/align", r#"{"entity": 0, "k": 2}"#, "").unwrap();
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}
