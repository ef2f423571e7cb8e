//! Shutdown races: `/admin/shutdown` arriving while a batch is in flight,
//! and while a hot reload is mid-build. The drain contract — every
//! admitted request gets a complete response, the drain finishes, nothing
//! panics — must hold in both interleavings.
//!
//! Failpoint schedules are process-global, so every test takes
//! `desalign_failpoint::exclusive()`.

use desalign_serve::{round_trip, AlignEngine, ServeConfig, Server};
use desalign_testkit::synth_matrix;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn engine() -> AlignEngine {
    AlignEngine::from_embeddings(
        synth_matrix(48, 16, 3),
        synth_matrix(64, 16, 5),
        &desalign_eval::RetrievalConfig::default(),
        64,
    )
    .unwrap()
}

#[test]
fn shutdown_racing_an_in_flight_batch_answers_the_batch() {
    let _guard = desalign_failpoint::exclusive();
    let cfg = ServeConfig { workers: 3, max_batch: 4, ..ServeConfig::default() };
    let server = Server::start(engine(), &cfg).unwrap();
    let addr = server.addr();

    // Hold the first engine batch for 400ms, then race a shutdown into
    // the middle of it.
    desalign_failpoint::install("serve.engine=delay:400@1").unwrap();
    let slow = std::thread::spawn(move || round_trip(addr, "POST", "/v1/align", r#"{"entity": 3, "k": 4}"#, "").unwrap());
    std::thread::sleep(Duration::from_millis(100));
    let (status, _, body) = round_trip(addr, "POST", "/admin/shutdown", "", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("draining"), "{body}");

    // The in-flight request must still receive its complete answer —
    // drain means "finish what was admitted", not "drop it".
    let (status, _, body) = slow.join().unwrap();
    assert_eq!(status, 200, "in-flight request dropped during drain: {body}");
    assert!(body.contains("candidates"), "{body}");

    // The drain itself completes (bounded by the read timeout).
    server.wait();
    desalign_failpoint::clear();
    assert!(
        TcpStream::connect(addr).map(|mut s| {
            let _ = write!(s, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            out.is_empty()
        }).unwrap_or(true),
        "a drained server must not answer new requests"
    );
}

#[test]
fn shutdown_racing_a_mid_build_reload_drains_cleanly() {
    let _guard = desalign_failpoint::exclusive();
    let reloader = Box::new(move |_req: Option<&str>| {
        // A deliberately slow candidate build, so the shutdown lands
        // while the reload is in progress.
        std::thread::sleep(Duration::from_millis(300));
        Ok(engine())
    });
    let cfg = ServeConfig { workers: 3, ..ServeConfig::default() };
    let server = Server::start_reloadable(engine(), &cfg, reloader).unwrap();
    let addr = server.addr();

    let reload = std::thread::spawn(move || round_trip(addr, "POST", "/admin/reload", "", "").unwrap());
    std::thread::sleep(Duration::from_millis(100));
    let (status, _, body) = round_trip(addr, "POST", "/admin/shutdown", "", "").unwrap();
    assert_eq!(status, 200, "{body}");

    // The reload admitted before the drain still completes with a
    // well-formed response (the swap lands; the server then drains).
    let (status, _, body) = reload.join().unwrap();
    assert_eq!(status, 200, "mid-drain reload must still answer: {body}");
    assert!(body.contains("\"generation\":2"), "{body}");

    // No hang: workers exit and the batcher drains.
    server.wait();
}
