//! Determinism at the edge: the serving contract promises that response
//! *bytes* for a given query are a pure function of the loaded embeddings
//! — independent of thread count, server restarts, batch composition,
//! cache temperature, and connection interleaving. These tests enforce it
//! on real sockets.

use desalign_serve::{round_trip, AlignEngine, AlignQuery, Batcher, ServeConfig, Server};
use desalign_testkit::synth_matrix;
use std::sync::Arc;
use std::time::Duration;

fn engine(cache: usize) -> AlignEngine {
    AlignEngine::from_embeddings(
        synth_matrix(48, 16, 3),
        synth_matrix(64, 16, 5),
        &desalign_eval::RetrievalConfig::default(),
        cache,
    )
    .unwrap()
}

/// One `POST /v1/align` on a fresh connection; asserts a 200 and returns
/// the body.
fn query_once(server: &Server, body: &str) -> String {
    let (status, head, body) = round_trip(server.addr(), "POST", "/v1/align", body, "").unwrap();
    assert_eq!(status, 200, "{head}\r\n\r\n{body}");
    body
}

/// Thread overrides are process-wide, so every phase of the sweep lives in
/// this one test — Rust runs tests in one process.
#[test]
fn responses_are_bit_identical_across_threads_restarts_and_batching() {
    let q = r#"{"entity": 11, "k": 7}"#;
    let mut bodies = Vec::new();

    for (threads, max_batch) in [(1usize, 1usize), (2, 1), (4, 16), (1, 16)] {
        desalign_parallel::set_thread_override(Some(threads));
        // A fresh server per leg doubles as the restart check: same
        // embeddings, new process-state, same bytes.
        let cfg = ServeConfig { workers: 2, max_batch, ..ServeConfig::default() };
        let server = Server::start(engine(8), &cfg).unwrap();
        bodies.push(query_once(&server, q));
        server.shutdown();
    }
    desalign_parallel::set_thread_override(None);

    for (i, b) in bodies.iter().enumerate().skip(1) {
        assert_eq!(b, &bodies[0], "leg {i} diverged from leg 0");
    }
    assert!(bodies[0].contains("\"candidates\""));
}

#[test]
fn cache_temperature_cannot_change_bytes() {
    let server = Server::start(engine(4), &ServeConfig { workers: 2, ..ServeConfig::default() }).unwrap();
    let q = r#"{"entity": 3, "k": 5}"#;
    let cold = query_once(&server, q);
    // Churn the 4-entry cache past capacity, then re-ask.
    for id in 0..16 {
        query_once(&server, &format!("{{\"entity\": {id}, \"k\": 1}}"));
    }
    let warm = query_once(&server, q);
    assert_eq!(cold, warm, "cache state leaked into response bytes");
    server.shutdown();
}

#[test]
fn batch_composition_is_invisible_concurrent_vs_sequential() {
    let eng = Arc::new(engine(16));
    // Sequential ground truth straight from the engine.
    let singles: Vec<_> = (0..12usize)
        .map(|i| eng.answer(&AlignQuery::Entity(i % 48), 1 + i % 5).unwrap())
        .collect();

    // The same queries racing through a wide batching window.
    let (batcher, handle) = Batcher::spawn(eng.clone(), 8, Duration::from_millis(5));
    let mut joins = Vec::new();
    for i in 0..12usize {
        let b = batcher.clone();
        joins.push(std::thread::spawn(move || b.submit(AlignQuery::Entity(i % 48), 1 + i % 5).unwrap()));
    }
    for (i, j) in joins.into_iter().enumerate() {
        assert_eq!(j.join().unwrap(), singles[i], "query {i} changed under batching");
    }
    drop(batcher);
    handle.join().unwrap();
}

#[test]
fn entity_vector_and_wire_roundtrips_agree() {
    // A query sent as an entity id and the same row sent as an explicit
    // vector must serialize to identical candidate lists on the wire.
    let eng = engine(0);
    let row = synth_matrix(48, 16, 3).row(3).to_vec();
    let server = Server::start(engine(0), &ServeConfig { workers: 2, ..ServeConfig::default() }).unwrap();
    let by_id = query_once(&server, r#"{"entity": 3, "k": 6}"#);
    let vec_json: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
    let by_vec = query_once(&server, &format!("{{\"vector\": [{}], \"k\": 6}}", vec_json.join(", ")));
    assert_eq!(by_id, by_vec, "entity-id and vector featurization disagree on the wire");
    drop(eng);
    server.shutdown();
}

