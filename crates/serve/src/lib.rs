//! # desalign-serve — alignment-as-a-service
//!
//! An online inference server for trained DESAlign models: load a
//! digest-checked checkpoint once, precompute the per-round L2-normalized
//! SP-state retrieval embeddings once, then answer top-k alignment
//! queries over plain HTTP/1.1 — std-only, like everything else in this
//! workspace. The wire protocol, configuration knobs, and operational
//! runbook are specified in `docs/SERVING.md`; this crate is the
//! implementation of that contract.
//!
//! ## Shape
//!
//! - [`AlignEngine`] — the read-only core: a query-side embedding table,
//!   an `ItemIndex` over the target corpus (exact or IVF, per the
//!   checkpoint's retrieval settings) whose exhaustive scan is the
//!   degraded-mode fallback for IVF engines, and an [`LruCache`] for
//!   entity-id featurizations.
//! - [`EngineSlot`] — the mutable cell between batcher and engine: an
//!   atomically swappable `Arc<AlignEngine>` (hot checkpoint reload) plus
//!   a circuit breaker that routes batches to the exhaustive scan after
//!   [`BreakerConfig::threshold`] consecutive engine faults and closes
//!   again on a clean half-open probe.
//! - [`Batcher`] — time/size-windowed coalescing: concurrent requests
//!   merge into one `search_batch` call without changing a single
//!   response bit (each row is scored independently). Queries carrying a
//!   deadline budget are shed at dequeue instead of scored late.
//! - [`Server`] — the TCP front: worker threads, bounded admission
//!   (deterministic 503 + `Retry-After` shedding), `POST /v1/align`,
//!   `GET /healthz` (liveness), `GET /readyz` (readiness: drain,
//!   breaker, queue room), `GET /metrics`, `POST /admin/reload`
//!   (digest-checked engine swap with rollback-by-absence, when started
//!   via [`Server::start_reloadable`]), `POST /admin/shutdown`, typed
//!   errors mapped to 4xx/5xx, graceful drain.
//! - [`Client`] — a minimal keep-alive HTTP/1.1 client, for the `loadgen`
//!   smoke client and the `serve_bench` latency bench.
//!
//! Every I/O boundary evaluates `desalign-failpoint` sites
//! (`serve.read`, `serve.write`, `serve.engine`, `serve.reload`), so the
//! fault paths above are driven deterministically by the `faults_overload`
//! / `shutdown_race` suites and `desalign-bench chaos_bench` — see
//! `docs/RELIABILITY.md`.
//!
//! ## Determinism at the edge
//!
//! The same query against the same checkpoint returns bit-identical
//! scores regardless of `DESALIGN_THREADS`, batch composition, cache
//! state, or server restarts — the serving path reuses the exact scan
//! kernels and normalization the evaluation harness uses, and every
//! source of nondeterminism (batching, caching, concurrency) is
//! confined to scheduling, never arithmetic.
//!
//! ## One query, end to end
//!
//! ```
//! use desalign_serve::{AlignEngine, ServeConfig, Server};
//! use desalign_eval::RetrievalConfig;
//! use desalign_tensor::Matrix;
//! use std::io::{Read, Write};
//! use std::net::TcpStream;
//!
//! // Serving embeddings normally come from a checkpoint
//! // (`AlignEngine::from_model`); explicit matrices keep this example
//! // self-contained.
//! let queries = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
//! let items = Matrix::from_rows(&[&[1.0, 0.0], &[0.7, 0.7], &[0.0, 1.0]]);
//! let engine = AlignEngine::from_embeddings(queries, items, &RetrievalConfig::default(), 16).unwrap();
//!
//! // Port 0 → the OS picks an ephemeral port; `addr()` reports it.
//! let server = Server::start(engine, &ServeConfig::default()).unwrap();
//!
//! let mut conn = TcpStream::connect(server.addr()).unwrap();
//! let body = r#"{"entity": 0, "k": 2}"#;
//! write!(
//!     conn,
//!     "POST /v1/align HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
//!     body.len(),
//!     body
//! )
//! .unwrap();
//! let mut response = String::new();
//! conn.read_to_string(&mut response).unwrap();
//! assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
//! assert!(response.contains("\"candidates\""), "{response}");
//!
//! server.shutdown(); // graceful drain: in-flight requests finish first
//! ```

mod batch;
mod cache;
mod client;
mod engine;
mod http;
mod server;
mod slot;

pub use batch::Batcher;
pub use cache::LruCache;
pub use client::{round_trip, Client};
pub use engine::{AlignAnswer, AlignEngine, AlignQuery};
pub use http::{write_response, write_response_with, Conn, HttpRequest, ReadOutcome, MAX_HEADER_BYTES};
pub use server::{Reloader, ServeConfig, Server};
pub use slot::{BreakerConfig, EngineSlot};
