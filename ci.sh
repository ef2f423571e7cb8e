#!/usr/bin/env bash
# Offline CI for the DESAlign workspace.
#
# The workspace has a zero-dependency policy (see README.md): every
# dependency is an in-repo path crate, so build and tests must pass with
# --offline on a machine that has never touched crates.io.
#
# Every contract that one process can check is a Rust test, run by the two
# `cargo test --workspace` legs below: the pinned f32 bits at any thread
# count and with telemetry on (tests/determinism.rs), and the torn-write
# resume (crates/core/tests/crash_safety.rs). Those legs build at the test
# profile; the pins are run once more under the release codegen below.
# What else stays here needs more than one process, or a bench run end to
# end. Each self-checking `desalign-bench` subcommand checks its own result
# after writing its artifact and exits non-zero on any failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

# `cargo test` also compiles the examples and runs the doctests.
echo "==> cargo test -q --offline (DESALIGN_THREADS=1, forced serial)"
DESALIGN_THREADS=1 cargo test -q --offline --workspace

echo "==> cargo test -q --offline (default thread count)"
cargo test -q --offline --workspace

# The pinned bits under the shipped codegen (opt-level 3, thin LTO,
# target-cpu=native); the legs above build tests at opt-level 1.
echo "==> pinned-bits tests under the release profile"
cargo test -q --offline --release --test determinism

# Documentation gate: every public item must be documented (each crate sets
# #![warn(missing_docs)], promoted to an error here) and every intra-doc link
# must resolve.
echo "==> cargo doc --offline (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

# Lint gate: clippy's deny-by-default lints (correctness bugs) fail the
# build; its warnings are reported, not fatal.
echo "==> cargo clippy --offline (errors fail, warnings reported)"
cargo clippy -q --offline --workspace --all-targets

# Bench smoke runs: tiny scales, artifacts redirected to scratch files so
# the committed full-scale BENCH_*.json files are untouched.

# Robustness sweep (docs/RELIABILITY.md, "Data-plane robustness"): the
# R_img/R_seed grids plus every injectable corruption class, repaired and
# trained end to end; fails on any non-finite metric.
echo "==> robustness_sweep (smoke)"
robustness_out=$(mktemp)
DESALIGN_SCALE=40 DESALIGN_EPOCHS=2 DESALIGN_ROBUSTNESS_OUT="$robustness_out" \
    cargo run -q --offline --release -p desalign-bench -- robustness_sweep >/dev/null
rm -f "$robustness_out"

# Telemetry report: the span/counter/sink wiring end to end; fails unless
# both output files are written and the reliability counters are listed.
echo "==> telemetry_report (smoke)"
telemetry_json=$(mktemp)
telemetry_jsonl=$(mktemp)
DESALIGN_SCALE=40 DESALIGN_EPOCHS=3 \
    DESALIGN_TELEMETRY_OUT="$telemetry_json" DESALIGN_METRICS_OUT="$telemetry_jsonl" \
    cargo run -q --offline --release -p desalign-bench -- telemetry_report >/dev/null
rm -f "$telemetry_json" "$telemetry_jsonl"

# Kernel bench: shipped and naive kernels agree bit for bit, every median is
# a positive finite timing, the tiled kernels beat their naive baselines,
# and the dispatched leg never falls far behind forced-serial.
echo "==> cargo bench --bench kernels (smoke)"
smoke_out=$(mktemp)
DESALIGN_BENCH_SAMPLES=2 DESALIGN_BENCH_MAX_N=500 DESALIGN_BENCH_OUT="$smoke_out" \
    cargo bench -q --offline --bench kernels -p desalign-bench >/dev/null
rm -f "$smoke_out"

# Retrieval (README.md "Sub-quadratic retrieval"): IVF holds recall@10 ≥
# 0.95 against the exact scan, and every QPS is finite.
echo "==> retrieval_bench (smoke)"
retrieval_out=$(mktemp)
DESALIGN_RETRIEVAL_SIZES=2000 DESALIGN_RETRIEVAL_QUERIES=200 DESALIGN_RETRIEVAL_SAMPLES=2 \
    DESALIGN_RETRIEVAL_OUT="$retrieval_out" \
    cargo run -q --offline --release -p desalign-bench -- retrieval_bench >/dev/null
rm -f "$retrieval_out"

# Serving restart probe (docs/SERVING.md "Determinism at the edge"): bring
# the server up on an ephemeral port, train + checkpoint, probe a fixed
# query through the loadgen smoke client (which also checks /healthz
# fields, /metrics and its robustness counters, and a malformed-body 400),
# drain gracefully, then restart from the same checkpoint under
# DESALIGN_THREADS=2 and probe again. The two probe bodies must be
# bit-identical: restarts and thread counts may not change a single
# response byte.
echo "==> desalign-serve smoke (restart + thread-count bit-identity)"
serve_ckpt=$(mktemp -u)
serve_probe1=$(mktemp)
serve_probe2=$(mktemp)
for leg in 1 2; do
    serve_log=$(mktemp)
    env DESALIGN_SERVE_CHECKPOINT="$serve_ckpt" DESALIGN_SCALE=40 DESALIGN_EPOCHS=2 \
        DESALIGN_THREADS=$leg \
        cargo run -q --offline --release -p desalign-serve --bin serve >"$serve_log" 2>/dev/null &
    serve_pid=$!
    for _ in $(seq 1 240); do
        grep -q "listening on" "$serve_log" && break
        sleep 0.5
    done
    grep -q "listening on" "$serve_log" || { echo "    serve (leg $leg) did not come up"; kill "$serve_pid" 2>/dev/null; exit 1; }
    serve_addr=$(grep "listening on" "$serve_log" | awk '{print $NF}')
    probe_var=serve_probe$leg
    env DESALIGN_SERVE_ADDR="$serve_addr" DESALIGN_LOADGEN_PROBE="${!probe_var}" DESALIGN_LOADGEN_SHUTDOWN=1 \
        cargo run -q --offline --release -p desalign-serve --bin loadgen >/dev/null
    wait "$serve_pid"
    grep -q "drained" "$serve_log" || { echo "    serve (leg $leg) did not drain gracefully"; exit 1; }
    rm -f "$serve_log"
done
test -s "$serve_probe1" || { echo "    loadgen wrote no probe"; exit 1; }
if ! cmp -s "$serve_probe1" "$serve_probe2"; then
    echo "    SERVING DIVERGENCE: restart/thread-count changed response bytes"
    diff "$serve_probe1" "$serve_probe2" || true
    exit 1
fi
echo "    probe bit-identical across restart and DESALIGN_THREADS=2"
rm -f "$serve_probe1" "$serve_probe2" "$serve_ckpt" "$serve_ckpt.tmp"

# Serving latency bench: in-process servers; every (max_batch ×
# thread-count) leg and every open-loop leg reports finite positive
# p50/p99/QPS with zero failed requests.
echo "==> loadgen serve bench (smoke)"
serve_bench_out=$(mktemp)
DESALIGN_LOADGEN_CLIENTS=2 DESALIGN_LOADGEN_REQUESTS=40 DESALIGN_BENCH_OUT="$serve_bench_out" \
    cargo run -q --offline --release -p desalign-serve --bin loadgen >/dev/null
rm -f "$serve_bench_out"

# Chaos replay (docs/RELIABILITY.md): torn writes, flaky shard reads, a
# socket storm against a tiny admission queue, an engine-fault breaker trip,
# and reloads under load; every scenario passes with zero panics.
echo "==> chaos_bench (fault replay)"
chaos_out=$(mktemp)
DESALIGN_CHAOS_OUT="$chaos_out" \
    cargo run -q --offline --release -p desalign-serve --bin chaos_bench >/dev/null
rm -f "$chaos_out"

# Streaming data plane (docs/DATA_FORMAT.md). First: byte-identity — the
# sharded layout must be a lossless encoding. Generate a split straight to
# shards through the CLI, export it back to JSON, and cmp against the same
# split generated in memory: a single differing byte fails.
echo "==> streaming data plane (shard round-trip byte-identity)"
stream_dir=$(mktemp -d)
cargo run -q --offline --release --bin desalign-cli -- \
    generate --preset fbdb15k --scale 80 --seed 11 --out "$stream_dir/direct.json" >/dev/null
cargo run -q --offline --release --bin desalign-cli -- \
    shard --preset fbdb15k --scale 80 --seed 11 --out "$stream_dir/shards" --shard-entities 30 >/dev/null
cargo run -q --offline --release --bin desalign-cli -- \
    shard-audit --dir "$stream_dir/shards" --policy strict >/dev/null
cargo run -q --offline --release --bin desalign-cli -- \
    shard-export --dir "$stream_dir/shards" --out "$stream_dir/roundtrip.json" >/dev/null
if ! cmp -s "$stream_dir/direct.json" "$stream_dir/roundtrip.json"; then
    echo "    STREAMING DIVERGENCE: shard round-trip JSON differs from the in-memory split"
    exit 1
fi
echo "    shard round-trip is byte-identical to the in-memory JSON path"
rm -rf "$stream_dir"

# Second: the streaming bench — streamed fingerprints match the in-memory
# dataset at every scale, and the audit's peak payload stays bounded by the
# largest shard while the JSON artifact grows with scale.
echo "==> streaming_bench (smoke)"
streaming_out=$(mktemp)
DESALIGN_STREAMING_SIZES=500,2000 DESALIGN_STREAMING_SHARD_ENTITIES=200 \
    DESALIGN_STREAMING_SAMPLES=2 DESALIGN_STREAMING_OUT="$streaming_out" \
    cargo run -q --offline --release -p desalign-bench -- streaming_bench >/dev/null
rm -f "$streaming_out"

# Formatting is checked only when a rustfmt binary is installed — it is not
# part of the zero-dependency contract. The check is advisory: the codebase
# predates rustfmt enforcement and deliberately keeps a denser style than
# rustfmt's defaults, so drift is reported without failing the build.
if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check (advisory)"
    if ! cargo fmt --all -- --check >/dev/null 2>&1; then
        echo "    formatting drift detected (non-fatal); run 'cargo fmt --all' to inspect"
    fi
else
    echo "==> cargo fmt not available; skipping format check"
fi

echo "CI OK"
