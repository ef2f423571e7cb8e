#!/usr/bin/env bash
# Offline CI for the DESAlign workspace.
#
# The workspace has a zero-dependency policy (see README.md): every
# dependency is an in-repo path crate, so build and tests must pass with
# --offline on a machine that has never touched crates.io.
#
# Every contract that one process can check is a Rust test, run by the two
# `cargo test --workspace` legs below: the pinned f32 bits at any thread
# count and with telemetry on (tests/determinism.rs), the torn-write
# resume (crates/core/tests/crash_safety.rs), and every self-checking
# `desalign-bench` bench at small sizes (crates/bench/tests/ and the bench
# lib's unit tests). Those legs build at the test profile; the pins are run
# once more under the release codegen below. What else stays here needs
# more than one process, or a cargo bench target.
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

# Kernel bench smoke: tiny sizes, the table redirected to a scratch file so
# the committed BENCH_kernels.json is untouched. Shipped and naive kernels
# agree bit for bit, every median is a positive finite timing, the tiled
# kernels beat their naive baselines, and the dispatched leg never falls
# far behind forced-serial.
echo "==> cargo bench --bench kernels (smoke)"
smoke_out=$(mktemp)
DESALIGN_BENCH_SAMPLES=2 DESALIGN_BENCH_MAX_N=500 DESALIGN_BENCH_OUT="$smoke_out" \
    cargo bench -q --offline --bench kernels -p desalign-bench >/dev/null
rm -f "$smoke_out"

# Serving restart probe (docs/SERVING.md "Determinism at the edge"): bring
# the server up on an ephemeral port, train + checkpoint, probe a fixed
# query through the loadgen smoke client (which also checks /healthz
# fields, /metrics and its robustness counters, and a malformed-body 400,
# then drains the server gracefully), then restart from the same checkpoint under
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
    env DESALIGN_SERVE_ADDR="$serve_addr" DESALIGN_LOADGEN_PROBE="${!probe_var}" \
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

# Streaming data plane (docs/DATA_FORMAT.md): byte-identity — the
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
