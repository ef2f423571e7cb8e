#!/usr/bin/env bash
# Offline CI for the DESAlign workspace.
#
# The workspace has a zero-dependency policy (see README.md): every
# dependency is an in-repo path crate, so build and tests must pass with
# --offline on a machine that has never touched crates.io.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

# Examples are documentation that compiles; keep them compiling.
echo "==> cargo build --examples --offline"
cargo build -q --offline --workspace --examples

echo "==> cargo test -q --offline (DESALIGN_THREADS=1, forced serial)"
DESALIGN_THREADS=1 cargo test -q --offline --workspace

echo "==> cargo test -q --offline (default thread count)"
cargo test -q --offline --workspace

# Documentation gates: every public item must be documented (each crate sets
# #![warn(missing_docs)], promoted to an error here) and every intra-doc link
# must resolve. Doc examples are executable and must pass.
echo "==> cargo doc --offline (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

echo "==> cargo test --doc --offline"
cargo test -q --offline --workspace --doc

# Determinism gate for desalign-parallel: an end-to-end pipeline fingerprint
# (dataset → training → Semantic Propagation → metrics, hashed at the f32
# bit level) must not depend on the thread count.
echo "==> determinism fingerprint (serial vs default threads)"
fp_serial=$(DESALIGN_THREADS=1 cargo run -q --offline --release -p desalign-bench --bin determinism_fingerprint)
fp_default=$(cargo run -q --offline --release -p desalign-bench --bin determinism_fingerprint)
if [ "$fp_serial" != "$fp_default" ]; then
    echo "    DETERMINISM FAILURE: serial fingerprint $fp_serial != default $fp_default"
    exit 1
fi
echo "    fingerprint $fp_serial (identical)"

# Telemetry must be a pure observer: turning it on may not perturb a single
# bit of the training pipeline.
echo "==> determinism fingerprint (telemetry on vs off)"
fp_telemetry=$(DESALIGN_TELEMETRY=1 cargo run -q --offline --release -p desalign-bench --bin determinism_fingerprint)
if [ "$fp_telemetry" != "$fp_default" ]; then
    echo "    TELEMETRY PERTURBATION: fingerprint $fp_telemetry with DESALIGN_TELEMETRY=1 != $fp_default without"
    exit 1
fi
echo "    fingerprint $fp_telemetry (identical with telemetry on)"

# Failpoint instrumentation must be free when off (docs/RELIABILITY.md):
# with DESALIGN_FAILPOINTS set but empty every site is one atomic load and
# no behaviour may change — the end-to-end fingerprint must match the run
# without the variable, bit for bit.
echo "==> determinism fingerprint (failpoints present but inactive)"
fp_failpoints=$(DESALIGN_FAILPOINTS="" cargo run -q --offline --release -p desalign-bench --bin determinism_fingerprint)
if [ "$fp_failpoints" != "$fp_default" ]; then
    echo "    FAILPOINT PERTURBATION: fingerprint $fp_failpoints with DESALIGN_FAILPOINTS=\"\" != $fp_default without"
    exit 1
fi
echo "    fingerprint $fp_failpoints (identical with failpoints compiled in, schedule empty)"

# Crash-safety gate (docs/RELIABILITY.md): a run that checkpoints, loses a
# mid-write overwrite to a simulated kill, and resumes in a fresh process
# must reproduce the straight run bit for bit.
echo "==> resume fingerprint (straight vs kill-and-resume)"
resume_ckpt=$(mktemp -u)
fp_straight=$(DESALIGN_RESUME_MODE=straight cargo run -q --offline --release -p desalign-bench --bin resume_fingerprint)
fp_resume=$(DESALIGN_RESUME_MODE=resume DESALIGN_CHECKPOINT="$resume_ckpt" \
    cargo run -q --offline --release -p desalign-bench --bin resume_fingerprint)
rm -f "$resume_ckpt" "$resume_ckpt.tmp"
if [ "$fp_straight" != "$fp_resume" ]; then
    echo "    RESUME DIVERGENCE: straight fingerprint $fp_straight != kill-and-resume $fp_resume"
    exit 1
fi
echo "    fingerprint $fp_straight (identical after kill-and-resume)"

# Data-plane robustness gate (docs/RELIABILITY.md, "Data-plane
# robustness"): the robustness sweep (R_img/R_seed degradation grids plus
# every injectable corruption class, repaired and trained end to end) must
# complete and write an artifact free of non-finite metrics. (That a
# Repair audit of clean data is a bit-identical no-op, on the
# determinism_fingerprint dataset too, is the Rust test
# audit::tests::repair_of_clean_data_is_a_noop.)
echo "==> robustness_sweep (smoke)"
robustness_out=$(mktemp)
DESALIGN_SCALE=40 DESALIGN_EPOCHS=2 DESALIGN_ROBUSTNESS_OUT="$robustness_out" \
    cargo run -q --offline --release -p desalign-bench --bin robustness_sweep >/dev/null
test -s "$robustness_out" || { echo "    robustness_sweep did not write its JSON artifact"; exit 1; }
if grep -q "NaN\|Infinity" "$robustness_out"; then
    echo "    NON-FINITE METRICS: robustness_sweep artifact contains NaN/Infinity"
    exit 1
fi
rm -f "$robustness_out"

# Telemetry report smoke: tiny scale — proves the span/counter/sink wiring
# end to end (trains a few epochs, prints the span tree, writes the JSON and
# JSONL artifacts to scratch files). The stdout counter dump must list the
# reliability counters registered by the trainer.
echo "==> telemetry_report (smoke)"
telemetry_json=$(mktemp)
telemetry_jsonl=$(mktemp)
telemetry_stdout=$(mktemp)
DESALIGN_SCALE=40 DESALIGN_EPOCHS=3 \
    DESALIGN_TELEMETRY_OUT="$telemetry_json" DESALIGN_METRICS_OUT="$telemetry_jsonl" \
    cargo run -q --offline --release -p desalign-bench --bin telemetry_report >"$telemetry_stdout"
test -s "$telemetry_json" || { echo "    telemetry_report did not write its JSON report"; exit 1; }
test -s "$telemetry_jsonl" || { echo "    telemetry_report did not stream JSONL metrics"; exit 1; }
for counter in train.resumes train.rollbacks tape.ws_fresh tape.ws_reused; do
    grep -q "$counter" "$telemetry_stdout" || { echo "    telemetry_report does not list the $counter counter"; exit 1; }
done
rm -f "$telemetry_json" "$telemetry_jsonl" "$telemetry_stdout"

# Kernel bench smoke + gate: tiny scale and sample count, output redirected
# to a scratch file so the committed full-scale BENCH_kernels.json is
# untouched. DESALIGN_KERNEL_GATE=1 makes the bench itself assert (mirrors
# the retrieval gate): naive and shipped matmul/matmul_nt/matmul_tn/spmm
# agree bit for bit, every median is a positive finite timing, the tiled
# matmul/matmul_nt/matmul_tn/spmm beat their in-bench naive baselines,
# and the dispatched leg never falls far behind forced-serial (the
# PAR_MIN_COST calibration). The greps below
# double-check the artifact so a silent gate regression cannot pass.
echo "==> cargo bench --bench kernels (smoke + kernel gate)"
smoke_out=$(mktemp)
DESALIGN_BENCH_SAMPLES=2 DESALIGN_BENCH_MAX_N=500 DESALIGN_BENCH_OUT="$smoke_out" \
    DESALIGN_KERNEL_GATE=1 \
    cargo bench -q --offline --bench kernels -p desalign-bench >/dev/null
test -s "$smoke_out" || { echo "    bench smoke did not write its JSON table"; exit 1; }
grep -q '"tiled_speedup"' "$smoke_out" || { echo "    bench table lost its tiled_speedup column"; exit 1; }
grep -q '"cpu_features"' "$smoke_out" || { echo "    bench table lost its cpu_features field"; exit 1; }
if grep -q "NaN\|Infinity" "$smoke_out"; then
    echo "    NON-FINITE TIMINGS: kernel bench artifact contains NaN/Infinity"
    exit 1
fi
rm -f "$smoke_out"

# Retrieval gate (README.md "Sub-quadratic retrieval"): on a seeded
# clustered workload the IVF index must hold recall@10 ≥ 0.95 against the
# exact scan, and all reported QPS must be finite. The bench enforces both
# itself with DESALIGN_RETRIEVAL_GATE=1; the grep below double-checks the
# artifact so a silent gate regression cannot pass. (The exact scan's bit
# identity with the dense cosine path is a Rust test: retrieval_props.)
echo "==> retrieval_bench (recall gate)"
retrieval_out=$(mktemp)
DESALIGN_RETRIEVAL_SIZES=2000 DESALIGN_RETRIEVAL_QUERIES=200 DESALIGN_RETRIEVAL_SAMPLES=2 \
    DESALIGN_RETRIEVAL_GATE=1 DESALIGN_RETRIEVAL_OUT="$retrieval_out" \
    cargo run -q --offline --release -p desalign-bench --bin retrieval_bench >/dev/null
test -s "$retrieval_out" || { echo "    retrieval_bench did not write its JSON artifact"; exit 1; }
if grep -q "NaN\|Infinity" "$retrieval_out"; then
    echo "    NON-FINITE METRICS: retrieval_bench artifact contains NaN/Infinity"
    exit 1
fi
rm -f "$retrieval_out"

# Serving gate (docs/SERVING.md "Determinism at the edge"): bring the
# server up on an ephemeral port, train + checkpoint, probe a fixed query
# through the loadgen smoke client (which also checks /healthz fields,
# /metrics JSON, and a malformed-body 400), drain gracefully, then restart
# from the same checkpoint under DESALIGN_THREADS=2 and probe again. The
# two probe bodies must be bit-identical: restarts and thread counts may
# not change a single response byte.
echo "==> desalign-serve smoke (restart + thread-count bit-identity)"
serve_ckpt=$(mktemp -u)
serve_probe1=$(mktemp)
serve_probe2=$(mktemp)
serve_metrics=$(mktemp)
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
        DESALIGN_LOADGEN_METRICS="$serve_metrics" DESALIGN_LOADGEN_SHUTDOWN=1 \
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

# The robustness counters (docs/RELIABILITY.md) must be registered at boot
# so dashboards see explicit zeros, not absent series: grep the /metrics
# dump the smoke client captured for each family.
for counter in serve.shed serve.breaker_open serve.deadline_expired checkpoint.reloads failpoint.evals; do
    grep -q "\"$counter\"" "$serve_metrics" || { echo "    /metrics lost the $counter counter"; exit 1; }
done
echo "    /metrics exposes the shed/breaker/reload/failpoint counter families"
rm -f "$serve_probe1" "$serve_probe2" "$serve_metrics" "$serve_ckpt" "$serve_ckpt.tmp"

# Serving latency bench smoke + gate: in-process servers, every
# (max_batch × thread-count) leg must report finite positive p50/p99/QPS
# with zero failed requests (DESALIGN_SERVE_GATE=1 makes the bench assert
# this itself). Scratch output so the committed BENCH_serve.json is the
# full-scale run.
echo "==> loadgen serve bench (latency gate)"
serve_bench_out=$(mktemp)
DESALIGN_LOADGEN_CLIENTS=2 DESALIGN_LOADGEN_REQUESTS=40 \
    DESALIGN_BENCH_OUT="$serve_bench_out" DESALIGN_SERVE_GATE=1 \
    cargo run -q --offline --release -p desalign-serve --bin loadgen >/dev/null
test -s "$serve_bench_out" || { echo "    loadgen did not write its JSON artifact"; exit 1; }
grep -q '"p50_us"' "$serve_bench_out" || { echo "    serve bench artifact lost its p50_us column"; exit 1; }
grep -q '"p99_us"' "$serve_bench_out" || { echo "    serve bench artifact lost its p99_us column"; exit 1; }
grep -q '"mode":"open"' "$serve_bench_out" || { echo "    serve bench artifact lost its open-loop legs"; exit 1; }
grep -q '"offered_qps"' "$serve_bench_out" || { echo "    serve bench artifact lost its offered_qps column"; exit 1; }
rm -f "$serve_bench_out"

# Chaos gate (docs/RELIABILITY.md): replay the seeded fault schedules —
# torn writes, flaky shard reads, a socket storm against a tiny admission
# queue, an engine-fault breaker trip, and reloads under load. The bin
# asserts every scenario itself under DESALIGN_CHAOS_GATE=1 (well-formed
# responses only, sheds actually happen, breaker opens and closes, faulted
# reload rolls back, zero panics); the greps pin the artifact schema.
echo "==> chaos_bench (fault replay + zero-panic gate)"
chaos_out=$(mktemp)
DESALIGN_CHAOS_GATE=1 DESALIGN_CHAOS_OUT="$chaos_out" \
    cargo run -q --offline --release -p desalign-serve --bin chaos_bench >/dev/null
test -s "$chaos_out" || { echo "    chaos_bench did not write its JSON artifact"; exit 1; }
grep -q '"schema":"chaos-bench-v1"' "$chaos_out" || { echo "    chaos artifact lost its schema tag"; exit 1; }
grep -q '"panics":0' "$chaos_out" || { echo "    CHAOS PANIC: chaos_bench recorded a panic"; exit 1; }
grep -q '"failed":0' "$chaos_out" || { echo "    chaos_bench recorded a failed scenario"; exit 1; }
rm -f "$chaos_out"

# Streaming data-plane gates (docs/DATA_FORMAT.md). First: byte-identity —
# the sharded layout must be a lossless encoding. Generate a split straight
# to shards through the CLI, export it back to JSON, and cmp against the
# same split generated in memory: a single differing byte fails.
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

# Second: the streaming bench smoke with its gate — streamed fingerprints
# must match the in-memory dataset at every scale, and the audit's peak
# payload must stay bounded by the largest shard while the JSON artifact
# grows with scale (the out-of-core claim). Scratch output so the committed
# BENCH_streaming.json stays the full-scale run.
echo "==> streaming_bench (peak-memory + fingerprint gate)"
streaming_out=$(mktemp)
DESALIGN_STREAMING_SIZES=500,2000 DESALIGN_STREAMING_SHARD_ENTITIES=200 \
    DESALIGN_STREAMING_SAMPLES=2 DESALIGN_STREAMING_GATE=1 DESALIGN_STREAMING_OUT="$streaming_out" \
    cargo run -q --offline --release -p desalign-bench --bin streaming_bench >/dev/null
test -s "$streaming_out" || { echo "    streaming_bench did not write its JSON artifact"; exit 1; }
grep -q '"fingerprints_match":true' "$streaming_out" || { echo "    streaming bench artifact lost its fingerprint column"; exit 1; }
if grep -q '"fingerprints_match":false' "$streaming_out"; then
    echo "    STREAMING FINGERPRINT MISMATCH: see $streaming_out"
    exit 1
fi
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
