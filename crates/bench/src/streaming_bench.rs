//! Streaming data-plane benchmark: sharded generate/audit vs the JSON path.
//!
//! For each scale the harness runs both data planes over the same synthetic
//! MMKG pair and compares them on throughput and peak working set:
//!
//! - **sharded** — `SynthConfig::generate_sharded` streams the dataset to a
//!   shard directory (never materializing the full KG), then the
//!   `StreamingAuditor` re-reads it shard-by-shard under the Strict policy.
//!   The auditor's `peak_payload_bytes` is the plane's *logical* peak
//!   working set: the largest single shard payload held in memory at once.
//! - **json** — `SynthConfig::generate` builds the whole dataset in memory,
//!   `save_dataset_json`/`load_dataset_json` round-trip it through one
//!   monolithic file whose size (and hence load-time working set) grows
//!   linearly with the scale.
//!
//! Every scale also assembles the shards back with
//! `ShardManifest::to_dataset` and checks the fingerprint against the
//! in-memory dataset — the bench doubles as an end-to-end equivalence
//! harness. `VmHWM` from `/proc/self/status` is recorded per scale as a
//! best-effort informational column (process-wide high-water mark; null on
//! non-Linux hosts). The table is written to `BENCH_streaming.json`.
//!
//! The sizes of one run are a [`Sizes`]; the binary runs [`FULL`].
//!
//! Every run checks its own result after writing the artifact: it fails
//! unless at every scale the streamed fingerprint matches the
//! in-memory one and the audit's peak payload stays ≤ 2× the largest
//! shard, and (across scales) the shard peak stays flat while the JSON
//! file keeps growing.

use crate::timing::bench_stats;
use crate::{or_die, write_artifact};
use desalign_mmkg::{
    dataset_fingerprint, load_dataset_json, read_manifest, save_dataset_json, AuditPolicy, DatasetSpec,
    StreamingAuditor, SynthConfig,
};
use desalign_util::{json, Json};
use std::path::Path;
use std::time::Instant;

/// Generator seed of every scale.
const SEED: u64 = 17;

/// Entity scales, shard size and timing samples of one run.
pub struct Sizes {
    /// Entity scales, one table row each.
    pub scales: &'static [usize],
    /// Entities per shard.
    pub shard_entities: usize,
    /// Timing samples of the read legs.
    pub samples: usize,
}

/// The sizes of the committed `BENCH_streaming.json`.
pub const FULL: Sizes = Sizes { scales: &[2_000, 8_000], shard_entities: 500, samples: 3 };

/// Where `desalign-bench streaming_bench` writes `BENCH_streaming.json`.
pub const OUT_DIR: &str = ".";

/// Process-wide peak RSS in bytes from `/proc/self/status`, if available.
/// Monotone over the run, so it is informational only — the deterministic
/// gate uses the auditor's logical `peak_payload_bytes` instead.
fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

struct ScaleReport {
    row: Json,
    fingerprints_match: bool,
    peak_payload_bytes: u64,
    max_shard_payload: u64,
    json_bytes: u64,
}

fn run_scale(n: usize, shard_entities: usize, samples: usize, scratch: &Path) -> ScaleReport {
    let cfg = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(n);
    let shard_dir = scratch.join(format!("shards-{n}"));
    let json_path = scratch.join(format!("split-{n}.json"));

    // --- sharded plane: streamed generation + Strict streaming audit -------
    let t = Instant::now();
    let manifest =
        or_die("generate_sharded", cfg.generate_sharded(SEED, &shard_dir, shard_entities));
    let gen_sharded_secs = t.elapsed().as_secs_f64();
    let num_shards = manifest.shards.len();
    let total_payload: u64 = manifest.shards.iter().map(|s| s.payload_len).sum();
    let max_shard_payload = manifest.shards.iter().map(|s| s.payload_len).max().unwrap_or(0);

    let auditor = StreamingAuditor::new(AuditPolicy::Strict);
    let report = or_die("streaming audit", auditor.audit_dir(&shard_dir));
    let audit_stats = bench_stats(&format!("audit/{n}"), samples, || {
        std::hint::black_box(or_die("streaming audit", auditor.audit_dir(&shard_dir)));
    });
    let audit_secs = audit_stats.median.as_secs_f64();
    let shards_per_sec = num_shards as f64 / audit_secs;
    let audit_mb_per_sec = total_payload as f64 / 1e6 / audit_secs;

    // --- json plane: in-memory generation + monolithic round-trip ----------
    let t = Instant::now();
    let ds = cfg.generate(SEED);
    let gen_inmem_secs = t.elapsed().as_secs_f64();
    or_die("save json", save_dataset_json(&ds, &json_path));
    let json_bytes = or_die("stat json", std::fs::metadata(&json_path)).len();
    let load_stats = bench_stats(&format!("json-load/{n}"), samples, || {
        std::hint::black_box(or_die("load json", load_dataset_json(&json_path)));
    });
    let json_load_secs = load_stats.median.as_secs_f64();

    // --- equivalence: shards ⇄ in-memory -----------------------------------
    let t = Instant::now();
    let assembled = or_die("to_dataset", read_manifest(&shard_dir).and_then(|m| m.to_dataset(&shard_dir)));
    let assemble_secs = t.elapsed().as_secs_f64();
    let fp_inmem = dataset_fingerprint(&ds);
    let fingerprints_match =
        report.fingerprint == fp_inmem && dataset_fingerprint(&assembled) == fp_inmem;

    println!(
        "n={n:<6} shards {num_shards:<3} gen {gen_sharded_secs:>6.2}s (inmem {gen_inmem_secs:>6.2}s)  audit {:>7.1} shards/s {audit_mb_per_sec:>6.1} MB/s  peak {:>9} B (max shard {:>9} B)  json {:>10} B load {json_load_secs:>6.3}s  fp {}",
        shards_per_sec,
        report.peak_payload_bytes,
        max_shard_payload,
        json_bytes,
        if fingerprints_match { "OK" } else { "MISMATCH" },
    );

    let row = json!({
        "n": n,
        "shard_entities": shard_entities,
        "num_shards": num_shards,
        "gen_sharded_secs": gen_sharded_secs,
        "gen_inmem_secs": gen_inmem_secs,
        "audit_secs": audit_secs,
        "shards_per_sec": shards_per_sec,
        "audit_mb_per_sec": audit_mb_per_sec,
        "total_payload_bytes": total_payload,
        "max_shard_payload_bytes": max_shard_payload,
        "peak_payload_bytes": report.peak_payload_bytes,
        "json_bytes": json_bytes,
        "json_load_secs": json_load_secs,
        "assemble_secs": assemble_secs,
        "fingerprints_match": fingerprints_match,
        "vm_hwm_bytes": vm_hwm_bytes(),
    });
    ScaleReport {
        row,
        fingerprints_match,
        peak_payload_bytes: report.peak_payload_bytes,
        max_shard_payload,
        json_bytes,
    }
}

/// Runs the bench at `sizes`, writes `BENCH_streaming.json` into
/// `out_dir`, and returns every failed check.
pub fn run(sizes: &Sizes, out_dir: &Path) -> Vec<String> {
    let (shard_entities, samples) = (sizes.shard_entities, sizes.samples);
    let scratch = std::env::temp_dir().join(format!("desalign-streaming-bench-{}", std::process::id()));
    or_die("scratch dir", std::fs::create_dir_all(&scratch));

    println!("streaming bench: sizes {:?}, {shard_entities} entities/shard, seed {SEED}", sizes.scales);
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for &n in sizes.scales {
        let report = run_scale(n, shard_entities, samples, &scratch);
        if !report.fingerprints_match {
            failures.push(format!("n={n}: streamed fingerprint diverges from the in-memory dataset"));
        }
        if report.peak_payload_bytes > 2 * report.max_shard_payload.max(1) {
            failures.push(format!(
                "n={n}: audit peak {} B exceeds 2× the largest shard ({} B)",
                report.peak_payload_bytes, report.max_shard_payload
            ));
        }
        rows.push(report.row.clone());
        reports.push(report);
    }
    if reports.is_empty() {
        failures.push("no scale measured".into());
    }
    // Scaling shape: the shard peak must stay (near) flat while the JSON
    // artifact keeps growing with n — the out-of-core claim in one check.
    if reports.len() >= 2 {
        let (first, last) = (&reports[0], &reports[reports.len() - 1]);
        if last.peak_payload_bytes > 2 * first.peak_payload_bytes.max(1) {
            failures.push(format!(
                "audit peak grew with scale: {} B → {} B",
                first.peak_payload_bytes, last.peak_payload_bytes
            ));
        }
        if last.json_bytes <= first.json_bytes {
            failures.push(format!(
                "json artifact did not grow with scale: {} B → {} B",
                first.json_bytes, last.json_bytes
            ));
        }
    }

    let doc = json!({
        "shard_entities": shard_entities,
        "seed": SEED,
        "samples": samples,
        "sizes": rows,
    });
    failures.extend(write_artifact(&out_dir.join("BENCH_streaming.json"), &doc));

    let _ = std::fs::remove_dir_all(&scratch);
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every check at small sizes: streamed fingerprints match, the audit
    /// peak stays bounded and flat, the JSON file grows.
    #[test]
    fn small_run_passes_every_check() {
        let dir = std::env::temp_dir().join(format!("desalign-streaming-test-{}", std::process::id()));
        let failures = run(&Sizes { scales: &[500, 2_000], shard_entities: 200, samples: 2 }, &dir);
        let written = dir.join("BENCH_streaming.json").exists();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(failures, Vec::<String>::new());
        assert!(written, "no artifact written");
    }
}
