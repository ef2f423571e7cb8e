//! End-to-end contract tests for the streaming data plane
//! (`docs/DATA_FORMAT.md`): shard round-trips, hostile-byte sweeps, and
//! repair equivalence between the streaming and in-memory auditors.
//!
//! The invariants:
//!
//! 1. **Round trip** — write → stream-audit (no-op) → assemble is
//!    fingerprint-identical to the in-memory dataset, across presets,
//!    seeds, and shard sizes.
//! 2. **No panics on hostile bytes** — any byte-level damage to a shard
//!    file (mutation or truncation) surfaces as a typed error or a
//!    quarantine, never a panic.
//! 3. **Quarantine isolation** — a destroyed shard is quarantined without
//!    touching the healthy shards' bytes.
//! 4. **Repair equivalence** — for every corruption kind, streaming-
//!    repairing a sharded corrupted dataset assembles to the same
//!    fingerprint the in-memory repair produces on the same corrupted
//!    dataset, and the Strict censuses of the two forms are equal.

use desalign_mmkg::{
    dataset_fingerprint, read_manifest, read_shard, shard_file_name, write_shards, AuditPolicy, AuditReport,
    DatasetSpec, StreamingAuditor, SynthConfig,
};
use desalign_util::DesalignError;
use desalign_testkit::{check, corrupt_dataset, corrupt_file, ensure, ensure_eq, CorruptionKind, SliceRandom};
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("desalign-shard-stream-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir
}

#[test]
fn round_trip_matches_in_memory_across_presets() {
    check(
        "shard_round_trip",
        8,
        |rng| {
            let spec = *DatasetSpec::ALL.choose(rng).expect("non-empty preset list");
            (spec, rng.gen_range(40..100usize), rng.gen_range(0..1000u64), rng.gen_range(13..80usize))
        },
        |&(spec, scale, seed, shard_entities)| {
            let ds = SynthConfig::preset(spec).scaled(scale).generate(seed);
            let dir = temp_dir(&format!("rt-{seed}-{scale}-{shard_entities}"));
            let manifest = write_shards(&ds, &dir, shard_entities).map_err(|e| format!("write: {e}"))?;
            ensure!(manifest.shards.len() >= 1, "at least one shard");

            // A clean directory stream-audits clean under both policies.
            let strict = StreamingAuditor::new(AuditPolicy::Strict).audit_dir(&dir).map_err(|e| format!("strict: {e}"))?;
            ensure!(strict.audit.is_clean(), "clean shards must strict-audit clean: {}", strict.audit.summary());
            let report = StreamingAuditor::new(AuditPolicy::Repair).audit_dir(&dir).map_err(|e| format!("repair: {e}"))?;
            ensure!(report.quarantined.is_empty(), "no quarantine on clean data");
            ensure_eq!(report.shards_rewritten, 0);

            // Assembly is bit-identical to the in-memory dataset.
            let assembled = manifest.to_dataset(&dir).map_err(|e| format!("assemble: {e}"))?;
            ensure_eq!(dataset_fingerprint(&assembled), dataset_fingerprint(&ds));
            ensure_eq!(assembled.source.rel_triples, ds.source.rel_triples);
            ensure_eq!(assembled.target.images, ds.target.images);
            ensure_eq!(assembled.train_pairs, ds.train_pairs);
            ensure_eq!(assembled.test_pairs, ds.test_pairs);
            std::fs::remove_dir_all(&dir).ok();
            Ok(())
        },
    );
}

#[test]
fn hostile_shard_mutations_never_panic() {
    let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(70).generate(17);
    let dir = temp_dir("hostile");
    let manifest = write_shards(&ds, &dir, 25).expect("write");
    let shard0 = dir.join(shard_file_name(0));
    let pristine = std::fs::read(&shard0).expect("read shard");

    check(
        "hostile_shard_mutations",
        48,
        |rng| (rng.gen_range(1..12usize), rng.next_u64()),
        |&(mutations, seed)| {
            std::fs::write(&shard0, &pristine).map_err(|e| e.to_string())?;
            corrupt_file(&shard0, mutations, seed).map_err(|e| e.to_string())?;
            let changed = std::fs::read(&shard0).map_err(|e| e.to_string())? != pristine;

            // Reading the damaged shard must return Ok or a typed error —
            // never panic (the harness catches panics as failures).
            let direct = read_shard(&shard0);
            // Strict streaming audit: ok or typed error.
            let strict = StreamingAuditor::new(AuditPolicy::Strict).audit_dir(&dir);
            if changed && direct.is_ok() && strict.is_ok() {
                // Mutations that dodge the checksum entirely (e.g. inside
                // slack the frame ignores) are impossible: the FNV frame
                // covers every payload byte, so a changed file that still
                // reads back clean means the mutation hit outside the
                // payload but preserved the footer — reject that case.
                ensure!(
                    std::fs::read(&shard0).map_err(|e| e.to_string())?.len() != pristine.len(),
                    "a changed same-length shard must fail its checksum"
                );
            }
            // Repair streaming audit: must not panic; damaged shard either
            // repairs (impossible for frame damage — rewrite only happens
            // for semantic defects) or lands in quarantine.
            let repair = StreamingAuditor::new(AuditPolicy::Repair).audit_dir(&dir);
            if let Ok(rep) = &repair {
                if direct.is_err() {
                    ensure_eq!(rep.quarantined, vec![0usize]);
                }
            }
            Ok(())
        },
    );

    // Restore and confirm the directory still works end to end.
    std::fs::write(&shard0, &pristine).expect("restore");
    // The audit may have rewritten the manifest while shard 0 was
    // quarantined; rebuild it to the pristine state for the final check.
    let assembled = {
        let report = StreamingAuditor::new(AuditPolicy::Strict).audit_dir(&dir);
        match report {
            Ok(_) => read_manifest(&dir).expect("manifest").to_dataset(&dir).expect("assemble"),
            Err(_) => {
                // Manifest was updated during a quarantined repair pass;
                // re-shard from the source of truth.
                std::fs::remove_dir_all(&dir).ok();
                let dir2 = temp_dir("hostile");
                write_shards(&ds, &dir2, 25).expect("rewrite").to_dataset(&dir2).expect("assemble")
            }
        }
    };
    assert_eq!(dataset_fingerprint(&assembled), manifest.dataset_fingerprint);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_sweep_never_panics() {
    let ds = SynthConfig::preset(DatasetSpec::FbYg15k).scaled(50).generate(23);
    let dir = temp_dir("trunc");
    write_shards(&ds, &dir, 30).expect("write");
    let shard1 = dir.join(shard_file_name(1));
    let pristine = std::fs::read(&shard1).expect("read shard");
    let len = pristine.len();

    // Sweep truncation points: dense near the ends (header and footer are
    // the most structurally sensitive), strided through the middle.
    let mut cuts: Vec<usize> = (0..len.min(128)).collect();
    cuts.extend((len.saturating_sub(128)..len).collect::<Vec<_>>());
    cuts.extend((0..len).step_by((len / 200).max(1)));
    cuts.sort_unstable();
    cuts.dedup();
    for &keep in &cuts {
        std::fs::write(&shard1, &pristine[..keep]).expect("truncate");
        let r = read_shard(&shard1);
        assert!(r.is_err(), "a truncated shard ({keep}/{len} bytes) must fail verification");
        let strict = StreamingAuditor::new(AuditPolicy::Strict).audit_dir(&dir);
        assert!(strict.is_err(), "strict audit must reject a truncated shard ({keep}/{len} bytes)");
    }
    std::fs::write(&shard1, &pristine).expect("restore");
    assert!(StreamingAuditor::new(AuditPolicy::Strict).audit_dir(&dir).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_isolates_the_damaged_shard() {
    let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(90).generate(29);
    let dir = temp_dir("quarantine");
    let manifest = write_shards(&ds, &dir, 20).expect("write");
    assert!(manifest.shards.len() >= 3, "need several shards for isolation");
    let victim = 1usize;
    let before: Vec<Vec<u8>> = manifest
        .shards
        .iter()
        .map(|m| std::fs::read(dir.join(&m.file)).expect("read"))
        .collect();

    // Destroy one shard beyond repair.
    std::fs::write(dir.join(shard_file_name(victim)), b"not a shard at all").expect("damage");

    let report = StreamingAuditor::new(AuditPolicy::Repair).audit_dir(&dir).expect("repair audit runs");
    assert_eq!(report.quarantined, vec![victim], "exactly the damaged shard is quarantined");

    // Healthy shards' bytes are untouched.
    for (k, m) in manifest.shards.iter().enumerate() {
        if k == victim {
            continue;
        }
        let after = std::fs::read(dir.join(&m.file)).expect("read");
        assert_eq!(after, before[k], "healthy shard {k} must not be rewritten by a quarantining audit");
    }

    // Assembly refuses: the dataset cannot be reconstructed without the
    // quarantined shard.
    let manifest_now = read_manifest(&dir).expect("manifest still reads");
    assert!(manifest_now.to_dataset(&dir).is_err(), "assembly must fail with a quarantined shard");

    // Strict fails fast on the same directory.
    assert!(StreamingAuditor::new(AuditPolicy::Strict).audit_dir(&dir).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// A Strict audit's census as text: the summary of a clean report, or
/// the census line of the failure.
fn strict_census(result: Result<AuditReport, DesalignError>) -> String {
    match result {
        Ok(report) => report.summary(),
        Err(e) => e.context,
    }
}

#[test]
fn streaming_repair_matches_in_memory_repair() {
    check(
        "streaming_repair_equivalence",
        3,
        |rng| (rng.gen_range(40..90usize), rng.gen_range(0.05f32..0.5), rng.gen_range(0..10_000u64)),
        |&(scale, severity, seed)| {
            for kind in CorruptionKind::ALL {
                let mut ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(scale).generate(seed);
                let applied = corrupt_dataset(&mut ds, kind, severity, seed);
                ensure!(applied > 0, "{} applied nothing", kind.name());

                // Stream side: shard the *corrupted* dataset; Strict-audit
                // it, then repair it shard-by-shard and assemble.
                let dir = temp_dir(&format!("eq-{seed}-{scale}-{}", kind.name()));
                write_shards(&ds, &dir, 23).map_err(|e| format!("write: {e}"))?;
                let stream_strict = strict_census(StreamingAuditor::new(AuditPolicy::Strict).audit_dir(&dir).map(|r| r.audit));
                let report = StreamingAuditor::new(AuditPolicy::Repair)
                    .audit_dir(&dir)
                    .map_err(|e| format!("{} stream repair: {e}", kind.name()))?;
                ensure!(report.quarantined.is_empty(), "semantic defects must repair, not quarantine");
                let assembled = read_manifest(&dir)
                    .map_err(|e| format!("manifest: {e}"))?
                    .to_dataset(&dir)
                    .map_err(|e| format!("assemble: {e}"))?;

                // Memory side: the same audits over the resident dataset.
                let mem_strict = strict_census(ds.clone().audit(AuditPolicy::Strict));
                ensure_eq!(stream_strict, mem_strict);
                let mem_report = ds.audit(AuditPolicy::Repair).map_err(|e| format!("{} mem repair: {e}", kind.name()))?;

                ensure!(
                    dataset_fingerprint(&assembled) == dataset_fingerprint(&ds),
                    "{}: streamed and in-memory repairs differ",
                    kind.name()
                );
                if !kind.is_degradation() {
                    ensure!(report.audit.total_defects() > 0, "{} invisible to the streaming audit", kind.name());
                    ensure!(mem_report.total_defects() > 0);
                }
                // Both repaired datasets pass strict.
                assembled.clone().audit(AuditPolicy::Strict).map_err(|e| format!("assembled fails strict: {e}"))?;
                std::fs::remove_dir_all(&dir).ok();
            }
            Ok(())
        },
    );
}

#[test]
fn generator_streamed_equals_in_memory_across_presets() {
    check(
        "generate_sharded_equivalence",
        6,
        |rng| {
            let spec = *DatasetSpec::ALL.choose(rng).expect("non-empty preset list");
            (spec, rng.gen_range(40..90usize), rng.gen_range(0..500u64), rng.gen_range(17..60usize))
        },
        |&(spec, scale, seed, shard_entities)| {
            let cfg = SynthConfig::preset(spec).scaled(scale);
            let ds = cfg.generate(seed);
            let dir = temp_dir(&format!("gen-{seed}-{scale}"));
            let manifest =
                cfg.generate_sharded(seed, &dir, shard_entities).map_err(|e| format!("generate_sharded: {e}"))?;
            ensure_eq!(manifest.dataset_fingerprint, dataset_fingerprint(&ds));
            let assembled = manifest.to_dataset(&dir).map_err(|e| format!("assemble: {e}"))?;
            ensure_eq!(dataset_fingerprint(&assembled), dataset_fingerprint(&ds));
            std::fs::remove_dir_all(&dir).ok();
            Ok(())
        },
    );
}

/// The minimal dataset of `docs/DATA_FORMAT.md` §"Worked example": two
/// source entities (one with a 2-dim image), one target entity, one
/// relation triple, one attribute triple, one train and one test pair.
fn worked_example_dataset() -> desalign_mmkg::AlignmentDataset {
    desalign_mmkg::AlignmentDataset {
        name: "tiny".to_string(),
        source: desalign_mmkg::Mmkg {
            num_entities: 2,
            num_relations: 1,
            num_attributes: 1,
            rel_triples: vec![(0, 0, 1)],
            attr_triples: vec![(1, 0)],
            images: vec![Some(vec![1.0, -2.0]), None],
        },
        target: desalign_mmkg::Mmkg {
            num_entities: 1,
            num_relations: 1,
            num_attributes: 1,
            rel_triples: vec![],
            attr_triples: vec![],
            images: vec![None],
        },
        train_pairs: vec![(0, 0)],
        test_pairs: vec![(1, 0)],
    }
}

/// Pins the worked hexdump of `docs/DATA_FORMAT.md` byte for byte: if the
/// writer ever produces different bytes for the example dataset, the doc
/// is stale and this test fails before the doc misleads anyone.
#[test]
fn data_format_worked_example_is_byte_exact() {
    // Concatenation of the annotated hexdump in docs/DATA_FORMAT.md.
    const DOC_HEX: &str = concat!(
        // header: magic + 11 × u64 LE
        "4453484152443031",                 // "DSHARD01"
        "0000000000000000",                 // index        = 0
        "0000000000000000", "0200000000000000", // src range [0, 2)
        "0000000000000000", "0100000000000000", // tgt range [0, 1)
        "0100000000000000",                 // n_src_rel    = 1
        "0100000000000000",                 // n_src_attr   = 1
        "0000000000000000",                 // n_tgt_rel    = 0
        "0000000000000000",                 // n_tgt_attr   = 0
        "0100000000000000",                 // n_train      = 1
        "0100000000000000",                 // n_test       = 1
        // src rel: (orig 0, (h 0, r 0, t 1))
        "000000000000000000000000000000000000000000000000",
        "0100000000000000",
        // src attr: (orig 0, (e 1, a 0))
        "00000000000000000100000000000000",
        "0000000000000000",
        // src images: entity 0 present, dim 2, [1.0, -2.0]; entity 1 absent
        "01", "02000000", "0000803f", "000000c0", "00",
        // tgt images: entity 0 absent
        "00",
        // train pair: (orig 0, (s 0, t 0))
        "000000000000000000000000000000000000000000000000",
        // test pair: (orig 0, (s 1, t 0))
        "000000000000000001000000000000000000000000000000",
        // atomicio footer: payload len 215, FNV-64, "DESACKPT"
        "d700000000000000", "e21a773c78ed1bab", "44455341434b5054",
    );
    let ds = worked_example_dataset();
    let dir = temp_dir("worked-example");
    let manifest = write_shards(&ds, &dir, 2).expect("write");
    assert_eq!(manifest.shards.len(), 1);
    assert_eq!(manifest.shards[0].payload_len, 215);
    assert_eq!(manifest.shards[0].checksum, 0xab1bed783c771ae2);
    assert_eq!(manifest.dataset_fingerprint, 0xf7d5d362c8675468);
    let bytes = std::fs::read(dir.join(&manifest.shards[0].file)).expect("read file");
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, DOC_HEX, "shard bytes diverge from the docs/DATA_FORMAT.md worked example");
    std::fs::remove_dir_all(&dir).ok();
}
