//! Shard-by-shard streaming audit and assembly for `DSHARD01` dataset
//! directories.
//!
//! [`StreamingAuditor`] runs the one audit driver of [`crate::audit`] over
//! a shard directory. It validates (and under [`AuditPolicy::Repair`]
//! repairs, rewriting each fixed shard atomically) the directory while
//! holding **at most one decoded shard** in memory, plus the integer
//! alignment-pair records — never the feature rows, which dominate a real
//! MMKG's footprint. [`AlignmentDataset::audit`] is the same driver over
//! one memory-resident shard, so repairing a dataset in memory and
//! repairing its sharded form yield bit-identical datasets
//! (property-tested in `tests/shard_stream.rs`).
//!
//! This module holds only what is particular to a directory: shard
//! loading with frame and manifest verification, quarantine, the rewrite
//! of repaired shards, `{file}:`-prefixed defect locations, and the
//! manifest fingerprint update. Quarantine: under `Repair` an unreadable
//! shard is counted (`shard.quarantined`), skipped, and left untouched on
//! disk — other shards are still audited and repaired; assembly then
//! refuses the directory. Under `Strict` the first unreadable shard fails
//! the audit immediately with the shard file and byte offset in the error.
//!
//! Telemetry: the driver's `audit.<class>` counters, one emitted
//! [`StreamReport`], and the `shard.read`, `shard.bytes_read`,
//! `shard.rewritten`, and `shard.quarantined` counters.
//!
//! ```
//! use desalign_mmkg::{dataset_fingerprint, read_manifest, write_shards};
//! use desalign_mmkg::{AuditPolicy, DatasetSpec, StreamingAuditor, SynthConfig};
//!
//! let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(80).generate(3);
//! let dir = std::env::temp_dir().join("desalign-stream-docex");
//! write_shards(&ds, &dir, 32).unwrap();
//!
//! let report = StreamingAuditor::new(AuditPolicy::Repair).audit_dir(&dir).unwrap();
//! assert!(report.audit.is_clean() && report.quarantined.is_empty());
//!
//! // Assembly digest-checks against the manifest fingerprint.
//! let assembled = read_manifest(&dir).unwrap().to_dataset(&dir).unwrap();
//! assert_eq!(dataset_fingerprint(&assembled), dataset_fingerprint(&ds));
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::audit::{audit_shards, dataset_fingerprint, AuditReport, Census, ShardStore};
use crate::shard::{decode_shard, encode_shard, write_manifest, Shard, ShardManifest, ShardMeta, ShardRecords, SideMeta};
use crate::{AlignmentDataset, AuditPolicy, Mmkg};
use desalign_util::{checksum64, json, read_verified, DefectClass, DesalignError, Fnv64, Json};
use std::io;
use std::path::Path;

/// Result of one streaming audit pass: the familiar defect census plus
/// shard-level accounting.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Per-class defect census and repair count (same semantics as
    /// [`AlignmentDataset::audit`]).
    pub audit: AuditReport,
    /// Shard payload reads performed (the auditor scans twice: one
    /// histogram/pair-collection pass, one verdict/repair pass).
    pub shards_read: usize,
    /// Shards rewritten with repairs applied (0 under `Strict`).
    pub shards_rewritten: usize,
    /// Indices of shards that failed frame/decode verification under
    /// `Repair` and were skipped (left untouched on disk).
    pub quarantined: Vec<usize>,
    /// Largest shard payload decoded, in bytes — the streaming memory
    /// high-water mark for feature data.
    pub peak_payload_bytes: u64,
    /// The manifest's dataset fingerprint after the audit (recomputed
    /// from the repaired shards when repairs were applied; stale when
    /// shards were quarantined).
    pub fingerprint: u64,
}

impl StreamReport {
    /// JSON form: the audit census nested under shard-level accounting.
    pub fn to_json(&self) -> Json {
        json!({
            "kind": "streaming_audit_report",
            "audit": self.audit.to_json(),
            "shards_read": self.shards_read,
            "shards_rewritten": self.shards_rewritten,
            "quarantined": self.quarantined.clone(),
            "peak_payload_bytes": self.peak_payload_bytes as f64,
        })
    }
}

/// The streaming auditor; see the [module docs](self) for semantics.
#[derive(Clone, Copy, Debug)]
pub struct StreamingAuditor {
    policy: AuditPolicy,
}

/// Reads, frame-verifies, manifest-cross-checks, and decodes one shard.
/// Used by the auditor, the assembler, and [`streaming_fingerprint`].
fn load_verified_shard(dir: &Path, meta: &ShardMeta) -> Result<Shard, DesalignError> {
    let path = dir.join(&meta.file);
    let loc = || path.display().to_string();
    // Same fault site as the random-access `read_shard`: a flaky disk
    // looks the same whether a shard is loaded for streaming or directly.
    desalign_failpoint::fail_io("shard.read").map_err(|e| DesalignError::io(loc(), e))?;
    let payload = read_verified(&path).map_err(|e| {
        if e.kind() == io::ErrorKind::InvalidData {
            DesalignError::parse(loc(), format!("shard frame invalid: {e}"))
        } else {
            DesalignError::io(loc(), e)
        }
    })?;
    if payload.len() as u64 != meta.payload_len || checksum64(&payload) != meta.checksum {
        return Err(DesalignError::schema(
            loc(),
            format!(
                "shard disagrees with manifest: payload {} bytes / checksum {:016x}, manifest records {} / {:016x}",
                payload.len(),
                checksum64(&payload),
                meta.payload_len,
                meta.checksum
            ),
        ));
    }
    let shard = decode_shard(&payload, &loc())?;
    if shard.index != meta.index || shard.src_range != meta.src_range || shard.tgt_range != meta.tgt_range {
        return Err(DesalignError::schema(loc(), "shard header disagrees with the manifest entry"));
    }
    Ok(shard)
}

impl StreamingAuditor {
    /// An auditor applying `policy`.
    pub fn new(policy: AuditPolicy) -> Self {
        Self { policy }
    }

    /// Audits the shard directory at `dir`.
    ///
    /// `Repair` fixes defects shard-by-shard (each repaired shard is
    /// rewritten atomically), quarantines unreadable shards, and — when
    /// anything changed and nothing was quarantined — recomputes the
    /// manifest's dataset fingerprint from the repaired shards and
    /// rewrites the manifest. `Strict` never touches disk and fails on
    /// the first defect with the full census (or immediately on an
    /// unreadable shard, with the file and byte offset in the error).
    pub fn audit_dir(&self, dir: &Path) -> Result<StreamReport, DesalignError> {
        let manifest = crate::read_manifest(dir)?;
        let name = manifest.name.clone();
        let mut store = ShardDir {
            dir,
            repair: self.policy == AuditPolicy::Repair,
            verified: vec![false; manifest.shards.len()],
            manifest,
            quarantined: Vec::new(),
            shards_read: 0,
            bytes_read: 0,
            peak_payload: 0,
            shards_rewritten: 0,
        };
        let audit = audit_shards(&mut store, &name, Census::new(self.policy))?;
        Ok(store.report(audit))
    }
}

/// A `DSHARD01` directory as the audit driver's shard store.
struct ShardDir<'a> {
    dir: &'a Path,
    manifest: ShardManifest,
    repair: bool,
    /// Shards that have loaded once; a later failure is a hard error.
    verified: Vec<bool>,
    quarantined: Vec<usize>,
    shards_read: usize,
    bytes_read: u64,
    peak_payload: u64,
    shards_rewritten: usize,
}

impl ShardDir<'_> {
    fn report(&self, audit: AuditReport) -> StreamReport {
        StreamReport {
            audit,
            shards_read: self.shards_read,
            shards_rewritten: self.shards_rewritten,
            quarantined: self.quarantined.clone(),
            peak_payload_bytes: self.peak_payload,
            fingerprint: self.manifest.dataset_fingerprint,
        }
    }
}

impl ShardStore for ShardDir<'_> {
    fn len(&self) -> usize {
        self.manifest.shards.len()
    }

    fn sides(&self) -> [SideMeta; 2] {
        [self.manifest.source, self.manifest.target]
    }

    fn load(&mut self, k: usize) -> Result<Option<Shard>, DesalignError> {
        let meta = &self.manifest.shards[k];
        if self.quarantined.contains(&meta.index) {
            return Ok(None);
        }
        match load_verified_shard(self.dir, meta) {
            Ok(shard) => {
                self.verified[k] = true;
                self.shards_read += 1;
                self.bytes_read += meta.payload_len;
                self.peak_payload = self.peak_payload.max(meta.payload_len);
                Ok(Some(shard))
            }
            // It verified in pass 1, so this is a race with another writer.
            Err(e) if self.verified[k] => Err(e),
            Err(_) if self.repair => {
                self.quarantined.push(meta.index);
                Ok(None)
            }
            Err(e) => Err(e.wrap(
                DefectClass::Schema,
                self.manifest.name.clone(),
                format!("strict streaming audit: shard {} is unreadable", meta.index),
            )),
        }
    }

    fn prefix(&self, k: usize) -> String {
        format!("{}:", self.manifest.shards[k].file)
    }

    fn put(&mut self, k: usize, shard: Shard, changed: bool) -> Result<(), DesalignError> {
        if !changed {
            return Ok(());
        }
        let meta = &mut self.manifest.shards[k];
        let Shard { src_rel, src_attr, mut src_images, tgt_rel, tgt_attr, mut tgt_images, train_pairs, test_pairs, .. } =
            shard;
        let recs = ShardRecords { src_rel, src_attr, tgt_rel, tgt_attr, train: train_pairs, test: test_pairs };
        let path = self.dir.join(&meta.file);
        let (src0, tgt0) = (meta.src_range.0, meta.tgt_range.0);
        let (payload_len, checksum) = encode_shard(
            &path,
            meta.index,
            meta.src_range,
            meta.tgt_range,
            &recs,
            |e| src_images[e - src0].take(),
            |e| tgt_images[e - tgt0].take(),
        )
        .map_err(|e| DesalignError::io(path.display().to_string(), e))?;
        meta.payload_len = payload_len;
        meta.checksum = checksum;
        self.shards_rewritten += 1;
        Ok(())
    }

    fn finish(&mut self, report: &AuditReport) -> Result<(), DesalignError> {
        if self.shards_rewritten > 0 {
            // Quarantined shards make the fingerprint uncomputable; keep
            // the stale one (assembly refuses the directory anyway) but
            // persist the rewritten shards' new checksums.
            if self.quarantined.is_empty() {
                self.manifest.dataset_fingerprint = streaming_fingerprint(self.dir, &self.manifest)?;
            }
            write_manifest(self.dir, &self.manifest)?;
        }
        desalign_telemetry::counter("shard.read").add(self.shards_read as u64);
        desalign_telemetry::counter("shard.bytes_read").add(self.bytes_read);
        desalign_telemetry::counter("shard.rewritten").add(self.shards_rewritten as u64);
        desalign_telemetry::counter("shard.quarantined").add(self.quarantined.len() as u64);
        desalign_telemetry::emit(&self.report(report.clone()).to_json());
        Ok(())
    }
}

impl ShardManifest {
    /// Assembles the full in-memory [`AlignmentDataset`] from a shard
    /// directory, restoring exact original record order via the stored
    /// `orig_idx` fields, then **digest-checks** the result: if
    /// [`dataset_fingerprint`] of the assembled dataset differs from the
    /// manifest's, assembly fails with a `Schema` error rather than
    /// return silently divergent data. Any unreadable or
    /// manifest-disagreeing shard (e.g. one quarantined by a repair
    /// audit) fails assembly with that shard named.
    ///
    /// This is the one full-materialization endpoint of the streaming
    /// data plane — it necessarily holds the whole dataset. Training and
    /// auditing paths should stay shard-at-a-time instead.
    pub fn to_dataset(&self, dir: &Path) -> Result<AlignmentDataset, DesalignError> {
        let (n_s, n_t) = (self.source.num_entities, self.target.num_entities);
        let mut src_rel: Vec<(usize, (usize, usize, usize))> = Vec::new();
        let mut src_attr: Vec<(usize, (usize, usize))> = Vec::new();
        let mut src_images: Vec<Option<Vec<f32>>> = vec![None; n_s];
        let mut tgt_rel: Vec<(usize, (usize, usize, usize))> = Vec::new();
        let mut tgt_attr: Vec<(usize, (usize, usize))> = Vec::new();
        let mut tgt_images: Vec<Option<Vec<f32>>> = vec![None; n_t];
        let mut train: Vec<(usize, (usize, usize))> = Vec::new();
        let mut test: Vec<(usize, (usize, usize))> = Vec::new();
        for meta in &self.shards {
            let shard = load_verified_shard(dir, meta)?;
            src_rel.extend_from_slice(&shard.src_rel);
            src_attr.extend_from_slice(&shard.src_attr);
            tgt_rel.extend_from_slice(&shard.tgt_rel);
            tgt_attr.extend_from_slice(&shard.tgt_attr);
            train.extend_from_slice(&shard.train_pairs);
            test.extend_from_slice(&shard.test_pairs);
            for (off, row) in shard.src_images.into_iter().enumerate() {
                src_images[meta.src_range.0 + off] = row;
            }
            for (off, row) in shard.tgt_images.into_iter().enumerate() {
                tgt_images[meta.tgt_range.0 + off] = row;
            }
        }
        fn strip<T>(mut v: Vec<(usize, T)>) -> Vec<T> {
            v.sort_unstable_by_key(|&(i, _)| i);
            v.into_iter().map(|(_, x)| x).collect()
        }
        let ds = AlignmentDataset {
            name: self.name.clone(),
            source: Mmkg {
                num_entities: n_s,
                num_relations: self.source.num_relations,
                num_attributes: self.source.num_attributes,
                rel_triples: strip(src_rel),
                attr_triples: strip(src_attr),
                images: src_images,
            },
            target: Mmkg {
                num_entities: n_t,
                num_relations: self.target.num_relations,
                num_attributes: self.target.num_attributes,
                rel_triples: strip(tgt_rel),
                attr_triples: strip(tgt_attr),
                images: tgt_images,
            },
            train_pairs: strip(train),
            test_pairs: strip(test),
        };
        let fp = dataset_fingerprint(&ds);
        if fp != self.dataset_fingerprint {
            return Err(DesalignError::schema(
                dir.display().to_string(),
                format!(
                    "assembled dataset fingerprint {fp:016x} does not match the manifest's {:016x}",
                    self.dataset_fingerprint
                ),
            ));
        }
        Ok(ds)
    }
}

/// Computes [`dataset_fingerprint`] of the dataset a shard directory
/// assembles to — **without materializing the feature rows**: integer
/// records are collected and re-ordered in memory (O(triples + pairs)
/// words), while image rows stream through the hash one shard at a time
/// (entity ranges are contiguous and ascending, which is exactly the
/// fingerprint's traversal order). The manifest's own
/// `dataset_fingerprint` field is ignored, so this is also how that field
/// is (re)computed after repairs and by the streaming generator.
pub fn streaming_fingerprint(dir: &Path, manifest: &ShardManifest) -> Result<u64, DesalignError> {
    // Pass 1: integer records (the cheap part of the dataset).
    let mut rel: [Vec<(usize, (usize, usize, usize))>; 2] = [Vec::new(), Vec::new()];
    let mut attr: [Vec<(usize, (usize, usize))>; 2] = [Vec::new(), Vec::new()];
    let mut pairs: [Vec<(usize, (usize, usize))>; 2] = [Vec::new(), Vec::new()];
    for meta in &manifest.shards {
        let shard = load_verified_shard(dir, meta)?;
        rel[0].extend_from_slice(&shard.src_rel);
        rel[1].extend_from_slice(&shard.tgt_rel);
        attr[0].extend_from_slice(&shard.src_attr);
        attr[1].extend_from_slice(&shard.tgt_attr);
        pairs[0].extend_from_slice(&shard.train_pairs);
        pairs[1].extend_from_slice(&shard.test_pairs);
    }
    for list in rel.iter_mut() {
        list.sort_unstable_by_key(|&(i, _)| i);
    }
    for list in attr.iter_mut() {
        list.sort_unstable_by_key(|&(i, _)| i);
    }
    for list in pairs.iter_mut() {
        list.sort_unstable_by_key(|&(i, _)| i);
    }

    let mut h = Fnv64::new();
    h.write(manifest.name.as_bytes());
    // Passes 2–3: per side, hash sizes + integer lists, then stream the
    // side's image rows shard-at-a-time in entity order.
    for (side, meta) in [(0usize, manifest.source), (1, manifest.target)] {
        let n = meta.num_entities;
        for v in [n, meta.num_relations, meta.num_attributes, rel[side].len(), attr[side].len(), n] {
            h.write_u64(v as u64);
        }
        for &(_, (a, b, c)) in &rel[side] {
            h.write_u64(a as u64);
            h.write_u64(b as u64);
            h.write_u64(c as u64);
        }
        for &(_, (a, b)) in &attr[side] {
            h.write_u64(a as u64);
            h.write_u64(b as u64);
        }
        for shard_meta in &manifest.shards {
            let shard = load_verified_shard(dir, shard_meta)?;
            let images = if side == 0 { &shard.src_images } else { &shard.tgt_images };
            for img in images {
                match img {
                    None => h.write(&[0]),
                    Some(row) => {
                        h.write(&[1]);
                        h.write_u64(row.len() as u64);
                        for &v in row {
                            h.write(&v.to_bits().to_le_bytes());
                        }
                    }
                }
            }
        }
    }
    for list in &pairs {
        h.write_u64(list.len() as u64);
        for &(_, (a, b)) in list {
            h.write_u64(a as u64);
            h.write_u64(b as u64);
        }
    }
    Ok(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::write_shards;
    use crate::{DatasetSpec, SynthConfig};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("desalign-stream-tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("tempdir");
        dir
    }

    fn small() -> AlignmentDataset {
        SynthConfig::preset(DatasetSpec::FbDb15k).scaled(90).generate(17)
    }

    #[test]
    fn streaming_fingerprint_matches_in_memory() {
        let ds = small();
        let dir = tmpdir("fp");
        let manifest = write_shards(&ds, &dir, 32).expect("write");
        let fp = streaming_fingerprint(&dir, &manifest).expect("fingerprint");
        assert_eq!(fp, dataset_fingerprint(&ds));
        assert_eq!(fp, manifest.dataset_fingerprint);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_directory_audits_clean_and_untouched() {
        let ds = small();
        let dir = tmpdir("clean");
        let manifest = write_shards(&ds, &dir, 32).expect("write");
        let before: Vec<Vec<u8>> =
            manifest.shards.iter().map(|m| std::fs::read(dir.join(&m.file)).expect("read")).collect();
        let report = StreamingAuditor::new(AuditPolicy::Repair).audit_dir(&dir).expect("audit");
        assert!(report.audit.is_clean(), "{}", report.audit.summary());
        assert_eq!(report.shards_rewritten, 0);
        assert_eq!(report.quarantined, Vec::<usize>::new());
        for (m, b) in manifest.shards.iter().zip(&before) {
            assert_eq!(&std::fs::read(dir.join(&m.file)).expect("read"), b, "no-op audit must leave shards bit-identical");
        }
        assert!(StreamingAuditor::new(AuditPolicy::Strict).audit_dir(&dir).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn assembly_rejects_fingerprint_mismatch() {
        let ds = small();
        let dir = tmpdir("fp-mismatch");
        let mut manifest = write_shards(&ds, &dir, 40).expect("write");
        manifest.dataset_fingerprint ^= 1;
        let err = manifest.to_dataset(&dir).unwrap_err();
        assert_eq!(err.class, desalign_util::DefectClass::Schema);
        assert!(err.to_string().contains("does not match the manifest"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
