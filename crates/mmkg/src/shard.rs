//! The sharded on-disk dataset format (`DSHARD01`).
//!
//! A dataset directory holds one framed binary file per shard plus a
//! framed JSON manifest, so million-entity MMKGs can be written, audited,
//! and consumed **shard by shard** with peak memory proportional to the
//! largest shard instead of the whole graph. The byte-level contract —
//! header layout, section order, manifest schema, checksum and versioning
//! rules — is specified normatively in `docs/DATA_FORMAT.md`; this module
//! is the reference implementation.
//!
//! Layout in brief: shard `k` owns the contiguous entity ranges
//! `[k·B, (k+1)·B)` on both sides (`B` = `shard_entities`). Every relation
//! triple lives in the shard owning its **head** entity, every attribute
//! triple in the shard owning its entity, every alignment pair in the
//! shard owning its **source** entity, and every image feature row in the
//! shard covering its entity index. Records carry their original list
//! index (`orig_idx`), so the assembler (`ShardManifest::to_dataset`, in
//! [`crate::stream`]) restores the exact original list order and the
//! assembled dataset is bit-identical to the in-memory one
//! ([`crate::dataset_fingerprint`] equal, CI-gated).
//!
//! Every shard file is wrapped in the `desalign-util` atomicio frame
//! (FNV-64 checksum + `DESACKPT` footer), written via the streaming
//! [`FrameWriter`]; the manifest additionally records each shard's payload
//! length and checksum so a swapped-in stale shard is detected even when
//! its own frame verifies.
//!
//! ```
//! use desalign_mmkg::shard::{read_shard, write_shards};
//! use desalign_mmkg::{DatasetSpec, SynthConfig};
//!
//! let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(80).generate(7);
//! let dir = std::env::temp_dir().join("desalign-shard-docex");
//! let manifest = write_shards(&ds, &dir, 32).unwrap();
//! assert_eq!(manifest.shards.len(), 3); // 80 entities / 32 per shard
//!
//! let first = read_shard(&dir.join(&manifest.shards[0].file)).unwrap();
//! assert_eq!(first.src_range, (0, 32));
//! // Triples in shard 0 all have their head entity in [0, 32).
//! assert!(first.src_rel.iter().all(|&(_, (h, _, _))| h < 32));
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::audit::dataset_fingerprint;
use crate::{AlignmentDataset, Mmkg};
use desalign_util::{
    atomic_write, json, read_verified, u64_from_json, u64_to_json, DesalignError, FromJson, FrameWriter, Json,
    JsonError, ToJson,
};
use std::fs;
use std::io;
use std::path::Path;

/// ASCII magic opening every shard payload; the trailing `01` is the
/// format version (see docs/DATA_FORMAT.md §versioning).
pub const SHARD_MAGIC: [u8; 8] = *b"DSHARD01";

/// Manifest (and shard) format version; readers reject anything else.
pub const SHARD_FORMAT_VERSION: u64 = 1;

/// Manifest file name inside a shard directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Fixed shard header size: 8-byte magic + 11 `u64` fields.
pub const SHARD_HEADER_LEN: usize = 8 + 11 * 8;

/// Canonical shard file name: `shard-00042.bin`.
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index:05}.bin")
}

/// Which shard owns entity `e` under `shard_entities`-sized ranges.
/// Out-of-range ids (corrupt data) clamp to the last shard so every
/// record has a deterministic home and the auditor can drop it there.
pub fn shard_of(e: usize, shard_entities: usize, num_shards: usize) -> usize {
    (e / shard_entities).min(num_shards.saturating_sub(1))
}

/// Per-side vocabulary sizes recorded in the manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SideMeta {
    /// Entity count.
    pub num_entities: usize,
    /// Relation vocabulary size.
    pub num_relations: usize,
    /// Attribute vocabulary size.
    pub num_attributes: usize,
}

impl SideMeta {
    /// The sizes of `kg`.
    pub(crate) fn of(kg: &Mmkg) -> Self {
        Self { num_entities: kg.num_entities, num_relations: kg.num_relations, num_attributes: kg.num_attributes }
    }
}

/// One shard's manifest entry: file name, entity ranges, and the frame
/// payload length + FNV-64 checksum (duplicated from the file's own
/// footer so shard-swap corruption is detectable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMeta {
    /// File name relative to the dataset directory.
    pub file: String,
    /// Shard index (also encoded in the shard header).
    pub index: usize,
    /// Source-side entity range `[start, end)`.
    pub src_range: (usize, usize),
    /// Target-side entity range `[start, end)`.
    pub tgt_range: (usize, usize),
    /// Frame payload length in bytes.
    pub payload_len: u64,
    /// FNV-64 checksum of the frame payload.
    pub checksum: u64,
}

/// The digest-checked directory manifest: dataset identity, per-side
/// sizes, pair counts, and the shard table. Written with `atomic_write`
/// (so it is itself framed and checksummed) by [`write_shards`] and the
/// streaming generator/auditor.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardManifest {
    /// Format version ([`SHARD_FORMAT_VERSION`]).
    pub version: u64,
    /// Dataset display name.
    pub name: String,
    /// [`crate::dataset_fingerprint`] of the assembled dataset; the
    /// assembler refuses to return a dataset that hashes differently.
    pub dataset_fingerprint: u64,
    /// Source-side sizes.
    pub source: SideMeta,
    /// Target-side sizes.
    pub target: SideMeta,
    /// Train (seed) pair count across all shards.
    pub n_train: usize,
    /// Test pair count across all shards.
    pub n_test: usize,
    /// Entities per shard range (`B`).
    pub shard_entities: usize,
    /// Shard table, in index order.
    pub shards: Vec<ShardMeta>,
}

impl ToJson for SideMeta {
    fn to_json(&self) -> Json {
        json!({
            "num_entities": self.num_entities,
            "num_relations": self.num_relations,
            "num_attributes": self.num_attributes,
        })
    }
}

impl FromJson for SideMeta {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(SideMeta {
            num_entities: v.field("num_entities")?,
            num_relations: v.field("num_relations")?,
            num_attributes: v.field("num_attributes")?,
        })
    }
}

impl ToJson for ShardMeta {
    fn to_json(&self) -> Json {
        json!({
            "file": self.file,
            "index": self.index,
            "src_start": self.src_range.0,
            "src_end": self.src_range.1,
            "tgt_start": self.tgt_range.0,
            "tgt_end": self.tgt_range.1,
            "payload_len": u64_to_json(self.payload_len),
            "checksum": u64_to_json(self.checksum),
        })
    }
}

impl FromJson for ShardMeta {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(ShardMeta {
            file: v.field("file")?,
            index: v.field("index")?,
            src_range: (v.field("src_start")?, v.field("src_end")?),
            tgt_range: (v.field("tgt_start")?, v.field("tgt_end")?),
            payload_len: u64_from_json(v.get("payload_len").ok_or_else(|| JsonError::schema("missing payload_len"))?)?,
            checksum: u64_from_json(v.get("checksum").ok_or_else(|| JsonError::schema("missing checksum"))?)?,
        })
    }
}

impl ToJson for ShardManifest {
    fn to_json(&self) -> Json {
        json!({
            "kind": "desalign-shard-manifest",
            "version": self.version,
            "name": self.name,
            "dataset_fingerprint": u64_to_json(self.dataset_fingerprint),
            "source": self.source,
            "target": self.target,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "shard_entities": self.shard_entities,
            "shards": self.shards,
        })
    }
}

impl FromJson for ShardManifest {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let kind: String = v.field("kind")?;
        if kind != "desalign-shard-manifest" {
            return Err(JsonError::schema(format!("kind '{kind}' is not a shard manifest")));
        }
        Ok(ShardManifest {
            version: v.field("version")?,
            name: v.field("name")?,
            dataset_fingerprint: u64_from_json(
                v.get("dataset_fingerprint").ok_or_else(|| JsonError::schema("missing dataset_fingerprint"))?,
            )?,
            source: v.field("source")?,
            target: v.field("target")?,
            n_train: v.field("n_train")?,
            n_test: v.field("n_test")?,
            shard_entities: v.field("shard_entities")?,
            shards: v.field("shards")?,
        })
    }
}

/// One decoded shard. Integer records carry their original list index
/// (`orig_idx`) so assembly can restore the exact source order; image
/// vectors are indexed by `entity − range.start`.
#[derive(Clone, Debug, PartialEq)]
pub struct Shard {
    /// Shard index.
    pub index: usize,
    /// Source entity range `[start, end)`.
    pub src_range: (usize, usize),
    /// Target entity range `[start, end)`.
    pub tgt_range: (usize, usize),
    /// Source relation triples: `(orig_idx, (h, r, t))`, head in range.
    pub src_rel: Vec<(usize, (usize, usize, usize))>,
    /// Source attribute triples: `(orig_idx, (e, a))`, entity in range.
    pub src_attr: Vec<(usize, (usize, usize))>,
    /// Source image rows, one slot per entity in range.
    pub src_images: Vec<Option<Vec<f32>>>,
    /// Target relation triples.
    pub tgt_rel: Vec<(usize, (usize, usize, usize))>,
    /// Target attribute triples.
    pub tgt_attr: Vec<(usize, (usize, usize))>,
    /// Target image rows, one slot per entity in range.
    pub tgt_images: Vec<Option<Vec<f32>>>,
    /// Train pairs: `(orig_idx, (s, t))`, source entity in range.
    pub train_pairs: Vec<(usize, (usize, usize))>,
    /// Test pairs: `(orig_idx, (s, t))`, source entity in range.
    pub test_pairs: Vec<(usize, (usize, usize))>,
}

/// The integer records bound for one shard (feature rows are supplied
/// separately, by closure, so callers can stream them from disk).
#[derive(Default)]
pub(crate) struct ShardRecords {
    pub src_rel: Vec<(usize, (usize, usize, usize))>,
    pub src_attr: Vec<(usize, (usize, usize))>,
    pub tgt_rel: Vec<(usize, (usize, usize, usize))>,
    pub tgt_attr: Vec<(usize, (usize, usize))>,
    pub train: Vec<(usize, (usize, usize))>,
    pub test: Vec<(usize, (usize, usize))>,
}

/// Buckets a dataset's integer records into `num_shards` ranges.
pub(crate) fn bucket_records(ds: &AlignmentDataset, shard_entities: usize, num_shards: usize) -> Vec<ShardRecords> {
    let mut buckets: Vec<ShardRecords> = (0..num_shards).map(|_| ShardRecords::default()).collect();
    let of = |e: usize| shard_of(e, shard_entities, num_shards);
    for (i, &trip) in ds.source.rel_triples.iter().enumerate() {
        buckets[of(trip.0)].src_rel.push((i, trip));
    }
    for (i, &at) in ds.source.attr_triples.iter().enumerate() {
        buckets[of(at.0)].src_attr.push((i, at));
    }
    for (i, &trip) in ds.target.rel_triples.iter().enumerate() {
        buckets[of(trip.0)].tgt_rel.push((i, trip));
    }
    for (i, &at) in ds.target.attr_triples.iter().enumerate() {
        buckets[of(at.0)].tgt_attr.push((i, at));
    }
    for (i, &p) in ds.train_pairs.iter().enumerate() {
        buckets[of(p.0)].train.push((i, p));
    }
    for (i, &p) in ds.test_pairs.iter().enumerate() {
        buckets[of(p.0)].test.push((i, p));
    }
    buckets
}

/// Entity range of shard `k` on a side with `n` entities.
pub(crate) fn range_of(k: usize, shard_entities: usize, n: usize) -> (usize, usize) {
    let start = (k * shard_entities).min(n);
    let end = ((k + 1) * shard_entities).min(n);
    (start, end)
}

/// Encodes one shard to `path` through a [`FrameWriter`] (so the payload
/// never exists as one contiguous buffer). `src_image`/`tgt_image` yield
/// the feature row for a **global** entity id, or `None` when absent.
/// Returns `(payload_len, checksum)` for the manifest.
pub(crate) fn encode_shard(
    path: &Path,
    index: usize,
    src_range: (usize, usize),
    tgt_range: (usize, usize),
    recs: &ShardRecords,
    mut src_image: impl FnMut(usize) -> Option<Vec<f32>>,
    mut tgt_image: impl FnMut(usize) -> Option<Vec<f32>>,
) -> io::Result<(u64, u64)> {
    let mut w = FrameWriter::create(path)?;
    w.write(&SHARD_MAGIC)?;
    for v in [
        index,
        src_range.0,
        src_range.1,
        tgt_range.0,
        tgt_range.1,
        recs.src_rel.len(),
        recs.src_attr.len(),
        recs.tgt_rel.len(),
        recs.tgt_attr.len(),
        recs.train.len(),
        recs.test.len(),
    ] {
        w.write(&(v as u64).to_le_bytes())?;
    }
    let write_images =
        |w: &mut FrameWriter, range: (usize, usize), image: &mut dyn FnMut(usize) -> Option<Vec<f32>>| -> io::Result<()> {
            for e in range.0..range.1 {
                match image(e) {
                    None => w.write(&[0u8])?,
                    Some(row) => {
                        w.write(&[1u8])?;
                        w.write(&(row.len() as u32).to_le_bytes())?;
                        for v in &row {
                            w.write(&v.to_bits().to_le_bytes())?;
                        }
                    }
                }
            }
            Ok(())
        };
    for &(i, (h, r, t)) in &recs.src_rel {
        for v in [i, h, r, t] {
            w.write(&(v as u64).to_le_bytes())?;
        }
    }
    for &(i, (e, a)) in &recs.src_attr {
        for v in [i, e, a] {
            w.write(&(v as u64).to_le_bytes())?;
        }
    }
    write_images(&mut w, src_range, &mut src_image)?;
    for &(i, (h, r, t)) in &recs.tgt_rel {
        for v in [i, h, r, t] {
            w.write(&(v as u64).to_le_bytes())?;
        }
    }
    for &(i, (e, a)) in &recs.tgt_attr {
        for v in [i, e, a] {
            w.write(&(v as u64).to_le_bytes())?;
        }
    }
    write_images(&mut w, tgt_range, &mut tgt_image)?;
    for pairs in [&recs.train, &recs.test] {
        for &(i, (s, t)) in pairs.iter() {
            for v in [i, s, t] {
                w.write(&(v as u64).to_le_bytes())?;
            }
        }
    }
    let payload_len = w.payload_len();
    let checksum = w.finish()?;
    Ok((payload_len, checksum))
}

/// Writes `ds` as a shard directory under `dir` (created if missing) with
/// `shard_entities` entities per range, and writes the digest-checked
/// manifest last. Returns the manifest. Peak extra memory is one shard's
/// feature rows; the input dataset is already resident by definition —
/// use [`crate::SynthConfig::generate_sharded`] to produce shards without
/// ever materializing the full KG.
///
/// Note on degenerate inputs: the shard format has exactly one image slot
/// per entity, so an `images` vector whose length disagrees with
/// `num_entities` (the in-memory `Schema` defect) is normalized on write
/// — extra rows are dropped, missing slots become `None` — exactly what
/// the in-memory repair does.
pub fn write_shards(ds: &AlignmentDataset, dir: &Path, shard_entities: usize) -> Result<ShardManifest, DesalignError> {
    if shard_entities == 0 {
        return Err(DesalignError::config("shard_entities", "must be ≥ 1"));
    }
    fs::create_dir_all(dir).map_err(|e| DesalignError::io(dir.display().to_string(), e))?;
    let (n_s, n_t) = (ds.source.num_entities, ds.target.num_entities);
    let num_shards = n_s.max(n_t).div_ceil(shard_entities).max(1);
    let buckets = bucket_records(ds, shard_entities, num_shards);
    let mut shards = Vec::with_capacity(num_shards);
    for (k, recs) in buckets.iter().enumerate() {
        let src_range = range_of(k, shard_entities, n_s);
        let tgt_range = range_of(k, shard_entities, n_t);
        let file = shard_file_name(k);
        let path = dir.join(&file);
        let (payload_len, checksum) = encode_shard(
            &path,
            k,
            src_range,
            tgt_range,
            recs,
            |e| ds.source.images.get(e).cloned().flatten(),
            |e| ds.target.images.get(e).cloned().flatten(),
        )
        .map_err(|e| DesalignError::io(path.display().to_string(), e))?;
        shards.push(ShardMeta { file, index: k, src_range, tgt_range, payload_len, checksum });
    }
    let manifest = ShardManifest {
        version: SHARD_FORMAT_VERSION,
        name: ds.name.clone(),
        dataset_fingerprint: dataset_fingerprint(ds),
        source: SideMeta::of(&ds.source),
        target: SideMeta::of(&ds.target),
        n_train: ds.train_pairs.len(),
        n_test: ds.test_pairs.len(),
        shard_entities,
        shards,
    };
    write_manifest(dir, &manifest)?;
    Ok(manifest)
}

/// Atomically (re)writes the manifest of a shard directory.
pub fn write_manifest(dir: &Path, manifest: &ShardManifest) -> Result<(), DesalignError> {
    let path = dir.join(MANIFEST_FILE);
    atomic_write(&path, manifest.to_json().to_string().as_bytes())
        .map_err(|e| DesalignError::io(path.display().to_string(), e))
}

/// Reads and verifies the manifest of a shard directory. Rejects frames
/// that fail their checksum, JSON that does not parse (with the byte
/// offset in the error location), non-manifest documents, and unsupported
/// format versions.
pub fn read_manifest(dir: &Path) -> Result<ShardManifest, DesalignError> {
    let path = dir.join(MANIFEST_FILE);
    let loc = || path.display().to_string();
    let bytes = read_verified(&path).map_err(|e| {
        if e.kind() == io::ErrorKind::InvalidData {
            DesalignError::parse(loc(), format!("manifest frame invalid: {e}"))
        } else {
            DesalignError::io(loc(), e)
        }
    })?;
    let text = String::from_utf8(bytes).map_err(|e| DesalignError::parse(loc(), e))?;
    let doc = Json::parse(&text)
        .map_err(|e| DesalignError::parse(format!("{}@byte {}", path.display(), e.offset), e))?;
    let manifest =
        ShardManifest::from_json(&doc).map_err(|e| DesalignError::schema(loc(), e))?;
    if manifest.version != SHARD_FORMAT_VERSION {
        return Err(DesalignError::schema(
            loc(),
            format!("unsupported shard format version {} (this reader implements {SHARD_FORMAT_VERSION})", manifest.version),
        ));
    }
    Ok(manifest)
}

/// Reads and fully verifies one shard file: atomicio frame (length +
/// checksum + magic footer), then the `DSHARD01` payload. Every failure
/// is a typed [`DesalignError`] whose location carries the file and —
/// for payload decode errors — the byte offset where decoding stopped.
pub fn read_shard(path: &Path) -> Result<Shard, DesalignError> {
    // Failpoint `shard.read`: replays a flaky disk under the streaming
    // auditor / neighborhood sampler. No-op without an active schedule.
    desalign_failpoint::fail_io("shard.read")
        .map_err(|e| DesalignError::io(path.display().to_string(), e))?;
    let payload = read_verified(path).map_err(|e| {
        if e.kind() == io::ErrorKind::InvalidData {
            DesalignError::parse(path.display().to_string(), format!("shard frame invalid: {e}"))
        } else {
            DesalignError::io(path.display().to_string(), e)
        }
    })?;
    decode_shard(&payload, &path.display().to_string())
}

/// Bounds-checked little-endian reader over a shard payload; every error
/// names `file@byte N`.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    file: &'a str,
}

impl<'a> Cursor<'a> {
    fn err(&self, msg: impl std::fmt::Display) -> DesalignError {
        DesalignError::parse(format!("{}@byte {}", self.file, self.pos), msg)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DesalignError> {
        if self.bytes.len() - self.pos < n {
            return Err(self.err(format!("payload truncated: need {n} bytes, {} remain", self.bytes.len() - self.pos)));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn u64(&mut self) -> Result<u64, DesalignError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn usize(&mut self) -> Result<usize, DesalignError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.err(format!("value {v} exceeds usize")))
    }

    fn u32(&mut self) -> Result<u32, DesalignError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u8(&mut self) -> Result<u8, DesalignError> {
        Ok(self.take(1)?[0])
    }

    /// Rejects a record count whose section could not possibly fit in the
    /// remaining payload — the guard that keeps hostile counts (e.g.
    /// `u64::MAX` from a bit flip) from driving huge allocations.
    fn check_count(&self, count: usize, record_bytes: usize, what: &str) -> Result<(), DesalignError> {
        match count.checked_mul(record_bytes) {
            Some(total) if total <= self.remaining() => Ok(()),
            _ => Err(self.err(format!(
                "{what} count {count} ({record_bytes} bytes each) exceeds the {} remaining payload bytes",
                self.remaining()
            ))),
        }
    }
}

/// Decodes a verified shard payload; `file` labels error locations.
pub(crate) fn decode_shard(payload: &[u8], file: &str) -> Result<Shard, DesalignError> {
    let mut c = Cursor { bytes: payload, pos: 0, file };
    let magic = c.take(8)?;
    if magic != SHARD_MAGIC {
        return Err(DesalignError::schema(
            format!("{file}@byte 0"),
            format!("bad shard magic {magic:02x?} (expected {:02x?} = \"DSHARD01\")", &SHARD_MAGIC),
        ));
    }
    let index = c.usize()?;
    let src_range = (c.usize()?, c.usize()?);
    let tgt_range = (c.usize()?, c.usize()?);
    for (range, side) in [(src_range, "source"), (tgt_range, "target")] {
        if range.0 > range.1 {
            return Err(c.err(format!("{side} range [{}, {}) is inverted", range.0, range.1)));
        }
    }
    let n_src_rel = c.usize()?;
    let n_src_attr = c.usize()?;
    let n_tgt_rel = c.usize()?;
    let n_tgt_attr = c.usize()?;
    let n_train = c.usize()?;
    let n_test = c.usize()?;

    let read_rel = |c: &mut Cursor, count: usize| -> Result<Vec<(usize, (usize, usize, usize))>, DesalignError> {
        c.check_count(count, 32, "relation triple")?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push((c.usize()?, (c.usize()?, c.usize()?, c.usize()?)));
        }
        Ok(out)
    };
    let read_attr = |c: &mut Cursor, count: usize| -> Result<Vec<(usize, (usize, usize))>, DesalignError> {
        c.check_count(count, 24, "attribute triple")?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push((c.usize()?, (c.usize()?, c.usize()?)));
        }
        Ok(out)
    };
    let read_images = |c: &mut Cursor, range: (usize, usize)| -> Result<Vec<Option<Vec<f32>>>, DesalignError> {
        let slots = range.1 - range.0;
        c.check_count(slots, 1, "image slot")?;
        let mut out = Vec::with_capacity(slots);
        for _ in 0..slots {
            match c.u8()? {
                0 => out.push(None),
                1 => {
                    let dim = c.u32()? as usize;
                    c.check_count(dim, 4, "image row value")?;
                    let mut row = Vec::with_capacity(dim);
                    for _ in 0..dim {
                        row.push(f32::from_bits(c.u32()?));
                    }
                    out.push(Some(row));
                }
                tag => return Err(c.err(format!("bad image presence tag {tag} (expected 0 or 1)"))),
            }
        }
        Ok(out)
    };
    let read_pairs = |c: &mut Cursor, count: usize| -> Result<Vec<(usize, (usize, usize))>, DesalignError> {
        c.check_count(count, 24, "alignment pair")?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push((c.usize()?, (c.usize()?, c.usize()?)));
        }
        Ok(out)
    };

    let src_rel = read_rel(&mut c, n_src_rel)?;
    let src_attr = read_attr(&mut c, n_src_attr)?;
    let src_images = read_images(&mut c, src_range)?;
    let tgt_rel = read_rel(&mut c, n_tgt_rel)?;
    let tgt_attr = read_attr(&mut c, n_tgt_attr)?;
    let tgt_images = read_images(&mut c, tgt_range)?;
    let train_pairs = read_pairs(&mut c, n_train)?;
    let test_pairs = read_pairs(&mut c, n_test)?;
    if c.remaining() != 0 {
        return Err(c.err(format!("{} trailing bytes after the last section", c.remaining())));
    }
    Ok(Shard {
        index,
        src_range,
        tgt_range,
        src_rel,
        src_attr,
        src_images,
        tgt_rel,
        tgt_attr,
        tgt_images,
        train_pairs,
        test_pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetSpec, SynthConfig};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("desalign-shard-tests").join(name);
        fs::create_dir_all(&dir).expect("tempdir");
        dir
    }

    fn small() -> AlignmentDataset {
        SynthConfig::preset(DatasetSpec::FbDb15k).scaled(90).generate(11)
    }

    #[test]
    fn write_read_round_trips_every_section() {
        let ds = small();
        let dir = tmpdir("roundtrip");
        let manifest = write_shards(&ds, &dir, 40).expect("write");
        assert_eq!(manifest.shards.len(), 3);
        assert_eq!(manifest.n_train, ds.train_pairs.len());
        let mut rel_total = 0;
        for meta in &manifest.shards {
            let shard = read_shard(&dir.join(&meta.file)).expect("read");
            assert_eq!(shard.index, meta.index);
            assert_eq!(shard.src_range, meta.src_range);
            assert_eq!(shard.src_images.len(), meta.src_range.1 - meta.src_range.0);
            for &(orig, trip) in &shard.src_rel {
                assert_eq!(ds.source.rel_triples[orig], trip);
            }
            for (off, row) in shard.tgt_images.iter().enumerate() {
                assert_eq!(row, &ds.target.images[meta.tgt_range.0 + off]);
            }
            rel_total += shard.src_rel.len();
        }
        assert_eq!(rel_total, ds.source.rel_triples.len());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_round_trips_and_checks_version() {
        let ds = small();
        let dir = tmpdir("manifest");
        let written = write_shards(&ds, &dir, 64).expect("write");
        let read = read_manifest(&dir).expect("read");
        assert_eq!(read, written);

        let mut bad = read.clone();
        bad.version = 2;
        write_manifest(&dir, &bad).expect("write v2");
        let err = read_manifest(&dir).unwrap_err();
        assert!(err.to_string().contains("unsupported shard format version 2"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_checksums_match_manifest() {
        let ds = small();
        let dir = tmpdir("checksums");
        let manifest = write_shards(&ds, &dir, 32).expect("write");
        for meta in &manifest.shards {
            let payload = read_verified(&dir.join(&meta.file)).expect("frame verifies");
            assert_eq!(payload.len() as u64, meta.payload_len);
            assert_eq!(desalign_util::checksum64(&payload), meta.checksum);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_rejects_bad_magic_and_trailing_bytes() {
        let ds = small();
        let dir = tmpdir("decode-rejects");
        let manifest = write_shards(&ds, &dir, 64).expect("write");
        let path = dir.join(&manifest.shards[0].file);
        let mut payload = read_verified(&path).expect("read");

        let mut wrong_magic = payload.clone();
        wrong_magic[0] ^= 0xFF;
        let err = decode_shard(&wrong_magic, "s").unwrap_err();
        assert!(err.to_string().contains("bad shard magic"), "{err}");

        payload.push(0);
        let err = decode_shard(&payload, "s").unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_count_fails_before_allocating() {
        let ds = small();
        let dir = tmpdir("hostile-count");
        let manifest = write_shards(&ds, &dir, 64).expect("write");
        let mut payload = read_verified(&dir.join(&manifest.shards[0].file)).expect("read");
        // Overwrite n_src_rel (header offset 48) with u64::MAX.
        payload[48..56].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_shard(&payload, "s").unwrap_err();
        assert!(err.to_string().contains("exceeds the"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_errors_carry_byte_offsets() {
        let ds = small();
        let dir = tmpdir("offsets");
        let manifest = write_shards(&ds, &dir, 64).expect("write");
        let payload = read_verified(&dir.join(&manifest.shards[0].file)).expect("read");
        let err = decode_shard(&payload[..SHARD_HEADER_LEN + 3], "shard-00000.bin").unwrap_err();
        assert!(err.to_string().contains("shard-00000.bin@byte"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn images_length_mismatch_is_normalized_on_write() {
        let mut ds = small();
        ds.source.images.truncate(ds.source.num_entities - 5);
        let dir = tmpdir("img-normalize");
        let manifest = write_shards(&ds, &dir, 1000).expect("write");
        let shard = read_shard(&dir.join(&manifest.shards[0].file)).expect("read");
        assert_eq!(shard.src_images.len(), ds.source.num_entities);
        assert!(shard.src_images[ds.source.num_entities - 1].is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_records_land_in_the_last_shard() {
        let mut ds = small();
        let n = ds.source.num_entities;
        ds.source.rel_triples.push((n + 100, 0, 1)); // dangling head
        ds.train_pairs.push((n + 3, 0)); // out-of-range pair
        let dir = tmpdir("oob");
        let manifest = write_shards(&ds, &dir, 32).expect("write");
        let last = read_shard(&dir.join(&manifest.shards.last().unwrap().file)).expect("read");
        assert!(last.src_rel.iter().any(|&(_, (h, _, _))| h == n + 100));
        assert!(last.train_pairs.iter().any(|&(_, (s, _))| s == n + 3));
        fs::remove_dir_all(&dir).ok();
    }
}
