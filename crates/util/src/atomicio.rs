//! Crash-safe file I/O: a checksummed frame container plus
//! write-to-temp / fsync / atomic-rename persistence.
//!
//! This is the storage substrate of the training-checkpoint subsystem
//! (see `docs/RELIABILITY.md`). The guarantee it provides is **atomic
//! replacement**: a process killed at *any* byte boundary during
//! [`atomic_write`] leaves the destination path holding either the old
//! complete frame or the new complete frame — never a torn mixture — and
//! [`read_verified`] detects every torn, truncated, or bit-flipped file as
//! a clean `InvalidData` error instead of returning corrupt payload bytes.
//!
//! # Frame layout
//!
//! A frame is the payload followed by a fixed 24-byte footer:
//!
//! ```text
//! ┌────────────────────┬──────────────┬───────────────┬───────────────┐
//! │ payload (N bytes)  │ len: u64 LE  │ fnv64: u64 LE │ magic (8 B)   │
//! └────────────────────┴──────────────┴───────────────┴───────────────┘
//! ```
//!
//! - `len` is the payload length `N`; a file whose size is not exactly
//!   `N + 24` is rejected.
//! - `fnv64` is the FNV-1a 64-bit checksum of the payload bytes
//!   ([`checksum64`]).
//! - `magic` is the ASCII literal `DESACKPT` ([`FOOTER_MAGIC`]).
//!
//! The footer sits at the **end** of the file on purpose: any truncation —
//! the overwhelmingly common torn-write failure — destroys the magic, so
//! detection does not even need to hash the payload.
//!
//! # Write mechanics
//!
//! [`atomic_write`] writes the frame to a sibling temp file
//! ([`temp_path`]), `fsync`s it, atomically `rename`s it over the
//! destination, then best-effort `fsync`s the parent directory so the
//! rename itself is durable. POSIX `rename(2)` over an existing file is
//! atomic; a crash before the rename leaves only a stale `.tmp` (ignored
//! by readers), a crash after leaves the complete new frame.
//!
//! ```
//! use desalign_util::{atomic_write, read_verified};
//!
//! let path = std::env::temp_dir().join("desalign-atomicio-doc.bin");
//! atomic_write(&path, b"state v1").unwrap();
//! atomic_write(&path, b"state v2").unwrap(); // replaces atomically
//! assert_eq!(read_verified(&path).unwrap(), b"state v2");
//! std::fs::remove_file(&path).ok();
//! ```

use desalign_failpoint::{self as failpoint, FaultAction};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Evaluates a write-path failpoint. A [`FaultAction::Torn`] fault
/// persists only the first `n` bytes of `framed` to `tmp` (simulating a
/// process killed mid-write: the destination is untouched, the staging
/// file holds a torn prefix) and then fails; other faults map through
/// [`desalign_failpoint::fail_io`] semantics.
fn write_failpoint(site: &str, tmp: &Path, framed: &[u8]) -> io::Result<()> {
    match failpoint::evaluate(site) {
        None => Ok(()),
        Some(fault) => match fault.action {
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                Ok(())
            }
            FaultAction::Torn(n) => {
                let cut = n.min(framed.len());
                let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(tmp)?;
                f.write_all(&framed[..cut])?;
                f.sync_all()?;
                Err(fault.to_io_error(site))
            }
            FaultAction::Err(_) => Err(fault.to_io_error(site)),
        },
    }
}

/// ASCII magic `DESACKPT` closing every frame.
pub const FOOTER_MAGIC: [u8; 8] = *b"DESACKPT";

/// Total footer size in bytes: `len (8) + checksum (8) + magic (8)`.
pub const FOOTER_LEN: usize = 24;

/// A running FNV-1a 64-bit hash: the frame checksum, the dataset
/// fingerprints and the pipeline fingerprints all fold their bytes
/// through this one implementation.
///
/// ```
/// let mut h = desalign_util::Fnv64::new();
/// h.write(b"split ");
/// h.write(b"input");
/// assert_eq!(h.finish(), desalign_util::checksum64(b"split input"));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a offset basis (the hash of no bytes).
    pub const fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash, one byte at a time.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds `v` as 8 little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of every byte written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64-bit checksum over a byte slice — the frame integrity hash.
///
/// Not cryptographic; it guards against torn writes and storage bit rot,
/// not adversaries.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Wraps `payload` in the checksummed frame (payload + 24-byte footer).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FOOTER_LEN);
    out.extend_from_slice(payload);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum64(payload).to_le_bytes());
    out.extend_from_slice(&FOOTER_MAGIC);
    out
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Validates a frame and returns the payload slice.
///
/// Errors with `InvalidData` when the frame is shorter than a footer, the
/// magic is wrong (truncation), the recorded length disagrees with the
/// byte count, or the checksum does not match.
pub fn unframe(bytes: &[u8]) -> io::Result<&[u8]> {
    if bytes.len() < FOOTER_LEN {
        return Err(invalid(format!("frame too short: {} bytes < {FOOTER_LEN}-byte footer", bytes.len())));
    }
    let (body, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
    if footer[16..24] != FOOTER_MAGIC {
        return Err(invalid("bad frame magic (file truncated or not a checkpoint)"));
    }
    let len = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes")) as usize;
    if len != body.len() {
        return Err(invalid(format!("frame length mismatch: footer says {len} payload bytes, file holds {}", body.len())));
    }
    let stored = u64::from_le_bytes(footer[8..16].try_into().expect("8 bytes"));
    let actual = checksum64(body);
    if stored != actual {
        return Err(invalid(format!("frame checksum mismatch: stored {stored:016x}, computed {actual:016x}")));
    }
    Ok(body)
}

/// The sibling temp path [`atomic_write`] stages into: `<path>.tmp`.
///
/// Deterministic so a crashed writer's stale temp file is simply
/// overwritten by the next write — readers never look at it.
pub fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replaces `path` with the framed `payload`.
///
/// Sequence: write the frame to [`temp_path`], `fsync` the file, `rename`
/// it over `path`, then best-effort `fsync` the parent directory. A kill
/// at any point leaves `path` holding either its previous contents or the
/// complete new frame.
pub fn atomic_write(path: &Path, payload: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    let framed = frame(payload);
    // Failpoint `atomicio.write`: `torn:<n>` replays a kill mid-write
    // (torn staging file, destination untouched); `err` fails before any
    // byte is staged. No-op without an active schedule.
    write_failpoint("atomicio.write", &tmp, &framed)?;
    {
        let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        f.write_all(&framed)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Durability of the rename itself: fsync the directory entry.
    // Best-effort — some platforms refuse to open directories.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(if dir.as_os_str().is_empty() { Path::new(".") } else { dir }) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Streaming counterpart of [`atomic_write`]: payload bytes arrive in any
/// number of [`write`](FrameWriter::write) calls, the FNV-64 checksum and
/// payload length accumulate as they stream, and [`finish`](FrameWriter::finish)
/// appends the 24-byte footer, `fsync`s, and atomically renames the staged
/// temp file over the destination.
///
/// Use this when the payload is too large (or too awkward) to build in one
/// contiguous buffer — e.g. the sharded dataset writer, which emits a shard
/// section by section. The resulting file is byte-identical to
/// `atomic_write(path, &all_bytes)` and verifies with [`read_verified`].
/// Dropping a `FrameWriter` without calling `finish` leaves only the stale
/// `.tmp` file, which readers never look at.
///
/// ```
/// use desalign_util::{read_verified, FrameWriter};
///
/// let path = std::env::temp_dir().join("desalign-framewriter-doc.bin");
/// let mut w = FrameWriter::create(&path).unwrap();
/// w.write(b"streamed in ").unwrap();
/// w.write(b"two chunks").unwrap();
/// let checksum = w.finish().unwrap();
/// assert_eq!(read_verified(&path).unwrap(), b"streamed in two chunks");
/// assert_eq!(checksum, desalign_util::checksum64(b"streamed in two chunks"));
/// std::fs::remove_file(&path).ok();
/// ```
pub struct FrameWriter {
    path: PathBuf,
    tmp: PathBuf,
    file: io::BufWriter<File>,
    len: u64,
    hash: Fnv64,
}

impl FrameWriter {
    /// Opens the staging temp file for `path` and starts an empty frame.
    pub fn create(path: &Path) -> io::Result<Self> {
        let tmp = temp_path(path);
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        Ok(Self {
            path: path.to_path_buf(),
            tmp,
            file: io::BufWriter::new(file),
            len: 0,
            hash: Fnv64::new(),
        })
    }

    /// Appends payload bytes, folding them into the running checksum.
    ///
    /// Failpoint `atomicio.frame.write`: `torn:<n>` persists only the
    /// first `n` bytes of this chunk before failing (the destination file
    /// is never touched — only the staging temp file tears).
    pub fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        if let Some(fault) = failpoint::evaluate("atomicio.frame.write") {
            match fault.action {
                FaultAction::Delay(d) => std::thread::sleep(d),
                FaultAction::Torn(n) => {
                    let cut = n.min(bytes.len());
                    self.file.write_all(&bytes[..cut])?;
                    let _ = self.file.flush();
                    return Err(fault.to_io_error("atomicio.frame.write"));
                }
                FaultAction::Err(_) => return Err(fault.to_io_error("atomicio.frame.write")),
            }
        }
        self.hash.write(bytes);
        self.len += bytes.len() as u64;
        self.file.write_all(bytes)
    }

    /// Payload bytes written so far.
    pub fn payload_len(&self) -> u64 {
        self.len
    }

    /// Appends the footer, `fsync`s, and renames the temp file over the
    /// destination. Returns the payload checksum.
    pub fn finish(self) -> io::Result<u64> {
        let Self { path, tmp, mut file, len, hash } = self;
        let hash = hash.finish();
        // Failpoint `atomicio.frame.finish`: fail before the footer +
        // rename make the new frame visible — the destination keeps its
        // previous generation, exactly like a kill at this instant.
        desalign_failpoint::fail_io("atomicio.frame.finish")?;
        file.write_all(&len.to_le_bytes())?;
        file.write_all(&hash.to_le_bytes())?;
        file.write_all(&FOOTER_MAGIC)?;
        file.flush()?;
        file.get_ref().sync_all()?;
        drop(file);
        fs::rename(&tmp, &path)?;
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(if dir.as_os_str().is_empty() { Path::new(".") } else { dir }) {
                let _ = d.sync_all();
            }
        }
        Ok(hash)
    }
}

/// Reads `path` and returns the verified payload.
///
/// I/O errors pass through; torn/truncated/corrupt frames become
/// `InvalidData` errors (see [`unframe`]). Never panics and never returns
/// unverified bytes.
pub fn read_verified(path: &Path) -> io::Result<Vec<u8>> {
    // Failpoint `atomicio.read`: injected flaky-disk reads (err/notfound/
    // timeout/delay). No-op without an active schedule.
    desalign_failpoint::fail_io("atomicio.read")?;
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let payload_len = unframe(&bytes)?.len();
    bytes.truncate(payload_len);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("desalign-atomicio-tests");
        fs::create_dir_all(&dir).expect("tempdir");
        dir.join(name)
    }

    #[test]
    fn frame_round_trips() {
        for payload in [&b""[..], b"x", b"hello checkpoint", &[0u8; 1000][..]] {
            let framed = frame(payload);
            assert_eq!(framed.len(), payload.len() + FOOTER_LEN);
            assert_eq!(unframe(&framed).expect("verifies"), payload);
        }
    }

    #[test]
    fn truncation_at_every_byte_is_detected() {
        let payload = b"0123456789abcdef";
        let framed = frame(payload);
        for cut in 0..framed.len() {
            assert!(unframe(&framed[..cut]).is_err(), "truncation to {cut} bytes accepted");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let framed = frame(b"sensitive payload");
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut corrupt = framed.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(unframe(&corrupt).is_err(), "flip at byte {byte} bit {bit} accepted");
            }
        }
    }

    #[test]
    fn appended_garbage_is_detected() {
        let mut framed = frame(b"payload");
        framed.extend_from_slice(b"junk");
        assert!(unframe(&framed).is_err());
    }

    #[test]
    fn atomic_write_then_read_verified() {
        // Serialized: failpoint tests install process-global schedules
        // on the sites these helpers hit.
        let _guard = desalign_failpoint::exclusive();
        let path = tmp("write-read.bin");
        atomic_write(&path, b"generation 1").expect("write 1");
        assert_eq!(read_verified(&path).expect("read 1"), b"generation 1");
        atomic_write(&path, b"generation 2 is longer").expect("write 2");
        assert_eq!(read_verified(&path).expect("read 2"), b"generation 2 is longer");
        assert!(!temp_path(&path).exists(), "temp file left behind after successful write");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_temp_file_is_ignored_and_overwritten() {
        // Serialized: failpoint tests install process-global schedules
        // on the sites these helpers hit.
        let _guard = desalign_failpoint::exclusive();
        let path = tmp("stale-tmp.bin");
        atomic_write(&path, b"good state").expect("write");
        // A previous writer died mid-write: partial frame at the temp path.
        fs::write(temp_path(&path), &frame(b"newer state")[..5]).expect("plant stale tmp");
        assert_eq!(read_verified(&path).expect("reader ignores tmp"), b"good state");
        atomic_write(&path, b"next state").expect("overwrites stale tmp");
        assert_eq!(read_verified(&path).expect("read"), b"next state");
        fs::remove_file(&path).ok();
        fs::remove_file(temp_path(&path)).ok();
    }

    #[test]
    fn torn_final_file_errors_cleanly() {
        // Serialized: failpoint tests install process-global schedules
        // on the sites these helpers hit.
        let _guard = desalign_failpoint::exclusive();
        let path = tmp("torn.bin");
        atomic_write(&path, b"complete").expect("write");
        let full = fs::read(&path).expect("read raw");
        for cut in [0usize, 1, full.len() / 2, full.len() - 1] {
            fs::write(&path, &full[..cut]).expect("truncate");
            let err = read_verified(&path).expect_err("torn file accepted");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_not_found() {
        // Serialized: failpoint tests install process-global schedules
        // on the sites these helpers hit.
        let _guard = desalign_failpoint::exclusive();
        let err = read_verified(&tmp("never-written.bin")).expect_err("missing file");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn frame_writer_matches_atomic_write_byte_for_byte() {
        // Serialized: failpoint tests install process-global schedules
        // on the sites these helpers hit.
        let _guard = desalign_failpoint::exclusive();
        let a = tmp("fw-a.bin");
        let b = tmp("fw-b.bin");
        let payload = b"the same payload, two write paths";
        atomic_write(&a, payload).expect("atomic_write");
        let mut w = FrameWriter::create(&b).expect("create");
        for chunk in payload.chunks(7) {
            w.write(chunk).expect("write chunk");
        }
        assert_eq!(w.payload_len(), payload.len() as u64);
        let checksum = w.finish().expect("finish");
        assert_eq!(checksum, checksum64(payload));
        assert_eq!(fs::read(&a).expect("read a"), fs::read(&b).expect("read b"));
        assert!(!temp_path(&b).exists(), "temp file left behind");
        fs::remove_file(&a).ok();
        fs::remove_file(&b).ok();
    }

    #[test]
    fn frame_writer_empty_payload_round_trips() {
        // Serialized: failpoint tests install process-global schedules
        // on the sites these helpers hit.
        let _guard = desalign_failpoint::exclusive();
        let p = tmp("fw-empty.bin");
        let w = FrameWriter::create(&p).expect("create");
        w.finish().expect("finish");
        assert_eq!(read_verified(&p).expect("read"), b"");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn unfinished_frame_writer_leaves_destination_untouched() {
        // Serialized: failpoint tests install process-global schedules
        // on the sites these helpers hit.
        let _guard = desalign_failpoint::exclusive();
        let p = tmp("fw-dropped.bin");
        atomic_write(&p, b"old state").expect("seed");
        {
            let mut w = FrameWriter::create(&p).expect("create");
            w.write(b"never finished").expect("write");
            // dropped without finish()
        }
        assert_eq!(read_verified(&p).expect("read"), b"old state");
        fs::remove_file(&p).ok();
        fs::remove_file(temp_path(&p)).ok();
    }

    #[test]
    fn torn_write_failpoint_preserves_the_old_generation() {
        let _guard = desalign_failpoint::exclusive();
        let path = tmp("fp-torn.bin");
        atomic_write(&path, b"generation 1").expect("seed write");
        // Tear the next write at several byte budgets: the destination
        // must keep generation 1 every time, and the torn staging file
        // must never verify.
        for cut in [0usize, 1, 5, 20] {
            desalign_failpoint::install(&format!("atomicio.write=torn:{cut}@1")).expect("install");
            let err = atomic_write(&path, b"generation 2 (torn)").expect_err("torn write must fail");
            assert_eq!(err.kind(), io::ErrorKind::Interrupted);
            assert_eq!(read_verified(&path).expect("old generation intact"), b"generation 1");
            let staged = fs::read(temp_path(&path)).expect("torn staging file exists");
            assert!(unframe(&staged).is_err(), "torn prefix of {cut} bytes verified");
        }
        desalign_failpoint::clear();
        // With the schedule gone the same write succeeds and replaces.
        atomic_write(&path, b"generation 2").expect("clean write");
        assert_eq!(read_verified(&path).expect("read"), b"generation 2");
        fs::remove_file(&path).ok();
        fs::remove_file(temp_path(&path)).ok();
    }

    #[test]
    fn frame_writer_failpoints_keep_the_destination_untouched() {
        let _guard = desalign_failpoint::exclusive();
        let path = tmp("fp-fw.bin");
        atomic_write(&path, b"old state").expect("seed");
        desalign_failpoint::install("atomicio.frame.write=torn:3@2").expect("install");
        let mut w = FrameWriter::create(&path).expect("create");
        w.write(b"chunk one ").expect("hit 1 passes");
        let err = w.write(b"chunk two").expect_err("hit 2 tears");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        drop(w);
        assert_eq!(read_verified(&path).expect("read"), b"old state");

        desalign_failpoint::install("atomicio.frame.finish=err@1").expect("install");
        let mut w = FrameWriter::create(&path).expect("create");
        w.write(b"never lands").expect("write");
        assert!(w.finish().is_err(), "finish failpoint must fire");
        assert_eq!(read_verified(&path).expect("read"), b"old state");
        desalign_failpoint::clear();
        fs::remove_file(&path).ok();
        fs::remove_file(temp_path(&path)).ok();
    }

    #[test]
    fn read_failpoint_injects_flaky_disk_errors() {
        let _guard = desalign_failpoint::exclusive();
        let path = tmp("fp-read.bin");
        atomic_write(&path, b"payload").expect("write");
        desalign_failpoint::install("atomicio.read=err@2").expect("install");
        assert_eq!(read_verified(&path).expect("hit 1 passes"), b"payload");
        assert!(read_verified(&path).is_err(), "hit 2 must fail");
        assert_eq!(read_verified(&path).expect("hit 3 passes"), b"payload");
        desalign_failpoint::clear();
        fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_is_stable() {
        // FNV-1a 64 reference: empty input hashes to the offset basis.
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(checksum64(b"a"), checksum64(b"b"));
    }
}
