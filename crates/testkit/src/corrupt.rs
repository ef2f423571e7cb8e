//! Deterministic dataset corruptors for robustness testing.
//!
//! Each corruptor injects exactly one defect class from the
//! `desalign-mmkg` audit taxonomy into an [`AlignmentDataset`], seeded
//! from the in-repo RNG so every corrupted dataset is reproducible from
//! `(kind, severity, seed)` alone. The intended contract, exercised by
//! the property tests in `desalign-mmkg`, is:
//!
//! - corrupting then auditing under `Repair` yields a dataset that
//!   passes a `Strict` audit (the auditor fixes what the corruptor broke);
//! - [`CorruptionKind::VisualDrop`] / [`CorruptionKind::TextDrop`] model
//!   the paper's missing-modality degradation (`R_img` sweeps) and leave
//!   the dataset structurally clean — missing modalities are a data
//!   condition, not a defect;
//! - the same `(kind, severity, seed)` always produces the same bytes.
//!
//! [`mutate_bytes`] is the loader-fuzzing half: byte-level mutations
//! (bit flips, overwrites, insertions, deletions, truncation) applied to
//! a serialized dataset, for proving that `load_dataset_json` never
//! panics — every mutated payload either loads clean or returns a typed
//! error.

use desalign_mmkg::AlignmentDataset;
use desalign_tensor::{rng_from_seed, Rng64};

/// One class of injectable dataset damage.
///
/// The first group corrupts feature rows, the second the relation-triple
/// lists, the third the alignment pair lists, the fourth the attribute
/// triples; `VisualDrop` / `TextDrop` degrade modality coverage without
/// introducing structural defects. New kinds are appended, so the RNG
/// stream of every existing kind (seeded from `seed ^ kind`) stays put.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CorruptionKind {
    /// Overwrite one element of an image row with NaN.
    NanFeature,
    /// Overwrite one element of an image row with +∞.
    InfFeature,
    /// Zero an entire image row (norm collapses to 0).
    ZeroNormFeature,
    /// Append one extra element to an image row (dimension mismatch).
    DimMismatch,
    /// Delete image rows (`images[e] = None`) — missing visual modality.
    VisualDrop,
    /// Delete all attribute triples of chosen entities — missing text.
    TextDrop,
    /// Append relation triples whose tail entity does not exist.
    DanglingEdge,
    /// Append relation triples with an out-of-vocabulary relation id.
    UnknownRelation,
    /// Append self-loop relation triples `(h, r, h)`.
    SelfLoop,
    /// Append exact copies of existing relation triples.
    DuplicateTriple,
    /// Append alignment pairs referencing nonexistent entities.
    PairOutOfRange,
    /// Append copies of existing pairs (breaks the one-to-one mapping).
    PairDuplicate,
    /// Insert attribute triples whose entity does not exist, at random
    /// positions of the list.
    DanglingAttribute,
    /// Insert attribute triples with an out-of-vocabulary attribute id on
    /// existing entities, at random positions of the list.
    UnknownAttribute,
}

impl CorruptionKind {
    /// Every corruption kind, for exhaustive sweeps.
    pub const ALL: [CorruptionKind; 14] = [
        CorruptionKind::NanFeature,
        CorruptionKind::InfFeature,
        CorruptionKind::ZeroNormFeature,
        CorruptionKind::DimMismatch,
        CorruptionKind::VisualDrop,
        CorruptionKind::TextDrop,
        CorruptionKind::DanglingEdge,
        CorruptionKind::UnknownRelation,
        CorruptionKind::SelfLoop,
        CorruptionKind::DuplicateTriple,
        CorruptionKind::PairOutOfRange,
        CorruptionKind::PairDuplicate,
        CorruptionKind::DanglingAttribute,
        CorruptionKind::UnknownAttribute,
    ];

    /// Stable kebab-case name (used as a JSON key by the robustness bench).
    pub fn name(self) -> &'static str {
        match self {
            CorruptionKind::NanFeature => "nan-feature",
            CorruptionKind::InfFeature => "inf-feature",
            CorruptionKind::ZeroNormFeature => "zero-norm-feature",
            CorruptionKind::DimMismatch => "dim-mismatch",
            CorruptionKind::VisualDrop => "visual-drop",
            CorruptionKind::TextDrop => "text-drop",
            CorruptionKind::DanglingEdge => "dangling-edge",
            CorruptionKind::UnknownRelation => "unknown-relation",
            CorruptionKind::SelfLoop => "self-loop",
            CorruptionKind::DuplicateTriple => "duplicate-triple",
            CorruptionKind::PairOutOfRange => "pair-out-of-range",
            CorruptionKind::PairDuplicate => "pair-duplicate",
            CorruptionKind::DanglingAttribute => "dangling-attribute",
            CorruptionKind::UnknownAttribute => "unknown-attribute",
        }
    }

    /// Whether this kind leaves the dataset structurally clean (a data
    /// *condition* the model must tolerate, not a defect the auditor
    /// repairs).
    pub fn is_degradation(self) -> bool {
        matches!(self, CorruptionKind::VisualDrop | CorruptionKind::TextDrop)
    }
}

/// How many corruptions to apply given `candidates` sites and `severity`
/// in `[0, 1]`: at least one whenever any site exists, never more than
/// all of them.
fn budget(candidates: usize, severity: f32) -> usize {
    if candidates == 0 {
        return 0;
    }
    let s = severity.clamp(0.0, 1.0);
    ((candidates as f32 * s).ceil() as usize).clamp(1, candidates)
}

/// `count` distinct indices out of `0..n`, in deterministic shuffled order.
fn pick_indices(rng: &mut Rng64, n: usize, count: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    // Fisher–Yates; only the first `count` positions matter.
    for i in 0..count.min(n.saturating_sub(1)) {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(count);
    idx
}

/// Injects `kind` into `ds` at the given `severity` (fraction of eligible
/// sites, clamped to `[0, 1]`; at least one corruption is applied whenever
/// an eligible site exists). Deterministic in `(kind, severity, seed)`.
///
/// Returns the number of corruptions actually applied — `0` only when the
/// dataset has no eligible site for that kind (e.g. `DuplicateTriple` on a
/// graph without relation triples).
pub fn corrupt_dataset(ds: &mut AlignmentDataset, kind: CorruptionKind, severity: f32, seed: u64) -> usize {
    let mut rng = rng_from_seed(seed ^ 0xC0_22_0D_00 ^ kind as u64);
    match kind {
        CorruptionKind::NanFeature => corrupt_rows(ds, severity, &mut rng, |rng, row| {
            let i = rng.gen_range(0..row.len());
            row[i] = f32::NAN;
        }),
        CorruptionKind::InfFeature => corrupt_rows(ds, severity, &mut rng, |rng, row| {
            let i = rng.gen_range(0..row.len());
            row[i] = f32::INFINITY;
        }),
        CorruptionKind::ZeroNormFeature => corrupt_rows(ds, severity, &mut rng, |_, row| {
            row.fill(0.0);
        }),
        CorruptionKind::DimMismatch => corrupt_rows(ds, severity, &mut rng, |rng, row| {
            row.push(rng.gen_range(-1.0f32..1.0));
        }),
        CorruptionKind::VisualDrop => {
            let mut applied = 0;
            for kg in [&mut ds.source, &mut ds.target] {
                let present: Vec<usize> = (0..kg.images.len()).filter(|&e| kg.images[e].is_some()).collect();
                let count = budget(present.len(), severity);
                for &slot in pick_indices(&mut rng, present.len(), count).iter() {
                    kg.images[present[slot]] = None;
                    applied += 1;
                }
            }
            applied
        }
        CorruptionKind::TextDrop => {
            let mut applied = 0;
            for kg in [&mut ds.source, &mut ds.target] {
                let mut with_text: Vec<usize> = kg.attr_triples.iter().map(|&(e, _)| e).collect();
                with_text.sort_unstable();
                with_text.dedup();
                let count = budget(with_text.len(), severity);
                let drop: std::collections::HashSet<usize> =
                    pick_indices(&mut rng, with_text.len(), count).iter().map(|&slot| with_text[slot]).collect();
                kg.attr_triples.retain(|&(e, _)| !drop.contains(&e));
                applied += drop.len();
            }
            applied
        }
        CorruptionKind::DanglingEdge => append_triples(ds, severity, &mut rng, |rng, kg| {
            let h = rng.gen_range(0..kg.num_entities.max(1));
            let r = rng.gen_range(0..kg.num_relations.max(1));
            let t = kg.num_entities + rng.gen_range(0..16usize);
            (h, r, t)
        }),
        CorruptionKind::UnknownRelation => append_triples(ds, severity, &mut rng, |rng, kg| {
            let h = rng.gen_range(0..kg.num_entities.max(1));
            let t = rng.gen_range(0..kg.num_entities.max(1));
            (h, kg.num_relations + rng.gen_range(0..16usize), t)
        }),
        CorruptionKind::SelfLoop => append_triples(ds, severity, &mut rng, |rng, kg| {
            let h = rng.gen_range(0..kg.num_entities.max(1));
            let r = rng.gen_range(0..kg.num_relations.max(1));
            (h, r, h)
        }),
        CorruptionKind::DuplicateTriple => {
            let mut applied = 0;
            for kg in [&mut ds.source, &mut ds.target] {
                let count = budget(kg.rel_triples.len(), severity);
                for _ in 0..count {
                    let dup = kg.rel_triples[rng.gen_range(0..kg.rel_triples.len())];
                    kg.rel_triples.push(dup);
                    applied += 1;
                }
            }
            applied
        }
        CorruptionKind::PairOutOfRange => {
            let count = budget(ds.train_pairs.len() + ds.test_pairs.len(), severity);
            for i in 0..count {
                let bad = (ds.source.num_entities + rng.gen_range(0..16usize), rng.gen_range(0..ds.target.num_entities.max(1)));
                if i % 2 == 0 {
                    ds.test_pairs.push(bad);
                } else {
                    ds.train_pairs.push(bad);
                }
            }
            count
        }
        CorruptionKind::PairDuplicate => {
            let existing: Vec<(usize, usize)> = ds.train_pairs.iter().chain(&ds.test_pairs).copied().collect();
            let count = budget(existing.len(), severity);
            for _ in 0..count {
                let dup = existing[rng.gen_range(0..existing.len())];
                ds.test_pairs.push(dup);
            }
            count
        }
        CorruptionKind::DanglingAttribute => insert_attr_triples(ds, severity, &mut rng, |rng, kg| {
            (kg.num_entities + rng.gen_range(0..16usize), rng.gen_range(0..kg.num_attributes.max(1)))
        }),
        CorruptionKind::UnknownAttribute => insert_attr_triples(ds, severity, &mut rng, |rng, kg| {
            (rng.gen_range(0..kg.num_entities.max(1)), kg.num_attributes + rng.gen_range(0..16usize))
        }),
    }
}

/// Corrupts `budget(present-rows, severity)` image rows per KG side with
/// `damage`, returning the number of rows touched.
fn corrupt_rows(
    ds: &mut AlignmentDataset,
    severity: f32,
    rng: &mut Rng64,
    mut damage: impl FnMut(&mut Rng64, &mut Vec<f32>),
) -> usize {
    let mut applied = 0;
    for kg in [&mut ds.source, &mut ds.target] {
        let present: Vec<usize> = (0..kg.images.len()).filter(|&e| kg.images[e].as_ref().is_some_and(|v| !v.is_empty())).collect();
        let count = budget(present.len(), severity);
        for &slot in pick_indices(rng, present.len(), count).iter() {
            let row = kg.images[present[slot]].as_mut().expect("present row");
            damage(rng, row);
            applied += 1;
        }
    }
    applied
}

/// Appends `budget(existing-triples, severity)` triples built by `make`
/// to each KG side, returning how many were added.
fn append_triples(
    ds: &mut AlignmentDataset,
    severity: f32,
    rng: &mut Rng64,
    mut make: impl FnMut(&mut Rng64, &desalign_mmkg::Mmkg) -> (usize, usize, usize),
) -> usize {
    let mut applied = 0;
    for kg in [&mut ds.source, &mut ds.target] {
        let count = budget(kg.rel_triples.len().max(1), severity);
        for _ in 0..count {
            let triple = make(rng, kg);
            kg.rel_triples.push(triple);
            applied += 1;
        }
    }
    applied
}

/// Inserts `budget(existing-attribute-triples, severity)` triples built
/// by `make` into each KG side, each at a random list position (a defect
/// in front of healthy triples is what exposes a repair that renumbers the
/// survivors). Returns how many were inserted.
fn insert_attr_triples(
    ds: &mut AlignmentDataset,
    severity: f32,
    rng: &mut Rng64,
    mut make: impl FnMut(&mut Rng64, &desalign_mmkg::Mmkg) -> (usize, usize),
) -> usize {
    let mut applied = 0;
    for kg in [&mut ds.source, &mut ds.target] {
        let count = budget(kg.attr_triples.len().max(1), severity);
        for _ in 0..count {
            let triple = make(rng, kg);
            let at = rng.gen_range(0..kg.attr_triples.len() + 1);
            kg.attr_triples.insert(at, triple);
            applied += 1;
        }
    }
    applied
}

/// Applies `mutations` random byte-level edits to `bytes` — bit flips,
/// byte overwrites, insertions, deletions, and truncations — seeded so
/// every fuzz case is replayable. The result may be shorter, longer, or
/// empty; it is *never* guaranteed to be valid JSON, which is the point.
pub fn mutate_bytes(bytes: &[u8], mutations: usize, seed: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let mut rng = rng_from_seed(seed ^ 0xF0_55_00_01);
    for _ in 0..mutations {
        let op = rng.gen_range(0..5usize);
        match op {
            // Bit flip.
            0 if !out.is_empty() => {
                let i = rng.gen_range(0..out.len());
                out[i] ^= 1u8 << rng.gen_range(0..8usize);
            }
            // Overwrite with an arbitrary byte.
            1 if !out.is_empty() => {
                let i = rng.gen_range(0..out.len());
                out[i] = rng.gen_range(0..256usize) as u8;
            }
            // Insert an arbitrary byte.
            2 => {
                let i = rng.gen_range(0..out.len() + 1);
                out.insert(i, rng.gen_range(0..256usize) as u8);
            }
            // Delete one byte.
            3 if !out.is_empty() => {
                let i = rng.gen_range(0..out.len());
                out.remove(i);
            }
            // Truncate.
            4 if !out.is_empty() => {
                let keep = rng.gen_range(0..out.len());
                out.truncate(keep);
            }
            // Chosen op needs bytes we no longer have: fall back to insert.
            _ => {
                let i = rng.gen_range(0..out.len() + 1);
                out.insert(i, rng.gen_range(0..256usize) as u8);
            }
        }
    }
    out
}


/// Applies [`mutate_bytes`] to a file in place: reads it, mutates
/// `mutations` times from `seed`, writes the result back (which may be
/// shorter or longer than the original). Returns the new length.
///
/// This is the shard-level fuzzing entry point: the streaming auditor's
/// hostile-shard tests corrupt individual `shard-*.bin` files this way
/// and assert that reads never panic — every damaged shard either fails
/// its frame/checksum verification with a typed error or is quarantined.
pub fn corrupt_file(path: &std::path::Path, mutations: usize, seed: u64) -> std::io::Result<u64> {
    let bytes = std::fs::read(path)?;
    let out = mutate_bytes(&bytes, mutations, seed);
    let len = out.len() as u64;
    std::fs::write(path, out)?;
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desalign_mmkg::{dataset_fingerprint, AuditPolicy, DatasetSpec, SynthConfig};

    fn sample() -> AlignmentDataset {
        SynthConfig::preset(DatasetSpec::FbDb15k).scaled(50).generate(7)
    }

    #[test]
    fn every_kind_is_deterministic_in_the_seed() {
        for kind in CorruptionKind::ALL {
            let (mut a, mut b) = (sample(), sample());
            let na = corrupt_dataset(&mut a, kind, 0.2, 99);
            let nb = corrupt_dataset(&mut b, kind, 0.2, 99);
            assert_eq!(na, nb, "{}", kind.name());
            assert_eq!(dataset_fingerprint(&a), dataset_fingerprint(&b), "{}", kind.name());
            // A different seed must produce a different dataset.
            let mut c = sample();
            corrupt_dataset(&mut c, kind, 0.2, 100);
            assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&c), "{}", kind.name());
        }
    }

    #[test]
    fn structural_kinds_break_strict_and_degradations_do_not() {
        for kind in CorruptionKind::ALL {
            let mut ds = sample();
            let n = corrupt_dataset(&mut ds, kind, 0.1, 11);
            assert!(n > 0, "{} applied nothing", kind.name());
            let strict = ds.audit(AuditPolicy::Strict);
            if kind.is_degradation() {
                assert!(strict.is_ok(), "{} should stay structurally clean", kind.name());
            } else {
                assert!(strict.is_err(), "{} should fail a strict audit", kind.name());
            }
        }
    }

    #[test]
    fn severity_scales_the_corruption_count() {
        let mut light = sample();
        let mut heavy = sample();
        let a = corrupt_dataset(&mut light, CorruptionKind::VisualDrop, 0.05, 5);
        let b = corrupt_dataset(&mut heavy, CorruptionKind::VisualDrop, 0.8, 5);
        assert!(b > a, "severity 0.8 dropped {b} rows vs {a} at 0.05");
        // Severity 1.0 drops every image.
        let mut all = sample();
        corrupt_dataset(&mut all, CorruptionKind::VisualDrop, 1.0, 5);
        assert_eq!(all.source.num_images() + all.target.num_images(), 0);
    }

    #[test]
    fn mutate_bytes_is_deterministic_and_actually_mutates() {
        let payload = br#"{"name": "ds", "train_pairs": [[0, 1], [2, 3]]}"#;
        let a = mutate_bytes(payload, 8, 42);
        let b = mutate_bytes(payload, 8, 42);
        assert_eq!(a, b);
        assert_ne!(a, payload.to_vec());
        assert_ne!(mutate_bytes(payload, 8, 43), a);
        // Zero mutations is the identity; an empty input never panics
        // (size-dependent ops fall back to insertion).
        assert_eq!(mutate_bytes(payload, 0, 1), payload.to_vec());
        assert_eq!(mutate_bytes(&[], 4, 1), mutate_bytes(&[], 4, 1));
    }
}
