//! The dataset auditor: defect census, strict rejection, deterministic
//! repair.
//!
//! Real MMKG pipelines break on corrupt inputs long before the model does:
//! a dangling triple endpoint panics graph construction, a NaN image row
//! silently poisons fusion, a duplicated seed pair skews supervision. The
//! auditor scans a dataset for every defect class of the [`DefectClass`]
//! taxonomy and either rejects it with a full census
//! ([`AuditPolicy::Strict`]) or quarantines/repairs the defects
//! deterministically ([`AuditPolicy::Repair`]):
//!
//! | defect | repair |
//! |---|---|
//! | dangling triple endpoint | drop the triple |
//! | unknown relation / attribute id | drop the triple |
//! | self-loop relation triple | drop the triple |
//! | duplicate relation triple | keep the first occurrence |
//! | out-of-range alignment pair | drop the pair |
//! | duplicate alignment pair (one-to-one violation) | keep the first (train scanned before test) |
//! | non-finite image feature row | quarantine to `None` (missing image) |
//! | zero-norm image feature row | quarantine to `None` |
//! | image row with the wrong dimension | quarantine to `None` (majority dim wins) |
//! | `images` length ≠ entity count | truncate / pad with `None` |
//!
//! Duplicate **attribute** triples are *not* defects: the Bag-of-Words
//! encoder uses multiplicity as term frequency. Missing modalities are
//! counted informationally ([`DefectClass::MissingModality`]) but never
//! rejected — real MMKGs are incomplete by nature; the model handles them
//! via masked fusion (`mask_missing_modalities`).
//!
//! **One auditor.** A single driver (`audit_shards`) holds the per-record
//! loop. It reaches data through the `ShardStore` seam, which has exactly
//! two implementations: [`AlignmentDataset::audit`] audits the dataset as
//! one memory-resident shard (entity ranges `0..n`, record numbers equal
//! to list positions, image rows moved in and back, never copied), and
//! [`crate::StreamingAuditor`] audits a `DSHARD01` directory one shard at a
//! time. The driver makes two passes. Pass 1 gathers what is global: each
//! side's image-dimension histogram (the majority dimension) and every
//! alignment pair (the one-to-one scan, train before test, in original
//! order). Pass 2 vets each shard's relation triples, attribute triples
//! and image rows, takes the missing-modality census, and drops the pairs
//! the global scan rejected. Records leave a shard only under `Repair`, so
//! a `Strict` audit never mutates its input and both policies take the
//! census over the data they report on.
//!
//! Repair is **idempotent** (repairing twice equals repairing once) and
//! **sound** (a repaired dataset passes `Strict`); on an already-clean
//! dataset it is a bit-identical no-op, checked by
//! [`dataset_fingerprint`]. These properties are enforced by property
//! tests.
//!
//! ```
//! use desalign_mmkg::{AuditPolicy, DatasetSpec, SynthConfig};
//!
//! let mut ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(1);
//! ds.source.images[0] = Some(vec![f32::NAN; 4]); // corrupt one feature row
//! let report = ds.audit(AuditPolicy::Repair).expect("repair always succeeds");
//! assert!(report.repairs >= 1);
//! assert!(ds.audit(AuditPolicy::Strict).is_ok(), "repaired data passes strict");
//! ```

use crate::shard::{Shard, SideMeta};
use crate::AlignmentDataset;
use desalign_util::{json, DefectClass, DesalignError, Fnv64, Json};
use std::collections::{BTreeMap, HashSet};

/// What the auditor does when it finds a defect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditPolicy {
    /// Reject: the dataset is left untouched and the audit fails with a
    /// [`DesalignError`] carrying the full defect census.
    Strict,
    /// Quarantine + deterministic fix: defects are repaired in place and
    /// the audit succeeds with a report of what was done.
    Repair,
}

impl AuditPolicy {
    /// Stable lowercase name (JSON reports).
    pub fn name(&self) -> &'static str {
        match self {
            AuditPolicy::Strict => "strict",
            AuditPolicy::Repair => "repair",
        }
    }
}

/// Structured result of one audit pass: per-class defect counts plus the
/// number of repairs applied.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditReport {
    /// Policy the audit ran under.
    pub policy: AuditPolicy,
    /// Defect counts, indexed in [`DefectClass::ALL`] order.
    counts: [usize; DefectClass::ALL.len()],
    /// Repairs applied (0 under [`AuditPolicy::Strict`]).
    pub repairs: usize,
}

impl AuditReport {
    pub(crate) fn new(policy: AuditPolicy) -> Self {
        Self { policy, counts: [0; DefectClass::ALL.len()], repairs: 0 }
    }

    pub(crate) fn record(&mut self, class: DefectClass) {
        let idx = DefectClass::ALL.iter().position(|c| *c == class).expect("class is in ALL");
        self.counts[idx] += 1;
    }

    /// Number of defects of `class` found.
    pub fn count(&self, class: DefectClass) -> usize {
        let idx = DefectClass::ALL.iter().position(|c| *c == class).expect("class is in ALL");
        self.counts[idx]
    }

    /// Total *hard* defects — everything except the informational
    /// [`DefectClass::MissingModality`] census.
    pub fn total_defects(&self) -> usize {
        DefectClass::ALL
            .iter()
            .filter(|c| **c != DefectClass::MissingModality)
            .map(|c| self.count(*c))
            .sum()
    }

    /// True when no hard defect was found.
    pub fn is_clean(&self) -> bool {
        self.total_defects() == 0
    }

    /// One-line census, e.g. `self-loop-triple=3, duplicate-pair=1`.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = DefectClass::ALL
            .iter()
            .filter(|c| self.count(**c) > 0)
            .map(|c| format!("{}={}", c.name(), self.count(*c)))
            .collect();
        if parts.is_empty() {
            "clean".to_string()
        } else {
            parts.join(", ")
        }
    }

    /// The report as JSON: `{"kind": "audit_report", "policy": …,
    /// "defects": {"<class>": n, …}, "repairs": n, "clean": bool}`.
    /// All classes are present (zeros included) so the schema is stable.
    pub fn to_json(&self) -> Json {
        let mut defects = Vec::with_capacity(DefectClass::ALL.len());
        for c in DefectClass::ALL {
            defects.push((c.name().to_string(), Json::Num(self.count(c) as f64)));
        }
        json!({
            "kind": "audit_report",
            "policy": self.policy.name(),
            "defects": Json::Object(defects),
            "repairs": self.repairs,
            "clean": self.is_clean(),
        })
    }
}

/// The defect census being taken: per-class counts, repairs, and the
/// first sighting (the cause of a `Strict` failure).
pub(crate) struct Census {
    report: AuditReport,
    first: Option<DesalignError>,
}

impl Census {
    pub(crate) fn new(policy: AuditPolicy) -> Self {
        Self { report: AuditReport::new(policy), first: None }
    }

    fn repair(&self) -> bool {
        self.report.policy == AuditPolicy::Repair
    }

    /// Records one defect at `loc`.
    fn sight(&mut self, class: DefectClass, loc: String, ctx: String) {
        self.report.record(class);
        if self.first.is_none() {
            self.first = Some(DesalignError::new(class, loc, ctx));
        }
        if self.repair() {
            self.report.repairs += 1;
        }
    }
}

/// Where the audit driver finds shards. Two implementations: the resident
/// shard of [`AlignmentDataset::audit`] and the `DSHARD01` directory of
/// [`crate::StreamingAuditor::audit_dir`].
pub(crate) trait ShardStore {
    /// Number of shards; both passes visit `0..len()`.
    fn len(&self) -> usize;
    /// Source and target sizes and vocabularies.
    fn sides(&self) -> [SideMeta; 2];
    /// Shard `k`, or `None` when it is quarantined (skipped by both passes).
    fn load(&mut self, k: usize) -> Result<Option<Shard>, DesalignError>;
    /// Prefix of shard `k`'s defect locations.
    fn prefix(&self, _k: usize) -> String {
        String::new()
    }
    /// Takes shard `k` back after a pass; `changed` means a `Repair`
    /// dropped records or quarantined image rows from it.
    fn put(&mut self, k: usize, shard: Shard, changed: bool) -> Result<(), DesalignError>;
    /// Called once the census is complete, before a `Strict` failure is
    /// returned: persist repairs and emit the report.
    fn finish(&mut self, report: &AuditReport) -> Result<(), DesalignError>;
}

/// The audit driver; see the [module docs](self). `census` may already
/// hold defects found outside the shards. Bumps the `audit.<class>`
/// counters and, under `Strict`, fails with the census when any hard
/// defect was found (wrapped under `name`).
pub(crate) fn audit_shards(
    store: &mut impl ShardStore,
    name: &str,
    mut census: Census,
) -> Result<AuditReport, DesalignError> {
    let repair = census.repair();
    let sides = store.sides();

    // Pass 1: image-dimension histograms and the pair collection.
    let mut dims: [BTreeMap<usize, usize>; 2] = Default::default();
    let mut pairs: [Vec<(usize, (usize, usize))>; 2] = Default::default();
    for k in 0..store.len() {
        let Some(shard) = store.load(k)? else { continue };
        for (side, images) in [&shard.src_images, &shard.tgt_images].into_iter().enumerate() {
            for row in images.iter().flatten() {
                *dims[side].entry(row.len()).or_insert(0) += 1;
            }
        }
        pairs[0].extend_from_slice(&shard.train_pairs);
        pairs[1].extend_from_slice(&shard.test_pairs);
        store.put(k, shard, false)?;
    }
    // The most common dimension per side, ties to the smaller, so one bad
    // row cannot outvote the rest of the graph.
    let majority = dims.map(|d| d.into_iter().min_by_key(|&(dim, n)| (std::cmp::Reverse(n), dim)).map(|(dim, _)| dim));

    // Global pair verdicts: train fully before test, each in original
    // order, so supervision pairs win one-to-one ties.
    let mut pair_defects = Vec::new();
    let mut drop_pairs: [HashSet<usize>; 2] = Default::default();
    let mut vet = PairVet::new(sides[0].num_entities, sides[1].num_entities);
    for (list, label) in ["train_pairs", "test_pairs"].into_iter().enumerate() {
        pairs[list].sort_unstable_by_key(|&(i, _)| i);
        for &(i, (s, t)) in &pairs[list] {
            if let Some((class, ctx)) = vet.vet(s, t) {
                pair_defects.push((class, format!("{label}[{i}]"), ctx));
                drop_pairs[list].insert(i);
            }
        }
    }

    // Pass 2: per side, the record verdicts and the census; then the pair
    // drops.
    for k in 0..store.len() {
        let Some(mut shard) = store.load(k)? else { continue };
        let prefix = store.prefix(k);
        let Shard { src_range, tgt_range, src_rel, src_attr, src_images, tgt_rel, tgt_attr, tgt_images, .. } =
            &mut shard;
        let mut changed = false;
        for (side, label, rel, attr, images, range) in [
            (0, "source", src_rel, src_attr, src_images, *src_range),
            (1, "target", tgt_rel, tgt_attr, tgt_images, *tgt_range),
        ] {
            let loc = format!("{prefix}{label}");
            changed |= vet_side(&mut census, &loc, sides[side], majority[side], rel, attr, images, range);
        }
        if repair {
            let before = shard.train_pairs.len() + shard.test_pairs.len();
            shard.train_pairs.retain(|(i, _)| !drop_pairs[0].contains(i));
            shard.test_pairs.retain(|(i, _)| !drop_pairs[1].contains(i));
            changed |= shard.train_pairs.len() + shard.test_pairs.len() != before;
        }
        store.put(k, shard, changed)?;
    }

    // Pair defects are sighted after every graph defect: graphs first,
    // pairs last.
    for (class, loc, ctx) in pair_defects {
        census.sight(class, loc, ctx);
    }
    let Census { report, first } = census;
    for class in DefectClass::ALL {
        let n = report.count(class);
        if n > 0 {
            desalign_telemetry::counter(class.counter_name()).add(n as u64);
        }
    }
    store.finish(&report)?;

    if !repair && !report.is_clean() {
        let err = first.expect("defects imply a first sighting").wrap(
            DefectClass::Schema,
            name.to_string(),
            format!("strict audit found {} defect(s): {}", report.total_defects(), report.summary()),
        );
        return Err(err);
    }
    Ok(report)
}

/// Pass 2 over one side of one shard: the relation, attribute and image
/// vets, then the missing-modality census over the shard's entity range.
/// Under `Repair` defective triples are dropped and defective rows
/// quarantined to `None`; returns whether anything was.
#[allow(clippy::too_many_arguments)]
fn vet_side(
    census: &mut Census,
    loc: &str,
    meta: SideMeta,
    majority_dim: Option<usize>,
    rel: &mut Vec<(usize, (usize, usize, usize))>,
    attr: &mut Vec<(usize, (usize, usize))>,
    images: &mut [Option<Vec<f32>>],
    (start, end): (usize, usize),
) -> bool {
    let repair = census.repair();
    let records = rel.len() + attr.len();
    let mut quarantined = false;

    // Every triple lives in the shard of its head entity, so duplicates
    // (which share all three fields) always meet in one shard's vet.
    let mut rel_vet = RelTripleVet::new(meta.num_entities, meta.num_relations);
    rel.retain(|&(i, (h, r, t))| match rel_vet.vet(h, r, t) {
        Some((class, ctx)) => {
            census.sight(class, format!("{loc}.rel_triples[{i}]"), ctx);
            !repair
        }
        None => true,
    });
    attr.retain(|&(i, (e, a))| match vet_attr_triple(e, a, meta.num_entities, meta.num_attributes) {
        Some((class, ctx)) => {
            census.sight(class, format!("{loc}.attr_triples[{i}]"), ctx);
            !repair
        }
        None => true,
    });
    for (e, slot) in (start..).zip(images.iter_mut()) {
        let Some(row) = slot.as_deref() else { continue };
        if let Some((class, ctx)) = vet_image_row(row, majority_dim) {
            census.sight(class, format!("{loc}.images[{e}]"), ctx);
            if repair {
                *slot = None;
                quarantined = true;
            }
        }
    }

    let mut has_text = vec![false; end - start];
    for &(_, (e, _)) in attr.iter() {
        if (start..end).contains(&e) {
            has_text[e - start] = true;
        }
    }
    for (slot, text) in images.iter().zip(has_text) {
        if slot.is_none() {
            census.report.record(DefectClass::MissingModality);
        }
        if !text {
            census.report.record(DefectClass::MissingModality);
        }
    }
    quarantined || rel.len() + attr.len() != records
}

/// The whole dataset as one memory-resident shard: entity ranges `0..n`,
/// every record numbered by its list position.
struct Resident {
    sides: [SideMeta; 2],
    shard: Option<Shard>,
}

impl Resident {
    /// Moves the image rows of `ds` into the shard and numbers copies of
    /// its record lists.
    fn new(ds: &mut AlignmentDataset) -> Self {
        fn numbered<T: Copy>(list: &[T]) -> Vec<(usize, T)> {
            list.iter().copied().enumerate().collect()
        }
        let shard = Shard {
            index: 0,
            src_range: (0, ds.source.num_entities),
            tgt_range: (0, ds.target.num_entities),
            src_rel: numbered(&ds.source.rel_triples),
            src_attr: numbered(&ds.source.attr_triples),
            src_images: std::mem::take(&mut ds.source.images),
            tgt_rel: numbered(&ds.target.rel_triples),
            tgt_attr: numbered(&ds.target.attr_triples),
            tgt_images: std::mem::take(&mut ds.target.images),
            train_pairs: numbered(&ds.train_pairs),
            test_pairs: numbered(&ds.test_pairs),
        };
        Self { sides: [SideMeta::of(&ds.source), SideMeta::of(&ds.target)], shard: Some(shard) }
    }

    /// Moves the image rows back into `ds`, and every record list that
    /// got shorter. Records leave the shard only under `Repair`, so a
    /// shorter list is a repaired one.
    fn restore(self, ds: &mut AlignmentDataset) {
        fn unnumbered<T>(list: &mut Vec<T>, kept: Vec<(usize, T)>) {
            if kept.len() != list.len() {
                *list = kept.into_iter().map(|(_, x)| x).collect();
            }
        }
        let shard = self.shard.expect("the driver hands the resident shard back");
        ds.source.images = shard.src_images;
        ds.target.images = shard.tgt_images;
        unnumbered(&mut ds.source.rel_triples, shard.src_rel);
        unnumbered(&mut ds.source.attr_triples, shard.src_attr);
        unnumbered(&mut ds.target.rel_triples, shard.tgt_rel);
        unnumbered(&mut ds.target.attr_triples, shard.tgt_attr);
        unnumbered(&mut ds.train_pairs, shard.train_pairs);
        unnumbered(&mut ds.test_pairs, shard.test_pairs);
    }
}

impl ShardStore for Resident {
    fn len(&self) -> usize {
        1
    }

    fn sides(&self) -> [SideMeta; 2] {
        self.sides
    }

    fn load(&mut self, _k: usize) -> Result<Option<Shard>, DesalignError> {
        Ok(self.shard.take())
    }

    fn put(&mut self, _k: usize, shard: Shard, _changed: bool) -> Result<(), DesalignError> {
        self.shard = Some(shard);
        Ok(())
    }

    fn finish(&mut self, report: &AuditReport) -> Result<(), DesalignError> {
        desalign_telemetry::emit(&report.to_json());
        Ok(())
    }
}

impl AlignmentDataset {
    /// Audits this dataset as one memory-resident shard; see the [audit
    /// module docs](crate::audit) for defect and repair semantics.
    ///
    /// Under [`AuditPolicy::Repair`] defects are fixed in place; under
    /// [`AuditPolicy::Strict`] the dataset is never mutated and any hard
    /// defect fails the audit with a census-carrying error. Either way the
    /// per-class counts are bumped on the `desalign-telemetry` counters
    /// (`audit.<class>`) and, when a metrics sink is installed, the
    /// [`AuditReport`] JSON is emitted.
    pub fn audit(&mut self, policy: AuditPolicy) -> Result<AuditReport, DesalignError> {
        let mut census = Census::new(policy);
        // The one defect a shard cannot hold: an images vector whose
        // length is not the entity count. Repair pads or truncates; Strict
        // audits a padded view and restores the vector afterwards.
        let spill = [(&mut self.source, "source"), (&mut self.target, "target")].map(|(kg, label)| {
            let (len, n) = (kg.images.len(), kg.num_entities);
            if len == n {
                return None;
            }
            census.sight(DefectClass::Schema, format!("{label}.images"), format!("{len} entries for {n} entities"));
            let overhang = kg.images.split_off(n.min(len));
            kg.images.resize(n, None);
            Some((len, overhang))
        });
        let mut store = Resident::new(self);
        let result = audit_shards(&mut store, &self.name, census);
        store.restore(self);
        if policy == AuditPolicy::Strict {
            for (kg, spilled) in [&mut self.source, &mut self.target].into_iter().zip(spill) {
                if let Some((len, mut overhang)) = spilled {
                    kg.images.truncate(len);
                    kg.images.append(&mut overhang);
                }
            }
        }
        result
    }
}

/// Stateful relation-triple vet. Check order (first match wins): dangling
/// endpoint → unknown relation → self-loop → duplicate. One instance per
/// triple list.
struct RelTripleVet {
    n: usize,
    num_relations: usize,
    seen: HashSet<(usize, usize, usize)>,
}

impl RelTripleVet {
    fn new(n: usize, num_relations: usize) -> Self {
        Self { n, num_relations, seen: HashSet::new() }
    }

    /// `None` = keep the triple; `Some` = drop it, with class + context.
    fn vet(&mut self, h: usize, r: usize, t: usize) -> Option<(DefectClass, String)> {
        let (n, num_rel) = (self.n, self.num_relations);
        if h >= n || t >= n {
            Some((DefectClass::DanglingEndpoint, format!("({h},{r},{t}) references a missing entity (have {n})")))
        } else if r >= num_rel {
            Some((DefectClass::UnknownRelation, format!("({h},{r},{t}) uses unknown relation {r} (have {num_rel})")))
        } else if h == t {
            Some((DefectClass::SelfLoopTriple, format!("({h},{r},{t}) is a self-loop")))
        } else if !self.seen.insert((h, r, t)) {
            Some((DefectClass::DuplicateTriple, format!("({h},{r},{t}) repeats an earlier triple")))
        } else {
            None
        }
    }
}

/// Attribute-triple vet: bounds + vocabulary (duplicates are BoW term
/// frequency, never defects). `None` = keep.
fn vet_attr_triple(e: usize, a: usize, n: usize, num_attributes: usize) -> Option<(DefectClass, String)> {
    if e >= n {
        Some((DefectClass::DanglingEndpoint, format!("({e},{a}) references a missing entity (have {n})")))
    } else if a >= num_attributes {
        Some((DefectClass::UnknownAttribute, format!("({e},{a}) uses unknown attribute {a} (have {num_attributes})")))
    } else {
        None
    }
}

/// Image-row vet against the side's majority dimension. Check order:
/// non-finite value → dimension mismatch → zero norm. `None` = keep.
fn vet_image_row(row: &[f32], expected_dim: Option<usize>) -> Option<(DefectClass, String)> {
    if let Some(k) = row.iter().position(|v| !v.is_finite()) {
        Some((DefectClass::NonFiniteFeature, format!("row value [{k}] = {} is not finite", row[k])))
    } else if expected_dim.is_some_and(|d| row.len() != d) {
        Some((DefectClass::DimensionMismatch, format!("row has {} dims, majority is {}", row.len(), expected_dim.unwrap_or(0))))
    } else if row.iter().map(|v| (*v as f64) * (*v as f64)).sum::<f64>() == 0.0 {
        Some((DefectClass::ZeroNormFeature, "row has zero norm".to_string()))
    } else {
        None
    }
}

/// Stateful alignment-pair vet: bounds then one-to-one. Feed the train
/// list fully before the test list so supervision pairs win ties.
struct PairVet {
    n_s: usize,
    n_t: usize,
    seen_s: Vec<bool>,
    seen_t: Vec<bool>,
}

impl PairVet {
    fn new(n_s: usize, n_t: usize) -> Self {
        Self { n_s, n_t, seen_s: vec![false; n_s], seen_t: vec![false; n_t] }
    }

    /// `None` = keep the pair; `Some` = drop it.
    fn vet(&mut self, s: usize, t: usize) -> Option<(DefectClass, String)> {
        let (n_s, n_t) = (self.n_s, self.n_t);
        if s >= n_s || t >= n_t {
            return Some((DefectClass::PairOutOfRange, format!("({s},{t}) out of bounds for {n_s}x{n_t} entities")));
        }
        if self.seen_s[s] || self.seen_t[t] {
            return Some((DefectClass::DuplicatePair, format!("({s},{t}) violates one-to-one mapping")));
        }
        self.seen_s[s] = true;
        self.seen_t[t] = true;
        None
    }
}

/// A structural FNV-1a fingerprint of the full dataset — name, sizes,
/// triples, attribute triples, image presence and exact f32 bit patterns,
/// train and test pairs. Two datasets fingerprint equal iff they are
/// bit-identical, which is how the "repairing clean data is a no-op"
/// guarantee is checked.
pub fn dataset_fingerprint(ds: &AlignmentDataset) -> u64 {
    let mut h = Fnv64::new();
    h.write(ds.name.as_bytes());
    for kg in [&ds.source, &ds.target] {
        for v in [kg.num_entities, kg.num_relations, kg.num_attributes, kg.rel_triples.len(), kg.attr_triples.len(), kg.images.len()] {
            h.write_u64(v as u64);
        }
        for &(a, b, c) in &kg.rel_triples {
            for v in [a, b, c] {
                h.write_u64(v as u64);
            }
        }
        for &(a, b) in &kg.attr_triples {
            h.write_u64(a as u64);
            h.write_u64(b as u64);
        }
        for img in &kg.images {
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
    for pairs in [&ds.train_pairs, &ds.test_pairs] {
        h.write_u64(pairs.len() as u64);
        for &(a, b) in pairs.iter() {
            h.write_u64(a as u64);
            h.write_u64(b as u64);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetSpec, SynthConfig};

    fn small() -> AlignmentDataset {
        SynthConfig::preset(DatasetSpec::FbDb15k).scaled(60).generate(3)
    }

    #[test]
    fn clean_synth_data_passes_strict() {
        let mut ds = small();
        let report = ds.audit(AuditPolicy::Strict).expect("generated data is clean");
        assert!(report.is_clean(), "{}", report.summary());
        // Missing modalities are informational, not defects — and synth
        // data always has some (coverage < 1).
        assert!(report.count(DefectClass::MissingModality) > 0);
    }

    #[test]
    fn strict_never_mutates() {
        type Corrupt = fn(&mut AlignmentDataset);
        // Each input lists every class its error must name: the error
        // carries the full census, not only the first defect.
        let inputs: [(&[&str], Corrupt); 4] = [
            (&["self-loop-triple", "non-finite-feature"], |ds| {
                ds.source.rel_triples.push((0, 0, 0));
                ds.source.images[1] = Some(vec![f32::INFINITY; 4]);
            }),
            (&["dangling-endpoint"], |ds| ds.source.attr_triples.insert(0, (ds.source.num_entities + 3, 0))),
            (&["schema"], |ds| ds.target.images.truncate(ds.target.num_entities - 3)),
            (&["schema"], |ds| ds.source.images.push(Some(vec![1.0; 7]))),
        ];
        for (classes, corrupt) in inputs {
            let mut ds = small();
            corrupt(&mut ds);
            let before = dataset_fingerprint(&ds);
            let err = ds.audit(AuditPolicy::Strict).expect_err("defects must fail strict");
            assert_eq!(dataset_fingerprint(&ds), before, "strict audit mutated the dataset ({classes:?})");
            for class in classes {
                assert!(err.to_string().contains(class), "{class} missing from {err}");
            }
        }
    }

    #[test]
    fn repair_fixes_every_injected_defect_class() {
        let mut ds = small();
        let n_s = ds.source.num_entities;
        ds.source.rel_triples.push((0, 0, n_s + 5)); // dangling
        ds.source.rel_triples.push((0, ds.source.num_relations + 2, 1)); // unknown relation
        ds.source.rel_triples.push((2, 0, 2)); // self-loop
        let dup = ds.source.rel_triples[0];
        ds.source.rel_triples.push(dup); // duplicate
        ds.source.attr_triples.push((n_s + 1, 0)); // dangling attr
        ds.source.attr_triples.push((0, ds.source.num_attributes + 9)); // unknown attr
        let dim = ds.source.images.iter().flatten().next().expect("synth data has images").len();
        ds.source.images[0] = Some(vec![f32::NAN; dim]);
        ds.source.images[1] = Some(vec![0.0; dim]); // zero norm at the right dim
        ds.source.images[2] = Some(vec![1.0; dim + 1]); // wrong dim (majority wins)
        ds.train_pairs.push((n_s + 7, 0)); // out of range
        let dup_pair = ds.train_pairs[0];
        ds.test_pairs.push(dup_pair); // duplicate pair

        let report = ds.audit(AuditPolicy::Repair).expect("repair succeeds");
        for class in [
            DefectClass::DanglingEndpoint,
            DefectClass::UnknownRelation,
            DefectClass::UnknownAttribute,
            DefectClass::SelfLoopTriple,
            DefectClass::DuplicateTriple,
            DefectClass::PairOutOfRange,
            DefectClass::DuplicatePair,
            DefectClass::NonFiniteFeature,
            DefectClass::ZeroNormFeature,
            DefectClass::DimensionMismatch,
        ] {
            assert!(report.count(class) > 0, "expected {} to be detected; census: {}", class.name(), report.summary());
        }
        assert_eq!(report.repairs, report.total_defects());

        // Sound: the repaired dataset passes strict and validate().
        assert!(ds.audit(AuditPolicy::Strict).is_ok());
        assert_eq!(ds.validate(), Ok(()));
        // Quarantined rows are gone, not zeroed.
        assert!(ds.source.images[0].is_none());
        assert!(ds.source.images[1].is_none());
        assert!(ds.source.images[2].is_none());
    }

    #[test]
    fn repair_of_clean_data_is_a_noop() {
        // The second input is the dataset of the `determinism_fingerprint`
        // pipeline, so an audit wired in front of it cannot perturb it.
        let pipeline = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(80).with_image_ratio(0.6).generate(5);
        for mut ds in [small(), pipeline] {
            let before = dataset_fingerprint(&ds);
            let report = ds.audit(AuditPolicy::Repair).expect("repair");
            assert!(report.is_clean(), "{}", report.summary());
            assert_eq!(report.repairs, 0);
            assert_eq!(dataset_fingerprint(&ds), before, "repairing clean data must be bit-identical");
        }
    }

    #[test]
    fn majority_dimension_ties_break_to_the_smaller() {
        let mut ds = small();
        ds.source.images.iter_mut().for_each(|row| *row = None);
        for (e, dim) in [(0, 5), (1, 4), (2, 5), (3, 4)] {
            ds.source.images[e] = Some(vec![1.0; dim]);
        }
        let report = ds.audit(AuditPolicy::Repair).expect("repair");
        assert_eq!(report.count(DefectClass::DimensionMismatch), 2);
        let kept: Vec<usize> = (0..4).filter(|&e| ds.source.images[e].is_some()).collect();
        assert_eq!(kept, vec![1, 3], "the 4-dim rows must win the 2:2 tie");
    }

    #[test]
    fn repair_is_idempotent() {
        let mut ds = small();
        ds.source.rel_triples.push((1, 0, 1));
        ds.target.images[0] = Some(vec![f32::NAN; 4]);
        ds.audit(AuditPolicy::Repair).expect("first repair");
        let after_one = dataset_fingerprint(&ds);
        let second = ds.audit(AuditPolicy::Repair).expect("second repair");
        assert_eq!(second.repairs, 0);
        assert_eq!(dataset_fingerprint(&ds), after_one);
    }

    #[test]
    fn train_pairs_win_one_to_one_ties_over_test_pairs() {
        let mut ds = small();
        let (s, t) = ds.train_pairs[0];
        ds.test_pairs.insert(0, (s, t));
        ds.audit(AuditPolicy::Repair).expect("repair");
        assert!(ds.train_pairs.contains(&(s, t)), "train pair must survive");
        assert!(!ds.test_pairs.contains(&(s, t)), "test duplicate must be dropped");
    }

    #[test]
    fn images_length_mismatch_is_repaired() {
        let mut ds = small();
        ds.target.images.truncate(ds.target.num_entities - 3);
        let report = ds.audit(AuditPolicy::Repair).expect("repair");
        assert!(report.count(DefectClass::Schema) > 0);
        assert_eq!(ds.target.images.len(), ds.target.num_entities);
        assert!(ds.audit(AuditPolicy::Strict).is_ok());
    }

    #[test]
    fn fingerprint_sees_every_field() {
        let base = small();
        let fp = dataset_fingerprint(&base);
        let mut m = base.clone();
        m.name.push('x');
        assert_ne!(dataset_fingerprint(&m), fp);
        let mut m = base.clone();
        m.source.rel_triples[0].0 ^= 1;
        assert_ne!(dataset_fingerprint(&m), fp);
        let mut m = base.clone();
        if let Some(row) = m.target.images.iter_mut().flatten().next() {
            row[0] = f32::from_bits(row[0].to_bits() ^ 1);
        }
        assert_ne!(dataset_fingerprint(&m), fp);
        let mut m = base.clone();
        m.test_pairs.pop();
        assert_ne!(dataset_fingerprint(&m), fp);
    }

    #[test]
    fn report_json_has_stable_schema() {
        let mut ds = small();
        ds.source.rel_triples.push((0, 0, 0));
        let report = ds.audit(AuditPolicy::Repair).expect("repair");
        let j = report.to_json();
        assert_eq!(j.field::<String>("kind").unwrap(), "audit_report");
        assert_eq!(j.field::<String>("policy").unwrap(), "repair");
        let defects = match j.get("defects") {
            Some(Json::Object(pairs)) => pairs.len(),
            other => panic!("defects must be an object, got {other:?}"),
        };
        assert_eq!(defects, DefectClass::ALL.len(), "all classes present, zeros included");
    }
}
