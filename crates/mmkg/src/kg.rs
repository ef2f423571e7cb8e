//! The multi-modal knowledge graph data model.

use desalign_graph::UndirectedGraph;
use desalign_util::{DefectClass, DesalignError};

/// One multi-modal knowledge graph `G = (ε, R, A, V)` (Section II).
///
/// Entities are dense indices `0..num_entities`. Relation triples carry a
/// relation type; attribute triples attach a textual-attribute id to an
/// entity; images are raw per-entity feature vectors (the output of a
/// pretrained vision encoder in the paper, a simulated one here) — `None`
/// when the entity has no image.
#[derive(Clone, Debug)]
pub struct Mmkg {
    /// Number of entities `|ε|`.
    pub num_entities: usize,
    /// Size of the relation vocabulary `|R|`.
    pub num_relations: usize,
    /// Size of the textual-attribute vocabulary `|A|`.
    pub num_attributes: usize,
    /// Relation triples `(head, relation, tail)`.
    pub rel_triples: Vec<(usize, usize, usize)>,
    /// Attribute triples `(entity, attribute)`.
    pub attr_triples: Vec<(usize, usize)>,
    /// Per-entity image features (`None` = image absent).
    pub images: Vec<Option<Vec<f32>>>,
}

impl Mmkg {
    /// Validates internal invariants; reports the first violation as a
    /// typed [`DesalignError`] naming its defect class and location.
    ///
    /// This is the cheap structural check (bounds + dimensions) run by
    /// loaders and debug assertions; the full defect census with repair
    /// lives in [`AlignmentDataset::audit`].
    pub fn validate(&self) -> Result<(), DesalignError> {
        self.validate_at("kg")
    }

    /// [`Mmkg::validate`] with error locations prefixed by `side`
    /// (`source` / `target`) so dataset-level reports point at the right
    /// graph.
    pub fn validate_at(&self, side: &str) -> Result<(), DesalignError> {
        if self.images.len() != self.num_entities {
            return Err(DesalignError::new(
                DefectClass::Schema,
                format!("{side}.images"),
                format!("{} entries for {} entities", self.images.len(), self.num_entities),
            ));
        }
        for (i, &(h, r, t)) in self.rel_triples.iter().enumerate() {
            if h >= self.num_entities || t >= self.num_entities {
                return Err(DesalignError::new(
                    DefectClass::DanglingEndpoint,
                    format!("{side}.rel_triples[{i}]"),
                    format!("({h},{r},{t}) references a missing entity (have {})", self.num_entities),
                ));
            }
            if r >= self.num_relations {
                return Err(DesalignError::new(
                    DefectClass::UnknownRelation,
                    format!("{side}.rel_triples[{i}]"),
                    format!("({h},{r},{t}) uses unknown relation {r} (have {})", self.num_relations),
                ));
            }
        }
        for (i, &(e, a)) in self.attr_triples.iter().enumerate() {
            if e >= self.num_entities {
                return Err(DesalignError::new(
                    DefectClass::DanglingEndpoint,
                    format!("{side}.attr_triples[{i}]"),
                    format!("({e},{a}) references a missing entity (have {})", self.num_entities),
                ));
            }
            if a >= self.num_attributes {
                return Err(DesalignError::new(
                    DefectClass::UnknownAttribute,
                    format!("{side}.attr_triples[{i}]"),
                    format!("({e},{a}) uses unknown attribute {a} (have {})", self.num_attributes),
                ));
            }
        }
        let dim = self.images.iter().flatten().map(Vec::len).next();
        if let Some(d) = dim {
            if let Some(i) = (0..self.images.len()).find(|&i| self.images[i].as_ref().is_some_and(|v| v.len() != d)) {
                return Err(DesalignError::new(
                    DefectClass::DimensionMismatch,
                    format!("{side}.images[{i}]"),
                    format!("feature row has {} dims, expected {d}", self.images[i].as_ref().map_or(0, Vec::len)),
                ));
            }
        }
        Ok(())
    }

    /// The undirected structural graph (relation types erased).
    pub fn graph(&self) -> UndirectedGraph {
        UndirectedGraph::new(self.num_entities, self.rel_triples.iter().map(|&(h, _, t)| (h, t)))
    }

    /// Number of entities with an image.
    pub fn num_images(&self) -> usize {
        self.images.iter().filter(|v| v.is_some()).count()
    }

    /// Entities that appear in at least one attribute triple.
    pub fn entities_with_attributes(&self) -> Vec<bool> {
        let mut has = vec![false; self.num_entities];
        for &(e, _) in &self.attr_triples {
            has[e] = true;
        }
        has
    }

    /// Summary statistics in the shape of the paper's Table I row.
    pub fn stats(&self) -> KgStats {
        KgStats {
            entities: self.num_entities,
            relations: self.num_relations,
            attributes: self.num_attributes,
            rel_triples: self.rel_triples.len(),
            attr_triples: self.attr_triples.len(),
            images: self.num_images(),
        }
    }
}

/// Table I-style statistics for one KG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KgStats {
    /// `Ent.`
    pub entities: usize,
    /// `Rel.`
    pub relations: usize,
    /// `Att.`
    pub attributes: usize,
    /// `R.Triples`
    pub rel_triples: usize,
    /// `A.Triples`
    pub attr_triples: usize,
    /// `Image`
    pub images: usize,
}

/// A pair of MMKGs with gold alignments, split into seeds (`Φ'`) and a test
/// set — one benchmark split.
#[derive(Clone, Debug)]
pub struct AlignmentDataset {
    /// Human-readable split name, e.g. `FBDB15K(Rseed=0.2)`.
    pub name: String,
    /// Source graph `G_s`.
    pub source: Mmkg,
    /// Target graph `G_t`.
    pub target: Mmkg,
    /// Seed alignments `Φ'` used for supervision.
    pub train_pairs: Vec<(usize, usize)>,
    /// Held-out alignments used for evaluation.
    pub test_pairs: Vec<(usize, usize)>,
}

impl AlignmentDataset {
    /// Total gold alignments (`EA pairs` of Table I).
    pub fn num_pairs(&self) -> usize {
        self.train_pairs.len() + self.test_pairs.len()
    }

    /// Effective seed ratio `R_seed`.
    pub fn seed_ratio(&self) -> f32 {
        if self.num_pairs() == 0 {
            0.0
        } else {
            self.train_pairs.len() as f32 / self.num_pairs() as f32
        }
    }

    /// Validates both graphs and the alignment lists, reporting the first
    /// violation as a typed [`DesalignError`].
    pub fn validate(&self) -> Result<(), DesalignError> {
        self.source.validate_at("source")?;
        self.target.validate_at("target")?;
        let mut seen_s = vec![false; self.source.num_entities];
        let mut seen_t = vec![false; self.target.num_entities];
        let n_train = self.train_pairs.len();
        for (i, &(s, t)) in self.train_pairs.iter().chain(&self.test_pairs).enumerate() {
            let loc = if i < n_train { format!("train_pairs[{i}]") } else { format!("test_pairs[{}]", i - n_train) };
            if s >= self.source.num_entities || t >= self.target.num_entities {
                return Err(DesalignError::new(
                    DefectClass::PairOutOfRange,
                    loc,
                    format!("({s},{t}) out of bounds for {}x{} entities", self.source.num_entities, self.target.num_entities),
                ));
            }
            if seen_s[s] || seen_t[t] {
                return Err(DesalignError::new(DefectClass::DuplicatePair, loc, format!("({s},{t}) violates one-to-one mapping")));
            }
            seen_s[s] = true;
            seen_t[t] = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Mmkg {
        Mmkg {
            num_entities: 3,
            num_relations: 2,
            num_attributes: 4,
            rel_triples: vec![(0, 0, 1), (1, 1, 2)],
            attr_triples: vec![(0, 0), (0, 3), (2, 1)],
            images: vec![Some(vec![1.0, 2.0]), None, Some(vec![0.0, 0.5])],
        }
    }

    #[test]
    fn validate_accepts_consistent_kg() {
        assert_eq!(tiny().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_triples() {
        let mut kg = tiny();
        kg.rel_triples.push((0, 5, 1));
        assert!(kg.validate().is_err());
        let mut kg = tiny();
        kg.attr_triples.push((9, 0));
        assert!(kg.validate().is_err());
        let mut kg = tiny();
        kg.images[1] = Some(vec![1.0]); // wrong dim
        assert!(kg.validate().is_err());
    }

    #[test]
    fn graph_and_stats() {
        let kg = tiny();
        let g = kg.graph();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        let s = kg.stats();
        assert_eq!(s.entities, 3);
        assert_eq!(s.rel_triples, 2);
        assert_eq!(s.attr_triples, 3);
        assert_eq!(s.images, 2);
    }

    #[test]
    fn attribute_coverage() {
        let kg = tiny();
        assert_eq!(kg.entities_with_attributes(), vec![true, false, true]);
    }

    #[test]
    fn dataset_validation_catches_duplicates() {
        let kg = tiny();
        let ds = AlignmentDataset {
            name: "t".into(),
            source: kg.clone(),
            target: kg.clone(),
            train_pairs: vec![(0, 0)],
            test_pairs: vec![(0, 1)], // source entity reused
        };
        assert!(ds.validate().is_err());
        let ds = AlignmentDataset {
            name: "t".into(),
            source: kg.clone(),
            target: kg,
            train_pairs: vec![(0, 0)],
            test_pairs: vec![(1, 1), (2, 2)],
        };
        assert_eq!(ds.validate(), Ok(()));
        assert_eq!(ds.num_pairs(), 3);
        assert!((ds.seed_ratio() - 1.0 / 3.0).abs() < 1e-6);
    }
}
