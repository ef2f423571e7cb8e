//! The synthetic benchmark generator.
//!
//! See the crate docs for the generation model. Every preset mirrors one
//! Table I dataset: side-size ratio, relation/attribute vocabulary ratio,
//! degree, attribute density, image coverage, and EA-pair fraction are taken
//! from the published statistics; absolute scale is configurable (real
//! datasets are ~15–20 k entities per side; the default reproduction scale
//! is 1 000 on the larger side). Bilingual presets get higher structural and
//! attribute noise than monolingual ones, reflecting the heterogeneity the
//! paper discusses in §V-F.

use crate::shard::{
    bucket_records, encode_shard, range_of, shard_file_name, write_manifest, ShardManifest, ShardMeta, SideMeta,
    SHARD_FORMAT_VERSION,
};
use crate::stream::streaming_fingerprint;
use crate::{AlignmentDataset, Mmkg};
use desalign_tensor::{rng_from_seed, Rng64};
use desalign_tensor::SliceRandom;
use desalign_util::DesalignError;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The five benchmark pairs of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetSpec {
    /// FB15K–DB15K (monolingual).
    FbDb15k,
    /// FB15K–YAGO15K (monolingual).
    FbYg15k,
    /// DBP15K Chinese–English (bilingual).
    Dbp15kZhEn,
    /// DBP15K Japanese–English (bilingual).
    Dbp15kJaEn,
    /// DBP15K French–English (bilingual).
    Dbp15kFrEn,
}

impl DatasetSpec {
    /// All presets, in Table I order.
    pub const ALL: [DatasetSpec; 5] =
        [DatasetSpec::FbDb15k, DatasetSpec::FbYg15k, DatasetSpec::Dbp15kZhEn, DatasetSpec::Dbp15kJaEn, DatasetSpec::Dbp15kFrEn];

    /// Monolingual presets (used by Table II / Table IV).
    pub const MONOLINGUAL: [DatasetSpec; 2] = [DatasetSpec::FbDb15k, DatasetSpec::FbYg15k];

    /// Bilingual presets (used by Table III / Table V).
    pub const BILINGUAL: [DatasetSpec; 3] = [DatasetSpec::Dbp15kZhEn, DatasetSpec::Dbp15kJaEn, DatasetSpec::Dbp15kFrEn];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetSpec::FbDb15k => "FB15K-DB15K",
            DatasetSpec::FbYg15k => "FB15K-YAGO15K",
            DatasetSpec::Dbp15kZhEn => "DBP15K_ZH-EN",
            DatasetSpec::Dbp15kJaEn => "DBP15K_JA-EN",
            DatasetSpec::Dbp15kFrEn => "DBP15K_FR-EN",
        }
    }

    /// True for the DBP15K (bilingual) family.
    pub fn is_bilingual(&self) -> bool {
        matches!(self, DatasetSpec::Dbp15kZhEn | DatasetSpec::Dbp15kJaEn | DatasetSpec::Dbp15kFrEn)
    }
}

/// Full generator configuration. Use [`SynthConfig::preset`] then the
/// builder-style `with_*` methods; all fields stay public for custom
/// experiments.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Which Table I dataset this split mimics.
    pub spec: DatasetSpec,
    /// Entities per side `(source, target)`.
    pub entities: (usize, usize),
    /// Relation vocabulary per side.
    pub relations: (usize, usize),
    /// Attribute vocabulary per side.
    pub attributes: (usize, usize),
    /// Average structural degree per side (real degrees are capped for
    /// laptop-scale training; documented in DESIGN.md).
    pub avg_degree: (f32, f32),
    /// Mean attribute triples per entity per side.
    pub attrs_per_entity: (f32, f32),
    /// Fraction of entities with an image per side (Table I coverage).
    pub image_coverage: (f32, f32),
    /// Fraction of entities with ≥ 1 text attribute per side. Real KGs
    /// concentrate attribute triples on a minority of entities (FB15K has
    /// ~2 attribute triples per entity overall); this is the intrinsic
    /// semantic inconsistency of §I.
    pub text_coverage: (f32, f32),
    /// Gold alignments as a fraction of the smaller side.
    pub ea_pair_fraction: f32,
    /// Seed-alignment ratio `R_seed`.
    pub seed_ratio: f32,
    /// `R_img` robustness override: keep images for only this fraction of
    /// entities on both sides (Table III splits).
    pub image_ratio: Option<f32>,
    /// `R_tex` robustness override: keep text attributes for only this
    /// fraction of entities on both sides (Table II splits).
    pub text_ratio: Option<f32>,
    /// Fraction of per-view edges rewired randomly (bilingual > mono).
    pub structural_noise: f32,
    /// Probability a world attribute is dropped / replaced per view.
    pub attr_noise: f32,
    /// Per-view noise added to the simulated vision-encoder output
    /// (aligned entities get correlated but unequal image features).
    pub vision_noise: f32,
    /// Simulated vision-encoder output dimension (the paper's ResNet-152
    /// gives 2048; scaled down by default).
    pub vision_dim: usize,
    /// Latent world dimension driving all modalities.
    pub latent_dim: usize,
    /// Number of latent communities (`0` = auto: one per ~25 entities).
    pub communities: usize,
}

impl SynthConfig {
    /// The preset mirroring `spec`'s Table I row at the default scale
    /// (1 000 entities on the larger side).
    pub fn preset(spec: DatasetSpec) -> Self {
        // (side ratios, rel vocab, attr vocab, degree, attrs/entity,
        //  image coverage, pair fraction) from Table I; noise by family.
        let (sides, rels, attrs, deg, ape, img, tex, pairs) = match spec {
            DatasetSpec::FbDb15k => ((1.0, 0.859), (90, 19), (12, 22), (10.0, 6.0), (2.0, 3.7), (0.899, 0.999), (0.45, 0.65), 0.98),
            DatasetSpec::FbYg15k => ((0.97, 1.0), (90, 8), (12, 4), (10.0, 5.0), (2.0, 1.5), (0.899, 0.727), (0.45, 0.4), 0.75),
            DatasetSpec::Dbp15kZhEn => ((0.99, 1.0), (85, 66), (200, 180), (7.0, 9.0), (6.0, 8.0), (0.82, 0.72), (0.9, 0.9), 0.77),
            DatasetSpec::Dbp15kJaEn => ((1.0, 1.0), (65, 58), (150, 150), (8.0, 9.0), (6.0, 8.0), (0.643, 0.695), (0.9, 0.9), 0.757),
            DatasetSpec::Dbp15kFrEn => ((0.98, 1.0), (45, 60), (120, 160), (10.0, 11.0), (7.0, 9.0), (0.721, 0.693), (0.9, 0.9), 0.763),
        };
        // Monolingual noise is set higher than the raw Table I statistics
        // suggest: the real datasets draw their difficulty from 15–20 k
        // entity candidate pools, which laptop-scale graphs cannot provide;
        // extra per-view noise restores the paper's absolute accuracy
        // regime (H@1 ≈ 30–50 % at R_seed = 0.2). See DESIGN.md §1.
        let (noise_s, noise_a, vision_noise, seed) =
            if spec.is_bilingual() { (0.25, 0.35, 0.3, 0.3) } else { (0.25, 0.3, 0.55, 0.2) };
        let base = 1000.0f32;
        SynthConfig {
            spec,
            entities: ((base * sides.0) as usize, (base * sides.1) as usize),
            relations: rels,
            attributes: attrs,
            avg_degree: deg,
            attrs_per_entity: ape,
            image_coverage: img,
            text_coverage: tex,
            ea_pair_fraction: pairs,
            seed_ratio: seed,
            image_ratio: None,
            text_ratio: None,
            structural_noise: noise_s,
            attr_noise: noise_a,
            vision_noise,
            vision_dim: 64,
            latent_dim: 16,
            communities: 0,
        }
    }

    /// Rescales the preset so the larger side has `big_side` entities
    /// (vocabularies scale with the square root to keep them meaningful at
    /// small scale).
    pub fn scaled(mut self, big_side: usize) -> Self {
        let cur = self.entities.0.max(self.entities.1) as f32;
        let f = big_side as f32 / cur;
        let sf = f.sqrt();
        self.entities = (((self.entities.0 as f32) * f).round().max(8.0) as usize, ((self.entities.1 as f32) * f).round().max(8.0) as usize);
        self.relations = (((self.relations.0 as f32) * sf).round().max(2.0) as usize, ((self.relations.1 as f32) * sf).round().max(2.0) as usize);
        self.attributes = (((self.attributes.0 as f32) * sf).round().max(4.0) as usize, ((self.attributes.1 as f32) * sf).round().max(4.0) as usize);
        self
    }

    /// Sets `R_seed`.
    pub fn with_seed_ratio(mut self, r: f32) -> Self {
        assert!((0.0..=1.0).contains(&r), "seed ratio must be in [0,1]");
        self.seed_ratio = r;
        self
    }

    /// Sets the `R_img` robustness override.
    pub fn with_image_ratio(mut self, r: f32) -> Self {
        assert!((0.0..=1.0).contains(&r), "image ratio must be in [0,1]");
        self.image_ratio = Some(r);
        self
    }

    /// Sets the `R_tex` robustness override.
    pub fn with_text_ratio(mut self, r: f32) -> Self {
        assert!((0.0..=1.0).contains(&r), "text ratio must be in [0,1]");
        self.text_ratio = Some(r);
        self
    }

    /// Split display name, e.g. `FB15K-DB15K(seed=0.20,img=0.30)`.
    pub fn split_name(&self) -> String {
        let mut name = format!("{}(seed={:.2}", self.spec.name(), self.seed_ratio);
        if let Some(r) = self.image_ratio {
            name.push_str(&format!(",img={r:.2}"));
        }
        if let Some(r) = self.text_ratio {
            name.push_str(&format!(",tex={r:.2}"));
        }
        name.push(')');
        name
    }

    /// Generates a dataset deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> AlignmentDataset {
        // The in-memory path is the streaming path with vec-backed image
        // sinks: both share `generate_core`, whose RNG draw order is
        // independent of where rows land, so `generate_sharded` produces
        // the bit-identical dataset.
        let mut src_images: Vec<Option<Vec<f32>>> = vec![None; self.entities.0];
        let mut tgt_images: Vec<Option<Vec<f32>>> = vec![None; self.entities.1];
        let mut ds = self.generate_core(
            seed,
            &mut |i, row| src_images[i] = Some(row),
            &mut |i, row| tgt_images[i] = Some(row),
        );
        ds.source.images = src_images;
        ds.target.images = tgt_images;
        debug_assert_eq!(ds.validate(), Ok(()));
        ds
    }

    /// Generates the dataset for `seed` **directly as a shard directory**,
    /// without ever materializing the feature matrices: image rows are
    /// spilled to scratch files as the generator draws them, then copied
    /// into shards one range at a time. The RNG stream is shared with
    /// [`Self::generate`], so the resulting directory assembles to the
    /// bit-identical dataset (same [`crate::dataset_fingerprint`], which
    /// is what the returned manifest records — computed by
    /// [`streaming_fingerprint`], never from a resident dataset).
    ///
    /// Peak feature memory is O(one shard); the latent world (integer
    /// records plus `latent_dim`-wide vectors, a fraction of
    /// `vision_dim`-wide feature rows) stays resident.
    pub fn generate_sharded(&self, seed: u64, dir: &Path, shard_entities: usize) -> Result<ShardManifest, DesalignError> {
        if shard_entities == 0 {
            return Err(DesalignError::config("shard_entities", "must be ≥ 1"));
        }
        let io_at = |p: &Path| {
            let loc = p.display().to_string();
            move |e: io::Error| DesalignError::io(loc.clone(), e)
        };
        std::fs::create_dir_all(dir).map_err(io_at(dir))?;

        // Spill files: raw little-endian f32 rows, located by an
        // (offset, dim) table per side. Offsets are O(n) words; rows —
        // the dominant cost — go straight to disk.
        let spill_paths = [dir.join(".spill-src.f32"), dir.join(".spill-tgt.f32")];
        let mut offsets: [Vec<Option<(u64, u32)>>; 2] =
            [vec![None; self.entities.0], vec![None; self.entities.1]];
        let ds = {
            let mut spill_err: [Option<io::Error>; 2] = [None, None];
            let mut writers = [
                (BufWriter::new(std::fs::File::create(&spill_paths[0]).map_err(io_at(&spill_paths[0]))?), 0u64),
                (BufWriter::new(std::fs::File::create(&spill_paths[1]).map_err(io_at(&spill_paths[1]))?), 0u64),
            ];
            let (w_src, w_tgt) = writers.split_at_mut(1);
            let (off_src, off_tgt) = offsets.split_at_mut(1);
            let (err_src, err_tgt) = spill_err.split_at_mut(1);
            let spill = |w: &mut (BufWriter<std::fs::File>, u64),
                             off: &mut Vec<Option<(u64, u32)>>,
                             err: &mut Option<io::Error>,
                             i: usize,
                             row: Vec<f32>| {
                if err.is_some() {
                    return;
                }
                off[i] = Some((w.1, row.len() as u32));
                for v in &row {
                    if let Err(e) = w.0.write_all(&v.to_bits().to_le_bytes()) {
                        *err = Some(e);
                        return;
                    }
                }
                w.1 += 4 * row.len() as u64;
            };
            let ds = self.generate_core(
                seed,
                &mut |i, row| spill(&mut w_src[0], &mut off_src[0], &mut err_src[0], i, row),
                &mut |i, row| spill(&mut w_tgt[0], &mut off_tgt[0], &mut err_tgt[0], i, row),
            );
            for (k, (w, _)) in writers.iter_mut().enumerate() {
                w.flush().map_err(io_at(&spill_paths[k]))?;
            }
            for (k, e) in spill_err.into_iter().enumerate() {
                if let Some(e) = e {
                    return Err(DesalignError::io(spill_paths[k].display().to_string(), e));
                }
            }
            ds
        };

        // Bucket the integer records (images in `ds` are all-None
        // placeholders; `bucket_records` never touches them) and encode
        // shard by shard, loading only that shard's rows from the spills.
        let (n_s, n_t) = (ds.source.num_entities, ds.target.num_entities);
        let num_shards = n_s.max(n_t).div_ceil(shard_entities).max(1);
        let buckets = bucket_records(&ds, shard_entities, num_shards);
        let mut spill_files = [
            std::fs::File::open(&spill_paths[0]).map_err(io_at(&spill_paths[0]))?,
            std::fs::File::open(&spill_paths[1]).map_err(io_at(&spill_paths[1]))?,
        ];
        let mut load_range = |side: usize, range: (usize, usize)| -> io::Result<Vec<Option<Vec<f32>>>> {
            let mut rows = Vec::with_capacity(range.1 - range.0);
            for e in range.0..range.1 {
                match offsets[side][e] {
                    None => rows.push(None),
                    Some((off, dim)) => {
                        let mut buf = vec![0u8; 4 * dim as usize];
                        spill_files[side].seek(SeekFrom::Start(off))?;
                        spill_files[side].read_exact(&mut buf)?;
                        rows.push(Some(
                            buf.chunks_exact(4).map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]]))).collect(),
                        ));
                    }
                }
            }
            Ok(rows)
        };
        let mut shards = Vec::with_capacity(num_shards);
        for (k, recs) in buckets.iter().enumerate() {
            let src_range = range_of(k, shard_entities, n_s);
            let tgt_range = range_of(k, shard_entities, n_t);
            let mut src_rows = load_range(0, src_range).map_err(io_at(&spill_paths[0]))?;
            let mut tgt_rows = load_range(1, tgt_range).map_err(io_at(&spill_paths[1]))?;
            let file = shard_file_name(k);
            let path = dir.join(&file);
            let (payload_len, checksum) = encode_shard(
                &path,
                k,
                src_range,
                tgt_range,
                recs,
                |e| src_rows[e - src_range.0].take(),
                |e| tgt_rows[e - tgt_range.0].take(),
            )
            .map_err(io_at(&path))?;
            shards.push(ShardMeta { file, index: k, src_range, tgt_range, payload_len, checksum });
        }
        for p in &spill_paths {
            std::fs::remove_file(p).map_err(io_at(p))?;
        }

        let mut manifest = ShardManifest {
            version: SHARD_FORMAT_VERSION,
            name: ds.name.clone(),
            dataset_fingerprint: 0,
            source: SideMeta::of(&ds.source),
            target: SideMeta::of(&ds.target),
            n_train: ds.train_pairs.len(),
            n_test: ds.test_pairs.len(),
            shard_entities,
            shards,
        };
        manifest.dataset_fingerprint = streaming_fingerprint(dir, &manifest)?;
        write_manifest(dir, &manifest)?;
        Ok(manifest)
    }

    /// The generator body shared by [`generate`] and [`generate_sharded`]:
    /// image rows leave through the per-side sinks (ascending view index
    /// per side, source first) and the returned dataset carries all-`None`
    /// image slots for the caller to fill or leave on disk.
    fn generate_core(
        &self,
        seed: u64,
        src_images_out: &mut dyn FnMut(usize, Vec<f32>),
        tgt_images_out: &mut dyn FnMut(usize, Vec<f32>),
    ) -> AlignmentDataset {
        let mut rng = rng_from_seed(seed ^ 0x9e37_79b9_7f4a_7c15);
        let (n_s, n_t) = self.entities;
        let n_pairs = ((n_s.min(n_t) as f32) * self.ea_pair_fraction).round() as usize;
        let n_pairs = n_pairs.min(n_s).min(n_t);
        let world_n = n_s + n_t - n_pairs;

        // --- latent world -------------------------------------------------
        let n_comm = if self.communities > 0 { self.communities } else { (world_n / 25).max(2) };
        let community: Vec<usize> = (0..world_n).map(|_| rng.gen_range(0..n_comm)).collect();
        let centers: Vec<Vec<f32>> =
            (0..n_comm).map(|_| (0..self.latent_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
        let latent: Vec<Vec<f32>> = (0..world_n)
            .map(|i| centers[community[i]].iter().map(|&c| c + 0.45 * gauss(&mut rng)).collect())
            .collect();

        // --- world structure ----------------------------------------------
        // Enough world edges that each view can subsample its target count.
        let max_deg = self.avg_degree.0.max(self.avg_degree.1);
        let world_edges_target = ((world_n as f32) * max_deg * 0.75) as usize;
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_comm];
        for (i, &c) in community.iter().enumerate() {
            members[c].push(i);
        }
        let mut world_edges: Vec<(usize, usize, usize)> = Vec::with_capacity(world_edges_target);
        let rel_vocab_world = self.relations.0.max(self.relations.1);
        while world_edges.len() < world_edges_target {
            let u = rng.gen_range(0..world_n);
            let v = if rng.gen_bool(0.8) {
                // Intra-community edge (homophily drives SP's effectiveness).
                let peers = &members[community[u]];
                peers[rng.gen_range(0..peers.len())]
            } else {
                rng.gen_range(0..world_n)
            };
            if u != v {
                let r = zipf(&mut rng, rel_vocab_world);
                world_edges.push((u.min(v), r, u.max(v)));
            }
        }
        world_edges.sort_unstable();
        world_edges.dedup_by_key(|&mut (h, _, t)| (h, t));

        // --- world attributes -----------------------------------------------
        let attr_vocab_world = self.attributes.0.max(self.attributes.1);
        let max_ape = self.attrs_per_entity.0.max(self.attrs_per_entity.1);
        let mut world_attrs: Vec<(usize, usize)> = Vec::new();
        #[allow(clippy::needless_range_loop)] // `i` is the entity id, also indexing `community`
        for i in 0..world_n {
            let k = poissonish(&mut rng, max_ape * 1.3);
            for _ in 0..k {
                // Community-biased attribute choice keeps text informative.
                let a = if rng.gen_bool(0.7) {
                    (community[i] * 13 + zipf(&mut rng, 8)) % attr_vocab_world
                } else {
                    zipf(&mut rng, attr_vocab_world)
                };
                world_attrs.push((i, a));
            }
        }

        // --- views ----------------------------------------------------------
        // Source = world [0, n_s); target = world [n_s − n_pairs, …); the
        // overlap range [n_s − n_pairs, n_s) is the gold alignment.
        let src_world: Vec<usize> = (0..n_s).collect();
        let tgt_world: Vec<usize> = (n_s - n_pairs..n_s - n_pairs + n_t).collect();
        let shared: Vec<usize> = (n_s - n_pairs..n_s).collect();

        let vision_proj: Vec<Vec<f32>> = (0..self.latent_dim)
            .map(|_| (0..self.vision_dim).map(|_| gauss(&mut rng) / (self.latent_dim as f32).sqrt()).collect())
            .collect();

        let source = self.build_view(&mut rng, &src_world, world_n, &world_edges, &world_attrs, &latent, &vision_proj, 0, src_images_out);
        let target = self.build_view(&mut rng, &tgt_world, world_n, &world_edges, &world_attrs, &latent, &vision_proj, 1, tgt_images_out);

        // --- alignments --------------------------------------------------------
        // View entity ids are the position of the world id in the view's
        // (shuffled) member list; build_view returns alongside.
        let (source_kg, src_map) = source;
        let (target_kg, tgt_map) = target;
        let mut pairs: Vec<(usize, usize)> = shared.iter().map(|&w| (src_map[w], tgt_map[w])).collect();
        pairs.shuffle(&mut rng);
        let n_train = ((pairs.len() as f32) * self.seed_ratio).round() as usize;
        let train_pairs = pairs[..n_train].to_vec();
        let test_pairs = pairs[n_train..].to_vec();

        AlignmentDataset { name: self.split_name(), source: source_kg, target: target_kg, train_pairs, test_pairs }
    }

    /// Builds one view KG. Returns the KG (image slots all `None` — rows
    /// leave through `images_out`) plus the world→view index map
    /// (usize::MAX for absent entities).
    #[allow(clippy::too_many_arguments)]
    fn build_view(
        &self,
        rng: &mut Rng64,
        view_world_ids: &[usize],
        world_n: usize,
        world_edges: &[(usize, usize, usize)],
        world_attrs: &[(usize, usize)],
        latent: &[Vec<f32>],
        vision_proj: &[Vec<f32>],
        side: usize,
        images_out: &mut dyn FnMut(usize, Vec<f32>),
    ) -> (Mmkg, Vec<usize>) {
        let n = view_world_ids.len();
        let (num_rel, num_attr, deg, ape, img_cov, tex_cov) = if side == 0 {
            (self.relations.0, self.attributes.0, self.avg_degree.0, self.attrs_per_entity.0, self.image_coverage.0, self.text_coverage.0)
        } else {
            (self.relations.1, self.attributes.1, self.avg_degree.1, self.attrs_per_entity.1, self.image_coverage.1, self.text_coverage.1)
        };

        // Shuffled world→view mapping so raw indices carry no signal.
        let mut order: Vec<usize> = view_world_ids.to_vec();
        order.shuffle(rng);
        let mut map = vec![usize::MAX; world_n];
        for (view_idx, &w) in order.iter().enumerate() {
            map[w] = view_idx;
        }

        // Structure: subsample projected world edges to the side's density,
        // then rewire a `structural_noise` fraction.
        let projected: Vec<(usize, usize, usize)> = world_edges
            .iter()
            .filter(|&&(h, _, t)| map[h] != usize::MAX && map[t] != usize::MAX)
            .map(|&(h, r, t)| (map[h], r % num_rel, map[t]))
            .collect();
        let target_edges = (((n as f32) * deg) / 2.0) as usize;
        let keep_p = (target_edges as f64 / projected.len().max(1) as f64).min(1.0);
        let mut rel_triples: Vec<(usize, usize, usize)> = Vec::with_capacity(target_edges);
        for &(h, r, t) in &projected {
            if rng.gen_bool(keep_p) {
                if rng.gen_bool(self.structural_noise as f64) {
                    // Rewire one endpoint: view-specific structural noise.
                    // A rewire that lands back on the head would create a
                    // self-loop; keep the original edge instead (same
                    // single RNG draw, so the stream is unchanged).
                    let t2 = rng.gen_range(0..n);
                    rel_triples.push((h, r, if t2 == h { t } else { t2 }));
                } else {
                    rel_triples.push((h, r, t));
                }
            }
        }
        // Rewiring can collide with an existing edge; drop exact duplicates
        // (first occurrence wins) so generated graphs pass a Strict audit.
        {
            let mut seen = std::collections::HashSet::with_capacity(rel_triples.len());
            rel_triples.retain(|&trip| seen.insert(trip));
        }

        // Attributes: only a `text_coverage` fraction of entities carry any
        // text at all (the intrinsic inconsistency of real KGs), then
        // inherit world attributes with dropout + noise.
        let mut covered = vec![false; n];
        {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(rng);
            for &e in order.iter().take(((n as f32) * tex_cov).round() as usize) {
                covered[e] = true;
            }
        }
        let projected_attrs: Vec<(usize, usize)> = world_attrs
            .iter()
            .filter(|&&(e, _)| map[e] != usize::MAX && covered[map[e]])
            .map(|&(e, a)| (map[e], a % num_attr))
            .collect();
        let target_attrs = ((n as f32) * ape) as usize;
        let keep_p = ((target_attrs as f64) / (projected_attrs.len().max(1) as f64)).min(1.0);
        let mut attr_triples: Vec<(usize, usize)> = Vec::with_capacity(target_attrs);
        for &(e, a) in &projected_attrs {
            if rng.gen_bool(keep_p) {
                if rng.gen_bool(self.attr_noise as f64) {
                    attr_triples.push((e, zipf(rng, num_attr)));
                } else {
                    attr_triples.push((e, a));
                }
            }
        }

        // Images: project the latent through the shared "vision encoder",
        // add per-view noise; drop to coverage (or the R_img override).
        let coverage = self.image_ratio.unwrap_or(img_cov);
        let mut with_image: Vec<usize> = (0..n).collect();
        with_image.shuffle(rng);
        with_image.truncate(((n as f32) * coverage).round() as usize);
        let mut has_image = vec![false; n];
        for &e in &with_image {
            has_image[e] = true;
        }
        // Rows are emitted in ascending view index, matching both the
        // fingerprint's traversal order and the shard layout; the R_tex
        // shuffle below comes *after* every image draw, so routing rows to
        // a sink instead of a vec cannot perturb the RNG stream.
        for (view_idx, has) in has_image.iter().enumerate() {
            if !has {
                continue;
            }
            let w = order[view_idx];
            let z = &latent[w];
            let mut v: Vec<f32> = (0..self.vision_dim)
                .map(|d| {
                    let mut s = 0.0f32;
                    for (k, &zk) in z.iter().enumerate() {
                        s += zk * vision_proj[k][d];
                    }
                    s + self.vision_noise * gauss(rng)
                })
                .collect();
            let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            for x in &mut v {
                *x /= norm;
            }
            images_out(view_idx, v);
        }

        // R_tex override: keep text for only that fraction of entities.
        if let Some(r) = self.text_ratio {
            let mut keep: Vec<usize> = (0..n).collect();
            keep.shuffle(rng);
            keep.truncate(((n as f32) * r).round() as usize);
            let keep_set: Vec<bool> = {
                let mut k = vec![false; n];
                for &e in &keep {
                    k[e] = true;
                }
                k
            };
            attr_triples.retain(|&(e, _)| keep_set[e]);
        }

        let kg = Mmkg { num_entities: n, num_relations: num_rel, num_attributes: num_attr, rel_triples, attr_triples, images: vec![None; n] };
        (kg, map)
    }
}

/// Standard-normal sample via Box–Muller.
fn gauss(rng: &mut Rng64) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0f32..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Zipf-like sample over `0..n` (heavier mass on small ids), matching the
/// long-tailed relation/attribute frequencies of real KGs.
fn zipf(rng: &mut Rng64, n: usize) -> usize {
    let u: f32 = rng.gen_range(0.0f32..1.0);
    let x = (n as f32).powf(u) - 1.0;
    (x as usize).min(n.saturating_sub(1))
}

/// Cheap Poisson-ish sample with the given mean (sum of Bernoullis).
fn poissonish(rng: &mut Rng64, mean: f32) -> usize {
    let trials = (mean * 3.0).ceil().max(1.0) as usize;
    let p = (mean / trials as f32).clamp(0.0, 1.0) as f64;
    (0..trials).filter(|_| rng.gen_bool(p)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(150);
        let a = cfg.generate(7);
        let b = cfg.generate(7);
        assert_eq!(a.source.rel_triples, b.source.rel_triples);
        assert_eq!(a.train_pairs, b.train_pairs);
        let c = cfg.generate(8);
        assert_ne!(a.train_pairs, c.train_pairs);
    }

    #[test]
    fn sharded_generation_matches_in_memory_bit_for_bit() {
        let cfg = SynthConfig::preset(DatasetSpec::FbYg15k).scaled(120).with_image_ratio(0.5);
        let ds = cfg.generate(21);
        let dir = std::env::temp_dir().join("desalign-synth-sharded-test");
        std::fs::remove_dir_all(&dir).ok();
        let manifest = cfg.generate_sharded(21, &dir, 50).expect("sharded generate");
        assert_eq!(manifest.dataset_fingerprint, crate::dataset_fingerprint(&ds), "streamed generator must match in-memory");
        let assembled = manifest.to_dataset(&dir).expect("assemble");
        assert_eq!(assembled.source.images, ds.source.images);
        assert_eq!(assembled.target.rel_triples, ds.target.rel_triples);
        assert_eq!(assembled.train_pairs, ds.train_pairs);
        assert!(!dir.join(".spill-src.f32").exists(), "spill files must be cleaned up");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn presets_respect_side_ratios() {
        let cfg = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(400);
        let ds = cfg.generate(1);
        assert_eq!(ds.source.num_entities, 400);
        // DB15K side is ~86 % of FB15K.
        let ratio = ds.target.num_entities as f32 / ds.source.num_entities as f32;
        assert!((ratio - 0.859).abs() < 0.02, "ratio {ratio}");
        assert_eq!(ds.validate(), Ok(()));
    }

    #[test]
    fn seed_ratio_controls_split() {
        for r in [0.1f32, 0.5, 0.8] {
            let cfg = SynthConfig::preset(DatasetSpec::FbYg15k).scaled(200).with_seed_ratio(r);
            let ds = cfg.generate(3);
            assert!((ds.seed_ratio() - r).abs() < 0.05, "want {r}, got {}", ds.seed_ratio());
        }
    }

    #[test]
    fn image_ratio_override_controls_coverage() {
        let cfg = SynthConfig::preset(DatasetSpec::Dbp15kFrEn).scaled(200).with_image_ratio(0.3);
        let ds = cfg.generate(5);
        let cov_s = ds.source.num_images() as f32 / ds.source.num_entities as f32;
        let cov_t = ds.target.num_images() as f32 / ds.target.num_entities as f32;
        assert!((cov_s - 0.3).abs() < 0.05, "source coverage {cov_s}");
        assert!((cov_t - 0.3).abs() < 0.05, "target coverage {cov_t}");
    }

    #[test]
    fn text_ratio_override_limits_attributed_entities() {
        let cfg = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(200).with_text_ratio(0.25);
        let ds = cfg.generate(9);
        let frac = ds.source.entities_with_attributes().iter().filter(|&&b| b).count() as f32 / ds.source.num_entities as f32;
        assert!(frac <= 0.27, "attributed fraction {frac} should be ≤ R_tex");
    }

    #[test]
    fn aligned_entities_share_structure_signal() {
        // Gold-aligned entities should have correlated neighbourhoods: count
        // how often an aligned pair shares at least one aligned neighbour
        // pair; this must beat chance by a wide margin.
        let cfg = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(300);
        let ds = cfg.generate(11);
        let mut t_of_s = vec![usize::MAX; ds.source.num_entities];
        for &(s, t) in ds.train_pairs.iter().chain(&ds.test_pairs) {
            t_of_s[s] = t;
        }
        let mut s_adj = vec![Vec::new(); ds.source.num_entities];
        for &(h, _, t) in &ds.source.rel_triples {
            s_adj[h].push(t);
            s_adj[t].push(h);
        }
        let mut t_adj = vec![std::collections::HashSet::new(); ds.target.num_entities];
        for &(h, _, t) in &ds.target.rel_triples {
            t_adj[h].insert(t);
            t_adj[t].insert(h);
        }
        let mut hits = 0usize;
        let mut total = 0usize;
        for &(s, t) in &ds.test_pairs {
            total += 1;
            let matched = s_adj[s].iter().any(|&nb| {
                let tn = t_of_s[nb];
                tn != usize::MAX && t_adj[t].contains(&tn)
            });
            if matched {
                hits += 1;
            }
        }
        let frac = hits as f32 / total.max(1) as f32;
        assert!(frac > 0.3, "aligned pairs share neighbours only {frac} of the time");
    }

    #[test]
    fn bilingual_presets_are_noisier() {
        // Bilingual noise exceeds monolingual on the attribute channel;
        // structural noise is matched (the monolingual difficulty boost —
        // see the preset comment) and vision noise is *lower* bilingual.
        let mono = SynthConfig::preset(DatasetSpec::FbDb15k);
        let bi = SynthConfig::preset(DatasetSpec::Dbp15kZhEn);
        assert!(bi.attr_noise > mono.attr_noise);
        assert!(bi.structural_noise >= mono.structural_noise);
        assert!(bi.vision_noise < mono.vision_noise);
    }

    #[test]
    fn split_names_encode_overrides() {
        let cfg = SynthConfig::preset(DatasetSpec::Dbp15kJaEn).with_image_ratio(0.4);
        assert!(cfg.split_name().contains("img=0.40"));
        assert!(cfg.split_name().contains("DBP15K_JA-EN"));
    }

    #[test]
    fn stats_are_plausible() {
        let cfg = SynthConfig::preset(DatasetSpec::Dbp15kFrEn).scaled(300);
        let ds = cfg.generate(13);
        let s = ds.source.stats();
        // Degree close to the configured target.
        let deg = 2.0 * s.rel_triples as f32 / s.entities as f32;
        assert!(deg > 5.0 && deg < 14.0, "degree {deg}");
        assert!(s.attr_triples > s.entities, "text should be dense on DBP15K");
    }
}
