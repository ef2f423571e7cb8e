//! Entity-alignment evaluation: ranking metrics, similarity matrices, and
//! pseudo-pair mining.
//!
//! Implements the paper's evaluation protocol (§V-A3): cosine similarity
//! between entity embeddings, `H@k` (Eq. 23) and `MRR` (Eq. 24) over the
//! test alignments, plus CSLS re-scoring and the mutual-nearest-neighbour
//! mining used by the iterative training strategy.
//!
//! Each of the three comes in two forms. The embedding-level form
//! ([`evaluate_ranking_embeddings`], [`mine_mutual_nn`],
//! [`csls_retrieve_top_k`]) searches through [`ItemIndex`], the one
//! retrieval index: an exact scan bit-identical to the dense cosine path,
//! or a deterministic IVF approximate index. Neither materializes the
//! `n_s × n_t` similarity matrix. The dense form ([`evaluate_ranking`],
//! [`mutual_nearest_neighbours`], [`csls_rescale`]) works on a
//! [`SimilarityMatrix`], for scores that are not cosines of embeddings
//! (the baselines' distances and products) and as the reference the
//! index path is tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index;
mod metrics;
mod mining;
mod similarity;

pub use index::{IndexKind, ItemIndex, IvfParams, RetrievalConfig};
pub use metrics::{evaluate_ranking, evaluate_ranking_embeddings, AlignmentMetrics};
pub use mining::{mine_mutual_nn, mutual_nearest_neighbours};
pub use similarity::{cosine_similarity, csls_rescale, csls_rescale_candidates, csls_retrieve_top_k, SimilarityMatrix};
