//! Dense numeric kernels for DESAlign.
//!
//! This crate provides the dense linear-algebra substrate the rest of the
//! workspace builds on: a row-major `f32` [`Matrix`], element-wise and
//! matrix-product kernels, row-wise normalizations used by attention layers,
//! and seedable random initializers (Glorot et al.).
//!
//! The design goals, in order:
//!
//! 1. **Correctness** — every kernel has a small-case unit test and the
//!    gradient-bearing ones are finite-difference checked from the
//!    `desalign-autodiff` crate.
//! 2. **Predictable performance** — row-major storage, blocked `ikj` matmul,
//!    no hidden allocation in hot loops, and output-row parallelism via
//!    `desalign-parallel` (results are bit-identical at any thread count; see
//!    that crate's docs for the determinism argument). At the scales this
//!    reproduction targets (≤ a few thousand rows, feature dims ≤ a few
//!    hundred) this is within a small factor of BLAS without the dependency.
//! 3. **No `unsafe`** — this crate forbids unsafe code; the one audited
//!    `unsafe` block in the workspace is the scoped-lifetime erasure in
//!    `desalign-parallel`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matrix;
mod ops;
pub mod random;
mod rowwise;
mod tile;

pub use matrix::Matrix;
pub use ops::{dot, par_dot};
pub use random::{glorot_uniform, normal_matrix, rng_from_seed, uniform_matrix, Rng64, SampleRange, SliceRandom};
pub use rowwise::softmax_slice;
pub use tile::NtPanels;
