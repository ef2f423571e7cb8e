//! Zero-dependency utilities for the DESAlign workspace.
//!
//! Four modules:
//!
//! - [`mod@json`] — a hand-rolled JSON value type with a writer and a
//!   recursive-descent parser. It replaces `serde`/`serde_json` for the
//!   workspace's needs — checkpoint files, dataset snapshots, config and
//!   benchmark-result dumps — without pulling any crates.io dependency.
//! - [`mod@atomicio`] — crash-safe file persistence: a checksummed frame
//!   container ([`frame`]/[`unframe`]) and write-to-temp + fsync +
//!   atomic-rename replacement ([`atomic_write`]/[`read_verified`]). This
//!   is the storage layer of the training-checkpoint subsystem documented
//!   in `docs/RELIABILITY.md`.
//! - [`mod@error`] — the workspace's typed error taxonomy:
//!   [`DesalignError`] carries a [`DefectClass`], a location, a context
//!   message, and a comparable cause chain. The data-plane boundaries
//!   (loader, auditor, graph construction, model setup) all report through
//!   it; see the "Data-plane robustness" section of `docs/RELIABILITY.md`.
//! - [`mod@env`] — the one parse rule for numeric `DESALIGN_*` knobs
//!   ([`count_var`]): unset takes the default, unparsable is an error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomicio;
pub mod env;
pub mod error;
pub mod json;

pub use atomicio::{atomic_write, checksum64, frame, Fnv64, read_verified, temp_path, unframe, FrameWriter, FOOTER_LEN, FOOTER_MAGIC};
pub use env::count_var;
pub use error::{DefectClass, DesalignError};
pub use json::{u64_from_json, u64_to_json, FromJson, Json, JsonError, ToJson};
