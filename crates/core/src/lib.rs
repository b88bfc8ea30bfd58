//! # DStore — a fast, tailless, and quiescent-free object store
//!
//! Rust implementation of *"DStore: A Fast, Tailless, and Quiescent-Free
//! Object Store for PMEM"* (Gugnani & Lu, HPDC 2021), built on the DIPPER
//! persistence engine (`dstore-dipper`).
//!
//! ## Architecture (paper §4, Figure 4)
//!
//! * **Control plane in DRAM**: the object-index B-tree, metadata zone
//!   (per-object [`structures::MetaEntry`]s), and the block pool all live
//!   in a volatile arena. Every metadata operation appends a ~40-byte
//!   logical record to a PMEM log and is durable at record flush.
//! * **Checkpoint space in PMEM**: shadow copies of the DRAM structures,
//!   updated in the background by replaying the archived log with the
//!   *same code* the frontend runs. The frontend never quiesces.
//! * **Data plane on SSD**: object bytes go straight to the emulated NVMe
//!   device, whose capacitor-backed write cache makes completed writes
//!   durable (§4.5) — DStore has no host write cache at all. A value of
//!   at most [`INLINE_MAX`] bytes is the exception: it travels in its log
//!   record and lives in the arena beside its metadata entry.
//!
//! ## Quickstart
//!
//! ```
//! use dstore::{DStore, DStoreConfig};
//!
//! let store = DStore::create(DStoreConfig::small()).unwrap();
//! let ctx = store.context(); // ds_init
//! ctx.put(b"greeting", b"hello pmem").unwrap();
//! assert_eq!(ctx.get(b"greeting").unwrap(), b"hello pmem");
//! ctx.delete(b"greeting").unwrap();
//! ```
//!
//! ## Modes
//!
//! [`DStoreConfig`] selects the persistence architecture, enabling the
//! paper's ablation (Figure 9) and baselines:
//!
//! * [`CheckpointMode::Dipper`] — decoupled parallel checkpoints (the
//!   paper's contribution);
//! * [`CheckpointMode::Cow`] — the NOVA/Pronto-style copy-on-write
//!   checkpoint the paper implements inside DStore for comparison;
//! * [`LoggingMode::Logical`] vs [`LoggingMode::Physical`] (ARIES-style
//!   records, as in DudeTM/NV-HTM);
//! * `oe: bool` — observational-equivalence concurrency on or off.

#![warn(missing_docs)]

pub mod blackbox;
pub mod cc;
pub mod config;
pub mod cow;
pub mod ctx;
mod engine;
pub mod error;
pub mod ops;
pub mod replay;
pub mod stats;
pub mod store;
pub mod structures;
pub mod telemetry;

pub use blackbox::{CrashReport, HEARTBEAT_EVERY};
pub use config::{CheckpointMode, DStoreConfig, LoggingMode};
pub use ctx::{DsContext, DsLock, Epoch, ObjectHandle, ObjectStat, OpenMode};
pub use error::{DsError, DsResult};
pub use stats::Footprint;
pub use store::{CrashImage, DStore, RecoveryReport};
pub use structures::INLINE_MAX;
pub use telemetry::HealthSnapshot;
