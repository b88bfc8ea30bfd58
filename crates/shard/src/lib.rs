//! `dstore-shard`: a hash-partitioned multi-shard DStore.
//!
//! A [`ShardedStore`] spreads keys over N fully independent
//! [`dstore::DStore`] instances — each with its own PMEM pool, SSD
//! device, DIPPER log, and checkpoint engine — and re-exposes the
//! paper's Table-2 API through [`ShardedCtx`]. Three properties make
//! this more than a hash map of stores:
//!
//! * **Stable routing** ([`Router`]): key→shard placement is a pure
//!   function of a persisted seed, and every shard carries a shard-map
//!   superblock naming its index; recovery rejects wrong shard counts,
//!   mixed seeds, or duplicated images instead of silently misrouting.
//! * **Independent checkpoints**: every shard is a whole DIPPER
//!   instance and checkpoints itself when its own log crosses
//!   `swap_threshold` (`auto_checkpoint`). Shards are not coordinated:
//!   a DIPPER checkpoint runs behind its own shard's frontend without
//!   quiescing it, so there is no fleet-wide stall to spread out.
//! * **Parallel recovery**: [`ShardedStore::recover`] recovers all
//!   shards concurrently (rayon) and merges their
//!   [`dstore::RecoveryReport`]s into a [`RecoverySummary`].

pub mod router;
pub mod store;
pub mod superblock;

pub use router::Router;
pub use store::{RecoverySummary, ShardedConfig, ShardedCtx, ShardedStore, DEFAULT_ROUTER_SEED};
pub use superblock::{is_reserved, ShardMap, RESERVED_PREFIX, SHARD_MAP_NAME};
