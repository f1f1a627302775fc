//! `gptune-db` — the crash-safe shared history database (paper goal 3:
//! "archive and reuse performance data across executions").
//!
//! The GPTune workflow accumulates every objective evaluation into a
//! shared archive that later runs reuse (MLA warm starts, TLA transfer
//! tuning). At production scale that archive must survive killed runs and
//! concurrent writers. This crate is the durable substrate; `gptune-core`
//! reads it back into its in-memory `History`:
//!
//! * [`journal`] — one append-only JSONL file per problem signature.
//!   Writers append whole lines and fsync; recovery tolerates a torn
//!   final line (dropped) and corrupt interior lines (skipped, counted)
//!   so a crash costs at most the record being written;
//! * [`lock`] — a kernel advisory lock on a persistent sibling
//!   `<journal>.lock` file, released the moment its holder exits, so
//!   multiple tuner processes share one archive without lost records and
//!   a killed writer never blocks the next;
//! * [`fsio`] — atomic snapshot writes (temp + fsync + rename +
//!   dir-fsync) used by checkpoints, compaction, shards and their
//!   manifests, and the serve session store;
//! * [`checkpoint`] — full in-flight MLA state (evaluations, iteration
//!   counters, phase stats) so an interrupted run resumes mid-budget and
//!   converges to the identical result as an uninterrupted run;
//! * [`record`] — the versioned journal line format (eval records, run
//!   summaries carrying the `stats:` phase breakdown, and classified
//!   failure records from the fault-tolerant runtime), with
//!   forward-compatible parsing (unknown kinds/fields are skipped);
//! * [`journal_v2`] — compressed binary snapshot format for archive
//!   shards (varint/string-table encoding, per-record CRC32, same
//!   recovery contract as the JSONL reader);
//! * [`shard`] — journal sharding: immutable archive shards split by
//!   task or append-order window, a manifest for cross-shard query and
//!   merge, and the live JSONL journal kept as the small write head;
//! * [`db`] — the archive directory API: append, query (by task /
//!   output arity / finiteness), merge, compact, checkpoint lifecycle.
//!
//! The crate is deliberately dependency-free (std only), including its
//! JSON codec ([`json`]): the storage layer must build wherever the tuner
//! builds.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason
    )
)]

pub mod checkpoint;
pub mod db;
pub mod fsio;
pub mod journal;
pub mod journal_v2;
pub mod json;
pub mod lock;
pub mod record;
pub mod shard;

pub use checkpoint::{Checkpoint, CheckpointKind, CkptFail};
pub use db::{sanitize, Db, Query};
pub use fsio::atomic_write;
pub use journal::{RecordError, RecordErrorKind, RecoveryReport};
pub use lock::{FileLock, LockOptions};
pub use record::{
    fnv1a, DbEntry, DbRecord, DbValue, FailKind, FailRecord, Provenance, RunStats, RunSummary,
};
pub use shard::{ShardInfo, ShardManifest, ShardPolicy};
