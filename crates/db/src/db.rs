//! The archive database: a directory of per-problem JSONL journals plus
//! checkpoint snapshots.
//!
//! Layout under the root directory:
//!
//! ```text
//! <root>/
//!   <problem>-<sig:016x>.jsonl        one journal per problem signature
//!   <problem>-<sig:016x>.jsonl.lock   lock file of that journal (persistent,
//!                                     holds no data)
//!   ckpt-<sig:016x>-<run:016x>.json   in-flight checkpoint of one run
//!                                     (removed on completion)
//! ```
//!
//! Journal names embed the problem *signature* (a stable hash of the
//! problem name, spaces, and objective count), so two problems that share
//! a name but differ structurally never mix records.

use crate::checkpoint::Checkpoint;
use crate::journal::{self, RecoveryReport};
use crate::lock::LockOptions;
use crate::record::{DbEntry, DbRecord, DbValue, FailRecord, RunSummary};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A handle on an archive directory.
#[derive(Debug, Clone)]
pub struct Db {
    root: PathBuf,
    lock: LockOptions,
}

/// Query filter for [`Db::query`].
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Keep only records whose task equals this exactly.
    pub task: Option<Vec<DbValue>>,
    /// Keep only records with this many objective outputs.
    pub n_outputs: Option<usize>,
    /// Keep only records whose outputs are all finite.
    pub finite_only: bool,
}

impl Db {
    /// Opens (creating if needed) an archive rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Db> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Db {
            root,
            lock: LockOptions::default(),
        })
    }

    /// The archive root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Journal path for a problem signature.
    pub fn journal_path(&self, problem: &str, sig: u64) -> PathBuf {
        crate::shard::live_journal_path(&self.root, problem, sig)
    }

    /// Checkpoint path for a (signature, run fingerprint) pair.
    pub fn checkpoint_path(&self, sig: u64, run: u64) -> PathBuf {
        self.root.join(format!("ckpt-{sig:016x}-{run:016x}.json"))
    }

    /// Appends entries to the appropriate journal (all entries must share
    /// one `(problem, sig)`); durable and lock-protected.
    pub fn append(&self, entries: &[DbEntry]) -> io::Result<usize> {
        let Some(first) = entries.first() else {
            return Ok(0);
        };
        let (problem, sig) = match first {
            DbEntry::Eval(r) => (r.problem.as_str(), r.sig),
            DbEntry::Run(r) => (r.problem.as_str(), r.sig),
            DbEntry::Fail(r) => (r.problem.as_str(), r.sig),
        };
        journal::append(&self.journal_path(problem, sig), entries, &self.lock)
    }

    /// Loads every recoverable entry of a problem's history: archive
    /// shards (when a manifest exists) followed by the live journal,
    /// deduplicated.
    pub fn load(&self, problem: &str, sig: u64) -> io::Result<(Vec<DbEntry>, RecoveryReport)> {
        crate::shard::load_all(&self.root, problem, sig)
    }

    /// Archived evaluations matching a filter, in journal (append) order.
    pub fn query(&self, problem: &str, sig: u64, q: &Query) -> io::Result<Vec<DbRecord>> {
        let (entries, _) = self.load(problem, sig)?;
        Ok(entries
            .into_iter()
            .filter_map(|e| match e {
                DbEntry::Eval(r) => Some(r),
                _ => None,
            })
            .filter(|r| q.task.as_ref().is_none_or(|t| &r.task == t))
            .filter(|r| q.n_outputs.is_none_or(|n| r.outputs.len() == n))
            .filter(|r| !q.finite_only || r.outputs.iter().all(|x| x.is_finite()))
            .collect())
    }

    /// Run summaries of a problem, in append order.
    pub fn run_summaries(&self, problem: &str, sig: u64) -> io::Result<Vec<RunSummary>> {
        let (entries, _) = self.load(problem, sig)?;
        Ok(entries
            .into_iter()
            .filter_map(|e| match e {
                DbEntry::Run(r) => Some(r),
                _ => None,
            })
            .collect())
    }

    /// Archived failure records of a problem, in append order — the
    /// "known to fail" set consulted before re-evaluating configurations.
    pub fn failures(&self, problem: &str, sig: u64) -> io::Result<Vec<FailRecord>> {
        let (entries, _) = self.load(problem, sig)?;
        Ok(entries
            .into_iter()
            .filter_map(|e| match e {
                DbEntry::Fail(r) => Some(r),
                _ => None,
            })
            .collect())
    }

    /// Deduplicates and heals a problem's live journal in place, dropping
    /// entries its archive shards already hold (see
    /// [`crate::shard::compact`]). Returns `(entries_kept, entries_dropped)`.
    pub fn compact(&self, problem: &str, sig: u64) -> io::Result<(usize, usize)> {
        crate::shard::compact(&self.root, problem, sig, &self.lock)
    }

    /// Appends the subset of `entries` not already present anywhere in
    /// this archive (shards or live journal) to the live journal.
    /// Returns the number of entries added.
    pub fn merge_entries(&self, problem: &str, sig: u64, entries: &[DbEntry]) -> io::Result<usize> {
        let (existing, _) = self.load(problem, sig)?;
        let mut seen: std::collections::BTreeSet<String> =
            existing.iter().map(DbEntry::dedup_key).collect();
        let fresh: Vec<DbEntry> = entries
            .iter()
            .filter(|e| seen.insert(e.dedup_key()))
            .cloned()
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        journal::append(&self.journal_path(problem, sig), &fresh, &self.lock)
    }

    /// Splits this problem's history into v2 archive shards (see
    /// [`crate::shard::split`]).
    pub fn split_shards(
        &self,
        problem: &str,
        sig: u64,
        policy: crate::shard::ShardPolicy,
    ) -> io::Result<crate::shard::ShardManifest> {
        crate::shard::split(&self.root, problem, sig, policy, &self.lock)
    }

    /// The shard manifest for `(problem, sig)`, when the problem has been
    /// sharded.
    pub fn shard_manifest(
        &self,
        problem: &str,
        sig: u64,
    ) -> io::Result<Option<crate::shard::ShardManifest>> {
        crate::shard::ShardManifest::load(&self.root, problem, sig)
    }

    /// Lists `(file_name, n_entries)` for every journal in the archive.
    pub fn journals(&self) -> io::Result<Vec<(String, usize)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.ends_with(".jsonl") {
                continue;
            }
            let (entries, _) = journal::load(&entry.path())?;
            out.push((name, entries.len()));
        }
        out.sort();
        Ok(out)
    }

    /// Saves a checkpoint under its `(sig, run)` key.
    pub fn save_checkpoint(&self, ckpt: &Checkpoint) -> io::Result<()> {
        ckpt.save(&self.checkpoint_path(ckpt.sig, ckpt.run))
    }

    /// Loads the checkpoint for `(sig, run)` when present.
    pub fn load_checkpoint(&self, sig: u64, run: u64) -> io::Result<Option<Checkpoint>> {
        Checkpoint::load(&self.checkpoint_path(sig, run))
    }

    /// Removes the checkpoint for `(sig, run)` (idempotent).
    pub fn clear_checkpoint(&self, sig: u64, run: u64) -> io::Result<()> {
        Checkpoint::remove(&self.checkpoint_path(sig, run))
    }
}

/// Filesystem-safe slug of a problem name (`pdgeqrf[0]` → `pdgeqrf_0_`).
/// Public so other archive writers (the serve session store) derive
/// file names the same way.
pub fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Provenance;

    fn tmp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gptune_db_db_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn rec(task: i64, cfg: i64, y: f64) -> DbEntry {
        DbEntry::Eval(DbRecord {
            problem: "toy[0]".into(),
            sig: 0xfeed,
            task: vec![DbValue::Int(task)],
            config: vec![DbValue::Int(cfg)],
            outputs: vec![y],
            prov: Provenance {
                seed: 1,
                run: "r".into(),
                machine: None,
            },
        })
    }

    #[test]
    fn append_query_filters() {
        let root = tmp_root("query");
        let db = Db::open(&root).unwrap();
        db.append(&[rec(1, 10, 1.0), rec(1, 20, f64::INFINITY), rec(2, 10, 3.0)])
            .unwrap();
        let all = db.query("toy[0]", 0xfeed, &Query::default()).unwrap();
        assert_eq!(all.len(), 3);
        let t1 = db
            .query(
                "toy[0]",
                0xfeed,
                &Query {
                    task: Some(vec![DbValue::Int(1)]),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(t1.len(), 2);
        let finite = db
            .query(
                "toy[0]",
                0xfeed,
                &Query {
                    task: Some(vec![DbValue::Int(1)]),
                    finite_only: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(finite.len(), 1);
        assert_eq!(finite[0].config, vec![DbValue::Int(10)]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn sanitized_journal_name() {
        let root = tmp_root("sanitize");
        let db = Db::open(&root).unwrap();
        let p = db.journal_path("toy[0]", 0xfeed);
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        assert_eq!(name, "toy_0_-000000000000feed.jsonl");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn journals_listing_and_compact() {
        let root = tmp_root("list");
        let db = Db::open(&root).unwrap();
        db.append(&[rec(1, 10, 1.0), rec(1, 10, 1.0)]).unwrap();
        let js = db.journals().unwrap();
        assert_eq!(js.len(), 1);
        assert_eq!(js[0].1, 2);
        let (kept, dropped) = db.compact("toy[0]", 0xfeed).unwrap();
        assert_eq!((kept, dropped), (1, 1));
        assert_eq!(db.journals().unwrap()[0].1, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn merge_between_archives() {
        let root_a = tmp_root("merge_a");
        let root_b = tmp_root("merge_b");
        let a = Db::open(&root_a).unwrap();
        let b = Db::open(&root_b).unwrap();
        a.append(&[rec(1, 10, 1.0)]).unwrap();
        b.append(&[rec(1, 10, 1.0), rec(1, 20, 2.0)]).unwrap();
        let (incoming, _) = b.load("toy[0]", 0xfeed).unwrap();
        let added = a.merge_entries("toy[0]", 0xfeed, &incoming).unwrap();
        assert_eq!(added, 1);
        // Merging again is a no-op.
        assert_eq!(a.merge_entries("toy[0]", 0xfeed, &incoming).unwrap(), 0);
        assert_eq!(
            a.query("toy[0]", 0xfeed, &Query::default()).unwrap().len(),
            2
        );
        let _ = fs::remove_dir_all(&root_a);
        let _ = fs::remove_dir_all(&root_b);
    }

    #[test]
    fn compact_drops_live_entries_already_in_shards() {
        let root = tmp_root("compact_sharded");
        let db = Db::open(&root).unwrap();
        db.append(&[rec(1, 10, 1.0), rec(2, 20, 2.0)]).unwrap();
        db.split_shards("toy[0]", 0xfeed, crate::shard::ShardPolicy::ByTask)
            .unwrap();
        // A replayed append re-adds an entry a shard already holds.
        db.append(&[rec(1, 10, 1.0), rec(1, 30, 3.0)]).unwrap();
        assert_eq!(db.compact("toy[0]", 0xfeed).unwrap(), (1, 1));
        assert_eq!(
            db.query("toy[0]", 0xfeed, &Query::default()).unwrap().len(),
            3
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failures_query_filters_fail_entries() {
        use crate::record::{FailKind, FailRecord};
        let root = tmp_root("fails");
        let db = Db::open(&root).unwrap();
        let fail = DbEntry::Fail(FailRecord {
            problem: "toy[0]".into(),
            sig: 0xfeed,
            task: vec![DbValue::Int(1)],
            config: vec![DbValue::Int(20)],
            kind: FailKind::TimedOut,
            attempts: 1,
            elapsed_secs: 0.2,
            prov: Provenance::default(),
        });
        db.append(&[rec(1, 10, 1.0), fail.clone(), rec(1, 30, 2.0)])
            .unwrap();
        let fails = db.failures("toy[0]", 0xfeed).unwrap();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].kind, FailKind::TimedOut);
        assert_eq!(fails[0].config, vec![DbValue::Int(20)]);
        // Fail entries do not leak into eval queries or run summaries.
        assert_eq!(
            db.query("toy[0]", 0xfeed, &Query::default()).unwrap().len(),
            2
        );
        assert_eq!(db.run_summaries("toy[0]", 0xfeed).unwrap().len(), 0);
        // And they dedup like any other entry under compaction.
        db.append(&[fail]).unwrap();
        let (kept, dropped) = db.compact("toy[0]", 0xfeed).unwrap();
        assert_eq!((kept, dropped), (3, 1));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_lifecycle_via_db() {
        use crate::checkpoint::CheckpointKind;
        use crate::record::RunStats;
        let root = tmp_root("ckpt");
        let db = Db::open(&root).unwrap();
        assert_eq!(db.load_checkpoint(9, 0xab).unwrap(), None);
        let c = Checkpoint {
            kind: CheckpointKind::Mla,
            sig: 9,
            run: 0xab,
            seed: 3,
            eps_total: 10,
            iteration: 2,
            eps: 7,
            n_preloaded: 0,
            points: vec![(0, vec![DbValue::Real(0.5)])],
            outputs: vec![vec![1.0]],
            fails: Vec::new(),
            stats: RunStats::default(),
        };
        db.save_checkpoint(&c).unwrap();
        assert_eq!(db.load_checkpoint(9, 0xab).unwrap(), Some(c));
        assert_eq!(db.load_checkpoint(9, 0xac).unwrap(), None, "run-scoped");
        assert_eq!(db.load_checkpoint(9, 3).unwrap(), None, "not keyed by seed");
        db.clear_checkpoint(9, 0xac).unwrap();
        assert!(
            db.load_checkpoint(9, 0xab).unwrap().is_some(),
            "other run kept"
        );
        db.clear_checkpoint(9, 0xab).unwrap();
        assert_eq!(db.load_checkpoint(9, 0xab).unwrap(), None);
        let _ = fs::remove_dir_all(&root);
    }
}
