//! The durable session store: server-side session state in the shared
//! `gptune-db` archive.
//!
//! Every tenant/problem session owns one *problem* in the archive, named
//! `"{tenant}::{problem}"` so tenants stay isolated on disk exactly as
//! they are in the session table. Two kinds of files hold a session:
//!
//! * a **meta file** (`<key>.session.json`, written atomically) carrying
//!   the structural spec, the session options, the suggest/refit
//!   counters and, under an incremental refit schedule, the surrogate's
//!   [`ModelState`] image — everything [`gptune_core::TunerSession`] needs
//!   beyond the history to continue the *identical* suggestion stream;
//! * the ordinary **sharded journal** of that problem (live JSONL write
//!   head plus any archive shards), holding one eval record per report.
//!
//! Reports are appended to the journal *before* the server acknowledges
//! them (see [`crate::server`]), so the journal — not the meta file — is
//! the source of truth for history. The meta file is only rewritten at
//! session-lifecycle points (open, evict, drain), which keeps the
//! per-report cost at one fsynced journal append.
//!
//! Restore is the inverse: read the meta, fold the sharded journal via
//! [`gptune_db::shard::load_all`] (which tolerates torn tails and
//! CRC-failed records, reported per record), and replay the rows into a
//! fresh session, whose surrogate is rebuilt from the image with one
//! covariance factorization (no hyperparameter optimization). A kill -9
//! between append and acknowledge costs at most one *acknowledged*
//! report — which is zero, because unacknowledged reports are the
//! client's to retry.

use crate::protocol::SessionOptions;
use crate::spec::ProblemSpec;
use gptune_core::db_bridge::{config_to_db, db_to_config};
use gptune_core::{LcmHyperparams, ModelState};
use gptune_db::json::{self, Json};
use gptune_db::{
    atomic_write, fnv1a, journal, lock, sanitize, shard, DbEntry, DbRecord, LockOptions,
    Provenance, RecoveryReport,
};
use gptune_space::Config;
use std::io;
use std::path::{Path, PathBuf};

/// A session as recovered from the archive.
pub struct StoredSession {
    /// Structural problem description at save time.
    pub spec: ProblemSpec,
    /// Session options at save time (the seed drives the RNG stream).
    pub opts: SessionOptions,
    /// Suggestions handed out before the save.
    pub n_suggested: u64,
    /// Surrogate refits performed before the save.
    pub n_refits: u64,
    /// Archived `(task, config, outputs)` rows in append order.
    pub history: Vec<(usize, Config, Vec<f64>)>,
    /// Image of the incremental surrogate saved with the meta, when the
    /// session ran an incremental refit schedule. `None` otherwise, and for
    /// meta files without one in the current form (including those that
    /// stored a refit seed and warm start instead of hyperparameters):
    /// such a session refits from scratch on its first suggest.
    pub model_state: Option<ModelState>,
    /// What recovery saw while folding the journal (torn tails, CRC
    /// failures); clean on the happy path.
    pub recovery: RecoveryReport,
}

/// Server-side archive of tuner sessions, rooted at one directory.
pub struct SessionStore {
    root: PathBuf,
}

/// Encodes a [`ModelState`] for the meta file. `u64` counters use the
/// decimal-string encoding (exact beyond 2^53); the hyperparameters
/// (`lengthscales[q][d]`, `a[q][t]`, `b[q][t]`, `d[t]`) and outputs use
/// the shortest round-trip float form, so the restored surrogate is
/// bit-identical.
fn model_state_to_json(ms: &ModelState) -> Json {
    let floats = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::from_f64(*x)).collect());
    let rows = |m: &[Vec<f64>]| Json::Arr(m.iter().map(|r| floats(r)).collect());
    let hp = &ms.hyperparams;
    Json::Obj(vec![
        ("n_full".into(), Json::from_u64(ms.n_full as u64)),
        (
            "updates_since_full".into(),
            Json::from_u64(ms.updates_since_full),
        ),
        (
            "hyperparams".into(),
            Json::Obj(vec![
                ("lengthscales".into(), rows(&hp.lengthscales)),
                ("a".into(), rows(&hp.a)),
                ("b".into(), rows(&hp.b)),
                ("d".into(), floats(&hp.d)),
            ]),
        ),
        ("y".into(), floats(&ms.y)),
    ])
}

/// Decodes a meta-file [`ModelState`]; `None` on any missing or
/// ill-typed field (the session then restores via a lazy full refit).
/// `q`, `dim` and the task count are read off the array lengths; whether
/// they fit the session's data is checked where the image is restored
/// (gptune-gp's `IncrementalLcm::restore`).
fn model_state_from_json(j: &Json) -> Option<ModelState> {
    let floats = |v: &Json| -> Option<Vec<f64>> { v.as_arr()?.iter().map(Json::as_f64).collect() };
    let rows = |v: &Json| -> Option<Vec<Vec<f64>>> { v.as_arr()?.iter().map(floats).collect() };
    let hp = j.get("hyperparams")?;
    let lengthscales = rows(hp.get("lengthscales")?)?;
    let d = floats(hp.get("d")?)?;
    Some(ModelState {
        n_full: usize::try_from(j.get("n_full")?.as_u64()?).ok()?,
        updates_since_full: j.get("updates_since_full")?.as_u64()?,
        hyperparams: LcmHyperparams {
            q: lengthscales.len(),
            n_tasks: d.len(),
            dim: lengthscales.first().map_or(0, Vec::len),
            a: rows(hp.get("a")?)?,
            b: rows(hp.get("b")?)?,
            lengthscales,
            d,
        },
        y: floats(j.get("y")?)?,
    })
}

impl SessionStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<SessionStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(SessionStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The archive-problem name of a session: tenant-qualified so two
    /// tenants tuning the same problem never share journal files.
    pub fn problem_key(tenant: &str, name: &str) -> String {
        format!("{tenant}::{name}")
    }

    /// The problem signature the store journals under.
    pub fn sig_of(spec: &ProblemSpec) -> u64 {
        fnv1a(spec.to_json().to_string().as_bytes())
    }

    fn meta_path(&self, tenant: &str, name: &str) -> PathBuf {
        self.root.join(format!(
            "{}.session.json",
            sanitize(&Self::problem_key(tenant, name))
        ))
    }

    /// Writes the session meta file atomically. Called at lifecycle
    /// points (open, evict, drain) — not per report.
    pub fn save_meta(
        &self,
        tenant: &str,
        spec: &ProblemSpec,
        opts: &SessionOptions,
        n_suggested: u64,
        n_refits: u64,
        model_state: Option<&ModelState>,
    ) -> io::Result<()> {
        let mut fields = vec![
            ("v".into(), Json::Int(1)),
            ("kind".into(), Json::Str("serve-session".into())),
            ("tenant".into(), Json::Str(tenant.into())),
            ("name".into(), Json::Str(spec.name.clone())),
            (
                "sig".into(),
                Json::Str(format!("{:016x}", Self::sig_of(spec))),
            ),
            ("spec".into(), spec.to_json()),
            ("opts".into(), opts.to_json()),
            ("n_suggested".into(), Json::from_u64(n_suggested)),
            ("n_refits".into(), Json::from_u64(n_refits)),
        ];
        if let Some(ms) = model_state {
            fields.push(("model_state".into(), model_state_to_json(ms)));
        }
        let j = Json::Obj(fields);
        let mut text = j.to_string();
        text.push('\n');
        atomic_write(&self.meta_path(tenant, &spec.name), text.as_bytes())
    }

    /// Appends report rows to the session's live journal (fsynced before
    /// return — the durability point of the report path).
    pub fn append_reports(
        &self,
        tenant: &str,
        spec: &ProblemSpec,
        opts: &SessionOptions,
        rows: &[(usize, Config, Vec<f64>)],
    ) -> io::Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let problem = Self::problem_key(tenant, &spec.name);
        let sig = Self::sig_of(spec);
        let mut entries = Vec::with_capacity(rows.len());
        for (task, config, outputs) in rows {
            let task_cfg = spec.tasks.get(*task).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("task {task} out of range for {problem:?}"),
                )
            })?;
            entries.push(DbEntry::Eval(DbRecord {
                problem: problem.clone(),
                sig,
                task: config_to_db(task_cfg),
                config: config_to_db(config),
                outputs: outputs.clone(),
                prov: Provenance {
                    seed: opts.seed,
                    run: "serve-archive".into(),
                    machine: None,
                },
            }));
        }
        let path = shard::live_journal_path(&self.root, &problem, sig);
        journal::append(&path, &entries, &LockOptions::default()).map(|_| ())
    }

    /// Loads a session by its table key components. `Ok(None)` when the
    /// store has never seen this session (or it was purged).
    pub fn load(&self, tenant: &str, name: &str) -> io::Result<Option<StoredSession>> {
        let meta_path = self.meta_path(tenant, name);
        let text = match std::fs::read_to_string(&meta_path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let bad = |msg: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("session meta {}: {msg}", meta_path.display()),
            )
        };
        let j = json::parse(&text).map_err(|e| bad(e.to_string()))?;
        let spec_json = j.get("spec").ok_or_else(|| bad("missing spec".into()))?;
        let spec = ProblemSpec::from_json(spec_json).map_err(bad)?;
        let opts = j
            .get("opts")
            .map(SessionOptions::from_json)
            .unwrap_or_default();
        let n_suggested = j.get("n_suggested").and_then(Json::as_u64).unwrap_or(0);
        let n_refits = j.get("n_refits").and_then(Json::as_u64).unwrap_or(0);
        // Absent or malformed state degrades to a lazy full refit.
        let model_state = j.get("model_state").and_then(model_state_from_json);

        // The journal — keyed by the *recomputed* signature, so a meta
        // file whose spec was hand-edited resolves to its own (empty)
        // journal instead of someone else's rows.
        let problem = Self::problem_key(tenant, name);
        let sig = Self::sig_of(&spec);
        let (entries, recovery) = shard::load_all(&self.root, &problem, sig)?;
        let mut history = Vec::new();
        for entry in entries {
            let DbEntry::Eval(rec) = entry else { continue };
            if rec.problem != problem || rec.sig != sig {
                continue;
            }
            let task_cfg: Config = db_to_config(&rec.task);
            // A row whose task vanished from the spec (it can't: the spec
            // is immutable per signature) is skipped, not fatal.
            let Some(task) = spec.tasks.iter().position(|t| *t == task_cfg) else {
                continue;
            };
            let config: Config = db_to_config(&rec.config);
            history.push((task, config, rec.outputs));
        }
        Ok(Some(StoredSession {
            spec,
            opts,
            n_suggested,
            n_refits,
            history,
            model_state,
            recovery,
        }))
    }

    /// Removes every trace of a session (meta, live journal and its lock
    /// file, manifest, shards). `Close` calls this so a re-open starts
    /// genuinely fresh.
    pub fn purge(&self, tenant: &str, name: &str) -> io::Result<()> {
        let Some(stored) = self.load(tenant, name)? else {
            return Ok(());
        };
        let problem = Self::problem_key(tenant, name);
        let sig = Self::sig_of(&stored.spec);
        let live = shard::live_journal_path(&self.root, &problem, sig);
        let mut doomed = vec![
            lock::lock_path_for(&live),
            live,
            shard::manifest_path(&self.root, &problem, sig),
            self.meta_path(tenant, name),
        ];
        if let Some(manifest) = gptune_db::ShardManifest::load(&self.root, &problem, sig)? {
            for info in &manifest.shards {
                doomed.push(self.root.join(&info.file));
            }
        }
        for path in doomed {
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gptune_space::Param;
    use gptune_space::Value;

    fn tmp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "gptune_serve_store_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn spec() -> ProblemSpec {
        ProblemSpec {
            name: "toy".into(),
            task_params: vec![Param::real("t", 0.0, 1.0)],
            tuning_params: vec![Param::real("x", 0.0, 1.0)],
            tasks: vec![vec![Value::Real(0.25)], vec![Value::Real(0.75)]],
            n_objectives: 1,
        }
    }

    fn opts() -> SessionOptions {
        SessionOptions {
            seed: 11,
            n_initial: Some(2),
        }
    }

    #[test]
    fn meta_and_journal_roundtrip() {
        let root = tmp_root("roundtrip");
        let store = SessionStore::new(&root).unwrap();
        let rows = vec![
            (0usize, vec![Value::Real(0.1)], vec![1.0]),
            (1usize, vec![Value::Real(0.9)], vec![2.0]),
            (0usize, vec![Value::Real(0.3)], vec![3.0]),
        ];
        store
            .save_meta("acme", &spec(), &opts(), 5, 2, None)
            .unwrap();
        store
            .append_reports("acme", &spec(), &opts(), &rows)
            .unwrap();
        let stored = store.load("acme", "toy").unwrap().expect("stored");
        assert_eq!(stored.spec, spec());
        assert_eq!(stored.opts, opts());
        assert_eq!(stored.n_suggested, 5);
        assert_eq!(stored.n_refits, 2);
        assert_eq!(stored.history, rows, "rows come back in append order");
        assert!(stored.recovery.is_clean());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Every float of a model state, as bits, in a fixed order.
    fn state_bits(ms: &ModelState) -> Vec<u64> {
        let hp = &ms.hyperparams;
        hp.lengthscales
            .iter()
            .chain(&hp.a)
            .chain(&hp.b)
            .flatten()
            .chain(&hp.d)
            .chain(&ms.y)
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn model_state_roundtrips_exactly_and_old_metas_load_without_it() {
        let root = tmp_root("modelstate");
        let store = SessionStore::new(&root).unwrap();
        // Awkward values on purpose: a counter beyond 2^53, subnormal,
        // signed-zero, huge and non-finite floats — the image must come
        // back bit-exact.
        let ms = ModelState {
            n_full: 7,
            updates_since_full: u64::MAX - 11,
            hyperparams: LcmHyperparams {
                q: 2,
                n_tasks: 2,
                dim: 3,
                lengthscales: vec![vec![0.1 + 0.2, 1e-6, 5e5], vec![5e-324, 1.0, 2.5]],
                a: vec![vec![-0.0, -1.5], vec![7.25, 1.0 / 3.0]],
                b: vec![vec![3.0e-300, 1e12], vec![0.0, 0.7]],
                d: vec![1e-4, 0.015625],
            },
            y: vec![0.1 + 0.2, -0.0, 42.0, f64::INFINITY],
        };
        store
            .save_meta("acme", &spec(), &opts(), 9, 4, Some(&ms))
            .unwrap();
        let stored = store.load("acme", "toy").unwrap().expect("stored");
        let back = stored.model_state.expect("model state saved");
        assert_eq!(back, ms);
        assert_eq!(
            state_bits(&back),
            state_bits(&ms),
            "floats survive the meta file bit-for-bit"
        );
        // A meta written without the field (an always-full schedule) loads
        // as `None`.
        store
            .save_meta("acme", &spec(), &opts(), 9, 4, None)
            .unwrap();
        let stored = store.load("acme", "toy").unwrap().expect("stored");
        assert!(stored.model_state.is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A meta file as written before the state was an image: its
    /// `model_state` holds the last full fit's seed and warm start instead
    /// of hyperparameters. Captured from a serving session of `spec()`
    /// after seven suggest/report rounds ([`OLD_META_ROWS`]).
    const OLD_META: &str = r#"{"v":1,"kind":"serve-session","tenant":"acme","name":"toy","sig":"fc0ae8f37101267a","spec":{"name":"toy","objectives":1,"task_space":[{"name":"t","kind":"real","low":0.0,"high":1.0,"log":false}],"tuning_space":[{"name":"x","kind":"real","low":0.0,"high":1.0,"log":false}],"tasks":[[{"r":0.25}],[{"r":0.75}]]},"opts":{"seed":"11","n_initial":"2"},"n_suggested":"7","n_refits":"3","model_state":{"n_full":"6","full_seed":"29198809314","updates_since_full":"0","warm":[0.2571805313601151,3.707682537563738,0.8849122298676481,-4.938826409211241,-6.971484351172716,13.815510554604392,-0.41190227361768017,0.44645832679817704,-7.162140808117689,-6.678515744404264,-7.053440104164142,-10.957730900046464],"y":[-1.7684853286444833,-0.6104319080450069,-7.043461657992279,-2.2370436093073693,-2.4079456086518722,-2.29179383809654]}}"#;

    /// The journal rows behind [`OLD_META`]: `(task, x, y)`.
    const OLD_META_ROWS: [(usize, f64, f64); 7] = [
        (0, 0.7130268548346943, 0.17059118281463964),
        (1, 0.9656697695818579, 0.5431162421351637),
        (0, 0.27045175208179917, 0.0008730989550354591),
        (1, 0.38230250911314073, 0.10677370300631862),
        (0, 0.0, 0.09),
        (1, 0.3329388683735398, 0.10108496904972938),
        (0, 0.3128981740080728, 0.00016636289274252487),
    ];

    #[test]
    fn a_pre_image_meta_loads_without_state_restores_and_serves() {
        let root = tmp_root("oldmeta");
        let store = SessionStore::new(&root).unwrap();
        std::fs::write(store.meta_path("acme", "toy"), format!("{OLD_META}\n")).unwrap();
        let rows: Vec<(usize, Config, Vec<f64>)> = OLD_META_ROWS
            .iter()
            .map(|&(t, x, y)| (t, vec![Value::Real(x)], vec![y]))
            .collect();
        store
            .append_reports("acme", &spec(), &opts(), &rows)
            .unwrap();
        let stored = store.load("acme", "toy").unwrap().expect("stored");
        assert!(stored.model_state.is_none(), "an old state has no image");
        assert_eq!((stored.n_suggested, stored.n_refits), (7, 3));
        assert_eq!(stored.history, rows);

        // A server on that archive restores the session and serves a
        // model-guided suggestion (refitting from scratch).
        let server = crate::server::serve(
            "127.0.0.1:0",
            crate::server::ServeOptions {
                workers: 1,
                archive: Some(root.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let mut c = crate::client::ServeClient::connect(server.local_addr()).unwrap();
        c.open_session("acme", &spec(), &opts()).unwrap();
        assert_eq!(c.history().unwrap().len(), 7);
        let cfg = c.suggest(1).unwrap();
        assert!(spec().to_problem().unwrap().tuning_space.is_valid(&cfg));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_session_loads_as_none() {
        let root = tmp_root("missing");
        let store = SessionStore::new(&root).unwrap();
        assert!(store.load("ghost", "toy").unwrap().is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tenants_are_isolated_on_disk() {
        let root = tmp_root("tenants");
        let store = SessionStore::new(&root).unwrap();
        for tenant in ["alpha", "beta"] {
            store
                .save_meta(tenant, &spec(), &opts(), 0, 0, None)
                .unwrap();
        }
        store
            .append_reports(
                "alpha",
                &spec(),
                &opts(),
                &[(0, vec![Value::Real(0.5)], vec![7.0])],
            )
            .unwrap();
        let a = store.load("alpha", "toy").unwrap().unwrap();
        let b = store.load("beta", "toy").unwrap().unwrap();
        assert_eq!(a.history.len(), 1);
        assert_eq!(b.history.len(), 0, "no cross-tenant leak");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn purge_removes_every_file() {
        let root = tmp_root("purge");
        let store = SessionStore::new(&root).unwrap();
        store.save_meta("t", &spec(), &opts(), 1, 0, None).unwrap();
        store
            .append_reports(
                "t",
                &spec(),
                &opts(),
                &[(0, vec![Value::Real(0.2)], vec![1.0])],
            )
            .unwrap();
        assert!(store.load("t", "toy").unwrap().is_some());
        store.purge("t", "toy").unwrap();
        assert!(store.load("t", "toy").unwrap().is_none());
        // The root holds no leftover session files.
        let leftovers: Vec<_> = std::fs::read_dir(&root).unwrap().collect();
        assert!(leftovers.is_empty(), "leftovers: {leftovers:?}");
        // Purging twice is fine.
        store.purge("t", "toy").unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn duplicate_journal_rows_collapse_on_load() {
        // At-least-once delivery can journal the same report twice (the
        // retry after a lost acknowledgement). Recovery must fold them.
        let root = tmp_root("dups");
        let store = SessionStore::new(&root).unwrap();
        store.save_meta("t", &spec(), &opts(), 2, 0, None).unwrap();
        let row = (0usize, vec![Value::Real(0.4)], vec![4.0]);
        store
            .append_reports("t", &spec(), &opts(), std::slice::from_ref(&row))
            .unwrap();
        store
            .append_reports("t", &spec(), &opts(), std::slice::from_ref(&row))
            .unwrap();
        let stored = store.load("t", "toy").unwrap().unwrap();
        assert_eq!(stored.history, vec![row]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_journal_tail_is_survivable_and_reported() {
        let root = tmp_root("torn");
        let store = SessionStore::new(&root).unwrap();
        store.save_meta("t", &spec(), &opts(), 1, 0, None).unwrap();
        store
            .append_reports(
                "t",
                &spec(),
                &opts(),
                &[(0, vec![Value::Real(0.6)], vec![6.0])],
            )
            .unwrap();
        // Simulate a crash mid-append: a torn half-line at the tail.
        let path = shard::live_journal_path(
            &root,
            &SessionStore::problem_key("t", "toy"),
            SessionStore::sig_of(&spec()),
        );
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"v\":1,\"kind\":\"eval\",\"proble");
        std::fs::write(&path, &bytes).unwrap();
        let stored = store.load("t", "toy").unwrap().unwrap();
        assert_eq!(stored.history.len(), 1, "intact row survives");
        assert!(stored.recovery.dropped_torn_tail);
        assert!(!stored.recovery.errors.is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }
}
