//! Boundary between the tuner and the `gptune-db` storage layer.
//!
//! `gptune-db` is deliberately dependency-free, so it defines its own value
//! and stats types rather than depending on `gptune-space` /
//! `gptune-runtime`. This module converts at the boundary — `Value ↔
//! DbValue`, `PhaseStats ↔ RunStats` — and builds the derived identities
//! the archive is keyed on: the *problem signature* (a stable hash of the
//! problem's structure), the *run fingerprint* that keys a run's
//! checkpoint, and the deterministic *run id*. It also holds the
//! load/store glue of the run lifecycle (`mla::Campaign`): warm-start
//! preloading, checkpoint construction, and end-of-run archiving.

use crate::history::History;
use crate::mla::{Campaign, EvalFailure, Evaluations};
use crate::options::MlaOptions;
use crate::problem::TuningProblem;
use gptune_db::json::Json;
use gptune_db::{
    fnv1a, Checkpoint, CheckpointKind, CkptFail, Db, DbEntry, DbRecord, DbValue, FailKind,
    FailRecord, Provenance, Query, RunStats, RunSummary,
};
use gptune_runtime::{FailureKind, PhaseStats};
use gptune_space::{Config, Param, ParamKind, Value};
use std::path::Path;
use std::time::Duration;

/// `gptune_space::Value` → storage value.
pub fn value_to_db(v: &Value) -> DbValue {
    match v {
        Value::Real(x) => DbValue::Real(*x),
        Value::Int(x) => DbValue::Int(*x),
        Value::Cat(i) => DbValue::Cat(*i),
    }
}

/// Storage value → `gptune_space::Value`.
pub fn db_to_value(v: &DbValue) -> Value {
    match v {
        DbValue::Real(x) => Value::Real(*x),
        DbValue::Int(x) => Value::Int(*x),
        DbValue::Cat(i) => Value::Cat(*i),
    }
}

/// Converts a configuration to its storage form.
pub fn config_to_db(c: &[Value]) -> Vec<DbValue> {
    c.iter().map(value_to_db).collect()
}

/// Converts a stored configuration back to space values.
pub fn db_to_config(c: &[DbValue]) -> Config {
    c.iter().map(db_to_value).collect()
}

/// One space value in wire form: `{"r":x}`, `{"i":n}`, or `{"c":k}`
/// (matching the `gptune-db` journal's value tags).
fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Real(x) => Json::Obj(vec![("r".into(), Json::from_f64(*x))]),
        Value::Int(x) => Json::Obj(vec![("i".into(), Json::Int(*x))]),
        Value::Cat(k) => Json::Obj(vec![("c".into(), Json::from_u64(*k as u64))]),
    }
}

/// Parses one wire-form space value.
fn value_from_json(j: &Json) -> Result<Value, String> {
    if let Some(x) = j.get("r").and_then(|v| v.as_f64()) {
        return Ok(Value::Real(x));
    }
    if let Some(x) = j.get("i").and_then(|v| v.as_i64()) {
        return Ok(Value::Int(x));
    }
    if let Some(x) = j.get("c").and_then(|v| v.as_u64()) {
        return Ok(Value::Cat(x as usize));
    }
    Err(format!("bad value: {j}"))
}

/// Serializes a configuration (array of wire values).
pub fn config_to_json(c: &[Value]) -> Json {
    Json::Arr(c.iter().map(value_to_json).collect())
}

/// Parses a configuration.
pub fn config_from_json(j: &Json) -> Result<Config, String> {
    j.as_arr()
        .ok_or("config is not an array")?
        .iter()
        .map(value_from_json)
        .collect()
}

/// Runtime failure classification → storage form.
pub fn failure_kind_to_db(k: FailureKind) -> FailKind {
    match k {
        FailureKind::Crashed => FailKind::Crashed,
        FailureKind::TimedOut => FailKind::TimedOut,
        FailureKind::Invalid => FailKind::Invalid,
        FailureKind::Transient => FailKind::Transient,
    }
}

/// Storage failure classification → runtime form.
pub fn db_to_failure_kind(k: FailKind) -> FailureKind {
    match k {
        FailKind::Crashed => FailureKind::Crashed,
        FailKind::TimedOut => FailureKind::TimedOut,
        FailKind::Invalid => FailureKind::Invalid,
        FailKind::Transient => FailureKind::Transient,
    }
}

/// Stable signature of a problem's *structure*: name, task space, tuning
/// space, and objective count — but **not** the selected tasks, so runs
/// over different task subsets of one problem share a journal (which is
/// what lets TLA transfer records across tasks). Two problems that share a
/// name but differ structurally get distinct journals.
pub fn problem_signature(problem: &TuningProblem) -> u64 {
    let mut text = String::new();
    text.push_str(&problem.name);
    text.push('\u{1f}');
    for p in problem.task_space.params() {
        push_param(&mut text, p);
    }
    text.push('\u{1f}');
    for p in problem.tuning_space.params() {
        push_param(&mut text, p);
    }
    text.push('\u{1f}');
    text.push_str(&problem.n_objectives.to_string());
    fnv1a(text.as_bytes())
}

/// Fingerprint of one run: FNV-1a over the canonical text of its loop
/// kind, seed, budget `ε_tot`, task list and TLA target (`None` for the
/// MLA loops). It keys the run's checkpoint, so a run adopts, overwrites
/// and clears only the checkpoint it wrote itself — never that of another
/// loop, task set or target sharing the problem signature and seed.
pub(crate) fn run_fingerprint(
    kind: CheckpointKind,
    opts: &MlaOptions,
    problem: &TuningProblem,
    target: Option<usize>,
) -> u64 {
    let mut text = format!(
        "{}\u{1f}{}\u{1f}{}\u{1f}",
        kind.as_str(),
        opts.seed,
        opts.eps_total
    );
    for task in &problem.tasks {
        text.push('|');
        for v in task {
            match v {
                Value::Real(x) => text.push_str(&format!("r{:x};", x.to_bits())),
                Value::Int(x) => text.push_str(&format!("i{x};")),
                Value::Cat(k) => text.push_str(&format!("c{k};")),
            }
        }
    }
    text.push('\u{1f}');
    if let Some(t) = target {
        text.push_str(&t.to_string());
    }
    fnv1a(text.as_bytes())
}

/// Canonical text form of one parameter for signature hashing. Hand-rolled
/// (not `Debug`) so the signature is stable across compiler versions.
fn push_param(out: &mut String, p: &Param) {
    out.push('|');
    out.push_str(&p.name);
    match &p.kind {
        ParamKind::Real { low, high, log } => {
            out.push_str(&format!(":r[{low};{high};{log}]"));
        }
        ParamKind::Int { low, high, log } => {
            out.push_str(&format!(":i[{low};{high};{log}]"));
        }
        ParamKind::Categorical { choices } => {
            out.push_str(&format!(":c[{}]", choices.join(";")));
        }
    }
}

/// `PhaseStats` → plain-number storage stats.
pub fn stats_to_db(s: &PhaseStats) -> RunStats {
    RunStats {
        objective_virtual_secs: s.objective_virtual_secs,
        objective_wall_secs: s.objective_wall.as_secs_f64(),
        modeling_wall_secs: s.modeling_wall.as_secs_f64(),
        search_wall_secs: s.search_wall.as_secs_f64(),
        n_evals: s.n_evals as u64,
        n_crashed: s.n_crashed as u64,
        n_timed_out: s.n_timed_out as u64,
        n_invalid: s.n_invalid as u64,
        n_transient: s.n_transient as u64,
        n_retries: s.n_retries as u64,
    }
}

/// Storage stats → `PhaseStats` (used when resuming from a checkpoint).
pub fn stats_from_db(s: &RunStats) -> PhaseStats {
    let secs = |x: f64| Duration::from_secs_f64(x.max(0.0));
    PhaseStats {
        objective_virtual_secs: s.objective_virtual_secs,
        objective_wall: secs(s.objective_wall_secs),
        modeling_wall: secs(s.modeling_wall_secs),
        search_wall: secs(s.search_wall_secs),
        n_evals: s.n_evals as usize,
        n_crashed: s.n_crashed as usize,
        n_timed_out: s.n_timed_out as usize,
        n_invalid: s.n_invalid as usize,
        n_transient: s.n_transient as usize,
        n_retries: s.n_retries as usize,
    }
}

/// Deterministic run identifier: the same options always produce the same
/// id, so an interrupted run and its resumption archive as *one* run (and
/// re-archiving after a replayed resume deduplicates on merge).
pub fn run_id(opts: &MlaOptions, delta: usize) -> String {
    format!("seed{}-eps{}-d{delta}", opts.seed, opts.eps_total)
}

/// Provenance stamped on every record this run archives.
pub fn provenance(opts: &MlaOptions, delta: usize) -> Provenance {
    Provenance {
        seed: opts.seed,
        run: run_id(opts, delta),
        machine: opts.machine_id.clone(),
    }
}

/// Opens the archive configured in the options, if any. An unopenable
/// archive is a configuration error and panics loudly — silently tuning
/// without durability would defeat the point of asking for it.
#[expect(
    clippy::panic,
    reason = "PANIC-SAFETY: deliberate fail-fast on a user configuration error; the run must not \
              proceed without the durability the user asked for"
)]
pub(crate) fn open_db(opts: &MlaOptions) -> Option<Db> {
    opts.db_path.as_ref().map(|p| {
        // Opening scans the journal and replays any interrupted write —
        // the recovery phase of the storage layer (gptune-db itself is
        // dependency-free, so its spans are emitted here at the bridge).
        let _span = gptune_trace::global().span("gptune.db.recover");
        Db::open(p).unwrap_or_else(|e| {
            panic!("gptune-db: cannot open archive at {}: {e}", p.display());
        })
    })
}

/// Builds a checkpoint of a campaign's in-flight state.
pub(crate) fn checkpoint_from_run(c: &Campaign<'_>) -> Checkpoint {
    Checkpoint {
        kind: c.kind,
        sig: c.sig,
        run: c.run,
        seed: c.opts.seed,
        eps_total: c.opts.eps_total,
        iteration: c.iteration,
        eps: c.eps,
        n_preloaded: c.n_preloaded,
        points: c
            .evals
            .points
            .iter()
            .map(|(t, cfg)| (*t, config_to_db(cfg)))
            .collect(),
        outputs: c.evals.outputs.clone(),
        stats: stats_to_db(&c.timer.snapshot()),
        fails: c
            .evals
            .failures
            .iter()
            .map(|f| CkptFail {
                index: f.index,
                kind: failure_kind_to_db(f.kind),
                attempts: f.attempts as u64,
                elapsed_secs: f.elapsed_secs,
            })
            .collect(),
    }
}

/// Builds and atomically persists a checkpoint of the in-flight state.
/// Failure panics: the user asked for durability; losing it is loud.
#[expect(
    clippy::panic,
    reason = "PANIC-SAFETY: losing the ability to checkpoint mid-run is fatal by design — \
              continuing would silently void the crash-resume guarantee"
)]
pub(crate) fn write_checkpoint(db: &Db, c: &Campaign<'_>) {
    let ckpt = checkpoint_from_run(c);
    let _span = gptune_trace::global()
        .span("gptune.db.checkpoint_save")
        .with("iteration", ckpt.iteration as u64)
        .with("points", ckpt.points.len());
    db.save_checkpoint(&ckpt)
        .unwrap_or_else(|e| panic!("gptune-db: cannot write checkpoint: {e}"));
}

/// Loads the checkpoint keyed by `(sig, run)`, spanning the read as
/// `gptune.db.checkpoint_load` (with the hit/miss outcome as a field).
pub(crate) fn load_checkpoint_traced(
    db: &Db,
    sig: u64,
    run: u64,
) -> std::io::Result<Option<Checkpoint>> {
    let mut span = gptune_trace::global().span("gptune.db.checkpoint_load");
    let r = db.load_checkpoint(sig, run);
    match &r {
        Ok(Some(c)) => {
            span.add("hit", true);
            span.add("iteration", c.iteration as u64);
            span.add("points", c.points.len());
        }
        _ => span.add("hit", false),
    }
    r
}

/// Rehydrates the evaluation archive from a checkpoint.
pub(crate) fn evals_from_checkpoint(ckpt: &Checkpoint) -> Evaluations {
    Evaluations {
        points: ckpt
            .points
            .iter()
            .map(|(t, c)| (*t, db_to_config(c)))
            .collect(),
        outputs: ckpt.outputs.clone(),
        failures: ckpt
            .fails
            .iter()
            .map(|f| EvalFailure {
                index: f.index,
                kind: db_to_failure_kind(f.kind),
                attempts: f.attempts as u32,
                elapsed_secs: f.elapsed_secs,
            })
            .collect(),
    }
}

/// A loaded checkpoint is usable only when it is sound for a problem of
/// `delta` tasks: task indices in range and one output row per point.
/// (Which run wrote it is settled by its key: signature and run
/// fingerprint name the file.)
pub(crate) fn checkpoint_matches(ckpt: &Checkpoint, delta: usize) -> bool {
    ckpt.points.iter().all(|(t, _)| *t < delta) && ckpt.points.len() == ckpt.outputs.len()
}

/// Archived evaluations of `problem` with its output arity, in journal
/// order.
fn archived_evals(db: &Db, problem: &TuningProblem, sig: u64) -> std::io::Result<Vec<DbRecord>> {
    let q = Query {
        n_outputs: Some(problem.n_objectives),
        ..Default::default()
    };
    db.query(&problem.name, sig, &q)
}

/// Archived evaluations matching this problem's tasks, as
/// `(task_idx, config, outputs)` triples ready to preload (the MLA warm
/// start). Records with foreign tasks, wrong arity, or infeasible
/// configurations are skipped.
pub(crate) fn preload_from_db(
    db: &Db,
    problem: &TuningProblem,
    sig: u64,
) -> std::io::Result<Vec<(usize, Config, Vec<f64>)>> {
    let mut out = Vec::new();
    for r in archived_evals(db, problem, sig)? {
        let task = db_to_config(&r.task);
        let Some(idx) = problem.tasks.iter().position(|t| t == &task) else {
            continue;
        };
        let cfg = db_to_config(&r.config);
        if cfg.len() == problem.beta() && problem.tuning_space.is_valid(&cfg) {
            out.push((idx, cfg, r.outputs));
        }
    }
    Ok(out)
}

/// Appends a campaign's own evaluations (skipping its preloaded archive
/// records), its classified failure records, and a run summary to the
/// problem's journal. Returns the number of entries written.
///
/// Failure records make the fault knowledge durable: a later run that
/// reads the archive loads them via [`known_failures`] and never
/// re-executes a configuration recorded as crashing.
pub(crate) fn archive_run(db: &Db, c: &Campaign<'_>) -> std::io::Result<usize> {
    let (problem, sig, evals) = (c.problem, c.sig, &c.evals);
    let prov = provenance(c.opts, problem.n_tasks());
    let mut entries: Vec<DbEntry> = Vec::with_capacity(c.n_fresh() + 1);
    for ((t, cfg), out) in c.fresh() {
        entries.push(DbEntry::Eval(DbRecord {
            problem: problem.name.clone(),
            sig,
            task: config_to_db(&problem.tasks[*t]),
            config: config_to_db(cfg),
            outputs: out.clone(),
            prov: prov.clone(),
        }));
    }
    for f in &evals.failures {
        if f.index < c.n_preloaded || f.index >= evals.points.len() {
            continue;
        }
        let (t, cfg) = &evals.points[f.index];
        entries.push(DbEntry::Fail(FailRecord {
            problem: problem.name.clone(),
            sig,
            task: config_to_db(&problem.tasks[*t]),
            config: config_to_db(cfg),
            kind: failure_kind_to_db(f.kind),
            attempts: f.attempts as u64,
            elapsed_secs: f.elapsed_secs,
            prov: prov.clone(),
        }));
    }
    entries.push(DbEntry::Run(RunSummary {
        problem: problem.name.clone(),
        sig,
        prov,
        stats: stats_to_db(&c.timer.snapshot()),
    }));
    let _span = gptune_trace::global()
        .span("gptune.db.append")
        .with("entries", entries.len());
    db.append(&entries)
}

/// Archived failure records matching this problem's tasks, as
/// `(task_idx, config, kind)` triples — the skip set the evaluation layer
/// consults before executing a configuration. Records with foreign tasks
/// or wrong config arity are ignored.
pub(crate) fn known_failures(
    db: &Db,
    problem: &TuningProblem,
    sig: u64,
) -> std::io::Result<Vec<(usize, Config, FailureKind)>> {
    let recs = db.failures(&problem.name, sig)?;
    let mut out: Vec<(usize, Config, FailureKind)> = Vec::new();
    for r in recs {
        let task = db_to_config(&r.task);
        let Some(idx) = problem.tasks.iter().position(|t| t == &task) else {
            continue;
        };
        let cfg = db_to_config(&r.config);
        if cfg.len() != problem.beta() {
            continue;
        }
        if !out.iter().any(|(t, c, _)| *t == idx && *c == cfg) {
            out.push((idx, cfg, db_to_failure_kind(r.kind)));
        }
    }
    Ok(out)
}

/// Loads every archived evaluation of `problem` from a `gptune-db` archive
/// into a core [`History`] — the bridge that feeds archived data to
/// [`crate::tla::transfer_tune`] and [`crate::tla::predict_transfer_config`].
pub fn history_from_db(db_path: &Path, problem: &TuningProblem) -> std::io::Result<History> {
    let db = Db::open(db_path)?;
    let mut h = History::new(&problem.name);
    for r in archived_evals(&db, problem, problem_signature(problem))? {
        h.push(db_to_config(&r.task), db_to_config(&r.config), r.outputs);
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gptune_space::{Param, Space};

    #[test]
    fn values_roundtrip_including_nonfinite() {
        for v in [
            Value::Real(0.25),
            Value::Real(f64::INFINITY),
            Value::Int(-3),
            Value::Cat(2),
        ] {
            let j = gptune_db::json::parse(&value_to_json(&v).to_string()).unwrap();
            assert_eq!(value_from_json(&j).unwrap(), v);
        }
    }

    fn toy(name: &str) -> TuningProblem {
        let ts = Space::builder().param(Param::real("t", 0.0, 10.0)).build();
        let ps = Space::builder()
            .param(Param::real("x", 0.0, 1.0))
            .param(Param::int("b", 1, 64))
            .build();
        TuningProblem::new(
            name,
            ts,
            ps,
            vec![vec![Value::Real(1.0)], vec![Value::Real(2.0)]],
            |_, x, _| vec![x[0].as_real()],
        )
    }

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("gptune_bridge_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn value_roundtrip() {
        for v in [Value::Real(0.25), Value::Int(-3), Value::Cat(2)] {
            assert_eq!(db_to_value(&value_to_db(&v)), v);
        }
    }

    #[test]
    fn signature_ignores_tasks_but_not_structure() {
        let a = toy("p");
        let mut b = toy("p");
        b.tasks = vec![vec![Value::Real(7.0)]];
        assert_eq!(problem_signature(&a), problem_signature(&b));

        let renamed = toy("q");
        assert_ne!(problem_signature(&a), problem_signature(&renamed));

        let wider = {
            let ts = Space::builder().param(Param::real("t", 0.0, 10.0)).build();
            let ps = Space::builder()
                .param(Param::real("x", 0.0, 2.0)) // different bound
                .param(Param::int("b", 1, 64))
                .build();
            TuningProblem::new("p", ts, ps, vec![vec![Value::Real(1.0)]], |_, x, _| {
                vec![x[0].as_real()]
            })
        };
        assert_ne!(problem_signature(&a), problem_signature(&wider));

        let mo = toy("p").with_objectives(2);
        assert_ne!(problem_signature(&a), problem_signature(&mo));
    }

    #[test]
    fn stats_roundtrip_through_db_form() {
        let s = PhaseStats {
            objective_virtual_secs: 12.5,
            objective_wall: Duration::from_millis(250),
            modeling_wall: Duration::from_millis(1500),
            search_wall: Duration::from_millis(750),
            n_evals: 14,
            n_crashed: 2,
            n_timed_out: 1,
            n_invalid: 3,
            n_transient: 4,
            n_retries: 9,
        };
        let back = stats_from_db(&stats_to_db(&s));
        assert_eq!(back.n_evals, 14);
        assert!((back.objective_virtual_secs - 12.5).abs() < 1e-12);
        assert!((back.modeling_wall.as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(back.n_crashed, 2);
        assert_eq!(back.n_timed_out, 1);
        assert_eq!(back.n_invalid, 3);
        assert_eq!(back.n_transient, 4);
        assert_eq!(back.n_retries, 9);
    }

    #[test]
    fn failure_kind_roundtrips_through_db_form() {
        for k in [
            FailureKind::Crashed,
            FailureKind::TimedOut,
            FailureKind::Invalid,
            FailureKind::Transient,
        ] {
            assert_eq!(db_to_failure_kind(failure_kind_to_db(k)), k);
        }
    }

    #[test]
    fn run_id_is_deterministic() {
        let o = MlaOptions::default().with_seed(9).with_budget(30);
        assert_eq!(run_id(&o, 2), run_id(&o, 2));
        assert_ne!(run_id(&o, 2), run_id(&o, 3));
        assert_eq!(run_id(&o, 2), "seed9-eps30-d2");
    }

    #[test]
    fn run_fingerprint_separates_runs() {
        let p = toy("p");
        let o = MlaOptions::default().with_seed(4).with_budget(10);
        let base = run_fingerprint(CheckpointKind::Mla, &o, &p, None);
        assert_eq!(base, run_fingerprint(CheckpointKind::Mla, &o, &p, None));
        let mut other_tasks = toy("p");
        other_tasks.tasks = vec![vec![Value::Real(8.0)], vec![Value::Real(9.0)]];
        let others = [
            run_fingerprint(CheckpointKind::MlaMo, &o, &p, None),
            run_fingerprint(CheckpointKind::Tla, &o, &p, Some(1)),
            run_fingerprint(CheckpointKind::Mla, &o.clone().with_seed(5), &p, None),
            run_fingerprint(CheckpointKind::Mla, &o.clone().with_budget(12), &p, None),
            run_fingerprint(CheckpointKind::Mla, &o, &other_tasks, None),
        ];
        for f in others {
            assert_ne!(f, base);
        }
        assert_ne!(
            run_fingerprint(CheckpointKind::Tla, &o, &p, Some(0)),
            run_fingerprint(CheckpointKind::Tla, &o, &p, Some(1)),
        );
    }

    #[test]
    fn checkpoint_evals_roundtrip() {
        let p = toy("ckpt");
        let o = MlaOptions::default().with_seed(4).with_budget(10);
        let mut c = Campaign::start(&p, &o, CheckpointKind::Mla, None);
        c.evals = Evaluations {
            points: vec![
                (0, vec![Value::Real(0.5), Value::Int(8)]),
                (1, vec![Value::Real(0.75), Value::Int(16)]),
            ],
            outputs: vec![vec![1.0], vec![2.0]],
            failures: vec![EvalFailure {
                index: 1,
                kind: FailureKind::TimedOut,
                attempts: 2,
                elapsed_secs: 0.4,
            }],
        };
        c.iteration = 3;
        c.eps = 7;
        let ckpt = checkpoint_from_run(&c);
        assert_eq!(ckpt.run, run_fingerprint(CheckpointKind::Mla, &o, &p, None));
        assert_eq!((ckpt.iteration, ckpt.eps, ckpt.eps_total), (3, 7, 10));
        assert!(checkpoint_matches(&ckpt, 2));
        assert!(!checkpoint_matches(&ckpt, 1), "task index out of range");
        let back = evals_from_checkpoint(&ckpt);
        assert_eq!(back.points, c.evals.points);
        assert_eq!(back.outputs, c.evals.outputs);
        assert_eq!(back.failures, c.evals.failures);
    }

    #[test]
    fn archive_then_preload_and_history() {
        let root = tmp_root("arch");
        let db = Db::open(&root).unwrap();
        let p = toy("arch");
        let sig = problem_signature(&p);
        let o = MlaOptions::default().with_seed(1).with_budget(2);
        let mut c = Campaign::start(&p, &o, CheckpointKind::Mla, None);
        c.evals = Evaluations {
            points: vec![
                (0, vec![Value::Real(0.5), Value::Int(8)]),
                (1, vec![Value::Real(0.25), Value::Int(4)]),
            ],
            outputs: vec![vec![1.5], vec![2.5]],
            failures: vec![],
        };
        let n = archive_run(&db, &c).unwrap();
        assert_eq!(n, 3, "2 evals + 1 run summary");

        let pre = preload_from_db(&db, &p, sig).unwrap();
        assert_eq!(pre.len(), 2);
        assert_eq!(pre[0].0, 0);
        assert_eq!(pre[1].2, vec![2.5]);

        let h = history_from_db(&root, &p).unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.best_for_task(&p.tasks[0]).unwrap().outputs[0], 1.5);

        // Preloaded records are excluded from a later archive pass.
        c.n_preloaded = 2;
        assert_eq!(archive_run(&db, &c).unwrap(), 1, "only the run summary");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn archive_persists_failures_and_known_failures_reloads_them() {
        let root = tmp_root("fails");
        let db = Db::open(&root).unwrap();
        let p = toy("fails");
        let sig = problem_signature(&p);
        let bad_cfg = vec![Value::Real(0.9), Value::Int(32)];
        let o = MlaOptions::default().with_seed(1).with_budget(2);
        let mut c = Campaign::start(&p, &o, CheckpointKind::Mla, None);
        c.evals = Evaluations {
            points: vec![
                (0, vec![Value::Real(0.5), Value::Int(8)]),
                (1, bad_cfg.clone()),
            ],
            outputs: vec![vec![1.5], vec![f64::INFINITY]],
            failures: vec![EvalFailure {
                index: 1,
                kind: FailureKind::Crashed,
                attempts: 1,
                elapsed_secs: 0.01,
            }],
        };
        let n = archive_run(&db, &c).unwrap();
        assert_eq!(n, 4, "2 evals + 1 fail + 1 run summary");

        let known = known_failures(&db, &p, sig).unwrap();
        assert_eq!(known.len(), 1);
        assert_eq!(known[0].0, 1);
        assert_eq!(known[0].1, bad_cfg);
        assert_eq!(known[0].2, FailureKind::Crashed);

        // Failures pointing at preloaded points are not re-archived.
        c.n_preloaded = 2;
        assert_eq!(archive_run(&db, &c).unwrap(), 1, "only the run summary");
        let _ = std::fs::remove_dir_all(&root);
    }
}
