//! Integration tests for the shared history database (`gptune-db`):
//! kill-and-resume determinism, checkpoints owned by the run that wrote
//! them, concurrent writers, warm starts, TLA from the archive, and
//! torn-journal recovery — the production properties the GPTune workflow
//! needs from its archive.

use gptune::core::{mla, mla_mo, runlog, transfer_tune, History, MlaOptions, TuningProblem};
use gptune::db::{Db, DbEntry, DbRecord, DbValue, Provenance, Query};
use gptune::space::{Config, Param, Space, Value};
use std::path::{Path, PathBuf};

fn tmp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gptune_it_db_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Smooth 1-D family: minimum at x = 0.2 + 0.06·t.
fn toy_problem(delta: usize) -> TuningProblem {
    let ts = Space::builder().param(Param::real("t", 0.0, 10.0)).build();
    let ps = Space::builder().param(Param::real("x", 0.0, 1.0)).build();
    let tasks: Vec<Config> = (0..delta).map(|i| vec![Value::Real(i as f64)]).collect();
    TuningProblem::new("it-db-toy", ts, ps, tasks, |t, x, _| {
        let opt = 0.2 + 0.06 * t[0].as_real();
        vec![1.0 + (x[0].as_real() - opt).powi(2)]
    })
}

fn toy_mo_problem() -> TuningProblem {
    let ts = Space::builder().param(Param::real("t", 0.0, 4.0)).build();
    let ps = Space::builder().param(Param::real("x", 0.0, 1.0)).build();
    TuningProblem::new(
        "it-db-toy-mo",
        ts,
        ps,
        vec![vec![Value::Real(0.0)]],
        |_, x, _| {
            let xv = x[0].as_real();
            vec![1.0 + (xv - 0.2).powi(2), 1.0 + (xv - 0.8).powi(2)]
        },
    )
    .with_objectives(2)
}

fn fast_opts(budget: usize) -> MlaOptions {
    let mut o = MlaOptions::default().with_budget(budget).with_seed(7);
    o.lcm.n_starts = 2;
    o.lcm.lbfgs.max_iters = 20;
    o.pso.particles = 16;
    o.pso.iters = 10;
    o.nsga.population = 16;
    o.nsga.generations = 8;
    o.log_objective = false;
    o
}

/// The tentpole property: a run killed mid-budget and resumed with the
/// same options converges to the IDENTICAL result (Popt, Oopt, full
/// trajectory) as the same-seed run that was never interrupted.
#[test]
fn interrupted_mla_resumes_to_identical_result() {
    let root = tmp_root("resume");
    let p = toy_problem(2);
    let budget = 10;

    // Ground truth: uninterrupted, no database involved at all.
    let full = mla::tune(&p, &fast_opts(budget));
    assert!(full.completed);

    // Interrupted: at most 2 MLA iterations per process, checkpoint every
    // iteration, resume until done — simulating repeated walltime kills.
    let mut o = fast_opts(budget).with_db(&root).checkpoint_every(1);
    o.stop_after_iterations = Some(2);
    let mut last = mla::tune(&p, &o);
    assert!(!last.completed, "budget too small to need a resume");
    let mut resumes = 0;
    while !last.completed {
        last = mla::tune(&p, &o);
        resumes += 1;
        assert!(resumes < 20, "resume loop did not converge");
    }
    assert!(resumes >= 1);

    assert_eq!(last.per_task.len(), full.per_task.len());
    for (a, b) in last.per_task.iter().zip(&full.per_task) {
        assert_eq!(a.best_config, b.best_config, "Popt differs after resume");
        assert_eq!(a.best_value, b.best_value, "Oopt differs after resume");
        assert_eq!(a.samples, b.samples, "trajectory differs after resume");
    }
    // Accumulated stats cover the whole run, not just the last process.
    assert_eq!(last.stats.n_evals, full.stats.n_evals);

    // Completion archived the run and cleared the checkpoint.
    assert!(checkpoint_files(&root).is_empty(), "checkpoint not cleared");
    let db = Db::open(&root).unwrap();
    let sig = gptune::core::problem_signature(&p);
    let archived = db.query(&p.name, sig, &Query::default()).unwrap();
    assert_eq!(archived.len(), budget * 2, "every eval archived once");
    let _ = std::fs::remove_dir_all(&root);
}

/// Same property for the multi-objective loop (Algorithm 2).
#[test]
fn interrupted_mla_mo_resumes_to_identical_result() {
    let root = tmp_root("resume_mo");
    let p = toy_mo_problem();
    let mut base = fast_opts(12);
    base.k_per_iter = 2;

    let full = mla_mo::tune_multiobjective(&p, &base);
    assert!(full.completed);

    let mut o = base.clone().with_db(&root).checkpoint_every(1);
    o.stop_after_iterations = Some(1);
    let mut last = mla_mo::tune_multiobjective(&p, &o);
    assert!(!last.completed);
    let mut resumes = 0;
    while !last.completed {
        last = mla_mo::tune_multiobjective(&p, &o);
        resumes += 1;
        assert!(resumes < 20, "resume loop did not converge");
    }

    for (a, b) in last.per_task.iter().zip(&full.per_task) {
        assert_eq!(a.samples, b.samples, "trajectory differs after resume");
        assert_eq!(
            a.pareto_front.len(),
            b.pareto_front.len(),
            "Pareto front differs after resume"
        );
        for (pa, pb) in a.pareto_front.iter().zip(&b.pareto_front) {
            assert_eq!(pa.config, pb.config);
            assert_eq!(pa.objectives, pb.objectives);
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Two threads appending to one shared archive: no record may be lost
/// (the advisory lock serializes appends).
#[test]
fn concurrent_writers_lose_no_records() {
    let root = tmp_root("concurrent");
    let per_thread = 40;
    let mut handles = Vec::new();
    for w in 0..2u64 {
        let root = root.clone();
        handles.push(std::thread::spawn(move || {
            let db = Db::open(&root).unwrap();
            for i in 0..per_thread {
                let rec = DbEntry::Eval(DbRecord {
                    problem: "shared".into(),
                    sig: 0xc0ffee,
                    task: vec![DbValue::Int(w as i64)],
                    config: vec![DbValue::Int(i)],
                    outputs: vec![(w as f64) + (i as f64) / 100.0],
                    prov: Provenance {
                        seed: w,
                        run: format!("writer{w}"),
                        machine: None,
                    },
                });
                db.append(&[rec]).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let db = Db::open(&root).unwrap();
    let (entries, report) = db.load("shared", 0xc0ffee).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(entries.len() as i64, 2 * per_thread, "records were lost");
    // All distinct: nothing overwrote anything.
    let keys: std::collections::HashSet<String> = entries.iter().map(|e| e.dedup_key()).collect();
    assert_eq!(keys.len() as i64, 2 * per_thread);
    let _ = std::fs::remove_dir_all(&root);
}

/// Warm starts preload archived evaluations as free observations: the new
/// run still performs its full own budget, and its reported samples are
/// its own evaluations only. Algorithms 1 and 2 run the same preload.
#[test]
fn warm_start_preloads_archive_without_counting_budget() {
    let budget = 6;
    // (samples of task 0, evaluations charged, completed) of one run.
    let run = |p: &TuningProblem, o: &MlaOptions| match p.n_objectives {
        1 => {
            let r = mla::tune(p, o);
            (r.per_task[0].samples.len(), r.stats.n_evals, r.completed)
        }
        _ => {
            let r = mla_mo::tune_multiobjective(p, o);
            (r.per_task[0].samples.len(), r.stats.n_evals, r.completed)
        }
    };
    for (tag, p) in [("warm", toy_problem(1)), ("warm_mo", toy_mo_problem())] {
        let root = tmp_root(tag);
        let mut o1 = fast_opts(budget).with_db(&root);
        // MLA-MO: 3 initial samples + one iteration of k = 3 (MLA ignores k).
        o1.k_per_iter = 3;
        // First run populates the archive.
        assert!(run(&p, &o1).2);

        // Second run, different seed, warm-started from the archive.
        let mut o2 = o1.clone().with_seed(99);
        o2.warm_start_from_db = true;
        let (n_samples, n_evals, completed) = run(&p, &o2);
        assert!(completed);
        assert_eq!(
            n_samples, budget,
            "{tag}: archived records must not count against the budget or leak into samples"
        );
        assert_eq!(n_evals, budget, "{tag}: preloaded evals cost nothing");

        // Both runs' fresh evals are archived.
        let db = Db::open(&root).unwrap();
        let sig = gptune::core::problem_signature(&p);
        assert_eq!(
            db.query(&p.name, sig, &Query::default()).unwrap().len(),
            2 * budget,
            "{tag}"
        );
        assert_eq!(db.run_summaries(&p.name, sig).unwrap().len(), 2, "{tag}");
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// The in-flight checkpoint files of an archive, sorted.
fn checkpoint_files(root: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("ckpt-"))
        .collect();
    names.sort();
    names
}

/// A checkpoint belongs to the run that wrote it. An MLA run over another
/// task set of the same problem, with the same seed and budget, must run
/// as if the archive held no checkpoint — not adopt the other run's.
#[test]
fn checkpoint_of_another_task_set_is_not_adopted() {
    let root = tmp_root("other_tasks");
    let mut o = fast_opts(10).with_db(&root).checkpoint_every(1);
    o.stop_after_iterations = Some(2);
    assert!(!mla::tune(&toy_problem(2), &o).completed);
    let preempted = checkpoint_files(&root);
    assert_eq!(preempted.len(), 1);

    let mut other = toy_problem(2);
    other.tasks = vec![vec![Value::Real(8.0)], vec![Value::Real(9.0)]];
    let clean = mla::tune(&other, &fast_opts(10));
    o.stop_after_iterations = None;
    let r = mla::tune(&other, &o);
    assert!(r.completed);
    for (a, b) in r.per_task.iter().zip(&clean.per_task) {
        assert_eq!(
            a.samples, b.samples,
            "adopted another task set's checkpoint"
        );
    }
    assert_eq!(
        checkpoint_files(&root),
        preempted,
        "the preempted run's stays"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Same for transfer tuning: a TLA run for one target must not adopt the
/// checkpoint of a preempted run for another target.
#[test]
fn tla_checkpoint_of_another_target_is_not_adopted() {
    let root = tmp_root("other_target");
    let p = toy_problem(3);
    let h = History::new(&p.name);
    let mut o = fast_opts(6).with_db(&root).checkpoint_every(1);
    o.stop_after_iterations = Some(1);
    let (partial, _) = transfer_tune(&p, &h, 1, &o);
    assert!(partial.samples.len() < 6);

    let (clean, _) = transfer_tune(&p, &h, 2, &fast_opts(6));
    o.stop_after_iterations = None;
    let (r, _) = transfer_tune(&p, &h, 2, &o);
    assert_eq!(
        r.samples, clean.samples,
        "adopted another target's checkpoint"
    );
    assert_eq!(checkpoint_files(&root).len(), 1, "target 1's stays");
    let _ = std::fs::remove_dir_all(&root);
}

/// A completed run clears only its own checkpoint: transfer tuning on the
/// archive of a preempted MLA run (same problem, same seed) leaves the MLA
/// checkpoint in place, and the MLA run then resumes from it.
#[test]
fn completed_run_keeps_other_runs_checkpoints() {
    let root = tmp_root("clobber");
    let p = toy_problem(2);
    let mut o = fast_opts(10).with_db(&root).checkpoint_every(1);
    o.stop_after_iterations = Some(2);
    assert!(!mla::tune(&p, &o).completed);
    let preempted = checkpoint_files(&root);
    assert_eq!(preempted.len(), 1);

    let tla_opts = fast_opts(4).with_db(&root).checkpoint_every(1);
    let (tr, _) = transfer_tune(&p, &History::new(&p.name), 1, &tla_opts);
    assert_eq!(tr.samples.len(), 4);
    assert_eq!(
        checkpoint_files(&root),
        preempted,
        "TLA cleared the MLA checkpoint"
    );

    o.stop_after_iterations = None;
    let resumed = mla::tune(&p, &o);
    assert_eq!(
        resumed.iterations[0].iteration, 2,
        "MLA restarted instead of resuming"
    );
    let full = mla::tune(&p, &fast_opts(10));
    for (a, b) in resumed.per_task.iter().zip(&full.per_task) {
        assert_eq!(a.samples, b.samples);
    }
    assert!(
        checkpoint_files(&root).is_empty(),
        "completion clears its own"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// TLA-2 fed straight from the archive: records of previously tuned tasks
/// transfer to a new task through the shared journal.
#[test]
fn transfer_tune_reads_archive() {
    let root = tmp_root("tla");
    // Tune two tasks and archive them.
    let sources = toy_problem(2);
    let r = mla::tune(&sources, &fast_opts(8).with_db(&root));
    assert!(r.completed);

    // A third task of the same problem family (same name + spaces → same
    // journal; the signature deliberately excludes the task list).
    let extended = toy_problem(3);
    let budget = 4;
    let (tr, stats) =
        gptune::core::transfer_tune_from_db(&extended, &root, 2, &fast_opts(budget)).unwrap();
    assert_eq!(tr.samples.len(), budget);
    assert_eq!(stats.n_evals, budget, "archived records are free");
    assert!(tr.best_value.is_finite());
    // With near-optimal sources one task away, 4 evals should land close
    // to the true optimum x* = 0.2 + 0.06·2 = 0.32.
    assert!(
        (tr.best_config[0].as_real() - 0.32).abs() < 0.2,
        "best x {}",
        tr.best_config[0].as_real()
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Crash tolerance end to end: a journal torn mid-append loses at most the
/// final partial record, and the archive keeps working.
#[test]
fn torn_journal_tail_recovers_all_but_last_record() {
    let root = tmp_root("torn");
    let p = toy_problem(1);
    let r = mla::tune(&p, &fast_opts(5).with_db(&root));
    assert!(r.completed);

    let db = Db::open(&root).unwrap();
    let sig = gptune::core::problem_signature(&p);
    let journal = db.journal_path(&p.name, sig);
    let (before, _) = db.load(&p.name, sig).unwrap();

    // Simulate a crash mid-append: chop the file inside its final line.
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 10]).unwrap();

    let (after, report) = db.load(&p.name, sig).unwrap();
    assert_eq!(after.len(), before.len() - 1, "lost more than the tail");
    assert!(report.dropped_torn_tail);
    assert_eq!(report.n_corrupt_interior, 0);
    assert_eq!(&before[..after.len()], &after[..], "prefix must survive");

    // The archive still accepts appends and compaction heals the tear.
    db.append(&[DbEntry::Eval(DbRecord {
        problem: p.name.clone(),
        sig,
        task: vec![DbValue::Real(0.0)],
        config: vec![DbValue::Real(0.5)],
        outputs: vec![1.0],
        prov: Provenance::default(),
    })])
    .unwrap();
    let (kept, _) = db.compact(&p.name, sig).unwrap();
    assert_eq!(kept, after.len() + 1);
    let (healed, report) = db.load(&p.name, sig).unwrap();
    assert!(report.is_clean());
    assert_eq!(healed.len(), kept);
    let _ = std::fs::remove_dir_all(&root);
}

/// The archived runlog view renders one stats line per archived run.
#[test]
fn archived_runlog_lists_every_run() {
    let root = tmp_root("runlog");
    let p = toy_problem(1);
    for seed in [1, 2] {
        let r = mla::tune(&p, &fast_opts(5).with_db(&root).with_seed(seed));
        assert!(r.completed);
    }
    let log = runlog::format_archived_runs(&p, &root).unwrap();
    assert_eq!(log.matches("stats:").count(), 2, "{log}");
    assert!(log.contains("seed1-eps5-d1"), "{log}");
    assert!(log.contains("seed2-eps5-d1"), "{log}");
    let _ = std::fs::remove_dir_all(&root);
}
