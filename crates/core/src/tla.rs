//! Transfer Learning Autotuning (TLA).
//!
//! The paper's goal 3 is to "support archiving and reusing tuning data from
//! multiple executions to allow tuning to improve over time"; the GPTune
//! Users Guide develops this into *TLA*: tuning a **new** task by reusing
//! archived samples of previously tuned tasks. Two mechanisms:
//!
//! * [`predict_transfer_config`] (TLA-1): zero new evaluations — predict a
//!   good configuration for the target task by inverse-distance-weighted
//!   regression of the source tasks' optima over the normalized task space;
//! * [`transfer_tune`] (TLA-2): run the MLA loop for the target task only,
//!   with the archived source samples folded into the joint LCM, so the
//!   multitask surrogate transfers the sources' structure to the target
//!   from the very first iteration.

use crate::history::History;
use crate::mla::{build_inputs, known_to_fail, search_task, Campaign, TaskResult};
use crate::options::MlaOptions;
use crate::problem::TuningProblem;
use gptune_db::CheckpointKind;
use gptune_gp::{IncrementalLcm, LcmFitOptions};
use gptune_la::par;
use gptune_rng::{SeedableRng, StdRng};
use gptune_runtime::Phase;
use gptune_space::{sampling, Config};
use std::path::Path;

/// Seed-space tag separating TLA randomness from the MLA streams.
const TLA_SEED_TAG: u64 = 0x7177_11aa;

/// TLA-1: predicts a configuration for `target_idx` from the best archived
/// configuration of every *other* task, weighted by inverse squared
/// distance in the normalized task space. Returns `None` when no source
/// task has a finite best.
pub fn predict_transfer_config(
    problem: &TuningProblem,
    history: &History,
    target_idx: usize,
) -> Option<Config> {
    let target_u = problem.normalize_task(target_idx);
    let mut weights: Vec<f64> = Vec::new();
    let mut configs: Vec<Vec<f64>> = Vec::new();
    for (i, task) in problem.tasks.iter().enumerate() {
        if i == target_idx {
            continue;
        }
        let Some(best) = history.best_for_task(task) else {
            continue;
        };
        let u = problem.task_space.normalize(task);
        let d2: f64 = u
            .iter()
            .zip(&target_u)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        weights.push(1.0 / (d2 + 1e-6));
        configs.push(problem.tuning_space.normalize(&best.config));
    }
    if configs.is_empty() {
        return None;
    }
    let total: f64 = weights.iter().sum();
    let beta = problem.beta();
    let mut blended = vec![0.0; beta];
    for (w, c) in weights.iter().zip(&configs) {
        for d in 0..beta {
            blended[d] += w / total * c[d];
        }
    }
    let cfg = problem.tuning_space.denormalize(&blended);
    if problem.tuning_space.is_valid(&cfg) {
        Some(cfg)
    } else {
        // Fall back to the nearest source's best configuration verbatim.
        let nearest = weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))?
            .0;
        let cfg = problem.tuning_space.denormalize(&configs[nearest]);
        problem.tuning_space.is_valid(&cfg).then_some(cfg)
    }
}

/// TLA-2 fed directly from a `gptune-db` archive: loads every archived
/// evaluation of `problem` (its journal is shared across tasks precisely
/// so transfer learning can reuse other tasks' records) and runs
/// [`transfer_tune`] on `target_idx`.
pub fn transfer_tune_from_db(
    problem: &TuningProblem,
    db_path: &Path,
    target_idx: usize,
    opts: &MlaOptions,
) -> std::io::Result<(TaskResult, gptune_runtime::PhaseStats)> {
    let history = crate::db_bridge::history_from_db(db_path, problem)?;
    Ok(transfer_tune(problem, &history, target_idx, opts))
}

/// TLA-2: tunes only `target_idx`, with every matching archived record of
/// `history` preloaded into the joint LCM. The `opts.eps_total` budget
/// counts *fresh* evaluations of the target task; archived data is free.
///
/// The search phase routes through the same `search_task` acquisition
/// machinery as MLA, so PSO candidate scoring here also runs through the
/// batched [`gptune_gp::LcmModel::predict_batch`] posterior path — archived
/// histories make `n` large, which is exactly where the blocked multi-RHS
/// solve pays off.
///
/// Returns the target's [`TaskResult`] (samples are the fresh evaluations)
/// plus the phase statistics of the run.
///
/// # Checkpoint/resume
/// With [`MlaOptions::with_db`] and [`MlaOptions::checkpoint_every`] > 0
/// the run follows the same checkpoint lifecycle as [`crate::mla::tune`] —
/// both run the crate's one campaign lifecycle. The initial design
/// checkpoints immediately, the in-flight state is persisted every
/// `checkpoint_every` iterations (kind [`CheckpointKind::Tla`], keyed by
/// the run fingerprint, which includes the target task), a run preempted
/// by [`MlaOptions::stop_after_iterations`] writes a final checkpoint, and
/// a completed run archives its fresh evaluations and clears its
/// checkpoint. All post-sampling randomness derives from
/// `(seed, iteration)`, so a resumed run converges to the identical result
/// an uninterrupted run would have produced.
pub fn transfer_tune(
    problem: &TuningProblem,
    history: &History,
    target_idx: usize,
    opts: &MlaOptions,
) -> (TaskResult, gptune_runtime::PhaseStats) {
    assert_eq!(problem.n_objectives, 1, "TLA is single-objective");
    assert!(target_idx < problem.n_tasks());
    let delta = problem.n_tasks();
    let mut c = Campaign::start(problem, opts, CheckpointKind::Tla, Some(target_idx));
    if !c.resumed {
        // Preload archived records whose task exactly matches a problem
        // task: free observations for the surrogate.
        c.preload(history.records.iter().filter_map(|record| {
            let idx = problem.tasks.iter().position(|t| t == &record.task)?;
            problem
                .tuning_space
                .is_valid(&record.config)
                .then(|| (idx, record.config.clone(), record.outputs.clone()))
        }));

        // Initial fresh samples on the target: the TLA-1 prediction first,
        // then an LHS design.
        let mut rng = StdRng::seed_from_u64(opts.seed ^ TLA_SEED_TAG);
        let n_init = opts.initial_samples().min(opts.eps_total);
        let mut batch: Vec<(usize, Config)> = Vec::new();
        if let Some(cfg) = predict_transfer_config(problem, history, target_idx) {
            if !c.evals.contains(target_idx, &cfg) {
                batch.push((target_idx, cfg));
            }
        }
        let design =
            sampling::sample_space_where(&problem.tuning_space, n_init, &mut rng, 200, |cfg| {
                !known_to_fail(&c.known_failed, target_idx, cfg)
            });
        for cfg in design {
            if batch.len() >= n_init {
                break;
            }
            if !c.evals.contains(target_idx, &cfg) && !batch.iter().any(|(_, b)| b == &cfg) {
                batch.push((target_idx, cfg));
            }
        }
        c.evaluate(batch);
        // ε counts the target's fresh evaluations.
        c.end_sampling(c.n_fresh());
    }

    // MLA iterations on the target only.
    // Persistent surrogate; see [`MlaOptions::refit`].
    let mut surrogate = IncrementalLcm::new(opts.refit);
    while c.next_iteration() {
        let iteration = c.iteration;
        let iter_span = c
            .timer
            .tracer()
            .span("gptune.core.tla.iteration")
            .with("iteration", iteration as u64)
            .with("target", target_idx as u64);
        // Post-sampling randomness is derived from (seed, iteration) so a
        // resumed run replays the identical stream.
        let mut rng = StdRng::seed_from_u64(
            (opts.seed ^ TLA_SEED_TAG)
                .wrapping_add(0x5bd1e995)
                .wrapping_mul(iteration as u64 + 1)
                .wrapping_add(target_idx as u64 * 104_729),
        );
        let (inputs, y) = build_inputs(problem, &c.evals, 0, opts);
        let lcm_opts = LcmFitOptions {
            seed: opts.lcm.seed.wrapping_add(iteration as u64 * 104_729),
            ..opts.lcm.clone()
        };
        let (_, modeling_wall) = c.timer.time_iter(Phase::Modeling, iteration as u64, || {
            par::with_width(opts.model_workers, || {
                surrogate.update(&inputs.xs, &inputs.task_of, &y, delta, &lcm_opts)
            })
        });
        #[expect(
            clippy::expect_used,
            reason = "PANIC-SAFETY: update always leaves a fitted model in place"
        )]
        let model = surrogate.model().expect("surrogate updated this iteration");

        let y_best_model = c.evals.model_incumbent(target_idx, 0, opts.log_objective);
        let (cfg, search_wall) = c.timer.time_iter(Phase::Search, iteration as u64, || {
            search_task(
                problem,
                model,
                &inputs,
                &c.evals,
                target_idx,
                y_best_model,
                opts,
                &c.known_failed,
                &mut rng,
            )
        });
        c.evaluate(vec![(target_idx, cfg)]);
        c.end_iteration(iter_span, 1, modeling_wall, search_wall);
    }
    c.finish();

    // This run's fresh evaluations, all on the target.
    let samples: Vec<(Config, f64)> = c
        .fresh()
        .map(|((_, cfg), o)| (cfg.clone(), o.first().copied().unwrap_or(f64::INFINITY)))
        .collect();
    let (best_config, best_value) = samples
        .iter()
        .filter(|(_, y)| y.is_finite())
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(cfg, y)| (cfg.clone(), *y))
        .unwrap_or_else(|| {
            samples
                .first()
                .map(|(cfg, _)| (cfg.clone(), f64::INFINITY))
                .unwrap_or_else(|| {
                    let mid = vec![0.5; problem.beta()];
                    (problem.tuning_space.denormalize(&mid), f64::INFINITY)
                })
        });

    (
        TaskResult {
            task: problem.tasks[target_idx].clone(),
            best_config,
            best_value,
            samples,
        },
        c.timer.snapshot(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gptune_space::{Param, Space, Value};

    /// Family with optimum drifting linearly in t: x* = 0.2 + 0.05 t.
    fn family(delta: usize) -> TuningProblem {
        let ts = Space::builder().param(Param::real("t", 0.0, 10.0)).build();
        let ps = Space::builder().param(Param::real("x", 0.0, 1.0)).build();
        let tasks: Vec<Config> = (0..delta).map(|i| vec![Value::Real(i as f64)]).collect();
        TuningProblem::new("family", ts, ps, tasks, |t, x, _| {
            vec![1.0 + (x[0].as_real() - 0.2 - 0.05 * t[0].as_real()).powi(2)]
        })
    }

    fn seeded_history(problem: &TuningProblem, skip: usize) -> History {
        // Archive near-optimal samples for every task except `skip`.
        let mut h = History::new(&problem.name);
        for (i, task) in problem.tasks.iter().enumerate() {
            if i == skip {
                continue;
            }
            let t = task[0].as_real();
            for dx in [-0.05, 0.0, 0.08, 0.3] {
                let x = (0.2 + 0.05 * t + dx).clamp(0.0, 1.0);
                let y = problem.evaluate(i, &[Value::Real(x)], 0)[0];
                h.push(task.clone(), vec![Value::Real(x)], vec![y]);
            }
        }
        h
    }

    fn fast_opts(budget: usize) -> MlaOptions {
        let mut o = MlaOptions::default().with_budget(budget).with_seed(3);
        o.lcm.n_starts = 2;
        o.lcm.lbfgs.max_iters = 20;
        o.pso.particles = 20;
        o.pso.iters = 15;
        o.log_objective = false;
        o
    }

    #[test]
    fn tla1_interpolates_source_optima() {
        let p = family(5);
        let h = seeded_history(&p, 2);
        let cfg = predict_transfer_config(&p, &h, 2).unwrap();
        // Target t=2 → optimum x*=0.30; blended prediction should be close.
        let x = cfg[0].as_real();
        assert!((x - 0.30).abs() < 0.08, "predicted {x}");
    }

    #[test]
    fn tla1_none_without_sources() {
        let p = family(3);
        let h = History::new("family");
        assert!(predict_transfer_config(&p, &h, 1).is_none());
    }

    #[test]
    fn tla2_beats_cold_start_at_tiny_budget() {
        let p = family(5);
        let h = seeded_history(&p, 2);
        let budget = 4;
        let (with_history, _) = transfer_tune(&p, &h, 2, &fast_opts(budget));
        let (cold, _) = transfer_tune(&p, &History::new("family"), 2, &fast_opts(budget));
        assert_eq!(with_history.samples.len(), budget);
        assert!(
            with_history.best_value <= cold.best_value + 1e-9,
            "transfer {} vs cold {}",
            with_history.best_value,
            cold.best_value
        );
        // Near the true optimum 0.30 with only 4 evaluations.
        assert!(
            (with_history.best_config[0].as_real() - 0.30).abs() < 0.08,
            "best x {}",
            with_history.best_config[0].as_real()
        );
    }

    #[test]
    fn tla2_budget_counts_fresh_only() {
        let p = family(4);
        let h = seeded_history(&p, 3);
        let (r, stats) = transfer_tune(&p, &h, 3, &fast_opts(6));
        assert_eq!(r.samples.len(), 6);
        assert_eq!(stats.n_evals, 6);
    }

    #[test]
    fn tla2_model_workers_are_bit_identical_to_sequential() {
        let p = family(4);
        let h = seeded_history(&p, 1);
        let run = |workers: usize| {
            let mut o = fast_opts(5);
            o.model_workers = workers;
            let (r, _) = transfer_tune(&p, &h, 1, &o);
            r.samples
                .iter()
                .map(|(c, y)| (c.clone(), y.to_bits()))
                .collect::<Vec<_>>()
        };
        let seq = run(1);
        assert_eq!(seq.len(), 5);
        assert_eq!(
            seq,
            run(2),
            "history diverged between 1 and 2 model workers"
        );
    }

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("gptune_tla_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn tla2_checkpoint_resume_matches_uninterrupted() {
        let p = family(5);
        let h = seeded_history(&p, 2);
        let budget = 5;
        let root_full = tmp_root("full");
        let root_split = tmp_root("split");

        // Uninterrupted reference run.
        let full_opts = fast_opts(budget).with_db(&root_full).checkpoint_every(1);
        let (full, _) = transfer_tune(&p, &h, 2, &full_opts);
        assert_eq!(full.samples.len(), budget);

        // Same run, preempted after one iteration then resumed.
        let mut first = fast_opts(budget).with_db(&root_split).checkpoint_every(1);
        first.stop_after_iterations = Some(1);
        let (partial, _) = transfer_tune(&p, &h, 2, &first);
        assert!(partial.samples.len() < budget, "preempted early");

        let resume_opts = fast_opts(budget).with_db(&root_split).checkpoint_every(1);
        let (resumed, _) = transfer_tune(&p, &h, 2, &resume_opts);
        assert_eq!(resumed.samples.len(), budget);
        assert_eq!(
            resumed.samples, full.samples,
            "resumed run must replay the identical trajectory"
        );
        assert_eq!(resumed.best_config, full.best_config);

        // The completed resume archived the run and cleared its checkpoint.
        let ckpts = std::fs::read_dir(&root_split)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().starts_with("ckpt-")
            })
            .count();
        assert_eq!(ckpts, 0, "checkpoint not cleared");
        let db = gptune_db::Db::open(&root_split).unwrap();
        let sig = crate::db_bridge::problem_signature(&p);
        let recs = db
            .query(&p.name, sig, &gptune_db::Query::default())
            .unwrap();
        assert_eq!(recs.len(), budget, "exactly the fresh evaluations");
        let _ = std::fs::remove_dir_all(&root_full);
        let _ = std::fs::remove_dir_all(&root_split);
    }

    #[test]
    fn tla2_preemption_writes_tla_kind_checkpoint() {
        let p = family(4);
        let h = seeded_history(&p, 1);
        let root = tmp_root("kind");
        let mut o = fast_opts(6).with_db(&root).checkpoint_every(1);
        o.stop_after_iterations = Some(0);
        let (r, _) = transfer_tune(&p, &h, 1, &o);
        // Only the initial design ran.
        assert_eq!(r.samples.len(), o.initial_samples().min(6));
        let db = gptune_db::Db::open(&root).unwrap();
        let sig = crate::db_bridge::problem_signature(&p);
        let run = crate::db_bridge::run_fingerprint(CheckpointKind::Tla, &o, &p, Some(1));
        let ckpt = db.load_checkpoint(sig, run).unwrap().unwrap();
        assert_eq!(ckpt.kind, CheckpointKind::Tla);
        assert_eq!(ckpt.n_preloaded, h.len());
        // Resumed to completion, the run clears its own checkpoint.
        o.stop_after_iterations = None;
        let (done, _) = transfer_tune(&p, &h, 1, &o);
        assert_eq!(done.samples.len(), 6);
        assert!(db.load_checkpoint(sig, run).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tla2_skips_invalid_archived_records() {
        let p = family(3);
        let mut h = seeded_history(&p, 1);
        // Poison with an out-of-domain record; it must be ignored.
        h.push(
            p.tasks[0].clone(),
            vec![Value::Real(7.0)], // outside [0,1]
            vec![0.0],
        );
        let (r, _) = transfer_tune(&p, &h, 1, &fast_opts(4));
        assert!(r.best_value.is_finite());
    }
}
