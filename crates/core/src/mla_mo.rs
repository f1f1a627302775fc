//! Algorithm 2: multi-objective multitask MLA.
//!
//! Per paper Sec. 3.2: the modeling phase builds **one LCM per objective**
//! `y^s(t, x)`, and the search phase runs NSGA-II on the vector of
//! per-objective Expected Improvements, evaluating `k` new configurations
//! per iteration. The result per task is the Pareto front of the
//! *observed* samples (the black dots of Fig. 7).

use crate::mla::{
    build_inputs, known_to_fail, sampling_phase, search_tasks, Campaign, IterationStat,
};
use crate::options::MlaOptions;
use crate::problem::TuningProblem;
use gptune_db::CheckpointKind;
use gptune_gp::gp::expected_improvement;
use gptune_gp::{IncrementalLcm, LcmFitOptions, LcmModel};
use gptune_la::par;
use gptune_opt::nsga2::{self, pareto_front_indices};
use gptune_rng::{SeedableRng, StdRng};
use gptune_runtime::Phase;
use gptune_space::{sampling, Config};

/// One point of a task's observed Pareto front.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// The configuration.
    pub config: Config,
    /// Its `γ` objective values.
    pub objectives: Vec<f64>,
}

/// Multi-objective result for one task.
#[derive(Debug, Clone)]
pub struct MoTaskResult {
    /// The task parameters.
    pub task: Config,
    /// Non-dominated subset of the evaluated samples.
    pub pareto_front: Vec<ParetoPoint>,
    /// All evaluated `(config, objectives)` in evaluation order.
    pub samples: Vec<(Config, Vec<f64>)>,
}

/// Result of a multi-objective MLA run.
#[derive(Debug, Clone)]
pub struct MoMlaResult {
    /// Per-task outcomes, aligned with `problem.tasks`.
    pub per_task: Vec<MoTaskResult>,
    /// Phase-time breakdown.
    pub stats: gptune_runtime::PhaseStats,
    /// Per-iteration phase breakdown for the iterations run by this
    /// process (the `incumbent` column tracks the first objective).
    pub iterations: Vec<IterationStat>,
    /// `false` when the run was preempted by
    /// [`MlaOptions::stop_after_iterations`] before exhausting `ε_tot`
    /// (a checkpoint holds the in-flight state; rerunning with the same
    /// options resumes it).
    pub completed: bool,
}

/// Runs multi-objective multitask MLA (Algorithm 2).
///
/// Shares the run lifecycle (`mla::Campaign`) of [`crate::mla::tune`]:
/// with [`MlaOptions::with_db`] completed runs archive their evaluations,
/// warm starts preload matching archived records, and with
/// [`MlaOptions::checkpoint_every`] an interrupted run resumes to the
/// identical result an uninterrupted run would have produced.
pub fn tune_multiobjective(problem: &TuningProblem, opts: &MlaOptions) -> MoMlaResult {
    let gamma = problem.n_objectives;
    assert!(gamma >= 2, "use mla::tune for single-objective problems");
    let delta = problem.n_tasks();
    let k = opts.k_per_iter.max(1);
    let mut c = Campaign::start(problem, opts, CheckpointKind::MlaMo, None);
    if !c.resumed {
        sampling_phase(&mut c);
    }

    // One persistent surrogate per objective: an incremental `opts.refit`
    // schedule extends each factor in O(n²) between full refits.
    let mut surrogates: Vec<IncrementalLcm> = (0..gamma)
        .map(|_| IncrementalLcm::new(opts.refit))
        .collect();
    while c.next_iteration() {
        let iteration = c.iteration;
        let iter_span = c
            .timer
            .tracer()
            .span("gptune.core.mla_mo.iteration")
            .with("iteration", iteration as u64)
            .with("eps", c.eps as u64);
        // Modeling phase: one LCM per objective (paper line 3 of Alg. 2).
        let per_objective: Vec<_> = (0..gamma)
            .map(|s| build_inputs(problem, &c.evals, s, opts))
            .collect();
        let ((), modeling_wall) = c.timer.time_iter(Phase::Modeling, iteration as u64, || {
            par::with_width(opts.model_workers, || {
                for (s, (inputs, y)) in per_objective.iter().enumerate() {
                    let lcm_opts = LcmFitOptions {
                        seed: opts
                            .lcm
                            .seed
                            .wrapping_add(iteration as u64 * 7919)
                            .wrapping_add(s as u64 * 65537),
                        ..opts.lcm.clone()
                    };
                    surrogates[s].update(&inputs.xs, &inputs.task_of, y, delta, &lcm_opts);
                }
            })
        });
        #[expect(
            clippy::expect_used,
            reason = "PANIC-SAFETY: every surrogate was updated just above"
        )]
        let models: Vec<&LcmModel> = surrogates
            .iter()
            .map(|s| s.model().expect("surrogate updated this iteration"))
            .collect();

        // Search phase: NSGA-II over the vector of −EI_s per task.
        let (new_points, search_wall) = c.timer.time_iter(Phase::Search, iteration as u64, || {
            let seeds: Vec<u64> = (0..delta)
                .map(|i| {
                    opts.seed
                        .wrapping_add(0xabcd_ef12)
                        .wrapping_mul(iteration as u64 + 3)
                        .wrapping_add(i as u64 * 7561)
                })
                .collect();
            let evals = &c.evals;
            let search_one = |task_idx: usize| {
                let mut trng = StdRng::seed_from_u64(seeds[task_idx]);
                // Per-objective incumbents (model scale).
                let y_best: Vec<f64> = (0..gamma)
                    .map(|s| evals.model_incumbent(task_idx, s, opts.log_objective))
                    .collect();

                let beta = problem.beta();
                // Batched vector acquisition: each NSGA-II generation is
                // scored through one blocked multi-RHS posterior solve per
                // objective ([`LcmModel::predict_batch`]) instead of a
                // triangular solve per individual per objective.
                let mut acq = |us: &[Vec<f64>]| -> Vec<Vec<f64>> {
                    let mut out = vec![vec![0.0; gamma]; us.len()];
                    let mut live: Vec<usize> = Vec::with_capacity(us.len());
                    let mut configs: Vec<Config> = Vec::with_capacity(us.len());
                    for (i, u) in us.iter().enumerate() {
                        let config = problem.tuning_space.denormalize(u);
                        if problem.tuning_space.is_valid(&config)
                            && !known_to_fail(&c.known_failed, task_idx, &config)
                        {
                            live.push(i);
                            configs.push(config);
                        }
                    }
                    for s in 0..gamma {
                        let (inputs, _) = &per_objective[s];
                        let xs_model: Vec<Vec<f64>> = live
                            .iter()
                            .zip(&configs)
                            .map(|(&i, config)| match &inputs.enrich {
                                Some(e) => {
                                    let mut v = us[i].clone();
                                    v.extend(e.features(problem, task_idx, config));
                                    v
                                }
                                None => us[i].clone(),
                            })
                            .collect();
                        let preds = models[s].predict_batch(task_idx, &xs_model);
                        for (&i, pred) in live.iter().zip(&preds) {
                            out[i][s] = -expected_improvement(pred, y_best[s]);
                        }
                    }
                    out
                };

                // Seed NSGA-II with the observed Pareto points.
                let observed: Vec<Vec<f64>> = evals
                    .points
                    .iter()
                    .filter(|(t, _)| *t == task_idx)
                    .map(|(_, cfg)| problem.tuning_space.normalize(cfg))
                    .collect();

                let front =
                    nsga2::minimize_batch(&mut acq, beta, gamma, &observed, &opts.nsga, &mut trng);

                // Pick up to k distinct, feasible, non-duplicate
                // configurations from the front.
                let mut picked: Vec<(usize, Config)> = Vec::new();
                for sol in front {
                    if picked.len() >= k {
                        break;
                    }
                    let cfg = problem.tuning_space.denormalize(&sol.x);
                    if problem.tuning_space.is_valid(&cfg)
                        && !evals.contains(task_idx, &cfg)
                        && !picked.iter().any(|(_, pc)| pc == &cfg)
                    {
                        picked.push((task_idx, cfg));
                    }
                }
                // Top up with random feasible samples if the front was too
                // small or collapsed onto known points. The draws are
                // bounded, so a task whose feasible configurations are all
                // evaluated proposes fewer than `k`.
                for _ in 0..100 {
                    if picked.len() >= k {
                        break;
                    }
                    let fresh = sampling::sample_space(&problem.tuning_space, 1, &mut trng, 300);
                    match fresh.into_iter().next() {
                        Some(cfg)
                            if !evals.contains(task_idx, &cfg)
                                && !picked.iter().any(|(_, pc)| pc == &cfg) =>
                        {
                            picked.push((task_idx, cfg));
                        }
                        Some(_) => {}
                        None => break,
                    }
                }
                picked
            };
            search_tasks(delta, opts, search_one)
                .into_iter()
                .flatten()
                .collect::<Vec<_>>()
        });

        c.evaluate(new_points);
        c.end_iteration(iter_span, k, modeling_wall, search_wall);
    }
    c.finish();

    // --- Finalize: observed Pareto front per task over this run's own
    // evaluations (preloaded records are excluded exactly as in
    // `mla::tune`) ---
    let per_task = (0..delta)
        .map(|task_idx| {
            let samples: Vec<(Config, Vec<f64>)> = c
                .fresh()
                .filter(|((t, _), _)| *t == task_idx)
                .map(|((_, cfg), o)| (cfg.clone(), o.clone()))
                .collect();
            let finite: Vec<usize> = (0..samples.len())
                .filter(|&i| samples[i].1.iter().all(|v| v.is_finite()))
                .collect();
            let objs: Vec<Vec<f64>> = finite.iter().map(|&i| samples[i].1.clone()).collect();
            let front_idx = pareto_front_indices(&objs);
            let pareto_front = front_idx
                .into_iter()
                .map(|fi| {
                    let i = finite[fi];
                    ParetoPoint {
                        config: samples[i].0.clone(),
                        objectives: samples[i].1.clone(),
                    }
                })
                .collect();
            MoTaskResult {
                task: problem.tasks[task_idx].clone(),
                pareto_front,
                samples,
            }
        })
        .collect();

    MoMlaResult {
        per_task,
        stats: c.timer.snapshot(),
        iterations: c.stats,
        completed: c.completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gptune_opt::nsga2::dominates;
    use gptune_space::{Param, Space, Value};

    /// Bi-objective toy: f1 = (x−0.2)², f2 = (x−0.8)² — the Pareto set is
    /// the whole segment x ∈ [0.2, 0.8].
    fn toy_mo(delta: usize) -> TuningProblem {
        let ts = Space::builder().param(Param::real("t", 0.0, 4.0)).build();
        let ps = Space::builder().param(Param::real("x", 0.0, 1.0)).build();
        let tasks: Vec<Config> = (0..delta).map(|i| vec![Value::Real(i as f64)]).collect();
        TuningProblem::new("toy-mo", ts, ps, tasks, |t, x, _| {
            let shift = 0.02 * t[0].as_real();
            let xv = x[0].as_real();
            vec![
                1.0 + (xv - 0.2 - shift).powi(2),
                1.0 + (xv - 0.8 - shift).powi(2),
            ]
        })
        .with_objectives(2)
    }

    fn fast_opts(budget: usize) -> MlaOptions {
        let mut o = MlaOptions::default().with_budget(budget).with_seed(5);
        o.lcm.n_starts = 2;
        o.lcm.lbfgs.max_iters = 25;
        o.nsga.population = 24;
        o.nsga.generations = 15;
        o.k_per_iter = 3;
        o.log_objective = false;
        o
    }

    #[test]
    fn produces_nonempty_mutually_nondominated_front() {
        let p = toy_mo(1);
        let r = tune_multiobjective(&p, &fast_opts(20));
        let front = &r.per_task[0].pareto_front;
        assert!(front.len() >= 3, "front size {}", front.len());
        for a in front {
            for b in front {
                if !std::ptr::eq(a, b) {
                    assert!(!dominates(&a.objectives, &b.objectives));
                }
            }
        }
    }

    #[test]
    fn front_spans_the_tradeoff() {
        let p = toy_mo(1);
        let r = tune_multiobjective(&p, &fast_opts(24));
        let front = &r.per_task[0].pareto_front;
        let xs: Vec<f64> = front.iter().map(|p| p.config[0].as_real()).collect();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Should cover a good chunk of the [0.2, 0.8] Pareto segment.
        assert!(lo < 0.4, "lo {lo}");
        assert!(hi > 0.6, "hi {hi}");
    }

    #[test]
    fn multitask_fronts_for_every_task() {
        let p = toy_mo(3);
        let r = tune_multiobjective(&p, &fast_opts(14));
        assert_eq!(r.per_task.len(), 3);
        for tr in &r.per_task {
            assert!(!tr.pareto_front.is_empty());
            assert!(tr.samples.len() >= 14);
        }
    }

    #[test]
    fn budget_accounting_with_k() {
        let p = toy_mo(1);
        let mut o = fast_opts(16);
        o.n_initial = Some(8);
        o.k_per_iter = 4;
        let r = tune_multiobjective(&p, &o);
        // 8 initial + 2 iterations × 4 = 16.
        assert_eq!(r.per_task[0].samples.len(), 16);
    }

    #[test]
    fn parallel_regions_are_bit_identical_to_sequential() {
        let p = toy_mo(2);
        let run = |workers: usize| {
            let mut o = fast_opts(8);
            o.model_workers = workers;
            o.search_workers = workers;
            let r = tune_multiobjective(&p, &o);
            r.per_task
                .iter()
                .map(|t| {
                    t.samples
                        .iter()
                        .map(|(c, y)| (c.clone(), y.iter().map(|v| v.to_bits()).collect()))
                        .collect::<Vec<(Config, Vec<u64>)>>()
                })
                .collect::<Vec<_>>()
        };
        let seq = run(1);
        assert!(seq.iter().all(|t| t.len() >= 8));
        for workers in [2, 4] {
            assert_eq!(
                seq,
                run(workers),
                "history diverged between 1 and {workers} workers"
            );
        }
    }

    #[test]
    fn exhausted_space_ends_the_run() {
        // Three feasible configurations, a budget of eight: after the
        // initial design has evaluated all three, no iteration can find a
        // new one, and the budget loop must still end.
        let ts = Space::builder().param(Param::real("t", 0.0, 1.0)).build();
        let ps = Space::builder().param(Param::int("x", 0, 2)).build();
        let p = TuningProblem::new(
            "tiny-mo",
            ts,
            ps,
            vec![vec![Value::Real(0.0)]],
            |_, x, _| {
                let xv = x[0].as_int() as f64;
                vec![1.0 + xv, 3.0 - xv]
            },
        )
        .with_objectives(2);
        let mut o = fast_opts(8);
        o.k_per_iter = 4;
        let start = std::time::Instant::now();
        let r = tune_multiobjective(&p, &o);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "took {:?}",
            start.elapsed()
        );
        assert!(r.completed);
        let mut xs: Vec<i64> = r.per_task[0]
            .samples
            .iter()
            .map(|(c, _)| c[0].as_int())
            .collect();
        xs.sort_unstable();
        assert_eq!(xs, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic]
    fn single_objective_rejected() {
        let ts = Space::builder().param(Param::real("t", 0.0, 1.0)).build();
        let ps = Space::builder().param(Param::real("x", 0.0, 1.0)).build();
        let p = TuningProblem::new("so", ts, ps, vec![vec![Value::Real(0.0)]], |_, _, _| {
            vec![1.0]
        });
        let _ = tune_multiobjective(&p, &fast_opts(8));
    }
}
