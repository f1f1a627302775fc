//! OpenTuner-style ensemble tuner.
//!
//! OpenTuner (Ansel et al., cited in paper Sec. 5) "relies on
//! meta-heuristics to solve a multi-armed bandit problem … it allocates and
//! distributes the function evaluations over a collection of optimization
//! methods in multiple arms in order to adaptively select the best
//! performing method". This stand-in reproduces that architecture:
//!
//! * all techniques share one results database (the sample archive);
//! * an AUC bandit (sliding-window, recency-weighted) picks which
//!   technique proposes the next configuration;
//! * the technique's reward is whether its proposal improved the
//!   incumbent best.
//!
//! The technique set mirrors OpenTuner's default ensemble: uniform random,
//! greedy mutation, crossover, differential-evolution step, Nelder–Mead
//! reflection, and annealed jitter.

use crate::{random_valid, repair, Tuner, TunerRun};
use gptune_core::TuningProblem;
use gptune_opt::bandit::AucBandit;
use gptune_rng::{Rng, SeedableRng, StdRng};
use gptune_space::{Config, Space};

/// The model-free proposal techniques in the ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Technique {
    Random,
    MutateBest,
    Crossover,
    DifferentialStep,
    SimplexReflect,
    AnnealedJitter,
}

const TECHNIQUES: [Technique; 6] = [
    Technique::Random,
    Technique::MutateBest,
    Technique::Crossover,
    Technique::DifferentialStep,
    Technique::SimplexReflect,
    Technique::AnnealedJitter,
];

/// OpenTuner-style tuner: AUC bandit over a technique ensemble.
#[derive(Debug)]
pub struct OpenTunerLike {
    /// Bandit sliding-window length.
    pub window: usize,
    /// Bandit exploration constant.
    pub exploration: f64,
}

impl Default for OpenTunerLike {
    fn default() -> Self {
        // OpenTuner's AUCBanditMetaTechnique defaults.
        OpenTunerLike {
            window: 500,
            exploration: 0.05,
        }
    }
}

impl OpenTunerLike {
    fn propose(
        tech: Technique,
        space: &Space,
        samples: &[(Config, f64)],
        step: usize,
        budget: usize,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let dim = space.dim();
        let norm = |c: &Config| space.normalize(c);
        // Sorted finite history, best first.
        let mut ranked: Vec<&(Config, f64)> =
            samples.iter().filter(|(_, y)| y.is_finite()).collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));

        let uniform = |rng: &mut StdRng| (0..dim).map(|_| rng.gen::<f64>()).collect::<Vec<f64>>();
        if ranked.is_empty() {
            return uniform(rng);
        }

        match tech {
            Technique::Random => uniform(rng),
            Technique::MutateBest => {
                let base = norm(&ranked[0].0);
                base.iter()
                    .map(|v| (v + rng.gaussian() * 0.08).clamp(0.0, 1.0))
                    .collect()
            }
            Technique::Crossover => {
                if ranked.len() < 2 {
                    return uniform(rng);
                }
                let k = ranked.len().min(5);
                let a = norm(&ranked[rng.gen_range(0..k)].0);
                let b = norm(&ranked[rng.gen_range(0..k)].0);
                a.iter()
                    .zip(&b)
                    .map(|(x, y)| {
                        let w: f64 = rng.gen();
                        (w * x + (1.0 - w) * y).clamp(0.0, 1.0)
                    })
                    .collect()
            }
            Technique::DifferentialStep => {
                if ranked.len() < 3 {
                    return uniform(rng);
                }
                let best = norm(&ranked[0].0);
                let a = norm(&ranked[rng.gen_range(0..ranked.len())].0);
                let b = norm(&ranked[rng.gen_range(0..ranked.len())].0);
                best.iter()
                    .zip(a.iter().zip(&b))
                    .map(|(x, (u, v))| (x + 0.7 * (u - v)).clamp(0.0, 1.0))
                    .collect()
            }
            Technique::SimplexReflect => {
                if ranked.len() < dim + 1 {
                    return uniform(rng);
                }
                // Reflect the worst of the top (dim+1) through the centroid
                // of the others.
                let simplex: Vec<Vec<f64>> =
                    ranked.iter().take(dim + 1).map(|(c, _)| norm(c)).collect();
                let worst = simplex.last().unwrap();
                let mut centroid = vec![0.0; dim];
                for p in &simplex[..dim] {
                    for d in 0..dim {
                        centroid[d] += p[d] / dim as f64;
                    }
                }
                centroid
                    .iter()
                    .zip(worst)
                    .map(|(c, w)| (c + (c - w)).clamp(0.0, 1.0))
                    .collect()
            }
            Technique::AnnealedJitter => {
                // Jitter a random good point with a temperature that decays
                // over the budget.
                let temp = 0.3 * (1.0 - step as f64 / budget.max(1) as f64) + 0.02;
                let k = ranked.len().min(3);
                let base = norm(&ranked[rng.gen_range(0..k)].0);
                base.iter()
                    .map(|v| (v + rng.gaussian() * temp).clamp(0.0, 1.0))
                    .collect()
            }
        }
    }
}

impl Tuner for OpenTunerLike {
    fn name(&self) -> &str {
        "opentuner"
    }

    fn tune_task(
        &self,
        problem: &TuningProblem,
        task_idx: usize,
        budget: usize,
        seed: u64,
    ) -> TunerRun {
        assert!(budget > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let space = &problem.tuning_space;
        let mut bandit = AucBandit::new(TECHNIQUES.len(), self.window, self.exploration);
        let mut samples: Vec<(Config, f64)> = Vec::with_capacity(budget);
        let mut best = f64::INFINITY;

        // One seed sample so every technique has something to work with.
        if let Some(c) = random_valid(space, &mut rng, 500) {
            let y = problem.evaluate(task_idx, &c, seed)[0];
            if y.is_finite() {
                best = y;
            }
            samples.push((c, y));
        }

        while samples.len() < budget {
            let arm = bandit.select();
            let u = Self::propose(
                TECHNIQUES[arm],
                space,
                &samples,
                samples.len(),
                budget,
                &mut rng,
            );
            let cfg = repair(space, &u, &samples, &mut rng);
            let y =
                problem.evaluate(task_idx, &cfg, seed.wrapping_add(samples.len() as u64 * 13))[0];
            let improved = y < best;
            if improved {
                best = y;
            }
            bandit.reward(arm, improved);
            samples.push((cfg, y));
        }
        TunerRun::from_samples(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gptune_space::{Param, Space, Value};

    fn problem() -> TuningProblem {
        let ts = Space::builder().param(Param::real("t", 0.0, 1.0)).build();
        let ps = Space::builder()
            .param(Param::real("x", 0.0, 1.0))
            .param(Param::real("y", 0.0, 1.0))
            .build();
        TuningProblem::new("ot", ts, ps, vec![vec![Value::Real(0.0)]], |_, x, _| {
            vec![(x[0].as_real() - 0.3).powi(2) + (x[1].as_real() - 0.7).powi(2) + 0.1]
        })
    }

    #[test]
    fn converges_on_smooth_problem() {
        let run = OpenTunerLike::default().tune_task(&problem(), 0, 60, 3);
        assert_eq!(run.samples.len(), 60);
        assert!(run.best_value < 0.12, "best {}", run.best_value);
    }

    #[test]
    fn beats_pure_random_on_average() {
        let p = problem();
        let mut ot_total = 0.0;
        let mut rnd_total = 0.0;
        for s in 0..5 {
            ot_total += OpenTunerLike::default().tune_task(&p, 0, 40, s).best_value;
            rnd_total += crate::RandomTuner.tune_task(&p, 0, 40, s).best_value;
        }
        assert!(
            ot_total <= rnd_total * 1.05,
            "opentuner {ot_total} vs random {rnd_total}"
        );
    }

    #[test]
    fn constraint_respected() {
        let ts = Space::builder().param(Param::real("t", 0.0, 1.0)).build();
        let ps = Space::builder()
            .param(Param::int("a", 0, 20))
            .param(Param::int("b", 0, 20))
            .constraint("a<=b", |c| c[0].as_int() <= c[1].as_int())
            .build();
        let p = TuningProblem::new("c", ts, ps, vec![vec![Value::Real(0.0)]], |_, x, _| {
            vec![(x[1].as_int() - x[0].as_int()) as f64 + 1.0]
        });
        let run = OpenTunerLike::default().tune_task(&p, 0, 30, 1);
        for (c, _) in &run.samples {
            assert!(c[0].as_int() <= c[1].as_int());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = problem();
        let a = OpenTunerLike::default().tune_task(&p, 0, 20, 9);
        let b = OpenTunerLike::default().tune_task(&p, 0, 20, 9);
        assert_eq!(a.best_value, b.best_value);
    }
}
