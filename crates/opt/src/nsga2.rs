//! NSGA-II: the non-dominated sorting genetic algorithm of Deb et al.,
//! used by GPTune's multi-objective search phase (paper Sec. 3.2).
//!
//! Operates on the unit hypercube with real-coded individuals, simulated
//! binary crossover (SBX), polynomial mutation, fast non-dominated sorting,
//! and crowding-distance selection — the standard configuration the paper
//! cites (\[5\] Deb et al. 2002).

use gptune_rng::Rng;

/// NSGA-II configuration.
#[derive(Debug, Clone)]
pub struct Nsga2Options {
    /// Population size (kept even).
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// SBX crossover probability.
    pub crossover_prob: f64,
    /// SBX distribution index η_c.
    pub eta_crossover: f64,
    /// Per-gene mutation probability (defaults to 1/dim when `None`).
    pub mutation_prob: Option<f64>,
    /// Polynomial-mutation distribution index η_m.
    pub eta_mutation: f64,
}

impl Default for Nsga2Options {
    fn default() -> Self {
        Nsga2Options {
            population: 60,
            generations: 60,
            crossover_prob: 0.9,
            eta_crossover: 15.0,
            mutation_prob: None,
            eta_mutation: 20.0,
        }
    }
}

/// One individual of the final population.
#[derive(Debug, Clone)]
pub struct MoSolution {
    /// Decision vector in `[0,1]^dim`.
    pub x: Vec<f64>,
    /// Objective vector (all minimized).
    pub objectives: Vec<f64>,
}

/// `true` iff `a` Pareto-dominates `b` (all objectives ≤, at least one <).
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Fast non-dominated sort: returns fronts of indices, best (rank 0) first.
pub fn non_dominated_sort(objs: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = objs.len();
    let mut domination_count = vec![0usize; n];
    let mut dominated: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut fronts: Vec<Vec<usize>> = vec![Vec::new()];
    for i in 0..n {
        for j in (i + 1)..n {
            if dominates(&objs[i], &objs[j]) {
                dominated[i].push(j);
                domination_count[j] += 1;
            } else if dominates(&objs[j], &objs[i]) {
                dominated[j].push(i);
                domination_count[i] += 1;
            }
        }
        if domination_count[i] == 0 {
            fronts[0].push(i);
        }
    }
    let mut k = 0;
    while !fronts[k].is_empty() {
        let mut next = Vec::new();
        for &i in &fronts[k] {
            for &j in &dominated[i] {
                domination_count[j] -= 1;
                if domination_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(next);
        k += 1;
    }
    fronts.pop(); // last front is empty
    fronts
}

/// Crowding distance of each member of a front (index-aligned with `front`).
pub fn crowding_distance(objs: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
    let nf = front.len();
    let mut dist = vec![0.0_f64; nf];
    if nf == 0 {
        return dist;
    }
    let m = objs[front[0]].len();
    for obj in 0..m {
        let mut order: Vec<usize> = (0..nf).collect();
        order.sort_by(|&a, &b| objs[front[a]][obj].total_cmp(&objs[front[b]][obj]));
        let fmin = objs[front[order[0]]][obj];
        let fmax = objs[front[order[nf - 1]]][obj];
        dist[order[0]] = f64::INFINITY;
        dist[order[nf - 1]] = f64::INFINITY;
        let span = fmax - fmin;
        if span <= 0.0 {
            continue;
        }
        for w in 1..nf - 1 {
            let lo = objs[front[order[w - 1]]][obj];
            let hi = objs[front[order[w + 1]]][obj];
            dist[order[w]] += (hi - lo) / span;
        }
    }
    dist
}

/// Extracts the non-dominated subset of a set of objective vectors,
/// returning indices into the input.
pub fn pareto_front_indices(objs: &[Vec<f64>]) -> Vec<usize> {
    if objs.is_empty() {
        return Vec::new();
    }
    non_dominated_sort(objs).remove(0)
}

/// Minimizes a vector objective over `[0,1]^dim`; returns the final
/// first-front (the approximated Pareto set).
///
/// `seeds` injects known points into the initial population (GPTune seeds
/// the multi-objective search with the evaluated samples).
pub fn minimize(
    f: &mut dyn FnMut(&[f64]) -> Vec<f64>,
    dim: usize,
    n_obj: usize,
    seeds: &[Vec<f64>],
    opts: &Nsga2Options,
    rng: &mut impl Rng,
) -> Vec<MoSolution> {
    let mut batch = |xs: &[Vec<f64>]| -> Vec<Vec<f64>> { xs.iter().map(|x| f(x)).collect() };
    minimize_batch(&mut batch, dim, n_obj, seeds, opts, rng)
}

/// A population-at-a-time objective: one objective vector per member, in
/// order.
pub type BatchObjective<'a> = dyn FnMut(&[Vec<f64>]) -> Vec<Vec<f64>> + 'a;

/// Batched-evaluation variant of [`minimize`]: `f` receives a whole
/// population and returns one objective vector per member, in order.
///
/// NSGA-II already evaluates population-at-a-time, so the evolutionary
/// trajectory is *identical* to [`minimize`] — the batch signature just
/// lets the caller score each generation through one blocked batched GP
/// prediction instead of per-individual solves.
pub fn minimize_batch(
    f: &mut BatchObjective<'_>,
    dim: usize,
    n_obj: usize,
    seeds: &[Vec<f64>],
    opts: &Nsga2Options,
    rng: &mut impl Rng,
) -> Vec<MoSolution> {
    assert!(dim > 0 && n_obj > 0);
    let pop_size = (opts.population.max(4) + 1) & !1; // even, ≥ 4
    let pm = opts.mutation_prob.unwrap_or(1.0 / dim as f64);

    let mut eval_pop = |xs: &[Vec<f64>]| -> Vec<Vec<f64>> {
        let objs = f(xs);
        assert_eq!(objs.len(), xs.len(), "nsga2: batch arity mismatch");
        objs.into_iter()
            .map(|mut o| {
                assert_eq!(o.len(), n_obj, "nsga2: objective arity mismatch");
                for v in &mut o {
                    if v.is_nan() {
                        *v = f64::INFINITY;
                    }
                }
                o
            })
            .collect()
    };

    // Initial population: seeds first, then uniform random.
    let mut pop: Vec<Vec<f64>> = seeds
        .iter()
        .take(pop_size)
        .map(|s| {
            let mut p = s.clone();
            crate::clamp_unit(&mut p);
            p
        })
        .collect();
    while pop.len() < pop_size {
        pop.push((0..dim).map(|_| rng.gen::<f64>()).collect());
    }
    let mut objs: Vec<Vec<f64>> = eval_pop(&pop);

    for _gen in 0..opts.generations {
        // Rank + crowding for parent selection.
        let fronts = non_dominated_sort(&objs);
        let mut rank = vec![0usize; pop.len()];
        let mut crowd = vec![0.0f64; pop.len()];
        for (r, front) in fronts.iter().enumerate() {
            let cd = crowding_distance(&objs, front);
            for (k, &i) in front.iter().enumerate() {
                rank[i] = r;
                crowd[i] = cd[k];
            }
        }
        let tournament =
            |rng: &mut dyn gptune_rng::RngCore, rank: &[usize], crowd: &[f64]| -> usize {
                let a = (rng.next_u64() % pop_size as u64) as usize;
                let b = (rng.next_u64() % pop_size as u64) as usize;
                if rank[a] < rank[b] || (rank[a] == rank[b] && crowd[a] > crowd[b]) {
                    a
                } else {
                    b
                }
            };

        // Offspring.
        let mut children: Vec<Vec<f64>> = Vec::with_capacity(pop_size);
        while children.len() < pop_size {
            let pa = tournament(rng, &rank, &crowd);
            let pb = tournament(rng, &rank, &crowd);
            let (mut c1, mut c2) = sbx_crossover(
                &pop[pa],
                &pop[pb],
                opts.crossover_prob,
                opts.eta_crossover,
                rng,
            );
            polynomial_mutation(&mut c1, pm, opts.eta_mutation, rng);
            polynomial_mutation(&mut c2, pm, opts.eta_mutation, rng);
            children.push(c1);
            if children.len() < pop_size {
                children.push(c2);
            }
        }
        let child_objs: Vec<Vec<f64>> = eval_pop(&children);

        // Environmental selection on the combined population.
        pop.extend(children);
        objs.extend(child_objs);
        let fronts = non_dominated_sort(&objs);
        let mut keep: Vec<usize> = Vec::with_capacity(pop_size);
        for front in &fronts {
            if keep.len() + front.len() <= pop_size {
                keep.extend_from_slice(front);
            } else {
                let cd = crowding_distance(&objs, front);
                let mut order: Vec<usize> = (0..front.len()).collect();
                order.sort_by(|&a, &b| cd[b].total_cmp(&cd[a]));
                for &k in order.iter().take(pop_size - keep.len()) {
                    keep.push(front[k]);
                }
                break;
            }
        }
        let mut new_pop = Vec::with_capacity(pop_size);
        let mut new_objs = Vec::with_capacity(pop_size);
        for &i in &keep {
            new_pop.push(pop[i].clone());
            new_objs.push(objs[i].clone());
        }
        pop = new_pop;
        objs = new_objs;
    }

    // Return the first front of the final population.
    let first = non_dominated_sort(&objs).remove(0);
    first
        .into_iter()
        .map(|i| MoSolution {
            x: pop[i].clone(),
            objectives: objs[i].clone(),
        })
        .collect()
}

/// Simulated binary crossover producing two children clipped to `[0,1]`.
fn sbx_crossover(
    a: &[f64],
    b: &[f64],
    prob: f64,
    eta: f64,
    rng: &mut impl Rng,
) -> (Vec<f64>, Vec<f64>) {
    let mut c1 = a.to_vec();
    let mut c2 = b.to_vec();
    if rng.gen::<f64>() > prob {
        return (c1, c2);
    }
    for d in 0..a.len() {
        if rng.gen::<f64>() > 0.5 {
            continue;
        }
        let (x1, x2) = (a[d], b[d]);
        if (x1 - x2).abs() < 1e-14 {
            continue;
        }
        let u: f64 = rng.gen();
        let beta = if u <= 0.5 {
            (2.0 * u).powf(1.0 / (eta + 1.0))
        } else {
            (1.0 / (2.0 * (1.0 - u))).powf(1.0 / (eta + 1.0))
        };
        c1[d] = (0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)).clamp(0.0, 1.0);
        c2[d] = (0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)).clamp(0.0, 1.0);
    }
    (c1, c2)
}

/// Polynomial mutation on `[0,1]` genes.
fn polynomial_mutation(x: &mut [f64], prob: f64, eta: f64, rng: &mut impl Rng) {
    for v in x.iter_mut() {
        if rng.gen::<f64>() > prob {
            continue;
        }
        let u: f64 = rng.gen();
        let delta = if u < 0.5 {
            (2.0 * u).powf(1.0 / (eta + 1.0)) - 1.0
        } else {
            1.0 - (2.0 * (1.0 - u)).powf(1.0 / (eta + 1.0))
        };
        *v = (*v + delta).clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gptune_rng::{SeedableRng, StdRng};

    #[test]
    fn dominance_relation() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 3.0]));
        assert!(dominates(&[1.0, 3.0], &[2.0, 3.0]));
        assert!(!dominates(&[1.0, 4.0], &[2.0, 3.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0])); // equal: no strict improvement
        assert!(!dominates(&[2.0, 3.0], &[1.0, 2.0]));
    }

    #[test]
    fn sort_produces_correct_fronts() {
        let objs = vec![
            vec![1.0, 1.0], // front 0
            vec![2.0, 2.0], // front 1 (dominated by 0)
            vec![0.5, 3.0], // front 0 (trade-off with 0)
            vec![3.0, 3.0], // front 2
        ];
        let fronts = non_dominated_sort(&objs);
        assert_eq!(fronts.len(), 3);
        let mut f0 = fronts[0].clone();
        f0.sort_unstable();
        assert_eq!(f0, vec![0, 2]);
        assert_eq!(fronts[1], vec![1]);
        assert_eq!(fronts[2], vec![3]);
    }

    #[test]
    fn sort_is_partition() {
        // Fronts partition the index set.
        let objs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64, (i / 5) as f64, ((i * 7) % 3) as f64])
            .collect();
        let fronts = non_dominated_sort(&objs);
        let mut all: Vec<usize> = fronts.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn crowding_boundary_infinite() {
        let objs = vec![
            vec![0.0, 4.0],
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![4.0, 0.0],
        ];
        let front = vec![0, 1, 2, 3];
        let cd = crowding_distance(&objs, &front);
        assert!(cd[0].is_infinite());
        assert!(cd[3].is_infinite());
        assert!(cd[1].is_finite() && cd[1] > 0.0);
        assert!(cd[2].is_finite() && cd[2] > 0.0);
    }

    #[test]
    fn crowding_constant_objective_no_nan() {
        let objs = vec![vec![1.0, 5.0], vec![1.0, 5.0], vec![1.0, 5.0]];
        let cd = crowding_distance(&objs, &[0, 1, 2]);
        assert!(cd.iter().all(|v| !v.is_nan()));
    }

    /// The classic ZDT1-like convex bi-objective problem on [0,1]^d:
    /// f1 = x0, f2 = g(x) * (1 − sqrt(x0 / g)), Pareto front at x1..=0.
    fn zdt1(x: &[f64]) -> Vec<f64> {
        let f1 = x[0];
        let g = 1.0 + 9.0 * x[1..].iter().sum::<f64>() / (x.len() - 1) as f64;
        let f2 = g * (1.0 - (f1 / g).sqrt());
        vec![f1, f2]
    }

    #[test]
    fn zdt1_front_approximated() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut f = zdt1;
        let front = minimize(
            &mut f,
            6,
            2,
            &[],
            &Nsga2Options {
                population: 80,
                generations: 120,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(front.len() >= 10, "front size {}", front.len());
        // On the true front f2 = 1 − sqrt(f1); check mean deviation is small.
        let mean_dev: f64 = front
            .iter()
            .map(|s| (s.objectives[1] - (1.0 - s.objectives[0].sqrt())).abs())
            .sum::<f64>()
            / front.len() as f64;
        assert!(mean_dev < 0.08, "mean deviation {mean_dev}");
        // Front must be mutually non-dominated.
        for i in 0..front.len() {
            for j in 0..front.len() {
                if i != j {
                    assert!(!dominates(&front[i].objectives, &front[j].objectives));
                }
            }
        }
    }

    #[test]
    fn seeds_are_used() {
        let mut rng = StdRng::seed_from_u64(12);
        // Single-objective-as-multi: unique optimum x = (0.5, 0.5) with a
        // needle; only reachable from the seed.
        let mut f = |x: &[f64]| {
            let d: f64 = x.iter().map(|v| (v - 0.5).abs()).sum();
            if d < 1e-9 {
                vec![-1.0, -1.0]
            } else {
                vec![d, d]
            }
        };
        let front = minimize(
            &mut f,
            2,
            2,
            &[vec![0.5, 0.5]],
            &Nsga2Options {
                population: 16,
                generations: 5,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(front.iter().any(|s| s.objectives[0] == -1.0));
    }

    #[test]
    fn pareto_front_indices_simple() {
        let objs = vec![
            vec![2.0, 2.0],
            vec![1.0, 3.0],
            vec![3.0, 1.0],
            vec![3.0, 3.0],
        ];
        let mut idx = pareto_front_indices(&objs);
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2]);
        assert!(pareto_front_indices(&[]).is_empty());
    }
}
