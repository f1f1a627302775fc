//! Property tests for the optimizer substrate: each property runs over 48
//! seeded random cases.

use gptune_opt::nsga2::{crowding_distance, dominates, non_dominated_sort, pareto_front_indices};
use gptune_opt::{de, pso};
use gptune_rng::{Rng, SeedableRng, StdRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: u64 = 48;

/// Runs `check` on [`CASES`] cases, case `k` drawing from seed `k`, and
/// names the case that fails.
fn cases(check: impl Fn(&mut StdRng)) {
    for k in 0..CASES {
        let ok = catch_unwind(AssertUnwindSafe(|| check(&mut StdRng::seed_from_u64(k)))).is_ok();
        assert!(ok, "property failed on case {k}");
    }
}

/// `n` objective vectors of `m` components in [0, 10).
fn objvecs(rng: &mut StdRng, n: usize, m: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..m).map(|_| rng.gen_range(0.0..10.0)).collect())
        .collect()
}

#[test]
fn dominance_is_strict_partial_order() {
    cases(|rng| {
        let objs = objvecs(rng, 8, 3);
        for a in &objs {
            // Irreflexive.
            assert!(!dominates(a, a));
            for b in &objs {
                // Asymmetric.
                if dominates(a, b) {
                    assert!(!dominates(b, a));
                }
                for c in &objs {
                    // Transitive.
                    if dominates(a, b) && dominates(b, c) {
                        assert!(dominates(a, c));
                    }
                }
            }
        }
    });
}

#[test]
fn sort_partitions_and_ranks_correctly() {
    cases(|rng| {
        let objs = objvecs(rng, 20, 2);
        let fronts = non_dominated_sort(&objs);
        // Partition.
        let mut all: Vec<usize> = fronts.iter().flatten().cloned().collect();
        all.sort_unstable();
        assert_eq!(all, (0..objs.len()).collect::<Vec<_>>());
        // Front 0 is mutually non-dominated and undominated globally.
        for &i in &fronts[0] {
            for (j, o) in objs.iter().enumerate() {
                if i != j {
                    assert!(!dominates(o, &objs[i]), "{j} dominates front-0 member {i}");
                }
            }
        }
        // Every member of front k>0 is dominated by someone in front k−1.
        for k in 1..fronts.len() {
            for &i in &fronts[k] {
                let dominated_by_prev =
                    fronts[k - 1].iter().any(|&p| dominates(&objs[p], &objs[i]));
                assert!(
                    dominated_by_prev,
                    "front {k} member {i} not dominated by front {}",
                    k - 1
                );
            }
        }
    });
}

#[test]
fn pareto_front_indices_are_front_zero() {
    cases(|rng| {
        let objs = objvecs(rng, 15, 3);
        let mut a = pareto_front_indices(&objs);
        let mut b = non_dominated_sort(&objs).remove(0);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    });
}

#[test]
fn crowding_nonnegative_with_infinite_extremes() {
    cases(|rng| {
        let objs = objvecs(rng, 10, 2);
        let front = pareto_front_indices(&objs);
        let cd = crowding_distance(&objs, &front);
        assert_eq!(cd.len(), front.len());
        for v in &cd {
            assert!(*v >= 0.0 || v.is_infinite());
            assert!(!v.is_nan());
        }
        if front.len() >= 2 {
            assert!(cd.iter().any(|v| v.is_infinite()));
        }
    });
}

#[test]
fn optimizers_stay_in_unit_box() {
    cases(|case_rng| {
        let seed = case_rng.gen_range(0..100u64);
        let target = case_rng.gen_range(0.0..1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut f = |x: &[f64]| (x[0] - target).powi(2) + (x[1] - target).powi(2);
        let check = |x: &[f64]| x.iter().all(|v| (0.0..=1.0).contains(v));

        let r = pso::minimize(
            &mut f,
            2,
            &[],
            &pso::PsoOptions {
                particles: 10,
                iters: 5,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(check(&r.x));
        let r = de::minimize(
            &mut f,
            2,
            &[],
            &de::DeOptions {
                population: 8,
                generations: 5,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(check(&r.x));
    });
}

#[test]
fn optimizer_result_never_worse_than_seed() {
    cases(|case_rng| {
        let seed = case_rng.gen_range(0..60u64);
        // With the incumbent injected, PSO/DE must return a value no
        // worse than the seed's.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut f = |x: &[f64]| (x[0] - 0.37).powi(2);
        let seed_pt = vec![0.37];
        let seed_val = f(&seed_pt);

        let r = pso::minimize(
            &mut f,
            1,
            std::slice::from_ref(&seed_pt),
            &pso::PsoOptions {
                particles: 6,
                iters: 4,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(r.value <= seed_val + 1e-15);
        let r = de::minimize(
            &mut f,
            1,
            std::slice::from_ref(&seed_pt),
            &de::DeOptions {
                population: 6,
                generations: 4,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(r.value <= seed_val + 1e-15);
    });
}
