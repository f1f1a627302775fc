//! Tree Parzen Estimator (TPE).
//!
//! HpBandSter's Bayesian-optimization component selects the next
//! configuration by kernel-density estimation instead of optimizing EI
//! directly (paper Sec. 5: "it uses a kernel density estimator … to select a
//! new configuration to evaluate, instead of directly optimizing EI as
//! GPTune does. This is faster, but less accurate."). This module implements
//! that estimator: observations are split into a *good* and a *bad* set at a
//! quantile `γ`; per-dimension Gaussian KDEs `l(x)` (good) and `g(x)` (bad)
//! are built; candidates are drawn from `l` and ranked by `l(x)/g(x)`.
//! As in HpBandSter, a share of proposals is drawn uniformly and
//! candidates are drawn from a widened `l`, so the search keeps exploring
//! instead of collapsing onto its first good cluster.

use gptune_rng::Rng;

/// Share of model-phase proposals drawn uniformly at random (HpBandSter's
/// `random_fraction`).
const RANDOM_FRACTION: f64 = 1.0 / 3.0;

/// Widening of the good-set bandwidths when drawing candidates
/// (HpBandSter's `bandwidth_factor`); candidates are scored with the
/// unwidened densities.
const BANDWIDTH_FACTOR: f64 = 3.0;

/// TPE configuration.
#[derive(Debug, Clone)]
pub struct TpeOptions {
    /// Quantile of observations treated as "good" (HpBandSter default ~0.15,
    /// with a floor on the set size).
    pub gamma: f64,
    /// Minimum number of good observations before the model activates.
    pub min_good: usize,
    /// Number of candidates drawn from `l` per proposal.
    pub candidates: usize,
    /// Bandwidth floor (unit-box units) to avoid degenerate spikes.
    pub min_bandwidth: f64,
}

impl Default for TpeOptions {
    fn default() -> Self {
        TpeOptions {
            gamma: 0.25,
            min_good: 3,
            candidates: 24,
            min_bandwidth: 0.03,
        }
    }
}

/// Proposes the next point in `[0,1]^dim` given evaluation history.
///
/// Falls back to uniform random when the history is too small for a useful
/// split (matching HpBandSter's `min_points_in_model` behaviour), and on a
/// `RANDOM_FRACTION` (one third) share of the proposals after that.
pub fn propose(
    xs: &[Vec<f64>],
    ys: &[f64],
    dim: usize,
    opts: &TpeOptions,
    rng: &mut impl Rng,
) -> Vec<f64> {
    assert_eq!(xs.len(), ys.len());
    let usable: Vec<usize> = (0..ys.len()).filter(|&i| ys[i].is_finite()).collect();
    if usable.len() < opts.min_good + 2 || rng.gen::<f64>() < RANDOM_FRACTION {
        return (0..dim).map(|_| rng.gen::<f64>()).collect();
    }

    // Split at the γ quantile (at least `min_good` in the good set).
    let mut order = usable.clone();
    order.sort_by(|&a, &b| ys[a].total_cmp(&ys[b]));
    let n_good = ((opts.gamma * order.len() as f64).ceil() as usize)
        .max(opts.min_good)
        .min(order.len() - 1);
    let good: Vec<&Vec<f64>> = order[..n_good].iter().map(|&i| &xs[i]).collect();
    let bad: Vec<&Vec<f64>> = order[n_good..].iter().map(|&i| &xs[i]).collect();

    let bw_good = bandwidths(&good, dim, opts.min_bandwidth);
    let bw_bad = bandwidths(&bad, dim, opts.min_bandwidth);

    // Draw candidates from the widened l(x): pick a good point, jitter
    // per-dimension.
    let mut best: Option<(f64, Vec<f64>)> = None;
    for _ in 0..opts.candidates.max(1) {
        let base = good[rng.gen_range(0..good.len())];
        let cand: Vec<f64> = (0..dim)
            .map(|d| {
                let jitter = rng.gaussian() * BANDWIDTH_FACTOR * bw_good[d];
                (base[d] + jitter).clamp(0.0, 1.0)
            })
            .collect();
        let score = log_kde(&cand, &good, &bw_good) - log_kde(&cand, &bad, &bw_bad);
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, cand));
        }
    }
    best.expect("candidates >= 1").1
}

/// Per-dimension Scott's-rule bandwidths with a floor.
fn bandwidths(points: &[&Vec<f64>], dim: usize, floor: f64) -> Vec<f64> {
    let n = points.len() as f64;
    let factor = n.powf(-1.0 / (dim as f64 + 4.0));
    (0..dim)
        .map(|d| {
            let mean: f64 = points.iter().map(|p| p[d]).sum::<f64>() / n;
            let var: f64 = points.iter().map(|p| (p[d] - mean).powi(2)).sum::<f64>() / n;
            (var.sqrt() * factor).max(floor)
        })
        .collect()
}

/// Log of a product-form Gaussian KDE at `x`.
fn log_kde(x: &[f64], points: &[&Vec<f64>], bw: &[f64]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    // log( (1/n) Σ_k Π_d N(x_d; p_kd, bw_d) ) computed via log-sum-exp.
    let logs: Vec<f64> = points
        .iter()
        .map(|p| {
            x.iter()
                .zip(p.iter())
                .zip(bw)
                .map(|((xi, pi), b)| {
                    let z = (xi - pi) / b;
                    -0.5 * z * z - b.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
                })
                .sum::<f64>()
        })
        .collect();
    let m = logs.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    if gptune_la::ord::feq(m, f64::NEG_INFINITY) {
        return f64::NEG_INFINITY;
    }
    m + (logs.iter().map(|l| (l - m).exp()).sum::<f64>() / points.len() as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gptune_rng::{SeedableRng, StdRng};

    #[test]
    fn small_history_falls_back_to_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = propose(&[vec![0.5]], &[1.0], 1, &TpeOptions::default(), &mut rng);
        assert_eq!(p.len(), 1);
        assert!((0.0..=1.0).contains(&p[0]));
    }

    #[test]
    fn proposes_near_good_region() {
        let mut rng = StdRng::seed_from_u64(2);
        // Good points cluster at 0.2; bad at 0.8.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..10 {
            let x = 0.2 + 0.01 * i as f64;
            xs.push(vec![x]);
            ys.push(0.0 + 0.001 * i as f64);
        }
        for i in 0..10 {
            let x = 0.8 + 0.01 * i as f64;
            xs.push(vec![x]);
            ys.push(10.0 + 0.001 * i as f64);
        }
        let mut hits = 0;
        for _ in 0..20 {
            let p = propose(&xs, &ys, 1, &TpeOptions::default(), &mut rng);
            if p[0] < 0.5 {
                hits += 1;
            }
        }
        assert!(hits >= 18, "only {hits}/20 proposals near the good cluster");
    }

    /// Best of 5 uniform points plus 60 proposals on a 2-D quadratic.
    fn quadratic_best(seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = |x: &[f64]| (x[0] - 0.62).powi(2) + (x[1] - 0.31).powi(2);
        let mut xs: Vec<Vec<f64>> = (0..5)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        let mut ys: Vec<f64> = xs.iter().map(|x| f(x)).collect();
        for _ in 0..60 {
            let p = propose(&xs, &ys, 2, &TpeOptions::default(), &mut rng);
            ys.push(f(&p));
            xs.push(p);
        }
        ys.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn optimizes_quadratic_in_loop() {
        // One seed's best measures how lucky its stream is; the median over
        // 64 seeds measures the optimizer.
        let mut bests: Vec<f64> = (0..64).map(quadratic_best).collect();
        bests.sort_by(f64::total_cmp);
        let median = bests[bests.len() / 2];
        assert!(median < 5e-3, "median best {median}");
    }

    #[test]
    fn infinite_values_ignored() {
        let mut rng = StdRng::seed_from_u64(4);
        let xs = vec![
            vec![0.1],
            vec![0.2],
            vec![0.3],
            vec![0.9],
            vec![0.95],
            vec![0.85],
            vec![0.5],
        ];
        let ys = vec![f64::INFINITY, 0.1, 0.2, 5.0, 6.0, 7.0, f64::NAN];
        let p = propose(&xs, &ys, 1, &TpeOptions::default(), &mut rng);
        assert!(p[0].is_finite());
    }

    #[test]
    fn kde_prefers_density_peak() {
        let pts_owned = [vec![0.3], vec![0.31], vec![0.29]];
        let pts: Vec<&Vec<f64>> = pts_owned.iter().collect();
        let bw = vec![0.05];
        assert!(log_kde(&[0.3], &pts, &bw) > log_kde(&[0.7], &pts, &bw));
    }
}
