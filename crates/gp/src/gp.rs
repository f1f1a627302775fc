//! Acquisition functions over a GP posterior [`Prediction`], and the
//! standard normal CDF/PDF they are built from.
//!
//! The search phase (paper Sec. 3.1) maximizes [`expected_improvement`];
//! [`lower_confidence_bound`] and [`probability_of_improvement`] are the
//! alternatives MLA's `Acquisition` option selects for ablations.

use crate::lcm::Prediction;

/// Expected Improvement for minimization at a predicted point:
///
/// ```text
/// EI(x) = (y_best − μ) Φ(z) + σ φ(z),   z = (y_best − μ)/σ
/// ```
///
/// This is the acquisition function GPTune maximizes in the search phase
/// (Sec. 3.1); it is non-negative and zero where the model is certain of no
/// improvement.
pub fn expected_improvement(pred: &Prediction, y_best: f64) -> f64 {
    let sigma = pred.variance.sqrt();
    if !sigma.is_finite() || sigma < 1e-12 {
        return (y_best - pred.mean).max(0.0);
    }
    let z = (y_best - pred.mean) / sigma;
    let ei = (y_best - pred.mean) * norm_cdf(z) + sigma * norm_pdf(z);
    ei.max(0.0)
}

/// Lower Confidence Bound acquisition for minimization, returned as a
/// *score to maximize* (`−(μ − κσ)`): favours points whose optimistic
/// estimate is lowest. `κ` trades exploration against exploitation
/// (typical values 1–3).
pub fn lower_confidence_bound(pred: &Prediction, kappa: f64) -> f64 {
    -(pred.mean - kappa * pred.variance.sqrt())
}

/// Probability of Improvement over `y_best` for minimization:
/// `PI(x) = Φ((y_best − μ)/σ)`.
pub fn probability_of_improvement(pred: &Prediction, y_best: f64) -> f64 {
    let sigma = pred.variance.sqrt();
    if !sigma.is_finite() || sigma < 1e-12 {
        return if pred.mean < y_best { 1.0 } else { 0.0 };
    }
    norm_cdf((y_best - pred.mean) / sigma)
}

/// Standard normal PDF.
pub fn norm_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via the complementary error function
/// (Abramowitz–Stegun 7.1.26 rational approximation, |err| < 1.5e-7 —
/// ample for acquisition optimization).
pub fn norm_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Complementary error function.
pub fn erfc(x: f64) -> f64 {
    let ax = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * ax);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let v = poly * (-ax * ax).exp();
    if x >= 0.0 {
        v
    } else {
        2.0 - v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ei_nonnegative_and_zero_without_hope() {
        // Certain model (σ→0) predicting worse than best: EI = 0.
        let p = Prediction {
            mean: 5.0,
            variance: 1e-18,
        };
        assert_eq!(expected_improvement(&p, 1.0), 0.0);
        // Certain improvement.
        let p2 = Prediction {
            mean: 0.0,
            variance: 1e-18,
        };
        assert!((expected_improvement(&p2, 1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ei_grows_with_variance_at_equal_mean() {
        let lo = Prediction {
            mean: 1.0,
            variance: 0.01,
        };
        let hi = Prediction {
            mean: 1.0,
            variance: 1.0,
        };
        assert!(expected_improvement(&hi, 1.0) > expected_improvement(&lo, 1.0));
    }

    #[test]
    fn norm_cdf_reference_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((norm_cdf(1.0) - 0.841344746).abs() < 1e-6);
        assert!((norm_cdf(-1.0) - 0.158655254).abs() < 1e-6);
        assert!((norm_cdf(3.0) - 0.998650102).abs() < 1e-6);
        assert!(norm_cdf(-8.0) < 1e-14);
        assert!(norm_cdf(8.0) > 1.0 - 1e-14);
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.0, 0.3, 1.0, 2.5] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-7);
        }
    }

    #[test]
    fn lcb_prefers_low_mean_and_high_variance() {
        let a = Prediction {
            mean: 1.0,
            variance: 0.01,
        };
        let b = Prediction {
            mean: 1.0,
            variance: 1.0,
        };
        assert!(lower_confidence_bound(&b, 2.0) > lower_confidence_bound(&a, 2.0));
        let c = Prediction {
            mean: 0.5,
            variance: 0.01,
        };
        assert!(lower_confidence_bound(&c, 2.0) > lower_confidence_bound(&a, 2.0));
        // κ = 0 reduces to pure exploitation (negated mean).
        assert_eq!(lower_confidence_bound(&a, 0.0), -1.0);
    }

    #[test]
    fn pi_bounded_and_sensible() {
        let p = Prediction {
            mean: 0.0,
            variance: 1.0,
        };
        let at_best = probability_of_improvement(&p, 0.0);
        assert!((at_best - 0.5).abs() < 1e-7);
        assert!(probability_of_improvement(&p, 10.0) > 0.99);
        assert!(probability_of_improvement(&p, -10.0) < 0.01);
        // Deterministic predictions degenerate to a step function.
        let d = Prediction {
            mean: 1.0,
            variance: 0.0,
        };
        assert_eq!(probability_of_improvement(&d, 2.0), 1.0);
        assert_eq!(probability_of_improvement(&d, 0.5), 0.0);
    }

    #[test]
    fn ei_closed_form_spot_check() {
        // μ=0, σ=1, best=0 → EI = φ(0) = 1/sqrt(2π).
        let p = Prediction {
            mean: 0.0,
            variance: 1.0,
        };
        let expect = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
        assert!((expected_improvement(&p, 0.0) - expect).abs() < 1e-7);
    }
}
