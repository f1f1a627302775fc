//! Refit accounting for [`gptune_core::TunerSession`], asserted through
//! the trace metrics registry: the `gptune.gp.refit.{full,incremental}`
//! counters are the ground truth for how many surrogate fits a session
//! actually paid for.
//!
//! One `#[test]` on purpose: the counters live in the process-global
//! tracer, so a second concurrent test would race the deltas.

use gptune_core::{MlaOptions, RefitSchedule, TunerSession, TuningProblem};
use gptune_space::{Config, Param, Space, Value};

fn toy() -> TuningProblem {
    let ts = Space::builder().param(Param::real("t", 0.0, 4.0)).build();
    let ps = Space::builder().param(Param::real("x", 0.0, 1.0)).build();
    TuningProblem::new(
        "refit-trace-toy",
        ts,
        ps,
        vec![vec![Value::Real(1.0)]],
        |t, x, _| vec![(x[0].as_real() - 0.1 * t[0].as_real() - 0.2).powi(2)],
    )
}

fn fast_opts() -> MlaOptions {
    let mut o = MlaOptions::default().with_budget(64).with_seed(11);
    o.n_initial = Some(3);
    o.lcm.n_starts = 1;
    o.lcm.lbfgs.max_iters = 10;
    o.pso.particles = 10;
    o.pso.iters = 8;
    o.log_objective = false;
    o
}

fn step(p: &TuningProblem, s: &mut TunerSession) -> Config {
    let cfg = s.suggest(0).expect("task 0 in range");
    let y = p.evaluate(0, &cfg, 0);
    s.report(0, cfg.clone(), y).expect("fresh suggestion");
    cfg
}

#[test]
fn refit_counters_track_session_laziness_and_modes() {
    let _prev = gptune_trace::install(gptune_trace::Tracer::ring(4096));
    let counts = || {
        let m = gptune_trace::global().metrics();
        (
            m.counter("gptune.gp.refit.full").unwrap_or(0),
            m.counter("gptune.gp.refit.incremental").unwrap_or(0),
        )
    };
    let p = toy();

    // --- Default (always-full) schedule: refits are lazy and all full.
    let base = counts();
    let mut s = TunerSession::new(p.clone(), fast_opts());
    for _ in 0..3 {
        step(&p, &mut s); // initial design: no surrogate work at all
    }
    assert_eq!(counts(), base, "initial design never touches the model");
    step(&p, &mut s); // first model-guided suggest → one full fit
    let after_first = counts();
    assert_eq!(after_first.0, base.0 + 1);
    assert_eq!(after_first.1, base.1);

    // step() reported the measured outcome, so one more suggest absorbs
    // that report with a single refit — and after it, suggests with no
    // new reports must not refit at all: the surrogate is current.
    let _ = s.suggest(0).expect("task 0 in range");
    let settled = counts();
    assert_eq!(settled.0, after_first.0 + 1);
    let _ = s.suggest(0).expect("task 0 in range");
    let _ = s.suggest(0).expect("task 0 in range");
    assert_eq!(
        counts(),
        settled,
        "suggest without new reports reuses the cached surrogate"
    );
    assert_eq!(s.n_refits(), 2);

    // A burst of reports costs one refit at the next suggest, not one per
    // report — and under the default schedule it is a *full* refit.
    for x in [0.31, 0.57, 0.83] {
        let cfg = vec![Value::Real(x)];
        let y = p.evaluate(0, &cfg, 0);
        s.report(0, cfg, y).expect("unique config");
    }
    assert_eq!(counts(), settled);
    let _ = s.suggest(0).expect("task 0 in range");
    let burst = counts();
    assert_eq!(burst.0, settled.0 + 1);
    assert_eq!(burst.1, settled.1, "default schedule never extends");

    // --- Incremental schedule: one full fit, then rank-1 extensions.
    let base = counts();
    let mut o = fast_opts();
    o.refit = RefitSchedule {
        full_every: 100,
        nll_drift: 0.0,
    };
    let mut s = TunerSession::new(p.clone(), o);
    for _ in 0..3 {
        step(&p, &mut s);
    }
    step(&p, &mut s); // first model-guided suggest → full
    for _ in 0..3 {
        step(&p, &mut s); // each later suggest extends the factor
    }
    let inc = counts();
    assert_eq!(
        inc.0,
        base.0 + 1,
        "exactly one full fit under full_every=100"
    );
    assert_eq!(inc.1, base.1 + 3, "three rank-1 extension updates");
    assert_eq!(s.n_refits(), 4, "every surrogate update counts as a refit");
}
