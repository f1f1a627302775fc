//! Tuner phase statistics — the "stats:" breakdown of GPTune runlogs.
//!
//! Table 3 of the paper reports, per tuning run, the wall time spent in the
//! objective function, the modeling phase, and the search phase. Our
//! objective functions are simulators that return *virtual* application
//! seconds, so the objective phase is tracked in virtual seconds while
//! modeling/search are real wall-clock measurements of this implementation.
//!
//! [`PhaseTimer`] is the single time authority for phase walls: each timed
//! closure is measured once and the measurement is published twice — into
//! the mutex-guarded [`PhaseStats`] accumulator and into the [`gptune_trace`]
//! tracer as a `gptune.core.<phase>` span. Because both share one
//! measurement, the phase spans of a trace sum to the `stats:` line's
//! walls exactly. Evaluation and failure counts also go to `gptune.core.*`
//! counters.
//!
//! The accumulator stays the authority rather than a view over the
//! tracer: the global tracer is disabled by default, and a run resumed
//! from a checkpoint restores totals that this process's registry never
//! saw.

use crate::fault::FailureKind;
use gptune_trace::{CounterHandle, Field, GaugeHandle, Tracer};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The three phases of an MLA iteration (paper Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Black-box function evaluation (application runs).
    Objective,
    /// LCM hyperparameter optimization.
    Modeling,
    /// Acquisition-function maximization.
    Search,
}

impl Phase {
    /// The span name for this phase (`gptune.core.<phase>`).
    pub fn span_name(self) -> &'static str {
        match self {
            Phase::Objective => "gptune.core.objective",
            Phase::Modeling => "gptune.core.modeling",
            Phase::Search => "gptune.core.search",
        }
    }
}

/// Immutable snapshot of accumulated statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Virtual seconds spent inside simulated application runs.
    pub objective_virtual_secs: f64,
    /// Wall-clock spent dispatching/evaluating the objective.
    pub objective_wall: Duration,
    /// Wall-clock spent in the modeling phase.
    pub modeling_wall: Duration,
    /// Wall-clock spent in the search phase.
    pub search_wall: Duration,
    /// Number of objective evaluations.
    pub n_evals: usize,
    /// Evaluations whose objective panicked.
    pub n_crashed: usize,
    /// Evaluations expired by the watchdog deadline.
    pub n_timed_out: usize,
    /// Evaluations that completed with an unusable measurement.
    pub n_invalid: usize,
    /// Evaluations that exhausted their transient retries.
    pub n_transient: usize,
    /// Total retry executions across all evaluations.
    pub n_retries: usize,
}

impl PhaseStats {
    /// Total tuner time: virtual objective seconds plus real
    /// modeling/search seconds — the "total" column of Table 3.
    pub fn total_secs(&self) -> f64 {
        self.objective_virtual_secs
            + self.modeling_wall.as_secs_f64()
            + self.search_wall.as_secs_f64()
    }

    /// Total failed evaluations across all classifications.
    pub fn n_failed(&self) -> usize {
        self.n_crashed + self.n_timed_out + self.n_invalid + self.n_transient
    }

    /// One-line report in the GPTune runlog style. Runs that saw
    /// failures or retries append their failure profile.
    pub fn report(&self) -> String {
        let mut line = format!(
            "stats: total {:.1}s | objective {:.1}s ({} evals) | modeling {:.3}s | search {:.3}s",
            self.total_secs(),
            self.objective_virtual_secs,
            self.n_evals,
            self.modeling_wall.as_secs_f64(),
            self.search_wall.as_secs_f64()
        );
        if self.n_failed() + self.n_retries > 0 {
            line.push_str(&format!(
                " | faults: {} crashed, {} timed-out, {} invalid, {} transient, {} retries",
                self.n_crashed, self.n_timed_out, self.n_invalid, self.n_transient, self.n_retries
            ));
        }
        line
    }
}

/// Count and virtual-time metric handles, fetched once at timer
/// construction.
#[derive(Debug)]
struct PhaseMetrics {
    evals: CounterHandle,
    retries: CounterHandle,
    crashed: CounterHandle,
    timed_out: CounterHandle,
    invalid: CounterHandle,
    transient: CounterHandle,
    virtual_secs: GaugeHandle,
}

impl PhaseMetrics {
    fn new(tracer: &Tracer) -> Self {
        PhaseMetrics {
            evals: tracer.counter("gptune.core.evals"),
            retries: tracer.counter("gptune.core.retries"),
            crashed: tracer.counter("gptune.core.failures.crashed"),
            timed_out: tracer.counter("gptune.core.failures.timed_out"),
            invalid: tracer.counter("gptune.core.failures.invalid"),
            transient: tracer.counter("gptune.core.failures.transient"),
            virtual_secs: tracer.gauge("gptune.core.objective_virtual_secs"),
        }
    }
}

/// Thread-safe accumulator for [`PhaseStats`], publishing every phase
/// measurement to the tracer as a span and every count as a metric.
#[derive(Debug)]
pub struct PhaseTimer {
    inner: Mutex<PhaseStats>,
    tracer: Tracer,
    metrics: PhaseMetrics,
}

impl Default for PhaseTimer {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseTimer {
    /// Fresh timer with all counters at zero, publishing spans/metrics to
    /// the process-global tracer (a no-op while tracing is disabled).
    pub fn new() -> Self {
        Self::with_tracer(gptune_trace::global())
    }

    /// Fresh timer recording into a specific tracer (tests).
    pub fn with_tracer(tracer: Tracer) -> Self {
        let metrics = PhaseMetrics::new(&tracer);
        PhaseTimer {
            inner: Mutex::new(PhaseStats::default()),
            tracer,
            metrics,
        }
    }

    /// Times a closure under the given phase (wall clock).
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        self.time_inner(phase, None, f).0
    }

    /// Like [`PhaseTimer::time`] but also returns the measured duration —
    /// the per-iteration breakdown rows are built from these.
    pub fn time_measured<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> (R, Duration) {
        self.time_inner(phase, None, f)
    }

    /// Times one iteration's phase: the emitted `gptune.core.<phase>`
    /// span carries `iteration` as a field, so traces can be grouped per
    /// MLA iteration.
    pub fn time_iter<R>(
        &self,
        phase: Phase,
        iteration: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        self.time_inner(phase, Some(iteration), f)
    }

    fn time_inner<R>(
        &self,
        phase: Phase,
        iteration: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        {
            let mut s = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            match phase {
                Phase::Objective => s.objective_wall += dt,
                Phase::Modeling => s.modeling_wall += dt,
                Phase::Search => s.search_wall += dt,
            }
        }
        let fields = iteration
            .map(|it| vec![("iteration".into(), Field::U64(it))])
            .unwrap_or_default();
        // The span starts at `t0`, the instant `dt` runs from: a second
        // clock read for the start would shift the recorded end earlier
        // than the real one, ahead of spans that closed inside the phase.
        self.tracer.record_span(
            phase.span_name(),
            self.tracer.ns_since_epoch(t0),
            dt,
            fields,
        );
        (r, dt)
    }

    /// Records a simulated application run of `virtual_secs` seconds.
    pub fn add_objective_run(&self, virtual_secs: f64) {
        let v = virtual_secs.max(0.0);
        {
            let mut s = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            s.objective_virtual_secs += v;
            s.n_evals += 1;
        }
        self.metrics.evals.inc();
        self.metrics.virtual_secs.add(v);
    }

    /// Records a classified evaluation failure.
    pub fn add_failure(&self, kind: FailureKind) {
        {
            let mut s = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            match kind {
                FailureKind::Crashed => s.n_crashed += 1,
                FailureKind::TimedOut => s.n_timed_out += 1,
                FailureKind::Invalid => s.n_invalid += 1,
                FailureKind::Transient => s.n_transient += 1,
            }
        }
        match kind {
            FailureKind::Crashed => self.metrics.crashed.inc(),
            FailureKind::TimedOut => self.metrics.timed_out.inc(),
            FailureKind::Invalid => self.metrics.invalid.inc(),
            FailureKind::Transient => self.metrics.transient.inc(),
        }
    }

    /// Records `n` retry executions (attempts beyond the first).
    pub fn add_retries(&self, n: usize) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .n_retries += n;
        self.metrics.retries.add(n as u64);
    }

    /// Consistent point-in-time snapshot: one lock acquisition copies the
    /// whole [`PhaseStats`], so counters and durations can never be read
    /// torn across concurrently accumulating phases.
    pub fn snapshot(&self) -> PhaseStats {
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resets every counter (the authoritative stats only — tracer
    /// metrics are cumulative process-wide observability and keep
    /// counting).
    pub fn reset(&self) {
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner) = PhaseStats::default();
    }

    /// Overwrites the accumulated counters — used when resuming an
    /// interrupted run from a checkpoint, so the final `stats:` line
    /// covers the whole run rather than only the post-resume portion.
    /// Tracer metrics are not rewound: they describe this process.
    pub fn restore(&self, s: PhaseStats) {
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner) = s;
    }

    /// The tracer this timer publishes to.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_virtual_objective_time() {
        let t = PhaseTimer::new();
        t.add_objective_run(1.5);
        t.add_objective_run(2.5);
        let s = t.snapshot();
        assert_eq!(s.objective_virtual_secs, 4.0);
        assert_eq!(s.n_evals, 2);
    }

    #[test]
    fn negative_virtual_time_clamped() {
        let t = PhaseTimer::new();
        t.add_objective_run(-1.0);
        assert_eq!(t.snapshot().objective_virtual_secs, 0.0);
        assert_eq!(t.snapshot().n_evals, 1);
    }

    #[test]
    fn time_measures_wall_clock() {
        let t = PhaseTimer::new();
        let out = t.time(Phase::Modeling, || {
            std::thread::sleep(Duration::from_millis(20));
            42
        });
        assert_eq!(out, 42);
        let s = t.snapshot();
        assert!(s.modeling_wall >= Duration::from_millis(15));
        assert_eq!(s.search_wall, Duration::ZERO);
    }

    #[test]
    fn time_measured_returns_the_recorded_duration() {
        let t = PhaseTimer::new();
        let (out, dt) = t.time_measured(Phase::Search, || {
            std::thread::sleep(Duration::from_millis(10));
            7
        });
        assert_eq!(out, 7);
        assert_eq!(dt, t.snapshot().search_wall);
    }

    #[test]
    fn total_combines_phases() {
        let t = PhaseTimer::new();
        t.add_objective_run(10.0);
        t.time(Phase::Search, || {
            std::thread::sleep(Duration::from_millis(10))
        });
        let s = t.snapshot();
        assert!(s.total_secs() >= 10.0);
        assert!(s.total_secs() < 10.5);
    }

    #[test]
    fn reset_clears_everything() {
        let t = PhaseTimer::new();
        t.add_objective_run(3.0);
        t.time(Phase::Objective, || ());
        t.reset();
        assert_eq!(t.snapshot(), PhaseStats::default());
    }

    #[test]
    fn restore_overwrites_counters() {
        let t = PhaseTimer::new();
        t.add_objective_run(1.0);
        let saved = PhaseStats {
            objective_virtual_secs: 42.0,
            n_evals: 7,
            ..Default::default()
        };
        t.restore(saved);
        assert_eq!(t.snapshot(), saved);
        // Accumulation continues on top of the restored state.
        t.add_objective_run(1.0);
        assert_eq!(t.snapshot().n_evals, 8);
    }

    #[test]
    fn report_mentions_all_phases() {
        let t = PhaseTimer::new();
        t.add_objective_run(1.0);
        let r = t.snapshot().report();
        assert!(r.contains("objective"));
        assert!(r.contains("modeling"));
        assert!(r.contains("search"));
        assert!(r.contains("1 evals"));
    }

    #[test]
    fn failure_profile_appears_only_when_faults_happened() {
        let t = PhaseTimer::new();
        t.add_objective_run(1.0);
        assert!(!t.snapshot().report().contains("faults:"));
        t.add_failure(FailureKind::Crashed);
        t.add_failure(FailureKind::TimedOut);
        t.add_failure(FailureKind::TimedOut);
        t.add_retries(3);
        let s = t.snapshot();
        assert_eq!(s.n_crashed, 1);
        assert_eq!(s.n_timed_out, 2);
        assert_eq!(s.n_retries, 3);
        assert_eq!(s.n_failed(), 3);
        let r = s.report();
        assert!(
            r.contains("faults: 1 crashed, 2 timed-out, 0 invalid, 0 transient, 3 retries"),
            "{r}"
        );
    }

    #[test]
    fn concurrent_accumulation() {
        let t = std::sync::Arc::new(PhaseTimer::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = std::sync::Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    t.add_objective_run(0.01);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = t.snapshot();
        assert_eq!(s.n_evals, 800);
        assert!((s.objective_virtual_secs - 8.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_is_never_torn_under_concurrent_accumulation() {
        // add_objective_run updates two fields under one lock; a snapshot
        // taken concurrently must always see them in step (0.5 virtual
        // seconds per eval is exact in binary floating point).
        let t = std::sync::Arc::new(PhaseTimer::new());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Writers and reader start together, so the reader runs while the
        // writers accumulate even when the scheduler is busy.
        let start = std::sync::Arc::new(std::sync::Barrier::new(5));
        // Writers do half their adds and wait here for the reader's first
        // snapshot, so at least one is taken mid-accumulation even when
        // the reader is descheduled until the writers would have finished.
        let half = std::sync::Arc::new(std::sync::Barrier::new(5));
        let mut writers = Vec::new();
        for _ in 0..4 {
            let t = std::sync::Arc::clone(&t);
            let start = std::sync::Arc::clone(&start);
            let half = std::sync::Arc::clone(&half);
            writers.push(std::thread::spawn(move || {
                start.wait();
                for i in 0..2000 {
                    if i == 1000 {
                        half.wait();
                    }
                    t.add_objective_run(0.5);
                }
            }));
        }
        let reader = {
            let t = std::sync::Arc::clone(&t);
            let stop = std::sync::Arc::clone(&stop);
            let start = std::sync::Arc::clone(&start);
            let half = std::sync::Arc::clone(&half);
            std::thread::spawn(move || {
                start.wait();
                let mut s = t.snapshot();
                // Checked after the barrier: a torn snapshot fails the test
                // instead of leaving the writers waiting.
                half.wait();
                let mut checks = 0usize;
                loop {
                    assert_eq!(
                        s.objective_virtual_secs,
                        s.n_evals as f64 * 0.5,
                        "snapshot tore across paired fields"
                    );
                    checks += 1;
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break checks;
                    }
                    s = t.snapshot();
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let checks = reader.join().unwrap();
        assert!(checks > 0, "reader must observe in-flight snapshots");
        assert_eq!(t.snapshot().n_evals, 8000);
    }

    #[test]
    fn spans_and_counters_reproduce_the_snapshot() {
        let tracer = Tracer::ring(64);
        let t = PhaseTimer::with_tracer(tracer.clone());
        t.add_objective_run(1.5);
        t.add_objective_run(0.5);
        t.add_failure(FailureKind::TimedOut);
        t.add_failure(FailureKind::Crashed);
        t.add_retries(2);
        t.time(Phase::Modeling, || {
            std::thread::sleep(Duration::from_millis(5))
        });
        t.time(Phase::Modeling, || ());
        let (_, dt) = t.time_iter(Phase::Search, 3, || ());
        t.time(Phase::Objective, || ());
        assert!(dt < Duration::from_secs(1));
        let s = t.snapshot();
        let data = tracer.drain();
        // Each phase's spans sum to its wall exactly: one measurement
        // feeds both.
        let span_sum = |phase: Phase| {
            Duration::from_nanos(
                data.events
                    .iter()
                    .filter(|e| e.name == phase.span_name())
                    .map(|e| e.dur_ns().unwrap())
                    .sum(),
            )
        };
        assert_eq!(span_sum(Phase::Objective), s.objective_wall);
        assert_eq!(span_sum(Phase::Modeling), s.modeling_wall);
        assert_eq!(span_sum(Phase::Search), s.search_wall);
        assert!(s.modeling_wall >= Duration::from_millis(5));
        // The counters carry the snapshot's counts.
        let m = &data.metrics;
        let count = |v: Option<u64>| v.unwrap_or(0) as usize;
        assert_eq!(count(m.counter("gptune.core.evals")), s.n_evals);
        assert_eq!(count(m.counter("gptune.core.retries")), s.n_retries);
        assert_eq!(
            count(m.counter("gptune.core.failures.crashed")),
            s.n_crashed
        );
        assert_eq!(
            count(m.counter("gptune.core.failures.timed_out")),
            s.n_timed_out
        );
        assert_eq!(
            count(m.counter("gptune.core.failures.invalid")),
            s.n_invalid
        );
        assert_eq!(
            count(m.counter("gptune.core.failures.transient")),
            s.n_transient
        );
        assert_eq!(
            m.gauge("gptune.core.objective_virtual_secs"),
            Some(s.objective_virtual_secs)
        );
        // Phase spans carry the iteration tag.
        let search = data
            .events
            .iter()
            .find(|e| e.name == "gptune.core.search")
            .expect("search phase span recorded");
        assert_eq!(
            search.field("iteration").and_then(Field::as_u64),
            Some(3),
            "iteration tag on phase span"
        );
    }

    #[test]
    fn spans_inside_a_phase_never_end_after_it() {
        // Several threads on a small machine get preempted between clock
        // reads now and then; a phase span whose start and duration origin
        // were two reads could then record an end before its child's.
        let tracer = Tracer::ring(1 << 14);
        let timer = PhaseTimer::with_tracer(tracer.clone());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (timer, tracer) = (&timer, &tracer);
                s.spawn(move || {
                    for i in 0..4000u64 {
                        timer.time_iter(Phase::Search, i, || {
                            tracer.span("child").with("i", i).finish();
                        });
                    }
                });
            }
        });
        let data = tracer.drain();
        assert_eq!(data.dropped, 0);
        let mut phases = std::collections::BTreeMap::new();
        for e in data
            .events
            .iter()
            .filter(|e| e.name == "gptune.core.search")
        {
            let i = e.field("iteration").and_then(Field::as_u64).unwrap();
            phases.insert((e.track, i), (e.ts_ns, e.ts_ns + e.dur_ns().unwrap()));
        }
        let mut children = 0;
        for e in data.events.iter().filter(|e| e.name == "child") {
            let i = e.field("i").and_then(Field::as_u64).unwrap();
            let (p_start, p_end) = phases[&(e.track, i)];
            let end = e.ts_ns + e.dur_ns().unwrap();
            assert!(e.ts_ns >= p_start, "child {i} starts before its phase");
            assert!(
                end <= p_end,
                "child {i} ends {} ns after its phase",
                end - p_end
            );
            children += 1;
        }
        assert_eq!(children, 16_000);
    }

    #[test]
    fn disabled_tracer_timer_still_counts() {
        let t = PhaseTimer::with_tracer(Tracer::disabled());
        t.add_objective_run(2.0);
        let out = t.time(Phase::Modeling, || 5);
        assert_eq!(out, 5);
        let s = t.snapshot();
        assert_eq!(s.n_evals, 1);
        assert_eq!(s.objective_virtual_secs, 2.0);
    }
}
