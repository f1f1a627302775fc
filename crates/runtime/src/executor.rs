//! Master/worker executor mirroring GPTune's MPI spawning.
//!
//! Fault tolerance: every job runs inside `catch_unwind`, a master-side
//! watchdog enforces the [`FaultPolicy`] deadline (retiring hung workers
//! and spawning replacements), and transient faults are retried with
//! exponential backoff — see [`WorkerGroup::try_map`] and the
//! [`fault`](crate::fault) module.

use crate::fault::{EvalOutcome, FaultPolicy, GroupClosed, JobStatus, TransientSignal};
use std::cell::Cell;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Id of the worker running on this thread (`u64::MAX` off-worker).
    static WORKER_ID: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// The group's FIFO job queue. Every worker, watchdog replacements
/// included, pops from the same queue, which an `mpsc::Receiver` (not
/// `Clone`) cannot serve without a lock held across `recv`.
#[derive(Default)]
struct JobQueue {
    jobs: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    pending: VecDeque<Job>,
    /// Set by [`WorkerGroup::close`]: no more batches are accepted, and
    /// idle workers exit once `pending` drains.
    closed: bool,
}

impl JobQueue {
    /// Enqueues a whole batch, or none of it once the queue is closed.
    fn push_batch(&self, batch: Vec<Job>) -> Result<(), GroupClosed> {
        {
            let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            if jobs.closed {
                return Err(GroupClosed);
            }
            jobs.pending.extend(batch);
        }
        self.ready.notify_all();
        Ok(())
    }

    /// Blocks until a job is queued; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = jobs.pending.pop_front() {
                return Some(job);
            }
            if jobs.closed {
                return None;
            }
            jobs = self
                .ready
                .wait(jobs)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed
    }
}

/// State shared between the master handle and the worker threads.
struct GroupShared {
    queue: JobQueue,
    /// Workers retired by the watchdog after a deadline expiry. A hung
    /// worker cannot be killed, so it is abandoned: if it ever returns
    /// from the stuck job it sees its id here while *idle* and exits
    /// instead of taking more work.
    abandoned: Mutex<HashSet<u64>>,
    /// Monotonic worker-id source (replacements get fresh ids).
    next_worker_id: AtomicU64,
}

/// Messages flowing from the job wrapper back to the collecting master.
enum Msg<R> {
    /// Attempt `attempt` of job `job` started on worker `worker` — arms
    /// the watchdog deadline for this job.
    Started {
        job: usize,
        worker: u64,
        attempt: u32,
    },
    /// Job `job` is backing off before a retry — disarms its deadline
    /// so the sleep does not count as objective runtime.
    Retrying { job: usize },
    /// Job `job` finished with a classified outcome.
    Done { job: usize, outcome: EvalOutcome<R> },
}

/// A spawned group of workers connected to the master by a job queue and
/// per-batch result channels.
///
/// The master (the thread that called [`WorkerGroup::spawn`]) submits jobs
/// to the shared queue; workers execute them and the results flow back
/// through per-batch return channels — the thread analogue of the
/// `SpawnedComm` / `ParentComm` inter-communicators in the paper's Fig. 1.
///
/// ```
/// use gptune_runtime::WorkerGroup;
///
/// let group = WorkerGroup::spawn(4);
/// let squares = group.map((0..10).collect(), |i: i64| i * i);
/// assert_eq!(squares[3], 9);
/// group.shutdown();
/// ```
pub struct WorkerGroup {
    handles: Mutex<Vec<(u64, JoinHandle<()>)>>,
    shared: Arc<GroupShared>,
    size: usize,
}

impl WorkerGroup {
    /// Spawns `n_workers` workers (at least 1).
    pub fn spawn(n_workers: usize) -> WorkerGroup {
        let n = n_workers.max(1);
        let shared = Arc::new(GroupShared {
            queue: JobQueue::default(),
            abandoned: Mutex::new(HashSet::new()),
            next_worker_id: AtomicU64::new(0),
        });
        let group = WorkerGroup {
            handles: Mutex::new(Vec::with_capacity(n)),
            shared,
            size: n,
        };
        for _ in 0..n {
            group.spawn_worker();
        }
        group
    }

    /// Attaches one more worker to the job queue (initial spawn and
    /// watchdog replacement of a hung worker). Returns the new worker id.
    fn spawn_worker(&self) -> u64 {
        let id = self.shared.next_worker_id.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&self.shared);
        #[expect(
            clippy::expect_used,
            reason = "PANIC-SAFETY: OS thread spawn fails only on resource exhaustion; the \
                      executor cannot make progress without its workers, so failing fast is the \
                      only sound option"
        )]
        let handle = std::thread::Builder::new()
            .name(format!("gptune-worker-{id}"))
            .spawn(move || {
                WORKER_ID.with(|w| w.set(id));
                loop {
                    // Retirement is only checked while idle: a worker
                    // that already took a job always runs it, so no job
                    // is ever silently dropped.
                    if shared
                        .abandoned
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .remove(&id)
                    {
                        break;
                    }
                    // Workers block on the job queue until the master
                    // closes it (≈ MPI_Finalize on the parent).
                    match shared.queue.pop() {
                        Some(job) => job(),
                        None => break,
                    }
                }
            })
            .expect("failed to spawn worker thread");
        self.handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((id, handle));
        id
    }

    /// Number of workers in the group.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Evaluates `f` over `items` on the worker group with full fault
    /// isolation, preserving input order. Each job runs under
    /// `catch_unwind`; the master enforces `policy.deadline` and retires
    /// hung workers (spawning replacements); transient faults — signalled
    /// by [`JobStatus::Transient`] or a [`TransientSignal`] panic — are
    /// retried with exponential backoff. `f` receives the item and the
    /// 0-based attempt number.
    ///
    /// Returns [`GroupClosed`] if the group has been shut down.
    pub fn try_map<T, R, F>(
        &self,
        items: Vec<T>,
        policy: &FaultPolicy,
        f: F,
    ) -> Result<Vec<EvalOutcome<R>>, GroupClosed>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(&T, u32) -> JobStatus<R> + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return if self.shared.queue.is_closed() {
                Err(GroupClosed)
            } else {
                Ok(Vec::new())
            };
        }
        let f = Arc::new(f);
        let (res_tx, res_rx) = mpsc::channel::<Msg<R>>();
        // One global-tracer read per batch; each job gets a cheap clone so
        // worker-side spans keep recording even if the global is swapped
        // mid-batch.
        let tracer = gptune_trace::global();
        let batch: Vec<Job> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let f = Arc::clone(&f);
                let tx = res_tx.clone();
                let pol = policy.clone();
                let tr = tracer.clone();
                Box::new(move || run_job(i, &item, &*f, &pol, &tx, &tr)) as Job
            })
            .collect();
        drop(res_tx);
        self.shared.queue.push_batch(batch)?;
        Ok(self.collect(n, policy, res_rx))
    }

    /// Master-side collection loop: gathers `Done` messages, arms the
    /// watchdog from `Started`/`Retrying`, expires overdue jobs, and
    /// replaces their workers.
    fn collect<R>(
        &self,
        n: usize,
        policy: &FaultPolicy,
        res_rx: Receiver<Msg<R>>,
    ) -> Vec<EvalOutcome<R>> {
        let mut slots: Vec<Option<EvalOutcome<R>>> = (0..n).map(|_| None).collect();
        let mut done = 0usize;
        let tracer = gptune_trace::global();
        let timeouts = tracer.counter("gptune.runtime.timeouts");
        let replaced = tracer.counter("gptune.runtime.workers_replaced");
        // job index -> (armed-at, worker id, attempt) for running jobs.
        // BTreeMap, not HashMap: expiry scans iterate this map, and the
        // watchdog's replacement order must not depend on hash order.
        let mut running: BTreeMap<usize, (Instant, u64, u32)> = BTreeMap::new();
        while done < n {
            if let Some(deadline) = policy.deadline {
                let now = Instant::now();
                let expired: Vec<usize> = running
                    .iter()
                    .filter(|(_, (t0, _, _))| now.duration_since(*t0) >= deadline)
                    .map(|(j, _)| *j)
                    .collect();
                for j in expired {
                    if let Some((t0, worker, attempt)) = running.remove(&j) {
                        if let Some(slot @ None) = slots.get_mut(j) {
                            *slot = Some(EvalOutcome::TimedOut {
                                elapsed: now.duration_since(t0),
                                attempts: attempt + 1,
                            });
                            done += 1;
                        }
                        // The hung worker cannot be killed: retire it
                        // (it exits if it ever comes back) and restore
                        // capacity with a fresh worker.
                        self.shared
                            .abandoned
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .insert(worker);
                        let replacement = self.spawn_worker();
                        tracer
                            .instant("gptune.runtime.timeout")
                            .with("job", j)
                            .with("worker", worker)
                            .with("attempt", attempt)
                            .with("elapsed_ms", now.duration_since(t0).as_millis() as u64)
                            .emit();
                        timeouts.inc();
                        tracer
                            .instant("gptune.runtime.worker_replaced")
                            .with("retired", worker)
                            .with("replacement", replacement)
                            .emit();
                        replaced.inc();
                    }
                }
                if done >= n {
                    break;
                }
                let wait = running
                    .values()
                    .map(|(t0, _, _)| (*t0 + deadline).saturating_duration_since(now))
                    .min()
                    .unwrap_or(deadline)
                    .max(Duration::from_millis(1));
                match res_rx.recv_timeout(wait) {
                    Ok(msg) => self.handle_msg(msg, &mut slots, &mut done, &mut running),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => {
                        fill_lost(&mut slots, &mut done);
                    }
                }
            } else {
                match res_rx.recv() {
                    Ok(msg) => self.handle_msg(msg, &mut slots, &mut done, &mut running),
                    Err(_) => fill_lost(&mut slots, &mut done),
                }
            }
        }
        slots
            .into_iter()
            .map(|s| {
                s.unwrap_or(EvalOutcome::Crashed {
                    message: "job result lost".into(),
                    attempts: 1,
                    elapsed: Duration::ZERO,
                })
            })
            .collect()
    }

    fn handle_msg<R>(
        &self,
        msg: Msg<R>,
        slots: &mut [Option<EvalOutcome<R>>],
        done: &mut usize,
        running: &mut BTreeMap<usize, (Instant, u64, u32)>,
    ) {
        match msg {
            Msg::Started {
                job,
                worker,
                attempt,
            } => {
                // Ignore late starts of jobs the watchdog already expired
                // (and any out-of-range index from a confused worker).
                if slots.get(job).is_some_and(Option::is_none) {
                    running.insert(job, (Instant::now(), worker, attempt));
                }
            }
            Msg::Retrying { job } => {
                running.remove(&job);
            }
            Msg::Done { job, outcome } => {
                running.remove(&job);
                if let Some(slot @ None) = slots.get_mut(job) {
                    *slot = Some(outcome);
                    *done += 1;
                }
            }
        }
    }

    /// Evaluates `f` over `items` on the worker group, preserving input
    /// order in the returned vector. Blocks the master until the whole
    /// batch has been returned (the paper's "collect the returning values
    /// from the workers").
    ///
    /// Thin infallible wrapper over [`WorkerGroup::try_map`] with
    /// [`FaultPolicy::none`]: a panicking job re-raises the panic on the
    /// master (with the original message), but the worker group itself
    /// stays usable for subsequent batches.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        // `try_map` passes items by reference so retries can re-run
        // them; `map`'s `f` consumes its item, so stage each in a
        // take-once cell (no retries under `FaultPolicy::none`).
        let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
        #[expect(
            clippy::expect_used,
            clippy::panic,
            reason = "PANIC-SAFETY: `map` is the documented panic-propagating wrapper (its \
                      contract above): a failed job or a closed group re-raises on the master. \
                      Fault-tolerant callers use `try_map` instead"
        )]
        {
            let outcomes = self
                .try_map(cells, &FaultPolicy::none(), move |cell, _attempt| {
                    let item = cell
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take()
                        .expect("map job dispatched twice");
                    JobStatus::Ok(f(item))
                })
                .expect("worker group has shut down");
            outcomes
                .into_iter()
                .map(|o| match o {
                    EvalOutcome::Ok { value, .. } => value,
                    failed => panic!("worker job failed: {}", failed.describe()),
                })
                .collect()
        }
    }

    /// Closes the job queue: subsequent [`WorkerGroup::try_map`] calls
    /// return [`GroupClosed`] and idle workers exit once the queue
    /// drains. Idempotent.
    pub fn close(&self) {
        self.shared.queue.close();
    }

    /// Shuts the group down, joining all live workers. Workers retired
    /// by the watchdog (hung in an objective) are detached rather than
    /// joined, so shutdown never blocks on a hung evaluation.
    pub fn shutdown(self) {
        self.close();
        let abandoned = self
            .shared
            .abandoned
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let handles =
            std::mem::take(&mut *self.handles.lock().unwrap_or_else(PoisonError::into_inner));
        for (id, h) in handles {
            if abandoned.contains(&id) {
                continue;
            }
            let _ = h.join();
        }
    }
}

/// Dropping a group without [`WorkerGroup::shutdown`] closes its queue, so
/// idle workers exit instead of waiting on it forever.
impl Drop for WorkerGroup {
    fn drop(&mut self) {
        self.close();
    }
}

/// Fills every unfinished slot after a result-channel disconnect — jobs
/// were dropped unrun (the queue was torn down mid-batch), which must
/// not deadlock or panic the master.
fn fill_lost<R>(slots: &mut [Option<EvalOutcome<R>>], done: &mut usize) {
    for s in slots.iter_mut() {
        if s.is_none() {
            *s = Some(EvalOutcome::Crashed {
                message: "worker channel closed before the job returned".into(),
                attempts: 1,
                elapsed: Duration::ZERO,
            });
            *done += 1;
        }
    }
}

/// Worker-side wrapper around one job: panic isolation, transient-retry
/// loop with backoff, and watchdog bookkeeping messages.
fn run_job<T, R>(
    job: usize,
    item: &T,
    f: &(dyn Fn(&T, u32) -> JobStatus<R> + Send + Sync),
    policy: &FaultPolicy,
    tx: &Sender<Msg<R>>,
    tracer: &gptune_trace::Tracer,
) {
    let worker = WORKER_ID.with(|w| w.get());
    let jobs_metric = tracer.counter("gptune.runtime.jobs");
    let retries_metric = tracer.counter("gptune.runtime.retries");
    let crashes_metric = tracer.counter("gptune.runtime.crashes");
    let duration_metric = tracer.histogram("gptune.runtime.job_duration_us");
    let t0 = Instant::now();
    let mut attempt: u32 = 0;
    loop {
        // The master may have given up (deadline expiry); sends to a
        // closed result channel are ignored, never panics.
        let _ = tx.send(Msg::Started {
            job,
            worker,
            attempt,
        });
        jobs_metric.inc();
        // One span per attempt, on this worker's track: the timeline
        // shows each execution separately, with backoff gaps between.
        let span = tracer
            .span("gptune.runtime.job")
            .with("job", job)
            .with("worker", worker)
            .with("attempt", attempt);
        let a0 = Instant::now();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| f(item, attempt)));
        drop(span);
        // Per-attempt latency histogram: spans give the timeline, this
        // feeds the windowed p50/p99 the live dashboard reads.
        duration_metric.record(a0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        let attempts = attempt + 1;
        let elapsed = t0.elapsed();
        let transient: Option<String> = match &caught {
            Ok(JobStatus::Transient(msg)) => Some(msg.clone()),
            Err(payload) => payload
                .downcast_ref::<TransientSignal>()
                .map(|sig| sig.0.clone()),
            Ok(_) => None,
        };
        let outcome = if let Some(message) = transient {
            if attempt < policy.max_retries {
                let _ = tx.send(Msg::Retrying { job });
                tracer
                    .instant("gptune.runtime.retry")
                    .with("job", job)
                    .with("worker", worker)
                    .with("attempt", attempt)
                    .emit();
                retries_metric.inc();
                std::thread::sleep(policy.backoff_for(attempt));
                attempt += 1;
                continue;
            }
            EvalOutcome::Transient {
                message,
                attempts,
                elapsed,
            }
        } else {
            match caught {
                Ok(JobStatus::Ok(value)) => EvalOutcome::Ok { value, attempts },
                Ok(JobStatus::Invalid(value)) => EvalOutcome::Invalid { value, attempts },
                // Defensive: the transient pre-check above intercepts
                // this variant, but mapping it to Transient keeps run_job
                // total without an unreachable! in a panic-free tier.
                Ok(JobStatus::Transient(message)) => EvalOutcome::Transient {
                    message,
                    attempts,
                    elapsed,
                },
                Err(payload) => {
                    tracer
                        .instant("gptune.runtime.crash")
                        .with("job", job)
                        .with("worker", worker)
                        .with("attempt", attempt)
                        .emit();
                    crashes_metric.inc();
                    EvalOutcome::Crashed {
                        message: panic_message(payload.as_ref()),
                        attempts,
                        elapsed,
                    }
                }
            }
        };
        let _ = tx.send(Msg::Done { job, outcome });
        return;
    }
}

/// Renders a panic payload as a message string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A monotonically increasing counter shared across workers — convenience
/// for tests and for capping concurrent evaluations.
#[derive(Debug, Default)]
pub struct SharedCounter(AtomicUsize);

impl SharedCounter {
    /// New counter at zero.
    pub fn new() -> Self {
        SharedCounter(AtomicUsize::new(0))
    }

    /// Increments and returns the previous value.
    pub fn bump(&self) -> usize {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Current value.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FailureKind;
    use std::collections::HashSet;

    #[test]
    fn map_preserves_order() {
        let g = WorkerGroup::spawn(4);
        let out = g.map((0..100).collect(), |i: i32| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        g.shutdown();
    }

    #[test]
    fn map_actually_uses_multiple_workers() {
        let g = WorkerGroup::spawn(4);
        let names = Arc::new(Mutex::new(HashSet::new()));
        let names2 = Arc::clone(&names);
        let _ = g.map((0..64).collect::<Vec<i32>>(), move |_| {
            names2
                .lock()
                .unwrap()
                .insert(std::thread::current().name().unwrap_or("?").to_string());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let used = names.lock().unwrap().len();
        assert!(used >= 2, "only {used} workers used");
        g.shutdown();
    }

    #[test]
    fn empty_batch() {
        let g = WorkerGroup::spawn(2);
        let out: Vec<i32> = g.map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
        g.shutdown();
    }

    #[test]
    fn multiple_batches_sequentially() {
        let g = WorkerGroup::spawn(3);
        for batch in 0..5 {
            let out = g.map(vec![batch; 10], |x: i32| x + 1);
            assert!(out.iter().all(|&v| v == batch + 1));
        }
        g.shutdown();
    }

    #[test]
    fn try_map_classifies_panics_without_killing_the_group() {
        let g = WorkerGroup::spawn(2);
        let outcomes = g
            .try_map(
                (0..6i32).collect(),
                &FaultPolicy::none(),
                |&i: &i32, _attempt| {
                    if i == 3 {
                        panic!("injected crash on {i}");
                    }
                    JobStatus::Ok(i * 10)
                },
            )
            .unwrap();
        assert_eq!(outcomes.len(), 6);
        for (i, o) in outcomes.iter().enumerate() {
            if i == 3 {
                assert_eq!(o.failure_kind(), Some(FailureKind::Crashed));
                match o {
                    EvalOutcome::Crashed { message, .. } => {
                        assert!(message.contains("injected crash"), "{message}");
                    }
                    other => panic!("expected crash, got {}", other.describe()),
                }
            } else {
                assert_eq!(o.value(), Some(&((i as i32) * 10)));
            }
        }
        // Regression: the group stays fully usable after a crash.
        let out = g.map((0..10).collect(), |i: i32| i + 1);
        assert_eq!(out, (1..11).collect::<Vec<_>>());
        g.shutdown();
    }

    #[test]
    fn map_panics_on_master_but_group_survives() {
        // Regression for the old `expect("worker died before returning")`
        // master panic: the panic now carries the job's message and the
        // group remains usable for the next batch.
        let g = WorkerGroup::spawn(2);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            g.map(vec![1i32], |_| -> i32 { panic!("objective exploded") })
        }))
        .expect_err("map must propagate the job panic");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("objective exploded"), "{msg}");
        let out = g.map(vec![5i32, 6], |x| x * 2);
        assert_eq!(out, vec![10, 12]);
        g.shutdown();
    }

    #[test]
    fn try_map_after_close_is_typed_error() {
        let g = WorkerGroup::spawn(2);
        g.close();
        let res = g.try_map(vec![1i32], &FaultPolicy::none(), |&i, _| JobStatus::Ok(i));
        assert_eq!(res.unwrap_err(), GroupClosed);
        // Empty batches also report the closed group.
        let res = g.try_map(Vec::<i32>::new(), &FaultPolicy::none(), |&i, _| {
            JobStatus::Ok(i)
        });
        assert_eq!(res.unwrap_err(), GroupClosed);
        g.shutdown();
    }

    #[test]
    fn watchdog_times_out_hung_job_and_replaces_worker() {
        let g = WorkerGroup::spawn(2);
        let policy = FaultPolicy {
            deadline: Some(Duration::from_millis(100)),
            ..FaultPolicy::default()
        };
        let outcomes = g
            .try_map((0..4i32).collect(), &policy, |&i: &i32, _| {
                if i == 1 {
                    // Hang well past the deadline; the sleeping thread is
                    // retired, not joined, so the test does not wait it out.
                    std::thread::sleep(Duration::from_secs(2));
                }
                JobStatus::Ok(i)
            })
            .unwrap();
        assert_eq!(outcomes[1].failure_kind(), Some(FailureKind::TimedOut));
        for i in [0usize, 2, 3] {
            assert_eq!(
                outcomes[i].value(),
                Some(&(i as i32)),
                "job {i} must finish"
            );
        }
        // A replacement worker keeps the group at full strength.
        let out = g.map((0..8).collect(), |i: i32| i);
        assert_eq!(out.len(), 8);
        g.shutdown();
    }

    #[test]
    fn all_workers_hung_still_completes_batch() {
        // Both workers hang on their first job; replacements must pick up
        // the remaining queued jobs — no deadlock, no starvation.
        let g = WorkerGroup::spawn(2);
        let policy = FaultPolicy {
            deadline: Some(Duration::from_millis(80)),
            ..FaultPolicy::default()
        };
        let outcomes = g
            .try_map((0..6i32).collect(), &policy, |&i: &i32, _| {
                if i < 2 {
                    std::thread::sleep(Duration::from_secs(2));
                }
                JobStatus::Ok(i)
            })
            .unwrap();
        let timed_out = outcomes
            .iter()
            .filter(|o| o.failure_kind() == Some(FailureKind::TimedOut))
            .count();
        assert_eq!(timed_out, 2);
        for (i, o) in outcomes.iter().enumerate().skip(2) {
            assert_eq!(o.value(), Some(&(i as i32)));
        }
        g.shutdown();
    }

    #[test]
    fn transient_faults_retry_until_success() {
        let g = WorkerGroup::spawn(1);
        let policy = FaultPolicy {
            max_retries: 3,
            backoff_base: Duration::from_millis(1),
            ..FaultPolicy::default()
        };
        let outcomes = g
            .try_map(vec![0i32], &policy, |_, attempt| {
                if attempt < 2 {
                    JobStatus::Transient(format!("flaky attempt {attempt}"))
                } else {
                    JobStatus::Ok(attempt)
                }
            })
            .unwrap();
        match &outcomes[0] {
            EvalOutcome::Ok { value, attempts } => {
                assert_eq!(*value, 2);
                assert_eq!(*attempts, 3);
            }
            other => panic!("expected retried success, got {}", other.describe()),
        }
        g.shutdown();
    }

    #[test]
    fn transient_signal_panic_retries_then_exhausts() {
        let g = WorkerGroup::spawn(1);
        let policy = FaultPolicy {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            ..FaultPolicy::default()
        };
        let outcomes = g
            .try_map(vec![0i32], &policy, |_, _attempt| -> JobStatus<i32> {
                panic::panic_any(TransientSignal("node glitch".into()));
            })
            .unwrap();
        match &outcomes[0] {
            EvalOutcome::Transient {
                message, attempts, ..
            } => {
                assert_eq!(message, "node glitch");
                assert_eq!(*attempts, 3, "1 run + 2 retries");
            }
            other => panic!("expected exhausted transient, got {}", other.describe()),
        }
        g.shutdown();
    }

    #[test]
    fn invalid_is_not_retried_and_keeps_value() {
        let g = WorkerGroup::spawn(1);
        let runs = Arc::new(SharedCounter::new());
        let runs2 = Arc::clone(&runs);
        let policy = FaultPolicy {
            max_retries: 5,
            backoff_base: Duration::from_millis(1),
            ..FaultPolicy::default()
        };
        let outcomes = g
            .try_map(vec![0i32], &policy, move |_, _| {
                runs2.bump();
                JobStatus::Invalid(f64::INFINITY)
            })
            .unwrap();
        match &outcomes[0] {
            EvalOutcome::Invalid { value, attempts } => {
                assert!(value.is_infinite());
                assert_eq!(*attempts, 1);
            }
            other => panic!("expected invalid, got {}", other.describe()),
        }
        assert_eq!(runs.get(), 1, "invalid measurements are never retried");
        g.shutdown();
    }

    #[test]
    fn shutdown_after_hang_does_not_block() {
        let g = WorkerGroup::spawn(1);
        let policy = FaultPolicy {
            deadline: Some(Duration::from_millis(50)),
            ..FaultPolicy::default()
        };
        let t0 = Instant::now();
        let _ = g
            .try_map(vec![0i32], &policy, |_, _| {
                std::thread::sleep(Duration::from_secs(5));
                JobStatus::Ok(0)
            })
            .unwrap();
        g.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "shutdown must not join the hung worker"
        );
    }

    #[test]
    fn shared_counter() {
        let c = Arc::new(SharedCounter::new());
        let g = WorkerGroup::spawn(4);
        let c2 = Arc::clone(&c);
        let _ = g.map((0..50).collect::<Vec<i32>>(), move |_| {
            c2.bump();
        });
        assert_eq!(c.get(), 50);
        g.shutdown();
    }
}
