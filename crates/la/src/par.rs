//! Std-only fork-join regions: the parallel substrate of the modeling and
//! search phases (paper Sec. 4 — L-BFGS restarts and per-task searches on
//! the spawned worker group).
//!
//! A *region* fans a fixed set of independent items out over
//! [`std::thread::scope`] threads and hands their results back in item
//! order, so every output is bit-identical to a sequential run.
//!
//! * The width of a region is a thread-local set by [`with_width`]; the
//!   tuners set it to their `model_workers` / `search_workers` around the
//!   modeling and search phases, like a `-np N` spawn. It is 1 outside any
//!   `with_width`, so a library call never spawns a thread unless a caller
//!   asked for workers.
//! * A region with width `w > 1` and `k > 1` items runs on `min(w, k)`
//!   threads: the caller plus `min(w, k) − 1` scoped threads.
//! * Threads running a region run any nested region inline.
//! * A panicking item resumes on the caller with its original payload.

use std::cell::Cell;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ScopedJoinHandle;

thread_local! {
    /// Width of the regions this thread starts (1 = run inline).
    static WIDTH: Cell<usize> = const { Cell::new(1) };
}

/// Sets this thread's width and restores the previous one on drop, so a
/// panic unwinding out of a region cannot leak a width.
struct WidthGuard(usize);

impl WidthGuard {
    fn set(width: usize) -> WidthGuard {
        WidthGuard(WIDTH.with(|w| w.replace(width.max(1))))
    }
}

impl Drop for WidthGuard {
    fn drop(&mut self) {
        WIDTH.with(|w| w.set(self.0));
    }
}

/// The width of regions started on this thread right now.
fn width() -> usize {
    WIDTH.with(Cell::get)
}

/// Runs `f` with this thread's region width set to `width` (clamped to at
/// least 1), restoring the previous width afterwards — also when `f`
/// panics.
pub fn with_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    let _restore = WidthGuard::set(width);
    f()
}

/// `(0..k).map(f).collect()`, spread over up to the caller's width of
/// threads (see [`with_width`]).
///
/// The threads pull item indices from one atomic counter, so items of
/// uneven cost (L-BFGS restarts that converge at different iterations)
/// balance out. Each result lands at its item's index.
pub fn map_indexed<R: Send>(k: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = width().min(k);
    if threads <= 1 {
        return (0..k).map(f).collect();
    }
    // Relaxed is enough: the counter only hands out indices, and the
    // results reach the caller through the joins.
    let next = AtomicUsize::new(0);
    let run = || {
        let _inline = WidthGuard::set(1);
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= k {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads).map(|_| s.spawn(run)).collect();
        let mut done = run();
        for part in join_all(handles) {
            done.extend(part);
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Joins every handle; the first worker panic resumes on the caller with
/// its original payload (after all threads have been joined).
fn join_all<R>(handles: Vec<ScopedJoinHandle<'_, R>>) -> Vec<R> {
    let mut out = Vec::with_capacity(handles.len());
    let mut first_panic = None;
    for h in handles {
        match h.join() {
            Ok(r) => out.push(r),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        panic::resume_unwind(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Condvar, Mutex};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// Makes region items wait for each other: [`Rendezvous::hold`]
    /// returns once `expect` distinct threads have called it (or after
    /// 10 s), so no thread can drain a region's queue before the others
    /// start and each thread ends up holding one item.
    struct Rendezvous {
        seen: Mutex<HashSet<ThreadId>>,
        arrived: Condvar,
        expect: usize,
    }

    impl Rendezvous {
        fn new(expect: usize) -> Rendezvous {
            Rendezvous {
                seen: Mutex::new(HashSet::new()),
                arrived: Condvar::new(),
                expect,
            }
        }

        fn hold(&self) {
            let mut ids = self.seen.lock().unwrap();
            ids.insert(thread::current().id());
            self.arrived.notify_all();
            let timeout = Duration::from_secs(10);
            drop(
                self.arrived
                    .wait_timeout_while(ids, timeout, |ids| ids.len() < self.expect)
                    .unwrap(),
            );
        }

        fn threads(&self) -> usize {
            self.seen.lock().unwrap().len()
        }
    }

    /// Distinct threads that ran a `k`-item region whose items wait for
    /// `expect` threads.
    fn region_threads(k: usize, expect: usize) -> usize {
        let meet = Rendezvous::new(expect);
        map_indexed(k, |_| meet.hold());
        meet.threads()
    }

    #[test]
    fn width_bounds_distinct_threads() {
        assert_eq!(width(), 1);
        assert_eq!(region_threads(8, 1), 1, "no region parallelism by default");
        assert_eq!(with_width(3, || region_threads(8, 3)), 3);
        assert_eq!(with_width(1, || region_threads(8, 1)), 1);
        assert_eq!(with_width(8, || region_threads(2, 2)), 2, "min(w, k)");
        assert_eq!(width(), 1, "width restored");
    }

    #[test]
    fn results_come_back_in_item_order() {
        let seq: Vec<u64> = (0..100u64).map(|i| i * i).collect();
        let par = with_width(4, || map_indexed(100, |i| (i as u64) * (i as u64)));
        assert_eq!(par, seq);
        assert!(with_width(4, || map_indexed(0, |i| i)).is_empty());
    }

    #[test]
    fn nested_regions_run_inline() {
        let caller = thread::current().id();
        let meet = Rendezvous::new(4);
        let inner: Vec<(ThreadId, usize, HashSet<ThreadId>)> = with_width(4, || {
            map_indexed(4, |_| {
                meet.hold();
                let nested = map_indexed(6, |_| thread::current().id());
                (
                    thread::current().id(),
                    width(),
                    nested.into_iter().collect(),
                )
            })
        });
        for (me, w, nested) in &inner {
            assert_eq!(*w, 1, "a region's threads run with width 1");
            assert_eq!(nested.len(), 1);
            assert!(nested.contains(me), "nested region ran on its own thread");
        }
        assert!(
            inner.iter().any(|(me, _, _)| *me == caller),
            "caller takes an item"
        );
        assert_eq!(
            with_width(4, width),
            4,
            "caller's width restored after the region"
        );
    }

    #[test]
    fn item_panic_resumes_with_original_payload() {
        let caller = thread::current().id();
        for on_caller in [true, false] {
            let meet = Rendezvous::new(3);
            let err = panic::catch_unwind(|| {
                with_width(3, || {
                    map_indexed(3, |i| {
                        meet.hold();
                        if (thread::current().id() == caller) == on_caller {
                            panic!("item failed (on caller: {on_caller})");
                        }
                        i
                    })
                })
            })
            .unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()));
            let want = format!("item failed (on caller: {on_caller})");
            assert_eq!(msg.as_deref(), Some(want.as_str()));
            assert_eq!(width(), 1, "width restored after unwinding");
        }
    }
}
