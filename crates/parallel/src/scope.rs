//! Structured task scopes: spawn a dynamic number of borrow-scoped tasks
//! and wait for all of them.
//!
//! [`ThreadPool::scope`] complements the fixed-shape primitives
//! (`parallel_for`, `join`) for irregular task graphs — e.g. walking a
//! directory tree or processing a work queue whose length is discovered on
//! the fly.

use crate::pool::ThreadPool;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Counts outstanding scope tasks. The scope's `DrainGuard` polls
/// `is_idle` (helping run queued work meanwhile) rather than sleeping, so
/// nothing needs waking: the decrement in `task_done` must be a finishing
/// task's last touch of the latch, because the scope frame holding it may
/// die the moment the count reads zero.
pub(crate) struct ScopeLatch {
    outstanding: AtomicUsize,
}

impl ScopeLatch {
    fn new() -> Self {
        Self {
            outstanding: AtomicUsize::new(0),
        }
    }

    fn add_task(&self) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
    }

    fn task_done(&self) {
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }

    fn is_idle(&self) -> bool {
        self.outstanding.load(Ordering::Acquire) == 0
    }
}

/// A scope handed to the closure passed to [`ThreadPool::scope`].
///
/// Tasks spawned on the scope may borrow anything that outlives the
/// `scope` call; the call does not return until every task finished.
pub struct Scope<'scope> {
    pool: &'scope ThreadPool,
    latch: ScopeLatch,
    panicked: AtomicBool,
    // Invariant over 'scope, like std::thread::scope.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Queues `task` for execution on the pool (or inline on a 1-thread
    /// pool when the scope drains).
    ///
    /// Tasks run in no particular order. A panicking task is reported when
    /// the scope closes.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.latch.add_task();
        let boxed: Box<dyn FnOnce() + Send + 'scope> = Box::new(task);
        // This lifetime erasure (audited, kept deliberately) is the one
        // place `'scope` leaves the type system: the pool's job queue is
        // type-erased (`*const ()` + fn pointer), so the closure's borrow
        // lifetime cannot be carried through it — an `UnsafeCell` would not
        // help, and a transmute-free variant merely moves the same erasure
        // into the `Box::into_raw(..) as *const ()` cast below.
        // SAFETY: `ThreadPool::scope` does not return (even on unwind — see
        // `DrainGuard`) until the latch hits zero, so the task and all it
        // borrows (which outlives 'scope) stay valid for as long as the
        // queue may hold the job. The `scope` pointer cast in `ScopeJob`
        // below rides the same argument.
        let boxed: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(boxed) };
        let job = Box::new(ScopeJob {
            task: Some(boxed),
            scope: (self as *const Scope<'scope>).cast::<Scope<'static>>(),
        });
        self.pool
            .push_heap_job(Box::into_raw(job) as *const (), exec_scope_job);
    }

    /// Like [`spawn`](Self::spawn), but hands the task a reference to its
    /// scope so it can spawn further tasks — the shape of recursive or
    /// discovered-on-the-fly work (tree walks, frontier expansions).
    ///
    /// Under the work-stealing scheduler, tasks a pool worker spawns land
    /// on that worker's own deque (idle peers steal them), so nested
    /// spawning is also how a task graph grown from inside the pool gets
    /// the locality-preserving LIFO/steal-FIFO discipline rather than
    /// funnelling every task through the shared injector.
    pub fn spawn_nested<F>(&self, task: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        let scope_ptr = self as *const Scope<'scope> as usize;
        self.spawn(move || {
            // SAFETY: `ThreadPool::scope` holds the `Scope` frame open
            // until the latch drains (even on unwind), so the pointer is
            // valid for this task's whole run; every field reachable
            // through it is Sync.
            let scope = unsafe { &*(scope_ptr as *const Scope<'scope>) };
            task(scope);
        });
    }
}

struct ScopeJob {
    task: Option<Box<dyn FnOnce() + Send + 'static>>,
    scope: *const Scope<'static>,
}

/// # Safety
///
/// `ptr` must be a `ScopeJob` from `Box::into_raw`, executed exactly once,
/// whose scope is kept alive by its `DrainGuard` until the job completes.
unsafe fn exec_scope_job(ptr: *const ()) {
    // SAFETY: created by Box::into_raw in `spawn`, executed exactly once.
    let mut job = unsafe { Box::from_raw(ptr as *mut ScopeJob) };
    let task = job.task.take().expect("scope job executed twice");
    // SAFETY: the scope outlives all its jobs (its `DrainGuard` waits for
    // the latch to read zero before the frame returns).
    let scope = unsafe { &*job.scope };
    if catch_unwind(AssertUnwindSafe(task)).is_err() {
        scope.panicked.store(true, Ordering::Release);
    }
    // The last touch of the scope: once this decrement reads zero, the
    // frame that owns `scope` may return.
    scope.latch.task_done();
}

impl ThreadPool {
    /// Creates a task scope: `body` may spawn any number of tasks that
    /// borrow from the enclosing frame; `scope` returns once all of them
    /// (and `body`) finished.
    ///
    /// The calling thread helps execute queued work while waiting, so
    /// scopes make progress even on a single-thread pool.
    ///
    /// # Panics
    ///
    /// Panics after all tasks complete if any spawned task panicked.
    ///
    /// ```
    /// use ninja_parallel::ThreadPool;
    /// use std::sync::atomic::{AtomicU32, Ordering};
    ///
    /// let pool = ThreadPool::with_threads(2);
    /// let total = AtomicU32::new(0);
    /// pool.scope(|s| {
    ///     let total = &total;
    ///     for i in 1..=10 {
    ///         s.spawn(move || {
    ///             total.fetch_add(i, Ordering::Relaxed);
    ///         });
    ///     }
    /// });
    /// assert_eq!(total.load(Ordering::Relaxed), 55);
    /// ```
    pub fn scope<'scope, F, R>(&'scope self, body: F) -> R
    where
        F: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            pool: self,
            latch: ScopeLatch::new(),
            panicked: AtomicBool::new(false),
            _marker: PhantomData,
        };
        // Drain-on-unwind guard: even if `body` panics, every already
        // spawned task must finish before the frame dies.
        struct DrainGuard<'a, 'scope>(&'a Scope<'scope>);
        impl Drop for DrainGuard<'_, '_> {
            fn drop(&mut self) {
                while !self.0.latch.is_idle() {
                    if !self.0.pool.help_one() {
                        std::thread::yield_now();
                    }
                }
            }
        }
        let result = {
            let _guard = DrainGuard(&scope);
            body(&scope)
        };
        if scope.panicked.load(Ordering::Acquire) {
            panic!("a task spawned in ThreadPool::scope panicked");
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_all_tasks_with_borrows() {
        let pool = ThreadPool::with_threads(3);
        let data: Vec<usize> = (0..100).collect();
        let sum = AtomicUsize::new(0);
        pool.scope(|s| {
            for chunk in data.chunks(7) {
                s.spawn(|| {
                    // ORDERING: the scope's drain barrier orders this.
                    sum.fetch_add(chunk.iter().sum::<usize>(), Ordering::Relaxed);
                });
            }
        });
        // ORDERING: read after the scope drained; no writers left.
        assert_eq!(sum.load(Ordering::Relaxed), (0..100).sum());
    }

    #[test]
    fn scope_on_single_thread_pool_drains_inline() {
        let pool = ThreadPool::with_threads(1);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..25 {
                s.spawn(|| {
                    // ORDERING: the scope's drain barrier orders this.
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        // ORDERING: read after the scope drained; no writers left.
        assert_eq!(hits.load(Ordering::Relaxed), 25);
    }

    #[test]
    fn scope_returns_body_value() {
        let pool = ThreadPool::with_threads(2);
        let v = pool.scope(|_| 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn empty_scope_is_fine() {
        let pool = ThreadPool::with_threads(2);
        pool.scope(|_| {});
    }

    #[test]
    fn scope_task_panic_propagates_after_drain() {
        let pool = ThreadPool::with_threads(2);
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                let completed = &completed;
                for i in 0..10 {
                    s.spawn(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        // ORDERING: the scope's drain barrier orders this.
                        completed.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err());
        // ORDERING: read after the scope drained; no writers left.
        assert_eq!(
            completed.load(Ordering::Relaxed),
            9,
            "other tasks still ran"
        );
    }

    #[test]
    fn nested_spawns_grow_the_task_graph_from_inside_tasks() {
        let pool = ThreadPool::with_threads(3);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            let hits = &hits;
            // A three-level tree discovered on the fly: 1 root task spawns
            // 4 children, each child spawns 4 leaves.
            s.spawn_nested(move |s| {
                for _ in 0..4 {
                    s.spawn_nested(move |s| {
                        for _ in 0..4 {
                            s.spawn(move || {
                                // ORDERING: the scope's drain barrier
                                // orders this.
                                hits.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
        });
        // ORDERING: read after the scope drained; no writers left.
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn nested_scopes_work() {
        let pool = ThreadPool::with_threads(2);
        let n = AtomicUsize::new(0);
        pool.scope(|outer| {
            outer.spawn(|| {
                // ORDERING: the scope's drain barrier orders this.
                n.fetch_add(1, Ordering::Relaxed);
            });
            // A fresh inner scope on the same pool.
            pool.scope(|inner| {
                inner.spawn(|| {
                    // ORDERING: the scope's drain barrier orders this.
                    n.fetch_add(10, Ordering::Relaxed);
                });
            });
        });
        // ORDERING: read after both scopes drained; no writers left.
        assert_eq!(n.load(Ordering::Relaxed), 11);
    }
}
