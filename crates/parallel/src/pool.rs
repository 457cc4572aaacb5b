//! A persistent worker thread pool with scoped fork-join.
//!
//! Workers pull boxed jobs from a shared queue guarded by a
//! `std::sync::Mutex`/`Condvar` pair (no external dependencies, so the
//! workspace builds offline). [`ThreadPool::wait`] provides a fork-join
//! barrier via an in-flight counter, so the pool can be reused across many
//! submission rounds without re-spawning threads (the reason to prefer it
//! over `std::thread::scope` in hot loops).
//!
//! Two submission APIs coexist:
//!
//! * [`ThreadPool::submit`] — fire-and-forget `'static` jobs;
//! * [`ThreadPool::scope`] — structured fork-join over **borrowed** data:
//!   jobs spawned through a [`Scope`] may capture references to the
//!   caller's stack, because `scope` does not return until every spawned
//!   job has finished. [`ThreadPool::parallel_map`] builds on it to map a
//!   slice through the pool preserving index order — the primitive the
//!   experiment engine in `ghr-core` fans its grids with.
//!
//! Threads that block in `Scope::wait_all` *help*: they drain queued jobs
//! while waiting, so nested scopes (a pooled job opening its own scope)
//! cannot deadlock even on a one-worker pool.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    queue: VecDeque<Job>,
    /// Jobs queued or currently running.
    in_flight: usize,
    /// Jobs whose panic the pool contained (scope jobs catch their own).
    panicked: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is queued or the pool shuts down.
    job_cv: Condvar,
    /// Signalled when `in_flight` drops to zero.
    idle_cv: Condvar,
}

impl Shared {
    /// Jobs never run under the lock, but a panicking assertion elsewhere
    /// must not cascade into every later lock: ignore poisoning.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Run one job outside the lock and retire it.
    fn run_job(&self, job: Job) {
        // A panicking job must not wedge the pool: the in-flight counter
        // is decremented either way and the panic is contained to the job.
        let panicked = catch_unwind(AssertUnwindSafe(job)).is_err();
        let mut s = self.lock();
        if panicked {
            s.panicked += 1;
        }
        s.in_flight -= 1;
        if s.in_flight == 0 {
            self.idle_cv.notify_all();
        }
    }
}

/// A fixed-size pool of worker threads.
pub struct ThreadPool {
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "threads must be > 0");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                in_flight: 0,
                panicked: 0,
                shutdown: false,
            }),
            job_cv: Condvar::new(),
            idle_cv: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ghr-worker-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let mut s = shared.lock();
                            loop {
                                if let Some(job) = s.queue.pop_front() {
                                    break job;
                                }
                                if s.shutdown {
                                    return;
                                }
                                s = shared
                                    .job_cv
                                    .wait(s)
                                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                            }
                        };
                        shared.run_job(job);
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool { workers, shared }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submit one job for asynchronous execution.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.submit_boxed(Box::new(job));
    }

    fn submit_boxed(&self, job: Job) {
        let mut s = self.shared.lock();
        assert!(!s.shutdown, "pool is live");
        s.queue.push_back(job);
        s.in_flight += 1;
        drop(s);
        self.shared.job_cv.notify_one();
    }

    /// Pop and run one queued job on the calling thread. Returns `false`
    /// if the queue was empty. Used by waiting scopes to help out.
    fn try_run_one(&self) -> bool {
        let job = self.shared.lock().queue.pop_front();
        match job {
            Some(job) => {
                self.shared.run_job(job);
                true
            }
            None => false,
        }
    }

    /// Block until every submitted job has finished.
    pub fn wait(&self) {
        let mut s = self.shared.lock();
        while s.in_flight != 0 {
            s = self
                .shared
                .idle_cv
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Jobs currently queued or running.
    pub fn in_flight(&self) -> usize {
        self.shared.lock().in_flight
    }

    /// Jobs that panicked (contained by the pool; workers keep running).
    /// Jobs spawned through a [`Scope`] catch their own panics and re-raise
    /// them from [`ThreadPool::scope`], so they are not counted here.
    pub fn panicked_jobs(&self) -> usize {
        self.shared.lock().panicked
    }

    /// Structured fork-join over borrowed data.
    ///
    /// The closure receives a [`Scope`] whose [`spawn`](Scope::spawn)ed
    /// jobs may borrow from the enclosing stack frame: `scope` does not
    /// return (or unwind) before every spawned job has completed. If any
    /// spawned job panics, the first panic payload is re-raised here after
    /// the remaining jobs finish.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        match self.try_scope(f) {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Like [`ThreadPool::scope`], but a panic — in a spawned job or in the
    /// closure itself — is returned as its payload instead of re-raised, so
    /// the caller can convert a poisoned worker into an error value.
    /// Borrowed data is still drained before returning either way.
    pub fn try_scope<'env, R>(
        &self,
        f: impl FnOnce(&Scope<'_, 'env>) -> R,
    ) -> Result<R, Box<dyn std::any::Any + Send>> {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                done_cv: Condvar::new(),
                panic: Mutex::new(None),
            }),
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Drain unconditionally — even when `f` itself panicked, borrowed
        // data must outlive every spawned job.
        scope.wait_all();
        if let Some(payload) = scope.take_panic() {
            return Err(payload);
        }
        result
    }

    /// Map `items` through the pool, preserving index order.
    ///
    /// Each item becomes one pooled job (experiment-grid points are
    /// coarse-grained, so per-item jobs give the best load balance).
    /// `f` may borrow from the caller; results are written into per-index
    /// slots, so the output order is deterministic regardless of worker
    /// scheduling. Panics in `f` propagate after all jobs finish.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        match self.try_parallel_map(items, f) {
            Ok(out) => out,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Like [`ThreadPool::parallel_map`], but a panicking job yields
    /// `Err(payload)` instead of re-raising, so callers can degrade a
    /// poisoned worker into an error value. On `Err` every non-panicking
    /// job has still run to completion (structured join, no cancellation).
    pub fn try_parallel_map<T, R, F>(
        &self,
        items: &[T],
        f: F,
    ) -> Result<Vec<R>, Box<dyn std::any::Any + Send>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(items.len(), || None);
        {
            let f = &f;
            self.try_scope(|s| {
                for (item, slot) in items.iter().zip(slots.iter_mut()) {
                    s.spawn(move || *slot = Some(f(item)));
                }
            })?;
        }
        let mut out = Vec::with_capacity(items.len());
        for slot in slots {
            match slot {
                Some(r) => out.push(r),
                // Unreachable in practice: the scope drained every job and
                // no panic was reported. Surface it as a payload anyway
                // rather than aborting the caller.
                None => return Err(Box::new("parallel_map slot left empty")),
            }
        }
        Ok(out)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Workers drain outstanding jobs (pop is tried before the shutdown
        // check) and exit once the queue is empty.
        self.shared.lock().shutdown = true;
        self.shared.job_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

struct ScopeState {
    /// Spawned-but-unfinished jobs of this scope.
    pending: Mutex<usize>,
    done_cv: Condvar,
    /// First panic payload raised by a job of this scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Handle for spawning borrowed-data jobs inside [`ThreadPool::scope`].
///
/// `'env` is the lifetime of data the jobs may borrow; it is invariant
/// (like `std::thread::Scope`) so a scope cannot be smuggled into a
/// longer-lived context.
pub struct Scope<'pool, 'env> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Spawn a job that may borrow data outliving the scope.
    pub fn spawn<F: FnOnce() + Send + 'env>(&self, f: F) {
        *lock(&self.state.pending) += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = lock(&state.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut pending = lock(&state.pending);
            *pending -= 1;
            if *pending == 0 {
                state.done_cv.notify_all();
            }
        });
        // SAFETY: the job only borrows data for 'env. `ThreadPool::scope`
        // never returns (or unwinds) before `wait_all` has observed every
        // spawned job finished, so the erased borrows cannot dangle. The
        // queue may hold the job longer only if the pool itself outlives
        // the scope *and* the job, which `wait_all` rules out.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        self.pool.submit_boxed(job);
    }

    /// Block until every job spawned on this scope has finished, running
    /// queued pool jobs on the calling thread while waiting (so nested
    /// scopes make progress even on a single-worker pool).
    fn wait_all(&self) {
        loop {
            if *lock(&self.state.pending) == 0 {
                return;
            }
            if !self.pool.try_run_one() {
                let pending = lock(&self.state.pending);
                if *pending == 0 {
                    return;
                }
                // Timed wait: the queue may refill with jobs we can help
                // with (nested scopes) without `done_cv` being signalled.
                let _ = self
                    .state
                    .done_cv
                    .wait_timeout(pending, Duration::from_millis(1));
            }
        }
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        lock(&self.state.panic).take()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn wait_on_idle_pool_returns_immediately() {
        let pool = ThreadPool::new(2);
        pool.wait();
    }

    #[test]
    fn pool_is_reusable_across_rounds() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        for round in 1..=5u64 {
            for _ in 0..10 {
                let c = Arc::clone(&counter);
                pool.submit(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.wait();
            assert_eq!(counter.load(Ordering::Relaxed), round * 10);
        }
    }

    #[test]
    fn drop_drains_outstanding_jobs() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..100 {
                let c = Arc::clone(&counter);
                pool.submit(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            // No explicit wait: Drop must join after draining.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    #[should_panic(expected = "threads must be > 0")]
    fn zero_threads_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn panicking_jobs_do_not_wedge_the_pool() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..50 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                if i % 10 == 0 {
                    panic!("injected failure {i}");
                }
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Must return (not hang) despite the 5 panicking jobs.
        pool.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 45);
        assert_eq!(pool.panicked_jobs(), 5);
        // Workers are still alive and usable.
        let c = Arc::clone(&counter);
        pool.submit(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 46);
    }

    #[test]
    fn threads_reports_size() {
        assert_eq!(ThreadPool::new(7).threads(), 7);
    }

    // ------------------------------------------------------------------
    // Scoped fork-join
    // ------------------------------------------------------------------

    #[test]
    fn scope_jobs_borrow_stack_data() {
        let pool = ThreadPool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let partials: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        pool.scope(|s| {
            for (i, chunk) in data.chunks(125).enumerate() {
                let partials = &partials;
                s.spawn(move || {
                    partials[i].store(chunk.iter().sum(), Ordering::Relaxed);
                });
            }
        });
        let total: u64 = partials.iter().map(|p| p.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 1000 * 999 / 2);
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPool::new(2);
        let out = pool.scope(|s| {
            s.spawn(|| {});
            42
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn scope_with_no_spawns_is_fine() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.scope(|_| 7), 7);
    }

    #[test]
    fn scope_propagates_job_panics() {
        let pool = ThreadPool::new(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..10 {
                    let finished = Arc::clone(&finished);
                    s.spawn(move || {
                        if i == 3 {
                            panic!("scope job failure");
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "scope must re-raise the job panic");
        // Every non-panicking job still ran to completion before the
        // panic was re-raised (structured join, no cancellation).
        assert_eq!(finished.load(Ordering::Relaxed), 9);
        // Scope-contained panics are not pool-level panics.
        assert_eq!(pool.panicked_jobs(), 0);
        // The pool remains usable.
        assert_eq!(pool.parallel_map(&[1, 2, 3], |x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // One worker: the outer scope job blocks in its own inner scope,
        // which can only finish because waiters help run queued jobs.
        let pool = Arc::new(ThreadPool::new(1));
        let sum = Arc::new(AtomicU64::new(0));
        pool.scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let sum = Arc::clone(&sum);
                s.spawn(move || {
                    pool.scope(|inner| {
                        for j in 0..8u64 {
                            let sum = Arc::clone(&sum);
                            inner.spawn(move || {
                                sum.fetch_add(j, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4 * 28);
    }

    #[test]
    fn try_parallel_map_returns_payload_instead_of_panicking() {
        let pool = ThreadPool::new(2);
        let items: Vec<u64> = (0..16).collect();
        let result = pool.try_parallel_map(&items, |&x| {
            if x == 7 {
                panic!("poisoned worker {x}");
            }
            x * 2
        });
        let payload = result.expect_err("panic must surface as Err");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("poisoned worker"), "{msg:?}");
        // The pool is healthy afterwards.
        assert_eq!(
            pool.try_parallel_map(&items, |&x| x + 1).unwrap(),
            (1..=16).collect::<Vec<_>>()
        );
    }

    #[test]
    fn try_scope_reports_closure_panic_as_payload() {
        let pool = ThreadPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let r: Result<(), _> = pool.try_scope(|s| {
            let ran = Arc::clone(&ran);
            s.spawn(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            panic!("closure failure");
        });
        assert!(r.is_err());
        // The spawned job still drained before try_scope returned.
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let pool = ThreadPool::new(8);
        let items: Vec<u64> = (0..200).collect();
        let out = pool.parallel_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_borrows_captured_state() {
        let pool = ThreadPool::new(3);
        let offset = 100u64;
        let items = [1u64, 2, 3];
        let out = pool.parallel_map(&items, |&x| x + offset);
        assert_eq!(out, vec![101, 102, 103]);
    }

    #[test]
    fn parallel_map_empty_slice() {
        let pool = ThreadPool::new(2);
        let out: Vec<u64> = pool.parallel_map(&[], |_: &u64| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn scope_is_reusable_and_interleaves_with_submit() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..3 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1000, Ordering::Relaxed);
            });
            pool.scope(|s| {
                for _ in 0..10 {
                    let c = &counter;
                    s.spawn(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        pool.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 3030);
    }
}
