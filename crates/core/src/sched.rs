//! Scheduler substrate: a per-core sharded morsel pool and query
//! admission control.
//!
//! The original [`run_scan_parallel`](crate::run_scan_parallel) spawned a
//! fresh set of OS threads per scan. That is fine for one query at a time
//! and catastrophic for a server running hundreds of scans per second:
//! thread churn, no global cap on CPU oversubscription, and no way to say
//! *no* under overload. This module replaces it with two cooperating
//! pieces, modeled on the router → sharder → querier split of
//! production-grade engines:
//!
//! * [`ScanPool`] — a process-wide pool of persistent workers, one per
//!   core, each owning a sharded task queue with work stealing. Scans
//!   submit short-lived *worker loops* that drain a morsel cursor; the
//!   submitting thread participates too (caller-runs), so a scan always
//!   makes progress even when every pool worker is busy with other
//!   queries.
//! * [`AdmissionController`] — a configurable concurrency + byte budget
//!   with a bounded FIFO wait queue. Work that fits runs, work that can
//!   wait queues, and work beyond the bound is rejected with an explicit
//!   [`EngineError::Overloaded`] instead of piling up unboundedly.
//!
//! Both are deliberately engine-agnostic: the pool runs any `FnOnce`, the
//! controller admits any cost expressed in bytes, so the SQL server, the
//! benches and the library path all share one scheduler.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use crate::engine::EngineError;

/// A unit of pool work. Tasks are `'static`: scoped borrows enter the
/// pool only through [`ScanPool::scope_run`], which erases the lifetime
/// and re-establishes safety with a completion barrier.
type Task = Box<dyn FnOnce() + Send + 'static>;

struct ShardState {
    queue: VecDeque<Task>,
    shutdown: bool,
}

/// One per-worker task queue.
struct Shard {
    state: Mutex<ShardState>,
    /// Signalled when work arrives or shutdown begins.
    available: Condvar,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            state: Mutex::new(ShardState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn push(&self, task: Task) {
        self.lock().queue.push_back(task);
        self.available.notify_one();
    }

    /// Pop from the front (the owner's end).
    fn pop(&self) -> Option<Task> {
        self.lock().queue.pop_front()
    }

    /// Steal from the back (the thief's end), keeping the owner's FIFO
    /// head untouched as long as possible.
    fn steal(&self) -> Option<Task> {
        self.lock().queue.pop_back()
    }
}

/// A process-wide pool of persistent scan workers with per-core sharded
/// queues and work stealing.
///
/// Workers never block on scan results, only on empty queues — scans wait
/// for *their own* tasks via a completion barrier, so the pool cannot
/// deadlock on nested waits as long as tasks themselves never call
/// [`ScanPool::scope_run`] (morsel tasks are leaves by construction).
pub struct ScanPool {
    shards: Vec<Arc<Shard>>,
    /// Round-robin submission cursor.
    next: AtomicUsize,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ScanPool {
    /// A pool with `workers` persistent threads (min 1).
    pub fn new(workers: usize) -> ScanPool {
        let workers = workers.max(1);
        let shards: Vec<Arc<Shard>> = (0..workers).map(|_| Arc::new(Shard::new())).collect();
        let handles = (0..workers)
            .map(|i| {
                let mine = Arc::clone(&shards[i]);
                let others: Vec<Arc<Shard>> = (0..workers)
                    .filter(|&j| j != i)
                    .map(|j| Arc::clone(&shards[j]))
                    .collect();
                std::thread::Builder::new()
                    .name(format!("fts-scan-{i}"))
                    .spawn(move || worker_loop(&mine, &others))
                    .expect("spawn scan worker")
            })
            .collect();
        ScanPool {
            shards,
            next: AtomicUsize::new(0),
            workers: handles,
        }
    }

    /// The process-wide pool, sized by `FTS_POOL_WORKERS` or the number
    /// of available cores (capped at 64), created on first use.
    pub fn global() -> &'static ScanPool {
        static POOL: OnceLock<ScanPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let workers = std::env::var("FTS_POOL_WORKERS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(4)
                })
                .clamp(1, 64);
            ScanPool::new(workers)
        })
    }

    /// Number of persistent workers.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Run `f(0), …, f(tasks-1)` to completion, borrowing from the
    /// caller's scope. `f(0)` runs on the calling thread (caller-runs, so
    /// the scan progresses even on a saturated pool); the rest are
    /// sharded round-robin across the pool workers. Panics inside `f`
    /// are caught per task and re-raised on the caller once every task
    /// has finished, so borrowed data never outlives a running task.
    pub fn scope_run<'env, F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize) + Send + Sync + 'env,
    {
        if tasks == 0 {
            return;
        }
        if tasks == 1 {
            f(0);
            return;
        }
        let barrier = Arc::new(Completion::new(tasks - 1));
        {
            // Erase the closure's lifetime: the barrier wait below keeps
            // `f` (and everything it borrows) alive until every task ran.
            let f_ref: &(dyn Fn(usize) + Send + Sync) = &f;
            let f_static: &'static (dyn Fn(usize) + Send + Sync) =
                // SAFETY: `scope_run` does not return before
                // `barrier.wait()` observes that all submitted tasks have
                // completed (their panics captured), so no task can touch
                // `f` or its borrows after this stack frame unwinds.
                unsafe { std::mem::transmute(f_ref) };
            for i in 1..tasks {
                let barrier = Arc::clone(&barrier);
                let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
                self.shards[shard].push(Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| f_static(i)));
                    barrier.task_done(result.err());
                }));
            }
        }
        // The caller works too, then blocks until the pool finished.
        let own = catch_unwind(AssertUnwindSafe(|| f(0)));
        let pool_panic = barrier.wait();
        if let Err(panic) = own {
            resume_unwind(panic);
        }
        if let Some(panic) = pool_panic {
            resume_unwind(panic);
        }
    }
}

impl Drop for ScanPool {
    fn drop(&mut self) {
        for shard in &self.shards {
            shard.lock().shutdown = true;
            shard.available.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(mine: &Shard, others: &[Arc<Shard>]) {
    loop {
        // Own queue first, then steal.
        let task = mine.pop().or_else(|| others.iter().find_map(|s| s.steal()));
        match task {
            Some(task) => task(),
            None => {
                let guard = mine.lock();
                if guard.shutdown {
                    return;
                }
                if guard.queue.is_empty() {
                    // Timed wait so steals of work submitted to other
                    // shards are picked up even without a local notify.
                    let (guard, _) = mine
                        .available
                        .wait_timeout(guard, Duration::from_millis(1))
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    if guard.shutdown {
                        return;
                    }
                }
            }
        }
    }
}

/// Completion barrier for one [`ScanPool::scope_run`] call: counts tasks
/// down and carries the first captured panic payload back to the caller.
struct Completion {
    state: Mutex<CompletionState>,
    done: Condvar,
}

struct CompletionState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Completion {
    fn new(tasks: usize) -> Completion {
        Completion {
            state: Mutex::new(CompletionState {
                remaining: tasks,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn task_done(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut guard = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        guard.remaining -= 1;
        if guard.panic.is_none() {
            guard.panic = panic;
        }
        if guard.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut guard = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        while guard.remaining > 0 {
            guard = self
                .done
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        guard.panic.take()
    }
}

/// Budget knobs for [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Queries allowed to run simultaneously.
    pub max_concurrent: usize,
    /// Requests allowed to wait for a slot; one more is rejected.
    pub max_queued: usize,
    /// Total bytes the running queries may collectively touch
    /// (`u64::MAX` disables the byte budget). A single request whose
    /// declared cost exceeds this is rejected outright — it could never
    /// be admitted.
    pub max_bytes: u64,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_queued: 64,
            max_bytes: u64::MAX,
        }
    }
}

struct AdmState {
    running: usize,
    running_bytes: u64,
    /// FIFO tickets of the waiters, front is next to be admitted.
    waiting: VecDeque<u64>,
    next_ticket: u64,
}

/// Admission control with a bounded FIFO wait queue.
///
/// [`AdmissionController::admit`] either grants a [`Permit`] (possibly
/// after waiting in line), or fails fast with
/// [`EngineError::Overloaded`] when the wait queue is already full or the
/// request alone exceeds the byte budget. Permits release their share of
/// the budget on drop, waking the next waiter in FIFO order — so every
/// queued request is eventually admitted (no starvation) and the
/// concurrency/byte budget is never exceeded.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    state: Mutex<AdmState>,
    freed: Condvar,
}

impl AdmissionController {
    /// A controller enforcing `cfg`.
    pub fn new(cfg: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            cfg,
            state: Mutex::new(AdmState {
                running: 0,
                running_bytes: 0,
                waiting: VecDeque::new(),
                next_ticket: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// The configured budget.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// Currently admitted queries and queued waiters: `(running, queued)`.
    pub fn load(&self) -> (usize, usize) {
        let guard = self.lock();
        (guard.running, guard.waiting.len())
    }

    fn lock(&self) -> MutexGuard<'_, AdmState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn fits(&self, state: &AdmState, bytes: u64) -> bool {
        state.running < self.cfg.max_concurrent
            && state.running_bytes.saturating_add(bytes) <= self.cfg.max_bytes
    }

    fn grant(&self, state: &mut AdmState, bytes: u64) -> Permit<'_> {
        state.running += 1;
        state.running_bytes += bytes;
        Permit { ctrl: self, bytes }
    }

    /// The fast path: a permit only if nobody is in line and it fits now.
    fn grant_now(&self, state: &mut AdmState, bytes: u64) -> Option<Permit<'_>> {
        (state.waiting.is_empty() && self.fits(state, bytes)).then(|| self.grant(state, bytes))
    }

    /// Admit `bytes` only if it can run now, without waiting: nobody is in
    /// line (so FIFO order holds) and the budget fits. `None` otherwise.
    pub fn try_admit(&self, bytes: u64) -> Option<Permit<'_>> {
        self.grant_now(&mut self.lock(), bytes)
    }

    /// Admit work that will touch `bytes` bytes, waiting in FIFO order
    /// for budget if necessary. Returns the permit, or
    /// [`EngineError::Overloaded`] when the wait queue is full or the
    /// request can never fit.
    pub fn admit(&self, bytes: u64) -> Result<Permit<'_>, EngineError> {
        self.admit_tracked(bytes).map(|(permit, _)| permit)
    }

    /// [`AdmissionController::admit`], additionally reporting whether the
    /// request had to queue (`true`) or was admitted on the fast path
    /// (`false`) — feed for the server's admitted/queued telemetry.
    pub fn admit_tracked(&self, bytes: u64) -> Result<(Permit<'_>, bool), EngineError> {
        let mut guard = self.lock();
        if bytes > self.cfg.max_bytes {
            return Err(EngineError::Overloaded {
                running: guard.running,
                queued: guard.waiting.len(),
                oversized: Some((bytes, self.cfg.max_bytes)),
            });
        }
        if let Some(permit) = self.grant_now(&mut guard, bytes) {
            return Ok((permit, false));
        }
        if guard.waiting.len() >= self.cfg.max_queued {
            return Err(EngineError::Overloaded {
                running: guard.running,
                queued: guard.waiting.len(),
                oversized: None,
            });
        }
        let ticket = guard.next_ticket;
        guard.next_ticket += 1;
        guard.waiting.push_back(ticket);
        loop {
            if guard.waiting.front() == Some(&ticket) && self.fits(&guard, bytes) {
                guard.waiting.pop_front();
                let permit = self.grant(&mut guard, bytes);
                // The next waiter may also fit (e.g. byte budget with
                // room for two) — pass the wakeup along.
                self.freed.notify_all();
                return Ok((permit, true));
            }
            guard = self
                .freed
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    fn release(&self, bytes: u64) {
        let mut guard = self.lock();
        guard.running -= 1;
        guard.running_bytes -= bytes;
        drop(guard);
        self.freed.notify_all();
    }
}

/// One admitted query's share of the budget; released on drop.
pub struct Permit<'a> {
    ctrl: &'a AdmissionController,
    bytes: u64,
}

impl std::fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit")
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl Permit<'_> {
    /// The declared cost this permit holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.ctrl.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_all_tasks_with_borrows() {
        let pool = ScanPool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let sums: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        pool.scope_run(8, |i| {
            let chunk = data.len() / 8;
            let part: u64 = data[i * chunk..(i + 1) * chunk].iter().sum();
            sums[i].store(part, Ordering::Relaxed);
        });
        let total: u64 = sums.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 1000 * 999 / 2);
    }

    #[test]
    fn pool_propagates_task_panics() {
        let pool = ScanPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope_run(4, |i| {
                if i == 2 {
                    panic!("task 2 exploded");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives a panicking scope: workers keep serving.
        let ran = AtomicUsize::new(0);
        pool.scope_run(4, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn pool_handles_many_concurrent_scopes() {
        let pool = Arc::new(ScanPool::new(3));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for round in 0..10 {
                        let counter = AtomicUsize::new(0);
                        pool.scope_run(5, |_| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                        assert_eq!(counter.load(Ordering::Relaxed), 5, "t={t} round={round}");
                    }
                });
            }
        });
    }

    #[test]
    fn admission_grants_up_to_budget_and_rejects_past_queue() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            max_concurrent: 2,
            max_queued: 0,
            max_bytes: u64::MAX,
        });
        let p1 = ctrl.admit(1).unwrap();
        let p2 = ctrl.admit(1).unwrap();
        let err = ctrl.admit(1).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Overloaded {
                running: 2,
                queued: 0,
                oversized: None
            }
        ));
        drop(p1);
        let _p3 = ctrl.admit(1).unwrap();
        drop(p2);
        assert_eq!(ctrl.load().0, 1);
    }

    #[test]
    fn admission_rejects_oversized_outright() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            max_concurrent: 8,
            max_queued: 8,
            max_bytes: 100,
        });
        let err = ctrl.admit(101).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Overloaded {
                oversized: Some((101, 100)),
                ..
            }
        ));
        // A fitting request is unaffected.
        let _p = ctrl.admit(100).unwrap();
    }

    #[test]
    fn admission_never_exceeds_budget_under_contention() {
        let ctrl = Arc::new(AdmissionController::new(AdmissionConfig {
            max_concurrent: 3,
            max_queued: 64,
            max_bytes: u64::MAX,
        }));
        let peak = Arc::new(AtomicUsize::new(0));
        let current = Arc::new(AtomicUsize::new(0));
        let rejected = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..16 {
                let (ctrl, peak, current, rejected) = (
                    Arc::clone(&ctrl),
                    Arc::clone(&peak),
                    Arc::clone(&current),
                    Arc::clone(&rejected),
                );
                scope.spawn(move || {
                    for _ in 0..50 {
                        match ctrl.admit(1) {
                            Ok(_permit) => {
                                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                                peak.fetch_max(now, Ordering::SeqCst);
                                std::thread::yield_now();
                                current.fetch_sub(1, Ordering::SeqCst);
                            }
                            Err(EngineError::Overloaded { .. }) => {
                                rejected.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(other) => panic!("unexpected error {other:?}"),
                        }
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "budget exceeded: {}",
            peak.load(Ordering::SeqCst)
        );
        let (running, queued) = ctrl.load();
        assert_eq!((running, queued), (0, 0), "all permits released");
    }

    #[test]
    fn admission_byte_budget_gates_concurrency() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            max_concurrent: 10,
            max_queued: 10,
            max_bytes: 10,
        });
        let p1 = ctrl.admit(6).unwrap();
        // 6 + 6 > 10: the second must wait; with an empty queue slot it
        // queues, so probe via a thread plus release.
        let ctrl_ref = &ctrl;
        std::thread::scope(|scope| {
            let waiter = scope.spawn(move || {
                let _p = ctrl_ref.admit(6).unwrap();
            });
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(ctrl.load(), (1, 1), "second request is queued");
            drop(p1);
            waiter.join().unwrap();
        });
        assert_eq!(ctrl.load(), (0, 0));
    }

    #[test]
    fn try_admit_refuses_when_the_budget_is_full() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            max_concurrent: 1,
            max_queued: 4,
            max_bytes: 10,
        });
        let only = ctrl.try_admit(4).expect("an idle controller admits");
        assert_eq!(only.bytes(), 4);
        assert!(ctrl.try_admit(0).is_none(), "concurrency budget is full");
        drop(only);

        let bytes = AdmissionController::new(AdmissionConfig {
            max_concurrent: 8,
            ..ctrl.config()
        });
        let _held = bytes.try_admit(7).unwrap();
        assert!(bytes.try_admit(4).is_none(), "7 + 4 > 10 bytes");
        assert!(bytes.try_admit(3).is_some(), "7 + 3 fits");
        assert_eq!(bytes.load(), (1, 0), "a refused try_admit never queues");
    }

    #[test]
    fn try_admit_never_jumps_the_line() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            max_concurrent: 10,
            max_queued: 10,
            max_bytes: 10,
        });
        let p1 = ctrl.admit(6).unwrap();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| ctrl.admit(6).map(|p| p.bytes()));
            while ctrl.load().1 == 0 {
                std::thread::yield_now();
            }
            // 6 + 1 fits the budget, but a 6-byte request is first in line.
            assert!(ctrl.try_admit(1).is_none());
            drop(p1);
            assert_eq!(waiter.join().unwrap().unwrap(), 6);
        });
        assert!(ctrl.try_admit(1).is_some(), "the line is empty again");
    }

    #[test]
    fn try_admit_refuses_oversized_requests() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            max_concurrent: 8,
            max_queued: 8,
            max_bytes: 100,
        });
        assert!(ctrl.try_admit(101).is_none());
        assert_eq!(ctrl.load(), (0, 0));
        assert!(ctrl.try_admit(100).is_some());
    }
}
