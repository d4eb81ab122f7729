//! A bounded worker pool with admission control.
//!
//! The data plane (`MATCH`, `EXPLAIN`, `CHAOS DELAY`) is executed by a fixed set
//! of worker threads fed from a bounded FIFO queue. Submission never
//! blocks: when the queue is full the job is rejected immediately and the
//! connection answers `BUSY` — fast rejection beats unbounded queueing for
//! tail latency (the client can retry with backoff; the server never
//! accumulates an invisible backlog).
//!
//! All of it is std-only: one `Mutex<VecDeque>` + `Condvar`. The queue
//! critical sections are push/pop only — job execution happens outside the
//! lock, so the mutex is never held across user work.
//!
//! ## Panic isolation
//!
//! A panicking job must not take a worker down with it: the pool would
//! silently shrink until every data-plane request hangs. Each worker thread
//! is therefore a *supervisor*: it runs the drain loop under
//! [`std::panic::catch_unwind`], and when a job panics it counts the panic
//! (optionally notifying a hook, which the server wires to its
//! `panics_caught` metric) and re-enters the drain loop on the same
//! thread — logically a worker respawn without paying for a new OS thread,
//! so one caught panic is one respawn and one counter says both. The queue
//! mutex is only ever held around push/pop (never across a job), so a job
//! panic cannot poison it.

use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of data-plane work. Boxed closure so the pool stays independent
/// of server internals; responses travel through the channel the closure
/// captures.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Callback invoked (from the worker thread) every time a job panic is
/// caught — the server points this at its metrics.
pub type PanicHook = Arc<dyn Fn() + Send + Sync + 'static>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled on push and on shutdown.
    available: Condvar,
    capacity: usize,
    /// Job panics caught by worker supervisors; each one restarted its
    /// worker's drain loop.
    panics: AtomicU64,
    /// Optional per-panic notification.
    on_panic: Option<PanicHook>,
}

/// Result of [`WorkerPool::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The job was queued and will run.
    Accepted,
    /// The queue was at capacity; the job was dropped (answer `BUSY`).
    Rejected,
}

/// A fixed-size thread pool over a bounded queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads servicing a queue of at most `queue_cap`
    /// pending jobs (in addition to the jobs currently executing).
    ///
    /// Fails (instead of panicking) when the OS refuses to spawn a thread;
    /// already-spawned workers are shut down before the error returns.
    pub fn new(workers: usize, queue_cap: usize) -> io::Result<Self> {
        WorkerPool::with_panic_hook(workers, queue_cap, None)
    }

    /// [`WorkerPool::new`] with a hook fired on every caught job panic.
    pub fn with_panic_hook(
        workers: usize,
        queue_cap: usize,
        on_panic: Option<PanicHook>,
    ) -> io::Result<Self> {
        assert!(workers >= 1, "need at least one worker");
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            available: Condvar::new(),
            capacity: queue_cap.max(1),
            panics: AtomicU64::new(0),
            on_panic,
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("ceci-pool-{i}"))
                .spawn(move || supervisor_loop(&worker_shared));
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // Structured teardown of what already exists.
                    let partial = WorkerPool {
                        shared,
                        workers: handles,
                    };
                    partial.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(WorkerPool {
            shared,
            workers: handles,
        })
    }

    /// Job panics caught (and survived) by the pool so far — equally, the
    /// worker drain loops restarted.
    pub fn panics_caught(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Admits `job` if the queue has room; otherwise rejects immediately.
    pub fn submit(&self, job: Job) -> Admission {
        submit_inner(&self.shared, job)
    }

    /// A cloneable submission handle sharing the queue (but not the join
    /// handles) — what connection threads hold.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops accepting work, drains queued jobs, and joins the workers.
    pub fn shutdown(mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool lock poisoned");
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Best-effort: signal shutdown so detached workers exit; join only
        // in explicit `shutdown()` (drop must not block response paths).
        if let Ok(mut q) = self.shared.queue.lock() {
            q.shutdown = true;
        }
        self.shared.available.notify_all();
    }
}

/// Submission façade over a live pool; cheap to clone, safe to hold after
/// the pool shuts down (submissions then reject).
#[derive(Clone)]
pub struct PoolHandle {
    shared: Arc<Shared>,
}

impl PoolHandle {
    /// Admits `job` if the queue has room; otherwise rejects immediately.
    pub fn submit(&self, job: Job) -> Admission {
        submit_inner(&self.shared, job)
    }
}

/// Exactly-once delivery of a data-plane job's response lines back to the
/// connection that submitted it — the pool side of the event loop's
/// completion hand-off (the lines are pushed on its completion queue and an
/// eventfd wakes the loop).
///
/// The job calls [`Completion::deliver`] with the response on its normal
/// path. If the job panics first, the guard is dropped during the unwind
/// (the supervisor catches the panic above it) and the `on_panic` closure
/// fires instead — so the waiting connection always hears *something* and
/// can never hang on a worker that died mid-request.
pub struct Completion {
    deliver: Option<Box<dyn FnOnce(Vec<String>) + Send>>,
    on_panic: Option<Box<dyn FnOnce() + Send>>,
}

impl Completion {
    /// Builds a guard from the normal-path delivery and the panic fallback.
    pub fn new(
        deliver: impl FnOnce(Vec<String>) + Send + 'static,
        on_panic: impl FnOnce() + Send + 'static,
    ) -> Self {
        Completion {
            deliver: Some(Box::new(deliver)),
            on_panic: Some(Box::new(on_panic)),
        }
    }

    /// Delivers the response lines (disarms the panic fallback).
    pub fn deliver(mut self, lines: Vec<String>) {
        self.on_panic = None;
        if let Some(f) = self.deliver.take() {
            f(lines);
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if let Some(f) = self.on_panic.take() {
            f();
        }
    }
}

fn submit_inner(shared: &Shared, job: Job) -> Admission {
    let mut q = shared.queue.lock().expect("pool lock poisoned");
    if q.shutdown || q.jobs.len() >= shared.capacity {
        return Admission::Rejected;
    }
    q.jobs.push_back(job);
    drop(q);
    shared.available.notify_one();
    Admission::Accepted
}

/// Runs [`worker_loop`] until clean shutdown, restarting it after every
/// caught job panic — the per-thread supervisor described in the module
/// docs.
fn supervisor_loop(shared: &Shared) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared))) {
            Ok(()) => return, // shutdown requested
            Err(_payload) => {
                shared.panics.fetch_add(1, Ordering::Relaxed);
                if let Some(hook) = &shared.on_panic {
                    hook();
                }
                // Re-enter the drain loop: the "respawned" worker.
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool lock poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.available.wait(q).expect("pool lock poisoned");
            }
        };
        job(); // outside the lock, panics caught by the supervisor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(2, 8).unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..8 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            let admitted = pool.submit(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            }));
            assert_eq!(admitted, Admission::Accepted);
        }
        for _ in 0..8 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        pool.shutdown();
    }

    #[test]
    fn rejects_when_queue_full() {
        let pool = WorkerPool::new(1, 1).unwrap();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        // Occupy the single worker...
        assert_eq!(
            pool.submit(Box::new(move || {
                entered_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            })),
            Admission::Accepted
        );
        entered_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // ...fill the queue...
        assert_eq!(pool.submit(Box::new(|| {})), Admission::Accepted);
        // ...and the next submission bounces without blocking.
        assert_eq!(pool.submit(Box::new(|| {})), Admission::Rejected);
        gate_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = WorkerPool::new(1, 16).unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            pool.submit(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let hook_fires = Arc::new(AtomicUsize::new(0));
        let hook_counter = Arc::clone(&hook_fires);
        let pool = WorkerPool::with_panic_hook(
            1,
            16,
            Some(Arc::new(move || {
                hook_counter.fetch_add(1, Ordering::SeqCst);
            })),
        )
        .unwrap();
        let (tx, rx) = mpsc::channel::<&'static str>();
        // One panicking job, then a normal one on the same (sole) worker.
        let t1 = tx.clone();
        pool.submit(Box::new(move || {
            // The sender dropping on unwind is the observable signal.
            let _keep = t1;
            panic!("injected job panic");
        }));
        pool.submit(Box::new(move || {
            tx.send("survived").unwrap();
        }));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "survived");
        assert_eq!(pool.panics_caught(), 1);
        assert_eq!(hook_fires.load(Ordering::SeqCst), 1);
        pool.shutdown();
    }

    #[test]
    fn respawned_worker_keeps_draining_many_panics() {
        let pool = WorkerPool::new(2, 64).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..20 {
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                if i % 3 == 0 {
                    panic!("chaos {i}");
                }
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown(); // drains everything despite 7 interleaved panics
        assert_eq!(done.load(Ordering::SeqCst), 13, "non-panicking jobs ran");
    }
}
