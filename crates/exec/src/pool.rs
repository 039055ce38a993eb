//! A persistent worker pool with individually awaitable job handles and
//! a bounded queue.
//!
//! [`run_jobs`](crate::run_jobs) is the sweep engine: it takes a whole
//! job list up front, fans it out on scoped threads and joins. A
//! long-lived server has the opposite shape — jobs arrive one at a time,
//! each caller wants to await *its* result, and when the backlog grows
//! the right answer is an explicit "busy" to the caller rather than an
//! unbounded queue. [`WorkerPool`] provides that shape:
//!
//! - **Bounded admission.** [`WorkerPool::submit`] refuses work with
//!   [`SubmitError::Busy`] once `queue_depth` jobs are waiting, so
//!   callers can shed load instead of letting latency grow without
//!   bound.
//! - **Individually awaitable handles.** Each accepted job returns a
//!   [`JobHandle`]; [`JobHandle::wait`] blocks only on that job.
//! - **Worker-side completion.** [`WorkerPool::submit_then`] hands the
//!   result to a callback on the worker instead, so a caller that only
//!   reacts to completion needs no thread of its own to wait on a
//!   handle. [`WorkerPool::submit`] is built on it: one job path.
//! - **Panic isolation.** Jobs run under `catch_unwind`; a panicking job
//!   resolves its own handle to [`JobPanic`] and the worker lives on.
//! - **Worker supervision.** A worker thread that dies anyway (the
//!   [`KillWorker`](crate::KillWorker) sentinel, or a panic in the
//!   pool's own bookkeeping) is detected by a drop guard on the dying
//!   thread, which repairs the in-flight accounting and spawns a
//!   replacement. Restarts are rate-limited by a
//!   [`RestartTracker`](powerchop_resilience::RestartTracker): past the
//!   storm threshold the pool latches [`WorkerPool::gave_up`] and sheds
//!   new submissions with [`SubmitError::Unavailable`] — but keeps
//!   respawning, so handles for already-queued jobs still resolve.
//! - **Graceful drain.** Dropping (or [`WorkerPool::close`]-ing) the
//!   pool stops admission, runs everything already queued, and joins
//!   the workers; [`WorkerPool::drain`] waits for idleness without
//!   tearing the pool down.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use powerchop_resilience::{RestartPolicy, RestartTracker};

use crate::JobPanic;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`WorkerPool::submit`] refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full. This is deliberate backpressure: the
    /// caller should shed the request (HTTP 429 style) or retry later.
    Busy {
        /// The queue capacity that was exhausted.
        queue_depth: usize,
    },
    /// The pool is draining and accepts no new work.
    Closed,
    /// Workers are crash-looping past the restart-storm threshold; the
    /// pool sheds new work (HTTP 503 style) instead of feeding the loop.
    Unavailable,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy { queue_depth } => {
                write!(f, "job queue is full ({queue_depth} waiting)")
            }
            SubmitError::Closed => f.write_str("pool is draining and accepts no new jobs"),
            SubmitError::Unavailable => {
                f.write_str("workers are restarting faster than the storm threshold allows")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Locks a mutex, recovering the guard from a poisoned lock (jobs catch
/// their own panics, so poison here only means a panic mid-bookkeeping;
/// the protected state is still a plain queue and counters).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait_on<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

struct PoolState {
    queue: VecDeque<Job>,
    open: bool,
    /// Jobs currently executing on a worker.
    active: usize,
    /// Submission sequence number, used as the [`JobPanic`] index.
    submitted: u64,
    /// Worker threads currently running their loop.
    live_workers: usize,
    /// Worker threads respawned after a death (lifetime count).
    respawns: u64,
    /// Latched once the restart tracker declares a storm.
    gave_up: bool,
    /// Join handles for respawned workers, joined at shutdown.
    replacements: Vec<std::thread::JoinHandle<()>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job is queued or the pool closes.
    work_ready: Condvar,
    /// Signalled when a worker finishes a job (for [`WorkerPool::drain`]).
    job_done: Condvar,
    /// Zero point of the supervision clock (restart-window accounting).
    epoch: Instant,
    /// Restart-rate accounting for the supervisor.
    restarts: Mutex<RestartTracker>,
}

/// A fixed set of worker threads consuming a bounded job queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    queue_depth: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.queue_depth)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns `workers` threads behind a queue holding at most
    /// `queue_depth` waiting jobs, supervised under the default
    /// [`RestartPolicy`]. Both sizes are clamped to at least 1 — a
    /// zero-worker pool would deadlock every submission and a
    /// zero-depth queue could accept nothing.
    #[must_use]
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        WorkerPool::with_restart_policy(workers, queue_depth, RestartPolicy::default())
    }

    /// [`WorkerPool::new`] with an explicit restart-rate policy for the
    /// worker supervisor.
    #[must_use]
    pub fn with_restart_policy(workers: usize, queue_depth: usize, policy: RestartPolicy) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                open: true,
                active: 0,
                submitted: 0,
                live_workers: workers,
                respawns: 0,
                gave_up: false,
                replacements: Vec::new(),
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            epoch: Instant::now(),
            restarts: Mutex::new(RestartTracker::new(policy)),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
            queue_depth: queue_depth.max(1),
        }
    }

    /// Submits one job and returns a handle to await its result.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when the queue already holds `queue_depth`
    /// waiting jobs, [`SubmitError::Closed`] when the pool is draining.
    pub fn submit<T, F>(&self, job: F) -> Result<JobHandle<T>, SubmitError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let slot = Arc::new(Slot {
            cell: Mutex::new(None),
            done: Condvar::new(),
        });
        let out = Arc::clone(&slot);
        self.submit_then(job, move |result| {
            *lock(&out.cell) = Some(result);
            out.done.notify_all();
        })?;
        Ok(JobHandle { slot })
    }

    /// Submits one job whose result — its value, or the panic it raised
    /// (with the submission sequence number as the index) — is handed
    /// to `on_done` on the worker, right after the job's `catch_unwind`.
    /// A [`KillWorker`](crate::KillWorker) payload is re-raised only
    /// after `on_done` returns, so the affected caller gets its typed
    /// error no matter what happens to the worker thread next. A panic
    /// inside `on_done` itself kills the worker, which is respawned.
    ///
    /// # Errors
    ///
    /// As [`WorkerPool::submit`]; a refused job and its `on_done` are
    /// dropped without running.
    pub fn submit_then<T, F, D>(&self, job: F, on_done: D) -> Result<(), SubmitError>
    where
        F: FnOnce() -> T + Send + 'static,
        D: FnOnce(Result<T, JobPanic>) + Send + 'static,
    {
        let mut st = lock(&self.shared.state);
        if !st.open {
            return Err(SubmitError::Closed);
        }
        if st.gave_up {
            return Err(SubmitError::Unavailable);
        }
        if st.queue.len() >= self.queue_depth {
            return Err(SubmitError::Busy {
                queue_depth: self.queue_depth,
            });
        }
        let index = usize::try_from(st.submitted).unwrap_or(usize::MAX);
        st.submitted += 1;
        st.queue.push_back(Box::new(move || {
            match catch_unwind(AssertUnwindSafe(job)) {
                Ok(value) => on_done(Ok(value)),
                Err(payload) => {
                    on_done(Err(JobPanic {
                        index,
                        message: crate::panic_message(payload.as_ref()),
                    }));
                    if payload.is::<crate::KillWorker>() {
                        // The sentinel asks for the worker itself to
                        // die; the supervisor guard in `worker_loop`
                        // repairs the accounting and respawns.
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        }));
        drop(st);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Jobs waiting in the queue (not yet running).
    #[must_use]
    pub fn queued(&self) -> usize {
        lock(&self.shared.state).queue.len()
    }

    /// Jobs currently executing on a worker.
    #[must_use]
    pub fn inflight(&self) -> usize {
        lock(&self.shared.state).active
    }

    /// The number of worker threads the pool was sized for.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Worker threads currently running their loop. Transiently below
    /// [`WorkerPool::workers`] between a worker death and its respawn.
    #[must_use]
    pub fn alive(&self) -> usize {
        lock(&self.shared.state).live_workers
    }

    /// Worker threads respawned after a death, over the pool's lifetime.
    #[must_use]
    pub fn respawns(&self) -> u64 {
        lock(&self.shared.state).respawns
    }

    /// Whether the supervisor has latched the restart-storm verdict and
    /// new submissions are being shed with [`SubmitError::Unavailable`].
    #[must_use]
    pub fn gave_up(&self) -> bool {
        lock(&self.shared.state).gave_up
    }

    /// The queue capacity submissions are bounded by.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Blocks until the pool is idle: no queued and no executing jobs.
    /// New submissions remain possible; callers that want a terminal
    /// drain should stop submitting first (or use [`WorkerPool::close`]).
    pub fn drain(&self) {
        let mut st = lock(&self.shared.state);
        while !st.queue.is_empty() || st.active > 0 {
            st = wait_on(&self.shared.job_done, st);
        }
    }

    /// Stops admission, runs every queued job to completion and joins
    /// the workers. Dropping the pool does the same.
    pub fn close(self) {
        // Drop runs the shutdown.
    }

    fn shutdown(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.open = false;
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Respawned workers register their handles in shared state; a
        // replacement can itself die and spawn another while we join,
        // so pop until the list is observed empty.
        loop {
            let handle = lock(&self.shared.state).replacements.pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Arc<PoolShared>) {
    let mut sentinel = Sentinel {
        shared: Arc::clone(shared),
        armed: true,
    };
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.active += 1;
                    break job;
                }
                if !st.open {
                    st.live_workers = st.live_workers.saturating_sub(1);
                    sentinel.armed = false;
                    return;
                }
                st = wait_on(&shared.work_ready, st);
            }
        };
        job();
        lock(&shared.state).active -= 1;
        shared.job_done.notify_all();
    }
}

/// A supervisor guard living on each worker thread. On a clean exit the
/// loop disarms it; if the worker dies any other way (the only panic
/// path is `resume_unwind` of a [`crate::KillWorker`] payload, but the
/// guard also covers a hypothetical panic in pool bookkeeping) its
/// `Drop` runs *on the dying thread* during unwind: it repairs the
/// `active` count the aborted job left behind, records the restart, and
/// spawns a replacement so pool capacity recovers.
struct Sentinel {
    shared: Arc<PoolShared>,
    armed: bool,
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let now_ms = u64::try_from(self.shared.epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
        // Past the storm threshold the pool sheds *new* work, but keeps
        // respawning: handles for jobs already queued must still
        // resolve, and a worker has to exist to run them.
        let stormy = {
            let mut tracker = lock(&self.shared.restarts);
            tracker.record(now_ms) == powerchop_resilience::RestartVerdict::Storm
        };
        let mut st = lock(&self.shared.state);
        // The worker only unwinds from inside `job()`, after `active`
        // was incremented and before it was decremented.
        st.active = st.active.saturating_sub(1);
        st.live_workers = st.live_workers.saturating_sub(1);
        st.gave_up = st.gave_up || stormy;
        if st.open || !st.queue.is_empty() {
            let shared = Arc::clone(&self.shared);
            match std::thread::Builder::new()
                .name(String::from("powerchop-worker"))
                .spawn(move || worker_loop(&shared))
            {
                Ok(handle) => {
                    st.respawns += 1;
                    st.live_workers += 1;
                    st.replacements.push(handle);
                }
                Err(err) => {
                    // Out of threads: latch the storm verdict so the
                    // serve layer sheds load instead of queueing into a
                    // pool that may have no workers left.
                    st.gave_up = true;
                    eprintln!("powerchop-exec: failed to respawn worker: {err}");
                }
            }
        }
        drop(st);
        self.shared.job_done.notify_all();
        self.shared.work_ready.notify_all();
    }
}

struct Slot<T> {
    cell: Mutex<Option<Result<T, JobPanic>>>,
    done: Condvar,
}

/// An awaitable handle to one submitted job. The handle outlives the
/// pool: a job that was queued when the pool started draining still
/// runs, and its handle still resolves.
pub struct JobHandle<T> {
    slot: Arc<Slot<T>>,
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("done", &self.is_done())
            .finish_non_exhaustive()
    }
}

impl<T> JobHandle<T> {
    /// Blocks until the job finishes; returns its result, or the panic
    /// it raised (with the submission sequence number as the index).
    pub fn wait(self) -> Result<T, JobPanic> {
        let mut cell = lock(&self.slot.cell);
        loop {
            if let Some(result) = cell.take() {
                return result;
            }
            cell = wait_on(&self.slot.done, cell);
        }
    }

    /// Whether the job has finished (non-blocking).
    #[must_use]
    pub fn is_done(&self) -> bool {
        lock(&self.slot.cell).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn submit_and_wait_returns_the_result() {
        let pool = WorkerPool::new(2, 8);
        let h = pool.submit(|| 6 * 7).unwrap();
        assert_eq!(h.wait().unwrap(), 42);
    }

    #[test]
    fn handles_resolve_independently_and_out_of_order() {
        let pool = WorkerPool::new(4, 16);
        let handles: Vec<_> = (0..12)
            .map(|i| pool.submit(move || i * i).unwrap())
            .collect();
        // Await in reverse submission order: each handle blocks only on
        // its own job.
        for (i, h) in handles.into_iter().enumerate().rev() {
            assert_eq!(h.wait().unwrap(), i * i);
        }
    }

    #[test]
    fn a_full_queue_is_busy_not_blocking() {
        let pool = WorkerPool::new(1, 1);
        let (release, gate) = mpsc::channel::<()>();
        // Occupy the single worker...
        let running = pool.submit(move || gate.recv().is_ok()).unwrap();
        // ...then fill the single queue slot. The worker may not have
        // dequeued the first job yet, so allow one retry.
        let queued = loop {
            match pool.submit(|| true) {
                Ok(h) => break h,
                Err(SubmitError::Busy { .. }) => std::thread::yield_now(),
                Err(e) => panic!("unexpected {e}"),
            }
        };
        // Wait until the worker has actually picked up the first job so
        // the queue slot count is deterministic.
        while pool.inflight() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(
            pool.submit(|| true).unwrap_err(),
            SubmitError::Busy { queue_depth: 1 }
        );
        release.send(()).unwrap();
        assert!(running.wait().unwrap());
        assert!(queued.wait().unwrap());
    }

    #[test]
    fn panics_resolve_the_handle_and_spare_the_worker() {
        let pool = WorkerPool::new(1, 4);
        let boom = pool
            .submit(|| -> u32 { panic!("pool job blows up") })
            .unwrap();
        let err = boom.wait().unwrap_err();
        assert_eq!(err.index, 0);
        assert!(err.message.contains("pool job blows up"), "{}", err.message);
        // The same (only) worker still serves later jobs.
        assert_eq!(pool.submit(|| 5).unwrap().wait().unwrap(), 5);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let (tx, rx) = mpsc::channel::<u32>();
        {
            let pool = WorkerPool::new(1, 16);
            for i in 0..10 {
                let tx = tx.clone();
                pool.submit(move || tx.send(i).unwrap()).unwrap();
            }
            // Dropping here must run all ten queued jobs first.
        }
        drop(tx);
        let got: Vec<u32> = rx.iter().collect();
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn drain_waits_for_idleness_and_close_rejects_new_work() {
        let pool = WorkerPool::new(2, 8);
        let handles: Vec<_> = (0..6).map(|i| pool.submit(move || i).unwrap()).collect();
        pool.drain();
        assert_eq!(pool.queued(), 0);
        assert_eq!(pool.inflight(), 0);
        for (i, h) in handles.into_iter().enumerate() {
            assert!(h.is_done());
            assert_eq!(h.wait().unwrap(), i);
        }
    }

    #[test]
    fn kill_worker_respawns_and_service_continues() {
        let pool = WorkerPool::new(1, 4);
        let dead = pool
            .submit(|| -> u32 { std::panic::panic_any(crate::KillWorker) })
            .unwrap();
        // The affected request still gets its typed error...
        let err = dead.wait().unwrap_err();
        assert!(err.message.contains("killed"), "{}", err.message);
        // ...and the pool's only worker died with it, so this next job
        // can only complete if the supervisor respawned one.
        assert_eq!(pool.submit(|| 7).unwrap().wait().unwrap(), 7);
        assert_eq!(pool.respawns(), 1);
        assert_eq!(pool.alive(), 1);
        assert!(!pool.gave_up());
    }

    #[test]
    fn restart_storm_latches_and_sheds_new_work() {
        let pool = WorkerPool::with_restart_policy(1, 8, RestartPolicy::new(60_000, 2));
        // Two restarts fit the policy; the third latches the storm.
        for _ in 0..3 {
            let h = pool
                .submit(|| std::panic::panic_any(crate::KillWorker))
                .unwrap();
            let _ = h.wait();
        }
        while !pool.gave_up() {
            std::thread::yield_now();
        }
        assert_eq!(pool.submit(|| 1).unwrap_err(), SubmitError::Unavailable);
        // Storm mode keeps respawning (queued handles must resolve), it
        // only sheds admissions.
        assert_eq!(pool.respawns(), 3);
        assert_eq!(pool.alive(), 1);
    }

    #[test]
    fn a_killed_worker_does_not_leak_inflight_accounting() {
        let pool = WorkerPool::new(2, 8);
        let h = pool
            .submit(|| std::panic::panic_any(crate::KillWorker))
            .unwrap();
        let _ = h.wait();
        // Without the sentinel repairing `active`, this drain would
        // hang on the phantom in-flight job.
        pool.drain();
        assert_eq!(pool.inflight(), 0);
    }

    #[test]
    fn on_done_runs_on_the_worker_for_values_panics_and_kills() {
        let pool = WorkerPool::new(1, 4);
        let (tx, rx) = mpsc::channel::<(Result<u32, JobPanic>, std::thread::ThreadId)>();
        let report =
            |tx: mpsc::Sender<_>| move |r| tx.send((r, std::thread::current().id())).unwrap();
        pool.submit_then(|| 7, report(tx.clone())).unwrap();
        pool.submit_then(|| -> u32 { panic!("boom") }, report(tx.clone()))
            .unwrap();
        pool.submit_then(
            || -> u32 { std::panic::panic_any(crate::KillWorker) },
            report(tx),
        )
        .unwrap();
        let (value, worker) = rx.recv().unwrap();
        assert_eq!(value.unwrap(), 7);
        assert_ne!(worker, std::thread::current().id(), "runs on the worker");
        let (boom, same) = rx.recv().unwrap();
        assert!(boom.unwrap_err().message.contains("boom"));
        assert_eq!(same, worker, "a panicking job spares its worker");
        // The kill is reported before the worker dies with it.
        let (killed, _) = rx.recv().unwrap();
        assert_eq!(killed.unwrap_err().index, 2);
        pool.drain();
        assert_eq!(pool.respawns(), 1);
    }

    #[test]
    fn zero_sized_pools_are_clamped() {
        let pool = WorkerPool::new(0, 0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.queue_depth(), 1);
        assert_eq!(pool.submit(|| 1).unwrap().wait().unwrap(), 1);
    }
}
