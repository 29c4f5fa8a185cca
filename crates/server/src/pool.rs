//! The bounded worker pool that executes solve-class requests.
//!
//! Connection threads do the cheap work (framing, registry lookups,
//! cache hits) themselves and hand anything compute-shaped — solve,
//! evaluate, model-check — to this pool. The pool is the backpressure
//! point: the job queue is a bounded `sync_channel`, so when all
//! workers are busy and the queue is full, submitting connections block
//! instead of piling unbounded work onto the daemon.
//!
//! The pool is built on the `rayon` shim's primitives: each worker owns
//! a [`rayon::ThreadPool`] sized to its fair share of the host cores
//! and runs every job under [`rayon::ThreadPool::install`], so a job's
//! inner parallel sweep (`BruteForceOpts { threads: None, .. }`
//! inherits the ambient count) uses exactly that share — `W` workers
//! never oversubscribe the machine no matter what the request asks for.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

/// A unit of work: runs on a worker thread, replies through whatever
/// channel the closure captured.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`WorkerPool::try_submit`] could not take a job.
pub enum TrySubmit {
    /// The queue is full; the job is returned so the caller can retry.
    Full(Job),
    /// The pool has shut down; the job was dropped.
    Closed,
}

/// Fixed-size worker pool with a bounded job queue.
///
/// Jobs run under `catch_unwind`: a panicking job is counted (see
/// [`WorkerPool::panic_count`]) and discarded, and the worker thread
/// survives to serve the next job — a poisoned request must cost one
/// error response, never a pool slot.
pub struct WorkerPool {
    sender: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    num_workers: usize,
    panics: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawn `workers` threads (`0` = one per host core) behind a queue
    /// of `queue_depth` pending jobs.
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let num_workers = if workers == 0 { cores } else { workers };
        // Each worker's inner parallel operations get a fair share of
        // the cores; at least 1.
        let share = (cores / num_workers).max(1);
        let (sender, receiver) = std::sync::mpsc::sync_channel::<Job>(queue_depth.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let panics = Arc::new(AtomicU64::new(0));
        let workers = (0..num_workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let panics = Arc::clone(&panics);
                std::thread::Builder::new()
                    .name(format!("folearn-worker-{i}"))
                    .spawn(move || worker_loop(&receiver, share, &panics))
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
            num_workers,
            panics,
        }
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Jobs that panicked (and were isolated) so far.
    pub fn panic_count(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Submit a job, blocking while the queue is full (backpressure).
    /// Returns `false` if the pool has already shut down.
    pub fn submit(&self, job: Job) -> bool {
        match &self.sender {
            Some(s) => s.send(job).is_ok(),
            None => false,
        }
    }

    /// Submit a job without blocking. A full queue hands the job back
    /// so the caller can park it and re-offer later — the event loop
    /// uses this to defer work per connection instead of stalling a
    /// whole readiness shard on one busy queue.
    pub fn try_submit(&self, job: Job) -> Result<(), TrySubmit> {
        use std::sync::mpsc::TrySendError;
        match &self.sender {
            Some(s) => match s.try_send(job) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(job)) => Err(TrySubmit::Full(job)),
                Err(TrySendError::Disconnected(_)) => Err(TrySubmit::Closed),
            },
            None => Err(TrySubmit::Closed),
        }
    }

    /// A clone of the panic counter, safe to capture inside submitted
    /// jobs. Jobs must never hold an `Arc<WorkerPool>` (the pool's own
    /// `Drop` joins the workers, so a job owning the last reference
    /// would join its own thread); the bare counter carries no such
    /// hazard.
    pub fn panic_cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.panics)
    }

    /// Drain the queue and join all workers. Idempotent.
    pub fn shutdown(&mut self) {
        self.sender.take(); // closes the channel; workers drain and exit
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(receiver: &Arc<Mutex<Receiver<Job>>>, share: usize, panics: &AtomicU64) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(share)
        .build()
        .expect("the rayon shim never fails to build");
    loop {
        // Take the next job while holding the lock, run it without.
        let job = {
            let rx = receiver.lock();
            rx.recv()
        };
        match job {
            Ok(job) => {
                if catch_unwind(AssertUnwindSafe(|| pool.install(job))).is_err() {
                    // The job's reply channel (if any) was dropped during
                    // the unwind, so the submitter observes the failure;
                    // this thread stays in service.
                    panics.fetch_add(1, Ordering::Relaxed);
                    folearn_obs::count(folearn_obs::Counter::WorkerPanics, 1);
                }
            }
            Err(_) => break, // channel closed: pool is shutting down
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    use super::*;

    #[test]
    fn jobs_run_and_reply() {
        let pool = WorkerPool::new(2, 4);
        let (tx, rx) = mpsc::channel();
        for i in 0..10usize {
            let tx = tx.clone();
            assert!(pool.submit(Box::new(move || {
                tx.send(i * i).unwrap();
            })));
        }
        let mut got: Vec<usize> = rx.iter().take(10).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn shutdown_joins_and_rejects_new_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = WorkerPool::new(3, 2);
        for _ in 0..6 {
            let c = Arc::clone(&counter);
            pool.submit(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 6, "queued jobs drain");
        assert!(!pool.submit(Box::new(|| {})));
        pool.shutdown(); // idempotent
    }

    #[test]
    fn panicking_jobs_are_isolated_and_the_worker_survives() {
        // One worker: if the panic killed the thread, the follow-up job
        // would never run and recv_timeout would fail (not hang).
        let pool = WorkerPool::new(1, 4);
        assert!(pool.submit(Box::new(|| panic!("poisoned job"))));
        assert!(pool.submit(Box::new(|| panic!("still poisoned"))));
        let (tx, rx) = mpsc::channel();
        assert!(pool.submit(Box::new(move || {
            tx.send(7usize).unwrap();
        })));
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(30))
                .expect("worker survived both panics"),
            7
        );
        assert_eq!(pool.panic_count(), 2);
        assert_eq!(pool.num_workers(), 1);
    }

    #[test]
    fn try_submit_hands_a_full_queue_back() {
        // One worker parked on a gate; the queue (depth 1) fills behind
        // it and try_submit must return the overflow job intact.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let pool = WorkerPool::new(1, 1);
        let g = Arc::clone(&gate);
        assert!(pool.submit(Box::new(move || {
            g.wait();
        })));
        // Fill the single queue slot (poll until the worker has picked
        // up the gated job and the slot is genuinely the queue).
        let filled = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&filled);
        while pool
            .try_submit({
                let f = Arc::clone(&f);
                Box::new(move || {
                    f.fetch_add(1, Ordering::SeqCst);
                })
            })
            .is_err()
        {
            std::thread::yield_now();
        }
        // Now the queue may briefly still drain; keep offering until a
        // Full comes back, then prove the returned job still runs.
        let returned = loop {
            let f = Arc::clone(&filled);
            match pool.try_submit(Box::new(move || {
                f.fetch_add(1, Ordering::SeqCst);
            })) {
                Ok(()) => std::thread::yield_now(),
                Err(TrySubmit::Full(job)) => break job,
                Err(TrySubmit::Closed) => panic!("pool is live"),
            }
        };
        gate.wait(); // release the worker
        returned(); // the handed-back job is intact and runnable
        assert!(filled.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn workers_pin_their_core_share() {
        let pool = WorkerPool::new(2, 1);
        let (tx, rx) = mpsc::channel();
        pool.submit(Box::new(move || {
            tx.send(rayon::current_num_threads()).unwrap();
        }));
        let ambient = rx.recv().unwrap();
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(ambient, (cores / 2).max(1));
    }
}
