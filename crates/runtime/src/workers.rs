//! A small fixed-size `std::thread` worker pool with a submission queue.
//!
//! Deliberately dependency-free (no rayon/crossbeam in the offline build):
//! a shared `Mutex<Receiver>` job queue, one OS thread per worker, jobs as
//! boxed closures. Dropping the pool closes the queue and joins every
//! worker.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed-size thread pool.
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver: Arc<Mutex<Receiver<Job>>> = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("snn-runtime-worker-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let guard = receiver.lock().expect("worker queue poisoned");
                            guard.recv()
                        };
                        match job {
                            // A panicking job must not kill the worker: the
                            // pool outlives individual requests, and a dead
                            // worker would strand every later submission.
                            // The panic surfaces to the requester as a
                            // dropped response channel.
                            Ok(job) => {
                                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            }
                            Err(_) => break, // queue closed
                        }
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job; some worker will run it.
    ///
    /// # Errors
    ///
    /// Returns [`PoolClosed`] if the pool has shut down; the job is
    /// dropped, so any response channels it held close on the caller's
    /// side.
    pub fn try_execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PoolClosed> {
        let Some(sender) = self.sender.as_ref() else {
            return Err(PoolClosed);
        };
        sender.send(Box::new(job)).map_err(|_| PoolClosed)
    }

    /// Closes the queue and joins every worker after it drains; idempotent.
    /// [`Drop`] calls this, but an explicit call lets shutdown sequencing
    /// be observable (all previously queued jobs have finished on return).
    pub fn shutdown(&mut self) {
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The pool's queue is closed: jobs can no longer be submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClosed;

impl std::fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool already shut down")
    }
}

impl std::error::Error for PoolClosed {}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_jobs_across_threads() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.try_execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            })
            .unwrap();
        }
        for _ in 0..64 {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn drop_joins_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..8 {
                let counter = Arc::clone(&counter);
                pool.try_execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
            }
            // Drop waits for queue drain + join.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn try_execute_reports_closed_pool() {
        let mut pool = WorkerPool::new(1);
        assert!(pool.try_execute(|| {}).is_ok());
        pool.shutdown();
        assert_eq!(pool.try_execute(|| {}).unwrap_err(), PoolClosed);
        pool.shutdown(); // idempotent
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        pool.try_execute(|| panic!("job blew up")).unwrap();
        // The single worker must survive to run this job.
        let (tx, rx) = channel();
        pool.try_execute(move || {
            tx.send(42u32).unwrap();
        })
        .unwrap();
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(),
            42
        );
    }
}
