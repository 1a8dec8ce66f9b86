//! The one bounded work pool behind both handlers, a node's solver
//! workers and a router's forwarders: fixed worker threads over one
//! bounded queue, idle workers waiting on their own pipes (DESIGN §12
//! says why). A worker that dies outside shutdown — the `worker_exit`
//! seam fired, or a panic escaped a job — is replaced by its drop guard.

use std::collections::VecDeque;
use std::io::{self, PipeReader, PipeWriter, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use arrayflow_obs::Counter;
use arrayflow_resilience::FaultSurface;

use crate::proto::{ErrorKind, ServiceError};

/// A unit of work: called once, with `Ok(())` on a worker or with its
/// `overloaded` refusal on the submitting thread.
pub(crate) type Job = Box<dyn FnOnce(Result<(), ServiceError>) + Send>;

/// Workers hold the pool, never its owner, so an owner dropped without
/// shutdown can stop them.
pub(crate) struct Pool {
    /// Names the refusal once shutdown began: `service`, `router`.
    owner: &'static str,
    capacity: usize,
    state: Mutex<State>,
    /// Stored under the state lock, so no worker goes idle unwoken after
    /// it; loaded without, as the event loop checks it every iteration.
    shutdown: AtomicBool,
    /// Per worker, the pipe that wakes it.
    wakers: Vec<PipeWriter>,
    /// The `worker_exit` seam, consulted between jobs.
    faults: Option<Arc<dyn FaultSurface>>,
    restarts: Counter,
    /// Every worker not yet joined, replacements included.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

#[derive(Default)]
struct State {
    /// Jobs waiting for a worker, oldest first.
    queue: VecDeque<Job>,
    /// Idle workers, most recently idle last.
    idle: Vec<usize>,
}

impl Pool {
    /// Starts `workers` threads over a queue of `capacity` jobs, counting
    /// restarts in `restarts`.
    pub(crate) fn start(
        owner: &'static str,
        workers: usize,
        capacity: usize,
        faults: Option<Arc<dyn FaultSurface>>,
        restarts: Counter,
    ) -> io::Result<Arc<Pool>> {
        let pipes = (0..workers)
            .map(|_| io::pipe())
            .collect::<io::Result<Vec<_>>>()?;
        let (waits, wakers): (Vec<_>, _) = pipes.into_iter().unzip();
        let pool = Arc::new(Pool {
            owner,
            capacity,
            state: Mutex::default(),
            shutdown: AtomicBool::new(false),
            wakers,
            faults,
            restarts,
            threads: Mutex::default(),
        });
        for (me, wait) in waits.into_iter().enumerate() {
            if let Err(e) = pool.spawn(me, wait) {
                pool.shutdown();
                return Err(e);
            }
        }
        Ok(pool)
    }

    /// No job runs under either lock and every update leaves the data
    /// valid, so a poisoned lock still guards good state.
    fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn spawn(self: &Arc<Self>, me: usize, wait: PipeReader) -> io::Result<()> {
        let pool = Arc::clone(self);
        // The guard is built on the new thread, so a failed spawn never
        // tries to replace a worker that never ran.
        let handle = std::thread::Builder::new().spawn(move || {
            let wait = Some(wait);
            Worker { pool, me, wait }.run()
        })?;
        let mut threads = Pool::lock(&self.threads);
        // A worker that died earlier was counted already: dropping its
        // finished handle releases the thread.
        threads.retain(|h| !h.is_finished());
        threads.push(handle);
        Ok(())
    }

    /// True once shutdown began.
    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Queues `job` and returns the queue depth it joined at. A full queue
    /// or a pool shutting down calls `job` with its refusal right here
    /// instead, and returns `None`.
    pub(crate) fn submit(&self, job: Job) -> Option<usize> {
        let mut state = Pool::lock(&self.state);
        let refusal = if self.is_shutdown() {
            format!("{} is shutting down", self.owner)
        } else if state.queue.len() >= self.capacity {
            format!("queue full ({} in flight)", state.queue.len())
        } else {
            state.queue.push_back(job);
            let (depth, idle) = (state.queue.len(), state.idle.pop());
            drop(state);
            if let Some(me) = idle {
                let _ = (&self.wakers[me]).write(&[1]);
            }
            return Some(depth);
        };
        drop(state);
        job(Err(ServiceError::new(ErrorKind::Overloaded, refusal)));
        None
    }

    /// Begins shutdown: new jobs are refused, the workers finish the
    /// queued ones and exit. Idempotent.
    pub(crate) fn shutdown(&self) {
        let idle = {
            let mut state = Pool::lock(&self.state);
            self.shutdown.store(true, Ordering::SeqCst);
            std::mem::take(&mut state.idle)
        };
        for me in idle {
            let _ = (&self.wakers[me]).write(&[1]);
        }
    }

    /// Waits until every worker has exited, replacements included. Call
    /// after [`Pool::shutdown`].
    pub(crate) fn join(&self) {
        loop {
            let threads = std::mem::take(&mut *Pool::lock(&self.threads));
            if threads.is_empty() {
                return;
            }
            for handle in threads {
                let _ = handle.join();
            }
        }
    }
}

/// One worker thread, and its drop guard: a worker that dies with its
/// pipe, rather than retiring, hands the pipe to a replacement.
struct Worker {
    pool: Arc<Pool>,
    me: usize,
    wait: Option<PipeReader>,
}

impl Worker {
    fn run(mut self) {
        loop {
            // Between jobs, so an injected death never takes a claimed
            // job with it.
            if self.pool.faults.as_ref().is_some_and(|f| f.worker_exit()) {
                eprintln!("serve: worker-exit injected=true");
                return;
            }
            let mut state = Pool::lock(&self.pool.state);
            let Some(job) = state.queue.pop_front() else {
                if self.pool.is_shutdown() {
                    self.wait = None; // retired
                    return;
                }
                state.idle.push(self.me);
                drop(state);
                let wait = self.wait.as_mut().expect("a running worker holds its pipe");
                let _ = wait.read(&mut [0u8]);
                continue;
            };
            drop(state);
            job(Ok(()));
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let Some(wait) = self.wait.take() else { return };
        match self.pool.spawn(self.me, wait) {
            Ok(()) => {
                self.pool.restarts.inc();
                let (total, pool) = (self.pool.restarts.get(), self.pool.wakers.len());
                eprintln!("serve: worker-restart total={total} pool={pool}");
            }
            Err(e) => eprintln!("serve: worker-restart failed: {e}"),
        }
    }
}

#[cfg(test)]
impl Pool {
    /// Holds every worker busy with a gate job, so further jobs stay
    /// queued until the test waits on the returned barrier.
    pub(crate) fn occupy(&self) -> Arc<std::sync::Barrier> {
        let workers = self.wakers.len();
        let gate = Arc::new(std::sync::Barrier::new(workers + 1));
        for _ in 0..workers {
            let gate = Arc::clone(&gate);
            self.submit(Box::new(move |admitted| {
                admitted.expect("a gate job is admitted");
                gate.wait(); // every worker holds a gate
                gate.wait(); // until the test opens them
            }));
        }
        gate.wait();
        gate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::thread;

    /// A job that counts its runs in `runs[i]` and reports its refusal.
    fn counted(runs: &Arc<Vec<AtomicU64>>, i: usize, refused: mpsc::Sender<String>) -> Job {
        let runs = Arc::clone(runs);
        Box::new(move |admitted| match admitted {
            Ok(()) => {
                runs[i].fetch_add(1, Ordering::SeqCst);
            }
            Err(e) => refused.send(e.message).expect("the test listens"),
        })
    }

    fn slots(n: usize) -> Arc<Vec<AtomicU64>> {
        Arc::new((0..n).map(|_| AtomicU64::new(0)).collect())
    }

    #[test]
    fn a_full_pool_queue_refuses_on_the_submitting_thread() {
        let pool = Pool::start("service", 1, 2, None, Counter::new()).unwrap();
        let gate = pool.occupy();
        let runs = slots(2);
        let (tx, refused) = mpsc::channel();
        assert_eq!(pool.submit(counted(&runs, 0, tx.clone())), Some(1));
        assert_eq!(pool.submit(counted(&runs, 1, tx.clone())), Some(2));
        let me = thread::current().id();
        let on = Arc::new(Mutex::new(None));
        let seen = Arc::clone(&on);
        let full = pool.submit(Box::new(move |admitted| {
            *seen.lock().unwrap() = Some((thread::current().id(), admitted.unwrap_err()));
        }));
        assert_eq!(full, None);
        let (thread, refusal) = on.lock().unwrap().take().expect("refused before returning");
        assert_eq!(thread, me);
        assert_eq!(refusal.kind, ErrorKind::Overloaded);
        assert_eq!(refusal.message, "queue full (2 in flight)");
        gate.wait();
        pool.shutdown();
        pool.join();
        assert_eq!(runs[0].load(Ordering::SeqCst), 1);
        assert_eq!(runs[1].load(Ordering::SeqCst), 1);
        assert!(refused.try_recv().is_err());
    }

    #[test]
    fn a_pool_shutdown_refuses_new_jobs_and_runs_every_queued_one_once() {
        let pool = Pool::start("router", 2, 64, None, Counter::new()).unwrap();
        let gate = pool.occupy();
        let runs = slots(41);
        let (tx, refused) = mpsc::channel();
        for i in 0..40 {
            assert!(pool.submit(counted(&runs, i, tx.clone())).is_some());
        }
        pool.shutdown();
        assert!(pool.is_shutdown());
        assert_eq!(pool.submit(counted(&runs, 40, tx)), None);
        assert_eq!(refused.try_recv().unwrap(), "router is shutting down");
        gate.wait();
        pool.join();
        for (i, n) in runs.iter().enumerate() {
            let want = u64::from(i < 40);
            assert_eq!(n.load(Ordering::SeqCst), want, "job {i}");
        }
    }

    /// Kills the worker at every third seam check.
    #[derive(Debug, Default)]
    struct EveryThird {
        checks: AtomicU64,
        fired: AtomicU64,
    }

    impl FaultSurface for EveryThird {
        fn worker_exit(&self) -> bool {
            let fire = self.checks.fetch_add(1, Ordering::SeqCst) % 3 == 2;
            if fire {
                self.fired.fetch_add(1, Ordering::SeqCst);
            }
            fire
        }
    }

    #[test]
    fn pool_workers_killed_by_the_seam_or_a_panic_are_replaced_and_counted() {
        let faults = Arc::new(EveryThird::default());
        let restarts = Counter::new();
        let seam: Arc<dyn FaultSurface> = faults.clone();
        let pool = Pool::start("service", 2, 256, Some(seam), restarts.clone()).unwrap();
        let runs = slots(100);
        let (tx, refused) = mpsc::channel();
        let mut panics = 0;
        for i in 0..100 {
            let job = counted(&runs, i, tx.clone());
            if i % 7 == 0 {
                // Counts its run, then lets a panic escape the job.
                panics += 1;
                pool.submit(Box::new(move |admitted| {
                    job(admitted);
                    panic!("injected job panic");
                }));
            } else {
                pool.submit(job);
            }
        }
        pool.shutdown();
        pool.join();
        assert!(refused.try_recv().is_err());
        for (i, n) in runs.iter().enumerate() {
            assert_eq!(n.load(Ordering::SeqCst), 1, "job {i}");
        }
        let fired = faults.fired.load(Ordering::SeqCst);
        assert!(fired > 0);
        assert_eq!(restarts.get(), fired + panics);
    }
}
