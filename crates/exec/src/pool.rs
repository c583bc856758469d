//! A persistent worker pool with dynamic chunk scheduling.
//!
//! This is the runtime the chunk-size tuning parameter `c` talks about:
//! a parallel region consists of `n` chunks of consecutive tiles; workers
//! (plus the calling thread) repeatedly claim the next chunk index from a
//! shared atomic counter until the range is drained. Workers persist across
//! runs and park on a condition variable between jobs, so repeated
//! autotuning measurements do not pay thread creation costs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

/// Type-erased parallel job: called once per chunk index.
type Job = &'static (dyn Fn(usize) + Sync);

struct Slot {
    epoch: u64,
    job: Option<Job>,
    n_chunks: usize,
    running: usize,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    work_cv: Condvar,
    done_cv: Condvar,
    cursor: AtomicUsize,
    panicked: AtomicBool,
}

/// A fixed-size pool executing chunk-indexed parallel-for jobs.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool that will use `threads` threads in total: the calling
    /// thread participates in every run, so `threads - 1` workers are
    /// spawned. `threads = 1` degenerates to inline sequential execution.
    ///
    /// # Panics
    /// Panics when `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least one thread");
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                n_chunks: 0,
                running: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cursor: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("stencil-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn stencil worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// A pool using all available parallelism.
    pub fn with_default_threads() -> Self {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::new(n)
    }

    /// Total threads participating in runs (workers + caller).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Executes `f(i)` for every `i in 0..n_chunks`, distributing indices
    /// dynamically over all threads. Blocks until every chunk completed.
    ///
    /// Takes `&mut self` so at most one job is in flight, which is what
    /// makes the lifetime erasure below sound: `f` outlives the call, and
    /// no worker can hold the job reference past the call's return.
    ///
    /// # Panics
    /// Propagates (as a panic) any panic raised inside `f`.
    pub fn run(&mut self, n_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if n_chunks == 0 {
            return;
        }
        if self.workers.is_empty() {
            for i in 0..n_chunks {
                f(i);
            }
            return;
        }
        // SAFETY: the job reference handed to workers never escapes this
        // method: we block until `running == 0`, i.e. every worker has left
        // its work loop for this epoch, and we clear the slot before
        // returning. `&mut self` excludes a second concurrent job.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        {
            let mut slot = self.shared.slot.lock();
            debug_assert!(slot.job.is_none(), "a job is already running");
            // sorl-lint: allow(atomic, "the cursor is a work-stealing hint; the job slot's mutex is the synchronization edge")
            self.shared.cursor.store(0, Ordering::Relaxed);
            slot.job = Some(job);
            slot.n_chunks = n_chunks;
            slot.running = self.workers.len();
            slot.epoch += 1;
        }
        self.shared.work_cv.notify_all();

        // The calling thread chips in.
        drain(&self.shared, f, n_chunks);

        let mut slot = self.shared.slot.lock();
        while slot.running > 0 {
            self.shared.done_cv.wait(&mut slot);
        }
        slot.job = None;
        drop(slot);
        if self.shared.panicked.swap(false, Ordering::SeqCst) {
            panic!("a stencil worker panicked during a parallel run");
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("threads", &self.threads()).finish_non_exhaustive()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock();
            slot.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Claims chunk indices until the range is exhausted.
fn drain(shared: &Shared, f: &(dyn Fn(usize) + Sync), n_chunks: usize) {
    loop {
        // sorl-lint: allow(atomic, "index claiming only needs RMW atomicity; chunk data is owned by the claimer, not published via the cursor")
        let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n_chunks {
            return;
        }
        if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
            shared.panicked.store(true, Ordering::SeqCst);
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let (job, n_chunks) = {
            let mut slot = shared.slot.lock();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.job.is_some() && slot.epoch != seen_epoch {
                    break;
                }
                shared.work_cv.wait(&mut slot);
            }
            seen_epoch = slot.epoch;
            (slot.job.expect("checked above"), slot.n_chunks)
        };
        drain(shared, job, n_chunks);
        let mut slot = shared.slot.lock();
        slot.running -= 1;
        if slot.running == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_chunk_runs_exactly_once() {
        let mut pool = ThreadPool::new(4);
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        pool.run(100, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let mut pool = ThreadPool::new(3);
        let sum = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(17, &|i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 50 * (16 * 17 / 2));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let mut pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut order = Vec::new();
        // Sequential execution lets us mutate captured state through a
        // RefCell-free pattern: the closure only needs Fn, so use a Mutex.
        let order_ref = parking_lot::Mutex::new(&mut order);
        pool.run(5, &|i| order_ref.lock().push(i));
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_chunks_is_a_noop() {
        let mut pool = ThreadPool::new(2);
        pool.run(0, &|_| panic!("must not be called"));
    }

    #[test]
    fn borrows_of_caller_state_work() {
        // The whole point of the lifetime erasure: the job may borrow stack
        // data of the caller.
        let data: Vec<u64> = (0..1000).collect();
        let total = AtomicU64::new(0);
        let mut pool = ThreadPool::new(4);
        pool.run(10, &|chunk| {
            let s: u64 = data[chunk * 100..(chunk + 1) * 100].iter().sum();
            total.fetch_add(s, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn worker_panic_propagates() {
        let mut pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives and is usable again.
        let ok = AtomicU64::new(0);
        pool.run(4, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        ThreadPool::new(0);
    }

    #[test]
    fn many_more_chunks_than_threads() {
        let mut pool = ThreadPool::new(2);
        let n = 10_000;
        let count = AtomicU64::new(0);
        pool.run(n, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), n as u64);
    }

    #[test]
    fn dropping_an_idle_pool_terminates_workers() {
        // Create, run once, drop: must not hang on parked workers.
        for threads in [2usize, 4, 8] {
            let mut pool = ThreadPool::new(threads);
            let n = AtomicU64::new(0);
            pool.run(3, &|_| {
                n.fetch_add(1, Ordering::Relaxed);
            });
            drop(pool);
        }
    }

    #[test]
    fn dropping_a_never_used_pool_terminates_workers() {
        for _ in 0..8 {
            let pool = ThreadPool::new(4);
            drop(pool);
        }
    }

    #[test]
    fn pools_can_coexist() {
        let mut a = ThreadPool::new(3);
        let mut b = ThreadPool::new(3);
        let total = AtomicU64::new(0);
        a.run(10, &|i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        b.run(10, &|i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 2 * 45);
    }

    #[test]
    fn chunk_indices_are_distributed_across_threads() {
        // At least two distinct threads must participate. Each chunk
        // busy-works for ~300us so parked workers have ample time to wake
        // before the caller thread drains the queue (even on 2-core CI).
        let mut pool = ThreadPool::new(4);
        let ids = parking_lot::Mutex::new(std::collections::HashSet::new());
        pool.run(64, &|_| {
            ids.lock().insert(std::thread::current().id());
            let t0 = std::time::Instant::now();
            while t0.elapsed() < std::time::Duration::from_micros(300) {
                std::hint::spin_loop();
            }
        });
        assert!(ids.lock().len() >= 2, "only {} thread(s) participated", ids.lock().len());
    }
}
