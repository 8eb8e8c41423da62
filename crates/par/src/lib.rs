//! Vendored, dependency-free parallel execution layer.
//!
//! The build container has no registry access, so instead of rayon this
//! crate provides the small subset of structured parallelism the
//! workspace needs: a scoped thread pool ([`Pool`]) with a
//! [`Pool::scope`]/[`PoolScope::spawn`] API plus the order-preserving
//! fan-out helpers [`Pool::par_map`], [`Pool::par_map_index`], and
//! [`Pool::par_chunks_mut`].
//!
//! # Design
//!
//! A [`Pool`] is just a thread count; workers are spawned per scope on
//! top of [`std::thread::scope`], pull type-erased jobs from a shared
//! injector queue, and are joined before the scope returns — so spawned
//! closures may borrow anything that outlives the `scope` call, with no
//! `unsafe` anywhere in this crate. Per-scope workers cost a few tens of
//! microseconds to stand up, which is noise at the granularity this
//! workspace parallelizes (whole Monte-Carlo trial batches, whole
//! `(ε, δ)`-table columns), and in exchange the pool holds no global
//! threads, channels, or shutdown state.
//!
//! # Sizing
//!
//! [`Pool::global`] sizes itself from the `EASEML_THREADS` environment
//! variable when set (a positive integer; `1` disables parallelism, `0`
//! or garbage falls back to auto), otherwise from
//! [`std::thread::available_parallelism`]. Binaries with a `--threads N`
//! flag install the override via [`set_global_threads`] before first use.
//!
//! # Determinism contract
//!
//! Everything the pool runs must be bit-identical to a sequential
//! execution at any thread count:
//!
//! * the fan-out helpers preserve item order in their results;
//! * jobs receive their *global* item index, never a worker id, so
//!   randomized workloads derive per-item seeds with [`splitmix64`] from
//!   a root seed and are independent of how items land on workers;
//! * reductions over helper results are performed by the caller in item
//!   order.
//!
//! With `threads == 1` every helper (and [`PoolScope::spawn`]) degrades
//! to plain sequential iteration on the calling thread — no queue, no
//! boxing, no worker threads.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex, OnceLock};

/// Hard cap on pool width: beyond this, per-scope worker startup and
/// cache-line contention on the injector queue dominate any win for the
/// workloads this workspace runs.
pub const MAX_THREADS: usize = 64;

/// SplitMix64 mix of `root ⊕ golden·index` — the workspace-wide scheme
/// for deriving decorrelated, thread-count-independent per-item seeds
/// from a root seed.
///
/// # Examples
///
/// ```
/// let a = easeml_par::splitmix64(42, 0);
/// let b = easeml_par::splitmix64(42, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, easeml_par::splitmix64(42, 0));
/// ```
#[must_use]
pub fn splitmix64(root: u64, index: u64) -> u64 {
    let mut z = root
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Injector queue shared between a scope's submitter and its workers.
struct JobQueue<'env> {
    state: Mutex<QueueState<'env>>,
    ready: Condvar,
}

struct QueueState<'env> {
    jobs: VecDeque<Job<'env>>,
    /// Set when the scope closure has returned: no further jobs will be
    /// pushed, so workers drain the queue and exit.
    closed: bool,
}

impl<'env> JobQueue<'env> {
    fn new() -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job<'env>) {
        self.state
            .lock()
            .expect("pool queue poisoned")
            .jobs
            .push_back(job);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.state.lock().expect("pool queue poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Run jobs until the queue is closed *and* empty.
    fn work(&self) {
        loop {
            let job = {
                let mut state = self.state.lock().expect("pool queue poisoned");
                loop {
                    if let Some(job) = state.jobs.pop_front() {
                        break job;
                    }
                    if state.closed {
                        return;
                    }
                    state = self.ready.wait(state).expect("pool queue poisoned");
                }
            };
            job();
        }
    }
}

/// A scoped thread pool (see the crate docs for the design).
///
/// Cheap to construct — the only state is the thread count; workers are
/// stood up per [`Pool::scope`] call. Most code shares [`Pool::global`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: NonZeroUsize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::auto()
    }
}

impl Pool {
    /// Pool of exactly `threads` threads; `0` means auto
    /// ([`std::thread::available_parallelism`]). Clamped to
    /// [`MAX_THREADS`].
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            auto_threads()
        } else {
            threads.min(MAX_THREADS)
        };
        Pool {
            threads: NonZeroUsize::new(threads).expect("threads >= 1"),
        }
    }

    /// Pool sized from the hardware.
    #[must_use]
    pub fn auto() -> Self {
        Pool::new(0)
    }

    /// Pool sized from `EASEML_THREADS` when set (positive integer; `0`
    /// or unparsable falls back to auto), else from the hardware.
    #[must_use]
    pub fn from_env() -> Self {
        let configured = std::env::var("EASEML_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        Pool::new(configured)
    }

    /// The process-wide shared pool. First use wins: either
    /// [`set_global_threads`] installed an explicit width, or the pool is
    /// sized by [`Pool::from_env`].
    pub fn global() -> &'static Pool {
        global_cell().get_or_init(Pool::from_env)
    }

    /// Number of worker threads fan-out helpers spread across.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Run `f` with a [`PoolScope`] that can spawn borrowing jobs; all
    /// spawned jobs complete before `scope` returns.
    ///
    /// With one thread the scope runs jobs inline at `spawn` time. With
    /// `N > 1` threads, `N − 1` workers are spawned and the calling
    /// thread joins them in draining the queue once `f` returns, so all
    /// `N` threads execute jobs. The workers have exited, not merely
    /// finished their jobs, when `scope` returns: a thread's exit (its
    /// thread-local destructors, the release of its allocator arena)
    /// never overlaps what the caller does next.
    ///
    /// # Panics
    ///
    /// Panics (after all workers have been joined) if a spawned job
    /// panicked.
    pub fn scope<'env, T>(&self, f: impl FnOnce(&PoolScope<'_, 'env>) -> T) -> T {
        if self.threads.get() == 1 {
            return f(&PoolScope { queue: None });
        }
        let queue = JobQueue::new();
        std::thread::scope(|s| {
            let workers: Vec<_> = (1..self.threads.get())
                .map(|_| s.spawn(|| queue.work()))
                .collect();
            // Close the queue even if `f` unwinds: workers otherwise wait
            // on the condvar forever and `std::thread::scope`'s join turns
            // the panic into a deadlock.
            struct CloseOnDrop<'a, 'env>(&'a JobQueue<'env>);
            impl Drop for CloseOnDrop<'_, '_> {
                fn drop(&mut self) {
                    self.0.close();
                }
            }
            let close_guard = CloseOnDrop(&queue);
            let out = f(&PoolScope {
                queue: Some(&queue),
            });
            drop(close_guard);
            // The calling thread helps drain whatever is still queued.
            queue.work();
            for worker in workers {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            out
        })
    }

    /// Apply `f` to every index in `0..count`, in parallel, returning
    /// results in index order. The workhorse behind [`Pool::par_map`];
    /// use it directly when the job needs its global index (e.g. for
    /// [`splitmix64`] seed derivation).
    pub fn par_map_index<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads.get() == 1 || count <= 1 {
            return (0..count).map(f).collect();
        }
        let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
        // More chunks than threads so a slow chunk doesn't serialize the
        // tail; chunk boundaries never affect results (jobs only see
        // global indices).
        let chunk = count.div_ceil(self.threads.get() * 4).max(1);
        let f = &f;
        self.scope(|scope| {
            for (c, slice) in slots.chunks_mut(chunk).enumerate() {
                scope.spawn(move || {
                    for (k, slot) in slice.iter_mut().enumerate() {
                        *slot = Some(f(c * chunk + k));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("scope completed every job"))
            .collect()
    }

    /// Apply `f` to every item, in parallel, preserving order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_index(items.len(), |i| f(&items[i]))
    }

    /// Split `items` into chunks of at most `chunk_len` and process them
    /// in parallel; `f` receives each chunk's starting offset into
    /// `items` alongside the mutable chunk.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn par_chunks_mut<T, F>(&self, items: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        if self.threads.get() == 1 || items.len() <= chunk_len {
            for (c, chunk) in items.chunks_mut(chunk_len).enumerate() {
                f(c * chunk_len, chunk);
            }
            return;
        }
        let f = &f;
        self.scope(|scope| {
            for (c, chunk) in items.chunks_mut(chunk_len).enumerate() {
                scope.spawn(move || f(c * chunk_len, chunk));
            }
        });
    }
}

/// Handle for spawning jobs inside a [`Pool::scope`] call.
///
/// Jobs may borrow anything that outlives the `scope` call itself
/// (`'env`); all jobs complete before `scope` returns.
#[derive(Debug)]
pub struct PoolScope<'q, 'env> {
    /// `None` on the single-thread fast path (jobs run inline).
    queue: Option<&'q JobQueue<'env>>,
}

impl std::fmt::Debug for JobQueue<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue").finish_non_exhaustive()
    }
}

impl<'env> PoolScope<'_, 'env> {
    /// Queue a job for the pool's workers (or run it inline on the
    /// single-thread fast path).
    pub fn spawn(&self, job: impl FnOnce() + Send + 'env) {
        match self.queue {
            None => job(),
            Some(queue) => queue.push(Box::new(job)),
        }
    }
}

fn global_cell() -> &'static OnceLock<Pool> {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    &GLOBAL
}

fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(MAX_THREADS)
}

/// Install the width of [`Pool::global`] before its first use (`0` means
/// auto). Returns `false` if the global pool was already initialized (by
/// an earlier call or an earlier `Pool::global()`), in which case the
/// existing width stays in effect.
pub fn set_global_threads(threads: usize) -> bool {
    global_cell().set(Pool::new(threads)).is_ok()
}

/// The workspace-wide `--threads N` / `--threads=N` flag grammar, shared
/// by the CLI and every repro binary: split `args` into the remaining
/// arguments and the requested width (`None` if the flag is absent,
/// `Some(0)` meaning auto). The last occurrence wins.
///
/// # Errors
///
/// A human-readable message for a missing or non-integer value.
pub fn extract_threads_flag(args: Vec<String>) -> Result<(Vec<String>, Option<usize>), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut requested = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let value = if arg == "--threads" {
            Some(
                iter.next()
                    .ok_or("--threads expects a value (0 means auto)")?,
            )
        } else {
            arg.strip_prefix("--threads=").map(String::from)
        };
        match value {
            Some(value) => {
                requested = Some(value.parse::<usize>().map_err(|_| {
                    format!("--threads expects a non-negative integer, got `{value}`")
                })?);
            }
            None => rest.push(arg),
        }
    }
    Ok((rest, requested))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_is_send_sync_and_sized() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pool>();
        assert!(Pool::auto().threads() >= 1);
        assert_eq!(Pool::new(3).threads(), 3);
        assert_eq!(Pool::new(MAX_THREADS + 100).threads(), MAX_THREADS);
        assert!(Pool::new(0).threads() >= 1);
    }

    #[test]
    fn scope_runs_every_spawned_job() {
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let counter = AtomicUsize::new(0);
            pool.scope(|scope| {
                for _ in 0..100 {
                    scope.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), 100, "threads={threads}");
        }
    }

    /// Every worker has exited, its thread-local destructors run, by the
    /// time `scope` returns: each of the `N` threads takes one of `N`
    /// jobs that meet at a barrier, and each worker's (slow) exit is
    /// counted.
    #[test]
    fn scope_returns_after_its_workers_exit() {
        struct CountExit;
        impl Drop for CountExit {
            fn drop(&mut self) {
                std::thread::sleep(std::time::Duration::from_millis(20));
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static MARK: CountExit = const { CountExit };
        }
        let threads = 4;
        let barrier = std::sync::Barrier::new(threads);
        let main = std::thread::current().id();
        Pool::new(threads).scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    if std::thread::current().id() != main {
                        MARK.with(|_| {});
                    }
                    barrier.wait();
                });
            }
        });
        assert_eq!(EXITED.load(Ordering::SeqCst), threads - 1);
    }

    #[test]
    fn scope_jobs_may_borrow_environment() {
        let data = vec![1u64, 2, 3, 4];
        let mut out = vec![0u64; 4];
        let pool = Pool::new(4);
        pool.scope(|scope| {
            for (slot, value) in out.iter_mut().zip(&data) {
                scope.spawn(move || *slot = value * 10);
            }
        });
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn par_map_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..537).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let got = Pool::new(threads).par_map(&items, |x| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_index_is_thread_count_invariant() {
        let baseline = Pool::new(1).par_map_index(301, |i| splitmix64(7, i as u64));
        for threads in [2, 5, 8] {
            let got = Pool::new(threads).par_map_index(301, |i| splitmix64(7, i as u64));
            assert_eq!(got, baseline, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let pool = Pool::new(8);
        assert_eq!(pool.par_map_index(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.par_map_index(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn par_chunks_mut_sees_global_offsets() {
        for threads in [1, 2, 8] {
            let mut data = vec![0usize; 103];
            Pool::new(threads).par_chunks_mut(&mut data, 10, |offset, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = offset + k;
                }
            });
            let expect: Vec<usize> = (0..103).collect();
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn nested_scopes_complete() {
        let pool = Pool::new(2);
        let outer: Vec<Vec<u64>> = pool.par_map_index(4, |i| {
            Pool::new(2).par_map_index(3, |j| splitmix64(i as u64, j as u64))
        });
        assert_eq!(outer.len(), 4);
        assert_eq!(outer[2][1], splitmix64(2, 1));
    }

    // The panic may surface either with the job's payload (main-thread
    // drain) or std's generic scoped-thread message (worker), so no
    // `expected` filter.
    #[test]
    #[should_panic]
    fn job_panics_propagate_out_of_scope() {
        Pool::new(2).scope(|scope| {
            scope.spawn(|| panic!("job panicked"));
        });
    }

    /// Regression: a panic in the scope *closure* (not a job) must
    /// propagate, not deadlock the workers waiting for close().
    #[test]
    #[should_panic(expected = "closure failed")]
    fn scope_closure_panic_propagates_with_workers_running() {
        Pool::new(4).scope(|scope| {
            scope.spawn(|| std::thread::sleep(std::time::Duration::from_millis(5)));
            panic!("closure failed");
        });
    }

    #[test]
    fn threads_flag_grammar() {
        let to_vec = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (rest, n) = extract_threads_flag(to_vec(&["--threads", "3", "table"])).unwrap();
        assert_eq!((rest, n), (to_vec(&["table"]), Some(3)));
        let (rest, n) = extract_threads_flag(to_vec(&["run", "--threads=8"])).unwrap();
        assert_eq!((rest, n), (to_vec(&["run"]), Some(8)));
        let (rest, n) = extract_threads_flag(to_vec(&["plain"])).unwrap();
        assert_eq!((rest, n), (to_vec(&["plain"]), None));
        // Last occurrence wins; 0 means auto.
        let (_, n) = extract_threads_flag(to_vec(&["--threads=2", "--threads", "0"])).unwrap();
        assert_eq!(n, Some(0));
        assert!(extract_threads_flag(to_vec(&["--threads"])).is_err());
        assert!(extract_threads_flag(to_vec(&["--threads", "lots"])).is_err());
    }

    #[test]
    fn splitmix_streams_are_decorrelated() {
        let a: Vec<u64> = (0..64).map(|i| splitmix64(1, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| splitmix64(2, i)).collect();
        assert_ne!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "no collisions in 64 draws");
    }
}
