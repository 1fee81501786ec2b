//! A persistent worker pool and compile cache for concurrent F_G
//! pipelines — the execution layer behind `fg check --jobs N` and
//! `fg serve`.
//!
//! # Why requests are embarrassingly parallel
//!
//! F_G's model system is *lexically scoped* (the paper's Figure 6): a
//! compilation unit carries its whole model environment in its own
//! source text, so checking one program can never observe another
//! program's models. Combined with the design decision that the type
//! interner, its substitution memo, and the model index are all
//! per-[`crate::check::Checker`] state, a batch of files shards
//! shared-nothing: each worker builds its own interner per request and
//! shares no mutable state with other workers. (A `--prelude` request
//! reuses its worker's checked prelude, [`crate::prefix::Snapshot`],
//! whose interner is rolled back after every body.) The only shared
//! structures are this module's queue, counters, and the
//! (immutable-once-inserted) compile cache.
//!
//! # Pool shape
//!
//! [`WorkerPool`] spawns a fixed set of persistent worker threads, each
//! with a [`WORKER_STACK`] stack. The pool is the one place that owns a
//! big stack: the checker and evaluators recurse once per nested
//! expression, and the [`telemetry::limits::Budget`] depth cap, not the
//! OS stack, should bound them. Every worker marks itself with
//! [`on_worker`], and the checker runs deep programs inline under that
//! marker instead of spawning a thread of its own. The CLI runs even a
//! single file on a one-worker pool for the same reason.
//!
//! Tasks wait in one FIFO queue under one mutex and condvar, and any
//! idle worker takes the oldest. Tasks are whole pipeline runs
//! (milliseconds), so queue traffic is far off the critical path. Every
//! task runs under `catch_unwind`, so one crashing request is reported
//! as an error result while the pool keeps serving.
//!
//! [`PoolStats`] exposes the `pool.*` metrics group: jobs executed,
//! peak queue depth, panics caught, and per-worker busy wall time.
//!
//! # Compile cache
//!
//! [`CompileCache`] memoizes finished request outcomes under an
//! [`fnv1a`] content hash of the full request key (command, prelude
//! flag, source text, and the budget fingerprint — see DESIGN.md §12).
//! Because scoped models make the source text self-contained, a hash of
//! the *text* really is a sound cache key: there is no global instance
//! environment that could invalidate an entry behind its back. Editing
//! a file changes its hash, which *is* the invalidation.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Worker stack size: deep enough that the budget's depth cap, not the
/// OS stack, bounds every recursive pipeline stage.
pub const WORKER_STACK: usize = 256 * 1024 * 1024;

/// A type-erased unit of work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// The task queue and lifecycle flag, under one lock.
struct Queue {
    tasks: VecDeque<Task>,
    closed: bool,
}

thread_local! {
    /// The calling worker's index in its pool; `None` off the pool.
    static WORKER_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Whether the calling thread is a [`WorkerPool`] worker, and so has a
/// [`WORKER_STACK`]-sized stack. The checker runs deep programs inline
/// when this holds.
pub fn on_worker() -> bool {
    WORKER_ID.with(Cell::get).is_some()
}

/// Shared pool state.
struct Shared {
    queue: Mutex<Queue>,
    work_ready: Condvar,
    /// Tasks executed to completion (including panicking ones).
    jobs: AtomicU64,
    /// Peak number of queued tasks.
    queue_depth_peak: AtomicU64,
    /// Tasks that unwound (caught).
    panics: AtomicU64,
    /// Per-worker busy wall time, nanoseconds.
    busy_ns: Vec<AtomicU64>,
}

/// A snapshot of the pool's counters — the `pool.*` metrics group.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed to completion (including caught panics).
    pub jobs: u64,
    /// Peak number of queued (not yet started) tasks.
    pub queue_depth_peak: u64,
    /// Tasks that panicked and were caught.
    pub panics: u64,
    /// Busy wall time per worker, nanoseconds.
    pub worker_busy_ns: Vec<u64>,
}

/// A fixed pool of persistent big-stack worker threads sharing one FIFO
/// queue, with per-task panic isolation. See the [module docs](self).
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `jobs` persistent workers (at least one), each
    /// with a [`WORKER_STACK`]-sized stack.
    ///
    /// # Errors
    ///
    /// Propagates the OS error if a worker thread cannot be spawned.
    pub fn new(jobs: usize) -> std::io::Result<WorkerPool> {
        let jobs = jobs.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                closed: false,
            }),
            work_ready: Condvar::new(),
            jobs: AtomicU64::new(0),
            queue_depth_peak: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            busy_ns: (0..jobs).map(|_| AtomicU64::new(0)).collect(),
        });
        let mut workers = Vec::with_capacity(jobs);
        for id in 0..jobs {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("fg-pool-{id}"))
                    .stack_size(WORKER_STACK)
                    .spawn(move || worker_loop(id, &shared))?,
            );
        }
        Ok(WorkerPool { shared, workers })
    }

    /// The number of worker threads.
    pub fn jobs(&self) -> usize {
        self.workers.len()
    }

    /// Runs a batch of tasks on the pool and returns their results **in
    /// submission order** — the deterministic-output contract of
    /// `fg check --jobs N`. A task that panics yields `Err(message)`
    /// for its slot while every other task still completes. Blocks
    /// until the whole batch is done.
    pub fn run_batch<T, F>(&self, tasks: Vec<F>) -> Vec<Result<T, String>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = tasks.len();
        let slots: Arc<(Mutex<BatchSlots<T>>, Condvar)> = Arc::new((
            Mutex::new(BatchSlots {
                results: (0..n).map(|_| None).collect(),
                done: 0,
            }),
            Condvar::new(),
        ));
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            for (i, task) in tasks.into_iter().enumerate() {
                let slots = Arc::clone(&slots);
                let shared = Arc::clone(&self.shared);
                let erased: Task = Box::new(move || {
                    let start = std::time::Instant::now();
                    let outcome = catch_unwind(AssertUnwindSafe(task)).map_err(|payload| {
                        shared.panics.fetch_add(1, Ordering::Relaxed);
                        // `&*`: downcast the payload, not the box holding it.
                        panic_message(&*payload)
                    });
                    // Count the job and its busy time before signalling
                    // completion, so a caller that returns from
                    // `run_batch` and reads `stats()` sees every job of
                    // its own batch, and no time after the hand-back.
                    shared.jobs.fetch_add(1, Ordering::Relaxed);
                    if let Some(id) = WORKER_ID.with(Cell::get) {
                        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        shared.busy_ns[id].fetch_add(ns, Ordering::Relaxed);
                    }
                    let (lock, cond) = &*slots;
                    let mut s = lock.lock().unwrap_or_else(|e| e.into_inner());
                    s.results[i] = Some(outcome);
                    s.done += 1;
                    cond.notify_all();
                });
                q.tasks.push_back(erased);
            }
            self.shared
                .queue_depth_peak
                .fetch_max(q.tasks.len() as u64, Ordering::Relaxed);
            self.shared.work_ready.notify_all();
        }
        let (lock, cond) = &*slots;
        let mut s = lock.lock().unwrap_or_else(|e| e.into_inner());
        while s.done < n {
            s = cond.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        s.results
            .iter_mut()
            .map(|slot| slot.take().expect("all slots filled at done == n"))
            .collect()
    }

    /// Runs a single task on the pool (a one-request batch) — the
    /// dispatch path of `fg serve` and of every single-request CLI
    /// command.
    pub fn run_one<T, F>(&self, task: F) -> Result<T, String>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.run_batch(vec![task])
            .pop()
            .expect("one task in, one result out")
    }

    /// A snapshot of the `pool.*` counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            queue_depth_peak: self.shared.queue_depth_peak.load(Ordering::Relaxed),
            panics: self.shared.panics.load(Ordering::Relaxed),
            worker_busy_ns: self
                .shared
                .busy_ns
                .iter()
                .map(|n| n.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.closed = true;
            self.shared.work_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Result slots for one in-flight batch.
struct BatchSlots<T> {
    results: Vec<Option<Result<T, String>>>,
    done: usize,
}

/// The worker body: take the oldest queued task, else sleep on the
/// condvar until one arrives or the pool closes.
fn worker_loop(id: usize, shared: &Shared) {
    WORKER_ID.with(|w| w.set(Some(id)));
    loop {
        let task = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(task) = q.tasks.pop_front() {
                    break Some(task);
                }
                if q.closed {
                    break None;
                }
                q = shared
                    .work_ready
                    .wait(q)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(task) = task else { return };
        // The task wrapper built in `run_batch` catches unwinds and
        // records the job's counters.
        task();
    }
}

/// Best-effort extraction of a panic payload's message: the text of a
/// `&str` or `String` payload, else `"unknown panic"`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_owned())
}

// ---------------------------------------------------------------------
// Content-hash compile cache
// ---------------------------------------------------------------------

/// FNV-1a over a sequence of byte strings, with a `0xff` separator
/// folded in between parts so `("ab","c")` and `("a","bc")` hash
/// differently. Offline, dependency-free, and plenty for a compile
/// cache: a collision only ever *reuses a diagnostic*, it cannot
/// corrupt checker state.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h ^= 0xff;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A bounded content-hash cache of finished request outcomes with
/// hit/miss counters (the `pool.cache_*` metrics). See the
/// [module docs](self) for why the key is sound.
pub struct CompileCache<V> {
    map: Mutex<HashMap<u64, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone> CompileCache<V> {
    /// An empty cache holding at most `capacity` entries. When an
    /// insert would exceed the bound, the whole map is flushed — an
    /// epoch flush is crude but keeps the daemon's memory bounded with
    /// zero bookkeeping on the (hot) hit path.
    pub fn new(capacity: usize) -> CompileCache<V> {
        CompileCache {
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, recording a hit or a miss.
    pub fn lookup(&self, key: u64) -> Option<V> {
        let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        match map.get(&key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts an outcome (flushing the map first if full and `key` is
    /// new). Concurrent duplicate computes are benign: both insert the
    /// same value.
    pub fn insert(&self, key: u64, value: V) {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if map.len() >= self.capacity && !map.contains_key(&key) {
            map.clear();
        }
        map.insert(key, value);
    }

    /// Recorded lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Recorded lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4).unwrap();
        let tasks: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    // Skew the work so late tasks finish before early ones
                    // without the ordering contract noticing.
                    if i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    i * 10
                }
            })
            .collect();
        let results = pool.run_batch(tasks);
        let got: Vec<i32> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, (0..64).map(|i| i * 10).collect::<Vec<_>>());
        let stats = pool.stats();
        assert_eq!(stats.jobs, 64);
        assert_eq!(stats.panics, 0);
        assert!(stats.queue_depth_peak >= 1);
        assert_eq!(stats.worker_busy_ns.len(), 4);
    }

    #[test]
    fn a_panicking_task_is_isolated_from_the_rest_of_the_batch() {
        let pool = WorkerPool::new(2).unwrap();
        let mut tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = Vec::new();
        for i in 0..8u32 {
            if i == 3 {
                tasks.push(Box::new(|| panic!("task three exploded")));
            } else {
                tasks.push(Box::new(move || i));
            }
        }
        let results = pool.run_batch(tasks);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("task three exploded"), "{msg}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32);
            }
        }
        let stats = pool.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.jobs, 8, "panicking task still counts as executed");
        // The pool is still alive for the next batch.
        let again = pool.run_batch(vec![|| 41 + 1]);
        assert_eq!(again[0].as_ref().unwrap(), &42);
    }

    #[test]
    fn the_worker_marker_is_set_inside_tasks_only() {
        let pool = WorkerPool::new(1).unwrap();
        assert!(!on_worker());
        assert!(pool.run_one(on_worker).unwrap());
        assert!(!on_worker());
    }

    #[test]
    fn run_one_dispatches_and_isolates() {
        let pool = WorkerPool::new(1).unwrap();
        assert_eq!(pool.run_one(|| "ok").unwrap(), "ok");
        let err = pool.run_one(|| -> u32 { panic!("solo crash") }).unwrap_err();
        assert!(err.contains("solo crash"), "{err}");
        assert_eq!(pool.stats().panics, 1);
    }

    #[test]
    fn busy_time_is_recorded_before_the_result_is_handed_back() {
        let pool = WorkerPool::new(1).unwrap();
        let pause = std::time::Duration::from_millis(5);
        let mut busy = 0;
        for round in 0..5 {
            let started = std::time::Instant::now();
            pool.run_one(move || std::thread::sleep(pause)).unwrap();
            let wall = started.elapsed().as_nanos() as u64;
            let now: u64 = pool.stats().worker_busy_ns.iter().sum();
            let task = now - busy;
            assert!(task >= pause.as_nanos() as u64, "round {round}: {task} ns not yet counted");
            assert!(task <= wall, "round {round}: {task} ns busy in {wall} ns of wall time");
            busy = now;
        }
    }

    #[test]
    fn pool_checks_fg_programs_shared_nothing() {
        // The real workload: each task parses and checks its own
        // program with its own interner — results must match the
        // single-threaded checker exactly. The prelude program is deep
        // enough that the test thread takes the checker's big-stack
        // fallback while the pool checks it inline, so this also pins
        // that the two paths agree.
        let prelude = crate::stdlib::with_prelude("accumulate(range(1, 5))");
        let sources = [crate::corpus::FIG5_ACCUMULATE.source.to_owned(), prelude];
        let deep = crate::parser::parse_expr(&sources[1]).unwrap();
        assert!(crate::check::depth_exceeds(&deep, crate::check::INLINE_DEPTH));
        let summary = |src: &str| {
            let expr = crate::parser::parse_expr(src).unwrap();
            let c = crate::check_program(&expr).unwrap();
            (c.ty.to_string(), c.elaborated.to_string(), c.check_stats)
        };
        let pool = WorkerPool::new(4).unwrap();
        let tasks: Vec<_> = (0..8)
            .map(|i| {
                let src = sources[i % 2].clone();
                move || summary(&src)
            })
            .collect();
        for (i, r) in pool.run_batch(tasks).into_iter().enumerate() {
            assert_eq!(r.unwrap(), summary(&sources[i % 2]));
        }
    }

    #[test]
    fn fnv_key_separates_parts_and_content() {
        assert_ne!(fnv1a(&[b"ab", b"c"]), fnv1a(&[b"a", b"bc"]));
        assert_ne!(fnv1a(&[b"check", b"x"]), fnv1a(&[b"run", b"x"]));
        assert_eq!(fnv1a(&[b"check", b"x"]), fnv1a(&[b"check", b"x"]));
        assert_ne!(fnv1a(&[]), fnv1a(&[b""]));
    }

    #[test]
    fn cache_counts_hits_and_misses_and_invalidates_on_edit() {
        let cache: CompileCache<String> = CompileCache::new(16);
        let original = fnv1a(&[b"check", b"0", b"model Monoid<int> ..."]);
        assert_eq!(cache.lookup(original), None);
        cache.insert(original, "int".to_owned());
        assert_eq!(cache.lookup(original).as_deref(), Some("int"));
        // An edited source hashes elsewhere: the stale entry is simply
        // never consulted.
        let edited = fnv1a(&[b"check", b"0", b"model Monoid<int> ... edited"]);
        assert_ne!(original, edited);
        assert_eq!(cache.lookup(edited), None);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_flushes_at_capacity_instead_of_growing() {
        let cache: CompileCache<u32> = CompileCache::new(4);
        for i in 0..4u64 {
            cache.insert(i, i as u32);
        }
        assert_eq!(cache.len(), 4);
        // Re-inserting an existing key does not flush.
        cache.insert(0, 99);
        assert_eq!(cache.len(), 4);
        // A new key past capacity flushes the epoch.
        cache.insert(100, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(100), Some(1));
    }
}
