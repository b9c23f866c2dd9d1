//! Persistent deterministic worker pool.
//!
//! The engine's parallel tick phases used to pay a `thread::scope`
//! spawn per broadcast tick, which dominates wall time below ~1k
//! clients (ROADMAP: 0.59× at 100 clients × 2 threads). This pool is
//! spawned **once** per engine and reused for every tick: each
//! [`WorkerPool::run`] call publishes one *job* — `chunks` contiguous
//! work descriptors, executed by invoking `task(chunk_index)` — and
//! returns only when every chunk has completed (the tick barrier).
//!
//! Determinism contract: the pool decides **who** executes a chunk,
//! never **what** a chunk is. Chunk geometry is a pure function of the
//! caller's inputs (population size, configured shard count), each
//! chunk writes only to its own slot, and the caller merges slots in
//! chunk-index order after `run` returns — so results are bit-identical
//! whether a chunk ran on a worker, on the caller, or everything ran
//! inline on a pool with zero workers. [`Chunks`] is the one place that
//! decides the geometry and hands chunk `i` slot `i`; the engine's
//! sharded phases go through it rather than through [`WorkerPool::run`].
//!
//! Scheduling is work-claiming rather than work-assigning: chunks are
//! claimed from a shared atomic counter by the caller *and* the
//! workers. On a single-core host the caller typically claims every
//! chunk itself before a worker is scheduled, so the per-tick overhead
//! is one wake notification instead of a spawn + join — which is what
//! amortises the small-population case. On multi-core hosts the
//! workers claim chunks concurrently and the same code path scales.
//!
//! Failure contract: a panicking chunk never hangs the barrier. The
//! panic payload is captured, every remaining chunk still completes,
//! and [`WorkerPool::run`] re-raises the first payload on the calling
//! thread. Dropping the pool signals shutdown and joins every worker.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A raw pointer wrapper asserting `Send`/`Sync`, so a chunk task can
/// reach its own slot of a caller-owned buffer. Private to this module:
/// outside the tests, [`Chunks::run`] is the only code that dereferences
/// one, at offset `i` from chunk `i` alone.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// The wrapped pointer. Inside a chunk closure, always go through
    /// this method rather than field access: under RFC 2229 disjoint
    /// capture, `ptr.0` would capture only the raw (non-`Send`) field
    /// and the closure would stop being `Sync`, while a method call
    /// captures the whole wrapper.
    #[inline]
    fn get(self) -> *mut T {
        self.0
    }
}

// Manual impls: the wrapper is a pointer copy regardless of `T`
// (derives would demand `T: Copy`).
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: the only field is the pointer. Sending or sharing it lets
// another thread reach a `T` (never a shared one: each offset has one
// user), hence the `T: Send` bound on both impls.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Number of contiguous chunks a population of `len` items should be
/// split into: at most `max_shards`, at most one per item, and — when
/// `min_per_shard > 1` — only as many as keep every chunk at least that
/// big. Returns ≥ 1; `1` means "run serially on the caller".
///
/// Chunk geometry is part of the determinism argument, so it is decided
/// here and in [`Chunks::new`] only: no sharded phase computes its own.
fn shard_count(max_shards: usize, len: usize, min_per_shard: usize) -> usize {
    let by_work = if min_per_shard > 1 {
        (len / min_per_shard).max(1)
    } else {
        len
    };
    max_shards.min(len).min(by_work).max(1)
}

/// The chunk geometry of one sharded phase: `len` items split into
/// contiguous index ranges of `size` items (the last one shorter), in
/// ascending order. Every sharded phase gets its geometry here and runs
/// through [`Chunks::run`], which owns the rule that makes the phases
/// deterministic: chunk `i` is handed slot `i` and touches no other, and
/// the caller merges slots in chunk order afterwards.
///
/// ```
/// use mobicache_sim::pool::Chunks;
/// use mobicache_sim::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let data: Vec<u64> = (0..1_000).collect();
/// // At most 4 chunks of at least 100 items, starts on multiples of 64.
/// let chunks = Chunks::new(data.len(), 4, 100, 64);
/// let mut sums = vec![0u64; chunks.count()];
/// chunks.run(&pool, sums.iter_mut(), |range, sum| *sum = data[range].iter().sum());
/// assert_eq!(sums.iter().sum::<u64>(), data.iter().sum());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chunks {
    len: usize,
    size: usize,
}

impl Chunks {
    /// Splits `len` items into at most `max_shards` chunks, at most one
    /// per item and — when `min_per_shard > 1` — only as many as keep
    /// each chunk at least that big, every chunk start a multiple of
    /// `align` (1 for none). Chunk geometry only decides who runs what:
    /// a phase merged in chunk order gives the same result whatever it
    /// is.
    pub fn new(len: usize, max_shards: usize, min_per_shard: usize, align: usize) -> Self {
        let t = shard_count(max_shards, len, min_per_shard);
        let size = len.div_ceil(t).next_multiple_of(align.max(1)).max(1);
        Chunks { len, size }
    }

    /// Items per chunk (the last chunk may hold fewer). Callers that
    /// hand each chunk a sub-slice split it with `chunks_mut(size())`.
    pub fn size(self) -> usize {
        self.size
    }

    /// Number of chunks, ≥ 1; `1` runs on the caller.
    pub fn count(self) -> usize {
        self.len.div_ceil(self.size).max(1)
    }

    /// The item range of chunk `i`.
    pub fn range(self, i: usize) -> Range<usize> {
        let start = (i * self.size).min(self.len);
        start..(start + self.size).min(self.len)
    }

    /// Runs `task(range(i), slot_i)` for every chunk `i`, where `slot_i`
    /// is the `i`-th item of `slots`, and returns when all have run. One
    /// chunk is a direct call on the caller: no allocation and no pool
    /// handshake. Zero items run nothing.
    ///
    /// # Panics
    /// Panics if `slots` yields fewer than [`Chunks::count`] items, and
    /// re-raises the first panic of any chunk after every chunk has run.
    pub fn run<S, I, F>(self, pool: &WorkerPool, slots: I, task: F)
    where
        S: Send,
        I: IntoIterator<Item = S>,
        F: Fn(Range<usize>, S) + Sync,
    {
        if self.len == 0 {
            return;
        }
        let count = self.count();
        if count == 1 {
            let slot = slots.into_iter().next().expect("a slot for the one chunk");
            task(0..self.len, slot);
            return;
        }
        let mut slots: Vec<Option<S>> = slots.into_iter().take(count).map(Some).collect();
        assert_eq!(slots.len(), count, "one slot per chunk");
        let ptr = SendPtr(slots.as_mut_ptr());
        pool.run(count, &|i| {
            // SAFETY: chunk `i` is the only user of offset `i < count`,
            // and `WorkerPool::run` returns (even by unwinding) only
            // after every chunk is done, so `slots` outlives each use.
            let slot = unsafe { (*ptr.get().add(i)).take() };
            task(self.range(i), slot.expect("each slot is taken once"));
        });
    }
}

/// Calls `f(i)` for every set bit `i` of the bitmap `words` (bit `i` is
/// bit `i % 64` of word `i / 64`) with `i` in `range`, in ascending
/// order. A zero word costs one load, not 64 branches — this is how the
/// broadcast phases walk a delivery mask over one chunk's clients.
#[inline]
pub fn for_each_set_bit(words: &[u64], range: Range<usize>, mut f: impl FnMut(usize)) {
    let first = range.start / 64;
    for (wi, &word) in words
        .iter()
        .enumerate()
        .take(range.end.div_ceil(64))
        .skip(first)
    {
        let mut w = word;
        if wi == first {
            w &= u64::MAX << (range.start % 64);
        }
        if (wi + 1) * 64 > range.end {
            w &= (1u64 << (range.end % 64)) - 1;
        }
        while w != 0 {
            f(wi * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// One published job: `chunks` work descriptors claimed from `next`,
/// completion tracked in `done`. Lives on the stack of the `run` call
/// that published it; see the module docs for why the raw pointer in
/// `task` stays valid for exactly as long as workers can reach it.
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    done: AtomicUsize,
    chunks: usize,
}

struct State {
    /// Monotonic epoch counter; bumped when a job is published. Workers
    /// remember the last epoch they saw so a single job is never run
    /// twice by the same worker.
    epoch: u64,
    /// The active job, or `None` between epochs. Cleared by the caller
    /// *before* `run` returns, under the same mutex workers register
    /// through, so no worker can reach a retired job.
    job: Option<*const Job>,
    /// Workers currently holding a reference to the active job.
    active: usize,
    /// First panic payload captured from any chunk this epoch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

// SAFETY: the raw job pointer makes `State` !Send by default; the
// epoch/active protocol above guarantees it is only dereferenced while
// the pointee is alive, and all access is mutex-guarded.
unsafe impl Send for State {}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between epochs.
    work: Condvar,
    /// The caller parks here waiting for the completion barrier.
    barrier: Condvar,
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    // A poisoned mutex only means a chunk panicked while we held the
    // guard elsewhere; the state itself is always consistent, and
    // refusing to lock would turn a reported panic into a hang.
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A persistent pool of `threads - 1` workers plus the calling thread.
///
/// ```
/// use mobicache_sim::WorkerPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let total = AtomicU64::new(0);
/// // 8 chunks over 800 items; the caller and the 3 workers claim them.
/// pool.run(8, &|chunk| {
///     let sum: u64 = (chunk as u64 * 100..(chunk as u64 + 1) * 100).sum();
///     total.fetch_add(sum, Ordering::Relaxed);
/// });
/// assert_eq!(total.into_inner(), (0..800).sum());
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl WorkerPool {
    /// A pool presenting `threads` total execution lanes: the calling
    /// thread plus `threads - 1` spawned workers. `threads <= 1` spawns
    /// nothing and [`WorkerPool::run`] degenerates to an inline loop.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            barrier: Condvar::new(),
        });
        let handles = (1..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mobicache-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Total execution lanes (spawned workers + the caller).
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Spawned worker threads (0 for a serial pool).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Executes `task(i)` for every `i in 0..chunks`, each exactly
    /// once, and returns when all have completed. The caller claims
    /// chunks alongside the workers, so a busy pool never blocks
    /// progress. Not reentrant: `task` must not call `run` on the same
    /// pool.
    ///
    /// # Panics
    /// Re-raises the first panic any chunk produced — after the
    /// barrier, so no worker still references caller-owned data.
    pub fn run(&self, chunks: usize, task: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        if self.handles.is_empty() || chunks == 1 {
            for i in 0..chunks {
                task(i);
            }
            return;
        }
        // SAFETY: lifetime erasure only — the barrier below keeps the
        // closure borrowed for strictly longer than any worker can
        // reach it through the job pointer.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        let job = Job {
            task,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            chunks,
        };
        {
            let mut st = lock(&self.shared);
            debug_assert!(st.job.is_none(), "WorkerPool::run is not reentrant");
            st.epoch += 1;
            st.job = Some(&job as *const Job);
            st.panic = None;
        }
        self.shared.work.notify_all();
        run_chunks(&self.shared, &job);
        // The barrier: all chunks complete AND every registered worker
        // has released the job. Only then is `job` (and the borrowed
        // task data behind it) safe to drop.
        let mut st = lock(&self.shared);
        while job.done.load(Ordering::Acquire) < chunks || st.active > 0 {
            st = self
                .shared
                .barrier
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        let panic = st.panic.take();
        drop(st);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared).shutdown = true;
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Claims and executes chunks of `job` until none remain. Panics are
/// captured into the shared state so the barrier always completes.
fn run_chunks(shared: &Shared, job: &Job) {
    loop {
        let i = job.next.fetch_add(1, Ordering::AcqRel);
        if i >= job.chunks {
            return;
        }
        // SAFETY: the job (and the closure it points to) outlives every
        // chunk execution — `run` blocks on the barrier until `done`
        // reaches `chunks` and no worker is registered.
        let task = unsafe { &*job.task };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
            let mut st = lock(shared);
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        if job.done.fetch_add(1, Ordering::AcqRel) + 1 == job.chunks {
            // Pair the notification with the mutex so the caller cannot
            // check the predicate and park between our increment and
            // this wake-up.
            drop(lock(shared));
            shared.barrier.notify_one();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let job_ptr = {
            let mut st = lock(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if let Some(ptr) = st.job {
                        st.active += 1;
                        break ptr;
                    }
                    // Epoch already retired before we woke; keep waiting.
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: registration (`active += 1`) and retirement (`job =
        // None`) share the state mutex, so this pointer is live until
        // we deregister below.
        run_chunks(shared, unsafe { &*job_ptr });
        lock(shared).active -= 1;
        shared.barrier.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn shard_count_geometry() {
        assert_eq!(shard_count(4, 100, 1), 4);
        assert_eq!(shard_count(4, 3, 1), 3);
        assert_eq!(shard_count(4, 0, 1), 1);
        assert_eq!(shard_count(1, 100, 1), 1);
        // Work threshold: 100 items at ≥ 64 per shard -> 1 shard;
        // 1000 items -> capped by max_shards again.
        assert_eq!(shard_count(4, 100, 64), 1);
        assert_eq!(shard_count(4, 129, 64), 2);
        assert_eq!(shard_count(4, 1_000, 64), 4);
    }

    /// The ranges `Chunks::run` hands out, in slot order, for every
    /// geometry the tests sweep.
    fn ranges_by_slot(pool: &WorkerPool, chunks: Chunks) -> Vec<Range<usize>> {
        let mut got = vec![0..0; chunks.count()];
        chunks.run(pool, got.iter_mut(), |range, slot| *slot = range);
        got
    }

    const GEOMETRIES: [(usize, usize, usize, usize); 8] = [
        (0, 4, 1, 1),
        (1, 4, 1, 64),
        (7, 3, 1, 1),
        (9, 4, 1, 1),
        (100, 4, 64, 64),
        (1_000, 4, 64, 64),
        (1_000, 7, 1, 1),
        (5_000, 3, 10, 64),
    ];

    #[test]
    fn chunks_cover_every_index_exactly_once() {
        let pool = WorkerPool::new(3);
        for (len, max, min, align) in GEOMETRIES {
            let chunks = Chunks::new(len, max, min, align);
            assert!(chunks.count() <= max.max(1), "{len}/{max}/{min}/{align}");
            let hits: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
            chunks.run(&pool, std::iter::repeat(()), |range, ()| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{len}/{max}/{min}/{align}"
            );
        }
    }

    #[test]
    fn chunk_i_gets_slot_i_in_ascending_order() {
        let pool = WorkerPool::new(3);
        for (len, max, min, align) in GEOMETRIES {
            let chunks = Chunks::new(len, max, min, align);
            let got = ranges_by_slot(&pool, chunks);
            let want: Vec<_> = (0..chunks.count()).map(|i| chunks.range(i)).collect();
            assert_eq!(got, want, "{len}/{max}/{min}/{align}");
            // Ascending and contiguous: each range starts where the
            // previous one ended, and the last one ends at `len`.
            let mut next = 0;
            for r in &got {
                assert_eq!(r.start, next);
                assert!(len == 0 || r.start < r.end, "no empty chunk");
                next = r.end;
            }
            assert_eq!(next, len);
        }
    }

    #[test]
    fn chunk_starts_are_aligned_when_asked() {
        let pool = WorkerPool::new(2);
        for len in [65usize, 200, 1_000, 4_097] {
            for max in [2usize, 3, 4, 7] {
                let chunks = Chunks::new(len, max, 1, 64);
                assert!(chunks.count() > 1, "{len}/{max}");
                for r in ranges_by_slot(&pool, chunks) {
                    assert!(r.start.is_multiple_of(64), "{len}/{max}: {r:?}");
                }
            }
        }
    }

    #[test]
    fn one_chunk_runs_on_the_caller_without_the_pool() {
        let pool = WorkerPool::new(4);
        let chunks = Chunks::new(1_000, 1, 1, 64);
        assert_eq!(chunks.count(), 1);
        let caller = std::thread::current().id();
        let mut ran_on = None;
        // A slot source that panics past its first item proves the one
        // chunk collects no slot list, and hence never reaches the pool.
        let slots = std::iter::once(&mut ran_on).chain(std::iter::from_fn(|| panic!("slot 1")));
        chunks.run(&pool, slots, |range, slot| {
            assert_eq!(range, 0..1_000);
            *slot = Some(std::thread::current().id());
        });
        assert_eq!(ran_on, Some(caller));
    }

    #[test]
    fn chunk_panic_is_reraised_after_every_chunk_ran() {
        let pool = WorkerPool::new(3);
        let chunks = Chunks::new(800, 8, 1, 1);
        assert_eq!(chunks.count(), 8);
        let mut done = vec![false; 8];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            chunks.run(&pool, done.iter_mut(), |range, done| {
                if range.start == 200 {
                    panic!("chunk 2 exploded");
                }
                *done = true;
            });
        }));
        let payload = result.expect_err("the chunk panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 2 exploded"));
        let want: Vec<bool> = (0..8).map(|i| i != 2).collect();
        assert_eq!(done, want, "the barrier waited for every other chunk");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The shared set-bit walker visits exactly the set bits inside
        /// `[start, end)`, ascending — over word-aligned bounds and, as
        /// the oracle's unaligned chunks need, arbitrary ones.
        #[test]
        fn set_bit_walker_visits_exactly_the_set_bits_in_range(
            words in prop::collection::vec(
                prop_oneof![
                    Just(0u64),
                    Just(u64::MAX),
                    any::<u64>(),
                ],
                0..7,
            ),
            a in 0usize..8,
            b in 0usize..8,
            offs in (
                prop_oneof![Just(0usize), 0usize..64],
                prop_oneof![Just(0usize), 0usize..64],
            ),
        ) {
            let bits = words.len() * 64;
            let x = (a * 64 + offs.0).min(bits);
            let y = (b * 64 + offs.1).min(bits);
            let range = x.min(y)..x.max(y);
            let want: Vec<usize> = range
                .clone()
                .filter(|&i| words[i / 64] >> (i % 64) & 1 == 1)
                .collect();
            let mut got = Vec::new();
            for_each_set_bit(&words, range, |i| got.push(i));
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        for chunks in [1usize, 2, 3, 7, 16, 64] {
            let counts: Vec<AtomicU64> = (0..chunks).map(|_| AtomicU64::new(0)).collect();
            pool.run(chunks, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "chunk {i} of {chunks}");
            }
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 0);
        assert_eq!(pool.threads(), 1);
        let total = AtomicU64::new(0);
        pool.run(5, &|i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), 10);
    }

    #[test]
    fn more_chunks_than_threads_all_complete() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        pool.run(100, &|i| {
            total.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), 5050);
    }

    #[test]
    fn disjoint_slot_writes_via_send_ptr() {
        let pool = WorkerPool::new(3);
        let mut slots = vec![0u64; 9];
        let ptr = SendPtr(slots.as_mut_ptr());
        pool.run(9, &|i| {
            // Bind the wrapper, not its field: edition-2021 closures
            // would otherwise capture the bare `*mut` (which is !Sync).

            // SAFETY: each chunk owns exactly slot `i`.
            unsafe { *ptr.get().add(i) = (i as u64 + 1) * 3 };
        });
        assert_eq!(slots, (1..=9).map(|k| k * 3).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_chunk_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let ran = AtomicU64::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("chunk 3 exploded");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = result.expect_err("panic must propagate through run");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(msg.contains("chunk 3 exploded"), "got: {msg}");
        // The barrier completed: every non-panicking chunk still ran.
        assert_eq!(ran.load(Ordering::Relaxed), 7);
        // And the pool is reusable afterwards.
        let total = AtomicU64::new(0);
        pool.run(4, &|i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), 6);
    }

    #[test]
    fn sequential_epochs_reuse_the_same_workers() {
        let pool = WorkerPool::new(3);
        for round in 0..50u64 {
            let total = AtomicU64::new(0);
            pool.run(6, &|i| {
                total.fetch_add(round * 10 + i as u64, Ordering::Relaxed);
            });
            assert_eq!(total.into_inner(), round * 60 + 15, "round {round}");
        }
    }

    #[test]
    fn drop_without_running_joins_cleanly() {
        let pool = WorkerPool::new(8);
        drop(pool);
    }
}
