//! Structured data parallelism for the engine's cell loops and the shard
//! task graph.
//!
//! The paper parallelizes within one MPI rank with TBB tasks; this module
//! plays that role with **no external dependencies**, so the workspace
//! builds in hermetic environments. One executor runs every parallel
//! call: a long-lived work-stealing pool (`crate::pool`) — lazily-started
//! workers that survive across `Engine::step` calls, per-worker deques
//! (LIFO local push/pop, FIFO steal) feeding the task-graph scheduler, a
//! shared FIFO injector for each batch's seed tasks, and condvar
//! park/unpark so an idle engine burns no CPU. Every entry point submits
//! through [`run_graph_init`]: the chunked cell loops are edge-free
//! graphs of one task per chunk. Workers are not pinned to cores: the OS
//! scheduler places them. At one thread (and for nested calls) every
//! entry point runs inline on the calling thread in deterministic order —
//! the reference the thread-invariance tests compare against.
//!
//! # Determinism contract
//!
//! Task *execution* may move freely between workers (work stealing), but
//! every reduction keeps a worker-independent combine order: [`map_max`]
//! folds per-chunk partial maxima **in chunk-index order** on the calling
//! thread, and [`run_graph_init`] guarantees only exactly-once execution
//! ordered by the graph edges — callers own result determinism by writing
//! each datum from exactly one task (see `Engine::step`). This is what
//! keeps engine steps bit-identical across 1/4/16 threads
//! (`tests/determinism.rs`).
//!
//! Thread count: `ADERDG_THREADS` if set, else the machine's available
//! parallelism; [`set_num_threads`] overrides at runtime and resizes the
//! persistent pool while it is idle.

use crate::pool;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Cached worker-thread count (0 = not yet resolved).
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The process-wide persistent pool (built lazily on first use, rebuilt
/// on [`set_num_threads`] resizes). Holding this lock for the duration
/// of a batch is what makes resizes safe: [`set_num_threads`] blocks
/// here until the pool is idle.
static POOL: Mutex<Option<pool::Pool>> = Mutex::new(None);

thread_local! {
    /// True while this thread is executing a parallel task (on the pool
    /// or on the inline sequential path). Nested parallel
    /// calls run inline, and [`set_num_threads`] panics.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// RAII guard marking the current thread as inside a parallel task.
pub(crate) struct TaskFlag(bool);

impl Drop for TaskFlag {
    fn drop(&mut self) {
        let prev = self.0;
        IN_TASK.with(|c| c.set(prev));
    }
}

/// Flags the current thread as executing a parallel task until the
/// returned guard drops.
pub(crate) fn enter_task() -> TaskFlag {
    TaskFlag(IN_TASK.with(|c| c.replace(true)))
}

fn in_task() -> bool {
    IN_TASK.with(|c| c.get())
}

/// Locks ignoring poisoning: par's own mutexes are never held across
/// user code, and recovering (rather than propagating a `PoisonError`
/// panic) is what keeps one panicked batch from wedging the pool for
/// the next call.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of worker threads the cell loops use.
///
/// # Panics
/// If `ADERDG_THREADS` is set but is not a positive integer — an
/// unparsable thread count used to fall back silently to the machine's
/// full parallelism, which is exactly the wrong surprise on a shared
/// node.
pub fn num_threads() -> usize {
    // ORDERING: Relaxed — a standalone cached count; racing first-use
    // resolutions compute the same value, and the pool itself re-reads
    // this under the registry mutex.
    let cached = NUM_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let var = std::env::var("ADERDG_THREADS");
    let n = resolve_num_threads(var.as_deref().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    // ORDERING: Relaxed — see the load above.
    NUM_THREADS.store(n, Ordering::Relaxed);
    n
}

/// Parses an `ADERDG_THREADS` value (`None` = unset, fall back to the
/// machine's available parallelism); panics on a non-integer or zero.
fn resolve_num_threads(value: Option<&str>) -> Option<usize> {
    let s = value?;
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        // PANIC-OK: configuration typos fail loudly by policy (see doc
        // comment on `num_threads`).
        _ => panic!("invalid ADERDG_THREADS `{s}` (expected a positive integer)"),
    }
}

/// Overrides the worker-thread count for subsequent parallel calls and
/// resizes the persistent pool.
///
/// Safe while the pool is **idle**: the call blocks until any in-flight
/// batch (a concurrent `Engine::step`, say) completes, then shuts down
/// and joins the old workers; the pool is rebuilt at the new size on the
/// next parallel call. Intended for tests and benches that compare runs
/// at several thread counts within one process; production runs set
/// `ADERDG_THREADS` instead, which is read once on first use.
///
/// # Panics
/// If `n` is zero, or if called from **inside** a parallel task (the
/// pool cannot be resized mid-graph — the old silent-footgun behaviour
/// is now a loud error).
pub fn set_num_threads(n: usize) {
    assert!(n >= 1, "thread count must be at least 1");
    assert!(
        !in_task(),
        "set_num_threads called from inside a parallel task: the worker \
         pool cannot be resized mid-graph; call it only between parallel \
         calls"
    );
    // Blocks until no batch is active, making the resize idle-safe.
    let mut guard = lock(&POOL);
    // ORDERING: Relaxed — written under the registry mutex; parallel
    // calls re-read it after taking the same mutex.
    NUM_THREADS.store(n, Ordering::Relaxed);
    if let Some(p) = guard.take() {
        if p.size == n {
            *guard = Some(p);
        } else {
            p.shutdown();
        }
    }
}

/// Gets (building or resizing if needed) the persistent pool under an
/// already-held registry lock.
fn ensure_pool<'a>(guard: &'a mut MutexGuard<'_, Option<pool::Pool>>) -> &'a mut pool::Pool {
    let n = num_threads();
    let rebuild = match guard.as_ref() {
        Some(p) => p.size != n,
        None => true,
    };
    if rebuild {
        if let Some(old) = guard.take() {
            old.shutdown();
        }
        **guard = Some(pool::Pool::new(n));
    }
    // PANIC-OK: internal invariant — the branch above just installed it.
    guard.as_mut().expect("pool was just ensured")
}

/// A per-worker state slot of [`run_graph_init`]: written only by the
/// worker whose index it is keyed by, read/dropped by the submitter
/// strictly after batch completion.
struct StateSlot<S>(UnsafeCell<Option<S>>);

// SAFETY: each slot is accessed by exactly one worker thread during the
// batch (slots are indexed by the unique worker id), and by the
// submitting thread only after the batch's completion handshake — the
// accesses never overlap. `S: Send` because states are created on
// worker threads and dropped on the submitter.
unsafe impl<S: Send> Sync for StateSlot<S> {}

/// Applies `f(index, item)` to every item in parallel. The items are
/// cut into at most one contiguous chunk per worker thread, run as an
/// edge-free [`run_graph_init`] graph; chunks may migrate between
/// workers, but each runs exactly once.
pub fn for_each_mut<T: Send>(items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    let len = items.len();
    let chunk = len.div_ceil(num_threads().min(len.max(1))).max(1);
    // Task `ci` alone locks chunk `ci`: the locks are uncontended.
    let chunks: Vec<Mutex<&mut [T]>> = items.chunks_mut(chunk).map(Mutex::new).collect();
    let n = chunks.len();
    run_graph_init(
        &vec![0; n],
        &vec![Vec::new(); n],
        || (),
        |(), ci| {
            for (j, item) in lock(&chunks[ci]).iter_mut().enumerate() {
                f(ci * chunk + j, item);
            }
        },
    );
}

/// Parallel `max` of `f` over `items`; returns `identity` for an empty
/// slice.
///
/// NaN behaviour follows [`f64::max`]: a NaN value loses against any
/// non-NaN operand, so NaN items are effectively ignored and `identity`
/// is returned when *every* mapped value is NaN (and `identity` itself is
/// not). The result is independent of the chunking **and of which worker
/// runs which chunk** — each chunk's partial maximum is slotted by chunk
/// index and the partials are folded in chunk-index order on the calling
/// thread; `max` is associative and commutative over the non-NaN values.
/// This is what keeps [`crate::Engine::max_dt`] bit-identical across
/// thread counts.
pub fn map_max<T: Sync>(items: &[T], identity: f64, f: impl Fn(&T) -> f64 + Sync) -> f64 {
    let len = items.len();
    let chunk = len.div_ceil(num_threads().min(len.max(1))).max(1);
    let n = len.div_ceil(chunk);
    // One slot per chunk; written exactly once by whichever worker runs
    // the chunk, folded below in chunk order.
    let partials: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(identity.to_bits())).collect();
    run_graph_init(
        &vec![0; n],
        &vec![Vec::new(); n],
        || (),
        |(), ci| {
            let part = &items[ci * chunk..(ci * chunk + chunk).min(len)];
            let m = part.iter().map(&f).fold(identity, f64::max);
            // ORDERING: Release pairs with the Acquire fold below so the
            // submitter reads each slot's final value (the batch join
            // already orders these; the pairing keeps the slot
            // self-contained).
            partials[ci].store(m.to_bits(), Ordering::Release);
        },
    );
    partials
        .iter()
        // ORDERING: Acquire — see the Release store above.
        .map(|b| f64::from_bits(b.load(Ordering::Acquire)))
        .fold(identity, f64::max)
}

/// Tasks that can never become ready from the seeds (0 for a DAG).
fn count_stuck(indegree: &[usize], dependents: &[Vec<usize>]) -> usize {
    let n = indegree.len();
    let mut counters = indegree.to_vec();
    let mut queue: VecDeque<usize> = (0..n).filter(|&t| indegree[t] == 0).collect();
    let mut visited = 0usize;
    while let Some(t) = queue.pop_front() {
        visited += 1;
        for &d in &dependents[t] {
            counters[d] -= 1;
            if counters[d] == 0 {
                queue.push_back(d);
            }
        }
    }
    n - visited
}

/// Runs a task dependency graph to completion on the worker pool, with
/// one `init()`-produced scratch state per worker (the lightweight shard
/// scheduler of the pipelined engine step).
///
/// Tasks are identified by index `0..indegree.len()`. `indegree[t]` is the
/// number of direct dependencies of task `t`; `dependents[t]` lists the
/// tasks unblocked by `t`'s completion (each entry accounts for exactly
/// one unit of that task's indegree). A task becomes *ready* once its
/// per-task atomic counter — initialized from `indegree` — reaches zero.
/// A newly-ready task is pushed onto the *completing worker's own deque*
/// (LIFO — it usually runs next, with its inputs still hot) and idle
/// workers steal from the FIFO end, so one slow shard does not idle the
/// rest of the pool; independent subgraphs overlap with no global barrier
/// between graph "phases".
///
/// Memory ordering: the counter decrements are `AcqRel`, so everything a
/// dependency task wrote happens-before its dependents run — callers can
/// hand tasks plain (uncontended) locks over shared buffers and rely on
/// the graph edges for exclusivity.
///
/// The single-worker path (and `indegree.len() == 1`) executes tasks in
/// deterministic Kahn order; with more workers the execution *order* is
/// schedule-dependent, so determinism of the results is the caller's
/// contract (each datum written by exactly one task, reads ordered by
/// edges). Worker states require `S: Send` because they are created on
/// worker threads and dropped on the calling thread after the batch.
///
/// # Panics
/// If `dependents.len() != indegree.len()`, if an edge points out of
/// range, or if the graph contains a cycle (some tasks can never become
/// ready). A panic *inside* a task propagates to the caller without
/// deadlocking, and without poisoning the pool for the next call.
pub fn run_graph_init<S: Send>(
    indegree: &[usize],
    dependents: &[Vec<usize>],
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize) + Sync,
) {
    let n = indegree.len();
    assert_eq!(dependents.len(), n, "one dependents list per task");
    assert!(
        dependents.iter().flatten().all(|&d| d < n),
        "dependent edge out of range"
    );
    if n == 0 {
        return;
    }
    let threads = num_threads().min(n);

    if threads <= 1 || in_task() {
        // Deterministic sequential Kahn order.
        let _flag = enter_task();
        let mut counters: Vec<usize> = indegree.to_vec();
        let mut queue: VecDeque<usize> = (0..n).filter(|&t| indegree[t] == 0).collect();
        let mut state = init();
        let mut done = 0;
        while let Some(t) = queue.pop_front() {
            run(&mut state, t);
            done += 1;
            for &d in &dependents[t] {
                counters[d] -= 1;
                if counters[d] == 0 {
                    queue.push_back(d);
                }
            }
        }
        assert_eq!(done, n, "task graph has a cycle ({} tasks stuck)", n - done);
        return;
    }

    // Validate acyclicity up front (cheap O(V+E) Kahn pass): the
    // work-stealing executor then never needs a distributed "everyone is
    // stuck" detection.
    let stuck = count_stuck(indegree, dependents);
    assert!(stuck == 0, "task graph has a cycle ({stuck} tasks stuck)");
    let counters: Vec<AtomicUsize> = indegree.iter().map(|&d| AtomicUsize::new(d)).collect();
    let payload = {
        let mut guard = lock(&POOL);
        let pool = ensure_pool(&mut guard);
        let states: Vec<StateSlot<S>> = (0..pool.size)
            .map(|_| StateSlot(UnsafeCell::new(None)))
            .collect();
        let seeds = (0..n).filter(|&t| indegree[t] == 0);
        pool.run_batch(n, seeds, &|ctx, t| {
            // SAFETY: slot `ctx.worker()` is touched only by this worker
            // during the batch; the submitter drops the vec only after
            // completion.
            let slot = unsafe { &mut *states[ctx.worker()].0.get() };
            let state = slot.get_or_insert_with(&init);
            run(state, t);
            for &d in &dependents[t] {
                // ORDERING: AcqRel — Release publishes this task's
                // writes to whichever worker runs `d`; Acquire makes the
                // last decrementer see every predecessor's writes before
                // spawning it.
                if counters[d].fetch_sub(1, Ordering::AcqRel) == 1 {
                    ctx.spawn(d);
                }
            }
        })
    };
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The thread-count override is process-global: tests that flip it
    /// must hold this lock so the save/restore pairs cannot interleave
    /// (which would leak the override into unrelated tests).
    static THREAD_KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn for_each_covers_all_indices_once() {
        let mut v = vec![0usize; 1000];
        for_each_mut(&mut v, |i, x| *x = i + 1);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i + 1);
        }
    }

    #[test]
    fn init_state_is_per_chunk_and_reused() {
        // An edge-free graph (the shape `for_each_mut` and `map_max`
        // submit): the per-worker states count invocations, and the
        // totals must cover every task exactly once, with no more states
        // than workers.
        use std::sync::atomic::AtomicUsize;
        // Holds the thread count still between the batch and the bound.
        let _guard = THREAD_KNOB.lock().unwrap();
        let states = AtomicUsize::new(0);
        let total = AtomicUsize::new(0);
        let n = 517;
        run_graph_init(
            &vec![0; n],
            &vec![Vec::new(); n],
            || {
                states.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |count, _| {
                *count += 1;
                total.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(total.load(Ordering::Relaxed), n);
        assert!((1..=num_threads()).contains(&states.load(Ordering::Relaxed)));
    }

    #[test]
    fn map_max_matches_sequential() {
        let v: Vec<f64> = (0..777).map(|i| ((i * 37) % 101) as f64).collect();
        let want = v.iter().cloned().fold(0.0, f64::max);
        assert_eq!(map_max(&v, 0.0, |&x| x), want);
        assert_eq!(map_max::<f64>(&[], -1.0, |&x| x), -1.0);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn env_knobs_accept_documented_values() {
        assert_eq!(resolve_num_threads(None), None);
        assert_eq!(resolve_num_threads(Some("1")), Some(1));
        assert_eq!(resolve_num_threads(Some("16")), Some(16));
    }

    #[test]
    #[should_panic(expected = "invalid ADERDG_THREADS `four`")]
    fn thread_count_typo_fails_loudly() {
        resolve_num_threads(Some("four"));
    }

    #[test]
    #[should_panic(expected = "invalid ADERDG_THREADS `0`")]
    fn zero_thread_count_fails_loudly() {
        resolve_num_threads(Some("0"));
    }

    #[test]
    fn for_each_handles_empty_and_tiny_slices() {
        // Empty slice: no work, no panic, init never observed.
        let mut empty: Vec<usize> = Vec::new();
        for_each_mut(&mut empty, |_, _| unreachable!("no items to visit"));

        // Single item.
        let mut one = vec![0usize];
        for_each_mut(&mut one, |i, x| *x = i + 42);
        assert_eq!(one, vec![42]);

        // Fewer items than workers: every index still visited exactly
        // once (the chunking clamps to the item count).
        let _guard = THREAD_KNOB.lock().unwrap();
        let before = num_threads();
        set_num_threads(16);
        let mut few = vec![0usize; 3];
        for_each_mut(&mut few, |i, x| *x += i + 1);
        assert_eq!(few, vec![1, 2, 3]);
        set_num_threads(before);
    }

    #[test]
    fn map_max_edge_cases_empty_single_and_len_below_threads() {
        assert_eq!(map_max::<f64>(&[], 7.5, |&x| x), 7.5);
        assert_eq!(map_max(&[3.0f64], 0.0, |&x| x), 3.0);
        let _guard = THREAD_KNOB.lock().unwrap();
        let before = num_threads();
        set_num_threads(16);
        let v = [2.0f64, 9.0, 4.0];
        assert_eq!(map_max(&v, 0.0, |&x| x), 9.0);
        set_num_threads(before);
    }

    #[test]
    fn run_graph_respects_dependency_order() {
        // Diamond per layer: 0 -> {1, 2} -> 3, chained 32 times.
        let layers = 32;
        let n = 4 * layers;
        let mut indegree = vec![0usize; n];
        let mut dependents = vec![Vec::new(); n];
        for l in 0..layers {
            let b = 4 * l;
            dependents[b] = vec![b + 1, b + 2];
            indegree[b + 1] = 1;
            indegree[b + 2] = 1;
            dependents[b + 1] = vec![b + 3];
            dependents[b + 2] = vec![b + 3];
            indegree[b + 3] = 2;
            if l + 1 < layers {
                dependents[b + 3].push(b + 4);
                indegree[b + 4] = 1;
            }
        }
        let finished: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let order = AtomicUsize::new(0);
        run_graph_init(
            &indegree,
            &dependents,
            || (),
            |(), t| {
                // Record a completion stamp and check every dependency
                // already finished.
                let deps: Vec<usize> = (0..n).filter(|&d| dependents[d].contains(&t)).collect();
                for d in deps {
                    assert!(
                        finished[d].load(Ordering::Acquire) > 0,
                        "task {t} ran before dependency {d}"
                    );
                }
                finished[t].store(1 + order.fetch_add(1, Ordering::AcqRel), Ordering::Release);
            },
        );
        assert!(finished.iter().all(|f| f.load(Ordering::Acquire) > 0));
    }

    #[test]
    fn run_graph_runs_every_task_once_at_many_threads() {
        let _guard = THREAD_KNOB.lock().unwrap();
        let before = num_threads();
        set_num_threads(16);
        let n = 300;
        // Independent tasks (no edges): pure fan-out.
        let indegree = vec![0usize; n];
        let dependents = vec![Vec::new(); n];
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run_graph_init(
            &indegree,
            &dependents,
            || (),
            |(), t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            },
        );
        for (t, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {t}");
        }
        set_num_threads(before);
    }

    #[test]
    fn run_graph_init_state_is_reused_per_worker() {
        let _guard = THREAD_KNOB.lock().unwrap();
        let before = num_threads();
        set_num_threads(1);
        // Sequential path: one state visits all tasks in Kahn order.
        let indegree = vec![0, 1, 1];
        let dependents = vec![vec![1], vec![2], vec![]];
        let total = AtomicUsize::new(0);
        run_graph_init(
            &indegree,
            &dependents,
            || 0usize,
            |count, t| {
                assert_eq!(*count, t, "sequential Kahn order");
                *count += 1;
                total.fetch_add(1, Ordering::Relaxed);
            },
        );
        set_num_threads(before);
        assert_eq!(total.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn run_graph_empty_is_a_noop() {
        run_graph_init(&[], &[], || (), |(), _| unreachable!("no tasks"));
    }

    #[test]
    fn run_graph_propagates_task_panics_at_many_threads() {
        // A panicking task must neither hang the scheduler nor strand
        // the surviving workers: the panic propagates out of
        // run_graph_init on the calling thread, and the pool stays
        // usable for the next call.
        let _guard = THREAD_KNOB.lock().unwrap();
        let before = num_threads();
        set_num_threads(4);
        let n = 64;
        let indegree = vec![0usize; n];
        let dependents = vec![Vec::new(); n];
        let result = std::panic::catch_unwind(|| {
            run_graph_init(
                &indegree,
                &dependents,
                || (),
                |(), t| {
                    if t == 13 {
                        panic!("boom in task {t}");
                    }
                },
            );
        });
        assert!(result.is_err(), "the task panic must propagate");
        // The pool survives: the next batch runs normally.
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run_graph_init(
            &indegree,
            &dependents,
            || (),
            |(), t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        set_num_threads(before);
    }

    #[test]
    fn run_graph_detects_cycles_at_many_threads_without_hanging() {
        let _guard = THREAD_KNOB.lock().unwrap();
        let before = num_threads();
        set_num_threads(4);
        // An acyclic prefix (0) feeding a 1 <-> 2 cycle.
        let indegree = vec![0, 2, 1];
        let dependents = vec![vec![1], vec![2], vec![1]];
        let result = std::panic::catch_unwind(|| {
            run_graph_init(&indegree, &dependents, || (), |(), _| {});
        });
        // `run_graph_panics_on_cycle` pins the message on the
        // sequential path. Here the contract is detection without
        // deadlock on the pool.
        assert!(result.is_err(), "the cycle must be detected");
        set_num_threads(before);
    }

    #[test]
    #[should_panic(expected = "task graph has a cycle")]
    fn run_graph_panics_on_cycle() {
        let _guard = THREAD_KNOB.lock().unwrap();
        let before = num_threads();
        set_num_threads(1);
        let indegree = vec![0, 2, 1];
        let dependents = vec![vec![1], vec![2], vec![1]]; // 1 <-> 2 cycle
        let result = std::panic::catch_unwind(|| {
            run_graph_init(&indegree, &dependents, || (), |(), _| {});
        });
        set_num_threads(before);
        // Release the knob lock *before* re-panicking so the expected
        // panic cannot poison it for the other knob-flipping tests.
        drop(_guard);
        std::panic::resume_unwind(result.unwrap_err());
    }

    #[test]
    fn map_max_ignores_nan_items() {
        // f64::max drops NaN against any non-NaN operand...
        let v = [1.0f64, f64::NAN, 5.0, f64::NAN];
        assert_eq!(map_max(&v, 0.0, |&x| x), 5.0);
        // ...so an all-NaN slice falls back to the identity.
        let all_nan = [f64::NAN, f64::NAN];
        assert_eq!(map_max(&all_nan, -1.0, |&x| x), -1.0);
    }

    #[test]
    fn nested_parallel_calls_run_inline() {
        let _guard = THREAD_KNOB.lock().unwrap();
        let before = num_threads();
        set_num_threads(4);
        let mut outer = vec![0usize; 8];
        for_each_mut(&mut outer, |i, x| {
            // A nested call from inside a task must not deadlock on
            // the pool; it runs inline on this worker.
            let mut inner = vec![0usize; 16];
            for_each_mut(&mut inner, |j, y| *y = j + 1);
            *x = i + inner.iter().sum::<usize>();
        });
        for (i, &x) in outer.iter().enumerate() {
            assert_eq!(x, i + 136);
        }
        set_num_threads(before);
    }
}
