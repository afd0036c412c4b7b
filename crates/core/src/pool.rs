//! Persistent work-stealing worker pool — the engine room behind
//! [`crate::par`].
//!
//! One long-lived pool of parked worker threads serves every parallel
//! call in the process, so an `Engine::step` no longer pays
//! `std::thread::scope` spawn/join. Work distribution is classic
//! work stealing: each worker owns a deque (LIFO push/pop at the back
//! for locality, FIFO steal from the front), batch seed tasks enter a
//! shared FIFO injector, and tasks spawned *by* tasks (the task-graph
//! scheduler's newly-ready dependents) go to the spawning worker's own
//! deque. Idle workers park on a condvar and burn no CPU; an epoch
//! counter bumped on every push closes the check-then-park race.
//!
//! The module is crate-private on purpose: the public, documented
//! surface (`for_each_mut_init`, `map_max`, `run_graph_init`,
//! `set_num_threads`) lives in [`crate::par`], which
//! owns the determinism contract. Nothing here decides *combine
//! order* — reductions stay worker-independent because the `par`
//! wrappers slot partial results by chunk index and fold them on the
//! submitting thread.
//!
//! # Safety architecture
//!
//! Batches carry a type-erased pointer to the submitting call's task
//! closure (`Batch::run`), which borrows the caller's stack. The pointer
//! is only ever dereferenced between a task's *pop* (which is counted in
//! `spawned` before it is enqueued) and its *finished* increment, and
//! `Pool::run_batch` blocks the submitter until `finished == spawned`
//! with no further spawns possible — so the borrow outlives every
//! dereference. Queued entries are tagged with the batch generation;
//! an entry of generation `g` can only be popped while batch `g` is
//! still installed (its submitter cannot have returned), so a worker
//! whose cached batch is stale re-reads the installed batch and never
//! runs a task against the wrong closure.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// One queued unit of work: the generation of the batch it belongs to
/// plus the caller-defined task index.
type Entry = (u64, usize);

/// The type-erased task closure: `(ctx, task index)`.
type RunFn<'a> = &'a (dyn Fn(&TaskCtx<'_>, usize) + Sync);

/// Locks a mutex, shrugging off poisoning: no pool lock is ever held
/// across user code (task panics are caught around the closure call
/// alone), so a poisoned pool mutex can only mean a panic in pool
/// bookkeeping itself — and even then the data is a queue of plain
/// indices, safe to keep using. This keeps one panicked batch from
/// poisoning the pool for the next call.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bookkeeping of one submitted batch of tasks.
pub(crate) struct Batch {
    /// Type-erased pointer to the submitting call's task closure. Borrows
    /// the submitter's stack; see the module-level safety argument.
    run: *const (dyn Fn(&TaskCtx<'_>, usize) + Sync),
    /// Generation stamp distinguishing this batch's queue entries.
    gen: u64,
    /// Total number of tasks the batch will ever run (known up front;
    /// not all are seeded — graph batches spawn the rest from tasks).
    total: usize,
    /// Spawn/finish accounting, guarded by one mutex with `done` signaled
    /// on completion.
    sync: Mutex<BatchSync>,
    /// Signaled when the batch completes (or aborts and drains).
    done: Condvar,
    /// Set on the first task panic: subsequently popped tasks are skipped
    /// (counted as finished, never run) so the batch drains instead of
    /// deadlocking, and no new tasks are spawned.
    aborted: AtomicBool,
    /// First panic payload, re-raised on the submitting thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `run` is the only non-Send/Sync field; the module-level
// argument shows it is only dereferenced while the submitter keeps the
// referent alive, and the referent itself is `Sync` (shared calls from
// several workers are allowed by its bound).
unsafe impl Send for Batch {}
// SAFETY: same argument as `Send` above — `run` is only ever called
// through a shared reference and its referent is `Sync`.
unsafe impl Sync for Batch {}

struct BatchSync {
    /// Tasks enqueued so far (seeds + task-spawned dependents).
    spawned: usize,
    /// Tasks that ran (or were skipped after an abort).
    finished: usize,
}

impl Batch {
    fn is_done(&self, s: &BatchSync) -> bool {
        // A valid (pre-validated acyclic) batch spawns all `total` tasks
        // before the last one finishes; an aborted batch stops spawning,
        // so it is done when everything spawned has drained.
        // ORDERING: Acquire pairs with the Release store in `run_one`, so
        // a waiter that sees the abort also sees the panic payload write
        // that preceded it.
        s.finished == s.spawned && (s.spawned == self.total || self.aborted.load(Ordering::Acquire))
    }
}

/// Handle passed to every task invocation: identifies the executing
/// worker (for per-worker state slots) and lets graph tasks enqueue
/// newly-ready dependents onto the local deque.
pub(crate) struct TaskCtx<'p> {
    shared: &'p Shared,
    batch: &'p Arc<Batch>,
    worker: usize,
}

impl TaskCtx<'_> {
    /// Index of the worker running this task (`0..workers()`), stable for
    /// the lifetime of the pool — the key into per-worker state slots.
    pub(crate) fn worker(&self) -> usize {
        self.worker
    }

    /// Enqueues one more task of the current batch onto this worker's own
    /// deque (LIFO end — it will typically run next, right here, while
    /// its inputs are hot; idle workers steal it from the FIFO end).
    pub(crate) fn spawn(&self, task: usize) {
        // ORDERING: Acquire pairs with the abort's Release store; a stale
        // `false` is benign (the spawned task is skipped when popped).
        if self.batch.aborted.load(Ordering::Acquire) {
            // The batch is draining; nothing new may enter it.
            return;
        }
        lock(&self.batch.sync).spawned += 1;
        lock(&self.shared.queues[self.worker]).push_back((self.batch.gen, task));
        self.shared.bump_and_wake();
    }
}

/// What a worker found when it went looking for work.
enum Work {
    Task(Entry),
    Shutdown,
}

/// State shared between the workers and the submitting thread.
struct Shared {
    /// Per-worker deques: owner pops the back (LIFO), thieves and the
    /// owner-when-empty pop other queues' front (FIFO).
    queues: Vec<Mutex<VecDeque<Entry>>>,
    /// Shared FIFO for batch seed tasks.
    injector: Mutex<VecDeque<Entry>>,
    /// Park/wake coordination and the currently installed batch.
    park: Mutex<Park>,
    /// Workers wait here when there is no work.
    work_cv: Condvar,
}

struct Park {
    /// Bumped on every push and on shutdown; closes the scan-then-park
    /// race (a worker only parks if the epoch is unchanged since its
    /// last empty scan).
    epoch: u64,
    /// Number of workers currently parked (wakes are skipped otherwise).
    sleepers: usize,
    /// Tells workers to exit (pool resize or drop).
    shutdown: bool,
    /// The batch whose entries currently populate the queues. At most
    /// one batch is active at a time (the submitter holds the global
    /// pool registry lock for the duration of `run_batch`).
    batch: Option<Arc<Batch>>,
}

impl Shared {
    /// Pops the next entry: own deque back → injector front → steal the
    /// front of the other deques (round-robin from our right neighbour).
    fn try_pop(&self, worker: usize) -> Option<Entry> {
        if let Some(e) = lock(&self.queues[worker]).pop_back() {
            return Some(e);
        }
        if let Some(e) = lock(&self.injector).pop_front() {
            return Some(e);
        }
        let n = self.queues.len();
        for off in 1..n {
            if let Some(e) = lock(&self.queues[(worker + off) % n]).pop_front() {
                return Some(e);
            }
        }
        None
    }

    /// Announces new work: bumps the epoch and wakes parked workers.
    fn bump_and_wake(&self) {
        let mut p = lock(&self.park);
        p.epoch += 1;
        let any_sleeping = p.sleepers > 0;
        drop(p);
        if any_sleeping {
            self.work_cv.notify_all();
        }
    }

    /// Blocks until there is an entry to run or the pool shuts down.
    fn find_work(&self, worker: usize) -> Work {
        loop {
            let epoch = {
                let p = lock(&self.park);
                if p.shutdown {
                    return Work::Shutdown;
                }
                p.epoch
            };
            if let Some(e) = self.try_pop(worker) {
                return Work::Task(e);
            }
            let mut p = lock(&self.park);
            if p.shutdown {
                return Work::Shutdown;
            }
            if p.epoch == epoch {
                // Nothing appeared since our empty scan: park. A push
                // between the scan and this lock bumped the epoch, so we
                // rescan instead of sleeping through it.
                p.sleepers += 1;
                let mut waited = self.work_cv.wait(p).unwrap_or_else(PoisonError::into_inner);
                waited.sleepers -= 1;
            }
        }
    }

    /// The batch a just-popped entry belongs to. The entry's generation
    /// proves its submitter is still parked in `run_batch`, so the
    /// installed batch *is* that generation's batch.
    fn batch_for(&self, entry_gen: u64, cached: &mut Option<Arc<Batch>>) -> Arc<Batch> {
        if let Some(b) = cached {
            if b.gen == entry_gen {
                return Arc::clone(b);
            }
        }
        let b = lock(&self.park)
            .batch
            .clone()
            // PANIC-OK: internal invariant — a queue entry can only exist
            // while its submitter is parked with the batch installed.
            .expect("a queued task implies an installed batch");
        assert_eq!(
            b.gen, entry_gen,
            "queue entry from a batch that is no longer installed"
        );
        *cached = Some(Arc::clone(&b));
        b
    }
}

/// Runs one popped task and does its finish accounting.
fn run_one(shared: &Shared, worker: usize, batch: &Arc<Batch>, task: usize) {
    // ORDERING: Acquire pairs with the Release store below so a skipped
    // task never runs concurrently with the panic payload being recorded.
    if !batch.aborted.load(Ordering::Acquire) {
        let ctx = TaskCtx {
            shared,
            batch,
            worker,
        };
        // SAFETY: see the module-level argument — the submitter cannot
        // return from `run_batch` before this task's finished increment
        // below, so the closure behind `run` is alive.
        let run = unsafe { &*batch.run };
        let _flag = crate::par::enter_task();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(&ctx, task))) {
            let mut slot = lock(&batch.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
            drop(slot);
            // ORDERING: Release publishes the payload write above to any
            // thread whose Acquire load observes the abort flag.
            batch.aborted.store(true, Ordering::Release);
        }
    }
    let mut s = lock(&batch.sync);
    s.finished += 1;
    let done = batch.is_done(&s);
    drop(s);
    if done {
        batch.done.notify_all();
    }
}

fn worker_main(shared: Arc<Shared>, worker: usize) {
    // The most recent batch this worker ran a task of. Caching it skips
    // one park-lock per task in the common case; correctness never
    // depends on it (generation-checked in `batch_for`).
    let mut cached: Option<Arc<Batch>> = None;
    loop {
        match shared.find_work(worker) {
            Work::Shutdown => return,
            Work::Task((gen, task)) => {
                let batch = shared.batch_for(gen, &mut cached);
                run_one(&shared, worker, &batch, task);
            }
        }
    }
}

/// A running pool: `size` parked-or-working OS threads.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Worker count the pool was built with (rebuilt when the configured
    /// thread count changes).
    pub(crate) size: usize,
    /// Generation stamp for the next batch.
    next_gen: u64,
}

impl Pool {
    /// Spawns `size` parked workers.
    pub(crate) fn new(size: usize) -> Self {
        let shared = Arc::new(Shared {
            queues: (0..size).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            park: Mutex::new(Park {
                epoch: 0,
                sleepers: 0,
                shutdown: false,
                batch: None,
            }),
            work_cv: Condvar::new(),
        });
        let handles = (0..size)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("aderdg-worker-{w}"))
                    .spawn(move || worker_main(shared, w))
                    // PANIC-OK: thread spawn fails only on OS resource
                    // exhaustion; a half-built pool is unusable anyway.
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            size,
            next_gen: 1,
        }
    }

    /// Runs a batch of `total` tasks to completion: `seeds` are enqueued
    /// on the shared injector immediately, the rest must be spawned from
    /// inside tasks via [`TaskCtx::spawn`]. Blocks until every spawned
    /// task has finished. Returns the first task panic payload (the
    /// caller re-raises it *after* releasing the pool registry lock, so
    /// a panicking batch cannot poison the pool for the next call).
    pub(crate) fn run_batch(
        &mut self,
        total: usize,
        seeds: impl Iterator<Item = usize>,
        run: RunFn<'_>,
    ) -> Option<Box<dyn Any + Send>> {
        debug_assert!(total > 0, "empty batches are handled by the caller");
        let gen = self.next_gen;
        self.next_gen += 1;
        // SAFETY: lifetime erasure only — `run_batch` does not return
        // until no worker can dereference the pointer again (module-level
        // argument), so the shortened borrow is never outlived.
        let run_erased: *const (dyn Fn(&TaskCtx<'_>, usize) + Sync) =
            unsafe { std::mem::transmute::<RunFn<'_>, RunFn<'static>>(run) };
        let batch = Arc::new(Batch {
            run: run_erased,
            gen,
            total,
            sync: Mutex::new(BatchSync {
                spawned: 0,
                finished: 0,
            }),
            done: Condvar::new(),
            aborted: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let seeds: Vec<Entry> = seeds.map(|t| (gen, t)).collect();
        lock(&self.shared.park).batch = Some(Arc::clone(&batch));
        // Account the seeds as spawned *before* they become poppable: a
        // fast worker may run one (and spawn dependents, incrementing
        // `spawned`) the instant it lands in the injector.
        lock(&batch.sync).spawned = seeds.len();
        lock(&self.shared.injector).extend(seeds);
        self.shared.bump_and_wake();

        let mut s = lock(&batch.sync);
        while !batch.is_done(&s) {
            s = batch.done.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        drop(s);
        lock(&self.shared.park).batch = None;
        let payload = lock(&batch.panic).take();
        payload
    }

    /// Stops and joins every worker. Only called while the pool is idle
    /// (the caller holds the registry lock, so no batch can be active).
    pub(crate) fn shutdown(mut self) {
        {
            let mut p = lock(&self.shared.park);
            p.shutdown = true;
            p.epoch += 1;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
