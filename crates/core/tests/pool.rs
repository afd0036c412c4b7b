//! Scheduler torture tests for the worker pool (`aderdg_core::par`).
//!
//! Seeded random DAGs — diamonds, wide fan-outs, long chains,
//! disconnected components — run at 1/2/4/16 threads (the inline
//! sequential path and the persistent work-stealing pool), asserting
//! every task runs exactly once with its dependencies finished first.
//! Panic-in-task must propagate without deadlocking or
//! poisoning the pool for the next call; `set_num_threads` must resize
//! safely while idle and fail loudly mid-task; `map_max` must keep its
//! NaN/identity semantics, and per-worker states their reuse, on the
//! persistent pool.
//!
//! Every test mutates the process-global thread count, so every test
//! serializes on one mutex and restores what it found.

use aderdg_core::par;
use aderdg_tensor::Lcg;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Serializes the knob-flipping tests; recovers from poisoning so one
/// failed test does not cascade into every other.
static KNOB: Mutex<()> = Mutex::new(());

fn knob_guard() -> std::sync::MutexGuard<'static, ()> {
    KNOB.lock().unwrap_or_else(|e| e.into_inner())
}

/// A task dependency graph in the `run_graph_init` encoding.
#[derive(Debug, Clone, Default)]
struct Dag {
    indegree: Vec<usize>,
    dependents: Vec<Vec<usize>>,
}

impl Dag {
    fn new(n: usize) -> Self {
        Dag {
            indegree: vec![0; n],
            dependents: vec![Vec::new(); n],
        }
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.dependents[from].push(to);
        self.indegree[to] += 1;
    }

    fn len(&self) -> usize {
        self.indegree.len()
    }
}

/// A chain of diamonds: `0 -> {1, 2} -> 3 -> {4, 5} -> 6 -> ...`.
fn diamond_chain(layers: usize) -> Dag {
    let mut g = Dag::new(4 * layers);
    for l in 0..layers {
        let b = 4 * l;
        g.edge(b, b + 1);
        g.edge(b, b + 2);
        g.edge(b + 1, b + 3);
        g.edge(b + 2, b + 3);
        if l + 1 < layers {
            g.edge(b + 3, b + 4);
        }
    }
    g
}

/// One source fanning out to `width` siblings, all joining one sink.
fn wide_fanout(width: usize) -> Dag {
    let mut g = Dag::new(width + 2);
    for t in 1..=width {
        g.edge(0, t);
        g.edge(t, width + 1);
    }
    g
}

/// A single dependency chain of `n` tasks (worst case for stealing:
/// no parallelism to find, scheduler overhead fully exposed).
fn long_chain(n: usize) -> Dag {
    let mut g = Dag::new(n);
    for t in 1..n {
        g.edge(t - 1, t);
    }
    g
}

/// `k` disconnected chains of uneven lengths.
fn disconnected_components(k: usize, seed: u64) -> Dag {
    let mut rng = Lcg::new(seed);
    let lens: Vec<usize> = (0..k).map(|_| rng.usize(1, 40)).collect();
    let mut g = Dag::new(lens.iter().sum());
    let mut base = 0;
    for &len in &lens {
        for t in 1..len {
            g.edge(base + t - 1, base + t);
        }
        base += len;
    }
    g
}

/// A seeded random layered DAG: every task in layer `l > 0` depends on
/// 1–3 random tasks of earlier layers, so diamonds, joins and skips all
/// occur; acyclic by construction.
fn random_layered(seed: u64, layers: usize, width: usize) -> Dag {
    let mut rng = Lcg::new(seed);
    let n = layers * width;
    let mut g = Dag::new(n);
    for t in width..n {
        let deps = rng.usize(1, 4);
        for _ in 0..deps {
            let d = rng.usize(0, (t / width) * width); // any earlier layer
            if !g.dependents[d].contains(&t) {
                g.edge(d, t);
            }
        }
    }
    g
}

/// Runs `g` and asserts exactly-once execution with every dependency
/// finished before its dependents (checked with completion stamps).
fn check_graph(g: &Dag) {
    let n = g.len();
    let finished: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let stamp = AtomicUsize::new(0);
    // Reverse edges once so the in-task dependency check is O(deps).
    let mut deps_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (from, outs) in g.dependents.iter().enumerate() {
        for &to in outs {
            deps_of[to].push(from);
        }
    }
    par::run_graph_init(
        &g.indegree,
        &g.dependents,
        || (),
        |(), t| {
            for &d in &deps_of[t] {
                assert!(
                    finished[d].load(Ordering::Acquire) > 0,
                    "task {t} ran before dependency {d}"
                );
            }
            let s = 1 + stamp.fetch_add(1, Ordering::AcqRel);
            let prev = finished[t].swap(s, Ordering::AcqRel);
            assert_eq!(prev, 0, "task {t} ran twice");
        },
    );
    for (t, f) in finished.iter().enumerate() {
        assert!(f.load(Ordering::Acquire) > 0, "task {t} never ran");
    }
    assert_eq!(stamp.load(Ordering::Acquire), n, "wrong completion count");
}

/// Runs `body` at every thread count of the torture matrix (1 = the
/// inline sequential executor, the rest the pool), restoring the ambient
/// count afterwards.
fn torture_matrix(body: impl Fn()) {
    let _guard = knob_guard();
    let threads_before = par::num_threads();
    for threads in [1, 2, 4, 16] {
        par::set_num_threads(threads);
        body();
    }
    par::set_num_threads(threads_before);
}

#[test]
fn seeded_random_dags_run_exactly_once_in_topo_order() {
    torture_matrix(|| {
        for seed in [1, 7, 42] {
            check_graph(&random_layered(seed, 6, 9));
        }
    });
}

#[test]
fn diamond_chains_wide_fanouts_and_chains() {
    torture_matrix(|| {
        check_graph(&diamond_chain(24));
        check_graph(&wide_fanout(100));
        check_graph(&long_chain(200));
        check_graph(&disconnected_components(12, 3));
    });
}

#[test]
fn empty_graph_single_task_and_tasks_far_exceeding_threads() {
    torture_matrix(|| {
        // Empty graph: a no-op, the task closure must never run.
        par::run_graph_init(&[], &[], || (), |(), _| unreachable!("no tasks"));
        // Single task.
        check_graph(&long_chain(1));
        // Tasks ≫ threads: a 2000-task fan-out through a 16-worker pool.
        check_graph(&wide_fanout(2000));
    });
}

#[test]
fn unbalanced_task_durations_still_cover_every_task() {
    // Steal-heavy shape: the first sibling of a wide fan-out is ~1000×
    // slower than the rest, so with stealing every other worker drains
    // the remaining siblings while one worker is stuck. Covers the
    // "one slow shard" scheduling pattern the pool exists for.
    torture_matrix(|| {
        let g = wide_fanout(64);
        let n = g.len();
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par::run_graph_init(
            &g.indegree,
            &g.dependents,
            || (),
            |(), t| {
                if t == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                hits[t].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    });
}

#[test]
fn panic_in_task_propagates_and_pool_survives() {
    let _guard = knob_guard();
    let threads_before = par::num_threads();
    for threads in [2, 4, 16] {
        par::set_num_threads(threads);
        let g = random_layered(11, 5, 8);
        let victim = g.len() / 2;
        let result = catch_unwind(AssertUnwindSafe(|| {
            par::run_graph_init(
                &g.indegree,
                &g.dependents,
                || (),
                |(), t| {
                    if t == victim {
                        panic!("boom in task {t}");
                    }
                },
            );
        }));
        assert!(result.is_err(), "the task panic must propagate");
        // The pool is not poisoned: graph, cell loop and reduction
        // all still work on the very next calls.
        check_graph(&diamond_chain(8));
        let mut v = vec![0usize; 257];
        par::for_each_mut(&mut v, |i, x| *x = i);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
        let m = par::map_max(&v, 0.0, |&x| x as f64);
        assert_eq!(m, 256.0);
    }
    par::set_num_threads(threads_before);
}

#[test]
fn panic_in_cell_loop_propagates_on_persistent_pool() {
    let _guard = knob_guard();
    let threads_before = par::num_threads();
    par::set_num_threads(4);
    let mut v = vec![0usize; 64];
    let result = catch_unwind(AssertUnwindSafe(|| {
        par::for_each_mut(&mut v, |i, _| {
            if i == 33 {
                panic!("boom in item {i}");
            }
        });
    }));
    assert!(result.is_err(), "the item panic must propagate");
    // Next batch is unaffected.
    par::for_each_mut(&mut v, |i, x| *x = i + 1);
    assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
    par::set_num_threads(threads_before);
}

#[test]
fn set_num_threads_resizes_the_idle_pool_safely() {
    let _guard = knob_guard();
    let threads_before = par::num_threads();
    // Grow, shrink, regrow — a graph and a reduction must work at every
    // size (the pool is rebuilt lazily after each resize).
    for &threads in &[4, 2, 16, 1, 8] {
        par::set_num_threads(threads);
        assert_eq!(par::num_threads(), threads);
        check_graph(&random_layered(5, 4, 6));
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(par::map_max(&v, 0.0, |&x| x), 99.0);
    }
    par::set_num_threads(threads_before);
}

#[test]
fn set_num_threads_mid_task_panics_with_a_clear_message() {
    // The pre-pool implementation silently accepted a resize from inside
    // a running graph (a documented-comment-only footgun); the pool makes
    // it a loud error. Pin the message so it stays actionable.
    let _guard = knob_guard();
    let threads_before = par::num_threads();
    par::set_num_threads(4);
    let mut v = vec![0usize; 16];
    let result = catch_unwind(AssertUnwindSafe(|| {
        par::for_each_mut(&mut v, |_, _| par::set_num_threads(2));
    }));
    let payload = result.expect_err("mid-task resize must panic");
    // The pool propagates the worker's payload verbatim.
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("inside a parallel task"),
        "unexpected panic message: {msg:?}"
    );
    par::set_num_threads(threads_before);
}

#[test]
fn map_max_nan_and_identity_semantics_on_the_persistent_pool() {
    let _guard = knob_guard();
    let threads_before = par::num_threads();
    par::set_num_threads(16);
    // NaN items lose against any non-NaN operand...
    let v = [1.0f64, f64::NAN, 5.0, f64::NAN, 2.0];
    assert_eq!(par::map_max(&v, 0.0, |&x| x), 5.0);
    // ...an all-NaN slice falls back to the identity...
    let all_nan = vec![f64::NAN; 40];
    assert_eq!(par::map_max(&all_nan, -1.0, |&x| x), -1.0);
    // ...the empty slice returns the identity without touching the pool...
    assert_eq!(par::map_max::<f64>(&[], 7.5, |&x| x), 7.5);
    // ...and a NaN identity behaves like f64::max with a NaN seed.
    let w = [2.0f64, 9.0];
    assert_eq!(par::map_max(&w, f64::NAN, |&x| x), 9.0);
    par::set_num_threads(threads_before);
}

#[test]
fn graph_worker_states_are_reused_across_tasks() {
    let _guard = knob_guard();
    let threads_before = par::num_threads();
    par::set_num_threads(4);
    // 500 independent tasks on 4 workers: at most 4 states may be
    // created (one per worker), far fewer than tasks — the whole point
    // of step-spanning scratch reuse.
    let states = AtomicUsize::new(0);
    let ran = AtomicUsize::new(0);
    let g = wide_fanout(498); // 500 tasks
    par::run_graph_init(
        &g.indegree,
        &g.dependents,
        || states.fetch_add(1, Ordering::Relaxed),
        |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        },
    );
    assert_eq!(ran.load(Ordering::Relaxed), 500);
    let created = states.load(Ordering::Relaxed);
    assert!(
        (1..=4).contains(&created),
        "expected at most one state per worker, got {created}"
    );
    par::set_num_threads(threads_before);
}

#[test]
fn cycle_detection_does_not_wedge_either_executor() {
    torture_matrix(|| {
        // Self-cycle hanging off an acyclic prefix.
        let mut g = Dag::new(4);
        g.edge(0, 1);
        g.edge(1, 2);
        g.edge(3, 3); // self-loop: never ready
        let result = catch_unwind(AssertUnwindSafe(|| {
            par::run_graph_init(&g.indegree, &g.dependents, || (), |(), _| {});
        }));
        assert!(result.is_err(), "the cycle must be detected");
        // And the executor still works afterwards.
        check_graph(&diamond_chain(4));
    });
}
