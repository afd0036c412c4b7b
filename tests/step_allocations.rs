//! The graph driver builds its scratch once per thread and shape, not
//! once per step: after an engine's first step, a step allocates less
//! than a tenth of what the first one did. What is left per step is the
//! step's lock lists and each task's guard and source lists; the kernel,
//! block, output and corrector buffers are not rebuilt.
//!
//! Counts the bytes every allocation asks for through a counting global
//! allocator. The count is process-global, so all assertions live in
//! this one test function (integration-test files run as their own
//! process).

use aderdg::core::{par, Engine, EngineConfig};
use aderdg::mesh::StructuredMesh;
use aderdg::pde::{elastic, Elastic, Material};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes requested so far: every allocation's size, and a reallocation's
/// new size.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the count on
// the side allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes requested by each of four steps of an elastic engine at order 5.
fn bytes_per_step(kernel: &str) -> [usize; 4] {
    let config = EngineConfig::new(5).with_kernel_name(kernel);
    let mut engine = Engine::new(StructuredMesh::unit_cube(2), Elastic, config);
    engine.set_initial(|x, q| {
        q.fill(0.0);
        q[elastic::VX] = (x[0] * 3.0).sin();
        let mat = Material {
            rho: 1.0,
            cp: 2.0,
            cs: 1.0,
        };
        Elastic::set_params(q, mat, &Elastic::IDENTITY_JAC);
    });
    let dt = engine.max_dt() * 0.5;
    std::array::from_fn(|_| {
        let before = REQUESTED.load(Ordering::Relaxed);
        engine.step(dt);
        REQUESTED.load(Ordering::Relaxed) - before
    })
}

#[test]
fn later_steps_allocate_under_a_tenth_of_the_first() {
    // One thread: every task runs on this thread, with its scratch.
    par::set_num_threads(1);
    for kernel in ["aosoa_splitck", "log"] {
        let bytes = bytes_per_step(kernel);
        eprintln!("{kernel}: bytes requested per step {bytes:?}");
        for (i, &b) in bytes.iter().enumerate().skip(1) {
            assert!(
                b < bytes[0] / 10,
                "{kernel}: step {} requested {b} bytes, step 1 {}",
                i + 1,
                bytes[0]
            );
        }
    }
}
