//! Heap allocations of one warm served request, counted by a global
//! allocator that tallies the calling thread's `alloc`, `alloc_zeroed` and
//! `realloc` calls while a count is open. A warm inline SpMM binds its
//! adjacency in place: what it still allocates is the request's own
//! bookkeeping, its output, and the one structure array a launch converts
//! (`indptr`).
//!
//! Release builds only: a debug build re-runs a keyed kernel's `build` on
//! every cache hit to check the key (`Runtime::compile_keyed`), which
//! allocates the whole function.

use sparsetir_engine::{Adjacency, Engine, EngineConfig, Submission};
use sparsetir_smat::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// This thread's allocations since the open count began; `None` when
    /// no count is open.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn tick() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the count is a side effect on a thread-local `Cell`, which
// does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The calling thread's allocations while `f` runs.
fn allocations(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).expect("the count is open")
}

/// One warm SpMM request on an idle one-worker engine is served on the
/// caller's thread in 5 allocations: the ticket's reply slot, the output
/// matrix, the launch's `indptr` words, its binding set and the executor's
/// buffer table. Before the adjacency bound in place — three
/// `String`-keyed maps and fresh copies of `indptr`, `indices` and the
/// values per launch — the same request allocated 22 times, and 7 while a
/// launch still gathered its requests' operands and outputs into lists.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds rebuild the kernel on every cache hit")]
fn a_warm_inline_spmm_allocates_five_times() {
    let mut rng = gen::rng(0x46);
    let adj = Adjacency::new(gen::random_csr(64, 64, 0.1, &mut rng));
    let x = gen::random_dense(64, 16, &mut rng);
    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 32 });
    let serve = |x: Dense| {
        let ticket = engine.submit(&adj, Submission::spmm(x)).expect("admits");
        ticket.wait_dense().expect("serves")
    };
    let cold = serve(x.clone());
    serve(x.clone());
    let (mut warm, operand) = (None, x.clone());
    let n = allocations(|| warm = Some(serve(operand)));
    assert_eq!(warm.as_ref(), Some(&cold));
    assert_eq!(engine.stats().served_inline, 3, "every request ran on this thread");
    assert_eq!(n, 5, "allocations of one warm inline SpMM");
}
