//! Heap allocations of one warm served request, counted by a global
//! allocator that tallies the calling thread's `alloc`, `alloc_zeroed` and
//! `realloc` calls while a count is open. A warm launch binds its
//! adjacency in place, into its kernel's slots in the thread's one slot
//! table: what a warm request still allocates is its own bookkeeping, its
//! output, what its entry point gathers or computes per call, and the one
//! structure array a launch converts (`indptr`).
//!
//! Release builds only: a debug build re-runs a keyed kernel's `build` on
//! every cache hit to check the key (`Runtime::compile_keyed`), which
//! allocates the whole function.

use sparsetir_engine::{Adjacency, Engine, EngineConfig, EngineError, Submission, Ticket};
use sparsetir_ir::exec::Runtime;
use sparsetir_kernels::prelude::{spmm_execute_views_on, AttnHead, SpmmConfig};
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

/// The allocations of the third of three `sub()` requests on a fresh
/// one-permit engine, each served on this thread — inline by a blocking
/// submit, or, `queued`, by its own `wait` after a `try_submit` — after
/// checking that it answered (through `wait`) as the first did.
fn warm_served<T: PartialEq + std::fmt::Debug>(
    sub: impl Fn() -> Submission,
    wait: impl Fn(Ticket) -> Result<T, EngineError>,
    queued: bool,
) -> usize {
    let mut rng = gen::rng(0x46);
    let adj = Adjacency::new(gen::random_csr(64, 64, 0.1, &mut rng));
    let engine = Engine::new(EngineConfig { workers: 1, queue_depth: 32 });
    let serve = |s: Submission| {
        let ticket = if queued { engine.try_submit(&adj, s) } else { engine.submit(&adj, s) };
        wait(ticket.expect("admits")).expect("serves")
    };
    let cold = serve(sub());
    serve(sub());
    let (mut warm, s) = (None, sub());
    let n = allocations(|| warm = Some(serve(s)));
    assert_eq!(warm.as_ref(), Some(&cold));
    let stats = engine.stats();
    let inline = if queued { 0 } else { 3 };
    assert_eq!((stats.served_inline, stats.completed), (inline, 3), "{stats:?}");
    n
}

/// [`warm_served`], served inline.
fn warm_inline<T: PartialEq + std::fmt::Debug>(
    sub: impl Fn() -> Submission,
    wait: impl Fn(Ticket) -> Result<T, EngineError>,
) -> usize {
    warm_served(sub, wait, false)
}

/// Operands for requests on the 64 × 64 graph, drawn from `seed`.
fn dense(rows: usize, cols: usize, seed: u64) -> Dense {
    gen::random_dense(rows, cols, &mut gen::rng(seed))
}

/// A warm SpMM is served in 3 allocations: the ticket's reply slot, the
/// output matrix and the launch's `indptr` words. Before the adjacency
/// bound in place — three `String`-keyed maps and fresh copies of
/// `indptr`, `indices` and the values per launch — the same request
/// allocated 22 times; 7 while a launch gathered its requests' operands and
/// outputs into lists, and 5 while a launch made a name-keyed binding list
/// and a buffer table of its own.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds rebuild the kernel on every cache hit")]
fn a_warm_inline_spmm_allocates_three_times() {
    let n = warm_inline(|| Submission::spmm(dense(64, 16, 1)), Ticket::wait_dense);
    assert_eq!(n, 3, "allocations of one warm inline SpMM");
}

/// A warm SpMM queued by `try_submit` and served by its own `wait` on
/// this thread allocates what an inline one does: queueing and waiting
/// add nothing (the queue holds its capacity from the first request).
#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds rebuild the kernel on every cache hit")]
fn a_warm_waited_spmm_allocates_three_times() {
    let n = warm_served(|| Submission::spmm(dense(64, 16, 1)), Ticket::wait_dense, true);
    assert_eq!(n, 3, "allocations of one warm SpMM served by its wait");
}

/// A warm SDDMM: the reply slot, the output's non-zero values and the
/// `indptr` words.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds rebuild the kernel on every cache hit")]
fn a_warm_inline_sddmm_allocates_three_times() {
    let sub = || Submission::sddmm(dense(64, 8, 2), dense(8, 64, 3));
    assert_eq!(warm_inline(sub, Ticket::wait_edges), 3, "allocations of one warm inline SDDMM");
}

/// A warm one-head fused attention: the reply slot, the request's list
/// of outputs and its one output matrix, the three operand lists the op
/// table hands the entry point (`qs`, `kts`, `vs`), and the `indptr`
/// words. Its softmax scratch (`S`, `M`, `P`, `Sum`) comes back from the
/// runtime's pool.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds rebuild the kernel on every cache hit")]
fn a_warm_inline_one_head_attention_allocates_seven_times() {
    let sub = || {
        let head = AttnHead { q: dense(64, 4, 4), kt: dense(4, 64, 5), v: dense(64, 4, 6) };
        Submission::fused_attention(vec![head])
    };
    assert_eq!(warm_inline(sub, Ticket::wait_heads), 7, "allocations of one warm attention");
}

/// A warm fused SAGE: the reply slot, the output matrix, the inverse
/// degrees `Dinv` the entry point computes per call, and the `indptr`
/// words. Its `Agg` scratch comes back from the runtime's pool.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds rebuild the kernel on every cache hit")]
fn a_warm_inline_fused_sage_allocates_four_times() {
    let sub = || Submission::fused_sage(dense(64, 8, 7), dense(8, 4, 8));
    assert_eq!(warm_inline(sub, Ticket::wait_dense), 4, "allocations of one warm fused SAGE");
}

/// The entry point alone, on a warm runtime and into an output the caller
/// holds, allocates once: the launch's `indptr` words.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds rebuild the kernel on every cache hit")]
fn a_warm_direct_spmm_allocates_its_indptr_once() {
    let a = gen::random_csr(64, 64, 0.1, &mut gen::rng(0x46));
    let (x, rt, config) = (dense(64, 16, 1), Runtime::new(), SpmmConfig::default());
    let mut outs = [Dense::zeros(64, 16)];
    for _ in 0..2 {
        spmm_execute_views_on(&rt, &a, &[&x], &mut outs, &config).expect("serves");
    }
    let warm = outs[0].clone();
    let n = allocations(|| {
        spmm_execute_views_on(&rt, &a, &[&x], &mut outs, &config).expect("serves");
    });
    assert_eq!(outs[0], warm);
    assert_eq!(n, 1, "allocations of one warm direct SpMM");
}
