//! Per-kernel memory plans and the size-classed scratch [`BufferPool`]
//! that serves `Allocate`d buffers at run time.

use super::{CStmt, IntExpr};
#[cfg(doc)]
use super::{CompiledKernel, Runtime};
use crate::expr::Expr;
use crate::func::PrimFunc;
use crate::printer::print_expr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One buffer slot's compile-time memory requirement.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    /// Source buffer name.
    pub name: String,
    /// Element type (`f32` when true).
    pub is_float: bool,
    /// Statically known element count — `Some` when every shape extent is
    /// a compile-time constant.
    pub len: Option<usize>,
    /// The element count as the declared shape states it when that is not
    /// a constant: an expression over the kernel's scalar parameters (a
    /// sparse buffer's `nnz`), fixed at launch.
    pub symbolic: Option<String>,
    /// True for kernel-local `Allocate` scratch (served from the buffer
    /// pool at run time) rather than a caller binding.
    pub local: bool,
}

/// A [`CompiledKernel`]'s memory plan: per-buffer-slot requirements
/// computed once at compile time, keying the size-classed [`BufferPool`]
/// and rendered into the disassembly header.
#[derive(Debug, Clone, Default)]
pub struct MemoryPlan {
    /// One entry per buffer slot, in slot order.
    pub entries: Vec<PlanEntry>,
}

impl MemoryPlan {
    /// `func`'s plan: its buffers are the first of the named slots.
    pub(super) fn of(func: &PrimFunc, buf_names: Vec<String>, tree: &CStmt) -> MemoryPlan {
        let mut entries: Vec<PlanEntry> = buf_names
            .into_iter()
            .map(|name| PlanEntry { name, is_float: true, len: None, symbolic: None, local: true })
            .collect();
        for (e, b) in entries.iter_mut().zip(&func.buffers) {
            e.local = false;
            e.is_float = b.dtype.is_float();
            e.len = const_shape_product(&b.shape);
            if e.len.is_none() {
                let dims: Vec<String> = b.shape.iter().map(print_expr).collect();
                e.symbolic = Some(dims.join(" * "));
            }
        }
        collect_allocs(tree, &mut entries);
        MemoryPlan { entries }
    }

    /// Total statically planned bytes (4-byte elements) across all slots
    /// with a known length.
    #[must_use]
    pub fn static_bytes(&self) -> usize {
        self.entries.iter().filter_map(|e| e.len).map(|l| l * 4).sum()
    }
}

fn const_shape_product(dims: &[Expr]) -> Option<usize> {
    let mut p: i64 = 1;
    for d in dims {
        match d {
            Expr::Int { value, .. } => p = p.checked_mul(*value)?,
            _ => return None,
        }
    }
    usize::try_from(p).ok()
}

fn collect_allocs(s: &CStmt, entries: &mut [PlanEntry]) {
    match s {
        CStmt::Alloc { buf, is_float, len_dims, body, .. } => {
            let e = &mut entries[*buf as usize];
            e.is_float = *is_float;
            e.local = true;
            let mut p: i64 = 1;
            let mut known = true;
            for d in len_dims {
                match d {
                    IntExpr::Const(c) => p = p.saturating_mul(*c),
                    _ => known = false,
                }
            }
            if known {
                e.len = usize::try_from(p).ok();
            }
            collect_allocs(body, entries);
        }
        CStmt::For { body, .. } | CStmt::Let { body, .. } => {
            collect_allocs(body, entries);
        }
        CStmt::Block(b) => {
            if let Some(init) = &b.init {
                collect_allocs(init, entries);
            }
            collect_allocs(&b.body, entries);
        }
        CStmt::Seq(v) => {
            for s in v {
                collect_allocs(s, entries);
            }
        }
        CStmt::If { then_, else_, .. } => {
            collect_allocs(then_, entries);
            if let Some(e) = else_ {
                collect_allocs(e, entries);
            }
        }
        _ => {}
    }
}

/// Number of power-of-two size classes in a [`BufferPool`].
const POOL_CLASSES: usize = 48;

/// Free buffers retained per size class (bounds idle memory).
const POOL_MAX_PER_CLASS: usize = 8;

fn size_class(len: usize) -> usize {
    (len.max(1).next_power_of_two().trailing_zeros() as usize).min(POOL_CLASSES - 1)
}

/// Size-classed pool of scratch buffers keyed by a kernel's
/// [`MemoryPlan`] requirements. `acquire_*` pops a free buffer of the
/// next-power-of-two class (a *hit*) or heap-allocates one (a *miss*) and
/// returns it zeroed either way; `release_*` files storage back by
/// capacity class. Kernels compiled through one [`Runtime`] share its
/// pool, so the serving engine's per-launch scratch (fused-attention and
/// fused-SAGE intermediates) stops hitting the allocator once warm.
pub struct BufferPool {
    f32_free: Vec<Mutex<Vec<Vec<f32>>>>,
    i32_free: Vec<Mutex<Vec<Vec<i32>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        BufferPool::new()
    }
}

impl BufferPool {
    /// Empty pool.
    #[must_use]
    pub fn new() -> BufferPool {
        BufferPool {
            f32_free: (0..POOL_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
            i32_free: (0..POOL_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A zeroed `f32` buffer of exactly `len` elements.
    #[must_use]
    pub fn acquire_f32(&self, len: usize) -> Vec<f32> {
        let c = size_class(len);
        if let Some(mut v) = self.f32_free[c].lock().unwrap().pop() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            v.clear();
            v.resize(len, 0.0);
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut v = Vec::with_capacity(len.max(1).next_power_of_two());
        v.resize(len, 0.0);
        v
    }

    /// A zeroed `i32` buffer of exactly `len` elements.
    #[must_use]
    pub fn acquire_i32(&self, len: usize) -> Vec<i32> {
        let c = size_class(len);
        if let Some(mut v) = self.i32_free[c].lock().unwrap().pop() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            v.clear();
            v.resize(len, 0);
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut v = Vec::with_capacity(len.max(1).next_power_of_two());
        v.resize(len, 0);
        v
    }

    /// Return an `f32` buffer's storage to the pool.
    pub fn release_f32(&self, v: Vec<f32>) {
        let cap = v.capacity();
        if cap == 0 {
            return;
        }
        let c = (cap.ilog2() as usize).min(POOL_CLASSES - 1);
        let mut free = self.f32_free[c].lock().unwrap();
        if free.len() < POOL_MAX_PER_CLASS {
            free.push(v);
        }
    }

    /// Return an `i32` buffer's storage to the pool.
    pub fn release_i32(&self, v: Vec<i32>) {
        let cap = v.capacity();
        if cap == 0 {
            return;
        }
        let c = (cap.ilog2() as usize).min(POOL_CLASSES - 1);
        let mut free = self.i32_free[c].lock().unwrap();
        if free.len() < POOL_MAX_PER_CLASS {
            free.push(v);
        }
    }

    /// `(hits, misses)` counters, cumulative since construction.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}
