//! A launch's slot table: caller-owned storage bound, without copying, into
//! one kernel's parameter and buffer slots, each name resolved when it is
//! bound (the zero-copy entry, [`CompiledKernel::run_views`]). A buffer
//! binding borrows a flat slice of the buffer's row-major elements:
//! [`ViewBindings::bind_slice`] read-only and [`ViewBindings::bind_slice_mut`]
//! writable for `f32` data, [`ViewBindings::bind_indices`] read-only for a
//! sparse format's own `u32` index arrays, read as the executor's `i32`
//! (the owned binders' `v as i32`, bit for bit). A batch re-binds each
//! rider's slices and launches again.
//!
//! **The aliasing rule.** A writable element is reachable through exactly
//! one binding of a launch. The executor's element accesses — generic
//! dispatch and the fused lane bodies alike — are plain raw-pointer reads
//! and writes on the caller's thread, and this rule is what makes them
//! sound: a launch's frame is the only accessor of what it writes. The
//! borrows enforce it. [`ViewBindings::bind_slice_mut`] takes a `&mut`
//! slice for the binding's lifetime, and a read-only binding's `&` slice —
//! an `f32` one or an index one — keeps it from being written elsewhere
//! meanwhile, while the executor refuses every store into it. A slice
//! cannot be bound writable twice, or writable while a read-only binding
//! holds it:
//!
//! ```compile_fail,E0499
//! # use sparsetir_ir::prelude::*;
//! # let kernel = CompiledKernel::compile(&PrimFunc::new("k", vec![], vec![], Stmt::Seq(vec![])));
//! # let kernel = kernel.unwrap();
//! let mut c = vec![0.0f32; 8];
//! let mut views = ViewBindings::new(&kernel);
//! views.bind_slice_mut("A", &mut c[..]);
//! views.bind_slice_mut("B", &mut c[..]);
//! drop(views);
//! ```
//!
//! ```compile_fail,E0502
//! # use sparsetir_ir::prelude::*;
//! # let kernel = CompiledKernel::compile(&PrimFunc::new("k", vec![], vec![], Stmt::Seq(vec![])));
//! # let kernel = kernel.unwrap();
//! let mut c = vec![0.0f32; 8];
//! let mut views = ViewBindings::new(&kernel);
//! views.bind_slice("A", &c[..]);
//! views.bind_slice_mut("B", &mut c[..]);
//! drop(views);
//! ```
//!
//! Disjoint slices of one buffer bind side by side, and any number of
//! read-only bindings may share one:
//!
//! ```
//! # use sparsetir_ir::prelude::*;
//! # let kernel = CompiledKernel::compile(&PrimFunc::new("k", vec![], vec![], Stmt::Seq(vec![])));
//! # let kernel = kernel.unwrap();
//! let mut c = vec![0.0f32; 8];
//! let (lo, hi) = c.split_at_mut(4);
//! let b = vec![1.0f32; 8];
//! let mut views = ViewBindings::new(&kernel);
//! views.bind_slice_mut("Lo", lo);
//! views.bind_slice_mut("Hi", hi);
//! views.bind_slice("B", &b);
//! views.bind_slice("B2", &b);
//! ```

use super::bytecode::{Slots, SLOTS};
use super::{CompiledKernel, RawBuf};
use std::marker::PhantomData;

/// This thread's slot table, for launches of the kernel it was made for
/// and filled as each binding is made (a name the kernel lacks is ignored,
/// binding a name again replaces its binding); handed back on drop.
pub struct ViewBindings<'a> {
    pub(super) kernel: &'a CompiledKernel,
    pub(super) slots: Slots,
    /// The borrows the raw views were taken from.
    borrows: PhantomData<&'a mut [f32]>,
}

impl<'a> ViewBindings<'a> {
    /// An empty table for `kernel`.
    #[must_use]
    pub fn new(kernel: &'a CompiledKernel) -> ViewBindings<'a> {
        let mut slots = SLOTS.take();
        slots.scalars.resize(kernel.slot_names.len(), 0);
        slots.bound.resize(kernel.n_params as usize, false);
        slots.bufs.resize(kernel.plan.entries.len(), RawBuf::Absent);
        ViewBindings { kernel, slots, borrows: PhantomData }
    }

    /// Fill the slot of every kernel buffer named `name` with `view`.
    pub(super) fn bind(&mut self, name: &str, view: RawBuf) {
        let args = &self.kernel.plan.entries[..self.kernel.n_buffers as usize];
        for (slot, _) in args.iter().enumerate().filter(|(_, e)| e.name == name) {
            self.slots.bufs[slot] = view;
        }
    }

    /// Set the scalar parameter `name` to `value`.
    pub fn bind_scalar(&mut self, name: &str, value: i64) {
        let params = &self.kernel.slot_names[..self.kernel.n_params as usize];
        for (slot, _) in params.iter().enumerate().filter(|(_, n)| *n == name) {
            (self.slots.scalars[slot], self.slots.bound[slot]) = (value, true);
        }
    }

    /// Bind a read-only flat slice under `name`: the buffer's row-major
    /// elements, in place.
    pub fn bind_slice(&mut self, name: &str, s: &'a [f32]) {
        // Read-only: `writable` gates every store path.
        let ptr = s.as_ptr().cast_mut();
        self.bind(name, RawBuf::F32 { ptr, len: s.len(), writable: false });
    }

    /// Bind a writable flat slice under `name`.
    pub fn bind_slice_mut(&mut self, name: &str, s: &'a mut [f32]) {
        self.bind(name, RawBuf::F32 { ptr: s.as_mut_ptr(), len: s.len(), writable: true });
    }

    /// Bind a read-only index array under `name`, in place: element `i`
    /// reads as `s[i] as i32`.
    pub fn bind_indices(&mut self, name: &str, s: &'a [u32]) {
        // `u32` and `i32` share size and alignment, and every bit pattern
        // is both. Read-only: `writable` gates the one integer store path,
        // so nothing writes through a pointer from a shared borrow.
        let ptr = s.as_ptr().cast::<i32>().cast_mut();
        self.bind(name, RawBuf::I32 { ptr, len: s.len(), writable: false });
    }
}

impl Drop for ViewBindings<'_> {
    fn drop(&mut self) {
        let mut slots = std::mem::take(&mut self.slots);
        slots.scalars.clear();
        slots.bound.clear();
        slots.bufs.clear();
        // Gone only while the thread itself is torn down.
        let _ = SLOTS.try_with(|slot| slot.set(slots));
    }
}
