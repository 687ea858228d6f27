//! Bindings of caller-owned storage into a kernel's buffer slots without
//! copying (the zero-copy entry, [`CompiledKernel::run_views`]). Every
//! binding borrows a flat slice holding the buffer's row-major elements:
//! [`ViewBindings::bind_slice`] read-only and
//! [`ViewBindings::bind_slice_mut`] writable for `f32` data, and
//! [`ViewBindings::bind_indices`] read-only for index data — a sparse
//! format's own `u32` position and coordinate arrays, which the executor
//! reads as its `i32` (the owned binders' `v as i32`, bit for bit). A
//! batch re-binds the slices of each rider and launches again.
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
//! use sparsetir_ir::exec::ViewBindings;
//! let mut c = vec![0.0f32; 8];
//! let mut views = ViewBindings::new();
//! views.bind_slice_mut("A", &mut c[..]);
//! views.bind_slice_mut("B", &mut c[..]);
//! drop(views);
//! ```
//!
//! ```compile_fail,E0502
//! use sparsetir_ir::exec::ViewBindings;
//! let mut c = vec![0.0f32; 8];
//! let mut views = ViewBindings::new();
//! views.bind_slice("A", &c[..]);
//! views.bind_slice_mut("B", &mut c[..]);
//! drop(views);
//! ```
//!
//! Disjoint slices of one buffer bind side by side, and any number of
//! read-only bindings may share one:
//!
//! ```
//! use sparsetir_ir::exec::ViewBindings;
//! let mut c = vec![0.0f32; 8];
//! let (lo, hi) = c.split_at_mut(4);
//! let b = vec![1.0f32; 8];
//! let mut views = ViewBindings::new();
//! views.bind_slice_mut("Lo", lo);
//! views.bind_slice_mut("Hi", hi);
//! views.bind_slice("B", &b);
//! views.bind_slice("B2", &b);
//! ```

#[cfg(doc)]
use super::CompiledKernel;
use super::RawBuf;
use std::marker::PhantomData;

/// Named borrowed bindings for [`CompiledKernel::run_views`]. Binding a
/// name again replaces its earlier binding.
pub struct ViewBindings<'a> {
    pub(super) map: Vec<(&'a str, RawBuf)>,
    /// The borrows the raw views were taken from.
    borrows: PhantomData<&'a mut [f32]>,
}

impl Default for ViewBindings<'_> {
    fn default() -> Self {
        // Room for a served kernel's bindings (fused attention's eleven).
        ViewBindings { map: Vec::with_capacity(12), borrows: PhantomData }
    }
}

impl<'a> ViewBindings<'a> {
    /// Empty binding set.
    #[must_use]
    pub fn new() -> ViewBindings<'a> {
        ViewBindings::default()
    }

    fn bind(&mut self, name: &'a str, view: RawBuf) {
        self.map.retain(|(n, _)| *n != name);
        self.map.push((name, view));
    }

    /// Bind a read-only flat slice under `name`: the buffer's row-major
    /// elements, in place.
    pub fn bind_slice(&mut self, name: &'a str, s: &'a [f32]) {
        // Read-only: `writable` gates every store path.
        let ptr = s.as_ptr().cast_mut();
        self.bind(name, RawBuf::F32 { ptr, len: s.len(), writable: false });
    }

    /// Bind a writable flat slice under `name`.
    pub fn bind_slice_mut(&mut self, name: &'a str, s: &'a mut [f32]) {
        self.bind(name, RawBuf::F32 { ptr: s.as_mut_ptr(), len: s.len(), writable: true });
    }

    /// Bind a read-only index array under `name`, in place: element `i`
    /// reads as `s[i] as i32`.
    pub fn bind_indices(&mut self, name: &'a str, s: &'a [u32]) {
        // `u32` and `i32` share size and alignment, and every bit pattern
        // is both. Read-only: `writable` gates the one integer store path,
        // so nothing writes through a pointer from a shared borrow.
        let ptr = s.as_ptr().cast::<i32>().cast_mut();
        self.bind(name, RawBuf::I32 { ptr, len: s.len(), writable: false });
    }
}
