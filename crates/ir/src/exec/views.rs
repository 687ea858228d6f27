//! Bindings of caller-owned storage into a kernel's buffer slots without
//! copying (the zero-copy batch entry, [`CompiledKernel::run_views`]).
//! A buffer binds two ways: an owned tensor ([`ViewBindings::bind_tensor`])
//! or a borrowed flat slice ([`ViewBindings::bind_slice`] read-only,
//! [`ViewBindings::bind_slice_mut`] writable) holding its row-major
//! elements. A batch re-binds the slices of each rider and launches again.
//!
//! **The aliasing rule.** A writable element is reachable through exactly
//! one binding of a launch. The executor's element accesses — generic
//! dispatch and the fused lane bodies alike — are plain raw-pointer reads
//! and writes on the caller's thread, and this rule is what makes them
//! sound: a launch's frame is the only accessor of what it writes. The
//! borrows enforce it. [`ViewBindings::bind_slice_mut`] takes a `&mut`
//! slice for the binding's lifetime, [`BoundArg::Tensor`] a `&mut` tensor,
//! and a read-only binding's `&` slice keeps it from being written
//! elsewhere meanwhile. A slice cannot be bound writable twice, or
//! writable while a read-only binding holds it:
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
use crate::eval::TensorData;
use std::collections::HashMap;

/// One binding handed to [`CompiledKernel::run_views`]: a whole tensor or
/// a borrowed flat slice.
pub enum BoundArg<'a> {
    /// A whole owned tensor, as [`CompiledKernel::run`] binds.
    Tensor(&'a mut TensorData),
    /// A read-only flat f32 slice.
    Slice(&'a [f32]),
    /// A writable flat f32 slice.
    SliceMut(&'a mut [f32]),
}

/// Named bindings for [`CompiledKernel::run_views`], mixing whole tensors
/// with slices of caller-owned storage.
#[derive(Default)]
pub struct ViewBindings<'a> {
    pub(super) map: HashMap<String, BoundArg<'a>>,
}

impl<'a> ViewBindings<'a> {
    /// Empty binding set.
    #[must_use]
    pub fn new() -> ViewBindings<'a> {
        ViewBindings::default()
    }

    /// Bind every tensor of `tensors` by name (the bridge from the
    /// copying path's binding map).
    pub fn from_tensors(tensors: &'a mut HashMap<String, TensorData>) -> ViewBindings<'a> {
        let map = tensors.iter_mut().map(|(k, v)| (k.clone(), BoundArg::Tensor(v))).collect();
        ViewBindings { map }
    }

    /// Bind a whole tensor under `name`.
    pub fn bind_tensor(&mut self, name: impl Into<String>, t: &'a mut TensorData) {
        self.map.insert(name.into(), BoundArg::Tensor(t));
    }

    /// Bind a read-only flat slice under `name`: the buffer's row-major
    /// elements, in place.
    pub fn bind_slice(&mut self, name: impl Into<String>, s: &'a [f32]) {
        self.map.insert(name.into(), BoundArg::Slice(s));
    }

    /// Bind a writable flat slice under `name`.
    pub fn bind_slice_mut(&mut self, name: impl Into<String>, s: &'a mut [f32]) {
        self.map.insert(name.into(), BoundArg::SliceMut(s));
    }
}
