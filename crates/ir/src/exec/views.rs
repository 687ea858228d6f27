//! Bindings of caller-owned storage into a kernel's buffer slots without
//! copying (the zero-copy batch entry, [`CompiledKernel::run_views`]).
//! A buffer binds three ways: an owned tensor ([`ViewBindings::bind_tensor`]),
//! a borrowed flat slice ([`ViewBindings::bind_slice`] read-only,
//! [`ViewBindings::bind_slice_mut`] writable), or a column stack
//! ([`ColsView`]: several row-major slices side by side, one logical
//! matrix — a column view of one full-width slice binds as that slice).
//!
//! **The aliasing rule.** A writable element is reachable through exactly
//! one binding of a launch. The executor's element accesses — generic
//! dispatch and the fused lane bodies alike — are plain raw-pointer reads
//! and writes on the caller's thread, and this rule is what makes them
//! sound: a launch's frame is the only accessor of what it writes. The
//! borrows enforce it. [`ViewBindings::bind_slice_mut`] and
//! [`ColsView::write`] take `&mut` slices for the binding's lifetime,
//! [`BoundArg::Tensor`] a `&mut` tensor, and a read-only binding's `&`
//! slices keep them from being written elsewhere meanwhile. A slice cannot
//! be bound writable twice, or writable while a read-only binding holds it:
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
//! ```compile_fail,E0499
//! use sparsetir_ir::exec::ColsView;
//! let mut c = vec![0.0f32; 8];
//! let a = ColsView::write(2, vec![(&mut c[..], 4)]).unwrap();
//! let b = ColsView::write(2, vec![(&mut c[..], 4)]).unwrap();
//! drop((a, b));
//! ```
//!
//! ```compile_fail,E0502
//! use sparsetir_ir::exec::ColsView;
//! let mut c = vec![0.0f32; 8];
//! let r = ColsView::read(2, &[(&c[..], 4)]).unwrap();
//! let w = ColsView::write(2, vec![(&mut c[..], 4)]).unwrap();
//! drop((r, w));
//! ```
//!
//! Disjoint slices of one buffer bind side by side, and any number of
//! read-only bindings may share one:
//!
//! ```
//! use sparsetir_ir::exec::{ColsView, ViewBindings};
//! let mut c = vec![0.0f32; 8];
//! let (lo, hi) = c.split_at_mut(4);
//! let b = vec![1.0f32; 8];
//! let mut views = ViewBindings::new();
//! views.bind_slice_mut("Lo", lo);
//! views.bind_cols("Hi", ColsView::write(2, vec![(hi, 2)]).unwrap());
//! views.bind_slice("B", &b);
//! let r = ColsView::read(2, &[(&b[..], 4)]).unwrap();
//! assert_eq!((r.rows(), r.width()), (2, 4));
//! ```

#[cfg(doc)]
use super::CompiledKernel;
use super::{ColSeg, ExecError, RawBuf};
use crate::eval::TensorData;
use std::collections::HashMap;

/// A column-segmented f32 binding: one logical `rows × width` row-major
/// matrix whose columns are backed by several caller-owned row-major
/// buffers side by side (each segment contributing a contiguous block of
/// columns). The flat-index→(segment, offset) resolution is a precomputed
/// per-column table, so the executor's fused lane kernels run per-segment
/// contiguous loops with no per-element division.
pub struct ColsView<'a> {
    table: Vec<ColSeg>,
    rows: usize,
    writable: bool,
    _marker: std::marker::PhantomData<&'a mut [f32]>,
}

impl<'a> ColsView<'a> {
    /// Read-only view of `segs` as `(row-major slice, cols)` pairs placed
    /// side by side; total width is the sum of the `cols` values.
    ///
    /// # Errors
    /// Fails when a segment's length is not `rows * cols`.
    pub fn read(rows: usize, segs: &[(&'a [f32], usize)]) -> Result<ColsView<'a>, ExecError> {
        // Read-only: the pointers are never written through (`writable`
        // gates every store path).
        let iter = segs.iter().map(|(s, cols)| (s.as_ptr().cast_mut(), s.len(), *cols));
        Ok(ColsView {
            table: col_table(rows, iter)?,
            rows,
            writable: false,
            _marker: std::marker::PhantomData,
        })
    }

    /// Writable view of `segs` as `(row-major slice, cols)` pairs placed
    /// side by side.
    ///
    /// # Errors
    /// Fails when a segment's length is not `rows * cols`.
    pub fn write(
        rows: usize,
        segs: Vec<(&'a mut [f32], usize)>,
    ) -> Result<ColsView<'a>, ExecError> {
        let iter = segs.into_iter().map(|(s, cols)| (s.as_mut_ptr(), s.len(), cols));
        Ok(ColsView {
            table: col_table(rows, iter)?,
            rows,
            writable: true,
            _marker: std::marker::PhantomData,
        })
    }

    /// Total logical width (sum of the segment widths).
    #[must_use]
    pub fn width(&self) -> usize {
        self.table.len()
    }

    /// Logical row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The binding the executor sees: flat storage when the table is one
    /// segment as wide as the view (a row-major allocation like any whole
    /// tensor), else the column table.
    pub(super) fn raw(&self) -> RawBuf {
        if let Some(first) = self.table.first() {
            let w = self.table.len();
            if first.rem as usize == w && first.stride as usize == w {
                let len = self.rows * w;
                return RawBuf::F32 { ptr: first.ptr, len, writable: self.writable };
            }
        }
        RawBuf::SegCols {
            table: self.table.as_ptr(),
            width: self.table.len(),
            rows: self.rows,
            writable: self.writable,
        }
    }
}

fn col_table(
    rows: usize,
    segs: impl Iterator<Item = (*mut f32, usize, usize)>,
) -> Result<Vec<ColSeg>, ExecError> {
    let mut table = Vec::new();
    for (i, (ptr, len, cols)) in segs.enumerate() {
        if rows.checked_mul(cols) != Some(len) {
            return Err(ExecError::new(format!(
                "segmented binding: segment {i} has {len} elements, expected {rows}x{cols}"
            )));
        }
        let stride = u32::try_from(cols)
            .map_err(|_| ExecError::new("segmented binding: segment width overflows u32"))?;
        for c in 0..cols {
            // `wrapping_add` claims nothing about the allocation: with
            // `rows == 0` the segment is empty (`len == 0`) and `ptr + c`
            // would be out of bounds for `ptr::add`. Every dereference of
            // `ColSeg::ptr` sits behind an `idx < rows * width` check
            // (`Frame::f32_at`, `fuse::resolve_lanes`), which a zero-row view
            // never passes; for `rows > 0`, `c < cols <= len` keeps the
            // pointer inside the segment.
            debug_assert!(rows == 0 || c < len);
            table.push(ColSeg { ptr: ptr.wrapping_add(c), stride, rem: stride - c as u32 });
        }
    }
    Ok(table)
}

/// One binding handed to [`CompiledKernel::run_views`]: a whole tensor, a
/// borrowed flat slice or a column-segmented view.
pub enum BoundArg<'a> {
    /// A whole owned tensor, as [`CompiledKernel::run`] binds.
    Tensor(&'a mut TensorData),
    /// A read-only flat f32 slice.
    Slice(&'a [f32]),
    /// A writable flat f32 slice.
    SliceMut(&'a mut [f32]),
    /// A column-segmented f32 view.
    Cols(ColsView<'a>),
}

/// Named bindings for [`CompiledKernel::run_views`], mixing whole tensors
/// with slices and column views over caller-owned storage.
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

    /// Bind a column-segmented view under `name`.
    pub fn bind_cols(&mut self, name: impl Into<String>, v: ColsView<'a>) {
        self.map.insert(name.into(), BoundArg::Cols(v));
    }
}
